"""Solve the stencil-exact Dirichlet benchmarks on a ladder of grids.

Each problem has a quadratic exact solution reproduced exactly by the
wide stencil, so the max-node error measures pure solver convergence.
Prints one row per (operator, grid): solver steps, sparse factorizations,
accepted Newton steps, the start the iteration took ("init" or
"poisson"), wall time, error.
Exits 1 when a max error exceeds MAX_ERR (after printing every row), and
non-zero when a solve raises.

Usage: python scripts/run_dirichlet_benchmarks.py [n_side ...]   (default 33 65 129)
"""

import sys
import time

import numpy as np

from jetcones.grids import GridFunction, square_grid
from jetcones.solver import solve_dirichlet

MAX_ERR = 1e-6


def quadratics(grid):
    """The bowl |x|^2 / 2 and the saddle x1^2 - x2^2, evaluated on the
    node array in one pass each."""
    x = np.stack(np.meshgrid(*grid.coords(), indexing="ij"), axis=-1)
    return (GridFunction(grid, 0.5 * np.sum(x * x, axis=-1)),
            GridFunction(grid, x[..., 0] ** 2 - x[..., 1] ** 2))


def main():
    sizes = [int(a) for a in sys.argv[1:]] or [33, 65, 129]
    print(f"{'operator':12s} {'problem':36s} {'grid':>7s} {'iters':>5s} {'facts':>5s} "
          f"{'newton':>6s} {'start':>7s} {'time':>7s} {'max err':>8s}")
    failed = 0
    for n_side in sizes:
        grid = square_grid(n_side, 0.0, 1.0)
        quad, saddle = quadratics(grid)
        runs = [
            ("P", 1.0, quad, "minimal directional curvature = 1"),
            ("pfold:p=2", 0.0, saddle, "harmonic (frame-mean = 0)"),
            ("slag", float(np.pi / 2), quad, "phase sum = pi/2"),
            ("pucci:1,2", -2.0, saddle, "Pucci minimal operator = -2"),
        ]
        zeros = np.zeros(grid.dims)
        for key, rhs, exact, desc in runs:
            t0 = time.perf_counter()
            u, rep = solve_dirichlet(key, rhs, exact, tol=1e-8, init=zeros)
            elapsed = time.perf_counter() - t0
            err = float(np.max(np.abs(u.values - exact.values)))
            print(f"{key:12s} {desc:36s} {f'{n_side}^2':>7s} {rep.iterations:5d} "
                  f"{rep.factorizations:5d} {rep.newton_steps:6d} {rep.start:>7s} "
                  f"{elapsed:6.2f}s {err:8.1e}")
            failed += not err <= MAX_ERR
    if failed:
        print(f"{failed} solve(s) off the exact solution by more than {MAX_ERR:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
