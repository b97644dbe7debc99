import dataclasses
import importlib.util
import itertools
import math
import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from jetcones.catalog import (
    Arity,
    DirectionalCone,
    MonotonicityCone,
    VariableFiberMap,
    bind_key,
    cone_P,
    cone_P_dual,
    make_oracle,
)
from jetcones.duality import dual_oracle
from jetcones.errors import (
    BadParameters,
    HypothesisViolation,
    IndexOutOfRange,
    NotConverged,
    UnknownKey,
    UnstableStep,
)
from jetcones.experiments import (
    comparison_battery,
    perturbed_ma_map,
    quadratic_grid_function,
    utp_perturbed_ma,
    zmp_sample,
)
from jetcones.grids import (
    GridFunction,
    perron_envelope,
    square_grid,
)
from jetcones.jets import Jet2, SymMat, random_symmetric
from jetcones import experiments, solver
from jetcones.solver import (
    DISCRETE_OPERATORS,
    DiscreteOperator,
    NodeReport,
    TranslationReport,
    _setup,
    check_subharmonic,
    check_superharmonic,
    comparison_experiment,
    make_discrete_operator,
    scheme_monotonicity_probe,
    solve_dirichlet,
    stencil_bias,
    strict_approximator,
    uniform_translation_probe,
    zmp_experiment,
)
from jet2_refs import (
    discrete_jet,
    from_callable,
    interior_nodes,
    node_point,
    ref_shift_to_boundary,
    second_difference_field,
)

M_FULL = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)


# --- discrete operators and the solve ---------------------------------------


def test_solve_min_curvature_reproduces_quadratic():
    grid = square_grid(33, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    u, rep = solve_dirichlet("P", 1.0, g, tol=1e-9, init=np.zeros(grid.dims))
    assert np.max(np.abs(u.values - g.values)) < 1e-6
    assert rep.iterations < 100_000


def test_solve_laplace_harmonic_quadratic():
    grid = square_grid(33, 0.0, 1.0)
    g = from_callable(grid, lambda x: x[0] ** 2 - x[1] ** 2)
    u, rep = solve_dirichlet("pfold:p=2", 0.0, g, tol=1e-9, init=np.zeros(grid.dims))
    assert np.max(np.abs(u.values - g.values)) < 1e-6


def test_solve_phase_operator_constant_phase():
    grid = square_grid(33, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    u, rep = solve_dirichlet("slag", np.pi / 2, g, tol=1e-9, init=np.zeros(grid.dims))
    assert np.max(np.abs(u.values - g.values)) < 1e-6


def test_solve_with_source_field():
    grid = square_grid(25, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    u, rep = solve_dirichlet("P", np.ones(grid.dims), g, tol=1e-9)
    assert np.max(np.abs(u.values - g.values)) < 1e-6


def test_source_field_reads_only_its_interior_nodes():
    # psi as node values: the boundary layer's entries are never read, and
    # a field of the constant level is the constant, bit for bit
    grid = square_grid(17, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    zeros = np.zeros(grid.dims)
    psi = np.full(grid.dims, 1.0)
    psi[~grid.interior_mask()] = np.nan
    u, rep = solve_dirichlet("P", psi, g, tol=1e-9, init=zeros)
    ref, ref_rep = solve_dirichlet("P", 1.0, g, tol=1e-9, init=zeros)
    assert np.array_equal(u.values, ref.values)
    assert rep.residual_history == ref_rep.residual_history


def _solve_jacobi(op_key, rhs, g, dt=None, tol=1e-10, max_iter=100_000, init=None):
    """Reference solver: the damped fixed point u <- u + dt * (F_h(u) - psi)
    that solve_dirichlet replaced.

    dt defaults to the stability bound. Returns the iterate and the
    iteration count. Raises NotConverged past max_iter and UnstableStep
    when the residual grows for 100 consecutive steps.
    """
    grid, op, interior, rhs_field, u, _ = _setup(op_key, rhs, g, init)
    dt = _stability_dt(op_key, grid) if dt is None else dt
    prev_res = math.inf
    growth = 0
    for it in range(1, max_iter + 1):
        fld = op.apply(u, grid) - rhs_field
        res = float(np.max(np.abs(fld)))
        if not math.isfinite(res):
            raise UnstableStep(f"residual became non-finite at it={it}")
        if res <= tol:
            return GridFunction(grid, u), it
        growth = growth + 1 if res > prev_res * (1 + 1e-12) else 0
        if growth >= 100:
            raise UnstableStep(f"residual grew for {growth} consecutive steps at it={it}")
        prev_res = res
        u[interior] = u[interior] + dt * fld
    raise NotConverged(f"{op_key}: residual {prev_res:.3e} > {tol:.1e} after {max_iter} iterations")


def _stability_dt(op_key, grid, safety=0.9):
    """The damped-Jacobi step bound h^2 / (2 * w), with safety.

    The explicit step u + dt * F_h(u) keeps u(x)'s own coefficient
    1 - 2 dt sum_theta c_theta / (|theta|^2 h^2) >= 0 when w bounds
    sum_theta c_theta / |theta|^2 over the directions active at a node:
    1 for a min or max over single directions (the classical h^2 / 2),
    and for the frame sums the worst frame's sum of slope / |theta|^2,
    over p for pfold; the slope is 1 (pfold, slag's arctan) or Lam (pucci).
    """
    name, params = bind_key(op_key, DISCRETE_OPERATORS, "discretization")
    p = params.get("p", grid.d)
    if name in ("P", "P~", "branch") or p == 1:
        weight = 1.0
    else:
        slope = params.get("Lam", 1.0)
        weight = max(sum(slope / sum(c * c for c in grid.stencil_dirs[i]) for i in combo)
                     for combo in grid.orthogonal_tuples(p)) / params.get("p", 1)
    return safety * grid.h**2 / (2.0 * weight)


def _solve_secant(op_key, rhs, g, tol=1e-10, max_iter=500, init=None):
    """Reference solver: frozen-coefficient steps with the secant slopes of
    op.linearize only, one sparse solve per step, as solve_dirichlet ran
    before it took Newton steps. Returns the iterate and the step count.
    """
    grid, op, interior, rhs_field, u, _ = _setup(op_key, rhs, g, init)
    for it in range(1, max_iter + 1):
        fld, coeffs = op.linearize(u, grid)
        fld = fld - rhs_field
        res = float(np.max(np.abs(fld)))
        if not math.isfinite(res):
            raise UnstableStep(f"residual became non-finite at it={it}")
        if res <= tol:
            return GridFunction(grid, u), it
        u[interior] -= spsolve(_frozen_matrix(coeffs, grid), fld.ravel()).reshape(fld.shape)
    raise NotConverged(f"{op_key}: residual {res:.3e} > {tol:.1e} after {max_iter} steps")


def _frozen_matrix(coeffs, grid):
    """Reference assembly: the sparse matrix of sum_theta c_theta D_theta
    on the interior unknowns, with the neighbour indices built afresh on
    every call, as the solver assembled before it built them once per
    solve."""
    shape = coeffs.shape[1:]
    n = int(np.prod(shape))
    w = grid.layer_width
    index = np.full(grid.dims, -1, dtype=np.int32)
    index[grid.interior_slice()] = np.arange(n, dtype=np.int32).reshape(shape)
    diag = np.zeros(n)
    rows, cols, vals = [], [], []
    for c, s in zip(coeffs, grid.stencil_dirs):
        active = c != 0
        here = np.flatnonzero(active).astype(np.int32)
        a = c[active] / (grid.h**2 * float(sum(x * x for x in s)))
        diag[here] -= 2.0 * a
        for sign in (1, -1):
            nb = index[tuple(slice(w + sign * o, dim - w + sign * o)
                             for o, dim in zip(s, grid.dims))][active]
            keep = nb >= 0
            rows.append(here[keep])
            cols.append(nb[keep])
            vals.append(a[keep])
    diagonal = np.arange(n, dtype=np.int32)
    return sp.csc_matrix(
        (np.concatenate(vals + [diag]),
         (np.concatenate(rows + [diagonal]), np.concatenate(cols + [diagonal]))),
        shape=(n, n),
    )


@pytest.mark.parametrize("d, side", [(2, 17), (2, 33), (3, 9)])
def test_assembler_matches_the_per_call_assembly(d, side):
    grid = square_grid(side, 0.0, 1.0, d=d)
    assemble = solver._assembler(grid)
    rng = np.random.default_rng(149)
    for key in _discrete_keys(d):
        op = make_discrete_operator(key, grid)
        for size in (1.0, grid.h**2):
            u = size * rng.standard_normal(grid.dims)
            for coeffs in (op.linearize if op.tangent is None else op.tangent)(u, grid)[1:]:
                got, ref = assemble(coeffs), _frozen_matrix(coeffs, grid)
                for attr in ("data", "indices", "indptr"):
                    assert np.array_equal(getattr(got, attr), getattr(ref, attr)), key
                    assert getattr(got, attr).dtype == getattr(ref, attr).dtype, key


def _ripple(grid):
    # non-stencil-aligned data: a rotated quadratic plus a cosine ripple
    c, s = math.cos(0.3), math.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    H = rot @ np.diag([1.0, 2.0]) @ rot.T
    return from_callable(
        grid, lambda x: 0.5 * float(x @ H @ x) + 0.2 * math.cos(2.0 * x[0]))


def _bowl(n_side, d=2):
    return from_callable(square_grid(n_side, 0.0, 1.0, d=d), lambda x: 0.5 * float(x @ x))


@pytest.mark.parametrize("g, level", [
    (_bowl(33), math.pi / 2),
    (_ripple(square_grid(33, 0.0, 1.0)), 0.0),
    (_ripple(square_grid(33, 0.0, 1.0)), 1.0),
    (_bowl(9, d=3), 3 * math.pi / 4),
], ids=["bowl-33", "ripple-0", "ripple-1", "bowl-9^3"])
def test_slag_newton_steps_match_the_secant_reference(g, level):
    zeros = np.zeros(g.grid.dims)
    u, rep = solve_dirichlet("slag", level, g, tol=1e-10, init=zeros)
    ref, steps = _solve_secant("slag", level, g, tol=1e-10, init=zeros)
    assert np.max(np.abs(u.values - ref.values)) <= 1e-9
    assert rep.newton_steps > 0
    assert rep.factorizations < steps - 1


@pytest.mark.parametrize("n_side, most", [(33, 5), (65, 6)])
def test_slag_bowl_factorizations(n_side, most):
    # the secant iteration alone takes 27 and 29 at tol 1e-8; secant steps
    # from the zero interior, then Newton, took 14 and 16
    g = _bowl(n_side)
    u, rep = solve_dirichlet("slag", math.pi / 2, g, tol=1e-8, init=np.zeros(g.grid.dims))
    assert rep.start == "poisson"
    assert rep.factorizations <= most
    assert np.max(np.abs(u.values - g.values)) <= 1e-12


def test_poisson_start_keeps_a_good_init():
    g = _bowl(33)
    _, rep = solve_dirichlet("slag", math.pi / 2, g, tol=1e-10, init=g.values)
    assert (rep.start, rep.iterations, rep.factorizations) == ("init", 1, 0)
    # near the solution the Poisson start is worse and is thrown away, its
    # solve counted; Newton finishes from the guess
    near = g.values + 1e-6 * g.grid.h**2 * np.sin(7.0 * g.values)
    u, rep = solve_dirichlet("slag", math.pi / 2, g, tol=1e-10, init=near)
    assert rep.start == "init"
    assert rep.factorizations == rep.newton_steps + 1
    assert np.max(np.abs(u.values - g.values)) <= 1e-12


def _quadratic(grid, H):
    x = np.stack(grid.meshgrid(), axis=-1)
    return GridFunction(grid, 0.5 * (x[..., None, :] @ H @ x[..., :, None])[..., 0, 0])


_ROT = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])


@pytest.mark.parametrize("H, parent", [
    (np.eye(2), 14),
    (_ROT @ np.diag([1.0, 2.0]) @ _ROT.T, 18),
    (np.diag([3.0, 0.2]), 16),
    (np.diag([1.0, -3.0]), 12),
    (np.diag([8.0, 8.0]), 65),
], ids=["bowl", "rotated", "anisotropic", "saddle", "steep"])
def test_slag_poisson_start_matches_the_secant_reference(H, parent):
    # parent: the factorizations of secant steps, then Newton, from the
    # zero interior without the Poisson start
    g = _quadratic(square_grid(33, 0.0, 1.0), H)
    level = float(np.sum(np.arctan(np.linalg.eigvalsh(H))))
    zeros = np.zeros(g.grid.dims)
    u, rep = solve_dirichlet("slag", level, g, tol=1e-10, init=zeros)
    ref, _ = _solve_secant("slag", level, g, tol=1e-10, init=zeros)
    assert rep.start == "poisson"
    assert np.max(np.abs(u.values - ref.values)) <= 1e-9
    assert rep.factorizations <= parent


def _ladder_script():
    path = pathlib.Path(__file__).parents[1] / "scripts" / "run_dirichlet_benchmarks.py"
    spec = importlib.util.spec_from_file_location("run_dirichlet_benchmarks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n_side", [33, 129])
def test_ladder_quadratics_match_the_pointwise_evaluation(n_side):
    grid = square_grid(n_side, 0.0, 1.0)
    quad, saddle = _ladder_script().quadratics(grid)
    ref_quad = from_callable(grid, lambda x: 0.5 * float(x @ x))
    ref_saddle = from_callable(grid, lambda x: x[0] ** 2 - x[1] ** 2)
    assert np.array_equal(quad.values, ref_quad.values)
    assert np.array_equal(saddle.values, ref_saddle.values)


def test_ladder_reports_the_start(monkeypatch, capsys):
    ladder = _ladder_script()
    monkeypatch.setattr(ladder.sys, "argv", ["run_dirichlet_benchmarks.py", "17"])
    assert ladder.main() == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert "start" in header.split()
    starts = {row.split()[0]: row.split()[-3] for row in rows}
    assert starts == {"P": "init", "pfold:p=2": "init", "slag": "poisson", "pucci:1,2": "init"}


def test_slag_steep_data_converges_without_warnings():
    # 20|x|^2 at level 3: the secant iteration alone stopped at a residual
    # of 2.8e-7 after the default 500 steps
    grid = square_grid(33, 0.0, 1.0)
    g = from_callable(grid, lambda x: 20.0 * float(x @ x))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, rep = solve_dirichlet("slag", 3.0, g, tol=1e-10, init=np.zeros(grid.dims))
    assert rep.stop_reason == "tol"
    op = make_discrete_operator("slag", grid)
    assert np.max(np.abs(op.apply(u.values, grid) - 3.0)) <= 1e-10


def test_singular_or_overflowing_tangent_is_a_rejected_try():
    g = _bowl(17)
    grid, u = g.grid, g.values.copy()
    op = make_discrete_operator("slag", grid)
    fld, _, tangent = op.tangent(u, grid)
    tiny = np.zeros_like(tangent)
    tiny[0] = 1e-300  # solvable, but the direction overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (np.zeros_like(tangent), tiny):
            assert solver._newton_step(op, grid, solver._sparse_solver(grid),
                                       grid.interior_slice(), 0.0, u, fld, bad, 1.0) is None


@pytest.mark.parametrize("d, side", [(2, 17), (3, 9)])
def test_slag_tangent_contract(d, side):
    grid = square_grid(side, 0.0, 1.0, d=d)
    op = make_discrete_operator("slag", grid)
    rng = np.random.default_rng(137)
    eps = 1e-6
    for scale in (0.1, 1.0, 10.0):
        # second differences of order scale, across arctan's regimes
        u = scale * grid.h**2 * rng.standard_normal(grid.dims)
        fld, coeffs, tangent = op.tangent(u, grid)
        ref_fld, ref_coeffs = op.linearize(u, grid)
        assert np.array_equal(fld, ref_fld) and np.array_equal(coeffs, ref_coeffs)
        diffs = np.stack([second_difference_field(u, s, grid.h, grid.layer_width)
                          for s in grid.stencil_dirs])
        active = coeffs > 0
        assert np.all(np.sum(active, axis=0) == d)  # one orthogonal frame per node
        assert np.all(tangent >= 0)
        assert np.all(tangent[~active] == 0)
        np.testing.assert_allclose(tangent[active], 1.0 / (1.0 + diffs[active] ** 2),
                                   rtol=1e-15)
        # the tangent is the derivative of apply: a central difference along v
        v = grid.h**2 * rng.standard_normal(grid.dims)
        dv = np.stack([second_difference_field(v, s, grid.h, grid.layer_width)
                       for s in grid.stencil_dirs])
        fd = (op.apply(u + eps * v, grid) - op.apply(u - eps * v, grid)) / (2 * eps)
        np.testing.assert_allclose(fd, np.sum(tangent * dv, axis=0), rtol=0, atol=1e-8)


def test_solve_not_converged():
    grid = square_grid(17, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    with pytest.raises(NotConverged):
        _solve_jacobi("P", 1.0, g, tol=1e-12, max_iter=5, init=np.zeros(grid.dims))


def test_solve_not_converged_policy_steps():
    # one linearization and no solve: P on |x|^2/2 needs a second step
    grid = square_grid(17, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    with pytest.raises(NotConverged):
        solve_dirichlet("P", 1.0, g, tol=1e-12, max_iter=1, init=np.zeros(grid.dims))


def test_solve_stops_at_roundoff_floor():
    grid = square_grid(33, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    with pytest.raises(NotConverged, match="floor") as info:
        solve_dirichlet("P", 1.0, g, tol=1e-16, init=np.zeros(grid.dims))
    assert len(info.value.residuals) < 20


def test_solve_report_json_fields():
    grid = square_grid(17, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    _, rep = solve_dirichlet("P", 1.0, g, tol=1e-9, init=np.zeros(grid.dims))
    assert rep.stop_reason == "tol"
    floor = np.finfo(float).eps * np.max(np.abs(g.values)) / grid.h**2
    assert rep.residual_floor == pytest.approx(floor)
    assert rep.iterations == len(rep.residual_history) == 2
    assert rep.factorizations == 1
    assert rep.newton_steps == 0
    assert rep.start == "init"


@pytest.mark.parametrize("key, level", [("P", 1.0), ("pucci:1,2", 2.0)])
def test_solve_exact_at_129(key, level):
    grid = square_grid(129, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    u, rep = solve_dirichlet(key, level, g, tol=1e-8, init=np.zeros(grid.dims))
    assert np.max(np.abs(u.values - g.values)) <= 1e-6


SOLVER_KEYS = ("P", "P~", "branch:k=2", "pfold:p=2", "slag", "pucci:1,2")


def test_linearize_matches_apply():
    rng = np.random.default_rng(131)
    for d, side in ((2, 17), (3, 9)):
        grid = square_grid(side, 0.0, 1.0, d=d)
        dirs = grid.stencil_dirs
        # standard-normal states put the second differences near 1/h^2; scaled
        # by h^2 * {0.1, 1, 10} they are of order 1, where arctan bends
        for key in _discrete_keys(d):
            op = make_discrete_operator(key, grid)
            for size in (1.0, 0.1 * grid.h**2, grid.h**2, 10 * grid.h**2):
                for _ in range(5):
                    u = size * rng.standard_normal(grid.dims)
                    fld, coeffs = op.linearize(u, grid)
                    assert np.array_equal(fld, op.apply(u, grid)), key
                    assert coeffs.shape == (len(dirs),) + fld.shape
                    assert np.all(coeffs >= 0), key
                    diffs = np.stack([
                        second_difference_field(u, s, grid.h, grid.layer_width) for s in dirs
                    ])
                    scale = np.max(np.abs(diffs))
                    assert np.max(np.abs(np.sum(coeffs * diffs, axis=0) - fld)) <= 1e-13 * scale, key
                    if op.tangent is not None:
                        assert all(np.all(c >= 0) for c in op.tangent(u, grid)[1:]), key


@pytest.mark.parametrize("key", SOLVER_KEYS)
def test_policy_solver_matches_jacobi_reference(key):
    grid = square_grid(17, 0.0, 1.0)
    g = _ripple(grid)
    zeros = np.zeros(grid.dims)
    u, _ = solve_dirichlet(key, 1.0, g, tol=1e-11, init=zeros)
    ref, _ = _solve_jacobi(key, 1.0, g, tol=1e-11, init=zeros)
    assert np.max(np.abs(u.values - ref.values)) <= 1e-9


@pytest.mark.parametrize("key", [k for k in SOLVER_KEYS if k != "slag"])
def test_piecewise_linear_solves_take_no_tangent(monkeypatch, key):
    grid = square_grid(17, 0.0, 1.0)
    assert make_discrete_operator(key, grid).tangent is None

    def no_tangent(*args):
        raise AssertionError("tangent step tried")

    monkeypatch.setattr(solver, "_newton_step", no_tangent)
    _, rep = solve_dirichlet(key, 1.0, _ripple(grid), tol=1e-11, init=np.zeros(grid.dims))
    assert rep.factorizations == rep.iterations - 1
    assert rep.newton_steps == 0
    assert rep.start == "init"


def test_unknown_operator_key():
    grid = square_grid(17, 0.0, 1.0)
    with pytest.raises(UnknownKey):
        make_discrete_operator("frobnicate", grid)


def test_discrete_branch_binds_positionally():
    # positional items bind in declared order: branch:2 is lambda_2, as in the catalog
    grid = square_grid(17, 0.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * (x[0] ** 2 + 3.0 * x[1] ** 2))
    fld = make_discrete_operator("branch:2", grid).apply(u.values, grid)
    assert np.array_equal(fld, make_discrete_operator("branch:k=2", grid).apply(u.values, grid))
    assert np.allclose(fld, 3.0, atol=1e-9)


@pytest.mark.parametrize("key, error", [
    ("pucci:2,1", BadParameters),
    ("pucci:lam=-1,Lam=2", BadParameters),
    ("pfold:p=0", IndexOutOfRange),
])
def test_discrete_operator_checks_ranges_like_the_catalog(key, error):
    with pytest.raises(error):
        make_discrete_operator(key, square_grid(17, 0.0, 1.0))


def test_unstable_step_detected():
    grid = square_grid(17, 0.0, 1.0)
    g = from_callable(grid, lambda x: 0.5 * float(x @ x))
    with pytest.raises(UnstableStep):
        _solve_jacobi("P", 1.0, g, dt=10 * grid.h**2, tol=1e-12,
                      init=np.zeros(grid.dims))


def test_dt_bound_classical_for_min_operator():
    grid = square_grid(17, 0.0, 1.0)
    assert _stability_dt("P", grid) == pytest.approx(0.45 * grid.h**2)


def test_scheme_monotonicity_all_operators():
    grid = square_grid(17, 0.0, 1.0)
    for key in ("P", "P~", "branch:k=2", "pfold:p=2", "slag", "pucci:1,2"):
        assert scheme_monotonicity_probe(key, grid, states=100), key


def _first_failing_state(op_key, grid, states, seed=97):
    """Reference for scheme_monotonicity_probe: the states one at a time,
    two whole-grid applies each, with a mask for the bumped node. Returns
    the index of the first failing state, or None."""
    rng = np.random.default_rng(seed)
    op = solver.make_discrete_operator(op_key, grid)
    bump = solver._PROBE_BUMP
    slack = solver._PROBE_TOL * bump / grid.h**2
    for i in range(states):
        u = grid.h**2 * rng.standard_normal(grid.dims)
        node = tuple(rng.integers(0, dim) for dim in grid.dims)
        base = op.apply(u, grid)
        u2 = u.copy()
        u2[node] += bump
        rise = op.apply(u2, grid) - base
        bumped = np.zeros(grid.dims, dtype=bool)
        bumped[node] = True
        bumped = bumped[grid.interior_slice()]
        if np.any(rise[~bumped] < -slack) or np.any(rise[bumped] > slack):
            return i
    return None


def _probe_per_state(op_key, grid, states):
    return _first_failing_state(op_key, grid, states) is None


def _additive_mutant(eps):
    """make_discrete_operator with F - eps * D_theta0 for the first stencil
    direction theta0: its coefficient is -eps at nodes where theta0 is off
    the active frame."""
    build = solver.make_discrete_operator

    def mutant(key, g):
        op = build(key, g)
        theta0 = g.stencil_dirs[0]

        def apply(values, g):
            return op.apply(values, g) - eps * second_difference_field(
                values, theta0, g.h, g.layer_width)

        return dataclasses.replace(op, apply=apply)

    return mutant


def _slag_shaped_mutant(a):
    """make_discrete_operator with slag's frame sum of
    phi(D) = arctan(D) - a * D / (1 + D^2), whose slope
    ((1 - a) + (1 + a) D^2) / (1 + D^2)^2 is negative only for
    |D| < sqrt((a - 1) / (a + 1)): 0.45 at a = 1.5, 0.58 at a = 2."""

    def phi(diffs):
        return np.arctan(diffs) - a * diffs / (1.0 + diffs * diffs)

    def mutant(key, g):
        return DiscreteOperator(key, *solver._frame_reduction(g.orthogonal_tuples(g.d), phi=phi))

    return mutant


def _assert_probe_is_the_reference(key, grid, passes):
    for states in (100, 37):
        got = scheme_monotonicity_probe(key, grid, states=states)
        assert got == _probe_per_state(key, grid, states), (key, states)
        assert got == passes, (key, states)
    first = _first_failing_state(key, grid, 100)
    if first is not None:
        # the verdict turns at the reference's first failing state, wherever
        # it falls in a block
        assert scheme_monotonicity_probe(key, grid, states=first), key
        assert not scheme_monotonicity_probe(key, grid, states=first + 1), key
    assert scheme_monotonicity_probe(key, grid, states=0), key


@pytest.mark.parametrize("scale", [1.0, 1.2, 3.0])
@pytest.mark.parametrize("d", [2, 3])
def test_probe_matches_the_per_state_reference(monkeypatch, d, scale):
    # every discretization passes; its additive mutant, eps = scale * 1e-3,
    # fails: one coefficient below 0 is enough
    grid = square_grid(17 if d == 2 else 9, 0.0, 1.0, d=d)
    for key in _discrete_keys(d):
        _assert_probe_is_the_reference(key, grid, passes=True)
        with monkeypatch.context() as m:
            m.setattr(solver, "make_discrete_operator", _additive_mutant(scale * 1e-3))
            _assert_probe_is_the_reference(key, grid, passes=False)


@pytest.mark.parametrize("a", [1.5, 2.0])
def test_probe_fails_a_slag_shaped_mutant(monkeypatch, a):
    # the slope is negative only near D = 0, where the h^2-scaled states put
    # the second differences (at order 1/h^2 the mutant looks like slag)
    grid = square_grid(17, 0.0, 1.0)
    monkeypatch.setattr(solver, "make_discrete_operator", _slag_shaped_mutant(a))
    _assert_probe_is_the_reference("slag", grid, passes=False)


def test_probe_evaluates_the_per_state_draws_in_blocks(monkeypatch):
    grid = square_grid(17, 0.0, 1.0)
    stacks = []
    build = solver.make_discrete_operator

    def recording(key, g):
        op = build(key, g)

        def apply(values, g):
            stacks.append(values.copy())
            return op.apply(values, g)

        return dataclasses.replace(op, apply=apply)

    monkeypatch.setattr(solver, "make_discrete_operator", recording)
    assert scheme_monotonicity_probe("P", grid, states=37, seed=5)
    block = solver._PROBE_BLOCK
    assert block == 16
    assert [len(s) for s in stacks] == [16, 16, 16, 16, 5, 5]
    rng = np.random.default_rng(5)
    for i in range(37):
        u = grid.h**2 * rng.standard_normal(grid.dims)
        node = tuple(rng.integers(0, dim) for dim in grid.dims)
        b, k = divmod(i, block)
        assert np.array_equal(stacks[2 * b][k], u), i
        u[node] += solver._PROBE_BUMP
        assert np.array_equal(stacks[2 * b + 1][k], u), i


def _discrete_keys(d):
    return ("P", "P~", "branch:k=1", f"branch:k={d}", "pfold:p=2", "slag", "pucci:1,2")


@pytest.mark.parametrize("d, side", [(2, 17), (3, 9)])
def test_stacked_apply_is_the_single_applies(d, side):
    grid = square_grid(side, 0.0, 1.0, d=d)
    keys = _discrete_keys(d)
    assert {key.split(":")[0] for key in keys} == set(DISCRETE_OPERATORS)
    rng = np.random.default_rng(211)
    # magnitudes from 1e-3 to 1e3 reach both of arctan's regimes for slag
    scales = 10.0 ** rng.uniform(-3, 3, 37)
    stack = rng.standard_normal((37, *grid.dims)) * scales.reshape((37,) + (1,) * d)
    for key in keys:
        op = make_discrete_operator(key, grid)
        single = np.stack([op.apply(u, grid) for u in stack])
        assert np.array_equal(op.apply(stack, grid), single), key
        nested = op.apply(stack[:12].reshape((3, 4, *grid.dims)), grid)
        assert np.array_equal(nested, single[:12].reshape(nested.shape)), key


def test_stencil_bias_reported():
    grid = square_grid(17, 0.0, 1.0)
    rng = np.random.default_rng(91)
    bias = stencil_bias(grid, "P", rng, trials=30)
    assert 0 <= bias < 0.5  # measured, not hidden; modest on the 8-point set


@pytest.mark.parametrize("d, side", [(2, 17), (3, 9)])
def test_stencil_bias_of_every_discrete_key(d, side):
    grid = square_grid(side, 0.0, 1.0, d=d)
    for key in _discrete_keys(d):
        bias = stencil_bias(grid, key, np.random.default_rng(91), trials=10)
        assert math.isfinite(bias) and bias >= 0, key
    # branch:k=1 is P and branch:k=d is P~, with the same bias
    for a, b in (("branch:k=1", "P"), (f"branch:k={d}", "P~")):
        assert (stencil_bias(grid, a, np.random.default_rng(5), trials=10)
                == stencil_bias(grid, b, np.random.default_rng(5), trials=10) > 0)


@pytest.mark.parametrize("d, side", [(2, 17), (3, 9)])
def test_stencil_bias_matches_the_per_node_quadratics(d, side):
    # the reference builds each trial quadratic node by node with
    # from_callable; stencil_bias builds it on the node array
    grid = square_grid(side, 0.0, 1.0, d=d)
    for key in _discrete_keys(d):
        name, params = solver.bind_key(key, DISCRETE_OPERATORS, "discretization")
        op = make_discrete_operator(key, grid)
        rng, worst = np.random.default_rng(7), 0.0
        for _ in range(10):
            B = random_symmetric(rng, d)
            u = from_callable(grid, lambda x: 0.5 * float(x @ B.entries @ x))
            ev = np.linalg.eigvalsh(B.entries)
            target = (np.sum(np.arctan(ev)) if name == "slag"
                      else make_oracle(key, d).spectrum(0.0, 0.0, ev) / params.get("p", 1))
            worst = max(worst, float(np.max(np.abs(op.apply(u.values, grid) - float(target)))))
        assert stencil_bias(grid, key, np.random.default_rng(7), trials=10) == worst, key


def test_bias_targets_are_exact_on_the_stencil_frame():
    # stencil_bias measures against the catalog cones' spectra, pfold's
    # divided by p (its discretization is the frame mean). On a quadratic
    # whose eigenframe is the axes frame every frame-minimum
    # discretization but slag's (arctan is not concave) hits that target
    grid = square_grid(17, 0.0, 1.0)
    ev = np.array([-2.0, 1.0])
    u = from_callable(grid, lambda x: 0.5 * float(x @ np.diag(ev[::-1]) @ x))
    for key in ("P", "P~", "branch:k=1", "branch:k=2", "pfold:p=2", "pucci:1,2"):
        name, params = solver.bind_key(key, DISCRETE_OPERATORS, "discretization")
        target = make_oracle(key, 2).spectrum(0.0, 0.0, ev) / params.get("p", 1)
        fld = make_discrete_operator(key, grid).apply(u.values, grid)
        assert np.max(np.abs(fld - target)) <= 1e-10, key
    # the spectra are the continuum operators
    ev3 = np.array([-2.0, 0.5, 3.0])
    for key, target in (("P", ev3[0]), ("P~", ev3[-1]), ("branch:k=1", ev3[0]),
                        ("branch:k=3", ev3[-1]), ("pfold:p=2", -1.5),
                        ("pucci:1,2", 0.5 + 3.0 - 4.0)):
        assert make_oracle(key, 3).spectrum(0.0, 0.0, ev3) == target, key


def test_perron_envelope_agrees_with_solver_on_convex_data():
    grid = square_grid(33, -1.0, 1.0)
    gb = from_callable(grid, lambda x: abs(x[0]))
    fam = [
        from_callable(grid, lambda x, a=a: a * x[0])
        for a in np.linspace(-1, 1, 41)
    ]
    env = perron_envelope(fam, gb)
    u, _ = solve_dirichlet("P", 0.0, gb, tol=1e-9)
    assert np.max(np.abs(env.values - u.values)) <= 5 * grid.h


# --- subharmonicity checks ---------------------------------------------------


def test_check_subharmonic_examples():
    grid = square_grid(17, -1.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    assert check_subharmonic(u, cone_P(2)).all_pass
    w = from_callable(grid, lambda x: -0.5 * float(x @ x))
    rep = check_subharmonic(w, cone_P_dual(2))
    assert rep.members == 0  # concave: lambda_max = -1 < 0 everywhere
    s = from_callable(grid, lambda x: 0.5 * x[0] ** 2 - 0.25 * x[1] ** 2)
    assert check_subharmonic(s, cone_P_dual(2)).all_pass


def test_check_superharmonic_via_duality():
    grid = square_grid(17, -1.0, 1.0)
    w = from_callable(grid, lambda x: -0.5 * float(x @ x))
    assert check_superharmonic(w, cone_P(2)).all_pass
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    # strictly convex functions are not P-superharmonic
    assert not check_superharmonic(u, cone_P(2)).all_pass


def test_variable_fiber_subharmonic_check():
    theta = perturbed_ma_map(2)
    grid = square_grid(17, -1.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    assert check_subharmonic(u, theta).all_pass


# --- comparison --------------------------------------------------------------


def test_comparison_quadratic_pair_cone_P():
    grid = square_grid(25, 0.0, 1.0)
    u = quadratic_grid_function(grid, SymMat.diag(1.0, 2.0))
    w = quadratic_grid_function(grid, SymMat.diag(-0.5, 1.0), c=2.0)
    v = comparison_experiment(cone_P(2), u, w)
    assert v.ok


def test_comparison_battery_multiple_operators():
    res = comparison_battery(["P", "branch:k=2", "pucci:1,2"], pairs=3,
                             n_side=17, seed=117)
    for key, verdicts in res.items():
        assert all(v.ok for v in verdicts), key


def test_comparison_battery_3d_smoke():
    res = comparison_battery(["pfold:p=2"], pairs=2, n_side=9, seed=118,
                             dims={"pfold:p=2": 3})
    assert all(v.ok for v in res["pfold:p=2"])


def ref_comparison_battery(key, d, pairs, n_side, seed):
    """The per-pair loop: draw, shift (ref_shift_to_boundary, one Hessian
    at a time), build and check each pair before drawing the next."""
    grid = square_grid(n_side if d == 2 else max(9, n_side // 3), 0.0, 1.0, d=d)
    oracle = make_oracle(key, d)
    eyeJ = Jet2.from_matrix(SymMat.identity(d))
    rng = np.random.default_rng(seed)
    verdicts = []
    for _ in range(pairs):
        hessians = []
        for margin in (0.2, -0.2):
            J = ref_shift_to_boundary(oracle, Jet2.from_matrix(random_symmetric(rng, d, 1.0)),
                                      eyeJ, margin=margin)
            if J is None:
                raise RuntimeError(f"could not push a Hessian to margin {margin} of {oracle.label}")
            hessians.append(J.A)
        u = quadratic_grid_function(grid, hessians[0], rng.standard_normal(grid.d) * 0.5)
        w = quadratic_grid_function(grid, hessians[1], rng.standard_normal(grid.d) * 0.5)
        mask = ~grid.interior_mask()
        gap = float(np.max(u.values[mask] - w.values[mask]))
        w = GridFunction(grid, w.values + gap)
        verdicts.append(comparison_experiment(oracle, u, w))
    return verdicts


def exact_verdict(v):
    return dataclasses.replace(v, margin=float.hex(v.margin))


@pytest.mark.parametrize("key, d", [("P", 2), ("branch:k=2", 2), ("pucci:1,2", 2),
                                    ("pfold:p=2", 3)])
def test_comparison_battery_matches_the_per_pair_loop(key, d):
    got = comparison_battery([key], pairs=5, n_side=17, seed=131, dims={key: d})[key]
    ref = ref_comparison_battery(key, d, pairs=5, n_side=17, seed=131)
    assert list(map(exact_verdict, got)) == list(map(exact_verdict, ref))
    assert len(got) == 5


def test_comparison_battery_fails_at_the_pair_of_its_failed_shift(monkeypatch):
    # pair 2's supersolution Hessian finds no crossing: pairs 0 and 1 are
    # checked first, as in the per-pair loop
    real_shift, real_experiment = experiments.shift_stack_to_boundary, comparison_experiment
    checked = []

    def shift(*args, **kwargs):
        rows, moved = real_shift(*args, **kwargs)
        kept = rows != 5
        return rows[kept], tuple(a[kept] for a in moved)

    def experiment(*args):
        checked.append(args)
        return real_experiment(*args)

    monkeypatch.setattr(experiments, "shift_stack_to_boundary", shift)
    monkeypatch.setattr(experiments, "comparison_experiment", experiment)
    with pytest.raises(RuntimeError, match="margin -0.2 of"):
        comparison_battery(["P"], pairs=4, n_side=9, seed=3)
    assert len(checked) == 2


def test_comparison_rejects_bad_hypotheses():
    grid = square_grid(17, 0.0, 1.0)
    u = quadratic_grid_function(grid, SymMat.diag(-1.0, -1.0))  # not subharmonic
    w = quadratic_grid_function(grid, SymMat.diag(-0.5, 1.0), c=5.0)
    with pytest.raises(HypothesisViolation):
        comparison_experiment(cone_P(2), u, w)


def test_comparison_rejects_bad_boundary_ordering():
    grid = square_grid(17, 0.0, 1.0)
    u = quadratic_grid_function(grid, SymMat.diag(1.0, 1.0), c=10.0)
    w = quadratic_grid_function(grid, SymMat.diag(-0.5, 1.0))
    with pytest.raises(HypothesisViolation):
        comparison_experiment(cone_P(2), u, w)


def test_subaffine_zmp_saddle():
    # z = x1^2 - x2^2 - max_boundary: subaffine, <= 0 on the rim, <= 0 inside
    grid = square_grid(21, -1.0, 1.0)
    z0 = from_callable(grid, lambda x: x[0] ** 2 - x[1] ** 2)
    mask = ~grid.interior_mask()
    shift = float(np.max(z0.values[mask]))
    z = GridFunction(grid, z0.values - shift)
    v = zmp_experiment(M_FULL, z, arity=Arity.PURE_SECOND_ORDER)
    assert v.ok


def test_zmp_battery_reduced_and_full():
    cases = [
        ("reduced-P", M_FULL, Arity.PURE_SECOND_ORDER, -1.0, 1.0),
        ("Q", M_FULL, Arity.GRADIENT_FREE, -1.0, 1.0),
        ("M(1,half,inf)",
         MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), math.inf),
         Arity.FULL, -1.0, 1.0),
    ]
    from jetcones.experiments import zmp_battery

    out = zmp_battery(cases, n_side=17, seed=119, samples=3)
    for label, verdicts in out.items():
        assert all(v.ok for v in verdicts), label


def test_zmp_R_finite_dichotomy():
    M = MonotonicityCone(0.0, DirectionalCone.full(), 1.0)
    small = square_grid(17, 0.0, 1.2)   # circumradius 0.85 < R = 1
    rng = np.random.default_rng(120)
    z = zmp_sample(M, small, rng)
    v = zmp_experiment(M, z, arity=Arity.FULL)
    assert v.ok and "exists" in v.note
    big = square_grid(17, 0.0, 2.4)     # circumradius 1.7 > R = 1
    z2 = zmp_sample(M, big, rng)
    v2 = zmp_experiment(M, z2, arity=Arity.FULL)
    assert v2.ok and "not asserted" in v2.note
    assert strict_approximator(M, big) is None
    assert strict_approximator(M, small) is not None


@pytest.mark.parametrize("grid", [square_grid(17, -1.0, 1.0), square_grid(12, -0.7, 1.3),
                                  square_grid(9, -0.3, 0.4, d=3)], ids=["17", "12", "9^3"])
def test_strict_approximator_matches_the_per_node_quadratic(grid):
    # psi = (|x - x0|^2 - K) / 2 on the node array, to the bit as the per-node
    # callable evaluates it (R infinite, full D: x0 the box center, a = 1)
    gamma = 0.5
    psi = strict_approximator(MonotonicityCone(gamma, DirectionalCone.full(), math.inf), grid)
    x0 = 0.5 * (grid.lo + grid.hi)
    pmax = max(float(np.linalg.norm(c - x0)) for c in solver._box_corners(grid))
    K = (pmax**2 + 2.0 * (gamma * pmax + 1.0) / 1.0) + 1.0
    ref = from_callable(
        grid, lambda x: 0.5 * 1.0 * (float(np.sum((x - x0) ** 2)) - K))
    assert np.array_equal(psi.values, ref.values)


@pytest.mark.parametrize("n_side", [5, 12, 17, 22])
def test_utp_grid_functions_match_the_per_node_callables(n_side, monkeypatch):
    # u = -c x1^4 / 12 and psi = (|x|^2 - K) / 2 on the node array, to the bit
    # as the per-node callables evaluate them; n_side 12 and 22 are sizes where
    # numpy's array power misses the scalar one
    seen = []
    monkeypatch.setattr(solver, "uniform_translation_probe",
                        lambda u, theta_map, psi, theta: seen.append((u, psi)))
    utp_perturbed_ma(theta=0.1, n_side=n_side)
    (u, psi), = seen
    grid = square_grid(n_side, -1.0, 1.0, d=2)
    ref_u = from_callable(grid, lambda x: -0.15 * x[0] ** 4 / 12.0)
    ref_psi = from_callable(grid, lambda x: 0.5 * (float(x @ x) - 5.0))
    assert np.array_equal(u.values, ref_u.values)
    assert np.array_equal(np.signbit(u.values), np.signbit(ref_u.values))
    assert np.array_equal(psi.values, ref_psi.values)


def test_strict_approximator_halfspace_cone():
    M = MonotonicityCone(1.0, DirectionalCone.halfspace([0.0, 1.0]), math.inf)
    grid = square_grid(17, -1.0, 1.0)
    psi = strict_approximator(M, grid)
    assert psi is not None


# --- elementary properties at grid scale ------------------------------------


def test_elementary_properties_max_sliding_limits():
    grid = square_grid(17, -1.0, 1.0)
    P = cone_P(2)
    u = quadratic_grid_function(grid, SymMat.diag(1.0, 0.5))
    v = quadratic_grid_function(grid, SymMat.diag(0.5, 1.0), p=[0.3, 0.0])
    vmax = GridFunction(grid, np.maximum(u.values, v.values))
    assert check_subharmonic(vmax, P).all_pass  # maximum property
    slid = GridFunction(grid, u.values - 1.0)
    assert check_subharmonic(slid, P).all_pass  # sliding
    # decreasing limits at fixed resolution
    seq = [GridFunction(grid, u.values + 1.0 / (k + 1)) for k in range(6)]
    limit = GridFunction(grid, np.minimum.reduce([s.values for s in seq]))
    assert check_subharmonic(limit, P).all_pass


def test_quasiconvex_subharmonic_addition_probe():
    # P-subharmonic + subaffine stays subaffine at grid scale
    rng = np.random.default_rng(121)
    grid = square_grid(17, -1.0, 1.0)
    P, Pd = cone_P(2), cone_P_dual(2)
    for _ in range(10):
        A = random_symmetric(rng, 2, 1.0)
        lam = np.linalg.eigvalsh(A.entries)
        Au = SymMat(A.entries - (min(lam[0], 0.0) - 0.1) * np.eye(2))  # in P
        B = random_symmetric(rng, 2, 1.0)
        mu = np.linalg.eigvalsh(B.entries)
        Bv = SymMat(B.entries - (min(mu[-1], 0.0) - 0.1) * np.eye(2))  # in P~
        u = quadratic_grid_function(grid, Au)
        v = quadratic_grid_function(grid, Bv)
        assert check_subharmonic(u, P).all_pass
        assert check_subharmonic(v, Pd).all_pass
        s = GridFunction(grid, u.values + v.values)
        assert check_subharmonic(s, Pd).all_pass


def test_ae_guard_discrete_jets_everywhere():
    # at grid scale the nodewise jet sweep IS the subharmonicity check;
    # recorded as a tautology guard (the continuum content is not
    # grid-testable)
    grid = square_grid(17, -1.0, 1.0)
    u = from_callable(grid, lambda x: abs(x[0]) + 0.5 * float(x @ x))
    rep1 = check_subharmonic(u, cone_P(2))
    nodes = interior_nodes(grid, 1)
    members = sum(
        cone_P(2).classify(discrete_jet(u, nd)).is_member for nd in nodes
    )
    assert rep1.members == members
    assert rep1.total == len(nodes)


def _per_node_report(u, fiber, tol=1e-8, width=1, dual=False):
    """Reference route: one discrete_jet and one classify per node, a
    variable fiber's oracle built at the node's point and, with dual,
    each node's oracle dualized."""
    variable = isinstance(fiber, VariableFiberMap)
    total = members = 0
    worst = math.inf
    failures = []
    for node in interior_nodes(u.grid, width):
        oracle = fiber.fiber_at(node_point(u.grid, node)) if variable else fiber
        oracle = dual_oracle(oracle) if dual else oracle
        r = oracle.classify(discrete_jet(u, node), tol)
        total += 1
        m = r.margin if r.is_member else -r.margin
        worst = min(worst, m)
        if r.is_member:
            members += 1
        elif len(failures) < 8:
            failures.append((node, m))
    return NodeReport(total, members, worst, failures)


def _rough_field(d, seed):
    """A mild quadratic plus O(1)-curvature noise, so that every cone sees
    members and failures, with a block of exact zeros and a linear block
    (jets with g = 0 and with roundoff-sized g, inside the band |g| <= tol)."""
    grid = square_grid(13 if d == 2 else 9, -1.0, 1.0, d=d)
    rng = np.random.default_rng(seed)
    B = random_symmetric(rng, d)
    vals = quadratic_grid_function(grid, B).values + grid.h**2 * rng.standard_normal(grid.dims)
    vals[(slice(0, 4),) * d] = 0.0
    mesh = grid.meshgrid()
    linear = 0.1 + 0.3 * mesh[0] - 0.2 * mesh[-1]
    corner = (slice(-4, None),) * d
    vals[corner] = linear[corner]
    return GridFunction(grid, vals)


SUBHARMONIC_KEYS = [
    "P", "P~", "branch:k=1", "branch:k=2", "pfold:p=1", "pfold:p=2", "pucci:1,2",
    "pucci:0.5,3", "quasiconvex:0.5", "Q", "Q~", "M0", "M:gamma=0,D=full,R=inf",
    "M:gamma=1,D=half:e1,R=inf", "M:gamma=0.5,D=orth:1,2,R=2", "M:gamma=0.2,D=half:e2,R=0.5",
    "sigma:k=2", "failure:alpha=2,which=min", "pma", "slag", "affine-sphere", "ot",
]


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("key", SUBHARMONIC_KEYS)
def test_batched_check_subharmonic_matches_per_node_route(key, d):
    fiber = make_oracle(key, d)
    reports = []
    # a linear field: roundoff-sized Hessians, so that worst margins of 0
    # come from the band rule
    flat = from_callable(square_grid(9, -1.0, 1.0, d=d),
                         lambda x: 0.1 + 0.3 * x[0] - 0.2 * x[-1])
    for u, width in [(_rough_field(d, 1), 1), (_rough_field(d, 2), 2), (flat, 1)]:
        for dual in (False, True):
            rep = check_subharmonic(u, dual_oracle(fiber) if dual else fiber, width=width)
            assert rep == _per_node_report(u, fiber, width=width, dual=dual)
            reports.append(rep)
        neg = GridFunction(u.grid, -u.values)
        assert check_superharmonic(u, fiber, width=width) == _per_node_report(
            neg, fiber, width=width, dual=True)
    assert any(rep.failures for rep in reports)
    assert any(rep.members for rep in reports)


def test_jet_field_is_discrete_jet_stacked():
    for d in (2, 3):
        u = _rough_field(d, 4)
        for width in (1, 2):
            r, p, A = u.jet_field(width)
            x = u.grid.node_points(width)
            for node in interior_nodes(u.grid, width):
                J = discrete_jet(u, node)
                i = tuple(c - width for c in node)
                assert r[i] == J.r
                assert np.array_equal(p[i], J.p) and np.array_equal(A[i], J.A.entries)
                assert np.array_equal(x[i], node_point(u.grid, node))


# --- uniform translation probe ----------------------------------------------


def test_utp_constant_fiber_full_margin():
    from jetcones.catalog import Box, fiber_perturbed_MA

    box = Box([-1.0, -1.0], [1.0, 1.0])
    const = fiber_perturbed_MA(box, lambda x: np.zeros((2, 2)), lambda x: 0.0, n=2)
    grid = square_grid(17, -1.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    rep = uniform_translation_probe(u, const, None, 0.0)
    assert rep.passed
    assert rep.delta >= 3 * grid.h


def test_utp_perturbed_ma_positive_delta_and_negative_control():
    rep = utp_perturbed_ma(theta=0.1, n_side=17)
    assert rep.passed and rep.delta > 0
    rep0 = utp_perturbed_ma(theta=0.0, n_side=17)
    assert not rep0.passed


def _per_node_translation_probe(u, theta_map, psi, theta, max_shift=3, tol=1e-8):
    """Reference: the translation probe with every trial classified node
    by node, one discrete_jet and one fiber_at per node (psi taken as
    strictly subharmonic)."""
    grid = u.grid
    offsets = [off for off in itertools.product(range(-max_shift, max_shift + 1), repeat=grid.d)
               if any(off)]
    offsets.sort(key=lambda o: sum(c * c for c in o))
    delta, tested, failures = 0.0, 0, []
    for off in offsets:
        shifted = np.roll(u.values, shift=off, axis=tuple(range(grid.d)))
        vals = shifted if psi is None or theta == 0 else shifted + theta * psi.values
        width = grid.layer_width + max(abs(c) for c in off)
        rep = _per_node_report(GridFunction(grid, vals.copy()),
                               theta_map, tol, width)
        tested += 1
        if rep.all_pass:
            delta = max(delta, grid.h * math.sqrt(sum(c * c for c in off)))
        else:
            failures.append((off, rep.worst_margin))
            break
    return TranslationReport(delta=delta, theta=theta, tested=tested, failures=failures)


@pytest.mark.parametrize("theta", [0.0, 0.1])
def test_utp_matches_per_node_reference(theta, monkeypatch):
    import jetcones.solver as solver

    rep = utp_perturbed_ma(theta=theta, n_side=17)
    monkeypatch.setattr(solver, "uniform_translation_probe", _per_node_translation_probe)
    ref = utp_perturbed_ma(theta=theta, n_side=17)
    assert rep == ref
    assert rep.tested > 1 if theta else rep.failures


def test_utp_requires_strict_psi():
    theta = perturbed_ma_map(2)
    grid = square_grid(17, -1.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    flat = from_callable(grid, lambda x: 0.0)
    with pytest.raises(HypothesisViolation):
        uniform_translation_probe(u, theta, flat, 0.1)
