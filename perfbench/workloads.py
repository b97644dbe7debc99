"""Workloads of the jetcones benchmark.

Each workload is a list of operations. An operation is one call into
jetcones (timed) and a check of what it returned (not timed). Inputs are
made from the seed alone; the program only sees the generated configs,
matrices, jets and sample seeds.

- solve: Dirichlet problems sent through ``jetcones.cli.main(["solve", ...])``.
- verify: jet-space checks (double duals, canonical operators,
  monotonicity and jet addition, Garding eigenvalues, pseudoconvexity).
- grid-checks: discrete comparison, zero-maximum and translation checks
  and the scheme monotonicity probe, one discrete jet per grid node.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import tracing
from hostclock import WallClock
from jetcones import (
    boundary,
    canonical,
    catalog as cat,
    cli,
    duality,
    experiments,
    garding as gar,
    grids,
    jets,
    solver,
)

WORKLOADS = ("solve", "verify", "grid-checks")


@dataclass
class Outcome:
    """What one operation did, read from its output."""

    checks: int                  # output checks made
    failed: int                  # checks that failed
    items: int = 0               # work units counted for items_per_s
    inside_s: float | None = None  # time spent on those items, when not the whole call
    stats: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    call: Callable[[], object]          # the timed call into jetcones
    check: Callable[[object], Outcome]  # untimed output check
    checks: int                         # checks counted as failed if the call raises
    focus: bool = False                 # part of the workload's focus_s


@dataclass
class Workload:
    ops: list
    inputs: dict                        # the generated inputs


def _seeds(seed: int, count: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build(name: str, seed: int, workdir: Path, clock=None) -> Workload:
    """Generate the workload's inputs from the seed and build its operations.
    `clock` times the parts of an operation that an Outcome reports
    (inside_s); plain wall time when not given."""
    if name == "solve":
        return _build_solve(seed, workdir)
    if name == "verify":
        return _build_verify(seed)
    if name == "grid-checks":
        return _build_grid_checks(seed, clock or WallClock())
    raise ValueError(f"unknown workload {name!r}; known: {WORKLOADS}")


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_TOL = 1e-8
EXACT_ERR = 1e-6
ROTATION = 0.3


@dataclass(frozen=True)
class Problem:
    """Dirichlet problem F_h(u) = level with u = q on the boundary layer,
    q(x) = x^T H x / 2 + p.x + c. On stencil-exact problems q itself is
    the discrete solution."""

    name: str
    operator: str
    level: float
    n_side: int
    boundary: str
    hessian: tuple
    linear: tuple = (0.0, 0.0)
    const: float = 0.0
    stencil_exact: bool = True

    def config(self) -> dict:
        return {
            "operator": self.operator,
            "level": self.level,
            "box": [0.0, 1.0],
            "h": 1.0 / (self.n_side - 1),
            "tol": SOLVE_TOL,
            "max_iter": 100_000,
            "boundary": self.boundary,
            "init": "zero",
        }

    def exact(self, x1, x2):
        (a, b), (_, d) = self.hessian
        p1, p2 = self.linear
        return 0.5 * (a * x1 * x1 + 2 * b * x1 * x2 + d * x2 * x2) + p1 * x1 + p2 * x2 + self.const


def solve_problems(seed: int) -> list:
    """The solve set. Only the rotated problem depends on the seed (through
    an affine term, which leaves the operator's value unchanged), so the
    stencil-exact problems keep their exact iteration counts."""
    bowl = "0.5*(x1^2 + x2^2)"
    saddle = "x1^2 - x2^2"
    eye = ((1.0, 0.0), (0.0, 1.0))
    sad = ((2.0, 0.0), (0.0, -2.0))
    c, s = math.cos(ROTATION), math.sin(ROTATION)
    rot = np.array([[c, -s], [s, c]])
    H = rot @ np.diag([1.0, 2.0]) @ rot.T
    rng = np.random.default_rng(seed)
    p = rng.uniform(-0.5, 0.5, 2)
    c0 = float(rng.uniform(-0.5, 0.5))
    h11, h12, h22 = float(H[0, 0]), float(H[0, 1]), float(H[1, 1])
    rotated = (f"0.5*({h11!r}*x1^2 + {2 * h12!r}*x1*x2 + {h22!r}*x2^2)"
               f" + {float(p[0])!r}*x1 + {float(p[1])!r}*x2 + {c0!r}")
    return [
        Problem("P_33", "P", 1.0, 33, bowl, eye),
        Problem("pfold_33", "pfold:p=2", 0.0, 33, saddle, sad),
        Problem("slag_33", "slag", math.pi / 2, 33, bowl, eye),
        Problem("pucci_33", "pucci:1,2", -2.0, 33, saddle, sad),
        Problem("P_rot_33", "P", 1.0, 33, rotated, ((h11, h12), (h12, h22)),
                (float(p[0]), float(p[1])), c0, stencil_exact=False),
        Problem("P_65", "P", 1.0, 65, bowl, eye),
    ]


def _build_solve(seed: int, workdir: Path) -> Workload:
    ops = []
    problems = solve_problems(seed)
    for prob in problems:
        cfg_path = workdir / f"{prob.name}.json"
        out_dir = workdir / prob.name
        cfg_path.write_text(json.dumps(prob.config(), indent=2))
        argv = ["--seed", str(seed), "solve", "--config", str(cfg_path),
                "--out-dir", str(out_dir)]
        ops.append(Op(
            name=prob.name,
            call=functools.partial(run_cli, argv),
            check=functools.partial(check_solve, prob, out_dir),
            checks=1,
            focus=prob.name == "P_65",
        ))
    return Workload(ops, {"problems": problems})


def run_cli(argv) -> tuple:
    """Run the CLI in-process; return (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def read_solution(out_dir: Path, n_side: int):
    data = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1, ndmin=2)
    shape = (n_side, n_side)
    return data[:, 0].reshape(shape), data[:, 1].reshape(shape), data[:, 2].reshape(shape)


def check_solve(prob: Problem, out_dir: Path, result) -> Outcome:
    """Exit code 0; residual recomputed from solution.csv at most the
    tolerance; on stencil-exact problems, nodes within EXACT_ERR of q."""
    rc, stdout = result
    grid = grids.square_grid(prob.n_side, 0.0, 1.0)
    interior = grid.interior_slice()
    unknowns = int(np.prod([s.stop - s.start for s in interior]))
    stats = {"nonconverged": int(rc in (cli.EXIT_NOCONV, cli.EXIT_DOMAIN))}
    if rc != cli.EXIT_OK:
        return Outcome(1, 1, unknowns, stats=stats)
    stats["iterations"] = int(json.loads(stdout)["iterations"])
    x1, x2, u = read_solution(out_dir, prob.n_side)
    op = solver.make_discrete_operator(prob.operator, grid)
    residual = float(np.max(np.abs(op.apply(u, grid) - prob.level)))
    err = float(np.max(np.abs(u - prob.exact(x1, x2))))
    stats.update(residual=residual, max_err=err)
    ok = residual <= SOLVE_TOL and (not prob.stencil_exact or err <= EXACT_ERR)
    return Outcome(1, int(not ok), unknowns, stats=stats)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

INVOLUTION_SAMPLES = 500
CANONICAL_PER_CONE = 250
CANONICAL_TOL = 1e-9
MONOTONICITY_SAMPLES = 200
JET_ADDITION_SAMPLES = 100
GARDING_MATRICES = 40
GARDING_TOL = 1e-7

M_FULL = cat.MonotonicityCone(0.0, cat.DirectionalCone.full(), math.inf)


def involution_oracles() -> list:
    """The 18 oracles of the duality acceptance criterion, including four
    slices of variable fibers."""
    out = [
        cat.cone_P(3), cat.cone_P_dual(3), cat.cone_Q(2), cat.cone_Q_dual(2),
        cat.cone_M0(2), cat.branch(3, 2), cat.cone_pfold(3, 2),
        cat.cone_sigma_k(3, 2), cat.cone_pucci(2, 1.0, 2.0),
        cat.cone_quasiconvex(2, 0.5), cat.cone_lagrangian(4),
        cat.cone_M(cat.MonotonicityCone(1.0, cat.DirectionalCone.halfspace([1, 0]), 1.0), 2),
        cat.cone_M(M_FULL, 2), cat.fiber_failure_example(2, 2.0),
    ]
    for key in ("pma", "slag", "affine-sphere", "ot"):
        vf = cat.make_oracle(key, 2)
        out.append(vf.fiber_at(vf.domain.center + 0.1))
    return out


def pucci_canonical(lam_vals, lam: float, Lam: float) -> float:
    """Closed-form t with lam*sum (l-t)^+ + Lam*sum (l-t)^- = 0."""
    ev = np.sort(np.asarray(lam_vals, dtype=float))
    n = len(ev)
    for k in range(n + 1):  # k eigenvalues below t
        t = (Lam * ev[:k].sum() + lam * ev[k:].sum()) / (Lam * k + lam * (n - k))
        if (k == 0 or ev[k - 1] <= t) and (k == n or t <= ev[k]):
            return float(t)
    raise ArithmeticError("no consistent split")  # unreachable: g is monotone


def _check_report(rep) -> Outcome:
    return Outcome(1, int(not rep.ok))


def _check_involution(rep) -> Outcome:
    sampled = rep.checked + rep.excluded_boundary
    return Outcome(1, int(not rep.ok), items=sampled,
                   stats={"jets_sampled": sampled, "excluded": rep.excluded_boundary})


def _check_each(ok, expected, outputs) -> Outcome:
    """One check per expected value; a missing output fails its check."""
    bad = sum(1 for out, exp in zip(outputs, expected) if not ok(out, exp))
    return Outcome(len(expected), bad + max(0, len(expected) - len(outputs)))


def _near(value, ref) -> bool:
    return abs(value - ref) <= CANONICAL_TOL


def _pucci_ok(value, expected) -> bool:
    ref, sign = expected
    return _near(value, ref) and (sign == 0 or np.sign(value) == sign)


def _canonical_call(F, mats):
    return [canonical.canonical_operator(F, A) for A in mats]


def _garding_call(ops_and_mats):
    out = []
    for op, mats in ops_and_mats:
        for A in mats:
            lam = gar.garding_eigenvalues(op, A)
            out.append(gar.product_identity_residual(op, A, lam))
    return out


def boundary_cases(rng: np.random.Generator) -> list:
    """(oracle, domain, point, expected verdict) for strict pseudoconvexity."""
    sphere = boundary.sphere_domain(3)
    cases = []
    for _ in range(2):
        x = rng.standard_normal(3)
        cases.append((cat.cone_P(3), sphere, x / np.linalg.norm(x), True))
    ell = boundary.ellipsoid_domain([1.0, 1.5, 2.0])
    cases.append((cat.cone_P(3), ell,
                  boundary.project_to_boundary(ell, rng.uniform(0.5, 1.5, 3)), True))
    cases.append((cat.cone_P(2), boundary.slab_domain(2),
                  np.array([1.0, float(rng.uniform(-1.0, 1.0))]), False))
    cases.append((cat.cone_pfold(3, 2), boundary.saddle_domain(), np.zeros(3), False))
    return cases


def _boundary_call(cases):
    return [boundary.strict_pseudoconvex_at(F, boundary.boundary_point(dom, x)).convex
            for F, dom, x, _ in cases]


def _build_verify(seed: int) -> Workload:
    s = _seeds(seed, 16)
    ops = []
    for i, F in enumerate(involution_oracles()):
        ops.append(Op(
            f"involution_{i:02d}",
            functools.partial(duality.check_involution, F,
                              samples=INVOLUTION_SAMPLES, seed=s[0] + i),
            _check_involution, checks=1))

    rng = np.random.default_rng(s[1])
    inputs = {}
    for name, F, scale, ref in (
        ("P2", cat.cone_P(2), 2.0, lambda ev: ev[0]),
        ("P3", cat.cone_P(3), 2.0, lambda ev: ev[0]),
        ("pfold32", cat.cone_pfold(3, 2), 1.5, lambda ev: float(np.mean(ev[:2]))),
    ):
        mats = [jets.random_symmetric(rng, F.n, scale) for _ in range(CANONICAL_PER_CONE)]
        refs = [float(ref(np.linalg.eigvalsh(A.entries))) for A in mats]
        inputs[name] = mats
        ops.append(Op(f"canonical_{name}", functools.partial(_canonical_call, F, mats),
                      functools.partial(_check_each, _near, refs),
                      checks=len(mats), focus=True))
    pucci = cat.cone_pucci(2, 1.0, 2.0)
    mats = [jets.random_symmetric(rng, 2, 1.5) for _ in range(CANONICAL_PER_CONE)]
    refs = [pucci_canonical(np.linalg.eigvalsh(A.entries), 1.0, 2.0) for A in mats]
    signs = []
    for A in mats:
        v = pucci.value(jets.Jet2.from_matrix(A))
        signs.append(0.0 if abs(v) < 1e-6 else float(np.sign(v)))
    inputs["pucci"] = mats
    ops.append(Op("canonical_pucci", functools.partial(_canonical_call, pucci, mats),
                  functools.partial(_check_each, _pucci_ok, list(zip(refs, signs))),
                  checks=len(mats), focus=True))

    for j, F in enumerate((cat.cone_P(3), cat.cone_Q(2), cat.cone_pucci(2, 1.0, 2.0))):
        ops.append(Op(f"monotonicity_{F.key}",
                      functools.partial(duality.check_monotonicity, F, M_FULL,
                                        samples=MONOTONICITY_SAMPLES, seed=s[2] + j),
                      _check_report, checks=1))
        ops.append(Op(f"jet_addition_{F.key}",
                      functools.partial(duality.check_jet_addition, F, M_FULL,
                                        samples=JET_ADDITION_SAMPLES, seed=s[3] + j),
                      _check_report, checks=1))

    g_ops = [gar.det_operator(3), gar.pfold_operator(3, 2), gar.delta_elliptic_operator(3, 0.5),
             gar.sigma_k_operator(3, 2), gar.lagrangian_ma_operator(4),
             gar.pucci_garding_operator(1.0, 2.0, 2)]
    rng = np.random.default_rng(s[4])
    g_in = [(op, [jets.random_symmetric(rng, op.n, 1.5) for _ in range(GARDING_MATRICES)])
            for op in g_ops]
    limits = [GARDING_TOL] * (len(g_ops) * GARDING_MATRICES)
    ops.append(Op("garding", functools.partial(_garding_call, g_in),
                  functools.partial(_check_each, operator.lt, limits), checks=len(limits)))

    cases = boundary_cases(np.random.default_rng(s[5]))
    ops.append(Op("pseudoconvex", functools.partial(_boundary_call, cases),
                  functools.partial(_check_each, operator.eq, [c[3] for c in cases]),
                  checks=len(cases)))
    inputs["boundary_points"] = [c[2] for c in cases]
    return Workload(ops, inputs)


# ---------------------------------------------------------------------------
# grid-checks
# ---------------------------------------------------------------------------

COMPARISON_PAIRS = 8
COMPARISON_SIDE = 33
ZMP_SIDE = 17
ZMP_SAMPLES = 5
UTP_SIDE = 17
PROBE_STATES = 250


class NodeCounter:
    """Counts discrete jets classified by the outermost check_subharmonic /
    check_superharmonic calls, and the time spent in them."""

    def __init__(self, clock):
        self.clock = clock
        self.nodes = 0
        self.seconds = 0.0
        self._depth = 0

    def reset(self):
        self.nodes, self.seconds = 0, 0.0

    def wrap(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._depth += 1
            mark = self.clock.mark()
            try:
                rep = fn(*args, **kwargs)
            finally:
                self._depth -= 1
            if self._depth == 0:
                self.seconds += self.clock.since(mark)
                self.nodes += rep.total
            return rep

        return counted

    def install(self):
        """Route every jetcones reference to the two checks through the counter."""
        for fn in (solver.check_subharmonic, solver.check_superharmonic):
            tracing.rebind(fn, self.wrap(fn))


def zmp_cases() -> list:
    """The zero-maximum-principle cases of the acceptance criterion."""
    half = cat.MonotonicityCone(1.0, cat.DirectionalCone.halfspace([1.0, 0.0]), math.inf)
    ball = cat.MonotonicityCone(0.0, cat.DirectionalCone.full(), 1.0)
    return [
        ("reduced-P", M_FULL, cat.Arity.PURE_SECOND_ORDER, -1.0, 1.0),
        ("Q", M_FULL, cat.Arity.GRADIENT_FREE, -1.0, 1.0),
        ("M(1,half,inf)", half, cat.Arity.FULL, -1.0, 1.0),
        ("M(0,full,1) small box", ball, cat.Arity.FULL, 0.0, 1.2),
    ]


def _counted(counter: NodeCounter, fn):
    counter.reset()
    out = fn()
    return out, counter.nodes, counter.seconds


def _check_verdicts(expected: int, result) -> Outcome:
    verdict_map, nodes, seconds = result
    verdicts = [v for vs in verdict_map.values() for v in vs]
    bad = sum(1 for v in verdicts if not v.ok)
    return Outcome(expected, bad + max(0, expected - len(verdicts)), nodes, seconds)


def _check_zmp(expected: int, result) -> Outcome:
    verdict_map, nodes, seconds = result
    bad = got = 0
    for label, verdicts in verdict_map.items():
        for v in verdicts:
            got += 1
            # where a strict approximator exists, the principle must be asserted
            bad += int(not v.ok or (label.startswith("M(") and "exists" not in v.note))
    return Outcome(expected, bad + max(0, expected - got), nodes, seconds)


def _zmp_oversized(seed: int):
    ball = cat.MonotonicityCone(0.0, cat.DirectionalCone.full(), 1.0)
    big = grids.square_grid(ZMP_SIDE, 0.0, 2.4)
    approx = solver.strict_approximator(ball, big)
    z = experiments.zmp_sample(ball, big, np.random.default_rng(seed))
    return (approx, solver.zmp_experiment(ball, z, arity=cat.Arity.FULL))


def _check_oversized(result) -> Outcome:
    (approx, verdict), nodes, seconds = result
    bad = int(approx is not None) + int("not asserted" not in verdict.note)
    return Outcome(2, bad, nodes, seconds)


def _check_utp(result) -> Outcome:
    rep, nodes, seconds = result
    return Outcome(1, int(not (rep.passed and rep.delta > 0)), nodes, seconds)


def _check_probe(result) -> Outcome:
    return Outcome(1, int(result is not True))


def _build_grid_checks(seed: int, clock) -> Workload:
    s = _seeds(seed, 16)
    counter = NodeCounter(clock)
    counter.install()
    ops = []
    for i, (key, d) in enumerate((("P", 2), ("branch:k=2", 2), ("pucci:1,2", 2),
                                  ("pfold:p=2", 3))):
        call = functools.partial(experiments.comparison_battery, [key],
                                 pairs=COMPARISON_PAIRS, n_side=COMPARISON_SIDE,
                                 seed=s[0] + i, dims={key: d})
        ops.append(Op(f"comparison_{key}", functools.partial(_counted, counter, call),
                      functools.partial(_check_verdicts, COMPARISON_PAIRS),
                      checks=COMPARISON_PAIRS, focus=True))
    cases = zmp_cases()
    expected = len(cases) * ZMP_SAMPLES
    call = functools.partial(experiments.zmp_battery, cases, n_side=ZMP_SIDE,
                             seed=s[1], samples=ZMP_SAMPLES)
    ops.append(Op("zmp", functools.partial(_counted, counter, call),
                  functools.partial(_check_zmp, expected), checks=expected))
    ops.append(Op("zmp_oversized",
                  functools.partial(_counted, counter, functools.partial(_zmp_oversized, s[2])),
                  _check_oversized, checks=2))
    call = functools.partial(experiments.utp_perturbed_ma, theta=0.1, n_side=UTP_SIDE,
                             seed=s[3])
    ops.append(Op("utp", functools.partial(_counted, counter, call), _check_utp, checks=1))
    grid2 = grids.square_grid(17, 0.0, 1.0)
    grid3 = grids.square_grid(9, 0.0, 1.0, d=3)
    for i, (key, grid) in enumerate((("P", grid2), ("branch:k=2", grid2),
                                     ("pucci:1,2", grid2), ("pfold:p=2", grid3))):
        ops.append(Op(f"probe_{key}",
                      functools.partial(solver.scheme_monotonicity_probe, key, grid,
                                        states=PROBE_STATES, seed=s[4] + i),
                      _check_probe, checks=1))
    inputs = {"comparison_seeds": s[:4], "zmp_seed": s[1], "probe_seed": s[4]}
    return Workload(ops, inputs)
