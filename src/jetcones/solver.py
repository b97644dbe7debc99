"""Desk-scale viscosity Dirichlet solver and experiment harness.

The discretization is a wide-stencil monotone scheme: each supported
operator is a min or max over stencil frames of sums of monotone
functions of directional second differences D_theta, so increasing any
neighbor value never decreases the operator at a node. Frozen at the
active frame, the operator is linear, sum_theta c_theta D_theta with
c_theta >= 0, and its matrix on the interior unknowns is (minus) an
M-matrix. The solve repeats

    u <- u - J(u)^-1 (F_h(u) - psi)   on interior nodes,

one sparse solve per step, where J(u) is that frozen matrix. For the
piecewise-linear operators (min/max curvature, frame means, Pucci) this
is Howard's policy iteration. For the arctan sum of "slag" the solve
is a Poisson start, then Newton steps with backtracking on the max
residual. The Poisson start (Froese and Oberman, SIAM J. Numer. Anal.
2011) is one solve of the tangent at the zero function, the axis
Laplacian, with the boundary data; it replaces the initial guess when
its residual is lower. A Newton step's J(u) takes the tangent slopes
1/(1 + D^2) on the active frame, a semismooth Newton step that
converges superlinearly near the solution (Bokanowski, Maroso and
Zidani, SIAM J. Numer. Anal. 2009), and a step length halving from 1
keeps each accepted step decreasing the residual. Secant steps (frozen
coefficient arctan(D)/D) are the fallback when every step length is
rejected. The explicit damped-Jacobi iteration the solver replaced,
with its step bound, is kept in the tests as a reference, with the
secant-only iteration.

Monotone here is degenerate ellipticity in Oberman's sense (SIAM J.
Numer. Anal. 2006), the hypothesis the solver and discrete comparison
rest on; scheme_monotonicity_probe checks it by finite differences,
with no time step.

The sparse solve (_sparse_solver, with its _assembler) is the only place
this module imports scipy: SuperLU's scipy.sparse loads at the first
solve, not at import.

The experiment harness turns the comparison principle, the zero maximum
principle for dual cones, and the uniform translation property into
grid-level checks with explicit hypothesis validation.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .catalog import (
    REGISTRY,
    Arity,
    DEFAULT_TOL,
    FiberOracle,
    KeyFamily,
    MonotonicityCone,
    VariableFiberMap,
    ConeKind,
    bind_key,
    check_index,
    check_pucci,
    classify_values,
    cone_M,
    make_oracle,
    reduced_cone,
)
from .duality import dual_oracle
from .errors import (
    HypothesisViolation,
    NotConverged,
    UnknownKey,
    UnstableStep,
)
from .grids import Grid, GridFunction
from .jets import eigenvalues, random_symmetric

# ---------------------------------------------------------------------------
# Discrete operators (monotone reductions of directional second differences)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteOperator:
    """Degenerate elliptic wide-stencil operator with its linearizations.

    apply evaluates the operator on the interior. It takes one grid
    function, values of shape grid.dims, or a stack of them,
    (*lead, *grid.dims), and returns (*lead, *interior); each grid
    function's field is the one it gets alone, to the bit. linearize
    takes one grid function only and returns the same field, bit for
    bit, together with per-direction coefficients c (shape: stencil
    directions x interior) such that
    field = sum_theta c[theta] * D_theta(values) with every c >= 0.
    tangent, on an operator whose frame terms phi are smooth (slag),
    returns linearize's pair and the tangent coefficients phi'(D_theta)
    on the same active frame, also >= 0 and zero off it; it is None
    where phi is piecewise linear and the secant slope is the tangent.

    Coefficients c >= 0 make the operator degenerate elliptic: raising
    a neighbor value never lowers the field at a node, and raising the
    node's own value never raises it.
    """

    key: str
    apply: Callable[[np.ndarray, Grid], np.ndarray]  # values -> interior field
    linearize: Callable[[np.ndarray, Grid], tuple]  # values -> (field, coeffs)
    # values -> (field, coeffs, tangent coeffs); None when phi is piecewise linear
    tangent: Optional[Callable[[np.ndarray, Grid], tuple]] = None


def _frame_reduction(tuples, p: int = 1, largest: bool = False,
                     phi: Optional[Callable] = None,
                     slope: Optional[Callable] = None,
                     tangent: Optional[Callable] = None) -> tuple:
    """apply, linearize and tangent for F = min (max if largest) over the
    frames in tuples of sum_{theta in frame} phi(D_theta) / p.

    slope(diffs, terms) gives the per-direction c with phi(D) = c * D
    (identity phi: c = 1). tangent(diffs) is phi'(D); without it the
    returned tangent is None, as for a piecewise-linear phi, whose
    secant slope already is its tangent.
    """
    singles = all(len(combo) == 1 for combo in tuples)
    frames = np.asarray(tuples, dtype=np.intp)
    reduce, pick = (np.max, np.argmax) if largest else (np.min, np.argmin)

    def stack(v, g):
        diffs = g.plan(g.layer_width).sweep(v)
        terms = diffs if phi is None else phi(diffs)
        return diffs, terms, terms if singles else terms[frames].sum(axis=1)

    def reduced(stk):
        fld = reduce(stk, axis=0)
        return fld if p == 1 else fld / p

    def apply(v, g):
        return reduced(stack(v, g)[2])

    def frozen(v, g, gains):
        # the field and one coefficient array per gain on the active frame
        diffs, terms, stk = stack(v, g)
        best = frames[pick(stk, axis=0)]  # interior x p direction indices
        coeffs = [np.zeros_like(diffs) for _ in gains]
        for j in range(frames.shape[1]):
            dirs = best[..., j][None]
            for c, gain in zip(coeffs, gains):
                c_j = 1.0 if gain is None else gain(np.take_along_axis(diffs, dirs, 0),
                                                    np.take_along_axis(terms, dirs, 0))
                np.put_along_axis(c, dirs, c_j / p, 0)
        return (reduced(stk), *coeffs)

    def linearize(v, g):
        return frozen(v, g, (slope,))

    def linearize_tangent(v, g):
        return frozen(v, g, (slope, lambda diffs, terms: tangent(diffs)))

    return apply, linearize, None if tangent is None else linearize_tangent


def _branch(grid: Grid, k: int) -> tuple:
    """lambda_k as the min (k = 1) or max (k = d) of directional curvatures."""
    check_index("branch", "k", k, grid.d)
    if k not in (1, grid.d):
        raise UnknownKey(f"no monotone discretization of branch:k={k} in {grid.d}-D")
    return _frame_reduction([(i,) for i in range(len(grid.stencil_dirs))], largest=k > 1)


def _pfold(grid: Grid, p: int) -> tuple:
    """Mean over the best orthogonal p-frame (the c = 1 canonical scaling)."""
    check_index("pfold", "p", p, grid.d)
    if p == 1:
        return _branch(grid, 1)
    tuples = grid.orthogonal_tuples(p)
    if not tuples:
        raise UnknownKey(f"stencil has no orthogonal {p}-tuples for pfold:p={p}")
    return _frame_reduction(tuples, p=p)


def _slag(grid: Grid) -> tuple:
    """Sum of arctans of the directional curvatures over the worst frame."""
    tuples = grid.orthogonal_tuples(grid.d)

    def secant(diffs, terms):
        # arctan(D) / D, continued by its limit 1 at D = 0
        return np.divide(terms, diffs, out=np.ones_like(diffs), where=diffs != 0)

    def derivative(diffs):
        with np.errstate(over="ignore"):  # 1 / (1 + inf) = 0 is the limit
            return 1.0 / (1.0 + diffs * diffs)

    return _frame_reduction(tuples, phi=np.arctan, slope=secant, tangent=derivative)


def _pucci(grid: Grid, lam: float, Lam: float) -> tuple:
    """lam * D+ + Lam * D- summed over the worst frame, 0 < lam < Lam."""
    check_pucci(lam, Lam)
    tuples = grid.orthogonal_tuples(grid.d)

    def weighted(diffs):
        return lam * np.maximum(diffs, 0.0) + Lam * np.minimum(diffs, 0.0)

    def sign_slope(diffs, terms):
        return np.where(diffs > 0, lam, Lam)

    return _frame_reduction(tuples, phi=weighted, slope=sign_slope)


# Factories return DiscreteOperator's fields after the key; the families
# the catalog also knows share its parameter declarations.
DISCRETE_OPERATORS = {
    "P": KeyFamily(lambda grid: _branch(grid, 1)),
    "P~": KeyFamily(lambda grid: _branch(grid, grid.d)),
    "branch": KeyFamily(_branch, REGISTRY["branch"].params),
    "pfold": KeyFamily(_pfold, REGISTRY["pfold"].params),
    "slag": KeyFamily(_slag),
    "pucci": KeyFamily(_pucci, REGISTRY["pucci"].params),
}


def make_discrete_operator(key: str, grid: Grid) -> DiscreteOperator:
    """Build the monotone discretization addressed by an operator key.

    Keys bind as catalog keys do and name the same cones: "P" (minimal
    directional curvature), "P~" (maximal), "branch:k" for k = 1 or d
    (the same two), "pfold:p" (mean over the best orthogonal p-frame,
    the c = 1 canonical scaling), "slag" (sum of arctans over the worst
    frame) and "pucci:lam,Lam". A malformed key is a ParseError, an
    out-of-range parameter IndexOutOfRange or BadParameters (the
    catalog's checks), and a key with no monotone discretization on
    this grid UnknownKey.
    """
    name, params = bind_key(key, DISCRETE_OPERATORS, "discretization")
    return DiscreteOperator(key, *DISCRETE_OPERATORS[name].build(grid, **params))


def stencil_bias(grid: Grid, op_key: str, rng: np.random.Generator,
                 trials: int = 50) -> float:
    """Measured worst gap between the discrete operator and its target on
    random quadratics (the honest substitute for a convergence theorem).

    The target is the catalog cone's spectrum at the Hessian's ascending
    eigenvalues, divided by p for pfold (the frame mean, the c = 1
    scaling). pucci's is the frame minimum at the eigenframe: its terms
    are concave, and a frame's diagonal is majorized by the eigenvalues
    (Schur-Horn), so no frame does better.
    """
    op = make_discrete_operator(op_key, grid)
    name, params = bind_key(op_key, DISCRETE_OPERATORS, "discretization")
    if name == "slag":
        # the catalog's slag is a variable fiber map, with no spectrum
        def target(ev):
            return np.sum(np.arctan(ev))
    else:
        target = functools.partial(make_oracle(op_key, grid.d).spectrum, 0.0, 0.0)
    # x.Bx / 2 on the node array by matmul, the arithmetic of x @ B @ x at a node
    x = np.stack(grid.meshgrid(), axis=-1)
    worst = 0.0
    for _ in range(trials):
        B = random_symmetric(rng, grid.d)
        u = 0.5 * (x[..., None, :] @ B.entries @ x[..., :, None])[..., 0, 0]
        fld = op.apply(u, grid)
        value = float(target(eigenvalues(B))) / params.get("p", 1)
        worst = max(worst, float(np.max(np.abs(fld - value))))
    return worst


@dataclass
class SolveReport:
    """Outcome of a converged solve.

    iterations counts the steps' iterates, one residual_history entry
    each: the start and every accepted update. factorizations counts
    the sparse solves made, the Poisson start's and Newton directions
    whose every try was rejected included, so it is iterations - 1 for
    the piecewise-linear operators; newton_steps counts the accepted
    Newton steps. start is "poisson" when the iteration started from the
    Poisson start, "init" when from the initial guess. residual_floor is
    the roundoff level eps * max|u| / h^2 below which the residual
    cannot be pushed.
    """

    operator: str
    iterations: int
    residual: float
    residual_floor: float
    stop_reason: str
    residual_history: list
    factorizations: int
    newton_steps: int
    start: str


# A residual within FLOOR_BAND * residual_floor that has not improved for
# STALL_STEPS steps is at the floor: further steps only redraw roundoff.
FLOOR_BAND = 1e3
STALL_STEPS = 3


def _setup(op_key, rhs, g: GridFunction, init) -> tuple:
    grid = g.grid
    op = make_discrete_operator(op_key, grid)
    interior = grid.interior_slice()
    if np.ndim(rhs):
        rhs_field = np.asarray(rhs, dtype=float).reshape(grid.dims)[interior]
    else:
        rhs_field = float(rhs)
    u = g.values.copy()
    if init is not None:
        u[interior] = np.asarray(init, dtype=float).reshape(grid.dims)[interior]
    return grid, op, interior, rhs_field, u, _sparse_solver(grid)


def _assembler(grid: Grid) -> Callable:
    """coeffs -> scipy.sparse CSC matrix of sum_theta c_theta D_theta on the
    interior unknowns, with the neighbour indices along each direction
    built once.

    Only nonzero coefficients are assembled; neighbors on the boundary
    layer move to the right-hand side, which the caller's residual
    already holds.
    """
    plan = grid.plan(grid.layer_width)
    # per direction: h^2 |s|^2 and the interior index of every interior
    # node's neighbour at +s and at -s, flattened
    stencil = [(step2, [plan.index[f].ravel(), plan.index[b].ravel()])
               for f, b, step2 in plan.arms]

    def matrix(coeffs):
        import scipy.sparse as sp

        n = coeffs[0].size
        diag = np.zeros(n)
        rows, cols, vals = [], [], []
        for c, (scale, neighbours) in zip(coeffs, stencil):
            active = c != 0
            here = np.flatnonzero(active).astype(np.int32)
            a = c[active] / scale
            diag[here] -= 2.0 * a
            for nbr in neighbours:
                nb = nbr[here]
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

    return matrix


def _sparse_solver(grid: Grid) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """(coeffs, fld) -> du solving (sum_theta c_theta D_theta) du = fld on
    the interior unknowns by SuperLU (scipy's spsolve), du shaped as fld.
    Only this solve loads scipy.sparse, at its first call.
    """
    assemble = _assembler(grid)

    def solve(coeffs, fld):
        from scipy.sparse.linalg import spsolve

        return spsolve(assemble(coeffs), fld.ravel()).reshape(fld.shape)

    return solve


def solve_dirichlet(
    op_key: str,
    rhs: Union[float, np.ndarray],
    g: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 500,
    init: Optional[np.ndarray] = None,
) -> tuple:
    """Solve F_h(u) = rhs with boundary data g by frozen-coefficient steps.

    rhs is a constant level or the source field psi as node values of
    shape grid.dims, evaluated on the mesh as g's values are; only its
    interior nodes are read, as for init. The iteration starts from
    g's values unless init supplies an interior guess. For an operator
    with a tangent (slag) whose start has a residual above tol, one
    sparse solve first gives the Poisson start (see _poisson_start),
    which replaces the start when its max residual is lower.

    Each step linearizes F_h at u on the active frame and stops when
    max|F_h(u) - psi| <= tol. Otherwise, for the piecewise-linear
    operators, it solves the sparse M-matrix system J du = F_h(u) - psi
    and sets u <- u - du, a policy step. For an operator with a tangent
    it takes a Newton step with backtracking on the max residual: J
    takes the tangent slopes phi'(D), and u - alpha du is accepted at
    the first alpha in _NEWTON_STEPS whose residual is finite and lower.
    Newton steps are tried while the residual is below a gate, which
    starts infinite; when every alpha is rejected, the gate drops to
    half the current residual and that step is a secant step (slopes
    phi(D)/D) from the same u. Returns the iterate and a SolveReport.

    Raises NotConverged past max_iter, or earlier when the residual
    stalls at its roundoff floor above tol, and UnstableStep when the
    residual becomes non-finite.
    """
    grid, op, interior, rhs_field, u, solve = _setup(op_key, rhs, g, init)
    linearize = op.linearize if op.tangent is None else op.tangent
    history = []
    best = res = floor = gate = math.inf
    stalled = factorizations = newton_steps = 0
    state = linearize(u, grid)
    start = "init"
    if op.tangent is not None:
        res = float(np.max(np.abs(state[0] - rhs_field)))
        if res > tol:
            factorizations += 1
            poisson = _poisson_start(op, grid, solve, interior, rhs_field, u, res)
            if poisson is not None:
                (u, state), start = poisson, "poisson"
    for it in range(1, max_iter + 1):
        fld, coeffs = state[0] - rhs_field, state[1]
        res = float(np.max(np.abs(fld)))
        if not math.isfinite(res):
            raise UnstableStep(f"residual became non-finite at it={it}")
        history.append(res)
        floor = float(np.finfo(float).eps * np.max(np.abs(u)) / grid.h**2)
        if res <= tol:
            out = GridFunction(grid, u)
            return out, SolveReport(op_key, it, res, floor, "tol", history,
                                    factorizations, newton_steps, start)
        stalled = 0 if res < best else stalled + 1
        best = min(best, res)
        if stalled >= STALL_STEPS and res <= FLOOR_BAND * floor:
            raise NotConverged(
                f"{op_key}: residual {res:.3e} > {tol:.1e} stalled at the roundoff "
                f"floor {floor:.1e} (eps*max|u|/h^2) after {it} steps",
                residuals=history,
            )
        if op.tangent is not None and res < gate:
            factorizations += 1
            step = _newton_step(op, grid, solve, interior, rhs_field, u, fld, state[2], res)
            if step is not None:
                u, state = step
                newton_steps += 1
                continue
            gate = res / 2
        u[interior] -= solve(coeffs, fld)
        factorizations += 1
        state = linearize(u, grid)
    raise NotConverged(
        f"{op_key}: residual {res:.3e} > {tol:.1e} after {max_iter} steps "
        f"(roundoff floor {floor:.1e})",
        residuals=history,
    )


def _poisson_start(op, grid, solve, interior, rhs_field, u, res) -> Optional[tuple]:
    """One sparse solve of the linear problem with op's tangent coefficients
    c0 at the zero function (for slag the axis Laplacian) and u's boundary
    data: v = u - J0^-1 (sum_theta c0 D_theta(u) - psi). Returns
    (v, op.tangent's triple there) when v's max residual is below res,
    the start's, or None.
    """
    coeffs = op.tangent(np.zeros(grid.dims), grid)[2]
    fld = np.sum(coeffs * grid.plan(grid.layer_width).sweep(u), axis=0) - rhs_field
    v = u.copy()
    v[interior] -= solve(coeffs, fld)
    state = op.tangent(v, grid)
    if float(np.max(np.abs(state[0] - rhs_field))) < res:
        return v, state
    return None


# Step lengths the Newton line search tries, longest first.
_NEWTON_STEPS = (1.0, 0.5, 0.25, 0.125)


def _newton_step(op, grid, solve, interior, rhs_field, u, fld, tangent,
                 res) -> Optional[tuple]:
    """One sparse solve with the tangent matrix for the direction delta,
    then u - alpha * delta for alpha in _NEWTON_STEPS, each try one
    op.tangent call. Returns (iterate, op.tangent's triple there) for the
    first try whose max residual is finite and below res, or None.

    A singular or overflowing tangent system leaves a non-finite delta
    and is rejected; its warnings stay inside.
    """
    from scipy.sparse.linalg import MatrixRankWarning

    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", MatrixRankWarning)
        delta = solve(tangent, fld)
        if not np.all(np.isfinite(delta)):
            return None
        for alpha in _NEWTON_STEPS:
            trial = u.copy()
            trial[interior] -= alpha * delta
            state = op.tangent(trial, grid)
            if float(np.max(np.abs(state[0] - rhs_field))) < res:
                return trial, state
    return None


# States per block of the monotonicity probe: the states and their bumped
# copies go through apply as (_PROBE_BLOCK, *grid.dims) stacks.
_PROBE_BLOCK = 16
# The probe's bump of one node, and the change in F_h it forgives, in units
# of _PROBE_BUMP / h^2 (the bump's change in an axis second difference).
_PROBE_BUMP = 1e-6
_PROBE_TOL = 1e-12


def scheme_monotonicity_probe(op_key: str, grid: Grid, states: int = 100,
                              seed: int = 97) -> bool:
    """Finite-difference check that the scheme is degenerate elliptic.

    At random states, bumping one node up by _PROBE_BUMP must not lower
    F_h at any other interior node, nor raise it at the bumped node, by
    more than _PROBE_TOL * _PROBE_BUMP / h^2. Each state is a
    standard-normal grid function scaled by h^2, so that its second
    differences are of order 1 (at order 1/h^2 arctan is flat and a
    slag-shaped scheme cannot fail), and a node, drawn state by state in
    that order; the states are evaluated _PROBE_BLOCK at a time, one
    apply on the block and one on its bumped copy, and the probe returns
    False at the first block holding a failing state.
    """
    rng = np.random.default_rng(seed)
    op = make_discrete_operator(op_key, grid)
    slack = _PROBE_TOL * _PROBE_BUMP / grid.h**2
    flat = grid.plan(grid.layer_width).index
    for start in range(0, states, _PROBE_BLOCK):
        u = np.empty((min(_PROBE_BLOCK, states - start), *grid.dims))
        nodes = np.empty((len(u), grid.d), dtype=np.intp)
        for k in range(len(u)):
            u[k] = rng.standard_normal(grid.dims)
            nodes[k] = [rng.integers(0, dim) for dim in grid.dims]
        u *= grid.h**2
        base = op.apply(u, grid)
        bumped = (np.arange(len(u)), *nodes.T)
        u[bumped] += _PROBE_BUMP
        rise = (op.apply(u, grid) - base).reshape(len(u), -1)
        # the bumped node's own field must not rise
        at = flat[bumped[1:]]
        inside = at >= 0
        own = (np.flatnonzero(inside), at[inside])
        rise[own] = -rise[own]
        if float(np.min(rise)) < -slack:
            return False
    return True


# ---------------------------------------------------------------------------
# Discrete subharmonicity
# ---------------------------------------------------------------------------


@dataclass
class NodeReport:
    """Per-node classification summary from a discrete jet sweep."""

    total: int
    members: int
    worst_margin: float
    failures: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return self.members == self.total


def _classify(u: GridFunction, fiber: Union[FiberOracle, VariableFiberMap],
              width: int) -> NodeReport:
    """Classify u's discrete jets on the width-trimmed interior with one
    form call, a variable fiber taking the node points along.

    Failures are the first 8 non-members in node order.
    """
    jets = u.jet_field(width)
    if isinstance(fiber, VariableFiberMap):
        g = fiber.form(u.grid.node_points(width), *jets)
    else:
        g = fiber.values(*jets)
    member, margin = classify_values(g)
    failures = [
        (tuple(int(c) + width for c in np.unravel_index(i, g.shape)), float(margin.flat[i]))
        for i in np.flatnonzero(~member)[:8]
    ]
    worst = float(np.min(margin)) if margin.size else math.inf
    return NodeReport(int(g.size), int(np.count_nonzero(member)), worst, failures)


def check_subharmonic(
    u: GridFunction,
    fiber: Union[FiberOracle, VariableFiberMap],
    width: int = 1,
) -> NodeReport:
    """Classify every interior node's discrete jet against the fiber,
    under DEFAULT_TOL.

    The whole u.jet_field(width) goes through the fiber's form in one
    call; a variable fiber also takes the node points.
    """
    return _classify(u, fiber, width)


def check_superharmonic(
    w: GridFunction,
    fiber: Union[FiberOracle, VariableFiberMap],
    width: int = 1,
) -> NodeReport:
    """Superharmonicity via duality: -w must be subharmonic for the dual."""
    neg = GridFunction(w.grid, -w.values)
    return check_subharmonic(neg, dual_oracle(fiber), width)


# ---------------------------------------------------------------------------
# Comparison / ZMP experiments
# ---------------------------------------------------------------------------

# How far a grid function may exceed its bound (u over w, z over 0) in the
# comparison and zero-maximum verdicts, on the boundary layer and inside
VERDICT_SLACK = 1e-9


@dataclass
class Verdict:
    ok: bool
    witness_node: Optional[tuple] = None
    margin: float = 0.0
    note: str = ""


def comparison_experiment(
    fiber: Union[FiberOracle, VariableFiberMap],
    u_sub: GridFunction,
    w_super: GridFunction,
) -> Verdict:
    """Boundary ordering of a sub/super pair must propagate to the interior.

    Hypotheses (u subharmonic, w superharmonic, u <= w on the boundary
    layer) are validated first; HypothesisViolation reports which failed.
    """
    sub = check_subharmonic(u_sub, fiber)
    if not sub.all_pass:
        raise HypothesisViolation(
            f"u fails the subharmonic check at {sub.total - sub.members} nodes "
            f"(worst margin {sub.worst_margin:.3e})"
        )
    sup = check_superharmonic(w_super, fiber)
    if not sup.all_pass:
        raise HypothesisViolation(
            f"w fails the superharmonic check at {sup.total - sup.members} nodes "
            f"(worst margin {sup.worst_margin:.3e})"
        )
    grid = u_sub.grid
    mask = ~grid.interior_mask()
    gap = u_sub.values[mask] - w_super.values[mask]
    if float(np.max(gap)) > VERDICT_SLACK:
        raise HypothesisViolation(f"boundary ordering fails by {float(np.max(gap)):.3e}")
    diff = u_sub.values - w_super.values
    worst = float(np.max(diff))
    if worst > VERDICT_SLACK:
        node = np.unravel_index(int(np.argmax(diff)), diff.shape)
        return Verdict(ok=False, witness_node=tuple(node), margin=worst)
    return Verdict(ok=True, margin=worst)


def strict_approximator(M: MonotonicityCone, grid: Grid) -> Optional[GridFunction]:
    """A strictly M-subharmonic quadratic on the grid box, when one exists.

    The dichotomy: R infinite admits psi on every bounded box; R finite
    requires the box to fit inside a translate of the truncated cone
    (the directional cone intersected with the radius-R ball). Returns
    None, with the obstruction documented by the caller, when the box
    does not fit.
    """
    n = grid.d
    corners = _box_corners(grid)
    center = 0.5 * (grid.lo + grid.hi)
    halfdiag = 0.5 * float(np.linalg.norm(grid.hi - grid.lo))
    if math.isinf(M.R):
        x0 = center
        if M.D.kind is not ConeKind.FULL:
            # push the vertex far along -interior direction so the box
            # sits strictly inside the cone
            dirn = M.D.interior_direction(n)
            x0 = center - (halfdiag * 50.0 + 1.0) * dirn
    else:
        if M.D.kind is ConeKind.FULL:
            if halfdiag >= M.R * (1 - 1e-9):
                return None
            x0 = center
        else:
            dirn = M.D.interior_direction(n)
            # candidate vertices at increasing depth along -dirn; the box
            # must fit the ball (radius R around x0) and the cone
            x0 = None
            for depth in np.linspace(0.0, M.R, 200):
                cand = center - depth * dirn
                if float(np.linalg.norm(center - cand)) + halfdiag >= M.R:
                    break
                if all(M.D.functional(c - cand) > 1e-9 for c in corners):
                    x0 = cand
                    break
            if x0 is None:
                return None
    # psi = (|x - x0|^2 - K)/2 with K making every jet interior; its
    # gradient x - x0 must stay inside the radius-R ball
    pmax = max(float(np.linalg.norm(c - x0)) for c in corners)
    if pmax >= M.R * (1 - 1e-9):
        return None
    K = (pmax**2 + 2.0 * (M.gamma * pmax + 1.0)) + 1.0

    nodes = np.stack(grid.meshgrid(), axis=-1)
    out = GridFunction(grid, 0.5 * (np.sum((nodes - x0) ** 2, axis=-1) - K))
    # validate strictness of the analytic jets (psi(x), x - x0, I) at
    # every node one layer in, with one batched evaluation
    x = grid.node_points(1)
    r = 0.5 * (np.sum((x - x0) ** 2, axis=-1) - K)
    A = np.broadcast_to(np.eye(n), r.shape + (n, n))
    if not np.all(cone_M(M, n).values(r, x - x0, A) > DEFAULT_TOL):
        return None
    return out


def _box_corners(grid: Grid) -> list:
    return [
        np.array(c)
        for c in itertools.product(*[(grid.lo[i], grid.hi[i]) for i in range(grid.d)])
    ]


def zmp_experiment(
    M: MonotonicityCone,
    z: GridFunction,
    arity: Arity = Arity.FULL,
) -> Verdict:
    """Zero maximum principle for dual-cone subharmonics on the grid box.

    Validates z as a discrete dual-M subharmonic with z <= 0 on the
    boundary layer, requires a strict approximator to exist for M on the
    box (otherwise returns a not-asserted verdict documenting the
    absence), then checks z <= 0 at every interior node. Reduced arities
    (pure second order, gradient free) always admit a quadratic
    approximator; the R-finite obstruction only arises for full jets.
    """
    grid = z.grid
    cone = reduced_cone(M, grid.d, arity)
    rep = check_subharmonic(z, dual_oracle(cone))
    if not rep.all_pass:
        raise HypothesisViolation(
            f"z fails the dual-cone subharmonic check at {rep.total - rep.members} nodes"
        )
    mask = ~grid.interior_mask()
    bmax = float(np.max(z.values[mask]))
    if bmax > VERDICT_SLACK:
        raise HypothesisViolation(f"z > 0 on the boundary layer (max {bmax:.3e})")
    if arity is Arity.FULL:
        psi = strict_approximator(M, grid)
        if psi is None:
            return Verdict(
                ok=True,
                note="no strict approximator on this box (R-finite obstruction); "
                "zero maximum principle not asserted",
            )
    worst = float(np.max(z.values))
    if worst > VERDICT_SLACK:
        node = np.unravel_index(int(np.argmax(z.values)), z.values.shape)
        return Verdict(ok=False, witness_node=tuple(node), margin=worst)
    return Verdict(ok=True, margin=worst, note="strict approximator exists")


# ---------------------------------------------------------------------------
# Uniform translation probe
# ---------------------------------------------------------------------------


# The largest node offset per axis of the translation probe
MAX_SHIFT = 3


@dataclass
class TranslationReport:
    delta: float
    theta: float
    tested: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def uniform_translation_probe(
    u: GridFunction,
    theta_map: VariableFiberMap,
    psi: Optional[GridFunction],
    theta: float,
) -> TranslationReport:
    """Empirical radius delta of the uniform translation property.

    Grid translates tau_y u (|y| < delta, y an offset of at most
    MAX_SHIFT nodes per axis) perturbed by theta * psi must stay
    subharmonic for the variable fiber on the shrunken grid. psi, when
    given, must be strictly M-subharmonic in the discrete sense.
    """
    grid = u.grid
    if psi is not None:
        rep = check_subharmonic(psi, cone_M(theta_map.monotonicity, grid.d))
        if not rep.all_pass or rep.worst_margin <= 0:
            raise HypothesisViolation(
                f"psi is not strictly subharmonic for the declared cone "
                f"(worst margin {rep.worst_margin:.3e})"
            )
    offsets = []
    rng = range(-MAX_SHIFT, MAX_SHIFT + 1)
    for off in itertools.product(rng, repeat=grid.d):
        if any(off):
            offsets.append(off)
    offsets.sort(key=lambda o: sum(c * c for c in o))
    delta = 0.0
    tested = 0
    failures = []
    for off in offsets:
        shifted = np.roll(u.values, shift=off, axis=tuple(range(grid.d)))
        vals = shifted if psi is None or theta == 0 else shifted + theta * psi.values
        width = grid.layer_width + max(abs(c) for c in off)
        trial = GridFunction(grid, vals.copy())
        rep = _classify(trial, theta_map, width)
        tested += 1
        ynorm = grid.h * math.sqrt(sum(c * c for c in off))
        if rep.all_pass:
            delta = max(delta, ynorm)
        else:
            failures.append((off, rep.worst_margin))
            break
    return TranslationReport(delta=delta, theta=theta, tested=tested, failures=failures)

