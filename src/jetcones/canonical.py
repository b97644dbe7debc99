"""Canonical and signed-distance operators, and correspondence checkers.

The canonical operator of a pure-second-order cone F sends A to the
unique t with A - tI on the boundary of F. With that normalization

    canonical(A + P)  >= canonical(A)          for P >= 0,
    canonical(A + tI) =  canonical(A) + t,

i.e. the additive constant is pinned to c = 1 (cones whose textbook
operators carry another c, like truncated Laplacians with c = p, are
the same up to rescaling and share the zero set). The sign convention
is fixed by agreement with lambda_min on the convexity cone.
"""

from __future__ import annotations

import functools
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import (
    Arity,
    DEFAULT_TOL,
    FiberOracle,
    MonotonicityCone,
    RegionKind,
    bisect_brackets,
    cone_M,
    fan_values,
    first_hit,
    first_true,
    per_jet_form,
    ray_values,
)
from .duality import CheckReport
from .errors import BracketingFailure, ReferenceJetNotInterior
from .jets import Jet2, SymMat, jet_norm, random_jet, random_psd

SEARCH_RADIUS = 1e6


def canonical_operator(F: FiberOracle, A, tol: float = 1e-10) -> float:
    """The unique t with A - tI on the boundary of the cone F.

    Found by bisection on the monotone membership indicator
    t -> [A - tI in F], bracketed by doubling from ||A|| + 1. Raises
    BracketingFailure when no crossing exists within the search radius
    (fiber empty or the whole space).
    """
    J = A if isinstance(A, Jet2) else Jet2.from_matrix(A)
    n = J.n
    eyeJ = Jet2.from_matrix(SymMat.identity(n))

    def member(t):
        # sign of the defining functional, not the tolerance band: the
        # bisection target is the exact zero crossing
        return ray_values(F, J, eyeJ, -t) >= 0.0

    span = jet_norm(J) + 1.0
    ups = []
    t = span
    while t <= SEARCH_RADIUS:
        ups.append(t)
        t *= 2.0
    start_in = bool(member(0.0))
    side = ups if start_in else [-u for u in ups]
    k = first_hit(lambda t: member(t) != start_in, side)
    if k is None:
        raise BracketingFailure(
            f"no boundary crossing of {F.label} along I within radius {SEARCH_RADIUS:g}"
        )
    # member at t_lo, non-member at t_hi
    last, first = ([0.0] + side)[k], side[k]
    bracket = (last, first) if start_in else (first, last)

    def done(t_lo, t_hi):
        return not abs(t_hi - t_lo) > tol * max(1.0, abs(t_lo) + abs(t_hi))

    if not done(*bracket):
        bracket, = bisect_brackets(lambda live, t: member(t), [bracket], done)
    t_lo, t_hi = bracket
    return 0.5 * (t_lo + t_hi)


def _jet_directions(n: int, count: int, seed: int, arity: Arity) -> list:
    """Deterministic unit directions in jet space, canonical axes first.

    The stream is prefix-stable: the first k of a longer stream coincide,
    so refining the sample never increases the distance estimate.
    """
    dirs = []
    eye = np.eye(n)
    zero_p = np.zeros(n)
    zero_A = SymMat.zero(n)
    if arity is not Arity.PURE_SECOND_ORDER:
        dirs.append(Jet2(1.0, zero_p, zero_A))
        dirs.append(Jet2(-1.0, zero_p, zero_A))
    if arity is Arity.FULL:
        for i in range(n):
            dirs.append(Jet2(0.0, eye[i], zero_A))
            dirs.append(Jet2(0.0, -eye[i], zero_A))
    dirs.append(Jet2(0.0, zero_p, SymMat.identity(n)))
    dirs.append(Jet2(0.0, zero_p, SymMat(-np.eye(n))))
    rng = np.random.default_rng(seed)
    while len(dirs) < count:
        J = random_jet(rng, n)
        if arity is Arity.PURE_SECOND_ORDER:
            J = Jet2(0.0, zero_p, J.A)
        elif arity is Arity.GRADIENT_FREE:
            J = Jet2(J.r, zero_p, J.A)
        nrm = jet_norm(J)
        if nrm > 1e-9:
            dirs.append((1.0 / nrm) * J)
    return dirs[:count]


@functools.lru_cache(maxsize=32)
def _direction_stack(n: int, count: int, seed: int, arity: Arity) -> tuple:
    """_jet_directions as read-only stacks (r[D], p[D, n], A[D, n, n]), built
    once per argument tuple."""
    dirs = _jet_directions(n, count, seed, arity)
    stack = (np.array([U.r for U in dirs]), np.array([U.p for U in dirs]).reshape(-1, n),
             np.array([U.A.entries for U in dirs]).reshape(-1, n, n))
    for a in stack:
        a.setflags(write=False)
    return stack


def signed_distance(
    F: FiberOracle,
    J,
    directions: int = 256,
    tol: float = 1e-9,
    seed: int = 53,
    cap: float = SEARCH_RADIUS,
) -> float:
    """Approximate signed jet-norm distance from J to the boundary of F.

    Positive iff J is a member. Bisection along a deterministic stream
    of unit directions (canonical axes first, then seeded random); each
    direction overestimates the true distance, so more directions never
    increase the estimate's absolute value.
    """
    J = J if isinstance(J, Jet2) else Jet2.from_matrix(J)
    inside = F.value(J) >= 0.0
    found = [s for s in _crossings(F, J, inside, directions, tol, seed, cap) if s is not None]
    if not found:
        raise BracketingFailure(
            f"no boundary crossing of {F.label} from the query jet within radius {cap:g}"
        )
    best = min(found)
    return best if inside else -best


def _crossings(F: FiberOracle, J: Jet2, inside: bool, directions: int, tol: float,
               seed: int, cap: float) -> list:
    """For each direction U of the stream, the first s > 0 where the sign of
    F's functional along J + s*U stops matching inside (bisected to tol), or
    None when doubling s from 1 finds none up to cap. All directions search
    in lockstep, each with its own stop rule."""
    Ur, Up, UA = _direction_stack(J.n, directions, seed, F.arity)

    def keeps(live, s):
        g = fan_values(F, J, Ur[live, None], Up[live, None], UA[live, None], s)
        return (g >= 0.0) == inside

    # every direction's doubling bracket s = 1, 2, 4, ... <= cap, in one call
    ss = []
    s = 1.0
    while s <= cap:
        ss.append(s)
        s *= 2.0
    flips = ~keeps(np.arange(len(Ur)), np.array([ss]))
    crossing, brackets = [], []
    for i, row in enumerate(flips):
        k = first_true(row)
        if k is not None:
            crossing.append(i)
            brackets.append((([0.0] + ss)[k], ss[k]))
    crossing = np.array(crossing, dtype=int)
    brackets = bisect_brackets(lambda live, s: keeps(crossing[live], s), brackets,
                               lambda s_keep, s_flip: s_flip - s_keep < tol * max(1.0, s_flip),
                               max_steps=80)
    out = [None] * len(Ur)
    for i, (s_keep, s_flip) in zip(crossing.tolist(), brackets):
        out[i] = 0.5 * (s_keep + s_flip)
    return out


# ---------------------------------------------------------------------------
# Correspondence checkers
# ---------------------------------------------------------------------------

JetOp = Callable[[Jet2], float]


def matrix_op(f: Callable[[np.ndarray], float]) -> JetOp:
    """Lift a matrix functional to a jet operator (value/gradient silent)."""
    return lambda J: float(f(J.A.entries))


def gradient_free_op(f: Callable[[float, np.ndarray], float]) -> JetOp:
    """Lift an (r, A) functional to a jet operator (gradient silent)."""
    return lambda J: float(f(J.r, J.A.entries))


def induced_fiber(op: JetOp, G: Optional[FiberOracle], n: int, arity: Arity,
                  label: str = "induced") -> FiberOracle:
    """The constraint set {J in G : op(J) >= 0} as a fiber oracle.

    The defining functional is min(G's functional, op); with G = None the
    operator is unconstrained.
    """
    op_form = per_jet_form(op)
    if G is None:
        form = op_form
    else:
        def form(r, p, A):
            return np.minimum(G.form(r, p, A), op_form(r, p, A))

    return FiberOracle(label, n, arity, None, form)


def _structured_probe_jets(n: int, rng: np.random.Generator, count: int) -> list:
    """Random jets plus axis-aligned degenerate ones (zero Hessian rays etc.)."""
    jets = []
    for _ in range(count):
        jets.append(random_jet(rng, n, scale=1.5))
    for c in (0.5, 1.0, 2.0):
        jets.append(Jet2(-c, np.zeros(n), SymMat.zero(n)))
        jets.append(Jet2(0.0, np.zeros(n), SymMat(c * np.eye(n))))
        jets.append(Jet2(-c, np.zeros(n), SymMat(c * np.eye(n))))
    return jets


def _boundary_probe(F: FiberOracle, J_in: Jet2, J_out: Jet2,
                    tol: float) -> Optional[Jet2]:
    """Bisect the segment [J_in, J_out] to a jet classified Boundary."""
    # one probe per step: induced fibers evaluate per jet (per_jet_form), so a
    # 15-row bisection tree would cost 15 evaluations to save 3 calls
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        Jm = (1 - mid) * J_in + mid * J_out
        r = F.classify(Jm, tol)
        if r.kind is RegionKind.BOUNDARY:
            return Jm
        if r.is_member:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return None


def check_proper_elliptic(
    op: JetOp,
    G: Optional[FiberOracle],
    n: int,
    samples: int = 300,
    seed: int = 59,
    tol: float = 1e-9,
) -> CheckReport:
    """Sampled monotonicity of op in the (-r, +A) slots over members of G."""
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="proper-elliptic", seed=seed)
    for J in _structured_probe_jets(n, rng, samples):
        if G is not None and not G.contains(J):
            continue
        s = -abs(rng.standard_normal())
        P = random_psd(rng, n)
        J2 = Jet2(J.r + s, J.p, J.A + P)
        if G is not None and not G.contains(J2):
            continue
        gain = op(J2) - op(J)
        ok = gain >= -tol
        rep.record(ok, gain, None if ok else J)
    return rep


def check_compatibility(
    op: JetOp,
    G: Optional[FiberOracle],
    F_induced: FiberOracle,
    samples: int = 300,
    seed: int = 61,
    tol: float = DEFAULT_TOL,
    slack: float = 1e-6,
) -> CheckReport:
    """Two-sided sampled check that op's sign structure matches F_induced.

    Interior-classified jets must have op > tol; boundary-classified
    jets (found by random probes, structured degenerate probes, and
    member/non-member bisection) must have |op| <= slack.
    """
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="compatibility", seed=seed)
    n = F_induced.n
    probes = _structured_probe_jets(n, rng, samples)
    members = [J for J in probes if F_induced.classify(J, tol).is_member]
    outsiders = [J for J in probes if not F_induced.classify(J, tol).is_member]
    # enrich with boundary jets between member/outsider pairs
    boundary = []
    for i in range(min(len(members), len(outsiders), samples // 3)):
        B = _boundary_probe(F_induced, members[i], outsiders[i], tol)
        if B is not None:
            boundary.append(B)
    for J in probes + boundary:
        region = F_induced.classify(J, tol)
        if G is not None and not G.contains(J, 1e-6):
            continue
        v = op(J)
        if region.kind is RegionKind.INTERIOR and region.margin > 3 * tol:
            ok = v > 0
            rep.record(ok, v, None if ok else J)
        elif region.kind is RegionKind.BOUNDARY:
            ok = abs(v) <= slack
            rep.record(ok, -abs(v), None if ok else J)
    return rep


def check_topological_tameness(
    op: JetOp,
    G: FiberOracle,
    levels: Sequence[float],
    samples: int = 200,
    seed: int = 67,
    tol: float = 1e-9,
    probe_scale: float = 1e-3,
) -> CheckReport:
    """Probe that op's level sets inside G have empty interior.

    Level hits are found among G-member samples directly or by bisecting
    segments between straddling pairs (G is convex for catalog cones).
    Each hit must admit nearby jets with strictly larger and strictly
    smaller operator values; a constant patch fails.
    """
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="topological-tameness", seed=seed)
    n = G.n
    eyeJ = Jet2.from_matrix(SymMat.identity(n))
    pool = []
    for _ in range(samples):
        J = random_jet(rng, n, scale=1.5)
        if G.contains(J):
            pool.append((J, op(J)))
    probe_dirs = [eyeJ, (-1.0) * eyeJ]
    for _ in range(4):
        U = random_jet(rng, n)
        nrm = jet_norm(U)
        probe_dirs.append((1.0 / nrm) * U)

    def probe(Jc: Jet2, c: float) -> bool:
        vals = [op(Jc + probe_scale * U) for U in probe_dirs]
        return max(vals) > c + tol and min(vals) < c - tol

    for c in levels:
        hits = []
        for J, v in pool:
            if abs(v - c) <= 1e-9 * max(1.0, abs(c)):
                hits.append(J)
        below = [J for J, v in pool if v < c]
        above = [J for J, v in pool if v > c]
        for i in range(min(len(below), len(above), 20)):
            Jb, Ja = below[i], above[i]
            # one probe per step: op is a JetOp, so a stacked tree would cost
            # one op call per row, 15 to save 3
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if op((1 - mid) * Jb + mid * Ja) < c:
                    lo = mid
                else:
                    hi = mid
            Jc = (1 - 0.5 * (lo + hi)) * Jb + (0.5 * (lo + hi)) * Ja
            if G.contains(Jc) and abs(op(Jc) - c) <= 1e-6 * max(1.0, abs(c)):
                hits.append(Jc)
        for Jc in hits:
            ok = probe(Jc, c)
            rep.record(ok, 0.0 if not ok else probe_scale, None if ok else Jc)
    return rep


def check_strict_M_monotone(
    op: JetOp,
    F: FiberOracle,
    M: MonotonicityCone,
    J0: Optional[Jet2] = None,
    samples: int = 300,
    seed: int = 71,
    tol: float = 1e-12,
) -> CheckReport:
    """Sampled strict monotonicity op(J + t*J0) > op(J) on members, t in (0, 1]."""
    n = F.n
    J0 = J0 if J0 is not None else M.interior_jet(n)
    if not cone_M(M, n).classify(J0).is_interior:
        raise ReferenceJetNotInterior("J0 must lie in the interior of M")
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="strict-M-monotone", seed=seed)
    from .catalog import shift_to_boundary

    for _ in range(samples):
        J = random_jet(rng, n, scale=1.5)
        if not F.contains(J):
            J = shift_to_boundary(F, J, J0)
            if J is None or not F.contains(J):
                continue
        t = rng.uniform(1e-3, 1.0)
        gain = op(J + t * J0) - op(J)
        ok = gain > tol
        rep.record(ok, gain, None if ok else J)
    return rep


# ---------------------------------------------------------------------------
# Admissible viscosity sub/supersolution tests on grid functions
# ---------------------------------------------------------------------------

def admissible_subsolution_test(op: JetOp, G: Optional[FiberOracle],
                                u, node, tol: float = DEFAULT_TOL) -> bool:
    """Discrete-jet admissible subsolution test at an interior node.

    The discrete jet (value, centered gradient, centered Hessian) must
    lie in G with op >= 0 there.
    """
    J = u.discrete_jet(node)
    if G is not None and not G.contains(J, tol):
        return False
    return op(J) >= -tol


def admissible_supersolution_test(op: JetOp, G: Optional[FiberOracle],
                                  u, node, tol: float = DEFAULT_TOL) -> bool:
    """Discrete-jet admissible supersolution test at an interior node.

    Either the discrete jet leaves G, or op <= 0 on it.
    """
    J = u.discrete_jet(node)
    if G is not None and not G.contains(J, tol):
        return True
    return op(J) <= tol
