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

import bisect
import functools
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import (
    Arity,
    DEFAULT_TOL,
    SHIFT_MARGIN,
    FiberOracle,
    MonotonicityCone,
    bisect_brackets,
    crossing_brackets,
    into_fibers,
    jets_along,
    classify_values,
    members,
    ray_probe,
)
from .duality import CheckReport
from .errors import BadParameters, BoundaryNode, BracketingFailure
from .jets import (
    MAX_DIM,
    Jet2,
    SymMat,
    eigenvalues,
    jet_norm,
    parts_norm,
    random_jet,
    random_jets,
    random_psd,
    stack_jets,
)

SEARCH_RADIUS = 1e6
# The smallest tol canonical_operator takes: the bisection's stop rule
# cannot be met below one ulp of t, so tol = 0 would never return.
MIN_TOL = 4 * sys.float_info.epsilon
# The operator-value tolerance of check_proper_elliptic (op may fall by
# at most this much) and check_topological_tameness (a level hit needs
# nearby values this far above and below the level).
OP_TOL = 1e-9
# The length of check_topological_tameness's probe steps from a level hit
PROBE_SCALE = 1e-3


def _bracket_done(t_lo, t_hi, tol: float):
    """canonical_operator's stop rule on arrays of bracket ends: the bracket
    is at most tol * max(1, |t_lo| + |t_hi|) wide (or has a NaN end)."""
    return np.logical_not(np.abs(t_hi - t_lo) > tol * np.maximum(1.0, np.abs(t_lo) + np.abs(t_hi)))


def canonical_operator(F: FiberOracle, A, tol: float = 1e-10) -> float:
    """The unique t with A - tI on the boundary of the cone F.

    A is a Jet2, a SymMat or a raw square matrix; a matrix stands for the
    jet (0, 0, A). Only a raw matrix is validated, through SymMat: a SymMat
    or a Jet2 was validated when it was built, and is read as it is.
    tol must be finite and at least MIN_TOL (BadParameters otherwise).
    BracketingFailure when no crossing lies within SEARCH_RADIUS (fiber
    empty or the whole space).

    Every fiber takes one route. A's eigenvalues lambda are solved once;
    one stacked call of g(t) = g(A - tI) on the ladder of 0, the
    +-doubling points from the jet norm + 1 and the eigenvalues brackets
    the crossing (_ladder_bracket); one secant step on that bracket,
    certified by a second stacked call, lands within tol * (1 + |t|) of it
    (_ladder_root). Where the certificate fails, the bracket is bisected
    on g >= 0 to tol * max(1, |t_lo| + |t_hi|), and one secant step on the
    last bracket gives the value. F.spectrum chooses only how g is
    evaluated: a fiber with a spectrum (F.spectrum = f, g = f(r, p,
    lambda(A))) reads f(r, p, lambda - t) with no other eigen-solve; a
    fiber without one evaluates its form on the stack of jets A - tI,
    through catalog.ray_probe.

    For P, P~, branch, pfold, quasiconvex and pucci and their duals g is
    linear between consecutive eigenvalues, its kinks sitting at the
    eigenvalues only, so the secant step is exact up to rounding; so is it
    for the Garding cones and branches, lagrangian and failure, whose g
    drops by t (n*t for lagrangian in 2n dimensions) along -I; sigma's g
    is curved. Along -I membership of a fiber with F + P in F (every
    catalog cone and dual) only shrinks, so g >= 0 exactly up to the
    crossing and g < 0 past it, and the first sign change on the ladder is
    the crossing even where g vanishes on an interval, like M(0, full,
    1)'s min(-r, lambda_min - t - |p|) at r = 0: where that interval ends
    off the ladder, the secant step stops at the bracket's keep end, the
    certificate fails, and the bisection finds the crossing.
    """
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise BadParameters(f"canonical tol must be finite and at least {MIN_TOL:.3g}, got {tol}")
    r, p, S = _jet_parts(A)
    lam = eigenvalues(S)
    if F.spectrum is not None:
        f = functools.partial(F.spectrum, r, p)

        def g(t):
            return f(lam - t[..., None])
    else:
        probe = ray_probe(F, (np.array([r]), p[None], S.entries[None]), _identity_jet(S.n))

        def g(t):
            return probe([0], -t.reshape(1, -1)).reshape(t.shape)
    bracket = _ladder_bracket(g, lam, _doublings(parts_norm(r, p, lam) + 1.0, SEARCH_RADIUS))
    if bracket is None:
        raise BracketingFailure(
            f"no boundary crossing of {F.label} along I within radius {SEARCH_RADIUS:g}"
        )
    return _ladder_root(g, *bracket, tol)


@functools.lru_cache(maxsize=MAX_DIM)
def _identity_jet(n: int) -> Jet2:
    """The jet (0, 0, I) in n dimensions, the direction of canonical_operator's
    form route, built (and its SymMat validated) once per n."""
    return Jet2.from_matrix(SymMat.identity(n))


# A matrix's jet (0, 0, A) has the gradient _ZERO_GRADIENT[:n], read-only
_ZERO_GRADIENT = np.zeros(MAX_DIM)
_ZERO_GRADIENT.setflags(write=False)
_ZERO_RUNG = np.zeros(1)  # the ladder's rung at t = 0


def _jet_parts(A) -> tuple:
    """(r, p, S) of canonical_operator's query: a Jet2's parts as they are,
    or (0, 0, S) for a matrix, with S = A for a SymMat and SymMat(A),
    which validates it, for a raw array."""
    if isinstance(A, Jet2):
        return A.r, A.p, A.A
    if not isinstance(A, SymMat):
        A = SymMat(A)
    return 0.0, _ZERO_GRADIENT[:A.n], A


def _ladder_bracket(g: Callable, lam: np.ndarray, side: np.ndarray) -> Optional[tuple]:
    """The first sign change of g(t) from g >= 0 to g < 0 on the ladder of
    0, +-side and lam, from one stacked g call on the 1-D array of rungs,
    as ((keep, g(keep)), (flip, g(flip))). None when side is empty or g
    keeps one sign on the ladder. Every eigenvalue lies within (-side[0],
    side[0]), so the ladder holds every doubling point on both sides of 0
    in order, and g, which is >= 0 up to the crossing and < 0 past it,
    changes sign on the ladder exactly when a doubling walk from 0 finds a
    crossing. The ladder
    is built in ascending order, with no sort: -side reversed, the
    eigenvalues up to 0, 0, the other eigenvalues, side. The ladder's +0
    follows every eigenvalue +-0, so a keep end at t = 0 is +0."""
    if not side.size:
        return None
    k = bisect.bisect_right(lam.tolist(), 0.0)
    ts = np.concatenate((-side[::-1], lam[:k], _ZERO_RUNG, lam[k:], side))
    gs = g(ts)
    # the first rung with g >= 0 whose next rung has g < 0: the first True,
    # False pair among the one-byte booleans
    i = (gs >= 0.0).tobytes().find(b"\x01\x00")
    if i < 0:
        return None
    return (ts.item(i), gs.item(i)), (ts.item(i + 1), gs.item(i + 1))


def _ladder_root(g: Callable, keep: tuple, flip: tuple, tol: float) -> float:
    """The crossing of g(t) on a ladder bracket from _ladder_bracket: one
    secant step t on it, returned when one stacked g call certifies
    g(t - d) >= 0 > g(t + d) for d = tol * (1 + |t|) / 2, so the crossing
    lies within tol * (1 + |t|) of t. The step is exact up to rounding
    where g is linear on the bracket. Otherwise (sigma's curved g, a g
    that vanishes on an interval, or tol near MIN_TOL where the rounding
    of g outgrows the certificate's margin) catalog.bisect_brackets
    refines the bracket on g >= 0 to canonical_operator's stop rule
    (_bracket_done), and one secant step on its last bracket, which stays
    inside it, is the value. g takes an array of t of any shape."""
    (a, ga), (b, gb) = keep, flip
    t = a + (b - a) * (ga / (ga - gb))
    d = 0.5 * tol * (1.0 + abs(t))
    below, above = g(np.array((t - d, t + d))).tolist()
    if below >= 0.0 and above < 0.0:
        return t
    (a, b), = bisect_brackets(lambda live, t: g(t) >= 0.0, [(a, b)],
                              functools.partial(_bracket_done, tol=tol))
    ga, gb = g(np.array((a, b))).tolist()
    return a + (b - a) * (ga / (ga - gb))


def _doublings(first: float, cap: float) -> np.ndarray:
    """first, 2*first, 4*first, ... while at most cap, for first > 0."""
    if not first <= cap:
        return np.empty(0)
    # first * 2**k is exact, as repeated doubling is. With first = f 2**e
    # and cap = c 2**E, f and c in [0.5, 1), it is below cap for k < E - e
    # and above it for k > E - e
    k = math.frexp(cap)[1] - math.frexp(first)[1]
    if math.ldexp(first, k) > cap:
        k -= 1
    return np.ldexp(first, _EXPONENTS[:k + 1])


# 0, 1, 2, ...: every k _doublings can take, as the binary exponents frexp
# gives positive doubles run from min_exp - 52 to max_exp
_EXPONENTS = np.arange(sys.float_info.max_exp - sys.float_info.min_exp + 53, dtype=np.int32)


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
    stack = stack_jets(_jet_directions(n, count, seed, arity), n)
    for a in stack:
        a.setflags(write=False)
    return stack


def signed_distance(
    F: FiberOracle,
    J,
    directions: int = 256,
    seed: int = 53,
) -> float:
    """Approximate signed jet-norm distance from J to the boundary of F.

    Positive iff J is a member. Bisection along a deterministic stream
    of unit directions (canonical axes first, then seeded random), out to
    SEARCH_RADIUS; each direction overestimates the true distance, so
    more directions never increase the estimate's absolute value.
    """
    J = J if isinstance(J, Jet2) else Jet2.from_matrix(J)
    inside = F.value(J) >= 0.0
    found = [s for s in _crossings(F, J, inside, directions, 1e-9, seed, SEARCH_RADIUS)
             if s is not None]
    if not found:
        raise BracketingFailure(
            f"no boundary crossing of {F.label} from the query jet within radius "
            f"{SEARCH_RADIUS:g}"
        )
    best = min(found)
    return best if inside else -best


def _crossing_done(s_keep, s_flip, tol: float):
    """_crossings' stop rule on arrays of bracket ends: the bracket is
    narrower than tol * max(1, s_flip)."""
    return s_flip - s_keep < tol * np.maximum(1.0, s_flip)


def _crossings(F: FiberOracle, J: Jet2, inside: bool, directions: int, tol: float,
               seed: int, cap: float) -> list:
    """For each direction U of the stream, the first s > 0 where the sign of
    F's functional along J + s*U stops matching inside (bisected to tol), or
    None when doubling s from 1 finds none up to cap. All directions search
    in lockstep, each with its own stop rule."""
    Ur, Up, UA = _direction_stack(J.n, directions, seed, F.arity)

    def keeps(live, s):
        g = F.values(*jets_along((J.r, J.p, J.A.entries),
                                 (Ur[live, None], Up[live, None], UA[live, None]), s))
        return (g >= 0.0) == inside

    ss = _doublings(1.0, cap)
    found = crossing_brackets(keeps, np.broadcast_to(ss, (len(Ur), len(ss))), [True] * len(Ur),
                              functools.partial(_crossing_done, tol=tol),
                              max_steps=80)
    return [None if b is None else 0.5 * (b[0] + b[1]) for b in found]


# ---------------------------------------------------------------------------
# Correspondence checkers
# ---------------------------------------------------------------------------

# A jet operator is a form on stacks of jets, the contract of
# FiberOracle.form: op(r[...], p[..., n], A[..., n, n]) -> v[...]
JetOp = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def induced_fiber(op: JetOp, G: Optional[FiberOracle], n: int, arity: Arity,
                  label: str = "induced") -> FiberOracle:
    """The constraint set {J in G : op(J) >= 0} as a fiber oracle.

    The defining functional is min(G's functional, op) on stacks, like
    every form; with G = None it is op itself, unconstrained.
    """
    if G is None:
        return FiberOracle(label, n, arity, None, op)
    return FiberOracle(label, n, arity, None,
                       lambda r, p, A: np.minimum(G.form(r, p, A), op(r, p, A)))


def _between(J0: tuple, J1: tuple, t) -> tuple:
    """The parts of (1 - t)*J0 + t*J1, with the float operations of Jet2
    arithmetic, for stacks J0 and J1 whose leading axes broadcast against
    t's; t gets one trailing axis per axis a part has past r's (as in
    catalog.jets_along)."""
    t = np.asarray(t, dtype=float)
    lead = np.ndim(J0[0])

    def w(x, a):
        return x.reshape(x.shape + (1,) * (np.ndim(a) - lead))

    return tuple(w(1.0 - t, a) * a + w(t, a) * b for a, b in zip(J0, J1))


def _rows(J: tuple, rows) -> tuple:
    return tuple(a[rows] for a in J)


def _structured_probe_jets(n: int, rng: np.random.Generator, count: int) -> tuple:
    """count random jets (one random_jets block, scale 1.5), then the
    axis-aligned degenerate ones (-c, 0, 0), (0, 0, c*I) and (-c, 0, c*I)
    for c = 0.5, 1, 2, as stacks."""
    r, p, A = random_jets(rng, n, count, 1.5)
    c = np.repeat([0.5, 1.0, 2.0], 3)
    return (np.concatenate((r, c * np.tile([-1.0, 0.0, -1.0], 3))),
            np.concatenate((p, np.zeros((len(c), n)))),
            np.concatenate((A, (c * np.tile([0.0, 1.0, 1.0], 3))[:, None, None] * np.eye(n))))


def _boundary_probes(F: FiberOracle, J_in: tuple, J_out: tuple) -> tuple:
    """For each pair of rows of the stacks J_in and J_out, the first jet
    classified Boundary by the bisection of the segment [J_in, J_out]
    (toward J_out while the midpoint is a member), which stops at that
    jet, at a bracket narrower than 1e-14 or after 200 steps; the jets
    found, as stacks in pair order.

    The pairs bisect in lockstep, one values call per step. Each bracket
    starts as [0, 1] and halves exactly at every step, so all of them
    meet the width rule together; a pair that has found its jet keeps
    bisecting with the others and keeps its first find.
    """
    lo, hi = np.zeros(len(J_in[0])), np.ones(len(J_in[0]))
    at = np.full(len(lo), np.nan)  # where each pair found its jet
    for _ in range(200):
        if (hi - lo < 1e-14).all():
            break
        mid = 0.5 * (lo + hi)
        member, margin = classify_values(F.values(*_between(J_in, J_out, mid)))
        hit = member & (margin == 0.0) & np.isnan(at)
        at[hit] = mid[hit]
        lo, hi = np.where(member, mid, lo), np.where(member, hi, mid)
    found = ~np.isnan(at)
    return _between(_rows(J_in, found), _rows(J_out, found), at[found])


def check_proper_elliptic(
    op: JetOp,
    G: Optional[FiberOracle],
    n: int,
    samples: int = 300,
    seed: int = 59,
) -> CheckReport:
    """Sampled monotonicity of op in the (-r, +A) slots over members of G.

    The probe jets (_structured_probe_jets) are drawn first; each member
    of G then draws its s <= 0 and its P >= 0 (random_psd), member by
    member. J2 = (r + s, p, A + P) must be a member too, and
    op(J2) - op(J) >= -OP_TOL. One values call classifies each stack and
    op runs once on each.
    """
    rng = np.random.default_rng(seed)
    J = _structured_probe_jets(n, rng, samples)
    if G is not None:
        J = _rows(J, members(G.values(*J)))
    s, P = np.empty(len(J[0])), np.empty_like(J[2])
    for i in range(len(s)):
        s[i] = -abs(rng.standard_normal())
        P[i] = random_psd(rng, n).entries
    J2 = (J[0] + s, J[1], J[2] + P)
    if G is not None:
        kept = members(G.values(*J2))
        J, J2 = _rows(J, kept), _rows(J2, kept)
    gain = op(*J2) - op(*J)
    rep = CheckReport(name="proper-elliptic", seed=seed)
    rep.record(gain >= -OP_TOL, gain, J)
    return rep


def check_compatibility(
    op: JetOp,
    G: Optional[FiberOracle],
    F_induced: FiberOracle,
    samples: int = 300,
    seed: int = 61,
) -> CheckReport:
    """Two-sided sampled check that op's sign structure matches F_induced.

    Interior-classified jets (margin above 3*DEFAULT_TOL) must have
    op > 0; boundary-classified jets (found by random probes, structured
    degenerate probes, and member/non-member bisection) must have
    |op| <= 1e-6. The i-th
    member probe pairs with the i-th outsider, for up to samples // 3
    pairs, and all pairs bisect in lockstep (_boundary_probes).
    """
    rng = np.random.default_rng(seed)
    probes = _structured_probe_jets(F_induced.n, rng, samples)
    inside = members(F_induced.values(*probes))
    k = min(np.count_nonzero(inside), np.count_nonzero(~inside), samples // 3)
    J = _boundary_probes(F_induced, _rows(probes, np.flatnonzero(inside)[:k]),
                         _rows(probes, np.flatnonzero(~inside)[:k]))
    J = tuple(np.concatenate(parts) for parts in zip(probes, J))
    if G is not None:
        J = _rows(J, members(G.values(*J), 1e-6))
    member, margin = classify_values(F_induced.values(*J))
    interior, boundary = margin > 3 * DEFAULT_TOL, member & (margin == 0.0)
    v = op(*J)
    kept = interior | boundary
    rep = CheckReport(name="compatibility", seed=seed)
    rep.record(np.where(interior, v > 0, np.abs(v) <= 1e-6)[kept],
               np.where(interior, v, -np.abs(v))[kept], _rows(J, kept))
    return rep


def check_topological_tameness(
    op: JetOp,
    G: FiberOracle,
    levels: Sequence[float],
    samples: int = 200,
    seed: int = 67,
) -> CheckReport:
    """Probe that op's level sets inside G have empty interior.

    The sample is drawn first: the jets (one random_jets block, scale
    1.5), then the four random probe directions. Level hits of each c in
    levels are the G-member samples within 1e-9 * max(1, |c|) of c, in
    sample order, then the jets found by bisecting segments between
    straddling pairs (G is convex for catalog cones): the i-th member
    below c with the i-th above, up to 20 pairs, 80 steps each on
    op < c, kept when the midpoint lies in G within 1e-6 * max(1, |c|)
    of c. Each hit must admit nearby jets (along +-I and the random
    directions, scaled by PROBE_SCALE) with values more than OP_TOL above
    c and more than OP_TOL below it; a constant patch fails. Every
    level's pairs bisect together through catalog.bisect_brackets, and
    every stage is one call on a stack of all levels.
    """
    rng = np.random.default_rng(seed)
    n = G.n
    J = random_jets(rng, n, samples, 1.5)
    eyeJ = _identity_jet(n)
    dirs = [eyeJ, (-1.0) * eyeJ]
    for _ in range(4):
        U = random_jet(rng, n)
        dirs.append((1.0 / jet_norm(U)) * U)
    U = tuple(PROBE_SCALE * a for a in stack_jets(dirs, n))

    pool = _rows(J, members(G.values(*J)))
    v = op(*pool)
    c = np.asarray(levels, dtype=float)
    reach = np.maximum(1.0, np.abs(c))
    level, below, above = [], [], []
    for j in range(len(c)):
        b, a = np.flatnonzero(v < c[j]), np.flatnonzero(v > c[j])
        k = min(len(b), len(a), 20)
        level += [j] * k
        below += b[:k].tolist()
        above += a[:k].tolist()
    level = np.array(level, dtype=int)
    Jb, Ja = _rows(pool, below), _rows(pool, above)

    def keeps(live, t):
        ends = (tuple(a[live, None] for a in Jb), tuple(a[live, None] for a in Ja))
        return op(*_between(*ends, t)) < c[level[live], None]

    # a stop rule that never stops: each bracket takes the loop's 80 steps
    brackets = np.array(bisect_brackets(keeps, [(0.0, 1.0)] * len(level),
                                        lambda a, b: np.zeros(a.shape, dtype=bool),
                                        max_steps=80)).reshape(-1, 2)
    Jc = _between(Jb, Ja, 0.5 * (brackets[:, 0] + brackets[:, 1]))
    found = members(G.values(*Jc)) & (np.abs(op(*Jc) - c[level]) <= 1e-6 * reach[level])
    # each level's hits: its samples near c, then its bisected jets, in order
    near_level, near = np.nonzero(np.abs(v - c[:, None]) <= 1e-9 * reach[:, None])
    found = np.flatnonzero(found)
    at = np.concatenate((near_level, level[found]))
    order = np.argsort(at, kind="stable")
    rows = np.concatenate((near, len(v) + found))[order]
    hits = _rows(tuple(np.concatenate(parts) for parts in zip(pool, Jc)), rows)
    vals = op(*(h[:, None] + u for h, u in zip(hits, U)))
    at = c[at[order], None]
    ok = (vals > at + OP_TOL).any(axis=1) & (vals < at - OP_TOL).any(axis=1)
    rep = CheckReport(name="topological-tameness", seed=seed)
    rep.record(ok, np.where(ok, PROBE_SCALE, 0.0), hits)
    return rep


def check_strict_M_monotone(
    op: JetOp,
    F: FiberOracle,
    M: MonotonicityCone,
    samples: int = 300,
    seed: int = 71,
) -> CheckReport:
    """Sampled strict monotonicity op(J + t*J0) > op(J) + 1e-12 on members,
    t in (0, 1], along M's interior jet J0 = M.interior_jet(n).

    The whole sample is drawn first: the jets (one random_jets block,
    scale 1.5), then one uniform block of t in [1e-3, 1). The jets outside
    F move along J0 onto its boundary and SHIFT_MARGIN past it
    (catalog.into_fibers), and a sample whose shift fails is dropped. op
    runs once on the kept jets and once on their moves along J0.
    """
    n = F.n
    # interior to M with a margin of at least 0.5: MonotonicityCone bounds
    # gamma and R so that neither slot's margin rounds away
    J0 = M.interior_jet(n)
    rng = np.random.default_rng(seed)
    J = random_jets(rng, n, samples, scale=1.5)
    ts = rng.uniform(1e-3, 1.0, samples)
    rows, J = into_fibers(F, J, J0, np.full(samples, SHIFT_MARGIN))
    gain = op(*jets_along(J, (J0.r, J0.p, J0.A.entries), ts[rows])) - op(*J)
    rep = CheckReport(name="strict-M-monotone", seed=seed)
    rep.record(gain > 1e-12, gain, J)
    return rep


# ---------------------------------------------------------------------------
# Admissible viscosity sub/supersolution tests on grid functions
# ---------------------------------------------------------------------------

def _node_jet(u, node) -> tuple:
    """u's discrete jet at an interior node, its entry of u.jet_field(1),
    as parts (r, p[n], A[n, n]).

    A node on the layer raises BoundaryNode; its index into the trimmed
    stacks would be negative and wrap to the far side.
    """
    node = tuple(node)
    if any(c < 1 or c >= dim - 1 for c, dim in zip(node, u.grid.dims)):
        raise BoundaryNode(f"node {node} has no centered jet")
    i = tuple(c - 1 for c in node)
    return tuple(a[i] for a in u.jet_field(1))


def admissible_subsolution_test(op: JetOp, G: Optional[FiberOracle], u, node) -> bool:
    """Discrete-jet admissible subsolution test at an interior node.

    The discrete jet (value, centered gradient, centered Hessian) must
    lie in G with op >= 0 there, both up to DEFAULT_TOL.
    """
    J = _node_jet(u, node)
    if G is not None and not members(G.values(*J)):
        return False
    return bool(op(*J) >= -DEFAULT_TOL)


def admissible_supersolution_test(op: JetOp, G: Optional[FiberOracle], u, node) -> bool:
    """Discrete-jet admissible supersolution test at an interior node.

    Either the discrete jet leaves G, or op <= 0 on it, both up to
    DEFAULT_TOL.
    """
    J = _node_jet(u, node)
    if G is not None and not members(G.values(*J)):
        return True
    return bool(op(*J) <= DEFAULT_TOL)
