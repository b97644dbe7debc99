"""Catalog of subequation fiber oracles.

Each oracle classifies a 2-jet against a closed constraint set F that is
positivity-monotone in the Hessian slot (and negativity-monotone in the
value slot when that slot is live). Classification goes through a single
scalar defining functional g with

    Interior  iff g(J) >  tol,
    Exterior  iff g(J) < -tol,
    Boundary  otherwise,

so every oracle documents its numerical slack through g's conditioning.
Membership means g >= 0 (the set is the closure of its interior).

Every fiber writes g once, as a form on stacks of jets,
(r[...], p[..., n], A[..., n, n]) -> g[...]. One jet goes through the
same form, so a whole grid of discrete jets is classified with one call
and the same bits as one jet at a time. Constant-coefficient cones are
FiberOracles. Variable-coefficient examples are VariableFiberMaps, whose
form also takes the points, (x[..., n], r, p, A) -> g[...], and which
carry their declared monotonicity cone and reference jet explicitly.
The Garding oracles (garding.py) and the fibers that jet operators induce
(canonical.induced_fiber) are stack forms too, so no fiber is evaluated
one jet at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import (
    BadAlpha,
    BadParameters,
    DirectionalityViolation,
    IndexOutOfRange,
    NegativeSource,
    OddDimension,
    ParseError,
    PhaseOutOfRange,
    ReferenceJetNotInterior,
    UnknownKey,
)
from .jets import (
    Jet2,
    SymMat,
    eigenvalues,
    heavy_tail_symmetric,
    random_jet,
    random_jets,
    stack_jets,
)

DEFAULT_TOL = 1e-8


class RegionKind(Enum):
    INTERIOR = "Interior"
    BOUNDARY = "Boundary"
    EXTERIOR = "Exterior"


@dataclass(frozen=True)
class Region:
    """Classification with a nonnegative margin (0 on the boundary).

    The margin is the defining functional's distance estimate in the jet
    norm, exact up to that functional's conditioning.
    """

    kind: RegionKind
    margin: float

    @property
    def is_member(self) -> bool:
        return self.kind is not RegionKind.EXTERIOR

    @property
    def is_interior(self) -> bool:
        return self.kind is RegionKind.INTERIOR


def classify_value(g: float, tol: float = DEFAULT_TOL) -> Region:
    if g > tol:
        return Region(RegionKind.INTERIOR, g)
    if g < -tol:
        return Region(RegionKind.EXTERIOR, -g)
    return Region(RegionKind.BOUNDARY, 0.0)


def members(g: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """classify_value(g, tol).is_member over an array: g < -tol is outside."""
    return ~(g < -tol)


def classify_values(g: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """classify_value over an array: (member, signed margin) arrays.

    A value is a member unless g < -tol; its signed margin is g outside
    the band |g| <= tol and 0 inside it.
    """
    member = members(g, tol)
    return member, np.where(member & ~(g > tol), 0.0, g)


class Arity(Enum):
    PURE_SECOND_ORDER = "PureSecondOrder"  # A only
    GRADIENT_FREE = "GradientFree"         # (r, A)
    FULL = "Full"                          # (r, p, A)


@dataclass(frozen=True)
class FiberOracle:
    """Membership classifier for a constraint fiber in jet space.

    `form` is the defining functional g on stacks of jets,
    (r[...], p[..., n], A[..., n, n]) -> g[...]; value, classify() and
    margins apply it to one jet. Oracles are immutable and
    classification is pure, so instances are safe to share between
    threads.

    `spectrum`, when set, is g as a function of the value, the gradient
    and the Hessian's ascending eigenvalues, f(r[...], p[..., n],
    lam[..., n]) -> g[...]. The cones that read A only through its
    eigenvalues have form f(r, p, eigenvalues(A)) (see spectral_oracle);
    the dual of such a cone has spectrum -f(-r, -p, -lam[..., ::-1]),
    equal to its form up to rounding. Since lambda(A + s*I) = lambda(A)
    + s, canonical_operator finds the root of every spectral fiber on
    f(r, p, lambda - t), and every search along a ray
    whose Hessian part is c*I probes f(r + t*r0, p + t*p0, lambda + t*c)
    (ray_probe), with one eigen-solve per jet instead of one per probe.
    """

    label: str
    n: int
    arity: Arity
    key: Optional[str]
    form: Callable
    spectrum: Optional[Callable] = None

    def value(self, jet) -> float:
        J = _as_jet(jet, self.n)
        return float(self.form(J.r, J.p, J.A.entries))

    def values(self, r, p, A) -> np.ndarray:
        """g over a stack of jets: r[...], p[..., n], A[..., n, n] -> g[...],
        bit for bit what value gives jet by jet."""
        r = np.asarray(r, dtype=float)
        p = np.asarray(p, dtype=float)
        A = np.asarray(A, dtype=float)
        return np.asarray(self.form(r, p, A), dtype=float)

    def classify(self, jet, tol: float = DEFAULT_TOL) -> Region:
        return classify_value(self.value(jet), tol)


def _as_jet(j, n: int) -> Jet2:
    if isinstance(j, Jet2):
        return j
    if isinstance(j, SymMat):
        return Jet2.from_matrix(j)
    a = np.asarray(j, dtype=float)
    if a.ndim == 2:
        return Jet2.from_matrix(SymMat(a))
    raise TypeError(f"cannot interpret {type(j)} as a jet in dimension {n}")


def jets_along(J: tuple, U: tuple, t) -> tuple:
    """The parts of J + t*U, with the float operations of Jet2 arithmetic,
    for stacks of jets J and directions U, each given as parts (r[...],
    ...) with leading axes that broadcast against t's, as (r, p[..., n],
    A[..., n, n]) or the spectral (r, p, lam[..., n]); t gets one trailing
    axis per axis a part of J has past r's."""
    t = np.asarray(t, dtype=float)
    lead = np.ndim(J[0])
    return tuple(a + t.reshape(t.shape + (1,) * (np.ndim(a) - lead)) * u for a, u in zip(J, U))


# Levels of each bracket's bisection tree evaluated per keeps call (and
# the doubling probe's entries per call, 2**depth - 1): one call costs
# about as much as a few rows, so deeper trees save calls but waste rows
# past the stop point. The walk table below has 2**(2**depth - 1) rows,
# so the walker serves depths up to 4. Measured with this walker and the
# eigenvalue route of shift_stack_to_boundary (four alternating 10 s runs
# per depth, seeds 7-10, 2-core x86 host), depth 3 against depth 4: verify
# batch_s 0.245 s against 0.255 s (median, -3.8 %, faster in 3 of 4
# pairs), grid-checks focus_s 0.051 s against 0.049 s (+2.8 %, slower in
# 3 of 4 pairs).
BISECTION_DEPTH = 4


def take_rows(a: np.ndarray, rows) -> np.ndarray:
    """a[rows] for rows that list some of a's row indices in increasing
    order, as the searches' live sets do: a itself, unindexed, when rows
    lists all of them."""
    return a if len(rows) == len(a) else a[rows]


def _check_max_steps(max_steps: Optional[int]) -> None:
    if max_steps is not None and max_steps < 1:
        raise ValueError(f"max_steps must be at least 1 (or None for no cap), got {max_steps}")


def crossing_brackets(keeps: Callable, ts, start, done: Callable,
                      max_steps: Optional[int] = None) -> list:
    """For each row of ts[rows, m], the bracket of its first crossing,
    bisected to the stop rule done, or None when keeps holds start[row] at
    every entry.

    keeps(live, t) gets the indices of the rows still searched, as an int
    array in increasing order, and their next ts as t[len(live), k]; it
    returns the keep flags of the same shape. Rows are probed
    2**BISECTION_DEPTH - 1 entries per call and none past its first
    entry k whose flag differs from start[row]. Row i's bracket holds
    the keep end first:

        (ts[i, k - 1], ts[i, k])   when start[i],
        (ts[i, k], ts[i, k - 1])   otherwise (the row starts on the flip side),

    with 0.0, the search's start, for ts[i, k - 1] when k == 0. Each
    bracket is then bisected by bisect_brackets(keeps, brackets, done,
    max_steps), which takes at least one step; max_steps below 1 raises
    ValueError.
    """
    _check_max_steps(max_steps)
    ts = np.asarray(ts, dtype=float)
    start = np.asarray(start, dtype=bool)
    width = 2 ** BISECTION_DEPTH - 1
    out = [None] * len(ts)
    live = np.arange(len(ts))
    for lo in range(0, ts.shape[1], width):
        if not live.size:
            break
        flips = np.asarray(keeps(live, take_rows(ts, live)[:, lo:lo + width])) != start[live, None]
        hit = flips.any(axis=1)
        rows = live[hit]
        k = lo + flips[hit].argmax(axis=1)
        t = ts[rows, k]
        prev = np.where(k > 0, ts[rows, k - 1], 0.0)
        on_keep = start[rows]
        for i, a, b in zip(rows.tolist(), np.where(on_keep, prev, t).tolist(),
                           np.where(on_keep, t, prev).tolist()):
            out[i] = (a, b)
        live = live[~hit]
    rows = [i for i, b in enumerate(out) if b is not None]
    index = np.array(rows, dtype=int)
    found = bisect_brackets(lambda live, t: keeps(index[live], t),
                            [out[i] for i in rows], done, max_steps)
    for i, b in zip(rows, found):
        out[i] = b
    return out


# a round's tree has points 0.._TREE_WIDTH, 0 the keep end of its bracket
_TREE_WIDTH = 2 ** BISECTION_DEPTH
# per level of the tree: its new midpoints, their left and their right ends
_TREE_LEVELS = tuple((slice(h, None, 2 * h), slice(None, -h, 2 * h), slice(2 * h, None, 2 * h))
                     for h in (_TREE_WIDTH >> k for k in range(1, BISECTION_DEPTH + 1)))
# the keep flag of inner point k + 1 is bit k of the tree's flag code
_FLAG_BITS = 1 << np.arange(_TREE_WIDTH - 1, dtype=np.int32)


def _walk_table() -> np.ndarray:
    """The bisection walk through a round's tree for every flag code: row
    code holds the tree positions of the keep ends after steps
    1..BISECTION_DEPTH, then those of the flip ends, read-only."""
    codes = np.arange(2 ** (_TREE_WIDTH - 1), dtype=np.int32)
    lo = np.zeros_like(codes)
    ends = np.empty((len(codes), 2 * BISECTION_DEPTH), dtype=np.int8)
    for step in range(BISECTION_DEPTH):
        half = _TREE_WIDTH >> (step + 1)
        # the step's midpoint, point lo + half, keeps when its flag is set
        lo += (codes >> (lo + half - 1) & 1) * half
        ends[:, step] = lo
        ends[:, BISECTION_DEPTH + step] = lo + half
    ends.setflags(write=False)
    return ends


_WALK = _walk_table()
# a step's keep and flip columns in a row of _WALK
_STEP_ENDS = np.array([0, BISECTION_DEPTH])
_LAST_STEP = np.arange(BISECTION_DEPTH) == BISECTION_DEPTH - 1


def bisect_brackets(keeps: Callable, brackets: list, done: Callable,
                    max_steps: Optional[int] = None) -> list:
    """Bisect many brackets at once, BISECTION_DEPTH levels per keeps call.

    Each bracket (a, b) has a on the keep side and b on the flip side.
    The result for each is the bracket this loop ends with:

        for _ in range(max_steps):          # forever when None
            mid = 0.5 * (a + b)
            if keep(mid): a = mid
            else: b = mid
            if done(a, b): break

    max_steps below 1 raises ValueError. Each round builds the next
    BISECTION_DEPTH levels of every unfinished bracket's bisection tree
    as one array, every midpoint 0.5 * (a + b) of its own parent ends.
    keeps(live, t) gets the indices of the unfinished brackets (an int
    array, increasing) and their trees' 2**d - 1 inner points in order
    from a to b, t[len(live), 2**d - 1]; it returns the keep flags of
    the same shape. The walk follows the flags to the bracket after each
    of the round's d steps, and done(a, b) gets them all at once as
    arrays a[len(live), d], b[len(live), d] (step j in column j); it
    returns their stop flags as a bool array of that shape. Each row
    ends at its first stop or at step max_steps, so the result is the
    loop's to the bit.
    """
    _check_max_steps(max_steps)
    depth = BISECTION_DEPTH
    out = np.array(brackets, dtype=float).reshape(len(brackets), 2)
    live = np.arange(len(out))
    cols = live[:, None]
    ends = out
    steps = 0
    while len(live):
        # one column per bracket: point 0 its keep end, the last its flip end
        tree = np.empty((_TREE_WIDTH + 1, len(live)))
        tree[::_TREE_WIDTH] = ends.T
        for mid, left, right in _TREE_LEVELS:
            tree[mid] = 0.5 * (tree[left] + tree[right])
        code = np.dot(keeps(live, tree[1:-1].T), _FLAG_BITS)
        rows = cols[:len(live)]
        ends = tree[_WALK[code], rows]
        stop = done(ends[:, :depth], ends[:, depth:])
        steps += depth
        if max_steps is not None and max_steps <= steps:
            stop = stop | (np.arange(steps - depth + 1, steps + 1) == max_steps)
        if not stop.any():
            ends = ends[:, depth - 1::depth]
            continue
        # each row's first stop, or its last step while it goes on
        last = (stop | _LAST_STEP).argmax(axis=1)
        ends = ends[rows, last[:, None] + _STEP_ENDS]
        out[live] = ends
        going = ~stop[rows[:, 0], last]
        live, ends = live[going], ends[going]
    return list(zip(*out.T.tolist()))


# ---------------------------------------------------------------------------
# Constant-coefficient cones
# ---------------------------------------------------------------------------

def check_index(family: str, name: str, value: int, top: int) -> None:
    """Raise IndexOutOfRange unless 1 <= value <= top."""
    if not 1 <= value <= top:
        raise IndexOutOfRange(f"{family} index {name}={value} outside 1..{top}")


def check_pucci(lam: float, Lam: float) -> None:
    """Raise BadParameters unless 0 < lam < Lam."""
    if not 0 < lam < Lam:
        raise BadParameters(f"need 0 < lam < Lam, got lam={lam}, Lam={Lam}")


def spectral_oracle(label: str, n: int, key: str, f: Callable,
                    arity: Arity = Arity.PURE_SECOND_ORDER) -> FiberOracle:
    """The cone {(r, p, A) : f(r, p, lambda(A)) >= 0} for a function f of
    the value, the gradient and the ascending eigenvalues, f(r[...],
    p[..., n], lam[..., n]) -> g[...]: its form is f(r, p, eigenvalues(A))
    and its spectrum f."""
    return FiberOracle(label, n, arity, key, lambda r, p, A: f(r, p, eigenvalues(A)), f)


def cone_P(n: int) -> FiberOracle:
    """Convexity cone {A : lambda_min(A) >= 0}."""
    return spectral_oracle("P (convexity): lambda_min(A) >= 0", n, "P",
                           lambda r, p, lam: lam[..., 0])


def cone_P_dual(n: int) -> FiberOracle:
    """Subaffine cone {A : lambda_max(A) >= 0}, the dual of P."""
    return spectral_oracle("P~ (subaffine): lambda_max(A) >= 0", n, "P~",
                           lambda r, p, lam: lam[..., -1])


def branch(n: int, k: int) -> FiberOracle:
    """k-th eigenvalue branch {A : lambda_k(A) >= 0}, 1-indexed."""
    check_index("branch", "k", k, n)
    return spectral_oracle(f"branch k={k}: lambda_{k}(A) >= 0", n, f"branch:k={k}",
                           lambda r, p, lam: lam[..., k - 1])


def cone_pfold(n: int, p: int) -> FiberOracle:
    """Truncated-trace cone {A : lambda_1 + ... + lambda_p >= 0}.

    The functional is the smallest p-fold eigenvalue sum, which equals
    the minimum over all p-subsets of eigenvalue sums.
    """
    check_index("pfold", "p", p, n)
    return spectral_oracle(f"pfold p={p}: lambda_1(A)+...+lambda_{p}(A) >= 0", n,
                           f"pfold:p={p}", lambda r, q, lam: lam[..., :p].sum(axis=-1))


def elementary_symmetric(lam: np.ndarray, k: int):
    """sigma_k of the entries of lam along its last axis, by the
    generating-polynomial recurrence."""
    lam = np.asarray(lam, dtype=float)
    e = np.zeros(lam.shape[:-1] + (k + 1,))
    e[..., 0] = 1.0
    for i in range(lam.shape[-1]):
        for j in range(k, 0, -1):
            e[..., j] += lam[..., i] * e[..., j - 1]
    return e[..., k]


def cone_sigma_k(n: int, k: int) -> FiberOracle:
    """Closed Garding cone of the k-Hessian: sigma_j(lambda(A)) >= 0, j <= k."""
    check_index("sigma", "k", k, n)
    return spectral_oracle(
        f"sigma k={k}: sigma_j(lambda(A)) >= 0 for j=1..{k}", n, f"sigma:k={k}",
        lambda r, p, lam: np.min([elementary_symmetric(lam, j) for j in range(1, k + 1)], axis=0))


def cone_pucci(n: int, lam: float, Lam: float) -> FiberOracle:
    """Pucci cone {A : lam * tr A+ + Lam * tr A- >= 0}, 0 < lam < Lam."""
    check_pucci(lam, Lam)

    def f(r, p, ev):
        return (lam * np.maximum(ev, 0.0).sum(axis=-1)
                + Lam * np.minimum(ev, 0.0).sum(axis=-1))

    return spectral_oracle(f"pucci ({lam},{Lam}): {lam}*tr A+ + {Lam}*tr A- >= 0", n,
                           f"pucci:{_fmt(lam)},{_fmt(Lam)}", f)


def cone_quasiconvex(n: int, shift: float) -> FiberOracle:
    """Quasiconvexity cone P_shift = {A : A + shift*I >= 0}, shift >= 0."""
    if shift < 0:
        raise BadParameters(f"quasiconvexity shift must be >= 0, got {shift}")
    return spectral_oracle(f"quasiconvex shift={shift}: lambda_min(A) + {shift} >= 0", n,
                           f"quasiconvex:{_fmt(shift)}", lambda r, p, lam: lam[..., 0] + shift)


def complex_structure(two_n: int) -> np.ndarray:
    """Standard complex structure on R^{2n}: (x, y) -> (-y, x)."""
    n = two_n // 2
    J = np.zeros((two_n, two_n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def skew_hermitian_mu(A) -> np.ndarray:
    """Nonnegative eigenvalues mu_1..mu_n of the anti-commuting part of A,
    a matrix or a stack A[..., 2n, 2n], along the last axis.

    A splits into a part commuting with the complex structure and a part
    anti-commuting with it; the latter has spectrum {+-mu_j}.
    """
    a = A.entries if isinstance(A, SymMat) else np.asarray(A, dtype=float)
    two_n = a.shape[-1]
    Jc = complex_structure(two_n)
    # spectrum is symmetric {+-mu}; the top n entries are the mu_j >= 0
    return eigenvalues(0.5 * (a + Jc @ a @ Jc))[..., two_n // 2:]


def cone_lagrangian(two_n: int) -> FiberOracle:
    """Lagrangian plurisubharmonicity cone on S(2n).

    Membership: tr(A)/2 - mu_1 - ... - mu_n >= 0, where +-mu_j are the
    eigenvalues of the part of A anti-commuting with the standard
    complex structure. Equals the polar cone of the Lagrangian n-planes.
    """
    if two_n % 2 != 0:
        raise OddDimension(f"Lagrangian cone needs even ambient dimension, got {two_n}")

    def g(r, p, A):
        return (0.5 * np.trace(A, axis1=-2, axis2=-1)
                - np.sum(skew_hermitian_mu(A), axis=-1))

    return FiberOracle("lagrangian: tr(A)/2 - mu_1 - ... - mu_n >= 0", two_n,
                       Arity.PURE_SECOND_ORDER, "lagrangian", g)


def cone_Q(n: int) -> FiberOracle:
    """Gradient-free cone Q = {(r, A) : r <= 0 and A >= 0}."""
    return spectral_oracle("Q: r <= 0 and A >= 0", n, "Q",
                           lambda r, p, lam: np.minimum(-r, lam[..., 0]), Arity.GRADIENT_FREE)


def cone_Q_dual(n: int) -> FiberOracle:
    """Dual of Q: {(r, A) : r <= 0 or lambda_max(A) >= 0}."""
    return spectral_oracle("Q~: r <= 0 or lambda_max(A) >= 0", n, "Q~",
                           lambda r, p, lam: np.maximum(-r, lam[..., -1]), Arity.GRADIENT_FREE)


# ---------------------------------------------------------------------------
# Monotonicity cones
# ---------------------------------------------------------------------------

class ConeKind(Enum):
    FULL = "full"
    HALFSPACE = "half"
    ORTHANT = "orth"


@dataclass(frozen=True)
class DirectionalCone:
    """Closed convex gradient cone with nonempty interior.

    full: all of R^n; half: {<p, d> >= 0}; orth: {p_j >= 0, j in axes}.
    """

    kind: ConeKind
    direction: Optional[np.ndarray] = None   # halfspace normal, unit
    axes: Optional[tuple] = None             # orthant coordinate set, 0-based

    @staticmethod
    def full() -> "DirectionalCone":
        return DirectionalCone(ConeKind.FULL)

    @staticmethod
    def halfspace(d) -> "DirectionalCone":
        d = np.asarray(d, dtype=float)
        nrm = np.linalg.norm(d)
        if nrm == 0:
            raise BadParameters("halfspace direction must be nonzero")
        # a computed unit vector keeps its digits, so that the key a cone
        # prints rebuilds the same cone
        d = d / nrm if abs(nrm - 1.0) > 1e-12 else d.copy()
        d.flags.writeable = False
        return DirectionalCone(ConeKind.HALFSPACE, direction=d)

    @staticmethod
    def orthant(axes) -> "DirectionalCone":
        return DirectionalCone(ConeKind.ORTHANT, axes=tuple(sorted(set(int(a) for a in axes))))

    def functional(self, p: np.ndarray):
        """Signed slack of p[..., n] in the cone (>= 0 inside, jet-norm scale)."""
        if self.kind is ConeKind.FULL:
            return math.inf
        if self.kind is ConeKind.HALFSPACE:
            return np.sum(p * self.direction, axis=-1)
        return np.min(p[..., list(self.axes)], axis=-1)

    def interior_direction(self, n: int) -> np.ndarray:
        """A unit vector strictly inside the cone (origin for full space)."""
        if self.kind is ConeKind.FULL:
            return np.zeros(n)
        if self.kind is ConeKind.HALFSPACE:
            return self.direction.copy()
        v = np.zeros(n)
        for a in self.axes:
            v[a] = 1.0
        return v / np.linalg.norm(v)


# The bound on MonotonicityCone's gamma. interior_jet's r-slot margin is
# (gamma*|p| + 1) - gamma*|p| with |p| = 1 or 0: at least 0.5 below 2**52,
# but rounded to 0 or 2 from 2**53 on, where the jet lands on M's boundary
MAX_GAMMA = 2.0 ** 52
# The bound on MonotonicityCone's R. interior_jet's A-slot margin is
# (1 + |p|/R) - |p|/R with |p| = 1 or 0: at least 0.5 while |p|/R <= 2**52,
# but rounded to 0 once |p|/R passes 2**53 (R = 1e-16 and below), where the
# jet lands on M's boundary
MIN_R = 2.0 ** -52


@dataclass(frozen=True)
class MonotonicityCone:
    """Fundamental-family cone M(gamma, D, R).

    Membership: r <= -gamma*|p|, p in D, A >= (|p|/R) I. R = +inf (a
    structural value, checked with isinf) relaxes the last condition to
    A >= 0. gamma must lie in [0, MAX_GAMMA), and R be at least MIN_R.
    """

    gamma: float
    D: DirectionalCone
    R: float

    def __post_init__(self):
        if not 0.0 <= self.gamma < MAX_GAMMA:
            raise BadParameters(f"gamma must be >= 0 and below 2**52, got {self.gamma}")
        if not self.R >= MIN_R:
            raise BadParameters(f"R must be at least 2**-52 or inf, got {self.R}")

    def spectrum(self, r, p, lam):
        """Defining functional on the ascending Hessian eigenvalues, in
        array form (see FiberOracle.spectrum)."""
        pn = np.sqrt(np.sum(p * p, axis=-1))
        lam1 = lam[..., 0]
        g3 = lam1 if math.isinf(self.R) else lam1 - pn / self.R
        return np.minimum(np.minimum(-r - self.gamma * pn, self.D.functional(p)), g3)

    def interior_jet(self, n: int) -> Jet2:
        """Canonical jet strictly inside the cone (margin about 1)."""
        p = self.D.interior_direction(n)
        pn = float(np.linalg.norm(p))
        a = 1.0 + (0.0 if math.isinf(self.R) else pn / self.R)
        r = -(self.gamma * pn + 1.0)
        return Jet2(r, p, SymMat(a * np.eye(n)))

    def key(self) -> str:
        return f"M:gamma={_fmt(self.gamma)},D={_fmt_cone(self.D)},R={_fmt_R(self.R)}"


def cone_M(M: MonotonicityCone, n: int) -> FiberOracle:
    return spectral_oracle(f"M(gamma={M.gamma}, D={_fmt_cone(M.D)}, R={_fmt_R(M.R)}): "
                           "r <= -gamma|p|, p in D, A >= (|p|/R) I",
                           n, M.key(), M.spectrum, Arity.FULL)


def cone_M0(n: int) -> FiberOracle:
    """Minimal monotonicity cone N x {0} x P (empty interior)."""

    def f(r, p, lam):
        pn = np.sqrt(np.sum(p * p, axis=-1))
        return np.minimum(np.minimum(-r, -pn), lam[..., 0])

    return spectral_oracle("M0: r <= 0, p = 0, A >= 0 (empty interior)", n, "M0", f, Arity.FULL)


def reduced_cone(M: MonotonicityCone, n: int, arity: Arity) -> FiberOracle:
    """Reduction of M to a silent-variable arity (P-like or Q-like)."""
    if arity is Arity.PURE_SECOND_ORDER:
        return cone_P(n)
    if arity is Arity.GRADIENT_FREE:
        return cone_Q(n)
    return cone_M(M, n)


# ---------------------------------------------------------------------------
# Comparison-failure example (gradient slot is live, value slot silent)
# ---------------------------------------------------------------------------

def _dot_self(v: np.ndarray) -> np.ndarray:
    """v @ v for each vector of a stack v[..., n], with the arithmetic of
    the dot product of one vector."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def failure_matrix(p: np.ndarray, A: np.ndarray, alpha: float) -> np.ndarray:
    """A + |p|^((alpha-1)/n) (P_perp + alpha P_p), with the p=0 limit A,
    on stacks p[..., n] and A[..., n, n]."""
    n = A.shape[-1]
    pp = _dot_self(p)
    zero = (pp == 0.0)[..., None, None]
    Pp = p[..., :, None] * p[..., None, :] / np.where(zero, 1.0, pp[..., None, None])
    w = np.sqrt(pp)[..., None, None] ** ((alpha - 1.0) / n)
    return np.where(zero, A, A + w * (np.eye(n) - Pp + alpha * Pp))


def fiber_failure_example(n: int, alpha: float, which: str = "min") -> FiberOracle:
    """Operators whose maximal monotonicity cone has empty interior.

    Classifies by the sign of lambda_min (or lambda_max) of the
    gradient-coupled matrix above. The value slot is silent.
    """
    if not alpha > 1:
        raise BadAlpha(f"alpha must be > 1, got {alpha}")
    if which not in ("min", "max"):
        raise BadParameters(f"which must be 'min' or 'max', got {which!r}")
    idx = 0 if which == "min" else -1

    return FiberOracle(
        f"failure alpha={alpha} ({which}): lambda_{which} of gradient-coupled matrix >= 0",
        n, Arity.FULL, f"failure:alpha={_fmt(alpha)},which={which}",
        lambda r, p, A: eigenvalues(failure_matrix(p, A, alpha))[..., idx])


# ---------------------------------------------------------------------------
# Variable-coefficient fiber maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned box, the domain of a variable fiber map."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape or np.any(hi <= lo):
            raise BadParameters("box needs lo < hi componentwise")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))


@dataclass(frozen=True)
class VariableFiberMap:
    """Fiber oracle per point of a box, with declared monotonicity data.

    `form` is the defining functional on stacks of points and jets,
    (x[..., n], r[...], p[..., n], A[..., n, n]) -> g[...], where x
    broadcasts against the jets; it raises NegativeSource or
    PhaseOutOfRange when the data fails at a point of x. `describe_at(x)`
    labels the fiber at one point and raises the same errors. The
    reference jet must lie in the interior of the declared cone; the
    choice is free, so it is pinned explicitly rather than inferred.
    Evaluators must be re-entrant.
    """

    label: str
    domain: Box
    form: Callable
    describe_at: Callable[[np.ndarray], str]
    monotonicity: MonotonicityCone
    reference_jet: Jet2
    arity: Arity
    key: Optional[str] = None

    @property
    def n(self) -> int:
        return self.reference_jet.n

    def fiber_at(self, x) -> FiberOracle:
        """The fiber at the point x: the form with x fixed."""
        x = np.asarray(x, dtype=float)
        form = self.form
        return FiberOracle(self.describe_at(x), self.n, self.arity, None,
                           lambda r, p, A: form(x, r, p, A))


def _checked_field(field, x: np.ndarray, ok: Callable, error, name: str, rule: str):
    """field(x) on a point stack x[..., n]; error, naming the first point
    where ok fails, when it fails anywhere."""
    v = np.asarray(field(x), dtype=float)
    bad = np.broadcast_to(~ok(v), x.shape[:-1])
    if np.any(bad):
        i = np.unravel_index(np.argmax(bad), bad.shape)
        raise error(f"{name}({x[i]}) = {np.broadcast_to(v, bad.shape)[i]} {rule}")
    return v


def _source(f_field, x: np.ndarray):
    """f(x) on a point stack; NegativeSource where f < 0."""
    return _checked_field(f_field, x, lambda f: ~(f < 0), NegativeSource, "f", "< 0")


def _point(x: np.ndarray) -> list:
    return np.round(x, 6).tolist()


def fiber_perturbed_MA(
    domain: Box,
    M_field: Callable[[np.ndarray], np.ndarray],
    f_field: Callable[[np.ndarray], np.ndarray],
    n: Optional[int] = None,
) -> VariableFiberMap:
    """Perturbed Monge-Ampere fibers.

    F_x = {A : A + M(x) >= 0 and det(A + M(x)) - f(x) >= 0}, f >= 0.
    M_field maps points x[..., n] to symmetric matrices [..., n, n] and
    f_field to values [...].
    """
    n = n if n is not None else np.shape(M_field(domain.center))[-1]

    def form(x, r, p, A):
        fx = _source(f_field, x)
        B = A + M_field(x)
        return np.minimum(eigenvalues(B)[..., 0], np.linalg.det(B) - fx)

    def describe_at(x):
        _source(f_field, x)
        return f"perturbed-MA fiber at {_point(x)}"

    mono = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
    return VariableFiberMap(
        label="perturbed Monge-Ampere: A + M(x) >= 0 and det(A + M(x)) >= f(x)",
        domain=domain,
        form=form,
        describe_at=describe_at,
        monotonicity=mono,
        reference_jet=Jet2.from_matrix(SymMat.identity(n)),
        arity=Arity.PURE_SECOND_ORDER,
        key="pma",
    )


def phase_intervals(n: int) -> np.ndarray:
    """Special phase values (n-2k)*pi/2, k = 1..n-1, descending."""
    return np.array([(n - 2 * k) * np.pi / 2 for k in range(1, n)])


def phase_interval_index(n: int, theta: float) -> int:
    """1-based index k of the open interval containing theta.

    Interval k sits between the special values theta_k and theta_{k-1}
    (with theta_0 = n*pi/2 and theta_n = -n*pi/2); k = 1 is the top,
    convex-adjacent interval.
    """
    cuts = phase_intervals(n)
    k = 1
    for c in cuts:
        if theta < c:
            k += 1
    return k


# distance from a special phase value within which a fiber label flags it
SPECIAL_PHASE_TOL = 1e-9


def fiber_special_lagrangian(
    domain: Box,
    theta_field: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> VariableFiberMap:
    """Gradient-of-graph phase fibers {A : sum_k arctan(lambda_k(A)) >= theta(x)}.

    theta_field maps points x[..., n] to phases [...] in
    (-n*pi/2, n*pi/2). The fiber label records which phase interval
    contains theta(x) and flags special values (within SPECIAL_PHASE_TOL).
    """
    bound = n * np.pi / 2

    def phase(x):
        return _checked_field(theta_field, x, lambda th: (-bound < th) & (th < bound),
                              PhaseOutOfRange, "theta", f"outside (-{bound}, {bound})")

    def form(x, r, p, A):
        return np.sum(np.arctan(eigenvalues(A)), axis=-1) - phase(x)

    def describe_at(x):
        th = float(phase(x))
        special = bool(np.any(np.abs(phase_intervals(n) - th) <= SPECIAL_PHASE_TOL))
        tag = f"interval I_{phase_interval_index(n, th)}" + (" [special value]" if special else "")
        return f"special-Lagrangian fiber at {_point(x)}, theta={th:.6g}, {tag}"

    mono = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
    return VariableFiberMap(
        label="special Lagrangian: sum arctan(lambda_k(A)) >= theta(x)",
        domain=domain,
        form=form,
        describe_at=describe_at,
        monotonicity=mono,
        reference_jet=Jet2.from_matrix(SymMat.identity(n)),
        arity=Arity.PURE_SECOND_ORDER,
        key="slag",
    )


def fiber_affine_sphere(
    domain: Box,
    f_field: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> VariableFiberMap:
    """Gradient-free fibers {(r, A) in N x P : (-r)^(n+2) det A >= f(x)}.

    f_field maps points x[..., n] to values [...].
    """

    def form(x, r, p, A):
        fx = _source(f_field, x)
        head = np.minimum(-r, eigenvalues(A)[..., 0])
        return np.minimum(head, np.maximum(-r, 0.0) ** (n + 2)
                          * np.maximum(np.linalg.det(A), 0.0) - fx)

    def describe_at(x):
        _source(f_field, x)
        return f"affine-sphere fiber at {_point(x)}"

    mono = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
    return VariableFiberMap(
        label="hyperbolic affine sphere: (-r)^(n+2) det A >= f(x) on N x P",
        domain=domain,
        form=form,
        describe_at=describe_at,
        monotonicity=mono,
        reference_jet=Jet2(-1.0, np.zeros(n), SymMat.identity(n)),
        arity=Arity.GRADIENT_FREE,
        key="affine-sphere",
    )


def check_directionality(
    g: Callable[[np.ndarray], np.ndarray],
    D: DirectionalCone,
    n: int,
    samples: int = 512,
):
    """Sampled check of g(p+q) >= g(p) for p, q in D, with g a form on
    stacks of gradients, p[..., n] -> g[...]; returns the first failing
    pair (p, q) in sample order, or None.

    The whole sample is drawn first: one standard_normal block of every
    sample's p and then q, then one uniform block of their scales in
    [0.1, 3). Each vector is reflected into D (across a halfspace's
    boundary, or |v_j| on an orthant's axes), and g runs once on the p
    and once on the p + q. A pair fails when g(p+q) < g(p) - 1e-10; the
    seed is 7.
    """
    rng = np.random.default_rng(7)
    v = rng.standard_normal((samples, 2, n)) * rng.uniform(0.1, 3.0, (samples, 2, 1))
    if D.kind is ConeKind.HALFSPACE:
        s = D.functional(v)[..., None]
        v = np.where(s < 0, v - 2 * s * D.direction, v)
    elif D.kind is ConeKind.ORTHANT:
        v[..., list(D.axes)] = np.abs(v[..., list(D.axes)])
    p, q = v[:, 0], v[:, 1]
    bad = np.flatnonzero(g(p + q) < g(p) - 1e-10)
    return (p[bad[0]], q[bad[0]]) if bad.size else None


def fiber_optimal_transport(
    domain: Box,
    g_density: Callable[[np.ndarray], np.ndarray],
    D: DirectionalCone,
    f_field: Callable[[np.ndarray], np.ndarray],
    n: int,
) -> VariableFiberMap:
    """Gradient-coupled fibers {(r,p,A) : p in D, A >= 0, g(p) det A >= f(x)}.

    g_density maps gradients p[..., n] and f_field points x[..., n] to
    values [...], as forms on stacks. The target density g must satisfy
    the directionality inequality g(p+q) >= g(p) on D x D; the sampled
    check (check_directionality at its defaults, one g call on each of
    its two stacks) runs at construction and raises
    DirectionalityViolation with a witness pair when it fails.
    """
    witness = check_directionality(g_density, D, n)
    if witness is not None:
        p, q = witness
        raise DirectionalityViolation(
            f"g(p+q) < g(p) at p={np.round(p, 6).tolist()}, q={np.round(q, 6).tolist()}",
            witness=witness,
        )

    def form(x, r, p, A):
        fx = _source(f_field, x)
        head = np.minimum(D.functional(p), eigenvalues(A)[..., 0])
        return np.minimum(head, g_density(p) * np.maximum(np.linalg.det(A), 0.0) - fx)

    def describe_at(x):
        _source(f_field, x)
        return f"optimal-transport fiber at {_point(x)}"

    mono = MonotonicityCone(0.0, D, math.inf)
    return VariableFiberMap(
        label="optimal transport: p in D, A >= 0, g(p) det A >= f(x)",
        domain=domain,
        form=form,
        describe_at=describe_at,
        monotonicity=mono,
        reference_jet=Jet2(
            -1.0,
            D.interior_direction(n) if D.kind is not ConeKind.FULL else np.zeros(n),
            SymMat.identity(n),
        ),
        arity=Arity.FULL,
        key="ot",
    )


# ---------------------------------------------------------------------------
# Fiberegularity probe
# ---------------------------------------------------------------------------

@dataclass
class FiberegReport:
    """Outcome of the sampled uniform-inclusion probe Theta(x) + eta*J0 in Theta(y).

    delta is the largest sampled radius below which every tested pair
    passed (the first violating distance, or the domain diameter when
    none violate); resolution is the smallest tested pair distance. The
    probe passes when delta strictly exceeds the resolution: violations
    confined to larger distances are consistent with fiber continuity,
    a witness at the sample resolution is not.
    """

    eta: float
    delta: float
    resolution: float
    diameter: float
    pairs_checked: int
    jets_checked: int
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.witness is None or self.delta > self.resolution * (1 + 1e-9)


# shift_stack_to_boundary's membership tolerance along the ray
SHIFT_TOL = 1e-9
# how far past the boundary the shifted jets of the sampled checks move
SHIFT_MARGIN = 1e-6
# J + t*J0 keeps at most half of J's digits once |t*J0| passes |J| times
# this: shift_stack_to_boundary reports no crossing there. Along a ray on
# which the functional tends to a constant, its rounding, about
# eps*|t*J0|, outgrows the functional's own size long before J + t*J0 has
# lost all of J's digits (at |J|/eps), and the sign flips it places differ
# between two evaluations of the same functional
ROUNDING_REACH = 1.0 / math.sqrt(np.finfo(float).eps)


def fiber_values(F, points: Optional[list] = None) -> Callable:
    """values(rows, r, p, A): the functional of F on a stack r[len(rows),
    ...], p, A, as the lockstep searches call it. Every row lies in the
    one fiber of a FiberOracle; for a VariableFiberMap, row i lies in the
    fiber at points[rows[i]]."""
    if points is None:
        return lambda rows, r, p, A: F.values(r, p, A)
    x = np.array(points, dtype=float).reshape(-1, F.n)

    def values(rows, r, p, A):
        at = x[rows].reshape((len(rows),) + (1,) * (np.ndim(r) - 1) + (F.n,))
        return np.asarray(F.form(at, r, p, A), dtype=float)

    return values


def shift_stack_to_boundary(F, J: tuple, J0: Jet2, margins, tol: float = SHIFT_TOL,
                            max_expand: int = 60, points: Optional[list] = None) -> tuple:
    """Move each jet of the stack J = (r[N], p[N, n], A[N, n, n]) along J0
    onto the membership boundary, then margins[i] past it, all jets in one
    lockstep search: row i becomes J_i + (t_in + margins[i]) * J0, with
    the float operations of Jet2 arithmetic. Membership is monotone along
    J0 when J0 is interior to a cone the fiber is monotone for, so
    bisection applies.

    F is a FiberOracle, every row in its one fiber, or a VariableFiberMap
    with row i in the fiber at points[i] (see fiber_values). t_in is the
    member end of row i's crossing along J_i + t*J0: doubled outward
    (t = +-1, +-3, +-7, ..., outward from a member, inward from a jet
    outside) for max_expand steps, then bisected until the bracket is
    narrower than tol (at most 60 steps). A row has no crossing when none
    is bracketed, or when |t_in*J0| passes ROUNDING_REACH * max(1, |J_i|),
    norms taken as max(|r|, |p|_2, |A|_F). The probes go through
    ray_probe, so a spectral fiber along a ray whose Hessian is exactly
    c*I solves each jet's eigenvalues once instead of once per probe.

    Returns the rows with a crossing, ascending, and their moved jets as
    stacks; whether a moved jet is a member is for the caller to test.
    """
    if not len(J[0]):
        return np.array([], dtype=int), J
    reach = ROUNDING_REACH * np.maximum(1.0, _jet_sizes(*J))
    step = float(_jet_sizes(J0.r, J0.p, J0.A.entries))
    g = ray_probe(F, J, J0, points)
    start_in = members(g(np.arange(len(J[0]))), tol)
    ts = _doubling_steps(max_expand) * np.where(start_in, -1.0, 1.0)[:, None]
    brackets = crossing_brackets(lambda rows, t: members(g(rows, t), tol), ts, start_in,
                                 lambda a, b: abs(a - b) < tol, max_steps=60)
    t_in = np.array([math.nan if b is None or abs(b[0]) * step > cap else b[0]
                     for b, cap in zip(brackets, reach.tolist())])
    rows = np.flatnonzero(~np.isnan(t_in))
    s = t_in[rows] + np.asarray(margins, dtype=float)[rows]
    return rows, jets_along(tuple(take_rows(a, rows) for a in J), (J0.r, J0.p, J0.A.entries), s)


def into_fibers(F, J: tuple, J0: Jet2, margins, points: Optional[np.ndarray] = None) -> tuple:
    """The rows of the stack J whose jets lie in their fibers (for a
    variable fiber map, the fiber at points[i]) or move into them, in
    sample order, and those jets as stacks.

    A member under DEFAULT_TOL stays as drawn. A jet outside moves along
    J0 to the fiber's boundary and margins[i] past it
    (shift_stack_to_boundary), and is dropped when it has no crossing or
    its moved jet is not a member. One values call classifies the stack,
    one lockstep search moves the jets outside and one more values call
    tests the moved jets.
    """
    inside = members(fiber_values(F, points)(np.arange(len(J[0])), *J))
    out = np.flatnonzero(~inside)
    at = None if points is None else points[out]
    rows, moved = shift_stack_to_boundary(F, tuple(a[out] for a in J), J0, margins[out],
                                          points=at)
    if rows.size:
        kept = members(fiber_values(F, at)(rows, *moved))
        rows, moved = rows[kept], tuple(a[kept] for a in moved)
    keep = np.concatenate((np.flatnonzero(inside), out[rows]))
    order = np.argsort(keep, kind="stable")
    return keep[order], tuple(np.concatenate((a[inside], m))[order] for a, m in zip(J, moved))


@functools.lru_cache(maxsize=8)
def _doubling_steps(count: int) -> np.ndarray:
    """The doubling bracket t += step; step *= 2 from t = 0, step = 1:
    t = 1, 3, 7, ..., count entries, read-only."""
    steps, t, step = [], 0.0, 1.0
    for _ in range(count):
        t += step
        steps.append(t)
        step *= 2.0
    out = np.array(steps)
    out.setflags(write=False)
    return out


def _scalar_hessian(J0: Jet2) -> Optional[float]:
    """c when the Hessian of J0 is exactly c*I, else None."""
    A = J0.A.entries
    c = float(A[0, 0])
    return c if np.array_equal(A, c * np.eye(J0.n)) else None


def ray_probe(F, J: tuple, U: Jet2, points: Optional[list] = None) -> Callable:
    """g(rows, t): F's functional on J_i + t*U, g[len(rows), k], for the
    rows of the stack J = (r[N], p[N, n], A[N, n, n]) that rows lists in
    increasing order and t[len(rows), k]; g(rows) is the functional on
    the J_i themselves. F is a FiberOracle or, with points, a
    VariableFiberMap (see fiber_values).

    When F has a spectrum f and U's Hessian is exactly c*I, each jet's
    eigenvalues lambda are solved once, here, and g is f(r + t*r0,
    p + t*p0, lambda + t*c), since lambda(A + t*c*I) = lambda(A) + t*c:
    the form on J_i + t*U up to the rounding of the eigen-solves.
    Every other probe is the form along the ray, with the float
    operations of Jet2 arithmetic.
    """
    f = None if points is not None else F.spectrum
    c = None if f is None else _scalar_hessian(U)
    if c is None:
        values, V = fiber_values(F, points), (U.r, U.p, U.A.entries)
    else:
        J = (J[0], J[1], eigenvalues(J[2]))
        values, V = (lambda rows, r, p, ev: f(r, p, ev)), (U.r, U.p, c)

    def probe(rows, t=None):
        at = tuple(take_rows(a, rows) for a in J)
        if t is not None:
            at = jets_along(tuple(a[:, None] for a in at), V, t)
        return values(rows, *at)

    return probe


def _jet_sizes(r, p, A):
    """max(|r|, |p|_2, |A|_F) of each jet of a stack (r[...], p[..., n],
    A[..., n, n]): within a factor sqrt(n) of the jet norm, without an
    eigen-solve."""
    return np.maximum(np.abs(r), np.maximum(np.linalg.norm(p, axis=-1),
                                            np.linalg.norm(A, axis=(-2, -1))))


def _fiber_jet_samples(
    theta: VariableFiberMap,
    x: np.ndarray,
    J0: Jet2,
    rng: np.random.Generator,
    count: int,
) -> tuple:
    """Jets in Theta(x) near its boundary, with heavy-tailed Hessians, as
    stacks (r, p, A): count draws, each moved along J0 to the boundary of
    the fiber Theta.fiber_at(x) and SHIFT_MARGIN past it (all in one
    lockstep search) and kept when the moved jet is a member."""
    n = theta.n
    bases = []
    for i in range(count):
        if i % 2 == 0:
            bases.append(Jet2(
                rng.standard_normal(),
                rng.standard_normal(n),
                heavy_tail_symmetric(rng, n),
            ))
        else:
            bases.append(random_jet(rng, n, scale=1.5))
    F = theta.fiber_at(x)
    _, moved = shift_stack_to_boundary(F, stack_jets(bases, n), J0, [SHIFT_MARGIN] * count)
    kept = members(F.values(*moved))
    return tuple(a[kept] for a in moved)


def _anchor_pairs(axes: list, anchor_idx: list) -> tuple:
    """The pairs (anchor, neighbor) of grid indices on the offset ladder,
    nearest first, and their distances dists[P].

    The ladder holds the unit axis steps, the unit diagonal, then doubling
    axis and diagonal steps out to the grid size. Pairs at equal distance
    keep their order of generation: anchors in turn, offsets up the ladder.
    """
    d, side = len(axes), len(axes[0])
    offsets = [tuple(int(j == k) for j in range(d)) for k in range(d)] + [(1,) * d]
    step = 2
    while step < side:
        offsets += [(step,) + (0,) * (d - 1), (step,) * d]
        step *= 2
    pairs = []
    for ix in anchor_idx:
        for off in offsets:
            jy = tuple(i + o for i, o in zip(ix, off))
            if max(jy) < side:
                pairs.append((ix, jy))
    ends = np.array(pairs, dtype=int).reshape(-1, 2, d)
    diff = np.stack([axes[k][ends[:, 0, k]] - axes[k][ends[:, 1, k]] for k in range(d)], axis=-1)
    # diff.dot(diff) row by row, the arithmetic of np.linalg.norm(diff)
    dists = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    order = np.argsort(dists, kind="stable")
    return [pairs[i] for i in order], dists[order]


def check_fiberegularity(
    theta: VariableFiberMap,
    M: MonotonicityCone,
    eta: float = 0.1,
    grid_per_side: int = 16,
    anchors: int = 120,
    jets_per_point: int = 12,
    seed: int = 11,
) -> FiberegReport:
    """Sampled probe of the uniform fiber-continuity inclusion.

    Tests Theta(x) + eta*J0 subset-of Theta(y) with jets drawn near the
    boundary of Theta(x). Anchor points pair with neighbors on a ladder
    of grid distances (1, 2, 4, ... steps plus the diagonals), so the
    smallest violating distance is located relative to the sample
    resolution; see FiberegReport for the pass semantics. Each pair
    takes one form call at y on the anchor's stacked jets plus eta*J0;
    the jets count as checked up to the first one outside Theta(y).
    Membership is judged under DEFAULT_TOL, over theta's whole domain.
    """
    omega = theta.domain
    J0 = theta.reference_jet
    # interiority is judged in the reduced jet space matching the arity
    cone = reduced_cone(M, theta.n, theta.arity)
    if not cone.classify(J0).is_interior:
        raise ReferenceJetNotInterior(
            "reference jet is not interior to the declared monotonicity cone"
        )
    rng = np.random.default_rng(seed)
    d = omega.dim
    axes = [np.linspace(omega.lo[i], omega.hi[i], grid_per_side) for i in range(d)]
    idx_all = list(np.ndindex(*(grid_per_side,) * d))
    if len(idx_all) > anchors:
        sel = rng.choice(len(idx_all), size=anchors, replace=False)
        anchor_idx = [idx_all[s] for s in sel]
    else:
        anchor_idx = idx_all

    def point(ix):
        return np.array([axes[k][ix[k]] for k in range(d)])

    pairs, dists = _anchor_pairs(axes, anchor_idx)
    shifted = eta * J0
    jet_cache: dict = {}

    def jets_at(ix):
        # the anchor's jets, and the same stacks shifted by eta*J0
        if ix not in jet_cache:
            r, p, A = jets = _fiber_jet_samples(theta, point(ix), J0, rng, jets_per_point)
            jet_cache[ix] = jets, (r + shifted.r, p + shifted.p, A + shifted.A.entries)
        return jet_cache[ix]

    delta = omega.diameter
    resolution = math.inf
    witness = None
    jets_checked = 0
    for (ix, jy), dist in zip(pairs, dists.tolist()):
        x, y = point(ix), point(jy)
        if witness is not None and dist >= delta:
            break
        resolution = min(resolution, dist)
        jets, moved = jets_at(ix)
        if not len(jets[0]):
            continue
        outside = np.flatnonzero(~members(np.asarray(theta.form(y, *moved))))
        jets_checked += int(outside[0]) + 1 if outside.size else len(jets[0])
        if outside.size and dist < delta:
            delta = dist
            witness = {
                "x": x.tolist(),
                "y": y.tolist(),
                "distance": dist,
                "jet": Jet2(*(a[outside[0]] for a in jets)).to_json_dict(),
            }
    return FiberegReport(
        eta=eta,
        delta=delta,
        resolution=resolution if math.isfinite(resolution) else omega.diameter,
        diameter=omega.diameter,
        pairs_checked=len(pairs),
        jets_checked=jets_checked,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Sampled structural checks (positivity / negativity / cone axioms)
# ---------------------------------------------------------------------------

def check_positivity(oracle: FiberOracle, samples: int = 200):
    """Sampled (P): membership survives A -> A + P for P >= 0; returns the
    first failing (J, P) in sample order, or None.

    The whole sample is drawn first: the jets (one random_jets block,
    scale 1.5), then one standard_normal block of the factors G of
    P = G G^T / n, one per jet, used or not, at seed 3. One values call
    classifies the jets under DEFAULT_TOL and one every J + P under
    10*DEFAULT_TOL.
    """
    rng = np.random.default_rng(3)
    n = oracle.n
    r, p, A = random_jets(rng, n, samples, 1.5)
    G = rng.standard_normal((samples, n, n))
    P = G @ G.swapaxes(-1, -2) / n
    P = 0.5 * (P + P.swapaxes(-1, -2))
    bad = np.flatnonzero(members(oracle.values(r, p, A))
                         & ~members(oracle.values(r, p, A + P), 10 * DEFAULT_TOL))
    return (Jet2(r[bad[0]], p[bad[0]], A[bad[0]]), SymMat(P[bad[0]])) if bad.size else None


def check_negativity(oracle: FiberOracle, samples: int = 200):
    """Sampled (N): membership survives r -> r + s for s <= 0; returns the
    first failing (J, s) in sample order, or None (at once for a pure
    second-order oracle).

    The whole sample is drawn first: the jets (one random_jets block,
    scale 1.5), then one standard_normal block of the -s, one per jet,
    used or not, at seed 4. One values call classifies the jets under
    DEFAULT_TOL and one every J + (s, 0, 0) under 10*DEFAULT_TOL.
    """
    if oracle.arity is Arity.PURE_SECOND_ORDER:
        return None
    rng = np.random.default_rng(4)
    r, p, A = random_jets(rng, oracle.n, samples, 1.5)
    s = -np.abs(rng.standard_normal(samples))
    bad = np.flatnonzero(members(oracle.values(r, p, A))
                         & ~members(oracle.values(r + s, p, A), 10 * DEFAULT_TOL))
    return (Jet2(r[bad[0]], p[bad[0]], A[bad[0]]), float(s[bad[0]])) if bad.size else None


# ---------------------------------------------------------------------------
# Key grammar and registry
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x == int(x):
        return str(int(x))
    return repr(float(x))


def _fmt_cone(D: DirectionalCone) -> str:
    if D.kind is ConeKind.FULL:
        return "full"
    if D.kind is ConeKind.HALFSPACE:
        d = D.direction
        axes = np.nonzero(np.abs(d) > 1e-12)[0]
        if len(axes) == 1 and abs(d[axes[0]] - 1.0) < 1e-12:
            return f"half:e{axes[0] + 1}"
        return "half:" + ",".join(_fmt(v) for v in d)
    return "orth:" + ",".join(str(a + 1) for a in D.axes)


def _fmt_R(R: float) -> str:
    return "inf" if math.isinf(R) else _fmt(R)


def parse_directional_cone(text: str, n: int) -> DirectionalCone:
    """Parse full, half:eI, half:v1,..,vn or orth:I,J,.. (axes 1..n).

    A malformed spec, an axis outside 1..n and a direction of the wrong
    length or with non-finite entries are ParseErrors.
    """

    def axis(item: str) -> int:
        if not (item.isascii() and item.isdigit() and 1 <= int(item) <= n):
            raise ParseError(f"bad directional cone spec {text!r}: "
                             f"axis {item!r} is not an integer in 1..{n}")
        return int(item) - 1

    if text == "full":
        return DirectionalCone.full()
    if text.startswith("half:e"):
        d = np.zeros(n)
        d[axis(text[len("half:e"):])] = 1.0
        return DirectionalCone.halfspace(d)
    if text.startswith("half:"):
        try:
            d = [float(v) for v in text[len("half:"):].split(",")]
        except ValueError:
            d = []
        if len(d) != n or not all(math.isfinite(v) for v in d):
            raise ParseError(f"bad directional cone spec {text!r}: "
                             f"need {n} finite direction components")
        return DirectionalCone.halfspace(d)
    if text.startswith("orth:"):
        return DirectionalCone.orthant([axis(a) for a in text[len("orth:"):].split(",")])
    raise ParseError(f"bad directional cone spec {text!r}")


def parse_key(key: str) -> tuple[str, dict, list]:
    """Split 'name:params' into (name, kv-params, positional params).

    Grammar (see README): key = name [":" item {"," item}] where item is
    either ident "=" value or a bare value. Values may themselves carry
    colons (directional cones).
    """
    key = key.strip()
    if not key:
        raise ParseError("empty key")
    if ":" in key:
        name, rest = key.split(":", 1)
    else:
        name, rest = key, ""
    kv: dict = {}
    pos: list = []
    if rest:
        for item in rest.split(","):
            if "=" in item:
                k, v = item.split("=", 1)
                # rejoin cone values split on their own commas: handled below
                kv[k.strip()] = v.strip()
            else:
                if kv:
                    # continuation of the previous kv value (e.g. half:0.5,0.5)
                    last = list(kv)[-1]
                    kv[last] = kv[last] + "," + item.strip()
                else:
                    pos.append(item.strip())
    return name, kv, pos


def _float_or_inf(text: str) -> float:
    """Parameter type of a float that may be inf (a structural value)."""
    return float(text)


@dataclass(frozen=True)
class KeyFamily:
    """A family of keys: its factory and its declared parameters.

    params lists (name, type, default) in positional order; type is int,
    float, _float_or_inf or str. build takes the registry's context (the
    dimension, or the grid of a discretization) and the bound parameters
    by name. describe and variable are shown by `jetcones catalog`.
    """

    build: Callable
    params: tuple = ()
    describe: str = ""
    variable: bool = False


def bind_key(key: str, registry: dict, what: str) -> tuple:
    """Look key's family up in registry and bind its parameters.

    Returns (family name, {parameter: value}). Positional items bind in
    declared order, named items by name, and missing parameters take
    their defaults. An unknown family is UnknownKey; unknown parameter
    names, surplus or repeated items, values that do not convert to the
    declared type and non-finite numbers (inf only where declared) are
    ParseErrors. Range checks stay with the family's constructor.
    """
    name, kv, pos = parse_key(key)
    if name not in registry:
        raise UnknownKey(f"unknown {what} key {key!r}; known: {sorted(registry)}")
    params = registry[name].params
    names = [p[0] for p in params]
    if len(pos) > len(params):
        raise ParseError(f"{key!r}: {name} takes at most {len(params)} positional "
                         f"values ({','.join(names) or 'none'}), got {len(pos)}")
    given = dict(zip(names, pos))
    for k, v in kv.items():
        if k not in names:
            raise ParseError(f"{key!r}: {name} has no parameter {k!r}; known: {names}")
        if k in given:
            raise ParseError(f"{key!r}: parameter {k!r} given twice")
        given[k] = v
    bound = {}
    for pname, kind, default in params:
        text = given.get(pname)
        try:
            value = default if text is None else kind(text)
        except ValueError:
            value = math.nan
        if not (kind is str or math.isfinite(value)
                or (kind is _float_or_inf and value == math.inf)):
            raise ParseError(f"{key!r}: {pname}={text!r} is not "
                             f"{'an integer' if kind is int else 'a finite number'}")
        bound[pname] = value
    return name, bound


def perturbed_ma_map(n: int) -> VariableFiberMap:
    """The demo perturbed Monge-Ampere fiber map with Lipschitz data:
    M(x) = diag(1 + |x|^2, 1, ..), f = 1 on the box [-1, 1]^n."""
    box = Box(-np.ones(n), np.ones(n))

    def M_field(x):
        m = np.tile(np.eye(n), x.shape[:-1] + (1, 1))
        m[..., 0, 0] = 1.0 + _dot_self(x)
        return m

    return fiber_perturbed_MA(box, M_field, lambda x: 1.0, n=n)


def _demo_slag(n: int) -> VariableFiberMap:
    box = Box(-np.ones(n), np.ones(n))
    return fiber_special_lagrangian(box, lambda x: 0.5 + 0.25 * x[..., 0], n=n)


def _demo_affine_sphere(n: int) -> VariableFiberMap:
    box = Box(-np.ones(n), np.ones(n))
    return fiber_affine_sphere(box, lambda x: 0.5 * (1.0 + _dot_self(x)), n=n)


def _demo_ot(n: int) -> VariableFiberMap:
    box = Box(-np.ones(n), np.ones(n))
    k = min(2, n)
    D = DirectionalCone.orthant(range(k))

    def g(p):
        return np.prod(p[..., :k], axis=-1)

    return fiber_optimal_transport(box, g, D, lambda x: 1.0, n=n)


REGISTRY = {
    "P": KeyFamily(cone_P, describe="convexity cone: lambda_min(A) >= 0"),
    "P~": KeyFamily(cone_P_dual, describe="subaffine cone (dual of P): lambda_max(A) >= 0"),
    "Q": KeyFamily(cone_Q, describe="negativity-convexity cone: r <= 0 and A >= 0"),
    "Q~": KeyFamily(cone_Q_dual, describe="dual of Q: r <= 0 or lambda_max(A) >= 0"),
    "branch": KeyFamily(branch, (("k", int, 1),),
                        "eigenvalue branch: lambda_k(A) >= 0; params k=1..n"),
    "pfold": KeyFamily(cone_pfold, (("p", int, 1),),
                       "truncated trace cone: lambda_1+...+lambda_p >= 0; params p=1..n"),
    "sigma": KeyFamily(cone_sigma_k, (("k", int, 1),),
                       "closed k-Hessian cone: sigma_j(lambda(A)) >= 0 for j <= k; "
                       "params k=1..n"),
    "pucci": KeyFamily(cone_pucci, (("lam", float, 1.0), ("Lam", float, 2.0)),
                       "extremal cone: lam*tr A+ + Lam*tr A- >= 0; "
                       "params lam,Lam with 0 < lam < Lam"),
    "quasiconvex": KeyFamily(cone_quasiconvex, (("shift", float, 0.0),),
                             "shifted convexity cone: A + shift*I >= 0; params shift >= 0"),
    "lagrangian": KeyFamily(cone_lagrangian,
                            describe="Lagrangian plurisubharmonicity cone on S(2n): "
                            "tr(A)/2 - sum mu_j >= 0"),
    "M0": KeyFamily(cone_M0,
                    describe="minimal monotonicity cone: r <= 0, p = 0, A >= 0 "
                    "(empty interior)"),
    "M": KeyFamily(
        lambda n, gamma, D, R: cone_M(
            MonotonicityCone(gamma, parse_directional_cone(D, n), R), n),
        (("gamma", float, 0.0), ("D", str, "full"), ("R", _float_or_inf, math.inf)),
        "fundamental-family cone: r <= -gamma|p|, p in D, A >= (|p|/R)I; params gamma, "
        "D in {full, half:e1, half:v1,..,vn, orth:1,2,..}, R (number or inf)"),
    "failure": KeyFamily(fiber_failure_example, (("alpha", float, 2.0), ("which", str, "min")),
                         "comparison-failure operator: lambda_min/max of "
                         "A + |p|^((alpha-1)/n)(P_perp + alpha P_p); "
                         "params alpha > 1, which in {min, max}"),
    "pma": KeyFamily(perturbed_ma_map,
                     describe="variable fiber, perturbed Monge-Ampere demo: A + M(x) >= 0, "
                     "det(A+M(x)) >= 1, M(x) = diag(1+|x|^2, 1, ..)",
                     variable=True),
    "slag": KeyFamily(_demo_slag,
                      describe="variable fiber, phase demo: "
                      "sum arctan lambda_k(A) >= 0.5 + 0.25*x1",
                      variable=True),
    "affine-sphere": KeyFamily(_demo_affine_sphere,
                               describe="variable fiber, affine-sphere demo: "
                               "(-r)^(n+2) det A >= (1+|x|^2)/2 on N x P",
                               variable=True),
    "ot": KeyFamily(_demo_ot,
                    describe="variable fiber, transport demo: p in first orthant, A >= 0, "
                    "p1*p2*det A >= 1",
                    variable=True),
}


def make_oracle(key: str, n: int):
    """Build the oracle (or variable fiber map) addressed by a catalog key."""
    name, params = bind_key(key, REGISTRY, "catalog")
    return REGISTRY[name].build(n, **params)
