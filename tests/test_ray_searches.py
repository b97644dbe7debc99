"""The line searches and the sampled checks against the Jet2 route.

canonical_operator, signed_distance, shift_stack_to_boundary and
into_fibers, the mixing of duality._cone_members, strict_pseudoconvex_at,
check_involution, check_monotonicity and check_jet_addition evaluate
oracles on arrays along a ray (catalog.ray_probe, or
values(*jets_along(...)) for signed_distance's many directions) and on
stacks (FiberOracle.values). The searches probe doubling brackets
2**BISECTION_DEPTH - 1 entries per call and walk BISECTION_DEPTH levels
of each bisection tree per call, signed_distance for all directions in
lockstep (catalog.bisect_brackets) and the shifts of the sampled checks
for all samples in lockstep (catalog.shift_stack_to_boundary, inside
catalog.into_fibers); the mixing probes its whole fixed ladder in one
call. The references here and in jet2_refs are the
one-probe-at-a-time, one-sample-at-a-time loops written with Jet2
arithmetic and one oracle.value per probe (jet2_refs.ray_values is that
arithmetic on arrays of t; shift_jets runs the stack search on a list of
Jet2s to compare with them jet by jet); the references of the sampled
checks draw the checks' blocks in the same order (random_jet by
random_jet, which gives a random_jets block to the bit) and then take one
sample at a time. Every returned value, jet, report and error must match
them bit for bit. Probes past the point where such a loop would stop
must not warn either, so RuntimeWarnings are errors here.

canonical_operator finds the crossing of g(t) = g(A - tI) on a ladder of
doubling points and eigenvalues instead of bisecting the membership of
A - tI (the walk, ref_canonical_operator here): one secant step on the
ladder's bracket, certified by one more g call, or, where that
certificate fails, the ladder's bracket bisected on g >= 0 and one
secant step on the last bracket. On a fiber with a spectrum
(FiberOracle.spectrum set) g is f(r, p, lambda - t); on one without, the
form on the stack of jets A - tI, bit for bit the ladder of
jet2_refs.ref_ladder_canonical with one F.value per rung. It is checked
against the closed forms (bit for bit for Q, Q~ and M0 where the
crossing is an eigenvalue), within the walk's final bracket and against
Brent's zero on the doubling bracket (jet2_refs.brent_root); its f and
form calls and its fallback bisections are counted. The duals of the
spectral fibers are spectral too. Every search along a ray whose
Hessian part is c*I on a spectral fiber (ray_probe:
shift_stack_to_boundary on Q, Q~, M and M0 as well, the mixing into M)
probes f(r + t*r0, p + t*p0, lambda + t*c) instead of the fiber's values
along the ray. A count of the matrices the
eigenvalues calls of catalog, canonical and the jet norm solve checks
that this takes one eigen-solve per jet, and that canonical_operator on
any spectral fiber solves its matrix once. The route is checked against
the ray route within tol, and at the seeds of the Jet2-route comparisons
below it matches them bit for bit as well.
"""

import functools
import itertools
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from jetcones import canonical as canonical_module
from jetcones import catalog as catalog_module
from jetcones import jets as jets_module
from jetcones.boundary import _threshold_done
from jetcones.canonical import (
    MIN_TOL,
    SEARCH_RADIUS,
    _bracket_done,
    _crossing_done,
    _crossings,
    _doublings,
    _jet_directions,
    canonical_operator,
    induced_fiber,
    signed_distance,
)
from jetcones.catalog import (
    BISECTION_DEPTH,
    DEFAULT_TOL,
    REGISTRY,
    ROUNDING_REACH,
    SHIFT_MARGIN,
    SHIFT_TOL,
    Arity,
    Box,
    ConeKind,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    FiberegReport,
    VariableFiberMap,
    _anchor_pairs,
    _fiber_jet_samples,
    bind_key,
    check_fiberegularity,
    bisect_brackets,
    cone_M,
    crossing_brackets,
    fiber_affine_sphere,
    fiber_optimal_transport,
    into_fibers,
    make_oracle,
    parse_directional_cone,
    reduced_cone,
)
from jetcones.duality import (
    CheckReport,
    _cone_members,
    _jet_addition,
    check_involution,
    check_jet_addition,
    check_monotonicity,
    dual_oracle,
)
from jetcones.errors import (BadParameters, BracketingFailure, IndexOutOfRange, NegativeSource,
                             OddDimension)
from jetcones.garding import branch_oracle, det_operator, garding_cone_oracle, sigma_k_operator
from jetcones.jets import (
    Jet2,
    SymMat,
    heavy_tail_symmetric,
    jet_norm,
    random_jet,
    random_jets,
    random_symmetric,
    stack_jets,
    unstack_jets,
)
from jet2_refs import (
    brent_root,
    ray_values,
    record,
    ref_check_involution,
    ref_ladder_canonical,
    ref_sample_cone_member,
    ref_shift_to_boundary,
    shift_jets,
)


pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def pma_slice(n):
    vf = make_oracle("pma", n)
    return vf.fiber_at(vf.domain.center + 0.1)


# array forms first, then the per-jet fallbacks of FiberOracle.values
CASES = [
    (lambda: make_oracle("P", 3), "P"),
    (lambda: make_oracle("pfold:p=2", 3), "pfold"),
    (lambda: make_oracle("pucci:1,2", 2), "pucci"),
    (lambda: make_oracle("Q", 2), "Q"),
    (lambda: make_oracle("M:gamma=1,D=half:1,0,R=1", 2), "M-half-R1"),
    (lambda: make_oracle("sigma:k=2", 3), "sigma"),
    (lambda: make_oracle("lagrangian", 4), "lagrangian"),
    (lambda: make_oracle("failure:alpha=2,which=min", 2), "failure"),
    (lambda: pma_slice(2), "pma-slice"),
]
ORACLES = [pytest.param(make, id=name) for make, name in CASES]


# --- references: the Jet2-arithmetic routes ---------------------------------

def ref_canonical_operator(F, A, tol=1e-10):
    t_lo, t_hi = ref_canonical_bracket(F, A, tol)
    return 0.5 * (t_lo + t_hi)


def ref_canonical_bracket(F, A, tol=1e-10):
    J = A if isinstance(A, Jet2) else Jet2.from_matrix(A)
    eyeJ = Jet2.from_matrix(SymMat.identity(J.n))

    def member(t):
        return F.value(J + (-t) * eyeJ) >= 0.0

    t_lo, t_hi = ref_doubling_bracket(member, jet_norm(J) + 1.0)
    while abs(t_hi - t_lo) > tol * max(1.0, abs(t_lo) + abs(t_hi)):
        mid = 0.5 * (t_lo + t_hi)
        if member(mid):
            t_lo = mid
        else:
            t_hi = mid
    return t_lo, t_hi


def ref_doubling_bracket(member, span):
    """The bracket (t_lo, t_hi) of the crossing of member, walked from 0 by
    doubling from span outward on the side member(0) says."""
    t_lo, t_hi = None, None
    if member(0.0):
        t_lo, t = 0.0, span
        while t <= SEARCH_RADIUS:
            if not member(t):
                t_hi = t
                break
            t_lo = t
            t *= 2.0
    else:
        t_hi, t = 0.0, -span
        while t >= -SEARCH_RADIUS:
            if member(t):
                t_lo = t
                break
            t_hi = t
            t *= 2.0
    if t_lo is None or t_hi is None:
        raise BracketingFailure("no crossing")
    return t_lo, t_hi


def ref_crossing(F, J, U, inside, tol=1e-9, cap=SEARCH_RADIUS):
    s_keep, s_flip, s = 0.0, None, 1.0
    while s <= cap:
        if (F.value(J + s * U) >= 0.0) != inside:
            s_flip = s
            break
        s_keep = s
        s *= 2.0
    if s_flip is None:
        return None
    for _ in range(80):
        mid = 0.5 * (s_keep + s_flip)
        if (F.value(J + mid * U) >= 0.0) == inside:
            s_keep = mid
        else:
            s_flip = mid
        if s_flip - s_keep < tol * max(1.0, s_flip):
            break
    return 0.5 * (s_keep + s_flip)


def ref_signed_distance(F, J, directions=256, tol=1e-9, seed=53, cap=SEARCH_RADIUS):
    inside = F.value(J) >= 0.0
    best = None
    for U in _jet_directions(J.n, directions, seed, F.arity):
        s = ref_crossing(F, J, U, inside, tol, cap)
        if s is not None and (best is None or s < best):
            best = s
    if best is None:
        raise BracketingFailure("no crossing")
    return best if inside else -best


def ref_cone_member(M, rng, n, scale, extreme):
    if not extreme:
        return ref_sample_cone_member(M, rng, n, scale)
    p = random_jet(rng, n, scale).p
    if M.D.kind is ConeKind.HALFSPACE:
        s = M.D.functional(p)
        if s < 0:
            p = p - 2 * s * M.D.direction
    elif M.D.kind is ConeKind.ORTHANT:
        q = np.zeros(n)
        for a in M.D.axes:
            q[a] = abs(p[a])
        p = q
    pn = math.sqrt(np.sum(p * p))
    a = 0.0 if math.isinf(M.R) else pn / M.R
    return Jet2(-M.gamma * pn, p, SymMat(a * np.eye(n)))


def ref_into_fiber(oracle, J, margin, tol, J0):
    if oracle.classify(J, tol).is_member:
        return J
    moved = ref_shift_to_boundary(oracle, J, J0, margin=margin)
    if moved is not None and oracle.classify(moved, tol).is_member:
        return moved
    return None


def ref_record(rep, oracle, S, witness, tol):
    r = oracle.classify(S, tol)
    ok = r.is_member or r.margin <= 10 * tol
    record(rep, ok, r.margin if r.is_member else -r.margin, None if ok else witness)


def ref_check_monotonicity(F, M, samples=400, seed=29, tol=1e-8, scale=1.5):
    # the draws of the whole sample first, part by part, then one sample at
    # a time: its fiber, its jet moved into the fiber, its cone member
    rng = np.random.default_rng(seed)
    variable = isinstance(F, VariableFiberMap)
    n = F.n
    points = [F.domain.sample(rng, 1)[0] if variable else None for _ in range(samples)]
    jets = [random_jet(rng, n, scale) for _ in range(samples)]
    margins = [abs(rng.standard_normal()) + 1e-3 for _ in range(samples)]
    scales = [abs(rng.standard_normal()) + 0.1 for _ in range(samples)]
    cones = [ref_cone_member(M, rng, n, scales[i], i % 2 == 0) for i in range(samples)]
    rep = CheckReport(name="monotonicity", seed=seed)
    J0 = M.interior_jet(n)
    for x, J, margin, K in zip(points, jets, margins, cones):
        oracle = F.fiber_at(x) if variable else F
        J = ref_into_fiber(oracle, J, margin, tol, J0)
        # a sample whose jet or cone member could not be placed is dropped
        if J is not None and K is not None:
            ref_record(rep, oracle, J + K, J, tol)
    return rep


def ref_check_jet_addition(F, M, samples=400, seed=31, tol=1e-8, scale=1.5, precheck=True):
    if precheck:
        mono = ref_check_monotonicity(F, M, samples=max(200, samples), seed=seed + 1,
                                      tol=tol, scale=scale)
        if not mono.checked:
            raise ValueError("jet-addition precondition failed: no sample reached F, "
                             "so its M-monotonicity is untested")
        if not mono.ok:
            raise ValueError(f"jet-addition precondition failed: F is not M-monotone "
                             f"({mono.failed} violations)")
    rng = np.random.default_rng(seed)
    n = F.n
    Fd, Md = dual_oracle(F), dual_oracle(cone_M(M, n))
    J0 = M.interior_jet(n)
    Js = [random_jet(rng, n, scale) for _ in range(samples)]
    Ks = [random_jet(rng, n, scale) for _ in range(samples)]
    marginsJ = [abs(rng.standard_normal()) + 1e-3 for _ in range(samples)]
    marginsK = [abs(rng.standard_normal()) + 1e-3 for _ in range(samples)]
    rep = CheckReport(name="jet-addition", seed=seed)
    for J, K, mJ, mK in zip(Js, Ks, marginsJ, marginsK):
        J = ref_into_fiber(F, J, mJ, tol, J0)
        K = ref_into_fiber(Fd, K, mK, tol, J0)
        if J is not None and K is not None:
            ref_record(rep, Md, J + K, J + K, tol)
    return rep


def ref_bisect(keep, a, b, done, max_steps):
    steps = 0
    while max_steps is None or steps < max_steps:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
        steps += 1
        if done(a, b):
            break
    return a, b


def hexes(J):
    return (float.hex(J.r), [float.hex(x) for x in J.p],
            [float.hex(x) for x in J.A.entries.ravel()])


# --- cross-checks --------------------------------------------------------------

@pytest.mark.parametrize("make", ORACLES)
def test_ray_values_is_value_of_the_jet2_sum(make):
    F = make()
    rng = np.random.default_rng(5)
    for _ in range(20):
        J, U = random_jet(rng, F.n, 1.5), random_jet(rng, F.n)
        ts = np.concatenate([rng.standard_normal(4) * 3, [0.0, -0.0, 1e6]])
        stacked = ray_values(F, J, U, ts)
        for t, g in zip(ts.tolist(), stacked.tolist()):
            ref = F.value(J + t * U)
            assert float.hex(float(ray_values(F, J, U, t))) == float.hex(ref)
            assert float.hex(g) == float.hex(ref)


@pytest.mark.parametrize("make", ORACLES)
def test_canonical_operator_matches_jet2_route(make):
    # the form route: bit for bit its Jet2 reference, and within
    # 2 * tol * max(1, |t|) of the bisection of the membership indicator
    # (the walk), the bound of the dual's comparison below: where g
    # vanishes on an interval (Q and M, their spectrum dropped) the route
    # returns the keep end of its bisected bracket, the walk the midpoint
    # of its own. Spectral fibers are checked against both below
    F = replace(make(), spectrum=None)
    rng = np.random.default_rng(7)
    for _ in range(6):
        A = random_symmetric(rng, F.n, 1.5)
        got = canonical_operator(F, A)
        assert float.hex(got) == float.hex(ref_ladder_canonical(F, A))
        t = ref_canonical_operator(F, A)
        assert abs(got - t) <= 2e-10 * max(1.0, abs(t))


def test_canonical_operator_bracketing_failure_like_jet2_route():
    F = make_oracle("Q~", 2)
    A = SymMat.diag(1.0, -2.0)
    with pytest.raises(BracketingFailure):
        ref_canonical_operator(F, A)
    with pytest.raises(BracketingFailure):
        canonical_operator(F, A)


def outcome(f, *args, **kwargs):
    """float.hex of f's value, or the name of the jetcones error it raised."""
    try:
        return float.hex(f(*args, **kwargs))
    except BracketingFailure as e:
        return type(e).__name__


@pytest.mark.parametrize("make", ORACLES)
def test_signed_distance_matches_jet2_route(make):
    F = make()
    rng = np.random.default_rng(11)
    inner = Jet2(-2.0, np.zeros(F.n), 2.0 * np.eye(F.n))
    queries = [random_jet(rng, F.n, 1.5) for _ in range(2)]
    queries.append(inner + 0.1 * random_jet(rng, F.n))
    got = [outcome(signed_distance, F, J, directions=24) for J in queries]
    assert got == [outcome(ref_signed_distance, F, J, directions=24) for J in queries]
    assert any(g != "BracketingFailure" for g in got)


@pytest.mark.parametrize("make", ORACLES)
def test_shift_to_boundary_matches_jet2_route(make):
    F = make()
    rng = np.random.default_rng(13)
    M = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
    J0 = M.interior_jet(F.n)
    for _ in range(8):
        J = random_jet(rng, F.n, 1.5)
        margin = abs(rng.standard_normal()) + 1e-3
        got, = shift_jets(F, [J], J0, [margin])
        ref = ref_shift_to_boundary(F, J, J0, margin=margin)
        assert (got is None) == (ref is None)
        if got is not None:
            assert hexes(got) == hexes(ref)


def mixed_cone_member(M, rng, n, scale):
    """_cone_members on one row, mixed into M, drawn as one random_jet; None
    when the mixing ladder reaches no member."""
    (ok,), K = _cone_members(M, n, random_jets(rng, n, 1, scale), np.array([False]))
    K, = unstack_jets(*K)
    return K if ok else None


def test_sample_cone_member_matches_jet2_mixing():
    M = MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0)
    oracle = make_oracle(M.key(), 2)
    for seed in range(10):
        got = mixed_cone_member(M, np.random.default_rng(seed), 2, 2.0)
        ref = ref_sample_cone_member(M, np.random.default_rng(seed), 2, 2.0)
        assert hexes(got) == hexes(ref)
        assert oracle.classify(got).is_member


@pytest.mark.parametrize("samples", [0, 1, 200])
@pytest.mark.parametrize("make", ORACLES)
def test_check_involution_matches_jet2_route(make, samples):
    F = make()
    got = check_involution(F, samples=samples, seed=3)
    ref = ref_check_involution(F, samples=samples, seed=3)
    assert got.to_json_dict() == ref.to_json_dict()
    assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)



# --- the stacked walker and the edge cases of each search ----------------------

@pytest.mark.parametrize("max_steps", [None, 1, 3, 4, 5, 9, 80])
def test_bisect_brackets_walks_the_stepwise_loop(max_steps):
    # keep rules that are not monotone in t and differ per bracket: the walk
    # must follow each tree exactly, not just find some crossing; brackets
    # of every width up to 10 stop in different rounds
    def keep_rows(rows, t):
        return np.floor(t * 1e3 + np.asarray(rows)[:, None]) % 3 != 0

    def stop(a, b):
        return abs(a - b) < 1e-6

    rng = np.random.default_rng(17)
    sets = [[tuple(rng.uniform(-5.0, 5.0, 2).tolist()) for _ in range(40)]
            + [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (-1e-7, 1e-7)]]
    sets += [[tuple(rng.uniform(-5.0, 5.0, 2).tolist()) for _ in range(count)]
             for count in (1, 16, 300)]
    for brackets in sets:
        # done sees each round's candidate brackets as (rows, depth) arrays
        rounds, shapes = [], []

        def keeps(rows, t):
            rounds.append(len(rows))
            return keep_rows(rows, t)

        def done(a, b):
            shapes.append((type(a), a.shape, type(b), b.shape))
            return np.abs(a - b) < 1e-6

        got = bisect_brackets(keeps, brackets, done, max_steps)
        for i, (a, b) in enumerate(brackets):
            ref = ref_bisect(lambda t: bool(keep_rows([i], np.array([[t]]))[0, 0]), a, b, stop,
                             max_steps)
            assert tuple(map(float.hex, got[i])) == tuple(map(float.hex, ref))
        d = BISECTION_DEPTH
        assert shapes == [(np.ndarray, (rows, d), np.ndarray, (rows, d)) for rows in rounds]
        assert rounds[0] == len(brackets) and rounds == sorted(rounds, reverse=True)


@pytest.mark.parametrize("max_steps", [0, -1])
def test_walker_rejects_a_step_cap_below_one(max_steps):
    def keeps(rows, t):
        raise AssertionError("nothing to probe")

    def never(a, b):
        return np.zeros(np.shape(a), dtype=bool)

    with pytest.raises(ValueError, match="max_steps"):
        bisect_brackets(keeps, [(0.0, 1.0)], never, max_steps)
    with pytest.raises(ValueError, match="max_steps"):
        crossing_brackets(keeps, np.ones((1, 3)), [True], never, max_steps)


# the stop rules' scalar forms, as the stepwise loops write them
SCALAR_STOP_RULES = {
    "canonical": lambda a, b, tol: not abs(b - a) > tol * max(1.0, abs(a) + abs(b)),
    "crossing": lambda a, b, tol: b - a < tol * max(1.0, b),
    "threshold": lambda a, b, tol: not b - a > tol * max(1.0, b),
}
ARRAY_STOP_RULES = {"canonical": _bracket_done, "crossing": _crossing_done,
                    "threshold": _threshold_done}


@pytest.mark.parametrize("rule", sorted(SCALAR_STOP_RULES))
def test_array_stop_rules_equal_their_scalar_forms(rule):
    ends = [0.0, -0.0, 1e-300, 1e-12, 0.5, 1.0, 1.0 + 1e-9, -3.0, 2.5e5, 1e300,
            math.inf, -math.inf, math.nan]
    a, b = (np.array(x) for x in zip(*itertools.product(ends, repeat=2)))
    for tol in (1e-10, 1e-6, 1.0):
        with np.errstate(invalid="ignore", over="ignore"):
            got = ARRAY_STOP_RULES[rule](a, b, tol)
        ref = [SCALAR_STOP_RULES[rule](x, y, tol) for x, y in zip(a.tolist(), b.tolist())]
        assert got.dtype == bool and got.tolist() == ref
        # on (rows, depth) stacks as the walker passes them
        with np.errstate(invalid="ignore", over="ignore"):
            stacked = ARRAY_STOP_RULES[rule](a.reshape(-1, 13), b.reshape(-1, 13), tol)
        assert stacked.tolist() == np.reshape(ref, (-1, 13)).tolist()


def ref_fiber_jet_samples(theta, x, J0, rng, count):
    oracle, n, out = theta.fiber_at(x), theta.n, []
    for i in range(count):
        if i % 2 == 0:
            base = Jet2(rng.standard_normal(), rng.standard_normal(n), heavy_tail_symmetric(rng, n))
        else:
            base = random_jet(rng, n, scale=1.5)
        J = ref_shift_to_boundary(oracle, base, J0)
        if J is not None and oracle.classify(J).is_member:
            out.append(J)
    return out


@pytest.mark.parametrize("key", ["pma", "slag", "affine-sphere", "ot"])
def test_fiber_jet_samples_match_the_per_jet_loop(key):
    theta = make_oracle(key, 2)
    J0 = theta.reference_jet
    seen = set()
    for seed in range(3):
        x = theta.domain.sample(np.random.default_rng(seed), 1)[0]
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = unstack_jets(*_fiber_jet_samples(theta, x, J0, rng, 12))
        ref = ref_fiber_jet_samples(theta, x, J0, ref_rng, 12)
        assert list(map(hexes, got)) == list(map(hexes, ref))
        # the draws leave the generator where the per-jet loop leaves it
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        seen.add(len(got))
    assert seen != {0}


def ref_anchors(omega, rng, grid_per_side, anchors):
    """check_fiberegularity's grid axes and anchor indices."""
    d = omega.dim
    axes = [np.linspace(omega.lo[i], omega.hi[i], grid_per_side) for i in range(d)]
    idx_all = list(np.ndindex(*(grid_per_side,) * d))
    if len(idx_all) > anchors:
        idx_all = [idx_all[s] for s in rng.choice(len(idx_all), size=anchors, replace=False)]
    return axes, idx_all


def ref_anchor_pairs(axes, idx_all):
    """The anchor pairs on the offset ladder, sorted by a per-pair
    np.linalg.norm key."""
    d, grid_per_side = len(axes), len(axes[0])

    def point(ix):
        return np.array([axes[k][ix[k]] for k in range(d)])

    offsets = [tuple(int(k == j) for j in range(d)) for k in range(d)] + [(1,) * d]
    step = 2
    while step < grid_per_side:
        offsets += [(step,) + (0,) * (d - 1), (step,) * d]
        step *= 2
    pairs = [(ix, tuple(i + o for i, o in zip(ix, off))) for ix in idx_all for off in offsets
             if all(0 <= i + o < grid_per_side for i, o in zip(ix, off))]
    pairs.sort(key=lambda p: np.linalg.norm(point(p[0]) - point(p[1])))
    return pairs


@pytest.mark.parametrize("key", ["pma", "slag", "affine-sphere", "ot"])
def test_anchor_pairs_keep_the_norm_key_order(key):
    # at check_fiberegularity's default sizes (a 16-point side, 120 anchors
    # at seed 11) and on every grid point as an anchor
    omega = make_oracle(key, 2).domain
    default = ref_anchors(omega, np.random.default_rng(11), 16, 120)
    every = ref_anchors(omega, None, 16, 16 ** omega.dim)
    for axes, idx in (default, every):
        ref = ref_anchor_pairs(axes, idx)
        got, dists = _anchor_pairs(axes, idx)
        assert got == ref
        norms = [np.linalg.norm(np.array([axes[k][a[k]] - axes[k][b[k]] for k in range(len(a))]))
                 for a, b in ref]
        assert list(map(float.hex, dists.tolist())) == list(map(float.hex, map(float, norms)))


def ref_check_fiberegularity(theta, M, eta, seed, grid_per_side=16, anchors=120,
                             jets_per_point=12, tol=DEFAULT_TOL):
    """check_fiberegularity by the per-point route: each anchor's jets shift
    in the fiber_at(x) oracle, and each pair builds fiber_at(y) and tests
    its jets one contains call at a time."""
    J0, omega, d = theta.reference_jet, theta.domain, theta.domain.dim
    assert reduced_cone(M, theta.n, theta.arity).classify(J0, tol).is_interior
    rng = np.random.default_rng(seed)
    axes, idx_all = ref_anchors(omega, rng, grid_per_side, anchors)

    def point(ix):
        return np.array([axes[k][ix[k]] for k in range(d)])

    pairs = ref_anchor_pairs(axes, idx_all)
    cache = {}

    def jets_at(ix):
        if ix not in cache:
            n, bases = theta.n, []
            for i in range(jets_per_point):
                bases.append(Jet2(rng.standard_normal(), rng.standard_normal(n),
                                  heavy_tail_symmetric(rng, n)) if i % 2 == 0
                             else random_jet(rng, n, scale=1.5))
            moved = shift_jets(theta.fiber_at(point(ix)), bases, J0, [1e-6] * jets_per_point,
                               member_tol=DEFAULT_TOL)
            cache[ix] = [J for J in moved if J is not None]
        return cache[ix]

    shifted, delta, resolution, witness, checked = eta * J0, omega.diameter, math.inf, None, 0
    for ix, jy in pairs:
        x, y = point(ix), point(jy)
        dist = float(np.linalg.norm(x - y))
        if witness is not None and dist >= delta:
            break
        resolution = min(resolution, dist)
        oy, bad = theta.fiber_at(y), None
        for J in jets_at(ix):
            checked += 1
            if not oy.classify(J + shifted, tol).is_member:
                bad = J
                break
        if bad is not None and dist < delta:
            delta = dist
            witness = {"x": x.tolist(), "y": y.tolist(), "distance": dist,
                       "jet": bad.to_json_dict()}
    return FiberegReport(eta, delta, resolution if math.isfinite(resolution) else omega.diameter,
                         omega.diameter, len(pairs), checked, witness)


@pytest.mark.parametrize("key", ["pma", "slag", "affine-sphere", "ot"])
def test_fiberegularity_matches_the_per_point_route(key):
    theta = make_oracle(key, 2)
    for eta, seed in ((0.1, 11), (0.0, 3), (1e-3, 5)):
        got = check_fiberegularity(theta, theta.monotonicity, eta=eta, seed=seed, anchors=40)
        ref = ref_check_fiberegularity(theta, theta.monotonicity, eta, seed, anchors=40)
        assert got == ref
        # the first three maps stop at a witness, ot scans every pair
        assert (got.witness is None) == (key == "ot")


def hex_or_none(s):
    return None if s is None else float.hex(s)


@pytest.mark.parametrize("make", ORACLES)
def test_lockstep_crossings_match_every_direction(make):
    F = make()
    rng = np.random.default_rng(19)
    inner = Jet2(-2.0, np.zeros(F.n), 2.0 * np.eye(F.n))
    queries = [random_jet(rng, F.n, 1.5) for _ in range(2)]
    queries.append(inner + 0.1 * random_jet(rng, F.n))
    seen = set()
    for J in queries:
        inside = F.value(J) >= 0.0
        got = _crossings(F, J, inside, 24, 1e-9, 53, SEARCH_RADIUS)
        ref = [ref_crossing(F, J, U, inside) for U in _jet_directions(F.n, 24, 53, F.arity)]
        assert list(map(hex_or_none, got)) == list(map(hex_or_none, ref))
        seen |= {s is None for s in got}
    assert seen == {True, False}


def test_lockstep_crossings_cross_or_not_per_direction():
    F = make_oracle("P", 2)
    J = Jet2.from_matrix(SymMat.diag(0.5, 2.0))
    dirs = _jet_directions(2, 32, 53, F.arity)
    got = _crossings(F, J, True, 32, 1e-9, 53, SEARCH_RADIUS)
    ref = [ref_crossing(F, J, U, True) for U in dirs]
    assert list(map(hex_or_none, got)) == list(map(hex_or_none, ref))
    # +I never leaves P; -I leaves at s = 0.5, inside the first doubling step
    assert got[0] is None and 0.0 < got[1] < 1.0


def all_jets(n):
    return induced_fiber(lambda r, p, A: np.ones(np.shape(r)), None, n,
                         Arity.PURE_SECOND_ORDER, "all")


@pytest.mark.parametrize("make", [lambda: all_jets(2), lambda: make_oracle("Q~", 2)],
                         ids=["all", "Q~"])
def test_bracketing_failures_like_jet2_route(make):
    F = make()
    J = Jet2.from_matrix(SymMat.diag(1.0, -2.0))
    with pytest.raises(BracketingFailure):
        ref_canonical_operator(F, J.A)
    with pytest.raises(BracketingFailure):
        canonical_operator(F, J.A)
    got = outcome(signed_distance, F, J, directions=24)
    assert got == outcome(ref_signed_distance, F, J, directions=24)
    if F.label == "all":
        assert got == "BracketingFailure"


@pytest.mark.parametrize("max_expand", [1, 2, 7, 60])
def test_shift_to_boundary_none_within_max_expand(max_expand):
    P = make_oracle("P", 2)
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    far = Jet2.from_matrix(SymMat.diag(-100.0, -100.0))
    got, = shift_jets(P, [far], eyeJ, [SHIFT_MARGIN], max_expand=max_expand)
    ref = ref_shift_to_boundary(P, far, eyeJ, max_expand=max_expand)
    # t = 1, 3, 7, 15, 31, 63, 127: the crossing at 100 needs seven doublings
    assert (got is None) == (ref is None) == (max_expand < 7)
    if got is not None:
        assert hexes(got) == hexes(ref)
    assert shift_jets(all_jets(2), [far], eyeJ, [SHIFT_MARGIN], max_expand=max_expand) == [None]


def test_doublings_match_the_doubling_loop():
    def loop(first, cap):
        out = []
        while first <= cap:
            out.append(first)
            first *= 2.0
        return out

    rng = np.random.default_rng(89)
    cases = [(1.0, SEARCH_RADIUS), (1.0, 1.0), (1.0 + 2**-52, 1.0), (3.0, 3.0 * 2**19),
             (3.0, np.nextafter(3.0 * 2**19, 0.0)), (math.nan, 1.0), (math.inf, 1.0),
             (1e-300, 1e300), (5e-324, 1.0), (1.0, 1.7e308), (5e-324, sys.float_info.max)]
    cases += list(zip(rng.uniform(1e-3, 1e6, 500).tolist(), rng.uniform(0.0, 1e7, 500).tolist()))
    cases += [(2.0**k * (1.0 + 2**-52), 2.0**j) for k in range(-3, 24) for j in range(-3, 24)]
    for first, cap in cases:
        assert _doublings(first, cap).tolist() == loop(first, cap)


def test_crossing_at_the_first_doubling_step():
    P = replace(make_oracle("P", 2), spectrum=None)
    # span = 4: A - 4I already leaves P, so the walk brackets (0, 4)
    A = SymMat.diag(0.5, 3.0)
    got = canonical_operator(P, A)
    assert float.hex(got) == float.hex(ref_ladder_canonical(P, A))
    assert abs(got - ref_canonical_operator(P, A)) <= 1e-10 * (1.0 + abs(got))
    # from outside, t = 1 already enters P
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    J = Jet2.from_matrix(SymMat.diag(-0.5, 2.0))
    got, = shift_jets(P, [J], eyeJ, [SHIFT_MARGIN])
    assert hexes(got) == hexes(ref_shift_to_boundary(P, J, eyeJ))
    # from inside, t = -1 already leaves P
    J = Jet2.from_matrix(SymMat.diag(0.5, 2.0))
    got, = shift_jets(P, [J], eyeJ, [SHIFT_MARGIN])
    assert hexes(got) == hexes(ref_shift_to_boundary(P, J, eyeJ))


def test_bracket_already_within_tol():
    P = replace(make_oracle("P", 2), spectrum=None)
    A = SymMat.diag(0.5, 3.0)
    # the walk's doubling bracket (0, 4) meets the stop rule before any
    # bisection step, and the walk returns its midpoint; the ladder's
    # bracket is (0.5, 3), where the secant step lands on lambda_min and the
    # certificate holds, within tol * (1 + |t|) of the walk's
    assert ref_canonical_operator(P, A, tol=1.0) == 2.0
    assert canonical_operator(P, A, tol=1.0) == 0.5 == ref_ladder_canonical(P, A, tol=1.0)
    # shift_stack_to_boundary and signed_distance stop only after a step,
    # so a bracket of width 1 against tol 2 still takes one
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    for J in (Jet2.from_matrix(SymMat.diag(-0.5, 2.0)), Jet2.from_matrix(SymMat.diag(0.5, 2.0))):
        got, = shift_jets(P, [J], eyeJ, [SHIFT_MARGIN], tol=2.0)
        assert hexes(got) == hexes(ref_shift_to_boundary(P, J, eyeJ, tol=2.0))
        inside = P.value(J) >= 0.0
        got = _crossings(P, J, inside, 16, 1.0, 53, SEARCH_RADIUS)
        ref = [ref_crossing(P, J, U, inside, tol=1.0) for U in _jet_directions(2, 16, 53, P.arity)]
        assert list(map(hex_or_none, got)) == list(map(hex_or_none, ref))


# --- the spectral route of canonical_operator ---------------------------------

def pucci_root(ev, lam, Lam):
    """The t with lam * sum (ev - t)^+ + Lam * sum (ev - t)^- = 0, solved on
    the linear piece where it lies."""
    ev = np.sort(ev)
    n = len(ev)
    for k in range(n + 1):  # k eigenvalues below t
        t = (Lam * ev[:k].sum() + lam * ev[k:].sum()) / (Lam * k + lam * (n - k))
        if (k == 0 or ev[k - 1] <= t) and (k == n or t <= ev[k]):
            return float(t)
    raise AssertionError("no linear piece holds the root")


# the seven spectral families, with the closed form of t in the eigenvalues
# where one exists
SPECTRAL = [
    pytest.param("P", 3, lambda ev: ev[0], id="P"),
    pytest.param("P~", 3, lambda ev: ev[-1], id="P~"),
    pytest.param("branch:k=2", 3, lambda ev: ev[1], id="branch"),
    pytest.param("quasiconvex:0.5", 3, lambda ev: ev[0] + 0.5, id="quasiconvex"),
    pytest.param("pfold:p=2", 3, lambda ev: float(np.mean(ev[:2])), id="pfold"),
    pytest.param("pucci:1,2", 2, lambda ev: pucci_root(ev, 1.0, 2.0), id="pucci2"),
    pytest.param("pucci:0.5,3", 3, lambda ev: pucci_root(ev, 0.5, 3.0), id="pucci3"),
    pytest.param("sigma:k=2", 3, None, id="sigma"),
]
# the spectral cones that read r or p too; their g can vanish on an
# interval, where canonical_operator's ladder falls back to the bisection
MIXED_KEYS = ["Q", "Q~", "M0", "M:gamma=1,D=half:e1,R=1", "M:gamma=2,D=orth:1,R=0.5",
              "M:gamma=0.5,D=full,R=inf"]


def spectral_queries(n, seed):
    """Random matrices over six decades of scale, multiples of I and
    matrices with a repeated eigenvalue."""
    rng = np.random.default_rng(seed)
    mats = [random_symmetric(rng, n, scale) for scale in (1e-3, 1.5, 1e3) for _ in range(40)]
    mats += [SymMat(t * np.eye(n)) for t in (0.0, 1.0, -2.5, 1e-300, 3e5)]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    mats.append(SymMat(q @ np.diag([1.0] * (n - 1) + [-2.0]) @ q.T))
    return mats


@pytest.mark.parametrize("key, n, closed", SPECTRAL + [
    pytest.param(key, n, None, id=f"{key}-{n}d") for key in MIXED_KEYS for n in (2, 3)])
def test_spectral_forms_are_the_spectrum_of_the_eigenvalues(key, n, closed):
    F = make_oracle(key, n)
    rng = np.random.default_rng(23)
    r, p = rng.standard_normal(12), rng.standard_normal((12, n))
    A = np.array([random_symmetric(rng, n, 1.5).entries for _ in range(12)])
    got = F.values(r, p, A)
    assert list(map(float.hex, got.tolist())) == \
        list(map(float.hex, F.spectrum(r, p, np.linalg.eigvalsh(A)).tolist()))
    assert float.hex(F.value(Jet2(r[0], p[0], A[0]))) == float.hex(float(got[0]))


@pytest.mark.parametrize("key, n, closed", [c for c in SPECTRAL if c.values[2] is not None])
def test_spectral_canonical_matches_the_closed_forms(key, n, closed):
    # exact up to rounding where g(t) = f(lambda - t) is linear on the
    # last bracket. Pucci's g has a kink at each eigenvalue, and at A = tI
    # the root is one: there the value is good to tol * (1 + |t|), as
    # the bisected bracket is
    F = make_oracle(key, n)
    for tol in (1e-10, 1e-6, MIN_TOL):
        for A in spectral_queries(n, 29):
            ev = np.linalg.eigvalsh(A.entries)
            t = closed(ev)
            at_kink = key.startswith("pucci") and ev[0] == ev[-1]
            bound = tol * (1.0 + abs(t)) if at_kink else 1e-13 * max(1.0, abs(t))
            assert abs(canonical_operator(F, A, tol=tol) - t) <= bound


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_free_canonical_is_an_eigenvalue_bit_for_bit(n):
    # Q at r <= 0 and M0 at r <= 0, p = 0 cross where lambda_min - t does,
    # Q~ at r > 0 where lambda_max - t does: the eigenvalue is a ladder
    # point, g is 0 there and negative past it, so the secant step lands
    # on it and the certificate holds
    rng = np.random.default_rng(89)
    r, p, A = random_jets(rng, n, 150, 1.5)
    r[::5] = 0.0
    Q, Qd, M0 = make_oracle("Q", n), make_oracle("Q~", n), make_oracle("M0", n)
    for ri, pi, Ai in zip(r.tolist(), p, A):
        ev = np.linalg.eigvalsh(Ai)
        lo, hi = float.hex(float(ev[0])), float.hex(float(ev[-1]))
        assert float.hex(canonical_operator(Q, Jet2(-abs(ri), pi, Ai))) == lo
        assert float.hex(canonical_operator(M0, Jet2(-abs(ri), np.zeros(n), Ai))) == lo
        if ri != 0.0:
            assert float.hex(canonical_operator(Qd, Jet2(abs(ri), pi, Ai))) == hi


@pytest.mark.parametrize("key, n, closed", SPECTRAL)
def test_spectral_canonical_within_the_bisection_bracket(key, n, closed):
    # the reference bisects to a bracket; the root lies in it, and the
    # spectral value within tol * max(1, |t|) of the root
    F = make_oracle(key, n)
    for tol in (1e-10, 1e-6):
        for A in spectral_queries(n, 31)[::3]:
            t_lo, t_hi = ref_canonical_bracket(F, A, tol)
            t = 0.5 * (t_lo + t_hi)
            got = canonical_operator(F, A, tol=tol)
            assert abs(got - t) <= 0.5 * abs(t_hi - t_lo) + tol * max(1.0, abs(t))


@pytest.mark.parametrize("key, n, closed", SPECTRAL)
def test_spectral_bracketing_failures_like_the_bisection(key, n, closed):
    # the doubling starts at the jet norm + 1, r and p included, and fails
    # once that passes SEARCH_RADIUS
    F = make_oracle(key, n)
    shape = np.diag(np.linspace(1.0, -0.5, n))
    queries = [SymMat(s * shape) for s in (999998.0, 999999.5, 2e6)]
    queries += [Jet2(r, np.zeros(n), shape) for r in (999998.0, -2e6)]
    got = [outcome(canonical_operator, F, A) for A in queries]
    assert [g == "BracketingFailure" for g in got] == \
        [outcome(ref_canonical_operator, F, A) == "BracketingFailure" for A in queries] == \
        [False, True, True, False, True]


def spectrum_counting(F, calls):
    """F with its spectrum noting the shape of each eigenvalue stack."""
    f = F.spectrum

    def spectrum(r, p, lam):
        calls.append(np.shape(lam))
        return f(r, p, lam)

    return replace(F, spectrum=spectrum)


def spectral_fiber(key, n, dual):
    F = make_oracle(key, n)
    return dual_oracle(F) if dual else F


def sigma2_root(ev):
    """The t with sigma_2(ev - t) = 0 and sigma_1(ev - t) >= 0 for three
    eigenvalues: the smaller root of 3t^2 - 2 s1 t + s2, in the form free
    of cancellation."""
    s1, s2 = ev.sum(), ev[0] * ev[1] + ev[0] * ev[2] + ev[1] * ev[2]
    d = math.sqrt(max(s1 * s1 - 3.0 * s2, 0.0))
    return (s1 - d) / 3.0 if s1 < 0.0 else s2 / (s1 + d) if s1 + d > 0.0 else 0.0


# the families whose f(lambda - t) is linear between consecutive eigenvalues
PIECEWISE_LINEAR = [c for c in SPECTRAL if c.id != "sigma"]
DUALS = pytest.mark.parametrize("dual", [False, True], ids=["cone", "dual"])


def ladder_keys(n):
    """Every catalog key whose fiber in dimension n has a spectrum: each
    family with its default parameters, then the parametrized keys the
    tests above use."""
    keys = []
    for key in [name for name, family in REGISTRY.items() if not family.variable] + \
            [c.values[0] for c in SPECTRAL] + MIXED_KEYS:
        try:
            F = make_oracle(key, n)
        except (BadParameters, IndexOutOfRange, OddDimension):
            continue
        if F.spectrum is not None and key not in keys:
            keys.append(key)
    return keys


def ladder_queries(n, rng):
    """Random matrices over six decades of scale, each as a SymMat, as a raw
    array, as a Jet2 with r = 0, p = 0 and as one with r and p nonzero; then
    the zero matrix, repeated eigenvalues, an eigenvalue exactly 0 and a
    -0.0 entry, each as a raw array and as a Jet2 with r and p nonzero."""
    queries = []
    for scale in (1e-3, 1.5, 1e3):
        for _ in range(6):
            A = random_symmetric(rng, n, scale)
            r, p = rng.standard_normal() * scale, rng.standard_normal(n) * scale
            queries += [A, A.entries.copy(), Jet2(0.0, np.zeros(n), A), Jet2(r, p, A)]
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    special = [np.zeros((n, n)), -np.zeros((n, n)), 2.0 * np.eye(n),
               q @ np.diag([1.0] * (n - 1) + [-2.0]) @ q.T, np.diag([0.0, 1.0, -1.0][:n]),
               np.diag([-0.0] + [1.0] * (n - 1)), np.diag([-0.0] + [-1.0] * (n - 1))]
    for A in special:
        queries += [A, Jet2(-0.5, np.full(n, 0.25), A)]
    return queries


def outcome_bits(f, *args) -> tuple:
    """f's value as its int64 bits, or the name of the jetcones error it raised."""
    try:
        return "value", int(np.array(f(*args)).view(np.int64))
    except BracketingFailure as e:
        return type(e).__name__, None


ZERO_BITS = {0, int(np.array(-0.0).view(np.int64))}


@DUALS
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_is_the_sorted_ladder_on_jet2s_bit_for_bit(n, dual):
    # the one-row route (parts read once, one LAPACK gufunc call, a ladder
    # built in order) against the route it replaced, which wraps a matrix
    # in a Jet2, solves with eigvalsh and sorts the ladder: every spectral
    # key and its dual, every input kind, the same bits or the same failure.
    # One exception: an eigenvalue -0.0 ties with the ladder's 0, and where
    # the value is a zero its sign follows the tie's order. The ladder puts
    # its +0 last, so the value is +0; np.sort ordered the tie as its
    # sorting network fell, and gave either sign.
    rng = np.random.default_rng(149 + n)
    ties = compared = 0
    for key in ladder_keys(n):
        F = spectral_fiber(key, n, dual)
        for A in ladder_queries(n, rng):
            got = outcome_bits(canonical_operator, F, A)
            ref = outcome_bits(ref_ladder_canonical, F, A)
            lam = np.linalg.eigvalsh((A if isinstance(A, Jet2) else Jet2.from_matrix(A)).A.entries)
            if got[1] in ZERO_BITS and np.any((lam == 0.0) & np.signbit(lam)):
                assert got == ("value", 0) and ref[1] in ZERO_BITS, (key, A)
                ties += 1
            else:
                assert got == ref, (key, A)
                compared += 1
    assert ties > 0 and compared > 10 * ties


@DUALS
@pytest.mark.parametrize("key, n, closed", PIECEWISE_LINEAR)
def test_spectral_canonical_takes_two_spectrum_calls(key, n, closed, dual):
    # one stacked call on the ladder brackets the crossing, one more
    # certifies the secant step on it: no bisection on distinct eigenvalues,
    # over six decades of scale
    F = spectral_fiber(key, n, dual)
    for A in spectral_queries(n, 43)[:120]:
        assert np.all(np.diff(np.linalg.eigvalsh(A.entries)) > 0.0)
        calls = []
        got = canonical_operator(spectrum_counting(F, calls), A)
        assert len(calls) <= 2
        assert float.hex(got) == float.hex(canonical_operator(F, A))


@DUALS
@pytest.mark.parametrize("key, n, closed", SPECTRAL)
def test_spectral_canonical_agrees_with_brent_on_the_doubling_bracket(key, n, closed, dual):
    # the ladder's value against Brent's zero on the doubling bracket
    # (jet2_refs.brent_root), within tol * (1 + |t|); and inside the
    # bisection reference's bracket up to the rounding of its own
    # eigen-solves of A - tI
    F = spectral_fiber(key, n, dual)
    for tol in (1e-10, 1e-6):
        for A in spectral_queries(n, 31)[::3]:
            J = Jet2.from_matrix(A)
            lam = np.linalg.eigvalsh(A.entries)
            g = functools.partial(F.spectrum, J.r, J.p)
            keep, flip = ref_doubling_bracket(lambda t: g(lam - t) >= 0.0, jet_norm(J) + 1.0)
            brent = brent_root(g, lam, keep, flip, tol)
            got = canonical_operator(F, A, tol=tol)
            assert abs(got - brent) <= tol * (1.0 + abs(brent))
            t_lo, t_hi = ref_canonical_bracket(F, A, tol)
            rounding = 1e-13 * max(1.0, abs(got))
            assert t_lo - rounding <= got <= t_hi + rounding


def counting_bisections(monkeypatch) -> list:
    """The brackets canonical's bisect_brackets calls start from, from now
    on in the test."""
    started = []
    bisect = canonical_module.bisect_brackets

    def counted(keeps, brackets, done):
        started.extend(brackets)
        return bisect(keeps, brackets, done)

    monkeypatch.setattr(canonical_module, "bisect_brackets", counted)
    return started


def test_spectral_canonical_falls_back_to_bisection(monkeypatch):
    # sigma's f(lambda - t) is curved, so the secant step on the ladder's
    # bracket misses the certificate; so does pucci's at MIN_TOL on
    # matrices of scale 1e3, where the rounding of g outgrows the
    # certificate's margin. Both bisect the ladder's bracket
    fallbacks = counting_bisections(monkeypatch)
    sigma = make_oracle("sigma:k=2", 3)
    for tol in (1e-10, 1e-6, MIN_TOL):
        for A in spectral_queries(3, 47)[:120]:
            ev = np.linalg.eigvalsh(A.entries)
            t = sigma2_root(ev)
            fallbacks.clear()
            got = canonical_operator(sigma, A, tol=tol)
            assert len(fallbacks) == 1
            keep, flip = fallbacks[0]
            assert ev[0] <= keep < flip <= ev[-1]
            assert abs(got - t) <= tol * (1.0 + abs(t)) + 1e-13 * max(1.0, np.abs(ev).max())
    pucci = make_oracle("pucci:1,2", 2)
    fallbacks.clear()
    for A in spectral_queries(2, 29)[80:120]:
        t = pucci_root(np.linalg.eigvalsh(A.entries), 1.0, 2.0)
        assert abs(canonical_operator(pucci, A, tol=MIN_TOL) - t) <= 1e-13 * max(1.0, abs(t))
    assert fallbacks


@DUALS
@pytest.mark.parametrize("key, n, closed", SPECTRAL)
def test_spectral_canonical_at_a_multiple_eigenvalue(key, n, closed, dual):
    # at A = sI every eigenvalue is s, a point of the ladder; the crossing
    # is s for every family but quasiconvex, whose is s + 0.5 (s - 0.5 for
    # its dual). Rotated, the eigen-solve splits s by rounding
    F = spectral_fiber(key, n, dual)
    shift = 0.5 * (-1.0 if dual else 1.0) if key.startswith("quasiconvex") else 0.0
    q = np.linalg.qr(np.random.default_rng(53).standard_normal((n, n)))[0]
    for tol in (1e-10, 1e-6, MIN_TOL):
        for s in (0.0, 1.0, -2.5, 1e-300, 3e5, 1.0 / 3.0):
            for A in (SymMat(s * np.eye(n)), SymMat(q @ (s * np.eye(n)) @ q.T)):
                t = s + shift
                ev = np.linalg.eigvalsh(A.entries)
                rounding = np.abs(ev - s).max()
                got = canonical_operator(F, A, tol=tol)
                assert abs(got - t) <= tol * (1.0 + abs(t)) + n * rounding


def test_fibers_off_the_spectral_route_keep_the_bisection():
    for key, n in [("lagrangian", 4), ("failure:alpha=2,which=min", 2)]:
        assert make_oracle(key, n).spectrum is None
        assert dual_oracle(make_oracle(key, n)).spectrum is None
    for F in (pma_slice(2), all_jets(2)):
        assert F.spectrum is None
    # the dual of a spectral fiber is spectral (see the dual tests below)
    assert dual_oracle(make_oracle("P", 2)).spectrum is not None
    # the spectral fibers that read r or p take the ladder too. Their g
    # can be 0 on an interval, as Q's min(-r, lambda_min - t) is below
    # lambda_min at r = 0; where such an interval ends off the ladder the
    # secant step stops at its bracket's keep end and the certificate
    # sends the bracket to the bisection. Each value has the outcome of
    # the bisection of the membership indicator (the walk,
    # ref_canonical_operator), within the bounds of the Brent comparison
    # above
    rng = np.random.default_rng(37)
    queries = spectral_queries(2, 37)[::4] + [random_jet(rng, 2, 1.5) for _ in range(6)]
    for key in MIXED_KEYS:
        for F in (make_oracle(key, 2), dual_oracle(make_oracle(key, 2))):
            assert F.spectrum is not None
            for tol in (1e-10, 1e-6):
                got = [outcome(canonical_operator, F, A, tol=tol) for A in queries]
                want = [outcome(ref_canonical_operator, F, A, tol=tol) for A in queries]
                assert [v == "BracketingFailure" for v in got] == \
                    [v == "BracketingFailure" for v in want], F.label
                for A, v, t in zip(queries, got, want):
                    if v == "BracketingFailure":
                        continue
                    v, t = float.fromhex(v), float.fromhex(t)
                    assert abs(v - t) <= tol * (1.0 + abs(t)), F.label
                    t_lo, t_hi = ref_canonical_bracket(F, A, tol)
                    rounding = 1e-13 * max(1.0, abs(v))
                    assert t_lo - rounding <= v <= t_hi + rounding, F.label
    # with its spectrum dropped, Q takes the form route on the same ladder
    Q = replace(make_oracle("Q", 2), spectrum=None)
    for A in spectral_queries(2, 37)[::4]:
        assert float.hex(canonical_operator(Q, A)) == float.hex(ref_ladder_canonical(Q, A))


def trace_on_P(n):
    """The induced fiber {J in P : tr(A) >= 0}."""
    return induced_fiber(lambda r, p, A: np.trace(A, axis1=-2, axis2=-1), make_oracle("P", n),
                         n, Arity.PURE_SECOND_ORDER, "trace on P")


# fibers without a spectrum
FORM_FIBERS = [
    pytest.param(lambda: garding_cone_oracle(sigma_k_operator(3, 2)), id="sigma-cone"),
    pytest.param(lambda: branch_oracle(det_operator(3), 2), id="det-branch2"),
    pytest.param(lambda: make_oracle("lagrangian", 4), id="lagrangian"),
    pytest.param(lambda: dual_oracle(make_oracle("lagrangian", 4)), id="lagrangian-dual"),
    pytest.param(lambda: make_oracle("failure:alpha=2,which=min", 2), id="failure-min"),
    pytest.param(lambda: make_oracle("failure:alpha=2,which=max", 2), id="failure-max"),
    pytest.param(lambda: trace_on_P(3), id="induced"),
]


def form_queries(F, rng, count):
    """count random jets of F's dimension, a third each at scales 1e-3,
    1.5 and 1e3; a jet with value and gradient for a full fiber, a matrix
    otherwise."""
    queries = []
    for scale in (1e-3, 1.5, 1e3):
        for _ in range(count // 3):
            J = random_jet(rng, F.n, scale)
            queries.append(J if F.arity is Arity.FULL else J.A)
    return queries


@pytest.mark.parametrize("make", FORM_FIBERS)
def test_form_route_is_its_jet2_reference_and_within_tol_of_the_walk(make):
    # every value of a fiber without a spectrum: bit for bit the ladder
    # with one F.value per rung (ref_ladder_canonical), the walk's outcome,
    # and within tol * (1 + |t|) of the walk's value
    F = make()
    assert F.spectrum is None
    rng = np.random.default_rng(151)
    values = 0
    for A in form_queries(F, rng, 30):
        got = outcome(canonical_operator, F, A)
        assert got == outcome(ref_ladder_canonical, F, A), A
        walk = outcome(ref_canonical_operator, F, A)
        assert (got == "BracketingFailure") == (walk == "BracketingFailure"), A
        if got != "BracketingFailure":
            v, t = float.fromhex(got), float.fromhex(walk)
            assert abs(v - t) <= 1e-10 * (1.0 + abs(t)), A
            values += 1
    assert values > 0


def counting_forms(F, calls):
    """F with its form noting the shape of each stack of values it gives."""
    form = F.form

    def counted(r, p, A):
        calls.append(np.shape(r))
        return form(r, p, A)

    return replace(F, form=counted)


@pytest.mark.parametrize("make", FORM_FIBERS)
def test_form_route_takes_two_form_calls(make):
    # the g of each of these fibers is linear in t up to rounding, so the
    # secant step's certificate holds: one stacked form call on the
    # ladder, one on the certificate's two points, and no bisection
    F = make()
    rng = np.random.default_rng(157)
    for A in form_queries(F, rng, 30):
        calls = []
        got = outcome(canonical_operator, counting_forms(F, calls), A)
        if got != "BracketingFailure":
            assert len(calls) == 2 and calls[1] == (1, 2), (A, calls)
            assert got == outcome(canonical_operator, F, A)


@pytest.mark.parametrize("make", FORM_FIBERS)
def test_form_route_builds_its_direction_once(make, monkeypatch):
    # the direction I of the form route is built, and its SymMat
    # validated, once per dimension: a second value validates nothing
    F = make()
    A = form_queries(F, np.random.default_rng(163), 3)[1]
    first = outcome(canonical_operator, F, A)
    validated = []
    real = jets_module._as_symmetric
    monkeypatch.setattr(jets_module, "_as_symmetric",
                        lambda a: validated.append(np.shape(a)) or real(a))
    assert outcome(canonical_operator, F, A) == first
    assert validated == []


def test_bisected_canonical_where_g_vanishes_on_an_interval():
    # g(t) = min(-0, 2 - t - |p|) is 0 for every t <= 1; the ladder's
    # secant step stops at the keep end 0 of its bracket (0, 2), the
    # certificate fails there, and the bisection finds the crossing, on
    # the fiber and with its arity forced to pure second order alike
    F = make_oracle("M:gamma=0,D=full,R=1", 2)
    J = Jet2(0.0, [0.6, 0.8], np.diag([2.0, 3.0]))
    assert abs(canonical_operator(F, J) - 1.0) <= 1e-10
    assert canonical_operator(replace(F, arity=Arity.PURE_SECOND_ORDER), J) == 1.0


def counting_solves(monkeypatch) -> list:
    """The number of matrices each eigenvalues call solves, from now on in
    the test: catalog's, canonical's and the jet norm's (jets module)."""
    solved = []
    eigenvalues = jets_module.eigenvalues

    def counted(A):
        solved.append(int(np.prod(np.shape(A)[:-2])))
        return eigenvalues(A)

    for module in (catalog_module, canonical_module, jets_module):
        monkeypatch.setattr(module, "eigenvalues", counted)
    return solved


@pytest.mark.parametrize("dual", [False, True], ids=["F", "dual"])
@pytest.mark.parametrize("key", MIXED_KEYS)
def test_bisected_spectral_canonical_solves_one_matrix_per_call(key, dual, monkeypatch):
    F = spectral_fiber(key, 2, dual)
    solved = counting_solves(monkeypatch)
    rng = np.random.default_rng(61)
    for A in spectral_queries(2, 61)[::8] + [random_jet(rng, 2, 1.5) for _ in range(4)]:
        solved.clear()
        outcome(canonical_operator, F, A)
        assert solved == [1]


@pytest.mark.parametrize("key", ["P", "pfold:p=2", "pucci:1,2", "sigma:k=2"])
def test_ladder_spectral_canonical_solves_one_matrix_per_call(key, monkeypatch):
    F = make_oracle(key, 3)
    solved = counting_solves(monkeypatch)
    for A in spectral_queries(3, 71)[::8]:
        solved.clear()
        outcome(canonical_operator, F, A)
        assert solved == [1]


@pytest.mark.parametrize("M, n", [
    (MonotonicityCone(0.0, DirectionalCone.full(), math.inf), 3),
    (MonotonicityCone(2.0, DirectionalCone.orthant([0]), 0.5), 2),
    (MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0), 2),
], ids=["full", "orthant", "half"])
def test_cone_members_solve_one_matrix_per_mixed_row(M, n, monkeypatch):
    J = random_jets(np.random.default_rng(67), n, 30, 2.0)
    extreme = np.arange(30) % 3 == 0
    solved = counting_solves(monkeypatch)
    _cone_members(M, n, J, extreme)
    assert solved == [int(np.count_nonzero(~extreme))]
    solved.clear()
    _cone_members(M, n, J, np.ones(30, dtype=bool))
    assert sum(solved) == 0


@pytest.mark.parametrize("tol", [0.0, -1.0, 1e-20, MIN_TOL / 2, math.nan, math.inf])
def test_canonical_tol_out_of_range(tol):
    for key in ("P", "Q"):
        with pytest.raises(BadParameters):
            canonical_operator(make_oracle(key, 2), SymMat.diag(1.0, 2.0), tol=tol)


def test_canonical_at_the_smallest_tol():
    # both routes stop at MIN_TOL, also next to a multiple root
    A = SymMat.diag(1.0, 2.0)
    assert canonical_operator(make_oracle("P", 2), A, tol=MIN_TOL) == 1.0
    assert abs(canonical_operator(make_oracle("Q", 2), A, tol=MIN_TOL) - 1.0) <= 4 * MIN_TOL
    sigma3 = make_oracle("sigma:k=3", 3)
    for t in (0.0, 1.0, -2.5):
        got = canonical_operator(sigma3, SymMat(t * np.eye(3)), tol=MIN_TOL)
        assert abs(got - t) <= 2 * MIN_TOL * max(1.0, abs(t))


# --- spectral duals and the eigenvalue route of the boundary shifts ----------

SPECTRAL_KEYS = ["P", "P~", "branch:k=2", "pfold:p=2", "sigma:k=2", "pucci:1,2",
                 "quasiconvex:0.5"]
SPECTRAL_FIBERS = [pytest.param(key, n, id=f"{key}-{n}d") for key in SPECTRAL_KEYS
                   for n in (2, 3)]
ALL_SPECTRAL_FIBERS = SPECTRAL_FIBERS + [pytest.param(key, n, id=f"{key}-{n}d")
                                         for key in MIXED_KEYS for n in (2, 3)]


@pytest.mark.parametrize("key, n", ALL_SPECTRAL_FIBERS)
def test_dual_spectrum_is_the_dual_form(key, n):
    # -f(-r, -p, -lambda reversed) against -f(-r, -p, eigenvalues(-A)):
    # equal up to the rounding of the two eigen-solves; the double dual's
    # spectrum is f
    F = make_oracle(key, n)
    Fd = dual_oracle(F)
    mats = np.array([A.entries for A in spectral_queries(n, 41)])
    rng = np.random.default_rng(41)
    r, p = rng.standard_normal(len(mats)), rng.standard_normal((len(mats), n))
    lam = np.linalg.eigvalsh(mats)
    got, form = Fd.spectrum(r, p, lam), Fd.values(r, p, mats)
    bound = 1e-12 * (1.0 + np.abs(lam).max(axis=-1))
    assert got.shape == form.shape and np.all(np.abs(got - form) <= bound)
    assert np.array_equal(dual_oracle(Fd).spectrum(r, p, lam), F.spectrum(r, p, lam))


@pytest.mark.parametrize("key, n", SPECTRAL_FIBERS)
def test_dual_canonical_by_brent_matches_the_bisection(key, n):
    # the dual's ladder value against the bisection of its membership
    # indicator
    Fd = dual_oracle(make_oracle(key, n))
    for tol in (1e-10, 1e-6):
        for A in spectral_queries(n, 43)[::3]:
            t = ref_canonical_operator(Fd, A, tol=tol)
            assert abs(canonical_operator(Fd, A, tol=tol) - t) <= 2 * tol * max(1.0, abs(t))


@pytest.mark.parametrize("n", [2, 3])
def test_dual_of_P_canonical_is_lambda_max(n):
    Fd = dual_oracle(make_oracle("P", n))
    for A in spectral_queries(n, 47):
        t = float(np.linalg.eigvalsh(A.entries)[-1])
        assert abs(canonical_operator(Fd, A) - t) <= 1e-13 * max(1.0, abs(t))


def monotonicity_cone(key, n):
    """The MonotonicityCone of an M key."""
    _, params = bind_key(key, REGISTRY, "catalog")
    return MonotonicityCone(params["gamma"], parse_directional_cone(params["D"], n), params["R"])


def shift_rays(n, M=None):
    """J0 = I, the interior jets of two monotonicity cones, M_FULL and M
    (by default M(1, half:e1, 1); Hessians I and 2I there, with r and p
    parts), and c*I for c = 0.5, 3 and -1 (along which no jet of a
    positively monotone fiber crosses)."""
    eye = np.eye(n)
    M = M or MonotonicityCone(1.0, DirectionalCone.halfspace([1.0] + [0.0] * (n - 1)), 1.0)
    return [Jet2.from_matrix(SymMat.identity(n)), M_FULL.interior_jet(n), M.interior_jet(n),
            Jet2(0.0, np.zeros(n), 0.5 * eye), Jet2(0.3, np.ones(n), 3.0 * eye),
            Jet2(0.0, np.zeros(n), -eye)]


def shift_queries(n, seed, count=40):
    rng = np.random.default_rng(seed)
    jets = [random_jet(rng, n, 1.5) for _ in range(count // 2)]
    jets += [Jet2(rng.standard_normal(), rng.standard_normal(n), heavy_tail_symmetric(rng, n))
             for _ in range(count - count // 2)]
    return jets, (np.abs(rng.standard_normal(count)) + 1e-3).tolist()


@pytest.mark.parametrize("dual", [False, True], ids=["F", "dual"])
@pytest.mark.parametrize("key, n", ALL_SPECTRAL_FIBERS)
def test_eigenvalue_shifts_match_the_fan_route(key, n, dual):
    F = dual_oracle(make_oracle(key, n)) if dual else make_oracle(key, n)
    fan = replace(F, spectrum=None)
    # both searches end within tol of a crossing, and the two crossings
    # differ by the rounding of the eigen-solves. An M fiber shifts along
    # its own interior jet: along another M cone's, its terms -r - gamma|p|
    # and lambda_1 - |p|/R can tend to constants (see
    # test_rounding_placed_crossings_are_no_crossings)
    M = monotonicity_cone(key, n) if key.startswith("M:") else None
    jets, margins = shift_queries(n, 53)
    # and jets with p = 0, where M0 (empty interior) has its members
    jets += [Jet2(J.r, np.zeros(n), J.A) for J in jets[:10]]
    margins += margins[:10]
    crossed = 0
    for J0 in shift_rays(n, M):
        # on the boundary (zero margins) the moved jets differ by
        # (t_fast - t_slow) * J0; past it, the same ones are members
        for tol in (SHIFT_TOL, 1e-4):
            fast = shift_jets(F, jets, J0, [0.0] * len(jets), tol=tol)
            slow = shift_jets(fan, jets, J0, [0.0] * len(jets), tol=tol)
            assert [K is None for K in fast] == [K is None for K in slow]
            for K, L in zip(fast, slow):
                if K is not None:
                    gap = jet_norm(K + (-L))
                    assert gap <= (tol + 1e-12 * (1.0 + jet_norm(L))) * jet_norm(J0)
                    crossed += 1
        got = shift_jets(F, jets, J0, margins, member_tol=DEFAULT_TOL)
        ref = shift_jets(fan, jets, J0, margins, member_tol=DEFAULT_TOL)
        assert [K is None for K in got] == [K is None for K in ref]
        for K, L in zip(got, ref):
            if K is not None:
                gap = jet_norm(K + (-L))
                assert gap <= (SHIFT_TOL + 1e-12 * (1.0 + jet_norm(L))) * jet_norm(J0)
    # the dual of M0, whose interior is empty, is the whole jet space
    assert crossed or (key, dual) == ("M0", True)


@pytest.mark.parametrize("dual", [False, True], ids=["F", "dual"])
def test_rounding_placed_crossings_are_no_crossings(dual, monkeypatch):
    # M(2, orth:1, 0.5) along the interior jet of M(1, half:e1, 1): its
    # terms -r - 2|p| and lambda_1 - 2|p| tend to constants, so past
    # |J|/sqrt(eps) the sign of the functional is the rounding's, and the
    # two routes placed crossings near t ~ 1e15 apart (or on one route
    # only). Both report none there now, and agree on the rest
    F = make_oracle("M:gamma=2,D=orth:1,R=0.5", 2)
    F = dual_oracle(F) if dual else F
    fan = replace(F, spectrum=None)
    J0 = shift_rays(2)[2]
    jets, _ = shift_queries(2, 53)
    jets += [Jet2(J.r, np.zeros(2), J.A) for J in jets[:10]]
    zero = [0.0] * len(jets)
    for tol in (SHIFT_TOL, 1e-4):
        fast = shift_jets(F, jets, J0, zero, tol=tol)
        slow = shift_jets(fan, jets, J0, zero, tol=tol)
        assert [K is None for K in fast] == [K is None for K in slow]
        for K, L, J in zip(fast, slow, jets):
            if K is not None:
                assert jet_norm(K + (-L)) <= (tol + 1e-12 * (1.0 + jet_norm(L))) * jet_norm(J0)
                # |A|_F is at most sqrt(2) times the spectral norm in 2-D
                reach = ROUNDING_REACH * math.sqrt(2.0) * max(1.0, jet_norm(J))
                assert jet_norm(K + (-J)) <= reach
    # without the reach the routes part
    monkeypatch.setattr(catalog_module, "ROUNDING_REACH", math.inf)
    fast = shift_jets(F, jets, J0, zero)
    slow = shift_jets(fan, jets, J0, zero)
    assert [None if K is None else hexes(K) for K in fast] != \
        [None if K is None else hexes(K) for K in slow]
    assert max(jet_norm(K + (-J)) for K, J in zip(fast + slow, jets + jets)
               if K is not None) > 1e14 * jet_norm(J0)


def recording(F, calls, spectrum):
    """F with its spectrum or without, its form noting each stack's shape."""
    def form(r, p, A):
        calls.append(np.shape(r))
        return F.form(r, p, A)
    return replace(F, form=form, spectrum=F.spectrum if spectrum else None)


@pytest.mark.parametrize("spectral", [True, False], ids=["eigenvalue", "fan"])
def test_into_fibers_keeps_members_and_drops_failed_shifts(spectral, monkeypatch):
    # the dual of quasiconvex:1e8 holds the jets with lambda_max(A) >= 1e8.
    # In one stack: a jet that moves in, a member, a jet whose crossing
    # lies 1e8 along I (past ROUNDING_REACH from a jet of norm 0), a jet
    # moved to 0.2 outside by its negative margin, and one more member
    F = dual_oracle(make_oracle("quasiconvex:1e8", 2))
    F = F if spectral else replace(F, spectrum=None)
    J0 = Jet2.from_matrix(SymMat.identity(2))
    jets = [Jet2(0.3, [1.0, 2.0], np.diag([1e8 - 1.0, -2.0])),
            Jet2(-0.5, [0.0, 1.0], np.diag([2e8, 1.0])),
            Jet2.zero(2),
            Jet2(0.3, [1.0, 2.0], np.diag([1e8 - 1.0, -2.0])),
            Jet2(1.0, [0.0, 0.0], np.diag([1.0, 3e8]))]
    margins = np.array([0.5, 0.5, 0.5, -0.2, 0.5])
    rows, kept = into_fibers(F, stack_jets(jets, 2), J0, margins)
    K = unstack_jets(*kept)
    assert rows.tolist() == [0, 1, 4]
    # members stay as drawn, bit for bit; the moved jet is a member
    assert [hexes(L) for L in K[1:]] == [hexes(jets[1]), hexes(jets[4])]
    assert F.classify(K[0]).is_member
    assert hexes(K[0]) == hexes(shift_jets(F, jets[:1], J0, [0.5])[0])
    # the two dropped rows: no crossing within the reach, and a moved jet
    # outside the fiber
    moved = shift_jets(F, jets, J0, margins.tolist())
    assert moved[2] is None
    assert not F.classify(moved[3]).is_member
    monkeypatch.setattr(catalog_module, "ROUNDING_REACH", math.inf)
    assert shift_jets(F, jets[2:3], J0, [0.5])[0] is not None


@pytest.mark.parametrize("key, n", [("P", 2), ("pucci:1,2", 3), ("sigma:k=2", 3)])
def test_shifts_off_a_scalar_hessian_take_the_fan_route(key, n):
    # the eigenvalue route calls the form for the moved jets only; a J0
    # with a non-scalar Hessian probes the form along the ray, bit for bit
    # as the search without spectrum
    F = make_oracle(key, n)
    jets, margins = shift_queries(n, 59, 12)
    off_diagonal = np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    for A0, fan in [(np.eye(n), False), (np.diag(np.linspace(1.0, 2.0, n)), True),
                    (off_diagonal, True)]:
        J0 = Jet2.from_matrix(A0)
        calls, ref_calls = [], []
        got = shift_jets(recording(F, calls, True), jets, J0, margins, member_tol=DEFAULT_TOL)
        ref = shift_jets(recording(F, ref_calls, False), jets, J0, margins,
                         member_tol=DEFAULT_TOL)
        if fan:
            assert calls == ref_calls
            assert [None if K is None else hexes(K) for K in got] == \
                [None if K is None else hexes(K) for K in ref]
        else:
            # one call: the moved jets' membership
            assert len(calls) == 1 and len(calls[0]) == 1 and len(ref_calls) > 1


@pytest.mark.parametrize("M, n, scale", [
    (MonotonicityCone(0.0, DirectionalCone.full(), math.inf), 3, 1.5),
    (MonotonicityCone(2.0, DirectionalCone.orthant([0]), 0.5), 2, 3.0),
    (MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0), 2, 1e8),
], ids=["full", "orthant", "past-1e6"])
def test_sample_cone_member_mixing_on_more_cones(M, n, scale):
    for seed in range(6):
        got = mixed_cone_member(M, np.random.default_rng(seed), n, scale)
        ref = ref_sample_cone_member(M, np.random.default_rng(seed), n, scale)
        assert (got is None) == (ref is None)
        if got is not None:
            assert hexes(got) == hexes(ref)


# --- check_monotonicity and check_jet_addition against the per-sample loops --

M_FULL = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
M_HALF = MonotonicityCone(0.0, DirectionalCone.halfspace([1.0, 0.0]), math.inf)


def empty_fiber(n):
    return FiberOracle("empty", n, Arity.PURE_SECOND_ORDER, None,
                       lambda r, p, A: np.full(np.shape(r), -1.0))


def gradient_capped(n):
    """min(lambda_min(A), 1 - |p|): no shift along M_FULL's interior jet,
    which leaves p alone, reaches the fiber from |p| > 1."""
    return FiberOracle("capped", n, Arity.FULL, None,
                       lambda r, p, A: np.minimum(np.linalg.eigvalsh(A)[..., 0],
                                                  1.0 - np.sqrt(np.sum(p * p, axis=-1))))


def eigenvalue_band(n):
    """min(lambda_min(A), 1 - lambda_max(A)): along M_FULL's interior jet
    the members form a window of width 1 - (lambda_max - lambda_min), so
    a shift that finds the window often steps past it by its margin and
    the moved jet is no member."""
    def form(r, p, A):
        ev = np.linalg.eigvalsh(A)
        return np.minimum(ev[..., 0], 1.0 - ev[..., -1])

    return FiberOracle("band", n, Arity.PURE_SECOND_ORDER, None, form)


def affine_sphere(f_field):
    return fiber_affine_sphere(Box([-1, -1], [1, 1]), f_field, n=2)


def half_plane_ot(f_field):
    """Optimal-transport fibers with p in the half plane p1 >= 0: a shift
    along M_FULL's interior jet never repairs p1 < 0."""
    return fiber_optimal_transport(Box([-1, -1], [1, 1]), lambda p: np.ones(np.shape(p)[:-1]),
                                   DirectionalCone.halfspace([1.0, 0.0]), f_field, n=2)


def same_report(got, ref):
    assert got.to_json_dict() == ref.to_json_dict()
    assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)
    assert [hexes(w) for w in got.witnesses] == [hexes(w) for w in ref.witnesses]


CHECK_CASES = [
    pytest.param(lambda: make_oracle("P", 3), M_FULL, id="P3"),
    pytest.param(lambda: make_oracle("Q", 2), M_FULL, id="Q2"),
    pytest.param(lambda: make_oracle("pucci:1,2", 2), M_FULL, id="pucci"),
    pytest.param(lambda: make_oracle("failure:alpha=2,which=min", 2), M_HALF, id="failure"),
    pytest.param(lambda: affine_sphere(lambda x: 0.5), M_FULL, id="affine-sphere"),
    pytest.param(lambda: gradient_capped(2), M_FULL, id="capped"),
    pytest.param(lambda: empty_fiber(2), M_FULL, id="empty"),
    pytest.param(lambda: eigenvalue_band(2), M_FULL, id="band"),
]


@pytest.mark.parametrize("seed", [29, 4])
@pytest.mark.parametrize("make, M", CHECK_CASES)
def test_check_monotonicity_matches_per_sample_loop(make, M, seed):
    F = make()
    got = check_monotonicity(F, M, samples=160, seed=seed)
    same_report(got, ref_check_monotonicity(F, M, samples=160, seed=seed))
    if F.label == "empty":
        assert got.checked == 0
    if F.key and F.key.startswith("failure"):
        assert got.witnesses


def test_an_empty_sample_is_not_a_pass():
    # no random jet reaches the empty fiber, so nothing is checked
    rep = check_monotonicity(empty_fiber(2), M_FULL, samples=160, seed=29)
    assert rep.checked == 0
    assert not rep.ok
    with pytest.raises(ValueError, match="no sample reached F"):
        check_jet_addition(empty_fiber(2), M_FULL, samples=120, seed=31)


def report_or_refusal(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("make, M", CHECK_CASES[:4] + CHECK_CASES[5:])
def test_check_jet_addition_matches_per_sample_loop(make, M):
    # the failure example and the capped fiber are not monotone: the
    # precheck refuses them, with the same count of violations; the sample
    # without the precheck (_jet_addition) matches on them too
    F = make()
    for precheck in (True, False):
        got = report_or_refusal(check_jet_addition if precheck else _jet_addition, F, M,
                                samples=120, seed=31)
        ref = report_or_refusal(ref_check_jet_addition, F, M, samples=120, seed=31,
                                precheck=precheck)
        if isinstance(ref, str):
            assert precheck and got == ref
        else:
            same_report(got, ref)


M_HALF_R1 = MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0)


@pytest.mark.parametrize("seed", [29, 3, 8])
@pytest.mark.parametrize("key, M", [("Q", M_FULL), ("Q~", M_FULL), (M_HALF_R1.key(), M_HALF_R1)],
                         ids=["Q", "Q~", "M"])
def test_spectral_shifts_keep_the_check_reports(key, M, seed):
    # the checks shift along M's interior jet, whose Hessian is a multiple
    # of I: the eigenvalue route must give the reports of the ray route
    F = make_oracle(key, 2)
    fan = replace(F, spectrum=None)
    for check in (check_monotonicity, check_jet_addition):
        got = report_or_refusal(check, F, M, samples=120, seed=seed)
        ref = report_or_refusal(check, fan, M, samples=120, seed=seed)
        assert not isinstance(got, str)
        same_report(got, ref)


def test_monotonicity_at_the_default_sizes():
    # test_duality's cases at their sample counts and seeds
    for F, M, samples in [(make_oracle("P", 3), M_FULL, 400),
                          (affine_sphere(lambda x: 0.5), M_FULL, 300),
                          (make_oracle("failure:alpha=2,which=min", 2), M_HALF, 400)]:
        same_report(check_monotonicity(F, M, samples=samples),
                    ref_check_monotonicity(F, M, samples=samples))


@pytest.mark.parametrize("max_expand", [3, 60])
def test_lockstep_shifts_keep_each_jets_margin_around_failures(max_expand):
    # jets with |p| > 1 never reach the capped fiber, and at max_expand 3
    # far jets find no crossing either: every other jet keeps its own
    # margin and its own membership verdict, as the per-jet shift gives
    F = gradient_capped(2)
    J0 = M_FULL.interior_jet(2)
    rng = np.random.default_rng(61)
    jets = [Jet2(rng.standard_normal(), 0.7 * rng.standard_normal(2),
                 random_symmetric(rng, 2, 6.0)) for _ in range(40)]
    margins = (np.abs(rng.standard_normal(40)) + 1e-3).tolist()
    refs = [ref_shift_to_boundary(F, J, J0, margin=m, max_expand=max_expand)
            for J, m in zip(jets, margins)]
    assert 5 < sum(K is None for K in refs) < 35
    got = shift_jets(F, jets, J0, margins, max_expand=max_expand)
    assert [None if K is None else hexes(K) for K in got] == \
        [None if K is None else hexes(K) for K in refs]
    # member_tol -0.2 keeps the moved jets with g >= 0.2, about half of them
    kept = shift_jets(F, jets, J0, margins, max_expand=max_expand, member_tol=-0.2)
    verdicts = [K is not None and F.value(K) >= 0.2 for K in refs]
    assert 3 < sum(verdicts) < sum(K is not None for K in refs) - 3
    assert [None if K is None else hexes(K) for K in kept] == \
        [hexes(K) if ok else None for K, ok in zip(refs, verdicts)]


@pytest.mark.parametrize("gamma", [1e6, 1e8])
def test_monotonicity_of_M_at_large_gamma(gamma, monkeypatch):
    # the mixing ladder ends at t ~ 1.05e6, where many cone jets of a
    # large gamma are still outside M; such a sample is dropped, as a
    # failed shift is, instead of being checked with a jet outside M
    M = MonotonicityCone(gamma, DirectionalCone.halfspace([1.0, 0.0]), math.inf)
    F = cone_M(M, 2)
    got = check_monotonicity(F, M, samples=200)
    assert got.ok and got.checked > 0
    # the per-sample loop has no ROUNDING_REACH; without it the two agree
    monkeypatch.setattr(catalog_module, "ROUNDING_REACH", math.inf)
    same_report(check_monotonicity(F, M, samples=200),
                ref_check_monotonicity(F, M, samples=200))


def test_failed_shifts_drop_only_their_samples():
    # three in four shifts fail; each failure drops its own sample and
    # leaves every other sample's draws where they were
    F = gradient_capped(3)
    for seed in range(3):
        got = check_monotonicity(F, M_FULL, samples=60, seed=seed)
        same_report(got, ref_check_monotonicity(F, M_FULL, samples=60, seed=seed))
        assert 0 < got.checked < 30


def error_of(check, *args, **kwargs):
    with pytest.raises(NegativeSource) as e:
        check(*args, **kwargs)
    return str(e.value)


@pytest.mark.parametrize("make", [affine_sphere, half_plane_ot], ids=["affine-sphere", "ot"])
def test_bad_point_raises_the_per_sample_error(make):
    # f < 0 on a strip of the box: the first point drawn there raises,
    # the one the per-sample loop reaches first, though the check
    # classifies every point's jet in one call
    theta = make(lambda x: x[..., 0] + 0.9)
    for seed in (29, 3):
        got = error_of(check_monotonicity, theta, M_FULL, samples=200, seed=seed)
        assert got == error_of(ref_check_monotonicity, theta, M_FULL, samples=200, seed=seed)
        assert got.startswith("f(")


def test_variable_fibers_without_bad_points_match():
    theta = half_plane_ot(lambda x: 0.2 + 0.1 * x[..., 1])
    for seed in (29, 3):
        got = check_monotonicity(theta, M_FULL, samples=120, seed=seed)
        same_report(got, ref_check_monotonicity(theta, M_FULL, samples=120, seed=seed))
        assert 0 < got.checked < 120


@pytest.mark.parametrize("key, n", [("P", 3), ("Q", 2), ("pucci:1,2", 2)])
def test_verify_arguments_pass_at_20_seeds(key, n):
    # the benchmark's monotonicity and jet-addition calls: 200 and 100
    # samples against M(0, full, inf)
    F = make_oracle(key, n)
    for seed in range(20):
        mono = check_monotonicity(F, M_FULL, samples=200, seed=seed)
        assert mono.ok and mono.checked > 100
        add = check_jet_addition(F, M_FULL, samples=100, seed=seed)
        assert add.ok and add.checked > 0
