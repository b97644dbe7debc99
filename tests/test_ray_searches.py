"""The line searches and the involution check against the Jet2 route.

canonical_operator, signed_distance, shift_to_boundary, the mixing loop
of sample_cone_member and check_involution evaluate oracles on arrays
along a ray (ray_values, fan_values) and on stacks (FiberOracle.values).
The searches probe whole doubling brackets per call and walk
BISECTION_DEPTH levels of each bisection tree per call, signed_distance
for all directions in lockstep (catalog.bisect_brackets). The references
below are the one-probe-at-a-time loops written with Jet2 arithmetic and
one oracle.value per probe; every returned value, jet and report must
match them bit for bit. Probes past the point where such a loop would
stop must not warn either, so RuntimeWarnings are errors here.
"""

import math

import numpy as np
import pytest

from jetcones.canonical import (
    SEARCH_RADIUS,
    _crossings,
    _jet_directions,
    canonical_operator,
    induced_fiber,
    signed_distance,
)
from jetcones.catalog import (
    Arity,
    DirectionalCone,
    MonotonicityCone,
    bisect_brackets,
    make_oracle,
    ray_values,
    shift_to_boundary,
)
from jetcones.duality import CheckReport, check_involution, dual_oracle, sample_cone_member
from jetcones.errors import BracketingFailure
from jetcones.jets import Jet2, SymMat, jet_norm, random_jet, random_symmetric


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
    J = A if isinstance(A, Jet2) else Jet2.from_matrix(A)
    eyeJ = Jet2.from_matrix(SymMat.identity(J.n))

    def member(t):
        return F.value(J + (-t) * eyeJ) >= 0.0

    span = jet_norm(J) + 1.0
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
    while abs(t_hi - t_lo) > tol * max(1.0, abs(t_lo) + abs(t_hi)):
        mid = 0.5 * (t_lo + t_hi)
        if member(mid):
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


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


def ref_shift_to_boundary(oracle, J, J0, margin=1e-6, tol=1e-9, max_expand=60):
    t_in, t_out, t = None, None, 0.0
    if oracle.contains(J, tol):
        t_in, step = 0.0, -1.0
        for _ in range(max_expand):
            t += step
            if not oracle.contains(J + t * J0, tol):
                t_out = t
                break
            t_in = t
            step *= 2.0
    else:
        t_out, step = 0.0, 1.0
        for _ in range(max_expand):
            t += step
            if oracle.contains(J + t * J0, tol):
                t_in = t
                break
            t_out = t
            step *= 2.0
    if t_in is None or t_out is None:
        return None
    for _ in range(60):
        mid = 0.5 * (t_in + t_out)
        if oracle.contains(J + mid * J0, tol):
            t_in = mid
        else:
            t_out = mid
        if abs(t_in - t_out) < tol:
            break
    return J + (t_in + margin) * J0


def ref_sample_cone_member(M, rng, n, scale):
    oracle = make_oracle(M.key(), n)
    J0, J, t = M.interior_jet(n), random_jet(rng, n, scale), 0.0
    while not oracle.contains(J + t * J0) and t < 1e6:
        t = 2.0 * t + 0.5
    return J + t * J0


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


def ref_check_involution(F, samples=1000, seed=23, tol=1e-8, scale=1.5):
    rng = np.random.default_rng(seed)
    ddF = dual_oracle(dual_oracle(F))
    rep = CheckReport(name=f"involution[{F.key or F.label}]", seed=seed)
    for _ in range(samples):
        J = random_jet(rng, F.n, scale)
        r1 = F.classify(J, tol)
        if r1.margin <= 3 * tol:
            rep.excluded_boundary += 1
            continue
        r2 = ddF.classify(J, tol)
        ok = r1.kind is r2.kind
        rep.record(ok, r1.margin, None if ok else J)
    return rep


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
    F = make()
    rng = np.random.default_rng(7)
    for _ in range(6):
        A = random_symmetric(rng, F.n, 1.5)
        assert float.hex(canonical_operator(F, A)) == float.hex(ref_canonical_operator(F, A))


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
        got = shift_to_boundary(F, J, J0, margin=margin)
        ref = ref_shift_to_boundary(F, J, J0, margin=margin)
        assert (got is None) == (ref is None)
        if got is not None:
            assert hexes(got) == hexes(ref)


def test_sample_cone_member_matches_jet2_mixing():
    M = MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0)
    oracle = make_oracle(M.key(), 2)
    for seed in range(10):
        got = sample_cone_member(M, np.random.default_rng(seed), 2, scale=2.0)
        ref = ref_sample_cone_member(M, np.random.default_rng(seed), 2, 2.0)
        assert hexes(got) == hexes(ref)
        assert oracle.contains(got)


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
    # must follow each tree exactly, not just find some crossing
    def keep_rows(rows, t):
        return np.floor(t * 1e3 + np.asarray(rows)[:, None]) % 3 != 0

    def done(a, b):
        return abs(a - b) < 1e-6

    rng = np.random.default_rng(17)
    brackets = [tuple(rng.uniform(-5.0, 5.0, 2).tolist()) for _ in range(40)]
    brackets += [(0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (-1e-7, 1e-7)]
    got = bisect_brackets(keep_rows, brackets, done, max_steps)
    for i, (a, b) in enumerate(brackets):
        ref = ref_bisect(lambda t: bool(keep_rows([i], np.array([[t]]))[0, 0]), a, b, done,
                         max_steps)
        assert tuple(map(float.hex, got[i])) == tuple(map(float.hex, ref))


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
    return induced_fiber(lambda J: 1.0, None, n, Arity.PURE_SECOND_ORDER, "all")


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
    got = shift_to_boundary(P, far, eyeJ, max_expand=max_expand)
    ref = ref_shift_to_boundary(P, far, eyeJ, max_expand=max_expand)
    # t = 1, 3, 7, 15, 31, 63, 127: the crossing at 100 needs seven doublings
    assert (got is None) == (ref is None) == (max_expand < 7)
    if got is not None:
        assert hexes(got) == hexes(ref)
    assert shift_to_boundary(all_jets(2), far, eyeJ, max_expand=max_expand) is None


def test_crossing_at_the_first_doubling_step():
    P = make_oracle("P", 2)
    # span = 4: A - 4I already leaves P
    A = SymMat.diag(0.5, 3.0)
    assert float.hex(canonical_operator(P, A)) == float.hex(ref_canonical_operator(P, A))
    # from outside, t = 1 already enters P
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    J = Jet2.from_matrix(SymMat.diag(-0.5, 2.0))
    assert hexes(shift_to_boundary(P, J, eyeJ)) == hexes(ref_shift_to_boundary(P, J, eyeJ))
    # from inside, t = -1 already leaves P
    J = Jet2.from_matrix(SymMat.diag(0.5, 2.0))
    assert hexes(shift_to_boundary(P, J, eyeJ)) == hexes(ref_shift_to_boundary(P, J, eyeJ))


def test_bracket_already_within_tol():
    P = make_oracle("P", 2)
    A = SymMat.diag(0.5, 3.0)
    # the doubling bracket (0, 4) meets the stop rule before any bisection step
    assert canonical_operator(P, A, tol=1.0) == 2.0 == ref_canonical_operator(P, A, tol=1.0)
    # shift_to_boundary and signed_distance stop only after a step, so a
    # bracket of width 1 against tol 2 still takes one
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    for J in (Jet2.from_matrix(SymMat.diag(-0.5, 2.0)), Jet2.from_matrix(SymMat.diag(0.5, 2.0))):
        got = shift_to_boundary(P, J, eyeJ, tol=2.0)
        assert hexes(got) == hexes(ref_shift_to_boundary(P, J, eyeJ, tol=2.0))
        inside = P.value(J) >= 0.0
        got = _crossings(P, J, inside, 16, 1.0, 53, SEARCH_RADIUS)
        ref = [ref_crossing(P, J, U, inside, tol=1.0) for U in _jet_directions(2, 16, 53, P.arity)]
        assert list(map(hex_or_none, got)) == list(map(hex_or_none, ref))


@pytest.mark.parametrize("M, n, scale", [
    (MonotonicityCone(0.0, DirectionalCone.full(), math.inf), 3, 1.5),
    (MonotonicityCone(2.0, DirectionalCone.orthant([0]), 0.5), 2, 3.0),
    (MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1.0), 2, 1e8),
], ids=["full", "orthant", "past-1e6"])
def test_sample_cone_member_mixing_on_more_cones(M, n, scale):
    for seed in range(6):
        got = sample_cone_member(M, np.random.default_rng(seed), n, scale=scale)
        ref = ref_sample_cone_member(M, np.random.default_rng(seed), n, scale)
        assert hexes(got) == hexes(ref)
