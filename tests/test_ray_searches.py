"""The line searches and the involution check against the Jet2 route.

canonical_operator, signed_distance, shift_to_boundary and
check_involution evaluate oracles on arrays along a ray (ray_values) and
on stacks (FiberOracle.values). The references below are the same
algorithms written with Jet2 arithmetic and one oracle.value per probe;
every returned value, jet and report must match them bit for bit.
"""

import math

import numpy as np
import pytest

from jetcones.canonical import SEARCH_RADIUS, _jet_directions, canonical_operator, signed_distance
from jetcones.catalog import (
    DirectionalCone,
    MonotonicityCone,
    make_oracle,
    ray_values,
    shift_to_boundary,
)
from jetcones.duality import CheckReport, check_involution, dual_oracle, sample_cone_member
from jetcones.errors import BracketingFailure
from jetcones.jets import Jet2, SymMat, jet_norm, random_jet, random_symmetric


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


def ref_signed_distance(F, J, directions=256, tol=1e-9, seed=53, cap=SEARCH_RADIUS):
    inside = F.value(J) >= 0.0

    def crossing(U):
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

    best = None
    for U in _jet_directions(J.n, directions, seed, F.arity):
        s = crossing(U)
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
        rng = np.random.default_rng(seed)
        J0, J, t = M.interior_jet(2), random_jet(rng, 2, 2.0), 0.0
        while not oracle.contains(J + t * J0) and t < 1e6:
            t = 2.0 * t + 0.5
        assert hexes(got) == hexes(J + t * J0)


@pytest.mark.parametrize("samples", [0, 1, 200])
@pytest.mark.parametrize("make", ORACLES)
def test_check_involution_matches_jet2_route(make, samples):
    F = make()
    got = check_involution(F, samples=samples, seed=3)
    ref = ref_check_involution(F, samples=samples, seed=3)
    assert got.to_json_dict() == ref.to_json_dict()
    assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)

