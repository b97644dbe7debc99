import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcones.catalog import (
    BISECTION_DEPTH,
    Arity,
    Box,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    RegionKind,
    branch,
    check_directionality,
    check_fiberegularity,
    check_negativity,
    check_positivity,
    cone_lagrangian,
    cone_M,
    cone_M0,
    cone_P,
    cone_P_dual,
    cone_pfold,
    cone_pucci,
    cone_Q,
    cone_Q_dual,
    cone_quasiconvex,
    cone_sigma_k,
    complex_structure,
    crossing_brackets,
    elementary_symmetric,
    fiber_affine_sphere,
    fiber_failure_example,
    fiber_optimal_transport,
    fiber_perturbed_MA,
    fiber_special_lagrangian,
    make_oracle,
    parse_key,
    phase_interval_index,
    REGISTRY,
    VariableFiberMap,
    members,
    skew_hermitian_mu,
)
from jetcones.duality import _cone_members
from jetcones.errors import (
    BadAlpha,
    BadParameters,
    DirectionalityViolation,
    IndexOutOfRange,
    OddDimension,
    ParseError,
    UnknownKey,
)
from jetcones.jets import Jet2, SymMat, random_jet, random_jets, random_symmetric
from jet2_refs import shift_jets

M_FULL = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)


def kind(oracle, jet):
    return oracle.classify(jet).kind


# --- constant-coefficient cones -------------------------------------------


def test_cone_P_examples():
    P = cone_P(2)
    assert kind(P, SymMat.identity(2)) is RegionKind.INTERIOR
    assert kind(P, SymMat.diag(0, 1)) is RegionKind.BOUNDARY
    assert kind(P, SymMat.diag(-1, 5)) is RegionKind.EXTERIOR


def test_cone_P_dual_examples():
    Pd = cone_P_dual(2)
    assert kind(Pd, SymMat.diag(-1, 5)) is RegionKind.INTERIOR
    assert kind(Pd, SymMat(-np.eye(2))) is RegionKind.EXTERIOR
    assert kind(Pd, SymMat.diag(-3, 0)) is RegionKind.BOUNDARY


def test_branch_examples():
    assert kind(branch(2, 2), SymMat.diag(-1, 1)) is RegionKind.INTERIOR
    assert kind(branch(3, 2), SymMat.diag(-2, 0, 1)) is RegionKind.BOUNDARY
    with pytest.raises(IndexOutOfRange):
        branch(2, 3)


def test_branch_one_is_cone_P_sampled():
    rng = np.random.default_rng(42)
    b1, P = branch(3, 1), cone_P(3)
    for _ in range(1000):
        A = random_symmetric(rng, 3, 1.5)
        assert b1.classify(A).kind is P.classify(A).kind


def test_pfold_examples_and_subset_oracle():
    assert kind(cone_pfold(2, 2), SymMat.diag(-1, 2)) is RegionKind.INTERIOR
    assert kind(cone_pfold(3, 2), SymMat.diag(-2, 1, 5)) is RegionKind.EXTERIOR
    rng = np.random.default_rng(7)
    for n, p in [(3, 2), (4, 3), (5, 2)]:
        oracle = cone_pfold(n, p)
        for _ in range(60):
            A = random_symmetric(rng, n, 1.5)
            lam = np.linalg.eigvalsh(A.entries)
            brute = min(
                sum(lam[list(S)]) for S in itertools.combinations(range(n), p)
            )
            assert oracle.value(Jet2.from_matrix(A)) == pytest.approx(brute, abs=1e-10)


def test_pfold_p1_is_cone_P_sampled():
    rng = np.random.default_rng(43)
    p1, P = cone_pfold(3, 1), cone_P(3)
    for _ in range(300):
        A = random_symmetric(rng, 3, 1.5)
        assert p1.classify(A).kind is P.classify(A).kind


def sigma_direct(lam, k):
    return sum(
        np.prod([lam[i] for i in S]) for S in itertools.combinations(range(len(lam)), k)
    )


def test_elementary_symmetric_against_direct():
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = rng.standard_normal(5)
        for k in range(1, 6):
            assert elementary_symmetric(lam, k) == pytest.approx(
                sigma_direct(lam, k), rel=1e-12, abs=1e-12
            )


def test_sigma_k_examples():
    assert kind(cone_sigma_k(2, 2), SymMat.identity(2)) is RegionKind.INTERIOR
    assert kind(cone_sigma_k(3, 2), SymMat.diag(2, 2, -1)) is RegionKind.BOUNDARY
    # k = 1 agrees with the trace cone
    rng = np.random.default_rng(12)
    s1, tr = cone_sigma_k(3, 1), cone_pfold(3, 3)
    for _ in range(300):
        A = random_symmetric(rng, 3, 1.5)
        assert s1.classify(A).kind is tr.classify(A).kind


def test_sigma_k_shift_rule_cross_check():
    # closure membership iff A + sI interior for all sampled s > 0
    rng = np.random.default_rng(13)
    oracle = cone_sigma_k(3, 2)
    shifts = np.linspace(1e-3, 1.0, 12)
    for _ in range(200):
        A = random_symmetric(rng, 3, 1.5)
        member = oracle.classify(A, 1e-9).is_member
        shifted_all = all(
            oracle.classify(SymMat(A.entries + s * np.eye(3)), 1e-9).is_interior
            for s in shifts
        )
        if member:
            assert shifted_all
        r = oracle.classify(A, 1e-9)
        if r.kind is RegionKind.EXTERIOR and r.margin > 1e-3:
            assert not oracle.classify(
                SymMat(A.entries + 1e-4 * np.eye(3)), 1e-9
            ).is_member


def test_pucci_examples():
    rng = np.random.default_rng(14)
    o12 = cone_pucci(2, 1.0, 2.0)
    for _ in range(200):
        A = random_symmetric(rng, 2, 1.5)
        P = SymMat(A.entries @ A.entries.T)  # psd
        assert o12.classify(P).is_member
    assert kind(o12, SymMat.diag(2, -1)) is RegionKind.BOUNDARY
    assert kind(cone_pucci(2, 1.0, 3.0), SymMat.diag(2, -1)) is RegionKind.EXTERIOR
    with pytest.raises(BadParameters):
        cone_pucci(2, 2.0, 1.0)


def test_quasiconvex_examples():
    rng = np.random.default_rng(15)
    q0, P = cone_quasiconvex(2, 0.0), cone_P(2)
    for _ in range(200):
        A = random_symmetric(rng, 2, 1.5)
        assert q0.classify(A).kind is P.classify(A).kind
    assert kind(cone_quasiconvex(2, 1.0), SymMat.diag(-1, 0)) is RegionKind.BOUNDARY
    assert kind(cone_quasiconvex(2, 2.0), SymMat(-np.eye(2))) is RegionKind.INTERIOR


def lagrangian_frames(rng, n, count):
    """Orthonormal n-frames of R^{2n} spanning Lagrangian planes."""
    frames = []
    for _ in range(count):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.real(np.diag(r)) + 1e-300)
        frames.append(np.vstack([np.real(q), np.imag(q)]))
    return frames


def test_lagrangian_examples_and_frame_oracle():
    L = cone_lagrangian(4)
    assert L.value(Jet2.from_matrix(SymMat.identity(4))) == pytest.approx(2.0)
    assert kind(L, SymMat.identity(4)) is RegionKind.INTERIOR
    assert kind(L, SymMat.zero(4)) is RegionKind.BOUNDARY
    with pytest.raises(OddDimension):
        cone_lagrangian(3)
    # sampled-frame polar oracle: min trace over Lagrangian planes
    from jetcones.jets import trace_on_subspace

    rng = np.random.default_rng(512)
    frames = lagrangian_frames(rng, 2, 512)
    for seed in range(8):
        A = random_symmetric(np.random.default_rng(seed), 4, 1.0)
        exact = L.value(Jet2.from_matrix(A))
        sampled = min(trace_on_subspace(A, W) for W in frames)
        assert sampled >= exact - 1e-9
        assert sampled <= exact + 0.2 * (1 + abs(exact))


def test_complex_structure_squares_to_minus_identity():
    J = complex_structure(6)
    assert np.allclose(J @ J, -np.eye(6))
    # skew part of the identity vanishes
    assert np.allclose(skew_hermitian_mu(SymMat.identity(4)), 0.0)


def test_cone_Q_and_dual_examples():
    Q, Qd = cone_Q(2), cone_Q_dual(2)
    j = lambda r, A: Jet2(r, np.zeros(2), A)
    assert kind(Q, j(-1, SymMat.identity(2))) is RegionKind.INTERIOR
    assert kind(Q, j(1, SymMat.identity(2))) is RegionKind.EXTERIOR
    assert kind(Qd, j(1, SymMat.identity(2))) is RegionKind.INTERIOR
    assert kind(Qd, j(1, SymMat(-np.eye(2)))) is RegionKind.EXTERIOR


def test_cone_M_examples():
    M = MonotonicityCone(1.0, DirectionalCone.full(), math.inf)
    o = cone_M(M, 2)
    assert o.classify(Jet2(-2.0, [1, 0], SymMat.identity(2))).is_member
    assert kind(o, Jet2.zero(2)) is RegionKind.BOUNDARY
    M2 = MonotonicityCone(0.0, DirectionalCone.halfspace([1, 0]), 1.0)
    o2 = cone_M(M2, 2)
    assert kind(o2, Jet2(0.0, [1, 0], SymMat.identity(2))) is RegionKind.BOUNDARY
    # zero jet is on the boundary for every parameter choice
    for gamma, D, R in [(0.0, DirectionalCone.full(), math.inf),
                        (2.0, DirectionalCone.orthant([0]), 3.0)]:
        oo = cone_M(MonotonicityCone(gamma, D, R), 2)
        assert kind(oo, Jet2.zero(2)) is RegionKind.BOUNDARY


def test_cone_M_is_closed_under_addition_and_scaling():
    # each of the 10,000 samples draws J's random jet, K's, then t; every J
    # (on the extreme rays at i % 3 == 0) and every K becomes a cone member
    # in one stacked call per side, and each closure is one values call
    rng = np.random.default_rng(17)
    M = MonotonicityCone(1.0, DirectionalCone.halfspace([0, 1]), 2.0)
    oracle = cone_M(M, 2)
    Js, Ks, ts = zip(*[(random_jets(rng, 2, 1), random_jets(rng, 2, 1), rng.uniform(0.1, 3.0))
                       for _ in range(10_000)])
    J, K = (_cone_members(M, 2, tuple(map(np.concatenate, zip(*side))), extreme)
            for side, extreme in [(Js, np.arange(10_000) % 3 == 0), (Ks, np.zeros(10_000, bool))])
    t = np.array(ts)
    assert members(oracle.values(*(a + b for a, b in zip(J, K))), 1e-7).all()
    assert members(oracle.values(t * J[0], t[:, None] * J[1], t[:, None, None] * J[2]), 1e-7).all()


def test_cone_M0_has_empty_interior():
    o = cone_M0(2)
    assert kind(o, Jet2(-1.0, [0, 0], SymMat.identity(2))) is RegionKind.BOUNDARY
    assert not o.classify(Jet2(-1.0, [0.5, 0], SymMat.identity(2))).is_member
    rng = np.random.default_rng(18)
    assert not any(
        o.classify(random_jet(rng, 2)).is_interior for _ in range(500)
    )


def test_interior_jet_lands_inside():
    for gamma, D, R in [
        (0.0, DirectionalCone.full(), math.inf),
        (1.0, DirectionalCone.halfspace([1, 0]), math.inf),
        (0.5, DirectionalCone.orthant([0, 1]), 2.0),
    ]:
        M = MonotonicityCone(gamma, D, R)
        assert cone_M(M, 2).classify(M.interior_jet(2)).is_interior


@pytest.mark.parametrize("gamma", [1.0, 1e8, 1e15, math.nextafter(2.0 ** 52, 0.0)])
def test_interior_jet_stays_inside_up_to_the_largest_gamma(gamma):
    # r = -(gamma*|p| + 1) keeps a margin of at least 0.5 below 2**52
    for n, D in [(2, DirectionalCone.halfspace([1, 0])),
                 (2, DirectionalCone.orthant([0, 1])),
                 (3, DirectionalCone.halfspace([0, 0, 1])),
                 (3, DirectionalCone.orthant([0, 1, 2]))]:
        M = MonotonicityCone(gamma, D, math.inf)
        assert cone_M(M, n).classify(M.interior_jet(n)).is_interior


@pytest.mark.parametrize("gamma", [2.0 ** 52, 1e16, math.inf, math.nan, -1.0])
def test_monotonicity_cone_refuses_a_gamma_that_rounds_the_margin(gamma):
    # from 2**53 on, gamma*|p| + 1 rounds to gamma*|p| or past it, and the
    # interior jet lands on the boundary: at 1e16 check_monotonicity
    # checked 0 of 200 samples
    with pytest.raises(BadParameters):
        MonotonicityCone(gamma, DirectionalCone.halfspace([1, 0]), math.inf)
    if math.isfinite(gamma):
        with pytest.raises(BadParameters):
            make_oracle(f"M:gamma={gamma!r},D=half:e1,R=inf", 2)


# --- failure example -------------------------------------------------------


def test_failure_example():
    F = fiber_failure_example(2, 2.0, "min")
    assert kind(F, Jet2(0.0, [0, 0], SymMat.identity(2))) is RegionKind.INTERIOR
    # alpha=2, n=2, p=e1, A=0: matrix diag(2, 1), lambda_min = 1
    assert F.value(Jet2(0.0, [1, 0], SymMat.zero(2))) == pytest.approx(1.0)
    # at p = 0 the matrix is A itself, also next to p != 0 in one stack
    A = np.broadcast_to(np.diag([-0.5, 2.0]), (2, 2, 2))
    assert F.values(np.zeros(2), [[0.0, 0.0], [1.0, 0.0]], A).tolist() == [-0.5, 1.5]
    with pytest.raises(BadAlpha):
        fiber_failure_example(2, 1.0)
    # monotonicity in the gradient slot fails away from p = 0
    rng = np.random.default_rng(19)
    violations = 0
    for _ in range(300):
        J = random_jet(rng, 2)
        if not F.classify(J).is_member:
            continue
        q = rng.standard_normal(2) * 0.5
        if not F.classify(Jet2(J.r, J.p + q, J.A), 1e-6).is_member:
            violations += 1
    assert violations > 0


# --- structural (P), (N), (T1) --------------------------------------------

CONE_FIXTURES = [
    cone_P(2), cone_P_dual(2), branch(3, 2), cone_pfold(3, 2), cone_sigma_k(3, 2),
    cone_pucci(2, 1.0, 2.0), cone_quasiconvex(2, 0.5), cone_lagrangian(4),
    cone_Q(2), cone_Q_dual(2),
    cone_M(MonotonicityCone(1.0, DirectionalCone.full(), 1.0), 2),
    cone_M0(2), fiber_failure_example(2, 2.0),
]


@pytest.mark.parametrize("oracle", CONE_FIXTURES, ids=lambda o: o.key or o.label)
def test_positivity_sampled(oracle):
    assert check_positivity(oracle, samples=300) is None


@pytest.mark.parametrize("oracle", CONE_FIXTURES, ids=lambda o: o.key or o.label)
def test_negativity_sampled(oracle):
    assert check_negativity(oracle, samples=300) is None


def test_positivity_and_negativity_return_the_first_witness():
    # -tr A breaks (P): adding P >= 0 lowers it; r breaks (N): lowering r does
    minus_trace = FiberOracle("-tr A >= 0", 2, Arity.PURE_SECOND_ORDER, None,
                              lambda r, p, A: -np.trace(A, axis1=-2, axis2=-1))
    J, P = check_positivity(minus_trace, samples=50)
    assert minus_trace.classify(J).is_member
    assert not minus_trace.classify(Jet2(J.r, J.p, J.A + P), 1e-7).is_member
    assert np.linalg.eigvalsh(P.entries)[0] >= 0.0
    value = FiberOracle("r >= 0", 2, Arity.GRADIENT_FREE, None, lambda r, p, A: r + 0.0 * p[..., 0])
    J, s = check_negativity(value, samples=50)
    assert s <= 0.0 and value.classify(J).is_member
    assert not value.classify(Jet2(J.r + s, J.p, J.A), 1e-7).is_member
    assert check_positivity(value, samples=50) is None
    assert check_negativity(minus_trace, samples=50) is None


def test_positivity_negativity_bulk_samples():
    # the cheap cones at the spec's stated 10^4-pair budget
    for oracle in (cone_P(2), cone_Q(2), cone_pucci(2, 1.0, 2.0),
                   cone_M(MonotonicityCone(1.0, DirectionalCone.full(), 1.0), 2)):
        assert check_positivity(oracle, samples=10_000) is None
        assert check_negativity(oracle, samples=10_000) is None


@pytest.mark.parametrize(
    "oracle",
    [o for o in CONE_FIXTURES if o.key not in ("M0",)],
    ids=lambda o: o.key or o.label,
)
def test_boundary_jets_have_nearby_interior(oracle):
    # (T1) probe: boundary jets admit interior jets within 10*tol in the
    # jet norm, via the value-and-Hessian bump (-eps, 0, eps*I)
    tol = 1e-8
    rng = np.random.default_rng(21)
    n = oracle.n
    eyeJ = Jet2.from_matrix(SymMat.identity(n))
    bump = 10 * tol * Jet2(-1.0, np.zeros(n), SymMat.identity(n))
    found = 0
    jets = [random_jet(rng, n) for _ in range(200)]
    for J in shift_jets(oracle, jets, eyeJ, [0.0] * len(jets), tol=1e-11):
        if J is None or oracle.classify(J, 1e-6).kind is not RegionKind.BOUNDARY:
            continue
        found += 1
        assert oracle.classify(J + bump, tol).is_interior
    assert found > 20


# --- variable fibers --------------------------------------------------------


def box2():
    return Box([-1.0, -1.0], [1.0, 1.0])


def ma_field(x):
    """diag(1 + |x|^2, 1) at each point of a stack x[..., 2]."""
    m = np.zeros(x.shape[:-1] + (2, 2))
    m[..., 0, 0] = 1.0 + np.sum(x * x, axis=-1)
    m[..., 1, 1] = 1.0
    return m


def test_perturbed_ma_reduces_to_cone_P():
    theta = fiber_perturbed_MA(box2(), lambda x: np.zeros((2, 2)), lambda x: 0.0, n=2)
    rng = np.random.default_rng(22)
    P = cone_P(2)
    fib = theta.fiber_at(np.zeros(2))
    for _ in range(300):
        A = random_symmetric(rng, 2, 1.5)
        assert fib.classify(A).is_member == P.classify(A).is_member


def test_perturbed_ma_boundary_case():
    theta = fiber_perturbed_MA(
        box2(),
        ma_field,
        lambda x: 1.0,
        n=2,
    )
    fib = theta.fiber_at(np.zeros(2))
    assert fib.classify(SymMat.zero(2)).kind is RegionKind.BOUNDARY


def test_perturbed_ma_fiberegularity_positive_delta():
    # the sharp violation threshold is eta / (2 sqrt(2)) ~ 0.035 for this
    # field, so a 64-per-side grid (spacing ~0.032) resolves it
    theta = fiber_perturbed_MA(
        box2(),
        ma_field,
        lambda x: 1.0,
        n=2,
    )
    rep = check_fiberegularity(theta, M_FULL, eta=0.1, grid_per_side=64,
                               anchors=60, jets_per_point=10)
    assert rep.passed
    assert rep.delta > rep.resolution


def test_constant_fiber_delta_is_diameter():
    theta = fiber_perturbed_MA(box2(), lambda x: np.zeros((2, 2)), lambda x: 1.0, n=2)
    rep = check_fiberegularity(theta, M_FULL, eta=0.05, grid_per_side=5,
                               anchors=25, jets_per_point=8)
    assert rep.passed
    assert rep.delta == pytest.approx(theta.domain.diameter)


def test_special_lagrangian_examples():
    theta0 = fiber_special_lagrangian(box2(), lambda x: 0.0, n=2)
    fib = theta0.fiber_at(np.zeros(2))
    assert fib.classify(SymMat.zero(2)).kind is RegionKind.BOUNDARY
    thetah = fiber_special_lagrangian(box2(), lambda x: np.pi / 2, n=2)
    fib2 = thetah.fiber_at(np.zeros(2))
    assert fib2.classify(SymMat.identity(2)).kind is RegionKind.BOUNDARY
    from jetcones.errors import PhaseOutOfRange

    bad = fiber_special_lagrangian(box2(), lambda x: 4.0, n=2)
    with pytest.raises(PhaseOutOfRange):
        bad.fiber_at(np.zeros(2))


def test_variable_fields_are_checked_on_point_stacks():
    from jetcones.errors import NegativeSource, PhaseOutOfRange

    x = np.array([[0.5, 0.0], [-0.25, 0.5], [-0.5, 0.75]])
    jets = (np.zeros(3), np.zeros((3, 2)), np.zeros((3, 2, 2)))
    theta = fiber_perturbed_MA(box2(), lambda x: np.zeros((2, 2)), lambda x: x[..., 0], n=2)
    with pytest.raises(NegativeSource, match=r"^f\(\[-0\.25 +0\.5 *\]\) = -0\.25 < 0$"):
        theta.form(x, *jets)
    with pytest.raises(NegativeSource):
        theta.fiber_at(x[2])
    assert theta.fiber_at(x[0]).label == "perturbed-MA fiber at [0.5, 0.0]"
    slag = fiber_special_lagrangian(box2(), lambda x: 5.0 * x[..., 1], n=2)
    with pytest.raises(PhaseOutOfRange, match=r"^theta\(\[-0\.5 +0\.75 *\]\) = 3\.75 "):
        slag.form(x, *jets)
    assert slag.fiber_at(x[1]).label == (
        "special-Lagrangian fiber at [-0.25, 0.5], theta=2.5, interval I_1")


def test_phase_interval_index():
    # n = 2: special value at 0; intervals (0, pi) and (-pi, 0)
    assert phase_interval_index(2, 0.5) == 1
    assert phase_interval_index(2, -0.5) == 2
    assert phase_interval_index(3, 0.0) == 2


def test_special_lagrangian_top_interval_convexity_probe():
    # constant phase in the top interval: sampled midpoint convexity holds
    theta = fiber_special_lagrangian(box2(), lambda x: 1.2, n=2)
    fib = theta.fiber_at(np.zeros(2))
    rng = np.random.default_rng(23)
    eyeJ = Jet2.from_matrix(SymMat.identity(2))
    checked = 0
    # each pair draws A's jet, then B's
    moved = shift_jets(fib, [random_jet(rng, 2, 1.5) for _ in range(600)], eyeJ, [0.05] * 600)
    for A, B in zip(moved[::2], moved[1::2]):
        if A is None or B is None:
            continue
        checked += 1
        assert fib.classify(0.5 * (A + B), 1e-7).is_member
    assert checked > 50


def test_special_lagrangian_fiberegularity_dichotomy():
    # crossing the special value 0: the inclusion fails at the sample
    # resolution (level sets run to infinity, the +eta*I gain dies)
    crossing = fiber_special_lagrangian(box2(), lambda x: 0.4 * x[..., 0], n=2)
    rep = check_fiberegularity(crossing, M_FULL, eta=0.1, grid_per_side=16,
                               anchors=40, jets_per_point=20)
    assert not rep.passed
    # inside one interval the gain is bounded below by eta*sin^2(theta),
    # so the threshold eta*sin^2(0.95)/0.15 ~ 0.44 clears the resolution
    inside = fiber_special_lagrangian(box2(), lambda x: 1.1 + 0.15 * x[..., 0], n=2)
    rep2 = check_fiberegularity(inside, M_FULL, eta=0.1, grid_per_side=16,
                                anchors=40, jets_per_point=20)
    assert rep2.passed
    assert rep2.delta > rep2.resolution


def test_affine_sphere_reduces_to_Q_at_zero_source():
    theta = fiber_affine_sphere(box2(), lambda x: 0.0, n=2)
    fib = theta.fiber_at(np.zeros(2))
    Q = cone_Q(2)
    rng = np.random.default_rng(24)
    for _ in range(300):
        J = Jet2(rng.standard_normal(), np.zeros(2), random_symmetric(rng, 2))
        assert fib.classify(J).is_member == Q.classify(J).is_member


def test_optimal_transport_examples():
    D = DirectionalCone.orthant([0, 1])
    theta = fiber_optimal_transport(
        box2(), lambda p: p[..., 0] * p[..., 1], D, lambda x: 1.0, n=2
    )
    fib = theta.fiber_at(np.zeros(2))
    J = Jet2(0.0, [1.0, 1.0], SymMat.identity(2))
    assert fib.classify(J).kind is RegionKind.BOUNDARY
    # the stated pairing g(p) = -p_n with D = {p_n >= 0} violates
    # directionality; the oracle reports it rather than guessing intent
    with pytest.raises(DirectionalityViolation):
        fiber_optimal_transport(
            box2(), lambda p: -p[..., 1],
            DirectionalCone.halfspace([0, 1]), lambda x: 1.0, n=2,
        )
    assert check_directionality(lambda p: p[..., 0] * p[..., 1], D, 2) is None


@pytest.mark.parametrize("D", [DirectionalCone.halfspace([0, 1]), DirectionalCone.orthant([1])],
                         ids=["half", "orth"])
def test_directionality_returns_a_witness_pair_in_D(D):
    g = lambda p: -p[..., 1]
    p, q = check_directionality(g, D, 2, samples=20)
    assert D.functional(p) >= 0 and D.functional(q) >= 0
    assert g(p + q) < g(p) - 1e-10


# --- key grammar ------------------------------------------------------------


def test_parse_key_forms():
    assert parse_key("P") == ("P", {}, [])
    assert parse_key("branch:k=2") == ("branch", {"k": "2"}, [])
    assert parse_key("pucci:1,2") == ("pucci", {}, ["1", "2"])
    name, kv, pos = parse_key("M:gamma=1,D=half:e1,R=inf")
    assert name == "M"
    assert kv == {"gamma": "1", "D": "half:e1", "R": "inf"}


def test_key_round_trips():
    for key in ["P", "P~", "Q", "Q~", "M0", "branch:k=2", "pfold:p=2",
                "sigma:k=2", "pucci:1,2", "quasiconvex:0.5", "lagrangian",
                "M:gamma=1,D=half:e1,R=inf", "M:gamma=0,D=orth:1,2,R=2",
                "failure:alpha=2,which=min"]:
        n = 4 if key == "lagrangian" else 2
        oracle = make_oracle(key, n)
        assert oracle.key is not None
        again = make_oracle(oracle.key, n)
        assert again.key == oracle.key


@pytest.mark.parametrize("key", [
    "pfold:p=abc", "P:k=3", "pucci:1,2,3", "slag:1", "delta-elliptic:inf",
    "M:D=half:e0", "M:D=orth:0", "M:D=half:e5", "M:D=orth:5", "M:D=half:ex",
])
def test_malformed_keys_are_parse_errors_in_every_registry(key):
    from jetcones.garding import OPERATORS, make_operator
    from jetcones.grids import square_grid
    from jetcones.solver import DISCRETE_OPERATORS, make_discrete_operator

    grid = square_grid(9, 0.0, 1.0)
    registries = [
        (REGISTRY, lambda k: make_oracle(k, 2)),
        (OPERATORS, lambda k: make_operator(k, 2)),
        (DISCRETE_OPERATORS, lambda k: make_discrete_operator(k, grid)),
    ]
    factories = [build for reg, build in registries if parse_key(key)[0] in reg]
    assert factories
    for build in factories:
        with pytest.raises(ParseError):
            build(key)


POSITIVE = st.floats(0.01, 100.0)
NONZERO = st.floats(-3.0, 3.0).filter(lambda x: abs(x) >= 0.01)


def _text(value) -> str:
    return value if isinstance(value, str) else repr(value)


@st.composite
def valid_keys(draw):
    """(key, n) for a catalog family with valid parameters, named or positional."""
    n = draw(st.integers(2, 4))
    index = st.integers(1, n)
    lam = draw(POSITIVE)
    params = {
        "P": [], "P~": [], "Q": [], "Q~": [], "M0": [],
        "branch": [("k", draw(index))],
        "pfold": [("p", draw(index))],
        "sigma": [("k", draw(index))],
        "pucci": [("lam", lam), ("Lam", lam + draw(POSITIVE))],
        "quasiconvex": [("shift", draw(st.floats(0.0, 100.0)))],
        "failure": [("alpha", 1.0 + draw(POSITIVE)),
                    ("which", draw(st.sampled_from(["min", "max"])))],
    }
    if n % 2 == 0:
        params["lagrangian"] = []
    name = draw(st.sampled_from(sorted(params) + ["M"]))
    if name == "M":
        # a cone value carries commas, so M's items are always named
        axes = draw(st.lists(index, min_size=1, unique=True))
        D = draw(st.sampled_from([
            "full",
            f"half:e{draw(index)}",
            "half:" + ",".join(repr(draw(NONZERO)) for _ in range(n)),
            "orth:" + ",".join(map(str, axes)),
        ]))
        R = draw(st.sampled_from(["inf", repr(draw(POSITIVE))]))
        return f"M:gamma={draw(st.floats(0.0, 10.0))!r},D={D},R={R}", n
    if not params[name]:
        return name, n
    named = draw(st.booleans())
    items = [f"{k}={_text(v)}" if named else _text(v) for k, v in params[name]]
    return f"{name}:" + ",".join(items), n


@settings(max_examples=300, deadline=None, derandomize=True)
@given(valid_keys())
def test_make_oracle_key_is_a_fixed_point(case):
    key, n = case
    first = make_oracle(key, n).key
    assert make_oracle(first, n).key == first


VALUES_KEYS = ["P", "P~", "Q", "Q~", "M0", "branch:k=2", "pfold:p=2", "pucci:0.5,3",
               "quasiconvex:0.5", "M:gamma=0,D=full,R=inf", "M:gamma=1,D=half:e2,R=inf",
               "M:gamma=0.5,D=orth:1,2,R=2", "M:gamma=0.3,D=half:1,-2,R=0.7",
               "sigma:k=2", "lagrangian", "failure:alpha=2,which=max",
               "failure:alpha=3,which=min", "pma", "slag", "affine-sphere", "ot",
               "garding-cone", "garding-branch", "induced"]
ENTRY = st.one_of(st.floats(-1e3, 1e3, allow_nan=False), st.sampled_from([0.0, -0.0, 1.0]))


@functools.lru_cache(maxsize=None)
def values_oracle(key, n):
    """The oracle or variable map that VALUES_KEYS names in dimension n."""
    from jetcones.canonical import induced_fiber
    from jetcones.garding import branch_oracle, det_operator, garding_cone_oracle, \
        sigma_k_operator

    if key == "garding-cone":
        return garding_cone_oracle(det_operator(n))
    if key == "garding-branch":
        return branch_oracle(sigma_k_operator(n, 2), 2)
    if key == "induced":
        return induced_fiber(lambda r, p, A: np.trace(A, axis1=-2, axis2=-1) - r + p[..., 0],
                             cone_Q(n), n, Arity.FULL)
    return make_oracle(key.replace("half:1,-2", "half:1," + ",".join(["-2"] * (n - 1))), n)


@st.composite
def jet_stacks(draw):
    """(n, r[m], p[m, n], A[m, n, n], x[m, n]): jets with exactly
    symmetric A, and points of the box [-1, 1]^n."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(1, 5))
    flat = np.array(draw(st.lists(ENTRY, min_size=m * (1 + n + n * n),
                                  max_size=m * (1 + n + n * n))))
    r, p, G = np.split(flat, [m, m + m * n])
    G = G.reshape(m, n, n)
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, (m, n))
    return n, r, p.reshape(m, n), 0.5 * (G + np.swapaxes(G, 1, 2)), x


@settings(max_examples=400, deadline=None, derandomize=True)
@given(jet_stacks(), st.sampled_from(VALUES_KEYS), st.booleans())
def test_values_is_value_jet_by_jet(stack, key, dual):
    """A stack evaluation equals one jet at a time, bit for bit: values
    against value for an oracle, and for a variable map its form on
    stacked points against the fiber built at each point (the dual of
    each fiber, for the dual map)."""
    from hypothesis import assume

    from jetcones.duality import dual_oracle

    n, r, p, A, x = stack
    assume(key != "lagrangian" or n % 2 == 0)
    F = values_oracle(key, n)
    G = dual_oracle(F) if dual else F
    if isinstance(F, VariableFiberMap):
        g = G.form(x, r, p, A)
        fibers = [F.fiber_at(x[i]) for i in range(len(r))]
        one = np.array([(dual_oracle(f) if dual else f).value(Jet2(r[i], p[i], A[i]))
                        for i, f in enumerate(fibers)])
    else:
        g = G.values(r, p, A)
        one = np.array([G.value(Jet2(r[i], p[i], A[i])) for i in range(len(r))])
    assert g.shape == r.shape
    assert np.array_equal(g.view(np.int64), one.view(np.int64))


def test_registry_size_and_describe():
    assert len(REGISTRY) >= 14
    with pytest.raises(UnknownKey):
        make_oracle("bogus", 2)


def test_variable_fiber_keys():
    for key in ["pma", "slag", "affine-sphere", "ot"]:
        vf = make_oracle(key, 2)
        assert hasattr(vf, "fiber_at")


# --- crossing_brackets against the stepwise loop it stands for ----------------

def ref_crossing_bracket(keep, ts, start, done=None, max_steps=None):
    """Walk ts one entry at a time to the first flag that is not start, then
    bisect one midpoint at a time."""
    prev = 0.0
    for t in ts:
        if keep(t) != start:
            a, b = (prev, t) if start else (t, prev)
            break
        prev = t
    else:
        return None
    if done is None:
        return a, b
    steps = 0
    while True:
        mid = 0.5 * (a + b)
        if keep(mid):
            a = mid
        else:
            b = mid
        steps += 1
        if done(a, b) or steps == max_steps:
            return a, b


def bracket_hex(b):
    return None if b is None else tuple(map(float.hex, b))


# entries crossing_brackets probes per call
CHUNK = 2 ** BISECTION_DEPTH - 1


def crossing_rows(count=120):
    """count rows of 24 ts (doubling or uniform, every third mirrored to
    t < 0), their starts, and the entry where each first flips (None:
    never). The first 40 flip at entries 0, CHUNK - 1, CHUNK and
    CHUNK + 1 in turn, around the first chunk boundary; a shorter list is
    a prefix of a longer."""
    rng = np.random.default_rng(83)
    ts, start, first = [], [], []
    for i in range(count):
        row = 2.0 ** np.arange(24) if i % 2 else np.arange(1.0, 25.0) + rng.uniform(0, 0.5)
        k = (0, CHUNK - 1, CHUNK, CHUNK + 1)[i % 4] if i < 40 else int(rng.integers(0, 28))
        ts.append(-row if i % 3 == 0 else row)
        start.append(bool(rng.integers(0, 2)))
        first.append(k if k < 24 else None)
    return np.array(ts), start, first


def crossing_keeps(ts, start, first, calls):
    """Keep rules per row that hold start up to halfway before the first
    flip, flip there, and beyond that wiggle with t, so neither the probe
    nor the bisection sees a monotone rule."""
    def keep_one(i, t):
        k = first[i]
        if k is None or abs(t) < (0.0 if k == 0 else 0.5 * abs(ts[i, k - 1] + ts[i, k])):
            return start[i]
        if t == ts[i, k]:
            return not start[i]
        return math.floor(abs(t) * 1e3 + i) % 3 != 0

    def keeps(live, t):
        calls.append((list(live), t.shape))
        return np.array([[keep_one(i, x) for x in row] for i, row in zip(live, t.tolist())],
                        dtype=bool).reshape(t.shape)

    return keep_one, keeps


@pytest.mark.parametrize("max_steps", [None, 1, 4, 5, 60, 80])
def test_crossing_brackets_match_the_stepwise_loop(max_steps):
    ts, start, first = crossing_rows()
    calls = []
    keep_one, keeps = crossing_keeps(ts, start, first, calls)

    def done(a, b):
        return abs(a - b) < 1e-6

    refs = [ref_crossing_bracket(functools.partial(keep_one, i), ts[i].tolist(), start[i])
            for i in range(len(ts))]
    got = crossing_brackets(keeps, ts, start)
    assert list(map(bracket_hex, got)) == list(map(bracket_hex, refs))
    # the flips sit where the rows put them: the keep end comes first, and
    # the end at 0.0 stands in for the entry before entry 0
    for i, k in enumerate(first):
        if k is None:
            assert got[i] is None
        else:
            ends = (0.0 if k == 0 else ts[i, k - 1], ts[i, k])
            assert got[i] == (ends if start[i] else ends[::-1])
    assert {None, 0, CHUNK - 1, CHUNK, CHUNK + 1} <= set(first)
    # CHUNK entries per call, and no row probed past the chunk of its first flip
    assert all(shape[1] <= CHUNK for _, shape in calls)
    for i, k in enumerate(first):
        assert sum(i in live for live, _ in calls) == (23 if k is None else k) // CHUNK + 1

    for count in (1, 16, 120, 300):
        ts, start, first = crossing_rows(count)
        keep_one, keeps = crossing_keeps(ts, start, first, [])
        refs = [ref_crossing_bracket(functools.partial(keep_one, i), ts[i].tolist(), start[i],
                                     done, max_steps) for i in range(count)]
        got = crossing_brackets(keeps, ts, start, lambda a, b: np.abs(a - b) < 1e-6, max_steps)
        assert list(map(bracket_hex, got)) == list(map(bracket_hex, refs))


def test_crossing_brackets_with_no_rows_or_no_entries():
    def keeps(live, t):
        raise AssertionError("nothing to probe")

    assert crossing_brackets(keeps, np.zeros((0, 5)), []) == []
    assert crossing_brackets(keeps, np.zeros((3, 0)), [True, False, True],
                             lambda a, b: True) == [None, None, None]
