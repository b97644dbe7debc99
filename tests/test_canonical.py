import math

import numpy as np
import pytest

from jetcones.canonical import (
    admissible_subsolution_test,
    admissible_supersolution_test,
    canonical_operator,
    check_compatibility,
    check_proper_elliptic,
    check_strict_M_monotone,
    check_topological_tameness,
    gradient_free_op,
    induced_fiber,
    matrix_op,
    signed_distance,
)
from jetcones.catalog import (
    Arity,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    check_negativity,
    check_positivity,
    cone_P,
    cone_pfold,
    cone_pucci,
    cone_Q,
)
from jetcones.duality import CheckReport
from jetcones.errors import BoundaryNode, BracketingFailure
from jetcones.grids import square_grid
from jetcones.jets import Jet2, SymMat, random_jet, random_psd, random_symmetric
from jet2_refs import from_callable, interior_nodes, ref_shift_to_boundary

M_A_PART = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)


def _branch22():
    from jetcones.catalog import branch

    return branch(2, 2)


def _sigma22():
    from jetcones.catalog import cone_sigma_k

    return cone_sigma_k(2, 2)


def test_canonical_cone_P_is_lambda_min():
    assert canonical_operator(cone_P(2), SymMat.diag(2, 5)) == pytest.approx(2.0, abs=1e-9)
    rng = np.random.default_rng(61)
    P = cone_P(3)
    for _ in range(200):
        A = random_symmetric(rng, 3, 2.0)
        lam1 = float(np.linalg.eigvalsh(A.entries)[0])
        assert canonical_operator(P, A) == pytest.approx(lam1, abs=1e-9)


def test_canonical_pfold_is_truncated_mean():
    oracle = cone_pfold(3, 2)
    val = canonical_operator(oracle, SymMat.diag(1, 2, 3))
    assert val == pytest.approx(1.5, abs=1e-9)
    rng = np.random.default_rng(62)
    for _ in range(100):
        A = random_symmetric(rng, 3, 1.5)
        lam = np.linalg.eigvalsh(A.entries)
        assert canonical_operator(oracle, A) == pytest.approx(
            float(np.mean(lam[:2])), abs=1e-9
        )


@pytest.mark.parametrize("oracle", [cone_P(2), cone_pfold(2, 2),
                                    cone_pucci(2, 1.0, 2.0), _branch22(),
                                    _sigma22()],
                         ids=lambda o: o.key)
def test_canonical_shift_normalization(oracle):
    # t* at A = tI is t for every catalog cone, and adding sI adds s
    rng = np.random.default_rng(63)
    for _ in range(30):
        t = float(rng.standard_normal())
        assert canonical_operator(oracle, SymMat(t * np.eye(2))) == pytest.approx(
            t, abs=1e-9
        )
        A = random_symmetric(rng, 2, 1.5)
        s = float(rng.standard_normal())
        assert canonical_operator(oracle, SymMat(A.entries + s * np.eye(2))) == \
            pytest.approx(canonical_operator(oracle, A) + s, abs=1e-9)


def test_canonical_positivity_monotone():
    rng = np.random.default_rng(64)
    P = cone_P(3)
    for _ in range(60):
        A = random_symmetric(rng, 3, 1.5)
        Ppos = random_psd(rng, 3)
        assert canonical_operator(P, A + Ppos) >= canonical_operator(P, A) - 1e-9


def test_canonical_pucci_sign_agreement():
    rng = np.random.default_rng(65)
    oracle = cone_pucci(2, 1.0, 2.0)
    for _ in range(200):
        A = random_symmetric(rng, 2, 1.5)
        v = oracle.value(Jet2.from_matrix(A))
        if abs(v) < 1e-6:
            continue
        assert np.sign(canonical_operator(oracle, A)) == np.sign(v)


def test_canonical_bracketing_failure():
    whole = induced_fiber(lambda J: 1.0, None, 2, Arity.PURE_SECOND_ORDER, "all")
    with pytest.raises(BracketingFailure):
        canonical_operator(whole, SymMat.identity(2))


def test_signed_distance_cone_P_exact_cases():
    P = cone_P(2)
    assert signed_distance(P, SymMat.identity(2), directions=64) == pytest.approx(
        1.0, abs=1e-6
    )
    d = signed_distance(P, SymMat.diag(-3, 1), directions=64)
    assert d == pytest.approx(-3.0, abs=1e-6)


def test_signed_distance_zero_on_boundary_and_sign_agreement():
    P = cone_P(2)
    assert abs(signed_distance(P, SymMat.diag(0, 2), directions=32)) < 1e-6
    rng = np.random.default_rng(66)
    for _ in range(40):
        A = random_symmetric(rng, 2, 1.5)
        r = P.classify(A)
        d = signed_distance(P, A, directions=32)
        if r.margin > 1e-6:
            assert (d > 0) == r.is_member


def test_signed_distance_monotone_refinement():
    # estimates never increase in magnitude as directions grow (spectral
    # exact value is the floor)
    rng = np.random.default_rng(67)
    P = cone_P(3)
    for _ in range(10):
        A = random_symmetric(rng, 3, 1.5)
        lam1 = abs(float(np.linalg.eigvalsh(A.entries)[0]))
        prev = math.inf
        for k in (8, 32, 128):
            d = abs(signed_distance(P, A, directions=k))
            assert d <= prev + 1e-12
            assert d >= lam1 - 1e-6
            prev = d


# --- correspondence checkers -------------------------------------------------


def det_op(J):
    return float(np.linalg.det(J.A.entries))


def test_proper_elliptic_det_on_P():
    rep = check_proper_elliptic(det_op, cone_P(2), 2, samples=200)
    assert rep.ok


def test_proper_elliptic_rdet_on_Q():
    op = gradient_free_op(lambda r, A: -r * float(np.linalg.det(A)))
    rep = check_proper_elliptic(op, cone_Q(2), 2, samples=200)
    assert rep.ok


def test_proper_elliptic_det_unconstrained_fails():
    rep = check_proper_elliptic(det_op, None, 2, samples=300)
    assert not rep.ok
    # the explicit witness: diag(-1,-1) bumped by diag(1,0)
    J = Jet2.from_matrix(SymMat.diag(-1, -1))
    J2 = Jet2.from_matrix(SymMat.diag(0, -1))
    assert det_op(J2) < det_op(J)


def test_compatibility_product_operator_passes():
    op = gradient_free_op(lambda r, A: -r * float(np.linalg.det(A)))
    Q = cone_Q(2)
    rep = check_compatibility(op, Q, Q, samples=300)
    assert rep.ok
    assert rep.checked > 30


def test_compatibility_sum_operator_fails_on_N_x_0():
    op = gradient_free_op(lambda r, A: -r + float(np.linalg.det(A)))
    Q = cone_Q(2)
    F = induced_fiber(op, Q, 2, Arity.GRADIENT_FREE, "sum-induced")
    rep = check_compatibility(op, Q, F, samples=300)
    assert not rep.ok
    # witnesses sit on r < 0, A = 0 where the operator is -r > 0
    assert any(
        np.allclose(w.A.entries, 0, atol=1e-8) and w.r < 0 for w in rep.witnesses
    )


def test_compatibility_canonical_on_whole_space():
    P = cone_P(2)
    op = lambda J: canonical_operator(P, J.A)
    rep = check_compatibility(op, None, P, samples=120)
    assert rep.ok


def test_induced_fiber_is_subequation():
    op = gradient_free_op(lambda r, A: -r * float(np.linalg.det(A)))
    F = induced_fiber(op, cone_Q(2), 2, Arity.GRADIENT_FREE, "product-induced")
    assert check_positivity(F, samples=300) is None
    assert check_negativity(F, samples=300) is None


def test_tameness_det_on_P_and_constant_control():
    rep = check_topological_tameness(det_op, cone_P(2), levels=[0.0, 1.0],
                                     samples=150)
    assert rep.ok
    assert rep.checked > 0
    const = lambda J: 0.0
    rep2 = check_topological_tameness(const, cone_P(2), levels=[0.0], samples=150)
    assert not rep2.ok


def slag_op(a):
    return float(np.sum(np.arctan(np.linalg.eigvalsh(a))))


def whole_space(n):
    return induced_fiber(lambda J: 1.0, None, n, Arity.PURE_SECOND_ORDER, "all")


def test_strict_M_monotone_det_and_slag():
    rep = check_strict_M_monotone(det_op, cone_P(2), M_A_PART, samples=200)
    assert rep.ok
    rep2 = check_strict_M_monotone(matrix_op(slag_op), whole_space(2), M_A_PART, samples=200)
    assert rep2.ok


def ref_check_strict_M_monotone(op, F, M, samples=300, seed=71, tol=1e-12):
    # the jets, then the t of every sample, then one sample at a time
    rng = np.random.default_rng(seed)
    J0 = M.interior_jet(F.n)
    jets = [random_jet(rng, F.n, scale=1.5) for _ in range(samples)]
    ts = [rng.uniform(1e-3, 1.0) for _ in range(samples)]
    rep = CheckReport(name="strict-M-monotone", seed=seed)
    for J, t in zip(jets, ts):
        if not F.contains(J):
            J = ref_shift_to_boundary(F, J, J0)
            if J is None or not F.contains(J):
                continue
        gain = op(J + t * J0) - op(J)
        ok = gain > tol
        rep.record(ok, gain, None if ok else J)
    return rep


def hexes(J):
    return (float.hex(J.r), [float.hex(x) for x in J.p],
            [float.hex(x) for x in J.A.entries.ravel()])


def gradient_capped(n):
    """min(lambda_min(A), 1 - |p|): no shift along (-1, 0, I), which
    leaves p alone, reaches the fiber from |p| > 1."""
    return FiberOracle("capped", n, Arity.FULL, None,
                       lambda r, p, A: np.minimum(np.linalg.eigvalsh(A)[..., 0],
                                                  1.0 - np.sqrt(np.sum(p * p, axis=-1))))


def eigenvalue_band(n):
    """min(lambda_min(A), 1 - lambda_max(A)): a shift along (-1, 0, I)
    that finds the window of members often steps past it by its margin,
    and the moved jet is no member."""
    def form(r, p, A):
        ev = np.linalg.eigvalsh(A)
        return np.minimum(ev[..., 0], 1.0 - ev[..., -1])

    return FiberOracle("band", n, Arity.PURE_SECOND_ORDER, None, form)


def pocket(n):
    """lambda_min(A) >= 0 with a pocket 5e-7 < lambda_min(A) < 2e-6 cut
    out: a shift along (-1, 0, I) that lands on lambda_min = 0 steps
    SHIFT_MARGIN = 1e-6 into the pocket, and the moved jet is no member."""
    def form(r, p, A):
        lam = np.linalg.eigvalsh(A)[..., 0]
        return np.minimum(lam, np.maximum(5e-7 - lam, lam - 2e-6))

    return FiberOracle("pocket", n, Arity.PURE_SECOND_ORDER, None, form)


@pytest.mark.parametrize("op, make", [
    (det_op, lambda: cone_P(2)),
    (det_op, lambda: cone_P(3)),
    (det_op, lambda: gradient_capped(2)),
    (det_op, lambda: eigenvalue_band(2)),
    (det_op, lambda: pocket(2)),
    (matrix_op(slag_op), lambda: whole_space(2)),
    # -trace decreases along J0 = (-1, 0, I): every sample fails
    (matrix_op(lambda a: -np.trace(a)), lambda: cone_P(2)),
], ids=["det-P2", "det-P3", "capped", "band", "pocket", "slag", "minus-trace"])
def test_strict_M_monotone_matches_the_per_sample_loop(op, make):
    F = make()
    for seed in (71, 5):
        got = check_strict_M_monotone(op, F, M_A_PART, samples=120, seed=seed)
        ref = ref_check_strict_M_monotone(op, F, M_A_PART, samples=120, seed=seed)
        assert got.to_json_dict() == ref.to_json_dict()
        assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)
        assert [hexes(w) for w in got.witnesses] == [hexes(w) for w in ref.witnesses]
        # failed shifts, and shifts past the band or into the pocket, drop
        # their samples
        assert (got.checked < 120) == (F.label in ("capped", "band", "pocket"))
        assert got.checked > 0


# --- admissible viscosity tests on grid functions ---------------------------


def test_admissible_quadratic_subsolution():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    op = lambda J: float(np.linalg.det(J.A.entries)) - 1.0
    P = cone_P(2)
    for node in interior_nodes(grid, 1):
        assert admissible_subsolution_test(op, P, u, node)
        assert admissible_supersolution_test(op, P, u, node)


def test_admissible_affine_positive_not_admissible():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: 1.0 + x[0])
    op = gradient_free_op(lambda r, A: -r * float(np.linalg.det(A)))
    Q = cone_Q(2)
    node = interior_nodes(grid, 1)[len(interior_nodes(grid, 1)) // 2]
    assert not admissible_subsolution_test(op, Q, u, node)
    # supersolution disjunction holds because the jet leaves Q
    assert admissible_supersolution_test(op, Q, u, node)


def test_admissible_concave_fails_constraint():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: -float(x @ x))
    op = lambda J: float(np.linalg.det(J.A.entries)) - 1.0
    P = cone_P(2)
    node = interior_nodes(grid, 1)[0]
    assert not admissible_subsolution_test(op, P, u, node)


def test_admissible_raises_on_boundary_node():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: float(x @ x))
    with pytest.raises(BoundaryNode):
        admissible_subsolution_test(lambda J: 0.0, None, u, (0, 0))
