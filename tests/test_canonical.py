import math
from dataclasses import replace

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
    induced_fiber,
    signed_distance,
)
from jetcones.boundary import strict_ellipticity_check
from jetcones.catalog import (
    Arity,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    branch,
    check_directionality,
    check_negativity,
    check_positivity,
    cone_P,
    cone_P_dual,
    cone_pfold,
    cone_pucci,
    cone_Q,
)
from jetcones.duality import check_dual_pair, check_inclusion, check_involution
from jetcones.errors import BadParameters, BoundaryNode, BracketingFailure
from jetcones.grids import square_grid
from jetcones.jets import Jet2, SymMat, random_jets, random_psd, random_symmetric, unstack_jets
from jet2_refs import (
    from_callable,
    interior_nodes,
    ref_admissible_subsolution_test,
    ref_admissible_supersolution_test,
    ref_check_compatibility,
    ref_check_proper_elliptic,
    ref_check_strict_M_monotone,
    ref_check_topological_tameness,
)

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
    whole = whole_space(2)
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
# Jet operators are forms on stacks, op(r[...], p[..., n], A[..., n, n]) -> v[...].


def det_op(r, p, A):
    return np.linalg.det(A)


def r_det_op(r, p, A):
    return -r * np.linalg.det(A)


def sum_op(r, p, A):
    return -r + np.linalg.det(A)


def slag_op(r, p, A):
    return np.sum(np.arctan(np.linalg.eigvalsh(A)), axis=-1)


def minus_trace_op(r, p, A):
    return -np.trace(A, axis1=-2, axis2=-1)


def constant_op(r, p, A):
    return np.zeros(np.shape(r))


def canonical_P_op(r, p, A):
    """canonical_operator of P on each Hessian, one matrix per call."""
    n = np.shape(A)[-1]
    return np.array([canonical_operator(cone_P(n), a)
                     for a in np.reshape(A, (-1, n, n))]).reshape(np.shape(r))


def whole_space(n):
    return induced_fiber(lambda r, p, A: np.ones(np.shape(r)), None, n,
                         Arity.PURE_SECOND_ORDER, "all")


def test_proper_elliptic_det_on_P():
    rep = check_proper_elliptic(det_op, cone_P(2), 2, samples=200)
    assert rep.ok


def test_proper_elliptic_rdet_on_Q():
    rep = check_proper_elliptic(r_det_op, cone_Q(2), 2, samples=200)
    assert rep.ok


def test_proper_elliptic_det_unconstrained_fails():
    rep = check_proper_elliptic(det_op, None, 2, samples=300)
    assert not rep.ok
    # the explicit witness: diag(-1,-1) bumped by diag(1,0)
    assert det_op(0.0, None, np.diag([0.0, -1.0])) < det_op(0.0, None, -np.eye(2))


def test_compatibility_product_operator_passes():
    Q = cone_Q(2)
    rep = check_compatibility(r_det_op, Q, Q, samples=300)
    assert rep.ok
    assert rep.checked > 30


def test_compatibility_sum_operator_fails_on_N_x_0():
    Q = cone_Q(2)
    F = induced_fiber(sum_op, Q, 2, Arity.GRADIENT_FREE, "sum-induced")
    rep = check_compatibility(sum_op, Q, F, samples=300)
    assert not rep.ok
    # witnesses sit on r < 0, A = 0 where the operator is -r > 0
    assert any(
        np.allclose(w.A.entries, 0, atol=1e-8) and w.r < 0 for w in rep.witnesses
    )


def test_compatibility_canonical_on_whole_space():
    rep = check_compatibility(canonical_P_op, None, cone_P(2), samples=120)
    assert rep.ok


def test_induced_fiber_is_subequation():
    F = induced_fiber(r_det_op, cone_Q(2), 2, Arity.GRADIENT_FREE, "product-induced")
    assert check_positivity(F, samples=300) is None
    assert check_negativity(F, samples=300) is None


def test_induced_fiber_is_the_min_of_G_and_op_on_stacks():
    Q = cone_Q(2)
    F = induced_fiber(sum_op, Q, 2, Arity.GRADIENT_FREE)
    J = random_jets(np.random.default_rng(3), 2, 50, 1.5)
    assert np.array_equal(F.values(*J), np.minimum(Q.values(*J), sum_op(*J)))
    assert [F.value(K) for K in unstack_jets(*J)] == F.values(*J).tolist()


def test_tameness_det_on_P_and_constant_control():
    rep = check_topological_tameness(det_op, cone_P(2), levels=[0.0, 1.0],
                                     samples=150)
    assert rep.ok
    assert rep.checked > 0
    rep2 = check_topological_tameness(constant_op, cone_P(2), levels=[0.0], samples=150)
    assert not rep2.ok


@pytest.mark.parametrize("G, levels, samples", [
    (cone_P(3), [0.5, 2.0], 120),
    (cone_P(4), [0.5], 200),
], ids=["P3", "P4"])
def test_tameness_with_no_level_hit_is_not_ok(G, levels, samples):
    # no member of G lands on or straddles a level: an empty check proves nothing
    rep = check_topological_tameness(det_op, G, levels, samples=samples, seed=67)
    assert rep.checked == 0
    assert not rep.ok


def test_strict_M_monotone_det_and_slag():
    rep = check_strict_M_monotone(det_op, cone_P(2), M_A_PART, samples=200)
    assert rep.ok
    rep2 = check_strict_M_monotone(slag_op, whole_space(2), M_A_PART, samples=200)
    assert rep2.ok


def test_strict_M_monotone_refuses_an_interior_jet_rounded_onto_the_boundary():
    # A = (1 + |p|/R) I loses the 1 at R = 1e-20, so M's interior jet would
    # sit on M's boundary in floating point: MonotonicityCone refuses that
    # R when it is built, as it refuses a gamma that would do the same to
    # r = -(gamma*|p| + 1)
    with pytest.raises(BadParameters):
        MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), 1e-20)


def hexes(J):
    return (float.hex(J.r), [float.hex(x) for x in J.p],
            [float.hex(x) for x in J.A.entries.ravel()])


def assert_same_report(got, ref):
    assert got.to_json_dict() == ref.to_json_dict()
    assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)
    assert [hexes(w) for w in got.witnesses] == [hexes(w) for w in ref.witnesses]


@pytest.mark.parametrize("op, G, n", [
    (det_op, cone_P(2), 2),
    (det_op, cone_P(3), 3),
    (r_det_op, cone_Q(2), 2),
    (det_op, None, 2),          # fails, with witnesses
    (slag_op, None, 3),
], ids=["det-P2", "det-P3", "rdet-Q", "det-unconstrained", "slag"])
def test_proper_elliptic_matches_the_per_sample_loop(op, G, n):
    for seed in (59, 5):
        got = check_proper_elliptic(op, G, n, samples=150, seed=seed)
        assert_same_report(got, ref_check_proper_elliptic(op, G, n, samples=150, seed=seed))
        assert got.checked > 0


@pytest.mark.parametrize("op, G, F", [
    (r_det_op, cone_Q(2), cone_Q(2)),
    (sum_op, cone_Q(2), induced_fiber(sum_op, cone_Q(2), 2, Arity.GRADIENT_FREE)),
    (canonical_P_op, None, cone_P(2)),
    (det_op, cone_P(3), induced_fiber(det_op, cone_P(3), 3, Arity.PURE_SECOND_ORDER)),
], ids=["product", "sum-fails", "canonical-P", "det-P3"])
def test_compatibility_matches_the_per_sample_loop(op, G, F):
    for seed in (61, 7):
        got = check_compatibility(op, G, F, samples=150, seed=seed)
        assert_same_report(got, ref_check_compatibility(op, G, F, samples=150, seed=seed))
        assert got.checked > 0


@pytest.mark.parametrize("op, G, levels", [
    (det_op, cone_P(2), [0.0, 1.0]),
    (det_op, whole_space(3), [0.5, 2]),
    (constant_op, cone_P(2), [0.0]),       # fails, with witnesses
    (slag_op, whole_space(2), [-1.0, 0.3, 1.0]),
    (det_op, cone_P(2), []),
], ids=["det-P2", "det-all3", "constant", "slag", "no-levels"])
def test_tameness_matches_the_per_sample_loop(op, G, levels):
    for seed in (67, 3):
        got = check_topological_tameness(op, G, levels, samples=120, seed=seed)
        assert_same_report(got, ref_check_topological_tameness(op, G, levels, samples=120,
                                                               seed=seed))
        assert (got.checked > 0) == bool(levels)


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
    (slag_op, lambda: whole_space(2)),
    # -trace decreases along J0 = (-1, 0, I): every sample fails
    (minus_trace_op, lambda: cone_P(2)),
], ids=["det-P2", "det-P3", "capped", "band", "pocket", "slag", "minus-trace"])
def test_strict_M_monotone_matches_the_per_sample_loop(op, make):
    F = make()
    for seed in (71, 5):
        got = check_strict_M_monotone(op, F, M_A_PART, samples=120, seed=seed)
        assert_same_report(got, ref_check_strict_M_monotone(op, F, M_A_PART, samples=120,
                                                            seed=seed))
        # failed shifts, and shifts past the band or into the pocket, drop
        # their samples
        assert (got.checked < 120) == (F.label in ("capped", "band", "pocket"))
        assert got.checked > 0


class Calls:
    """Counts the calls of the functions it wraps."""

    def __init__(self):
        self.count = 0

    def wrap(self, f):
        def counted(*args):
            self.count += 1
            return f(*args)

        return counted


def counted_fiber(F, calls):
    return replace(F, form=calls.wrap(F.form))


# (check, args) -> the sampled check at a sample count, with its operator
# and fibers wrapped in the two counters
COUNTED_CHECKS = {
    "proper-elliptic": lambda k, op, fib: check_proper_elliptic(
        op.wrap(r_det_op), counted_fiber(cone_Q(2), fib), 2, samples=k),
    "compatibility": lambda k, op, fib: check_compatibility(
        op.wrap(r_det_op), counted_fiber(cone_Q(2), fib), counted_fiber(cone_Q(2), fib),
        samples=k),
    "tameness": lambda k, op, fib: check_topological_tameness(
        op.wrap(det_op), counted_fiber(cone_P(2), fib), [0.0, 1.0], samples=k),
    # P's shifts probe its spectrum, not its form
    "strict-M-monotone": lambda k, op, fib: check_strict_M_monotone(
        op.wrap(det_op), counted_fiber(cone_P(2), fib), M_A_PART, samples=k),
    "involution": lambda k, op, fib: check_involution(counted_fiber(cone_Q(2), fib), samples=k),
    "dual-pair": lambda k, op, fib: check_dual_pair(
        counted_fiber(cone_P(2), fib), counted_fiber(cone_P_dual(2), fib), samples=k),
    "inclusion": lambda k, op, fib: check_inclusion(
        counted_fiber(cone_P(2), fib), counted_fiber(branch(2, 1), fib), samples=k),
    "positivity": lambda k, op, fib: check_positivity(counted_fiber(cone_Q(2), fib), samples=k),
    "negativity": lambda k, op, fib: check_negativity(counted_fiber(cone_Q(2), fib), samples=k),
    "directionality": lambda k, op, fib: check_directionality(
        op.wrap(lambda p: p[..., 0] * p[..., 1]), DirectionalCone.orthant([0, 1]), 2,
        samples=k),
    "strict-ellipticity": lambda k, op, fib: strict_ellipticity_check(
        counted_fiber(cone_P(3), fib), direction_samples=k),
}


@pytest.mark.parametrize("name", sorted(COUNTED_CHECKS))
def test_sampled_checks_make_a_fixed_number_of_stack_calls(name):
    # the operator and form calls do not grow with the sample
    counts = []
    for samples in (50, 400):
        op, fib = Calls(), Calls()
        COUNTED_CHECKS[name](samples, op, fib)
        counts.append((op.count, fib.count))
    assert counts[0] == counts[1]
    assert 0 < sum(counts[0]) <= 64


# --- admissible viscosity tests on grid functions ---------------------------


def det_minus_one_op(r, p, A):
    return np.linalg.det(A) - 1.0


def test_admissible_quadratic_subsolution():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: 0.5 * float(x @ x))
    P = cone_P(2)
    for node in interior_nodes(grid, 1):
        assert admissible_subsolution_test(det_minus_one_op, P, u, node)
        assert admissible_supersolution_test(det_minus_one_op, P, u, node)


def test_admissible_affine_positive_not_admissible():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: 1.0 + x[0])
    Q = cone_Q(2)
    node = interior_nodes(grid, 1)[len(interior_nodes(grid, 1)) // 2]
    assert not admissible_subsolution_test(r_det_op, Q, u, node)
    # supersolution disjunction holds because the jet leaves Q
    assert admissible_supersolution_test(r_det_op, Q, u, node)


def test_admissible_concave_fails_constraint():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: -float(x @ x))
    P = cone_P(2)
    node = interior_nodes(grid, 1)[0]
    assert not admissible_subsolution_test(det_minus_one_op, P, u, node)


@pytest.mark.parametrize("op, G", [
    (det_minus_one_op, cone_P(2)), (r_det_op, cone_Q(2)), (sum_op, None),
], ids=["det-P", "rdet-Q", "sum-unconstrained"])
def test_admissible_tests_match_the_node_by_node_route(op, G):
    grid = square_grid(7, 0.0, 1.0)
    for f in (lambda x: 0.5 * float(x @ x), lambda x: 1.0 + x[0] - x[0] * x[1],
              lambda x: 0.3 - float(x @ x)):
        u = from_callable(grid, f)
        for node in interior_nodes(grid, 1):
            assert admissible_subsolution_test(op, G, u, node) is \
                bool(ref_admissible_subsolution_test(op, G, u, node))
            assert admissible_supersolution_test(op, G, u, node) is \
                bool(ref_admissible_supersolution_test(op, G, u, node))


def test_admissible_raises_on_boundary_node():
    grid = square_grid(9, 0.0, 1.0)
    u = from_callable(grid, lambda x: float(x @ x))
    with pytest.raises(BoundaryNode):
        admissible_subsolution_test(constant_op, None, u, (0, 0))
