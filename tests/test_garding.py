import itertools
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from jetcones.canonical import canonical_operator
from jetcones.duality import check_inclusion, dual_oracle
from jetcones.catalog import (
    RegionKind,
    branch,
    cone_lagrangian,
    cone_P,
    cone_pfold,
    cone_pucci,
    elementary_symmetric,
)
from jetcones.errors import (
    BadParameters,
    IndexOutOfRange,
    NonRealRoots,
    UnknownKey,
)
from jetcones.garding import (
    ROOT_TOL,
    GardingOperator,
    branch_oracle,
    delta_elliptic_operator,
    det_operator,
    garding_cone_oracle,
    garding_dirichlet_check,
    garding_eigenvalues,
    hyperbolicity_check,
    lagrangian_ma_operator,
    make_operator,
    pfold_operator,
    pucci_garding_operator,
    pucci_vertex_set,
    sigma_k_operator,
    verify_hyperbolic,
)
from jetcones.jets import (
    SymMat,
    eigenvalues,
    random_orthogonal,
    random_psd,
    random_symmetric,
)


def test_det_eigenvalues_are_standard():
    op = det_operator(3)
    lam = garding_eigenvalues(op, SymMat.diag(1, 2, 3))
    assert np.allclose(lam, [1, 2, 3], atol=1e-9)


def test_delta_elliptic_eigenvalues():
    # root-negatives of det((A + sI) + delta tr(A + sI) I): the unique
    # shift-covariant scaling is (lambda_j + delta tr A) / (1 + n delta)
    op = delta_elliptic_operator(2, 0.5)
    lam = garding_eigenvalues(op, SymMat.diag(1, -1))
    assert np.allclose(lam, [-0.5, 0.5], atol=1e-9)
    rng = np.random.default_rng(41)
    for _ in range(50):
        A = random_symmetric(rng, 2, 1.5)
        lam = garding_eigenvalues(op, A)
        ev = np.linalg.eigvalsh(A.entries)
        expected = (ev + 0.5 * np.trace(A.entries)) / 2.0
        assert np.allclose(lam, np.sort(expected), atol=1e-8)


def test_zero_matrix_eigenvalues_vanish():
    for op in (det_operator(3), lagrangian_ma_operator(4), sigma_k_operator(3, 2)):
        lam = garding_eigenvalues(op, SymMat.zero(op.n))
        assert np.max(np.abs(lam)) < 1e-10
        # the generic recovery route resolves the m-fold root only to a
        # companion cluster of radius about eps^(1/m)
        lam_g = garding_eigenvalues(op, SymMat.zero(op.n), method="generic")
        assert np.max(np.abs(lam_g)) < 2e-3
        assert abs(np.mean(lam_g)) < 1e-8


def test_generic_recovery_cross_validates_exact_path():
    # dual route: the Chebyshev-recovery/companion pipeline, which samples
    # F itself (eval_matrix at A + sI), must agree with the factor
    # formulas wherever the eigenvalues are separated
    rng = np.random.default_rng(54)
    for op in (det_operator(3), pfold_operator(4, 2), sigma_k_operator(3, 2),
               delta_elliptic_operator(3, 0.5), lagrangian_ma_operator(4),
               pucci_garding_operator(1.0, 2.0, 2)):
        checked = 0
        for _ in range(60):
            A = random_symmetric(rng, op.n, 1.5)
            exact = garding_eigenvalues(op, A)
            if len(exact) > 1 and np.min(np.diff(exact)) < 1e-2:
                continue  # near-double roots exceed the generic route's reach
            generic = garding_eigenvalues(op, A, method="generic")
            assert np.max(np.abs(exact - generic)) < 1e-7, op.label
            checked += 1
        assert checked > 20, op.label


def test_homogeneity_sampled():
    rng = np.random.default_rng(42)
    for op in (det_operator(3), pfold_operator(3, 2), sigma_k_operator(4, 2),
               lagrangian_ma_operator(4), pucci_garding_operator(1.0, 2.0, 2)):
        for _ in range(20):
            A = random_symmetric(rng, op.n, 1.5)
            t = float(rng.uniform(0.3, 2.5))
            lhs = op.eval(t * A)
            rhs = (t ** op.degree) * op.eval(A)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_eval_identity_positive_enforced():
    with pytest.raises(BadParameters):
        GardingOperator(label="neg-det", n=2, degree=2,
                        eval_matrix=lambda a: -float(np.linalg.det(a)))


def test_hyperbolicity_det_and_pfold():
    for op in (det_operator(3), pfold_operator(4, 2)):
        cert, witnesses = hyperbolicity_check(op, samples=200, seed=43)
        assert cert.passed
        assert not witnesses


def test_non_hyperbolic_negative_control():
    # tr(A^2) - eps (tr A)^2 has complex restriction roots generically
    bad = GardingOperator(
        label="bad", n=3, degree=2,
        eval_matrix=lambda a: float(np.trace(a @ a) - 0.05 * np.trace(a) ** 2),
    )
    cert, witnesses = hyperbolicity_check(bad, samples=100, seed=44)
    assert not cert.passed
    assert witnesses
    with pytest.raises(NonRealRoots):
        verify_hyperbolic(bad, samples=100)


def test_hyperbolicity_check_samples_F_not_its_exact_eigenvalues():
    # exact_eigenvalues that are real by construction say nothing about F:
    # the check must sample s -> F(A + sI) and reject the bad polynomial
    bad = GardingOperator(
        label="bad-with-exact", n=3, degree=2,
        eval_matrix=lambda a: float(np.trace(a @ a) - 0.05 * np.trace(a) ** 2),
        exact_eigenvalues=lambda a: np.linalg.eigvalsh(a)[:2],
    )
    cert, witnesses = hyperbolicity_check(bad, samples=100, seed=44)
    assert not cert.passed and cert.worst_residue > 0
    assert witnesses
    with pytest.raises(NonRealRoots):
        verify_hyperbolic(bad, samples=100)
    assert bad.certificate is None


@pytest.mark.parametrize("key, n", [("det", 3), ("det", 2), ("pfold:p=2", 4),
                                    ("delta-elliptic", 3), ("sigma:k=2", 3), ("sigma:k=3", 3),
                                    ("sigma:k=2", 4), ("lagrangian-ma", 4),
                                    ("pucci-garding:1,2", 3)])
def test_builtin_operators_pass_the_sampled_check_of_F(key, n):
    cert, witnesses = hyperbolicity_check(make_operator(key, n), samples=200, seed=41)
    assert cert.passed and not witnesses


def test_passing_certificate_records_its_worst_residue():
    # every sample's residue counts, not only a failing one's: a pass is
    # above 0 (rounding) and within the pass threshold, which is at
    # least ROOT_TOL
    cert, witnesses = hyperbolicity_check(det_operator(3), seed=41)
    assert cert.passed and not witnesses
    assert 0 < cert.worst_residue <= ROOT_TOL


def test_certificate_cached():
    op = verify_hyperbolic(det_operator(3), samples=50)
    assert op.certificate is not None
    assert op.certificate.passed


def test_garding_cone_det_is_cone_P():
    rng = np.random.default_rng(45)
    op = det_operator(3)
    P = cone_P(3)
    for _ in range(300):
        A = random_symmetric(rng, 3, 1.5)
        assert garding_cone_oracle(op).classify(A).kind is P.classify(A).kind


def test_garding_cone_pfold_matches_catalog():
    rng = np.random.default_rng(46)
    op = pfold_operator(3, 2)
    ref = cone_pfold(3, 2)
    for _ in range(200):
        A = random_symmetric(rng, 3, 1.5)
        assert garding_cone_oracle(op).classify(A).kind is ref.classify(A).kind


def test_garding_cone_lagrangian_matches_catalog():
    rng = np.random.default_rng(47)
    op = lagrangian_ma_operator(4)
    ref = cone_lagrangian(4)
    for _ in range(100):
        A = random_symmetric(rng, 4, 1.0)
        r = ref.classify(A)
        if r.kind is RegionKind.BOUNDARY:
            continue
        assert garding_cone_oracle(op).classify(A).kind is r.kind


def test_garding_dirichlet_positive_cases():
    for op in (det_operator(3), pfold_operator(3, 2),
               delta_elliptic_operator(3, 0.5), lagrangian_ma_operator(4),
               sigma_k_operator(3, 2)):
        ok, witnesses = garding_dirichlet_check(op, samples=150)
        assert ok, f"{op.label}: {witnesses}"


def pucci_vertex_set_by_linprog(n, lam, Lam):
    """Reference: a vertex of {lam, Lam}^n is extreme iff the linear
    program v = others @ c, c >= 0 is infeasible."""
    from scipy.optimize import linprog

    vertices = [np.array(v, dtype=float)
                for v in itertools.product((lam, Lam), repeat=n)]
    extreme = []
    for i, v in enumerate(vertices):
        others = np.stack([w for j, w in enumerate(vertices) if j != i], axis=1)
        res = linprog(
            c=np.zeros(others.shape[1]),
            A_eq=others,
            b_eq=v,
            bounds=[(0, None)] * others.shape[1],
            method="highs",
        )
        if not res.success:
            extreme.append(v)
    return extreme


def test_pucci_vertex_set_computed():
    S = pucci_vertex_set(2, 1.0, 2.0)
    as_lists = sorted(v.tolist() for v in S)
    # both uniform vertices are nonnegative combinations of the mixed ones
    assert as_lists == [[1.0, 2.0], [2.0, 1.0]]
    S3 = pucci_vertex_set(3, 1.0, 2.0)
    assert all(not np.allclose(v, v[0]) for v in S3)  # no uniform vertex survives
    with pytest.raises(BadParameters):
        pucci_vertex_set(2, 2.0, 1.0)


@pytest.mark.parametrize("lam, Lam", [(1.0, 2.0), (0.5, 3.0), (0.001, 1000.0), (2.0, 7.5)])
def test_pucci_vertex_set_matches_the_linear_programs(lam, Lam):
    for n in range(1, 7):
        S = pucci_vertex_set(n, lam, Lam)
        ref = pucci_vertex_set_by_linprog(n, lam, Lam)
        assert len(S) == len(ref) == 2**n - 2
        for v, w in zip(S, ref):
            assert v.dtype == w.dtype and v.tobytes() == w.tobytes()


def test_pucci_garding_operator_at_near_equal_parameters():
    # the linear programs' feasibility tolerance finds no extreme vertex
    # here for n >= 3; every non-constant vertex is extreme
    op = pucci_garding_operator(1.0, 1.0000001, 3)
    assert op.degree == 6
    assert garding_eigenvalues(op, SymMat.diag(1, 2, 3))[0] > 0


def test_pucci_garding_sign_agreement():
    rng = np.random.default_rng(48)
    op = pucci_garding_operator(1.0, 2.0, 2)
    ref = cone_pucci(2, 1.0, 2.0)
    agree = 0
    for _ in range(2000):
        A = random_symmetric(rng, 2, 1.5)
        r = ref.classify(A, 1e-6)
        if r.kind is RegionKind.BOUNDARY:
            continue
        lam_min = garding_eigenvalues(op, A)[0]
        assert (lam_min > 0) == r.is_interior
        agree += 1
    assert agree > 1500


def test_pucci_garding_value_positive_at_identity():
    op = pucci_garding_operator(1.0, 2.0, 2)
    assert op.eval(SymMat.identity(2)) > 0


def test_branch_oracle_det_matches_catalog_branch():
    rng = np.random.default_rng(49)
    op = det_operator(3)
    for k in (1, 2, 3):
        bo = branch_oracle(op, k)
        ref = branch(3, k)
        for _ in range(60):
            A = random_symmetric(rng, 3, 1.5)
            assert bo.classify(A).kind is ref.classify(A).kind
    with pytest.raises(IndexOutOfRange):
        branch_oracle(op, 4)


def test_branch_nesting_and_top_branch_on_psd():
    rng = np.random.default_rng(50)
    op = pfold_operator(3, 2)
    for _ in range(100):
        A = random_symmetric(rng, 3, 1.5)
        lam = garding_eigenvalues(op, A)
        assert np.all(np.diff(lam) >= -1e-10)
        P = random_psd(rng, 3)
        lamP = garding_eigenvalues(op, P)
        assert lamP[-1] >= -1e-8


def test_product_identity_and_shift_covariance():
    from jetcones.garding import product_identity_residual

    rng = np.random.default_rng(51)
    for op in (det_operator(3), pfold_operator(4, 2), sigma_k_operator(3, 2),
               delta_elliptic_operator(3, 1.0), lagrangian_ma_operator(4),
               pucci_garding_operator(1.0, 2.0, 2)):
        for _ in range(40):
            A = random_symmetric(rng, op.n, 1.5)
            lam = garding_eigenvalues(op, A)
            assert product_identity_residual(op, A, lam) < 1e-7
            t = float(rng.standard_normal())
            shifted = garding_eigenvalues(op, SymMat(A.entries + t * np.eye(op.n)))
            assert np.max(np.abs(shifted - lam - t)) < 1e-8


def test_orthogonal_invariance():
    rng = np.random.default_rng(52)
    for op in (det_operator(3), pfold_operator(3, 2), sigma_k_operator(3, 2),
               delta_elliptic_operator(3, 0.5)):
        for _ in range(30):
            A = random_symmetric(rng, 3, 1.5)
            Q = random_orthogonal(rng, 3)
            lam = garding_eigenvalues(op, A)
            lamQ = garding_eigenvalues(op, SymMat(Q.T @ A.entries @ Q))
            assert np.max(np.abs(lam - lamQ)) < 1e-8


def test_garding_cone_oracle_wraps():
    oracle = garding_cone_oracle(sigma_k_operator(3, 2))
    assert oracle.classify(SymMat.identity(3)).is_interior


def test_operator_registry():
    op = make_operator("pfold:p=2", 4)
    assert op.degree == 6
    op2 = make_operator("delta-elliptic:0.5", 3)
    assert op2.n == 3
    op3 = make_operator("pucci-garding:1,2", 2)
    assert op3.degree == 2
    with pytest.raises(UnknownKey):
        make_operator("nope", 2)


def test_sigma_k_matches_k_hessian_value():
    rng = np.random.default_rng(53)
    op = sigma_k_operator(3, 2)
    for _ in range(50):
        A = random_symmetric(rng, 3, 1.5)
        lam = np.linalg.eigvalsh(A.entries)
        direct = sum(
            lam[i] * lam[j] for i, j in itertools.combinations(range(3), 2)
        )
        assert op.eval(A) == pytest.approx(direct, rel=1e-10, abs=1e-12)


# --- the exact route on stacks ---------------------------------------------

STACK_OPERATORS = [("det", 3), ("det", 2), ("pfold:p=2", 3), ("pfold:p=3", 5),
                   ("delta-elliptic:0.5", 3), ("delta-elliptic:0.1", 4), ("sigma:k=1", 3),
                   ("sigma:k=2", 3), ("sigma:k=3", 3), ("sigma:k=2", 4), ("sigma:k=4", 5),
                   ("lagrangian-ma", 4), ("pucci-garding:1,2", 2), ("pucci-garding:0.5,3", 3)]


def random_stack(rng, n, count, scale=1.5):
    return np.array([random_symmetric(rng, n, scale).entries for _ in range(count)])


@pytest.mark.parametrize("key, n", STACK_OPERATORS)
def test_stack_eigenvalues_are_the_one_matrix_bits(key, n):
    # a 2 x 2 stack of 1000 matrices goes through the 2 x 2 eigen kernel,
    # each matrix alone through LAPACK
    op = make_operator(key, n)
    a = random_stack(np.random.default_rng(60), n, 1000)
    stack = garding_eigenvalues(op, a)
    one = np.array([garding_eigenvalues(op, A) for A in a])
    assert stack.shape == (1000, op.degree)
    assert np.array_equal(stack.view(np.int64), one.view(np.int64))
    # leading axes of any shape, sorted along the last
    assert np.array_equal(garding_eigenvalues(op, a.reshape(10, 100, n, n)).view(np.int64),
                          stack.reshape(10, 100, -1).view(np.int64))
    assert np.all(np.diff(stack, axis=-1) >= 0)


@pytest.mark.parametrize("n, k", [(3, 2), (3, 3), (4, 2), (5, 4)])
def test_sigma_stack_roots_match_polyroots(n, k):
    op = sigma_k_operator(n, k)
    a = random_stack(np.random.default_rng(61), n, 300)
    lam = eigenvalues(a)
    binom = [math.comb(n - k + j, j) for j in range(k + 1)]
    for A, l, got in zip(a, lam, garding_eigenvalues(op, a)):
        coeffs = [binom[j] * elementary_symmetric(l, k - j) for j in range(k + 1)]
        ref = np.sort(-np.real(npoly.polyroots(coeffs)))
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref))), A


def counting(fn, calls):
    def wrapped(a):
        calls.append(np.shape(a))
        return fn(a)
    return wrapped


def test_a_garding_oracle_solves_a_stack_in_one_call():
    calls = []
    op = GardingOperator(label="det", n=3, degree=3, eval_matrix=np.linalg.det,
                         exact_eigenvalues=counting(eigenvalues, calls), key="det")
    rng = np.random.default_rng(62)
    for F in (garding_cone_oracle(op), branch_oracle(op, 2)):
        for count in (1, 7, 500):
            calls.clear()
            a = random_stack(rng, 3, count)
            g = F.values(np.zeros(count), np.zeros((count, 3)), a)
            assert calls == [(count, 3, 3)]
            assert np.array_equal(g, np.array([F.value(A) for A in a]))


def test_eval_I_is_evaluated_once_when_built():
    calls = []
    op = GardingOperator(label="det", n=2, degree=2,
                         eval_matrix=counting(np.linalg.det, calls))
    assert calls == [(2, 2)]
    assert op.eval_I == 1.0 and op.eval_I == 1.0
    assert calls == [(2, 2)]


@pytest.mark.parametrize("key, n", [("det", 3), ("pfold:p=2", 3), ("delta-elliptic:0.5", 3),
                                    ("sigma:k=2", 3), ("sigma:k=3", 3), ("lagrangian-ma", 4),
                                    ("pucci-garding:1,2", 2)])
def test_canonical_operator_of_a_branch_is_its_eigenvalue(key, n):
    # Lambda_k(A - tI) = Lambda_k(A) - t vanishes at t = Lambda_k(A), and
    # is linear in t, so the secant step on the ladder's bracket is exact
    # up to the rounding of the stacked eigenvalues: every branch and the
    # cone, on 200 matrices
    op = make_operator(key, n)
    a = random_stack(np.random.default_rng(63), n, 200)
    lam = garding_eigenvalues(op, a)
    oracles = [(branch_oracle(op, k), k) for k in range(1, op.degree + 1)]
    for F, k in oracles + [(garding_cone_oracle(op), 1)]:
        for A, lam_A in zip(a, lam[:, k - 1].tolist()):
            t = canonical_operator(F, A)
            assert abs(t - lam_A) <= 1e-12 * (1.0 + abs(lam_A)), (F.label, A)


def test_lagrangian_cone_is_the_lagrangian_ma_garding_cone():
    # both ways of a sampled inclusion, and the same canonical value bit for
    # bit: the Garding cone's Lambda_min is (tr(A)/2 - mu_1 - mu_2) / 2,
    # the Lagrangian functional halved, which scales g exactly
    L, G = cone_lagrangian(4), garding_cone_oracle(lagrangian_ma_operator(4))
    for F, H in ((L, G), (G, L)):
        rep = check_inclusion(F, H, samples=20_000)
        assert rep.checked > 500 and rep.failed == 0, (F.label, rep.checked, rep.failed)
    for A in random_stack(np.random.default_rng(67), 4, 200):
        t = canonical_operator(L, A)
        assert float.hex(t) == float.hex(canonical_operator(G, A))


def test_lagrangian_canonical_is_half_its_functional():
    # along -I the functional tr(A)/2 - mu_1 - mu_2 drops by 2t, and the
    # anti-commuting part does not move: t = g(A)/2, and -g(-A)/2 for the
    # dual
    L = cone_lagrangian(4)
    Ld = dual_oracle(L)
    for A in random_stack(np.random.default_rng(69), 4, 200):
        for F, t in ((L, 0.5 * L.value(A)), (Ld, -0.5 * L.value(-A))):
            assert abs(canonical_operator(F, A) - t) <= 1e-12 * (1.0 + abs(t)), (F.label, A)


def test_oracles_need_exact_eigenvalues_and_the_generic_route_one_matrix():
    op = GardingOperator(label="det, no factors", n=2, degree=2, eval_matrix=np.linalg.det)
    with pytest.raises(BadParameters, match="exact eigenvalues"):
        garding_cone_oracle(op)
    with pytest.raises(BadParameters, match="exact eigenvalues"):
        branch_oracle(op, 1)
    a = random_stack(np.random.default_rng(64), 2, 4)
    with pytest.raises(ValueError, match="one matrix"):
        garding_eigenvalues(det_operator(2), a, method="generic")
    with pytest.raises(ValueError, match="one matrix"):
        garding_eigenvalues(op, a)  # no exact eigenvalues: the generic route


def test_garding_dirichlet_check_witnesses_are_the_per_sample_ones():
    # shifted eigenvalues put some PSD samples outside the cone: the
    # witnesses are the first four, as a loop over the samples finds them
    op = GardingOperator(label="shifted det", n=3, degree=3, eval_matrix=np.linalg.det,
                         exact_eigenvalues=lambda a: eigenvalues(a) - 0.3)
    ok, witnesses = garding_dirichlet_check(op, samples=200)
    rng = np.random.default_rng(43)
    ref = []
    for _ in range(200):
        A = random_psd(rng, 3, scale=1.5)
        lam_min = float(eigenvalues(A.entries)[0] - 0.3)
        if lam_min < -1e-8 and len(ref) < 4:
            ref.append((A.entries.tobytes(), lam_min))
    assert not ok and len(witnesses) == 4
    assert [(A.entries.tobytes(), lam) for A, lam in witnesses] == ref
    assert garding_dirichlet_check(det_operator(3), samples=0) == (True, [])
