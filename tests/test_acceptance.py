"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s`. Tolerances are pinned
here, not deferred; sample counts follow the stated budgets.
"""

import math
import time

import numpy as np
import pytest

from jetcones import catalog as cat
from jetcones import garding as gar
from jetcones.canonical import canonical_operator, check_compatibility, induced_fiber
from jetcones.catalog import (
    Arity,
    DirectionalCone,
    MonotonicityCone,
    check_fiberegularity,
    fiber_special_lagrangian,
)
from jetcones.duality import check_dual_pair, check_involution
from jetcones.experiments import comparison_battery, zmp_battery, zmp_sample
from jetcones.grids import GridFunction, square_grid, sup_convolution, quasiconvexity_defect
from jetcones.jets import Jet2, SymMat, random_symmetric
from jetcones.solver import (
    scheme_monotonicity_probe,
    solve_dirichlet,
    strict_approximator,
    zmp_experiment,
)
from jet2_refs import from_callable

M_FULL = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)


def report(capsys, n, desc):
    # bypass capture so the line shows in a plain `pytest -v` run
    with capsys.disabled():
        print(f"\n[PASS] criterion {n}: {desc}")


# --------------------------------------------------------------------------
# 1. Garding identity suite
# --------------------------------------------------------------------------


def garding_suite_operators():
    ops = [gar.det_operator(3)]
    for n in range(2, 6):
        for p in range(1, n + 1):
            ops.append(gar.pfold_operator(n, p))
    for delta in (0.1, 1.0):
        ops.append(gar.delta_elliptic_operator(3, delta))
    for k in (1, 2, 3):
        ops.append(gar.sigma_k_operator(3, k))
    ops.append(gar.lagrangian_ma_operator(4))
    ops.append(gar.pucci_garding_operator(1.0, 2.0, 2))
    return ops


def test_criterion_1_garding_identities(capsys):
    t0 = time.time()
    matrices_per_op = 1000
    for op in garding_suite_operators():
        rng = np.random.default_rng(1001)
        # A and t drawn in turn, then one stacked eigenvalue call for all A
        # and one for all A + tI
        draws = [(random_symmetric(rng, op.n, 1.5), float(rng.standard_normal()))
                 for _ in range(matrices_per_op)]
        mats = [A for A, _ in draws]
        t = np.array([t for _, t in draws])
        a = np.array([A.entries for A in mats])
        lam = gar.garding_eigenvalues(op, a)
        shifted = gar.garding_eigenvalues(op, a + t[:, None, None] * np.eye(op.n))
        worst_prod = max(gar.product_identity_residual(op, A, lam_A)
                         for A, lam_A in zip(mats, lam))
        worst_shift = float(np.max(np.abs(shifted - lam - t[:, None])))
        assert worst_prod < 1e-7, f"{op.label}: product residual {worst_prod:.2e}"
        assert worst_shift < 1e-8, f"{op.label}: shift residual {worst_shift:.2e}"
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(capsys, 1, f"Garding identities on 22 operators x {matrices_per_op} matrices "
              f"in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. Duality suite
# --------------------------------------------------------------------------


def catalog_oracles_for_duality():
    out = [
        cat.cone_P(3), cat.cone_P_dual(3), cat.cone_Q(2), cat.cone_Q_dual(2),
        cat.cone_M0(2), cat.branch(3, 2), cat.cone_pfold(3, 2),
        cat.cone_sigma_k(3, 2), cat.cone_pucci(2, 1.0, 2.0),
        cat.cone_quasiconvex(2, 0.5), cat.cone_lagrangian(4),
        cat.cone_M(MonotonicityCone(1.0, DirectionalCone.halfspace([1, 0]), 1.0), 2),
        cat.cone_M(M_FULL, 2), cat.fiber_failure_example(2, 2.0),
    ]
    for key in ("pma", "slag", "affine-sphere", "ot"):
        vf = cat.make_oracle(key, 2)
        out.append(vf.fiber_at(vf.domain.center + 0.1))
    return out


def eig_oracle(label, n, f):
    """A pure second-order oracle from a closed form in the eigenvalues."""
    return cat.FiberOracle(label, n, Arity.PURE_SECOND_ORDER, None,
                           lambda r, p, A: f(np.linalg.eigvalsh(A)))


def pucci_dual(n, lam, Lam):
    """Lam * tr A+ + lam * tr A- >= 0: the Pucci cone with its roles swapped."""
    return eig_oracle(f"pucci dual ({lam},{Lam})", n,
                      lambda ev: Lam * np.sum(np.maximum(ev, 0.0), axis=-1)
                      + lam * np.sum(np.minimum(ev, 0.0), axis=-1))


def dual_pairs():
    """(F, G) with G the dual of F, each G written from its own closed form,
    not by negating F's formula."""
    n = 3
    pairs = [(cat.branch(n, k), eig_oracle(f"lambda_{n + 1 - k} >= 0", n,
                                           lambda ev, j=n - k: ev[..., j]))
             for k in range(1, n + 1)]
    pairs += [(cat.cone_pfold(n, p), eig_oracle(f"top-{p} eigenvalue sum >= 0", n,
                                                lambda ev, p=p: np.sum(ev[..., n - p:], axis=-1)))
              for p in (1, 2)]
    pairs += [
        (cat.cone_pucci(2, 1.0, 2.0), pucci_dual(2, 1.0, 2.0)),
        (cat.cone_pucci(3, 0.5, 3.0), pucci_dual(3, 0.5, 3.0)),
        (cat.cone_quasiconvex(2, 0.5), eig_oracle("lambda_max >= 0.5", 2,
                                                  lambda ev: ev[..., -1] - 0.5)),
        (cat.cone_P(3), cat.cone_P_dual(3)),
        (cat.cone_Q(2), cat.cone_Q_dual(2)),
        # the dual of a Garding cone is {Lambda_max >= 0}, by polynomial roots
        (cat.cone_sigma_k(n, 2), gar.branch_oracle(gar.sigma_k_operator(n, 2), 2)),
        # the Lagrangian cone is lagrangian-ma's Garding cone, whose dual is
        # its top branch
        (cat.cone_lagrangian(4), gar.branch_oracle(gar.lagrangian_ma_operator(4), 4)),
    ]
    return pairs


def assert_dual_pairs(pairs, samples):
    for F, G in pairs:
        rep = check_dual_pair(F, G, samples=samples, seed=2002)
        assert rep.checked > samples // 2, f"{rep.name}: {rep.checked} of {samples} checked"
        assert rep.failed == 0, f"{rep.name}: {rep.failed} disagreements"


def test_criterion_2_duality_suite(capsys):
    samples = 10_000
    for oracle in catalog_oracles_for_duality():
        rep = check_involution(oracle, samples=samples, seed=2002)
        assert rep.failed == 0, f"{oracle.label}: {rep.failed} disagreements"
    pairs = dual_pairs()
    assert_dual_pairs(pairs, samples)
    report(capsys, 2, f"double dual on {len(catalog_oracles_for_duality())} oracles and "
              f"{len(pairs)} independently written duals x {samples} jets")


@pytest.mark.parametrize("F, G", [
    (cat.branch(3, 1), cat.branch(3, 1)),
    (cat.branch(3, 3), cat.branch(3, 3)),
    (cat.cone_pucci(2, 1.0, 2.0), cat.cone_pucci(2, 1.0, 2.0)),
    (cat.cone_pfold(3, 2), eig_oracle("bottom-2 sum", 3, lambda ev: ev[..., 0] + ev[..., 1])),
    (cat.cone_quasiconvex(2, 0.5), eig_oracle("lambda_max >= -0.5", 2,
                                              lambda ev: ev[..., -1] + 0.5)),
    (cat.cone_lagrangian(4), gar.branch_oracle(gar.lagrangian_ma_operator(4), 3)),
], ids=["branch1-self", "branch3-self", "pucci-unswapped", "pfold-bottom", "quasiconvex-sign",
        "lagrangian-branch3"])
def test_criterion_2_rejects_a_mutated_dual(F, G):
    # branch:2 is self-dual in 3-D, so pairing it with itself would pass
    with pytest.raises(AssertionError, match="disagreements"):
        assert_dual_pairs([(F, G)], 10_000)


# --------------------------------------------------------------------------
# 3. Canonical suite
# --------------------------------------------------------------------------


def test_criterion_3_canonical_suite(capsys):
    rng = np.random.default_rng(3003)
    P2, P3 = cat.cone_P(2), cat.cone_P(3)
    for i in range(10_000):
        P = P2 if i % 2 == 0 else P3
        A = random_symmetric(rng, P.n, 2.0)
        lam1 = float(np.linalg.eigvalsh(A.entries)[0])
        assert canonical_operator(P, A) == pytest.approx(lam1, abs=1e-9)
    # CO1 / CO2 at the c = 1 normalization
    from jetcones.jets import random_psd

    for _ in range(1000):
        A = random_symmetric(rng, 2, 1.5)
        Ppos = random_psd(rng, 2)
        assert canonical_operator(P2, A + Ppos) >= canonical_operator(P2, A) - 1e-9
        t = float(rng.standard_normal())
        assert canonical_operator(P2, SymMat(A.entries + t * np.eye(2))) == \
            pytest.approx(canonical_operator(P2, A) + t, abs=1e-9)
    # Pucci sign agreement outside the tolerance band
    pucci = cat.cone_pucci(2, 1.0, 2.0)
    for _ in range(2000):
        A = random_symmetric(rng, 2, 1.5)
        v = pucci.value(Jet2.from_matrix(A))
        if abs(v) < 1e-6:
            continue
        assert np.sign(canonical_operator(pucci, A)) == np.sign(v)
    # pfold canonical value is the truncated mean
    pf = cat.cone_pfold(3, 2)
    for _ in range(2000):
        A = random_symmetric(rng, 3, 1.5)
        lam = np.linalg.eigvalsh(A.entries)
        assert canonical_operator(pf, A) == pytest.approx(
            float(np.mean(lam[:2])), abs=1e-9
        )
    report(capsys, 3, "canonical operators: lambda_min match (1e-9), CO1/CO2 (c=1), "
              "Pucci signs, truncated means")


# --------------------------------------------------------------------------
# 4. Solver exactness
# --------------------------------------------------------------------------


def test_criterion_4_solver_exactness(capsys):
    grid = square_grid(65, 0.0, 1.0)
    quad = from_callable(grid, lambda x: 0.5 * float(x @ x))
    saddle = from_callable(grid, lambda x: x[0] ** 2 - x[1] ** 2)
    zeros = np.zeros(grid.dims)
    runs = [
        ("P", 1.0, quad),
        ("pfold:p=2", 0.0, saddle),
        ("slag", float(np.pi / 2), quad),
    ]
    lines = []
    for key, rhs, exact in runs:
        t0 = time.time()
        u, rep = solve_dirichlet(key, rhs, exact, tol=1e-8, max_iter=100_000,
                                 init=zeros)
        elapsed = time.time() - t0
        err = float(np.max(np.abs(u.values - exact.values)))
        assert err <= 1e-6, f"{key}: error {err:.2e}"
        assert rep.iterations <= 100_000
        assert elapsed < 30.0, f"{key}: {elapsed:.1f}s"
        lines.append(f"{key}: err {err:.1e} in {rep.iterations} its / {elapsed:.0f}s")
    report(capsys, 4, "; ".join(lines))


# --------------------------------------------------------------------------
# 5. Discrete comparison
# --------------------------------------------------------------------------


def test_criterion_5_discrete_comparison(capsys):
    results = comparison_battery(
        ["P", "branch:k=2", "pucci:1,2", "pfold:p=2"],
        pairs=10, n_side=33, seed=5005,
        dims={"pfold:p=2": 3},
    )
    for key, verdicts in results.items():
        assert len(verdicts) == 10
        assert all(v.ok for v in verdicts), key
    grid2 = square_grid(17, 0.0, 1.0)
    grid3 = square_grid(9, 0.0, 1.0, d=3)
    for key in ("P", "branch:k=2", "pucci:1,2"):
        assert scheme_monotonicity_probe(key, grid2, states=1000, seed=5006), key
    assert scheme_monotonicity_probe("pfold:p=2", grid3, states=1000, seed=5007)
    report(capsys, 5, "10 sub/super pairs ordered for P, branch:2, pucci(1,2), "
              "pfold:2 (3-D smoke); monotonicity probe at 1000 states")


# --------------------------------------------------------------------------
# 6. Zero maximum principle for dual cones
# --------------------------------------------------------------------------


def test_criterion_6_zmp_dual_cones(capsys):
    cases = [
        ("reduced-P", M_FULL, Arity.PURE_SECOND_ORDER, -1.0, 1.0),
        ("Q", M_FULL, Arity.GRADIENT_FREE, -1.0, 1.0),
        ("M(1,half,inf)",
         MonotonicityCone(1.0, DirectionalCone.halfspace([1.0, 0.0]), math.inf),
         Arity.FULL, -1.0, 1.0),
        ("M(0,full,1) small box",
         MonotonicityCone(0.0, DirectionalCone.full(), 1.0),
         Arity.FULL, 0.0, 1.2),
    ]
    out = zmp_battery(cases, n_side=17, seed=6006, samples=5)
    for label, verdicts in out.items():
        assert all(v.ok for v in verdicts), label
        if label.startswith("M("):
            assert all("exists" in v.note for v in verdicts), label
    # R = 1 on a box that does not fit inside a unit-ball translate:
    # the absence of a strict approximator is documented, not asserted away
    M_R1 = MonotonicityCone(0.0, DirectionalCone.full(), 1.0)
    big = square_grid(17, 0.0, 2.4)
    assert strict_approximator(M_R1, big) is None
    rng = np.random.default_rng(6007)
    v = zmp_experiment(M_R1, zmp_sample(M_R1, big, rng), arity=Arity.FULL)
    assert "not asserted" in v.note
    report(capsys, 6, "ZMP verified where a strict approximator exists; R-finite "
              "obstruction documented on the oversized box")


# --------------------------------------------------------------------------
# 7. Correspondence controls and fiber continuity
# --------------------------------------------------------------------------


def test_criterion_7_correspondence_controls(capsys):
    Q = cat.cone_Q(2)
    rep = check_compatibility(lambda r, p, A: -r * np.linalg.det(A), Q, Q, samples=400,
                              seed=7007)
    assert rep.ok

    def sum_op(r, p, A):
        return -r + np.linalg.det(A)

    F_sum = induced_fiber(sum_op, Q, 2, Arity.GRADIENT_FREE, "sum-induced")
    rep2 = check_compatibility(sum_op, Q, F_sum, samples=400, seed=7008)
    assert not rep2.ok
    assert any(
        np.allclose(w.A.entries, 0.0, atol=1e-8) and w.r < 0 for w in rep2.witnesses
    ), "witnesses should sit on the negative-value, zero-Hessian face"
    # fiber continuity dichotomy across / within phase intervals
    box = cat.Box([-1.0, -1.0], [1.0, 1.0])
    crossing = fiber_special_lagrangian(box, lambda x: 0.4 * x[..., 0], n=2)
    repx = check_fiberegularity(crossing, M_FULL, eta=0.1, grid_per_side=16,
                                anchors=40, jets_per_point=20, seed=7009)
    assert not repx.passed
    assert repx.witness is not None
    inside = fiber_special_lagrangian(box, lambda x: 1.1 + 0.15 * x[..., 0], n=2)
    repi = check_fiberegularity(inside, M_FULL, eta=0.1, grid_per_side=16,
                                anchors=40, jets_per_point=20, seed=7010)
    assert repi.passed
    assert repi.delta > repi.resolution
    report(capsys, 7, f"compatibility controls pass/fail as expected; phase-crossing "
              f"witness at d={repx.delta:.3f}, in-interval delta={repi.delta:.3f}")


# --------------------------------------------------------------------------
# 8. Pseudoconvexity dichotomy
# --------------------------------------------------------------------------


def test_criterion_8_pseudoconvexity_dichotomy(capsys):
    from jetcones.boundary import (
        boundary_point,
        saddle_domain,
        slab_domain,
        sphere_domain,
        strict_ellipticity_check,
        strict_pseudoconvex_at,
    )

    ok, worst, _ = strict_ellipticity_check(cat.cone_P_dual(3), seed=8008)
    assert ok and worst > 0
    # proper truncations all carry a boundary geometry; the p = n trace
    # cone is strictly elliptic (rank-one projectors have trace 1 > 0),
    # so the "all p" claim is read over p < n
    for p in (1, 2):
        ok_p, _, _ = strict_ellipticity_check(cat.cone_pfold(3, p), seed=8008)
        assert not ok_p
    ok_n, _, _ = strict_ellipticity_check(cat.cone_pfold(3, 3), seed=8008)
    assert ok_n

    sphere = sphere_domain(3)
    for x in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]):
        bp = boundary_point(sphere, x)
        assert strict_pseudoconvex_at(cat.cone_P(3), bp).convex
    slab = slab_domain(2)
    bp_slab = boundary_point(slab, [1.0, 0.3])
    assert not strict_pseudoconvex_at(cat.cone_P(2), bp_slab).convex
    saddle = saddle_domain()
    bp_saddle = boundary_point(saddle, [0.0, 0.0, 0.0])
    assert not strict_pseudoconvex_at(cat.cone_pfold(3, 2), bp_saddle).convex
    # determinism across runs
    v1 = strict_pseudoconvex_at(cat.cone_pfold(3, 2), bp_saddle)
    v2 = strict_pseudoconvex_at(cat.cone_pfold(3, 2), bp_saddle)
    assert (v1.convex, v1.t0) == (v2.convex, v2.t0)
    report(capsys, 8, "ellipticity dichotomy and sphere/slab/saddle verdicts, "
              "deterministic across runs")


# --------------------------------------------------------------------------
# 9. Sup-convolution
# --------------------------------------------------------------------------


def nonsmooth_samples(grid, seed):
    rng = np.random.default_rng(seed)
    out = []
    mesh = grid.meshgrid()
    for k in range(5):
        vals = np.zeros(grid.dims)
        for _ in range(3):
            a = rng.standard_normal(grid.d)
            b = rng.standard_normal()
            plane = sum(a[i] * mesh[i] for i in range(grid.d)) + b
            vals = np.maximum(vals, plane) if rng.random() < 0.5 else vals - np.abs(plane)
        vals += 0.2 * rng.standard_normal(grid.dims)  # rough noise
        out.append(GridFunction(grid, vals))
    return out


def test_criterion_9_sup_convolution(capsys):
    from jetcones.grids import Grid

    grids = [Grid([-1.0], [1.0], (129,)), square_grid(65, -1.0, 1.0)]
    eps_ladder = (0.1, 0.3, 1.0)
    for grid in grids:
        for u in nonsmooth_samples(grid, seed=9009):
            prev = None
            for eps in eps_ladder:
                ue = sup_convolution(u, eps)
                assert np.all(ue.values >= u.values - 1e-12)
                if prev is not None:
                    assert np.all(ue.values >= prev.values - 1e-12)
                assert quasiconvexity_defect(ue, eps) >= -1e-8
                prev = ue
    report(capsys, 9, "sup-convolution domination, eps-monotonicity, and discrete "
              "quasiconvexity on 129-node 1-D and 65x65 grids")
