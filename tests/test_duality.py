import json
import math
from pathlib import Path

import numpy as np
import pytest

from jetcones import garding as gar
from jetcones.catalog import (
    Arity,
    DirectionalCone,
    FiberOracle,
    MonotonicityCone,
    RegionKind,
    branch,
    cone_M,
    cone_P,
    cone_P_dual,
    cone_pfold,
    cone_pucci,
    cone_Q,
    cone_Q_dual,
    cone_sigma_k,
    fiber_affine_sphere,
    fiber_failure_example,
    Box,
)
from jetcones.duality import (
    CheckReport,
    check_dual_pair,
    check_inclusion,
    check_involution,
    check_jet_addition,
    check_monotonicity,
    dual_oracle,
)
from jetcones.jets import (Jet2, SymMat, random_jet, random_jets, random_symmetric, stack_jets,
                           unstack_jets)
from jet2_refs import record, ref_check_dual_pair, ref_check_inclusion, ref_check_involution

ROOT = Path(__file__).resolve().parent.parent

M_A_PART = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)


def test_dual_contains_examples():
    P = cone_P(2)
    r = dual_oracle(P).classify(SymMat.diag(-1, 2))
    assert r.is_member  # -J = diag(1,-2) is not interior to P
    assert dual_oracle(P).classify(SymMat(-np.eye(2))).kind is RegionKind.EXTERIOR


def test_dual_of_P_matches_subaffine_exactly():
    rng = np.random.default_rng(31)
    P, Pd = cone_P(3), cone_P_dual(3)
    for _ in range(2000):
        A = random_symmetric(rng, 3, 1.5)
        r1 = dual_oracle(P).classify(A)
        r2 = Pd.classify(A)
        assert r1.kind is r2.kind
        assert r1.margin == pytest.approx(r2.margin, abs=1e-9)


def test_dual_of_Q_matches_closed_form():
    rng = np.random.default_rng(32)
    Q, Qd = cone_Q(2), cone_Q_dual(2)
    for _ in range(2000):
        J = Jet2(rng.standard_normal(), np.zeros(2), random_symmetric(rng, 2))
        r1 = dual_oracle(Q).classify(J)
        r2 = Qd.classify(J)
        assert r1.kind is r2.kind
        assert r1.margin == pytest.approx(r2.margin, abs=1e-9)


@pytest.mark.parametrize("oracle", [
    cone_P(2), branch(3, 2),
    cone_M(MonotonicityCone(1.0, DirectionalCone.full(), 1.0), 2),
], ids=lambda o: o.key)
def test_involution_no_disagreements(oracle):
    rep = check_involution(oracle, samples=2000, seed=33)
    assert rep.ok
    assert rep.checked > 0


def verify_involution_oracles(monkeypatch):
    """The 18 oracles whose double duals the benchmark's verify workload checks."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    return workloads.involution_oracles()


def test_involution_matches_the_per_jet_loop_on_the_verify_oracles(monkeypatch):
    oracles = verify_involution_oracles(monkeypatch)
    assert len(oracles) == 18
    for F in oracles:
        for seed in (23, 4):
            got = check_involution(F, samples=150, seed=seed)
            ref = ref_check_involution(F, samples=150, seed=seed)
            assert got.to_json_dict() == ref.to_json_dict()
            assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)


def test_record_takes_arrays_as_the_per_sample_record():
    # one array call per batch against one record per sample: witnesses
    # capped at 8, the first least margin, signed zeros and NaN margins
    rng = np.random.default_rng(12)
    J = random_jets(rng, 2, 40)
    ok = rng.uniform(size=40) < 0.6
    margin = rng.choice([-1.5, -0.0, 0.0, 0.25, np.nan, -1.5, 2.0], 40)
    got, ref = CheckReport(name="x"), CheckReport(name="x")
    for lo, hi in ((0, 0), (0, 7), (7, 40)):
        got.record(ok[lo:hi], margin[lo:hi], tuple(a[lo:hi] for a in J))
    for i, K in enumerate(unstack_jets(*J)):
        record(ref, bool(ok[i]), float(margin[i]), K)
    assert got.to_json_dict() == ref.to_json_dict()
    assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)
    assert len(got.witnesses) == 8


def test_involution_report_is_json_serializable():
    rep = check_involution(cone_P(2), samples=100)
    d = rep.to_json_dict()
    json.dumps(d)
    assert set(d) >= {"checked", "passed", "excluded_boundary", "worst_margin",
                      "witnesses", "seed"}


def test_monotonicity_P_plus_P():
    rep = check_monotonicity(cone_P(3), M_A_PART, samples=400)
    assert rep.ok


def test_monotonicity_affine_sphere_is_NP_monotone():
    theta = fiber_affine_sphere(Box([-1, -1], [1, 1]), lambda x: 0.5, n=2)
    rep = check_monotonicity(theta, M_A_PART, samples=300)
    assert rep.ok


def test_monotonicity_failure_example_has_violations():
    # any cone with interior gradient directions is violated
    M = MonotonicityCone(0.0, DirectionalCone.halfspace([1.0, 0.0]), math.inf)
    F = fiber_failure_example(2, 2.0)
    rep = check_monotonicity(F, M, samples=400)
    assert not rep.ok
    assert rep.witnesses


def test_jet_addition_P():
    rep = check_jet_addition(cone_P(3), M_A_PART, samples=300)
    assert rep.ok


def test_jet_addition_Q():
    MQ = MonotonicityCone(0.0, DirectionalCone.full(), math.inf)
    rep = check_jet_addition(cone_Q(2), MQ, samples=300)
    assert rep.ok


def test_jet_addition_refuses_without_monotonicity():
    M = MonotonicityCone(0.0, DirectionalCone.halfspace([1.0, 0.0]), math.inf)
    F = fiber_failure_example(2, 2.0)
    with pytest.raises(ValueError):
        check_jet_addition(F, M, samples=200)


def test_duality_reverses_inclusion():
    # P subset branch(2) on S(3); dual(branch2) subset dual(P) sampled
    P, b2 = cone_P(3), branch(3, 2)
    fwd = check_inclusion(P, b2, samples=2000, seed=34)
    assert fwd.ok
    rev = check_inclusion(dual_oracle(b2), dual_oracle(P), samples=2000, seed=35)
    assert rev.ok


def test_dual_positive_homogeneity():
    rng = np.random.default_rng(36)
    Fd = dual_oracle(cone_pfold(3, 2))
    for _ in range(500):
        J = random_jet(rng, 3, 1.5)
        r = Fd.classify(J)
        if r.kind is RegionKind.BOUNDARY:
            continue
        t = float(rng.uniform(0.2, 5.0))
        assert Fd.classify(t * J, 1e-10).is_member == r.is_member


@pytest.mark.parametrize("F, G, tol", [
    (cone_P(3), branch(3, 2), 1e-8),
    (dual_oracle(branch(3, 2)), dual_oracle(cone_P(3)), 1e-8),
    (branch(3, 2), cone_P(3), 1e-8),             # fails, with witnesses
    (cone_pfold(3, 2), cone_P(3), 0.05),        # a wide band excludes jets
    (cone_Q(2), cone_Q(2), 1e-8),
], ids=["P-in-branch2", "dual-reversed", "branch2-not-in-P", "wide-band", "Q-in-Q"])
def test_check_inclusion_matches_per_jet_loop(F, G, tol):
    for samples in (0, 1, 500):
        got = check_inclusion(F, G, samples=samples, seed=34, tol=tol)
        ref = ref_check_inclusion(F, G, samples=samples, seed=34, tol=tol)
        assert got.to_json_dict() == ref.to_json_dict()
        assert float.hex(got.worst_margin) == float.hex(ref.worst_margin)
    assert (got.excluded_boundary > 0) == (tol > 1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sample_jets_are_the_per_jet_draws(n):
    # one standard_normal call for the whole sample, against random_jet
    # one jet at a time from the same seed, at one scale or one per jet
    for samples in (0, 1, 37):
        per_jet = np.abs(np.random.default_rng(9).standard_normal(samples)) + 0.1
        for scale in (1.0, 1.5, 2.0, per_jet):
            scales = np.broadcast_to(scale, (samples,)).tolist()
            rng = np.random.default_rng(8)
            ref = stack_jets([random_jet(rng, n, s) for s in scales], n)
            got = random_jets(np.random.default_rng(8), n, samples, scale)
            for a, b in zip(got, ref):
                assert a.shape == b.shape
                assert list(map(float.hex, a.ravel().tolist())) == \
                    list(map(float.hex, b.ravel().tolist()))


def eig_oracle(label, n, f):
    """A pure second-order oracle from a closed form in the eigenvalues."""
    return FiberOracle(label, n, Arity.PURE_SECOND_ORDER, None,
                       lambda r, p, A: f(np.linalg.eigvalsh(A)))


@pytest.mark.parametrize("F, G, dual", [
    (cone_P(3), cone_P_dual(3), True),
    (cone_Q(2), cone_Q_dual(2), True),
    (branch(3, 1), eig_oracle("lambda_3", 3, lambda ev: ev[..., 2]), True),
    (cone_pfold(3, 2), eig_oracle("top-2 sum", 3, lambda ev: ev[..., 1] + ev[..., 2]), True),
    (cone_sigma_k(3, 2), gar.branch_oracle(gar.sigma_k_operator(3, 2), 2), True),
    (branch(3, 1), branch(3, 1), False),
    (cone_pucci(2, 1.0, 2.0), cone_pucci(2, 1.0, 2.0), False),
    (cone_pfold(3, 2), eig_oracle("bottom-2 sum", 3, lambda ev: ev[..., 0] + ev[..., 1]), False),
    (cone_sigma_k(3, 2), gar.branch_oracle(gar.sigma_k_operator(3, 2), 1), False),
], ids=["P", "Q", "branch1", "pfold2", "sigma2", "branch1-self", "pucci-unswapped",
        "pfold-bottom", "sigma-Lambda-min"])
def test_check_dual_pair(F, G, dual):
    rep = check_dual_pair(F, G, samples=400, seed=5)
    assert rep.ok == dual
    assert rep.checked > 300
    assert bool(rep.witnesses) == (not dual)
    ref = ref_check_dual_pair(F, G, samples=400, seed=5)
    assert rep.to_json_dict() == ref.to_json_dict()
    assert float.hex(rep.worst_margin) == float.hex(ref.worst_margin)


def test_check_dual_pair_needs_one_dimension():
    with pytest.raises(ValueError):
        check_dual_pair(cone_P(2), cone_P_dual(3))
