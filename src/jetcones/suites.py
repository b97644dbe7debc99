"""Named property-check suites behind the `check` CLI subcommand.

Each suite runs fixed-seed sampled verifications and returns
(all_passed, report lines). The heavier acceptance-level runs live in
the test suite; these are quick smoke versions of the same checks.
"""

from __future__ import annotations

import math

import numpy as np

from . import catalog as cat
from . import garding as gar
from .duality import check_involution, check_jet_addition, check_monotonicity
from .jets import random_symmetric


def _suite_duality_involution(seed: int):
    lines = []
    ok = True
    oracles = [
        cat.cone_P(3),
        cat.cone_P_dual(3),
        cat.cone_Q(2),
        cat.cone_Q_dual(2),
        cat.branch(3, 2),
        cat.cone_pfold(3, 2),
        cat.cone_pucci(2, 1.0, 2.0),
        cat.cone_M(cat.MonotonicityCone(1.0, cat.DirectionalCone.full(), 1.0), 2),
    ]
    for oracle in oracles:
        rep = check_involution(oracle, samples=2000, seed=seed)
        ok &= rep.ok
        lines.append(
            f"[{'PASS' if rep.ok else 'FAIL'}] involution {oracle.key or oracle.label}: "
            f"{rep.passed}/{rep.checked} agree, {rep.excluded_boundary} excluded"
        )
    return ok, lines


def _suite_garding_identities(seed: int):
    rng = np.random.default_rng(seed)
    lines = []
    ok = True
    ops = [
        gar.det_operator(3),
        gar.pfold_operator(3, 2),
        gar.delta_elliptic_operator(3, 0.5),
        gar.sigma_k_operator(3, 2),
        gar.lagrangian_ma_operator(4),
        gar.pucci_garding_operator(1.0, 2.0, 2),
    ]
    for op in ops:
        # A and t drawn in turn, then one stacked eigenvalue call for all A
        # and one for all A + tI
        draws = [(random_symmetric(rng, op.n, 1.5), float(rng.standard_normal()))
                 for _ in range(100)]
        a = np.array([A.entries for A, _ in draws])
        t = np.array([t for _, t in draws])
        lam = gar.garding_eigenvalues(op, a)
        shifted = gar.garding_eigenvalues(op, a + t[:, None, None] * np.eye(op.n))
        worst_prod = max(gar.product_identity_residual(op, A, lam_A)
                         for (A, _), lam_A in zip(draws, lam))
        worst_shift = float(np.max(np.abs(shifted - lam - t[:, None])))
        good = worst_prod < 1e-7 and worst_shift < 1e-8
        ok &= good
        lines.append(
            f"[{'PASS' if good else 'FAIL'}] {op.key}: product residual {worst_prod:.2e}, "
            f"shift residual {worst_shift:.2e}"
        )
    return ok, lines


def _suite_monotonicity(seed: int):
    lines = []
    ok = True
    M_P = cat.MonotonicityCone(0.0, cat.DirectionalCone.full(), math.inf)
    cases = [
        (cat.cone_P(3), M_P),
        (cat.cone_Q(2), M_P),
        (cat.cone_pucci(2, 1.0, 2.0), M_P),
    ]
    for oracle, M in cases:
        rep = check_monotonicity(oracle, M, samples=300, seed=seed)
        ok &= rep.ok
        lines.append(
            f"[{'PASS' if rep.ok else 'FAIL'}] monotonicity {oracle.key}: "
            f"{rep.passed}/{rep.checked}"
        )
        rep2 = check_jet_addition(oracle, M, samples=200, seed=seed + 1)
        ok &= rep2.ok
        lines.append(
            f"[{'PASS' if rep2.ok else 'FAIL'}] jet addition {oracle.key}: "
            f"{rep2.passed}/{rep2.checked}"
        )
    return ok, lines


def _suite_comparison(seed: int):
    from .experiments import comparison_battery

    results = comparison_battery(["P", "branch:k=2"], pairs=4, n_side=17, seed=seed)
    lines = []
    ok = True
    for key, verdicts in results.items():
        good = all(v.ok for v in verdicts)
        ok &= good
        lines.append(f"[{'PASS' if good else 'FAIL'}] comparison {key}: "
                     f"{sum(v.ok for v in verdicts)}/{len(verdicts)} pairs ordered")
    return ok, lines


def _suite_utp(seed: int):
    from .experiments import utp_perturbed_ma

    rep = utp_perturbed_ma(theta=0.1, n_side=17, seed=seed)
    ok = rep.passed and rep.delta > 0
    lines = [
        f"[{'PASS' if ok else 'FAIL'}] uniform translation (perturbed MA): "
        f"delta = {rep.delta:.4f} at theta = {rep.theta}"
    ]
    return ok, lines


SUITES = {
    "duality-involution": _suite_duality_involution,
    "garding-identities": _suite_garding_identities,
    "monotonicity": _suite_monotonicity,
    "comparison": _suite_comparison,
    "utp": _suite_utp,
}


def run_suite(name: str, seed: int = 2024):
    from .errors import UnknownKey

    if name not in SUITES:
        raise UnknownKey(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    return SUITES[name](seed)
