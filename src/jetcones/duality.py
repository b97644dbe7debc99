"""Dirichlet duality: numeric dual membership and sampled verifications.

The dual of a constraint set F is (-Int F)^c. With a defining
functional g for F, the dual's functional is J -> -g(-J): margins
transfer exactly, interior of the dual is the negated exterior of F.
All checks here are sampled evidence at declared resolutions, with
fixed seeds per report and random jets of scale SAMPLE_SCALE; jets
within 3*DEFAULT_TOL of a boundary (3*tol for check_inclusion) are
excluded from pass/fail counts and reported separately.

Sampling layout. Every check draws its whole sample first, as blocks
from one generator in a fixed documented order, and then runs each
stage once on stacks: check_involution, check_dual_pair and
check_inclusion classify the sample with one values call per oracle.
check_monotonicity and check_jet_addition move their jets into their
fibers in one step, catalog.into_fibers: one values call classifies the
jets, one lockstep search (catalog.shift_stack_to_boundary) pushes every
jet outside its fiber past the boundary, and one more values call keeps
the moved jets that are members. check_monotonicity then mixes its cone
members with one probe call on a fixed ladder, dropping a sample whose
ladder reaches no member of M, and both checks classify every sum in one
call. No draw depends on an oracle value, so reports are filled in
sample order and match the one-sample-at-a-time loops over the same
draws bit for bit. A Jet2 is built only for a witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .catalog import (
    DEFAULT_TOL,
    ConeKind,
    FiberOracle,
    MonotonicityCone,
    VariableFiberMap,
    _doubling_steps,
    classify_values,
    cone_M,
    fiber_values,
    into_fibers,
    jets_along,
    members,
    ray_probe,
)
from .jets import random_jets, unstack_jets

# the scale of the random jets (jets.random_jets) of every check here
SAMPLE_SCALE = 1.5


def dual_oracle(F: Union[FiberOracle, VariableFiberMap]):
    """The Dirichlet dual, J in F~ iff -J not in Int F, with the form
    -g(-r, -p, -A); a variable fiber map is dualized fiber by fiber and
    keeps its domain and monotonicity data. The dual of a spectral fiber
    (FiberOracle.spectrum = f) has spectrum -f(-r, -p, -lam[..., ::-1]),
    the same function of the eigenvalues as its form up to the rounding
    of the eigen-solves."""
    label = f"dual of [{F.label}]"
    key = (F.key + "~") if F.key else None
    form = F.form
    if isinstance(F, VariableFiberMap):
        return replace(F, label=label, key=key,
                       form=lambda x, r, p, A: -form(x, -r, -p, -A),
                       describe_at=lambda x: f"dual of [{F.describe_at(x)}]")
    # lambda(-A) is -lambda(A) reversed, so a spectral fiber's dual is spectral
    f = F.spectrum
    return FiberOracle(label, F.n, F.arity, key, lambda r, p, A: -form(-r, -p, -A),
                       None if f is None else lambda r, p, lam: -f(-r, -p, -lam[..., ::-1]))


@dataclass
class CheckReport:
    """Sampled-verification summary, JSON-serializable."""

    name: str
    checked: int = 0
    passed: int = 0
    excluded_boundary: int = 0
    worst_margin: float = float("inf")
    witnesses: list = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def failed(self) -> int:
        return self.checked - self.passed

    @property
    def ok(self) -> bool:
        """Every sample passed, and there was at least one: an empty
        sample is no evidence."""
        return 0 < self.checked == self.passed

    def record(self, ok, margin, witnesses: tuple) -> None:
        """One verdict per sample, in order: ok[k] and margin[k], with row i
        of the stacks witnesses = (r[k], p[k, n], A[k, n, n]) the witness
        of sample i. The first 8 failures become witnesses; worst_margin
        falls to the first least margin, and a NaN margin never lowers it,
        as min(worst_margin, margin) sample by sample would give."""
        ok = np.asarray(ok, dtype=bool)
        margin = np.asarray(margin, dtype=float)
        self.checked += len(ok)
        self.passed += int(np.count_nonzero(ok))
        bad = np.flatnonzero(~ok)[:max(0, 8 - len(self.witnesses))]
        self.witnesses += unstack_jets(*(a[bad] for a in witnesses))
        margin = margin[~np.isnan(margin)]
        if margin.size:
            self.worst_margin = min(self.worst_margin, float(margin[margin.argmin()]))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "checked": self.checked,
            "passed": self.passed,
            "excluded_boundary": self.excluded_boundary,
            "worst_margin": None if self.checked == 0 else self.worst_margin,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
            "seed": self.seed,
        }


def _agreement(F: FiberOracle, G: FiberOracle, name: str, same: Callable, samples: int,
               seed: int) -> CheckReport:
    """same(F's classification, G's) on sampled jets whose margin under F
    exceeds 3*DEFAULT_TOL, each classification the (member, signed margin)
    arrays of classify_values. F, then G on the jets it keeps, classify
    the sample in one values call each."""
    if F.n != G.n:
        raise ValueError(f"dimension mismatch: oracles of dimension {F.n} and {G.n}")
    rep = CheckReport(name=name, seed=seed)
    J = random_jets(np.random.default_rng(seed), F.n, samples, SAMPLE_SCALE)
    member, margin = classify_values(F.values(*J))
    kept = np.flatnonzero(np.abs(margin) > 3 * DEFAULT_TOL)
    rep.excluded_boundary = samples - len(kept)
    J = tuple(a[kept] for a in J)
    first = member[kept], margin[kept]
    rep.record(same(first, classify_values(G.values(*J))), np.abs(first[1]), J)
    return rep


def check_involution(
    F: FiberOracle,
    samples: int = 1000,
    seed: int = 23,
) -> CheckReport:
    """Double dual agrees with F (the same region kind: the sign of the
    signed margin) away from a 3*DEFAULT_TOL boundary band."""
    return _agreement(F, dual_oracle(dual_oracle(F)), f"involution[{F.key or F.label}]",
                      lambda c1, c2: np.sign(c1[1]) == np.sign(c2[1]), samples, seed)


def check_dual_pair(
    F: FiberOracle,
    G: FiberOracle,
    samples: int = 1000,
    seed: int = 41,
) -> CheckReport:
    """G is the Dirichlet dual of F: membership in G agrees with membership
    in dual_oracle(F) away from a 3*DEFAULT_TOL band of the latter's
    boundary.

    G must be written independently of F's formula (a closed form of the
    dual, another route to it); otherwise the check only tests negation.
    """
    return _agreement(dual_oracle(F), G, f"dual-pair[{F.key or F.label}, {G.key or G.label}]",
                      lambda c1, c2: c1[0] == c2[0], samples, seed)


# t = 0, 0.5, 1.5, ..., each 2*t + 0.5 of the last, up to the first t >= 1e6
_MIXING_TS = np.concatenate(([0.0], 0.5 * _doubling_steps(21)))


def _mix_into_cone(M: MonotonicityCone, n: int, J: tuple) -> tuple:
    """Each jet of the stack J mixed toward M's interior jet J0: J + t*J0
    at the first t of _MIXING_TS where that is a member of M. Returns
    which rows reached a member on the ladder, and the mixed jets as
    stacks; a row that reached none keeps its jet, to be dropped by the
    caller. One probe call (catalog.ray_probe) takes every jet's whole
    ladder; J0's Hessian is a multiple of I, so it solves each jet's
    eigenvalues once."""
    J0 = M.interior_jet(n)
    kept = members(ray_probe(cone_M(M, n), J, J0)(np.arange(len(J[0])), _MIXING_TS[None]))
    t = _MIXING_TS[kept.argmax(axis=1)]
    return kept.any(axis=1), jets_along(J, (J0.r, J0.p, J0.A.entries), t)


def _cone_members(M: MonotonicityCone, n: int, J: tuple, extreme: np.ndarray) -> tuple:
    """Members of M(gamma, D, R) built constructively from the random jets
    of the stack J, one per row: which rows became members, and the jets
    as stacks (r, p, A).

    A row with extreme set sits on the cone's extreme rays (tight value
    slot, minimal Hessian part), the discriminating directions for
    monotonicity probes: its gradient p, reflected into D (across the
    half space's boundary, or |p_j| on the orthant's axes and 0
    elsewhere), gives (-gamma*|p|, p, (|p|/R) I), a member by
    construction. Every other row is mixed toward the cone's interior jet
    (_mix_into_cone), and is no member when its ladder reaches none.
    """
    p = J[1]
    if M.D.kind is ConeKind.HALFSPACE:
        s = M.D.functional(p)[:, None]
        p = np.where(s < 0, p - 2 * s * M.D.direction, p)
    elif M.D.kind is ConeKind.ORTHANT:
        p = np.zeros_like(p)
        p[:, M.D.axes] = np.abs(J[1][:, M.D.axes])
    pn = np.sqrt(np.sum(p * p, axis=-1))
    a = np.zeros_like(pn) if math.isinf(M.R) else pn / M.R
    out = (np.where(extreme, -M.gamma * pn, J[0]), np.where(extreme[:, None], p, J[1]),
           np.where(extreme[:, None, None], a[:, None, None] * np.eye(n), J[2]))
    mixing = np.flatnonzero(~extreme)
    reached, mix = _mix_into_cone(M, n, tuple(b[mixing] for b in J))
    for part, mixed in zip(out, mix):
        part[mixing] = mixed
    ok = extreme.copy()
    ok[mixing] = reached
    return ok, out


def _record_sums(rep: CheckReport, g: np.ndarray, W: tuple) -> None:
    """One verdict per value of g, in order: a pass when a member or
    outside by at most 10*DEFAULT_TOL; row i of the stack W is the witness
    of g[i]."""
    member, margin = classify_values(g)
    rep.record(member | (-margin <= 10 * DEFAULT_TOL), margin, W)


def check_monotonicity(
    F: Union[FiberOracle, VariableFiberMap],
    M: MonotonicityCone,
    samples: int = 400,
    seed: int = 29,
) -> CheckReport:
    """Sampled F + M subset-of F, fiberwise for variable fiber maps.

    The whole sample is drawn first, in this generator order: the points
    (variable fiber maps, one domain.sample call), the jets J (one
    random_jets block), the margins of their shifts, the scales of the
    cone members and the random jets K they scale (one more block).
    Every sample draws every part, used or not. Then each stage runs once
    on stacks: the jets outside their fibers move into them along M's
    interior jet (catalog.into_fibers), a sample whose shift fails is
    dropped, each kept sample's K becomes a member of M (on an extreme ray
    for even i, mixed into M otherwise; _cone_members), a sample whose K
    reaches no member on the mixing ladder is dropped as well, and every
    J + K is classified in one call against J's fiber.
    """
    rng = np.random.default_rng(seed)
    n = F.n
    x = F.domain.sample(rng, samples) if isinstance(F, VariableFiberMap) else None
    J = random_jets(rng, n, samples, SAMPLE_SCALE)
    margins = np.abs(rng.standard_normal(samples)) + 1e-3
    scales = np.abs(rng.standard_normal(samples)) + 0.1
    K = random_jets(rng, n, samples, scales)
    rows, J = into_fibers(F, J, M.interior_jet(n), margins, x)
    rep = CheckReport(name="monotonicity", seed=seed)
    if rows.size:
        ok, K = _cone_members(M, n, tuple(a[rows] for a in K), rows % 2 == 0)
        rows, J, K = rows[ok], tuple(a[ok] for a in J), tuple(b[ok] for b in K)
        sums = tuple(a + b for a, b in zip(J, K))
        _record_sums(rep, fiber_values(F, x)(rows, *sums), J)
    return rep


def check_jet_addition(
    F: FiberOracle,
    M: MonotonicityCone,
    samples: int = 400,
    seed: int = 31,
) -> CheckReport:
    """Sampled F + F~ subset-of M~ (the jet-addition route to comparison).

    Precondition: F is M-monotone; verified by a sampled run first
    (check_monotonicity at seed + 1 and at least 200 samples), and the
    check refuses to run when that run fails or checks no sample. Then
    _jet_addition draws and classifies the sample.
    """
    mono = check_monotonicity(F, M, samples=max(200, samples), seed=seed + 1)
    if not mono.checked:
        raise ValueError("jet-addition precondition failed: no sample reached F, "
                         "so its M-monotonicity is untested")
    if not mono.ok:
        raise ValueError(
            f"jet-addition precondition failed: F is not M-monotone "
            f"({mono.failed} violations)"
        )
    return _jet_addition(F, M, samples, seed)


def _jet_addition(F: FiberOracle, M: MonotonicityCone, samples: int, seed: int) -> CheckReport:
    """check_jet_addition's sample, with no precheck. The whole sample is
    drawn first, in this generator order: the jets J for F and the jets K
    for F~ (one random_jets block each), then one block of shift margins
    (J's row, then K's). The jets outside F and outside F~ move in along
    M's interior jet (catalog.into_fibers, once for each), a sample with
    a failed shift is dropped, and every J + K is classified in one call.
    """
    rng = np.random.default_rng(seed)
    n = F.n
    J0 = M.interior_jet(n)
    J = random_jets(rng, n, samples, SAMPLE_SCALE)
    K = random_jets(rng, n, samples, SAMPLE_SCALE)
    margins = np.abs(rng.standard_normal((2, samples))) + 1e-3
    rowsJ, J = into_fibers(F, J, J0, margins[0])
    rowsK, K = into_fibers(dual_oracle(F), K, J0, margins[1])
    inJ, inK = np.isin(rowsJ, rowsK), np.isin(rowsK, rowsJ)
    sums = tuple(a[inJ] + b[inK] for a, b in zip(J, K))
    rep = CheckReport(name="jet-addition", seed=seed)
    if len(sums[0]):
        _record_sums(rep, dual_oracle(cone_M(M, n)).values(*sums), sums)
    return rep


def check_inclusion(
    F: FiberOracle,
    G: FiberOracle,
    samples: int = 1000,
    seed: int = 37,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Sampled F subset-of G (members of F classified as members of G).

    The whole sample is drawn first; F classifies it in one values call,
    and G the members of F outside F's 3*tol boundary band in another.
    """
    rep = CheckReport(name="inclusion", seed=seed)
    J = random_jets(np.random.default_rng(seed), F.n, samples, SAMPLE_SCALE)
    member, margin = classify_values(F.values(*J), tol)
    kept = np.flatnonzero(member & (margin > 3 * tol))
    rep.excluded_boundary = int(np.count_nonzero(member)) - len(kept)
    J = tuple(a[kept] for a in J)
    rep.record(*classify_values(G.values(*J), tol), J)
    return rep
