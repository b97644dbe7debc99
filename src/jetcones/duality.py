"""Dirichlet duality: numeric dual membership and sampled verifications.

The dual of a constraint set F is (-Int F)^c. With a defining
functional g for F, the dual's functional is J -> -g(-J): margins
transfer exactly, interior of the dual is the negated exterior of F.
All checks here are sampled evidence at declared resolutions, with
fixed seeds per report; jets within 3*tol of a boundary are excluded
from pass/fail counts and reported separately.

Sampling layout. The draws of every check follow one generator in a
fixed per-sample order, and the oracle work runs on stacks:
check_involution, check_dual_pair and check_inclusion draw the whole
sample first and classify it with one values call per oracle;
check_monotonicity and check_jet_addition draw sample by sample, then
push every jet outside its fiber to the boundary in one lockstep search
(catalog.shift_jets_to_boundary), mix the cone members in one lockstep
search and classify every sum in one call. Reports are filled in sample
order and match the one-sample-at-a-time loops bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .catalog import (
    DEFAULT_TOL,
    SHIFT_TOL,
    ConeKind,
    FiberOracle,
    MonotonicityCone,
    Region,
    VariableFiberMap,
    classify_value,
    cone_M,
    crossing_brackets,
    fan_values,
    fiber_values,
    members,
    shift_jets_to_boundary,
    take_rows,
)
from .jets import Jet2, SymMat, random_jet, stack_jets


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


def dual_contains(F: FiberOracle, J, tol: float = DEFAULT_TOL) -> Region:
    """Classify J against the dual of F, margins taken from F at -J."""
    return dual_oracle(F).classify(J, tol)


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
        return self.checked == self.passed

    def record(self, ok: bool, margin: float, witness: Optional[Jet2] = None):
        self.checked += 1
        if ok:
            self.passed += 1
        elif witness is not None and len(self.witnesses) < 8:
            self.witnesses.append(witness)
        self.worst_margin = min(self.worst_margin, margin)

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


def _sample_jets(n: int, samples: int, seed: int, scale: float) -> tuple:
    """The jets of `samples` random_jet draws at a fixed seed, as stacks
    (r, p, A), bit for bit: one draw of the whole sample, sliced in
    random_jet's order (r, then p, then the square that A symmetrizes)."""
    x = np.random.default_rng(seed).standard_normal((samples, 1 + n + n * n)) * scale
    g = x[:, 1 + n:].reshape(samples, n, n)
    return x[:, 0], x[:, 1:1 + n], 0.5 * (g + g.swapaxes(-1, -2))


def _agreement(F: FiberOracle, G: FiberOracle, name: str, same: Callable, samples: int,
               seed: int, tol: float, scale: float) -> CheckReport:
    """same(region under F, region under G) on sampled jets whose margin
    under F exceeds 3*tol. F, then G on the jets it keeps, classify the
    sample in one values call each; the report is filled jet by jet in
    sampling order."""
    if F.n != G.n:
        raise ValueError(f"dimension mismatch: oracles of dimension {F.n} and {G.n}")
    rep = CheckReport(name=name, seed=seed)
    r, p, A = _sample_jets(F.n, samples, seed, scale)
    first = [classify_value(g, tol) for g in F.values(r, p, A).tolist()]
    kept = [i for i, r1 in enumerate(first) if r1.margin > 3 * tol]
    rep.excluded_boundary = samples - len(kept)
    second = G.values(r[kept], p[kept], A[kept]).tolist()
    for i, g in zip(kept, second):
        ok = same(first[i], classify_value(g, tol))
        rep.record(ok, first[i].margin, None if ok else Jet2(r[i], p[i], A[i]))
    return rep


def check_involution(
    F: FiberOracle,
    samples: int = 1000,
    seed: int = 23,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Double dual agrees with F (the same region kind) away from a 3*tol
    boundary band."""
    return _agreement(F, dual_oracle(dual_oracle(F)), f"involution[{F.key or F.label}]",
                      lambda r1, r2: r1.kind is r2.kind, samples, seed, tol, scale)


def check_dual_pair(
    F: FiberOracle,
    G: FiberOracle,
    samples: int = 1000,
    seed: int = 41,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """G is the Dirichlet dual of F: membership in G agrees with membership
    in dual_oracle(F) away from a 3*tol band of the latter's boundary.

    G must be written independently of F's formula (a closed form of the
    dual, another route to it); otherwise the check only tests negation.
    """
    return _agreement(dual_oracle(F), G, f"dual-pair[{F.key or F.label}, {G.key or G.label}]",
                      lambda r1, r2: r1.is_member == r2.is_member, samples, seed, tol, scale)


@dataclass
class _Draw:
    """A sampled jet J. When J lies outside its fiber, also the margin of
    its shift (the next draw), shift_to_boundary's own membership test of
    J and the generator state right after the margin."""

    J: Jet2
    margin: Optional[float] = None
    start_in: bool = False
    state: Optional[dict] = None


def _draw(rng: np.random.Generator, J: Jet2, g: float, tol: float) -> _Draw:
    """J, whose fiber's functional is g there, with the shift data drawn
    when g puts J outside under tol."""
    if not g < -tol:
        return _Draw(J)
    margin = abs(rng.standard_normal()) + 1e-3
    return _Draw(J, margin, not g < -SHIFT_TOL, rng.bit_generator.state)


def _into_fibers(F: Union[FiberOracle, VariableFiberMap], draws: list, J0: Jet2, tol: float,
                 points: Optional[list] = None) -> list:
    """Each draw's jet inside its fiber (for a variable fiber map, the
    fiber at points[i]), or None.

    A member stays as drawn. A jet outside moves along J0 to the fiber's
    boundary and its margin past it, as shift_to_boundary moves it, and
    becomes None when no crossing is bracketed or the moved jet is not a
    member under tol. All shifts search in lockstep
    (catalog.boundary_shifts, on the eigenvalues for a spectral fiber
    when J0's Hessian is a multiple of I), and the moved jets are tested
    in one values call.
    """
    out = [d.J for d in draws]
    rows = [i for i, d in enumerate(draws) if d.margin is not None]
    if not rows:
        return out
    moved = shift_jets_to_boundary(F, [draws[i].J for i in rows], J0,
                                   [draws[i].margin for i in rows],
                                   [draws[i].start_in for i in rows], member_tol=tol,
                                   points=None if points is None else [points[i] for i in rows])
    for i, K in zip(rows, moved):
        out[i] = K
    return out


def _cone_draw(M: MonotonicityCone, rng: np.random.Generator, n: int, scale: float,
               extreme: bool) -> Jet2:
    """The draws of sample_cone_member: the finished jet when extreme, else
    the random jet that _mix_into_cone moves into M."""
    if not extreme:
        return random_jet(rng, n, scale)
    p = rng.standard_normal(n) * scale
    if M.D.kind is ConeKind.HALFSPACE:
        s = p @ M.D.direction
        if s < 0:
            p = p - 2 * s * M.D.direction
    elif M.D.kind is ConeKind.ORTHANT:
        q = np.zeros(n)
        for a in M.D.axes:
            q[a] = abs(p[a])
        p = q
    pn = float(np.linalg.norm(p))
    a = 0.0 if math.isinf(M.R) else pn / M.R
    return Jet2(-M.gamma * pn, p, SymMat(a * np.eye(n)))


def _mixing_ts() -> tuple:
    """t = 0, 0.5, 1.5, ..., each 2*t + 0.5 of the last, up to the first t >= 1e6."""
    ts = [0.0]
    while ts[-1] < 1e6:
        ts.append(2.0 * ts[-1] + 0.5)
    return tuple(ts)


_MIXING_TS = _mixing_ts()
_MIXING_ROW = np.array([_MIXING_TS])


def _mix_into_cone(M: MonotonicityCone, n: int, jets: list) -> list:
    """Each jet J mixed toward M's interior jet J0: J + t*J0 at the first t
    of _MIXING_TS where that is a member of M, else at the last t. All jets
    probe in lockstep."""
    if not jets:
        return []
    J0 = M.interior_jet(n)
    values = cone_M(M, n).values
    rays = tuple(a[:, None] for a in stack_jets(jets, n))
    brackets = crossing_brackets(
        lambda live, t: members(fan_values(values, tuple(take_rows(a, live) for a in rays),
                                           (J0.r, J0.p, J0.A.entries), t)),
        np.repeat(_MIXING_ROW, len(jets), axis=0), [False] * len(jets))
    # a bracket's member end comes first
    return [J + (_MIXING_TS[-1] if b is None else b[0]) * J0 for J, b in zip(jets, brackets)]


def sample_cone_member(M: MonotonicityCone, rng: np.random.Generator, n: int,
                       scale: float = 1.0, extreme: bool = False) -> Jet2:
    """Random jet inside M(gamma, D, R), built constructively.

    With extreme=True the jet sits on the cone's extreme rays (tight
    value slot, minimal Hessian part), the discriminating directions for
    monotonicity probes. Otherwise a random jet is mixed toward the
    cone's interior jet along t = 0, 0.5, 1.5, ... until membership holds
    or t reaches 1e6.
    """
    K = _cone_draw(M, rng, n, scale, extreme)
    return K if extreme else _mix_into_cone(M, n, [K])[0]


def _record_sums(rep: CheckReport, g: np.ndarray, witnesses: list, tol: float) -> None:
    """One verdict per value of g, in order: a pass when a member or
    outside by at most 10*tol."""
    for w, gi in zip(witnesses, g.tolist()):
        r = classify_value(gi, tol)
        ok = r.is_member or r.margin <= 10 * tol
        rep.record(ok, r.margin if r.is_member else -r.margin, None if ok else w)


def check_monotonicity(
    F: Union[FiberOracle, VariableFiberMap],
    M: MonotonicityCone,
    samples: int = 400,
    seed: int = 29,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Sampled F + M subset-of F, fiberwise for variable fiber maps.

    Sample i draws, in this generator order, a point x (variable fiber
    maps), a jet J and, when J is outside its fiber, the margin of its
    shift into the fiber along M's interior jet. When J is a member or
    its shift succeeds, it goes on to draw a scale and a member K of M
    (on an extreme ray for even i) and checks J + K; a failed shift ends
    the sample.

    The draws run sample by sample on the assumption that every shift
    succeeds, and then the batch's shifts run in lockstep. At the first
    failed shift the generator goes back to its state after that
    sample's margin and drawing resumes at the next sample, so the
    report is the one-sample-at-a-time loop's to the bit.
    """
    rng = np.random.default_rng(seed)
    variable = isinstance(F, VariableFiberMap)
    n = F.n
    J0 = M.interior_jet(n)
    index, points, jets, cones = [], [], [], []
    i, window = 0, samples
    while i < samples:
        bx, draws, bk, raised = [], [], [], None
        for j in range(i, min(samples, i + window)):
            x = F.domain.sample(rng, 1)[0] if variable else None
            J = random_jet(rng, n, scale)
            try:
                g = float(F.form(x, J.r, J.p, J.A.entries)) if variable else F.value(J)
            except Exception as exc:
                # a bad point, say: raised once no earlier shift of the batch
                # fails, since after a failure this sample draws another point
                raised = exc
                break
            bx.append(x)
            draws.append(_draw(rng, J, g, tol))
            bk.append(_cone_draw(M, rng, n, abs(rng.standard_normal()) + 0.1,
                                 extreme=(j % 2 == 0)))
        moved = _into_fibers(F, draws, J0, tol, bx if variable else None)
        fail = next((k for k, Jm in enumerate(moved) if Jm is None), None)
        if fail is None:
            if raised is not None:
                raise raised
            keep, skip, window = len(draws), 0, 2 * window
        else:
            rng.bit_generator.state = draws[fail].state
            # the next batch reaches about as far as this one did, so a
            # fiber whose shifts often fail wastes few speculative draws
            keep, skip, window = fail, 1, 2 * (fail + 1)
        index += range(i, i + keep)
        points += bx[:keep]
        jets += moved[:keep]
        cones += bk[:keep]
        i += keep + skip
    rep = CheckReport(name="monotonicity", seed=seed)
    if not jets:
        return rep
    mixing = [k for k, j in enumerate(index) if j % 2 == 1]
    for k, K in zip(mixing, _mix_into_cone(M, n, [cones[k] for k in mixing])):
        cones[k] = K
    values = fiber_values(F, points if variable else None)
    sums = stack_jets([J + K for J, K in zip(jets, cones)], n)
    _record_sums(rep, values(np.arange(len(jets)), *sums), jets, tol)
    return rep


def check_jet_addition(
    F: FiberOracle,
    M: MonotonicityCone,
    samples: int = 400,
    seed: int = 31,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
    precheck: bool = True,
) -> CheckReport:
    """Sampled F + F~ subset-of M~ (the jet-addition route to comparison).

    Precondition: F is M-monotone; verified by a sampled run first, and
    the check refuses to run on failure. Each sample draws J for F and K
    for F~, each with the margin of its shift when outside; no draw
    depends on a shift, so the whole sample is drawn first, the shifts
    into F and into F~ run in lockstep, and every J + K is classified
    in one call.
    """
    if precheck:
        mono = check_monotonicity(F, M, samples=max(200, samples), seed=seed + 1,
                                  tol=tol, scale=scale)
        if not mono.ok:
            raise ValueError(
                f"jet-addition precondition failed: F is not M-monotone "
                f"({mono.failed} violations)"
            )
    rng = np.random.default_rng(seed)
    n = F.n
    Fd = dual_oracle(F)
    J0 = M.interior_jet(n)
    drawsF, drawsFd = [], []
    for _ in range(samples):
        J = random_jet(rng, n, scale)
        drawsF.append(_draw(rng, J, F.value(J), tol))
        K = random_jet(rng, n, scale)
        drawsFd.append(_draw(rng, K, Fd.value(K), tol))
    Js = _into_fibers(F, drawsF, J0, tol)
    Ks = _into_fibers(Fd, drawsFd, J0, tol)
    sums = [J + K for J, K in zip(Js, Ks) if J is not None and K is not None]
    rep = CheckReport(name="jet-addition", seed=seed)
    if sums:
        _record_sums(rep, dual_oracle(cone_M(M, n)).values(*stack_jets(sums, n)), sums, tol)
    return rep


def check_inclusion(
    F: FiberOracle,
    G: FiberOracle,
    samples: int = 1000,
    seed: int = 37,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Sampled F subset-of G (members of F classified as members of G).

    The whole sample is drawn first; F classifies it in one values call,
    and G the members of F outside F's 3*tol boundary band in another.
    """
    rep = CheckReport(name="inclusion", seed=seed)
    r, p, A = _sample_jets(F.n, samples, seed, scale)
    first = [classify_value(g, tol) for g in F.values(r, p, A).tolist()]
    inside = [i for i, rF in enumerate(first) if rF.is_member]
    kept = [i for i in inside if first[i].margin > 3 * tol]
    rep.excluded_boundary = len(inside) - len(kept)
    for i, g in zip(kept, G.values(r[kept], p[kept], A[kept]).tolist()):
        rG = classify_value(g, tol)
        ok = rG.is_member
        rep.record(ok, rG.margin if ok else -rG.margin, None if ok else Jet2(r[i], p[i], A[i]))
    return rep
