"""Dirichlet duality: numeric dual membership and sampled verifications.

The dual of a constraint set F is (-Int F)^c. With a defining
functional g for F, the dual's functional is J -> -g(-J): margins
transfer exactly, interior of the dual is the negated exterior of F.
All checks here are sampled evidence at declared resolutions, with
fixed seeds per report; jets within 3*tol of a boundary are excluded
from pass/fail counts and reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

import numpy as np

from .catalog import (
    DEFAULT_TOL,
    FiberOracle,
    MonotonicityCone,
    Region,
    VariableFiberMap,
    classify_value,
    cone_M,
    ray_values,
)
from .jets import Jet2, random_jet


def dual_oracle(F: Union[FiberOracle, VariableFiberMap]):
    """The Dirichlet dual, J in F~ iff -J not in Int F, with the form
    -g(-r, -p, -A); a variable fiber map is dualized fiber by fiber and
    keeps its domain and monotonicity data."""
    label = f"dual of [{F.label}]"
    key = (F.key + "~") if F.key else None
    form = F.form
    if isinstance(F, VariableFiberMap):
        return replace(F, label=label, key=key,
                       form=lambda x, r, p, A: -form(x, -r, -p, -A),
                       describe_at=lambda x: f"dual of [{F.describe_at(x)}]")
    return FiberOracle(label, F.n, F.arity, key, lambda r, p, A: -form(-r, -p, -A))


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


def check_involution(
    F: FiberOracle,
    samples: int = 1000,
    seed: int = 23,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Double dual agrees with F away from a 3*tol boundary band.

    The whole sample is drawn first and each oracle evaluates it in one
    values call; the report is filled jet by jet in sampling order.
    """
    rng = np.random.default_rng(seed)
    ddF = dual_oracle(dual_oracle(F))
    rep = CheckReport(name=f"involution[{F.key or F.label}]", seed=seed)
    jets = [random_jet(rng, F.n, scale) for _ in range(samples)]
    r = np.array([J.r for J in jets])
    p = np.array([J.p for J in jets]).reshape(samples, F.n)
    A = np.array([J.A.entries for J in jets]).reshape(samples, F.n, F.n)
    first = [classify_value(g, tol) for g in F.values(r, p, A).tolist()]
    kept = [i for i, r1 in enumerate(first) if r1.margin > 3 * tol]
    rep.excluded_boundary = samples - len(kept)
    second = ddF.values(r[kept], p[kept], A[kept]).tolist()
    for i, g in zip(kept, second):
        ok = first[i].kind is classify_value(g, tol).kind
        rep.record(ok, first[i].margin, None if ok else jets[i])
    return rep


def _member_sampler(
    F: Union[FiberOracle, Callable], rng: np.random.Generator, n: int,
    scale: float, tol: float, shift_jet: Optional[Jet2] = None,
):
    """Draw a random jet and push it into F along shift_jet if needed."""
    from .catalog import shift_to_boundary

    J = random_jet(rng, n, scale)
    if F.contains(J, tol):
        return J
    if shift_jet is None:
        return None
    moved = shift_to_boundary(F, J, shift_jet, margin=abs(rng.standard_normal()) + 1e-3)
    if moved is not None and F.contains(moved, tol):
        return moved
    return None


def sample_cone_member(M: MonotonicityCone, rng: np.random.Generator, n: int,
                       scale: float = 1.0, extreme: bool = False) -> Jet2:
    """Random jet inside M(gamma, D, R), built constructively.

    With extreme=True the jet sits on the cone's extreme rays (tight
    value slot, minimal Hessian part), the discriminating directions for
    monotonicity probes.
    """
    import math as _math

    from .catalog import ConeKind
    from .jets import SymMat

    if extreme:
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
        a = 0.0 if _math.isinf(M.R) else pn / M.R
        return Jet2(-M.gamma * pn, p, SymMat(a * np.eye(n)))
    J0 = M.interior_jet(n)
    J = random_jet(rng, n, scale)
    # mix toward the interior jet until membership holds
    t = 0.0
    oracle = cone_M(M, n)
    while not classify_value(ray_values(oracle, J, J0, t)).is_member and t < 1e6:
        t = 2.0 * t + 0.5
    return J + t * J0


def check_monotonicity(
    F: Union[FiberOracle, VariableFiberMap],
    M: MonotonicityCone,
    samples: int = 400,
    seed: int = 29,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Sampled F + M subset-of F, fiberwise for variable fiber maps."""
    rng = np.random.default_rng(seed)
    variable = isinstance(F, VariableFiberMap)
    n = F.n
    rep = CheckReport(name="monotonicity", seed=seed)
    for i in range(samples):
        oracle = F.fiber_at(F.domain.sample(rng, 1)[0]) if variable else F
        J = _member_sampler(oracle, rng, n, scale, tol,
                            shift_jet=M.interior_jet(n))
        if J is None:
            continue
        K = sample_cone_member(M, rng, n, scale=abs(rng.standard_normal()) + 0.1,
                               extreme=(i % 2 == 0))
        r = oracle.classify(J + K, tol)
        margin = r.margin if r.is_member else -r.margin
        ok = r.is_member or r.margin <= 10 * tol
        rep.record(ok, margin, None if ok else J)
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
    the check refuses to run on failure.
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
    Md = dual_oracle(cone_M(M, n))
    J0 = M.interior_jet(n)
    rep = CheckReport(name="jet-addition", seed=seed)
    for _ in range(samples):
        J = _member_sampler(F, rng, n, scale, tol, shift_jet=J0)
        K = _member_sampler(Fd, rng, n, scale, tol, shift_jet=J0)
        if J is None or K is None:
            continue
        r = Md.classify(J + K, tol)
        margin = r.margin if r.is_member else -r.margin
        ok = r.is_member or r.margin <= 10 * tol
        rep.record(ok, margin, None if ok else J + K)
    return rep


def check_inclusion(
    F: FiberOracle,
    G: FiberOracle,
    samples: int = 1000,
    seed: int = 37,
    tol: float = DEFAULT_TOL,
    scale: float = 1.5,
) -> CheckReport:
    """Sampled F subset-of G (members of F classified as members of G)."""
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="inclusion", seed=seed)
    for _ in range(samples):
        J = random_jet(rng, F.n, scale)
        rF = F.classify(J, tol)
        if not rF.is_member:
            continue
        if rF.margin <= 3 * tol:
            rep.excluded_boundary += 1
            continue
        rG = G.classify(J, tol)
        ok = rG.is_member
        rep.record(ok, rG.margin if ok else -rG.margin, None if ok else J)
    return rep
