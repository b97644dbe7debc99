"""Level-set domains, second fundamental forms, and boundary convexity.

Domains are Omega = {phi < 0} with analytic gradient and Hessian. The
second fundamental form at a boundary point is taken with respect to
the inward unit normal e = -grad(phi)/|grad(phi)| and extended by zero
on the normal line:

    A_x = P_T (hess(phi) / |grad(phi)|) P_T,   P_T = I - e e^T.

The sign convention is pinned by the unit ball: its A_x is the identity
on the tangent space (principal curvatures +1), which is what the
strict-convexity semantics of the membership condition below require.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .catalog import (Box, DEFAULT_TOL, FiberOracle, _dot_self, bisect_brackets,
                      classify_values, ray_probe)
from .errors import NotOnBoundary, SingularGradient
from .jets import MAX_DIM, Jet2, SymMat, eigenvalues, random_orthogonal, trace_on_subspace

BOUNDARY_TOL = 1e-8
GRAD_TOL = 1e-8
T_CAP = 1e6


@dataclass(frozen=True)
class LevelSetDomain:
    """Omega = {phi < 0} with analytic first and second derivatives."""

    label: str
    phi: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], SymMat]
    bbox: Box


@dataclass(frozen=True)
class BoundaryPointData:
    """Boundary point with inward normal, extended second fundamental form,
    and an orthonormal tangent frame."""

    x: np.ndarray
    e: np.ndarray
    A_x: SymMat
    tangent_frame: np.ndarray

    @property
    def principal_curvatures(self) -> np.ndarray:
        """Eigenvalues of A_x restricted to the tangent space, ascending."""
        W = self.tangent_frame
        return eigenvalues(W.T @ self.A_x.entries @ W)


def boundary_point(dom: LevelSetDomain, x) -> BoundaryPointData:
    """Boundary data at x; raises NotOnBoundary when |phi(x)| exceeds
    BOUNDARY_TOL, SingularGradient when |grad phi(x)| is at most GRAD_TOL."""
    x = np.asarray(x, dtype=float)
    val = dom.phi(x)
    if abs(val) > BOUNDARY_TOL:
        raise NotOnBoundary(f"|phi(x)| = {abs(val):.3e} > {BOUNDARY_TOL:.1e}")
    g = np.asarray(dom.grad(x), dtype=float)
    gn = float(np.linalg.norm(g))
    if gn <= GRAD_TOL:
        raise SingularGradient(f"|grad phi(x)| = {gn:.3e} too small")
    e = -g / gn
    n = len(x)
    P_T = np.eye(n) - np.outer(e, e)
    A = SymMat(P_T @ dom.hess(x).entries @ P_T / gn)
    # complete e to an orthonormal frame; columns 2..n span the tangent space
    q, _ = np.linalg.qr(np.column_stack([e, np.eye(n)]))
    frame = q[:, 1:n]
    return BoundaryPointData(x=x, e=e, A_x=A, tangent_frame=frame)


def project_to_boundary(dom: LevelSetDomain, seed) -> np.ndarray:
    """Newton-type projection of a seed point onto {phi = 0}, at most 80
    steps."""
    x = np.asarray(seed, dtype=float).copy()
    for _ in range(80):
        v = dom.phi(x)
        if abs(v) <= BOUNDARY_TOL * 0.1:
            return x
        g = np.asarray(dom.grad(x), dtype=float)
        gg = float(g @ g)
        if gg < GRAD_TOL**2:
            raise SingularGradient("projection hit a singular gradient")
        x = x - (v / gg) * g
    return x


@dataclass(frozen=True)
class PseudoconvexVerdict:
    convex: bool
    t0: Optional[float]   # minimal t estimate when convex, else None
    t_cap: float


def _threshold_done(lo, hi, tol: float):
    """strict_pseudoconvex_at's stop rule on arrays of bracket ends: the
    bracket is at most tol * max(1, hi) wide (or has a NaN end)."""
    return np.logical_not(hi - lo > tol * np.maximum(1.0, hi))


def strict_pseudoconvex_at(
    F: FiberOracle,
    bp: BoundaryPointData,
    t_cap: float = T_CAP,
    tol: float = 1e-6,
) -> PseudoconvexVerdict:
    """Strict boundary convexity of F at bp.

    Tests A_x + t*P_e interior to F at t = t_cap first; positivity of F
    makes membership monotone in t, so one probe at the cap is decisive
    up to the cap. On success the minimal t0 is the interior end hi of
    [0, t_cap] bisected until hi - lo <= tol * max(1, hi), with no step
    when [0, t_cap] already meets that rule.
    """
    zero_p = np.zeros(len(bp.x))
    g = ray_probe(F, (np.zeros(1), zero_p[None], bp.A_x.entries[None]),
                  Jet2(0.0, zero_p, SymMat(np.outer(bp.e, bp.e))))

    def outside(live, t):
        return ~(g(live, t) > DEFAULT_TOL)

    at_cap, at_zero = outside([0], np.array([[t_cap, 0.0]]))[0].tolist()
    if at_cap:
        return PseudoconvexVerdict(convex=False, t0=None, t_cap=t_cap)
    if not at_zero:
        return PseudoconvexVerdict(convex=True, t0=0.0, t_cap=t_cap)

    done = functools.partial(_threshold_done, tol=tol)
    bracket = (0.0, t_cap)
    if not done(*bracket):
        bracket, = bisect_brackets(outside, [bracket], done)
    return PseudoconvexVerdict(convex=True, t0=bracket[1], t_cap=t_cap)


def strict_ellipticity_check(
    F: FiberOracle,
    direction_samples: int = 64,
    seed: int = 73,
):
    """Rank-one projectors over sampled unit directions all interior to F:
    (all interior, the least signed margin, the first direction with that
    margin when it is not interior, else None).

    True means the potential theory has no boundary-geometry restriction
    for existence; the geometric cones all fail this. The directions are
    the n axes, then random unit vectors from one standard_normal block
    (each row the draw of one direction), direction_samples in all, and
    one values call classifies their projectors under DEFAULT_TOL.
    """
    n = F.n
    v = np.random.default_rng(seed).standard_normal((max(0, direction_samples - n), n))
    # the row-wise arithmetic of np.linalg.norm of one vector
    e = np.concatenate((np.eye(n), v / np.sqrt(_dot_self(v))[:, None]))[:direction_samples]
    _, margin = classify_values(F.values(np.zeros(len(e)), np.zeros_like(e),
                                         e[:, :, None] * e[:, None, :]))
    interior = margin > 0.0
    if not interior.size:
        return True, np.inf, None
    # a boundary projector's margin is -0.0
    m = np.where(interior, margin, -np.abs(margin))
    i = int(m.argmin())
    return bool(interior.all()), float(m[i]), None if interior[i] else e[i]


def tangential_planes(bp: BoundaryPointData, k: int, count: int) -> list:
    """Sampled orthonormal k-frames spanning planes inside the tangent
    space, at seed 79."""
    W = bp.tangent_frame
    m = W.shape[1]
    if k > m:
        return []
    rng = np.random.default_rng(79)
    frames = []
    for _ in range(count):
        Q = random_orthogonal(rng, m)
        frames.append(W @ Q[:, :k])
    return frames


def geometric_pseudoconvex_at(planes: Sequence[np.ndarray], bp: BoundaryPointData):
    """Trace of A_x above 1e-9 on every sampled tangential plane.

    Planes are orthonormal frames; frames not inside the tangent space
    (normal component above 1e-7) are skipped.
    """
    checked = 0
    worst = np.inf
    witness = None
    for W in planes:
        normal_part = float(np.max(np.abs(bp.e @ W)))
        if normal_part > 1e-7:
            continue
        checked += 1
        tr = trace_on_subspace(bp.A_x, W)
        if tr < worst:
            worst = tr
            if tr <= 1e-9:
                witness = W
    return witness is None, checked, worst, witness


# ---------------------------------------------------------------------------
# Built-in domains
# ---------------------------------------------------------------------------

def sphere_domain(n: int, radius: float = 1.0) -> LevelSetDomain:
    r2 = radius * radius
    return LevelSetDomain(
        label=f"sphere r={radius} (n={n})",
        phi=lambda x: float(x @ x) - r2,
        grad=lambda x: 2.0 * np.asarray(x, dtype=float),
        hess=lambda x: SymMat(2.0 * np.eye(n)),
        bbox=Box(-(radius + 0.5) * np.ones(n), (radius + 0.5) * np.ones(n)),
    )


def ellipsoid_domain(semiaxes) -> LevelSetDomain:
    a = np.asarray(semiaxes, dtype=float)
    n = len(a)
    w = 1.0 / a**2
    return LevelSetDomain(
        label=f"ellipsoid semiaxes={a.tolist()}",
        phi=lambda x: float(np.sum(w * np.asarray(x) ** 2)) - 1.0,
        grad=lambda x: 2.0 * w * np.asarray(x, dtype=float),
        hess=lambda x: SymMat(2.0 * np.diag(w)),
        bbox=Box(-(a + 0.5), a + 0.5),
    )


def slab_domain(n: int, axis: int = 0, offset: float = 1.0) -> LevelSetDomain:
    """Face {x_axis = offset} of the halfspace {x_axis < offset}."""
    g = np.zeros(n)
    g[axis] = 1.0
    lo = -2.0 * np.ones(n)
    hi = 2.0 * np.ones(n)
    hi[axis] = offset + 0.5
    return LevelSetDomain(
        label=f"slab face x_{axis + 1} = {offset} (n={n})",
        phi=lambda x: float(x[axis]) - offset,
        grad=lambda x: g.copy(),
        hess=lambda x: SymMat.zero(n),
        bbox=Box(lo, hi),
    )


def cylinder_domain(radius: float = 1.0) -> LevelSetDomain:
    """x1^2 + x2^2 < r^2 in R^3 (flat axis direction)."""
    r2 = radius * radius

    def hess(x):
        H = np.zeros((3, 3))
        H[0, 0] = H[1, 1] = 2.0
        return SymMat(H)

    return LevelSetDomain(
        label=f"cylinder r={radius}",
        phi=lambda x: float(x[0] ** 2 + x[1] ** 2) - r2,
        grad=lambda x: np.array([2.0 * x[0], 2.0 * x[1], 0.0]),
        hess=hess,
        bbox=Box(np.array([-2.0, -2.0, -2.0]), np.array([2.0, 2.0, 2.0])),
    )


def saddle_domain() -> LevelSetDomain:
    """Boundary patch x3 = x1^2 - x2^2 near the origin (mixed curvature)."""

    def hess(x):
        H = np.zeros((3, 3))
        H[0, 0] = -2.0
        H[1, 1] = 2.0
        return SymMat(H)

    return LevelSetDomain(
        label="saddle patch x3 - x1^2 + x2^2 = 0",
        phi=lambda x: float(x[2] - x[0] ** 2 + x[1] ** 2),
        grad=lambda x: np.array([-2.0 * x[0], 2.0 * x[1], 1.0]),
        hess=hess,
        bbox=Box(-np.ones(3), np.ones(3)),
    )


def _spec_int(spec: dict, key: str, default: int, hi: int) -> int:
    """spec[key], or default when absent: an integer from 1 to hi."""
    v = spec.get(key, default)
    if not (isinstance(v, int) and not isinstance(v, bool) and 1 <= v <= hi):
        raise ValueError(f"{key} must be an integer from 1 to {hi}, got {v!r}")
    return v


def _spec_float(spec: dict, key: str, default: float, positive: bool = False) -> float:
    """spec[key], or default when absent: a finite number, positive when
    asked."""
    v = float(spec.get(key, default))
    if not (math.isfinite(v) and (v > 0 or not positive)):
        raise ValueError(f"{key} must be a finite{' positive' if positive else ''} number, "
                         f"got {spec[key]!r}")
    return v


def _semiaxes(spec: dict) -> np.ndarray:
    """spec's semiaxes: 1 to MAX_DIM finite positive numbers."""
    a = np.asarray(spec["semiaxes"], dtype=float)
    if not (a.ndim == 1 and 1 <= len(a) <= MAX_DIM and np.all(np.isfinite(a) & (a > 0))):
        raise ValueError(f"semiaxes must be 1 to {MAX_DIM} finite positive numbers, "
                         f"got {spec['semiaxes']!r}")
    return a


def _slab_from_spec(spec: dict) -> LevelSetDomain:
    n = _spec_int(spec, "n", 2, MAX_DIM)
    return slab_domain(n, _spec_int(spec, "axis", 1, n) - 1, _spec_float(spec, "offset", 1.0))


# Each spec field is checked here, at ingress: n from 1 to MAX_DIM, axis
# from 1 to n, semiaxes and radius finite and positive, offset finite
DOMAIN_BUILDERS = {
    "sphere": lambda spec: sphere_domain(_spec_int(spec, "n", 2, MAX_DIM),
                                         _spec_float(spec, "radius", 1.0, positive=True)),
    "ellipsoid": lambda spec: ellipsoid_domain(_semiaxes(spec)),
    "slab": _slab_from_spec,
    "cylinder": lambda spec: cylinder_domain(_spec_float(spec, "radius", 1.0, positive=True)),
    "saddle": lambda spec: saddle_domain(),
}


def domain_from_spec(spec: dict) -> LevelSetDomain:
    from .errors import ParseError

    if not isinstance(spec, dict):
        raise ParseError(f"a domain spec is a JSON object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in DOMAIN_BUILDERS:
        raise ParseError(f"unknown domain kind {kind!r}; known: {sorted(DOMAIN_BUILDERS)}")
    try:
        return DOMAIN_BUILDERS[kind](spec)
    except KeyError as e:
        raise ParseError(f"{kind} domain spec needs field {e}") from e
    except (TypeError, ValueError) as e:
        raise ParseError(f"bad {kind} domain spec: {e}") from e
