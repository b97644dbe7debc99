"""Hyperbolic-polynomial machinery on symmetric matrices.

An operator here is a homogeneous degree-m polynomial F on S(n) with
F(I) > 0 whose restrictions s -> F(sI + A) have all m roots real. The
negatives of those roots, sorted ascending, are the eigenvalues
Lambda_1(A) <= ... <= Lambda_m(A); they satisfy

    F(sI + A) = F(I) * prod_j (s + Lambda_j(A)),
    F(A)      = F(I) * prod_j Lambda_j(A),
    Lambda_j(A + tI) = Lambda_j(A) + t.

The root-negative normalization is the unique one with the shift
covariance above; operators built from per-factor formulas (delta-
elliptic, vertex products) come out rescaled by a positive constant per
factor, which moves values but not signs, zero sets, or branches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import linprog

from .catalog import (
    REGISTRY,
    Arity,
    DEFAULT_TOL,
    FiberOracle,
    KeyFamily,
    _fmt,
    bind_key,
    check_index,
    check_pucci,
    classify_value,
    elementary_symmetric,
    per_jet_form,
    skew_hermitian_mu,
)
from .errors import (
    BadParameters,
    DegenerateLeadingCoefficient,
    NonRealRoots,
    OddDimension,
)
from .jets import SymMat, eigenvalues, matrix_sup_norm, random_symmetric

ROOT_TOL = 1e-7


@dataclass
class HyperbolicityCertificate:
    """Cached evidence from a sampled hyperbolicity verification."""

    seed: int
    samples: int
    worst_residue: float
    passed: bool


@dataclass
class GardingOperator:
    """I-hyperbolic polynomial of degree m on S(n).

    eval_matrix evaluates F(A). exact_eigenvalues, when present, computes
    the ascending eigenvalue vector from the operator's factor structure
    at machine precision; the generic recovery route, which samples
    s -> F(A + sI) through eval_matrix alone, stays available for
    cross-validation and for operators without closed factors. Instances
    are immutable in use and safe to share.
    """

    label: str
    n: int
    degree: int
    eval_matrix: Callable[[np.ndarray], float]
    exact_eigenvalues: Optional[Callable[[np.ndarray], np.ndarray]] = None
    key: Optional[str] = None
    certificate: Optional[HyperbolicityCertificate] = field(default=None, repr=False)

    def __post_init__(self):
        FI = self.eval_matrix(np.eye(self.n))
        if not FI > 0:
            raise BadParameters(f"{self.label}: F(I) = {FI} must be positive")

    def eval(self, A) -> float:
        a = A.entries if isinstance(A, SymMat) else np.asarray(A, dtype=float)
        return float(self.eval_matrix(a))

    @property
    def eval_I(self) -> float:
        return float(self.eval_matrix(np.eye(self.n)))


def garding_eigenvalues(op: GardingOperator, A, tol: float = ROOT_TOL,
                        method: str = "auto") -> np.ndarray:
    """Ascending eigenvalues Lambda_1..Lambda_m at A.

    method="auto" uses the operator's exact factor structure when it has
    one (the built-ins all do), which is the only route that resolves
    nearly coincident eigenvalues to full precision. The generic route
    (method="generic") recovers the coefficients of s -> F(A + sI) from
    m+1 Chebyshev-spaced evaluations scaled by 1 + ||A||, takes the
    fitted polynomial's companion roots, and polishes by bisection where
    a sign change brackets the root; coefficient noise limits it to
    about the square root of machine precision near double roots.
    Raises NonRealRoots when the real-root residue exceeds
    tol * (1 + ||A||).
    """
    a = A.entries if isinstance(A, SymMat) else np.asarray(A, dtype=float)
    if method == "auto" and op.exact_eigenvalues is not None:
        return np.sort(np.asarray(op.exact_eigenvalues(a), dtype=float))
    m = op.degree
    scale = 1.0 + matrix_sup_norm(a)
    # Chebyshev points on [-R, R]; eigenvalues always live in [-||A||, ||A||]
    R = 2.0 * scale
    nodes = R * np.cos(np.pi * (2 * np.arange(m + 1) + 1) / (2 * (m + 1)))
    eye = np.eye(op.n)
    vals = np.array([float(op.eval_matrix(a + s * eye)) for s in nodes])
    poly = npoly.Polynomial.fit(nodes, vals, deg=m)
    series = poly.convert()
    coeffs = series.coef
    # the true leading coefficient of s -> F(A + sI) is F(I)
    if len(coeffs) < m + 1 or abs(coeffs[-1]) < 1e-6 * abs(op.eval_I):
        raise DegenerateLeadingCoefficient(
            f"{op.label}: leading coefficient {coeffs[-1] if len(coeffs) else 0:.3e} "
            f"collapsed against F(I) = {op.eval_I:.3e} at degree {m}"
        )
    roots = poly.roots()
    real_roots = np.sort(np.real(roots))
    # Residue of declaring the roots real: multiple real roots split into
    # conjugate-symmetric clusters whose real parts reconstruct q to
    # O(cluster radius^2), while genuine complex pairs leave a large
    # value mismatch. Measure it on the sample nodes, plus a raw guard.
    recon = coeffs[-1] * np.prod(nodes[:, None] - real_roots[None, :], axis=1)
    vscale = 1.0 + float(np.max(np.abs(vals)))
    residue = float(np.max(np.abs(vals - recon))) / vscale
    raw_imag = float(np.max(np.abs(np.imag(roots)))) if np.iscomplexobj(roots) else 0.0
    if residue > tol * scale or raw_imag > 0.05 * scale:
        raise NonRealRoots(
            f"{op.label}: complex roots (value residue {residue:.3e}, "
            f"max imag {raw_imag:.3e}) beyond {tol:.1e} * {scale:.3g}",
            matrix=a,
            residue=max(residue, raw_imag),
        )
    # residual-gated vectorized bisection polish: companion roots whose
    # polynomial value is already at noise level are kept as is
    def pv(x):
        return npoly.polyval(x, coeffs)

    noise = 1e-11 * vscale
    need = np.where(np.abs(pv(real_roots)) > noise)[0]
    if need.size:
        rho = 1e-3 * scale
        lo = real_roots[need] - rho
        hi = real_roots[need] + rho
        flo = pv(lo)
        bracketed = flo * pv(hi) < 0
        idx = need[bracketed]
        if idx.size:
            lo, hi, flo = lo[bracketed], hi[bracketed], flo[bracketed]
            for _ in range(52):
                mid = 0.5 * (lo + hi)
                fm = pv(mid)
                takes = flo * fm <= 0
                hi = np.where(takes, mid, hi)
                lo = np.where(takes, lo, mid)
                flo = np.where(takes, flo, fm)
            real_roots[idx] = 0.5 * (lo + hi)
            real_roots = np.sort(real_roots)
    return -real_roots[::-1]


def product_identity_residual(op: GardingOperator, A, lam=None) -> float:
    """Residual of F(A) = F(I) * prod Lambda_j, relative to the natural
    magnitude F(I) * prod(1 + |Lambda_j|) so it stays meaningful on the
    zero set (where the plain relative error is ill-posed)."""
    lam = garding_eigenvalues(op, A) if lam is None else lam
    lhs = op.eval(A)
    rhs = op.eval_I * float(np.prod(lam))
    denom = abs(op.eval_I) * float(np.prod(1.0 + np.abs(lam)))
    return abs(lhs - rhs) / denom


def hyperbolicity_check(
    op: GardingOperator,
    samples: int = 200,
    seed: int = 41,
    tol: float = ROOT_TOL,
    scale: float = 1.5,
):
    """Fraction of sampled matrices with all roots real; witnesses otherwise.

    Every matrix goes through the generic route, which evaluates
    s -> F(A + sI) through eval_matrix: exact_eigenvalues is real by
    construction and would certify nothing about F.
    """
    rng = np.random.default_rng(seed)
    witnesses = []
    worst = 0.0
    ok = 0
    for _ in range(samples):
        A = random_symmetric(rng, op.n, scale)
        try:
            garding_eigenvalues(op, A, tol, method="generic")
            ok += 1
        except NonRealRoots as e:
            worst = max(worst, e.residue or math.inf)
            if len(witnesses) < 4:
                witnesses.append(A)
    cert = HyperbolicityCertificate(
        seed=seed, samples=samples, worst_residue=worst, passed=ok == samples
    )
    return cert, witnesses


def verify_hyperbolic(op: GardingOperator, samples: int = 100, seed: int = 41) -> GardingOperator:
    """Attach (or refresh) a hyperbolicity certificate; raises on failure."""
    cert, witnesses = hyperbolicity_check(op, samples=samples, seed=seed)
    if not cert.passed:
        raise NonRealRoots(
            f"{op.label}: hyperbolicity check failed ({len(witnesses)} witnesses)",
            matrix=witnesses[0].entries if witnesses else None,
        )
    op.certificate = cert
    return op


def garding_cone_contains(op: GardingOperator, A, tol: float = DEFAULT_TOL):
    """Classify A against the closed cone {Lambda_j(A) >= 0 for all j}."""
    lam = garding_eigenvalues(op, A)
    return classify_value(float(lam[0]), tol)


def garding_cone_oracle(op: GardingOperator) -> FiberOracle:
    """The closed cone as a catalog-compatible fiber oracle."""
    return FiberOracle(
        f"closed cone of {op.label}: Lambda_min(A) >= 0", op.n, Arity.PURE_SECOND_ORDER,
        (op.key + ":cone") if op.key else None,
        per_jet_form(lambda J: float(garding_eigenvalues(op, J.A)[0])))


def branch_oracle(op: GardingOperator, k: int) -> FiberOracle:
    """k-th eigenvalue branch {A : Lambda_k(A) >= 0}, 1-indexed."""
    check_index("branch", "k", k, op.degree)
    return FiberOracle(
        f"branch k={k} of {op.label}", op.n, Arity.PURE_SECOND_ORDER,
        (op.key + f":branch:k={k}") if op.key else None,
        per_jet_form(lambda J: float(garding_eigenvalues(op, J.A)[k - 1])))


def garding_dirichlet_check(
    op: GardingOperator,
    samples: int = 300,
    seed: int = 43,
    tol: float = DEFAULT_TOL,
):
    """Sampled A >= 0 implies Lambda_min(A) >= -tol (cone contains convexity)."""
    from .jets import random_psd

    rng = np.random.default_rng(seed)
    witnesses = []
    for _ in range(samples):
        A = random_psd(rng, op.n, scale=1.5)
        lam = garding_eigenvalues(op, A)
        if lam[0] < -tol:
            witnesses.append((A, float(lam[0])))
            if len(witnesses) >= 4:
                break
    return len(witnesses) == 0, witnesses


# ---------------------------------------------------------------------------
# Built-in operators
# ---------------------------------------------------------------------------

def det_operator(n: int) -> GardingOperator:
    return GardingOperator(
        label="det",
        n=n,
        degree=n,
        eval_matrix=lambda a: float(np.linalg.det(a)),
        exact_eigenvalues=eigenvalues,
        key="det",
    )


def pfold_operator(n: int, p: int) -> GardingOperator:
    """Product of all p-fold eigenvalue sums; degree C(n, p)."""
    check_index("pfold", "p", p, n)
    subsets = list(itertools.combinations(range(n), p))
    indicator = np.zeros((len(subsets), n))
    for i, S in enumerate(subsets):
        indicator[i, list(S)] = 1.0

    return GardingOperator(
        label=f"pfold p={p}",
        n=n,
        degree=len(subsets),
        eval_matrix=lambda a: float(np.prod(indicator @ eigenvalues(a))),
        exact_eigenvalues=lambda a: (indicator @ eigenvalues(a)) / p,
        key=f"pfold:p={p}",
    )


def delta_elliptic_operator(n: int, delta: float) -> GardingOperator:
    """det(A + delta * tr(A) * I), uniformly elliptic for delta > 0."""
    if delta <= 0:
        raise BadParameters(f"delta must be positive, got {delta}")

    def eval_matrix(a):
        lam = eigenvalues(a)
        return float(np.prod(lam + delta * float(np.sum(lam))))

    return GardingOperator(
        label=f"delta-elliptic delta={delta}",
        n=n,
        degree=n,
        eval_matrix=eval_matrix,
        exact_eigenvalues=lambda a, d=delta: (
            lambda lam: (lam + d * np.sum(lam)) / (1.0 + n * d)
        )(eigenvalues(a)),
        key=f"delta-elliptic:{_fmt(delta)}",
    )


def sigma_k_operator(n: int, k: int) -> GardingOperator:
    """k-Hessian operator sigma_k(lambda(A)); degree k."""
    check_index("sigma", "k", k, n)
    binom = [math.comb(n - k + j, j) for j in range(k + 1)]

    def exact(a):
        # sigma_k(lam + s) = sum_j C(n-k+j, j) sigma_{k-j}(lam) s^j: the
        # coefficients are exact, leaving only a small companion solve
        lam = eigenvalues(a)
        coeffs = np.array(
            [binom[j] * elementary_symmetric(lam, k - j) for j in range(k + 1)]
        )
        roots = npoly.polyroots(coeffs)
        return -np.sort(np.real(roots))[::-1]

    return GardingOperator(
        label=f"k-Hessian k={k}",
        n=n,
        degree=k,
        eval_matrix=lambda a: elementary_symmetric(eigenvalues(a), k),
        exact_eigenvalues=exact,
        key=f"sigma:k={k}",
    )


def lagrangian_ma_operator(two_n: int) -> GardingOperator:
    """Product of tr(A)/2 + sum of signed mu_j over all 2^n sign patterns.

    +-mu_j are the eigenvalues of the part of A anti-commuting with the
    standard complex structure on R^{2n}; degree 2^n.
    """
    if two_n % 2 != 0:
        raise OddDimension(f"Lagrangian operator needs even dimension, got {two_n}")
    n = two_n // 2
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))

    def factors(a):
        # tr(A + sI)/2 = tr(A)/2 + n*s; the anti-commuting part ignores sI
        return 0.5 * float(np.trace(a)) + signs @ skew_hermitian_mu(a)

    return GardingOperator(
        label="lagrangian-ma",
        n=two_n,
        degree=2 ** n,
        eval_matrix=lambda a: float(np.prod(factors(a))),
        exact_eigenvalues=lambda a: factors(a) / n,
        key="lagrangian-ma",
    )


def pucci_vertex_set(n: int, lam: float, Lam: float) -> list:
    """Extreme vertices of the cone over the eigenvalue cube {lam, Lam}^n.

    A vertex v is extreme iff it is not a nonnegative combination of the
    other vertices; decided by linear feasibility, never hard-coded.
    """
    check_pucci(lam, Lam)
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


def pucci_garding_operator(lam: float, Lam: float, n: int) -> GardingOperator:
    """Product of the extreme-vertex linear functionals sum_i v_i lambda_i(A).

    The eigenvalue functionals pair v against the ascending eigenvalues;
    the zero set of the minimal factor agrees with the extremal cone
    lam * tr A+ + Lam * tr A- >= 0 at the sign level.
    """
    S = pucci_vertex_set(n, lam, Lam)
    V = np.stack(S)
    weights = V.sum(axis=1)

    return GardingOperator(
        label=f"pucci-garding ({lam},{Lam}), {len(S)} factors",
        n=n,
        degree=len(S),
        eval_matrix=lambda a: float(np.prod(V @ eigenvalues(a))),
        exact_eigenvalues=lambda a: (V @ eigenvalues(a)) / weights,
        key=f"pucci-garding:{_fmt(lam)},{_fmt(Lam)}",
    )


# ---------------------------------------------------------------------------
# Operator registry
# ---------------------------------------------------------------------------

OPERATORS = {
    "det": KeyFamily(det_operator, describe="determinant (product of eigenvalues); degree n"),
    "pfold": KeyFamily(pfold_operator, REGISTRY["pfold"].params,
                       "product of p-fold eigenvalue sums; params p=1..n; degree C(n,p)"),
    "delta-elliptic": KeyFamily(delta_elliptic_operator, (("delta", float, 0.5),),
                                "det(A + delta*tr(A)*I); params delta > 0; degree n"),
    "sigma": KeyFamily(sigma_k_operator, REGISTRY["sigma"].params,
                       "k-Hessian sigma_k(lambda(A)); params k=1..n; degree k"),
    "lagrangian-ma": KeyFamily(lagrangian_ma_operator,
                               describe="product of tr(A)/2 +- mu_1 +- ... +- mu_n on S(2n); "
                               "degree 2^n"),
    "pucci-garding": KeyFamily(lambda n, lam, Lam: pucci_garding_operator(lam, Lam, n),
                               REGISTRY["pucci"].params,
                               "product of extreme-vertex functionals of the eigenvalue "
                               "cube; params lam,Lam with 0 < lam < Lam"),
}


def make_operator(key: str, n: int) -> GardingOperator:
    """Build the hyperbolic operator addressed by an operator key."""
    name, params = bind_key(key, OPERATORS, "operator")
    return OPERATORS[name].build(n, **params)
