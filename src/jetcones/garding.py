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
    elementary_symmetric,
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

    eval_matrix evaluates F(A) on one matrix, and F(I) once, when built.
    exact_eigenvalues, when present, computes the eigenvalues, in any
    order, from the operator's factor structure at machine precision on
    a stack, a[..., n, n] -> Lambda[..., m]; the generic recovery route,
    which samples s -> F(A + sI) through eval_matrix alone, stays
    available for cross-validation and for operators without closed
    factors. Instances are immutable in use and safe to share.
    """

    label: str
    n: int
    degree: int
    eval_matrix: Callable[[np.ndarray], float]
    exact_eigenvalues: Optional[Callable[[np.ndarray], np.ndarray]] = None
    key: Optional[str] = None
    certificate: Optional[HyperbolicityCertificate] = field(default=None, repr=False)
    _eval_I: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._eval_I = float(self.eval_matrix(np.eye(self.n)))
        if not self._eval_I > 0:
            raise BadParameters(f"{self.label}: F(I) = {self._eval_I} must be positive")

    def eval(self, A) -> float:
        a = A.entries if isinstance(A, SymMat) else np.asarray(A, dtype=float)
        return float(self.eval_matrix(a))

    @property
    def eval_I(self) -> float:
        return self._eval_I


def garding_eigenvalues(op: GardingOperator, A, tol: float = ROOT_TOL,
                        method: str = "auto") -> np.ndarray:
    """Ascending eigenvalues Lambda_1..Lambda_m at A.

    method="auto" uses the operator's exact factor structure when it has
    one (the built-ins all do), which is the only route that resolves
    nearly coincident eigenvalues to full precision, on one matrix or a
    stack A[..., n, n] -> Lambda[..., m] with each row's bits alone. The
    generic route (method="generic", one matrix; ValueError on a stack)
    recovers the coefficients of s -> F(A + sI) from m+1 Chebyshev-spaced
    evaluations scaled by 1 + ||A||, takes the fitted polynomial's
    companion roots, and polishes by bisection where a sign change
    brackets the root; coefficient noise limits it to about the square
    root of machine precision near double roots. Raises NonRealRoots
    when the real-root residue exceeds tol * (1 + ||A||).
    """
    a = A.entries if isinstance(A, SymMat) else np.asarray(A, dtype=float)
    if method == "auto" and op.exact_eigenvalues is not None:
        return np.sort(np.asarray(op.exact_eigenvalues(a), dtype=float), axis=-1)
    if a.ndim != 2:
        raise ValueError(f"{op.label}: the generic route takes one matrix, got shape {a.shape}")
    coeffs, real_roots, vscale, _ = _real_root_fit(op, a, tol)
    # residual-gated vectorized bisection polish: companion roots whose
    # polynomial value is already at noise level are kept as is
    def pv(x):
        return npoly.polyval(x, coeffs)

    noise = 1e-11 * vscale
    need = np.where(np.abs(pv(real_roots)) > noise)[0]
    if need.size:
        rho = 1e-3 * (1.0 + matrix_sup_norm(a))
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


def _real_root_fit(op: GardingOperator, a: np.ndarray, tol: float) -> tuple:
    """The generic route's fit of s -> F(A + sI): its power-basis
    coefficients, its roots declared real (ascending), the value scale
    1 + max |F| on the sample nodes, and the residue of declaring the
    roots real, max(value residue, largest imaginary part).

    Raises DegenerateLeadingCoefficient when the fit loses its degree,
    and NonRealRoots when the value residue exceeds tol * (1 + ||A||) or
    an imaginary part exceeds 0.05 * (1 + ||A||).
    """
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
    return coeffs, real_roots, vscale, max(residue, raw_imag)


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

    Every matrix goes through the generic route's fit (_real_root_fit),
    which evaluates s -> F(A + sI) through eval_matrix: exact_eigenvalues
    is real by construction and would certify nothing about F. The
    certificate's worst_residue is the largest residue over every
    sample, passing or not.
    """
    rng = np.random.default_rng(seed)
    witnesses = []
    worst = 0.0
    ok = 0
    for _ in range(samples):
        A = random_symmetric(rng, op.n, scale)
        try:
            residue = _real_root_fit(op, A.entries, tol)[3]
            ok += 1
        except NonRealRoots as e:
            residue = e.residue
            if len(witnesses) < 4:
                witnesses.append(A)
        worst = max(worst, residue)
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


def garding_cone_oracle(op: GardingOperator) -> FiberOracle:
    """The closed cone as a catalog-compatible fiber oracle."""
    return _eigenvalue_oracle(op, 1, f"closed cone of {op.label}: Lambda_min(A) >= 0", ":cone")


def branch_oracle(op: GardingOperator, k: int) -> FiberOracle:
    """k-th eigenvalue branch {A : Lambda_k(A) >= 0}, 1-indexed."""
    check_index("branch", "k", k, op.degree)
    return _eigenvalue_oracle(op, k, f"branch k={k} of {op.label}", f":branch:k={k}")


def _eigenvalue_oracle(op: GardingOperator, k: int, label: str, suffix: str) -> FiberOracle:
    """{A : Lambda_k(A) >= 0}, one exact_eigenvalues call per stack."""
    if op.exact_eigenvalues is None:
        raise BadParameters(f"{op.label}: a Garding oracle needs exact eigenvalues")
    return FiberOracle(label, op.n, Arity.PURE_SECOND_ORDER,
                       (op.key + suffix) if op.key else None,
                       lambda r, p, A: garding_eigenvalues(op, A)[..., k - 1])


def garding_dirichlet_check(
    op: GardingOperator,
    samples: int = 300,
    seed: int = 43,
    tol: float = DEFAULT_TOL,
):
    """Sampled A >= 0 implies Lambda_min(A) >= -tol (cone contains convexity)."""
    from .jets import random_psd

    rng = np.random.default_rng(seed)
    mats = [random_psd(rng, op.n, scale=1.5) for _ in range(samples)]
    lam_min = garding_eigenvalues(
        op, np.array([A.entries for A in mats]).reshape(samples, op.n, op.n))[:, 0]
    witnesses = [(A, float(lam)) for A, lam in zip(mats, lam_min) if lam < -tol][:4]
    return len(witnesses) == 0, witnesses


# ---------------------------------------------------------------------------
# Built-in operators
# ---------------------------------------------------------------------------

def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """M @ x for each row of x[..., k]: one gemv per row, each with the
    bits of M @ x on that row alone."""
    return (M @ x[..., None])[..., 0]


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
        exact_eigenvalues=lambda a: _matvec(indicator, eigenvalues(a)) / p,
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
            lambda lam: (lam + d * np.sum(lam, axis=-1, keepdims=True)) / (1.0 + n * d)
        )(eigenvalues(a)),
        key=f"delta-elliptic:{_fmt(delta)}",
    )


def sigma_k_operator(n: int, k: int) -> GardingOperator:
    """k-Hessian operator sigma_k(lambda(A)); degree k."""
    check_index("sigma", "k", k, n)
    binom = [math.comb(n - k + j, j) for j in range(k + 1)]

    def exact(a):
        # sigma_k(lam + s) = sum_j C(n-k+j, j) sigma_{k-j}(lam) s^j: the
        # coefficients are exact, leaving only a small companion solve, the
        # matrix npoly.polyroots solves (ones below the diagonal, last column
        # -c[:-1] / c[-1]; at k = 1 eigvals returns its one entry exactly)
        lam = eigenvalues(a)
        c = np.stack([binom[j] * elementary_symmetric(lam, k - j) for j in range(k + 1)], -1)
        comp = np.zeros(c.shape[:-1] + (k, k))
        comp[..., np.arange(1, k), np.arange(k - 1)] = 1.0
        comp[..., -1] -= c[..., :-1] / c[..., -1:]
        return -np.sort(np.real(np.linalg.eigvals(comp)), axis=-1)[..., ::-1]

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
        return (0.5 * np.trace(a, axis1=-2, axis2=-1)[..., None]
                + _matvec(signs, skew_hermitian_mu(a)))

    return GardingOperator(
        label="lagrangian-ma",
        n=two_n,
        degree=2 ** n,
        eval_matrix=lambda a: float(np.prod(factors(a))),
        exact_eigenvalues=lambda a: factors(a) / n,
        key="lagrangian-ma",
    )


def pucci_vertex_set(n: int, lam: float, Lam: float) -> list:
    """Extreme vertices of the cone over the eigenvalue cube {lam, Lam}^n:
    the 2^n - 2 non-constant vertices, in itertools.product order.

    A vertex v is extreme iff it is not a nonnegative combination of the
    other vertices. Let v be non-constant, with v_i = lam and v_j = Lam.
    Every vertex w has w_i / w_j in {lam/Lam, 1, Lam/lam}, so w_i >=
    (lam/Lam) w_j with equality only where (w_i, w_j) = (lam, Lam). A
    nonnegative combination sum c_w w equal to v has v_i = lam =
    (lam/Lam) v_j, so every w with c_w > 0 is lam wherever v is lam and
    Lam wherever v is Lam: w = v, and v is no combination of the others.
    The two constant vertices are positive multiples of each other, so
    neither is extreme. For n = 1 the set is empty.
    """
    check_pucci(lam, Lam)
    return [np.array(v, dtype=float) for v in itertools.product((lam, Lam), repeat=n)
            if lam in v and Lam in v]


def pucci_garding_operator(lam: float, Lam: float, n: int) -> GardingOperator:
    """Product of the extreme-vertex linear functionals sum_i v_i lambda_i(A).

    The eigenvalue functionals pair v against the ascending eigenvalues;
    the zero set of the minimal factor agrees with the extremal cone
    lam * tr A+ + Lam * tr A- >= 0 at the sign level. BadParameters for
    n < 2, where the cube has no extreme vertex.
    """
    S = pucci_vertex_set(n, lam, Lam)
    if not S:
        raise BadParameters(f"pucci-garding needs n >= 2, got n = {n}: "
                            f"the cube {{lam, Lam}}^{n} has no extreme vertex")
    V = np.stack(S)
    weights = V.sum(axis=1)

    return GardingOperator(
        label=f"pucci-garding ({lam},{Lam}), {len(S)} factors",
        n=n,
        degree=len(S),
        eval_matrix=lambda a: float(np.prod(V @ eigenvalues(a))),
        exact_eigenvalues=lambda a: _matvec(V, eigenvalues(a)) / weights,
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
