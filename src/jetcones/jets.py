"""Core 2-jet data structures and symmetric-matrix spectral tools.

A 2-jet is a triple (r, p, A): function value, gradient, Hessian. The
jet space in dimension n is R x R^n x S(n), with S(n) the symmetric
n x n matrices. Everything downstream (cone membership, duality, the
solver's discrete jets) is built on the three operations here:
eigenvalues, the jet norm, and traces on subspaces.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonOrthonormalBasis

GRAM_ERR_TOL = 1e-8

# Desk-scale cap: brute-force oracles (char-poly bisection, subset sums,
# 2^n vertex sets) must stay tractable.
MAX_DIM = 8
# The largest entry that symmetrizing, 0.5 * (a + a.T), cannot overflow.
_MAX_ENTRY = sys.float_info.max / 2


def _as_symmetric(entries, tol=1e-12):
    a = np.asarray(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = 1.0 + (np.max(np.abs(a)) if a.size else 0.0)
    # NaN fails the comparison too
    if not scale <= _MAX_ENTRY:
        raise ValueError(f"matrix entries must be finite and at most {_MAX_ENTRY:.6g} "
                         f"in magnitude")
    dev = np.max(np.abs(a - a.T)) if a.size else 0.0
    if dev > tol * scale:
        raise ValueError(f"matrix not symmetric: max asymmetry {dev:.3e}")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class SymMat:
    """Symmetric n x n matrix; storage enforces exact symmetry.

    The public constructor validates and symmetrizes its input. Sums,
    differences, negations and scalar multiples of SymMat operands are
    exactly symmetric already and skip that step (_trusted); a plain
    array operand is validated like constructor input.
    """

    entries: np.ndarray

    def __init__(self, entries):
        _freeze(self, _as_symmetric(entries))

    @classmethod
    def _trusted(cls, a: np.ndarray) -> "SymMat":
        """Wrap an exactly symmetric square array without re-validation."""
        m = object.__new__(cls)
        _freeze(m, a)
        return m

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        return self._combine(other, np.subtract)

    def _combine(self, other, op) -> "SymMat":
        b = _mat(other)
        if b.shape != self.entries.shape:
            raise ValueError(f"dimension mismatch: {self.entries.shape} and {b.shape}")
        c = op(self.entries, b)
        return SymMat._trusted(c) if isinstance(other, SymMat) else SymMat(c)

    def __neg__(self):
        return SymMat._trusted(-self.entries)

    def __mul__(self, t: float):
        return SymMat._trusted(self.entries * _scalar(t))

    __rmul__ = __mul__

    @staticmethod
    def identity(n: int) -> "SymMat":
        return SymMat(np.eye(n))

    @staticmethod
    def zero(n: int) -> "SymMat":
        return SymMat(np.zeros((n, n)))

    @staticmethod
    def diag(*vals) -> "SymMat":
        if len(vals) == 1 and np.ndim(vals[0]) == 1:
            vals = tuple(vals[0])
        return SymMat(np.diag(np.asarray(vals, dtype=float)))


def _freeze(m: SymMat, a: np.ndarray) -> None:
    if a.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {a.shape[0]} exceeds supported cap {MAX_DIM}")
    a.flags.writeable = False
    object.__setattr__(m, "entries", a)


def _scalar(t):
    if np.ndim(t) != 0:
        raise TypeError(f"jets scale by a scalar, got shape {np.shape(t)}")
    return t


def _mat(x) -> np.ndarray:
    return x.entries if isinstance(x, SymMat) else np.asarray(x, dtype=float)


@dataclass(frozen=True)
class Jet2:
    """Point of the 2-jet space: value r, gradient p, Hessian A."""

    r: float
    p: np.ndarray
    A: SymMat

    def __init__(self, r, p, A):
        if not isinstance(A, SymMat):
            A = SymMat(A)
        p = np.asarray(p, dtype=float).reshape(-1)
        if len(p) != A.n:
            raise ValueError(f"gradient length {len(p)} != matrix dimension {A.n}")
        _set_jet(self, r, p, A)

    @classmethod
    def _trusted(cls, r, p: np.ndarray, A: SymMat) -> "Jet2":
        """Assemble a jet from parts of matching dimension, unchecked."""
        J = object.__new__(cls)
        _set_jet(J, r, p, A)
        return J

    @property
    def n(self) -> int:
        return self.A.n

    def __add__(self, other: "Jet2") -> "Jet2":
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: jets of dimension {self.n} and {other.n}")
        return Jet2._trusted(self.r + other.r, self.p + other.p, self.A + other.A)

    def __neg__(self) -> "Jet2":
        return Jet2._trusted(-self.r, -self.p, -self.A)

    def __mul__(self, t: float) -> "Jet2":
        t = _scalar(t)
        return Jet2._trusted(t * self.r, t * self.p, t * self.A)

    __rmul__ = __mul__

    @staticmethod
    def from_matrix(A) -> "Jet2":
        A = A if isinstance(A, SymMat) else SymMat(A)
        return Jet2(0.0, np.zeros(A.n), A)

    @staticmethod
    def zero(n: int) -> "Jet2":
        return Jet2(0.0, np.zeros(n), SymMat.zero(n))

    def to_json_dict(self) -> dict:
        return {"r": self.r, "p": self.p.tolist(), "A": self.A.entries.tolist()}

    @staticmethod
    def from_json_dict(d: dict) -> "Jet2":
        # Full symmetric matrix required, both triangles present and equal,
        # and every entry finite.
        J = Jet2(d["r"], d["p"], SymMat(d["A"]))
        if not (math.isfinite(J.r) and np.isfinite(J.p).all()):
            raise ValueError(f"jet value and gradient must be finite, got r = {J.r}, "
                             f"p = {J.p.tolist()}")
        return J


def stack_jets(jets, n: int) -> tuple:
    """A sequence of jets in dimension n as stacks (r[N], p[N, n], A[N, n, n])."""
    return (np.array([J.r for J in jets], dtype=float),
            np.array([J.p for J in jets], dtype=float).reshape(len(jets), n),
            np.array([J.A.entries for J in jets], dtype=float).reshape(len(jets), n, n))


def unstack_jets(r: np.ndarray, p: np.ndarray, A: np.ndarray) -> list:
    """The jets of stacks (r[N], p[N, n], A[N, n, n]) whose Hessians are
    exactly symmetric (sums and multiples of validated jets), unchecked;
    each jet keeps a read-only view of its rows."""
    return [Jet2._trusted(ri, pi, SymMat._trusted(Ai)) for ri, pi, Ai in zip(r.tolist(), p, A)]


def _set_jet(J: Jet2, r, p: np.ndarray, A: SymMat) -> None:
    p.flags.writeable = False
    object.__setattr__(J, "r", float(r))
    object.__setattr__(J, "p", p)
    object.__setattr__(J, "A", A)


def eigenvalues(A) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack A[..., n, n] (no frame), as np.linalg.eigvalsh gives them.

    eigvalsh runs LAPACK's dsyevd (JOBZ='N', UPLO='L') once per matrix.
    A stack of at least _MIN_STACK 2 x 2 matrices, each finite with its
    largest lower-triangle magnitude zero or in [SSFMIN, RMAX] (about
    [1.2e-122, 1e146], where neither dsyevd nor dsterf rescales), goes to
    _eigvalsh_2x2 instead: the float sequence of dsterf, dlae2 and dlasrt
    that dsyevd runs for n = 2, on the whole stack at once, bit for bit
    (signed zeros included). Every other input, single matrices included,
    goes to eigvalsh.
    """
    a = _mat(A)
    if a.size >= 4 * _MIN_STACK and a.shape[-2:] == (2, 2):
        lam = _eigvalsh_2x2(a)
        if lam is not None:
            return lam
    return np.linalg.eigvalsh(a)


# Smallest stack that _eigvalsh_2x2 takes, the measured crossover: below it,
# eigvalsh's per-matrix LAPACK calls cost less than the kernel's fixed numpy
# overhead of about 40 us.
_MIN_STACK = 160
_EPS = 2.0 ** -53  # dlamch('E')
_EPS2 = _EPS * _EPS
# dsterf rescales a block whose largest entry is below sqrt(safmin)/eps^2;
# dsyevd rescales a matrix whose largest entry exceeds sqrt(eps'/safmin),
# eps' = dlamch('P') = 2^-52, safmin = 2^-1022.
_SSFMIN = 2.0 ** -405
_RMAX = 2.0 ** 485


def _eigvalsh_2x2(a: np.ndarray) -> Optional[np.ndarray]:
    """np.linalg.eigvalsh of a stack a[..., 2, 2], bit for bit, or None
    when a matrix is not finite or lies outside LAPACK's unscaled range.

    For n = 2, dsytrd leaves d = (a11, a22) and e = a21 (the lower
    triangle). dsterf then deflates on |e| <= sqrt|d1| sqrt|d2| eps,
    squares e, iterates QR when |d2| < |d1| and QL otherwise, deflates
    on e^2 <= eps^2 |d1 d2|, and otherwise solves the block with dlae2
    on sqrt(e^2). dlasrt's insertion sort swaps the two output positions
    only when the second is strictly less.
    """
    d1, d2, e = a[..., 0, 0], a[..., 1, 1], a[..., 1, 0]
    ad1, ad2, ae = np.abs(d1), np.abs(d2), np.abs(e)
    top = np.maximum(np.maximum(ad1, ad2), ae)
    if not (((top >= _SSFMIN) | (top == 0.0)) & (top <= _RMAX)).all():
        return None
    qr = ad2 < ad1
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        e2 = e * e
        split = (ae <= np.sqrt(ad1) * np.sqrt(ad2) * _EPS) | (e2 <= _EPS2 * np.abs(d1 * d2))
        # dlae2(a, b, c) runs with a at the starting position; its tie-break
        # (acmx = a only when |a| > |c|) then always picks acmx = c.
        acmx, acmn = np.where(qr, d1, d2), np.where(qr, d2, d1)
        b = np.sqrt(e2)
        sm = d1 + d2
        adf, ab = np.abs(d1 - d2), b + b
        # dlae2's three cases for rt = sqrt(adf^2 + ab^2) in one expression:
        # with adf = ab, (big/big)^2 = 1 and big*sqrt(2) is its AB*SQRT(TWO)
        big = np.maximum(adf, ab)
        rt = big * np.sqrt(1.0 + np.square(np.minimum(adf, ab) / big))
        # sm = 0: 0.5*(sm + rt) is dlae2's 0.5*rt
        rt1 = 0.5 * np.where(sm < 0.0, sm - rt, sm + rt)
        rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (b / rt1) * b)
    # dlasrt on LAPACK's output positions: (d1, d2) for a deflated row. A
    # solved row holds rt1 at the start of the iteration, but rt1 != 0 there,
    # so its two values never tie in value with different bits and either
    # position gives the same sorted pair.
    x1, x2 = np.where(split, d1, rt1), np.where(split, d2, rt2)
    swap = x2 < x1
    lam = np.empty(a.shape[:-1])
    lam[..., 0], lam[..., 1] = np.where(swap, x2, x1), np.where(swap, x1, x2)
    return lam


def jet_norm(J: Jet2, lam: Optional[np.ndarray] = None) -> float:
    """max(|r|, |p|_2, max_k |lambda_k(A)|); zero iff J is the zero jet.

    lam, when given, is eigenvalues(J.A), which is then not solved again.
    """
    sup = matrix_sup_norm(J.A) if lam is None else _sup_abs(lam)
    # sqrt(p . p) is the arithmetic of np.linalg.norm(p), without its overhead
    return max(abs(J.r), math.sqrt(J.p.dot(J.p)), sup)


def matrix_sup_norm(A) -> float:
    """max_k |lambda_k(A)|, the Hessian part of the jet norm."""
    return _sup_abs(eigenvalues(A))


def _sup_abs(lam: np.ndarray) -> float:
    """max_k |lam_k| of ascending eigenvalues: |lam_1| or |lam_n|."""
    return float(max(abs(lam[0]), abs(lam[-1]))) if lam.size else 0.0


def trace_on_subspace(A: SymMat, W, tol: float = GRAM_ERR_TOL) -> float:
    """Trace of A restricted to the span of the orthonormal columns W.

    Equals <A, P_W> for the orthogonal projection P_W. Raises
    NonOrthonormalBasis when the Gram matrix deviates from the identity
    by more than tol.
    """
    w = np.asarray(W, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    gram_dev = np.max(np.abs(w.T @ w - np.eye(w.shape[1])))
    if gram_dev > tol:
        raise NonOrthonormalBasis(f"Gram deviation {gram_dev:.3e} > {tol:.1e}")
    a = _mat(A)
    return float(np.einsum("ij,ik,jk->", a, w, w))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMat:
    g = rng.standard_normal((n, n)) * scale
    return SymMat._trusted(0.5 * (g + g.T))


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> SymMat:
    g = rng.standard_normal((n, n)) * scale
    return SymMat(g @ g.T / n)


def random_jet(rng: np.random.Generator, n: int, scale: float = 1.0) -> Jet2:
    return Jet2(
        rng.standard_normal() * scale,
        rng.standard_normal(n) * scale,
        random_symmetric(rng, n, scale),
    )


def random_jets(rng: np.random.Generator, n: int, count: int, scale=1.0) -> tuple:
    """The jets of count random_jet draws as stacks (r, p, A), bit for bit:
    one standard_normal block, sliced in random_jet's order (r, then p,
    then the square that A symmetrizes). scale is a number or one per
    jet, scale[count]."""
    x = rng.standard_normal((count, 1 + n + n * n)) * np.asarray(scale, dtype=float)[..., None]
    g = x[:, 1 + n:].reshape(count, n, n)
    return x[:, 0], x[:, 1:1 + n], 0.5 * (g + g.swapaxes(-1, -2))


def heavy_tail_symmetric(rng: np.random.Generator, n: int, angle_margin: float = 0.05) -> SymMat:
    """Random symmetric matrix with tan-distributed eigenvalues.

    Eigenvalues tan(u) with u uniform on (-pi/2 + margin, pi/2 - margin)
    give the large dynamic range needed to probe fibers whose level sets
    run off to infinity (arctan-type fibers especially).
    """
    u = rng.uniform(-np.pi / 2 + angle_margin, np.pi / 2 - angle_margin, size=n)
    q = random_orthogonal(rng, n)
    return SymMat(q @ np.diag(np.tan(u)) @ q.T)
