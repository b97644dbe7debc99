"""Uniform grids, wide stencils, discrete jets, envelopes, sup-convolution.

Grids are uniform over a box in dimension 1, 2, or 3 with a boundary
layer thick enough for the widest stencil offset. The 2-D stencil
holds 8 directions up to sign: the axes, the diagonals, and the
(2,1)-type knight moves. Directional second differences are exact on
quadratics whose eigenframe is spanned by stencil directions; off the
stencil the min/max/partial-sum surrogates carry a measured bias (see
the stencil_bias helper) rather than a convergence theorem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BoundaryNode, BoundaryViolation, EmptyFamily

STENCIL_2D = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2))
STENCIL_1D = ((1,),)
STENCIL_3D = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
)

_STENCILS = {1: STENCIL_1D, 2: STENCIL_2D, 3: STENCIL_3D}


@dataclass(frozen=True)
class Grid:
    """Uniform grid over [lo, hi]^d with integer-offset stencil directions."""

    lo: np.ndarray
    hi: np.ndarray
    dims: tuple
    stencil_dirs: tuple

    def __init__(self, lo, hi, dims):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        dims = tuple(int(d) for d in np.atleast_1d(dims))
        d = len(dims)
        if len(lo) != d or len(hi) != d:
            raise ValueError("box and dims dimensions disagree")
        steps = (hi - lo) / (np.array(dims) - 1)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=1e-14):
            raise ValueError(f"grid spacing must be uniform, got {steps}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "stencil_dirs", _STENCILS[d])
        if min(dims) <= 2 * self.layer_width:
            raise ValueError(
                f"grid too small for stencil width {self.layer_width}: dims {dims}"
            )

    @property
    def d(self) -> int:
        return len(self.dims)

    @property
    def h(self) -> float:
        return float((self.hi[0] - self.lo[0]) / (self.dims[0] - 1))

    @property
    def layer_width(self) -> int:
        """Boundary layer thickness: the widest stencil offset component."""
        return max(max(abs(c) for c in s) for s in self.stencil_dirs)

    def coords(self) -> list:
        return [np.linspace(self.lo[i], self.hi[i], self.dims[i]) for i in range(self.d)]

    def meshgrid(self) -> list:
        return np.meshgrid(*self.coords(), indexing="ij")

    def interior_slice(self) -> tuple:
        w = self.layer_width
        return tuple(slice(w, dim - w) for dim in self.dims)

    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.dims, dtype=bool)
        m[self.interior_slice()] = True
        return m

    def node_points(self, width: Optional[int] = None) -> np.ndarray:
        """The point lo + h * node of every node of interior_slice(width),
        stacked [..., d]."""
        w = self.layer_width if width is None else width
        axes = [np.arange(w, dim - w, dtype=float) for dim in self.dims]
        return self.lo + self.h * np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def orthogonal_tuples(self, p: int) -> list:
        """All p-tuples of mutually orthogonal stencil directions."""
        dirs = [np.array(s, dtype=float) for s in self.stencil_dirs]
        out = []
        for combo in itertools.combinations(range(len(dirs)), p):
            ok = all(
                abs(dirs[i] @ dirs[j]) < 1e-12
                for i, j in itertools.combinations(combo, 2)
            )
            if ok:
                out.append(combo)
        return out


def square_grid(n_side: int, lo=0.0, hi=1.0, d: int = 2) -> Grid:
    return Grid(np.full(d, lo), np.full(d, hi), (n_side,) * d)


@dataclass
class GridFunction:
    """Values over a grid, with the boundary layer pinned during solves."""

    grid: Grid
    values: np.ndarray
    boundary_data: Optional[np.ndarray] = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.dims)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function must be finite")
        if self.boundary_data is None:
            self.boundary_data = self.values.copy()
        mask = ~self.grid.interior_mask()
        self.values[mask] = self.boundary_data[mask]

    def jet_field(self, width: int = 1) -> tuple:
        """Discrete jets of the width-trimmed interior as stacks (r, p, A).

        r[...], p[..., d] and A[..., d, d] span grid.interior_slice(width).
        A node's entry is its value, the centred gradient
        (u(x + h e_i) - u(x - h e_i)) / 2h and the centred Hessian, whose
        diagonal is second_difference_field along the axes and whose
        off-diagonal is the four-point cross difference over 4h^2; A is
        exactly symmetric, and all three are exact on quadratics. Width 0
        would put the layer's nodes in the stacks, and a shift off the
        grid would wrap, so it raises BoundaryNode. The node-by-node
        reference is discrete_jet in tests/jet2_refs.py.
        """
        g = self.grid
        if width < 1:
            raise BoundaryNode(f"width {width} leaves nodes with no centered jet")
        v, h = self.values, g.h
        unit = np.eye(g.d, dtype=int)
        r = _shifted(v, np.zeros(g.d, dtype=int), width).copy()
        p = np.stack(
            [(_shifted(v, e, width) - _shifted(v, -e, width)) / (2 * h) for e in unit], axis=-1
        )
        H = np.empty(r.shape + (g.d, g.d))
        for i, ei in enumerate(unit):
            H[..., i, i] = second_difference_field(v, ei, h, width)
            for j in range(i + 1, g.d):
                ej = unit[j]
                H[..., i, j] = H[..., j, i] = (
                    _shifted(v, ei + ej, width) - _shifted(v, ei - ej, width)
                    - _shifted(v, ej - ei, width) + _shifted(v, -ei - ej, width)
                ) / (4 * h * h)
        return r, p, H


def _shifted(values: np.ndarray, off, width: int) -> np.ndarray:
    """View of values on the width-trimmed interior moved by offset off.

    The trim and the offset act on the trailing len(off) axes; leading
    axes (a stack of grid functions) ride along.
    """
    grid_dims = values.shape[values.ndim - len(off):]
    return values[(..., *(slice(width + o, dim - width + o) for o, dim in zip(off, grid_dims)))]


def second_difference_field(values: np.ndarray, direction, h: float,
                            width: int) -> np.ndarray:
    """Vectorized directional second difference on the width-trimmed interior.

    values is one grid function or a stack of them, (*lead, *grid dims)
    with len(direction) grid axes last; each grid function's field is
    the one it gets alone, to the bit.
    """
    c = _shifted(values, (0,) * len(direction), width)
    f = _shifted(values, direction, width)
    b = _shifted(values, tuple(-x for x in direction), width)
    step2 = (h ** 2) * float(sum(x * x for x in direction))
    return (f + b - 2.0 * c) / step2


# ---------------------------------------------------------------------------
# Upper envelopes and sup-convolution
# ---------------------------------------------------------------------------

def perron_envelope(family: Sequence[GridFunction], g: GridFunction) -> GridFunction:
    """Pointwise max of a family of grid functions dominated by g on the layer.

    Raises EmptyFamily / BoundaryViolation; the envelope keeps g as its
    boundary data. The max of discrete subsolutions stays a subsolution
    for positivity-monotone oracles, which the caller can verify with
    check_subharmonic.
    """
    family = list(family)
    if not family:
        raise EmptyFamily("perron envelope of an empty family")
    grid = g.grid
    mask = ~grid.interior_mask()
    for k, w in enumerate(family):
        if w.grid.dims != grid.dims:
            raise ValueError("family member grid mismatch")
        excess = float(np.max(w.values[mask] - g.values[mask]))
        if excess > 1e-12:
            raise BoundaryViolation(
                f"family member {k} exceeds boundary data by {excess:.3e}"
            )
    vals = family[0].values.copy()
    for w in family[1:]:
        np.maximum(vals, w.values, out=vals)
    return GridFunction(grid, vals, boundary_data=vals.copy())


def sup_convolution(u: GridFunction, eps: float) -> GridFunction:
    """Discrete quadratic-penalty upper envelope over grid nodes.

    u^eps(x) = max_y [ u(y) - |y - x|^2 / (2 eps) ], computed by
    separable one-dimensional passes. Dominates u, increases with eps,
    and u^eps + |x|^2/(2 eps) is a discrete max of affine functions of
    x, hence convex along every grid line.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    g = u.grid
    vals = u.values.copy()
    for axis in range(g.d):
        xs = np.linspace(g.lo[axis], g.hi[axis], g.dims[axis])
        penalty = (xs[None, :] - xs[:, None]) ** 2 / (2.0 * eps)
        moved = np.moveaxis(vals, axis, -1)
        flat = moved.reshape(-1, g.dims[axis])
        # out[i, x] = max_y flat[i, y] - penalty[x, y]
        out = np.max(flat[:, None, :] - penalty[None, :, :], axis=2)
        vals = np.moveaxis(out.reshape(moved.shape), -1, axis)
    return GridFunction(g, vals, boundary_data=vals.copy())


def quasiconvexity_defect(u: GridFunction, eps: float) -> float:
    """Worst second difference of u + |x|^2/(2 eps) over stencil directions.

    Nonnegative (up to roundoff) when u is a sup-convolution with this
    eps: discrete (1/eps)-quasiconvexity.
    """
    g = u.grid
    mesh = g.meshgrid()
    q = sum(m**2 for m in mesh) / (2.0 * eps)
    shifted = u.values + q
    worst = np.inf
    for s in g.stencil_dirs:
        fld = second_difference_field(shifted, s, g.h, g.layer_width)
        worst = min(worst, float(np.min(fld)))
    return worst
