"""Uniform grids, wide stencils, discrete jets, envelopes, sup-convolution.

Grids are uniform over a box in dimension 1, 2, or 3 with a boundary
layer thick enough for the widest stencil offset. The 2-D stencil
holds 8 directions up to sign: the axes, the diagonals, and the
(2,1)-type knight moves. Directional second differences are exact on
quadratics whose eigenframe is spanned by stencil directions; off the
stencil the min/max/partial-sum surrogates carry a measured bias (see
the stencil_bias helper) rather than a convergence theorem.

Every slice a discrete jet or a second difference reads comes from the
grid's StencilPlan for its trim width (Grid.plan), built at the first
use of that width and kept on the grid: the stencil sweep (one
StencilPlan.sweep per DiscreteOperator.apply), GridFunction.jet_field
and the interior index all read it. Every node coordinate comes from
Grid.nodes, the np.linspace points of each axis (the last node of an
axis is hi exactly), built at first use and kept on the grid as well.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    """Uniform grid over [lo, hi]^d with integer-offset stencil directions.

    h, the spacing, and layer_width, the widest stencil offset component
    (the boundary layer's thickness), are set once at construction.
    """

    lo: np.ndarray
    hi: np.ndarray
    dims: tuple
    stencil_dirs: tuple
    h: float
    layer_width: int

    def __init__(self, lo, hi, dims):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        sizes = np.atleast_1d(dims)
        if sizes.dtype.kind not in "iuf" or not np.all(np.isfinite(sizes)
                                                       & (sizes == np.round(sizes))):
            raise ValueError(f"grid dims must be whole numbers, got {dims}")
        dims = tuple(int(n) for n in sizes)
        d = len(dims)
        if len(lo) != d or len(hi) != d:
            raise ValueError("box and dims dimensions disagree")
        if d not in _STENCILS:
            raise ValueError(f"grids have dimension 1, 2 or 3, got {d}")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"grid box must be finite, got {lo}, {hi}")
        if not np.all(hi > lo):
            raise ValueError(f"grid box needs hi > lo on every axis, got {lo}, {hi}")
        stencil = _STENCILS[d]
        width = max(max(abs(c) for c in s) for s in stencil)
        if min(dims) <= 2 * width:
            raise ValueError(f"grid too small for stencil width {width}: dims {dims}")
        steps = (hi - lo) / (np.array(dims) - 1)
        if not np.all(np.abs(steps - steps[0]) <= 1e-14 + 1e-12 * abs(steps[0])):
            raise ValueError(f"grid spacing must be uniform, got {steps}")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "stencil_dirs", stencil)
        object.__setattr__(self, "h", float(steps[0]))
        object.__setattr__(self, "layer_width", width)
        object.__setattr__(self, "_plans", {})

    @property
    def d(self) -> int:
        return len(self.dims)

    def plan(self, width: int) -> StencilPlan:
        """The stencil plan of the width-trimmed interior, built at the
        first call for this width and kept on the grid."""
        plan = self._plans.get(width)
        if plan is None:
            plan = self._plans[width] = StencilPlan(self, width)
        return plan

    def coords(self) -> list:
        return [np.linspace(self.lo[i], self.hi[i], self.dims[i]) for i in range(self.d)]

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """Every node's point, (*dims, d), read-only: the meshgrid of coords()."""
        nodes = np.stack(np.meshgrid(*self.coords(), indexing="ij"), axis=-1)
        nodes.flags.writeable = False
        return nodes

    def interior_slice(self) -> tuple:
        w = self.layer_width
        return tuple(slice(w, dim - w) for dim in self.dims)

    def interior_mask(self) -> np.ndarray:
        m = np.zeros(self.dims, dtype=bool)
        m[self.interior_slice()] = True
        return m

    def node_points(self, width: Optional[int] = None) -> np.ndarray:
        """The read-only view of nodes on the width-trimmed interior."""
        w = self.layer_width if width is None else width
        return self.nodes[tuple(slice(w, dim - w) for dim in self.dims)]

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


class StencilPlan:
    """The slices of one trim width of a grid, built once (Grid.plan).

    Each index is a tuple led by an Ellipsis, so it reads one grid
    function or a stack (*lead, *grid.dims) alike. centre trims width
    nodes off every grid axis, a view of shape `shape`; the other
    indices move that view by an offset:
    - arms: per stencil direction s, the moves by +s and by -s and
      h^2 |s|^2; None when width < grid.layer_width, where the wide
      stencil leaves the grid;
    - axes: per axis e_i, the moves by +e_i and by -e_i;
    - cross: per axis pair i < j, (i, j) and the moves by e_i + e_j,
      e_i - e_j, e_j - e_i and -e_i - e_j.
    index, a read-only array built at its first use, is each node's
    position in the flattened width-trimmed interior (-1 off it).
    """

    def __init__(self, grid: Grid, width: int):
        # the plan keeps what it reads of the grid, not the grid: the grid
        # holds its plans, and a cycle would outlive its last reference
        self.dims, self.width = grid.dims, width
        self.shape = tuple(dim - 2 * width for dim in grid.dims)
        self.centre = self._moved((0,) * grid.d)
        self.arms = None if width < grid.layer_width else tuple(
            (self._moved(s), self._moved([-c for c in s]),
             (grid.h ** 2) * float(sum(c * c for c in s)))
            for s in grid.stencil_dirs)
        # offsets as Python ints: numpy scalars make each slice several
        # times dearer to build
        unit = [[int(i == k) for i in range(grid.d)] for k in range(grid.d)]
        self.axes = tuple((self._moved(e), self._moved([-c for c in e])) for e in unit)
        self.cross = tuple(
            ((i, j), tuple(self._moved([a * x + b * y for x, y in zip(unit[i], unit[j])])
                           for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))))
            for i, j in itertools.combinations(range(grid.d), 2))

    def _moved(self, off) -> tuple:
        w = self.width
        return (..., *(slice(w + o, dim - w + o) for o, dim in zip(off, self.dims)))

    def sweep(self, values: np.ndarray) -> np.ndarray:
        """Second differences (v(x + h s) + v(x - h s) - 2 v(x)) / (h^2 |s|^2)
        along every stencil direction s, (dirs, *lead, *shape) for values
        of shape (*lead, *grid.dims); each grid function's field is the
        one it gets alone, to the bit."""
        if self.arms is None:
            raise BoundaryNode(f"the wide stencil leaves the grid at width {self.width}")
        lead = values.shape[:values.ndim - len(self.shape)]
        out = np.empty((len(self.arms), *lead, *self.shape))
        c2 = 2.0 * values[self.centre]
        for o, (f, b, step2) in zip(out, self.arms):
            np.add(values[f], values[b], out=o)
            np.subtract(o, c2, out=o)
            np.divide(o, step2, out=o)
        return out

    @functools.cached_property
    def index(self) -> np.ndarray:
        index = np.full(self.dims, -1, dtype=np.int32)
        index[self.centre] = np.arange(math.prod(self.shape), dtype=np.int32).reshape(self.shape)
        index.flags.writeable = False
        return index


def square_grid(n_side: int, lo=0.0, hi=1.0, d: int = 2) -> Grid:
    return Grid(np.full(d, lo), np.full(d, hi), (n_side,) * d)


@dataclass
class GridFunction:
    """Values over a grid; a Dirichlet solve keeps the values on the
    boundary layer as its data."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.dims)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function must be finite")

    def jet_field(self, width: int = 1) -> tuple:
        """Discrete jets of the width-trimmed interior as stacks (r, p, A).

        r[...], p[..., d] and A[..., d, d] span grid.interior_slice(width).
        A node's entry is its value, the centred gradient
        (u(x + h e_i) - u(x - h e_i)) / 2h and the centred Hessian, whose
        diagonal is the second difference along the axes and whose
        off-diagonal is the four-point cross difference over 4h^2; A is
        exactly symmetric, and all three are exact on quadratics. The
        slices come from grid.plan(width). Width 0 would put the layer's
        nodes in the stacks, and a shift off the grid would wrap, so it
        raises BoundaryNode. The node-by-node reference is discrete_jet in
        tests/jet2_refs.py.
        """
        g = self.grid
        if width < 1:
            raise BoundaryNode(f"width {width} leaves nodes with no centered jet")
        plan = g.plan(width)
        v, h = self.values, g.h
        c = v[plan.centre]
        c2 = 2.0 * c
        p = np.empty(plan.shape + (g.d,))
        H = np.empty(plan.shape + (g.d, g.d))
        for i, (f, b) in enumerate(plan.axes):
            p[..., i] = (v[f] - v[b]) / (2 * h)
            H[..., i, i] = (v[f] + v[b] - c2) / h ** 2
        for (i, j), (pp, pm, mp, mm) in plan.cross:
            H[..., i, j] = H[..., j, i] = (v[pp] - v[pm] - v[mp] + v[mm]) / (4 * h * h)
        return c.copy(), p, H


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
    return GridFunction(grid, vals)


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
    for axis, xs in enumerate(g.coords()):
        penalty = (xs[None, :] - xs[:, None]) ** 2 / (2.0 * eps)
        moved = np.moveaxis(vals, axis, -1)
        flat = moved.reshape(-1, g.dims[axis])
        # out[i, x] = max_y flat[i, y] - penalty[x, y]
        out = np.max(flat[:, None, :] - penalty[None, :, :], axis=2)
        vals = np.moveaxis(out.reshape(moved.shape), -1, axis)
    return GridFunction(g, vals)


def quasiconvexity_defect(u: GridFunction, eps: float) -> float:
    """Worst second difference of u + |x|^2/(2 eps) over stencil directions.

    Nonnegative (up to roundoff) when u is a sup-convolution with this
    eps: discrete (1/eps)-quasiconvexity.
    """
    g = u.grid
    q = sum(m**2 for m in np.moveaxis(g.nodes, -1, 0)) / (2.0 * eps)
    worst = np.inf
    for fld in g.plan(g.layer_width).sweep(u.values + q):
        worst = min(worst, float(np.min(fld)))
    return worst
