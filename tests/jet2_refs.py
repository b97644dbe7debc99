"""Jet2-arithmetic references shared by the test modules (not collected).

ray_values evaluates an oracle along a ray J + t*U on arrays of t with
the float operations of Jet2 arithmetic, the reference for the probes
of catalog.ray_probe.

ref_shift_to_boundary and ref_sample_cone_member are the one-jet,
one-probe-at-a-time loops that catalog.shift_stack_to_boundary and
duality._cone_members run on stacks in lockstep: every probe is one
oracle.contains call on a Jet2 sum. shift_jets runs
shift_stack_to_boundary on a list of Jet2s and hands back one moved Jet2
or None per jet, so its result compares with the references jet by jet.

interior_nodes and node_point walk a grid node by node: the index tuples
of Grid.interior_slice and the point of one node, the per-node
references for the stacked GridFunction.jet_field and Grid.node_points.
second_difference, discrete_spectrum, discrete_gradient, discrete_hessian
and discrete_jet read one node's differences of a GridFunction, the
per-node references for second_difference_field and jet_field.
from_callable fills a grid with a Python function, one call per node.
"""

import itertools

import numpy as np

from jetcones.catalog import jets_along, make_oracle, shift_stack_to_boundary
from jetcones.errors import BoundaryNode
from jetcones.grids import GridFunction
from jetcones.jets import Jet2, SymMat, random_jet, stack_jets, unstack_jets


def ray_values(oracle, J, U, t):
    """g(J + t*U) for a scalar t or each entry of an array t.

    Evaluated through FiberOracle.values with the arithmetic of
    J + t * U on Jet2s, so the result matches oracle.value(J + t * U)
    to the bit without building the intermediate jets.
    """
    if J.n != U.n:
        raise ValueError(f"dimension mismatch: jet of dimension {J.n}, direction {U.n}")
    return oracle.values(*jets_along((J.r, J.p, J.A.entries), (U.r, U.p, U.A.entries), t))


def ref_shift_to_boundary(oracle, J, J0, margin=1e-6, tol=1e-9, max_expand=60):
    t_in, t_out, t = None, None, 0.0
    if oracle.contains(J, tol):
        t_in, step = 0.0, -1.0
        for _ in range(max_expand):
            t += step
            if not oracle.contains(J + t * J0, tol):
                t_out = t
                break
            t_in = t
            step *= 2.0
    else:
        t_out, step = 0.0, 1.0
        for _ in range(max_expand):
            t += step
            if oracle.contains(J + t * J0, tol):
                t_in = t
                break
            t_out = t
            step *= 2.0
    if t_in is None or t_out is None:
        return None
    for _ in range(60):
        mid = 0.5 * (t_in + t_out)
        if oracle.contains(J + mid * J0, tol):
            t_in = mid
        else:
            t_out = mid
        if abs(t_in - t_out) < tol:
            break
    return J + (t_in + margin) * J0


def ref_sample_cone_member(M, rng, n, scale):
    oracle = make_oracle(M.key(), n)
    J0, J, t = M.interior_jet(n), random_jet(rng, n, scale), 0.0
    while not oracle.contains(J + t * J0) and t < 1e6:
        t = 2.0 * t + 0.5
    return J + t * J0


def shift_jets(F, jets, J0, margins, **kwargs):
    """shift_stack_to_boundary(F, <jets stacked>, J0, margins, **kwargs) as
    a list: the moved Jet2 of each jet, or None where the search drops it."""
    out = [None] * len(jets)
    rows, moved = shift_stack_to_boundary(F, stack_jets(jets, J0.n), J0, margins, **kwargs)
    for i, K in zip(rows.tolist(), unstack_jets(*moved)):
        out[i] = K
    return out


def interior_nodes(grid, width=None) -> list:
    w = grid.layer_width if width is None else width
    ranges = [range(w, dim - w) for dim in grid.dims]
    return list(itertools.product(*ranges))


def node_point(grid, node) -> np.ndarray:
    return grid.lo + grid.h * np.asarray(node, dtype=float)


def from_callable(grid, f) -> GridFunction:
    mesh = grid.meshgrid()
    vals = np.vectorize(lambda *xs: float(f(np.array(xs))))(*mesh)
    return GridFunction(grid, vals)


def second_difference(u, node, direction) -> float:
    """(u(x + h*dir) + u(x - h*dir) - 2u(x)) / (h |dir|)^2."""
    g = u.grid
    node = tuple(node)
    fwd = tuple(node[i] + direction[i] for i in range(g.d))
    bwd = tuple(node[i] - direction[i] for i in range(g.d))
    for nb in (fwd, bwd):
        if any(c < 0 or c >= g.dims[i] for i, c in enumerate(nb)):
            raise IndexError(f"offset {direction} leaves the grid at {node}")
    step2 = (g.h ** 2) * float(sum(c * c for c in direction))
    return (u.values[fwd] + u.values[bwd] - 2.0 * u.values[node]) / step2


def discrete_spectrum(u, node) -> np.ndarray:
    """Directional second differences over the stencil (one per direction)."""
    return np.array([second_difference(u, node, s) for s in u.grid.stencil_dirs])


def discrete_gradient(u, node) -> np.ndarray:
    g = u.grid
    node = tuple(node)
    out = np.zeros(g.d)
    for i in range(g.d):
        fwd = list(node)
        bwd = list(node)
        fwd[i] += 1
        bwd[i] -= 1
        out[i] = (u.values[tuple(fwd)] - u.values[tuple(bwd)]) / (2 * g.h)
    return out


def discrete_hessian(u, node) -> SymMat:
    """Centered second differences including cross terms; exact on quadratics."""
    g = u.grid
    node = tuple(node)
    h = g.h
    H = np.zeros((g.d, g.d))
    for i in range(g.d):
        ei = [0] * g.d
        ei[i] = 1
        H[i, i] = second_difference(u, node, ei)
        for j in range(i + 1, g.d):
            pp = list(node); pm = list(node); mp = list(node); mm = list(node)
            pp[i] += 1; pp[j] += 1
            pm[i] += 1; pm[j] -= 1
            mp[i] -= 1; mp[j] += 1
            mm[i] -= 1; mm[j] -= 1
            H[i, j] = H[j, i] = (
                u.values[tuple(pp)] - u.values[tuple(pm)]
                - u.values[tuple(mp)] + u.values[tuple(mm)]
            ) / (4 * h * h)
    return SymMat(H)


def discrete_jet(u, node) -> Jet2:
    """(value, centered gradient, centered Hessian) at an interior node."""
    g = u.grid
    node = tuple(node)
    w = 1  # jets need one-node margins; wide stencil ops check their own
    if any(c < w or c >= g.dims[i] - w for i, c in enumerate(node)):
        raise BoundaryNode(f"node {node} has no centered jet")
    return Jet2(float(u.values[node]), discrete_gradient(u, node), discrete_hessian(u, node))
