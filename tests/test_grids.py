import warnings

import numpy as np
import pytest

from jetcones import grids
from jetcones.catalog import cone_P
from jetcones.errors import BoundaryNode, BoundaryViolation, EmptyFamily
from jetcones.grids import (
    Grid,
    GridFunction,
    perron_envelope,
    quasiconvexity_defect,
    square_grid,
    sup_convolution,
)
from jetcones.jets import random_symmetric
from jetcones.solver import make_discrete_operator
from jet2_refs import (
    discrete_gradient,
    discrete_hessian,
    discrete_spectrum,
    from_callable,
    interior_nodes,
    ref_jet_field,
    second_difference,
    second_difference_field,
)


def sup_convolution_bruteforce(u: GridFunction, eps: float) -> GridFunction:
    """Direct double-loop reference for the separable sup_convolution."""
    g = u.grid
    pts = np.stack([m.ravel() for m in g.meshgrid()], axis=-1)
    flat = u.values.ravel()
    out = np.empty_like(flat)
    for i, x in enumerate(pts):
        d2 = np.sum((pts - x) ** 2, axis=1)
        out[i] = np.max(flat - d2 / (2.0 * eps))
    vals = out.reshape(g.dims)
    return GridFunction(g, vals)


def test_grid_geometry_and_stencil():
    g = square_grid(17, 0.0, 1.0)
    assert g.h == pytest.approx(1 / 16)
    assert g.layer_width == 2
    assert len(g.stencil_dirs) == 8
    pairs = g.orthogonal_tuples(2)
    assert len(pairs) == 4  # axes, diagonals, two knight frames


def test_grid_rejects_nonuniform():
    with pytest.raises(ValueError):
        Grid([0.0, 0.0], [1.0, 2.0], (9, 9))


def test_grid_rejects_a_reversed_box():
    # hi <= lo once gave a negative spacing
    with pytest.raises(ValueError, match="hi > lo"):
        Grid((1, 1), (0, 0), (9, 9))
    with pytest.raises(ValueError, match="hi > lo"):
        Grid((0, 1), (1, 1), (9, 9))


def test_grid_rejects_a_non_finite_box():
    for lo, hi in (((0.0, 0.0), (np.inf, np.inf)), ((np.nan, 0.0), (1.0, 1.0))):
        with pytest.raises(ValueError, match="finite"):
            Grid(lo, hi, (9, 9))


def test_grid_rejects_fractional_dims():
    # 9.7 was truncated to 9
    for dims in ((9.7, 9), (np.nan, 9), (np.inf, 9)):
        with pytest.raises(ValueError, match="whole numbers"):
            Grid((0, 0), (1, 1), dims)
    assert Grid((0, 0), (1, 1), (9.0, 9)).dims == (9, 9)


def test_grid_rejects_a_dimension_without_a_stencil():
    # a KeyError from the stencil table before
    for d in (0, 4):
        with pytest.raises(ValueError, match="dimension 1, 2 or 3"):
            Grid((0.0,) * d, (1.0,) * d, (9,) * d)


def test_grid_size_check_comes_before_the_spacing():
    # dims (1, 9) divided by zero, with a RuntimeWarning, before it raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="too small"):
            Grid((0, 0), (1, 1), (1, 9))


def test_second_difference_exact_on_quadratics():
    g = square_grid(17, 0.0, 1.0)
    sweep = g.plan(g.layer_width).sweep
    u = from_callable(g, lambda x: 0.5 * float(x @ x))
    assert sweep(u.values) == pytest.approx(1.0, abs=1e-10)
    v = from_callable(g, lambda x: x[0] ** 2 - x[1] ** 2)
    axes = sweep(v.values)
    assert axes[0] == pytest.approx(2.0)  # directions (1, 0) then (0, 1)
    assert axes[1] == pytest.approx(-2.0)


@pytest.mark.parametrize("d, side", [(1, 9), (2, 17), (3, 9)])
def test_second_difference_field_on_a_stack(d, side):
    # leading axes ride along: each grid function's field is the one it
    # gets alone, to the bit, and matches the node-by-node difference
    g = square_grid(side, 0.0, 1.0, d=d)
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((2, 3, *g.dims))
    w = g.layer_width
    fld = g.plan(w).sweep(stack)
    assert fld.shape == (len(g.stencil_dirs), 2, 3) + tuple(dim - 2 * w for dim in g.dims)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(fld[:, i, j], g.plan(w).sweep(stack[i, j]))
    node = (w,) * d
    u = GridFunction(g, stack[1, 2])
    for k, s in enumerate(g.stencil_dirs):
        assert fld[(k, 1, 2) + (0,) * d] == second_difference(u, node, s)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _rough_values(rng, shape) -> np.ndarray:
    """Standard-normal values with an inf, a -inf and a nan planted."""
    v = rng.standard_normal(shape)
    flat = v.reshape(-1)
    at = rng.choice(flat.size, 3, replace=False)
    flat[at] = (np.inf, -np.inf, np.nan)
    return v


# (d, side): every trim width 1 to 3 leaves interior nodes
PLAN_GRIDS = [(1, 9), (2, 11), (3, 9)]


@pytest.mark.parametrize("d, side", PLAN_GRIDS)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_plan_sweep_is_the_slice_reference_bit_for_bit(d, side, width):
    g = square_grid(side, -1.0, 1.0, d=d)
    plan = g.plan(width)
    if width < g.layer_width:
        # the wide stencil leaves the grid
        with pytest.raises(BoundaryNode):
            plan.sweep(np.zeros(g.dims))
        return
    rng = np.random.default_rng(10 * d + width)
    with np.errstate(invalid="ignore", over="ignore"):
        for values in (_rough_values(rng, g.dims), _rough_values(rng, (16, *g.dims))):
            fld = plan.sweep(values)
            ref = np.stack([second_difference_field(values, s, g.h, width)
                            for s in g.stencil_dirs])
            assert np.array_equal(_bits(fld), _bits(ref))
        # node by node on the stack's last grid function
        u = GridFunction(g, np.zeros(g.dims))
        u.values = values[-1]
        for node in interior_nodes(g, width):
            at = (..., -1, *(c - width for c in node))
            assert np.array_equal(_bits(fld[at]), _bits(discrete_spectrum(u, node)))


@pytest.mark.parametrize("d, side", PLAN_GRIDS)
@pytest.mark.parametrize("width", [1, 2, 3])
def test_jet_field_is_the_slice_reference_bit_for_bit(d, side, width):
    g = square_grid(side, -1.0, 1.0, d=d)
    rng = np.random.default_rng(20 * d + width)
    u = GridFunction(g, np.zeros(g.dims))
    with np.errstate(invalid="ignore", over="ignore"):
        for values in (rng.standard_normal(g.dims), _rough_values(rng, g.dims)):
            u.values = values
            r, p, A = u.jet_field(width)
            for got, ref in zip((r, p, A), ref_jet_field(u, width)):
                assert np.array_equal(_bits(got), _bits(ref))
            for node in interior_nodes(g, width):
                i = tuple(c - width for c in node)
                assert _bits(r[i]) == _bits(values[node])
                assert np.array_equal(_bits(p[i]), _bits(discrete_gradient(u, node)))
                assert np.array_equal(_bits(A[i]), _bits(discrete_hessian(u, node)))


@pytest.mark.parametrize("d, side", [(1, 9), (2, 17), (3, 9)])
def test_apply_on_the_plan_is_apply_on_the_slice_reference(d, side, monkeypatch):
    # every discretization of this dimension, on one grid function and on
    # a 16-state stack holding infinities and nans: the field is the one
    # the call-by-call slices give, to the bit
    g = square_grid(side, 0.0, 1.0, d=d)
    keys = [k for k in ("P", "P~", f"branch:k={d}", "pfold:p=2", "slag", "pucci:1,2")
            if d > 1 or k in ("P", "P~")]
    ops = [make_discrete_operator(k, g) for k in keys]
    rng = np.random.default_rng(d)
    states = [_rough_values(rng, g.dims), _rough_values(rng, (16, *g.dims))]
    with np.errstate(invalid="ignore", over="ignore"):
        fields = [op.apply(v, g) for op in ops for v in states]
        monkeypatch.setattr(grids.StencilPlan, "sweep", lambda plan, values: np.stack(
            [second_difference_field(values, s, g.h, plan.width) for s in g.stencil_dirs]))
        refs = [op.apply(v, g) for op in ops for v in states]
    for fld, ref in zip(fields, refs):
        assert np.array_equal(_bits(fld), _bits(ref))
    # node by node, P and P~ are the least and the greatest directional
    # second difference
    u = GridFunction(g, np.zeros(g.dims))
    u.values = states[0]
    w = g.layer_width
    with np.errstate(invalid="ignore", over="ignore"):
        for node in interior_nodes(g, w):
            at = tuple(c - w for c in node)
            spectrum = discrete_spectrum(u, node)
            assert _bits(fields[0][at]) == _bits(np.min(spectrum))
            assert _bits(fields[2][at]) == _bits(np.max(spectrum))


def test_a_plan_is_built_once_per_grid_and_width():
    g = square_grid(17, 0.0, 1.0)
    plan = g.plan(2)
    assert g.plan(2) is plan and g.plan(3) is not plan
    assert square_grid(17, 0.0, 1.0).plan(2) is not plan
    assert g.node_points(2) is plan.points and g.node_points() is plan.points
    for a in (plan.points, plan.index):
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 1
    # the index numbers the trimmed interior in node order, -1 off it
    assert np.array_equal(plan.index[2:-2, 2:-2].ravel(), np.arange(13 * 13))
    assert np.all(plan.index[~g.interior_mask()] == -1)


def test_stencil_out_of_bounds():
    # width 0 would put the layer's nodes in the stacks, whose centred
    # stencils leave the grid
    g = square_grid(9, 0.0, 1.0)
    u = from_callable(g, lambda x: 0.0)
    with pytest.raises(BoundaryNode):
        u.jet_field(width=0)


def test_discrete_spectrum_bounds_eigenvalues():
    # directional curvatures are Rayleigh quotients: min over directions
    # upper-bounds lambda_1 with a measured stencil bias
    rng = np.random.default_rng(81)
    g = square_grid(17, 0.0, 1.0)
    for _ in range(30):
        B = random_symmetric(rng, 2, 1.5)
        u = from_callable(g, lambda x: 0.5 * float(x @ B.entries @ x))
        # one row per stencil direction, one column per interior node
        spec = g.plan(g.layer_width).sweep(u.values).reshape(len(g.stencil_dirs), -1)
        lam = np.linalg.eigvalsh(B.entries)
        assert np.min(spec) >= lam[0] - 1e-9
        assert np.max(spec) <= lam[-1] + 1e-9
        # stencil bias on the 8-direction set stays under the spectral gap
        assert np.max(np.min(spec, axis=0)) - lam[0] <= 0.5 * (lam[-1] - lam[0]) + 1e-9


def test_discrete_jet_exact_on_quadratics():
    g = square_grid(17, -1.0, 1.0)
    B = np.array([[2.0, 0.7], [0.7, -1.0]])
    p0 = np.array([0.3, -0.2])
    u = from_callable(g, lambda x: 1.5 + float(p0 @ x) + 0.5 * float(x @ B @ x))
    r, p, A = u.jet_field(1)
    x = g.node_points(1)
    assert np.allclose(p, p0 + x @ B, atol=1e-10)
    assert np.allclose(A, B, atol=1e-9)
    origin = (7, 7)  # node (8, 8)
    assert r[origin] == pytest.approx(1.5)
    assert np.allclose(p[origin], p0, atol=1e-10)


def test_perron_envelope_absolute_value():
    g = square_grid(33, -1.0, 1.0)
    gb = from_callable(g, lambda x: abs(x[0]))
    fam = [
        from_callable(g, lambda x, a=a: a * x[0])
        for a in np.linspace(-1, 1, 21)
    ]
    env = perron_envelope(fam, gb)
    assert np.allclose(env.values, gb.values, atol=1e-12)
    from jetcones.solver import check_subharmonic

    rep = check_subharmonic(env, cone_P(2))
    assert rep.all_pass


def test_perron_envelope_errors():
    g = square_grid(9, -1.0, 1.0)
    gb = from_callable(g, lambda x: abs(x[0]))
    with pytest.raises(EmptyFamily):
        perron_envelope([], gb)
    too_big = from_callable(g, lambda x: 2.0 + x[0])
    with pytest.raises(BoundaryViolation):
        perron_envelope([too_big], gb)


def test_perron_single_member_identity():
    g = square_grid(9, -1.0, 1.0)
    gb = from_callable(g, lambda x: 1.0 + abs(x[0]))
    w = from_callable(g, lambda x: x[0])
    env = perron_envelope([w], gb)
    assert np.allclose(env.values, w.values)


def test_sup_convolution_matches_bruteforce():
    rng = np.random.default_rng(82)
    g = square_grid(17, -1.0, 1.0)
    u = GridFunction(g, rng.standard_normal(g.dims))
    for eps in (0.25, 1.0):
        fast = sup_convolution(u, eps)
        slow = sup_convolution_bruteforce(u, eps)
        assert np.allclose(fast.values, slow.values, atol=1e-12)


def test_sup_convolution_1d_closed_form():
    # u = -x^2/2 has curvature -1; the envelope curvature is a/(1 - eps a),
    # giving -x^2/3 at eps = 1/2 (frozen from the brute-force oracle)
    g = Grid([-2.0], [2.0], (129,))
    u = from_callable(g, lambda x: -0.5 * float(x[0] ** 2))
    ue = sup_convolution(u, 0.5)
    brute = sup_convolution_bruteforce(u, 0.5)
    assert np.allclose(ue.values, brute.values, atol=1e-12)
    xs = np.linspace(-2, 2, 129)
    # interior nodes track the continuum closed form to O(h^2); the rim
    # feels the missing tail of the discrete sup
    inner = slice(20, 109)
    expected = -(xs**2) / 3.0
    assert np.max(np.abs(ue.values[inner] - expected[inner])) < 5e-3


def test_sup_convolution_properties():
    rng = np.random.default_rng(83)
    g = square_grid(33, -1.0, 1.0)
    base = from_callable(g, lambda x: abs(x[0]) - 2 * abs(x[1]))
    noise = GridFunction(g, base.values + 0.1 * rng.standard_normal(g.dims))
    for u in (base, noise):
        u1 = sup_convolution(u, 0.25)
        u2 = sup_convolution(u, 1.0)
        assert np.all(u1.values >= u.values - 1e-12)
        assert np.all(u2.values >= u1.values - 1e-12)  # monotone in eps
        assert quasiconvexity_defect(u1, 0.25) >= -1e-8


def test_sup_convolution_of_zero_is_zero():
    g = square_grid(17, -1.0, 1.0)
    u = from_callable(g, lambda x: 0.0)
    assert np.allclose(sup_convolution(u, 0.5).values, 0.0)
