import numpy as np
import pytest

from jetcones.catalog import cone_P
from jetcones.errors import BoundaryNode, BoundaryViolation, EmptyFamily
from jetcones.grids import (
    Grid,
    GridFunction,
    perron_envelope,
    quasiconvexity_defect,
    second_difference_field,
    square_grid,
    sup_convolution,
)
from jetcones.jets import random_symmetric
from jet2_refs import from_callable, second_difference


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


def test_second_difference_exact_on_quadratics():
    g = square_grid(17, 0.0, 1.0)
    w = g.layer_width
    u = from_callable(g, lambda x: 0.5 * float(x @ x))
    for s in g.stencil_dirs:
        assert second_difference_field(u.values, s, g.h, w) == pytest.approx(1.0, abs=1e-10)
    v = from_callable(g, lambda x: x[0] ** 2 - x[1] ** 2)
    assert second_difference_field(v.values, (1, 0), g.h, w) == pytest.approx(2.0)
    assert second_difference_field(v.values, (0, 1), g.h, w) == pytest.approx(-2.0)


@pytest.mark.parametrize("d, side", [(1, 9), (2, 17), (3, 9)])
def test_second_difference_field_on_a_stack(d, side):
    # leading axes ride along: each grid function's field is the one it
    # gets alone, to the bit, and matches the node-by-node difference
    g = square_grid(side, 0.0, 1.0, d=d)
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((2, 3, *g.dims))
    w = g.layer_width
    for s in g.stencil_dirs:
        fld = second_difference_field(stack, s, g.h, w)
        assert fld.shape == (2, 3) + tuple(dim - 2 * w for dim in g.dims)
        for i in range(2):
            for j in range(3):
                single = second_difference_field(stack[i, j], s, g.h, w)
                assert np.array_equal(fld[i, j], single)
        node = (w,) * d
        u = GridFunction(g, stack[1, 2])
        assert fld[(1, 2) + (0,) * d] == second_difference(u, node, s)


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
        spec = np.stack([second_difference_field(u.values, s, g.h, g.layer_width).ravel()
                         for s in g.stencil_dirs])
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
