import numpy as np
import pytest

from jetcones.boundary import (
    boundary_point,
    cylinder_domain,
    domain_from_spec,
    ellipsoid_domain,
    geometric_pseudoconvex_at,
    project_to_boundary,
    saddle_domain,
    slab_domain,
    sphere_domain,
    strict_ellipticity_check,
    strict_pseudoconvex_at,
    tangential_planes,
)
from jetcones.catalog import DEFAULT_TOL, cone_P, cone_P_dual, cone_pfold, make_oracle
from jetcones.cli import main
from jetcones.errors import NotOnBoundary, ParseError, SingularGradient
from jetcones.jets import SymMat
from jet2_refs import ref_strict_ellipticity_check


def finite_difference_curvature(dom, x, v, h=1e-5):
    """Normal turning rate along a tangent direction (curvature oracle)."""

    def unit_normal(y):
        g = dom.grad(y)
        return -g / np.linalg.norm(g)

    xp = project_to_boundary(dom, x + h * v)
    xm = project_to_boundary(dom, x - h * v)
    dn = (unit_normal(xp) - unit_normal(xm)) / (2 * h)
    # second fundamental form w.r.t. inward normal: II(v, v) = -<dN/dv, v>
    return -float(dn @ v)


def fd_consistency(dom, x, h: float = 1e-4):
    """Max deviation of grad/hess from centered differences of phi at x."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    g = np.zeros(n)
    H = np.zeros((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        g[i] = (dom.phi(x + ei) - dom.phi(x - ei)) / (2 * h)
        H[i, i] = (dom.phi(x + ei) - 2 * dom.phi(x) + dom.phi(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            H[i, j] = H[j, i] = (
                dom.phi(x + ei + ej) - dom.phi(x + ei - ej)
                - dom.phi(x - ei + ej) + dom.phi(x - ei - ej)
            ) / (4 * h**2)
    gdev = float(np.max(np.abs(g - dom.grad(x))))
    hdev = float(np.max(np.abs(H - dom.hess(x).entries)))
    return gdev, hdev


def test_domains_fd_consistency():
    rng = np.random.default_rng(71)
    for dom in (sphere_domain(3), ellipsoid_domain([2.0, 1.0]),
                cylinder_domain(), saddle_domain()):
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=len(dom.bbox.lo))
            gdev, hdev = fd_consistency(dom, x)
            assert gdev < 1e-6 and hdev < 1e-4


def test_sphere_principal_curvatures_are_one():
    dom = sphere_domain(3)
    rng = np.random.default_rng(72)
    for _ in range(5):
        v = rng.standard_normal(3)
        x = v / np.linalg.norm(v)
        bp = boundary_point(dom, x)
        assert np.allclose(bp.principal_curvatures, 1.0, atol=1e-9)
        assert np.allclose(bp.A_x.entries @ bp.e, 0.0, atol=1e-12)
        assert float(dom.grad(x) @ bp.e) < 0  # phi decreases inward


def test_slab_face_is_flat():
    dom = slab_domain(2, axis=0, offset=1.0)
    bp = boundary_point(dom, [1.0, 0.3])
    assert np.allclose(bp.A_x.entries, 0.0)


def test_ellipse_curvatures_against_turning_oracle():
    dom = ellipsoid_domain([2.0, 1.0])
    # at (2, 0) the curvature is a/b^2 = 2; at (0, 1) it is b/a^2 = 1/4
    for x, expected in [([2.0, 0.0], 2.0), ([0.0, 1.0], 0.25)]:
        bp = boundary_point(dom, x)
        k = bp.principal_curvatures
        assert k[-1] == pytest.approx(expected, abs=1e-9)
        v = bp.tangent_frame[:, 0]
        oracle = finite_difference_curvature(dom, np.asarray(x, dtype=float), v)
        assert oracle == pytest.approx(expected, abs=1e-4)


def test_boundary_point_errors():
    dom = sphere_domain(2)
    with pytest.raises(NotOnBoundary):
        boundary_point(dom, [0.5, 0.0])
    degenerate = sphere_domain(2)
    with pytest.raises(SingularGradient):
        boundary_point(
            type(degenerate)(
                label="bad",
                phi=lambda x: 0.0,
                grad=lambda x: np.zeros(2),
                hess=degenerate.hess,
                bbox=degenerate.bbox,
            ),
            [0.0, 0.0],
        )


def test_sphere_strictly_pseudoconvex_for_P():
    dom = sphere_domain(3)
    bp = boundary_point(dom, [0.0, 0.0, 1.0])
    v = strict_pseudoconvex_at(cone_P(3), bp)
    assert v.convex
    assert v.t0 == pytest.approx(0.0, abs=1e-5)
    v2 = strict_pseudoconvex_at(cone_pfold(3, 2), bp)
    assert v2.convex


def test_slab_not_pseudoconvex_for_P():
    dom = slab_domain(2)
    bp = boundary_point(dom, [1.0, 0.0])
    v = strict_pseudoconvex_at(cone_P(2), bp, t_cap=1e6)
    assert not v.convex


def test_strict_ellipticity_dichotomy():
    ok, worst, _ = strict_ellipticity_check(cone_P_dual(3))
    assert ok and worst > 0
    bad, _, witness = strict_ellipticity_check(cone_P(3))
    assert not bad
    # proper truncations carry a boundary geometry; the full trace cone
    # (p = n) does not, since every rank-one projector has trace 1 > 0
    for p in (1, 2):
        ok_p, _, _ = strict_ellipticity_check(cone_pfold(3, p))
        assert not ok_p
    ok_n, _, _ = strict_ellipticity_check(cone_pfold(3, 3))
    assert ok_n


def hexes_or_none(x):
    return None if x is None else [float.hex(v) for v in x.tolist()]


@pytest.mark.parametrize("key, n", [("P", 3), ("P~", 3), ("pfold:p=2", 3), ("pfold:p=3", 3),
                                    ("P", 2), ("Q", 2), ("branch:k=2", 4)])
def test_strict_ellipticity_matches_the_per_direction_loop(key, n):
    F = make_oracle(key, n)
    for seed, count in ((73, 64), (5, 40), (9, n - 1), (9, 0)):
        got = strict_ellipticity_check(F, direction_samples=count, seed=seed)
        ref = ref_strict_ellipticity_check(F, direction_samples=count, seed=seed)
        assert got[0] is ref[0]
        assert float.hex(float(got[1])) == float.hex(float(ref[1]))
        assert hexes_or_none(got[2]) == hexes_or_none(ref[2])


def test_pseudoconvexity_monotone_in_t():
    dom = ellipsoid_domain([2.0, 1.0, 1.0])
    bp = boundary_point(dom, [2.0, 0.0, 0.0])
    F = cone_pfold(3, 2)
    v = strict_pseudoconvex_at(F, bp)
    assert v.convex
    from jetcones.jets import SymMat

    Pe = SymMat(np.outer(bp.e, bp.e))
    for t in np.linspace(v.t0 + 1e-6, v.t0 + 10, 7):
        assert F.classify(bp.A_x + t * Pe).is_interior


def test_elliptic_implies_pseudoconvex_everywhere():
    F = cone_P_dual(3)
    for dom, seed_pt in [
        (sphere_domain(3), [0.2, 0.3, 0.5]),
        (saddle_domain(), [0.1, 0.1, 0.0]),
        (cylinder_domain(), [0.5, 0.5, 0.2]),
    ]:
        x = project_to_boundary(dom, np.asarray(seed_pt, dtype=float))
        bp = boundary_point(dom, x)
        assert strict_pseudoconvex_at(F, bp).convex


def test_geometric_pseudoconvexity_sphere_cylinder_saddle():
    sphere = sphere_domain(3)
    bp = boundary_point(sphere, [0.0, 0.0, 1.0])
    planes = tangential_planes(bp, 2, 64)
    ok, checked, worst, _ = geometric_pseudoconvex_at(planes, bp)
    assert ok and checked == 64
    assert worst == pytest.approx(2.0, abs=1e-9)

    cyl = cylinder_domain()
    bpc = boundary_point(cyl, [1.0, 0.0, 0.4])
    okc, _, worstc, _ = geometric_pseudoconvex_at(tangential_planes(bpc, 2, 64), bpc)
    assert okc
    assert worstc == pytest.approx(1.0, abs=1e-6)

    saddle = saddle_domain()
    bps = boundary_point(saddle, [0.0, 0.0, 0.0])
    oks, _, worsts, witness = geometric_pseudoconvex_at(
        tangential_planes(bps, 2, 64), bps
    )
    assert not oks
    assert witness is not None


def test_geometric_matches_membership_version_on_pfold():
    # for the 2-fold cone, boundary convexity at a point agrees with the
    # positive-trace test over tangential 2-planes
    F = cone_pfold(3, 2)
    cases = [
        (sphere_domain(3), [0.0, 0.0, 1.0], True),
        (ellipsoid_domain([2.0, 1.0, 1.0]), [2.0, 0.0, 0.0], True),
        (saddle_domain(), [0.0, 0.0, 0.0], False),
    ]
    for dom, x, expected in cases:
        bp = boundary_point(dom, x)
        v = strict_pseudoconvex_at(F, bp)
        planes = tangential_planes(bp, 2, 128)
        g, _, _, _ = geometric_pseudoconvex_at(planes, bp)
        assert v.convex == expected
        assert g == expected


def test_domain_from_spec():
    dom = domain_from_spec({"kind": "sphere", "n": 2, "radius": 1.0})
    assert abs(dom.phi(np.array([1.0, 0.0]))) < 1e-12
    with pytest.raises(ParseError):
        domain_from_spec({"kind": "torus"})


# --- strict_pseudoconvex_at against its one-probe-per-step loop ---------------

def ref_strict_pseudoconvex_at(F, bp, t_cap=1e6, tol=1e-6):
    """(convex, t0) from one classify call per probe."""
    Pe = SymMat(np.outer(bp.e, bp.e))

    def interior_at(t):
        return F.classify(bp.A_x + t * Pe, DEFAULT_TOL).is_interior

    if not interior_at(t_cap):
        return False, None
    lo, hi = 0.0, t_cap
    if interior_at(0.0):
        return True, 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if interior_at(mid):
            hi = mid
        else:
            lo = mid
    return True, hi


PSEUDOCONVEX_POINTS = [
    (sphere_domain(3), [0.1, 0.2, 0.9]),
    (ellipsoid_domain([2.0, 1.0, 0.5]), [0.5, 0.4, 0.3]),
    (cylinder_domain(), [0.9, 0.4, 0.0]),
    (saddle_domain(), [0.05, 0.05, 0.0]),
    (saddle_domain(), [0.4, -0.1, 0.0]),
]


def hex_or_none(t):
    return None if t is None else float.hex(t)


@pytest.mark.parametrize("key", ["P", "pfold:p=2", "branch:k=2", "pucci:1,2"])
@pytest.mark.parametrize("t_cap, tol", [(1e6, 1e-6), (3.5, 1e-6), (2.5, 1e-12), (0.75, 1e-3),
                                        (1e-6, 1e-6), (1e-7, 1e-6), (0.0, 1e-6)])
def test_strict_pseudoconvex_at_matches_the_stepwise_loop(key, t_cap, tol):
    F = make_oracle(key, 3)
    for dom, seed in PSEUDOCONVEX_POINTS:
        bp = boundary_point(dom, project_to_boundary(dom, np.asarray(seed)))
        v = strict_pseudoconvex_at(F, bp, t_cap=t_cap, tol=tol)
        convex, t0 = ref_strict_pseudoconvex_at(F, bp, t_cap, tol)
        assert (v.convex, hex_or_none(v.t0)) == (convex, hex_or_none(t0)), dom.label
        assert v.t_cap == t_cap


def test_strict_pseudoconvex_at_cap_within_tol_takes_no_step():
    # P on the unit sphere: A_x + t*P_e is interior for every t > DEFAULT_TOL
    # and not at 0, so the bisection would move a cap it were to step from
    bp = boundary_point(sphere_domain(3), [0.0, 0.0, 1.0])
    for t_cap in (1e-7, 1e-6):
        v = strict_pseudoconvex_at(cone_P(3), bp, t_cap=t_cap, tol=1e-6)
        assert v.convex and v.t0 == t_cap
    v = strict_pseudoconvex_at(cone_P(3), bp, t_cap=2e-6, tol=1e-6)
    assert v.convex and v.t0 == 1e-6


@pytest.mark.parametrize("key, t_cap", [("P", "1e6"), ("P", "3.5"), ("P", "1e-7"),
                                        ("pfold:p=2", "2.5"), ("branch:k=2", "0.5")])
def test_pseudoconvex_cli_t_cap_matches_the_stepwise_loop(capsys, key, t_cap):
    points = [[0.1, 0.2, 0.9], [0.6, -0.5, 0.4], [0.0, 0.3, -0.8]]
    code = main(["pseudoconvex", "--domain", '{"kind": "sphere", "n": 3}', "--key", key,
                 "--points", ";".join(",".join(map(str, x)) for x in points), "--t-cap", t_cap])
    rows = capsys.readouterr().out.splitlines()[1:]
    dom, F = sphere_domain(3), make_oracle(key, 3)
    want = []
    for x, row in zip(points, rows):
        bp = boundary_point(dom, project_to_boundary(dom, np.asarray(x)))
        convex, t0 = ref_strict_pseudoconvex_at(F, bp, float(t_cap))
        want.append(convex)
        verdict, got = row.split(",")[-2:]
        assert verdict == ("yes" if convex else "no")
        assert (None if got == "" else float.hex(float(got))) == hex_or_none(t0)
    assert len(rows) == len(points)
    assert code == (0 if all(want) else 1)
