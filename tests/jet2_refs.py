"""Jet2-arithmetic references shared by the test modules (not collected).

ray_values evaluates an oracle along a ray J + t*U on arrays of t with
the float operations of Jet2 arithmetic, the reference for the probes
of catalog.ray_probe.

ref_shift_to_boundary and ref_sample_cone_member are the one-jet,
one-probe-at-a-time loops that catalog.shift_stack_to_boundary and
duality._cone_members run on stacks in lockstep: every probe is one
oracle.classify call on a Jet2 sum. shift_jets runs
shift_stack_to_boundary on a list of Jet2s and hands back one moved Jet2
or None per jet, so its result compares with the references jet by jet;
given member_tol, it keeps only the moved jets that are members, the
filter catalog.into_fibers applies under DEFAULT_TOL.

interior_nodes and node_point walk a grid node by node: the index tuples
of Grid.interior_slice and the point of one node, the per-node
references for the stacked GridFunction.jet_field and Grid.node_points.
second_difference, discrete_spectrum, discrete_gradient, discrete_hessian
and discrete_jet read one node's differences of a GridFunction, the
per-node references for the stencil plan's sweep (StencilPlan.sweep)
and jet_field. second_difference_field
and ref_jet_field are the whole-field references that build their
slices call by call (shifted), as the grid module did before its
stencil plan. from_callable fills a grid with a Python function, one
call per node.

brent_root is Brent's zero of f(lam - t) on a bracket, polished by one
secant step: the reference for the spectral canonical value, and the
route canonical_operator took where its secant certificate failed before
that bracket was bisected instead.

ref_ladder_canonical is the route of canonical_operator as it ran
before its lean one-row form: the query as a Jet2 (Jet2.from_matrix
validates a matrix again), eigvalsh's eigenvalues, the doubling walked
by a loop from the numpy reductions' jet norm + 1, and
ref_ladder_bracket's ladder put in order by np.sort; the root step on
the bracket is canonical's own. On a fiber without a spectrum it builds
each rung A - tI with Jet2 arithmetic and calls F.value once per rung.

The ref_check_* functions, ref_strict_ellipticity_check and the
ref_admissible_* tests are the one-sample-at-a-time loops that the
sampled checks of duality, canonical and boundary run on stacks: each
classifies one Jet2 per oracle call, and record is CheckReport's
one-verdict record. one_jet adapts a jet operator, a form on stacks, to
one Jet2, as the loops call it.
"""

import functools
import itertools

import numpy as np

from jetcones.canonical import SEARCH_RADIUS, _ladder_root
from jetcones.catalog import (RegionKind, jets_along, make_oracle, members,
                              shift_stack_to_boundary)
from jetcones.duality import CheckReport, dual_oracle
from jetcones.errors import BoundaryNode, BracketingFailure
from jetcones.grids import GridFunction
from jetcones.jets import (Jet2, SymMat, jet_norm, random_jet, random_psd, stack_jets,
                           unstack_jets)


def ray_values(oracle, J, U, t):
    """g(J + t*U) for a scalar t or each entry of an array t.

    Evaluated through FiberOracle.values with the arithmetic of
    J + t * U on Jet2s, so the result matches oracle.value(J + t * U)
    to the bit without building the intermediate jets.
    """
    if J.n != U.n:
        raise ValueError(f"dimension mismatch: jet of dimension {J.n}, direction {U.n}")
    return oracle.values(*jets_along((J.r, J.p, J.A.entries), (U.r, U.p, U.A.entries), t))


# Brent's method takes at most about k**2 steps where bisection takes k
# (Brent 1973), and k <= 72 for a bracket within SEARCH_RADIUS at
# tol >= MIN_TOL. Near a multiple root (sigma:k=3 at A = tI) Brent on the
# whole doubling bracket took 140 steps, past brentq's default limit of 100.
BRENT_MAX_ITER = 72 ** 2


def brent_root(f, lam, keep: float, flip: float, tol: float) -> float:
    """The crossing of g(t) = f(lam - t), which is >= 0 up to it and < 0
    past it, given keep (g >= 0) and flip (g < 0): Brent's zero to
    tol * (1 + |t|), then one secant step on the tightest bracket Brent
    evaluated, which stays inside that bracket and is exact up to
    rounding wherever g is linear on it."""
    from scipy.optimize import brentq

    ends = [None, None]  # the last points evaluated with g >= 0 and with g < 0

    def g(t):
        v = float(f(lam - t))
        # every point Brent evaluates lies inside its current bracket
        ends[v < 0.0] = (t, v)
        return v

    brentq(g, keep, flip, xtol=tol, rtol=tol, maxiter=BRENT_MAX_ITER)
    (a, ga), (b, gb) = ends
    return a + (b - a) * (ga / (ga - gb))


def ref_ladder_canonical(F, A, tol=1e-10):
    """canonical_operator(F, A, tol) through a Jet2 and a sorted ladder (see
    the module docstring): g(t) is f(r, p, lambda - t) on a fiber with a
    spectrum f, and F.value(J + (-t) * I), one call per rung, on one
    without."""
    J = A if isinstance(A, Jet2) else Jet2.from_matrix(A)
    lam = np.linalg.eigvalsh(J.A.entries)
    if F.spectrum is not None:
        f = functools.partial(F.spectrum, J.r, J.p)

        def g(t):
            return f(lam - t[..., None])
    else:
        eyeJ = Jet2.from_matrix(SymMat.identity(J.n))

        def g(t):
            return np.array([F.value(J + (-s) * eyeJ) for s in t.ravel().tolist()]).reshape(
                t.shape)
    side, t = [], max(abs(J.r), float(np.linalg.norm(J.p)), float(np.max(np.abs(lam)))) + 1.0
    while t <= SEARCH_RADIUS:
        side.append(t)
        t *= 2.0
    bracket = ref_ladder_bracket(g, lam, np.array(side))
    if bracket is None:
        raise BracketingFailure(f"no boundary crossing of {F.label} along I")
    return _ladder_root(g, *bracket, tol)


def ref_ladder_bracket(g, lam, side):
    """The first sign change of g(t) from g >= 0 to g < 0 on the ladder of
    0, +-side and lam, sorted by np.sort, as ((keep, g(keep)), (flip,
    g(flip))), or None."""
    if not side.size:
        return None
    ts = np.sort(np.concatenate((-side, [0.0], lam, side)))
    gs = g(ts)
    keep = gs >= 0.0
    change = keep[:-1] > keep[1:]
    i = int(change.argmax())
    if not change[i]:
        return None
    return tuple(zip(ts[i:i + 2].tolist(), gs[i:i + 2].tolist()))


def ref_shift_to_boundary(oracle, J, J0, margin=1e-6, tol=1e-9, max_expand=60):
    t_in, t_out, t = None, None, 0.0
    if oracle.classify(J, tol).is_member:
        t_in, step = 0.0, -1.0
        for _ in range(max_expand):
            t += step
            if not oracle.classify(J + t * J0, tol).is_member:
                t_out = t
                break
            t_in = t
            step *= 2.0
    else:
        t_out, step = 0.0, 1.0
        for _ in range(max_expand):
            t += step
            if oracle.classify(J + t * J0, tol).is_member:
                t_in = t
                break
            t_out = t
            step *= 2.0
    if t_in is None or t_out is None:
        return None
    for _ in range(60):
        mid = 0.5 * (t_in + t_out)
        if oracle.classify(J + mid * J0, tol).is_member:
            t_in = mid
        else:
            t_out = mid
        if abs(t_in - t_out) < tol:
            break
    return J + (t_in + margin) * J0


def ref_sample_cone_member(M, rng, n, scale):
    """J + t*J0 at the first t = 0, 0.5, 1.5, ..., up to the first past 1e6,
    where that is a member of M; None when it is a member at no t."""
    oracle = make_oracle(M.key(), n)
    J0, J, t = M.interior_jet(n), random_jet(rng, n, scale), 0.0
    while not oracle.classify(J + t * J0).is_member:
        if t >= 1e6:
            return None
        t = 2.0 * t + 0.5
    return J + t * J0


def shift_jets(F, jets, J0, margins, member_tol=None, **kwargs):
    """shift_stack_to_boundary(F, <jets stacked>, J0, margins, **kwargs) as
    a list: the moved Jet2 of each jet, or None where the search drops it;
    with member_tol, also None where the moved jet is not a member under
    member_tol (one F.values call on the moved stack)."""
    out = [None] * len(jets)
    rows, moved = shift_stack_to_boundary(F, stack_jets(jets, J0.n), J0, margins, **kwargs)
    if member_tol is not None and rows.size:
        kept = members(F.values(*moved), member_tol)
        rows, moved = rows[kept], tuple(a[kept] for a in moved)
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


def shifted(values: np.ndarray, off, width: int) -> np.ndarray:
    """View of values on the width-trimmed interior moved by offset off.

    The trim and the offset act on the trailing len(off) axes; leading
    axes (a stack of grid functions) ride along.
    """
    grid_dims = values.shape[values.ndim - len(off):]
    return values[(..., *(slice(width + o, dim - width + o) for o, dim in zip(off, grid_dims)))]


def second_difference_field(values: np.ndarray, direction, h: float,
                            width: int) -> np.ndarray:
    """Directional second difference on the width-trimmed interior, for
    one grid function or a stack (*lead, *grid dims) with len(direction)
    grid axes last."""
    c = shifted(values, (0,) * len(direction), width)
    f = shifted(values, direction, width)
    b = shifted(values, tuple(-x for x in direction), width)
    step2 = (h ** 2) * float(sum(x * x for x in direction))
    return (f + b - 2.0 * c) / step2


def ref_jet_field(u, width: int) -> tuple:
    """GridFunction.jet_field(width) with its slices built call by call."""
    g = u.grid
    v, h = u.values, g.h
    unit = np.eye(g.d, dtype=int)
    r = shifted(v, np.zeros(g.d, dtype=int), width).copy()
    p = np.stack(
        [(shifted(v, e, width) - shifted(v, -e, width)) / (2 * h) for e in unit], axis=-1
    )
    H = np.empty(r.shape + (g.d, g.d))
    for i, ei in enumerate(unit):
        H[..., i, i] = second_difference_field(v, ei, h, width)
        for j in range(i + 1, g.d):
            ej = unit[j]
            H[..., i, j] = H[..., j, i] = (
                shifted(v, ei + ej, width) - shifted(v, ei - ej, width)
                - shifted(v, ej - ei, width) + shifted(v, -ei - ej, width)
            ) / (4 * h * h)
    return r, p, H


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


def discrete_hessian(u, node) -> np.ndarray:
    """Centered second differences including cross terms, as an array;
    exact on quadratics."""
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
    return H


def discrete_jet(u, node) -> Jet2:
    """(value, centered gradient, centered Hessian) at an interior node."""
    g = u.grid
    node = tuple(node)
    w = 1  # jets need one-node margins; wide stencil ops check their own
    if any(c < w or c >= g.dims[i] - w for i, c in enumerate(node)):
        raise BoundaryNode(f"node {node} has no centered jet")
    return Jet2(float(u.values[node]), discrete_gradient(u, node),
                SymMat(discrete_hessian(u, node)))


# --- one-sample-at-a-time sampled checks ----------------------------------------

def record(rep, ok, margin, witness=None):
    """One verdict into a CheckReport, as the per-sample loops record it."""
    rep.checked += 1
    if ok:
        rep.passed += 1
    elif witness is not None and len(rep.witnesses) < 8:
        rep.witnesses.append(witness)
    rep.worst_margin = min(rep.worst_margin, margin)


def one_jet(op):
    """The jet operator op(r[...], p[..., n], A[..., n, n]) on one Jet2."""
    return lambda J: float(op(J.r, J.p, J.A.entries))


def ref_check_involution(F, samples=1000, seed=23, tol=1e-8, scale=1.5):
    rng = np.random.default_rng(seed)
    ddF = dual_oracle(dual_oracle(F))
    rep = CheckReport(name=f"involution[{F.key or F.label}]", seed=seed)
    for _ in range(samples):
        J = random_jet(rng, F.n, scale)
        r1 = F.classify(J, tol)
        if r1.margin <= 3 * tol:
            rep.excluded_boundary += 1
            continue
        r2 = ddF.classify(J, tol)
        ok = r1.kind is r2.kind
        record(rep, ok, r1.margin, None if ok else J)
    return rep


def ref_check_dual_pair(F, G, samples, seed, tol=1e-8, scale=1.5):
    rng = np.random.default_rng(seed)
    rep = CheckReport(name=f"dual-pair[{F.key or F.label}, {G.key or G.label}]", seed=seed)
    for _ in range(samples):
        J = random_jet(rng, F.n, scale)
        r1 = dual_oracle(F).classify(J, tol)
        if r1.margin <= 3 * tol:
            rep.excluded_boundary += 1
            continue
        ok = r1.is_member == G.classify(J, tol).is_member
        record(rep, ok, r1.margin, None if ok else J)
    return rep


def ref_check_inclusion(F, G, samples=1000, seed=37, tol=1e-8, scale=1.5):
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="inclusion", seed=seed)
    for _ in range(samples):
        J = random_jet(rng, F.n, scale)
        rF = F.classify(J, tol)
        if not rF.is_member:
            continue
        if rF.margin <= 3 * tol:
            rep.excluded_boundary += 1
            continue
        rG = G.classify(J, tol)
        ok = rG.is_member
        record(rep, ok, rG.margin if ok else -rG.margin, None if ok else J)
    return rep


def ref_structured_probe_jets(n, rng, count):
    jets = []
    for _ in range(count):
        jets.append(random_jet(rng, n, scale=1.5))
    for c in (0.5, 1.0, 2.0):
        jets.append(Jet2(-c, np.zeros(n), SymMat.zero(n)))
        jets.append(Jet2(0.0, np.zeros(n), SymMat(c * np.eye(n))))
        jets.append(Jet2(-c, np.zeros(n), SymMat(c * np.eye(n))))
    return jets


def ref_boundary_probe(F, J_in, J_out, tol):
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        Jm = (1 - mid) * J_in + mid * J_out
        r = F.classify(Jm, tol)
        if r.kind is RegionKind.BOUNDARY:
            return Jm
        if r.is_member:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return None


def ref_check_proper_elliptic(op, G, n, samples=300, seed=59, tol=1e-9):
    op = one_jet(op)
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="proper-elliptic", seed=seed)
    for J in ref_structured_probe_jets(n, rng, samples):
        if G is not None and not G.classify(J).is_member:
            continue
        s = -abs(rng.standard_normal())
        P = random_psd(rng, n)
        J2 = Jet2(J.r + s, J.p, J.A + P)
        if G is not None and not G.classify(J2).is_member:
            continue
        gain = op(J2) - op(J)
        ok = gain >= -tol
        record(rep, ok, gain, None if ok else J)
    return rep


def ref_check_compatibility(op, G, F_induced, samples=300, seed=61, tol=1e-8, slack=1e-6):
    op = one_jet(op)
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="compatibility", seed=seed)
    n = F_induced.n
    probes = ref_structured_probe_jets(n, rng, samples)
    members = [J for J in probes if F_induced.classify(J, tol).is_member]
    outsiders = [J for J in probes if not F_induced.classify(J, tol).is_member]
    boundary = []
    for i in range(min(len(members), len(outsiders), samples // 3)):
        B = ref_boundary_probe(F_induced, members[i], outsiders[i], tol)
        if B is not None:
            boundary.append(B)
    for J in probes + boundary:
        region = F_induced.classify(J, tol)
        if G is not None and not G.classify(J, 1e-6).is_member:
            continue
        v = op(J)
        if region.kind is RegionKind.INTERIOR and region.margin > 3 * tol:
            ok = v > 0
            record(rep, ok, v, None if ok else J)
        elif region.kind is RegionKind.BOUNDARY:
            ok = abs(v) <= slack
            record(rep, ok, -abs(v), None if ok else J)
    return rep


def ref_check_topological_tameness(op, G, levels, samples=200, seed=67, tol=1e-9,
                                   probe_scale=1e-3):
    op = one_jet(op)
    rng = np.random.default_rng(seed)
    rep = CheckReport(name="topological-tameness", seed=seed)
    n = G.n
    eyeJ = Jet2.from_matrix(SymMat.identity(n))
    pool = []
    for _ in range(samples):
        J = random_jet(rng, n, scale=1.5)
        if G.classify(J).is_member:
            pool.append((J, op(J)))
    probe_dirs = [eyeJ, (-1.0) * eyeJ]
    for _ in range(4):
        U = random_jet(rng, n)
        nrm = jet_norm(U)
        probe_dirs.append((1.0 / nrm) * U)

    def probe(Jc, c):
        vals = [op(Jc + probe_scale * U) for U in probe_dirs]
        return max(vals) > c + tol and min(vals) < c - tol

    for c in levels:
        hits = []
        for J, v in pool:
            if abs(v - c) <= 1e-9 * max(1.0, abs(c)):
                hits.append(J)
        below = [J for J, v in pool if v < c]
        above = [J for J, v in pool if v > c]
        for i in range(min(len(below), len(above), 20)):
            Jb, Ja = below[i], above[i]
            lo, hi = 0.0, 1.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if op((1 - mid) * Jb + mid * Ja) < c:
                    lo = mid
                else:
                    hi = mid
            Jc = (1 - 0.5 * (lo + hi)) * Jb + (0.5 * (lo + hi)) * Ja
            if G.classify(Jc).is_member and abs(op(Jc) - c) <= 1e-6 * max(1.0, abs(c)):
                hits.append(Jc)
        for Jc in hits:
            ok = probe(Jc, c)
            record(rep, ok, 0.0 if not ok else probe_scale, None if ok else Jc)
    return rep


def ref_check_strict_M_monotone(op, F, M, samples=300, seed=71, tol=1e-12):
    # the jets, then the t of every sample, then one sample at a time
    op = one_jet(op)
    rng = np.random.default_rng(seed)
    J0 = M.interior_jet(F.n)
    jets = [random_jet(rng, F.n, scale=1.5) for _ in range(samples)]
    ts = [rng.uniform(1e-3, 1.0) for _ in range(samples)]
    rep = CheckReport(name="strict-M-monotone", seed=seed)
    for J, t in zip(jets, ts):
        if not F.classify(J).is_member:
            J = ref_shift_to_boundary(F, J, J0)
            if J is None or not F.classify(J).is_member:
                continue
        gain = op(J + t * J0) - op(J)
        ok = gain > tol
        record(rep, ok, gain, None if ok else J)
    return rep


def ref_strict_ellipticity_check(F, direction_samples=64, seed=73, tol=1e-8):
    n = F.n
    rng = np.random.default_rng(seed)
    dirs = [np.eye(n)[i] for i in range(n)]
    while len(dirs) < direction_samples:
        v = rng.standard_normal(n)
        dirs.append(v / np.linalg.norm(v))
    worst = np.inf
    witness = None
    for e in dirs[:direction_samples]:
        r = F.classify(SymMat(np.outer(e, e)), tol)
        m = r.margin if r.is_interior else -r.margin
        if m < worst:
            worst = m
            if not r.is_interior:
                witness = e
    return witness is None, worst, witness


def ref_admissible_subsolution_test(op, G, u, node, tol=1e-8):
    J = discrete_jet(u, node)
    if G is not None and not G.classify(J, tol).is_member:
        return False
    return one_jet(op)(J) >= -tol


def ref_admissible_supersolution_test(op, G, u, node, tol=1e-8):
    J = discrete_jet(u, node)
    if G is not None and not G.classify(J, tol).is_member:
        return True
    return one_jet(op)(J) <= tol
