import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jetcones import jets as jets_module
from jetcones.errors import NonOrthonormalBasis
from jetcones.jets import (
    _MIN_STACK,
    _RMAX,
    _SSFMIN,
    Jet2,
    SymMat,
    _eigvalsh_2x2,
    eigenvalues,
    jet_norm,
    parts_norm,
    random_jet,
    random_orthogonal,
    random_psd,
    random_symmetric,
    trace_on_subspace,
)


def test_jet_norm_examples():
    assert jet_norm(Jet2.zero(3)) == 0.0
    assert jet_norm(Jet2(-2.0, [1, 0], SymMat.identity(2))) == 2.0
    # |p|_2 = 5, max |eig| = 7
    assert jet_norm(Jet2(1.0, [3, 4], SymMat.diag(-7, 2))) == 7.0


def test_jet_norm_matches_the_numpy_reductions():
    # the norm as np.linalg.norm and np.max(np.abs(...)) compute it, to the
    # bit, with and without the eigenvalues passed in; zero and negative
    # entries, and scales over 450 decades
    rng = np.random.default_rng(83)
    jets = [Jet2.zero(n) for n in (1, 2, 3)]
    jets += [Jet2(-0.0, [-0.0, 0.0], SymMat.diag(-0.0, 0.0))]
    jets += [Jet2(rng.standard_normal() * s, rng.standard_normal(n) * s,
                  random_symmetric(rng, n, s))
             for n in (1, 2, 3, 5) for s in (1e-300, 1e-3, 1.0, 1e3, 1e150) for _ in range(8)]
    for J in jets:
        lam = np.linalg.eigvalsh(J.A.entries)
        ref = max(abs(J.r), float(np.linalg.norm(J.p)), float(np.max(np.abs(lam))))
        assert float.hex(jet_norm(J)) == float.hex(parts_norm(J.r, J.p, lam)) == float.hex(ref)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_jet_norm_is_a_norm(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    J = Jet2(rng.standard_normal(), rng.standard_normal(n), random_symmetric(rng, n))
    K = Jet2(rng.standard_normal(), rng.standard_normal(n), random_symmetric(rng, n))
    t = float(rng.standard_normal())
    assert jet_norm(J) >= 0
    assert abs(jet_norm(t * J) - abs(t) * jet_norm(J)) <= 1e-12 * (1 + jet_norm(J))
    assert jet_norm(J + K) <= jet_norm(J) + jet_norm(K) + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_eigenvalue_shift_and_weyl(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    A = random_symmetric(rng, n, 2.0)
    t = float(rng.standard_normal())
    lam = eigenvalues(A)
    shifted = eigenvalues(SymMat(A.entries + t * np.eye(n)))
    assert np.max(np.abs(shifted - lam - t)) <= 1e-10
    P = random_psd(rng, n)
    bumped = eigenvalues(A + P)
    assert np.min(bumped - lam) >= -1e-10


# --- the stacked 2 x 2 route of eigenvalues: bit for bit LAPACK ----------


def _int_bits(x) -> np.ndarray:
    """The float64 bits of x, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _count_lapack(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh to record the shape of each call."""
    calls, lapack = [], np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lapack(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def _count_gufunc(monkeypatch) -> list:
    """Patch the LAPACK gufunc that jets.eigenvalues calls for a single
    matrix to record the shape of each call (eigvalsh's own calls of it
    are not counted)."""
    calls, gufunc = [], jets_module._umath_linalg.eigvalsh_lo

    def counted(a):
        calls.append(np.shape(a))
        return gufunc(a)

    monkeypatch.setattr(jets_module, "_umath_linalg", SimpleNamespace(eigvalsh_lo=counted))
    return calls


def _edge_rows() -> np.ndarray:
    """(a11, a21, a22) rows at the branches of dsterf and dlae2."""
    h = float.fromhex
    rows = [
        (2.0, 1.0, 2.0), (-2.0, 1.0, 2.0), (2.0, -1.0, -2.0), (-2.0, 3.0, -2.0),  # |a11| = |a22|
        (1.5, 0.25, -1.5), (-1e3, 7.0, 1e3), (0.0, 1.0, 0.0), (-0.0, -2.0, 0.0),  # a11 + a22 = 0
        (3.0, 0.0, 1.0), (1.0, -0.0, 3.0), (-1.0, 0.0, -1.0), (5.0, 0.0, -5.0),   # a21 = 0
        (1.0, 1e-17, 1.0), (1.0, -1e-17, 2.0), (1e3, 1e-200, -1e-3),              # tiny a21
        # |a21| at the deflation tests' rounding edge, where dlae2 would give
        # other bits: the first trips only the unsquared test, the second
        # only the squared one
        (h("0x1.3162cc5e99a50p-1"), h("0x1.3162cc5e99a51p-54"), h("0x1.3162cc5e99a50p-1")),
        (h("0x1.9426fc5cb9cdbp+1"), h("0x1.9426fc5cb9cdbp-52"), h("0x1.9426fc5cb9cdbp+1")),
        (0.0, 0.0, 0.0), (-0.0, 0.0, 0.0), (0.0, -0.0, -0.0), (-0.0, -0.0, -0.0),  # zeros
        (3.0, 4.0, -3.0), (1.0, 1.0, 1.0), (2.0, -6.0, 7.0), (-4.0, 2.0, -1.0),    # integers
        (1.0, 1.0, 1.0 + 2.0 ** -52), (1e-120, 3e-121, -2e-121), (9e145, -1e145, 3e145),
    ]
    return np.array(rows)


def _from_rows(rows: np.ndarray, upper=None) -> np.ndarray:
    """Matrices [[a11, upper], [a21, a22]]; upper defaults to a21."""
    a = np.empty(rows.shape[:-1] + (2, 2))
    a[..., 0, 0], a[..., 1, 0], a[..., 1, 1] = rows[..., 0], rows[..., 1], rows[..., 2]
    a[..., 0, 1] = rows[..., 1] if upper is None else upper
    return a


def test_edge_rows_trip_each_deflation_test_alone():
    d1, e, d2 = _edge_rows()[15:17].T
    eps = 2.0 ** -53
    unsquared = np.abs(e) <= np.sqrt(np.abs(d1)) * np.sqrt(np.abs(d2)) * eps
    squared = e * e <= eps * eps * np.abs(d1 * d2)
    assert unsquared.tolist() == [True, False]
    assert squared.tolist() == [False, True]


@pytest.mark.parametrize("scale", [1e-120, 1e-100, 1e-3, 1.0, 1e3, 1e100, 1e145])
def test_stacked_2x2_eigenvalues_are_lapacks_to_the_bit(scale, monkeypatch):
    rng = np.random.default_rng(2222)
    g = rng.standard_normal((100_000, 2, 2)) * scale
    a = 0.5 * (g + g.swapaxes(-1, -2))
    ref = np.linalg.eigvalsh(a)
    calls = _count_lapack(monkeypatch)
    got = eigenvalues(a)
    assert calls == []
    assert np.array_equal(_int_bits(got), _int_bits(ref))


def test_stacked_2x2_edge_rows_are_lapacks_to_the_bit(monkeypatch):
    rows = _edge_rows()
    a = _from_rows(rows)
    for stack in (a, -a, a[:, ::-1, ::-1]):  # the swap exchanges QL and QR
        assert _eigvalsh_2x2(stack) is not None
        ref = np.linalg.eigvalsh(stack)
        assert np.array_equal(_int_bits(_eigvalsh_2x2(stack)), _int_bits(ref))
    big = np.tile(a, (_MIN_STACK // len(a) + 1, 1, 1))
    ref = np.linalg.eigvalsh(big)
    calls = _count_lapack(monkeypatch)
    assert np.array_equal(_int_bits(eigenvalues(big)), _int_bits(ref))
    assert calls == []


def test_stacked_2x2_route_reads_the_lower_triangle(monkeypatch):
    rng = np.random.default_rng(12)
    rows = rng.standard_normal((4 * _MIN_STACK, 3))
    a = _from_rows(rows, upper=rng.standard_normal(4 * _MIN_STACK) * 1e200).reshape(4, _MIN_STACK, 2, 2)
    ref = np.linalg.eigvalsh(a)
    assert np.array_equal(_int_bits(ref), _int_bits(np.linalg.eigvalsh(_from_rows(rows).reshape(a.shape))))
    calls = _count_lapack(monkeypatch)
    got = eigenvalues(a)
    assert calls == [] and got.shape == (4, _MIN_STACK, 2)
    assert np.array_equal(_int_bits(got), _int_bits(ref))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["small", "tiny row", "huge row", "inf", "nan", "3x3", "single",
                                  "single inf", "single nan"])
def test_other_inputs_go_to_lapack(case, monkeypatch):
    rng = np.random.default_rng(3)
    g = rng.standard_normal((_MIN_STACK, 2, 2))
    a = g + g.swapaxes(-1, -2)
    if case == "small":
        a = a[1:]
    elif case == "tiny row":
        a[7] *= 1e-124  # rescaled by dsterf: its largest entry is below SSFMIN
    elif case == "huge row":
        a[7] *= 1e147  # rescaled by dsyevd: its largest entry exceeds RMAX
    elif case in ("inf", "single inf"):
        a[7, 1, 1] = np.inf
    elif case in ("nan", "single nan"):
        a[7, 0, 0] = np.nan
    elif case == "3x3":
        g = rng.standard_normal((_MIN_STACK, 3, 3))
        a = g + g.swapaxes(-1, -2)
    if case.startswith("single"):
        a = a[7]
    ref = np.linalg.eigvalsh(a)
    calls, direct = _count_lapack(monkeypatch), _count_gufunc(monkeypatch)
    got = eigenvalues(a)
    # a single finite matrix goes to eigvalsh's LAPACK gufunc directly
    assert (calls, direct) == (([], [a.shape]) if case == "single" else ([a.shape], []))
    assert np.array_equal(_int_bits(got), _int_bits(ref))
    if case in ("tiny row", "huge row", "inf", "nan"):
        assert _eigvalsh_2x2(a) is None


def _signed_zero_matrices(n: int, rng) -> list:
    """Symmetric n x n matrices of +-0 entries: all +0, all -0, and random
    signs; then a diagonal with one -0 among nonzero entries."""
    out = [np.zeros((n, n)), -np.zeros((n, n))]
    for _ in range(4):
        s = rng.integers(0, 2, (n, n))
        s = np.where(np.tril(np.ones((n, n), dtype=bool)), s, s.T)
        out.append(np.where(s == 1, -0.0, 0.0))
    out.append(np.diag([-0.0] + list(range(1, n))) * 1.0)
    return out


def test_single_matrices_are_eigvalshs_to_the_bit(monkeypatch):
    # the gufunc route of one matrix against eigvalsh: 10,080 random
    # matrices of every size up to MAX_DIM at scales from 1e-120 to 1e145,
    # where dsyevd rescales at both ends, and matrices of signed zeros
    rng = np.random.default_rng(131)
    mats = []
    for n in range(1, 9):
        for scale in (1e-120, 1e-60, 1e-3, 1.0, 1e3, 1e60, 1e145):
            g = rng.standard_normal((180, n, n)) * scale
            mats += list(0.5 * (g + g.swapaxes(-1, -2)))
        mats += _signed_zero_matrices(n, rng)
    refs = [np.linalg.eigvalsh(a) for a in mats]
    direct = _count_gufunc(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, ref in zip(mats, refs):
            assert np.array_equal(_int_bits(eigenvalues(a)), _int_bits(ref))
    assert len(direct) == len(mats) > 10_000


@pytest.mark.parametrize("n", range(1, 9))
def test_non_finite_single_matrices_keep_eigvalshs_outcome(n, monkeypatch):
    # where dsyevd fails, eigvalsh raises LinAlgError and the gufunc alone
    # would warn and return NaN: a matrix with an infinite or NaN entry
    # keeps eigvalsh, with the same bits or the same error and no warning
    rng = np.random.default_rng(137 + n)
    direct = _count_gufunc(monkeypatch)
    outcomes = set()
    for _ in range(60):
        g = rng.standard_normal((n, n))
        a = g + g.T
        i, j = rng.integers(0, n, 2)
        a[i, j] = a[j, i] = rng.choice([np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                ref = _int_bits(np.linalg.eigvalsh(a))
            except np.linalg.LinAlgError:
                ref = None
            try:
                got = _int_bits(eigenvalues(a))
            except np.linalg.LinAlgError:
                got = None
        assert (got is None) == (ref is None)
        if got is not None:
            assert np.array_equal(got, ref)
        outcomes.add(got is None)
    assert direct == []
    # from n = 3 on, both outcomes occur
    assert outcomes == ({False, True} if n >= 3 else {False})


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)),
                  elements=st.floats(-2e146, 2e146, allow_subnormal=True)))
def test_stacked_2x2_kernel_property(rows):
    a = _from_rows(rows)
    got = _eigvalsh_2x2(a)
    top = np.max(np.abs(rows), axis=-1)
    in_range = np.all(((top >= _SSFMIN) | (top == 0.0)) & (top <= _RMAX))
    assert (got is not None) == in_range
    if got is not None:
        assert np.array_equal(_int_bits(got), _int_bits(np.linalg.eigvalsh(a)))


def test_trace_on_subspace_identity_two_plane():
    W = np.eye(4)[:, :2]
    assert trace_on_subspace(SymMat.identity(4), W) == pytest.approx(2.0)


def test_trace_on_subspace_diagonal_line():
    W = np.array([[1.0], [0.0]])
    assert trace_on_subspace(SymMat.diag(1, -1), W) == pytest.approx(1.0)


def test_trace_on_subspace_projection_oracle():
    rng = np.random.default_rng(99)
    A = random_symmetric(rng, 5, 1.5)
    W = random_orthogonal(rng, 5)[:, :3]
    P = W @ W.T
    oracle = float(np.trace(P @ A.entries @ P))
    assert trace_on_subspace(A, W) == pytest.approx(oracle, abs=1e-12)


def test_trace_on_subspace_rejects_bad_frame():
    W = np.array([[1.0, 0.9], [0.0, 0.1]])
    with pytest.raises(NonOrthonormalBasis):
        trace_on_subspace(SymMat.identity(2), W)


def test_symmat_rejects_asymmetric():
    with pytest.raises(ValueError):
        SymMat([[0.0, 1.0], [0.0, 0.0]])


def test_symmat_dimension_cap():
    with pytest.raises(ValueError):
        SymMat(np.eye(9))


def test_jet_dimension_consistency():
    with pytest.raises(ValueError):
        Jet2(0.0, [1.0, 2.0, 3.0], SymMat.identity(2))


def test_jet_json_round_trip():
    J = Jet2(1.5, [0.25, -2.0], SymMat([[1.0, 0.5], [0.5, -3.0]]))
    d = J.to_json_dict()
    back = Jet2.from_json_dict(d)
    assert back.r == J.r
    assert np.array_equal(back.p, J.p)
    assert np.array_equal(back.A.entries, J.A.entries)


def test_jet_json_rejects_mismatched_triangles():
    with pytest.raises(ValueError):
        Jet2.from_json_dict({"r": 0.0, "p": [0.0, 0.0], "A": [[1.0, 2.0], [0.0, 1.0]]})


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[1.0, np.nan], [np.nan, 1.0]],
    [[np.inf, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, -np.inf]],
    # symmetrizing, 0.5 * (a + a.T), would overflow to inf
    [[1e308, 0.0], [0.0, 1e308]],
    [[0.0, -1e308], [-1e308, 0.0]],
])
def test_symmat_rejects_non_finite_and_overflowing_entries(entries):
    with pytest.raises(ValueError, match="finite"):
        SymMat(entries)


def test_symmat_takes_the_largest_entry_that_symmetrizes():
    big = np.finfo(float).max / 2
    a = SymMat([[big, -big], [-big, big]])
    assert np.isfinite(a.entries).all() and a.entries[0, 0] == big


@pytest.mark.parametrize("r, p", [(np.nan, [0.0, 0.0]), (np.inf, [0.0, 0.0]),
                                  (0.0, [np.nan, 0.0]), (0.0, [0.0, -np.inf])])
def test_jet_json_rejects_non_finite_value_and_gradient(r, p):
    with pytest.raises(ValueError, match="finite"):
        Jet2.from_json_dict({"r": r, "p": p, "A": [[1.0, 0.0], [0.0, 1.0]]})


# --- dimension mismatches and the trusted arithmetic constructor ------------

SMALL = Jet2(0.0, [1.0], [[1.0]])
BIG = Jet2(0.0, [1.0, 2.0, 3.0], np.eye(3))


def test_symmat_add_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        SMALL.A + BIG.A
    with pytest.raises(ValueError, match="dimension mismatch"):
        SMALL.A + np.eye(3)


def test_symmat_sub_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        BIG.A - SMALL.A
    with pytest.raises(ValueError, match="dimension mismatch"):
        BIG.A - np.ones((1, 1))


def test_jet_add_rejects_dimension_mismatch():
    # used to broadcast to a 3-D jet with p = [2, 3, 4]
    with pytest.raises(ValueError, match="dimension mismatch"):
        SMALL + BIG
    with pytest.raises(ValueError, match="dimension mismatch"):
        BIG + SMALL
    with pytest.raises(ValueError, match="dimension mismatch"):
        Jet2(0.0, [1.0, 2.0], np.eye(2)) + BIG


def test_ray_values_rejects_dimension_mismatch():
    from jet2_refs import ray_values
    from jetcones.catalog import cone_P

    with pytest.raises(ValueError, match="dimension mismatch"):
        ray_values(cone_P(3), BIG, SMALL, 0.5)


def test_scalar_multiple_rejects_arrays():
    with pytest.raises(TypeError):
        BIG * np.array([1.0, 2.0, 3.0])
    with pytest.raises(TypeError):
        BIG.A * np.ones(3)


def test_symmat_plus_array_is_validated():
    with pytest.raises(ValueError, match="not symmetric"):
        SymMat.identity(2) + np.array([[0.0, 1.0], [0.0, 0.0]])


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_trusted_arithmetic_equals_validated_construction(seed, n):
    rng = np.random.default_rng(seed)
    A, B = random_symmetric(rng, n, 3.0), random_symmetric(rng, n, 1e-3)
    J, K = random_jet(rng, n, 2.0), random_jet(rng, n)
    t = float(rng.standard_normal() * 10.0 ** rng.integers(-3, 4))
    for got, ref in [
        (A + B, SymMat(A.entries + B.entries)),
        (A - B, SymMat(A.entries - B.entries)),
        (-A, SymMat(-A.entries)),
        (A * t, SymMat(A.entries * t)),
        (t * A, SymMat(A.entries * t)),
    ]:
        assert _bits(got.entries) == _bits(ref.entries)
        assert not got.entries.flags.writeable
        assert np.array_equal(got.entries, got.entries.T)
    for got, ref in [
        (J + K, Jet2(J.r + K.r, J.p + K.p, SymMat(J.A.entries + K.A.entries))),
        (-J, Jet2(-J.r, -J.p, SymMat(-J.A.entries))),
        (t * J, Jet2(t * J.r, t * J.p, SymMat(J.A.entries * t))),
        (J * t, Jet2(t * J.r, t * J.p, SymMat(J.A.entries * t))),
    ]:
        assert type(got.r) is float and _bits(got.r) == _bits(ref.r)
        assert _bits(got.p) == _bits(ref.p) and not got.p.flags.writeable
        assert _bits(got.A.entries) == _bits(ref.A.entries)
    g = np.random.default_rng(seed).standard_normal((n, n)) * 2.0
    S = random_symmetric(np.random.default_rng(seed), n, 2.0)
    assert _bits(S.entries) == _bits(SymMat(0.5 * (g + g.T)).entries)


def test_random_symmetric_keeps_dimension_cap():
    with pytest.raises(ValueError):
        random_symmetric(np.random.default_rng(0), 9)
