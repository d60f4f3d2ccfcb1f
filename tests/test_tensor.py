"""Tensor storage and contraction kernels against brute-force references."""

import sys

import numpy as np
import pytest

import oracles
from families import manufactured_unique, random_sparse_tensor
from tcpbounds import (
    DenseTensor,
    DimensionMismatchError,
    contract_full,
    contract_m1,
    contract_m1_batch,
    jacobian_m1_batch,
    signed_root,
    tensor_inf_norm,
)
from tcpbounds.tensor import _lcp_matrix

# Hand-checked order-3 case: rows (1,1,2)->2, (1,2,1)->3, (2,2,2)->1, (2,1,1)->-1.
HAND_ENTRIES = {(1, 1, 2): 2.0, (1, 2, 1): 3.0, (2, 2, 2): 1.0, (2, 1, 1): -1.0}


def hand_tensor():
    return DenseTensor(3, 2, HAND_ENTRIES)


def test_construction_basics():
    t = hand_tensor()
    assert t.order == 3
    assert t.dim == 2
    assert t.nnz == 4
    assert t.entries == HAND_ENTRIES
    assert t.value_at((1, 1, 2)) == 2.0
    assert t.value_at((1, 1, 1)) == 0.0


def test_zero_entries_are_dropped():
    t = DenseTensor(2, 2, {(1, 1): 1.0, (1, 2): 0.0})
    assert t.nnz == 1
    assert (1, 2) not in t.entries


def test_entries_copy_does_not_expose_internals():
    t = hand_tensor()
    t.entries[(1, 1, 2)] = 99.0
    assert t.value_at((1, 1, 2)) == 2.0


def test_immutable():
    t = hand_tensor()
    with pytest.raises(AttributeError):
        t.dim = 3


@pytest.mark.parametrize(
    "order, dim, entries",
    [
        (1, 2, {}),
        (2, 0, {}),
        (2, 2, {(1, 1, 1): 1.0}),
        (2, 2, {(0, 1): 1.0}),
        (2, 2, {(1, 3): 1.0}),
        (4.0, 2, {}),
        (True, 2, {}),
        (4, 2.0, {}),
        (4, True, {}),
        (4, np.bool_(True), {}),
    ],
)
def test_construction_rejects_bad_shapes(order, dim, entries):
    with pytest.raises(ValueError):
        DenseTensor(order, dim, entries)


@pytest.mark.parametrize("name", ["order", "dim"])
@pytest.mark.parametrize("huge", [sys.maxsize + 1, 10**20, np.uint64(2**63)])
def test_construction_refuses_an_order_or_dim_numpy_cannot_hold(name, huge):
    # numpy used to refuse these with "Maximum allowed dimension exceeded"
    # or an OverflowError, naming neither
    shape = {"order": 2, "dim": 2, name: huge}
    with pytest.raises(ValueError, match=f"^{name} must be at most {sys.maxsize}, got {huge}$"):
        DenseTensor(shape["order"], shape["dim"], {})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=r"\(1, 1, 1, 1\)"):
        DenseTensor(4, 2, {(1, 1, 1, 1): bad, (2, 2, 2, 2): 1.0})


@pytest.mark.parametrize("bad", [None, "abc", object()], ids=["None", "abc", "object"])
def test_construction_rejects_non_numeric_entries(bad):
    # None and object() used to escape as a bare TypeError, and "abc" as a
    # ValueError that did not name the index
    with pytest.raises(ValueError, match=r"entry at index \(2, 1\) must be a real number"):
        DenseTensor(2, 2, {(1, 1): 1.0, (2, 1): bad})


@pytest.mark.parametrize("idx", [(1.7, 2.9), (1.0, 2), (True, 2), (1, np.bool_(True))])
def test_construction_rejects_non_integer_indices(idx):
    # (1.7, 2.9) used to be truncated and stored at (1, 2)
    with pytest.raises(ValueError, match="integer components"):
        DenseTensor(2, 2, {idx: 1.0})


def test_construction_accepts_numpy_integer_indices():
    t = DenseTensor(2, 2, {(np.int64(1), np.int32(2)): 1.0})
    assert t.entries == {(1, 2): 1.0}
    assert all(type(i) is int for i in next(iter(t.entries)))


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_construction_accepts_numpy_integer_order_and_dim(kind):
    # a numpy order or dim was refused, though seeds and grids took them
    for t in (
        DenseTensor(kind(4), kind(2), {(1, 1, 1, 1): 1.0}),
        DenseTensor.from_diagonal([1.0, 8.0], order=kind(4)),
    ):
        assert (t.order, t.dim) == (4, 2)
        assert type(t.order) is int and type(t.dim) is int


def test_from_diagonal():
    t = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    assert t.order == 4 and t.dim == 2
    assert t.entries == {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 8.0}
    assert np.array_equal(t.diagonal(), [1.0, 8.0])
    assert t.is_diagonal()
    assert t.is_positive_diagonal()


def test_diagonal_predicates():
    assert not hand_tensor().is_diagonal()
    # a zero on the diagonal: diagonal but not positive diagonal
    t = DenseTensor(4, 2, {(1, 1, 1, 1): 2.0})
    assert t.is_diagonal()
    assert not t.is_positive_diagonal()
    s = DenseTensor.from_diagonal([2.0, -1.0], order=4)
    assert not s.is_positive_diagonal()


@pytest.mark.parametrize(
    "order,dim,entries",
    [
        (4, 2, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 8.0}),
        (4, 2, {(2, 2, 2, 2): 8.0, (1, 1, 1, 1): 1.0}),
        (4, 2, {(1, 1, 1, 1): 2.0}),
        (4, 2, {(1, 1, 1, 1): 2.0, (2, 2, 2, 2): -1.0}),
        # as many entries as the dimension, one of them off the diagonal
        (4, 2, {(1, 1, 1, 1): 1.0, (1, 2, 2, 2): 1.0}),
        (2, 2, {(1, 1): 1.0, (2, 1): 1.0}),
        (4, 2, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (2, 1, 1, 1): 1e-9}),
        (3, 1, {(1, 1, 1): 0.5}),
        (2, 3, {}),
        # row 1's off-diagonal sum is 1 + 2e-16 in index order, 1 in this one
        (4, 2, {(1, 1, 1, 1): 2.0, (1, 2, 2, 2): 1.0, (1, 1, 1, 2): 1e-16, (1, 1, 2, 2): 1e-16,
                (2, 2, 2, 2): 4.0}),
        (2, 3, {(3, 3): -1.0, (1, 1): 2.0, (2, 2): 0.0, (2, 1): 0.5, (1, 3): -0.25}),
    ],
)
def test_positive_diagonal_predicate_matches_its_definition(order, dim, entries):
    # The split of each row into its diagonal entry and the absolute sum of
    # the others, in index order, does not depend on the order given.
    stored = {idx: v for idx, v in entries.items() if v != 0.0}
    diag = [stored.get((i,) * order, 0.0) for i in range(1, dim + 1)]
    off_sums = [
        sum(abs(v) for idx, v in sorted(stored.items()) if idx[0] == i and len(set(idx)) > 1)
        for i in range(1, dim + 1)
    ]
    is_diag = all(len(set(idx)) == 1 for idx in stored)
    rng = np.random.default_rng(len(entries))
    keys = list(entries)
    for _ in range(6):
        t = DenseTensor(order, dim, {keys[k]: entries[keys[k]] for k in rng.permutation(len(keys))})
        assert np.array_equal(t.diagonal(), diag)
        assert [v.hex() for v in t._off_sums] == [float(v).hex() for v in off_sums]
        assert t.is_diagonal() is is_diag
        assert t.is_positive_diagonal() is (is_diag and all(a > 0.0 for a in diag))


def test_hand_contraction_values():
    t = hand_tensor()
    x = np.array([2.0, 5.0])
    assert np.array_equal(contract_m1(t, x), [50.0, 21.0])
    assert contract_full(t, x) == 205.0
    assert tensor_inf_norm(t) == 5.0


def test_contract_m1_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-2.0, 2.0, dim)
        got = contract_m1(t, x)
        want = oracles.contract_m1(t.entries, dim, list(x))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_contract_full_matches_oracle_and_dot_identity():
    """A x^m equals both the brute-force sum and x . (A x^{m-1})."""
    rng = np.random.default_rng(7)
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-2.0, 2.0, dim)
        full = contract_full(t, x)
        want = oracles.contract_full(t.entries, list(x))
        scale = max(1.0, abs(want))
        assert abs(full - want) <= 1e-12 * scale
        assert abs(full - float(np.dot(x, contract_m1(t, x)))) <= 1e-12 * scale


def test_batch_contraction_matches_single_points():
    rng = np.random.default_rng(11)
    for _ in range(40):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        pts = rng.uniform(-1.5, 1.5, (13, dim))
        batch = contract_m1_batch(t, pts)
        assert batch.shape == (13, dim)
        for k in range(13):
            np.testing.assert_array_equal(batch[k], contract_m1(t, pts[k]))


def test_batch_contraction_keeps_the_signed_zeros_of_single_points():
    # A negative entry at a zero coordinate gives -0.0; np.bincount adds it
    # to +0.0, and the batch kernel must give +0.0 as well.
    t = DenseTensor(2, 3, {(1, 1): -1.0, (2, 1): -2.0, (2, 3): -0.5, (3, 3): 3.0})
    pts = np.array([[0.0, 1.0, 0.0], [-0.0, 2.0, -0.0], [0.0, 0.0, 1.0]])
    batch = contract_m1_batch(t, pts)
    for k in range(pts.shape[0]):
        single = contract_m1(t, pts[k])
        np.testing.assert_array_equal(batch[k], single)
        assert np.array_equal(np.signbit(batch[k]), np.signbit(single))


def _special_tensors(rng):
    """Orders 2-6 with repeated column indices, rows with no entries, and no entries at all."""
    yield DenseTensor(3, 3, {})
    for order in (2, 3, 4, 5, 6):
        dim = 4 if order < 5 else 3
        t = random_sparse_tensor(rng, order, dim, 3 * dim)
        entries = {idx: v for idx, v in t.entries.items() if idx[0] != dim}
        entries[(1,) + (2,) * (order - 1)] = -1.5
        entries[(2,) + (1,) * (order - 2) + (dim,)] = 0.75
        yield DenseTensor(order, dim, entries)


def _special_points(rng, k, dim):
    pts = rng.uniform(-1.5, 1.5, (k, dim))
    specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan])
    mask = rng.random((k, dim)) < 0.1
    pts[mask] = rng.choice(specials, size=int(mask.sum()))
    return pts


class _NanEmptyNumpy:
    """numpy, save that ``empty`` fills its arrays with NaN."""

    def __init__(self):
        self.empties = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        self.empties += 1
        return np.full(shape, np.nan, *args, **kwargs)


def test_batch_contraction_reads_nothing_it_did_not_write(monkeypatch):
    # The kernel's block comes from np.empty; filled with NaN, a zero padding
    # row or a temporary read before it is written would show in the bits.
    import tcpbounds.tensor as tensor_module

    rng = np.random.default_rng(29)
    cases = [
        (t, pts)
        for t in _special_tensors(rng)
        for pts in [_special_points(rng, k, t.dim) for k in (4096, 7, 1)]
        + [rng.uniform(-1.0, 1.0, (9, t.dim))]
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        wants = [np.array([contract_m1(t, x) for x in pts]) for t, pts in cases]
        nan_numpy = _NanEmptyNumpy()
        monkeypatch.setattr(tensor_module, "np", nan_numpy)
        gots = [contract_m1_batch(t, pts) for t, pts in cases]
    assert nan_numpy.empties >= len(cases)
    for want, got in zip(wants, gots):
        assert got.shape == want.shape and got.T.flags.c_contiguous
        # A uint64 view cannot tell int64 zeros from float ones.
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _component_tensors(rng, dim=4):
    """Orders 2-4 with an empty row, -0.0 products and a row whose terms cancel."""
    for order in (2, 3, 4):
        t = random_sparse_tensor(rng, order, dim, 3 * dim)
        # The last row holds nothing; row 1's terms 1e16, 1, -1e16, 1 at x = 1
        # sum to 1 only when added in stored-entry order.
        entries = {idx: v for idx, v in t.entries.items() if idx[0] not in (1, dim)}
        for j, v in zip((1, 2, 3, 4), (1e16, 1.0, -1e16, 1.0)):
            entries[(1,) + (j,) * (order - 1)] = v
        # A negative entry times a zero coordinate is -0.0.
        entries[(2,) + (3,) * (order - 1)] = -2.5
        yield DenseTensor(order, dim, entries)
    yield DenseTensor(3, 3, {})


def _open_grid(rng, dim, specials=False):
    """A random open grid: some coordinates are np.ix_ axes, the rest scalars.

    The values are random, not a linspace, with zeros of both signs and ones
    among them, and with ``specials`` infinities too, whose products and sums
    make NaNs.
    """
    def values(size):
        v = rng.uniform(-1.5, 1.5, size)
        v[rng.random(size) < 0.2] = 0.0
        v[rng.random(size) < 0.1] = -0.0
        v[rng.random(size) < 0.1] = 1.0
        if specials:
            mask = rng.random(size) < 0.1
            v[mask] = rng.choice([np.inf, -np.inf], int(mask.sum()))
        return v

    axes = np.flatnonzero(rng.random(dim) < 0.5)
    sizes = rng.integers(1, 7 if axes.size < 4 else 4, axes.size)
    coords = [float(v) for v in values(dim)]
    for col, ax in zip(axes, np.ix_(*(values(size) for size in sizes))):
        coords[col] = ax
    return coords


def _grid_as_points(coords):
    """The open grid's points in C order, one per row."""
    grids = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in coords))
    return np.stack([g.ravel() for g in grids], axis=1)


def test_batch_contraction_component_is_its_column_bit_for_bit():
    rng = np.random.default_rng(41)
    for t in [t for dim in (4, 6, 9) for t in _component_tensors(rng, dim)]:
        grids = [_open_grid(rng, t.dim, specials) for specials in (False, True) for _ in range(6)]
        # x = 1, where the cancelling row sums to 1, and the zeros of both signs.
        grids += [[1.0] * t.dim, [0.0] * t.dim, [-0.0] * t.dim]
        for coords in grids:
            pts = _grid_as_points(coords)
            with np.errstate(invalid="ignore", over="ignore"):
                full = contract_m1_batch(t, pts)
                for i in range(t.dim):
                    got = contract_m1_batch(t, coords, component=i)
                    assert got.shape == (pts.shape[0],) and got.flags.c_contiguous
                    assert got.dtype == full.dtype == np.float64
                    assert np.array_equal(got.view(np.uint64), full[:, i].view(np.uint64))
        if t.nnz:
            # The cancelling row at x = 1, and the empty row's +0.0.
            ones = [1.0] * t.dim
            assert contract_m1_batch(t, ones, component=0)[0] == 1.0
            assert contract_m1_batch(t, ones, component=t.dim - 1)[0].hex() == "0x0.0p+0"


def test_batch_component_refuses_a_bad_index():
    t = hand_tensor()
    grid = np.ix_(np.ones(5), np.ones(1))
    for bad in (-1, 2, np.int64(2), 1.0, True, "0"):
        with pytest.raises(ValueError, match="component"):
            contract_m1_batch(t, grid, component=bad)
    with pytest.raises(DimensionMismatchError, match="open grid"):
        contract_m1_batch(t, [np.ones(5)], component=0)
    assert np.array_equal(
        contract_m1_batch(t, grid, component=np.int64(1)),
        contract_m1_batch(t, grid, component=1),
    )


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(23)
    h = 1e-6
    for order in (2, 3, 4):
        for _ in range(15):
            dim = int(rng.integers(1, 5))
            t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 12)))
            pts = rng.uniform(-1.5, 1.5, (6, dim))
            # exact zeros: one coordinate of some points, all of the last
            pts[::2, int(rng.integers(dim))] = 0.0
            pts[-1] = 0.0
            jac = jacobian_m1_batch(t, pts)
            assert jac.shape == (6, dim, dim)
            for k in range(6):
                for j in range(dim):
                    bump = np.zeros(dim)
                    bump[j] = h
                    up, down = contract_m1(t, pts[k] + bump), contract_m1(t, pts[k] - bump)
                    want = (up - down) / (2 * h)
                    np.testing.assert_allclose(jac[k, :, j], want, rtol=0, atol=1e-7)


def test_jacobian_repeated_columns_and_zeros():
    # a * x2 * x2 * x2 has derivative 3 a x2^2 in x2; the mixed entry
    # b * x1 * x2 * x2 has derivatives b x2^2 and 2 b x1 x2.
    t = DenseTensor(4, 2, {(1, 2, 2, 2): 2.0, (2, 1, 2, 2): 5.0})
    jac = jacobian_m1_batch(t, [[3.0, 0.5], [0.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(jac[0], [[0.0, 1.5], [1.25, 15.0]], rtol=1e-15)
    np.testing.assert_array_equal(jac[1], np.zeros((2, 2)))
    np.testing.assert_array_equal(jac[2], [[0.0, 24.0], [20.0, 0.0]])
    # order 2: the Jacobian is the matrix itself, wherever it is taken
    m = DenseTensor(2, 2, {(1, 1): 2.0, (1, 2): -1.0, (2, 1): 4.0})
    np.testing.assert_array_equal(
        jacobian_m1_batch(m, np.zeros((1, 2)))[0], [[2.0, -1.0], [4.0, 0.0]]
    )
    assert jacobian_m1_batch(DenseTensor(3, 2, {}), np.ones((3, 2))).shape == (3, 2, 2)
    # a tensor with no entries takes the general path: +0.0 everywhere, bit for bit
    for order in (2, 3, 4):
        jac = jacobian_m1_batch(DenseTensor(order, 2, {}), [[-1.0, 2.0], [0.0, -0.0]])
        assert jac.shape == (2, 2, 2) and jac.tobytes() == np.zeros((2, 2, 2)).tobytes()
        assert jac.dtype == np.float64


def _jacobian_cumprod(tensor, points):
    """The Jacobian with prefix and suffix products from ``np.cumprod``.

    ``np.bincount`` sums each bin from +0.0 in stored-entry, then position,
    order, the order the kernel promises.
    """
    pts = np.asarray(points, dtype=float)
    k, n = pts.shape
    cols = tensor._cols
    xs = pts.T[cols]  # (nnz, m - 1, k)
    left = np.ones_like(xs)
    right = np.ones_like(xs)
    np.cumprod(xs[:, :-1], axis=1, out=left[:, 1:])
    np.cumprod(xs[:, :0:-1], axis=1, out=right[:, -2::-1])
    partials = tensor._vals[:, None, None] * (left * right)
    keys = (tensor._rows[:, None] * n + cols).ravel()
    return np.stack(
        [
            np.bincount(keys, weights=partials[:, :, b].ravel(), minlength=n * n)
            for b in range(k)
        ]
    ).reshape(k, n, n)


@pytest.mark.parametrize("order", [2, 3, 4, 6])
def test_jacobian_equals_the_cumprod_formula_bit_for_bit(order):
    rng = np.random.default_rng(order)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan]
    for dim in (1, 2, 3):
        # At dim <= 3 most entries of order >= 3 repeat a column index.
        t = random_sparse_tensor(rng, order, dim, 12)
        pts = rng.uniform(-2.0, 2.0, (40, dim))
        # A third of the coordinates are signed zeros, infinities or NaN.
        spots = rng.random(pts.shape) < 1 / 3
        pts[spots] = rng.choice(special, size=int(spots.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            got = jacobian_m1_batch(t, pts)
            want = _jacobian_cumprod(t, pts)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (order, dim)
    # Every position of one column index: a[1, 2, ..., 2].
    t = DenseTensor(order, 2, {(1,) + (2,) * (order - 1): 3.0, (2,) * order: -1.0})
    pts = np.array([[1.5, -0.0], [0.0, 2.0], [np.inf, 0.0], [1.0, np.nan], [-np.inf, 2.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = jacobian_m1_batch(t, pts), _jacobian_cumprod(t, pts)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_inf_norm_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        assert abs(tensor_inf_norm(t) - oracles.inf_norm(t.entries, dim)) <= 1e-12


def test_contraction_inequality():
    # |A x^{m-1}|_inf <= |A|_inf * |x|_inf^{m-1}
    rng = np.random.default_rng(19)
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-3.0, 3.0, dim)
        lhs = float(np.max(np.abs(contract_m1(t, x))))
        rhs = tensor_inf_norm(t) * float(np.max(np.abs(x))) ** (order - 1)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_signed_root_scalars():
    assert signed_root(8.0, 3) == 2.0
    assert signed_root(-8.0, 3) == -2.0
    assert signed_root(0.125, 3) == 0.5
    assert signed_root(0.0, 3) == 0.0
    assert signed_root(5.0, 1) == 5.0
    # a numpy integer order was refused
    assert np.array_equal(signed_root([8.0], np.int64(3)), [2.0])


def test_signed_root_rejects_even_or_nonpositive_order():
    for r in (0, 2, 4, -1, np.int64(2), 3.0, True):
        with pytest.raises(ValueError, match="root order"):
            signed_root(1.0, r)


def test_signed_root_round_trip():
    rng = np.random.default_rng(23)
    for r in (1, 3, 5):
        x = rng.uniform(-50.0, 50.0, 200)
        back = signed_root(x, r) ** r
        np.testing.assert_allclose(back, x, rtol=1e-12, atol=1e-13)


def test_signed_root_is_odd_function():
    rng = np.random.default_rng(29)
    x = rng.uniform(0.0, 10.0, 100)
    np.testing.assert_array_equal(signed_root(-x, 3), -signed_root(x, 3))


def test_contraction_rejects_wrong_dimension():
    t = hand_tensor()
    with pytest.raises(DimensionMismatchError):
        contract_m1(t, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatchError):
        contract_full(t, np.array([1.0]))


def test_contract_full_is_x_dot_contract_m1():
    rng = np.random.default_rng(41)
    for order in (2, 3, 4):
        t = random_sparse_tensor(rng, order, 4, 6)
        x = rng.standard_normal(4)
        assert contract_full(t, x) == float(np.dot(x, contract_m1(t, x)))


@pytest.mark.parametrize("key", [1, 2.5, None])
def test_construction_rejects_non_iterable_index(key):
    # DenseTensor(2, 2, {1: 1.0}) used to raise TypeError: 'int' object is
    # not iterable
    with pytest.raises(ValueError, match=f"index {key!r} must be a sequence"):
        DenseTensor(2, 2, {key: 1.0})


def test_overflowing_inf_norm_is_refused_when_built():
    # every entry is finite, but row 1 sums to 1 + 1e308 + 1e308; the tensor
    # used to be built, and the alpha sweep, check-p and the solver ran on a
    # norm of inf (only the bound reports refused it)
    entries = {(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (1, 2): 1e308, (1, 3): 1e308}
    with pytest.raises(ValueError) as info:
        DenseTensor(2, 3, entries)
    assert str(info.value) == (
        "||A||_inf overflows to inf although every entry is finite; rescale the tensor"
    )
    # the signs do not matter: the norm sums absolute values
    with pytest.raises(ValueError, match=r"\|\|A\|\|_inf overflows to inf"):
        DenseTensor(4, 2, {(2, 1, 1, 1): -1e308, (2, 2, 2, 2): 1e308})


def test_largest_finite_inf_norm_is_accepted():
    big = sys.float_info.max
    t = DenseTensor(2, 2, {(1, 1): big / 2, (1, 2): -big / 2, (2, 2): 1.0})
    assert tensor_inf_norm(t) == big
    assert tensor_inf_norm(DenseTensor(3, 2, {(2, 2, 1): big})) == big


def test_inf_norm_is_computed_once(monkeypatch):
    t = DenseTensor(4, 2, {(1, 1, 1, 1): 2.0, (1, 2, 2, 2): -3.0, (2, 2, 2, 2): 4.0})
    zero = DenseTensor(2, 2, {})
    first = tensor_inf_norm(t)
    assert first == 5.0

    def no_bincount(*args, **kwargs):
        raise AssertionError("the norm was recomputed")

    monkeypatch.setattr(np, "bincount", no_bincount)
    assert tensor_inf_norm(t) == first
    assert tensor_inf_norm(zero) == 0.0


def test_lcp_matrix_of_order_two_and_even_row_power_tensors():
    rng = np.random.default_rng(21)
    for family, order in (("general", 2), ("row_power", 2), ("row_power", 4), ("diagonal", 6)):
        tensor = manufactured_unique(rng, family, order, 4)[0].tensor
        matrix = _lcp_matrix(tensor)
        expected = np.zeros((4, 4))
        for idx, val in tensor.entries.items():
            expected[idx[0] - 1, idx[1] - 1] = val
        assert np.array_equal(matrix, expected)
        x = rng.uniform(-1.0, 1.0, 4)
        np.testing.assert_allclose(contract_m1(tensor, x), matrix @ x ** (order - 1), rtol=1e-13)
    assert np.array_equal(_lcp_matrix(DenseTensor(4, 2, {})), np.zeros((2, 2)))


def test_lcp_matrix_is_none_outside_the_class():
    # trailing indices that differ, or an odd order, where x -> x^{m-1} is
    # not a bijection
    general = DenseTensor(4, 2, {(1, 1, 1, 1): 2.0, (2, 2, 2, 2): 2.0, (1, 1, 2, 2): 0.5})
    assert _lcp_matrix(general) is None
    assert _lcp_matrix(DenseTensor.from_diagonal([1.0, 2.0], order=3)) is None
    assert _lcp_matrix(hand_tensor()) is None
