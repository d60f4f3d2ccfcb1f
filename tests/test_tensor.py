"""Tensor storage and contraction kernels against brute-force references."""

import numpy as np
import pytest

import oracles
from families import random_sparse_tensor
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
    ],
)
def test_construction_rejects_bad_shapes(order, dim, entries):
    with pytest.raises(ValueError):
        DenseTensor(order, dim, entries)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match=r"\(1, 1, 1, 1\)"):
        DenseTensor(4, 2, {(1, 1, 1, 1): bad, (2, 2, 2, 2): 1.0})


@pytest.mark.parametrize("idx", [(1.7, 2.9), (1.0, 2), (True, 2), (1, np.bool_(True))])
def test_construction_rejects_non_integer_indices(idx):
    # (1.7, 2.9) used to be truncated and stored at (1, 2)
    with pytest.raises(ValueError, match="integer components"):
        DenseTensor(2, 2, {idx: 1.0})


def test_construction_accepts_numpy_integer_indices():
    t = DenseTensor(2, 2, {(np.int64(1), np.int32(2)): 1.0})
    assert t.entries == {(1, 2): 1.0}
    assert all(type(i) is int for i in next(iter(t.entries)))


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


def test_signed_root_rejects_even_or_nonpositive_order():
    for r in (0, 2, 4, -1):
        with pytest.raises(ValueError):
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
