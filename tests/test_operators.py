"""Normalized operators, the alpha search, and the sampled P-property check."""

import itertools

import numpy as np
import pytest

import oracles
from families import random_sparse_tensor
from tcpbounds import (
    ALPHA_F,
    ALPHA_T,
    CLOSED_FORM_DIAGONAL,
    GRID_REFINED,
    LIKELY_P,
    NOT_P,
    AlphaEstimate,
    DenseTensor,
    GridSpec,
    alpha_F_diagonal,
    apply_F,
    apply_T,
    check_p_tensor_sampled,
    contract_m1,
    diagonal_alpha_estimate,
    estimate_alpha,
)
from tcpbounds.operators import _CHUNK, _INITIAL_STEP, _iter_face_chunks, _objective_batch

HAND3 = DenseTensor(3, 2, {(1, 1, 2): 2.0, (1, 2, 1): 3.0, (2, 2, 2): 1.0, (2, 1, 1): -1.0})

# raw face-grid minimum for HAND3 with alpha_T, 7 points per free axis,
# frozen from the brute-force sweep in oracles.alpha_grid
HAND3_GRID7 = -0.52704627669473


def test_apply_T_zero_maps_to_zero():
    t = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    assert np.array_equal(apply_T(t, np.zeros(2)), np.zeros(2))


def test_apply_T_homogeneous_degree_one():
    rng = np.random.default_rng(5)
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-2.0, 2.0, dim)
        lam = float(rng.uniform(0.1, 10.0))
        a = apply_T(t, lam * x)
        b = lam * apply_T(t, x)
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


def test_apply_T_order_two_is_plain_contraction():
    # m = 2 makes the normalization exponent zero
    rng = np.random.default_rng(13)
    t = random_sparse_tensor(rng, 2, 3, 6)
    x = rng.uniform(-1.0, 1.0, 3)
    np.testing.assert_allclose(apply_T(t, x), contract_m1(t, x), rtol=1e-14)


def test_apply_F_diagonal_closed_form():
    """For a positive diagonal tensor, (F_A x)_i = a_i^{1/(m-1)} x_i."""
    diag = np.array([1.0, 8.0, 3.7])
    t = DenseTensor.from_diagonal(diag, order=4)
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, 3)
        np.testing.assert_allclose(apply_F(t, x), diag ** (1.0 / 3.0) * x, rtol=1e-12)


def test_apply_F_requires_even_order():
    with pytest.raises(ValueError):
        apply_F(HAND3, np.array([1.0, 1.0]))


def test_alpha_F_diagonal_goldens():
    assert alpha_F_diagonal(DenseTensor.from_diagonal([1.0, 8.0], order=4)) == 1.0
    got = alpha_F_diagonal(DenseTensor.from_diagonal([16.0, 81.0], order=4))
    assert got == 2.5198420997897464


def test_alpha_F_diagonal_rejects_nondiagonal_and_nonpositive():
    with pytest.raises(ValueError):
        alpha_F_diagonal(DenseTensor(4, 2, {(1, 2, 1, 1): 1.0, (1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0}))
    with pytest.raises(ValueError):
        alpha_F_diagonal(DenseTensor.from_diagonal([1.0, -2.0], order=4))


def test_diagonal_alpha_estimate_is_certified():
    est = diagonal_alpha_estimate(DenseTensor.from_diagonal([1.0, 8.0], order=4))
    assert est.value == 1.0
    assert est.kind == ALPHA_F
    assert est.method == CLOSED_FORM_DIAGONAL
    assert est.certified


def test_grid_sweep_matches_bruteforce_reference():
    spec = GridSpec(points_per_axis=7, refinement_steps=0)
    est = estimate_alpha(HAND3, ALPHA_T, grid=spec)
    assert est.method == GRID_REFINED
    assert not est.certified
    assert est.grid_points_per_axis == 7
    np.testing.assert_allclose(est.value, HAND3_GRID7, rtol=1e-12)
    np.testing.assert_allclose(
        oracles.alpha_grid(HAND3.entries, 3, 2, 7, False), HAND3_GRID7, rtol=1e-12
    )


def test_refinement_never_increases_grid_value():
    coarse = estimate_alpha(HAND3, ALPHA_T, grid=GridSpec(points_per_axis=7, refinement_steps=0))
    refined = estimate_alpha(HAND3, ALPHA_T, grid=GridSpec(points_per_axis=7))
    assert refined.value <= coarse.value + 1e-12


def test_grid_hits_diagonal_minimizer_exactly():
    # odd point counts place a node at 0, so the unit-vector minimizer of a
    # diagonal objective is an exact grid point
    t = DenseTensor.from_diagonal([2.0, 5.0], order=2)
    est = estimate_alpha(t, ALPHA_T, grid=GridSpec(points_per_axis=5, refinement_steps=0))
    assert est.value == 2.0
    f = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    est_f = estimate_alpha(f, ALPHA_F, grid=GridSpec(points_per_axis=5, refinement_steps=0))
    assert est_f.value == 1.0


def test_grid_estimate_bracket_against_closed_form():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        diag = rng.uniform(0.5, 10.0, n)
        t = DenseTensor.from_diagonal(diag, order=4)
        closed = alpha_F_diagonal(t)
        est = estimate_alpha(t, ALPHA_F)
        assert closed - 1e-6 <= est.value <= closed + 1e-3


def test_estimate_alpha_deterministic():
    a = estimate_alpha(HAND3, ALPHA_T, grid=GridSpec(points_per_axis=9))
    b = estimate_alpha(HAND3, ALPHA_T, grid=GridSpec(points_per_axis=9))
    assert a.value == b.value


def _product_face_chunks(axis, n, fixed, sign):
    """Face grid built from ``itertools.product`` tuples, ``_CHUNK`` rows at a time."""
    if n == 1:
        yield np.array([[sign]])
        return
    product = itertools.product(axis, repeat=n - 1)
    while True:
        block = list(itertools.islice(product, _CHUNK))
        if not block:
            return
        yield np.insert(np.asarray(block), fixed, sign, axis=1)


def _reference_alpha(tensor, kind, grid):
    """Face sweep plus a polish that evaluates one trial point per call."""
    n = tensor.dim
    axis = np.linspace(-1.0, 1.0, grid.points_per_axis)
    best_val, best_point, best_face = np.inf, None, 0
    for fixed in range(n):
        for sign in (-1.0, 1.0):
            for pts in _product_face_chunks(axis, n, fixed, sign):
                vals = _objective_batch(tensor, pts, kind)
                local_min = float(vals.min())
                if local_min > best_val:
                    continue
                local_point = min(tuple(pts[i]) for i in np.flatnonzero(vals == local_min))
                if local_min < best_val or (best_point is not None and local_point < best_point):
                    best_val, best_point, best_face = local_min, local_point, fixed
    point, value = np.array(best_point), best_val
    step = _INITIAL_STEP
    for _ in range(grid.refinement_steps):
        improved = False
        for j in range(n):
            if j == best_face:
                continue
            for delta in (step, -step):
                trial = point.copy()
                trial[j] = min(1.0, max(-1.0, trial[j] + delta))
                if trial[j] == point[j]:
                    continue
                trial_val = float(_objective_batch(tensor, trial[None, :], kind)[0])
                if trial_val < value:
                    point, value = trial, trial_val
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    return value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("g", [2, 3, 7, 11])
def test_face_chunks_follow_product_order(n, g):
    # n=5, g=11 has 14,641 rows per face: three full chunks and a partial one
    axis = np.linspace(-1.0, 1.0, g)
    for fixed in range(n):
        for sign in (-1.0, 1.0):
            chunks = list(_iter_face_chunks(axis, n, fixed, sign))
            assert all(c.shape[0] <= _CHUNK for c in chunks)
            expected = np.concatenate(list(_product_face_chunks(axis, n, fixed, sign)))
            assert np.array_equal(np.concatenate(chunks), expected)


def test_estimate_alpha_bit_identical_to_one_trial_polish():
    rng = np.random.default_rng(2209)
    cases = [(HAND3, ALPHA_T, GridSpec(points_per_axis=7))]
    for _ in range(50):
        order = int(rng.integers(2, 5))
        dim = int(rng.integers(1, 6))
        # n=5 stays at 7 points or fewer to keep the sweep small
        points = int(rng.integers(2, 10 if dim < 5 else 8))
        t = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 3 * dim + 2)))
        spec = GridSpec(points_per_axis=points, refinement_steps=int(rng.integers(0, 61)))
        for kind in (ALPHA_T, ALPHA_F) if order % 2 == 0 else (ALPHA_T,):
            cases.append((t, kind, spec))
    for t, kind, spec in cases:
        assert estimate_alpha(t, kind, spec).value == _reference_alpha(t, kind, spec)


def test_estimate_alpha_dimension_one():
    t = DenseTensor.from_diagonal([5.0], order=4)
    est = estimate_alpha(t, ALPHA_F, grid=GridSpec(points_per_axis=3, refinement_steps=0))
    np.testing.assert_allclose(est.value, 5.0 ** (1.0 / 3.0), rtol=1e-12)


def test_estimate_alpha_rejects_unknown_kind():
    with pytest.raises(ValueError):
        estimate_alpha(HAND3, "alpha_Q")


def test_alpha_F_rejects_odd_order():
    with pytest.raises(ValueError):
        estimate_alpha(HAND3, ALPHA_F)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"points_per_axis": 1},
        {"refinement_steps": -1},
    ],
)
def test_grid_spec_validation(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_check_p_likely_on_positive_diagonal():
    t = DenseTensor.from_diagonal([1.0, 8.0, 2.5], order=4)
    check = check_p_tensor_sampled(t)
    assert check.verdict == LIKELY_P
    assert check.witness is None
    assert check.points_checked >= 64


def test_check_p_finds_witness_on_negative_diagonal():
    t = DenseTensor.from_diagonal([1.0, -2.0], order=2)
    check = check_p_tensor_sampled(t)
    assert check.verdict == NOT_P
    assert check.witness_value <= 0.0
    # the reported value must reproduce exactly through the public kernels
    x = check.witness
    again = float(np.max(x * contract_m1(t, x)))
    assert again == check.witness_value


def test_check_p_witness_reproduces_on_sampled_points():
    # indefinite tensor that unit vectors alone do not refute
    t = DenseTensor(2, 2, {(1, 1): 1.0, (1, 2): -3.0, (2, 1): -3.0, (2, 2): 1.0})
    check = check_p_tensor_sampled(t, sample_count=128, seed=4)
    assert check.verdict == NOT_P
    x = check.witness
    assert float(np.max(np.abs(x))) == pytest.approx(1.0, rel=1e-12)
    again = float(np.max(x * contract_m1(t, x)))
    assert again == check.witness_value


def test_alpha_estimate_is_frozen():
    est = AlphaEstimate(1.0, ALPHA_F, CLOSED_FORM_DIAGONAL, 0, 0, True)
    with pytest.raises(Exception):
        est.value = 2.0


def test_apply_maps_are_rows_of_the_objective_map():
    # apply_T and apply_F are one-row views of the map the alpha sweep uses
    rng = np.random.default_rng(17)
    for t, kinds in ((HAND3, (ALPHA_T,)), (random_sparse_tensor(rng, 4, 3, 7), (ALPHA_T, ALPHA_F))):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, t.dim)
            for kind in kinds:
                mapped = apply_T(t, x) if kind == ALPHA_T else apply_F(t, x)
                assert float(np.max(x * mapped)) == _objective_batch(t, x[None, :], kind)[0]


def test_grid_spec_has_no_initial_step_option():
    with pytest.raises(TypeError):
        GridSpec(initial_step=0.1)


def test_check_p_evaluates_each_point_once(monkeypatch):
    import tcpbounds.operators as operators_module

    rows = []
    batch = operators_module.contract_m1_batch

    def counting(tensor, points):
        rows.append(len(points))
        return batch(tensor, points)

    def single(tensor, x):
        rows.append(1)
        return contract_m1(tensor, x)

    monkeypatch.setattr(operators_module, "contract_m1_batch", counting)
    # A second, one-point evaluation of a screened point would count twice.
    monkeypatch.setattr(operators_module, "contract_m1", single, raising=False)
    t = DenseTensor(2, 2, {(1, 1): 1.0, (1, 2): -3.0, (2, 1): -3.0, (2, 2): 1.0})
    for tensor in (t, DenseTensor.from_diagonal([1.0, 8.0], order=4)):
        rows.clear()
        check = check_p_tensor_sampled(tensor, sample_count=128, seed=4)
        assert sum(rows) == check.points_checked

