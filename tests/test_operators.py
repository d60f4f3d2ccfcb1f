"""Normalized operators, the alpha search, and the sampled P-property check."""

import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from families import (
    manufactured_diagonal,
    manufactured_unique,
    random_diagonal_instances,
    random_sparse_tensor,
)
from tcpbounds import (
    ALPHA_F,
    ALPHA_T,
    CLOSED_FORM_DIAGONAL,
    DOMINANCE_BOUND,
    GRID_REFINED,
    LIKELY_P,
    NOT_P,
    AlphaEstimate,
    DenseTensor,
    GridSpec,
    alpha_for,
    apply_F,
    apply_T,
    check_p_tensor_sampled,
    contract_m1,
    diagonal_alpha_estimate,
    estimate_alpha,
)
from tcpbounds.bounds import _norm_root
from tcpbounds.operators import (
    _CHUNK,
    _GRID_BLOCK,
    _INITIAL_STEP,
    _SEED_ROWS,
    _SPECULATE,
    _dominance_alpha,
    _face_blocks,
    _grid_points,
    _map_batch,
    _objective,
    _pinned_terms,
    _prune_level,
    _sample_chunks,
)
from tcpbounds.tensor import _row_max, _work_rows, contract_m1_batch, tensor_inf_norm

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
    assert diagonal_alpha_estimate(DenseTensor.from_diagonal([1.0, 8.0], order=4)).value == 1.0
    got = diagonal_alpha_estimate(DenseTensor.from_diagonal([16.0, 81.0], order=4)).value
    assert got == 2.5198420997897464


def test_alpha_F_diagonal_is_the_minimum_over_the_diagonal_bit_for_bit():
    rng = np.random.default_rng(62)
    for order in (2, 4, 6):
        for n in (1, 3, 6):
            diag = rng.uniform(0.5, 10.0, n)
            # stored in reverse index order, so storage order is not index order
            t = DenseTensor(order, n, {(i + 1,) * order: diag[i] for i in reversed(range(n))})
            r = 1.0 / (order - 1)
            want = min(float(a) ** r for a in t.diagonal())
            assert float.hex(diagonal_alpha_estimate(t).value) == float.hex(want)


def test_alpha_F_diagonal_rejects_nondiagonal_and_nonpositive():
    with pytest.raises(ValueError):
        diagonal_alpha_estimate(
            DenseTensor(4, 2, {(1, 2, 1, 1): 1.0, (1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0})
        )
    with pytest.raises(ValueError):
        diagonal_alpha_estimate(DenseTensor.from_diagonal([1.0, -2.0], order=4))


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
        closed = diagonal_alpha_estimate(t).value
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
                vals = _objective(tensor, pts, kind)
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
                trial_val = float(_objective(tensor, trial[None, :], kind)[0])
                if trial_val < value:
                    point, value = trial, trial_val
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break
    # A zero alpha is +0.0, whichever zero np.min picked.
    return value + 0.0


def _block_points(coords):
    """Every point of an open face block, in C order."""
    size = np.broadcast(*coords).size
    return _grid_points(coords, np.arange(size))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("g", [2, 3, 7, 11])
def test_face_chunks_follow_product_order(n, g):
    # Face (fixed, sign) holds the grid points with x[fixed] = sign and no
    # earlier |x_j| = 1, in product order, block after block, so over all
    # faces each boundary point of the g^n grid comes once.  n=6, g=11 has
    # 161,051 points on face 0, in blocks of 11^4.
    axis = np.linspace(-1.0, 1.0, g)
    place = g ** np.arange(n - 1, -1, -1)
    seen = []
    for fixed in range(n):
        for sign in (-1.0, 1.0):
            blocks = [_block_points(coords) for coords in _face_blocks(axis, n, fixed, sign)]
            assert all(0 < b.shape[0] <= _GRID_BLOCK for b in blocks)
            face = np.concatenate(blocks) if blocks else np.empty((0, n))
            assert np.all(face[:, fixed] == sign)
            assert np.all(np.abs(face[:, :fixed]) < 1.0)
            digits = np.searchsorted(axis, face)
            assert np.array_equal(axis[digits], face)
            flat = digits @ place
            # The pinned coordinate is constant, so grid order is product order.
            assert np.all(np.diff(flat) > 0)
            seen.append(flat)
    seen = np.concatenate(seen)
    assert seen.size == g**n - (g - 2) ** n
    assert np.bincount(seen).max() == 1


def test_face_chunks_cut_a_long_last_axis():
    # More than _GRID_BLOCK values per axis: the last coordinate alone
    # overflows a block, so it is sliced, still in product order.
    axis = np.linspace(-1.0, 1.0, _GRID_BLOCK + 3)
    product = itertools.product(axis, repeat=2)
    sizes = []
    for coords in itertools.islice(_face_blocks(axis, 3, 0, -1.0), 5):
        block = _block_points(coords)
        sizes.append(block.shape[0])
        want = np.asarray(list(itertools.islice(product, block.shape[0])))
        assert np.array_equal(block, np.insert(want, 0, -1.0, axis=1))
    assert sizes == [_GRID_BLOCK, 3, _GRID_BLOCK, 3, _GRID_BLOCK]


def test_face_chunks_stay_small_on_a_huge_face():
    # Face 0 of n=6, g=41 has 41**5 ~ 1.2e8 points, about 5.5 GB as one
    # array.  Its first block is bounded, and its points are built, in a
    # fixed amount of memory.
    t = random_sparse_tensor(np.random.default_rng(4141), 4, 6, 30)
    axis = np.linspace(-1.0, 1.0, 41)
    tracemalloc.start()
    try:
        coords = next(_face_blocks(axis, 6, 0, 1.0))
        term = contract_m1_batch(t, coords, component=0)
        block = _block_points(coords)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0 < block.shape[0] == term.size <= _GRID_BLOCK
    assert peak < 4 * _GRID_BLOCK * 6 * 8
    want = np.asarray(list(itertools.islice(itertools.product(axis, repeat=5), block.shape[0])))
    assert np.array_equal(block, np.insert(want, 0, 1.0, axis=1))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_row_max_is_numpy_max_bit_for_bit(n):
    rng = np.random.default_rng(n)
    values = rng.choice([-0.0, 0.0, -1.5, 2.0, np.nan, -np.inf], size=(5000, n))
    if n == 2:
        edge = [[-0.0, 0.0], [0.0, -0.0], [np.nan, 1.0], [1.0, np.nan], [-0.0, -0.0]]
        values = np.vstack([edge, values])
    before = values.copy()
    got, want = _row_max(values), values.max(axis=1)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(values, before, equal_nan=True)


# estimate_alpha(...).value as float.hex() for one seeded instance per
# alpha-sweep shape, frozen from the sweep over all 2n full faces; visiting
# each boundary point once keeps the point set, so the value must not move.
ALPHA_GOLDENS = [
    (4, 3, 41, ALPHA_F, "0x1.0359b1d810bdbp+0"),
    (4, 3, 41, ALPHA_T, "0x1.e7e6525e52b70p-2"),
    (4, 4, 21, ALPHA_F, "0x1.13cc9768f8393p+0"),
    (4, 4, 21, ALPHA_T, "0x1.b28b8bed4226ep-2"),
    (4, 5, 11, ALPHA_F, "0x1.da4540da167c7p-1"),
    (4, 5, 11, ALPHA_T, "0x1.0bba91ac800c3p-2"),
    (2, 4, 21, ALPHA_F, "0x1.a4aeb4446382ep-1"),
    (2, 5, 11, ALPHA_F, "0x1.95be4f9afc7f9p-1"),
    (2, 6, 7, ALPHA_F, "0x1.8fd5721f1639ap-1"),
]


def test_estimate_alpha_goldens():
    rng = np.random.default_rng(1212)
    tensors = {}
    for order, n, g, kind, golden in ALPHA_GOLDENS:
        if (order, n) not in tensors:
            family = "row_power" if order > 2 else "general"
            tensors[order, n] = manufactured_unique(rng, family, order, n)[0].tensor
        est = estimate_alpha(tensors[order, n], kind, GridSpec(points_per_axis=g))
        assert est.value.hex() == golden, (order, n, g, kind)


def test_library_alphas_never_exceed_the_norm_root():
    # Every tensor has alpha(F) <= R = ||A||_inf^{1/(m-1)}, since the objective
    # at e_j is a_j^{1/(m-1)}, and the bounds refuse an alpha above R (1 +
    # 1e-12).  No alpha the library computes may need that slack.
    rng = np.random.default_rng(2810)
    # a P-matrix that is not dominant, so alpha_for takes the grid
    cases = [(DenseTensor(2, 2, {(1, 1): 1.0, (1, 2): 2.0, (2, 2): 8.0}), GridSpec())]
    # the ALPHA_GOLDENS tensors, drawn as their test draws them, at their grids
    golden_rng = np.random.default_rng(1212)
    for order, n in dict.fromkeys((order, n) for order, n, *_ in ALPHA_GOLDENS):
        family = "row_power" if order > 2 else "general"
        tensor = manufactured_unique(golden_rng, family, order, n)[0].tensor
        grid = min(g for o, m, g, *_ in ALPHA_GOLDENS if (o, m) == (order, n))
        cases.append((tensor, GridSpec(points_per_axis=grid)))
    tensors = [t for t, *_ in manufactured_diagonal(10, seed=3, single_coord=False)]
    tensors += [inst.tensor for inst in random_diagonal_instances(10, seed=4)]
    for family, order in [("diagonal", 4), ("row_power", 4), ("general", 2)]:
        tensors += [manufactured_unique(rng, family, order, n)[0].tensor for n in (1, 2, 3)]
    for order in (2, 4):
        tensors += [random_sparse_tensor(rng, order, n, 2 * n) for n in (1, 2, 3)]
    cases += [(tensor, GridSpec()) for tensor in tensors]
    for tensor, grid in cases:
        for spec in (grid, GridSpec(points_per_axis=5, refinement_steps=5)):
            for alpha in (alpha_for(tensor, ALPHA_F, spec), estimate_alpha(tensor, ALPHA_F, spec)):
                assert alpha.value <= _norm_root(tensor), (tensor, spec, alpha)


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
    # The sweep's minimizer (-1, 1, 0.5) lies on the edge x_0 = -1, x_1 = 1 of
    # the cube, so the polish's +step trials on x_1 clip out.
    edge = random_sparse_tensor(np.random.default_rng(831274), 4, 3, 9)
    corner_value = _objective(edge, np.array([[-1.0, 1.0, 0.5]]), ALPHA_F)[0]
    assert estimate_alpha(edge, ALPHA_F, GridSpec(5, 0)).value == corner_value
    # The grid holds this diagonal minimizer, so every polish sweep stalls and
    # the step reaches the 1e-12 floor after 37 of them.
    stalls = DenseTensor.from_diagonal([2.0, 5.0, 3.0], order=4)
    # Budgets that end inside a batch of speculated sweeps, or at the floor.
    for steps in (0, 1, 2, 4, 5, 6, 37, 38, 60):
        cases += [
            (HAND3, ALPHA_T, GridSpec(7, steps)),
            (edge, ALPHA_F, GridSpec(5, steps)),
            (stalls, ALPHA_F, GridSpec(5, steps)),
            (DenseTensor(4, 1, {(1, 1, 1, 1): 2.0}), ALPHA_T, GridSpec(3, steps)),
        ]
    # Faces with fewer points than a polish batch has rows.
    for n, grids in ((2, range(2, 10)), (3, (2, 3))):
        t = random_sparse_tensor(rng, 4, n, 2 * n + 1)
        cases += [(t, kind, GridSpec(g)) for g in grids for kind in (ALPHA_T, ALPHA_F)]
    for t, kind, spec in cases:
        assert estimate_alpha(t, kind, spec).value.hex() == _reference_alpha(t, kind, spec).hex()


def test_polish_batches_the_sweeps_after_the_current_one(monkeypatch):
    import tcpbounds.operators as operators_module

    sizes = []
    objective = operators_module._objective

    def recording(tensor, points, kind):
        sizes.append(len(points))
        return objective(tensor, points, kind)

    monkeypatch.setattr(operators_module, "_objective", recording)

    def polish_sizes(tensor, kind, spec):
        # The sweep does not depend on the budget, so it makes the first calls.
        sizes.clear()
        estimate_alpha(tensor, kind, GridSpec(spec.points_per_axis, 0))
        sweep_calls = len(sizes)
        sizes.clear()
        estimate_alpha(tensor, kind, spec)
        return sizes[sweep_calls:]

    # The last number is the polish's calls when a batch held only the rest
    # of the current sweep.
    for seed, family, order, n, g, kind, one_sweep_calls in [
        (2301, "general", 2, 4, 21, ALPHA_F, 79),
        (2302, "row_power", 4, 4, 21, ALPHA_T, 83),
    ]:
        t = manufactured_unique(np.random.default_rng(seed), family, order, n)[0].tensor
        polish = polish_sizes(t, kind, GridSpec(g))
        assert 0 < 2 * len(polish) < one_sweep_calls
        assert max(polish) <= (_SPECULATE + 1) * 2 * (n - 1)
    # The grid holds the minimizer -e_1 and no trial from it clips, so every
    # sweep stalls: 37 sweeps of 4 trials reach the 1e-12 step floor,
    # _SPECULATE + 1 sweeps to a batch.
    stalls = DenseTensor.from_diagonal([2.0, 5.0, 3.0], order=4)
    polish = polish_sizes(stalls, ALPHA_F, GridSpec(5, 60))
    assert sum(polish) == 37 * 4
    assert len(polish) == -(-37 // (_SPECULATE + 1))


def test_face_sweep_bounds_each_boundary_point_and_evaluates_few(monkeypatch):
    import tcpbounds.operators as operators_module

    calls = []
    batch = operators_module.contract_m1_batch

    def recording(tensor, points, **kwargs):
        result = batch(tensor, points, **kwargs)
        # An open grid's len() is its dimension, so count the result's rows.
        calls.append((result.shape[0], kwargs.get("component")))
        return result

    monkeypatch.setattr(operators_module, "contract_m1_batch", recording)
    t = manufactured_unique(np.random.default_rng(2231), "row_power", 4, 5)[0].tensor
    g, n = 11, 5
    boundary = g**n - (g - 2) ** n
    # The full rows of a sweep that evaluated the first block's first
    # _CHUNK rows unbounded, as there was no best value to meet.
    for kind, unseeded_full in ((ALPHA_F, 9072), (ALPHA_T, 5615)):
        # No polish, so every call belongs to the sweep.
        spec = GridSpec(points_per_axis=g, refinement_steps=0)
        want = _reference_alpha(t, kind, spec)
        calls.clear()
        assert estimate_alpha(t, kind, spec).value.hex() == want.hex()
        # Every boundary point is bounded once, block by block.  The first
        # full call holds the first block's rows with the smallest raw
        # terms, whose best value the block is then bounded against; later,
        # only the rows a bound cannot rule out are evaluated in full.
        assert calls[0][1] is not None and calls[1][1] is None
        assert 0 < calls[1][0] <= _SEED_ROWS
        bounded = sum(rows for rows, component in calls if component is not None)
        assert bounded == boundary
        full, block = 0, 0
        for rows, component in calls:
            if component is None:
                assert 0 < rows <= min(_CHUNK, block)
                full += rows
            else:
                block = rows
        assert full < unseeded_full


# Best values at the edges of the float range: zeros, subnormals, and
# powers that underflow (1e-110 cubed) or overflow (1e103 cubed).
EDGE_BESTS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-110, -1e-110, 1e103, -1e103]


@pytest.mark.parametrize(
    "order, kind", [(2, ALPHA_F), (2, ALPHA_T), (3, ALPHA_T), (4, ALPHA_F), (4, ALPHA_T)]
)
def test_raw_terms_above_the_level_have_pinned_terms_above_the_best_value(order, kind):
    # Every row the sweep prunes on its raw term, that is every raw term
    # above _prune_level's level, has a pinned term s * (op x)_f, taken from
    # the map on the built points, strictly above the best value, so the
    # sweep keeps every row that could tie it.  Best values drawn from the
    # block's own pinned terms tie some rows exactly.
    rng = np.random.default_rng(3300 + 10 * order + (kind == ALPHA_T))
    for _ in range(12):
        n = int(rng.integers(1, 5))
        g = int(rng.integers(2, 8))
        scale = float(rng.choice([1.0, 1e-320, 1e-310, 1e-200, 1e100, 1e300]))
        t = random_sparse_tensor(rng, order, n, int(rng.integers(1, 3 * n + 2)), -scale, scale)
        # Interior axis values need not be a linspace.
        axis = np.concatenate([[-1.0], np.sort(rng.uniform(-1.0, 1.0, g - 2)), [1.0]])
        for fixed in range(n):
            for sign in (-1.0, 1.0):
                for coords in _face_blocks(axis, n, fixed, sign):
                    raw = _pinned_terms(t, coords, kind, fixed, sign)
                    pinned = sign * _map_batch(t, _block_points(coords), kind)[:, fixed]
                    bests = [*rng.choice(pinned, min(8, pinned.size), replace=False), *EDGE_BESTS]
                    for best in map(float, bests):
                        pruned = raw > _prune_level(kind, order, best)
                        assert np.all(pinned[pruned] > best), (n, fixed, sign, best)


@pytest.mark.parametrize("n, g", [(7, 2), (7, 3), (8, 2), (8, 3)])
def test_face_sweep_keeps_the_reference_bits_at_seven_and_eight_coordinates(n, g):
    t = random_sparse_tensor(np.random.default_rng(70 + n), 4, n, 3 * n)
    for kind in (ALPHA_T, ALPHA_F):
        spec = GridSpec(points_per_axis=g, refinement_steps=3)
        assert estimate_alpha(t, kind, spec).value.hex() == _reference_alpha(t, kind, spec).hex()


def _scaled(tensor, factor):
    return DenseTensor(tensor.order, tensor.dim, {k: v * factor for k, v in tensor.entries.items()})


def _huge(tensor):
    """``tensor`` scaled so that ``||A||_inf`` sits just below the largest float."""
    return _scaled(tensor, np.finfo(float).max / tensor_inf_norm(tensor) / (1 + 1e-12))


# Row-power P-tensors of orders 4 and 2, and their copies at the ends of the
# float range.
ROW_POWER = manufactured_unique(np.random.default_rng(5), "row_power", 4, 3)[0].tensor
HUGE_ROW_POWER = _huge(ROW_POWER)
ROW_POWER_2 = manufactured_unique(np.random.default_rng(6), "row_power", 2, 3)[0].tensor

# A zero alpha: the objective is +-0.0 at several points of a chunk.
ZERO_ALPHA = DenseTensor(
    2, 4, {(3, 1): 1.7400020656041257, (1, 1): 0.2904806817346346, (2, 3): 1.7376551588391367}
)


@pytest.mark.parametrize(
    "tensor, kind, spec",
    [
        # Corners only.
        (random_sparse_tensor(np.random.default_rng(7), 4, 4, 12), ALPHA_F, GridSpec(2, 20)),
        (random_sparse_tensor(np.random.default_rng(8), 2, 3, 7), ALPHA_T, GridSpec(2, 20)),
        # One coordinate, so no free one to bound.
        (DenseTensor(4, 1, {(1, 1, 1, 1): 2.0}), ALPHA_F, GridSpec(5, 10)),
        (DenseTensor(3, 1, {(1, 1, 1): -3.0}), ALPHA_T, GridSpec(5, 10)),
        # Odd order, where only T is defined.
        (
            manufactured_unique(np.random.default_rng(9), "row_power", 3, 4)[0].tensor,
            ALPHA_T,
            GridSpec(9, 30),
        ),
        (random_sparse_tensor(np.random.default_rng(10), 3, 4, 14), ALPHA_T, GridSpec(9, 30)),
        # Not P, so the best value is negative; on face 3 the pinned term,
        # from 0.5 x_1, is +-0.0 wherever x_1 = 0, and the whole face is pruned.
        (DenseTensor(2, 3, {(1, 1): -1.0, (2, 2): -1.0, (3, 1): 0.5}), ALPHA_F, GridSpec(9, 30)),
        (
            DenseTensor(4, 3, {(1, 1, 1, 1): -1.0, (2, 2, 2, 2): -1.0, (3, 1, 1, 1): 0.5}),
            ALPHA_T,
            GridSpec(9, 30),
        ),
        # Row 4 is empty, so its term is +-0.0 everywhere, the objective is
        # never below it and the best value is a zero: on face 4 every bound
        # ties the best value, so no row there may be pruned, whatever the
        # signs of the zeros.
        (ZERO_ALPHA, ALPHA_T, GridSpec(11, 51)),
        (ZERO_ALPHA, ALPHA_F, GridSpec(11, 51)),
        # alpha(F) ~ 5e-104, whose cube underflows, and alpha(T), subnormal:
        # no level can be formed, so nothing is pruned.
        (_scaled(ROW_POWER, 1e-310), ALPHA_F, GridSpec(9, 20)),
        (_scaled(ROW_POWER, 1e-310), ALPHA_T, GridSpec(9, 20)),
        # The first best value, the cube root of the largest float, has a
        # widened cube that overflows; then alpha(F) = 1e308^(1/3).
        (
            DenseTensor.from_diagonal([np.finfo(float).max, 1e308, 1.7e308], order=4),
            ALPHA_F,
            GridSpec(9, 20),
        ),
        # Levels near 4e307.
        (HUGE_ROW_POWER, ALPHA_F, GridSpec(9, 20)),
        (HUGE_ROW_POWER, ALPHA_T, GridSpec(9, 20)),
        # Both ends of the float range at orders 2 and 4, where the sweep's
        # finite terms and values are what let it seed and compare without
        # a NaN or infinity guard.
        *[
            (tensor, kind, GridSpec(9, 20))
            for tensor in (
                _huge(ROW_POWER_2),
                _scaled(ROW_POWER_2, 1e-300),
                _scaled(ROW_POWER, 1e-300),
            )
            for kind in (ALPHA_F, ALPHA_T)
        ],
    ],
)
def test_face_sweep_pruning_keeps_the_reference_bits(monkeypatch, tensor, kind, spec):
    import tcpbounds.operators as operators_module

    # Every raw term block and objective value the sweep and polish form is
    # finite: entries are finite, ||A||_inf does not overflow and every point
    # lies in [-1, 1]^n with ||x||_2 >= 1.
    formed = []

    def recorded(name, inner):
        def wrapper(*args):
            formed.append((name, inner(*args)))
            return formed[-1][1]

        return wrapper

    for name in ("_pinned_terms", "_objective"):
        monkeypatch.setattr(operators_module, name, recorded(name, getattr(operators_module, name)))
    got = estimate_alpha(tensor, kind, spec).value
    assert {name for name, _ in formed} == {"_pinned_terms", "_objective"}
    assert all(np.isfinite(values).all() for _, values in formed)
    assert got.hex() == _reference_alpha(tensor, kind, spec).hex()


def test_a_zero_alpha_is_positive_zero():
    # The grid-7 minimum is a zero that np.min returns as -0.0 on its pruned
    # chunk and on the whole one; the estimate is +0.0 for either map.
    t = DenseTensor(2, 3, {(2, 2): -0.08146018725967341, (2, 3): 0.056946241876765225})
    for kind in (ALPHA_T, ALPHA_F):
        assert estimate_alpha(t, kind, GridSpec(7)).value.hex() == "0x0.0p+0"


def test_dominance_bound_is_certified_and_below_every_boundary_value():
    # Every boundary point scores at least min_i (a_i - r_i)^{1/(m-1)} on a
    # dominant even-order tensor: the grid estimate with its polish, and
    # random points with one coordinate pinned at +-1.
    rng = np.random.default_rng(2404)
    for family, order, n in [("general", 2, 2), ("general", 2, 4), ("row_power", 4, 3)] * 4:
        t = manufactured_unique(rng, family, order, n)[0].tensor
        est = alpha_for(t, ALPHA_F, GridSpec(9))
        assert (est.method, est.certified, est.kind) == (DOMINANCE_BOUND, True, ALPHA_F)
        # alpha_T has no dominance bound.
        assert alpha_for(t, ALPHA_T, GridSpec(9)).method == GRID_REFINED
        a = t.diagonal()
        rows = np.zeros(n)
        for idx, v in t.entries.items():
            rows[idx[0] - 1] += abs(v)
        assert est.value == pytest.approx(min(2 * a - rows) ** (1.0 / (order - 1)), rel=1e-14)
        pts = rng.uniform(-1.0, 1.0, (2000, n))
        pts[np.arange(2000), rng.integers(0, n, 2000)] = rng.choice([-1.0, 1.0], 2000)
        grid = estimate_alpha(t, ALPHA_F, GridSpec(9)).value
        assert est.value <= min(_objective(t, pts, ALPHA_F).min(), grid) * (1.0 + 1e-12)


def test_dominance_bound_is_the_closed_form_on_a_positive_diagonal():
    rng = np.random.default_rng(63)
    for order in (2, 4, 6):
        for n in (1, 3, 6):
            diag = rng.uniform(0.5, 10.0, n)
            t = DenseTensor.from_diagonal(diag, order=order)
            want = min(float(a) ** (1.0 / (order - 1)) for a in diag)
            assert _dominance_alpha(t).hex() == want.hex()
            assert alpha_for(t, ALPHA_F).method == CLOSED_FORM_DIAGONAL


@pytest.mark.parametrize(
    "entries",
    [
        # Row 1's diagonal entry equals its off-diagonal sum.
        {(1, 1): 2.0, (1, 2): -2.0, (2, 2): 3.0},
        # A negative diagonal entry, and a missing one.
        {(1, 1): -2.0, (2, 2): 3.0},
        {(1, 1): 2.0, (2, 1): 0.5},
    ],
)
def test_alpha_for_takes_the_grid_unless_every_row_is_dominant(entries):
    t = DenseTensor(2, 2, entries)
    assert alpha_for(t, ALPHA_F, GridSpec(5)) == estimate_alpha(t, ALPHA_F, GridSpec(5))


def test_dominance_bound_does_not_depend_on_the_entry_order():
    # Row 1's off-diagonal entries sum to 1 + 2e-16 in index order, but to 1
    # when the 1.0 is added first, which moved alpha by one ulp.
    entries = {
        (1, 1, 1, 1): 2.0, (1, 2, 2, 2): 1.0, (1, 1, 1, 2): 1e-16, (1, 1, 2, 2): 1e-16,
        (2, 2, 2, 2): 4.0,
    }
    tiny_first = [(1, 1, 1, 2), (1, 1, 2, 2), (1, 1, 1, 1), (1, 2, 2, 2), (2, 2, 2, 2)]
    given = alpha_for(DenseTensor(4, 2, entries))
    reordered = alpha_for(DenseTensor(4, 2, {idx: entries[idx] for idx in tiny_first}))
    assert given.method == reordered.method == DOMINANCE_BOUND
    assert given.value.hex() == reordered.value.hex()


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


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda t: GridSpec(points_per_axis=7.0), "points_per_axis"),
        (lambda t: GridSpec(refinement_steps=2.5), "refinement_steps"),
        (lambda t: GridSpec(refinement_steps=True), "refinement_steps"),
        (lambda t: check_p_tensor_sampled(t, sample_count=3.5), "sample_count"),
        (lambda t: check_p_tensor_sampled(t, sample_count=True), "sample_count"),
        (lambda t: check_p_tensor_sampled(t, seed=0.5), "seed"),
    ],
)
def test_non_integer_counts_are_refused_by_name(make, name):
    # Each used to pass the constructor, or to fail later with a bare
    # TypeError from np.linspace, range or the random generator.
    with pytest.raises(ValueError, match=name):
        make(HAND3)


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
    # apply_T and apply_F are one-row views of the map the alpha sweep uses.
    # Batches of several sizes, as in the sweep and the polish; each row is
    # max(x * op(x)) of the public map, bit for bit, and kind None is the
    # bare contraction of the sampled check.
    rng = np.random.default_rng(17)
    tensors = [HAND3] + [
        random_sparse_tensor(rng, order, dim, nnz)
        for order, dim, nnz in ((2, 5, 14), (4, 3, 7), (6, 2, 7))
    ]
    for t in tensors:
        maps = {ALPHA_T: apply_T, None: contract_m1}
        if t.order % 2 == 0:
            maps[ALPHA_F] = apply_F
        for kind, apply in maps.items():
            for k in (300, 5, 1):
                pts = rng.uniform(-1.0, 1.0, (k, t.dim))
                pts[0] = 0.0
                vals = _objective(t, pts, kind)
                want = [np.max(x * apply(t, x)) for x in pts]
                assert np.array_equal(vals.view(np.uint64), np.array(want).view(np.uint64))


def test_grid_spec_has_no_initial_step_option():
    with pytest.raises(TypeError):
        GridSpec(initial_step=0.1)


def test_check_p_evaluates_each_point_once(monkeypatch):
    import tcpbounds.operators as operators_module

    rows = []
    batch = operators_module.contract_m1_batch

    def counting(tensor, points, **kwargs):
        rows.append(len(points))
        return batch(tensor, points, **kwargs)

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


def test_a_refuted_check_stops_at_its_witness(monkeypatch):
    import tcpbounds.operators as operators_module

    rows = []
    batch = operators_module.contract_m1_batch

    def counting(tensor, points, **kwargs):
        rows.append(len(points))
        return batch(tensor, points, **kwargs)

    monkeypatch.setattr(operators_module, "contract_m1_batch", counting)
    # e_1 scores 0.0, so the unit vectors refute the tensor and no sample is
    # drawn; the fields are those of a pass over all 200 006 points.
    t = random_sparse_tensor(np.random.default_rng(5), 4, 3, 20)
    check = check_p_tensor_sampled(t, sample_count=200_000, seed=1)
    assert rows == [6]
    assert check.verdict == NOT_P and check.points_checked == 200_006
    assert check.witness.tolist() == [1.0, 0.0, 0.0]
    assert check.witness_value.hex() == "0x0.0p+0"


@pytest.mark.parametrize("n, sample_count", [(1, 1), (3, 64), (2, 2 * _CHUNK + 5)])
def test_sample_chunks_equal_one_draw(n, sample_count):
    # Unit vectors first, then one uniform draw scaled to max-norm 1: drawing
    # _CHUNK rows at a time takes the same numbers.
    rng = np.random.default_rng(8)
    raw = rng.uniform(-1.0, 1.0, size=(sample_count, n))
    want = np.vstack([np.eye(n), -np.eye(n), raw / np.max(np.abs(raw), axis=1)[:, None]])
    chunks = list(_sample_chunks(n, sample_count, 8))
    assert all(chunk.shape[0] <= _CHUNK for chunk in chunks)
    assert np.array_equal(np.vstack(chunks).view(np.uint64), want.view(np.uint64))


def test_check_p_in_chunks_equals_one_batch():
    t = DenseTensor(2, 2, {(1, 1): 1.0, (1, 2): -3.0, (2, 1): -3.0, (2, 2): 1.0})
    count = 2 * _CHUNK + 5
    points = np.vstack(list(_sample_chunks(2, count, 4)))
    values = np.max(points * contract_m1_batch(t, points), axis=1)
    first = np.flatnonzero(values <= 0.0)[0]
    check = check_p_tensor_sampled(t, sample_count=count, seed=4)
    assert check.verdict == NOT_P and check.points_checked == points.shape[0]
    assert np.array_equal(check.witness, points[first])
    assert check.witness_value == values[first]


def test_check_p_memory_does_not_grow_with_sample_count():
    # Points are drawn and evaluated _CHUNK at a time, so the peak is a
    # chunk's worth whatever sample_count is; one batch over all 200 006
    # points needs about 91 MB.
    t = random_sparse_tensor(np.random.default_rng(5), 4, 3, 20)
    tracemalloc.start()
    try:
        check = check_p_tensor_sampled(t, sample_count=200_000, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.points_checked == 200_006
    assert peak < 8 * _CHUNK * (_work_rows(t) + 8 * t.dim)
