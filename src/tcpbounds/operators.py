"""Homogeneous operator maps and the min-max coefficient behind the P-property.

A tensor ``A`` is a P-tensor exactly when every nonzero ``x`` has some
component ``i`` with ``x_i * (A x^{m-1})_i > 0``.  The quantitative version
used by the error bounds is

    alpha(op) = min over ||x||_inf = 1 of  max_i  x_i * (op x)_i

for the degree-1 positively homogeneous maps ``T`` (Euclidean-normalized
contraction) and ``F`` (signed-rooted contraction).  ``alpha > 0`` certifies
the P-property; the bound formulas consume ``alpha(F)``.

The minimum is estimated deterministically: the boundary of the cube
``[-1, 1]^n`` is swept face by face on a regular grid, each boundary grid
point visited once, and the best point is polished with coordinate
descent.  Each face ``x_f = s`` is walked in blocks, open grids of its
trailing coordinates.  The objective is at least its pinned term
``s * (op x)_f``.  A block's raw terms ``u = s * (A x^{m-1})_f``, one
component of the contraction, are formed at once by broadcasting, with no
point built; ``T``'s are divided by ``||x||_2^{m-2}``, and ``F``'s root is
never taken.  Then, ``_CHUNK`` rows at a time, the best value so far is
carried into the raw terms' units, widened so that a row above it has a
pinned term strictly above the best value, and only the other rows are
built and evaluated in full.  A pruned row could neither lower nor tie
the best value, so the value and its tie-break point are those of the
full sweep.  The first block is bounded too, against the best of its few
rows with the smallest raw terms, evaluated before it.

Row maxima are taken column by column.  Each polish batch evaluates, from
the current point, the rest of the current sweep and the next few whole
sweeps, each at the step it takes if the sweeps before it stall; the first
improving trial is the one a one-trial-at-a-time first-improvement search
accepts, so the accepted steps, and so the value, are that search's.
Grid estimates never undershoot the true minimum, so a positive estimate is
evidence, not proof.  One formula is certified: the dominance bound of an
even-order tensor whose every diagonal entry exceeds the absolute sum of its
row's other entries, which on a positive diagonal tensor is the closed form.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .tensor import (
    DenseTensor,
    _as_vector,
    _require_even_order,
    _require_int,
    _require_positive_diagonal,
    _row_max,
    contract_m1_batch,
    signed_root,
)

__all__ = [
    "ALPHA_T",
    "ALPHA_F",
    "CLOSED_FORM_DIAGONAL",
    "DOMINANCE_BOUND",
    "GRID_REFINED",
    "LIKELY_P",
    "NOT_P",
    "GridSpec",
    "AlphaEstimate",
    "PTensorCheck",
    "apply_T",
    "apply_F",
    "estimate_alpha",
    "alpha_for",
    "diagonal_alpha_estimate",
    "check_p_tensor_sampled",
]

ALPHA_T = "alpha_T"
ALPHA_F = "alpha_F"
CLOSED_FORM_DIAGONAL = "closed_form_diagonal"
DOMINANCE_BOUND = "dominance_bound"
GRID_REFINED = "grid_refined"
LIKELY_P = "LIKELY_P"
NOT_P = "NOT_P"

_CHUNK = 4096
# Most grid points in one face block, whose pinned terms are formed at once.
_GRID_BLOCK = 1 << 14
# Relative widening of a pruning level, far above the rounding it covers
# (see _prune_level).
_MARGIN = 2.0**-30
# Rows of the first face block evaluated before its bound: its smallest raw terms.
_SEED_ROWS = 8
# Step of the first polish sweep; it halves whenever a sweep stalls.
_INITIAL_STEP = 0.1
# Whole polish sweeps evaluated ahead, in case the ones before them stall.
_SPECULATE = 4


@dataclass(frozen=True)
class GridSpec:
    """Deterministic search schedule for :func:`estimate_alpha`.

    ``points_per_axis`` grid points per free coordinate on each cube face
    (odd counts include 0, which is what lets diagonal minimizers be hit
    exactly), then ``refinement_steps`` sweeps of coordinate descent with the
    step halving from ``0.1`` whenever a sweep stalls.  ``points_per_axis``
    runs from 2 to ``_GRID_BLOCK`` (16 384), so one face axis fits a block.
    """

    points_per_axis: int = 41
    refinement_steps: int = 50

    def __post_init__(self):
        _require_int(self.points_per_axis, "points_per_axis", 2)
        _require_int(self.refinement_steps, "refinement_steps", 0)
        if self.points_per_axis > _GRID_BLOCK:
            raise ValueError(
                f"points_per_axis must be at most {_GRID_BLOCK}, got {self.points_per_axis}"
            )


@dataclass(frozen=True)
class AlphaEstimate:
    """An alpha value plus enough provenance to judge what it certifies.

    ``certified`` is True for the diagonal closed form and the dominance
    bound, which are at most the true minimum; grid estimates are upper bounds
    on it (the search samples a subset of the sphere), so a positive
    uncertified value is not a proof of the P-property.
    """

    value: float
    kind: str
    method: str
    grid_points_per_axis: int
    refinement_steps: int
    certified: bool


@dataclass(frozen=True, eq=False)
class PTensorCheck:
    """Outcome of sampling the P-defining objective on the unit sphere.

    A nonpositive value ends the check; ``points_checked`` is still the
    sample's size, ``2 n + sample_count``.
    """

    verdict: str
    witness: np.ndarray | None
    witness_value: float | None
    points_checked: int


def apply_T(tensor: DenseTensor, x) -> np.ndarray:
    """Euclidean-normalized contraction ``||x||_2^{2-m} * A x^{m-1}``.

    Positively homogeneous of degree 1; maps 0 to 0 by convention.
    """
    return _map_batch(tensor, _as_vector(x, tensor.dim, "x")[None, :], ALPHA_T)[0]


def apply_F(tensor: DenseTensor, x) -> np.ndarray:
    """Rooted contraction ``(A x^{m-1})^{[1/(m-1)]}``; requires even order."""
    _require_even_order(tensor, "apply_F")
    return _map_batch(tensor, _as_vector(x, tensor.dim, "x")[None, :], ALPHA_F)[0]


def _map_batch(tensor: DenseTensor, points: np.ndarray, kind: str | None) -> np.ndarray:
    """``T``, ``F`` or, for ``kind=None``, the bare contraction of each row of ``points``.

    ``T``'s factor is applied in place to the result of
    :func:`contract_m1_batch`, a ``(k, n)`` view whose transpose is contiguous.
    """
    if kind == ALPHA_T:
        norms = np.sqrt((points * points).sum(axis=1))
        factors = np.zeros(norms.shape)
        nz = norms > 0.0
        factors[nz] = norms[nz] ** (2 - tensor.order)
    mapped = contract_m1_batch(tensor, points)
    if kind == ALPHA_T:
        # Transposed, a row's factor meets every entry of it.
        np.multiply(mapped.T, factors, out=mapped.T)
    elif kind == ALPHA_F:
        mapped = signed_root(mapped, tensor.order - 1)
    return mapped


def _objective(tensor: DenseTensor, points: np.ndarray, kind: str | None) -> np.ndarray:
    """``max_i x_i * (op x)_i`` for each row of ``points``, ``op`` as in :func:`_map_batch`."""
    mapped = _map_batch(tensor, points, kind)
    # Column i of ``mapped`` is contiguous, laid out as the kernel's output.
    return _row_max(np.multiply(points, mapped, out=mapped))


def _face_blocks(axis: np.ndarray, n: int, fixed: int, sign: float):
    """Open grids holding the points of the face ``x[fixed] = sign`` that no earlier face holds.

    The coordinates before ``fixed`` take only the interior axis values (a
    point with an earlier ``|x_j| = 1`` lies on face ``j``), the later ones
    every value, so over ``fixed = 0 .. n-1`` each boundary grid point comes
    once.  A block holds the trailing free coordinates, as many as fit in
    ``_GRID_BLOCK`` points, as ``np.ix_`` axes; :class:`GridSpec` caps an
    axis at ``_GRID_BLOCK`` values, so it holds at least the last one.  The
    leading coordinates are scalars, taking their values in
    ``itertools.product`` order, so the blocks' points, each block in C
    order, come in product order of the free coordinates, and no block has
    more than ``_GRID_BLOCK`` points whatever the size of the face.  Each
    grid is a list of ``n`` coordinates.
    """
    values = [axis[1:-1]] * fixed + [axis] * (n - 1 - fixed)
    if 0 in (v.size for v in values):
        return
    # Free coordinate i sits in column i of a point, or i + 1 past ``fixed``.
    cols = [i + (i >= fixed) for i in range(n - 1)]
    lead = n - 1
    while lead and math.prod(v.size for v in values[lead - 1 :]) <= _GRID_BLOCK:
        lead -= 1
    # Every block of the face shares these axes.
    tail = np.ix_(*values[lead:])
    for lead_values in itertools.product(*values[:lead]):
        coords = [sign] * n
        for col, x in zip(cols, lead_values + tail):
            coords[col] = x
        yield coords


def _grid_points(coords: list, rows: np.ndarray) -> np.ndarray:
    """The points at the flat C-order positions ``rows`` of a face block.

    ``coords`` is a grid as :func:`_face_blocks` makes it: scalars, and the
    block's ``np.ix_`` axes in column order, so the ``d``-th array among
    them varies along dimension ``d``.
    """
    sizes = [np.size(x) for x in coords if np.ndim(x)]
    at = iter(np.unravel_index(rows, sizes) if sizes else ())
    points = np.empty((rows.size, len(coords)))
    for j, x in enumerate(coords):
        points[:, j] = x.ravel()[next(at)] if np.ndim(x) else x
    return points


def _pinned_terms(
    tensor: DenseTensor, coords: list, kind: str, face: int, sign: float
) -> np.ndarray:
    """The raw pinned terms of the face block ``coords``, flat in C order.

    Each is ``u = sign * (A x^{m-1})[face]``, the contraction's own column as
    :func:`contract_m1_batch` forms it on the open grid, so it equals the
    full kernel's bit for bit.  Past order 2, ``T``'s are divided by
    ``rho = ||x||_2^{m-2}``, a power of the sum of squares; on a face
    ``rho >= 1``, so the quotient cannot overflow.  :func:`_prune_level`
    turns a best value into these units.
    """
    term = contract_m1_batch(tensor, coords, component=face)
    term *= sign
    if kind == ALPHA_T and tensor.order > 2:
        squares = sum(x * x for x in coords)
        term /= np.ravel(squares ** (0.5 * (tensor.order - 2)))
    return term


def _prune_level(kind: str, order: int, best: float) -> float:
    """The level above which a raw term of :func:`_pinned_terms` is pruned against ``best``.

    A raw term above the level has a pinned term ``s * (op x)_f``, the
    objective's own column, strictly above ``best``, so every row that
    could tie ``best`` is kept.

    - Order 2: the raw term is the pinned term (``F``'s root is of order 1,
      ``T``'s factor is ``1.0``), so the level is ``best``, exactly.
    - ``F``: the root is odd-symmetric, so the pinned term is the root of
      the raw term ``u``.  For ``best = 0`` the level is ``0``: a positive
      ``u`` has a positive root.  Otherwise it is ``sign(best) |best|^r``,
      ``r = m - 1``, widened outward by ``_MARGIN`` relative.  The rounding
      of ``1/r`` moves a root by a factor ``u^(d/r)`` with ``|d| <= 2^-53``
      and ``|ln u| <= 745``, and ``pow`` adds an ulp, so the computed root
      is within ``1e-13`` relative of the true one, far inside the widening.
    - ``T``: the raw term is the pinned term up to the rounding of ``rho``
      and of the objective's factor, a few ``m n eps`` relative; the level
      is ``best`` widened outward by ``_MARGIN`` relative.

    Where that argument fails the level is ``+inf``, which keeps every row:
    where the power of ``|best|`` is subnormal, zero or overflows, and for
    ``T`` with ``best = 0``, where ``u`` times the factor can underflow to a
    tie.
    """
    if order == 2:
        return best
    if kind == ALPHA_F and best == 0.0:
        return 0.0
    try:
        level = abs(best) ** (order - 1 if kind == ALPHA_F else 1)
    except OverflowError:
        return math.inf
    if not sys.float_info.min <= level < math.inf:
        return math.inf
    return level * (1.0 + _MARGIN) if best > 0.0 else -level * (1.0 - _MARGIN)


def _lower(best: tuple, points: np.ndarray, values: np.ndarray, face: int) -> tuple:
    """``best``, a ``(value, point, face)``, or the rows' least value and point if lower.

    The point is the lexicographically smallest row with the least value,
    and it replaces ``best`` when its value is lower, or equal with a
    smaller point, so the result does not depend on how the rows come.
    """
    local_min = float(values.min())
    if local_min > best[0]:
        return best
    local_point = min(tuple(points[i]) for i in np.flatnonzero(values == local_min))
    if local_min < best[0] or local_point < best[1]:
        return local_min, local_point, face
    return best


def estimate_alpha(
    tensor: DenseTensor, kind: str = ALPHA_F, grid: GridSpec | None = None
) -> AlphaEstimate:
    """Estimate ``alpha`` by a face-grid sweep plus coordinate-descent polish.

    The boundary of ``[-1, 1]^n`` is covered by the ``2 n`` faces; each face is
    sampled on a regular grid of ``points_per_axis`` values per free
    coordinate, and a grid point on several faces is visited once, on the
    first face ``x_j = +-1`` it lies on.  Ties are broken toward the
    lexicographically smallest point, so the result is independent of
    evaluation schedule.

    Each face is walked in blocks of at most ``_GRID_BLOCK`` points, open
    grids of its trailing free coordinates (see :func:`_face_blocks`).  A
    block's raw pinned terms, one component of the contraction, are formed
    on the open grid in one kernel call (see :func:`_pinned_terms`).  Then,
    ``_CHUNK`` rows at a time in product order, the best value so far is
    turned into a level in the raw terms' units (see :func:`_prune_level`),
    and only the rows whose raw term is not above it are built and get the
    full objective; the best value is updated between them.  Before the
    first block is bounded, its ``_SEED_ROWS`` rows with the smallest raw
    terms are evaluated, and their best gives the first best value.  The
    objective is the maximum of terms that include the pinned one, bit for
    bit, and a raw term above the level has a pinned term above the best
    value, so a skipped row could neither beat nor tie it.  The rows the
    level keeps include every row the pinned terms themselves would, so
    the value and its tie-break point are the full sweep's.

    The best point is then polished with coordinate descent that keeps the
    face's pinned coordinate at +-1 and clips the rest to ``[-1, 1]``, so
    every iterate stays on the unit sphere.  Each sweep tries ``+step`` then
    ``-step`` per free coordinate and accepts the first trial that improves;
    the step halves after a sweep that improves nothing, and the polish stops
    after ``refinement_steps`` sweeps or once the step falls below 1e-12.

    One batch, evaluated from the current point, holds the untried rest of
    the current sweep and then up to ``_SPECULATE`` whole sweeps, each a
    segment at the step it takes if every sweep before it stalls (halved
    after a stalled sweep that improved nothing, kept after an improving
    one), none past the budget or the step floor.  A stalled sweep leaves the
    point where it was, so every segment before the first improving row is
    exactly the stalled sweep the one-trial-at-a-time search runs, and that
    row is the trial it accepts; the trials after it start from the new point
    in the next batch.  The kernel computes each row on its own, so the
    accepted steps, and the value, are that search's bit for bit, and a trial
    that clips to the current coordinate is the current point, scores the
    current value and is never accepted.

    A zero alpha is returned as ``+0.0``: every comparison above treats
    ``-0.0`` and ``+0.0`` as equal, and which one ``np.min`` returns depends
    on where the zeros sit in a chunk.
    """
    if kind not in (ALPHA_T, ALPHA_F):
        raise ValueError(f"kind must be {ALPHA_T!r} or {ALPHA_F!r}, got {kind!r}")
    if kind == ALPHA_F:
        _require_even_order(tensor, "alpha_F")
    grid = grid or GridSpec()
    n = tensor.dim
    axis = np.linspace(-1.0, 1.0, grid.points_per_axis)
    best = (np.inf, None, 0)
    for fixed in range(n):
        for sign in (-1.0, 1.0):
            for coords in _face_blocks(axis, n, fixed, sign):
                term = _pinned_terms(tensor, coords, kind, fixed, sign)
                if best[1] is None:
                    # A best value to bound the first block against: its
                    # rows with the smallest raw terms.
                    rows = np.argpartition(term, min(_SEED_ROWS, term.size) - 1)[:_SEED_ROWS]
                    pts = _grid_points(coords, rows)
                    best = _lower(best, pts, _objective(tensor, pts, kind), fixed)
                for start in range(0, term.size, _CHUNK):
                    level = _prune_level(kind, tensor.order, best[0])
                    keep = np.flatnonzero(term[start : start + _CHUNK] <= level)
                    if keep.size == 0:
                        continue
                    pts = _grid_points(coords, start + keep)
                    best = _lower(best, pts, _objective(tensor, pts, kind), fixed)

    value, best_point, best_face = best
    point = np.array(best_point)
    # Trial order of a sweep: (j, +step), (j, -step) for each free j; a batch
    # holds up to _SPECULATE + 1 sweeps back to back.
    free = np.delete(np.arange(n), best_face)
    per_sweep = 2 * free.size
    coords = np.tile(np.repeat(free, 2), _SPECULATE + 1)
    signs = np.tile([1.0, -1.0], free.size)
    sweeps_left = grid.refinement_steps
    step, start, improved = _INITIAL_STEP, 0, False
    # With no free coordinate (n = 1) a batch would be empty.
    while per_sweep and sweeps_left > 0 and step >= 1e-12:
        # Segment i of the batch is a sweep with steps[i], the step it takes
        # if every sweep before it stalls; steps[-1] follows the last one.
        steps = [step]
        for i in range(min(_SPECULATE + 1, sweeps_left)):
            steps.append(steps[-1] if improved and i == 0 else 0.5 * steps[-1])
            if steps[-1] < 1e-12:
                break
        segments = len(steps) - 1
        # The current sweep's first ``start`` trials are already done.
        js = coords[start : segments * per_sweep]
        deltas = np.multiply.outer(steps[:-1], signs).ravel()[start:]
        trials = point[None, :].repeat(js.size, axis=0)
        trials[np.arange(js.size), js] = np.minimum(np.maximum(point[js] + deltas, -1.0), 1.0)
        vals = _objective(tensor, trials, kind)
        better = (vals < value).nonzero()[0]
        if better.size == 0:
            sweeps_left -= segments
            step, start, improved = steps[-1], 0, False
            continue
        # The segments before the accepted trial's are stalled sweeps; the
        # trials after it start from the new point in the next batch.
        k = int(better[0])
        stalled, done = divmod(start + k, per_sweep)
        point, value = trials[k], float(vals[k])
        sweeps_left -= stalled
        step, start, improved = steps[stalled], done + 1, True

    return AlphaEstimate(
        value=value + 0.0,  # -0.0 + 0.0 is +0.0
        kind=kind,
        method=GRID_REFINED,
        grid_points_per_axis=grid.points_per_axis,
        refinement_steps=grid.refinement_steps,
        certified=False,
    )


def _dominance_alpha(tensor: DenseTensor) -> float | None:
    """``min_i (a_i - r_i)^{1/(m-1)}``, or ``None`` unless every ``a_i > r_i``.

    ``a_i`` is row ``i``'s diagonal entry and ``r_i`` the absolute sum of the
    row's other entries, both as the tensor split them when it was built.
    Where ``|x_j| = 1`` is the largest coordinate, the other entries move
    ``(A x^{m-1})_j`` at most ``r_j`` from ``a_j x_j^{m-1}``, so for even
    ``m`` the term ``x_j F_j(x)`` is at least ``(a_j - r_j)^{1/(m-1)}`` on the
    whole boundary of the cube.  On a positive diagonal every ``r_i`` is 0,
    so this is the closed form ``min_i a_i^{1/(m-1)}``, which the unit vector
    of the smallest ``a_i`` attains.
    """
    pairs = list(zip(tensor._diag, tensor._off_sums))
    if not all(a > r for a, r in pairs):
        return None
    root = 1.0 / (tensor.order - 1)
    return min((a - r) ** root for a, r in pairs)


def diagonal_alpha_estimate(tensor: DenseTensor) -> AlphaEstimate:
    """The exact ``alpha(F)`` of a positive diagonal tensor, from :func:`alpha_for`."""
    _require_positive_diagonal(tensor, "closed-form alpha")
    return alpha_for(tensor)


def alpha_for(
    tensor: DenseTensor, kind: str = ALPHA_F, grid: GridSpec | None = None
) -> AlphaEstimate:
    """The alpha estimate every bound and CLI subcommand uses.

    ``alpha(F)`` of an even-order tensor comes from the certified dominance
    bound when every diagonal entry exceeds the absolute sum of its row's
    other entries (``grid`` is then unused), labelled the closed form when
    the tensor is diagonal; anything else from the grid sweep of
    :func:`estimate_alpha`.
    """
    if kind == ALPHA_F:
        _require_even_order(tensor, "alpha_F")
        bound = _dominance_alpha(tensor)
        if bound is not None:
            method = CLOSED_FORM_DIAGONAL if tensor.is_diagonal() else DOMINANCE_BOUND
            return AlphaEstimate(bound, ALPHA_F, method, 0, 0, True)
    return estimate_alpha(tensor, kind, grid)


def _sample_chunks(n: int, sample_count: int, seed: int):
    """The points :func:`check_p_tensor_sampled` evaluates, ``_CHUNK`` rows at a time.

    First the ``2 n`` unit vectors ``+-e_i``, then ``sample_count`` uniform
    draws from ``[-1, 1]^n`` scaled to max-norm 1 (an all-zero draw becomes
    ``e_1``).  Drawing in chunks takes the same values as one large draw.
    """
    units = np.vstack([np.eye(n), -np.eye(n)])
    for start in range(0, 2 * n, _CHUNK):
        yield units[start : start + _CHUNK]
    rng = np.random.default_rng(seed)
    for start in range(0, sample_count, _CHUNK):
        raw = rng.uniform(-1.0, 1.0, size=(min(_CHUNK, sample_count - start), n))
        norms = _row_max(np.abs(raw))
        degenerate = norms == 0.0
        raw[degenerate] = np.eye(n)[0]
        norms[degenerate] = 1.0
        raw /= norms[:, None]
        yield raw


def check_p_tensor_sampled(
    tensor: DenseTensor, sample_count: int = 64, seed: int = 0
) -> PTensorCheck:
    """Sample ``max_i x_i (A x^{m-1})_i`` on the unit sphere, unit vectors first.

    Points are evaluated once each, ``_CHUNK`` at a time, so memory does
    not grow with ``sample_count``.  A nonpositive value disproves the
    P-property and ends the check; the first such point is the witness,
    whose value reproduces exactly under ``max(x * contract_m1(A, x))``:
    the batch kernel equals ``contract_m1`` bit for bit.  Only a clean
    sweep of every point says LIKELY_P: sampling cannot certify it.
    """
    _require_int(sample_count, "sample_count", 1)
    _require_int(seed, "seed", 0)
    size = 2 * tensor.dim + sample_count
    for points in _sample_chunks(tensor.dim, sample_count, seed):
        values = _objective(tensor, points, None)
        hits = np.flatnonzero(values <= 0.0)
        if hits.size:
            return PTensorCheck(NOT_P, points[hits[0]].copy(), float(values[hits[0]]), size)
    return PTensorCheck(LIKELY_P, None, None, size)
