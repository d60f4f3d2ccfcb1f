"""Homogeneous operator maps and the min-max coefficient behind the P-property.

A tensor ``A`` is a P-tensor exactly when every nonzero ``x`` has some
component ``i`` with ``x_i * (A x^{m-1})_i > 0``.  The quantitative version
used by the error bounds is

    alpha(op) = min over ||x||_inf = 1 of  max_i  x_i * (op x)_i

for the degree-1 positively homogeneous maps ``T`` (Euclidean-normalized
contraction) and ``F`` (signed-rooted contraction).  ``alpha > 0`` certifies
the P-property; the bound formulas consume ``alpha(F)``.

The minimum is estimated deterministically: the boundary of the cube
``[-1, 1]^n`` is swept face by face on a regular grid and the best point is
polished with coordinate descent.  Grid chunks are built by index arithmetic
and each polish sweep evaluates its remaining trial points in one batch; the
accepted steps, and so the value, are those of the one-trial-at-a-time
first-improvement search.  Grid estimates never undershoot the true minimum,
so a positive estimate is evidence, not proof; only the diagonal closed form
is certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    DenseTensor,
    _as_vector,
    _require_even_order,
    _require_positive_diagonal,
    contract_m1_batch,
    signed_root,
)

__all__ = [
    "ALPHA_T",
    "ALPHA_F",
    "CLOSED_FORM_DIAGONAL",
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
    "alpha_F_diagonal",
    "diagonal_alpha_estimate",
    "check_p_tensor_sampled",
]

ALPHA_T = "alpha_T"
ALPHA_F = "alpha_F"
CLOSED_FORM_DIAGONAL = "closed_form_diagonal"
GRID_REFINED = "grid_refined"
LIKELY_P = "LIKELY_P"
NOT_P = "NOT_P"

_CHUNK = 4096
# Step of the first polish sweep; it halves whenever a sweep stalls.
_INITIAL_STEP = 0.1


@dataclass(frozen=True)
class GridSpec:
    """Deterministic search schedule for :func:`estimate_alpha`.

    ``points_per_axis`` grid points per free coordinate on each cube face
    (odd counts include 0, which is what lets diagonal minimizers be hit
    exactly), then ``refinement_steps`` sweeps of coordinate descent with the
    step halving from ``0.1`` whenever a sweep stalls.
    """

    points_per_axis: int = 41
    refinement_steps: int = 50

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")
        if self.refinement_steps < 0:
            raise ValueError("refinement_steps must be nonnegative")


@dataclass(frozen=True)
class AlphaEstimate:
    """An alpha value plus enough provenance to judge what it certifies.

    ``certified`` is True only for the diagonal closed form; grid estimates
    are upper bounds on the true minimum (the search samples a subset of the
    sphere), so a positive uncertified value is not a proof of the P-property.
    """

    value: float
    kind: str
    method: str
    grid_points_per_axis: int
    refinement_steps: int
    certified: bool


@dataclass(frozen=True, eq=False)
class PTensorCheck:
    """Outcome of sampling the P-defining objective on the unit sphere."""

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


def _map_batch(tensor: DenseTensor, points: np.ndarray, kind: str) -> np.ndarray:
    """``T`` (``kind == ALPHA_T``) or ``F`` applied to each row of ``points``."""
    contracted = contract_m1_batch(tensor, points)
    if kind == ALPHA_T:
        norms = np.sqrt((points * points).sum(axis=1))
        factors = np.zeros(points.shape[0])
        nz = norms > 0.0
        factors[nz] = norms[nz] ** (2 - tensor.order)
        return contracted * factors[:, None]
    return signed_root(contracted, tensor.order - 1)


def _objective_batch(tensor: DenseTensor, points: np.ndarray, kind: str) -> np.ndarray:
    """``max_i x_i * (op x)_i`` for each row of ``points``."""
    return (points * _map_batch(tensor, points, kind)).max(axis=1)


def _iter_face_chunks(axis: np.ndarray, n: int, fixed: int, sign: float):
    """Chunks of the grid on the cube face ``x[fixed] = sign``.

    Rows come in ``itertools.product(axis, repeat=n - 1)`` order, the last
    free coordinate varying fastest, at most ``_CHUNK`` rows per chunk.
    """
    if n == 1:
        yield np.array([[sign]])
        return
    g = axis.size
    total = g ** (n - 1)
    place = g ** np.arange(n - 2, -1, -1)
    for start in range(0, total, _CHUNK):
        flat = np.arange(start, min(start + _CHUNK, total))
        free = axis[(flat[:, None] // place) % g]
        pts = np.empty((free.shape[0], n))
        pts[:, :fixed] = free[:, :fixed]
        pts[:, fixed] = sign
        pts[:, fixed + 1 :] = free[:, fixed:]
        yield pts


def estimate_alpha(
    tensor: DenseTensor, kind: str = ALPHA_F, grid: GridSpec | None = None
) -> AlphaEstimate:
    """Estimate ``alpha`` by a face-grid sweep plus coordinate-descent polish.

    The boundary of ``[-1, 1]^n`` is covered by the ``2 n`` faces; each face is
    sampled on a regular grid of ``points_per_axis`` values per free
    coordinate.  Ties are broken toward the lexicographically smallest point,
    so the result is independent of evaluation schedule.  The best point is
    then polished with coordinate descent that keeps the face's pinned
    coordinate at +-1 and clips the rest to ``[-1, 1]``, so every iterate
    stays on the unit sphere.  Each sweep tries ``+step`` then ``-step`` per
    free coordinate and accepts the first trial that improves; the trials
    left in the sweep are evaluated together in one batch from the current
    point, which accepts exactly the steps of a one-trial-at-a-time search.
    """
    if kind not in (ALPHA_T, ALPHA_F):
        raise ValueError(f"kind must be {ALPHA_T!r} or {ALPHA_F!r}, got {kind!r}")
    if kind == ALPHA_F:
        _require_even_order(tensor, "alpha_F")
    grid = grid or GridSpec()
    n = tensor.dim
    axis = np.linspace(-1.0, 1.0, grid.points_per_axis)

    best_val = np.inf
    best_point: tuple | None = None
    best_face = 0
    for fixed in range(n):
        for sign in (-1.0, 1.0):
            for pts in _iter_face_chunks(axis, n, fixed, sign):
                vals = _objective_batch(tensor, pts, kind)
                local_min = float(vals.min())
                if local_min > best_val:
                    continue
                candidates = np.flatnonzero(vals == local_min)
                local_point = min(tuple(pts[i]) for i in candidates)
                if local_min < best_val or (
                    best_point is not None and local_point < best_point
                ):
                    best_val = local_min
                    best_point = local_point
                    best_face = fixed

    point = np.array(best_point)
    value = best_val
    # Trial order of a sweep: (j, +step), (j, -step) for each free j.
    free = np.delete(np.arange(n), best_face)
    coords = np.repeat(free, 2)
    signs = np.tile([1.0, -1.0], free.size)
    step = _INITIAL_STEP
    for _ in range(grid.refinement_steps):
        improved = False
        deltas = signs * step
        start = 0
        while start < coords.size:
            js = coords[start:]
            moved = np.minimum(np.maximum(point[js] + deltas[start:], -1.0), 1.0)
            live = (moved != point[js]).nonzero()[0]
            if live.size == 0:
                break
            trials = point[None, :].repeat(live.size, axis=0)
            trials[np.arange(live.size), js[live]] = moved[live]
            vals = _objective_batch(tensor, trials, kind)
            better = (vals < value).nonzero()[0]
            if better.size == 0:
                break
            k = int(better[0])
            point, value = trials[k], float(vals[k])
            improved = True
            # Trials after the accepted one start from the new point.
            start += int(live[k]) + 1
        if not improved:
            step *= 0.5
            if step < 1e-12:
                break

    return AlphaEstimate(
        value=value,
        kind=kind,
        method=GRID_REFINED,
        grid_points_per_axis=grid.points_per_axis,
        refinement_steps=grid.refinement_steps,
        certified=False,
    )


def alpha_F_diagonal(tensor: DenseTensor) -> float:
    """Exact ``alpha(F)`` for a positive diagonal tensor: ``min_i a_i^{1/(m-1)}``.

    The unit sphere forces some ``|x_j| = 1``, so the objective is at least the
    smallest rooted diagonal entry, and the corresponding unit vector attains it.
    """
    _require_positive_diagonal(tensor, "closed-form alpha")
    r = 1.0 / (tensor.order - 1)
    return min(float(a) ** r for a in tensor.diagonal())


def diagonal_alpha_estimate(tensor: DenseTensor) -> AlphaEstimate:
    """:func:`alpha_F_diagonal` wrapped as a certified :class:`AlphaEstimate`."""
    return AlphaEstimate(
        value=alpha_F_diagonal(tensor),
        kind=ALPHA_F,
        method=CLOSED_FORM_DIAGONAL,
        grid_points_per_axis=0,
        refinement_steps=0,
        certified=True,
    )


def alpha_for(
    tensor: DenseTensor, kind: str = ALPHA_F, grid: GridSpec | None = None
) -> AlphaEstimate:
    """The alpha estimate every bound and CLI subcommand uses.

    ``alpha(F)`` of an even-order positive diagonal tensor comes from the
    certified closed form (``grid`` is then unused); anything else from the
    grid sweep of :func:`estimate_alpha`.
    """
    if kind == ALPHA_F:
        _require_even_order(tensor, "alpha_F")
        if tensor.is_positive_diagonal():
            return diagonal_alpha_estimate(tensor)
    return estimate_alpha(tensor, kind, grid)


def check_p_tensor_sampled(
    tensor: DenseTensor, sample_count: int = 64, seed: int = 0
) -> PTensorCheck:
    """Sample ``max_i x_i (A x^{m-1})_i`` on the unit sphere, unit vectors first.

    Every point is evaluated once, in one batch.  The first point with a
    nonpositive value disproves the P-property and is returned as a witness
    whose value reproduces exactly under ``max(x * contract_m1(A, x))``: the
    batch kernel equals ``contract_m1`` bit for bit.  A clean sweep only says
    LIKELY_P: sampling cannot certify the property.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    n = tensor.dim
    units = np.vstack([np.eye(n), -np.eye(n)])
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1.0, 1.0, size=(sample_count, n))
    norms = np.max(np.abs(raw), axis=1)
    degenerate = norms == 0.0
    raw[degenerate] = np.eye(n)[0]
    norms[degenerate] = 1.0
    points = np.vstack([units, raw / norms[:, None]])

    values = (points * contract_m1_batch(tensor, points)).max(axis=1)
    hits = np.flatnonzero(values <= 0.0)
    if hits.size:
        k = hits[0]
        return PTensorCheck(
            verdict=NOT_P,
            witness=points[k].copy(),
            witness_value=float(values[k]),
            points_checked=points.shape[0],
        )
    return PTensorCheck(
        verdict=LIKELY_P, witness=None, witness_value=None, points_checked=points.shape[0]
    )
