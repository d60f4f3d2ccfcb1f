"""Coordinate-format dense tensors and the multilinear primitives built on them.

A tensor of order ``m`` and dimension ``n`` is stored sparsely as a map from
1-based index tuples ``(i1, ..., im)`` to real values; absent tuples are zero.
Contractions iterate over stored entries only, so the cost scales with the
number of nonzeros rather than ``n**m``.  All vector arguments may be anything
``np.asarray`` accepts; results are float64 arrays or floats.

Every function here is a pure function of immutable inputs: ``DenseTensor``
never mutates after construction and no operation writes to its arguments.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .errors import DimensionMismatchError, NotPositiveDiagonalError

__all__ = [
    "DenseTensor",
    "contract_m1",
    "contract_m1_batch",
    "jacobian_m1_batch",
    "contract_full",
    "tensor_inf_norm",
    "signed_root",
]


def _as_vector(x, dim: int, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.shape[0] != dim:
        raise DimensionMismatchError(
            f"{name} must be a 1-d array of length {dim}, got shape {arr.shape}"
        )
    return arr


def _as_index(raw_idx) -> tuple[int, ...]:
    """An index key as a tuple of Python ints.

    A key that is not iterable, or a component that is not a Python or numpy
    integer (a float or a ``bool`` included), raises ``ValueError`` naming the
    key.
    """
    try:
        idx = tuple(raw_idx)
    except TypeError:
        raise ValueError(f"index {raw_idx!r} must be a sequence of integers") from None
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
        raise ValueError(f"index {idx} must have integer components")
    return tuple(int(i) for i in idx)


class DenseTensor:
    """Order-``m``, dimension-``n`` real tensor in coordinate storage.

    Parameters
    ----------
    order : int
        Number of indices ``m``; at least 2.
    dim : int
        Each index ranges over ``1..dim``.
    entries : mapping
        ``{(i1, ..., im): value}`` with 1-based indices whose components are
        Python or numpy integers; a key that is not iterable, or a float or
        bool component, raises ``ValueError`` rather than being truncated.
        Zero values are dropped so that the stored entry count is the number
        of structural nonzeros; a NaN or infinite value raises ``ValueError``.
    """

    __slots__ = (
        "order", "dim", "_entries", "_rows", "_cols", "_vals", "_row_slots", "_jac_slots"
    )

    def __init__(self, order: int, dim: int, entries: Mapping[tuple, float]):
        if not isinstance(order, int) or isinstance(order, bool) or order < 2:
            raise ValueError(f"order must be an integer >= 2, got {order!r}")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
            raise ValueError(f"dim must be a positive integer, got {dim!r}")
        clean: dict[tuple, float] = {}
        for raw_idx, raw_val in entries.items():
            idx = _as_index(raw_idx)
            if len(idx) != order:
                raise ValueError(
                    f"index {idx} has {len(idx)} components, expected order {order}"
                )
            if any(i < 1 or i > dim for i in idx):
                raise ValueError(f"index {idx} out of range 1..{dim}")
            val = float(raw_val)
            if not math.isfinite(val):
                raise ValueError(f"entry at index {idx} is not finite: {val}")
            if val != 0.0:
                clean[idx] = val
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", clean)
        items = sorted(clean.items())
        rows = np.array([idx[0] - 1 for idx, _ in items], dtype=np.intp)
        cols = np.array(
            [[i - 1 for i in idx[1:]] for idx, _ in items], dtype=np.intp
        ).reshape(len(items), order - 1)
        vals = np.array([v for _, v in items], dtype=float)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_row_slots", _slot_table(rows, dim))
        # Built on the first Jacobian call: only the solver needs it.
        object.__setattr__(self, "_jac_slots", None)

    def __setattr__(self, name, value):  # pragma: no cover - guards immutability
        raise AttributeError("DenseTensor is immutable")

    @classmethod
    def from_diagonal(cls, values, order: int = 4) -> "DenseTensor":
        """Build the diagonal tensor with ``a[i,i,...,i] = values[i-1]``."""
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d sequence")
        return cls(order, vals.size, {(i,) * order: float(v) for i, v in enumerate(vals, 1)})

    @property
    def entries(self) -> dict[tuple, float]:
        """Copy of the stored nonzero entries, keyed by 1-based index tuples."""
        return dict(self._entries)

    @property
    def nnz(self) -> int:
        return len(self._entries)

    def value_at(self, idx: tuple) -> float:
        """Entry at a 1-based index tuple; zero when absent."""
        return self._entries.get(tuple(idx), 0.0)

    def diagonal(self) -> np.ndarray:
        """Vector of the entries at ``(i, i, ..., i)``; absent ones are zero."""
        m = self.order
        return np.array([self._entries.get((i,) * m, 0.0) for i in range(1, self.dim + 1)])

    def is_diagonal(self) -> bool:
        """True when every stored entry sits at a constant index tuple."""
        return all(len(set(idx)) == 1 for idx in self._entries)

    def is_positive_diagonal(self) -> bool:
        """True when the tensor is diagonal with all ``dim`` diagonal entries > 0."""
        if not self.is_diagonal():
            return False
        m = self.order
        return all(self._entries.get((i,) * m, 0.0) > 0.0 for i in range(1, self.dim + 1))

    def __repr__(self) -> str:
        return f"DenseTensor(order={self.order}, dim={self.dim}, nnz={self.nnz})"


def _require_even_order(tensor: DenseTensor, what: str) -> None:
    """Refuse an odd order: the rooted maps need a bijective signed root."""
    if tensor.order % 2 != 0:
        raise ValueError(
            f"{what} needs an even tensor order so the {tensor.order - 1}-th "
            "signed root is a bijection; got odd order"
        )


def _require_positive_diagonal(tensor: DenseTensor, what: str) -> None:
    """Refuse a tensor outside the closed forms: positive diagonal, even order."""
    if not tensor.is_positive_diagonal():
        raise NotPositiveDiagonalError(
            f"{what} needs a diagonal tensor with every diagonal entry positive"
        )
    _require_even_order(tensor, what)


def contract_m1(tensor: DenseTensor, x) -> np.ndarray:
    """Contract against ``m - 1`` copies of ``x``.

    Component ``i`` of the result is the sum of ``a[i, i2, ..., im] *
    x[i2] * ... * x[im]`` over the stored entries.
    """
    x = _as_vector(x, tensor.dim, "x")
    if tensor.nnz == 0:
        return np.zeros(tensor.dim)
    prods = tensor._vals * np.prod(x[tensor._cols], axis=1)
    return np.bincount(tensor._rows, weights=prods, minlength=tensor.dim)


def _slot_table(keys: np.ndarray, bins: int) -> np.ndarray:
    """Index table for summing values by key in a fixed order.

    Column ``b`` lists, in ascending order, the positions ``p`` with
    ``keys[p] == b``, padded with ``len(keys)``, which :func:`_sum_by_slots`
    points at a zero row.  Adding the table's rows one after the other adds
    each bin's values in position order, the order ``np.bincount`` uses.
    """
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=bins)
    table = np.full((max(1, int(counts.max(initial=0))), bins), keys.size, dtype=np.intp)
    sorted_keys = keys[order]
    starts = np.cumsum(counts) - counts
    table[np.arange(keys.size) - starts[sorted_keys], sorted_keys] = order
    return table


def _sum_by_slots(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Sum the rows of ``values`` (shape ``(len(keys) + 1, k)``, last row zero) by bin.

    Returns shape ``(k, bins)``.  Accumulating one slot at a time keeps the
    temporaries at ``bins * k``.  The sums start from ``+0.0``, as
    ``np.bincount``'s do, so a bin whose values are all ``-0.0`` sums to
    ``+0.0`` there too.
    """
    out = values[table[0]]
    out += 0.0
    for slot in table[1:]:
        out += values[slot]
    return np.ascontiguousarray(out.T)


def _as_points(tensor: DenseTensor, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != tensor.dim:
        raise DimensionMismatchError(
            f"points must have shape (k, {tensor.dim}), got {pts.shape}"
        )
    return pts


def contract_m1_batch(tensor: DenseTensor, points) -> np.ndarray:
    """Row-wise :func:`contract_m1` for a ``(k, dim)`` array of vectors.

    Every result row equals :func:`contract_m1` of that point bit for bit: the
    products are formed in the same order and summed per output component in
    stored-entry order, whatever ``k`` is.
    """
    pts = _as_points(tensor, points)
    if tensor.nnz == 0:
        return np.zeros(pts.shape)
    xt = np.ascontiguousarray(pts.T)
    cols = tensor._cols
    prod = xt[cols[:, 0]]
    for j in range(1, cols.shape[1]):
        prod *= xt[cols[:, j]]
    # One row per stored entry, then the zero row the slot padding points at.
    prods = np.zeros((tensor.nnz + 1, pts.shape[0]))
    np.multiply(tensor._vals[:, None], prod, out=prods[:-1])
    return _sum_by_slots(prods, tensor._row_slots)


def jacobian_m1_batch(tensor: DenseTensor, points) -> np.ndarray:
    """Jacobians of ``x -> A x^{m-1}`` at each row of a ``(k, dim)`` array.

    ``out[b, i, j]`` is the derivative of component ``i`` with respect to
    ``x_j`` at ``points[b]``.  A stored entry ``a[i, j2, ..., jm]`` adds
    ``a * prod_{q != p} x[jq]`` to ``out[b, i, jp]`` for every position ``p``;
    the product that leaves one factor out is a prefix product times a
    suffix product, so no coordinate is divided by and zeros are safe.
    Repeated column indices add one term per position, as the product rule
    says.
    """
    pts = _as_points(tensor, points)
    k, n = pts.shape
    if tensor.nnz == 0:
        return np.zeros((k, n, n))
    if tensor._jac_slots is None:
        keys = (tensor._rows[:, None] * n + tensor._cols).ravel()
        object.__setattr__(tensor, "_jac_slots", _slot_table(keys, n * n))
    xs = np.ascontiguousarray(pts.T)[tensor._cols]  # (nnz, m - 1, k)
    left = np.ones_like(xs)
    right = np.ones_like(xs)
    np.cumprod(xs[:, :-1], axis=1, out=left[:, 1:])
    np.cumprod(xs[:, :0:-1], axis=1, out=right[:, -2::-1])
    # One row per (entry, position) pair, then the zero row for the padding.
    partials = np.zeros((xs.shape[0] * xs.shape[1] + 1, k))
    np.multiply(
        tensor._vals[:, None, None], left * right, out=partials[:-1].reshape(xs.shape)
    )
    return _sum_by_slots(partials, tensor._jac_slots).reshape(k, n, n)


def contract_full(tensor: DenseTensor, x) -> float:
    """Full contraction against ``m`` copies of ``x``, ``x . A x^{m-1}``."""
    return float(np.dot(x, contract_m1(tensor, x)))


def tensor_inf_norm(tensor: DenseTensor) -> float:
    """Maximum over rows of the sum of absolute entries sharing that first index."""
    if tensor.nnz == 0:
        return 0.0
    sums = np.bincount(tensor._rows, weights=np.abs(tensor._vals), minlength=tensor.dim)
    return float(sums.max())


def signed_root(x, r: int) -> np.ndarray:
    """Componentwise signed ``r``-th root, ``sign(t) * |t|**(1/r)``.

    ``r`` must be an odd positive integer so the map is a bijection on the
    reals; even roots are rejected rather than silently losing signs.
    """
    if not isinstance(r, int) or isinstance(r, bool) or r < 1 or r % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {r!r}")
    arr = np.asarray(x, dtype=float)
    return np.sign(arr) * np.abs(arr) ** (1.0 / r)
