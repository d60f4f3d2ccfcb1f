"""Coordinate-format dense tensors and the multilinear primitives built on them.

A tensor of order ``m`` and dimension ``n`` is stored sparsely as a map from
1-based index tuples ``(i1, ..., im)`` to real values; absent tuples are zero.
Contractions iterate over stored entries only, so the cost scales with the
number of nonzeros rather than ``n**m``.  All vector arguments may be anything
``np.asarray`` accepts; results are float64 arrays or floats.

Every function here is a pure function of immutable inputs: ``DenseTensor``
never mutates after construction and no operation writes to its arguments.
:func:`contract_m1_batch` can also give a single output component over an
open grid of points, formed by broadcasting and never gathered.
"""

from __future__ import annotations

import math
import sys
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
    if all(type(i) is int for i in idx):  # a file's index, checked as it is
        return idx
    if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in idx):
        raise ValueError(f"index {idx} must have integer components")
    return tuple(int(i) for i in idx)


def _require_int(value, name: str, least: int) -> None:
    """Refuse anything but an integer ``>= least``, a float or ``bool`` included."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


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
        of structural nonzeros; a value ``float`` cannot convert, or a NaN or
        infinite one, raises ``ValueError`` naming its index, and so do
        finite entries whose ``||A||_inf`` overflows to inf.

    Besides the storage, a tensor keeps what is computed once and then read
    many times: ``||A||_inf`` (``_inf_norm``), each row's diagonal entry
    ``a_i`` (``_diag``) and the absolute sum ``r_i`` of its other entries
    (``_off_sums``), all three set when it is built, the Jacobian's slot
    table (``_jac_slots``) and, in ``_verified``, the
    certificate of the last ``(q, z, tol)`` a bound report verified against
    it, so a stream of reports on one solution verifies it once.  None of
    these changes a result.
    """

    __slots__ = (
        "order", "dim", "_entries", "_rows", "_cols", "_vals", "_row_slots",
        "_jac_slots", "_inf_norm", "_diag", "_off_sums", "_verified",
    )

    def __init__(self, order: int, dim: int, entries: Mapping[tuple, float]):
        _require_int(order, "order", 2)
        _require_int(dim, "dim", 1)
        order, dim = int(order), int(dim)
        # numpy's shapes and counts stop at sys.maxsize.
        for name, value in (("order", order), ("dim", dim)):
            if value > sys.maxsize:
                raise ValueError(f"{name} must be at most {sys.maxsize}, got {value}")
        clean: dict[tuple, float] = {}
        for raw_idx, raw_val in entries.items():
            idx = _as_index(raw_idx)
            if len(idx) != order:
                raise ValueError(
                    f"index {idx} has {len(idx)} components, expected order {order}"
                )
            if any(i < 1 or i > dim for i in idx):
                raise ValueError(f"index {idx} out of range 1..{dim}")
            try:
                val = float(raw_val)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"entry at index {idx} must be a real number, got {raw_val!r}"
                ) from None
            if not math.isfinite(val):
                raise ValueError(f"entry at index {idx} is not finite: {val}")
            if val != 0.0:
                clean[idx] = val
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", clean)
        items = sorted(clean.items())
        rows = np.array([idx[0] - 1 for idx, _ in items], dtype=np.intp)
        # Fortran order, so each position's column is contiguous for the kernels.
        cols = np.asfortranarray(
            np.array([[i - 1 for i in idx[1:]] for idx, _ in items], dtype=np.intp).reshape(
                len(items), order - 1
            )
        )
        vals = np.array([v for _, v in items], dtype=float)
        norm = float(np.bincount(rows, weights=np.abs(vals), minlength=dim).max())
        if not math.isfinite(norm):
            raise ValueError(
                "||A||_inf overflows to inf although every entry is finite; "
                "rescale the tensor"
            )
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_vals", vals)
        object.__setattr__(self, "_row_slots", _slot_table(rows, dim))
        object.__setattr__(self, "_inf_norm", norm)
        # Each row's a_i and r_i; r_i adds in index order, whatever order the
        # entries were given in.
        diag, off_sums = [0.0] * dim, [0.0] * dim
        for idx, val in items:
            if idx.count(idx[0]) == order:
                diag[idx[0] - 1] = val
            else:
                off_sums[idx[0] - 1] += abs(val)
        object.__setattr__(self, "_diag", diag)
        object.__setattr__(self, "_off_sums", off_sums)
        # Built on the first Jacobian call: only the solver needs it.
        object.__setattr__(self, "_jac_slots", None)
        # (key, certificate) of the last z a bound report verified; see
        # bounds._certificate.
        object.__setattr__(self, "_verified", None)

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
        return np.array(self._diag)

    def is_diagonal(self) -> bool:
        """True when every stored entry sits at a constant index tuple."""
        return not any(self._off_sums)

    def is_positive_diagonal(self) -> bool:
        """True when the tensor is diagonal with all ``dim`` diagonal entries > 0."""
        return self.is_diagonal() and all(a > 0.0 for a in self._diag)

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
    prods = tensor._vals * np.multiply.reduce(x[tensor._cols], axis=1)
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


def _sum_by_slots(
    values: np.ndarray, table: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Sum the rows of ``values`` (shape ``(len(keys) + 1, k)``, last row zero) by bin.

    Writes the ``(bins, k)`` sums to ``out`` and returns it; ``scratch``, of
    the same shape, holds one gathered slot at a time.  The sums start from
    ``+0.0``, as ``np.bincount``'s do, so a bin whose values are all ``-0.0``
    sums to ``+0.0`` there too.
    """
    # mode="clip" writes straight to ``out``; the default "raise" buffers it.
    # The method skips np.take's Python wrapper, a large share at small k.
    values.take(table[0], axis=0, out=out, mode="clip")
    out += 0.0
    for slot in table[1:]:
        out += values.take(slot, axis=0, out=scratch, mode="clip")
    return out


def _row_max(values: np.ndarray) -> np.ndarray:
    """The maximum of each row of the 2-d array ``values``, taken column by column.

    numpy reduces a short inner axis slowly; ``n - 1`` in-place
    ``np.maximum`` calls over the columns are exact, so they give what
    ``np.max`` over axis 1 gives, bit for bit, signed zeros and NaN included.
    """
    out = values[:, 0].copy()
    for j in range(1, values.shape[1]):
        np.maximum(out, values[:, j], out=out)
    return out


def _as_points(tensor: DenseTensor, points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != tensor.dim:
        raise DimensionMismatchError(
            f"points must have shape (k, {tensor.dim}), got {pts.shape}"
        )
    return pts


def _work_rows(tensor: DenseTensor) -> int:
    """Rows of ``k`` floats that :func:`contract_m1_batch` uses for ``k`` points."""
    nnz, m1 = tensor._cols.shape
    # The points, the result, the products with their zero row and, past
    # order 2, the gathered factors.
    return 2 * tensor.dim + nnz + 1 + (nnz if m1 > 1 else 0)


def contract_m1_batch(tensor: DenseTensor, points, *, component: int | None = None) -> np.ndarray:
    """Row-wise :func:`contract_m1` for a ``(k, dim)`` array of vectors.

    Every result row equals :func:`contract_m1` of that point bit for bit: the
    products are formed in the same order and summed per output component in
    stored-entry order, whatever ``k`` is.

    Every temporary and the result share one block the kernel allocates; the
    result is a ``(k, dim)`` view of it whose transpose is contiguous.

    With ``component=i`` (``0 <= i < dim``), ``points`` is an open grid
    instead: ``dim`` coordinates, each a scalar or an array, that broadcast
    together to the grid's shape, as ``np.ix_`` makes them.  Only output
    component ``i`` is computed, at every point of the grid, as a flat
    C-order array.  Each of row ``i``'s stored entries is formed by
    broadcasting, as the full kernel forms it: its factors multiplied left to
    right, then times the value; the entries are added in stored-entry order
    from ``+0.0``.  So the result equals ``contract_m1_batch(tensor,
    points)[:, i]`` on the grid's points, in C order, bit for bit, signed
    zeros included, and no point is built.  Only a NaN coordinate can make
    a difference: a NaN entry of the result may then carry the other sign
    bit.  The alpha sweep, whose coordinates are finite, prunes its face
    blocks on this raw column, with neither ``F``'s root nor ``T``'s factor.
    """
    if component is not None:
        return _grid_component(tensor, points, component)
    pts = _as_points(tensor, points)
    k, n = pts.shape
    nnz = tensor.nnz
    buf = np.empty((_work_rows(tensor), k))
    xt = buf[n : 2 * n]
    xt[...] = pts.T
    # One row per stored entry, then the zero row the slot padding points at.
    prods = buf[2 * n : 2 * n + nnz + 1]
    prods[nnz] = 0.0
    prod = prods[:nnz]
    first, *rest = tensor._cols.T
    xt.take(first, axis=0, out=prod, mode="clip")
    if rest:
        factor = buf[2 * n + nnz + 1 :]
        for col in rest:
            prod *= xt.take(col, axis=0, out=factor, mode="clip")
    np.multiply(tensor._vals[:, None], prod, out=prod)
    # The points are used up, so their rows hold the gathered slots.
    return _sum_by_slots(prods, tensor._row_slots, buf[:n], xt).T


def _grid_component(tensor: DenseTensor, coords, component) -> np.ndarray:
    """Component ``component`` of :func:`contract_m1_batch` on the open grid ``coords``."""
    n = tensor.dim
    _require_int(component, "component", 0)
    if component >= n:
        raise ValueError(f"component must be an integer in 0..{n - 1}, got {component!r}")
    if len(coords) != n:
        raise DimensionMismatchError(f"an open grid needs {n} coordinates, got {len(coords)}")
    coords = [np.asarray(x, dtype=float) for x in coords]
    out = np.zeros(np.broadcast_shapes(*(x.shape for x in coords)))
    lo, hi = (int(tensor._rows.searchsorted(i)) for i in (component, component + 1))
    for cols, val in zip(tensor._cols[lo:hi].tolist(), tensor._vals[lo:hi]):
        first, *rest = cols
        prod = coords[first]
        for col in rest:
            prod = prod * coords[col]
        out += val * prod
    return out.reshape(-1)


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
    if tensor._jac_slots is None:
        keys = (tensor._rows[:, None] * n + tensor._cols).ravel()
        object.__setattr__(tensor, "_jac_slots", _slot_table(keys, n * n))
    nnz, m1 = tensor._cols.shape
    # Position-major, so each position's (nnz, k) slice is contiguous.
    xs = np.ascontiguousarray(pts.T)[tensor._cols.T]  # (m - 1, nnz, k)
    left = np.empty_like(xs)
    right = np.empty_like(xs)
    left[0] = 1.0
    right[-1] = 1.0
    # left[p] multiplies the factors before position p from the first one on,
    # right[p] those after it from the last one in: cumprod's order, so its bits.
    for p in range(1, m1):
        np.multiply(left[p - 1], xs[p - 1], out=left[p])
        np.multiply(right[m1 - p], xs[m1 - p], out=right[m1 - p - 1])
    # Each (m - 1, nnz, k) array goes as soon as it is used, to keep the peak low.
    del xs
    left *= right
    del right
    # One row per (entry, position) pair, then the zero row for the padding.
    partials = np.zeros((nnz * m1 + 1, k))
    np.multiply(
        tensor._vals[:, None],
        left,
        out=partials[:-1].reshape(nnz, m1, k).transpose(1, 0, 2),
    )
    sums = _sum_by_slots(partials, tensor._jac_slots, np.empty((n * n, k)), np.empty((n * n, k)))
    return np.ascontiguousarray(sums.T).reshape(k, n, n)


def _lcp_matrix(tensor: DenseTensor) -> np.ndarray | None:
    """The matrix ``M`` with ``A x^{m-1} = M x^{[m-1]}``, or ``None``.

    The class is order 2, or even order with every stored entry's trailing
    indices equal (row-power, the diagonal included): ``M[i, j]`` is the entry
    at ``(i, j, ..., j)``.  There ``x -> x^{[m-1]}`` is a bijection, so
    TCP(q, A) is the linear complementarity problem LCP(q, M).
    """
    cols = tensor._cols
    if tensor.order % 2 or (cols != cols[:, :1]).any():
        return None
    matrix = np.zeros((tensor.dim, tensor.dim))
    matrix[tensor._rows, cols[:, 0]] = tensor._vals
    return matrix


def contract_full(tensor: DenseTensor, x) -> float:
    """Full contraction against ``m`` copies of ``x``, ``x . A x^{m-1}``."""
    return float(np.dot(x, contract_m1(tensor, x)))


def tensor_inf_norm(tensor: DenseTensor) -> float:
    """Maximum over rows of the sum of absolute entries sharing that first index.

    Computed when the tensor is built, which refuses one that overflows.
    """
    return tensor._inf_norm


def signed_root(x, r: int) -> np.ndarray:
    """Componentwise signed ``r``-th root, ``sign(t) * |t|**(1/r)``.

    ``r`` must be an odd positive integer so the map is a bijection on the
    reals; even roots are rejected rather than silently losing signs.
    """
    _require_int(r, "root order", 1)
    if r % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {r!r}")
    arr = np.asarray(x, dtype=float)
    root = np.abs(arr)
    root **= 1.0 / r
    signed = np.sign(arr)
    signed *= root
    return signed
