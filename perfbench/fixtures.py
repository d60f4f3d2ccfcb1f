"""Seeded problem generators and an independent problem-file writer.

Everything here is plain Python and numpy and imports nothing from the
package under test, so the inputs the benchmark hands to the program do not
depend on the code being measured.  Tensors are dicts mapping 1-based index
tuples to floats, the same shape the problem files use.

Three families, all with positive diagonal ``a_i`` and strict row diagonal
dominance ``r_i = sum |off-diagonal entries of row i| < a_i``:

* ``general``: off-diagonal index tuples ``(i, j2, ..., jm)`` drawn at random.
  At the coordinate of largest modulus of a point on the cube boundary,
  ``x_i (A x^{m-1})_i >= a_i - r_i > 0`` for even ``m``, so these are
  P-tensors, which is all the alpha oracle needs.
* ``row_power``: off-diagonal entries only at ``(i, j, ..., j)``.  Then
  ``A z^{m-1} = M y`` with ``y = z^{m-1}`` and ``M`` a strictly diagonally
  dominant matrix with positive diagonal, hence a P-matrix, so TCP(q, A) has
  exactly one solution: the manufactured one.  For ``m = 2`` this is the
  P-matrix LCP itself.
* ``diagonal``: the solution is the componentwise closed form.
"""

from __future__ import annotations

import math

import numpy as np


def contract_m1(entries: dict, dim: int, x) -> list[float]:
    """``(A x^{m-1})_i``: sum of ``val * x[i2] * ... * x[im]`` over stored entries."""
    out = [0.0] * dim
    for idx, val in entries.items():
        prod = val
        for k in idx[1:]:
            prod *= float(x[k - 1])
        out[idx[0] - 1] += prod
    return out


def diagonal(entries: dict, order: int, dim: int) -> list[float]:
    return [entries.get((i,) * order, 0.0) for i in range(1, dim + 1)]


def off_diagonal_row_sums(entries: dict, dim: int) -> list[float]:
    sums = [0.0] * dim
    for idx, val in entries.items():
        if len(set(idx)) > 1:
            sums[idx[0] - 1] += abs(val)
    return sums


def dominant_tensor(rng, order: int, dim: int, off_per_row: int, family: str) -> dict:
    """Diagonally dominant tensor with ``off_per_row`` off-diagonal entries per row.

    The entry count is fixed by the shape, so seeds change values and index
    positions but not the amount of contraction work.
    """
    entries: dict = {}
    for i in range(1, dim + 1):
        a = float(rng.uniform(1.0, 4.0))
        entries[(i,) * order] = a
        if family == "diagonal":
            continue
        offs: list[tuple] = []
        if family == "row_power":
            others = [j for j in range(1, dim + 1) if j != i]
            picks = rng.choice(len(others), size=min(off_per_row, len(others)), replace=False)
            offs = [(i,) + (others[int(p)],) * (order - 1) for p in sorted(picks)]
        else:
            while len(offs) < off_per_row:
                idx = (i,) + tuple(int(k) for k in rng.integers(1, dim + 1, order - 1))
                if len(set(idx)) > 1 and idx not in offs:
                    offs.append(idx)
        vals = rng.uniform(0.1, 1.0, len(offs)) * rng.choice([-1.0, 1.0], len(offs))
        vals *= rng.uniform(0.3, 0.7) * a / np.abs(vals).sum()
        for idx, v in zip(offs, vals):
            entries[idx] = float(v)
    return entries


def manufactured_problem(rng, entries: dict, order: int, dim: int):
    """Draw ``z* >= 0`` and pick ``q`` so that ``z*`` solves TCP(q, A).

    ``q = -(A z*^{m-1}) + w*`` with ``w* = 0`` on the support and positive
    off it.  For diagonal tensors ``z*`` is then recomputed by the closed
    form from the rounded ``q``, so it is the exact solution of the file.
    """
    support = rng.uniform(size=dim) < 0.6
    if not support.any():
        support[int(rng.integers(dim))] = True
    z = np.where(support, rng.uniform(0.2, 1.5, dim), 0.0)
    q = -np.array(contract_m1(entries, dim, z))
    q[~support] += rng.uniform(0.1, 2.0, int((~support).sum()))
    if all(len(set(idx)) == 1 for idx in entries):
        diag = diagonal(entries, order, dim)
        z = np.array(
            [(max(-qi, 0.0) / a) ** (1.0 / (order - 1)) for a, qi in zip(diag, q)]
        )
    return q, z


def perturb(rng, z, magnitude: float, single: bool) -> np.ndarray:
    """Test point ``z + delta`` with ``||delta||_inf = magnitude`` (up to rounding)."""
    z = np.asarray(z, dtype=float)
    delta = np.zeros_like(z)
    sign = rng.choice([-1.0, 1.0])
    if single:
        delta[int(rng.integers(z.size))] = sign * magnitude
    else:
        delta = magnitude * rng.uniform(-1.0, 1.0, z.size)
        delta[int(rng.integers(z.size))] = sign * magnitude
    return z + delta


def log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def write_problem(path, order: int, dim: int, entries: dict, q, z=None, u=None) -> int:
    """Write a problem file in the documented YAML layout; returns its size in bytes.

    Floats are written with ``repr``, which round-trips exactly.
    """
    lines = [f"order: {order}", f"dim: {dim}", "entries:"]
    for idx in sorted(entries):
        lines.append(f"  - idx: [{', '.join(str(i) for i in idx)}]")
        lines.append(f"    val: {float(entries[idx])!r}")

    def vec(name, values):
        lines.append(f"{name}: [{', '.join(repr(float(v)) for v in values)}]")

    vec("q", q)
    if z is not None:
        vec("z", z)
    if u is not None:
        vec("u", u)
    text = "\n".join(lines) + "\n"
    with open(path, "w") as handle:
        handle.write(text)
    return len(text.encode())
