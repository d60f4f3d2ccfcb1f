"""Small-instance solver for the tensor complementarity problem.

TCP(q, A) asks for ``z >= 0`` with ``w = A z^{m-1} + q >= 0`` and ``z . w = 0``.
At desk scale the active set can be enumerated outright: for every support
``S`` of coordinates allowed to be positive, the square system
``(A z^{m-1} + q)_S = 0`` with ``z = 0`` off ``S`` is solved from several
seeded starts by batched damped Newton with an analytic Jacobian: all
(support, start) pairs of one support size iterate together, each stopping on
its own test.  Every root that satisfies the sign and complementarity
conditions is kept.  Certificates always recompute ``w`` and
the violation measure from ``z``; nothing is trusted from the caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError
from .tensor import (
    DenseTensor,
    _as_vector,
    _require_positive_diagonal,
    contract_m1,
    contract_m1_batch,
    jacobian_m1_batch,
    signed_root,
)

__all__ = [
    "TcpInstance",
    "SolveOptions",
    "SolutionCertificate",
    "solve_enumerate",
    "solve_diagonal",
    "verify_solution",
]


@dataclass(frozen=True, eq=False)
class TcpInstance:
    """A tensor together with the offset vector ``q``."""

    tensor: DenseTensor
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "q", _as_vector(self.q, self.tensor.dim, "q").copy()
        )


# Newton schedule of solve_enumerate: seeded starts per support, iterations
# per start, the step that ends a start, and the backtracking factors
# 1, 1/2, ..., 2**-26 (every power of 1/2 down to 1e-8).
_STARTS = 8
_MAX_ITERATIONS = 100
_STEP_TOL = 1e-12
_DAMPING = 0.5 ** np.arange(27)


@dataclass
class SolveOptions:
    """Settings of :func:`solve_enumerate`.

    ``max_dim`` caps the dimension, since the enumeration is exponential, and
    ``seed`` fixes the Newton starts.  ``tol`` is the acceptance tolerance
    and must be positive and finite: roots are kept when no component of
    ``z`` or ``w`` is below ``-tol`` and no product ``|z_i w_i|`` exceeds it.
    Roots closer than ``10 * tol`` in the max-norm are considered duplicates.
    """

    max_dim: int = 6
    seed: int = 0
    tol: float = 1e-9


def _violations(z: np.ndarray, w: np.ndarray, tol: float) -> np.ndarray:
    """Violation measure of each row of the ``(k, n)`` arrays ``z`` and ``w``.

    The largest negative part of ``z`` or ``w`` or product ``|z_i w_i|``; a
    row with a NaN or inf entry has a NaN or inf product and measures ``inf``.
    A ``tol`` outside ``0 < tol < inf`` raises ``ValueError``: an infinite one
    would pass every candidate.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    out = np.max(np.concatenate([-z, -w, np.abs(z * w)], axis=1), axis=1, initial=0.0)
    out[~np.isfinite(out)] = np.inf
    return out


@dataclass(frozen=True, eq=False)
class SolutionCertificate:
    """A candidate solution with its recomputed slack and violation measure.

    ``support`` holds the 1-based coordinates where ``z`` exceeds ``tol``.
    ``max_violation`` is the largest of the negative parts of ``z`` and ``w``
    and the absolute complementarity products, or ``inf`` when ``z`` or ``w``
    has a NaN or infinite entry; ``passed`` is the verdict
    ``max_violation <= tol``.
    """

    z: np.ndarray
    w: np.ndarray
    support: tuple[int, ...]
    max_violation: float
    tol: float
    passed: bool

    @classmethod
    def _from_row(
        cls, z: np.ndarray, w: np.ndarray, max_violation: float, tol: float
    ) -> "SolutionCertificate":
        return cls(
            z=z,
            w=w,
            support=tuple(int(i) + 1 for i in np.flatnonzero(z > tol)),
            max_violation=max_violation,
            tol=tol,
            passed=max_violation <= tol,
        )


def verify_solution(inst: TcpInstance, z, tol: float = 1e-8) -> SolutionCertificate:
    """Recompute ``w`` and the violation measure for a claimed solution."""
    z = _as_vector(z, inst.tensor.dim, "z").copy()
    w = contract_m1(inst.tensor, z) + inst.q
    violation = float(_violations(z[None], w[None], tol)[0])
    return SolutionCertificate._from_row(z, w, violation, tol)


def solve_diagonal(inst: TcpInstance) -> SolutionCertificate:
    """Closed-form solution for positive diagonal tensors.

    The problem decouples componentwise: ``z_i = ((-q_i)+ / a_i)^{1/(m-1)}``
    zeroes ``w_i`` exactly where ``q_i < 0`` and leaves ``w_i = q_i >= 0``
    elsewhere.  The certificate is checked at ``SolveOptions.tol``.
    """
    tensor = inst.tensor
    _require_positive_diagonal(tensor, "solve_diagonal")
    powered = np.maximum(-inst.q, 0.0) / tensor.diagonal()
    z = signed_root(powered, tensor.order - 1)
    return verify_solution(inst, z, SolveOptions.tol)


def solve_enumerate(
    inst: TcpInstance, opts: SolveOptions | None = None
) -> list[SolutionCertificate]:
    """Enumerate supports and collect every verified solution.

    Returns certificates sorted by support size, then lexicographically by
    ``z``; an empty list means no support produced an acceptable root (for an
    instance believed to be P this is a solver failure, not a proof of
    infeasibility).  The run is deterministic for fixed options.  A NaN or
    infinite ``q``, or a ``tol`` outside ``0 < tol < inf``, raises
    ``ValueError``.
    """
    opts = opts or SolveOptions()
    tensor, q = inst.tensor, inst.q
    if not np.isfinite(q).all():
        raise ValueError("q must be finite, got NaN or inf")
    n = tensor.dim
    if n > opts.max_dim:
        raise DimensionLimitError(
            f"support enumeration is exponential; dim {n} exceeds max_dim "
            f"{opts.max_dim}"
        )
    rng = np.random.default_rng(opts.seed)
    scale = 1.0 + _q_root(tensor, q)

    batch_rows = _batch_rows(tensor)
    kept: list[SolutionCertificate] = []
    for size in range(n + 1):
        if size == 0:
            # Screened before any Newton step, so a bad tol is refused first.
            batches = [np.zeros((1, n))]
        else:
            supports = list(itertools.combinations(range(n), size))
            # Per support, in combinations order, _STARTS starts.
            starts = scale * np.concatenate(
                [rng.uniform(0.05, 1.0, size=(_STARTS, size)) for _ in supports]
            )
            idx = np.repeat(np.array(supports, dtype=np.intp), _STARTS, axis=0)
            batches = (
                _newton_on_supports(
                    inst, idx[lo : lo + batch_rows], starts[lo : lo + batch_rows]
                )
                for lo in range(0, idx.shape[0], batch_rows)
            )
        for candidates in batches:
            # The certificate's own check, batched: the batch kernel equals
            # contract_m1 bit for bit, so w is still computed from z.
            w = contract_m1_batch(tensor, candidates) + q
            violation = _violations(candidates, w, opts.tol)
            ok = violation <= opts.tol
            for z, w_z, v in zip(candidates[ok], w[ok], violation[ok].tolist()):
                if any(
                    float(np.max(np.abs(z - other.z))) <= 10.0 * opts.tol
                    for other in kept
                ):
                    continue
                kept.append(SolutionCertificate._from_row(z, w_z, v, opts.tol))
    kept.sort(key=lambda c: (len(c.support), tuple(c.z)))
    return kept


def _q_root(tensor: DenseTensor, q: np.ndarray) -> float:
    """``||(-q)+||_inf^{1/(m-1)}``, the scale of every solution's max-norm."""
    # Adding +0.0 turns a -0.0 maximum (from q_i = +0.0) into +0.0.
    return (float(np.max(-q, initial=0.0)) + 0.0) ** (1.0 / (tensor.order - 1))


# Rows times stored entries times (order - 1) that one batched contraction or
# Jacobian may touch, which bounds their temporaries (512 KiB per array).
_BATCH_ENTRIES = 1 << 16


def _batch_rows(tensor: DenseTensor) -> int:
    return max(1, _BATCH_ENTRIES // max(1, tensor.nnz * (tensor.order - 1)))


def _newton_on_supports(
    inst: TcpInstance, idx: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Damped Newton for ``(A z^{m-1} + q)_S = 0`` with ``z = 0`` off ``S``, per row.

    Row ``r`` solves on support ``idx[r]`` from ``starts[r]``; all rows run
    together and each stops on its own test.  An iteration solves the
    Jacobian system, then tries the damping factors ``_DAMPING`` in order
    and takes the first whose residual max-norm is finite and below the
    current one.  A row stops when its taken step is at most ``_STEP_TOL`` or
    when no factor helps (keeping its iterate), and is dropped when its
    residual at the start is not finite or its Jacobian is singular or gives
    a non-finite step.  Returns the kept rows' final iterates, embedded in
    ``dim`` coordinates.
    """
    tensor, q = inst.tensor, inst.q
    n = tensor.dim
    rows, size = starts.shape

    def embed(sel: np.ndarray, z_s: np.ndarray) -> np.ndarray:
        z = np.zeros((sel.size, n))
        z[np.arange(sel.size)[:, None], idx[sel]] = z_s
        return z

    def residual(sel: np.ndarray, z_s: np.ndarray) -> np.ndarray:
        full = contract_m1_batch(tensor, embed(sel, z_s))
        return full[np.arange(sel.size)[:, None], idx[sel]] + q[idx[sel]]

    batch_rows = _batch_rows(tensor)

    every = np.arange(rows)
    z_s = starts.astype(float)
    f_s = residual(every, z_s)
    keep = np.isfinite(f_s).all(axis=1)
    active = keep.copy()
    for _ in range(_MAX_ITERATIONS):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        sub = idx[act]
        jac = jacobian_m1_batch(tensor, embed(act, z_s[act]))
        jac = jac[np.arange(act.size)[:, None, None], sub[:, :, None], sub[:, None, :]]
        step = _solve_stacked(jac, -f_s[act])
        bad = ~np.isfinite(step).all(axis=1)
        keep[act[bad]] = active[act[bad]] = False
        act, step = act[~bad], step[~bad]

        # Backtrack: the full step for every row, then the remaining factors
        # in blocks for the rows still waiting, first acceptable factor wins.
        # A block holds at most batch_rows trial points.
        base = np.max(np.abs(f_s[act]), axis=1)
        taken = np.full(act.size, -1)
        f_new = np.empty((act.size, size))
        waiting = np.arange(act.size)
        level = 0
        while waiting.size and level < _DAMPING.size:
            width = 1 if level == 0 else max(1, batch_rows // waiting.size)
            block = _DAMPING[level : level + width]
            trial = (
                z_s[act[waiting], None, :] + block[None, :, None] * step[waiting, None, :]
            )
            f_trial = residual(
                np.repeat(act[waiting], block.size), trial.reshape(-1, size)
            ).reshape(waiting.size, block.size, size)
            good = np.isfinite(f_trial).all(axis=2) & (
                np.max(np.abs(f_trial), axis=2) < base[waiting, None]
            )
            hit = good.any(axis=1)
            first = np.argmax(good, axis=1)[hit]
            taken[waiting[hit]] = level + first
            f_new[waiting[hit]] = f_trial[hit, first]
            waiting = waiting[~hit]
            level += block.size

        # No factor helped: the row stops at its current iterate.
        active[act[waiting]] = False
        moved = taken >= 0
        act, step, taken = act[moved], step[moved], taken[moved]
        damped = _DAMPING[taken][:, None] * step
        z_s[act] = z_s[act] + damped
        f_s[act] = f_new[moved]
        active[act[np.max(np.abs(damped), axis=1) <= _STEP_TOL]] = False
    return embed(every[keep], z_s[keep])


def _solve_stacked(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jac[r] x = rhs[r]`` for every row; singular rows come back NaN."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for r in range(rhs.shape[0]):
            try:
                out[r] = np.linalg.solve(jac[r], rhs[r])
            except np.linalg.LinAlgError:
                pass
        return out
