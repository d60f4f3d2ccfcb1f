"""Small-instance solver for the tensor complementarity problem.

TCP(q, A) asks for ``z >= 0`` with ``w = A z^{m-1} + q >= 0`` and ``z . w = 0``.
At desk scale the active set can be enumerated outright: for every support
``S`` of coordinates allowed to be positive, the empty one included, the
square system ``(A z^{m-1} + q)_S = 0`` with ``z = 0`` off ``S`` is solved
from several seeded starts by batched damped Newton with an analytic
Jacobian: the (support, start) pairs of every support size iterate together,
each stopping on its own test, and each iteration is one stacked
``dim x dim`` solve whose matrices are the identity off each row's support.
Only the rows still iterating are carried: a row that stops leaves the
compacted arrays, so the kernels see a shrinking batch.  A row whose
residual is zero stops before backtracking, since no damping factor can go
below it.  Every support takes this one path; the empty one's rows start at
``z = 0``, where the residual is zero, and stop in their first iteration.
Row maxima and finiteness tests are taken column by column, which is exact
and avoids numpy's slow reduction over a short axis.  A batched screen of
each Newton batch only proposes roots: :func:`verify_solution` builds every
certificate, so each one recomputes ``w`` and the violation measure from
``z`` and nothing is trusted from the caller or from the screen.

For order 2 and even-order row-power tensors ``A z^{m-1} = M z^{[m-1]}``, so
TCP(q, A) is LCP(q, M): an LCP screen solves ``M_SS y_S = -q_S`` for every
support at once and skips the Newton starts of each support whose root is
clearly infeasible, starts whose iterates :func:`verify_solution` would fail.
The starts are drawn for every support and Newton rows are independent, so
every certificate is bit-identical to an unscreened run's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionLimitError
from .tensor import (
    DenseTensor,
    _as_vector,
    _lcp_matrix,
    _require_int,
    _require_positive_diagonal,
    _row_max,
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


@dataclass(frozen=True)
class SolveOptions:
    """Settings of :func:`solve_enumerate`.

    ``max_dim`` caps the dimension, since the enumeration is exponential, and
    ``seed`` fixes the Newton starts; both must be integers, at least 1 and
    0.  ``tol`` is the acceptance tolerance and must be positive and finite:
    roots are kept when no component of ``z`` or ``w`` is below ``-tol`` and
    no product ``|z_i w_i|`` exceeds it.  Roots closer than ``10 * tol`` in
    the max-norm are considered duplicates.
    """

    max_dim: int = 6
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        _require_int(self.max_dim, "max_dim", 1)
        _require_int(self.seed, "seed", 0)
        _require_tol(self.tol)


def _require_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _violations(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Violation measure of each row of the ``(k, n)`` arrays ``z`` and ``w``.

    The largest negative part of ``z`` or ``w`` or product ``|z_i w_i|``; a
    row with a NaN or inf entry has a NaN or inf product and measures ``inf``.
    """
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


# A z or q out of range makes w or a product z_i w_i inf or NaN, which the
# violation measure reports as inf; numpy's warnings about it are not wanted.
@np.errstate(over="ignore", invalid="ignore")
def verify_solution(inst: TcpInstance, z, tol: float = 1e-8) -> SolutionCertificate:
    """Recompute ``w`` and the violation measure for a claimed solution.

    A ``tol`` outside ``0 < tol < inf`` raises ``ValueError``; an infinite
    one would pass every candidate.
    """
    _require_tol(tol)
    z = _as_vector(z, inst.tensor.dim, "z").copy()
    w = contract_m1(inst.tensor, z) + inst.q
    violation = float(_violations(z[None], w[None])[0])
    return SolutionCertificate(
        z=z,
        w=w,
        support=tuple(int(i) + 1 for i in np.flatnonzero(z > tol)),
        max_violation=violation,
        tol=tol,
        passed=violation <= tol,
    )


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


# A large |q| can overflow the screen's z_i w_i or a Newton contraction; both
# drop the rows that are not finite, so numpy's warnings are not wanted.
@np.errstate(over="ignore", invalid="ignore")
def solve_enumerate(
    inst: TcpInstance, opts: SolveOptions | None = None
) -> list[SolutionCertificate]:
    """Enumerate supports and collect every verified solution.

    Returns certificates sorted by support size, then lexicographically by
    ``z``; an empty list means no support produced an acceptable root (for an
    instance believed to be P this is a solver failure, not a proof of
    infeasibility).  The run is deterministic for fixed options.  A NaN or
    infinite ``q`` raises ``ValueError``, as :class:`SolveOptions` does for a
    ``tol`` outside ``0 < tol < inf``.
    """
    opts = opts or SolveOptions()
    tensor, q = inst.tensor, inst.q
    scale = 1.0 + _q_root(tensor, q)
    n = tensor.dim
    if n > opts.max_dim:
        raise DimensionLimitError(
            f"support enumeration is exponential; dim {n} exceeds max_dim "
            f"{opts.max_dim}"
        )
    rng = np.random.default_rng(opts.seed)

    # Every support, in size then combinations order: the bit patterns, read
    # with coordinate 0 as the most significant bit, by size and then from
    # the largest value down.  Per support, _STARTS starts, zero off the
    # support; the empty support's starts are zero and draw nothing.
    codes = np.arange(1 << n)
    on_support = (codes[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    on_support = on_support[np.lexsort((-codes, on_support.sum(axis=1)))]
    mask = np.repeat(on_support, _STARTS, axis=0)
    starts = np.zeros(mask.shape)
    starts[mask] = scale * rng.uniform(0.05, 1.0, size=int(mask.sum()))
    # The starts are drawn for every support, so the kept rows, and their
    # iterates, are the ones an unscreened run makes.
    matrix = _lcp_matrix(tensor)
    if matrix is not None:
        rows = np.repeat(_lcp_screen(matrix, q, on_support, opts.tol, tensor.order), _STARTS)
        mask, starts = mask[rows], starts[rows]

    batch_rows = _batch_rows(tensor)
    kept: list[SolutionCertificate] = []
    # Every support, the empty one included, takes this one path; each Newton
    # batch is made when the loop reaches it, so only one batch's arrays are
    # alive at a time.
    for lo in range(0, mask.shape[0], batch_rows):
        candidates = _newton_on_supports(
            inst, mask[lo : lo + batch_rows], starts[lo : lo + batch_rows]
        )
        # A screen only: the batch kernel equals contract_m1 bit for bit, so
        # it drops exactly the rows verify_solution would fail, and
        # verify_solution certifies each distinct root that is left.
        w = contract_m1_batch(tensor, candidates) + q
        ok = _violations(candidates, w) <= opts.tol
        for z in candidates[ok]:
            if any(
                float(np.max(np.abs(z - other.z))) <= 10.0 * opts.tol
                for other in kept
            ):
                continue
            cert = verify_solution(inst, z, opts.tol)
            if cert.passed:
                kept.append(cert)
    kept.sort(key=lambda c: (len(c.support), tuple(c.z)))
    return kept


def _q_root(tensor: DenseTensor, q: np.ndarray) -> float:
    """``||(-q)+||_inf^{1/(m-1)}``, the scale of every solution's max-norm.

    A NaN or infinite ``q`` raises ``ValueError``.
    """
    q_list = q.tolist()
    if not all(map(math.isfinite, q_list)):
        raise ValueError("q must be finite, got NaN or inf")
    # max keeps its first argument on ties, so a -0.0 (from q_i = +0.0)
    # never replaces the +0.0.
    return max(0.0, -min(q_list)) ** (1.0 / (tensor.order - 1))


# Rows times stored entries times (order - 1) that one batched contraction or
# Jacobian may touch, which bounds their temporaries (512 KiB per array).
_BATCH_ENTRIES = 1 << 16


def _batch_rows(tensor: DenseTensor) -> int:
    return max(1, _BATCH_ENTRIES // max(1, tensor.nnz * (tensor.order - 1)))


# The LCP screen drops a support only when its linear root misses
# feasibility by more than max(tol, tol^{m-1}) (z_i >= -tol is y_i >=
# -tol^{m-1}) plus _SCREEN_SLACK of the scale of q, y and M y.  It trusts only
# blocks whose condition number is at most _SCREEN_MAX_COND, where the float
# error of y and w is about 1e-9 of that scale, a thousandth of the slack.
_SCREEN_SLACK = 1e-6
_SCREEN_MAX_COND = 1e6


def _lcp_screen(
    matrix: np.ndarray, q: np.ndarray, on_support: np.ndarray, tol: float, order: int
) -> np.ndarray:
    """Whether each support of ``on_support`` may give a root of LCP(q, M).

    On a support ``S`` the Newton system is ``M_SS y_S = -q_S`` with
    ``y = z^{[m-1]}``, zero off ``S``; its root is solved for every support
    at once, the blocks padded off ``S`` with ``||M||_inf`` times the
    identity.  A support is refused only when that root is clearly
    infeasible: some ``y_i`` on ``S`` or ``w_j = (M y + q)_j`` off ``S`` is
    below ``-eta``.  An ill-conditioned block, or a non-finite ``y`` or
    ``w``, keeps its support, and a singular block keeps every support.  The
    screen only removes Newton rows whose iterates ``verify_solution`` would
    fail; it builds no certificate.
    """
    norm = float(np.abs(matrix).sum(axis=1).max())
    blocks = np.where(
        on_support[:, :, None] & on_support[:, None, :], matrix, norm * np.eye(matrix.shape[0])
    )
    try:
        inverse = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        return np.ones(on_support.shape[0], dtype=bool)
    # Every row of a block sums to at most ||M||_inf in modulus, so this is at
    # least the block's condition number in the max-norm.
    cond = norm * _row_max(np.abs(inverse).sum(axis=2))
    # Zero off the support, where the right side is zero.
    y = (inverse @ np.where(on_support, -q, 0.0)[:, :, None])[:, :, 0]
    w = y @ matrix.T + q
    # A tol^{m-1} that overflows makes eta inf, which keeps every support.
    eta = max(tol, np.float64(tol) ** (order - 1)) + _SCREEN_SLACK * (
        1.0 + float(np.max(np.abs(q))) + (1.0 + norm) * _row_max(np.abs(y))
    )[:, None]
    infeasible = ((y < -eta) | (np.where(on_support, 0.0, w) < -eta)).any(axis=1)
    trusted = (cond <= _SCREEN_MAX_COND) & np.isfinite(_row_max(np.abs(w)))
    return ~(trusted & infeasible)


def _newton_on_supports(
    inst: TcpInstance, mask: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """Damped Newton for ``(A z^{m-1} + q)_S = 0`` with ``z = 0`` off ``S``, per row.

    Row ``r`` solves on the support ``S = mask[r]`` from ``starts[r]`` (zero
    off ``S``); all rows run together, and each stops on its own test.
    Iterates stay in ``dim`` coordinates and residuals are zero off ``S``.
    An iteration solves the Jacobian system on ``S`` for every active row in
    one stacked solve, the Jacobian padded with the identity off ``S``, which
    is singular exactly when its ``S x S`` block is; it then tries the
    damping factors ``_DAMPING`` in order and takes the first whose residual
    max-norm is below the current one.  A row is dropped when its residual
    at the start is not finite or its Jacobian is singular or gives a
    non-finite step.  Otherwise it stops, keeping its iterate, when its
    residual is zero (no factor can go below it, so none is tried), when no
    factor helps, or when its taken step is at most ``_STEP_TOL``; it then
    leaves the compacted arrays of active rows, so each kernel call sees
    only the rows still running.  Every max-norm is :func:`_row_max` of the
    absolute values, which is NaN or inf exactly when the row has a NaN or
    inf entry; so "finite" is "finite max-norm", and a trial's NaN or inf
    residual is never below the current, finite, one.  Returns the kept
    rows' final iterates.
    """
    tensor, q = inst.tensor, inst.q
    n = tensor.dim
    eye = np.eye(n)
    batch_rows = _batch_rows(tensor)

    out = starts.copy()
    f = np.where(mask, contract_m1_batch(tensor, starts) + q, 0.0)
    norm = _row_max(np.abs(f))
    keep = np.isfinite(norm)
    # The active rows: index in the batch, iterate, residual, its max-norm,
    # support, and where the Jacobian is replaced by the identity (off the
    # support the right side -f is zero, so the step is zero there too).  A
    # row that stops writes its iterate to out and leaves these arrays.
    rows = np.flatnonzero(keep)
    z, f, norm, mask = starts[rows], f[rows], norm[rows], mask[rows]
    off = ~(mask[:, :, None] & mask[:, None, :])
    for _ in range(_MAX_ITERATIONS):
        if rows.size == 0:
            break
        jac = jacobian_m1_batch(tensor, z)
        np.copyto(jac, eye, where=off)
        step = _solve_stacked(jac, -f)
        step_norm = _row_max(np.abs(step))
        finite = np.isfinite(step_norm)
        keep[rows[~finite]] = False
        going = finite & (norm > 0.0)
        if not going.all():
            out[rows[~going]] = z[~going]
            rows, z, f, norm, mask, off, step, step_norm = (
                a[going] for a in (rows, z, f, norm, mask, off, step, step_norm)
            )
            if rows.size == 0:
                break

        # Backtrack: the full step for every row, then the remaining factors
        # in blocks for the rows still waiting, first acceptable factor wins.
        # A block holds at most batch_rows trial points.  A row no factor
        # helps keeps factor 0: its step is then +-0, which leaves its
        # iterate as it is (an iterate is never -0.0) and stops it.
        factor = np.ones(rows.size)
        f_new = np.where(mask, contract_m1_batch(tensor, z + step) + q, 0.0)
        norm_new = _row_max(np.abs(f_new))
        waiting = np.flatnonzero(~(norm_new < norm))
        factor[waiting] = 0.0
        level = 1
        while waiting.size and level < _DAMPING.size:
            block = _DAMPING[level : level + max(1, batch_rows // waiting.size)]
            trial = z[waiting, None] + block[:, None] * step[waiting, None]
            f_trial = contract_m1_batch(tensor, trial.reshape(-1, n)) + q
            f_trial = np.where(mask[waiting, None], f_trial.reshape(trial.shape), 0.0)
            norm_trial = _row_max(np.abs(f_trial.reshape(-1, n))).reshape(trial.shape[:2])
            good = norm_trial < norm[waiting, None]
            hit = good.any(axis=1)
            first = np.argmax(good, axis=1)[hit]
            moved = waiting[hit]
            factor[moved] = block[first]
            f_new[moved] = f_trial[hit, first]
            norm_new[moved] = norm_trial[hit, first]
            waiting = waiting[~hit]
            level += block.size

        z, f, norm = z + factor[:, None] * step, f_new, norm_new
        # Rounding is monotone, so the taken step's max-norm is exactly
        # factor * step_norm.
        done = factor * step_norm <= _STEP_TOL
        if done.any():
            out[rows[done]] = z[done]
            going = ~done
            rows, z, f, norm, mask, off = (
                a[going] for a in (rows, z, f, norm, mask, off)
            )
    out[rows] = z
    return out[keep]


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
