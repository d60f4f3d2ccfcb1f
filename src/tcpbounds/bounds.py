"""Two-sided error bounds for approximate TCP solutions.

Given a verified solution ``z`` of TCP(q, A) and any test point ``u``, the
natural residual is built from the rooted contractions

    s = (A (u - z)^{m-1})^{[1/(m-1)]} + (A z^{m-1} + q)^{[1/(m-1)]}
    v = u - max(0, u - s)          (componentwise; equals min(u, s))

and, with ``R = ||A||_inf^{1/(m-1)}`` and a positive ``alpha = alpha(F_A)``,
the distance to the solution is sandwiched by the quadratic-root pair

    [ ||v||_inf (1 + R) -+ sqrt(D) ] / (2 alpha),
    D = ||v||_inf^2 (1 + R)^2 - 4 alpha v_t^2,

where ``t`` maximizes ``(u - z)_i (A (u - z)^{m-1})_i``.  The classical
baseline sandwich ``||v||_inf / (1 + R) <= ||z - u||_inf <= (1 + R) ||v||_inf
/ alpha`` is wider: the sharpened upper bound never exceeds the baseline one
(their ratio is at most 1).  Relative variants divide by
``||(-q)+||_inf^{1/(m-1)}`` and solution-norm bounds need no test point at
all.

:func:`build_report` is the one place that turns a residual into bounds.
``diagonal_bounds`` is that report with the closed-form alpha, and
``error_bounds_new``, ``error_bounds_zheng`` and ``relative_error_bounds``
are views that return its fields, raising a named error where the report
leaves them undefined.  The views take no ``tol``: they verify ``z`` at the
report's default, 1e-8.  ``solution_norm_bounds`` shares the report's
``||(-q)+||_inf`` helper and needs no residual.

Everything here consumes ``alpha(F)`` estimates.  ``D`` is nonnegative under
the P hypothesis; round-off slightly below zero is clamped, anything material
is reported as an invariant violation rather than patched over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateQError,
    DegenerateZError,
    ExactSolutionInconsistentError,
    InvariantViolationError,
    NotPTensorError,
    SolutionVerificationError,
)
from .operators import ALPHA_F, AlphaEstimate, diagonal_alpha_estimate
from .solve import TcpInstance, _q_root, verify_solution
from .tensor import (
    DenseTensor,
    _as_vector,
    _require_even_order,
    contract_m1,
    signed_root,
    tensor_inf_norm,
)

__all__ = [
    "FLAG_EXACT_SOLUTION",
    "FLAG_EXACT_SOLUTION_INCONSISTENT",
    "FLAG_NEGATIVE_ARGMAX",
    "FLAG_UNCERTIFIED_ALPHA",
    "FLAG_DEGENERATE_Q",
    "FLAG_DEGENERATE_Z",
    "FLAG_CLAMPED_DISCRIMINANT",
    "ResidualData",
    "BoundReport",
    "residual",
    "solution_norm_bounds",
    "error_bounds_new",
    "error_bounds_zheng",
    "relative_error_bounds",
    "build_report",
    "diagonal_bounds",
    "compare_upper_bounds",
]

FLAG_EXACT_SOLUTION = "EXACT_SOLUTION"
FLAG_EXACT_SOLUTION_INCONSISTENT = "EXACT_SOLUTION_INCONSISTENT"
FLAG_NEGATIVE_ARGMAX = "NEGATIVE_ARGMAX"
FLAG_UNCERTIFIED_ALPHA = "UNCERTIFIED_ALPHA"
FLAG_DEGENERATE_Q = "DEGENERATE_Q"
FLAG_DEGENERATE_Z = "DEGENERATE_Z"
FLAG_CLAMPED_DISCRIMINANT = "CLAMPED_DISCRIMINANT"

_RATIO_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class ResidualData:
    """Natural residual of a test point against a verified solution.

    ``v`` satisfies the componentwise identity ``v = min(u, s)`` with the
    bracketed sum above; ``t`` is the 1-based index maximizing
    ``(u - z)_i (A (u - z)^{m-1})_i`` (smallest index on ties), ``v_t`` the
    residual component there, and ``argmax_value`` the maximum itself, which
    is nonnegative whenever the tensor really is P.
    """

    v: np.ndarray
    v_inf: float
    t: int
    v_t: float
    argmax_value: float
    flags: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Every bound the library can certify for one ``(A, q, z, u)`` quadruple.

    ``lb_new``/``ub_new`` carry the sharpened sandwich and are ``None`` only
    in the EXACT_SOLUTION_INCONSISTENT fallback, where just the baseline pair
    is defined.  ``sol_lb``/``sol_ub`` bound ``||z||_inf`` from ``q`` alone;
    ``rel_lb``/``rel_ub`` are ``None`` when their hypotheses fail (see
    ``flags``).
    """

    lb_new: float | None
    ub_new: float | None
    lb_base: float
    ub_base: float
    D: float | None
    residual: ResidualData
    alpha: AlphaEstimate
    a_norm_root: float
    sol_lb: float
    sol_ub: float
    rel_lb: float | None
    rel_ub: float | None
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.lb_new is not None and self.ub_new is not None:
            if self.lb_new > self.ub_new + _RATIO_SLACK * max(1.0, abs(self.ub_new)):
                raise InvariantViolationError(
                    f"lower bound {self.lb_new} exceeds upper bound {self.ub_new}"
                )
        if self.lb_base > self.ub_base + _RATIO_SLACK * max(1.0, abs(self.ub_base)):
            raise InvariantViolationError(
                f"baseline lower bound {self.lb_base} exceeds upper {self.ub_base}"
            )
        if self.D is not None and self.D < 0.0:
            raise InvariantViolationError(f"discriminant {self.D} negative after clamp")
        if self.ub_new is not None:
            if self.ub_new > self.ub_base + _RATIO_SLACK * max(1.0, self.ub_base):
                raise InvariantViolationError(
                    f"sharpened upper bound {self.ub_new} exceeds baseline "
                    f"{self.ub_base}"
                )

    def relative_bounds(self) -> tuple[float, float]:
        """``(rel_lb, rel_ub)``, or the named error when they are undefined."""
        if FLAG_DEGENERATE_Q in self.flags:
            raise DegenerateQError(
                "DEGENERATE_Q: (-q)+ is zero, relative bounds are undefined"
            )
        if FLAG_DEGENERATE_Z in self.flags:
            raise DegenerateZError(
                "DEGENERATE_Z: the solution is zero, relative bounds are undefined"
            )
        if FLAG_EXACT_SOLUTION_INCONSISTENT in self.flags:
            raise ExactSolutionInconsistentError(
                f"residual component at the argmax index t={self.residual.t} is "
                "zero while u != z; relative bounds are undefined"
            )
        return self.rel_lb, self.rel_ub


def residual(tensor: DenseTensor, q, z, u, tol: float = 1e-8) -> ResidualData:
    """Build the natural residual of ``u`` against the verified solution ``z``.

    ``z`` is re-verified first (tolerance ``tol``) and rejected if it is not a
    solution; a NaN or infinite ``u`` raises ``ValueError``.  ``u == z``
    short-circuits to a zero residual flagged EXACT_SOLUTION.  The max-form
    ``u - max(0, u - s)`` is evaluated by componentwise selection, which
    resolves the outer subtraction exactly and makes the result bitwise equal
    to ``min(u, s)``.
    """
    _require_even_order(tensor, "the rooted residual")
    inst = TcpInstance(tensor, q)
    cert = verify_solution(inst, z, tol)
    if not cert.passed:
        raise SolutionVerificationError(
            f"z does not solve the problem within {tol}: max violation "
            f"{cert.max_violation}"
        )
    z = cert.z
    u = _as_vector(u, tensor.dim, "u")
    # A Python scan beats a numpy reduction on vectors this short.
    if not all(map(math.isfinite, u.tolist())):
        raise ValueError("u must be finite, got NaN or inf")
    if np.array_equal(u, z):
        return ResidualData(
            v=np.zeros(tensor.dim),
            v_inf=0.0,
            t=1,
            v_t=0.0,
            argmax_value=0.0,
            flags=(FLAG_EXACT_SOLUTION,),
        )
    d = u - z
    contracted = contract_m1(tensor, d)
    r = tensor.order - 1
    # cert.w is the equilibrium term A z^{m-1} + q, already computed from z.
    s = signed_root(contracted, r) + signed_root(cert.w, r)
    v = np.where(u - s > 0.0, s, u)
    objective = d * contracted
    t0 = int(np.argmax(objective))
    argmax_value = float(objective[t0])
    flags: tuple[str, ...] = ()
    if argmax_value < -1e-12 * max(1.0, float(np.max(np.abs(objective)))):
        flags = (FLAG_NEGATIVE_ARGMAX,)
    return ResidualData(
        v=v,
        v_inf=float(np.max(np.abs(v))),
        t=t0 + 1,
        v_t=float(v[t0]),
        argmax_value=argmax_value,
        flags=flags,
    )


def _require_alpha_f(alpha: AlphaEstimate) -> None:
    if alpha.kind != ALPHA_F:
        raise ValueError(
            f"bounds consume alpha estimates of kind {ALPHA_F!r}, got {alpha.kind!r}"
        )
    if not alpha.value > 0.0:
        raise NotPTensorError(
            "NOT_P_CERTIFICATE: alpha(F) is not positive, the two-sided bounds "
            "do not apply"
        )


def _norm_root(tensor: DenseTensor) -> float:
    return tensor_inf_norm(tensor) ** (1.0 / (tensor.order - 1))


def _solution_norm_pair(
    q_root: float, norm_root: float, alpha: float
) -> tuple[float, float]:
    if norm_root == 0.0:
        raise InvariantViolationError("the zero tensor cannot carry a P certificate")
    return q_root / norm_root, q_root / alpha


def _discriminant(b: float, v_t: float, alpha: float) -> tuple[float, bool]:
    """``D = b^2 - 4 alpha v_t^2`` with round-off below zero clamped to 0.

    Returns ``D`` and whether the clamp fired; a materially negative ``D``
    raises.
    """
    d_raw = b * b - 4.0 * alpha * v_t * v_t
    eps_d = 1e-10 * max(1.0, b * b)
    if d_raw <= -eps_d:
        raise InvariantViolationError(
            f"discriminant {d_raw} is materially negative (threshold {-eps_d}); "
            "the P hypothesis or the supplied alpha is wrong"
        )
    clamped = d_raw < 0.0
    return (0.0 if clamped else d_raw), clamped


def _base_interval(v_inf: float, alpha: float, norm_root: float) -> tuple[float, float]:
    return v_inf / (1.0 + norm_root), (1.0 + norm_root) * v_inf / alpha


def _check_argmax(data: ResidualData) -> None:
    if FLAG_NEGATIVE_ARGMAX in data.flags:
        raise InvariantViolationError(
            f"(u-z)_t (A(u-z)^(m-1))_t = {data.argmax_value} < 0 at t={data.t}; "
            "the tensor cannot be P"
        )


def build_report(
    tensor: DenseTensor, q, z, u, alpha: AlphaEstimate, tol: float = 1e-8
) -> BoundReport:
    """Assemble every bound for ``(A, q, z, u)`` from one residual and ``alpha``.

    The single-purpose bound functions below read their fields from this
    report.
    """
    _require_alpha_f(alpha)
    q = _as_vector(q, tensor.dim, "q")
    data = residual(tensor, q, z, u, tol)
    _check_argmax(data)
    norm_root = _norm_root(tensor)
    flags = list(data.flags)
    if not alpha.certified:
        flags.append(FLAG_UNCERTIFIED_ALPHA)

    exact = FLAG_EXACT_SOLUTION in data.flags
    # b and sqrt(D) are shared by the sharpened and the relative pairs.
    b = data.v_inf * (1.0 + norm_root)
    lb_new = ub_new = d_value = sq = None
    if exact:
        lb_new = ub_new = d_value = lb_base = ub_base = 0.0
    else:
        lb_base, ub_base = _base_interval(data.v_inf, alpha.value, norm_root)
        if data.v_t == 0.0:
            flags.append(FLAG_EXACT_SOLUTION_INCONSISTENT)
        else:
            d_value, clamped = _discriminant(b, data.v_t, alpha.value)
            if clamped:
                flags.append(FLAG_CLAMPED_DISCRIMINANT)
            sq = math.sqrt(d_value)
            lb_new = (b - sq) / (2.0 * alpha.value)
            ub_new = (b + sq) / (2.0 * alpha.value)

    q_root = _q_root(tensor, q)
    sol_lb, sol_ub = _solution_norm_pair(q_root, norm_root, alpha.value)

    rel_lb: float | None
    rel_ub: float | None
    if q_root == 0.0:
        flags.append(FLAG_DEGENERATE_Q)
        rel_lb = rel_ub = None
    elif not np.any(_as_vector(z, tensor.dim, "z")):
        flags.append(FLAG_DEGENERATE_Z)
        rel_lb = rel_ub = None
    elif exact:
        rel_lb = rel_ub = 0.0
    elif sq is None:
        rel_lb = rel_ub = None
    else:
        rel_lb = (b - sq) / (2.0 * q_root)
        rel_ub = norm_root * (b + sq) / (2.0 * alpha.value * q_root)

    return BoundReport(
        lb_new=lb_new,
        ub_new=ub_new,
        lb_base=lb_base,
        ub_base=ub_base,
        D=d_value,
        residual=data,
        alpha=alpha,
        a_norm_root=norm_root,
        sol_lb=sol_lb,
        sol_ub=sol_ub,
        rel_lb=rel_lb,
        rel_ub=rel_ub,
        flags=tuple(flags),
    )


def diagonal_bounds(tensor: DenseTensor, q, z, u) -> BoundReport:
    """Full report for positive diagonal tensors via the certified closed form.

    :func:`build_report` fed ``alpha(F) = min_i a_i^{1/(m-1)}``; for a
    positive diagonal ``||A||_inf`` is exactly the largest diagonal entry.
    """
    return build_report(tensor, q, z, u, diagonal_alpha_estimate(tensor))


def error_bounds_new(
    tensor: DenseTensor, q, z, u, alpha: AlphaEstimate
) -> tuple[float, float, float]:
    """Sharpened two-sided bounds ``(lb, ub, D)`` on ``||z - u||_inf``."""
    report = build_report(tensor, q, z, u, alpha)
    if FLAG_EXACT_SOLUTION_INCONSISTENT in report.flags:
        raise ExactSolutionInconsistentError(
            f"residual component at the argmax index t={report.residual.t} is "
            "zero while u != z; only the baseline bound applies"
        )
    return report.lb_new, report.ub_new, report.D


def error_bounds_zheng(
    tensor: DenseTensor, q, z, u, alpha: AlphaEstimate
) -> tuple[float, float]:
    """Baseline two-sided bounds on ``||z - u||_inf`` from the same residual."""
    report = build_report(tensor, q, z, u, alpha)
    return report.lb_base, report.ub_base


def relative_error_bounds(
    tensor: DenseTensor, q, z, u, alpha: AlphaEstimate
) -> tuple[float, float]:
    """Bounds on ``||z - u||_inf / ||z||_inf`` scaled by ``||(-q)+||_inf``.

    Undefined when ``(-q)+ = 0`` (DEGENERATE_Q) or ``z = 0`` (DEGENERATE_Z).
    """
    return build_report(tensor, q, z, u, alpha).relative_bounds()


def solution_norm_bounds(
    tensor: DenseTensor, q, alpha: AlphaEstimate
) -> tuple[float, float]:
    """Bounds on ``||z||_inf`` valid for every solution, from ``q`` alone."""
    _require_alpha_f(alpha)
    q = _as_vector(q, tensor.dim, "q")
    _require_even_order(tensor, "solution-norm bounds")
    return _solution_norm_pair(_q_root(tensor, q), _norm_root(tensor), alpha.value)


def compare_upper_bounds(report: BoundReport) -> float:
    """Ratio ``ub_new / ub_base``; at most 1 up to round-off.

    Both zero-width intervals (``u == z``) give 0 by convention; a zero
    baseline with a positive sharpened bound is an invariant violation.
    """
    if report.ub_new is None:
        raise ValueError(
            "the sharpened upper bound is unavailable on this report; "
            "nothing to compare"
        )
    if report.ub_base == 0.0:
        if report.ub_new == 0.0:
            return 0.0
        raise InvariantViolationError(
            f"baseline upper bound is 0 but the sharpened one is {report.ub_new}"
        )
    ratio = report.ub_new / report.ub_base
    if ratio > 1.0 + _RATIO_SLACK:
        raise InvariantViolationError(
            f"upper-bound ratio {ratio} exceeds 1 beyond round-off"
        )
    return float(ratio)
