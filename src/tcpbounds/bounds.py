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
are views that return its fields; only the relative pair can be undefined,
and its view then raises the named error.  The views take no ``tol``: they
verify ``z`` at the report's default, 1e-8.  ``solution_norm_bounds``
shares the report's ``||(-q)+||_inf`` helper and needs no residual.

``z`` is verified once per ``(tensor, q, z, tol)``, not once per report: the
tensor keeps the certificate of the last ``(q, z, tol)`` it was verified
against, keyed by the bytes of both vectors and ``tol``, so the many test
points of one solution share one verification.  That is exact, because the
tensor is immutable and the key holds every bit :func:`verify_solution`
reads; a failing ``z`` is refused on every call, and the kept certificate's
``z`` and ``w`` reach no caller.

The contraction ``A (u - z)^{m-1}`` and the signed roots run in numpy; every
reduction, comparison and selection over the length-``n`` vectors (the
``u == z`` test, ``min(u, s)``, the argmax ``t``, ``||v||_inf``, the
NEGATIVE_ARGMAX scale and the DEGENERATE_Z test) runs on Python floats from
one ``tolist()`` per vector, since at desk-scale ``n`` one numpy call costs
more than the whole loop.  The results are bit for bit numpy's: the guards
before them have refused NaN and inf, ``max`` keeps the first of equal values
as ``np.argmax`` does, ``-0.0 == 0.0`` in both, and ``abs``, comparison and
selection are exact.

Everything here consumes ``alpha(F)`` estimates under one hypothesis, ``0 <
alpha <= R``, checked before anything else up to a relative ``1e-12``, the
report's one tolerance.  Every tensor has ``alpha(F) <= R``: at ``e_j`` the
objective is ``a_j^{1/(m-1)}``.  So ``D >= ||v||_inf^2 ((1 + R)^2 - 4 R) =
||v||_inf^2 (1 - R)^2 >= 0``, every pair is ordered, and the clamp of a
negative ``D`` to 0 (flagged CLAMPED_DISCRIMINANT) absorbs only round-off.  Where
``b = ||v||_inf (1 + R)`` is so small that ``b^2`` underflows (below about
1e-154), every bound is formed from ``||v||_inf`` and ``v_t`` scaled by a
power of two that puts ``b`` in ``[0.5, 1)``, and each is scaled back with
one rounding; anywhere else the formulas run as written.  A report checks
the paper's claim ``ub_new <= ub_base`` once, when it is built, up to a
relative round-off; :func:`compare_upper_bounds` only divides.
"""

from __future__ import annotations

import math
import sys
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
from .solve import SolutionCertificate, TcpInstance, _q_root, verify_solution
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
FLAG_NEGATIVE_ARGMAX = "NEGATIVE_ARGMAX"
FLAG_UNCERTIFIED_ALPHA = "UNCERTIFIED_ALPHA"
FLAG_DEGENERATE_Q = "DEGENERATE_Q"
FLAG_DEGENERATE_Z = "DEGENERATE_Z"
FLAG_CLAMPED_DISCRIMINANT = "CLAMPED_DISCRIMINANT"

_RATIO_SLACK = 1e-12

# A positive magnitude overflows exactly when its log exceeds this.
_LOG_MAX = math.log(sys.float_info.max)

# The real-valued fields of a BoundReport; only rel_lb and rel_ub may be None.
_REAL_FIELDS = (
    "lb_new", "ub_new", "lb_base", "ub_base", "D",
    "a_norm_root", "sol_lb", "sol_ub", "rel_lb", "rel_ub",
)


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

    ``lb_new``/``ub_new`` carry the sharpened sandwich and ``lb_base``/
    ``ub_base`` the baseline one; both pairs and ``D`` are always set.
    ``sol_lb``/``sol_ub`` bound ``||z||_inf`` from ``q`` alone;
    ``rel_lb``/``rel_ub`` are ``None`` when their hypotheses fail (see
    ``flags``).
    """

    lb_new: float
    ub_new: float
    lb_base: float
    ub_base: float
    D: float
    residual: ResidualData
    alpha: AlphaEstimate
    a_norm_root: float
    sol_lb: float
    sol_ub: float
    rel_lb: float | None
    rel_ub: float | None
    flags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        # NaN passes every ordering check below, so it is refused first.
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None and math.isnan(value):
                raise InvariantViolationError(f"{name} is NaN")
        # alpha <= R (1 + s) is what orders every pair below.
        _require_alpha_f(self.alpha, self.a_norm_root)
        # Each ordering allows a relative round-off, which holds at every scale.
        for name, lb, ub in (
            ("sharpened", self.lb_new, self.ub_new),
            ("baseline", self.lb_base, self.ub_base),
            ("solution-norm", self.sol_lb, self.sol_ub),
            ("relative", self.rel_lb, self.rel_ub),
        ):
            if lb is not None and ub is not None and lb > ub * (1.0 + _RATIO_SLACK):
                raise InvariantViolationError(
                    f"{name} lower bound {lb} exceeds upper bound {ub}"
                )
        if self.D < 0.0:
            raise InvariantViolationError(f"discriminant {self.D} negative after clamp")
        # The only check of ub_new <= ub_base.
        if self.ub_new > self.ub_base * (1.0 + _RATIO_SLACK):
            raise InvariantViolationError(
                f"sharpened upper bound {self.ub_new} exceeds baseline {self.ub_base}"
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
        return self.rel_lb, self.rel_ub


def residual(tensor: DenseTensor, q, z, u, tol: float = 1e-8) -> ResidualData:
    """Build the natural residual of ``u`` against the verified solution ``z``.

    ``z`` is verified first (tolerance ``tol``), once per ``(tensor, q, z,
    tol)`` as the module notes say, and rejected if it is not a solution; a
    NaN or infinite ``u`` raises ``ValueError``.  ``u == z`` short-circuits
    to a zero residual flagged EXACT_SOLUTION.  ``||A||_inf`` is finite, as
    :class:`DenseTensor` guarantees; a ``u`` so far from ``z`` that
    ``||u - z||_inf^{m-1}`` or ``||A||_inf ||u - z||_inf^m`` leaves the float
    range raises ``ValueError`` before anything is contracted; so does a
    ``w = A z^{m-1} + q`` whose root added to that of ``A (u - z)^{m-1}``
    can overflow.  The max-form ``u - max(0, u - s)`` is evaluated by
    componentwise selection on ``u > s``, the sign of ``u - s`` without its
    overflow, which resolves the outer subtraction exactly and makes the
    result bitwise equal to ``min(u, s)``.  Where every ``(u - z)_i (A (u -
    z)^{m-1})_i`` underflows below the smallest normal float, ``t`` is taken
    from the same objective of ``u - z`` scaled by a power of two to unit
    size; ``argmax_value`` stays the unscaled maximum.  NEGATIVE_ARGMAX flags
    a maximum below ``-1e-12`` times the objective's largest modulus, both
    read from the objective ``t`` was picked from.
    """
    _require_even_order(tensor, "the rooted residual")
    q = _as_vector(q, tensor.dim, "q")
    z = _as_vector(z, tensor.dim, "z")
    cert = _certificate(tensor, q, z, tol)
    if not cert.passed:
        raise SolutionVerificationError(
            f"z does not solve the problem within {tol}: max violation "
            f"{cert.max_violation}"
        )
    u = _as_vector(u, tensor.dim, "u")
    u_list = u.tolist()
    if not all(map(math.isfinite, u_list)):
        raise ValueError("u must be finite, got NaN or inf")
    z_list = z.tolist()
    if u_list == z_list:
        return ResidualData(
            v=np.zeros(tensor.dim),
            v_inf=0.0,
            t=1,
            v_t=0.0,
            argmax_value=0.0,
            flags=(FLAG_EXACT_SOLUTION,),
        )
    r = tensor.order - 1
    # Every product contract_m1 forms is at most ||d||^{m-1} in modulus, and
    # |d_i (A d^{m-1})_i| <= ||A|| ||d||^m.  Compared in logs, and with d_inf
    # from Python floats, the test overflows nowhere itself.
    d_inf = max(abs(a - b) for a, b in zip(u_list, z_list))
    norm = tensor_inf_norm(tensor)
    log_d = math.log(d_inf)
    if r * log_d > _LOG_MAX or (
        norm > 0.0 and math.log(norm) + (r + 1) * log_d > _LOG_MAX
    ):
        raise ValueError(
            f"A (u - z)^{{m-1}} overflows (||u - z||_inf = {d_inf}, ||A||_inf = "
            f"{norm}); u is too far from z, rescale the problem"
        )
    # s below is at most ||A||^{1/(m-1)} ||d|| + ||w||^{1/(m-1)} in modulus;
    # a sum of Python floats overflows to inf without a warning.
    w_inf = max(map(abs, cert.w.tolist()))
    if _norm_root(tensor) * d_inf + w_inf ** (1.0 / r) == math.inf:
        raise ValueError(
            f"root(A (u - z)^{{m-1}}) + root(A z^{{m-1}} + q) overflows (||w||_inf = "
            f"{w_inf}, ||A||_inf = {norm}); rescale the problem"
        )
    d = u - z
    contracted = contract_m1(tensor, d)
    # cert.w is the equilibrium term A z^{m-1} + q, already computed from z;
    # both are rooted in one call.
    root_d, root_w = signed_root(np.array((contracted, cert.w)), r)
    s = root_d + root_w
    v_list = [b if a > b else a for a, b in zip(u_list, s.tolist())]
    objective = (d * contracted).tolist()
    argmax_value = top = max(objective)
    objective_inf = max(map(abs, objective))
    if objective_inf < sys.float_info.min:
        # Every product underflowed, maybe to ties at zero: t is picked from
        # the objective of 2^k d, with ||2^k d||_inf in [0.5, 1).
        scaled = np.ldexp(d, -math.frexp(d_inf)[1])
        objective = (scaled * contract_m1(tensor, scaled)).tolist()
        top, objective_inf = max(objective), max(map(abs, objective))
    # max keeps the first of equal values, so t is the smallest maximizer.
    t0 = objective.index(top)
    flags: tuple[str, ...] = ()
    if top < -_RATIO_SLACK * objective_inf:
        flags = (FLAG_NEGATIVE_ARGMAX,)
    return ResidualData(
        v=np.array(v_list),
        v_inf=max(map(abs, v_list)),
        t=t0 + 1,
        v_t=v_list[t0],
        argmax_value=argmax_value,
        flags=flags,
    )


def _certificate(
    tensor: DenseTensor, q: np.ndarray, z: np.ndarray, tol: float
) -> SolutionCertificate:
    """:func:`verify_solution`'s certificate, kept on the tensor for the next call.

    ``q`` and ``z`` are already float vectors, so their bytes and ``tol`` are
    every input bit the check reads; ``-0.0`` and ``0.0`` differ in bytes, so
    they only miss.  A failing certificate is kept too; a bad ``tol`` raises
    before anything is kept.
    """
    key = (q.tobytes(), z.tobytes(), tol)
    kept = tensor._verified
    if kept is not None and kept[0] == key:
        return kept[1]
    cert = verify_solution(TcpInstance(tensor, q), z, tol)
    object.__setattr__(tensor, "_verified", (key, cert))
    return cert


def _require_alpha_f(alpha: AlphaEstimate, norm_root: float) -> None:
    if alpha.kind != ALPHA_F:
        raise ValueError(
            f"bounds consume alpha estimates of kind {ALPHA_F!r}, got {alpha.kind!r}"
        )
    if not alpha.value > 0.0:
        raise NotPTensorError(
            "NOT_P_CERTIFICATE: alpha(F) is not positive, the two-sided bounds "
            "do not apply"
        )
    if alpha.value > norm_root * (1.0 + _RATIO_SLACK):
        raise InvariantViolationError(
            f"alpha(F) = {alpha.value} exceeds ||A||_inf^{{1/(m-1)}} = {norm_root}, "
            "which bounds it for every tensor; the supplied alpha is wrong"
        )


def _norm_root(tensor: DenseTensor) -> float:
    return tensor_inf_norm(tensor) ** (1.0 / (tensor.order - 1))


def _solution_norm_pair(
    q_root: float, norm_root: float, alpha: float
) -> tuple[float, float]:
    return q_root / norm_root, q_root / alpha


def _discriminant(b: float, v_t: float, alpha: float) -> tuple[float, bool]:
    """``D = b^2 - 4 alpha v_t^2`` with round-off below zero clamped to 0.

    Returns ``D`` and whether the clamp fired; a term that overflows to inf
    raises ``ValueError``.  With ``|v_t| <= ||v||_inf`` and ``alpha <= R (1 +
    s)``, ``s = _RATIO_SLACK``, ``b^2 - 4 alpha v_t^2 >= -s b^2`` unrounded.
    """
    b2 = b * b
    a2 = 4.0 * alpha * v_t * v_t
    if not (math.isfinite(b2) and math.isfinite(a2)):
        raise ValueError(
            f"D = b^2 - 4 alpha v_t^2 overflows (b = {b}, v_t = {v_t}); "
            "u is too far from z, rescale the problem"
        )
    d_raw = b2 - a2
    clamped = d_raw < 0.0
    return (0.0 if clamped else d_raw), clamped


def build_report(
    tensor: DenseTensor, q, z, u, alpha: AlphaEstimate, tol: float = 1e-8
) -> BoundReport:
    """Assemble every bound for ``(A, q, z, u)`` from one residual and ``alpha``.

    The single-purpose bound functions below read their fields from this
    report.  A ``u`` whose contraction (see :func:`residual`) or
    discriminant ``D`` overflows is refused with ``ValueError``; an
    overflowing ``||A||_inf`` is refused earlier, by :class:`DenseTensor`.
    A negative argmax value and ``v_t = 0`` at ``u != z``, which no P-tensor
    with ``z`` its solution allows, are refused before any bound is formed.
    """
    norm_root = _norm_root(tensor)
    _require_alpha_f(alpha, norm_root)
    q = _as_vector(q, tensor.dim, "q")
    data = residual(tensor, q, z, u, tol)
    if FLAG_NEGATIVE_ARGMAX in data.flags:
        raise InvariantViolationError(
            f"(u-z)_t (A(u-z)^(m-1))_t = {data.argmax_value} < 0 at t={data.t}; "
            "the tensor cannot be P"
        )
    # A P-tensor with z its solution has d_t (A d^{m-1})_t > 0 at u != z, so
    # v_t != 0; at u == z, v = 0 and every bound below comes out +0.0.
    if data.v_t == 0.0 and FLAG_EXACT_SOLUTION not in data.flags:
        raise ExactSolutionInconsistentError(
            f"EXACT_SOLUTION_INCONSISTENT: v_t = 0 at the argmax index t={data.t} "
            "while u != z, which no P-tensor with z its solution allows (or "
            "A (u - z)^(m-1) underflowed); no bound is formed"
        )
    flags = list(data.flags)
    if not alpha.certified:
        flags.append(FLAG_UNCERTIFIED_ALPHA)

    # b and sqrt(D) are shared by the sharpened and the relative pairs.
    v_inf, v_t, k = data.v_inf, data.v_t, 0
    b = v_inf * (1.0 + norm_root)
    if b * b < sys.float_info.min:
        # b^2 would underflow: every bound is formed from v_inf and v_t
        # scaled by 2^-k, which puts b in [0.5, 1), and scaled back at the end.
        k = math.frexp(b)[1]
        v_inf, v_t = math.ldexp(v_inf, -k), math.ldexp(v_t, -k)
        b = v_inf * (1.0 + norm_root)
    lb_base = v_inf / (1.0 + norm_root)
    ub_base = (1.0 + norm_root) * v_inf / alpha.value
    d_value, clamped = _discriminant(b, v_t, alpha.value)
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
    elif not any(_as_vector(z, tensor.dim, "z").tolist()):
        flags.append(FLAG_DEGENERATE_Z)
        rel_lb = rel_ub = None
    else:
        rel_lb = (b - sq) / (2.0 * q_root)
        rel_ub = norm_root * (b + sq) / (2.0 * alpha.value * q_root)
    if k:
        lb_new, ub_new, lb_base, ub_base, rel_lb, rel_ub = (
            None if x is None else math.ldexp(x, k)
            for x in (lb_new, ub_new, lb_base, ub_base, rel_lb, rel_ub)
        )
        d_value = math.ldexp(d_value, 2 * k)

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
    """Bounds on ``||z||_inf`` valid for every solution, from ``q`` alone.

    A NaN or infinite ``q`` raises ``ValueError``; ``||A||_inf`` is finite,
    as :class:`DenseTensor` guarantees.
    """
    norm_root = _norm_root(tensor)
    _require_alpha_f(alpha, norm_root)
    q = _as_vector(q, tensor.dim, "q")
    _require_even_order(tensor, "solution-norm bounds")
    return _solution_norm_pair(_q_root(tensor, q), norm_root, alpha.value)


def compare_upper_bounds(report: BoundReport) -> float:
    """Ratio ``ub_new / ub_base``, and 0 for a zero baseline (``u == z``).

    The report has already checked ``ub_new <= ub_base`` up to a relative
    round-off, so the ratio is at most 1 up to round-off.
    """
    return float(report.ub_new / report.ub_base) if report.ub_base else 0.0
