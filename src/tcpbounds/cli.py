"""Command-line front end.

Every subcommand reads a problem file, prints a report as aligned text or as
flat ``key=value`` lines (``--format machine``, reals with 17 significant
digits), and exits 0 on success, 1 when a mathematical hypothesis fails
(NOT_P, DEGENERATE_Q, failed verification, no solution found), 2 on I/O or
validation errors.  Output is deterministic byte for byte for fixed inputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bounds import (
    BoundReport,
    build_report,
    compare_upper_bounds,
    solution_norm_bounds,
)
from .errors import (
    DegenerateQError,
    DegenerateZError,
    ExactSolutionInconsistentError,
    InvariantViolationError,
    NotPTensorError,
    ProblemFormatError,
    SolutionVerificationError,
)
from .io import ProblemFile, parse_problem
from .operators import (
    ALPHA_F,
    ALPHA_T,
    GridSpec,
    LIKELY_P,
    alpha_for,
    check_p_tensor_sampled,
)
from .solve import SolveOptions, TcpInstance, solve_enumerate, verify_solution

__all__ = ["main", "main_entry"]

_HYPOTHESIS_ERRORS = (
    NotPTensorError,
    DegenerateQError,
    DegenerateZError,
    SolutionVerificationError,
    ExactSolutionInconsistentError,
    InvariantViolationError,
)
# Every validation error of the package (bad file, shape, size, tensor kind
# or setting) is a ValueError.
_VALIDATION_ERRORS = (ValueError, OSError)

AMBIGUOUS_SOLUTION = "AMBIGUOUS_SOLUTION"


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, np.ndarray):
        return ",".join(format(float(x), ".17g") for x in value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(x) for x in value) if value else "none"
    return str(value)


def _render(pairs: list[tuple[str, object]], fmt: str) -> str:
    if fmt == "machine":
        return "\n".join(f"{key}={_fmt(val)}" for key, val in pairs)
    width = max(len(key) for key, _ in pairs)
    return "\n".join(f"{key.ljust(width)}  {_fmt(val)}" for key, val in pairs)


def _parse_vector(text: str, what: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ProblemFormatError(
            f"--{what} must be comma-separated reals, got {text!r}"
        ) from None


def _grid(args) -> GridSpec | None:
    return None if args.grid is None else GridSpec(points_per_axis=args.grid)


def _alpha_pairs(alpha) -> list[tuple[str, object]]:
    return [
        ("alpha", alpha.value),
        ("alpha_kind", alpha.kind),
        ("alpha_method", alpha.method),
        ("alpha_certified", alpha.certified),
        ("grid_points_per_axis", alpha.grid_points_per_axis),
        ("refinement_steps", alpha.refinement_steps),
    ]


def _resolve_z(
    problem: ProblemFile, inst: TcpInstance, args
) -> tuple[np.ndarray, str, list]:
    """Pick z from the flag, the file, or by solving; returns extra flags."""
    if args.z is not None:
        return _parse_vector(args.z, "z"), "flag", []
    if problem.z is not None:
        return problem.z, "file", []
    opts = SolveOptions(seed=args.seed)
    certs = solve_enumerate(inst, opts)
    if not certs:
        raise SolutionVerificationError(
            "no solution found by support enumeration; supply --z"
        )
    extra = [AMBIGUOUS_SOLUTION] if len(certs) > 1 else []
    return certs[0].z, f"solver({len(certs)} found, smallest support used)", extra


def _resolve_u(problem: ProblemFile, args) -> np.ndarray:
    if args.u is not None:
        return _parse_vector(args.u, "u")
    if problem.u is not None:
        return problem.u
    raise ProblemFormatError("a test point is required: pass --u or put u in the file")


def _tol(args, default: float = 1e-8) -> float:
    return args.tol if args.tol is not None else default


def _cmd_alpha(problem: ProblemFile, inst: TcpInstance, args):
    kind = ALPHA_T if args.kind == "T" else ALPHA_F
    alpha = alpha_for(inst.tensor, kind, _grid(args))
    return [("command", "alpha")] + _alpha_pairs(alpha), 0


def _cmd_check_p(problem: ProblemFile, inst: TcpInstance, args):
    check = check_p_tensor_sampled(
        inst.tensor, sample_count=args.samples, seed=args.seed
    )
    pairs = [
        ("command", "check-p"),
        ("verdict", check.verdict),
        ("points_checked", check.points_checked),
        ("witness", check.witness),
        ("witness_value", check.witness_value),
    ]
    return pairs, 0 if check.verdict == LIKELY_P else 1


def _cmd_solve(problem: ProblemFile, inst: TcpInstance, args):
    opts = SolveOptions(seed=args.seed, tol=_tol(args, SolveOptions.tol))
    certs = solve_enumerate(inst, opts)
    pairs: list[tuple[str, object]] = [("command", "solve"), ("solutions", len(certs))]
    for k, cert in enumerate(certs, 1):
        pairs.extend(
            [
                (f"z_{k}", cert.z),
                (f"w_{k}", cert.w),
                (f"support_{k}", cert.support),
                (f"max_violation_{k}", cert.max_violation),
            ]
        )
    return pairs, 0 if certs else 1


def _cmd_verify(problem: ProblemFile, inst: TcpInstance, args):
    z, source, _ = _resolve_z(problem, inst, args)
    cert = verify_solution(inst, z, _tol(args))
    pairs = [
        ("command", "verify"),
        ("z", cert.z),
        ("z_source", source),
        ("w", cert.w),
        ("support", cert.support),
        ("max_violation", cert.max_violation),
        ("tol", cert.tol),
        ("passed", cert.passed),
    ]
    return pairs, 0 if cert.passed else 1


def _cmd_sol_bounds(problem: ProblemFile, inst: TcpInstance, args):
    alpha = alpha_for(inst.tensor, ALPHA_F, _grid(args))
    lb, ub = solution_norm_bounds(inst.tensor, inst.q, alpha)
    pairs = (
        [("command", "sol-bounds")]
        + _alpha_pairs(alpha)
        + [("sol_lb", lb), ("sol_ub", ub)]
    )
    return pairs, 0


def _report_pairs(report: BoundReport) -> list[tuple[str, object]]:
    data = report.residual
    return _alpha_pairs(report.alpha) + [
        ("a_norm_root", report.a_norm_root),
        ("v", data.v),
        ("v_inf", data.v_inf),
        ("t", data.t),
        ("v_t", data.v_t),
        ("argmax_value", data.argmax_value),
        ("D", report.D),
        ("lb_new", report.lb_new),
        ("ub_new", report.ub_new),
        ("lb_base", report.lb_base),
        ("ub_base", report.ub_base),
        ("sol_lb", report.sol_lb),
        ("sol_ub", report.sol_ub),
        ("rel_lb", report.rel_lb),
        ("rel_ub", report.rel_ub),
    ]


def _full_report(
    problem: ProblemFile, inst: TcpInstance, args
) -> tuple[BoundReport, list, tuple]:
    z, source, extra = _resolve_z(problem, inst, args)
    u = _resolve_u(problem, args)
    alpha = alpha_for(inst.tensor, ALPHA_F, _grid(args))
    report = build_report(inst.tensor, inst.q, z, u, alpha, _tol(args))
    header = [("z", z), ("z_source", source), ("u", u)]
    return report, header, tuple(list(report.flags) + extra)


def _cmd_bounds(problem: ProblemFile, inst: TcpInstance, args):
    report, header, flags = _full_report(problem, inst, args)
    pairs = (
        [("command", "bounds")]
        + header
        + _report_pairs(report)
        + [("flags", flags)]
    )
    return pairs, 0


def _cmd_rel_bounds(problem: ProblemFile, inst: TcpInstance, args):
    report, header, flags = _full_report(problem, inst, args)
    rel_lb, rel_ub = report.relative_bounds()
    data = report.residual
    pairs = (
        [("command", "rel-bounds")]
        + header
        + _alpha_pairs(report.alpha)
        + [
            ("v_inf", data.v_inf),
            ("t", data.t),
            ("v_t", data.v_t),
            ("rel_lb", rel_lb),
            ("rel_ub", rel_ub),
            ("flags", flags),
        ]
    )
    return pairs, 0


def _cmd_compare(problem: ProblemFile, inst: TcpInstance, args):
    report, header, flags = _full_report(problem, inst, args)
    ratio = compare_upper_bounds(report)
    pairs = (
        [("command", "compare")]
        + header
        + _report_pairs(report)
        + [("ratio_ub_new_over_ub_base", ratio), ("flags", flags)]
    )
    return pairs, 0


_COMMANDS = {
    "alpha": _cmd_alpha,
    "check-p": _cmd_check_p,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "sol-bounds": _cmd_sol_bounds,
    "bounds": _cmd_bounds,
    "rel-bounds": _cmd_rel_bounds,
    "compare": _cmd_compare,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpbounds",
        description="Certified error bounds for tensor complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "alpha": "estimate the P-certifying coefficient alpha",
        "check-p": "sample the P-defining objective for a counterexample",
        "solve": "enumerate supports and report all verified solutions",
        "verify": "check a claimed solution and report its violation measure",
        "sol-bounds": "bound the max-norm of every solution from q alone",
        "bounds": "full two-sided error-bound report for a test point",
        "rel-bounds": "relative error bounds for a test point",
        "compare": "bounds report plus the sharpened/baseline upper-bound ratio",
    }
    for name, help_text in descriptions.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--file", required=True, help="problem file (YAML)")
        cmd.add_argument("--u", help="test point, comma-separated reals")
        cmd.add_argument("--z", help="solution, comma-separated reals")
        cmd.add_argument("--grid", type=int, help="alpha grid points per axis")
        cmd.add_argument("--seed", type=int, default=0, help="seed for sampling/starts")
        cmd.add_argument("--tol", type=float, help="verification/acceptance tolerance")
        cmd.add_argument(
            "--format", choices=("text", "machine"), default="text", dest="format"
        )
        if name == "alpha":
            cmd.add_argument("--kind", choices=("F", "T"), default="F")
        if name == "check-p":
            cmd.add_argument("--samples", type=int, default=64)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        problem = parse_problem(args.file)
        pairs, code = _COMMANDS[args.command](problem, problem.instance(), args)
    except _HYPOTHESIS_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_render(pairs, args.format))
    return code


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
