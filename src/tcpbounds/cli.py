"""Command-line front end.

Every subcommand reads a problem file, prints a report as aligned text or as
flat ``key=value`` lines (``--format machine``, reals with 17 significant
digits), and exits 0 on success, 1 when a mathematical hypothesis fails
(NOT_P, DEGENERATE_Q, failed verification, no solution found), 2 on I/O or
validation errors.  Output is deterministic byte for byte for fixed inputs.
Each ``main()`` call builds a fresh parser, and of the subcommand parsers it
builds only the one argv names, so a call pays for one subcommand's parser.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from .bounds import (
    BoundReport,
    build_report,
    compare_upper_bounds,
    solution_norm_bounds,
)
from .errors import ProblemFormatError, SolutionVerificationError, TcpBoundsError
from .io import ProblemFile, _as_number, parse_problem
from .operators import (
    ALPHA_F,
    ALPHA_T,
    DOMINANCE_BOUND,
    GridSpec,
    LIKELY_P,
    alpha_for,
    check_p_tensor_sampled,
    estimate_alpha,
)
from .solve import SolveOptions, TcpInstance, solve_enumerate, verify_solution

__all__ = ["main"]

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
    tokens = enumerate(text.split(","), 1)
    return np.array([_as_number(tok, f"--{what}[{k}]") for k, tok in tokens])


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
) -> tuple[np.ndarray, str, tuple]:
    """Pick z from the flag, the file, or by solving; returns extra flags."""
    if args.z is not None:
        return _parse_vector(args.z, "z"), "flag", ()
    if problem.z is not None:
        return problem.z, "file", ()
    certs = _solve(inst, args)
    if not certs:
        raise SolutionVerificationError(
            "no solution found by support enumeration; supply --z"
        )
    extra = (AMBIGUOUS_SOLUTION,) if len(certs) > 1 else ()
    return certs[0].z, f"solver({len(certs)} found, smallest support used)", extra


def _resolve_u(problem: ProblemFile, args) -> np.ndarray:
    if args.u is not None:
        return _parse_vector(args.u, "u")
    if problem.u is not None:
        return problem.u
    raise ProblemFormatError("a test point is required: pass --u or put u in the file")


def _tol(args, default: float = 1e-8) -> float:
    return args.tol if args.tol is not None else default


def _solve(inst: TcpInstance, args) -> list:
    return solve_enumerate(
        inst, SolveOptions(seed=args.seed, tol=_tol(args, SolveOptions.tol))
    )


def _cmd_alpha(problem: ProblemFile, inst: TcpInstance, args):
    kind = ALPHA_T if args.kind == "T" else ALPHA_F
    alpha = alpha_for(inst.tensor, kind, _grid(args))
    extra = []
    if alpha.method == DOMINANCE_BOUND:
        # The subcommand reports the grid estimate, and the certified bound below it.
        extra = [("alpha_lo", alpha.value)]
        alpha = estimate_alpha(inst.tensor, kind, _grid(args))
    return [("command", "alpha")] + _alpha_pairs(alpha) + extra, 0


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
    certs = _solve(inst, args)
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


def _compare_pairs(report: BoundReport) -> list[tuple[str, object]]:
    ratio = compare_upper_bounds(report)
    return _report_pairs(report) + [("ratio_ub_new_over_ub_base", ratio)]


def _rel_pairs(report: BoundReport) -> list[tuple[str, object]]:
    rel_lb, rel_ub = report.relative_bounds()
    data = report.residual
    return _alpha_pairs(report.alpha) + [
        ("v_inf", data.v_inf),
        ("t", data.t),
        ("v_t", data.v_t),
        ("rel_lb", rel_lb),
        ("rel_ub", rel_ub),
    ]


def _cmd_report(view, problem: ProblemFile, inst: TcpInstance, args):
    """One report for the test point, printed through the subcommand's ``view``."""
    # u first: a missing test point is refused before any solve.
    u = _resolve_u(problem, args)
    z, source, extra = _resolve_z(problem, inst, args)
    alpha = alpha_for(inst.tensor, ALPHA_F, _grid(args))
    report = build_report(inst.tensor, inst.q, z, u, alpha, _tol(args))
    header = [("command", args.command), ("z", z), ("z_source", source), ("u", u)]
    return header + view(report) + [("flags", report.flags + extra)], 0


# argparse specs of the optional flags; each subcommand takes the ones it reads.
_FLAGS = {
    "u": dict(help="test point, comma-separated reals"),
    "z": dict(help="solution, comma-separated reals"),
    "grid": dict(type=int, help="alpha grid points per axis"),
    "seed": dict(type=int, default=0, help="seed for sampling/starts"),
    "tol": dict(type=float, help="verification/acceptance tolerance"),
    "kind": dict(choices=("F", "T"), default="F"),
    "samples": dict(type=int, default=64),
}

_REPORT_FLAGS = ("u", "z", "grid", "seed", "tol")

# name: (handler, help text, flags it reads besides --file and --format)
_COMMANDS = {
    "alpha": (
        _cmd_alpha, "estimate the P-certifying coefficient alpha", ("kind", "grid")
    ),
    "check-p": (
        _cmd_check_p,
        "sample the P-defining objective for a counterexample",
        ("samples", "seed"),
    ),
    "solve": (
        _cmd_solve,
        "enumerate supports and report all verified solutions",
        ("seed", "tol"),
    ),
    "verify": (
        _cmd_verify,
        "check a claimed solution and report its violation measure",
        ("z", "seed", "tol"),
    ),
    "sol-bounds": (
        _cmd_sol_bounds, "bound the max-norm of every solution from q alone", ("grid",)
    ),
    "bounds": (
        partial(_cmd_report, _report_pairs),
        "full two-sided error-bound report for a test point",
        _REPORT_FLAGS,
    ),
    "rel-bounds": (
        partial(_cmd_report, _rel_pairs),
        "relative error bounds for a test point",
        _REPORT_FLAGS,
    ),
    "compare": (
        partial(_cmd_report, _compare_pairs),
        "bounds report plus the sharpened/baseline upper-bound ratio",
        _REPORT_FLAGS,
    ),
}


class _NamedSubparsers(argparse._SubParsersAction):
    """Subcommand choices; only the subcommand argv names gets a parser."""

    def add_parser(self, name, *, help):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = None

    def __call__(self, parser, namespace, values, option_string=None):
        name = values[0]
        cmd = argparse.ArgumentParser(prog=f"{self._prog_prefix} {name}")
        cmd.add_argument("--file", required=True, help="problem file (YAML)")
        for flag in _COMMANDS[name][2]:
            cmd.add_argument(f"--{flag}", **_FLAGS[flag])
        cmd.add_argument(
            "--format", choices=("text", "machine"), default="text", dest="format"
        )
        self._name_parser_map[name] = cmd
        super().__call__(parser, namespace, values, option_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcpbounds",
        description="Certified error bounds for tensor complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True, action=_NamedSubparsers)
    for name, (_, help_text, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        problem = parse_problem(args.file)
        handler = _COMMANDS[args.command][0]
        pairs, code = handler(problem, problem.instance(), args)
    # Every validation error of the package (bad file, shape, size, tensor
    # kind or setting) is a ValueError; every other package error is a
    # failed mathematical hypothesis.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TcpBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(_render(pairs, args.format))
    return code
