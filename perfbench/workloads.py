"""The four workloads: seeded fixtures, the timed call of each operation, and its check.

A workload's ``setup`` writes its problem files under ``workdir`` and returns
a :class:`Prepared` holding the operations in round-robin order; it calls
``tick`` between its steps, where the runner takes reference samples.  An
operation's ``call`` is the only code timed; its ``check`` runs afterwards
and compares the output with what the fixture generator knows.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import fixtures as fx
from tcpbounds import bounds, cli, operators, solve, tensor


@dataclass
class Outcome:
    """Result of checking one operation.

    ``problems`` are wrong outputs; ``reports`` counts the error-bound
    reports the operation produced and ``missed`` those with an interval
    that does not contain the true distance.
    """

    problems: list[str] = field(default_factory=list)
    reports: int = 0
    missed: int = 0
    miss_notes: list[str] = field(default_factory=list)


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    stdout_bytes: Callable[[object], int] = lambda result: 0


@dataclass
class Prepared:
    ops: list[Op]
    warmup: list[Op]
    input_bytes: dict[str, int]
    # For each op, the round it belongs to, where the latency metrics are
    # taken over rounds of several calls rather than over single calls.
    rounds: list[int] | None = None


@dataclass
class Problem:
    """One generated instance, as written to its file."""

    order: int
    dim: int
    entries: dict
    q: np.ndarray
    z_star: np.ndarray | None = None
    u: np.ndarray | None = None
    path: str = ""

    def err(self) -> float:
        return float(np.max(np.abs(self.u - self.z_star)))

    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.z_star))))


def _write(problem: Problem, path: Path, with_z: bool, sizes: dict) -> Problem:
    problem.path = str(path)
    sizes[problem.path] = fx.write_problem(
        path,
        problem.order,
        problem.dim,
        problem.entries,
        problem.q,
        z=problem.z_star if with_z else None,
        u=problem.u,
    )
    return problem


def _make(rng, order, dim, family, off_per_row=None, u_range=(0.01, 1.0)) -> Problem:
    off = off_per_row if off_per_row is not None else (3 if order > 2 else dim - 1)
    entries = fx.dominant_tensor(rng, order, dim, off, family)
    q, z_star = fx.manufactured_problem(rng, entries, order, dim)
    mag = fx.log_uniform(rng, *u_range)
    u = fx.perturb(rng, z_star, mag, single=bool(rng.integers(2)))
    return Problem(order, dim, entries, q, z_star, u)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_bytes(result) -> int:
    return len(result[1].encode())


def _expect_exit(result, code: int) -> list[str]:
    got, _, err = result
    if got != code:
        return [f"exit code {got}, expected {code}: {err.strip()[:200]}"]
    return []


def _interval_outcome(problem: Problem, fields: dict) -> Outcome:
    pairs = [
        ("new", checks.as_float(fields, "lb_new"), checks.as_float(fields, "ub_new")),
        ("base", checks.as_float(fields, "lb_base"), checks.as_float(fields, "ub_base")),
    ]
    missed = checks.interval_misses(problem.err(), pairs, problem.scale())
    return Outcome(reports=1, missed=int(bool(missed)), miss_notes=missed)


# ---------------------------------------------------------------- alpha-sweep

# (order, n, grid points per axis).  Odd grids contain the unit vectors.
ALPHA_SHAPES = [(4, 3, 41), (4, 4, 21), (4, 5, 11), (2, 4, 21), (2, 5, 11), (2, 6, 7)]
# Instances per shape.  Costs vary from instance to instance, and more of
# them keep the median over operations from moving with the seed.
ALPHA_REPS = 3


def setup_alpha_sweep(seed: int, workdir: Path, tick=lambda: None) -> Prepared:
    rng = np.random.default_rng([seed, 1])
    sizes: dict[str, int] = {}
    ops: list[Op] = []
    for rep in range(ALPHA_REPS):
        for order, n, g in ALPHA_SHAPES:
            tick()
            entries = fx.dominant_tensor(rng, order, n, 3 if order > 2 else n - 1, "general")
            q = rng.uniform(-2.0, 2.0, n)
            prob = _write(
                Problem(order, n, entries, q), workdir / f"alpha-{rep}-{order}-{n}.yaml", False, sizes
            )
            kinds = ("F", "T") if order > 2 else ("F",)
            for kind in kinds:
                ops.append(_alpha_op(prob, kind, g, "machine" if rep % 2 else "text"))
    return Prepared(ops, ops[:4], sizes)


def _alpha_op(prob: Problem, kind: str, grid: int, fmt: str) -> Op:
    argv = ["alpha", "--file", prob.path, "--kind", kind, "--grid", str(grid), "--format", fmt]
    bracket = checks.alpha_bracket(prob.entries, prob.order, prob.dim, kind)

    def check(result) -> Outcome:
        problems = _expect_exit(result, 0)
        if problems:
            return Outcome(problems)
        fields = checks.parse_cli_output(result[1])
        problems += checks.check_alpha(float(fields["alpha"]), bracket)
        if fields.get("grid_points_per_axis") != str(grid):
            problems.append(f"grid_points_per_axis {fields.get('grid_points_per_axis')}")
        return Outcome(problems)

    return Op(f"alpha-{kind}-o{prob.order}-n{prob.dim}", lambda: run_cli(argv), check, _cli_bytes)


# --------------------------------------------------------------- solve-bounds

SOLVE_DIMS = (4, 5, 6)
SOLVE_ROUNDS = 1


def setup_solve_bounds(seed: int, workdir: Path, tick=lambda: None) -> Prepared:
    """Nine CLI calls per round, one per (command, n) pair.

    Single calls cost 60 ms to 900 ms depending on n, so a median over single
    calls sits between clusters and jumps with the mix.  The latency metrics
    are therefore taken over rounds: a round's time is the sum of its calls'
    best times, and every round has the same mix.
    """
    rng = np.random.default_rng([seed, 2])
    sizes: dict[str, int] = {}
    ops: list[Op] = []
    rounds: list[int] = []
    for rep in range(SOLVE_ROUNDS):
        for n in SOLVE_DIMS:
            tick()
            diag = _make(rng, 4, n, "diagonal")
            _write(diag, workdir / f"bounds-{rep}-{n}.yaml", False, sizes)
            ops.append(_bounds_op(diag, "machine" if rep else "text"))
            for order in (4, 2):
                family = "row_power" if order > 2 else "general"
                prob = _make(rng, order, n, family)
                _write(prob, workdir / f"solve-{rep}-{order}-{n}.yaml", False, sizes)
                ops.append(_solve_op(prob, "text" if rep else "machine"))
        rounds += [rep] * (len(ops) - len(rounds))
    return Prepared(ops, ops[:3], sizes, rounds)


def _bounds_op(prob: Problem, fmt: str) -> Op:
    argv = ["bounds", "--file", prob.path, "--format", fmt]

    def check(result) -> Outcome:
        problems = _expect_exit(result, 0)
        if problems:
            return Outcome(problems)
        fields = checks.parse_cli_output(result[1])
        if not fields.get("z_source", "").startswith("solver"):
            problems.append(f"z_source {fields.get('z_source')!r}, expected the solver")
        problems += checks.check_solution(checks.as_vector(fields, "z"), prob.z_star)
        outcome = _interval_outcome(prob, fields)
        outcome.problems = problems
        return outcome

    return Op(f"bounds-n{prob.dim}", lambda: run_cli(argv), check, _cli_bytes)


def _solve_op(prob: Problem, fmt: str) -> Op:
    argv = ["solve", "--file", prob.path, "--format", fmt]

    def check(result) -> Outcome:
        problems = _expect_exit(result, 0)
        if problems:
            return Outcome(problems)
        fields = checks.parse_cli_output(result[1])
        if fields.get("solutions") != "1":
            return Outcome([f"{fields.get('solutions')} solutions, the instance has one"])
        z = checks.as_vector(fields, "z_1")
        return Outcome(
            checks.check_solution(z, prob.z_star, checks.as_float(fields, "max_violation_1"))
        )

    return Op(f"solve-o{prob.order}-n{prob.dim}", lambda: run_cli(argv), check, _cli_bytes)


# -------------------------------------------------------------- report-stream

REPORT_DIMS = (2, 3, 4, 5, 6)
# Grid for the one-off alpha estimate of each non-diagonal instance, by n.
REPORT_GRID = {2: 41, 3: 41, 4: 21, 5: 11, 6: 7}
POINTS_PER_INSTANCE = 68
# Every EXTRA_EVERY-th operation also calls the four single-purpose bound
# functions.  At 1/8 of operations these slow calls sit well above the
# median and well below p90's edge, so neither percentile straddles them.
EXTRA_EVERY = 8


@dataclass
class _Instance:
    problem: Problem
    tensor: object
    z: np.ndarray
    alpha: object
    diagonal: bool
    points: list[np.ndarray]


def setup_report_stream(seed: int, workdir: Path, tick=lambda: None) -> Prepared:
    """Instances with a solver-produced ``z`` and a once-per-instance alpha.

    ``z`` is the smallest-support solution of ``solve_enumerate``, exactly
    what the ``bounds`` subcommand uses when the file has no ``z``.  Test
    points are ``z* + delta`` with ``||delta||_inf`` log-uniform on
    [1e-9, 1], on one coordinate or on all of them.
    """
    rng = np.random.default_rng([seed, 3])
    instances: list[_Instance] = []
    for n in REPORT_DIMS:
        for order, family in ((4, "diagonal"), (4, "row_power"), (2, "general")):
            tick()
            entries = fx.dominant_tensor(rng, order, n, 3 if order > 2 else n - 1, family)
            q, z_star = fx.manufactured_problem(rng, entries, order, n)
            prob = Problem(order, n, entries, q, z_star)
            A = tensor.DenseTensor(order, n, entries)
            certs = solve.solve_enumerate(solve.TcpInstance(A, q))
            if not certs:
                raise RuntimeError(f"set-up: no solution found for order {order}, n={n}")
            diagonal = family == "diagonal"
            if diagonal:
                alpha = operators.diagonal_alpha_estimate(A)
            else:
                grid = operators.GridSpec(points_per_axis=REPORT_GRID[n])
                alpha = operators.estimate_alpha(A, operators.ALPHA_F, grid)
            points = [
                fx.perturb(rng, z_star, fx.log_uniform(rng, 1e-9, 1.0), single=bool(k % 2))
                for k in range(POINTS_PER_INSTANCE)
            ]
            instances.append(_Instance(prob, A, certs[0].z, alpha, diagonal, points))
    ops = []
    for k in range(POINTS_PER_INSTANCE * len(instances)):
        inst = instances[k % len(instances)]
        point = inst.points[k // len(instances)]
        ops.append(_report_op(inst, point, extra=k % EXTRA_EVERY == EXTRA_EVERY - 1))
    return Prepared(ops, ops[: 2 * EXTRA_EVERY * len(instances)], {})


def _report_op(inst: _Instance, u: np.ndarray, extra: bool) -> Op:
    A, q, z, alpha = inst.tensor, inst.problem.q, inst.z, inst.alpha
    prob = Problem(inst.problem.order, inst.problem.dim, inst.problem.entries, q, inst.problem.z_star, u)

    def call():
        if inst.diagonal:
            report = bounds.diagonal_bounds(A, q, z, u)
        else:
            report = bounds.build_report(A, q, z, u, alpha)
        ratio = bounds.compare_upper_bounds(report) if report.ub_new is not None else None
        if not extra:
            return report, ratio, None
        more = {
            "zheng": bounds.error_bounds_zheng(A, q, z, u, alpha),
            "sol": bounds.solution_norm_bounds(A, q, alpha),
        }
        if report.lb_new is not None:
            more["new"] = bounds.error_bounds_new(A, q, z, u, alpha)
            if report.rel_lb is not None:
                more["rel"] = bounds.relative_error_bounds(A, q, z, u, alpha)
        return report, ratio, more

    def check(result) -> Outcome:
        report, ratio, more = result
        pairs = [("new", report.lb_new, report.ub_new), ("base", report.lb_base, report.ub_base)]
        missed = checks.interval_misses(prob.err(), pairs, prob.scale())
        problems = []
        if ratio is not None and not ratio <= 1.0 + 1e-12:
            problems.append(f"ub_new/ub_base = {ratio!r} > 1")
        z_norm = float(np.max(np.abs(prob.z_star)))
        if not checks.within(z_norm, report.sol_lb, report.sol_ub):
            missed.append(f"sol [{report.sol_lb!r}, {report.sol_ub!r}] misses {z_norm!r}")
        if more is not None:
            problems += checks.check_close("zheng.lb", more["zheng"][0], report.lb_base)
            problems += checks.check_close("zheng.ub", more["zheng"][1], report.ub_base)
            problems += checks.check_close("sol.lb", more["sol"][0], report.sol_lb)
            problems += checks.check_close("sol.ub", more["sol"][1], report.sol_ub)
            if "new" in more:
                problems += checks.check_close("new.lb", more["new"][0], report.lb_new)
                problems += checks.check_close("new.ub", more["new"][1], report.ub_new)
            if "rel" in more:
                problems += checks.check_close("rel.lb", more["rel"][0], report.rel_lb)
                problems += checks.check_close("rel.ub", more["rel"][1], report.rel_ub)
        return Outcome(problems, reports=1, missed=int(bool(missed)), miss_notes=missed)

    label = f"report-{'diag' if inst.diagonal else 'grid'}-o{prob.order}-n{prob.dim}"
    return Op(label + ("-extra" if extra else ""), call, check)


# -------------------------------------------------------------------- cli-mix

CLI_COMMANDS = ("alpha", "check-p", "solve", "verify", "sol-bounds", "bounds", "rel-bounds", "compare")
CLI_GRID = 7
# Files per (n, family); see ALPHA_REPS.
CLI_REPS = 3


def setup_cli_mix(seed: int, workdir: Path, tick=lambda: None) -> Prepared:
    rng = np.random.default_rng([seed, 4])
    sizes: dict[str, int] = {}
    probs: list[tuple[Problem, bool]] = []
    for rep in range(CLI_REPS):
        for n in (2, 3):
            for order, family in ((4, "diagonal"), (4, "row_power"), (2, "general")):
                tick()
                prob = _make(rng, order, n, family, off_per_row=n - 1 if order > 2 else None, u_range=(0.05, 1.0))
                _write(prob, workdir / f"cli-{rep}-{order}-{family}-{n}.yaml", True, sizes)
                probs.append((prob, family == "diagonal"))
    not_p = _not_p_problem(rng)
    _write(not_p, workdir / "cli-not-p.yaml", False, sizes)
    ops, warmup = [], []
    for command in CLI_COMMANDS:
        for k, (prob, diagonal) in enumerate(probs):
            ops.append(_cli_op(command, prob, diagonal, "machine" if k % 2 else "text"))
            if k < len(probs) // CLI_REPS:
                warmup.append(ops[-1])
    ops.append(_not_p_op(not_p))
    return Prepared(ops, warmup + ops[-1:], sizes)


def _not_p_problem(rng) -> Problem:
    """Order-4, n=2 tensor with a negative diagonal entry: ``e_2`` is a witness."""
    a = float(rng.uniform(1.0, 4.0))
    b = -float(rng.uniform(0.5, 2.0))
    entries = {(1, 1, 1, 1): a, (2, 2, 2, 2): b, (1, 2, 2, 2): 0.25 * a}
    return Problem(4, 2, entries, rng.uniform(-1.0, 1.0, 2))


def _not_p_op(prob: Problem) -> Op:
    argv = ["check-p", "--file", prob.path, "--format", "machine"]

    def check(result) -> Outcome:
        problems = _expect_exit(result, 1)
        fields = checks.parse_cli_output(result[1])
        if fields.get("verdict") != "NOT_P":
            return Outcome(problems + [f"verdict {fields.get('verdict')!r}, expected NOT_P"])
        x = checks.as_vector(fields, "witness")
        value = max(xi * ci for xi, ci in zip(x, fx.contract_m1(prob.entries, prob.dim, x)))
        if not value <= 0.0:
            problems.append(f"witness value {value!r} is positive")
        return Outcome(problems)

    return Op("cli-check-p-not-p", lambda: run_cli(argv), check, _cli_bytes)


def _cli_op(command: str, prob: Problem, diagonal: bool, fmt: str) -> Op:
    argv = [command, "--file", prob.path, "--format", fmt]
    if not diagonal and command in ("alpha", "sol-bounds", "bounds", "rel-bounds", "compare"):
        argv += ["--grid", str(CLI_GRID)]
    bracket = checks.alpha_bracket(prob.entries, prob.order, prob.dim, "F")
    err, z_norm = prob.err(), float(np.max(np.abs(prob.z_star)))

    def check(result) -> Outcome:
        problems = _expect_exit(result, 0)
        if problems:
            return Outcome(problems)
        fields = checks.parse_cli_output(result[1])
        outcome = Outcome()
        if command in ("alpha", "sol-bounds", "bounds", "rel-bounds", "compare"):
            problems += checks.check_alpha(float(fields["alpha"]), bracket)
        if command == "check-p" and fields.get("verdict") != "LIKELY_P":
            problems.append(f"verdict {fields.get('verdict')!r} on a P-tensor")
        if command == "solve":
            if fields.get("solutions") != "1":
                problems.append(f"{fields.get('solutions')} solutions, the instance has one")
            else:
                problems += checks.check_solution(
                    checks.as_vector(fields, "z_1"), prob.z_star, checks.as_float(fields, "max_violation_1")
                )
        if command == "verify" and fields.get("passed") != "true":
            problems.append("verify did not pass the known solution")
        if command == "sol-bounds":
            pairs = [("sol", checks.as_float(fields, "sol_lb"), checks.as_float(fields, "sol_ub"))]
            outcome = Outcome(reports=1, miss_notes=checks.interval_misses(z_norm, pairs, prob.scale()))
        if command in ("bounds", "compare"):
            outcome = _interval_outcome(prob, fields)
        if command == "compare":
            ratio = checks.as_float(fields, "ratio_ub_new_over_ub_base")
            if not ratio <= 1.0 + 1e-12:
                problems.append(f"ratio {ratio!r} > 1")
        if command == "rel-bounds":
            pairs = [("rel", checks.as_float(fields, "rel_lb"), checks.as_float(fields, "rel_ub"))]
            outcome = Outcome(reports=1, miss_notes=checks.interval_misses(err / z_norm, pairs, prob.scale()))
        outcome.problems = problems
        outcome.missed = int(bool(outcome.miss_notes))
        return outcome

    return Op(f"cli-{command}-o{prob.order}-n{prob.dim}", lambda: run_cli(argv), check, _cli_bytes)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, workdir, tick): ``tick`` is called between steps of the set-up.
    setup: Callable[..., Prepared]
    # Whether a bound interval that misses the true distance fails the
    # operation.  On report-stream it does not: there a miss is the known
    # defect the workload exists to keep visible, and it is counted in
    # bound_miss_rate instead.
    miss_fails: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "alpha-sweep",
            "alpha subcommand on non-diagonal tensors: the face sweep, polish and batch contraction do the work",
            setup_alpha_sweep,
            True,
        ),
        Workload(
            "solve-bounds",
            "solve and bounds subcommands that enumerate supports: Newton and single-vector contraction dominate",
            setup_solve_bounds,
            True,
        ),
        Workload(
            "report-stream",
            "bound reports for many test points per instance via the API: residual, verification and numpy overhead",
            setup_report_stream,
            False,
        ),
        Workload(
            "cli-mix",
            "all eight subcommands on n=2..3 files: YAML parsing and argparse/rendering are a visible share",
            setup_cli_mix,
            True,
        ),
    )
}
