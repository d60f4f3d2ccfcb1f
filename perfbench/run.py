"""tcpbounds benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the run sets up its
workload three times (reporting the median set-up time), then calls the
operations in whole round-robin passes for about ``S`` seconds with no
instrumentation and checks every output.  Each operation's latency is the
mean of its repeats, one per pass, rescaled to a nominal machine speed by
reference samples taken between the calls (see ``speed.py``).  With
``--trace 1`` it sets up once under the span recorder, measures ``S/2``
seconds untraced and ``S/2`` seconds traced, and reports the per-layer
metrics derived from the spans.

A summary of every metric, with units, goes to standard output; its last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with provenance, and the spans of a traced
run are written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS pools before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics  # noqa: E402
from speed import SpeedMeter, reference_sample  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
NOTES_KEPT = 5


@dataclass
class PhaseStats:
    """Everything one measuring phase observed."""

    # Flat arrays, so that memory, and with it peak_rss_mb, barely grows
    # with the number of operations a run completes.  ``latencies`` holds
    # every completed call; ``op_sum`` and ``op_count`` the total time and
    # the number of completed calls of each operation.
    latencies: array = field(default_factory=lambda: array("d"))
    op_sum: array = field(default_factory=lambda: array("d"))
    op_count: array = field(default_factory=lambda: array("q"))
    speed: SpeedMeter = field(default_factory=SpeedMeter)
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    reports: int = 0
    missed: int = 0
    stdout_bytes: int = 0
    failures: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)

    def merge(self, other: "PhaseStats") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reports += other.reports
        self.missed += other.missed
        self.failures += other.failures[: NOTES_KEPT - len(self.failures)]
        self.misses += other.misses[: NOTES_KEPT - len(self.misses)]

    def op_times(self, rounds: list[int] | None) -> np.ndarray:
        """Mean time, in seconds at nominal speed, of each operation that completed.

        An operation is one call or, where the workload groups its calls
        into ``rounds``, one round: the sum of its calls' mean times.  A
        round with a call that never completed is left out.
        """
        count = np.frombuffer(self.op_count, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.frombuffer(self.op_sum, dtype=np.float64) / count
        mean[count == 0] = np.inf
        if rounds is not None:
            mean = np.bincount(rounds, weights=mean)
        return mean[np.isfinite(mean)] / self.speed.slowdown()


def run_phase(ops, seconds: float, miss_fails: bool, tracer=None) -> PhaseStats:
    """Call ``ops`` in whole round-robin passes for about ``seconds`` seconds.

    A pass starts only if the previous pass's duration still fits before the
    deadline; the first pass always runs.  Every pass calls every operation
    once, so each operation's repeats are spread over the whole run.
    Reference samples (see ``speed.py``) are interleaved with the calls, and
    are never inside a timed call.
    """
    stats = PhaseStats(op_sum=array("d", [0.0]) * len(ops), op_count=array("q", [0]) * len(ops))
    clock = time.perf_counter
    begin = clock()
    k = 0
    while True:
        pass_begin = clock()
        for i, op in enumerate(ops):
            stats.speed.maybe_sample()
            elapsed = _run_op(op, k, stats, miss_fails, tracer)
            if elapsed is not None:
                stats.op_sum[i] += elapsed
                stats.op_count[i] += 1
            k += 1
        stats.passes += 1
        now = clock()
        if now - begin + (now - pass_begin) > seconds:
            return stats


def _run_op(op, k: int, stats: PhaseStats, miss_fails: bool, tracer) -> float | None:
    """Time one call, then check its output; failures are recorded, not raised.

    Returns the call's duration, or None if the operation failed.
    """
    clock = time.perf_counter
    stats.attempted += 1
    if tracer is not None:
        tracer.op = k
    t0 = clock()
    try:
        result = op.call()
    except Exception:  # a raising operation is a failed one; the run goes on
        stats.failed += 1
        _note(stats.failures, f"{op.label}: {traceback.format_exc(limit=3)}")
        return None
    finally:
        if tracer is not None:
            tracer.op = -1
    elapsed = clock() - t0
    try:
        outcome = op.check(result)
        stats.stdout_bytes += op.stdout_bytes(result)
    except Exception:  # an output the oracle cannot read is a wrong output
        stats.failed += 1
        _note(stats.failures, f"{op.label}: check raised {traceback.format_exc(limit=3)}")
        return None
    stats.reports += outcome.reports
    stats.missed += outcome.missed
    for note in outcome.miss_notes:
        _note(stats.misses, f"{op.label}: {note}")
    if outcome.problems or (miss_fails and outcome.missed):
        stats.failed += 1
        for note in outcome.problems:
            _note(stats.failures, f"{op.label}: {note}")
        return None
    stats.latencies.append(elapsed)
    return elapsed


def _note(notes: list[str], text: str) -> None:
    if len(notes) < NOTES_KEPT:
        notes.append(text)


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def tail_percentiles(times: np.ndarray) -> dict[str, float]:
    """p90 and p99 over operations, each only when at least ten operations lie beyond it."""
    out = {}
    for q, name in ((90, "op_p90_ms"), (99, "op_p99_ms")):
        if len(times) * (100 - q) / 100 >= 10:
            out[name] = percentile_ms(times, q)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(args) -> dict:
    import yaml

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pyyaml": yaml.__version__,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def _commit() -> str:
    """HEAD of the checkout's own git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_once(workload, seed: int, workdir: Path, meter: SpeedMeter | None = None):
    """Generate and write fixtures, then run the warm-up operations unchecked.

    With a ``meter``, reference samples are taken between the steps.
    """
    tick = meter.maybe_sample if meter is not None else (lambda: None)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    prepared = workload.setup(seed, workdir, tick)
    for op in prepared.warmup:
        tick()
        op.call()
    return prepared


def untraced_run(args, workload, workdir: Path) -> tuple[dict, dict, PhaseStats]:
    setup_times, setup_raw = [], []
    for k in range(SETUP_REPEATS):
        # Reference samples between the set-up's steps give its slowdown;
        # the time they take is not set-up time.
        meter = SpeedMeter()
        t0 = time.perf_counter()
        prepared = setup_once(workload, args.seed, workdir / f"setup-{k}", meter)
        elapsed = time.perf_counter() - t0 - meter.spent
        meter.sample()
        setup_raw.append(elapsed)
        setup_times.append(elapsed / meter.slowdown())
    stats = run_phase(prepared.ops, args.seconds, workload.miss_fails)
    times = stats.op_times(prepared.rounds)
    if not times.size:
        raise RuntimeError("no operation completed: " + "; ".join(stats.failures))
    slowdown = stats.speed.slowdown()
    gated = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (times.size / float(times.sum()), "1/s"),
        "op_p50_ms": (percentile_ms(times, 50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {name: (value, "ms") for name, value in tail_percentiles(times).items()}
    extra["fail_rate"] = (stats.failed / stats.attempted, "share")
    extra["bound_miss_rate"] = (stats.missed / stats.reports if stats.reports else 0.0, "share")
    extra["operations"] = (times.size, "count")
    extra["passes"] = (stats.passes, "count")
    # The same figures as measured, before rescaling to nominal speed.
    extra["slowdown"] = (slowdown, "x")
    extra["raw_setup_s"] = (statistics.median(setup_raw), "s")
    extra["raw_ops_per_s"] = (gated["ops_per_s"][0] / slowdown, "1/s")
    extra["raw_op_p50_ms"] = (gated["op_p50_ms"][0] * slowdown, "ms")
    return gated, extra, stats


def traced_run(args, workload, workdir: Path) -> tuple[dict, dict, PhaseStats]:
    tracer = Tracer()
    tracer.install()
    try:
        prepared = setup_once(workload, args.seed, workdir / "setup-traced")
    finally:
        tracer.uninstall()
    tracer.input_bytes = prepared.input_bytes
    half = args.seconds / 2.0
    plain = run_phase(prepared.ops, half, workload.miss_fails)
    tracer.install()
    try:
        traced = run_phase(prepared.ops, half, workload.miss_fails, tracer)
    finally:
        tracer.uninstall()
    plain_times, traced_times = plain.op_times(prepared.rounds), traced.op_times(prepared.rounds)
    if not plain_times.size or not traced_times.size:
        raise RuntimeError("no operation completed: " + "; ".join(plain.failures + traced.failures))
    attempted = traced.attempted
    if prepared.rounds is not None:
        attempted = attempted * (max(prepared.rounds) + 1) / len(prepared.ops)
    metrics = layer_metrics(tracer, attempted, traced.stdout_bytes)
    p50_plain = percentile_ms(plain_times, 50)
    p50_traced = percentile_ms(traced_times, 50)
    metrics["trace.overhead_pct"] = (100.0 * (p50_traced - p50_plain) / p50_plain, "%")
    metrics["trace.covered_pct"] = (100.0 * metrics.pop("_covered_s")[0] / sum(traced.latencies), "%")
    both = PhaseStats()
    both.merge(plain)
    both.merge(traced)
    metrics["bounds.miss_rate"] = (both.missed / both.reports if both.reports else 0.0, "share")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{args.workload}.npz")
    extra = {
        "untraced_op_p50_ms": (p50_plain, "ms"),
        "traced_op_p50_ms": (p50_traced, "ms"),
        "dominant_layer": (max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"][0]), "layer"),
    }
    return metrics, extra, both


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tcpbounds" / "__init__.py").is_file():
        print(f"perfbench: no src/tcpbounds under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference_sample()  # the first call pays one-off costs; measure warm ones
    workdir = OUT_DIR / f"work-{os.getpid()}"
    try:
        if args.trace:
            metrics, extra, stats = traced_run(args, workload, workdir)
        else:
            metrics, extra, stats = untraced_run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload_why=workload.why, also=extra, provenance=provenance(args),
                  failures=stats.failures, misses=stats.misses)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{args.workload}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1, default=str)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {stats.attempted} attempted, {stats.failed} failed")
    for name, (value, unit) in list(metrics.items()) + list(extra.items()):
        print(f"  {name:<44} {value if isinstance(value, str) else format(value, '.6g'):>14} {unit}")
    for note in stats.failures:
        print(f"  failure: {note.strip()}")
    for note in stats.misses:
        print(f"  bound miss: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
