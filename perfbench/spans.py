"""In-memory span recorder that wraps the package's functions from outside.

The package imports its functions by name (``from .tensor import
contract_m1``), so a function is wrapped at the attribute of every module
that calls it, not only where it is defined.  Calls inside a module go
through that module's globals and are caught by the same wrapper.  Nothing
under ``src/`` changes; :meth:`Tracer.uninstall` puts the originals back.

A span is (name, start, end, parent, op, value).  ``parent`` is the index of
the enclosing span or -1, ``op`` the benchmark operation that caused it (-1
during set-up), and ``value`` one number a hook derives from the call's
arguments or result, e.g. the row count of a batch contraction.  Spans stay
in flat arrays until :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("cli", "io", "operators", "tensor", "solve", "bounds")

# (caller module, attribute, span name).  The span name is the layer that
# defines the function, then the function name.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("cli", "parse_problem", "io.parse_problem"),
    ("cli", "estimate_alpha", "operators.estimate_alpha"),
    ("cli", "diagonal_alpha_estimate", "operators.diagonal_alpha_estimate"),
    ("cli", "check_p_tensor_sampled", "operators.check_p_tensor_sampled"),
    ("cli", "solve_enumerate", "solve.solve_enumerate"),
    ("cli", "verify_solution", "solve.verify_solution"),
    ("cli", "build_report", "bounds.build_report"),
    ("cli", "diagonal_bounds", "bounds.diagonal_bounds"),
    ("cli", "compare_upper_bounds", "bounds.compare_upper_bounds"),
    ("cli", "relative_error_bounds", "bounds.relative_error_bounds"),
    ("cli", "residual", "bounds.residual"),
    ("cli", "solution_norm_bounds", "bounds.solution_norm_bounds"),
    ("io", "DenseTensor", "tensor.DenseTensor"),
    ("bounds", "residual", "bounds.residual"),
    ("bounds", "build_report", "bounds.build_report"),
    ("bounds", "diagonal_bounds", "bounds.diagonal_bounds"),
    ("bounds", "compare_upper_bounds", "bounds.compare_upper_bounds"),
    ("bounds", "error_bounds_new", "bounds.error_bounds_new"),
    ("bounds", "error_bounds_zheng", "bounds.error_bounds_zheng"),
    ("bounds", "relative_error_bounds", "bounds.relative_error_bounds"),
    ("bounds", "solution_norm_bounds", "bounds.solution_norm_bounds"),
    ("bounds", "diagonal_alpha_estimate", "operators.diagonal_alpha_estimate"),
    ("bounds", "verify_solution", "solve.verify_solution"),
    ("bounds", "contract_m1", "tensor.contract_m1"),
    ("bounds", "positive_part", "tensor.positive_part"),
    ("bounds", "signed_root", "tensor.signed_root"),
    ("bounds", "tensor_inf_norm", "tensor.tensor_inf_norm"),
    ("bounds", "vec_norms", "tensor.vec_norms"),
    ("operators", "estimate_alpha", "operators.estimate_alpha"),
    ("operators", "alpha_F_diagonal", "operators.alpha_F_diagonal"),
    ("operators", "diagonal_alpha_estimate", "operators.diagonal_alpha_estimate"),
    ("operators", "check_p_tensor_sampled", "operators.check_p_tensor_sampled"),
    ("operators", "contract_m1", "tensor.contract_m1"),
    ("operators", "contract_m1_batch", "tensor.contract_m1_batch"),
    ("operators", "signed_root", "tensor.signed_root"),
    ("solve", "solve_enumerate", "solve.solve_enumerate"),
    ("solve", "verify_solution", "solve.verify_solution"),
    ("solve", "solve_diagonal", "solve.solve_diagonal"),
    # Private, but one call is one Newton start: the source of solve.newton_starts.
    ("solve", "_newton_on_support", "solve._newton_on_support"),
    ("solve", "contract_m1", "tensor.contract_m1"),
    ("solve", "positive_part", "tensor.positive_part"),
    ("solve", "signed_root", "tensor.signed_root"),
    ("solve", "vec_norms", "tensor.vec_norms"),
]


def _batch_hook(tracer, args, kwargs, result) -> float:
    """Row count; also the computed flops and bytes of the COO kernel.

    Per row and stored entry the kernel multiplies ``m - 1`` gathered
    coordinates and the value, then adds into the row sum: ``m`` flops.  It
    reads ``m - 1`` gathered doubles per row and entry, writes ``n`` doubles
    per row, and reads the entry arrays (value, row, ``m - 1`` columns) once.
    """
    tensor = args[0]
    rows, m, n, nnz = result.shape[0], tensor.order, tensor.dim, tensor.nnz
    if tracer.op >= 0:
        tracer.counters["flops_computed"] += rows * nnz * m
        tracer.counters["bytes_computed"] += 8 * (rows * nnz * (m - 1) + rows * n + nnz * (m + 1))
    return float(rows)


def _alpha_hook(tracer, args, kwargs, result) -> float:
    n = args[0].dim
    g = result.grid_points_per_axis
    return float(2 * n * g ** (n - 1))


def _solve_hook(tracer, args, kwargs, result) -> float:
    if tracer.op >= 0:
        tracer.counters["supports"] += 2 ** args[0].tensor.dim
    return float(len(result))


def _parse_hook(tracer, args, kwargs, result) -> float:
    path = args[0] if args else kwargs.get("path")
    return float(tracer.input_bytes.get(str(path), 0))


def _report_hook(tracer, args, kwargs, result) -> float:
    return 1.0 if "CLAMPED_DISCRIMINANT" in result.flags else 0.0


def _ratio_hook(tracer, args, kwargs, result) -> float:
    return float(result)


HOOKS = {
    "tensor.contract_m1_batch": _batch_hook,
    "operators.estimate_alpha": _alpha_hook,
    "solve.solve_enumerate": _solve_hook,
    "io.parse_problem": _parse_hook,
    "bounds.build_report": _report_hook,
    "bounds.diagonal_bounds": _report_hook,
    "bounds.compare_upper_bounds": _ratio_hook,
}


class Tracer:
    """Records spans for every wrapped call between install and uninstall."""

    def __init__(self, input_bytes: dict[str, int] | None = None):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_ids = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("d")
        self.stack = [-1]
        self.op = -1
        self.counters: dict[str, float] = {"flops_computed": 0.0, "bytes_computed": 0.0, "supports": 0.0}
        self.input_bytes = input_bytes or {}
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span_name: str):
        nid = self.name_ids.setdefault(span_name, len(self.name_ids))
        if nid == len(self.names):
            self.names.append(span_name)
        hook = HOOKS.get(span_name)
        names, parents, ops = self.name, self.parent, self.op_ids
        starts, ends, values, stack = self.start, self.end, self.value, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            values.append(0.0)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                values[idx] = hook(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"tcpbounds.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._installed.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays; ``start`` and ``end`` in nanoseconds."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op_ids, dtype=np.int32).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        arrays = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **arrays)


def layer_metrics(tracer: Tracer, ops: int, stdout_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed phase (spans with ``op >= 0``).

    A span's self time is its duration minus the durations of its direct
    children; calls are synchronous on one thread, so children never
    overlap.  Counts and ``*.self_s`` are per operation (``ops`` operations
    were traced), so they do not grow with the run length; ``*.self_ms`` and
    ``*.self_us`` are means per call.  ``setup.<layer>.self_s`` cover the one
    traced set-up.
    """
    a = tracer.arrays()
    name, parent, op, value = a["name"], a["parent"], a["op"], a["value"]
    dur = (a["end"] - a["start"]) / 1e9
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_t = dur - child
    timed = op >= 0
    ids = tracer.name_ids

    def is_(span_name: str) -> np.ndarray:
        nid = ids.get(span_name)
        return (name == nid) if nid is not None else np.zeros(len(name), dtype=bool)

    def self_total(mask: np.ndarray) -> float:
        return float(self_t[mask].sum())

    def per_call(mask: np.ndarray, scale: float) -> float:
        count = int(mask.sum())
        return scale * self_total(mask) / count if count else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)

    def child_of(span_name: str) -> np.ndarray:
        nid = ids.get(span_name)
        return (parent_name == nid) if nid is not None else np.zeros(len(name), dtype=bool)

    def per_op(x: float) -> float:
        return x / ops if ops else 0.0

    m: dict[str, tuple[float, str]] = {}
    batch = timed & is_("tensor.contract_m1_batch")
    rows = float(value[batch].sum())
    batch_self = self_total(batch)
    m["tensor.contract_m1_batch.calls"] = (per_op(batch.sum()), "1/op")
    m["tensor.contract_m1_batch.rows"] = (per_op(rows), "1/op")
    m["tensor.contract_m1_batch.self_s"] = (per_op(batch_self), "s/op")
    m["tensor.contract_m1_batch.rows_per_s"] = (ratio(rows, batch_self), "1/s")
    m["tensor.contract_m1_batch.flops_computed"] = (per_op(tracer.counters["flops_computed"]), "flop/op")
    m["tensor.contract_m1_batch.bytes_computed"] = (per_op(tracer.counters["bytes_computed"]), "B/op")
    single = timed & is_("tensor.contract_m1")
    m["tensor.contract_m1.calls"] = (per_op(single.sum()), "1/op")
    m["tensor.contract_m1.self_us"] = (per_call(single, 1e6), "us")

    alpha = timed & is_("operators.estimate_alpha")
    m["operators.estimate_alpha.calls"] = (per_op(alpha.sum()), "1/op")
    m["operators.estimate_alpha.self_s"] = (per_op(self_total(alpha)), "s/op")
    m["operators.grid_points"] = (per_op(value[alpha].sum()), "1/op")
    polish = batch & child_of("operators.estimate_alpha") & (value == 1.0)
    m["operators.polish_evals"] = (per_op(polish.sum()), "1/op")

    enum = timed & is_("solve.solve_enumerate")
    starts = int((timed & is_("solve._newton_on_support")).sum())
    m["solve.solve_enumerate.calls"] = (per_op(enum.sum()), "1/op")
    m["solve.solve_enumerate.self_s"] = (per_op(self_total(enum)), "s/op")
    m["solve.supports"] = (per_op(tracer.counters["supports"]), "1/op")
    m["solve.newton_starts"] = (per_op(starts), "1/op")
    in_solver = child_of("solve.solve_enumerate") | child_of("solve._newton_on_support")
    m["solve.residual_evals"] = (per_op((single & in_solver).sum()), "1/op")
    m["solve.solutions_per_start"] = (ratio(float(value[enum].sum()), starts), "share")

    report = timed & (is_("bounds.build_report") | is_("bounds.diagonal_bounds"))
    n_reports = int(report.sum())
    resid = timed & is_("bounds.residual")
    verify = timed & is_("solve.verify_solution")
    m["bounds.report.calls"] = (per_op(n_reports), "1/op")
    m["bounds.report.self_us"] = (per_call(report, 1e6), "us")
    m["bounds.residual.calls"] = (per_op(resid.sum()), "1/op")
    m["bounds.residual.self_us"] = (per_call(resid, 1e6), "us")
    m["solve.verify_solution.calls"] = (per_op(verify.sum()), "1/op")
    m["solve.verify_solution.self_us"] = (per_call(verify, 1e6), "us")
    m["bounds.residual_per_report"] = (ratio(int(resid.sum()), n_reports), "share")
    m["bounds.verify_per_report"] = (ratio(int(verify.sum()), n_reports), "share")
    ratios = value[timed & is_("bounds.compare_upper_bounds")]
    m["bounds.ub_ratio_median"] = (float(np.median(ratios)) if ratios.size else 0.0, "share")
    m["bounds.clamped_share"] = (ratio(float(value[report].sum()), n_reports), "share")

    parse = timed & is_("io.parse_problem")
    main = timed & is_("cli.main")
    m["io.parse_problem.calls"] = (per_op(parse.sum()), "1/op")
    m["io.parse_problem.self_ms"] = (per_call(parse, 1e3), "ms")
    m["io.input_bytes"] = (per_op(value[parse].sum()), "B/op")
    m["cli.main.calls"] = (per_op(main.sum()), "1/op")
    m["cli.main.self_ms"] = (per_call(main, 1e3), "ms")
    m["cli.stdout_bytes"] = (per_op(stdout_bytes), "B/op")

    layer_of = np.array([LAYERS.index(n.split(".", 1)[0]) for n in tracer.names], dtype=np.intp)
    span_layer = layer_of[name] if len(name) else np.zeros(0, dtype=np.intp)
    for k, layer in enumerate(LAYERS):
        m[f"{layer}.self_s"] = (per_op(self_total(timed & (span_layer == k))), "s/op")
    for k, layer in enumerate(LAYERS):
        m[f"setup.{layer}.self_s"] = (self_total(~timed & (span_layer == k)), "s")
    m["trace.spans"] = (per_op(timed.sum()), "1/op")
    m["_covered_s"] = (float(dur[timed & ~nested].sum()), "s")
    return m
