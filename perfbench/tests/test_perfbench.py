"""Self-tests of the benchmark: the oracles catch planted wrong values, the
fixtures have the properties the oracles rely on, the span arithmetic is
right, and a short pass of each workload runs clean.

    python3 -m pytest perfbench/tests -q
"""

from array import array

import numpy as np
import pytest

import checks
import fixtures as fx
from run import PhaseStats, run_phase
from spans import Tracer, layer_metrics
from speed import REF_NOMINAL_S, SpeedMeter
from workloads import WORKLOADS


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def test_alpha_oracle_flags_values_outside_the_bracket(rng):
    entries = fx.dominant_tensor(rng, 4, 3, 3, "general")
    for kind in ("F", "T"):
        lo, hi = checks.alpha_bracket(entries, 4, 3, kind)
        assert 0.0 < lo < hi
        assert checks.check_alpha(0.5 * (lo + hi), (lo, hi)) == []
        assert checks.check_alpha(hi * 1.01, (lo, hi))
        assert checks.check_alpha(lo * 0.99, (lo, hi))


def test_alpha_bracket_holds_the_package_estimate(rng):
    from tcpbounds import ALPHA_F, ALPHA_T, DenseTensor, GridSpec, estimate_alpha

    entries = fx.dominant_tensor(rng, 4, 3, 3, "general")
    tensor = DenseTensor(4, 3, entries)
    for kind, name in ((ALPHA_F, "F"), (ALPHA_T, "T")):
        est = estimate_alpha(tensor, kind, GridSpec(points_per_axis=11))
        assert checks.check_alpha(est.value, checks.alpha_bracket(entries, 4, 3, name)) == []


def test_interval_oracle_flags_lb_above_err_and_ub_below_err():
    assert checks.interval_misses(0.5, [("new", 0.4, 0.6)], 1.0) == []
    assert checks.interval_misses(0.5, [("new", 0.51, 0.6)], 1.0)
    assert checks.interval_misses(0.5, [("base", 0.1, 0.49)], 1.0)
    assert checks.interval_misses(0.5, [("new", None, None)], 1.0) == []
    # The defect the bound-miss rate tracks: a lower bound of 2.5e-6 for a
    # true distance of 1e-9 must count as a miss.
    assert checks.interval_misses(1e-9, [("base", 2.54e-6, 2.3e-5)], 1.0)


def test_solution_oracle_flags_a_wrong_solution():
    z = np.array([0.0, 0.5, 1.25])
    assert checks.check_solution(z + 1e-12, z, 0.0) == []
    assert checks.check_solution(z + 1e-3, z)
    assert checks.check_solution(z, z, max_violation=1e-3)
    assert checks.check_solution(z[:2], z)


def test_check_close_flags_disagreeing_derivations():
    assert checks.check_close("x", 1.0, 1.0 + 1e-15) == []
    assert checks.check_close("x", 1.0, 1.001)
    assert checks.check_close("x", None, 1.0)


def test_cli_output_parser_reads_both_formats():
    text = "command      bounds\nz_source     solver(1 found, smallest support used)\nlb_new       undefined\n"
    machine = "command=bounds\nz_source=solver(1 found, smallest support used)\nlb_new=undefined\n"
    for out in (text, machine):
        fields = checks.parse_cli_output(out)
        assert fields["command"] == "bounds"
        assert fields["z_source"].startswith("solver(1 found")
        assert checks.as_float(fields, "lb_new") is None


@pytest.mark.parametrize("family,order", [("general", 4), ("row_power", 4), ("general", 2), ("diagonal", 4)])
def test_fixtures_are_dominant_and_solved(rng, family, order):
    n = 4
    entries = fx.dominant_tensor(rng, order, n, 3, family)
    diag = fx.diagonal(entries, order, n)
    off = fx.off_diagonal_row_sums(entries, n)
    assert all(a > r for a, r in zip(diag, off))
    q, z = fx.manufactured_problem(rng, entries, order, n)
    w = np.array(fx.contract_m1(entries, n, z)) + q
    assert np.all(z >= 0.0) and np.any(z > 0.0)
    assert np.all(w >= -1e-12)
    assert np.max(np.abs(z * w)) <= 1e-12


def test_problem_files_round_trip_through_the_package(rng, tmp_path):
    from tcpbounds import parse_problem

    entries = fx.dominant_tensor(rng, 4, 3, 3, "general")
    q = rng.uniform(-1.0, 1.0, 3) * 1e-7
    size = fx.write_problem(tmp_path / "p.yaml", 4, 3, entries, q, z=np.abs(q), u=q)
    assert size == (tmp_path / "p.yaml").stat().st_size
    pf = parse_problem(tmp_path / "p.yaml")
    assert dict(pf.entries) == entries
    assert np.array_equal(pf.q, q) and np.array_equal(pf.u, q)


def test_tracer_self_time_and_restore():
    import tcpbounds.bounds as bounds
    import tcpbounds.operators as operators
    from tcpbounds import DenseTensor, GridSpec

    original = operators.contract_m1_batch
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.contract_m1_batch is not original
        tensor = DenseTensor.from_diagonal([1.0, 2.0], order=2)
        tracer.op = 0
        operators.estimate_alpha(tensor, operators.ALPHA_F, GridSpec(points_per_axis=5, refinement_steps=2))
        tracer.op = -1
    finally:
        tracer.uninstall()
    assert operators.contract_m1_batch is original
    assert bounds.residual.__module__ == "tcpbounds.bounds"
    a = tracer.arrays()
    names = [tracer.names[i] for i in a["name"]]
    top = names.index("operators.estimate_alpha")
    assert a["parent"][top] == -1
    children = a["parent"] == top
    child_names = {names[i] for i in np.flatnonzero(children)}
    assert child_names == {"tensor.contract_m1_batch", "tensor.signed_root"}
    m = layer_metrics(tracer, ops=1, stdout_bytes=0)
    dur = (a["end"] - a["start"]) / 1e9
    assert m["operators.estimate_alpha.self_s"][0] == pytest.approx(dur[top] - dur[children].sum())
    assert m["operators.grid_points"][0] == 2 * 2 * 5
    assert m["operators.estimate_alpha.calls"][0] == 1
    batches = [i for i in np.flatnonzero(children) if names[i] == "tensor.contract_m1_batch"]
    assert m["tensor.contract_m1_batch.calls"][0] == len(batches)
    assert m["operators.polish_evals"][0] == sum(a["value"][i] == 1.0 for i in batches)
    total = sum(m[f"{layer}.self_s"][0] for layer in ("cli", "io", "operators", "tensor", "solve", "bounds"))
    assert total == pytest.approx(dur[top])


def test_op_times_group_rounds_and_rescale_to_nominal_speed():
    stats = PhaseStats(op_sum=array("d", [0.3, 0.5, 0.2]), op_count=array("q", [3, 1, 0]))
    stats.speed.samples.extend([2.0 * REF_NOMINAL_S] * 4)
    assert stats.speed.slowdown() == pytest.approx(2.0)
    # Means 0.1 s and 0.5 s at half the nominal speed; the third never completed.
    assert stats.op_times(None) == pytest.approx([0.05, 0.25])
    # A round with a call that never completed is left out.
    assert stats.op_times([0, 0, 1]) == pytest.approx([0.3])


def test_speed_meter_samples_only_after_the_gap():
    meter = SpeedMeter()
    with pytest.raises(RuntimeError):
        meter.slowdown()
    meter.maybe_sample()
    meter.maybe_sample()
    assert len(meter.samples) == 1
    assert 0.0 < meter.samples[0] <= meter.spent
    assert meter.slowdown() > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_pass_of_each_workload(name, tmp_path):
    workload = WORKLOADS[name]
    prepared = workload.setup(3, tmp_path)
    stats = run_phase(prepared.ops, 0.0, workload.miss_fails)
    assert stats.attempted == len(prepared.ops)
    assert stats.failed == 0, stats.failures
    if name == "report-stream":
        assert stats.reports == stats.attempted
    else:
        assert stats.missed == 0, stats.misses
