"""The seed sweep in tools/seed_sweep.py: its verdict on each operation, and a real run."""

import argparse
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
_spec = importlib.util.spec_from_file_location("seed_sweep", TOOL)
seed_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_sweep)


def outcome(problems=(), missed=0, notes=()):
    return SimpleNamespace(problems=list(problems), missed=missed, miss_notes=list(notes))


def op(label, call, check):
    return SimpleNamespace(label=label, call=call, check=check)


def raising(exc):
    def call(*args):
        raise exc

    return call


def test_first_problem_judges_an_operation_as_the_benchmark_does():
    ok = op("ok", lambda: 1, lambda result: outcome())
    assert seed_sweep.first_problem(ok, miss_fails=True) is None
    boom = op("boom", raising(RuntimeWarning("overflow")), lambda result: outcome())
    assert seed_sweep.first_problem(boom, True) == "raised RuntimeWarning: overflow"
    unreadable = op("unreadable", lambda: 1, raising(KeyError("alpha")))
    assert seed_sweep.first_problem(unreadable, True) == "check raised KeyError: 'alpha'"
    wrong = op("wrong", lambda: 1, lambda result: outcome(["exit code 1", "second"]))
    assert seed_sweep.first_problem(wrong, False) == "exit code 1"
    # A bound miss fails the operation only where the workload says so.
    miss = op("miss", lambda: 1, lambda result: outcome(missed=1, notes=["lb 2 > err 1"]))
    assert seed_sweep.first_problem(miss, True) == "bound miss: lb 2 > err 1"
    assert seed_sweep.first_problem(miss, False) is None


def test_sweep_lists_failures_by_seed_and_survives_a_failing_setup():
    def setup(seed, workdir):
        if seed == 2:
            raise ValueError("no solution")
        ops = [op("good", lambda: 0, lambda r: outcome()), op("bad", lambda: 0, lambda r: outcome(["off"]))]
        return SimpleNamespace(ops=ops)

    workload = SimpleNamespace(setup=setup, miss_fails=True)
    got = list(seed_sweep.sweep(workload, range(1, 4)))
    assert got == [
        (1, "good", None), (1, "bad", "off"),
        (2, "setup", "raised ValueError: no solution"),
        (3, "good", None), (3, "bad", "off"),
    ]


def test_a_seed_range_includes_both_ends():
    assert seed_sweep._seed_range("3-5") == range(3, 6)
    assert seed_sweep._seed_range("7-7") == range(7, 8)


@pytest.mark.parametrize("text", ["", "7", "a-b", "3-1", "-1", "1-2-3"])
def test_a_bad_seed_range_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        seed_sweep._seed_range(text)


def test_a_real_sweep_passes_and_counts_every_operation():
    run = subprocess.run(
        [sys.executable, "-W", "error", str(TOOL), "--workload", "solve-bounds", "--seeds", "1-2"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout == "solve-bounds seeds 1-2: 18 operations, 0 failed\n"


def test_family_drops_the_dimension_and_the_extra_suffix():
    assert seed_sweep.family("report-diag-o4-n3-extra") == "report-diag-o4"
    assert seed_sweep.family("report-grid-o2-n6") == "report-grid-o2"
    assert seed_sweep.family("cli-bounds") == "cli-bounds"


def test_sweep_counts_misses_by_family_without_failing_them():
    def missing(result):
        return outcome(missed=1, notes=["new misses"])

    def setup(seed, workdir):
        ops = [
            op("report-diag-o4-n2", lambda: 0, missing),
            op("report-diag-o4-n3-extra", lambda: 0, missing),
            op("report-grid-o2-n2", lambda: 0, lambda r: outcome()),
        ]
        return SimpleNamespace(ops=ops)

    misses = seed_sweep.Counter()
    workload = SimpleNamespace(setup=setup, miss_fails=False)
    got = list(seed_sweep.sweep(workload, range(1, 3), misses))
    assert [problem for _, _, problem in got] == [None] * 6
    assert misses == {"report-diag-o4": 4}


def test_a_real_sweep_prints_the_miss_counts_of_each_family():
    run = subprocess.run(
        [sys.executable, "-W", "error", str(TOOL), "--workload", "report-stream", "--seeds", "1-1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "report-diag-o4", "report-grid-o2", "report-grid-o4",
    ]
    assert all(line.endswith(" of 340 operations missed") for line in lines[:3])
    assert lines[3:] == ["report-stream seeds 1-1: 1020 operations, 0 failed"]
