"""The seed sweep in tools/seed_sweep.py: its verdict on each operation, and a real run."""

import argparse
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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


def _real_sweep(workload, seeds, hash_seed="0"):
    run = subprocess.run(
        [sys.executable, "-W", "error", str(TOOL), "--workload", workload, "--seeds", seeds],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return run.stdout


def test_a_real_sweep_passes_and_counts_every_operation():
    out = _real_sweep("solve-bounds", "1-2")
    assert re.fullmatch(r"solve-bounds seeds 1-2: 18 operations, 0 failed, sha256 [0-9a-f]{64}\n", out)


def test_a_real_sweep_digest_does_not_depend_on_the_hash_seed():
    # report-stream's results are report objects, not CLI text.
    assert _real_sweep("report-stream", "1-1", "1") == _real_sweep("report-stream", "1-1", "2")


def test_the_digest_covers_every_label_and_result_bit():
    def digest_of(results):
        def setup(seed, workdir):
            return SimpleNamespace(
                ops=[op(label, lambda r=r: r, lambda r: outcome()) for label, r in results]
            )

        digest = seed_sweep.hashlib.sha256()
        list(seed_sweep.sweep(SimpleNamespace(setup=setup, miss_fails=True), range(1, 2), None, digest))
        return digest.hexdigest()

    results = [("a", (0, "z = 1\n", "")), ("b", np.array([0.1, 0.0]))]
    assert digest_of(results) == digest_of(list(results))
    changed = [
        [("a", (0, "z = 2\n", "")), results[1]],
        [("c", results[0][1]), results[1]],
        [results[0], ("b", np.array([np.nextafter(0.1, 1.0), 0.0]))],
        [results[0], ("b", np.array([0.1, -0.0]))],
        results[::-1],
    ]
    assert len({digest_of(results), *map(digest_of, changed)}) == 1 + len(changed)


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
    lines = _real_sweep("report-stream", "1-1").splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == [
        "report-diag-o4", "report-grid-o2", "report-grid-o4",
    ]
    assert all(line.endswith(" of 340 operations missed") for line in lines[:3])
    assert len(lines) == 4
    assert lines[3].startswith("report-stream seeds 1-1: 1020 operations, 0 failed, sha256 ")
