"""Run every operation of a benchmark workload once per seed and list the failures.

    python3 tools/seed_sweep.py --workload cli-mix --seeds 1-128

The workloads are those of ``perfbench/workloads.py``, and the package is the
one under ``src/`` of the same checkout.  For each seed the workload's
fixtures are set up in a temporary directory, and each operation is called
once, untimed, and checked as ``perfbench/run.py`` checks it: it fails when
it raises, when its check raises or finds a problem, or, on a workload whose
``miss_fails`` is set, when a bound interval misses the true distance.  Each
failure is printed as ``seed <s>: <operation>: <first problem>``.  On a
workload whose bound misses do not fail an operation, one line per operation
family (the label without ``-n<dim>`` and ``-extra``) then counts the
operations whose interval missed.  Last comes one summary line, ending in
a SHA-256 digest of every operation's label and pickled result in sweep
order, so two checkouts whose digests are equal gave the same outputs bit
for bit; the exit status is 1 if any operation failed, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import pickle
import re
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _last_line(exc: BaseException) -> str:
    return traceback.format_exception_only(type(exc), exc)[-1].strip()


def family(label: str) -> str:
    """The operation family of ``label``: the label without ``-n<dim>`` and ``-extra``."""
    return re.sub(r"-n\d+|-extra$", "", label)


def first_problem(
    op, miss_fails: bool, misses: Counter | None = None, digest=None
) -> str | None:
    """Why ``op`` fails, judged as the benchmark judges it, or ``None``.

    An operation whose interval misses counts 1 in ``misses`` under its family.
    ``digest``, a hashlib object, takes the pickle of the operation's label
    and its result, or of its label and the exception it raised.  Pickle
    keeps every float's bits, which ``repr`` of a numpy array rounds away.
    """
    try:
        result = op.call()
    except Exception as exc:  # a raising operation is a failed one
        problem = f"raised {_last_line(exc)}"
        if digest is not None:
            digest.update(pickle.dumps((op.label, problem), protocol=5))
        return problem
    if digest is not None:
        digest.update(pickle.dumps((op.label, result), protocol=5))
    try:
        outcome = op.check(result)
    except Exception as exc:  # an output the check cannot read is a wrong one
        return f"check raised {_last_line(exc)}"
    if outcome.missed and misses is not None:
        misses[family(op.label)] += 1
    if outcome.problems:
        return outcome.problems[0]
    if miss_fails and outcome.missed:
        return f"bound miss: {outcome.miss_notes[0] if outcome.miss_notes else '(no note)'}"
    return None


def sweep(workload, seeds, misses: Counter | None = None, digest=None):
    """Yield ``(seed, label, problem)`` for every operation; ``problem`` is None if it passed.

    A set-up that raises yields one failure labelled ``setup``.  Misses are
    counted in ``misses``, and results hashed into ``digest``, as
    :func:`first_problem` does.
    """
    for seed in seeds:
        with tempfile.TemporaryDirectory() as workdir:
            try:
                prepared = workload.setup(seed, Path(workdir))
            except Exception as exc:  # the seed's operations cannot run
                yield seed, "setup", f"raised {_last_line(exc)}"
                continue
            for op in prepared.ops:
                yield seed, op.label, first_problem(op, workload.miss_fails, misses, digest)


def _seed_range(text: str) -> range:
    try:
        lo, hi = (int(part) for part in text.split("-"))
        if not 0 <= lo <= hi:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B with integers 0 <= A <= B, got {text!r}") from None
    return range(lo, hi + 1)


def main(argv=None) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=_seed_range, help="A-B, both included")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    families, misses, digest = Counter(), Counter(), hashlib.sha256()
    failed = 0
    for seed, label, problem in sweep(workload, args.seeds, misses, digest):
        families[family(label)] += 1
        if problem is not None:
            failed += 1
            print(f"seed {seed}: {label}: {problem}", flush=True)
    if not workload.miss_fails:
        for name in sorted(families):
            print(f"{name}: {misses[name]} of {families[name]} operations missed")
    ops = sum(families.values())
    seeds = args.seeds
    print(
        f"{args.workload} seeds {seeds[0]}-{seeds[-1]}: {ops} operations, {failed} failed, "
        f"sha256 {digest.hexdigest()}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
