"""
Problem files and the command line
==================================

Instances travel as small YAML documents: order, dim, a sparse entries
list with 1-based indices, and optional q / z / u vectors.  The CLI reads
these files and prints either a human summary or machine-greppable
key=value lines.  Everything below shells out exactly as a user would.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from tcpbounds import emit_problem, parse_problem

PROBLEM = """\
order: 4
dim: 2
entries:
  - idx: [1, 1, 1, 1]
    val: 1.0
  - idx: [2, 2, 2, 2]
    val: 8.0
q: [1.0, -1.0]
z: [0.0, 0.5]
u: [0.5, 0.3]
"""


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "tcpbounds", *args],
        capture_output=True, text=True,
    )
    return proc


# The directory is removed on exit, and its random name is masked in the
# output below so that two runs print the same bytes.
with tempfile.TemporaryDirectory(prefix="tcp-demo-") as tmp:
    workdir = Path(tmp)
    path = workdir / "worked.yaml"
    path.write_text(PROBLEM)

    # ------------------------------------------------------------ round trip
    # load_problem validates and canonicalizes; save_problem emits floats at
    # full precision, so a load/save/load cycle is bit exact.
    prob = parse_problem(path)
    print("loaded: dim", prob.dim, "order", prob.order,
          "| q =", prob.q, "| z =", prob.z, "| u =", prob.u)
    copy = workdir / "copy.yaml"
    emit_problem(prob, copy)
    again = parse_problem(copy)
    assert again.entries == prob.entries
    print("round trip bit exact:", (again.q == prob.q).all())

    # ------------------------------------------------------------- subcommands
    print("\n$ tcpbounds bounds --file worked.yaml --format machine")
    out = cli("bounds", "--file", str(path), "--format", "machine")
    print(out.stdout, end="")

    print("$ tcpbounds compare --file worked.yaml  (one-line ratio check)")
    out = cli("compare", "--file", str(path), "--format", "machine")
    for line in out.stdout.splitlines():
        if line.startswith(("ratio", "ub_")):
            print(" ", line)

    print("\n$ tcpbounds check-p on a non-P tensor")
    bad = workdir / "notp.yaml"
    bad.write_text("order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: -1.0\nq: [1.0]\n")
    out = cli("check-p", "--file", str(bad), "--format", "machine")
    print(" ", out.stdout.strip().replace("\n", "\n  "), "| exit code", out.returncode)

    # Exit codes are part of the interface: 0 success, 1 failed hypotheses
    # (no solution, verification failure, not P), 2 malformed input.
    none = workdir / "nosol.yaml"
    none.write_text("order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: -1.0\nq: [-1.0]\n")
    out = cli("solve", "--file", str(none))
    print("\nsolve with no solution exits", out.returncode)
    out = cli("bounds", "--file", str(workdir / "missing.yaml"))
    print("missing file exits", out.returncode)
    print("stderr:", out.stderr.strip().replace(str(workdir), "<workdir>"))
