"""Problem-file parsing, deterministic emission, and the command-line front end."""

import subprocess
import sys

import numpy as np
import pytest

import tcpbounds
from tcpbounds import (
    ProblemFile,
    ProblemFormatError,
    SolveOptions,
    cli,
    emit_problem,
    errors,
    parse_problem,
)
from tcpbounds.cli import main

WORKED_YAML = """\
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


@pytest.fixture
def worked_file(tmp_path):
    path = tmp_path / "worked.yaml"
    path.write_text(WORKED_YAML)
    return str(path)


def write(tmp_path, text, name="problem.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def machine(out):
    data = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition("=")
        data[key] = val
    return data


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- file format


def test_parse_worked_file(worked_file):
    pf = parse_problem(worked_file)
    assert pf.order == 4 and pf.dim == 2
    assert pf.entries == (((1, 1, 1, 1), 1.0), ((2, 2, 2, 2), 8.0))
    np.testing.assert_array_equal(pf.q, [1.0, -1.0])
    np.testing.assert_array_equal(pf.z, [0.0, 0.5])
    np.testing.assert_array_equal(pf.u, [0.5, 0.3])
    tensor = pf.tensor()
    assert tensor.value_at((2, 2, 2, 2)) == 8.0
    inst = pf.instance()
    assert inst.tensor.dim == 2


def test_round_trip_preserves_every_bit(tmp_path):
    awkward = [0.1, 1.0 / 3.0, 1e16, -2.5e-13, 123456789.123456789]
    pf = ProblemFile(
        order=3,
        dim=5,
        entries=(((2, 1, 5), awkward[0]), ((1, 4, 4), awkward[1])),
        q=np.array(awkward),
        z=np.array(awkward) * -1.0,
        u=None,
    )
    text = emit_problem(pf)
    path = tmp_path / "rt.yaml"
    path.write_text(text)
    back = parse_problem(path)
    assert back.order == pf.order and back.dim == pf.dim
    assert back.entries == pf.entries
    np.testing.assert_array_equal(back.q, pf.q)
    np.testing.assert_array_equal(back.z, pf.z)
    assert back.u is None
    assert emit_problem(back) == text


def test_emit_writes_file_and_is_deterministic(tmp_path):
    pf = parse_problem(write(tmp_path, WORKED_YAML))
    out = tmp_path / "emitted.yaml"
    text = emit_problem(pf, out)
    assert out.read_text() == text
    assert emit_problem(pf) == text


def test_entries_are_canonicalized(tmp_path):
    scrambled = """\
order: 2
dim: 2
entries:
  - idx: [2, 2]
    val: 4.0
  - idx: [1, 2]
    val: 3.0
q: [0.0, 0.0]
"""
    pf = parse_problem(write(tmp_path, scrambled))
    assert pf.entries == (((1, 2), 3.0), ((2, 2), 4.0))


def test_zero_tensor_when_entries_omitted(tmp_path):
    pf = parse_problem(write(tmp_path, "order: 2\ndim: 1\nq: [1.0]\n"))
    assert pf.entries == ()
    assert pf.tensor().nnz == 0
    assert pf.z is None and pf.u is None


def test_numeric_strings_are_accepted(tmp_path):
    # YAML 1.1 resolvers type 1.5e10 (no exponent sign) as a string
    text = "order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: 1.5e10\nq: [1.5e10]\n"
    pf = parse_problem(write(tmp_path, text))
    assert pf.entries == (((1, 1), 1.5e10),)
    assert pf.q[0] == 1.5e10


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("order: 4\ndim: 2\n", "'q' is required"),
        ("dim: 2\nq: [0.0, 0.0]\n", "'order' is required"),
        ("order: 4\ndim: 2\nq: [0.0, 0.0]\nbogus: 1\n", "unknown fields: bogus"),
        ("order: 1\ndim: 2\nq: [0.0, 0.0]\n", "order must be"),
        ("order: 2\ndim: 0\nq: []\n", "dim must be"),
        ("order: 2.5\ndim: 2\nq: [0.0, 0.0]\n", "order must be an integer"),
        ("order: 2\ndim: 2\nq: [0.0]\n", "list of 2 reals"),
        ("order: 2\ndim: 2\nq: [0.0, true]\n", "got a boolean"),
        ("order: 2\ndim: 2\nq: [0.0, .inf]\n", "must be finite"),
        ("order: 2\ndim: 2\nq: [0.0, hello]\n", "must be a number"),
        ("order: 2\ndim: 2\nq: [0.0, 0.0]\nentries: 5\n", "entries must be a list"),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, 1]\n",
            "keys idx, val",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1]\n    val: 1.0\n",
            "expected order 2",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, 3]\n    val: 1.0\n",
            "out of range",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n"
            "  - idx: [1, 1]\n    val: 1.0\n  - idx: [1, 1]\n    val: 2.0\n",
            "duplicate index",
        ),
        ("order: 2\ndim: 2\nq: [0.0, 0.0]\nz: [1.0]\n", "list of 2 reals"),
        ("- just\n- a\n- list\n", "must be a mapping"),
        ("q: [1.0\n", "not valid YAML"),
    ],
)
def test_parse_rejects_malformed_files(tmp_path, text, fragment):
    with pytest.raises(ProblemFormatError) as excinfo:
        parse_problem(write(tmp_path, text))
    assert fragment in str(excinfo.value)


def test_problem_file_validates_directly():
    with pytest.raises(ProblemFormatError):
        ProblemFile(order=4, dim=2, entries=(), q=np.array([1.0]))
    with pytest.raises(ProblemFormatError):
        ProblemFile(
            order=4, dim=2, entries=(((1, 1, 1, 1), float("nan")),), q=np.zeros(2)
        )


@pytest.mark.parametrize(
    "entries, fragment",
    [
        ((((1, 3), 1.0),), "out of range"),
        ((((1,), 1.0),), "expected order 2"),
        ((((1, 1, 1), 1.0),), "expected order 2"),
    ],
)
def test_problem_file_reports_tensor_errors_as_format_errors(entries, fragment):
    # the tensor's own checks, re-raised under the file's error class
    with pytest.raises(ProblemFormatError, match=fragment):
        ProblemFile(order=2, dim=2, entries=entries, q=np.zeros(2))


@pytest.mark.parametrize("idx", [(1.5, 1), (True, 2)])
def test_problem_file_rejects_non_integer_indices(idx):
    # (1.5, 1) used to be truncated and stored at (1, 1)
    with pytest.raises(ProblemFormatError, match="integer components"):
        ProblemFile(order=2, dim=2, entries=((idx, 1.0),), q=np.zeros(2))


def test_problem_file_accepts_numpy_integer_indices():
    pf = ProblemFile(
        order=2, dim=2, entries=(((np.int64(2), np.int64(1)), 1.0),), q=np.zeros(2)
    )
    assert pf.entries == (((2, 1), 1.0),)
    assert all(type(i) is int for i in pf.entries[0][0])
    with pytest.raises(ProblemFormatError, match="duplicate"):
        ProblemFile(
            order=2, dim=2, entries=(((np.int64(1), 1), 1.0), ((1, 1), 2.0)), q=np.zeros(2)
        )


def test_problem_file_builds_its_tensor_once(tmp_path):
    pf = parse_problem(write(tmp_path, WORKED_YAML))
    assert pf.tensor() is pf.tensor() is pf.instance().tensor


# ------------------------------------------------------------------------ CLI


def test_cli_bounds_machine_output(worked_file, capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--file", worked_file, "--format", "machine"
    )
    assert code == 0 and err == ""
    data = machine(out)
    assert data["command"] == "bounds"
    assert data["z_source"] == "file"
    assert data["alpha"] == "1"
    assert data["alpha_certified"] == "true"
    assert float(data["D"]) == pytest.approx(1.25, rel=1e-12)
    assert float(data["lb_new"]) == pytest.approx(0.19098300562505255, rel=1e-12)
    assert float(data["ub_new"]) == pytest.approx(1.3090169943749475, rel=1e-12)
    assert float(data["lb_base"]) == pytest.approx(1.0 / 6.0, rel=1e-12)
    assert float(data["ub_base"]) == pytest.approx(1.5, rel=1e-12)
    assert data["t"] == "1"
    assert data["flags"] == "none"
    assert [float(x) for x in data["v"].split(",")] == pytest.approx([0.5, -0.4])


def test_cli_bounds_flags_override_file(tmp_path, capsys):
    text = WORKED_YAML.splitlines()
    stripped = "\n".join(line for line in text if not line.startswith(("z:", "u:")))
    path = write(tmp_path, stripped + "\n")
    code, out, _ = run_cli(
        capsys,
        "bounds",
        "--file",
        path,
        "--z",
        "0,0.5",
        "--u",
        "0.5,0.3",
        "--format",
        "machine",
    )
    assert code == 0
    data = machine(out)
    assert data["z_source"] == "flag"
    assert float(data["D"]) == pytest.approx(1.25, rel=1e-12)


def test_cli_bounds_solves_when_z_missing(tmp_path, capsys):
    text = WORKED_YAML.replace("z: [0.0, 0.5]\n", "")
    path = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "bounds", "--file", path, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["z_source"].startswith("solver(")
    assert float(data["ub_new"]) == pytest.approx(1.3090169943749475, rel=1e-9)


def test_cli_compare_ratio(worked_file, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--file", worked_file, "--format", "machine"
    )
    assert code == 0
    data = machine(out)
    assert float(data["ratio_ub_new_over_ub_base"]) == pytest.approx(
        0.872677996249965, rel=1e-12
    )


def test_cli_rel_bounds(worked_file, capsys):
    code, out, _ = run_cli(
        capsys, "rel-bounds", "--file", worked_file, "--format", "machine"
    )
    assert code == 0
    data = machine(out)
    assert float(data["rel_lb"]) == pytest.approx(0.19098300562505255, rel=1e-12)
    assert float(data["rel_ub"]) == pytest.approx(2.618033988749895, rel=1e-12)


def test_cli_rel_bounds_verifies_once_and_matches_compare(
    worked_file, capsys, monkeypatch
):
    import tcpbounds.bounds as bounds_module

    calls = []
    verify = bounds_module.verify_solution

    def counting(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    monkeypatch.setattr(bounds_module, "verify_solution", counting)
    code, out, _ = run_cli(
        capsys, "rel-bounds", "--file", worked_file, "--format", "machine"
    )
    assert code == 0
    assert len(calls) == 1
    rel = machine(out)
    code, out, _ = run_cli(capsys, "compare", "--file", worked_file, "--format", "machine")
    assert code == 0
    full = machine(out)
    for key in ("rel_lb", "rel_ub", "v_inf", "t", "v_t"):
        assert rel[key] == full[key]


# Two solutions: z = (c, 0) with c^3 = 1.9, and one with both coordinates
# positive.  The solver finds both, so bounds rest on the smaller support.
MULTI_YAML = """\
order: 4
dim: 2
entries:
  - idx: [1, 1, 1, 1]
    val: 1.0
  - idx: [2, 1, 2, 2]
    val: -0.2
  - idx: [2, 2, 1, 1]
    val: -1.1
  - idx: [2, 2, 2, 2]
    val: 1.5
q: [-1.9, 0.2]
u: [1.338562329630171, 0.1]
"""


def test_cli_rel_bounds_prints_flags(tmp_path, worked_file, capsys):
    # rel-bounds used to drop the flags that bounds and compare print
    code, out, _ = run_cli(capsys, "rel-bounds", "--file", worked_file, "--format", "machine")
    assert code == 0
    assert machine(out)["flags"] == "none"
    coupled = WORKED_YAML.replace(
        "q: [1.0, -1.0]", "  - idx: [1, 2, 2, 2]\n    val: 0.25\nq: [1.0, -1.0]"
    )
    code, out, _ = run_cli(
        capsys, "rel-bounds", "--file", write(tmp_path, coupled), "--grid", "7",
        "--format", "machine",
    )
    assert code == 0
    assert machine(out)["flags"] == "UNCERTIFIED_ALPHA"
    path = write(tmp_path, MULTI_YAML, "multi.yaml")
    code, out, _ = run_cli(capsys, "rel-bounds", "--file", path, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["z_source"].startswith("solver(2 found")
    assert data["flags"] == "UNCERTIFIED_ALPHA,AMBIGUOUS_SOLUTION"
    code, out, _ = run_cli(capsys, "compare", "--file", path, "--format", "machine")
    assert machine(out)["flags"] == data["flags"]


def test_cli_rel_bounds_degenerate_q_exits_one(tmp_path, capsys):
    text = "order: 4\ndim: 1\nentries:\n  - idx: [1, 1, 1, 1]\n    val: 2.0\nq: [1.0]\nz: [0.0]\nu: [0.5]\n"
    path = write(tmp_path, text)
    code, out, err = run_cli(capsys, "rel-bounds", "--file", path)
    assert code == 1
    assert "DEGENERATE_Q" in err
    assert out == ""


def test_cli_compare_degenerate_q_still_defined(tmp_path, capsys):
    text = "order: 4\ndim: 1\nentries:\n  - idx: [1, 1, 1, 1]\n    val: 2.0\nq: [1.0]\nz: [0.0]\nu: [0.5]\n"
    path = write(tmp_path, text)
    code, out, _ = run_cli(capsys, "compare", "--file", path, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["rel_lb"] == "undefined"
    assert "DEGENERATE_Q" in data["flags"]
    assert float(data["ratio_ub_new_over_ub_base"]) <= 1.0 + 1e-12


def test_cli_sol_bounds(worked_file, capsys):
    code, out, _ = run_cli(
        capsys, "sol-bounds", "--file", worked_file, "--format", "machine"
    )
    assert code == 0
    data = machine(out)
    assert float(data["sol_lb"]) == 0.5
    assert float(data["sol_ub"]) == 1.0


def test_cli_alpha_closed_form(worked_file, capsys):
    code, out, _ = run_cli(capsys, "alpha", "--file", worked_file, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["alpha"] == "1"
    assert data["alpha_method"] == "closed_form_diagonal"
    assert data["alpha_certified"] == "true"


def test_cli_alpha_grid_kind_t(tmp_path, capsys):
    text = "order: 2\ndim: 2\nentries:\n  - idx: [1, 1]\n    val: 2.0\n  - idx: [2, 2]\n    val: 5.0\nq: [0.0, 0.0]\n"
    path = write(tmp_path, text)
    code, out, _ = run_cli(
        capsys, "alpha", "--file", path, "--kind", "T", "--format", "machine"
    )
    assert code == 0
    data = machine(out)
    assert float(data["alpha"]) == 2.0
    assert data["alpha_kind"] == "alpha_T"
    assert data["alpha_certified"] == "false"


def test_cli_check_p_verdicts(tmp_path, worked_file, capsys):
    code, out, _ = run_cli(
        capsys, "check-p", "--file", worked_file, "--format", "machine"
    )
    assert code == 0
    assert machine(out)["verdict"] == "LIKELY_P"
    bad = write(
        tmp_path,
        "order: 2\ndim: 2\nentries:\n  - idx: [1, 1]\n    val: 1.0\n  - idx: [2, 2]\n    val: -2.0\nq: [0.0, 0.0]\n",
    )
    code, out, _ = run_cli(capsys, "check-p", "--file", bad, "--format", "machine")
    assert code == 1
    data = machine(out)
    assert data["verdict"] == "NOT_P"
    assert data["witness"] != "undefined"
    assert float(data["witness_value"]) <= 0.0


def test_cli_solve_single_and_multiple(tmp_path, worked_file, capsys):
    code, out, _ = run_cli(capsys, "solve", "--file", worked_file, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["solutions"] == "1"
    z1 = [float(x) for x in data["z_1"].split(",")]
    assert z1 == pytest.approx([0.0, 0.5], abs=1e-9)
    assert data["support_1"] == "2"
    multi = write(
        tmp_path,
        "order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: -1.0\nq: [1.0]\n",
        "multi.yaml",
    )
    code, out, _ = run_cli(capsys, "solve", "--file", multi, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["solutions"] == "2"
    assert float(data["z_1"]) == pytest.approx(0.0, abs=1e-9)
    assert float(data["z_2"]) == pytest.approx(1.0, abs=1e-9)
    assert data["support_1"] == "none"


def test_cli_solve_reports_nothing_found(tmp_path, capsys):
    none = write(
        tmp_path,
        "order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: -1.0\nq: [-1.0]\n",
    )
    code, out, _ = run_cli(capsys, "solve", "--file", none, "--format", "machine")
    assert code == 1
    assert machine(out)["solutions"] == "0"


def test_cli_verify(worked_file, capsys):
    code, out, _ = run_cli(capsys, "verify", "--file", worked_file, "--format", "machine")
    assert code == 0
    data = machine(out)
    assert data["passed"] == "true"
    assert data["support"] == "2"
    code, out, _ = run_cli(
        capsys, "verify", "--file", worked_file, "--z", "0,0.6", "--format", "machine"
    )
    assert code == 1
    data = machine(out)
    assert data["passed"] == "false"
    assert float(data["max_violation"]) == pytest.approx(0.4368, rel=1e-12)


def test_cli_text_format(worked_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", "--file", worked_file)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("lb_new") for line in lines)
    assert any(line.startswith("flags") for line in lines)
    # aligned two-column layout, not key=value
    assert "=" not in out


def test_cli_output_is_deterministic(worked_file, capsys):
    _, first, _ = run_cli(capsys, "bounds", "--file", worked_file, "--format", "machine")
    _, second, _ = run_cli(capsys, "bounds", "--file", worked_file, "--format", "machine")
    assert first == second


def test_cli_validation_errors_exit_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bounds", "--file", str(tmp_path / "absent.yaml"))
    assert code == 2 and out == "" and "error:" in err
    bad = write(tmp_path, "order: 4\ndim: 2\n")
    code, _, err = run_cli(capsys, "bounds", "--file", bad)
    assert code == 2 and "required" in err
    worked = write(tmp_path, WORKED_YAML, "w.yaml")
    code, _, err = run_cli(capsys, "bounds", "--file", worked, "--u", "not,numbers")
    assert code == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("tol", ["-1", "0"])
def test_cli_non_positive_tol_exits_two(worked_file, capsys, command, tol):
    # solve used to print solutions=0 and exit 1, as if nothing solved it
    code, out, err = run_cli(capsys, command, "--file", worked_file, "--tol", tol)
    assert code == 2 and out == ""
    assert "tol must be positive" in err


@pytest.mark.parametrize("command", ["alpha", "bounds"])
def test_cli_grid_zero_exits_two(worked_file, capsys, command):
    # --grid 0 used to run the default grid of 41
    code, out, err = run_cli(capsys, command, "--file", worked_file, "--grid", "0")
    assert code == 2 and out == ""
    assert "points_per_axis" in err


def test_cli_verification_failure_exits_one(tmp_path, capsys):
    text = WORKED_YAML.replace("z: [0.0, 0.5]", "z: [0.0, 0.6]")
    path = write(tmp_path, text)
    code, _, err = run_cli(capsys, "bounds", "--file", path)
    assert code == 1
    assert "does not solve" in err


def test_cli_argparse_errors_return_two(capsys):
    assert main([]) == 2
    capsys.readouterr()
    assert main(["no-such-command", "--file", "x"]) == 2
    capsys.readouterr()


def test_module_invocation(worked_file):
    proc = subprocess.run(
        [sys.executable, "-m", "tcpbounds", "compare", "--file", worked_file,
         "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ratio_ub_new_over_ub_base=" in proc.stdout


# ------------------------------------------------------ per-subcommand flags

# The optional flags each subcommand reads, besides --file and --format.
REPORT_FLAGS = ("u", "z", "grid", "seed", "tol")
READS = {
    "alpha": ("kind", "grid"),
    "check-p": ("samples", "seed"),
    "solve": ("seed", "tol"),
    "verify": ("z", "seed", "tol"),
    "sol-bounds": ("grid",),
    "bounds": REPORT_FLAGS,
    "rel-bounds": REPORT_FLAGS,
    "compare": REPORT_FLAGS,
}
FLAG_VALUES = {
    "u": "0.5,0.3",
    "z": "0,0.5",
    "grid": "5",
    "seed": "3",
    "tol": "1e-7",
    "kind": "T",
    "samples": "16",
}
# Every subcommand used to take all of REPORT_FLAGS and ignore the unread
# ones: these 17 pairs.
IGNORED = [(c, f) for c in READS for f in REPORT_FLAGS if f not in READS[c]]


@pytest.mark.parametrize("command, flag", IGNORED)
def test_cli_refuses_flags_a_subcommand_does_not_read(worked_file, capsys, command, flag):
    code, out, err = run_cli(
        capsys, command, "--file", worked_file, f"--{flag}", FLAG_VALUES[flag]
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command", list(READS))
def test_cli_accepts_every_flag_it_reads(worked_file, capsys, command):
    argv = [command, "--file", worked_file, "--format", "machine"]
    for flag in READS[command]:
        argv += [f"--{flag}", FLAG_VALUES[flag]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert machine(out)["command"] == command


@pytest.mark.parametrize("tol", [None, "1e-7"])
@pytest.mark.parametrize("command", ["solve", "verify", "bounds", "rel-bounds", "compare"])
def test_cli_tol_reaches_the_solver(tmp_path, capsys, monkeypatch, command, tol):
    # z is not in the file, so each command solves the instance
    path = write(tmp_path, WORKED_YAML.replace("z: [0.0, 0.5]\n", ""))
    seen = []

    def recording_solve(inst, opts):
        seen.append(opts)
        return solve_enumerate(inst, opts)

    solve_enumerate = cli.solve_enumerate
    monkeypatch.setattr(cli, "solve_enumerate", recording_solve)
    argv = [command, "--file", path, "--seed", "3"]
    if tol is not None:
        argv += ["--tol", tol]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    assert len(seen) == 1
    assert seen[0].seed == 3
    assert seen[0].tol == (SolveOptions.tol if tol is None else float(tol))


@pytest.mark.parametrize("name", errors.__all__)
def test_cli_exit_code_of_each_error_class(worked_file, capsys, monkeypatch, name):
    cls = getattr(errors, name)

    def failing_parse(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "parse_problem", failing_parse)
    code, out, err = run_cli(capsys, "bounds", "--file", worked_file)
    assert code == (2 if issubclass(cls, ValueError) else 1)
    assert out == "" and err == "error: boom\n"


# ------------------------------------------------------------- public names


def test_package_exports_every_submodule_name_once():
    modules = (
        tcpbounds.bounds,
        tcpbounds.errors,
        tcpbounds.io,
        tcpbounds.operators,
        tcpbounds.solve,
        tcpbounds.tensor,
    )
    expected = {"__version__"}.union(*(m.__all__ for m in modules))
    assert len(expected) == 61
    assert len(tcpbounds.__all__) == len(set(tcpbounds.__all__))
    assert set(tcpbounds.__all__) == expected
    for name in tcpbounds.__all__:
        assert hasattr(tcpbounds, name), name


# ------------------------------------------------- non-finite tol, index keys


@pytest.mark.parametrize("command", ["solve", "verify", "bounds", "rel-bounds", "compare"])
@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_cli_non_finite_tol_exits_two(worked_file, capsys, command, tol):
    # verify --z 5,5 --tol inf used to print passed=true with
    # max_violation=4995, and bounds a full report with flags=none
    argv = [command, "--file", worked_file, "--tol", tol]
    if command != "solve":
        argv += ["--z", "5,5"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "tol must be positive and finite" in err


@pytest.mark.parametrize(
    "entries, fragment",
    [
        (((1, 1.0),), "index 1 must be a sequence"),
        ((([1], 1.0), ((1,), 2.0)), "duplicate"),
        ((([[1], [2]], 1.0), ([[1], [2]], 2.0)), "integer components"),
    ],
)
def test_problem_file_checks_index_keys_before_the_duplicate_step(entries, fragment):
    # a non-iterable key used to let TypeError: 'int' object is not iterable
    # escape, and an unhashable one TypeError: unhashable type
    with pytest.raises(ProblemFormatError, match=fragment):
        ProblemFile(order=2, dim=2, entries=entries, q=np.zeros(2))


@pytest.mark.parametrize(
    "text, fragment",
    [
        ('order: "4"\ndim: 2\nq: [0.0, 0.0]\n', "order must be an integer"),
        ('order: 2\ndim: "2"\nq: [0.0, 0.0]\n', "dim must be a positive integer"),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, \"a\"]\n    val: 1.0\n",
            "integer components",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [[1, 1], 1]\n    val: 1.0\n",
            "integer components",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: 5\n    val: 1.0\n",
            "entries[1].idx must be a list of integers",
        ),
    ],
)
def test_parse_refuses_non_integer_order_dim_and_indices(tmp_path, text, fragment):
    # the tensor's checks, reached through ProblemFile, are the only ones
    with pytest.raises(ProblemFormatError) as excinfo:
        parse_problem(write(tmp_path, text))
    assert fragment in str(excinfo.value)
