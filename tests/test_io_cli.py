"""Problem-file parsing, deterministic emission, and the command-line front end."""

import argparse
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

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


# The module's loader: libyaml's when PyYAML was built with it.
MODULE_LOADER = tcpbounds.io._LOADER


def parse_with(loader, path):
    """``parse_problem`` with the module's loader swapped for ``loader``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcpbounds.io, "_LOADER", loader)
        return parse_problem(path)


def parsed_fields(loader, path):
    """What ``loader`` makes of a file: its fields with every float as bits,
    or the refusal message (without the scanner's detail, which differs
    between the loaders)."""
    try:
        pf = parse_with(loader, path)
    except ProblemFormatError as exc:
        message = str(exc)
        return message.partition(": ")[0] if message.startswith("not valid YAML") else message
    entries = [(idx, val.hex()) for idx, val in pf.entries]
    vectors = [None if v is None else v.tobytes() for v in (pf.q, pf.z, pf.u)]
    return pf.order, pf.dim, entries, vectors


def exact(data, stack=()):
    """``data`` as nested tuples that compare each value with its type, each
    float by its bits, and a container that holds itself by its depth."""
    if id(data) in stack:
        return "cycle", stack.index(id(data))
    if isinstance(data, dict):
        inner = stack + (id(data),)
        return "dict", [(exact(k, inner), exact(v, inner)) for k, v in data.items()]
    if isinstance(data, list):
        return "list", [exact(item, stack + (id(data),)) for item in data]
    if isinstance(data, float):
        return "float", struct.pack("<d", data)
    return type(data).__name__, data


def constructions(loader, text):
    """What ``io._load`` and ``yaml.load`` each make of ``text`` under
    ``loader``: the document, or the error's type and message."""
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcpbounds.io, "_LOADER", loader)
        for load in (tcpbounds.io._load, lambda text: yaml.load(text, Loader=loader)):
            try:
                outcomes.append(exact(load(text)))
            except Exception as exc:
                outcomes.append((type(exc), str(exc)))
    return outcomes


@pytest.fixture(autouse=True)
def loaders_agree_on_every_written_file(request, tmp_path):
    """Every file a test here writes must give the same fields, bit for bit,
    under the pure-Python loader as under the module's loader, or be refused
    by both with the same message.  So every refusal table below runs under
    both loaders.  A test marked ``loaders_differ`` is left out.  Under each
    loader, the module's construction must also give what ``yaml.load``
    gives, or raise the same error."""
    yield
    paths = sorted(p for p in tmp_path.rglob("*") if p.is_file())
    for path in paths:
        for loader in (yaml.SafeLoader, MODULE_LOADER):
            first, second = constructions(loader, path.read_text())
            assert first == second, (path.name, loader.__name__)
    if request.node.get_closest_marker("loaders_differ"):
        return
    for path in paths:
        assert parsed_fields(yaml.SafeLoader, path) == parsed_fields(MODULE_LOADER, path), (
            path.name
        )


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


def test_files_of_one_tensor_emit_the_same_bytes():
    # An explicit zero entry used to stay in entries and be emitted.
    diag = (((1, 1), 1.0), ((2, 2), 2.0))
    files = [
        ProblemFile(order=order, dim=dim, entries=entries, q=np.array([1.0, -1.0]))
        for order, dim, entries in (
            (2, 2, diag),
            (2, 2, diag + (((1, 2), 0.0),)),
            (np.int64(2), np.int32(2), (((2, 2), 2.0), ((2, 1), -0.0), ((1, 1), 1.0))),
        )
    ]
    assert {(pf.order, pf.dim, pf.entries) for pf in files} == {(2, 2, diag)}
    assert len({emit_problem(pf) for pf in files}) == 1


def test_zero_tensor_when_entries_omitted(tmp_path):
    # Only an absent or null entries is empty; entries: 0 is refused.
    for entries in ("", "entries:\n", "entries: null\n", "entries: []\n"):
        pf = parse_problem(write(tmp_path, "order: 2\ndim: 1\nq: [1.0]\n" + entries))
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
        *[
            (f"order: 2\ndim: 2\nq: [0.0, 0.0]\nentries: {value}\n", "entries must be a list")
            for value in ("5", "0", "false", "{}", "''")
        ],
        ("order: 2\ndim: 2\nq: [0.0, 0.0]\n1: 2\nfoo: 3\n", "unknown fields: 1, foo"),
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
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, 1]\n    val: {a: 1}\n",
            "entries[1].val must be a number, got dict",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, 1]\n    val: [1.0]\n",
            "entries[1].val must be a number, got list",
        ),
        (
            "order: 2\ndim: 2\nq: [0.0, 0.0]\nentries:\n  - idx: [1, 1]\n    val: null\n",
            "entries[1].val must be a number, got NoneType",
        ),
        ("order: 2\ndim: 2\nq: 1.0\n", "q must be a list of reals"),
        ("order: 2\ndim: 2\nq: [0.0, 0.0]\nu: {a: 1}\n", "u must be a list of reals"),
        ("- just\n- a\n- list\n", "must be a mapping"),
        ("q: [1.0\n", "not valid YAML"),
        # A dim that no q matches used to reach np.bincount (an
        # OverflowError, or 22.4 GiB for 3e9), and a huge order numpy's
        # unnamed "Maximum allowed dimension exceeded".
        (
            "order: 2\ndim: 99999999999999999999\nq: [0.0]\n",
            "field 'q' must be a list of 99999999999999999999 reals",
        ),
        ("order: 2\ndim: 3000000000\nq: [0.0]\n", "field 'q' must be a list of 3000000000 reals"),
        (
            "order: 99999999999999999999\ndim: 1\nq: [0.0]\n",
            f"order must be at most {sys.maxsize}, got 99999999999999999999",
        ),
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
    with pytest.raises(ProblemFormatError, match="'q' is required"):
        ProblemFile(order=4, dim=2, entries=(), q=None)
    with pytest.raises(ProblemFormatError, match="'z' must contain finite reals"):
        ProblemFile(order=4, dim=2, entries=(), q=np.zeros(2), z=np.array([0.0, np.inf]))


@pytest.mark.parametrize(
    "entries, fragment",
    [
        ((((1, 3), 1.0),), "out of range"),
        ((((1,), 1.0),), "expected order 2"),
        ((((1, 1, 1), 1.0),), "expected order 2"),
        # a non-numeric value used to escape as a bare TypeError, or as a
        # ValueError that did not name the index
        ((((2, 1), None),), r"index \(2, 1\) must be a real number"),
        ((((2, 1), "abc"),), r"index \(2, 1\) must be a real number"),
        ((((2, 1), object()),), r"index \(2, 1\) must be a real number"),
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
    # M = [[1, 2], [0, 8]] is a P-matrix whose row 1 is not dominant, so
    # alpha comes from the grid, uncertified; the file's z still solves.
    coupled = WORKED_YAML.replace(
        "q: [1.0, -1.0]", "  - idx: [1, 2, 2, 2]\n    val: 2.0\nq: [1.0, -1.0]"
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
    # Dominant, so alpha is the certified dominance bound.
    assert data["flags"] == "AMBIGUOUS_SOLUTION"
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


def test_cli_alpha_prints_a_zero_as_zero(tmp_path, capsys):
    # The grid minimum is a zero that np.min returns as -0.0; "alpha=-0"
    # would make the output depend on where the zeros sit in a chunk.
    text = (
        "order: 2\ndim: 3\nentries:\n  - idx: [2, 2]\n    val: -0.08146018725967341\n"
        "  - idx: [2, 3]\n    val: 0.056946241876765225\nq: [1.0, 1.0, 1.0]\n"
    )
    path = write(tmp_path, text)
    code, out, _ = run_cli(
        capsys, "alpha", "--file", path, "--kind", "T", "--grid", "7", "--format", "machine"
    )
    assert code == 0
    assert machine(out)["alpha"] == "0"


def test_cli_alpha_adds_the_dominance_bound_to_the_grid_estimate(tmp_path, capsys):
    # Row 1 has 1.5 > |-0.5|: alpha keeps printing the grid estimate, with
    # one more line for the certified bound, which sol-bounds uses.
    coupled = WORKED_YAML.replace(
        "q: [1.0, -1.0]", "  - idx: [1, 2, 2, 2]\n    val: -0.5\nq: [1.0, -1.0]"
    ).replace("val: 1.0", "val: 1.5")
    path = write(tmp_path, coupled)
    code, out, _ = run_cli(capsys, "alpha", "--file", path, "--grid", "7", "--format", "machine")
    assert code == 0
    keys = [line.partition("=")[0] for line in out.strip().splitlines()]
    assert keys == [
        "command", "alpha", "alpha_kind", "alpha_method", "alpha_certified",
        "grid_points_per_axis", "refinement_steps", "alpha_lo",
    ]
    data = machine(out)
    assert (data["alpha_method"], data["alpha_certified"]) == ("grid_refined", "false")
    assert data["grid_points_per_axis"] == "7"
    assert float(data["alpha_lo"]) == 1.0 <= float(data["alpha"])
    code, out, _ = run_cli(capsys, "sol-bounds", "--file", path, "--grid", "7", "--format", "machine")
    data = machine(out)
    assert (data["alpha"], data["alpha_method"], data["alpha_certified"]) == (
        "1", "dominance_bound", "true"
    )
    assert "alpha_lo" not in data


def test_cli_output_does_not_depend_on_the_entry_order(tmp_path, capsys):
    # Row 1's off-diagonal entries sum to 1 + 2e-16 in index order, but to 1
    # when the 1.0 is added first; that moved alpha_lo and sol_ub by an ulp.
    entries = [
        ("[1, 1, 1, 1]", "2.0"), ("[1, 2, 2, 2]", "1.0"), ("[1, 1, 1, 2]", "1.0e-16"),
        ("[1, 1, 2, 2]", "1.0e-16"), ("[2, 2, 2, 2]", "4.0"),
    ]
    outputs = []
    for name, listed in [("given", entries), ("tiny-first", entries[2:4] + entries[:2] + entries[4:])]:
        text = "order: 4\ndim: 2\nentries:\n" + "".join(
            f"  - idx: {idx}\n    val: {val}\n" for idx, val in listed
        )
        path = write(tmp_path, text + "q: [-1.0, -1.0]\n", f"{name}.yaml")
        outputs.append([
            run_cli(capsys, "sol-bounds", "--file", path),
            run_cli(capsys, "alpha", "--file", path, "--format", "machine"),
        ])
    assert outputs[0][0][0] == outputs[0][1][0] == 0
    assert outputs[0] == outputs[1]


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


# A = (-1) and q = (-1): w = -z - 1 < 0 for every z >= 0, so no solution.
NO_SOLUTION_YAML = (
    "order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: -1.0\nq: [-1.0]\n"
)


def test_cli_solve_reports_nothing_found(tmp_path, capsys):
    none = write(tmp_path, NO_SOLUTION_YAML)
    code, out, _ = run_cli(capsys, "solve", "--file", none, "--format", "machine")
    assert code == 1
    assert machine(out)["solutions"] == "0"


@pytest.mark.parametrize("argv", [["verify"], ["bounds", "--u", "1"]])
def test_cli_without_z_exits_one_when_no_solution_is_found(tmp_path, capsys, argv):
    none = write(tmp_path, NO_SOLUTION_YAML)
    code, out, err = run_cli(capsys, *argv, "--file", none)
    assert code == 1 and out == ""
    assert "no solution found by support enumeration; supply --z" in err


@pytest.mark.parametrize("command", ["bounds", "rel-bounds", "compare"])
def test_cli_missing_u_is_refused_before_solving(tmp_path, capsys, monkeypatch, command):
    # Neither z nor u in the file or the flags: the missing test point is
    # refused without running the support enumeration for z.
    text = WORKED_YAML.replace("z: [0.0, 0.5]\n", "").replace("u: [0.5, 0.3]\n", "")
    path = write(tmp_path, text)

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before u was resolved")

    monkeypatch.setattr(cli, "solve_enumerate", no_solve)
    code, out, err = run_cli(capsys, command, "--file", path)
    assert code == 2 and out == ""
    assert "a test point is required: pass --u or put u in the file" in err


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


def test_cli_verify_overflowing_z_fails_without_a_warning(worked_file):
    # (1e200)^3 overflowed in numpy's product first: the warning was printed
    # before the certificate, and under -W error it exited 1 with a traceback
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tcpbounds", "verify", "--file",
         worked_file, "--z", "1e200,0.5", "--format", "machine"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    data = machine(proc.stdout)
    assert data["passed"] == "false" and data["max_violation"] == "inf"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--z", "nan,0.5"], "--z[1] must be finite, got nan"),
        (["bounds", "--z", "1e400,0.5"], "--z[1] must be finite, got inf"),
        (["bounds", "--u", "1,inf"], "--u[2] must be finite, got inf"),
        (["bounds", "--u", "1,,2"], "--u[2] must be a number, got ''"),
    ],
    ids=["verify-z-nan", "bounds-z-overflow", "bounds-u-inf", "bounds-u-empty"],
)
def test_cli_vector_flags_follow_the_file_number_rules(worked_file, capsys, argv, message):
    # verify --z nan,0.5 used to print passed=false and exit 1, and bounds
    # --z 1e400,0.5 failed as an unverified z; in a file both exit 2
    code, out, err = run_cli(capsys, *argv, "--file", worked_file)
    assert code == 2 and out == "" and message in err


def test_cli_text_format(worked_file, capsys):
    code, out, _ = run_cli(capsys, "bounds", "--file", worked_file)
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("lb_new") for line in lines)
    assert any(line.startswith("flags") for line in lines)
    # aligned two-column layout, not key=value
    assert "=" not in out


def test_cli_output_is_deterministic(worked_file, capsys):
    for command in READS:
        argv = [command, "--file", worked_file, "--format", "machine"]
        first = run_cli(capsys, *argv)
        assert run_cli(capsys, *argv) == first


def test_cli_validation_errors_exit_two(tmp_path, capsys):
    code, out, err = run_cli(capsys, "bounds", "--file", str(tmp_path / "absent.yaml"))
    assert code == 2 and out == "" and "error:" in err
    bad = write(tmp_path, "order: 4\ndim: 2\n")
    code, _, err = run_cli(capsys, "bounds", "--file", bad)
    assert code == 2 and "required" in err
    worked = write(tmp_path, WORKED_YAML, "w.yaml")
    code, _, err = run_cli(capsys, "bounds", "--file", worked, "--u", "not,numbers")
    assert code == 2
    # D overflows for this u: an input out of range, not a failed hypothesis
    tiny = write(
        tmp_path,
        "order: 2\ndim: 2\nentries:\n  - idx: [1, 1]\n    val: 1.0e-300\n"
        "  - idx: [2, 2]\n    val: 1.0e-300\nq: [1.0, 1.0]\nz: [0.0, 0.0]\n",
        "tiny.yaml",
    )
    code, out, err = run_cli(capsys, "bounds", "--file", tiny, "--u=-1e160,-1e160")
    assert code == 2 and out == "" and "overflows" in err
    # Sorting an int key with a str key raised TypeError: exit 1, the
    # failed-hypothesis code, with a traceback.
    mixed = write(tmp_path, "order: 2\ndim: 2\nq: [0.0, 0.0]\n1: 2\nfoo: 3\n", "mixed.yaml")
    code, out, err = run_cli(capsys, "check-p", "--file", mixed)
    assert code == 2 and out == "" and "unknown fields: 1, foo" in err


# Every entry is finite, but row 1 of the tensor sums to 1 + 1e308 + 1e308.
OVERFLOWING_NORM_YAML = """\
order: 2
dim: 3
entries:
  - {idx: [1, 1], val: 1.0}
  - {idx: [2, 2], val: 1.0}
  - {idx: [3, 3], val: 1.0}
  - {idx: [1, 2], val: 1.0e+308}
  - {idx: [1, 3], val: 1.0e+308}
q: [-1.0, 1.0, 1.0]
z: [1.0, 0.0, 0.0]
u: [0.5, 0.0, 0.0]
"""
NORM_MESSAGE = (
    "||A||_inf overflows to inf although every entry is finite; rescale the tensor"
)


def test_overflowing_norm_file_is_a_format_error(tmp_path):
    with pytest.raises(ProblemFormatError) as info:
        parse_problem(write(tmp_path, OVERFLOWING_NORM_YAML))
    assert str(info.value) == NORM_MESSAGE
    entries = (((1, 1), 1.0), ((1, 2), 1e308), ((1, 3), 1e308))
    with pytest.raises(ProblemFormatError) as info:
        ProblemFile(order=2, dim=3, entries=entries, q=np.zeros(3))
    assert str(info.value) == NORM_MESSAGE


@pytest.mark.parametrize(
    "command",
    ["alpha", "check-p", "solve", "verify", "sol-bounds", "bounds", "rel-bounds", "compare"],
)
def test_cli_refuses_an_overflowing_norm_without_a_warning(tmp_path, command):
    # alpha and the report commands used to exit 2 with "min() arg is an
    # empty sequence", check-p to exit 0 with LIKELY_P built on NaN, and
    # solve and verify to exit 1, each after numpy RuntimeWarnings
    path = write(tmp_path, OVERFLOWING_NORM_YAML)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tcpbounds", command, "--file", path],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {NORM_MESSAGE}\n")


def test_cli_negative_seed_is_refused_by_name(worked_file, capsys):
    # used to exit 2 with numpy's "expected non-negative integer"
    code, out, err = run_cli(capsys, "solve", "--file", worked_file, "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed must be an integer >= 0, got -1\n"


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


ORDER_2_YAML = """\
order: 2
dim: 2
entries:
  - idx: [1, 1]
    val: 2.0
  - idx: [1, 2]
    val: 0.5
  - idx: [2, 2]
    val: 1.0
q: [1.0, -1.0]
z: [0.0, 1.0]
"""


# ||A|| ||u - z||^2 is finite here, but w = A z + q = (1e308, 0), so
# root(A (u - z)) + root(w) overflows.
HUGE_W_YAML = """\
order: 2
dim: 2
entries:
  - idx: [1, 1]
    val: 1.0e+308
  - idx: [2, 2]
    val: 1.0
q: [1.0e+308, -1.0]
z: [0.0, 1.0]
"""


@pytest.mark.parametrize(
    "text, u",
    [(WORKED_YAML, "1e160,1e160"), (ORDER_2_YAML, "1e160,1e160"), (HUGE_W_YAML, "1,1")],
    ids=["order4", "order2", "huge_w"],
)
def test_cli_overflowing_u_is_refused_without_a_warning(tmp_path, capsys, text, u):
    # A(u-z)^{m-1}, or the sum of its root and w's, overflowed in numpy first:
    # under -W error the warning was raised as a traceback with exit 1,
    # otherwise printed before the refusal
    path = write(tmp_path, text)
    argv = ["bounds", "--file", path, "--u", u]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and "overflows" in err
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "tcpbounds", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "overflows" in proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_module_invocation(worked_file, tmp_path, capsys):
    # python -m tcpbounds prints what cli.main prints, byte for byte, and
    # passes its exit code on
    missing = str(tmp_path / "missing.yaml")
    for argv, want_code in [
        (["bounds", "--file", worked_file, "--format", "machine"], 0),
        (["compare", "--file", worked_file, "--format", "machine"], 0),
        (["bounds", "--file", missing], 2),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "tcpbounds", *argv], capture_output=True
        )
        code, out, err = run_cli(capsys, *argv)
        assert code == want_code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.encode(), err.encode()
        )


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


def every_flag(command, path):
    argv = [command, "--file", path, "--format", "machine"]
    for flag in READS[command]:
        argv += [f"--{flag}", FLAG_VALUES[flag]]
    return argv


@pytest.mark.parametrize("command", list(READS))
def test_cli_accepts_every_flag_it_reads(worked_file, capsys, command):
    code, out, err = run_cli(capsys, *every_flag(command, worked_file))
    assert code == 0 and err == ""
    assert machine(out)["command"] == command


# ------------------------------------------------------------ argparse surface


def eager_parser():
    """The parser with every subcommand's flags added up front, from the same
    tables: what each argv must parse to, whenever the CLI adds the flags."""
    parser = argparse.ArgumentParser(
        prog="tcpbounds",
        description="Certified error bounds for tensor complementarity problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in cli._COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--file", required=True, help="problem file (YAML)")
        for flag in flags:
            cmd.add_argument(f"--{flag}", **cli._FLAGS[flag])
        cmd.add_argument(
            "--format", choices=("text", "machine"), default="text", dest="format"
        )
    return parser


SURFACE_ARGV = {
    "help": ["--help"],
    "no-args": [],
    "invalid-choice": ["no-such-command", "--file", "p.yaml"],
    "missing-file": ["alpha"],
    "bad-format": ["bounds", "--file", "p.yaml", "--format", "xml"],
    "bad-seed": ["solve", "--file", "p.yaml", "--seed", "x"],
    "bad-kind": ["alpha", "--file", "p.yaml", "--kind", "X"],
    "trailing-extra": ["alpha", "--file", "p.yaml", "extra"],
    "abbreviations": ["bounds", "--fi", "p.yaml", "--form", "machine"],
    "ambiguous-abbreviation": ["check-p", "--file", "p.yaml", "--s", "3"],
    "help-after-flags": ["verify", "--file", "p.yaml", "-h"],
    **{f"{command}-help": [command, "--help"] for command in READS},
    **{f"{command}-every-flag": every_flag(command, "p.yaml") for command in READS},
}


def parse_outcome(parser, argv, capsys):
    try:
        namespace, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("argv", SURFACE_ARGV.values(), ids=list(SURFACE_ARGV))
def test_cli_parser_matches_the_eager_parser(capsys, monkeypatch, argv, columns):
    # exit code, stdout, stderr and Namespace, help and usage wrapping included
    monkeypatch.setenv("COLUMNS", columns)
    want = parse_outcome(eager_parser(), argv, capsys)
    assert parse_outcome(cli._build_parser(), argv, capsys) == want


def test_cli_parse_adds_only_the_named_subcommand_flags():
    parser = cli._build_parser()
    parser.parse_args(["alpha", "--file", "p.yaml", "--kind", "T"])
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    parsers = dict(sub.choices)
    assert [a.dest for a in parsers.pop("alpha")._actions] == [
        "help", "file", "kind", "grid", "format"
    ]
    assert list(parsers) == [name for name in READS if name != "alpha"]
    assert set(parsers.values()) == {None}


@pytest.mark.parametrize("name", ["help", "no-args", "invalid-choice", *READS])
def test_cli_main_builds_the_top_parser_and_at_most_one_more(
    worked_file, capsys, monkeypatch, name
):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    if name in READS:
        code, _, _ = run_cli(capsys, *every_flag(name, worked_file))
        assert code == 0
        assert built == ["tcpbounds", f"tcpbounds {name}"]
    else:
        run_cli(capsys, *SURFACE_ARGV[name])
        assert built == ["tcpbounds"]


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
        ('order: 2\ndim: "2"\nq: [0.0, 0.0]\n', "dim must be an integer >= 1"),
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


# ------------------------------------------------------------- YAML loaders


def test_module_loader_is_libyaml_when_pyyaml_has_it():
    assert (MODULE_LOADER is not yaml.SafeLoader) == yaml.__with_libyaml__


def test_readme_worked_file_parses_alike_under_both_loaders(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = write(tmp_path, text, "readme.yaml")
    assert parsed_fields(yaml.SafeLoader, path) == parsed_fields(MODULE_LOADER, path)
    pf = parse_problem(path)
    assert (pf.order, pf.dim) == (4, 2)
    np.testing.assert_array_equal(pf.u, [0.5, 0.3])


# Inputs probed for a difference between the loaders: each is taken or
# refused alike by both.
LOADER_PROBES = {
    "control-character": "order: 2\x01\ndim: 1\nq: [1.0]\n",
    "nul": "order: 2\x00\ndim: 1\nq: [1.0]\n",
    "bom": "\ufefforder: 2\ndim: 1\nq: [1.0]\n",
    "unsigned-exponent": "order: 2\ndim: 1\nq: [1e5]\n",
    "inf": "order: 2\ndim: 1\nq: [.inf]\n",
    "duplicate-key": "order: 3\norder: 2\ndim: 1\nq: [1.0]\n",
    "anchor": "order: 2\ndim: 2\nq: &v [1.0, 2.0]\nz: *v\n",
    "python-tag": "order: !!python/object/apply:os.getcwd []\ndim: 1\nq: [1.0]\n",
    "two-documents": "order: 2\ndim: 1\nq: [1.0]\n---\norder: 2\n",
    "unclosed-flow-sequence": "order: 2\ndim: 1\nq: [1.0\n",
    "tab-indentation": "order: 2\ndim: 1\nentries:\n\t- idx: [1, 1]\n\t  val: 1.0\nq: [1.0]\n",
}


@pytest.mark.parametrize("text", LOADER_PROBES.values(), ids=list(LOADER_PROBES))
def test_loaders_agree_on_probes(tmp_path, text):
    path = write(tmp_path, text)
    assert parsed_fields(yaml.SafeLoader, path) == parsed_fields(MODULE_LOADER, path)


# Documents that ``io._load`` leaves whole to PyYAML's construct_document,
# and scalars whose YAML 1.1 meaning its own pass keeps, each with whether
# it falls back.  No benchmark file falls back, so only these cover it.
CONSTRUCTION_PROBES = {
    "alias": ("a: &x [1, 2]\nb: *x\n", True),
    "scalar-alias": ("a: &x 1.5\nb: *x\n", True),
    "recursive-alias": ("&a [*a]\n", True),
    "merge-key": ("<<: {a: 1}\nb: 2\n", True),
    "non-scalar-key": ("? [1, 2]\n: 3\n", True),
    "set": ("!!set {a, b}\n", True),
    "omap": ("!!omap [a: 1, b: 2]\n", True),
    "timestamp": ("t: !!timestamp 2001-12-14\nu: 2001-12-14 21:59:43.10 -5\n", True),
    "binary": ("b: !!binary aGVsbG8=\n", True),
    "str-tag-on-a-sequence": ("s: !!str [1]\n", True),
    "python-object": ("o: !!python/object:os.getcwd {}\n", True),
    "bool-tag-on-a-word": ("b: !!bool maybe\n", True),
    "float-tag-on-a-word": ("f: !!float abc\n", True),
    "octal": ("n: 012\n", False),
    "sexagesimal": ("n: 1:30\n", False),
    "unsigned-exponent": ("n: 1e5\n", False),
    "nan": ("x: .nan\n", False),
    "inf": ("x: [.inf, -.inf]\n", False),
    "null-and-bools": ("~: [null, yes, Off]\n", False),
    "duplicate-key": ("a: 1\na: 2\n", False),
    "empty-document": ("", False),
}


def falls_back(loader, text):
    """Whether ``io._load`` hands ``text`` to ``construct_document``."""
    calls = []

    class Counting(loader):
        def construct_document(self, node):
            calls.append(node)
            return super().construct_document(node)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tcpbounds.io, "_LOADER", Counting)
        try:
            tcpbounds.io._load(text)
        except Exception:
            pass
    return bool(calls)


@pytest.mark.parametrize("loader", [yaml.SafeLoader, MODULE_LOADER], ids=["python", "module"])
@pytest.mark.parametrize(
    "text, fallback", CONSTRUCTION_PROBES.values(), ids=list(CONSTRUCTION_PROBES)
)
def test_construction_matches_yaml_load_on_probes(loader, text, fallback):
    first, second = constructions(loader, text)
    assert first == second
    assert falls_back(loader, text) == fallback


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="the pure-Python composer recurses too")
def test_construction_falls_back_past_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    text = "[" * depth + "]" * depth
    # Walked in a loop: exact() would recurse as deep as the document.
    built = [tcpbounds.io._load(text), yaml.load(text, Loader=MODULE_LOADER)]
    for _ in range(depth - 1):
        assert [len(data) for data in built] == [1, 1]
        built = [data[0] for data in built]
    assert built == [[], []]
    assert falls_back(MODULE_LOADER, text)


# Explicitly tagged scalars that the tag's own PyYAML constructor refuses,
# each with its error's message.  The constructors raise a KeyError, an
# AttributeError and ValueErrors, none a yaml.YAMLError: the first two once
# escaped the CLI as tracebacks (exit 1), the others exited 2 with a
# message that named nothing.
REFUSED_SCALARS = {
    "bool-maybe": ("order: 2\ndim: 1\nq: [!!bool maybe]\n", "'maybe'"),
    "timestamp-abc": (
        "order: 2\ndim: 1\nq: [!!timestamp abc]\n",
        "'NoneType' object has no attribute 'groupdict'",
    ),
    "float-abc": (
        "order: 2\ndim: 1\nq: [!!float abc]\n",
        "could not convert string to float: 'abc'",
    ),
    "int-0x": (
        "order: 2\ndim: 1\nentries:\n  - idx: [1, 1]\n    val: !!int 0x\nq: [1.0]\n",
        "invalid literal for int() with base 16: ''",
    ),
}


@pytest.mark.parametrize("loader", [yaml.SafeLoader, MODULE_LOADER], ids=["python", "module"])
@pytest.mark.parametrize("text, detail", REFUSED_SCALARS.values(), ids=list(REFUSED_SCALARS))
def test_a_scalar_its_constructor_refuses_is_not_valid_yaml(
    tmp_path, capsys, monkeypatch, loader, text, detail
):
    monkeypatch.setattr(tcpbounds.io, "_LOADER", loader)
    code, out, err = run_cli(capsys, "check-p", "--file", write(tmp_path, text))
    assert (code, out, err) == (2, "", f"error: not valid YAML: {detail}\n")


@pytest.mark.loaders_differ
def test_nesting_past_the_python_composers_recursion_is_not_valid_yaml(
    tmp_path, capsys, monkeypatch
):
    # PyYAML's pure-Python composer recurses at least twice per level, so a
    # 500-deep q raises RecursionError, not a yaml.YAMLError.  libyaml
    # composes it, and the file is refused by its q.
    path = write(tmp_path, "order: 2\ndim: 1\nq: " + "[" * 500 + "]" * 500 + "\n")
    if yaml.__with_libyaml__:
        refused = "error: q[1] must be a number, got list\n"
        assert run_cli(capsys, "check-p", "--file", path) == (2, "", refused)
    monkeypatch.setattr(tcpbounds.io, "_LOADER", yaml.SafeLoader)
    code, out, err = run_cli(capsys, "check-p", "--file", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: not valid YAML: maximum recursion depth exceeded")


@pytest.mark.parametrize(
    "text",
    ["order:\t2\ndim: 1\nq: [1.0]\n", "order: 2\ndim: 2\nq: [1.0,\t2.0]\n"],
    ids=["after-colon", "after-comma"],
)
@pytest.mark.loaders_differ
def test_a_separating_tab_is_valid_only_to_libyaml(tmp_path, text):
    # The one difference found between the loaders.
    path = write(tmp_path, text)
    with pytest.raises(ProblemFormatError, match="not valid YAML: while scanning"):
        parse_with(yaml.SafeLoader, path)
    if yaml.__with_libyaml__:
        assert parse_with(yaml.CSafeLoader, path).order == 2

