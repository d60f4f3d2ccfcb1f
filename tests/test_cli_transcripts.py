"""The report subcommands' transcripts, pinned byte for byte.

``bounds``, ``rel-bounds`` and ``compare`` are views of one report.  Their
stdout, stderr and exit code on four files, in both formats, are pinned
here: the worked file, a file with two solutions (AMBIGUOUS_SOLUTION), a
non-dominant file whose alpha comes from the grid (UNCERTIFIED_ALPHA), and
a file with ``(-q)+ = 0`` (DEGENERATE_Q), where ``rel-bounds`` exits 1.

The ``alpha`` subcommand's transcripts are pinned too, at grids 2, 3 and 7
and for both kinds: a dominant file, which prints the grid estimate with the
certified ``alpha_lo`` below it, the non-dominant file, an order-2 file and
an ``n = 1`` file, all of whose alphas come from the grid sweep.
"""

import pytest

from tcpbounds.cli import main

# The worked example: a positive diagonal, with z and u in the file.
WORKED = """\
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

# Two solutions; the solver finds both and the report rests on the smaller support.
MULTI = """\
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

# Row 1 is not dominant, so alpha comes from the grid, uncertified.
COUPLED = WORKED.replace("q: [1.0, -1.0]", "  - idx: [1, 2, 2, 2]\n    val: 2.0\nq: [1.0, -1.0]")

# (-q)+ = 0: the relative bounds are undefined.
DEGENERATE_Q = "order: 4\ndim: 1\nentries:\n  - idx: [1, 1, 1, 1]\n    val: 2.0\nq: [1.0]\nz: [0.0]\nu: [0.5]\n"

FILES = {"worked": WORKED, "multi": MULTI, "coupled": COUPLED, "degenerate_q": DEGENERATE_Q}

# (file, subcommand, format): (exit code, stdout, stderr)
TRANSCRIPTS = {
    ("worked", "bounds", "text"): (
        0,
        """\
command               bounds
z                     0,0.5
z_source              file
u                     0.5,0.29999999999999999
alpha                 1
alpha_kind            alpha_F
alpha_method          closed_form_diagonal
alpha_certified       true
grid_points_per_axis  0
refinement_steps      0
a_norm_root           2
v                     0.5,-0.40000000000000002
v_inf                 0.5
t                     1
v_t                   0.5
argmax_value          0.0625
D                     1.25
lb_new                0.19098300562505255
ub_new                1.3090169943749475
lb_base               0.16666666666666666
ub_base               1.5
sol_lb                0.5
sol_ub                1
rel_lb                0.19098300562505255
rel_ub                2.6180339887498949
flags                 none
""",
        "",
    ),
    ("worked", "bounds", "machine"): (
        0,
        """\
command=bounds
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=1
alpha_kind=alpha_F
alpha_method=closed_form_diagonal
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=2
v=0.5,-0.40000000000000002
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.0625
D=1.25
lb_new=0.19098300562505255
ub_new=1.3090169943749475
lb_base=0.16666666666666666
ub_base=1.5
sol_lb=0.5
sol_ub=1
rel_lb=0.19098300562505255
rel_ub=2.6180339887498949
flags=none
""",
        "",
    ),
    ("worked", "rel-bounds", "text"): (
        0,
        """\
command               rel-bounds
z                     0,0.5
z_source              file
u                     0.5,0.29999999999999999
alpha                 1
alpha_kind            alpha_F
alpha_method          closed_form_diagonal
alpha_certified       true
grid_points_per_axis  0
refinement_steps      0
v_inf                 0.5
t                     1
v_t                   0.5
rel_lb                0.19098300562505255
rel_ub                2.6180339887498949
flags                 none
""",
        "",
    ),
    ("worked", "rel-bounds", "machine"): (
        0,
        """\
command=rel-bounds
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=1
alpha_kind=alpha_F
alpha_method=closed_form_diagonal
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
v_inf=0.5
t=1
v_t=0.5
rel_lb=0.19098300562505255
rel_ub=2.6180339887498949
flags=none
""",
        "",
    ),
    ("worked", "compare", "text"): (
        0,
        """\
command                    compare
z                          0,0.5
z_source                   file
u                          0.5,0.29999999999999999
alpha                      1
alpha_kind                 alpha_F
alpha_method               closed_form_diagonal
alpha_certified            true
grid_points_per_axis       0
refinement_steps           0
a_norm_root                2
v                          0.5,-0.40000000000000002
v_inf                      0.5
t                          1
v_t                        0.5
argmax_value               0.0625
D                          1.25
lb_new                     0.19098300562505255
ub_new                     1.3090169943749475
lb_base                    0.16666666666666666
ub_base                    1.5
sol_lb                     0.5
sol_ub                     1
rel_lb                     0.19098300562505255
rel_ub                     2.6180339887498949
ratio_ub_new_over_ub_base  0.872677996249965
flags                      none
""",
        "",
    ),
    ("worked", "compare", "machine"): (
        0,
        """\
command=compare
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=1
alpha_kind=alpha_F
alpha_method=closed_form_diagonal
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=2
v=0.5,-0.40000000000000002
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.0625
D=1.25
lb_new=0.19098300562505255
ub_new=1.3090169943749475
lb_base=0.16666666666666666
ub_base=1.5
sol_lb=0.5
sol_ub=1
rel_lb=0.19098300562505255
rel_ub=2.6180339887498949
ratio_ub_new_over_ub_base=0.872677996249965
flags=none
""",
        "",
    ),
    ("multi", "bounds", "text"): (
        0,
        """\
command               bounds
z                     1.2385623296301709,0
z_source              solver(2 found, smallest support used)
u                     1.338562329630171,0.10000000000000001
alpha                 0.58480354764257314
alpha_kind            alpha_F
alpha_method          dominance_bound
alpha_certified       true
grid_points_per_axis  0
refinement_steps      0
a_norm_root           1.4094597464129783
v                     0.1000060554544525,0.10000000000000001
v_inf                 0.1000060554544525
t                     1
v_t                   0.1000060554544525
argmax_value          0.00010000000000000036
D                     0.034667018899895291
lb_new                0.046827479150929573
ub_new                0.36520929112242795
lb_base               0.041505592946026161
ub_base               0.4120367702733575
sol_lb                0.87874970021830356
sol_ub                2.1179117921274471
rel_lb                0.022110212202884651
rel_ub                0.41560104206203513
flags                 AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("multi", "bounds", "machine"): (
        0,
        """\
command=bounds
z=1.2385623296301709,0
z_source=solver(2 found, smallest support used)
u=1.338562329630171,0.10000000000000001
alpha=0.58480354764257314
alpha_kind=alpha_F
alpha_method=dominance_bound
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=1.4094597464129783
v=0.1000060554544525,0.10000000000000001
v_inf=0.1000060554544525
t=1
v_t=0.1000060554544525
argmax_value=0.00010000000000000036
D=0.034667018899895291
lb_new=0.046827479150929573
ub_new=0.36520929112242795
lb_base=0.041505592946026161
ub_base=0.4120367702733575
sol_lb=0.87874970021830356
sol_ub=2.1179117921274471
rel_lb=0.022110212202884651
rel_ub=0.41560104206203513
flags=AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("multi", "rel-bounds", "text"): (
        0,
        """\
command               rel-bounds
z                     1.2385623296301709,0
z_source              solver(2 found, smallest support used)
u                     1.338562329630171,0.10000000000000001
alpha                 0.58480354764257314
alpha_kind            alpha_F
alpha_method          dominance_bound
alpha_certified       true
grid_points_per_axis  0
refinement_steps      0
v_inf                 0.1000060554544525
t                     1
v_t                   0.1000060554544525
rel_lb                0.022110212202884651
rel_ub                0.41560104206203513
flags                 AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("multi", "rel-bounds", "machine"): (
        0,
        """\
command=rel-bounds
z=1.2385623296301709,0
z_source=solver(2 found, smallest support used)
u=1.338562329630171,0.10000000000000001
alpha=0.58480354764257314
alpha_kind=alpha_F
alpha_method=dominance_bound
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
v_inf=0.1000060554544525
t=1
v_t=0.1000060554544525
rel_lb=0.022110212202884651
rel_ub=0.41560104206203513
flags=AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("multi", "compare", "text"): (
        0,
        """\
command                    compare
z                          1.2385623296301709,0
z_source                   solver(2 found, smallest support used)
u                          1.338562329630171,0.10000000000000001
alpha                      0.58480354764257314
alpha_kind                 alpha_F
alpha_method               dominance_bound
alpha_certified            true
grid_points_per_axis       0
refinement_steps           0
a_norm_root                1.4094597464129783
v                          0.1000060554544525,0.10000000000000001
v_inf                      0.1000060554544525
t                          1
v_t                        0.1000060554544525
argmax_value               0.00010000000000000036
D                          0.034667018899895291
lb_new                     0.046827479150929573
ub_new                     0.36520929112242795
lb_base                    0.041505592946026161
ub_base                    0.4120367702733575
sol_lb                     0.87874970021830356
sol_ub                     2.1179117921274471
rel_lb                     0.022110212202884651
rel_ub                     0.41560104206203513
ratio_ub_new_over_ub_base  0.88635121297581576
flags                      AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("multi", "compare", "machine"): (
        0,
        """\
command=compare
z=1.2385623296301709,0
z_source=solver(2 found, smallest support used)
u=1.338562329630171,0.10000000000000001
alpha=0.58480354764257314
alpha_kind=alpha_F
alpha_method=dominance_bound
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=1.4094597464129783
v=0.1000060554544525,0.10000000000000001
v_inf=0.1000060554544525
t=1
v_t=0.1000060554544525
argmax_value=0.00010000000000000036
D=0.034667018899895291
lb_new=0.046827479150929573
ub_new=0.36520929112242795
lb_base=0.041505592946026161
ub_base=0.4120367702733575
sol_lb=0.87874970021830356
sol_ub=2.1179117921274471
rel_lb=0.022110212202884651
rel_ub=0.41560104206203513
ratio_ub_new_over_ub_base=0.88635121297581576
flags=AMBIGUOUS_SOLUTION
""",
        "",
    ),
    ("coupled", "bounds", "text"): (
        0,
        """\
command               bounds
z                     0,0.5
z_source              file
u                     0.5,0.29999999999999999
alpha                 0.79370052599003482
alpha_kind            alpha_F
alpha_method          grid_refined
alpha_certified       false
grid_points_per_axis  41
refinement_steps      50
a_norm_root           2
v                     0.5,-0.40000000000000002
v_inf                 0.5
t                     1
v_t                   0.5
argmax_value          0.0545
D                     1.4562994740099651
lb_new                0.18472185233854413
ub_new                1.7051597224896333
lb_base               0.16666666666666666
ub_base               1.8898815748281776
sol_lb                0.5
sol_ub                1.2599210498854518
rel_lb                0.14661383136295603
rel_ub                3.4103194449792666
flags                 UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("coupled", "bounds", "machine"): (
        0,
        """\
command=bounds
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=0.79370052599003482
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=41
refinement_steps=50
a_norm_root=2
v=0.5,-0.40000000000000002
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.0545
D=1.4562994740099651
lb_new=0.18472185233854413
ub_new=1.7051597224896333
lb_base=0.16666666666666666
ub_base=1.8898815748281776
sol_lb=0.5
sol_ub=1.2599210498854518
rel_lb=0.14661383136295603
rel_ub=3.4103194449792666
flags=UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("coupled", "rel-bounds", "text"): (
        0,
        """\
command               rel-bounds
z                     0,0.5
z_source              file
u                     0.5,0.29999999999999999
alpha                 0.79370052599003482
alpha_kind            alpha_F
alpha_method          grid_refined
alpha_certified       false
grid_points_per_axis  41
refinement_steps      50
v_inf                 0.5
t                     1
v_t                   0.5
rel_lb                0.14661383136295603
rel_ub                3.4103194449792666
flags                 UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("coupled", "rel-bounds", "machine"): (
        0,
        """\
command=rel-bounds
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=0.79370052599003482
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=41
refinement_steps=50
v_inf=0.5
t=1
v_t=0.5
rel_lb=0.14661383136295603
rel_ub=3.4103194449792666
flags=UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("coupled", "compare", "text"): (
        0,
        """\
command                    compare
z                          0,0.5
z_source                   file
u                          0.5,0.29999999999999999
alpha                      0.79370052599003482
alpha_kind                 alpha_F
alpha_method               grid_refined
alpha_certified            false
grid_points_per_axis       41
refinement_steps           50
a_norm_root                2
v                          0.5,-0.40000000000000002
v_inf                      0.5
t                          1
v_t                        0.5
argmax_value               0.0545
D                          1.4562994740099651
lb_new                     0.18472185233854413
ub_new                     1.7051597224896333
lb_base                    0.16666666666666666
ub_base                    1.8898815748281776
sol_lb                     0.5
sol_ub                     1.2599210498854518
rel_lb                     0.14661383136295603
rel_ub                     3.4103194449792666
ratio_ub_new_over_ub_base  0.90225744575802924
flags                      UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("coupled", "compare", "machine"): (
        0,
        """\
command=compare
z=0,0.5
z_source=file
u=0.5,0.29999999999999999
alpha=0.79370052599003482
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=41
refinement_steps=50
a_norm_root=2
v=0.5,-0.40000000000000002
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.0545
D=1.4562994740099651
lb_new=0.18472185233854413
ub_new=1.7051597224896333
lb_base=0.16666666666666666
ub_base=1.8898815748281776
sol_lb=0.5
sol_ub=1.2599210498854518
rel_lb=0.14661383136295603
rel_ub=3.4103194449792666
ratio_ub_new_over_ub_base=0.90225744575802924
flags=UNCERTIFIED_ALPHA
""",
        "",
    ),
    ("degenerate_q", "bounds", "text"): (
        0,
        """\
command               bounds
z                     0
z_source              file
u                     0.5
alpha                 1.2599210498948732
alpha_kind            alpha_F
alpha_method          closed_form_diagonal
alpha_certified       true
grid_points_per_axis  0
refinement_steps      0
a_norm_root           1.2599210498948732
v                     0.5
v_inf                 0.5
t                     1
v_t                   0.5
argmax_value          0.125
D                     0.016889738044613578
lb_new                0.39685026299204945
ub_new                0.50000000000000044
lb_base               0.22124666701222104
ub_base               0.89685026299204995
sol_lb                0
sol_ub                0
rel_lb                undefined
rel_ub                undefined
flags                 DEGENERATE_Q
""",
        "",
    ),
    ("degenerate_q", "bounds", "machine"): (
        0,
        """\
command=bounds
z=0
z_source=file
u=0.5
alpha=1.2599210498948732
alpha_kind=alpha_F
alpha_method=closed_form_diagonal
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=1.2599210498948732
v=0.5
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.125
D=0.016889738044613578
lb_new=0.39685026299204945
ub_new=0.50000000000000044
lb_base=0.22124666701222104
ub_base=0.89685026299204995
sol_lb=0
sol_ub=0
rel_lb=undefined
rel_ub=undefined
flags=DEGENERATE_Q
""",
        "",
    ),
    ("degenerate_q", "rel-bounds", "text"): (
        1,
        "",
        "error: DEGENERATE_Q: (-q)+ is zero, relative bounds are undefined\n",
    ),
    ("degenerate_q", "rel-bounds", "machine"): (
        1,
        "",
        "error: DEGENERATE_Q: (-q)+ is zero, relative bounds are undefined\n",
    ),
    ("degenerate_q", "compare", "text"): (
        0,
        """\
command                    compare
z                          0
z_source                   file
u                          0.5
alpha                      1.2599210498948732
alpha_kind                 alpha_F
alpha_method               closed_form_diagonal
alpha_certified            true
grid_points_per_axis       0
refinement_steps           0
a_norm_root                1.2599210498948732
v                          0.5
v_inf                      0.5
t                          1
v_t                        0.5
argmax_value               0.125
D                          0.016889738044613578
lb_new                     0.39685026299204945
ub_new                     0.50000000000000044
lb_base                    0.22124666701222104
ub_base                    0.89685026299204995
sol_lb                     0
sol_ub                     0
rel_lb                     undefined
rel_ub                     undefined
ratio_ub_new_over_ub_base  0.55750666597555831
flags                      DEGENERATE_Q
""",
        "",
    ),
    ("degenerate_q", "compare", "machine"): (
        0,
        """\
command=compare
z=0
z_source=file
u=0.5
alpha=1.2599210498948732
alpha_kind=alpha_F
alpha_method=closed_form_diagonal
alpha_certified=true
grid_points_per_axis=0
refinement_steps=0
a_norm_root=1.2599210498948732
v=0.5
v_inf=0.5
t=1
v_t=0.5
argmax_value=0.125
D=0.016889738044613578
lb_new=0.39685026299204945
ub_new=0.50000000000000044
lb_base=0.22124666701222104
ub_base=0.89685026299204995
sol_lb=0
sol_ub=0
rel_lb=undefined
rel_ub=undefined
ratio_ub_new_over_ub_base=0.55750666597555831
flags=DEGENERATE_Q
""",
        "",
    ),
}


@pytest.mark.parametrize("key", sorted(TRANSCRIPTS), ids="-".join)
def test_report_subcommand_transcript_is_pinned(key, tmp_path, capsys):
    name, command, fmt = key
    path = tmp_path / f"{name}.yaml"
    path.write_text(FILES[name])
    code = main([command, "--file", str(path), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == TRANSCRIPTS[key]


# Every row is dominant, through entries that are not row-power; alpha prints
# the grid estimate and the certified bound below it.
DOMINANT = """\
order: 4
dim: 3
entries:
  - idx: [1, 1, 1, 1]
    val: 3.0
  - idx: [1, 2, 3, 1]
    val: 0.7
  - idx: [1, 3, 3, 2]
    val: -0.4
  - idx: [2, 2, 2, 2]
    val: 2.5
  - idx: [2, 1, 1, 3]
    val: -0.9
  - idx: [2, 3, 2, 1]
    val: 0.3
  - idx: [3, 3, 3, 3]
    val: 1.75
  - idx: [3, 1, 2, 2]
    val: 0.6
q: [1.0, -1.0, 0.5]
"""

# An order-2 P-matrix that is not dominant.
MATRIX = """\
order: 2
dim: 4
entries:
  - idx: [1, 1]
    val: 1.0
  - idx: [1, 3]
    val: 1.5
  - idx: [2, 2]
    val: 2.0
  - idx: [2, 4]
    val: -0.5
  - idx: [3, 3]
    val: 1.25
  - idx: [3, 1]
    val: -2.0
  - idx: [4, 4]
    val: 0.5
  - idx: [4, 2]
    val: 0.25
q: [1.0, -1.0, 0.5, -0.25]
"""

# n = 1 with a negative entry: not dominant, so F comes from the grid too.
SINGLE = "order: 4\ndim: 1\nentries:\n  - idx: [1, 1, 1, 1]\n    val: -2.0\nq: [-1.0]\n"

ALPHA_FILES = {"dominant": DOMINANT, "coupled": COUPLED, "matrix": MATRIX, "single": SINGLE}

# (file, kind, grid): the machine-format stdout.  Every run exits 0 with
# nothing on stderr, and the text format prints the same pairs, each key
# padded to the longest one and followed by two spaces.
ALPHA_TRANSCRIPTS = {
    ("dominant", "F", 2): """\
command=alpha
alpha=1.2576559573470547
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
alpha_lo=1.0476895531716472
""",
    ("dominant", "F", 3): """\
command=alpha
alpha=1.2050711320876151
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
alpha_lo=1.0476895531716472
""",
    ("dominant", "F", 7): """\
command=alpha
alpha=1.1071459823930252
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
alpha_lo=1.0476895531716472
""",
    ("dominant", "T", 2): """\
command=alpha
alpha=0.73522328547909099
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("dominant", "T", 3): """\
command=alpha
alpha=0.73522328547909099
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("dominant", "T", 7): """\
command=alpha
alpha=0.67444144287602281
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("coupled", "F", 2): """\
command=alpha
alpha=0.79370055624576674
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("coupled", "F", 3): """\
command=alpha
alpha=0.79370052620690801
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("coupled", "F", 7): """\
command=alpha
alpha=0.79370052598514573
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("coupled", "T", 2): """\
command=alpha
alpha=0.96655606387825632
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("coupled", "T", 3): """\
command=alpha
alpha=0.52912858495070458
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("coupled", "T", 7): """\
command=alpha
alpha=0.52912858476355706
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("matrix", "F", 2): """\
command=alpha
alpha=0.60801284611225137
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("matrix", "F", 3): """\
command=alpha
alpha=0.4133749414933845
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("matrix", "F", 7): """\
command=alpha
alpha=0.41337494147980275
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("matrix", "T", 2): """\
command=alpha
alpha=0.60801284611225137
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("matrix", "T", 3): """\
command=alpha
alpha=0.4133749414933845
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("matrix", "T", 7): """\
command=alpha
alpha=0.41337494147980275
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("single", "F", 2): """\
command=alpha
alpha=-1.2599210498948732
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("single", "F", 3): """\
command=alpha
alpha=-1.2599210498948732
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("single", "F", 7): """\
command=alpha
alpha=-1.2599210498948732
alpha_kind=alpha_F
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
    ("single", "T", 2): """\
command=alpha
alpha=-2
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=2
refinement_steps=50
""",
    ("single", "T", 3): """\
command=alpha
alpha=-2
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=3
refinement_steps=50
""",
    ("single", "T", 7): """\
command=alpha
alpha=-2
alpha_kind=alpha_T
alpha_method=grid_refined
alpha_certified=false
grid_points_per_axis=7
refinement_steps=50
""",
}


@pytest.mark.parametrize("fmt", ["text", "machine"])
@pytest.mark.parametrize("key", sorted(ALPHA_TRANSCRIPTS), ids=lambda k: "-".join(map(str, k)))
def test_alpha_transcript_is_pinned(key, fmt, tmp_path, capsys):
    name, kind, grid = key
    path = tmp_path / f"{name}.yaml"
    path.write_text(ALPHA_FILES[name])
    argv = ["alpha", "--file", str(path), "--kind", kind, "--grid", str(grid), "--format", fmt]
    code = main(argv)
    captured = capsys.readouterr()
    want = ALPHA_TRANSCRIPTS[key]
    if fmt == "text":
        pairs = [line.split("=", 1) for line in want.splitlines()]
        width = max(len(k) for k, _ in pairs)
        want = "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)
    assert (code, captured.out, captured.err) == (0, want, "")
