"""Golden and property tests for the residual and every bound formula."""

import math

import numpy as np
import pytest

import oracles
from families import manufactured_diagonal
from tcpbounds import (
    ALPHA_F,
    ALPHA_T,
    DOMINANCE_BOUND,
    FLAG_CLAMPED_DISCRIMINANT,
    FLAG_DEGENERATE_Q,
    FLAG_DEGENERATE_Z,
    FLAG_EXACT_SOLUTION,
    FLAG_NEGATIVE_ARGMAX,
    FLAG_UNCERTIFIED_ALPHA,
    GRID_REFINED,
    AlphaEstimate,
    BoundReport,
    DegenerateQError,
    DegenerateZError,
    DenseTensor,
    DimensionMismatchError,
    ExactSolutionInconsistentError,
    GridSpec,
    InvariantViolationError,
    NotPTensorError,
    ResidualData,
    SolutionVerificationError,
    TcpInstance,
    alpha_for,
    build_report,
    compare_upper_bounds,
    contract_m1,
    diagonal_alpha_estimate,
    diagonal_bounds,
    error_bounds_new,
    error_bounds_zheng,
    estimate_alpha,
    relative_error_bounds,
    residual,
    signed_root,
    solve_diagonal,
    solve_enumerate,
    solution_norm_bounds,
    tensor_inf_norm,
    verify_solution,
)
from families import random_sparse_tensor

# the order-4 instance every golden value below belongs to
TENSOR = DenseTensor.from_diagonal([1.0, 8.0], order=4)
Q = np.array([1.0, -1.0])
Z = np.array([0.0, 0.5])
U = np.array([0.5, 0.3])
ALPHA = diagonal_alpha_estimate(TENSOR)

# frozen expectations (scalar reference in oracles.py reproduces each one)
WANT_LB_NEW = 0.19098300562505255
WANT_UB_NEW = 1.3090169943749475
WANT_D = 1.25
WANT_LB_BASE = 0.16666666666666666
WANT_UB_BASE = 1.5
WANT_REL_LB = 0.19098300562505255
WANT_REL_UB = 2.618033988749895
WANT_RATIO = 0.872677996249965


def forged_alpha(value):
    return AlphaEstimate(value, ALPHA_F, GRID_REFINED, 0, 0, False)


def test_worked_instance_consistent_quantities():
    assert tensor_inf_norm(TENSOR) == 8.0
    assert tensor_inf_norm(TENSOR) ** (1.0 / 3.0) == 2.0
    assert ALPHA.value == 1.0
    np.testing.assert_array_equal(contract_m1(TENSOR, Z), [0.0, 1.0])
    np.testing.assert_array_equal(signed_root(contract_m1(TENSOR, Z) + Q, 3), [1.0, 0.0])
    data = residual(TENSOR, Q, Z, U)
    assert data.v_inf == pytest.approx(0.5, rel=1e-12)
    assert data.t == 1
    assert data.v_t == pytest.approx(0.5, rel=1e-12)


def test_worked_instance_residual_vector():
    data = residual(TENSOR, Q, Z, U)
    assert data.v[0] == pytest.approx(0.5, rel=1e-12)
    assert data.v[1] == pytest.approx(-0.4, rel=1e-12)
    assert data.argmax_value == pytest.approx(0.0625, rel=1e-12)
    assert data.flags == ()
    v_want, t_want, obj_want = oracles.residual(
        TENSOR.entries, 4, 2, list(Q), list(Z), list(U)
    )
    np.testing.assert_allclose(data.v, v_want, rtol=1e-12)
    assert data.t == t_want
    assert data.argmax_value == pytest.approx(obj_want, rel=1e-12)


def test_worked_instance_sharpened_interval():
    lb, ub, d = error_bounds_new(TENSOR, Q, Z, U, ALPHA)
    assert d == pytest.approx(WANT_D, rel=1e-6)
    assert ub == pytest.approx(WANT_UB_NEW, rel=1e-6)
    assert lb == pytest.approx(WANT_LB_NEW, rel=1e-6)
    lb_o, ub_o, d_o = oracles.interval_new(0.5, 0.5, 1.0, 2.0)
    assert (lb, ub, d) == pytest.approx((lb_o, ub_o, d_o), rel=1e-12)
    # true distance 0.5 sits inside the sharpened interval
    assert lb <= 0.5 <= ub


def test_discriminant_uses_squared_residual_component():
    """D = B^2 - 4 alpha v_t^2, not B^2 - 4 alpha v_t.

    Dropping the square (an easy transcription slip, and v_t = 0.5 here makes
    the two variants differ) would give D = 0.25, lb = 0.5, ub = 1.0 on this
    instance. Those values are rejected: the interval must come from the
    squared component, root product (v_inf (1+R))^2 ... 4 alpha v_t^2.
    """
    lb, ub, d = error_bounds_new(TENSOR, Q, Z, U, ALPHA)
    assert d == pytest.approx(1.25, rel=1e-6)
    assert abs(d - 0.25) > 0.9
    assert abs(lb - 0.5) > 0.3
    assert abs(ub - 1.0) > 0.3


def test_worked_instance_baseline_interval():
    lb, ub = error_bounds_zheng(TENSOR, Q, Z, U, ALPHA)
    assert lb == pytest.approx(WANT_LB_BASE, rel=1e-12)
    assert ub == pytest.approx(WANT_UB_BASE, rel=1e-12)
    assert round(lb, 4) == 0.1667
    assert lb <= 0.5 <= ub


def test_worked_instance_relative_bounds():
    rel_lb, rel_ub = relative_error_bounds(TENSOR, Q, Z, U, ALPHA)
    assert rel_lb == pytest.approx(WANT_REL_LB, rel=1e-12)
    assert rel_ub == pytest.approx(WANT_REL_UB, rel=1e-12)
    want = oracles.interval_relative(0.5, 0.5, 1.0, 2.0, list(Q), 4)
    assert (rel_lb, rel_ub) == pytest.approx(want, rel=1e-12)
    # actual relative error is 0.5 / 0.5 = 1
    assert rel_lb <= 1.0 <= rel_ub


def test_worked_instance_solution_norm_bounds():
    lo, hi = solution_norm_bounds(TENSOR, Q, ALPHA)
    assert (lo, hi) == (0.5, 1.0)
    assert lo <= float(np.max(np.abs(Z))) <= hi


def test_solution_norm_bounds_golden_second_instance():
    t = DenseTensor.from_diagonal([16.0, 81.0], order=4)
    alpha = diagonal_alpha_estimate(t)
    lo, hi = solution_norm_bounds(t, np.array([-2.0, -3.0]), alpha)
    assert lo == pytest.approx(0.33333333333333337, rel=1e-14)
    assert hi == pytest.approx(0.5723571212766659, rel=1e-14)
    want = oracles.interval_solution([-2.0, -3.0], alpha.value, 81.0 ** (1.0 / 3.0), 4)
    assert (lo, hi) == pytest.approx(want, rel=1e-12)
    assert lo <= 0.5 <= hi


def test_solution_norm_bounds_reject_zero_tensor():
    empty = DenseTensor(2, 1, {})
    with pytest.raises(InvariantViolationError):
        solution_norm_bounds(empty, np.array([-1.0]), forged_alpha(1.0))


def test_full_report_worked_instance():
    rep = diagonal_bounds(TENSOR, Q, Z, U)
    assert rep.lb_new == pytest.approx(WANT_LB_NEW, rel=1e-12)
    assert rep.ub_new == pytest.approx(WANT_UB_NEW, rel=1e-12)
    assert rep.D == pytest.approx(WANT_D, rel=1e-12)
    assert rep.lb_base == pytest.approx(WANT_LB_BASE, rel=1e-12)
    assert rep.ub_base == pytest.approx(WANT_UB_BASE, rel=1e-12)
    assert rep.rel_ub == pytest.approx(WANT_REL_UB, rel=1e-12)
    assert (rep.sol_lb, rep.sol_ub) == (0.5, 1.0)
    assert rep.a_norm_root == 2.0
    assert rep.alpha.certified
    assert rep.flags == ()
    assert compare_upper_bounds(rep) == pytest.approx(WANT_RATIO, rel=1e-12)


def test_diagonal_report_equals_generic_path():
    for tensor, q, z, u in manufactured_diagonal(60, seed=314):
        direct = diagonal_bounds(tensor, q, z, u)
        generic = build_report(tensor, q, z, u, diagonal_alpha_estimate(tensor))
        assert direct.lb_new == generic.lb_new
        assert direct.ub_new == generic.ub_new
        assert direct.D == generic.D
        assert direct.lb_base == generic.lb_base
        assert direct.ub_base == generic.ub_base
        assert (direct.sol_lb, direct.sol_ub) == (generic.sol_lb, generic.sol_ub)
        assert (direct.rel_lb, direct.rel_ub) == (generic.rel_lb, generic.rel_ub)
        assert direct.flags == generic.flags


def test_family_sharpness_and_containment():
    """Single-coordinate perturbations make both halves of the comparison hold."""
    for tensor, q, z, u in manufactured_diagonal(150, seed=99):
        rep = diagonal_bounds(tensor, q, z, u)
        err = float(np.max(np.abs(z - u)))
        slack_ub = 1e-12 * max(1.0, rep.ub_base)
        slack_lb = 1e-12 * max(1.0, rep.lb_base)
        assert rep.ub_new <= rep.ub_base + slack_ub
        assert rep.lb_new >= rep.lb_base - slack_lb
        assert rep.lb_new - 1e-9 <= err <= rep.ub_new + 1e-9
        assert rep.lb_base - 1e-9 <= err <= rep.ub_base + 1e-9
        assert rep.D >= 0.0
        assert 0.0 <= compare_upper_bounds(rep) <= 1.0 + 1e-12
        zn = float(np.max(np.abs(z)))
        assert rep.sol_lb - 1e-9 <= zn <= rep.sol_ub + 1e-9


def test_dense_perturbations_keep_only_the_proven_half():
    """With dense random u the lower bounds may cross; the rest still holds.

    The sharpened upper bound is provably at most the baseline one and both
    intervals must contain the true distance. The analogous lower-bound
    comparison is not a theorem: on this seed it fails on 19 of the 200
    instances, so the suite asserts it fails at least once and leaves it out
    of the guarantees.
    """
    crossings = 0
    for tensor, q, z, u in manufactured_diagonal(200, seed=777, single_coord=False):
        rep = diagonal_bounds(tensor, q, z, u)
        err = float(np.max(np.abs(z - u)))
        assert rep.ub_new <= rep.ub_base + 1e-12 * max(1.0, rep.ub_base)
        assert rep.lb_new - 1e-9 <= err <= rep.ub_new + 1e-9
        assert rep.lb_base - 1e-9 <= err <= rep.ub_base + 1e-9
        if rep.lb_new < rep.lb_base - 1e-12 * max(1.0, rep.lb_base):
            crossings += 1
    assert crossings >= 1


def test_residual_min_identity_bitwise():
    """v equals componentwise min(u, s) bit for bit, not just approximately."""
    checked = 0
    for tensor, q, z, u in manufactured_diagonal(120, seed=21):
        data = residual(tensor, q, z, u)
        d = u - z
        contracted = contract_m1(tensor, d)
        s = signed_root(contracted, 3) + signed_root(contract_m1(tensor, z) + q, 3)
        assert np.array_equal(data.v, np.minimum(u, s))
        # the max-form definition agrees up to cancellation in u - (u - s)
        alt = u - np.maximum(0.0, u - s)
        scale = float(np.max(np.abs(u - s))) + 1.0
        np.testing.assert_allclose(data.v, alt, atol=1e-12 * scale)
        checked += 1
    assert checked == 120


def test_residual_matches_oracle_on_zero_solution_instances():
    # z = 0 keeps the equilibrium term of s away from the root's vertical
    # tangent, so the scalar reference and the vectorized path agree tightly
    rng = np.random.default_rng(101)
    for _ in range(100):
        order = 2 * int(rng.integers(1, 3))
        dim = int(rng.integers(1, 5))
        tensor = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 10)))
        q = rng.uniform(0.0, 4.0, dim)
        z = np.zeros(dim)
        u = rng.uniform(-1.5, 1.5, dim)
        if np.array_equal(u, z):
            continue
        data = residual(tensor, q, z, u)
        v_want, t_want, obj_want = oracles.residual(
            tensor.entries, order, dim, list(q), list(z), list(u)
        )
        np.testing.assert_allclose(data.v, v_want, rtol=1e-10, atol=1e-10)
        assert data.t == t_want
        assert data.argmax_value == pytest.approx(obj_want, rel=1e-10, abs=1e-12)


def test_interval_ordering_over_synthetic_inputs():
    """The sharpened upper endpoint never beats the baseline one.

    Holds for every admissible (v_inf, v_t, alpha, R) since sqrt(D) <= B.
    The analogous lower-bound ordering needs |v_t| = ||v||_inf, so it is
    asserted only on those draws.
    """
    rng = np.random.default_rng(202)
    for _ in range(150):
        v_inf = float(rng.uniform(0.01, 3.0))
        v_t = float(rng.uniform(-1.0, 1.0)) * v_inf
        alpha = float(rng.uniform(0.1, 2.0))
        big_r = float(rng.uniform(alpha, 4.0))
        b = v_inf * (1.0 + big_r)
        if v_t == 0.0 or b * b - 4.0 * alpha * v_t * v_t < 0.0:
            continue
        lb_o, ub_o, _ = oracles.interval_new(v_inf, v_t, alpha, big_r)
        lb_b, ub_b = oracles.interval_base(v_inf, alpha, big_r)
        assert lb_o <= ub_o + 1e-12
        assert ub_o <= ub_b * (1.0 + 1e-12)
        # extremal residual component: both halves provable
        sign = 1.0 if v_t >= 0.0 else -1.0
        lb_x, ub_x, _ = oracles.interval_new(v_inf, sign * v_inf, alpha, big_r)
        assert ub_x <= ub_b * (1.0 + 1e-12)
        assert lb_x >= lb_b * (1.0 - 1e-12)


def test_exact_solution_short_circuit():
    data = residual(TENSOR, Q, Z, Z)
    assert data.flags == (FLAG_EXACT_SOLUTION,)
    assert data.v_inf == 0.0
    assert error_bounds_new(TENSOR, Q, Z, Z, ALPHA) == (0.0, 0.0, 0.0)
    assert error_bounds_zheng(TENSOR, Q, Z, Z, ALPHA) == (0.0, 0.0)
    rep = diagonal_bounds(TENSOR, Q, Z, Z)
    assert rep.lb_new == rep.ub_new == 0.0
    assert FLAG_EXACT_SOLUTION in rep.flags
    assert compare_upper_bounds(rep) == 0.0
    assert (rep.rel_lb, rep.rel_ub) == (0.0, 0.0)


def test_residual_rejects_non_solutions():
    with pytest.raises(SolutionVerificationError):
        residual(TENSOR, Q, np.array([0.0, 0.6]), U)


def test_non_finite_q_or_u_is_refused():
    # these gave finite bounds with empty flags (NaN q) or an all-NaN report (u)
    tensor = DenseTensor.from_diagonal([1.0, 8.0, 3.0], order=4)
    q = np.array([1.0, -1.0, -2.0])
    z = solve_diagonal(TcpInstance(tensor, q)).z
    u = z + np.array([0.0, 1e-3, 0.0])
    with pytest.raises(SolutionVerificationError):
        diagonal_bounds(tensor, np.array([np.nan, -1.0, -2.0]), z, u)
    for bad in (np.nan, np.inf, -np.inf):
        # solution_norm_bounds returned (nan, nan) and (inf, inf) here
        with pytest.raises(ValueError, match="q must be finite"):
            solution_norm_bounds(
                tensor, np.array([bad, -1.0, -2.0]), diagonal_alpha_estimate(tensor)
            )
        u_bad = u.copy()
        u_bad[1] = bad
        with pytest.raises(ValueError, match="u must be finite"):
            diagonal_bounds(tensor, q, z, u_bad)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_lower_bound_holds_for_a_solver_rounded_z():
    # z carries w_3 = -4.4e-16 and still verifies; the cube root of that
    # leftover makes lb_base = 2.54e-6 against a true error of 1e-9
    tensor = DenseTensor.from_diagonal([1.0, 8.0, 3.0], order=4)
    q = np.array([1.0, -1.0, -2.0])
    z = solve_diagonal(TcpInstance(tensor, q)).z
    u = z + np.array([0.0, 1e-9, 0.0])
    z_star = np.array([0.0, 0.5, (2.0 / 3.0) ** (1.0 / 3.0)])
    rep = diagonal_bounds(tensor, q, z, u)
    assert rep.lb_base <= float(np.max(np.abs(u - z_star)))


# The sol-bounds files of the cli-mix benchmark at seeds 3023, 88, 178, 191
# and 264, with the manufactured solution each file records.
GRID_ALPHA_MISSES = [
    (4, {(1, 1, 1, 1): 3.983719950535439, (1, 2, 2, 2): -2.3015149471949647,
         (2, 1, 1, 1): -1.000658982338513, (2, 2, 2, 2): 2.3277362051382315},
     [-0.3792783814238756, -0.9139067800841603], [0.7538700107887377, 0.8324165409722675]),
    (2, {(1, 1): 3.2503463334968767, (1, 2): -1.9064615733997738,
         (2, 1): -0.8183796289388306, (2, 2): 2.0740007805507954},
     [-0.8026719106766094, -0.9401009582732791], [0.6672458668579058, 0.7165674174957342]),
    (4, {(1, 1, 1, 1): 3.817999480650663, (1, 2, 2, 2): -2.3104827991983736,
         (2, 1, 1, 1): -1.4092216670397193, (2, 2, 2, 2): 2.038234477487868},
     [0.049345260815032654, -0.8497805487721116], [0.7438511856425809, 0.8885319137871477]),
    (4, {(1, 1, 1, 1): 3.8786902620403887, (1, 2, 2, 2): -1.1672557879902292,
         (2, 1, 1, 1): -1.5990697313248587, (2, 2, 2, 2): 3.3982602455459885},
     [-0.6191421961942105, -2.2150323279829154], [0.7455905794034796, 0.9460960295118774]),
    (4, {(1, 1, 1, 1): 2.601077194924815, (1, 2, 2, 2): -0.5462210192317496,
         (1, 3, 3, 3): -0.48046418881532016, (2, 1, 1, 1): -0.3339433894466026,
         (2, 2, 2, 2): 1.4515952961401466, (2, 3, 3, 3): -0.2651321828419799,
         (3, 1, 1, 1): 0.5866882005147988, (3, 2, 2, 2): -0.47617003974838806,
         (3, 3, 3, 3): 1.725849070384053},
     [1.3305802247799374, -0.6395915813270332, -0.6258390258370288],
     [0.0, 0.8111681230190129, 0.7988990816272308]),
]


@pytest.mark.parametrize(
    "order, entries, q, z_star",
    GRID_ALPHA_MISSES,
    ids=["cli-mix-3023", "cli-mix-88", "cli-mix-178", "cli-mix-191", "cli-mix-264"],
)
def test_solution_norm_upper_bound_holds_at_grid_seven(order, entries, q, z_star):
    # The grid-7 alpha is above the true one (1.18930 against about 1.11393
    # on the first), so sol_ub from it was 0.81597 against ||z*||_inf =
    # 0.83242, and 0.69954 against 0.71657 on the second.  Each tensor is
    # dominant, so alpha_for returns the certified dominance bound instead.
    tensor, q = DenseTensor(order, len(q), entries), np.array(q)
    assert verify_solution(TcpInstance(tensor, q), z_star).passed
    alpha = alpha_for(tensor, ALPHA_F, GridSpec(points_per_axis=7))
    assert alpha.method == DOMINANCE_BOUND and alpha.certified
    assert alpha.value <= estimate_alpha(tensor, ALPHA_F, GridSpec(points_per_axis=7)).value
    _, sol_ub = solution_norm_bounds(tensor, q, alpha)
    assert sol_ub >= max(z_star)


def test_residual_rejects_odd_order_and_bad_shapes():
    odd = DenseTensor.from_diagonal([2.0], order=3)
    with pytest.raises(ValueError):
        residual(odd, np.array([-1.0]), np.array([0.7937005259840998]), np.array([1.0]))
    with pytest.raises(DimensionMismatchError):
        residual(TENSOR, Q, Z, np.array([1.0, 2.0, 3.0]))


def test_negative_argmax_flag_and_invariant():
    # w = -z + 1 admits z = 0; the perturbation exposes the negative diagonal
    tensor = DenseTensor(2, 1, {(1, 1): -1.0})
    q = np.array([1.0])
    z = np.array([0.0])
    u = np.array([1.0])
    data = residual(tensor, q, z, u)
    assert FLAG_NEGATIVE_ARGMAX in data.flags
    assert data.argmax_value == -1.0
    with pytest.raises(InvariantViolationError):
        error_bounds_new(tensor, q, z, u, forged_alpha(1.0))
    with pytest.raises(InvariantViolationError):
        build_report(tensor, q, z, u, forged_alpha(1.0))


@pytest.mark.parametrize("u", [1e-6, 1e-170])
def test_negative_argmax_is_flagged_below_unit_scale(u):
    # the flag took argmax < -1e-12 max(1, ||objective||_inf), an absolute
    # floor below unit scale: u = 1e-6 gave argmax -1e-12 and u = 1e-170 gave
    # -0.0 (underflowed), neither flagged, and a forged alpha made a report
    tensor = DenseTensor(2, 1, {(1, 1): -1.0})
    q, z = np.array([1.0]), np.array([0.0])
    data = residual(tensor, q, z, (u,))
    assert FLAG_NEGATIVE_ARGMAX in data.flags
    assert data.argmax_value == -(u * u)
    with pytest.raises(InvariantViolationError, match="the tensor cannot be P"):
        build_report(tensor, q, z, (u,), forged_alpha(0.5))


def test_inconsistent_zero_component_raises():
    """v_t = 0 with u != z cannot happen for a real P-tensor; it must raise.

    The tensor here is singular in its first coordinate, so the situation is
    reachable only with a supplied (unverifiable) alpha certificate.  The
    report is refused before any bound is formed: it used to fall back to a
    baseline pair of zeros with the sharpened pair undefined.
    """
    tensor = DenseTensor(2, 2, {(2, 2): 1.0})
    q = np.array([0.0, -1.0])
    z = np.array([0.0, 1.0])
    u = np.array([5.0, 1.0])
    res = residual(tensor, q, z, u)
    assert (res.t, res.v_t, res.v_inf) == (1, 0.0, 0.0)
    with pytest.raises(
        ExactSolutionInconsistentError, match="EXACT_SOLUTION_INCONSISTENT: v_t = 0 .* t=1"
    ):
        build_report(tensor, q, z, u, forged_alpha(1.0))


def test_degenerate_q_paths():
    q = np.array([1.0, 0.0])
    z = np.zeros(2)
    u = np.array([0.4, 0.2])
    with pytest.raises(DegenerateQError):
        relative_error_bounds(TENSOR, q, z, u, ALPHA)
    rep = diagonal_bounds(TENSOR, q, z, u)
    assert FLAG_DEGENERATE_Q in rep.flags
    assert rep.rel_lb is None and rep.rel_ub is None
    assert (rep.sol_lb, rep.sol_ub) == (0.0, 0.0)
    assert rep.ub_new is not None


def test_degenerate_z_paths():
    # q is negative but only by less than the verification tolerance, so the
    # zero vector still verifies while (-q)+ stays positive
    tensor = DenseTensor.from_diagonal([1.0], order=4)
    q = np.array([-5e-9])
    z = np.array([0.0])
    u = np.array([0.5])
    with pytest.raises(DegenerateZError):
        relative_error_bounds(tensor, q, z, u, diagonal_alpha_estimate(tensor))
    rep = diagonal_bounds(tensor, q, z, u)
    assert FLAG_DEGENERATE_Z in rep.flags
    assert rep.rel_lb is None and rep.rel_ub is None


def test_analytic_tight_case():
    """diag 1, q = -1, u = 2: both endpoints collapse onto the true distance."""
    tensor = DenseTensor.from_diagonal([1.0], order=4)
    q = np.array([-1.0])
    z = np.array([1.0])
    u = np.array([2.0])
    rep = diagonal_bounds(tensor, q, z, u)
    assert rep.D == 0.0
    assert rep.lb_new == pytest.approx(1.0, abs=1e-10)
    assert rep.ub_new == pytest.approx(1.0, abs=1e-10)
    assert FLAG_CLAMPED_DISCRIMINANT not in rep.flags
    assert compare_upper_bounds(rep) == pytest.approx(0.5, rel=1e-12)


def test_discriminant_clamp_just_below_zero():
    # one ulp above a = 1 rounds the discriminant to a tiny negative number
    tensor = DenseTensor.from_diagonal([1.0000000000000004], order=4)
    a = 1.0000000000000004
    q = np.array([-a])
    z = np.array([1.0])
    u = np.array([2.0])
    rep = diagonal_bounds(tensor, q, z, u)
    assert FLAG_CLAMPED_DISCRIMINANT in rep.flags
    assert rep.D == 0.0
    assert rep.lb_new == pytest.approx(1.0, abs=1e-10)
    assert rep.ub_new == pytest.approx(1.0, abs=1e-10)


def test_alpha_above_the_norm_root_is_refused():
    # alpha = 10 against R = 8^(1/3) = 2 drove D far below zero; the alpha
    # check refuses it before the discriminant is formed
    with pytest.raises(InvariantViolationError, match=r"alpha\(F\) = 10.0 exceeds .* = 2.0"):
        error_bounds_new(TENSOR, Q, Z, U, forged_alpha(10.0))


@pytest.mark.parametrize("certified", [False, True])
def test_alpha_above_the_norm_root_is_refused_where_d_stays_nonnegative(certified):
    # alpha = 8 against R = 4 leaves D >= 0, so no discriminant check saw it:
    # the report came back with sol_lb = 0.25 > sol_ub = 0.125, flagged at most
    # UNCERTIFIED_ALPHA, and solution_norm_bounds returned the same pair
    tensor = DenseTensor.from_diagonal([1.0, 4.0], order=2)
    q, z, u = (-1.0, -1.0), (1.0, 0.25), (1.5, 0.0)
    alpha = AlphaEstimate(8.0, ALPHA_F, GRID_REFINED, 0, 0, certified)
    with pytest.raises(InvariantViolationError, match=r"alpha\(F\) = 8.0 exceeds .* = 4.0"):
        build_report(tensor, q, z, u, alpha)
    with pytest.raises(InvariantViolationError, match=r"alpha\(F\) = 8.0 exceeds .* = 4.0"):
        solution_norm_bounds(tensor, q, alpha)
    # alpha = R is accepted, and every pair is ordered
    rep = build_report(tensor, q, z, u, AlphaEstimate(4.0, ALPHA_F, GRID_REFINED, 0, 0, certified))
    assert rep.lb_new <= rep.ub_new and rep.sol_lb <= rep.sol_ub and rep.rel_lb <= rep.rel_ub


def test_alpha_gatekeeping():
    with pytest.raises(NotPTensorError):
        error_bounds_new(TENSOR, Q, Z, U, forged_alpha(0.0))
    with pytest.raises(NotPTensorError):
        error_bounds_zheng(TENSOR, Q, Z, U, forged_alpha(-2.0))
    wrong_kind = AlphaEstimate(1.0, ALPHA_T, GRID_REFINED, 0, 0, False)
    with pytest.raises(ValueError):
        error_bounds_new(TENSOR, Q, Z, U, wrong_kind)


def assert_views_match_report(tensor, q, z, u, alpha):
    """Each single-purpose bound returns exactly the report's fields, or
    raises the error named by the flag that leaves them undefined."""
    rep = build_report(tensor, q, z, u, alpha)
    assert error_bounds_zheng(tensor, q, z, u, alpha) == (rep.lb_base, rep.ub_base)
    assert solution_norm_bounds(tensor, q, alpha) == (rep.sol_lb, rep.sol_ub)
    assert error_bounds_new(tensor, q, z, u, alpha) == (rep.lb_new, rep.ub_new, rep.D)
    ratio = rep.ub_new / rep.ub_base if rep.ub_base else 0.0
    assert compare_upper_bounds(rep) == ratio
    relative_error = None
    if FLAG_DEGENERATE_Q in rep.flags:
        relative_error = DegenerateQError
    elif FLAG_DEGENERATE_Z in rep.flags:
        relative_error = DegenerateZError
    if relative_error is None:
        assert relative_error_bounds(tensor, q, z, u, alpha) == (rep.rel_lb, rep.rel_ub)
    else:
        with pytest.raises(relative_error):
            relative_error_bounds(tensor, q, z, u, alpha)
    return rep


def test_views_equal_report_on_manufactured_diagonal():
    for tensor, q, z, u in manufactured_diagonal(40, seed=55, single_coord=False):
        assert_views_match_report(tensor, q, z, u, diagonal_alpha_estimate(tensor))


def test_views_equal_report_on_solver_produced_z():
    rng = np.random.default_rng(808)
    checked = 0
    for _ in range(24):
        order = int(rng.choice([2, 4]))
        dim = int(rng.integers(1, 4))
        # a random sparse part under a dominant positive diagonal keeps alpha > 0
        noise = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 6)), -0.4, 0.4)
        entries = dict(noise.entries)
        for i in range(1, dim + 1):
            entries[(i,) * order] = entries.get((i,) * order, 0.0) + 3.0
        tensor = DenseTensor(order, dim, entries)
        q = rng.uniform(-2.0, 2.0, dim)
        certs = solve_enumerate(TcpInstance(tensor, q))
        if not certs:
            continue
        alpha = alpha_for(tensor, grid=GridSpec(points_per_axis=5, refinement_steps=5))
        z = certs[0].z
        for scale in (1e-6, 1e-2, 0.5):
            u = z + scale * rng.uniform(-1.0, 1.0, dim)
            assert_views_match_report(tensor, q, z, u, alpha)
        assert_views_match_report(tensor, q, z, z.copy(), alpha)
        checked += 1
    assert checked >= 12


def test_views_raise_on_undefined_report_fields():
    cases = [
        # DEGENERATE_Q: (-q)+ = 0
        (TENSOR, np.array([1.0, 0.0]), np.zeros(2), np.array([0.4, 0.2]), ALPHA),
        # DEGENERATE_Z: q negative within the tolerance, so z = 0 verifies
        (
            DenseTensor.from_diagonal([1.0], order=4),
            np.array([-5e-9]),
            np.array([0.0]),
            np.array([0.5]),
            forged_alpha(1.0),
        ),
    ]
    wanted = (FLAG_DEGENERATE_Q, FLAG_DEGENERATE_Z)
    for (tensor, q, z, u, alpha), flag in zip(cases, wanted):
        rep = assert_views_match_report(tensor, q, z, u, alpha)
        assert flag in rep.flags
    # v_t = 0 with u != z under a forged alpha: no report is built, so every
    # view raises the report's refusal
    inconsistent = (
        DenseTensor(2, 2, {(2, 2): 1.0}),
        np.array([0.0, -1.0]),
        np.array([0.0, 1.0]),
        np.array([5.0, 1.0]),
        forged_alpha(1.0),
    )
    for view in (build_report, error_bounds_new, error_bounds_zheng, relative_error_bounds):
        with pytest.raises(ExactSolutionInconsistentError):
            view(*inconsistent)


def test_baseline_view_refuses_overestimated_alpha():
    # as a view of the report, the baseline pair is refused together with the
    # sharpened one instead of being returned from an impossible alpha
    with pytest.raises(InvariantViolationError):
        error_bounds_zheng(TENSOR, Q, Z, U, forged_alpha(10.0))


def test_uncertified_alpha_is_flagged():
    rep = build_report(TENSOR, Q, Z, U, forged_alpha(1.0))
    assert FLAG_UNCERTIFIED_ALPHA in rep.flags
    assert rep.lb_new == pytest.approx(WANT_LB_NEW, rel=1e-12)


def test_report_invariant_guards():
    data = ResidualData(np.array([1.0]), 1.0, 1, 1.0, 1.0)
    base = dict(
        residual=data,
        alpha=forged_alpha(1.0),
        a_norm_root=1.0,
        sol_lb=0.0,
        sol_ub=1.0,
        rel_lb=None,
        rel_ub=None,
    )
    with pytest.raises(InvariantViolationError):
        BoundReport(lb_new=2.0, ub_new=1.0, lb_base=0.1, ub_base=3.0, D=0.0, **base)
    with pytest.raises(InvariantViolationError):
        BoundReport(lb_new=0.1, ub_new=1.0, lb_base=0.1, ub_base=3.0, D=-1.0, **base)
    with pytest.raises(InvariantViolationError):
        BoundReport(lb_new=0.1, ub_new=4.0, lb_base=0.1, ub_base=3.0, D=0.0, **base)


@pytest.mark.parametrize("ub_base", [0.0, 1e-170, 3.0])
def test_sharpened_upper_bound_above_the_baseline_is_refused_at_every_scale(ub_base):
    # ub_new <= ub_base up to a relative round-off: the report used to allow
    # an absolute 1e-12 too, which let ub_new = 1.5 ub_base through at 1e-170
    base = dict(
        lb_new=0.0, lb_base=0.0, ub_base=ub_base, D=0.0,
        residual=ResidualData(np.array([1.0]), 1.0, 1, 1.0, 1.0),
        alpha=forged_alpha(1.0), a_norm_root=1.0, sol_lb=0.0, sol_ub=1.0,
        rel_lb=None, rel_ub=None,
    )
    BoundReport(ub_new=ub_base * (1.0 + 1e-13), **base)
    with pytest.raises(InvariantViolationError, match="exceeds baseline"):
        BoundReport(ub_new=max(1.5 * ub_base, 1e-300), **base)


def test_lower_bound_above_the_upper_is_refused_at_every_scale():
    # lb <= ub used an absolute 1e-12 slack, which let lb_new = 2 ub_new
    # through at 1e-170
    base = dict(
        D=0.0, residual=ResidualData(np.array([1.0]), 1.0, 1, 1.0, 1.0),
        alpha=forged_alpha(1.0), a_norm_root=1.0, sol_lb=0.0, sol_ub=1.0,
        rel_lb=None, rel_ub=None,
    )
    with pytest.raises(InvariantViolationError, match="lower bound"):
        BoundReport(lb_new=2e-170, ub_new=1e-170, lb_base=0.0, ub_base=1e-170, **base)
    with pytest.raises(InvariantViolationError, match="baseline lower bound"):
        BoundReport(lb_new=0.0, ub_new=1e-170, lb_base=2e-170, ub_base=1e-170, **base)
    for ub in (0.0, 1e-170, 3.0):
        lb = ub * (1.0 + 1e-13)
        BoundReport(lb_new=lb, ub_new=ub, lb_base=lb, ub_base=ub, **base)


@pytest.mark.parametrize(
    "fields, message",
    [
        (dict(a_norm_root=0.5), r"alpha\(F\) = 1.0 exceeds"),
        (dict(sol_lb=2.0, sol_ub=1.0), "solution-norm lower bound"),
        (dict(rel_lb=3.0, rel_ub=1.0), "relative lower bound"),
    ],
    ids=["alpha-above-the-norm-root", "sol", "rel"],
)
def test_report_refuses_an_alpha_above_the_norm_root_and_inverted_pairs(fields, message):
    # the report checked only the sharpened and baseline pairs, so a report
    # built directly with any one of these was accepted
    base = dict(
        lb_new=0.1, ub_new=1.0, lb_base=0.1, ub_base=3.0, D=0.0,
        residual=ResidualData(np.array([1.0]), 1.0, 1, 1.0, 1.0),
        alpha=forged_alpha(1.0), a_norm_root=1.0, sol_lb=0.0, sol_ub=1.0,
        rel_lb=0.1, rel_ub=1.0,
    )
    BoundReport(**base)
    with pytest.raises(InvariantViolationError, match=message):
        BoundReport(**{**base, **fields})


def test_underflowing_objective_picks_t_from_the_scaled_step():
    # (u - z)_i (A (u - z)^3)_i = (0, 3e-400) underflowed to (0, 0): t was 1,
    # where v_t = 0, and the report fell back to EXACT_SOLUTION_INCONSISTENT
    tensor = DenseTensor.from_diagonal([2.0, 3.0], order=4)
    q, z, u = (1.0, 1.0), (0.0, 0.0), (0.0, -1e-100)
    res = residual(tensor, q, z, u)
    assert (res.t, res.v_t, res.argmax_value, res.flags) == (2, -1e-100, 0.0, ())
    rep = build_report(tensor, q, z, u, alpha_for(tensor))
    assert rep.flags == (FLAG_DEGENERATE_Q,)
    assert rep.lb_new <= 1e-100 <= rep.ub_new <= rep.ub_base


def test_contraction_underflowing_at_t_is_refused():
    # z verifies exactly, but A (u - z)^3 = (2^-1095, 0) underflows to 0, so
    # v_t = 0 at u != z: the report fell back to ub_base = 0 against an error
    # of 2^-365, and compare_upper_bounds raised ValueError
    tensor = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    q = np.array([-(2.0**-996), -8.0])
    z = np.array([2.0**-332, 1.0])
    u = z + np.array([2.0**-365, 0.0])
    assert verify_solution(TcpInstance(tensor, q), z).max_violation == 0.0
    res = residual(tensor, q, z, u)
    assert (res.t, res.v_t, res.v_inf) == (1, 0.0, 0.0)
    alpha = diagonal_alpha_estimate(tensor)
    assert alpha.certified
    with pytest.raises(ExactSolutionInconsistentError, match="t=1"):
        diagonal_bounds(tensor, q, z, u)
    for view in (build_report, error_bounds_new, error_bounds_zheng, relative_error_bounds):
        with pytest.raises(ExactSolutionInconsistentError):
            view(tensor, q, z, u, alpha)


@pytest.mark.parametrize(
    "view, args",
    [
        (diagonal_bounds, (TENSOR, Q, Z, U)),
        (error_bounds_new, (TENSOR, Q, Z, U, ALPHA)),
        (error_bounds_zheng, (TENSOR, Q, Z, U, ALPHA)),
        (relative_error_bounds, (TENSOR, Q, Z, U, ALPHA)),
    ],
)
def test_views_take_no_tol(view, args):
    # the views verify z at build_report's default; only the report takes tol
    view(*args)
    with pytest.raises(TypeError):
        view(*args, tol=1e-8)


def test_infinite_tol_is_refused_by_the_report():
    # an infinite tol used to verify z = (5, 5), which does not solve the
    # problem, and the report came back with no flag
    z = np.array([5.0, 5.0])
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        residual(TENSOR, Q, z, U, tol=math.inf)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        build_report(TENSOR, Q, z, U, ALPHA, tol=math.inf)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "q", [[0.0, -0.0, 2.0], [-0.0, 0.0, 2.0], [3.0, 0.0, 0.0], [-0.0, -0.0, 1.0]]
)
def test_signed_zero_q_gives_positive_zero_solution_norm_bounds(order, q):
    # (-q)+ has only zeros; a -0.0 maximum must not reach sol_lb or sol_ub
    tensor = DenseTensor.from_diagonal([1.0, 2.0, 4.0], order=order)
    q = np.array(q)
    alpha = diagonal_alpha_estimate(tensor)
    rep = diagonal_bounds(tensor, q, np.zeros(3), np.array([0.5, 0.25, 0.125]))
    assert FLAG_DEGENERATE_Q in rep.flags
    for value in (rep.sol_lb, rep.sol_ub, *solution_norm_bounds(tensor, q, alpha)):
        assert value == 0.0 and not math.copysign(1.0, value) < 0.0


def test_overflowing_norm_is_refused():
    # every entry is finite but ||A||_inf = 1e308 + 1e308 overflows: the
    # report used to carry lb_new = nan and ub_new = ub_base = inf with only
    # UNCERTIFIED_ALPHA among its flags; the tensor now refuses it when it is
    # built, so neither build_report nor solution_norm_bounds can be handed it
    with pytest.raises(ValueError, match=r"\|\|A\|\|_inf overflows to inf"):
        DenseTensor(2, 2, {(1, 1): 1e308, (1, 2): 1e308, (2, 2): 1.0})


@pytest.mark.parametrize(
    "name",
    ["lb_new", "ub_new", "lb_base", "ub_base", "D", "a_norm_root", "sol_lb", "sol_ub",
     "rel_lb", "rel_ub"],
)
def test_report_refuses_a_nan_field(name):
    # NaN compares false with everything, so the ordering guards let it pass
    fields = dict(
        lb_new=0.1, ub_new=1.0, lb_base=0.1, ub_base=3.0, D=0.0,
        residual=ResidualData(np.array([1.0]), 1.0, 1, 1.0, 1.0),
        alpha=forged_alpha(1.0), a_norm_root=1.0, sol_lb=0.0, sol_ub=1.0,
        rel_lb=0.1, rel_ub=1.0,
    )
    BoundReport(**fields)
    fields[name] = math.nan
    with pytest.raises(InvariantViolationError, match=f"{name} is NaN"):
        BoundReport(**fields)


def test_overflowing_discriminant_is_refused():
    # A(u-z) and the residual are finite, but b = ||v||_inf (1 + ||A||_inf) =
    # 1e160 squares to inf: D was inf, and the report carried lb_new = -inf
    # and ub_new = inf with no flag
    tensor = DenseTensor(2, 2, {(1, 1): 1e-300, (2, 2): 1e-300})
    with pytest.raises(ValueError, match=r"D = b\^2 - 4 alpha v_t\^2 overflows"):
        diagonal_bounds(tensor, (1.0, 1.0), (0.0, 0.0), (-1e160, -1e160))


@pytest.mark.parametrize(
    "tensor, q, z",
    [
        (DenseTensor.from_diagonal([1.0, 8.0], order=4), (1.0, -1.0), (0.0, 0.5)),
        (DenseTensor(2, 2, {(1, 1): 2.0, (1, 2): 0.5, (2, 2): 1.0}), (1.0, -1.0),
         (0.0, 1.0)),
    ],
)
@pytest.mark.parametrize("u", [(1e160, 1e160), (-1e200, 0.0), (1.7e308, -1.7e308)])
def test_overflowing_contraction_is_refused_before_contracting(tensor, q, z, u):
    # contract_m1 (order 4) and d * contracted (order 2) used to overflow
    # with a numpy warning before the discriminant refusal
    with pytest.raises(ValueError, match=r"A \(u - z\)\^\{m-1\} overflows"):
        residual(tensor, q, z, u)
    with pytest.raises(ValueError, match=r"A \(u - z\)\^\{m-1\} overflows"):
        build_report(tensor, q, z, u, forged_alpha(1.0))


def test_u_whose_difference_from_z_overflows_is_refused():
    # u - z itself overflows: ||u - z||_inf is inf before any contraction
    tensor = DenseTensor.from_diagonal([1e-10], order=2)
    z = np.array([1e308])
    q = -contract_m1(tensor, z)
    with pytest.raises(ValueError, match=r"overflows \(\|\|u - z\|\|_inf = inf"):
        residual(tensor, q, z, (-1e308,))


def test_overflowing_root_sum_is_refused_before_contracting():
    # ||A|| ||u - z||^2 = 1e308 is finite, but root(A (u - z)) + root(w) =
    # 1e308 + 1e308 overflowed in numpy with a warning before any refusal
    tensor = DenseTensor.from_diagonal([1e308, 1.0], order=2)
    with pytest.raises(ValueError, match=r"\+ root\(A z\^\{m-1\} \+ q\) overflows"):
        diagonal_bounds(tensor, (1e308, -1.0), (0.0, 1.0), (1.0, 1.0))


def test_residual_selection_does_not_overflow():
    # u - s = -1e308 - 1.5e308 overflowed in numpy; u > s selects the same
    # component without forming the difference
    tensor = DenseTensor.from_diagonal([1e-310], order=2)
    res = residual(tensor, (1.5e308,), (0.0,), (-1e308,))
    assert res.v.tolist() == [-1e308] and res.v_t == -1e308


def test_tiny_residual_keeps_the_interval_around_the_error():
    # b = 3e-170 squared to 0 and so did 4 alpha v_t^2: D was 0, and the
    # report carried lb_new = ub_new = 1.5e-170, no flag, for an error of 1e-170
    rep = build_report(TENSOR, Q, Z, (1e-170, 0.5), alpha_for(TENSOR))
    assert rep.flags == ()
    assert rep.lb_new <= 1e-170 <= rep.ub_new <= rep.ub_base
    assert rep.lb_new == pytest.approx((3 - math.sqrt(5)) / 2 * 1e-170, rel=1e-15)
    assert rep.ub_new == pytest.approx((3 + math.sqrt(5)) / 2 * 1e-170, rel=1e-15)
    # D itself, 5e-340, is below the float range
    assert rep.D == 0.0


@pytest.mark.parametrize("order", [2, 4])
def test_bounds_hold_at_every_distance_down_to_1e_300(order):
    # z = 0 solves exactly when q > 0, so the error is ||u||_inf to the bit.
    # Below about 1e-154 b^2 underflowed: lb_new rose up to 16x above the
    # error, ub_new fell below it, and ub_new could pass ub_base.
    rng = np.random.default_rng(order)
    for n in (1, 2, 3):
        tensor = DenseTensor.from_diagonal(rng.uniform(0.3, 10.0, n), order=order)
        q = rng.uniform(0.1, 5.0, n)
        alpha = alpha_for(tensor)
        for exponent in np.linspace(-300.0, -1.0, 200):
            u = rng.uniform(-1.0, 1.0, n) * 10.0**exponent
            u[rng.integers(n)] = -(10.0**exponent)
            err = max(map(abs, u.tolist()))
            rep = build_report(tensor, q, np.zeros(n), u, alpha)
            where = (n, exponent)
            assert rep.lb_new <= err * (1.0 + 1e-12), where
            assert err <= rep.ub_new * (1.0 + 1e-12), where
            assert rep.ub_new <= rep.ub_base, where


@pytest.fixture
def verify_calls(monkeypatch):
    """The ``tol`` of each verification the bound reports make, in call order."""
    import tcpbounds.bounds as bounds_module

    calls = []
    verify = bounds_module.verify_solution

    def counting(inst, z, tol):
        calls.append(tol)
        return verify(inst, z, tol)

    monkeypatch.setattr(bounds_module, "verify_solution", counting)
    return calls


def _worked_tensor():
    # a tensor of its own, so no other test's report has verified against it
    return DenseTensor.from_diagonal([1.0, 8.0], order=4)


def test_reports_on_one_solution_verify_it_once(verify_calls):
    tensor = _worked_tensor()
    report = build_report(tensor, Q, Z, U, ALPHA)
    # the key is taken after conversion, so a list q with the same bits hits
    again = build_report(tensor, Q.tolist(), Z.copy(), U, ALPHA)
    residual(tensor, Q, Z, np.array([0.4, 0.6]))
    diagonal_bounds(tensor, Q, Z, U)
    error_bounds_zheng(tensor, Q, Z, U, ALPHA)
    relative_error_bounds(tensor, Q, Z, U, ALPHA)
    assert verify_calls == [1e-8]
    for rep in (report, again):
        assert (rep.lb_new, rep.ub_new, rep.D) == (WANT_LB_NEW, WANT_UB_NEW, WANT_D)
        assert (rep.lb_base, rep.ub_base) == (WANT_LB_BASE, WANT_UB_BASE)
        assert (rep.rel_lb, rep.rel_ub) == (WANT_REL_LB, WANT_REL_UB)


def _one_bit_changed(change, tensor):
    q, z, tol = Q.copy(), Z.copy(), 1e-8
    if change == "q":
        q[0] = np.nextafter(1.0, 2.0)
    elif change == "z":
        z[1] = np.nextafter(0.5, 1.0)
    elif change == "signed-zero-z":
        z[0] = -0.0
    elif change == "tol":
        tol = 1e-9
    else:
        tensor = _worked_tensor()
    return tensor, q, z, tol


@pytest.mark.parametrize("change", ["q", "z", "signed-zero-z", "tol", "tensor"])
def test_one_changed_bit_verifies_again(verify_calls, change):
    tensor = _worked_tensor()
    build_report(tensor, Q, Z, U, ALPHA)
    other, q, z, tol = _one_bit_changed(change, tensor)
    build_report(other, q, z, U, ALPHA, tol)
    assert verify_calls == [1e-8, tol]
    build_report(other, q, z, U, ALPHA, tol)
    assert len(verify_calls) == 2


def test_failing_z_is_refused_on_every_call(verify_calls):
    tensor = _worked_tensor()
    z = np.array([5.0, 5.0])
    messages = []
    for _ in range(3):
        with pytest.raises(SolutionVerificationError) as err:
            build_report(tensor, Q, z, U, ALPHA)
        messages.append(str(err.value))
    assert messages == [messages[0]] * 3
    assert verify_calls == [1e-8]
    # a passing z after it is verified and reported as before
    assert build_report(tensor, Q, Z, U, ALPHA).lb_new == WANT_LB_NEW


# [[0.0, 0.5]] has Z's bytes, but it is 2-d
@pytest.mark.parametrize("z", [[0.0, 0.5, 0.0], [0.0], [[0.0, 0.5]]])
def test_wrong_length_z_is_refused_after_a_report(z):
    tensor = _worked_tensor()
    build_report(tensor, Q, Z, U, ALPHA)
    with pytest.raises(DimensionMismatchError):
        build_report(tensor, Q, np.array(z), U, ALPHA)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_bad_tol_is_refused_after_a_report(tol):
    tensor = _worked_tensor()
    build_report(tensor, Q, Z, U, ALPHA)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        build_report(tensor, Q, Z, U, ALPHA, tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        residual(tensor, Q, Z, U, tol=tol)
