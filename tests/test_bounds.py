"""Golden and property tests for the residual and every bound formula."""

import math

import numpy as np
import pytest

import oracles
from families import manufactured_diagonal
from tcpbounds import (
    ALPHA_F,
    ALPHA_T,
    FLAG_CLAMPED_DISCRIMINANT,
    FLAG_DEGENERATE_Q,
    FLAG_DEGENERATE_Z,
    FLAG_EXACT_SOLUTION,
    FLAG_EXACT_SOLUTION_INCONSISTENT,
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
    relative_error_bounds,
    residual,
    signed_root,
    solve_diagonal,
    solve_enumerate,
    solution_norm_bounds,
    tensor_inf_norm,
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
        u_bad = u.copy()
        u_bad[1] = bad
        with pytest.raises(ValueError, match="u must be finite"):
            diagonal_bounds(tensor, q, z, u_bad)


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


def test_inconsistent_zero_component_raises():
    """v_t = 0 with u != z cannot happen for a real P-tensor; it must raise.

    The tensor here is singular in its first coordinate, so the situation is
    reachable only with a supplied (unverifiable) alpha certificate.
    """
    tensor = DenseTensor(2, 2, {(2, 2): 1.0})
    q = np.array([0.0, -1.0])
    z = np.array([0.0, 1.0])
    u = np.array([5.0, 1.0])
    alpha = forged_alpha(1.0)
    with pytest.raises(ExactSolutionInconsistentError):
        error_bounds_new(tensor, q, z, u, alpha)
    with pytest.raises(ExactSolutionInconsistentError):
        relative_error_bounds(tensor, q, z, u, alpha)
    rep = build_report(tensor, q, z, u, alpha)
    assert rep.lb_new is None and rep.ub_new is None and rep.D is None
    assert FLAG_EXACT_SOLUTION_INCONSISTENT in rep.flags
    assert FLAG_UNCERTIFIED_ALPHA in rep.flags
    assert (rep.rel_lb, rep.rel_ub) == (None, None)
    assert rep.lb_base == rep.ub_base == 0.0
    with pytest.raises(ValueError):
        compare_upper_bounds(rep)


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


def test_materially_negative_discriminant_is_an_error():
    # an inflated alpha certificate drives D far below zero and must be caught
    with pytest.raises(InvariantViolationError):
        error_bounds_new(TENSOR, Q, Z, U, forged_alpha(10.0))


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
    if FLAG_EXACT_SOLUTION_INCONSISTENT in rep.flags:
        with pytest.raises(ExactSolutionInconsistentError):
            error_bounds_new(tensor, q, z, u, alpha)
    else:
        assert error_bounds_new(tensor, q, z, u, alpha) == (rep.lb_new, rep.ub_new, rep.D)
    relative_error = None
    if FLAG_DEGENERATE_Q in rep.flags:
        relative_error = DegenerateQError
    elif FLAG_DEGENERATE_Z in rep.flags:
        relative_error = DegenerateZError
    elif FLAG_EXACT_SOLUTION_INCONSISTENT in rep.flags:
        relative_error = ExactSolutionInconsistentError
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
        # EXACT_SOLUTION_INCONSISTENT: v_t = 0 with u != z under a forged alpha
        (
            DenseTensor(2, 2, {(2, 2): 1.0}),
            np.array([0.0, -1.0]),
            np.array([0.0, 1.0]),
            np.array([5.0, 1.0]),
            forged_alpha(1.0),
        ),
    ]
    wanted = (FLAG_DEGENERATE_Q, FLAG_DEGENERATE_Z, FLAG_EXACT_SOLUTION_INCONSISTENT)
    for (tensor, q, z, u, alpha), flag in zip(cases, wanted):
        rep = assert_views_match_report(tensor, q, z, u, alpha)
        assert flag in rep.flags


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
