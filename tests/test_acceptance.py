"""Acceptance suite: the eight release criteria, one test per criterion.

Each test ends by printing a single ACCEPTANCE PASS line (visible under
``pytest -s`` or in captured output); a failing criterion surfaces as the
usual FAILED line for that test instead.
"""

import numpy as np
import pytest

import oracles
from families import manufactured_diagonal, random_diagonal_instances, random_sparse_tensor
from tcpbounds import (
    DenseTensor,
    TcpInstance,
    apply_T,
    build_report,
    contract_full,
    contract_m1,
    diagonal_alpha_estimate,
    diagonal_bounds,
    error_bounds_new,
    error_bounds_zheng,
    estimate_alpha,
    residual,
    signed_root,
    solve_diagonal,
    solve_enumerate,
    tensor_inf_norm,
)

TENSOR = DenseTensor.from_diagonal([1.0, 8.0], order=4)
Q = np.array([1.0, -1.0])
U = np.array([0.5, 0.3])


@pytest.fixture(scope="module")
def suite500():
    """500 positive-diagonal order-4 instances, dims 1 through 3, with
    manufactured exact solutions and single-coordinate test points."""
    rows = []
    for tensor, q, z, u in manufactured_diagonal(500, seed=20260819):
        rows.append((tensor, q, z, u, diagonal_bounds(tensor, q, z, u)))
    assert len(rows) == 500
    dims = {t.dim for t, _, _, _, _ in rows}
    assert dims == {1, 2, 3}
    return rows


def test_criterion_1_worked_instance_consistent_quantities():
    assert tensor_inf_norm(TENSOR) == pytest.approx(8.0, rel=1e-4)
    assert tensor_inf_norm(TENSOR) ** (1.0 / 3.0) == pytest.approx(2.0, rel=1e-4)
    assert diagonal_alpha_estimate(TENSOR).value == pytest.approx(1.0, rel=1e-4)

    certs = solve_enumerate(TcpInstance(TENSOR, Q))
    assert len(certs) == 1
    z = certs[0].z
    assert z[0] == pytest.approx(0.0, abs=1e-4)
    assert z[1] == pytest.approx(0.5, rel=1e-4)

    contracted = contract_m1(TENSOR, z)
    assert contracted[0] == pytest.approx(0.0, abs=1e-4)
    assert contracted[1] == pytest.approx(1.0, rel=1e-4)
    w_root = signed_root(contracted + Q, 3)
    assert w_root[0] == pytest.approx(1.0, rel=1e-4)
    assert w_root[1] == pytest.approx(0.0, abs=1e-4)

    data = residual(TENSOR, Q, z, U)
    assert data.v_inf == pytest.approx(0.5, rel=1e-4)
    assert data.t == 1
    assert data.v_t == pytest.approx(0.5, rel=1e-4)

    alpha = diagonal_alpha_estimate(TENSOR)
    lb_base, ub_base = error_bounds_zheng(TENSOR, Q, z, U, alpha)
    assert ub_base == pytest.approx(1.5, rel=1e-4)
    assert round(lb_base, 4) == 0.1667
    print(
        "ACCEPTANCE PASS criterion 1: worked-instance consistent quantities "
        "reproduced to 1e-4"
    )


def test_criterion_2_worked_instance_audited_interval():
    """The interval comes from the squared residual component.

    With v_t = 0.5 the squared form gives D = 1.25 and endpoints
    (3 -+ sqrt(5))/2; an unsquared transcription would give 0.25, 0.5, 1.0
    instead, and is rejected explicitly below.
    """
    z = np.array([0.0, 0.5])
    alpha = diagonal_alpha_estimate(TENSOR)
    lb, ub, d = error_bounds_new(TENSOR, Q, z, U, alpha)
    assert d == pytest.approx(1.25, rel=1e-6)
    assert ub == pytest.approx(1.3090169943749475, rel=1e-6)
    assert lb == pytest.approx(0.19098300562505255, rel=1e-6)
    assert (lb, ub, d) == pytest.approx(
        oracles.interval_new(0.5, 0.5, 1.0, 2.0), rel=1e-12
    )
    # the unsquared variant is a different interval and must not appear
    assert abs(d - 0.25) > 0.9
    assert abs(lb - 0.5) > 0.3
    assert abs(ub - 1.0) > 0.3
    # true distance ||z - u||_inf = 0.5 lies inside both intervals
    lb_base, ub_base = error_bounds_zheng(TENSOR, Q, z, U, alpha)
    err = float(np.max(np.abs(z - U)))
    assert err == 0.5
    assert lb <= err <= ub
    assert lb_base <= err <= ub_base
    print(
        "ACCEPTANCE PASS criterion 2: audited interval D=1.25, "
        "ub=1.30902, lb=0.19098 at 1e-6 and both intervals contain 0.5"
    )


def test_criterion_3_sharpness_on_500_instances(suite500):
    for tensor, q, z, u, rep in suite500:
        assert rep.ub_new <= rep.ub_base + 1e-12 * max(1.0, rep.ub_base)
        assert rep.lb_new >= rep.lb_base - 1e-12 * max(1.0, rep.lb_base)
    print(
        "ACCEPTANCE PASS criterion 3: ub_new <= ub_base and lb_new >= lb_base "
        "on all 500 seeded instances (1e-12 relative)"
    )


def test_criterion_4_sandwich_on_500_instances(suite500):
    for tensor, q, z, u, rep in suite500:
        err = float(np.max(np.abs(z - u)))
        assert rep.lb_new - 1e-9 <= err <= rep.ub_new + 1e-9
        assert rep.lb_base - 1e-9 <= err <= rep.ub_base + 1e-9
        zn = float(np.max(np.abs(z)))
        assert rep.sol_lb - 1e-9 <= zn <= rep.sol_ub + 1e-9
    print(
        "ACCEPTANCE PASS criterion 4: both bound pairs contain the true "
        "distance and the solution-norm bounds contain ||z||_inf on all 500"
    )


def test_criterion_5_solver_and_report_path_equivalence(suite500):
    for inst in random_diagonal_instances(200, seed=4242):
        zd = solve_diagonal(inst).z
        certs = solve_enumerate(inst)
        assert certs, "enumeration missed the diagonal solution entirely"
        best = min(float(np.max(np.abs(c.z - zd))) for c in certs)
        assert best <= 1e-8
    for tensor, q, z, u, rep in suite500[:100]:
        generic = build_report(tensor, q, z, u, diagonal_alpha_estimate(tensor))
        assert generic.lb_new == pytest.approx(rep.lb_new, rel=1e-12)
        assert generic.ub_new == pytest.approx(rep.ub_new, rel=1e-12)
        assert generic.D == pytest.approx(rep.D, rel=1e-12)
        assert generic.lb_base == pytest.approx(rep.lb_base, rel=1e-12)
        assert generic.ub_base == pytest.approx(rep.ub_base, rel=1e-12)
        assert (generic.sol_lb, generic.sol_ub) == pytest.approx(
            (rep.sol_lb, rep.sol_ub), rel=1e-12
        )
    print(
        "ACCEPTANCE PASS criterion 5: enumeration matches the diagonal closed "
        "form to 1e-8 on 200 instances; report paths agree to 1e-12"
    )


def test_criterion_6_alpha_grid_consistency():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        diag = rng.uniform(0.5, 10.0, n)
        tensor = DenseTensor.from_diagonal(diag, order=4)
        closed = diagonal_alpha_estimate(tensor).value
        assert closed == min(float(a) ** (1.0 / 3.0) for a in diag)
        est = estimate_alpha(tensor)
        assert closed - 1e-6 <= est.value <= closed + 1e-3
    print(
        "ACCEPTANCE PASS criterion 6: grid alpha within "
        "[closed-1e-6, closed+1e-3] on 50 tensors; closed form exact"
    )


def test_criterion_7_analytic_tight_case():
    tensor = DenseTensor.from_diagonal([1.0], order=4)
    q = np.array([-1.0])
    z = solve_diagonal(TcpInstance(tensor, q)).z
    u = np.array([2.0])
    rep = diagonal_bounds(tensor, q, z, u)
    assert rep.D == pytest.approx(0.0, abs=1e-10)
    assert rep.lb_new == pytest.approx(1.0, abs=1e-10)
    assert rep.ub_new == pytest.approx(1.0, abs=1e-10)
    assert float(np.max(np.abs(z - u))) == pytest.approx(1.0, abs=1e-10)
    print(
        "ACCEPTANCE PASS criterion 7: tight case collapses to "
        "D=0, lb=ub=1=||z-u||_inf at 1e-10"
    )


def test_criterion_8_property_checks():
    rng = np.random.default_rng(8)

    # contraction/dot identity: A x^m = x . (A x^{m-1})
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        tensor = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-2.0, 2.0, dim)
        full = contract_full(tensor, x)
        dot = float(np.dot(x, contract_m1(tensor, x)))
        assert abs(full - dot) <= 1e-12 * max(1.0, abs(full))

    # positive homogeneity of the normalized operator
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        tensor = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-2.0, 2.0, dim)
        lam = float(rng.uniform(0.1, 10.0))
        np.testing.assert_allclose(
            apply_T(tensor, lam * x), lam * apply_T(tensor, x), rtol=1e-10, atol=1e-12
        )

    # contraction inequality against the operator norm
    for _ in range(120):
        order = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        tensor = random_sparse_tensor(rng, order, dim, int(rng.integers(1, 9)))
        x = rng.uniform(-3.0, 3.0, dim)
        lhs = float(np.max(np.abs(contract_m1(tensor, x))))
        rhs = tensor_inf_norm(tensor) * float(np.max(np.abs(x))) ** (order - 1)
        assert lhs <= rhs * (1.0 + 1e-12)

    # signed-root round trip
    for r in (1, 3, 5):
        x = rng.uniform(-50.0, 50.0, 120)
        np.testing.assert_allclose(signed_root(x, r) ** r, x, rtol=1e-12, atol=1e-13)

    # min identity: v from the residual equals componentwise min(u, s) bitwise
    count = 0
    for tensor, q, z, u in manufactured_diagonal(120, seed=88):
        data = residual(tensor, q, z, u)
        s = signed_root(contract_m1(tensor, u - z), 3) + signed_root(
            contract_m1(tensor, z) + q, 3
        )
        assert np.array_equal(data.v, np.minimum(u, s))
        count += 1
    assert count >= 100
    print(
        "ACCEPTANCE PASS criterion 8: dot identity, homogeneity, contraction "
        "inequality, signed-root round trip, and the min identity hold on "
        "120 cases each"
    )
