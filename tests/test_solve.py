"""Solution certificates, the diagonal closed form, and support enumeration."""

import math

import numpy as np
import pytest

import oracles
import tcpbounds.solve as solve_module
from families import manufactured_diagonal, manufactured_unique, random_diagonal_instances
from tcpbounds import (
    DenseTensor,
    DimensionLimitError,
    DimensionMismatchError,
    NotPositiveDiagonalError,
    SolveOptions,
    TcpInstance,
    solve_diagonal,
    solve_enumerate,
    verify_solution,
)

WORKED = TcpInstance(DenseTensor.from_diagonal([1.0, 8.0], order=4), np.array([1.0, -1.0]))


def test_instance_rejects_wrong_q_length():
    t = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    with pytest.raises(DimensionMismatchError):
        TcpInstance(t, np.array([1.0, 2.0, 3.0]))


def test_instance_copies_q():
    q = np.array([1.0, -1.0])
    inst = TcpInstance(DenseTensor.from_diagonal([1.0, 8.0], order=4), q)
    q[0] = 99.0
    assert inst.q[0] == 1.0


def test_verify_solution_accepts_exact_solution():
    cert = verify_solution(WORKED, np.array([0.0, 0.5]))
    assert cert.passed
    assert cert.support == (2,)
    assert cert.max_violation <= 1e-15
    assert np.array_equal(cert.w, [1.0, 0.0])


def test_verify_solution_violation_values():
    # frozen from the scalar reference: complementarity slack 0.6 * 0.728
    cert = verify_solution(WORKED, np.array([0.0, 0.6]))
    assert not cert.passed
    assert cert.max_violation == pytest.approx(0.43679999999999997, rel=1e-12)
    assert cert.max_violation == pytest.approx(
        oracles.verify(WORKED.tensor.entries, 2, list(WORKED.q), [0.0, 0.6]), rel=1e-12
    )
    # both coordinates active: slack 0.2 * 1.008 on the first row
    cert2 = verify_solution(WORKED, np.array([0.2, 0.5]))
    assert not cert2.passed
    assert cert2.max_violation == pytest.approx(0.2016, rel=1e-12)


def test_verify_solution_flags_negative_components():
    cert = verify_solution(WORKED, np.array([-0.3, 0.5]))
    assert not cert.passed
    assert cert.max_violation >= 0.3


@pytest.mark.parametrize(
    "z, q",
    [
        ([np.nan, 0.5], [1.0, -1.0]),
        ([0.0, 0.5], [np.nan, -1.0]),
        ([0.0, 0.5], [np.inf, -1.0]),
    ],
)
@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
def test_verify_solution_fails_non_finite_z_or_w(z, q):
    # each of these once passed with max_violation == 0.0: max() dropped the NaN
    cert = verify_solution(TcpInstance(WORKED.tensor, np.array(q)), np.array(z))
    assert cert.max_violation == math.inf
    assert not cert.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumerate_refuses_non_finite_q(bad):
    # a NaN q once returned [] ("no acceptable root") instead of being refused
    tensor = DenseTensor.from_diagonal([1.0, 8.0, 3.0], order=4)
    with pytest.raises(ValueError, match="q must be finite"):
        solve_enumerate(TcpInstance(tensor, np.array([bad, -1.0, -2.0])))


def test_solve_diagonal_golden():
    inst = TcpInstance(
        DenseTensor.from_diagonal([16.0, 81.0], order=4), np.array([-2.0, -3.0])
    )
    cert = solve_diagonal(inst)
    assert cert.passed
    np.testing.assert_allclose(cert.z, [0.5, 0.33333333333333337], rtol=1e-15)
    np.testing.assert_allclose(
        cert.z, oracles.solve_diagonal([16.0, 81.0], [-2.0, -3.0], 4), rtol=1e-14
    )
    assert cert.support == (1, 2)


def test_solve_diagonal_clips_nonnegative_q_to_zero():
    inst = TcpInstance(DenseTensor.from_diagonal([2.0, 3.0], order=4), np.array([1.0, 0.0]))
    cert = solve_diagonal(inst)
    assert np.array_equal(cert.z, [0.0, 0.0])
    assert cert.support == ()
    assert cert.max_violation == 0.0


def test_solve_diagonal_order_six():
    inst = TcpInstance(DenseTensor.from_diagonal([2.0], order=6), np.array([-5.0]))
    cert = solve_diagonal(inst)
    np.testing.assert_allclose(cert.z, [1.2011244339814313], rtol=1e-14)
    assert cert.passed


def test_solve_diagonal_rejects_bad_tensors():
    with pytest.raises(NotPositiveDiagonalError):
        solve_diagonal(TcpInstance(DenseTensor.from_diagonal([1.0, -1.0], order=4), np.zeros(2)))
    off = DenseTensor(4, 2, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0, (1, 2, 2, 2): 0.5})
    with pytest.raises(NotPositiveDiagonalError):
        solve_diagonal(TcpInstance(off, np.zeros(2)))
    odd = TcpInstance(DenseTensor.from_diagonal([2.0], order=3), np.array([-1.0]))
    with pytest.raises(ValueError):
        solve_diagonal(odd)


def test_enumerate_worked_instance():
    certs = solve_enumerate(WORKED)
    assert len(certs) == 1
    cert = certs[0]
    assert cert.passed
    np.testing.assert_allclose(cert.z, [0.0, 0.5], atol=1e-9)
    assert cert.support == (2,)


def test_enumerate_finds_multiple_solutions():
    # z(1 - z) style complementarity: both 0 and 1 solve it
    inst = TcpInstance(DenseTensor(2, 1, {(1, 1): -1.0}), np.array([1.0]))
    certs = solve_enumerate(inst)
    assert len(certs) == 2
    np.testing.assert_allclose(certs[0].z, [0.0], atol=1e-9)
    np.testing.assert_allclose(certs[1].z, [1.0], atol=1e-9)
    assert certs[0].support == ()
    assert certs[1].support == (1,)


def test_enumerate_reports_no_solution():
    # w = -z - 1 is negative on the whole nonnegative axis
    inst = TcpInstance(DenseTensor(2, 1, {(1, 1): -1.0}), np.array([-1.0]))
    assert solve_enumerate(inst) == []


def test_enumerate_dimension_guard():
    n = 7
    inst = TcpInstance(DenseTensor.from_diagonal(np.ones(n), order=2), np.zeros(n))
    with pytest.raises(DimensionLimitError):
        solve_enumerate(inst)
    certs = solve_enumerate(inst, SolveOptions(max_dim=7))
    assert len(certs) == 1
    np.testing.assert_allclose(certs[0].z, np.zeros(n), atol=1e-9)


def test_enumerate_deterministic():
    inst = TcpInstance(
        DenseTensor.from_diagonal([3.0, 0.7, 5.0], order=4), np.array([-1.0, 2.0, -4.0])
    )
    a = solve_enumerate(inst)
    b = solve_enumerate(inst)
    assert len(a) == len(b) == 1
    assert np.array_equal(a[0].z, b[0].z)


def test_enumerate_contains_diagonal_solution():
    for inst in random_diagonal_instances(60, seed=2026):
        zd = solve_diagonal(inst).z
        certs = solve_enumerate(inst)
        assert certs, "no solution found on a positive diagonal instance"
        best = min(float(np.max(np.abs(c.z - zd))) for c in certs)
        assert best <= 1e-8


def test_enumerate_nondiagonal_tensor():
    # dominant positive diagonal plus one coupling entry keeps P-ness
    t = DenseTensor(4, 2, {(1, 1, 1, 1): 4.0, (2, 2, 2, 2): 4.0, (1, 2, 2, 2): 0.5})
    inst = TcpInstance(t, np.array([-1.0, -2.0]))
    certs = solve_enumerate(inst)
    assert len(certs) == 1
    cert = certs[0]
    assert cert.passed
    w = cert.w
    assert np.all(cert.z >= -1e-12) and np.all(w >= -1e-9)
    assert float(np.max(np.abs(cert.z * w))) <= 1e-9


def test_enumerate_drops_singular_support_in_batch():
    # w = (2 z1 - 2, z1 + 1).  On support {2}, w2 does not depend on z2, so
    # that 1x1 system is singular; it shares the size-1 batch with {1}.
    inst = TcpInstance(DenseTensor(2, 2, {(1, 1): 2.0, (2, 1): 1.0}), np.array([-2.0, 1.0]))
    certs = solve_enumerate(inst)
    assert len(certs) == 1
    np.testing.assert_allclose(certs[0].z, [1.0, 0.0], atol=1e-12)
    assert certs[0].support == (1,)


def test_enumerate_same_seed_is_bit_identical():
    rng = np.random.default_rng(4)
    inst, _ = manufactured_unique(rng, "row_power", 4, 5)
    for seed in (0, 9):
        a = solve_enumerate(inst, SolveOptions(seed=seed))
        b = solve_enumerate(inst, SolveOptions(seed=seed))
        assert len(a) == len(b) >= 1
        for x, y in zip(a, b):
            assert np.array_equal(x.z, y.z)


def test_enumerate_batch_size_does_not_change_roots(monkeypatch):
    # One row per batch tries the damping factors one at a time, as an
    # unbatched loop would; the default runs every row of a size together.
    rng = np.random.default_rng(8)
    for family, order in (("row_power", 4), ("general", 2)):
        inst, _ = manufactured_unique(rng, family, order, 4)
        batched = solve_enumerate(inst)
        monkeypatch.setattr(solve_module, "_BATCH_ENTRIES", 1)
        single = solve_enumerate(inst)
        monkeypatch.undo()
        assert len(batched) == len(single) == 1
        assert np.array_equal(batched[0].z, single[0].z)


@pytest.mark.parametrize(
    "family,order", [("diagonal", 4), ("row_power", 4), ("general", 2)]
)
def test_enumerate_finds_the_unique_manufactured_solution(family, order):
    rng = np.random.default_rng(31)
    for dim in range(2, 7):
        inst, z_star = manufactured_unique(rng, family, order, dim)
        certs = solve_enumerate(inst)
        assert len(certs) == 1, (family, order, dim, [c.support for c in certs])
        assert certs[0].passed
        np.testing.assert_allclose(certs[0].z, z_star, rtol=0, atol=1e-10)


def test_manufactured_solutions_verify_exactly():
    for tensor, q, z, _ in manufactured_diagonal(50, seed=14):
        cert = verify_solution(TcpInstance(tensor, q), z)
        assert cert.passed
        assert cert.max_violation == 0.0


def test_certificate_support_is_one_based_and_sorted():
    inst = TcpInstance(
        DenseTensor.from_diagonal([2.0, 3.0, 4.0], order=4), np.array([-1.0, 5.0, -1.0])
    )
    cert = solve_diagonal(inst)
    assert cert.support == (1, 3)
