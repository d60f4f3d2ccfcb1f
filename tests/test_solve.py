"""Solution certificates, the diagonal closed form, and support enumeration."""

import dataclasses
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest

import oracles
import tcpbounds.solve as solve_module
from families import (
    manufactured_diagonal,
    manufactured_unique,
    random_diagonal_instances,
    random_sparse_tensor,
)
from tcpbounds import (
    DenseTensor,
    DimensionLimitError,
    DimensionMismatchError,
    NotPositiveDiagonalError,
    SolutionCertificate,
    SolveOptions,
    TcpInstance,
    contract_m1_batch,
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
        ([1e200, 0.5], [1.0, -1.0]),  # (1e200)^3 overflows in the contraction
        ([1e100, 0.5], [1.0, -1.0]),  # a finite w whose product with z overflows
    ],
)
def test_verify_solution_fails_non_finite_z_or_w(z, q):
    # the first three once passed with max_violation == 0.0 (max() dropped the
    # NaN); the 0 * inf and the overflows leaked numpy RuntimeWarnings, which
    # -W error turned into tracebacks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = verify_solution(TcpInstance(WORKED.tensor, np.array(q)), np.array(z))
    assert cert.max_violation == math.inf
    assert not cert.passed


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_enumerate_refuses_non_finite_q(bad):
    # a NaN q once returned [] ("no acceptable root") instead of being refused
    tensor = DenseTensor.from_diagonal([1.0, 8.0, 3.0], order=4)
    with pytest.raises(ValueError, match="q must be finite"):
        solve_enumerate(TcpInstance(tensor, np.array([bad, -1.0, -2.0])))
    # refused before the dimension check
    with pytest.raises(ValueError, match="q must be finite"):
        solve_enumerate(
            TcpInstance(tensor, np.array([bad, -1.0, -2.0])), SolveOptions(max_dim=2)
        )


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
    # that 1x1 system is singular; it shares the one batch with every other
    # support.
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
    # unbatched loop would; the default runs every row together.
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


def _reference_violation(z, w):
    """The one-vector measure as first written: the largest part, inf if not finite."""
    parts = [
        0.0,
        float(np.max(-z, initial=0.0)),
        float(np.max(-w, initial=0.0)),
        float(np.max(np.abs(z * w), initial=0.0)),
    ]
    return max(parts) if math.isfinite(parts[-1]) else math.inf


@pytest.mark.filterwarnings("ignore:invalid value encountered in multiply")
@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
def test_batch_violations_equal_from_candidate_row_by_row():
    tensor = DenseTensor.from_diagonal([1.0, 8.0], order=4)
    cases = [
        ([0.0, 0.5], [1.0, -1.0]),  # a solution
        ([0.0, 0.6], [1.0, -1.0]),  # complementarity slack
        ([-0.3, 0.5], [1.0, -1.0]),  # negative z
        ([np.nan, 0.5], [1.0, -1.0]),
        ([np.inf, 0.5], [1.0, -1.0]),
        ([-np.inf, 0.5], [1.0, -1.0]),
        ([0.0, 0.5], [np.nan, -1.0]),
        ([0.0, 0.5], [np.inf, -1.0]),  # 0 * inf
        ([0.0, 0.5], [-np.inf, -1.0]),  # 0 * -inf
        ([1e100, 0.5], [1.0, -1.0]),  # a finite row whose product overflows
    ]
    certs = [
        verify_solution(TcpInstance(tensor, np.array(q)), np.array(z), 1e-8)
        for z, q in cases
    ]
    z_rows = np.array([c.z for c in certs])
    w_rows = np.array([c.w for c in certs])
    batch = solve_module._violations(z_rows, w_rows)
    for k, cert in enumerate(certs):
        assert batch[k] == cert.max_violation == _reference_violation(cert.z, cert.w)
    assert [bool(v) for v in np.isinf(batch)] == [False] * 3 + [True] * 7


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_non_positive_tol_is_refused(tol):
    # solve_enumerate used to accept it and report no solutions
    with pytest.raises(ValueError, match="tol must be positive"):
        solve_enumerate(WORKED, SolveOptions(tol=tol))
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_solution(WORKED, np.array([0.0, 0.5]), tol)


def test_enumerated_certificates_equal_from_candidate_bit_for_bit():
    # q_1 = -0.0 and a negative entry at z_1 = 0: the product is -0.0, and
    # w_1 must come out +0.0 from the batch kernel as from contract_m1.
    signed = TcpInstance(DenseTensor(2, 2, {(1, 1): -1.0, (2, 2): 1.0}), np.array([-0.0, 1.0]))
    rng = np.random.default_rng(12)
    instances = [signed, WORKED] + [
        manufactured_unique(rng, family, order, 4)[0]
        for family, order in (("row_power", 4), ("general", 2))
    ]
    for inst in instances:
        certs = solve_enumerate(inst)
        assert certs
        for cert in certs:
            ref = verify_solution(inst, cert.z, cert.tol)
            assert np.array_equal(cert.z, ref.z)
            assert np.array_equal(cert.w, ref.w)
            assert np.array_equal(np.signbit(cert.w), np.signbit(ref.w))
            assert cert.support == ref.support
            assert cert.max_violation == ref.max_violation
            assert cert.passed and ref.passed
    assert not np.signbit(solve_enumerate(signed)[0].w[0])


@pytest.mark.parametrize(
    "inst, count",
    [
        (WORKED, 1),
        (TcpInstance(DenseTensor(2, 1, {(1, 1): -1.0}), np.array([1.0])), 2),
        (TcpInstance(DenseTensor(2, 1, {(1, 1): -1.0}), np.array([-1.0])), 0),
    ],
)
def test_enumerate_returns_the_certificates_verify_solution_built(monkeypatch, inst, count):
    # The batched screen only proposes roots; every certificate returned is
    # one verify_solution built, one call per distinct root.
    checker, built = solve_module.verify_solution, []

    def recording(*args):
        built.append(checker(*args))
        return built[-1]

    monkeypatch.setattr(solve_module, "verify_solution", recording)
    certs = solve_enumerate(inst)
    assert len(certs) == len(built) == count
    assert sorted(map(id, certs)) == sorted(map(id, built))


def test_enumerate_keeps_only_roots_verify_solution_passes(monkeypatch):
    # The screen cannot admit a root on its own: a certificate that fails
    # is not returned, even when the screen passed its z.
    checker = solve_module.verify_solution

    def failing(inst, z, tol):
        cert = checker(inst, z, tol)
        return SolutionCertificate(cert.z, cert.w, cert.support, math.inf, tol, False)

    monkeypatch.setattr(solve_module, "verify_solution", failing)
    assert solve_enumerate(WORKED) == []


@pytest.mark.parametrize("knob", ["starts", "max_iterations", "step_tol", "damping"])
def test_fixed_newton_schedule_is_not_an_option(knob):
    with pytest.raises(TypeError):
        SolveOptions(**{knob: 1})


@pytest.mark.parametrize(
    "field, value",
    [("seed", True), ("seed", 1.5), ("seed", -1),
     ("max_dim", 2.5), ("max_dim", True), ("max_dim", 0)],
)
def test_solve_options_refuse_a_bad_integer_by_name(field, value):
    # seed=True used to run as seed 1 and seed=1.5 or -1 to fail inside numpy
    # without a name; max_dim=2.5 was accepted
    least = 0 if field == "seed" else 1
    with pytest.raises(ValueError, match=rf"^{field} must be an integer >= {least}, got "):
        SolveOptions(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_solve_options_refuse_a_bad_tol_when_built(tol):
    # SolveOptions(tol=nan) used to build, and the refusal came later, from
    # the violation measure inside solve_enumerate
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got "):
        SolveOptions(tol=tol)


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("max_dim", 7), ("tol", 1e-6)])
def test_solve_options_are_frozen(field, value):
    # assigning seed = 1.5 after construction skipped the named refusal, and
    # solve_enumerate failed inside numpy's SeedSequence instead
    options = SolveOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(options, field, value)
    assert options == SolveOptions()


def test_solve_options_accept_numpy_integers():
    certs = solve_enumerate(WORKED, SolveOptions(max_dim=np.int64(2), seed=np.int32(0)))
    assert [c.z.tolist() for c in certs] == [[0.0, 0.5]]


def test_enumerate_large_q_warns_nothing():
    # z = (1e100, 0) is an exact root, but the screen's z_i w_i and some
    # Newton contractions overflow on the way: under -W error the call used
    # to raise a RuntimeWarning instead of returning it
    inst = TcpInstance(DenseTensor.from_diagonal([1.0, 2.0], order=4), np.array([-1e300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certs = solve_enumerate(inst)
    assert [c.z.tolist() for c in certs] == [[1e100, 0.0]]
    assert certs[0].passed and certs[0].support == (1,)


def test_infinite_tol_is_refused():
    # verify_solution used to pass z = (5, 5) under tol = inf, with a
    # max_violation of 4995
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        verify_solution(WORKED, np.array([5.0, 5.0]), math.inf)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        solve_enumerate(WORKED, SolveOptions(tol=math.inf))


def test_verify_solution_is_the_one_certificate_entry_point():
    assert not hasattr(SolutionCertificate, "from_candidate")
    assert not hasattr(SolutionCertificate, "_from_row")
    cert = solve_diagonal(WORKED)
    assert cert.tol == SolveOptions.tol
    with pytest.raises(TypeError):
        solve_diagonal(WORKED, tol=1e-9)


# solve_enumerate on manufactured_unique(default_rng(2027), ...) instances,
# drawn in this order: (family, order, dim, support, z, w, max_violation) with
# every float as float.hex().  How the Newton rows are batched must not move
# any of these bits.
ENUMERATE_GOLDENS = [
    ("row_power", 4, 3, (3,),
     ("0x0.0p+0", "0x0.0p+0", "0x1.61bdbe249fd23p+0"),
     ("0x1.6d0d6c63f6204p-3", "0x1.2c902de69103cp-2", "0x0.0p+0"),
     "0x0.0p+0"),
    ("general", 2, 4, (3, 4),
     ("0x0.0p+0", "0x0.0p+0", "0x1.ddc0a78a04d25p-2", "0x1.24dcd9951f61ep+0"),
     ("0x1.e5f52514c8958p+0", "0x1.7f2ebb2f16003p+0", "0x0.0p+0", "0x0.0p+0"),
     "0x0.0p+0"),
    ("diagonal", 4, 5, (2, 3, 5),
     ("0x0.0p+0", "0x1.392355578feccp-1", "0x1.dac76abcd39b2p-3", "0x0.0p+0",
      "0x1.13cc10dbcccfbp+0"),
     ("0x1.0a3f5f336339ap+0", "0x0.0p+0", "0x0.0p+0", "0x1.685c973cace81p+0",
      "0x0.0p+0"),
     "0x0.0p+0"),
    ("row_power", 4, 6, (2, 4, 6),
     ("0x0.0p+0", "0x1.795bdac0d18b3p+0", "0x0.0p+0", "0x1.752f3323f83ccp-2",
      "0x0.0p+0", "0x1.e89cb43ba3b15p-3"),
     ("0x1.7a306cc76f7d0p-1", "0x0.0p+0", "0x1.ecea639ab713bp+0", "0x0.0p+0",
      "0x1.c41c9c9097a29p+0", "-0x1.0000000000000p-53"),
     "0x1.0000000000000p-53"),
    ("general", 2, 6, (1, 2, 3, 5),
     ("0x1.36cb408426c48p-2", "0x1.18607bb77dfc1p+0", "0x1.16b8aa9f7f2f3p+0",
      "0x0.0p+0", "0x1.39c04ba63f877p+0", "0x0.0p+0"),
     ("0x1.0000000000000p-53", "-0x1.0000000000000p-52", "0x0.0p+0",
      "0x1.8587968d30b1fp-1", "0x0.0p+0", "0x1.af078cfebf4dap+0"),
     "0x1.18607bb77dfc1p-52"),
    ("row_power", 2, 5, (1, 3, 4),
     ("0x1.52297e05e9bc3p+0", "0x0.0p+0", "0x1.51184ec599546p-2",
      "0x1.f627b37205416p-1", "0x0.0p+0"),
     ("0x0.0p+0", "0x1.772684aa32eecp+0", "0x0.0p+0", "0x0.0p+0",
      "0x1.e47eef29f68cfp+0"),
     "0x0.0p+0"),
]


def _golden_instances():
    rng = np.random.default_rng(2027)
    return [
        manufactured_unique(rng, family, order, dim)[0]
        for family, order, dim, *_ in ENUMERATE_GOLDENS
    ]


def _hex(values):
    return tuple(float(x).hex() for x in values)


def test_enumerate_goldens_bit_for_bit():
    for inst, golden in zip(_golden_instances(), ENUMERATE_GOLDENS):
        support, z, w, violation = golden[3:]
        certs = solve_enumerate(inst)
        assert len(certs) == 1, golden[:3]
        cert = certs[0]
        assert cert.support == support, golden[:3]
        assert _hex(cert.z) == z, golden[:3]
        assert _hex(cert.w) == w, golden[:3]
        assert float(cert.max_violation).hex() == violation, golden[:3]


def _bits(certs):
    return [(_hex(c.z), _hex(c.w), float(c.max_violation).hex(), c.support) for c in certs]


def test_enumerate_batches_that_split_a_support_size_change_no_bit(monkeypatch):
    # 12 rows per batch is not a multiple of the 8 starts of a support, so
    # batches end inside a support's starts and inside a support size.
    for inst in _golden_instances():
        tensor = inst.tensor
        default = _bits(solve_enumerate(inst))
        monkeypatch.setattr(
            solve_module, "_BATCH_ENTRIES", 12 * tensor.nnz * (tensor.order - 1)
        )
        assert solve_module._batch_rows(tensor) == 12
        assert _bits(solve_enumerate(inst)) == default
        monkeypatch.undo()


def test_bad_tol_is_refused_before_any_newton_step(monkeypatch):
    def no_newton(*args, **kwargs):
        raise AssertionError("a Newton step ran before the tol check")

    monkeypatch.setattr(solve_module, "jacobian_m1_batch", no_newton)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_enumerate(WORKED, SolveOptions(tol=tol))


def test_enumerate_drops_singular_rows_of_several_sizes_in_one_batch(monkeypatch):
    # w = (2 z1 - 2, z1 + 1, z3 + 1): no w_i depends on z2, so the Jacobian
    # on every support holding 2, of sizes 1, 2 and 3, is singular.  All
    # 64 rows, the empty support's 8 included, run in one batch.
    inst = TcpInstance(
        DenseTensor(2, 3, {(1, 1): 2.0, (2, 1): 1.0, (3, 3): 1.0}),
        np.array([-2.0, 1.0, 1.0]),
    )
    masks, first_steps = [], []
    newton, stacked = solve_module._newton_on_supports, solve_module._solve_stacked

    def record_batches(inst, mask, starts):
        masks.append(mask)
        return newton(inst, mask, starts)

    def record_first_step(jac, rhs):
        out = stacked(jac, rhs)
        if not first_steps:
            first_steps.append(out)
        return out

    monkeypatch.setattr(solve_module, "_newton_on_supports", record_batches)
    monkeypatch.setattr(solve_module, "_solve_stacked", record_first_step)
    certs = solve_enumerate(inst)
    assert [mask.shape[0] for mask in masks] == [64]
    # Every row is active in the first solve, so its rows are the mask's.
    (mask,), (step,) = masks, first_steps
    assert step.shape == mask.shape
    singular = np.isnan(step).all(axis=1)
    np.testing.assert_array_equal(singular, mask[:, 1])
    assert set(mask[singular].sum(axis=1).tolist()) == {1, 2, 3}
    # The other rows' steps are finite on the support and exactly +-0 off it.
    solved = step[~singular]
    assert np.isfinite(solved).all()
    assert (solved[~mask[~singular]] == 0.0).all()
    assert len(certs) == 1
    np.testing.assert_array_equal(certs[0].z, [1.0, 0.0, 0.0])
    assert certs[0].support == (1,)


@pytest.mark.parametrize("batch_entries", [1, solve_module._BATCH_ENTRIES])
def test_newton_acceptance_rule_is_finite_and_below_base(monkeypatch, batch_entries):
    # Identity matrix and q = -0.0, so the residual is the contraction itself,
    # the Jacobian is I and a row starting at (s, 3) with residual (2, 1)
    # steps by (-2, -1): its trial at factor d has first coordinate s - 2 d.
    # The fake contraction returns a chosen residual for each such trial;
    # a factor not listed gets one whose maximum equals the base, 2.
    d = solve_module._DAMPING
    nan, inf = np.nan, np.inf
    at_base = [2.0, 2.0]
    ok_start = [2.0, 1.0]
    scenarios = [
        ([nan, 1.0], {}),  # dropped: NaN at the start
        ([inf, 1.0], {}),  # dropped: +inf at the start
        ([1.0, -inf], {}),  # dropped: -inf at the start
        # NaN, +inf, -inf, |entry| equal to the base twice, then -0.0 entries
        (ok_start, {0: [nan, 0.0], 1: [0.0, inf], 2: [-inf, 0.0], 3: [2.0, 0.0],
                    4: [0.0, -2.0], 5: [-0.0, -0.0]}),
        (ok_start, {0: [-0.0, 1.0]}),  # the full step, with a -0.0 entry
        (ok_start, {0: [1.0, nan], 1: [1.999, 0.0]}),  # just below the base
        # stopped: no factor is finite and below the base
        (ok_start, {k: [[nan, 0.0], [-2.0, 0.0], [inf, 0.0]][k % 3] for k in range(27)}),
    ]
    starts = np.array([[4.0 * r + 3.0, 3.0] for r in range(len(scenarios))])
    table = {}
    for (s, _), (start_f, trials) in zip(starts, scenarios):
        table[s] = start_f
        for k in range(d.size):
            table[s - 2.0 * d[k]] = trials.get(k, at_base)

    def fake_contract(tensor, points):
        return np.array([table[float(p[0])] for p in points])

    monkeypatch.setattr(solve_module, "contract_m1_batch", fake_contract)
    monkeypatch.setattr(solve_module, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(solve_module, "_BATCH_ENTRIES", batch_entries)
    identity = DenseTensor(2, 2, {(1, 1): 1.0, (2, 2): 1.0})
    inst = TcpInstance(identity, np.array([-0.0, -0.0]))
    got = solve_module._newton_on_supports(inst, np.ones(starts.shape, dtype=bool), starts)

    # The rule with whole-row reductions: finite, and max |f| below the base.
    want = []
    for start, (start_f, trials) in zip(starts, scenarios):
        if not np.isfinite(start_f).all():
            continue
        base = np.max(np.abs(start_f))
        accepted = [
            k for k in range(d.size)
            if np.isfinite(f := np.array(trials.get(k, at_base))).all()
            and np.max(np.abs(f)) < base
        ]
        want.append(start - d[accepted[0]] * np.array(start_f) if accepted else start)
    assert [list(z) for z in got] == [list(z) for z in want]
    # Factors 1/32, 1 and 1/2, then a stopped row: the rule told them apart.
    assert [float(z[0]) for z in got] == [15.0 - 2.0 / 32, 17.0, 22.0, 27.0]


def _keep_every_support(matrix, q, on_support, tol, order):
    return np.ones(on_support.shape[0], dtype=bool)


# ROADMAP item 15's instances, where the absolute tol and 10 * tol dedupe
# miscount at a large or small |q|: (tensor, q, the one solution).
_DIAG = DenseTensor.from_diagonal([1.0, 2.0], order=4)
SCALE_CASES = [
    (DenseTensor(2, 2, {(1, 1): 2.0, (1, 2): -1.0, (2, 1): 1.0, (2, 2): 3.0}),
     np.full(2, -1e300), np.array([4.0, 1.0]) / 7.0 * 1e300),
    *((_DIAG, np.full(2, -c), (np.array([1.0, 0.5]) * c) ** (1.0 / 3.0))
      for c in (1e305, 1e-12, 1e-30)),
]


def _screen_probes():
    """(instance, tol) pairs in the LCP class: every family, n = 1..6, varied q."""
    rng = np.random.default_rng(2110)
    shapes = [("diagonal", 4), ("row_power", 4), ("general", 2), ("row_power", 2)]
    probes = []
    for (family, order), dim in itertools.product(shapes, range(1, 7)):
        inst, _ = manufactured_unique(rng, family, order, dim)
        zeroed = inst.q.copy()
        zeroed[rng.uniform(size=dim) < 0.5] = 0.0
        for q in (zeroed, inst.q * 10.0 ** rng.uniform(-14.0, 8.0), np.abs(inst.q),
                  rng.uniform(-5.0, 5.0, dim)):
            probes.append((TcpInstance(inst.tensor, q), (1e-9, 1e-6, 1e-3)[len(probes) % 3]))
    probes += [(inst, SolveOptions.tol) for inst in _golden_instances()]
    probes += [(TcpInstance(t, q), SolveOptions.tol) for t, q, _ in SCALE_CASES]
    return probes


def test_lcp_screen_changes_no_certificate_bit(monkeypatch):
    # The screen drops only Newton rows whose iterates verify_solution fails,
    # and the kept rows' iterates do not depend on the others, so every
    # certificate matches an unscreened run in every bit.
    probes = _screen_probes()
    screened = [_bits(solve_enumerate(inst, SolveOptions(tol=tol))) for inst, tol in probes]
    monkeypatch.setattr(solve_module, "_lcp_screen", _keep_every_support)
    for (inst, tol), bits in zip(probes, screened):
        assert _bits(solve_enumerate(inst, SolveOptions(tol=tol))) == bits, (inst.q, tol)
    assert sum(len(bits) == 1 for bits in screened) >= 0.9 * len(probes)


def _newton_rows(monkeypatch, inst):
    """Rows that reach the Newton kernel in one enumeration, and its certificates."""
    rows, newton = [], solve_module._newton_on_supports

    def recording(inst, mask, starts):
        rows.append(mask.shape[0])
        return newton(inst, mask, starts)

    monkeypatch.setattr(solve_module, "_newton_on_supports", recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certs = solve_enumerate(inst)
    monkeypatch.undo()
    return sum(rows), certs


def test_lcp_screen_sends_only_the_feasible_support_to_newton(monkeypatch):
    # A P-matrix problem with a nondegenerate solution has one support whose
    # linear root is feasible; the other 63 supports' 8 starts, the empty
    # support's included, never run.
    inst, z_star = manufactured_unique(np.random.default_rng(5), "row_power", 4, 6)
    rows, certs = _newton_rows(monkeypatch, inst)
    assert rows == solve_module._STARTS < 63 * solve_module._STARTS
    assert len(certs) == 1
    np.testing.assert_allclose(certs[0].z, z_star, rtol=0, atol=1e-10)


def test_lcp_screen_keeps_every_row_outside_the_class_or_on_a_singular_block(monkeypatch):
    rng = np.random.default_rng(6)
    inst, _ = manufactured_unique(rng, "row_power", 4, 6)
    # one entry whose trailing indices differ: a general order-4 tensor
    general = DenseTensor(4, 6, {**inst.tensor.entries, (1, 2, 3, 4): 0.01})
    # an order-2 matrix whose (1, 1) entry is zero: its 1 x 1 block is singular
    matrix = manufactured_unique(rng, "general", 2, 6)[0].tensor.entries
    del matrix[(1, 1)]
    for tensor in (general, DenseTensor(2, 6, matrix)):
        rows, _ = _newton_rows(monkeypatch, TcpInstance(tensor, inst.q))
        assert rows == 64 * solve_module._STARTS


@pytest.mark.parametrize(
    "tensor",
    [
        DenseTensor(2, 3, {(1, 1): 2.0, (1, 2): 0.5, (2, 2): 3.0, (3, 1): -0.5, (3, 3): 1.0}),
        DenseTensor.from_diagonal([2.0, 3.0, 1.0], order=4),
        # dominant, with entries whose trailing indices differ
        DenseTensor(
            4,
            3,
            {(1, 1, 1, 1): 2.0, (1, 2, 3, 1): 0.5, (2, 2, 2, 2): 3.0,
             (3, 1, 2, 2): -0.5, (3, 3, 3, 3): 1.0},
        ),
    ],
    ids=["o2", "o4-diagonal", "o4-general"],
)
def test_enumerate_sends_the_empty_support_through_newton(monkeypatch, tensor):
    # q >= 0: z = 0 is the one root, and the LCP screen keeps the empty
    # support, whose rows start at zero and take a zero Newton step.
    masks, newton = [], solve_module._newton_on_supports

    def recording(inst, mask, starts):
        masks.append(mask)
        return newton(inst, mask, starts)

    monkeypatch.setattr(solve_module, "_newton_on_supports", recording)
    certs = solve_enumerate(TcpInstance(tensor, np.array([0.0, 1.0, 2.0])))
    assert not masks[0][: solve_module._STARTS].any()
    assert len(certs) == 1
    assert certs[0].support == ()
    assert (certs[0].z == 0.0).all() and not np.signbit(certs[0].z).any()


def test_lcp_screen_trusts_only_a_well_conditioned_block():
    # q = (-1, 0).  On support {2}, w_1 = -1; on the full support the root
    # has y_2 = -1 for M = [[1, 1], [1, 2]], but y_2 = -1e9 with a condition
    # number of about 4e9 for the nearly singular [[1, 1], [1, 1 + 1e-9]],
    # whose float root the screen does not trust.
    on_support = np.array([[True, False], [False, True], [True, True]])
    q = np.array([-1.0, 0.0])
    for corner, kept in ((2.0, [True, False, False]), (1.0 + 1e-9, [True, False, True])):
        matrix = np.array([[1.0, 1.0], [1.0, corner]])
        assert solve_module._lcp_screen(matrix, q, on_support, 1e-9, 2).tolist() == kept


@pytest.mark.xfail(strict=True, reason="ROADMAP item 15: tol and the dedupe are absolute")
@pytest.mark.parametrize(
    "tensor, q, z_star", SCALE_CASES, ids=["o2-1e300", "o4-1e305", "o4-1e-12", "o4-1e-30"]
)
def test_enumerate_finds_the_one_root_at_any_scale(tensor, q, z_star):
    # The solver returns 3 roots, none, 4 and only z = 0; the bit-identity
    # test above shows the LCP screen leaves each result as it is.
    certs = solve_enumerate(TcpInstance(tensor, q))
    assert len(certs) == 1
    np.testing.assert_allclose(certs[0].z, z_star, rtol=1e-9)


def _coupled_instances():
    """Order 4, ``4 I`` plus ``(i, i+1, i, i+1) = 0.3``: outside the LCP class, so
    every support, the empty one included, reaches Newton."""
    rng = np.random.default_rng(7)
    for n in (4, 5, 6):
        entries = {(i,) * 4: 4.0 for i in range(1, n + 1)}
        entries.update({(i, i + 1, i, i + 1): 0.3 for i in range(1, n)})
        yield TcpInstance(DenseTensor(4, n, entries), rng.uniform(-1.0, 1.0, n))


def test_a_zero_residual_row_stops_before_backtracking(monkeypatch):
    rows, kernel = [0], solve_module.contract_m1_batch

    def counting(tensor, points, *args, **kwargs):
        rows[0] += len(points)
        return kernel(tensor, points, *args, **kwargs)

    monkeypatch.setattr(solve_module, "contract_m1_batch", counting)
    # z = 0 on a support whose Jacobian is 3 z^2 = 0: the singular step drops
    # the row before its zero residual could stop it; on the empty support
    # the padded Jacobian is I and the row keeps its iterate.  Neither tries
    # a damping factor: only the start is evaluated.
    inst = TcpInstance(DenseTensor.from_diagonal([1.0], order=4), np.array([0.0]))
    for on_support, kept in ((True, 0), (False, 1)):
        rows[0] = 0
        got = solve_module._newton_on_supports(inst, np.array([[on_support]]), np.zeros((1, 1)))
        assert got.shape == (kept, 1) and rows[0] == 1
    assert got[0, 0] == 0.0 and not np.signbit(got[0, 0])
    # Whole enumerations: 216 fewer kernel rows at n = 4 and 5 than when
    # every factor was tried at a zero residual, 864 fewer at n = 6, and the
    # same certificates, pinned as digests of their hex bits.
    want = [
        (6968, "c0e304aa0e554f8a20c7a5425c871d1b4560255f7b0133a7a03586d958dfa3f2"),
        (15033, "22d8eec85c0d2f744ee97e3fe200a03968b35d26237fe03d5fd1327a1353f8cf"),
        (18424, "cb142ed2266b0500bdabd85683ae961940e04843334e7d97a73cc2eda0f0f431"),
    ]
    for inst, (kernel_rows, digest) in zip(_coupled_instances(), want):
        rows[0] = 0
        bits = _bits(solve_enumerate(inst))
        assert rows[0] == kernel_rows
        assert hashlib.sha256(repr(bits).encode()).hexdigest() == digest


def test_compacted_newton_rows_are_independent_of_their_batch(monkeypatch):
    # A general order-4 tensor: all 16 supports' 128 rows reach Newton.
    tensor = random_sparse_tensor(np.random.default_rng(0), 4, 4, 10)
    inst = TcpInstance(tensor, np.random.default_rng(0).uniform(-1.0, 1.0, 4))
    batches, newton = [], solve_module._newton_on_supports

    def recording(inst, mask, starts):
        batches.append((mask, starts.copy()))
        return newton(inst, mask, starts)

    monkeypatch.setattr(solve_module, "_newton_on_supports", recording)
    solve_enumerate(inst)
    monkeypatch.undo()
    ((mask, starts),) = batches
    # Supports in size then combinations order, _STARTS rows each.
    supports = [c for size in range(5) for c in itertools.combinations(range(4), size)]
    assert [tuple(np.flatnonzero(row)) for row in mask[:: solve_module._STARTS]] == supports
    assert mask.shape == (128, 4)
    # Two rows start where the residual overflows.
    huge = [100, 127]
    starts[huge] = np.where(mask[huge], 1e200, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        start_f = np.where(mask, contract_m1_batch(tensor, starts) + inst.q, 0.0)
    finite = np.isfinite(start_f).all(axis=1)
    assert finite.sum() == 126

    counts, jacobian = [], solve_module.jacobian_m1_batch

    def recording_jacobian(tensor, points):
        counts.append(len(points))
        return jacobian(tensor, points)

    monkeypatch.setattr(solve_module, "jacobian_m1_batch", recording_jacobian)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = solve_module._newton_on_supports(inst, mask, starts)
    monkeypatch.undo()
    assert counts[0] == 126 and counts[-1] < counts[0]
    assert all(a >= b for a, b in zip(counts, counts[1:]))

    with np.errstate(over="ignore", invalid="ignore"):
        one = [solve_module._newton_on_supports(inst, mask[r : r + 1], starts[r : r + 1])
               for r in range(128)]
    alone = np.concatenate(one)
    assert whole.tobytes() == alone.tobytes()
    # The batch holds dropped rows (non-finite starts, singular or non-finite
    # steps), converged rows and rows that stop far from a root.
    ran = np.array([len(o) == 1 for o in one])
    residual = np.abs(np.where(mask[ran], contract_m1_batch(tensor, alone) + inst.q, 0.0))
    assert (~ran & finite).sum() > 0
    assert (residual.max(axis=1) < 1e-9).sum() > 0
    assert (residual.max(axis=1) > 1e-3).sum() > 0
