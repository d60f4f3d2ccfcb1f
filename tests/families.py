"""Seeded random instance families shared by the module and acceptance tests.

The bound suites use manufactured solutions: draw z first, then pick q so
that complementarity holds exactly in floating point (q_i = -(A z^{m-1})_i
cancels to w_i = 0 where z_i > 0). This keeps the certificate violation at
exactly 0.0 and keeps the residual's equilibrium term from passing a ~1e-16
rounding leftover through the (m-1)-th root, whose derivative blows up at
zero.
"""

import numpy as np

from tcpbounds import DenseTensor, TcpInstance, contract_m1


def manufactured_diagonal(count, seed, single_coord=True, max_dim=3):
    """Positive-diagonal order-4 instances with a known exact solution.

    Yields (tensor, q, z, u). With single_coord=True, u differs from z in
    exactly one coordinate by |delta| in [0.01, 2]; the residual v is then
    supported on that coordinate alone, so |v_t| = ||v||_inf and both
    halves of the sharpness comparison are provable. With False, u is a
    dense random perturbation and only the containment and the upper-bound
    comparison are guaranteed.
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        n = int(rng.integers(1, max_dim + 1))
        diag = rng.uniform(0.5, 10.0, n)
        tensor = DenseTensor.from_diagonal(diag, order=4)
        z = np.where(rng.uniform(size=n) < 0.35, 0.0, rng.uniform(0.05, 1.2, n))
        q = -contract_m1(tensor, z)
        free = z == 0.0
        q[free] = rng.uniform(0.0, 5.0, int(free.sum()))
        if single_coord:
            j = int(rng.integers(n))
            delta = rng.uniform(0.01, 2.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
            u = z.copy()
            u[j] += delta
        else:
            u = z + rng.uniform(-1.5, 1.5, n)
            if np.array_equal(u, z):
                continue
        made += 1
        yield tensor, q, z, u


def random_diagonal_instances(count, seed, max_dim=3):
    """Positive-diagonal order-4 instances with free q, for solver suites."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_dim + 1))
        diag = rng.uniform(0.5, 10.0, n)
        q = rng.uniform(-5.0, 5.0, n)
        yield TcpInstance(DenseTensor.from_diagonal(diag, order=4), q)


def random_sparse_tensor(rng, order, dim, nnz, lo=-2.0, hi=2.0):
    """Random sparse tensor with nnz distinct nonzero entries."""
    nnz = min(nnz, dim**order)
    entries = {}
    while len(entries) < nnz:
        idx = tuple(int(k) for k in rng.integers(1, dim + 1, order))
        val = float(rng.uniform(lo, hi))
        if val != 0.0:
            entries[idx] = val
    return DenseTensor(order, dim, entries)


def manufactured_unique(rng, family, order, dim):
    """Instance with exactly one solution, and that solution.

    Every row has a diagonal entry ``a_i`` in [1, 4] and off-diagonal entries
    whose moduli sum to less than ``a_i``.  ``family`` places them:
    ``"diagonal"`` has none; ``"row_power"`` puts them at ``(i, j, ..., j)``,
    so ``A z^{m-1} = M z^{m-1}`` for a strictly diagonally dominant matrix
    ``M`` with positive diagonal, a P-matrix; ``"general"`` needs
    ``order == 2``, where ``A`` is such a matrix itself.  Either way the
    problem has one solution.  ``z*`` is drawn first and ``q`` fixed so that
    ``w* = 0`` on its support and positive off it; diagonal ``z*`` is then
    recomputed from the rounded ``q`` by the closed form.
    """
    if family == "general" and order != 2:
        raise ValueError("the general family is unique only for order 2")
    entries = {}
    for i in range(1, dim + 1):
        a = float(rng.uniform(1.0, 4.0))
        entries[(i,) * order] = a
        others = [j for j in range(1, dim + 1) if j != i]
        if family == "diagonal" or not others:
            continue
        vals = rng.uniform(0.1, 1.0, len(others)) * rng.choice([-1.0, 1.0], len(others))
        vals *= rng.uniform(0.3, 0.7) * a / np.abs(vals).sum()
        for j, v in zip(others, vals):
            entries[(i,) + (j,) * (order - 1)] = float(v)
    tensor = DenseTensor(order, dim, entries)
    support = rng.uniform(size=dim) < 0.6
    z = np.where(support, rng.uniform(0.2, 1.5, dim), 0.0)
    q = -contract_m1(tensor, z)
    q[~support] += rng.uniform(0.1, 2.0, int((~support).sum()))
    if family == "diagonal":
        diag = tensor.diagonal()
        z = (np.maximum(-q, 0.0) / diag) ** (1.0 / (order - 1))
    return TcpInstance(tensor, q), z
