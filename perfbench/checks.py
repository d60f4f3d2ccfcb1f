"""Output oracles.  Each returns a list of problems; an empty list means correct.

The oracles know the answer from how the input was made (a bracket for
alpha, a manufactured or closed-form solution ``z*``) and never from the
program under test.  ``interval_misses`` is kept apart from the other checks
because a miss is also what the bound-miss rate counts.
"""

from __future__ import annotations

import numpy as np

from fixtures import diagonal, off_diagonal_row_sums

_REL = 1e-9


def alpha_bracket(entries: dict, order: int, dim: int, kind: str) -> tuple[float, float]:
    """Interval that must hold a grid estimate of alpha for a dominant tensor.

    With ``r_i`` the off-diagonal row sums, every point of the cube boundary
    has value at least ``min_i (a_i - r_i)`` (rooted for F, times
    ``n^{(2-m)/2}`` for T), and the unit vectors, which an odd grid contains,
    have value ``a_j`` (rooted for F).  The estimate is a minimum over a set
    containing the unit vectors, so it lies in between.
    """
    a = diagonal(entries, order, dim)
    r = off_diagonal_row_sums(entries, dim)
    margin = min(ai - ri for ai, ri in zip(a, r))
    if kind == "F":
        root = 1.0 / (order - 1)
        return margin**root, min(a) ** root
    return dim ** ((2 - order) / 2) * margin, min(a)


def within(value: float, lo: float, hi: float) -> bool:
    slack = _REL * max(1.0, abs(lo), abs(hi))
    return lo - slack <= value <= hi + slack


def check_alpha(value: float, bracket: tuple[float, float]) -> list[str]:
    lo, hi = bracket
    if not within(value, lo, hi):
        return [f"alpha {value!r} outside [{lo!r}, {hi!r}]"]
    return []


def check_solution(z, z_star, max_violation: float | None = None) -> list[str]:
    z = np.asarray(z, dtype=float)
    z_star = np.asarray(z_star, dtype=float)
    problems = []
    if z.shape != z_star.shape:
        return [f"solution has shape {z.shape}, expected {z_star.shape}"]
    gap = float(np.max(np.abs(z - z_star)))
    if not gap <= 1e-6 * max(1.0, float(np.max(np.abs(z_star)))):
        problems.append(f"solution off by {gap!r} from the known z*")
    if max_violation is not None and not max_violation <= 1e-8:
        problems.append(f"max_violation {max_violation!r} above 1e-8")
    return problems


def _below(lb: float, value: float, scale: float) -> bool:
    """``lb <= value`` up to rounding of the inputs.

    ``scale`` is ``max(1, ||z*||_inf)``: ``z*`` and ``u`` are rounded, so the
    true distance is only known to a few ulps of ``scale``.
    """
    return lb <= value * (1.0 + _REL) + 1e-14 * scale


def interval_misses(err: float, pairs, scale: float) -> list[str]:
    """Names of the intervals ``(name, lo, hi)`` that do not contain ``err``.

    A pair whose ends are ``None`` (undefined on this input) is skipped.
    """
    missed = []
    for name, lo, hi in pairs:
        if lo is None or hi is None:
            continue
        if not (_below(lo, err, scale) and _below(err, hi, scale)):
            missed.append(f"{name} [{lo!r}, {hi!r}] misses {err!r}")
    return missed


def check_close(name: str, got, want) -> list[str]:
    """Two derivations of the same bound must agree to rounding."""
    if got is None or want is None:
        return [] if got is want else [f"{name}: {got!r} vs {want!r}"]
    if abs(got - want) <= 1e-12 * max(1.0, abs(want)):
        return []
    return [f"{name}: {got!r} vs {want!r}"]


def parse_cli_output(text: str) -> dict[str, str]:
    """Read ``key=value`` (machine) or ``key  value`` (text) lines into a dict."""
    fields = {}
    for line in text.splitlines():
        if not line:
            continue
        if "=" in line.split(" ", 1)[0]:
            key, value = line.split("=", 1)
        else:
            key, _, value = line.partition(" ")
        fields[key] = value.strip()
    return fields


def as_float(fields: dict, key: str) -> float | None:
    raw = fields.get(key)
    if raw is None or raw == "undefined":
        return None
    return float(raw)


def as_vector(fields: dict, key: str) -> np.ndarray:
    return np.array([float(tok) for tok in fields[key].split(",")])
