"""Reading and writing TCP problem files.

A problem file is a YAML document with 1-based tensor indices:

    order: 4
    dim: 2
    entries:
      - idx: [1, 1, 1, 1]
        val: 1.0
      - idx: [2, 2, 2, 2]
        val: 8.0
    q: [1.0, -1.0]
    z: [0.0, 0.5]     # optional candidate solution
    u: [0.5, 0.4]     # optional test point

Absent entries are zero and an empty (or omitted) ``entries`` list is the
zero tensor.  :class:`ProblemFile` builds its :class:`DenseTensor` once and
reports the tensor's own order, dim, index and value checks as
:class:`ProblemFormatError`; it checks only what the tensor never sees,
duplicate indices (each key first passes the tensor's index check) and the
vectors ``q``, ``z`` and ``u``.  Emission is deterministic and floats
round-trip exactly, so ``parse(emit(pf))`` reproduces every field bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ProblemFormatError
from .solve import TcpInstance
from .tensor import DenseTensor, _as_index

__all__ = ["ProblemFile", "parse_problem", "emit_problem"]

_TOP_KEYS = {"order", "dim", "entries", "q", "z", "u"}


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """Validated contents of a problem file.

    ``entries`` is canonicalized to index-sorted order at construction, so
    two files describing the same tensor compare and emit identically.
    """

    order: int
    dim: int
    entries: tuple[tuple[tuple[int, ...], float], ...]
    q: np.ndarray
    z: np.ndarray | None = None
    u: np.ndarray | None = None
    _tensor: DenseTensor = field(init=False, repr=False)

    def __post_init__(self):
        clean = {}
        try:
            for raw_idx, val in self.entries:
                idx = _as_index(raw_idx)
                if idx in clean:
                    raise ValueError(f"duplicate index {list(idx)} in entries")
                clean[idx] = float(val)
            tensor = DenseTensor(self.order, self.dim, clean)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from None
        object.__setattr__(self, "_tensor", tensor)
        object.__setattr__(self, "entries", tuple(sorted(clean.items())))
        object.__setattr__(self, "q", self._vector_field("q", self.q, required=True))
        object.__setattr__(self, "z", self._vector_field("z", self.z, required=False))
        object.__setattr__(self, "u", self._vector_field("u", self.u, required=False))

    def _vector_field(self, name: str, value, required: bool) -> np.ndarray | None:
        if value is None:
            if required:
                raise ProblemFormatError(f"field '{name}' is required")
            return None
        arr = np.asarray(value, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != self.dim:
            raise ProblemFormatError(
                f"field '{name}' must be a list of {self.dim} reals"
            )
        if not np.all(np.isfinite(arr)):
            raise ProblemFormatError(f"field '{name}' must contain finite reals")
        return arr

    def tensor(self) -> DenseTensor:
        return self._tensor

    def instance(self) -> TcpInstance:
        return TcpInstance(self._tensor, self.q)


def _as_number(value, where: str) -> float:
    """Accept YAML numbers plus numeric strings (unsigned exponents parse as
    strings under YAML 1.1 resolvers)."""
    if isinstance(value, bool):
        raise ProblemFormatError(f"{where} must be a number, got a boolean")
    if isinstance(value, (int, float)):
        result = float(value)
    elif isinstance(value, str):
        try:
            result = float(value)
        except ValueError:
            raise ProblemFormatError(f"{where} must be a number, got {value!r}") from None
    else:
        raise ProblemFormatError(
            f"{where} must be a number, got {type(value).__name__}"
        )
    if not math.isfinite(result):
        raise ProblemFormatError(f"{where} must be finite, got {result!r}")
    return result


def _as_number_list(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ProblemFormatError(f"{where} must be a list of reals")
    return [_as_number(item, f"{where}[{k}]") for k, item in enumerate(value, 1)]


def parse_problem(path) -> ProblemFile:
    """Parse and validate a problem file; every complaint names its field."""
    text = Path(path).read_text()
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ProblemFormatError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("the document must be a mapping of fields")
    unknown = sorted(set(data) - _TOP_KEYS)
    if unknown:
        raise ProblemFormatError(f"unknown fields: {', '.join(map(str, unknown))}")
    for required in ("order", "dim", "q"):
        if required not in data:
            raise ProblemFormatError(f"field '{required}' is required")

    raw_entries = data.get("entries") or []
    if not isinstance(raw_entries, list):
        raise ProblemFormatError("entries must be a list")
    entries = []
    for pos, item in enumerate(raw_entries, 1):
        where = f"entries[{pos}]"
        if not isinstance(item, dict) or set(item) != {"idx", "val"}:
            raise ProblemFormatError(f"{where} must be a mapping with keys idx, val")
        if not isinstance(item["idx"], list):
            raise ProblemFormatError(f"{where}.idx must be a list of integers")
        entries.append((item["idx"], _as_number(item["val"], f"{where}.val")))

    q = _as_number_list(data["q"], "q")
    z = _as_number_list(data["z"], "z") if data.get("z") is not None else None
    u = _as_number_list(data["u"], "u") if data.get("u") is not None else None
    return ProblemFile(
        order=data["order"],
        dim=data["dim"],
        entries=tuple(entries),
        q=np.array(q),
        z=None if z is None else np.array(z),
        u=None if u is None else np.array(u),
    )


def emit_problem(problem: ProblemFile, path=None) -> str:
    """Serialize deterministically; writes to ``path`` when given."""
    doc: dict = {
        "order": problem.order,
        "dim": problem.dim,
        "entries": [
            {"idx": list(idx), "val": float(val)} for idx, val in problem.entries
        ],
        "q": [float(x) for x in problem.q],
    }
    if problem.z is not None:
        doc["z"] = [float(x) for x in problem.z]
    if problem.u is not None:
        doc["u"] = [float(x) for x in problem.u]
    text = yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)
    if path is not None:
        Path(path).write_text(text)
    return text
