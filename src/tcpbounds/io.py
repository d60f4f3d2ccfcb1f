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
vectors ``q``, ``z`` and ``u``, whose lengths it checks against ``dim``
before the tensor is built.  Emission is deterministic and floats
round-trip exactly, so ``parse(emit(pf))`` reproduces every field bit for
bit.

Files are read with PyYAML's libyaml-based ``yaml.CSafeLoader`` when PyYAML
was built with libyaml, else with the pure-Python ``yaml.SafeLoader``.
The loader scans, parses and composes the document into a node tree and
resolves each node's tag.  :func:`_load` then builds the Python objects in
one recursive pass over that tree: mappings with scalar keys, sequences, and
scalars tagged ``null``, ``bool``, ``int``, ``float`` or ``str``, each scalar
through the loader's own constructor for its tag, so ``012`` is octal and
``1e5`` a string as YAML 1.1 has it.  Any other document (an alias, a merge
key, a non-scalar key, any other tag), or one whose pass fails, is built
again whole by PyYAML's own ``construct_document``.  So every document gives
what ``yaml.load`` gives, or raises the same error, which :func:`parse_problem`
reports as not valid YAML whatever its type.  Both loaders feed the same
resolver and constructors, so a document both accept gives the same Python
objects.  Two known differences: libyaml accepts a tab as separating white
space, after ``order:`` or after a comma in ``[1.0, 2.0]``, and composes a
list nested 500 deep, where the pure-Python loader refuses either.  The detail
after ``not valid YAML:`` also differs between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ProblemFormatError
from .solve import TcpInstance
from .tensor import DenseTensor, _as_index, _require_int

__all__ = ["ProblemFile", "parse_problem", "emit_problem"]

_TOP_KEYS = {"order", "dim", "entries", "q", "z", "u"}

_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_SCALAR_TAGS = frozenset(
    f"tag:yaml.org,2002:{name}" for name in ("null", "bool", "int", "float", "str")
)
_SEQ_TAG = "tag:yaml.org,2002:seq"
_MAP_TAG = "tag:yaml.org,2002:map"


class _Fallback(Exception):
    """The document needs PyYAML's own construction."""


def _load(text: str):
    """``yaml.load(text, Loader=_LOADER)``, with plain documents built in one pass."""
    loader = _LOADER(text)
    try:
        node = loader.get_single_node()
        if node is None:
            return None
        try:
            return _build(loader, node, set())
        except Exception:
            # Whatever the pass met (a node it leaves to PyYAML, a scalar its
            # constructor refuses, a nesting deeper than the recursion
            # limit), PyYAML's driver then gives the result or error, in its
            # own order.
            return loader.construct_document(node)
    finally:
        loader.dispose()


def _build(loader, node, seen: set):
    # A node met twice is an alias, perhaps of a node that contains it.
    if node in seen:
        raise _Fallback
    seen.add(node)
    tag = node.tag
    if tag in _SCALAR_TAGS and type(node) is yaml.ScalarNode:
        return loader.yaml_constructors[tag](loader, node)
    if tag == _SEQ_TAG and type(node) is yaml.SequenceNode:
        return [_build(loader, item, seen) for item in node.value]
    if tag == _MAP_TAG and type(node) is yaml.MappingNode:
        data = {}
        for key_node, value_node in node.value:
            # A merge key (<<) is tagged merge, so it falls back too.
            if key_node.tag not in _SCALAR_TAGS:
                raise _Fallback
            data[_build(loader, key_node, seen)] = _build(loader, value_node, seen)
        return data
    raise _Fallback


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """Validated contents of a problem file.

    ``order``, ``dim`` and ``entries`` are canonicalized at construction to
    the tensor's own, its entries in index order, so zeros (``-0.0``
    included) are dropped, a numpy integer order or dim is a Python int, and
    two files describing the same tensor emit identically.  Equality is
    identity (``eq=False``).
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
            # q, z and u are checked against dim before the tensor is built,
            # so a dim that no q matches never reaches its dim-sized tables;
            # dim's own check comes first, so a non-integer dim is named.
            _require_int(self.dim, "dim", 1)
            for name in ("q", "z", "u"):
                value = self._vector_field(name, getattr(self, name), required=name == "q")
                object.__setattr__(self, name, value)
            for raw_idx, val in self.entries:
                idx = _as_index(raw_idx)
                if idx in clean:
                    raise ValueError(f"duplicate index {list(idx)} in entries")
                clean[idx] = val
            tensor = DenseTensor(self.order, self.dim, clean)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from None
        object.__setattr__(self, "_tensor", tensor)
        object.__setattr__(self, "order", tensor.order)
        object.__setattr__(self, "dim", tensor.dim)
        object.__setattr__(self, "entries", tuple(sorted(tensor.entries.items())))

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
        data = _load(text)
    except Exception as exc:
        raise ProblemFormatError(f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("the document must be a mapping of fields")
    # YAML keys need not be strings, nor of one type.
    unknown = sorted(set(data) - _TOP_KEYS, key=str)
    if unknown:
        raise ProblemFormatError(f"unknown fields: {', '.join(map(str, unknown))}")
    for required in ("order", "dim", "q"):
        if required not in data:
            raise ProblemFormatError(f"field '{required}' is required")

    raw_entries = [] if data.get("entries") is None else data["entries"]
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
