"""JSON operator files.

One format stores POVMs, weighted state sets, operator sets and states:

    {
      "dim": 2,                 base dimension d
      "copies": 2,              1 or 2; elements act on d^copies
      "subspace": "symmetric",  optional, two-copy POVMs on P_+ only
      "elements": [
        {"weight": 0.75, "matrix": [[[re, im], ...], ...]},
        ...
      ]
    }

Matrices are nested rows of [re, im] pairs.  ``weight`` appears for state
sets (whose matrices are the rank-one projectors) and is omitted for raw
operators.  Entries and weights are JSON numbers; a string or a boolean
in their place raises ValueError.  A file's elements are read and
written as one (k, n, n) stack: the reader flattens every matrix of the
file at once and checks the parts' types, the shape and finiteness once
for the whole stack, and a state set's vectors come from one stacked
eigendecomposition.  Floats are serialized with ``repr``, so export ->
import -> export is byte identical for POVMs and operator sets.  A state
set is read back as the eigenvectors of its projectors, so its second
export has the same weights and matrices equal to rounding.

A state file holds one density matrix: copies 1, no subspace, and
exactly one element.  :func:`obj_to_density` reads it; this module is
the only reader of the format.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from operator import itemgetter

import numpy as np

from . import _tol, matcore
from .designs import OperatorSet, WeightedStateSet
from .povm import Povm
from .states import DensityMatrix

__all__ = [
    "matrix_to_json",
    "povm_to_obj",
    "obj_to_povm",
    "state_set_to_obj",
    "obj_to_state_set",
    "operator_set_to_obj",
    "obj_to_operator_set",
    "obj_to_density",
    "save_json",
    "load_json",
]


def matrix_to_json(m: np.ndarray) -> list:
    """Nested rows of [re, im] pairs of a matrix, or a list of them for a
    stack of matrices, with the same floats as ``float`` of each part."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


def _floats(parts: list) -> np.ndarray:
    """A list of JSON numbers as a float array.  Each must be an int or a
    float, not a bool, a string or null; anything else raises
    ValueError."""
    bad = set(map(type, parts)) - {int, float}
    if bad:
        raise ValueError(f"{bad.pop().__name__} is not a number")
    return np.array(parts, dtype=float)


def _stack(matrices: list) -> np.ndarray:
    """k matrices of nested rows of [re, im] pairs as one (k, n, n)
    complex stack.

    The parts of every matrix are flattened at once and then checked in
    one pass each: their types (:func:`_floats`), the shape (every
    matrix n rows of n pairs, for one n) and finiteness.
    """
    try:
        rows = list(chain.from_iterable(matrices))
        pairs = list(chain.from_iterable(rows))
        values = _floats(list(chain.from_iterable(pairs)))
        n = len(matrices[0])
        if (set(map(len, matrices)) != {n} or set(map(len, rows)) != {n}
                or set(map(len, pairs)) != {2}):
            raise ValueError("the matrices are not n rows of n [re, im] "
                             "pairs, for one n")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    m = values.view(complex).reshape(len(matrices), n, n)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _column(obj, key: str, convert):
    """``convert`` of the list of the ``key`` fields of all elements of
    an operator file, with any missing key or unconvertible value raised
    as ValueError; ``convert`` raises no KeyError or TypeError."""
    try:
        return convert(list(map(itemgetter(key), obj["elements"])))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"operator-file entry is missing the {key!r} "
                         "field") from exc
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"bad {key!r} field: {exc}") from exc


def _entries(**columns) -> list:
    """The element list of a file: one dict per element, whose fields
    are the keyword names in order and whose values are the next item of
    each list."""
    return list(map(dict, map(zip, repeat(columns), zip(*columns.values()))))


def _field(entry, key: str) -> int:
    """``_integer(entry[key])`` for a header field, with any missing key or
    value that is not an integer raised as ValueError."""
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"operator-file entry is missing the {key!r} field")
    try:
        return _integer(entry[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {key!r} field: {exc}") from exc


def _integer(x) -> int:
    """A JSON integer as an int: an int that is not a bool, or a float
    with no fractional part.  Anything else (a bool, a string, a
    fraction, NaN or an infinity) raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or (
            isinstance(x, float) and not x.is_integer()):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _number(x) -> float:
    """A JSON number as a float: an int or a float that is not a bool.
    Anything else (a bool, a string, null, a list) raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{x!r} is not a number")
    return float(x)


def _header(obj) -> tuple[int, int, str | None]:
    if not isinstance(obj, dict):
        raise ValueError("operator file must contain a JSON object")
    dim = _field(obj, "dim")
    copies = _field(obj, "copies")
    if copies not in (1, 2):
        raise ValueError("copies must be 1 or 2")
    subspace = obj.get("subspace")
    if subspace not in (None, "symmetric"):
        raise ValueError(f"unknown subspace {subspace!r}")
    if not isinstance(obj.get("elements"), list) or not obj["elements"]:
        raise ValueError("operator file needs a nonempty element list")
    return dim, copies, subspace


def povm_to_obj(p: Povm) -> dict:
    obj = {"dim": p.base_dim, "copies": p.copies}
    if p.subspace is not None:
        obj["subspace"] = p.subspace
    obj["elements"] = _entries(matrix=matrix_to_json(p.elements))
    return obj


def obj_to_povm(obj) -> Povm:
    dim, copies, subspace = _header(obj)
    return Povm(_column(obj, "matrix", _stack), copies=copies, base_dim=dim,
                subspace=subspace)


def _vectors(m: np.ndarray) -> np.ndarray:
    """The unit vectors of a (k, n, n) stack of rank-one projectors, from
    one stacked eigendecomposition.  Each row's phase is set by its first
    entry larger than ``_tol.PHASE_ANCHOR_TOL``, made real and positive."""
    vals, vecs = np.linalg.eigh(matcore.require_hermitian(m))
    if np.any(vals[:, -1] <= 0):
        raise ValueError("projector entry has no positive eigenvalue")
    # a 1 x 1 projector has no other eigenvalue, and is its one vector
    if np.any(np.abs(vals[:, :-1]).max(axis=1, initial=0.0)
              > _tol.RANK_TOL * vals[:, -1]):
        raise ValueError("state-set entry is not a rank-one projector")
    # a unit vector has an entry of size at least 1/sqrt(n), so every row
    # has an anchor
    v = vecs[:, :, -1]
    first = (np.abs(v) > _tol.PHASE_ANCHOR_TOL).argmax(axis=1)
    x = np.take_along_axis(v, first[:, None], axis=1)
    return v * (x.conj() / np.abs(x))


def state_set_to_obj(s: WeightedStateSet) -> dict:
    return {"dim": s.dim, "copies": 1, "elements": _entries(
        weight=s.weights.tolist(), matrix=matrix_to_json(s.projectors()))}


def obj_to_state_set(obj) -> WeightedStateSet:
    dim, copies, subspace = _header(obj)
    if copies != 1 or subspace is not None:
        raise ValueError("a state set is a single-copy object")
    s = WeightedStateSet(_vectors(_column(obj, "matrix", _stack)),
                         _column(obj, "weight", _floats))
    if s.dim != dim:
        raise ValueError(f"header dim {dim} does not match {s.dim}-dimensional "
                         "states")
    return s


def operator_set_to_obj(s: OperatorSet) -> dict:
    return {"dim": s.dim, "copies": 1,
            "elements": _entries(matrix=matrix_to_json(s.elements))}


def obj_to_operator_set(obj) -> OperatorSet:
    dim, copies, _ = _header(obj)
    ops = OperatorSet(_column(obj, "matrix", _stack))
    if ops.dim != dim ** copies:
        raise ValueError(f"header dim {dim} and copies {copies} do not match "
                         f"{ops.dim}-dimensional operators")
    return ops


def obj_to_density(obj) -> DensityMatrix:
    dim, copies, subspace = _header(obj)
    if copies != 1 or subspace is not None or len(obj["elements"]) != 1:
        raise ValueError("a state file is an operator file with copies 1 "
                         "and exactly one element")
    m = _column(obj, "matrix", _stack)[0]
    if len(m) != dim:
        raise ValueError(f"header dim {dim} does not match the "
                         f"{len(m)} x {len(m)} matrix")
    return DensityMatrix(m)


def save_json(obj: dict, path) -> None:
    """Write obj as JSON.  NaN and infinities, which JSON lacks, raise
    ValueError before the file is opened."""
    text = json.dumps(obj, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
