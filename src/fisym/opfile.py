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
in their place raises ValueError.  Floats are serialized with ``repr``,
so export -> import -> export is byte identical for POVMs and operator
sets.  A state set is read back as the eigenvectors of its projectors,
so its second export has the same weights and matrices equal to
rounding.

A state file holds one density matrix: copies 1, no subspace, and
exactly one element.  :func:`obj_to_density` reads it; this module is
the only reader of the format.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from . import _tol, matcore
from .designs import OperatorSet, WeightedStateSet
from .povm import Povm
from .states import DensityMatrix

__all__ = [
    "matrix_to_json",
    "json_to_matrix",
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
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def json_to_matrix(obj) -> np.ndarray:
    """Complex matrix from nested rows of [re, im] pairs.

    Each part must be a JSON number: an int or a float, not a bool or a
    string.  The parts are flattened, then checked and converted in one
    pass, which costs less than converting them pair by pair.
    """
    try:
        pairs = list(chain.from_iterable(obj))
        parts = list(chain.from_iterable(pairs))
        bad = set(map(type, parts)) - {int, float}
        if bad:
            raise ValueError(f"{bad.pop().__name__} is not a number")
        values = np.array(parts, dtype=float)
        n = len(obj)
        if set(map(len, obj)) != {n} or set(map(len, pairs)) != {2}:
            raise ValueError("the matrix is not n rows of n [re, im] pairs")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed matrix entry: {exc}") from exc
    m = values.view(complex).reshape(n, n)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _field(entry, key: str, convert):
    """``convert(entry[key])`` for an element or header field, with any
    missing key or unconvertible value raised as ValueError."""
    if not isinstance(entry, dict) or key not in entry:
        raise ValueError(f"operator-file entry is missing the {key!r} field")
    try:
        return convert(entry[key])
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
    dim = _field(obj, "dim", _integer)
    copies = _field(obj, "copies", _integer)
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
    obj["elements"] = [{"matrix": matrix_to_json(e)} for e in p.elements]
    return obj


def obj_to_povm(obj) -> Povm:
    dim, copies, subspace = _header(obj)
    elements = [_field(e, "matrix", json_to_matrix) for e in obj["elements"]]
    return Povm(elements, copies=copies, base_dim=dim, subspace=subspace)


def _vector_from_projector(m: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(matcore.require_hermitian(m))
    if vals[-1] <= 0:
        raise ValueError("projector entry has no positive eigenvalue")
    if np.abs(vals[:-1]).max() > _tol.RANK_TOL * vals[-1]:
        raise ValueError("state-set entry is not a rank-one projector")
    v = vecs[:, -1]
    for x in v:
        if abs(x) > _tol.PHASE_ANCHOR_TOL:
            return v * (x.conj() / abs(x))
    raise ValueError("zero eigenvector")


def state_set_to_obj(s: WeightedStateSet) -> dict:
    elements = []
    for w, v in zip(s.weights, s.vectors):
        elements.append({
            "weight": float(w),
            "matrix": matrix_to_json(np.outer(v, v.conj())),
        })
    return {"dim": s.dim, "copies": 1, "elements": elements}


def obj_to_state_set(obj) -> WeightedStateSet:
    dim, copies, subspace = _header(obj)
    if copies != 1 or subspace is not None:
        raise ValueError("a state set is a single-copy object")
    vectors, weights = [], []
    for e in obj["elements"]:
        weights.append(_field(e, "weight", _number))
        vectors.append(_vector_from_projector(
            _field(e, "matrix", json_to_matrix)))
    s = WeightedStateSet(np.array(vectors), np.array(weights))
    if s.dim != dim:
        raise ValueError(f"header dim {dim} does not match {s.dim}-dimensional "
                         "states")
    return s


def operator_set_to_obj(s: OperatorSet) -> dict:
    return {
        "dim": s.dim,
        "copies": 1,
        "elements": [{"matrix": matrix_to_json(e)} for e in s.elements],
    }


def obj_to_operator_set(obj) -> OperatorSet:
    dim, copies, _ = _header(obj)
    ops = OperatorSet(tuple(_field(e, "matrix", json_to_matrix)
                            for e in obj["elements"]))
    if ops.dim != dim ** copies:
        raise ValueError(f"header dim {dim} and copies {copies} do not match "
                         f"{ops.dim}-dimensional operators")
    return ops


def obj_to_density(obj) -> DensityMatrix:
    dim, copies, subspace = _header(obj)
    if copies != 1 or subspace is not None or len(obj["elements"]) != 1:
        raise ValueError("a state file is an operator file with copies 1 "
                         "and exactly one element")
    m = _field(obj["elements"][0], "matrix", json_to_matrix)
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
