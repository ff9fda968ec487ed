"""Property tests for the operator files.

The loaders read JSON from outside the program.  Whatever a file holds,
they return an object or raise ``ValueError``, which ``fisym verify``
reports as a failed check and ``fisym fisher --state`` as a usage error;
no other exception may escape.  Files are
fuzzed by replacing or deleting nodes of valid files.

Writing a file, loading it and writing the result again reproduces the
first file byte for byte for POVMs and operator sets.  A state set is
stored as projectors and loaded as eigenvectors, so its second file has
the same weights and its matrices agree to rounding.
"""

import copy
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.designs import OperatorSet, WeightedStateSet, sic_d3, sic_qubit
from fisym.matcore import mat_power
from fisym.opfile import (
    load_json,
    matrix_to_json,
    obj_to_density,
    obj_to_operator_set,
    obj_to_povm,
    obj_to_state_set,
    operator_set_to_obj,
    povm_to_obj,
    save_json,
    state_set_to_obj,
)
from fisym.povm import Povm, collective_sic_qubit, twocopy_design_povm

VALID = (
    povm_to_obj(collective_sic_qubit()),
    povm_to_obj(twocopy_design_povm(sic_qubit())),
    state_set_to_obj(sic_d3(0.1)),
    operator_set_to_obj(OperatorSet(tuple(sic_qubit().projectors()))),
    {"dim": 2, "copies": 1,
     "elements": [{"matrix": matrix_to_json(np.diag([0.75, 0.25]))}]},
)
LOADERS = (obj_to_povm, obj_to_state_set, obj_to_operator_set,
           obj_to_density)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(["dim", "copies", "elements", "matrix", "weight",
                         "subspace"]) | st.text(max_size=4),
        inner, max_size=4),
    max_leaves=10)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


@st.composite
def fuzzed_files(draw):
    """A valid file with one to three nodes replaced or deleted."""
    obj = copy.deepcopy(draw(st.sampled_from(VALID)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(json_values)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return obj


@settings(max_examples=400)
@given(obj=fuzzed_files(), load=st.sampled_from(LOADERS))
def test_loaders_raise_only_value_error(obj, load):
    try:
        load(obj)
    except ValueError:
        pass


unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def psd_blocks(draw, dim, count):
    """``count`` random positive definite dim x dim matrices."""
    g = draw(hnp.arrays(float, (count, dim, dim), elements=unit)) + 1j * draw(
        hnp.arrays(float, (count, dim, dim), elements=unit))
    return g @ g.conj().swapaxes(1, 2) + 1e-3 * np.eye(dim)


@st.composite
def povms(draw):
    base_dim = draw(st.integers(2, 3))
    copies = draw(st.integers(1, 2))
    blocks = draw(psd_blocks(base_dim ** copies, draw(st.integers(1, 5))))
    root = mat_power(blocks.sum(axis=0), -0.5)
    subspace = None
    if copies == 2:
        subspace = draw(st.sampled_from([None, "symmetric"]))
    elements = root @ blocks @ root
    elements = 0.5 * (elements + elements.conj().swapaxes(1, 2))
    return Povm(list(elements), copies=copies, base_dim=base_dim,
                subspace=subspace)


@st.composite
def state_sets(draw):
    dim, size = draw(st.integers(2, 3)), draw(st.integers(1, 6))
    v = draw(hnp.arrays(float, (size, dim), elements=unit)) + 1j * draw(
        hnp.arrays(float, (size, dim), elements=unit))
    v[np.linalg.norm(v, axis=1) < 1e-3, 0] = 1.0
    weights = draw(hnp.arrays(float, size, elements=st.floats(1e-3, 10.0)))
    return WeightedStateSet(v / np.linalg.norm(v, axis=1, keepdims=True),
                            weights)


def operator_sets():
    return st.integers(2, 3).flatmap(
        lambda d: psd_blocks(d, 4)).map(lambda b: OperatorSet(tuple(b)))


def _file_bytes(obj, path) -> bytes:
    save_json(obj, path)
    with open(path, "rb") as fh:
        return fh.read()


def _write_load_write(obj, to_obj, from_obj) -> tuple[bytes, bytes]:
    """Bytes of the file of ``obj`` and of the file of what it loads as."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ops.json")
        first = _file_bytes(to_obj(obj), path)
        second = _file_bytes(to_obj(from_obj(load_json(path))), path)
    return first, second


@settings(max_examples=100)
@given(p=povms())
def test_povm_file_round_trip_is_byte_identical(p):
    first, second = _write_load_write(p, povm_to_obj, obj_to_povm)
    assert first == second


@settings(max_examples=100)
@given(ops=operator_sets())
def test_operator_set_file_round_trip_is_byte_identical(ops):
    first, second = _write_load_write(ops, operator_set_to_obj,
                                      obj_to_operator_set)
    assert first == second


@settings(max_examples=100)
@given(s=state_sets())
def test_state_set_file_round_trip_keeps_weights_and_projectors(s):
    first, second = (json.loads(b) for b in _write_load_write(
        s, state_set_to_obj, obj_to_state_set))
    assert first["dim"] == second["dim"]
    assert [e["weight"] for e in first["elements"]] == [
        e["weight"] for e in second["elements"]]
    for a, b in zip(first["elements"], second["elements"]):
        assert np.abs(np.subtract(a["matrix"], b["matrix"])).max() < 1e-14
