"""Property test for the operator-file loaders.

The loaders read JSON from outside the program.  Whatever a file holds,
they return an object or raise ``ValueError``, which ``fisym verify``
reports as a failed check; no other exception may escape.  Files are
fuzzed by replacing or deleting nodes of valid files.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from fisym.designs import OperatorSet, sic_d3, sic_qubit
from fisym.opfile import (
    obj_to_operator_set,
    obj_to_povm,
    obj_to_state_set,
    operator_set_to_obj,
    povm_to_obj,
    state_set_to_obj,
)
from fisym.povm import collective_sic_qubit, twocopy_design_povm

VALID = (
    povm_to_obj(collective_sic_qubit()),
    povm_to_obj(twocopy_design_povm(sic_qubit())),
    state_set_to_obj(sic_d3(0.1)),
    operator_set_to_obj(OperatorSet(tuple(sic_qubit().projectors()))),
)
LOADERS = (obj_to_povm, obj_to_state_set, obj_to_operator_set)

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
