"""Property test for the matrix boundary.

Every public function that takes a matrix validates it once, through
``matcore.require_hermitian``: a matrix that is not Hermitian, or that
has NaN or an infinity in the real or imaginary part of any entry, raises
``ValueError`` with a message of its own (not a LAPACK failure further
in).  ``PureState`` holds state vectors to the same rule: a NaN or an
infinity in any entry raises ``ValueError``, also where the vector goes
on to ``PureCanonical``.  Each case below first accepts a valid matrix
or vector in its slot, so the corruption is the only reason it can
raise.  The arrays that the validated types keep are read-only copies,
so no later write can undo the check.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.designs import (OperatorSet, WeightedStateSet,
                           g2design_from_unitary_design, sic_qubit)
from fisym.fisher import gm_value, optimal_fisher, wmse_bound
from fisym.matcore import mat_power, require_hermitian
from fisym.povm import NAMED_POVMS, Povm
from fisym.states import (DensityMatrix, Parametrization, PureCanonical,
                          PureState, density_from_bloch, qfi_matrix, sld)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _traceless(rho):
    return rho - np.eye(len(rho)) / len(rho)


# name -> (valid matrix in the slot from a full-rank state rho, call)
CASES = {
    "require_hermitian": (None, require_hermitian),
    "mat_power": (None, lambda m: mat_power(m, -0.5)),
    "DensityMatrix": (None, DensityMatrix),
    "Povm": (None, lambda m: Povm([m], copies=1, base_dim=len(m))),
    "OperatorSet": (None, lambda m: OperatorSet((m,))),
    "Parametrization": (_traceless, lambda m: Parametrization(
        DensityMatrix.maximally_mixed(len(m)), [m])),
    "sld": (_traceless, lambda m: sld(
        DensityMatrix.maximally_mixed(len(m)), m)),
    "qfi_matrix": (_traceless, lambda m: qfi_matrix(
        DensityMatrix.maximally_mixed(len(m)), [m])),
    "gm_value/j": (None, lambda m: gm_value(m, np.eye(len(m)))),
    "gm_value/i": (None, lambda m: gm_value(np.eye(len(m)), m)),
    "wmse_bound/j": (None, lambda m: wmse_bound(
        m, np.eye(len(m)), 2, "separable")),
    "wmse_bound/w": (None, lambda m: wmse_bound(
        np.eye(len(m)), m, 2, "two-copy")),
    "optimal_fisher/j": (None, lambda m: optimal_fisher(
        m, np.eye(len(m)), 2, "separable")),
    "optimal_fisher/w": (None, lambda m: optimal_fisher(
        np.eye(len(m)), m, 2, "two-copy")),
    "g2design_from_unitary_design": (None, lambda m: (
        g2design_from_unitary_design([np.eye(len(m))], [1.0], m))),
}


@st.composite
def full_rank_matrices(draw):
    d = draw(st.integers(2, 3))
    g = draw(hnp.arrays(float, (d, d), elements=unit)) + 1j * draw(
        hnp.arrays(float, (d, d), elements=unit))
    w = g @ g.conj().T + 0.2 * np.eye(d)
    return w / np.trace(w).real


@st.composite
def corruptions(draw):
    """(kind, part, row, col, size) for one entry of a d x d matrix, d >= 2."""
    kind = draw(st.sampled_from(["asymmetric", "nan", "inf", "-inf"]))
    part = draw(st.sampled_from(["real", "imag"]))
    row, col = draw(st.integers(0, 1)), draw(st.integers(0, 1))
    if kind == "asymmetric":
        row, col = 0, 1
    size = draw(st.floats(1e-6, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
    return kind, part, row, col, size


def corrupt(m, kind, part, row, col, size):
    bad = np.array(m, dtype=complex)
    view = bad.real if part == "real" else bad.imag
    if kind == "asymmetric":
        view[row, col] += size  # (col, row) is left alone
    else:
        view[row, col] = float(kind)
    return bad


@settings(max_examples=300)
@given(name=st.sampled_from(sorted(CASES)), rho=full_rank_matrices(),
       how=corruptions())
def test_public_matrix_functions_reject_bad_matrices(name, rho, how):
    slot, call = CASES[name]
    m = rho if slot is None else slot(rho)
    call(m)  # the valid matrix passes
    with pytest.raises(ValueError) as exc:
        call(corrupt(m, *how))
    assert exc.type is ValueError


# name -> call on a unit state vector
VECTOR_CASES = {
    "PureState": PureState,
    "PureCanonical": lambda v: PureCanonical(PureState(v)),
}


@st.composite
def unit_vectors(draw):
    d = draw(st.integers(2, 3))
    v = draw(hnp.arrays(float, d, elements=unit)) + 1j * draw(
        hnp.arrays(float, d, elements=unit))
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.eye(d, dtype=complex)[0]


@settings(max_examples=100)
@given(name=st.sampled_from(sorted(VECTOR_CASES)), v=unit_vectors(),
       kind=st.sampled_from(["nan", "inf", "-inf"]),
       part=st.sampled_from(["real", "imag"]), index=st.integers(0, 1))
def test_state_vectors_reject_non_finite_entries(name, v, kind, part, index):
    call = VECTOR_CASES[name]
    call(v)  # the valid vector passes
    bad = v.copy()
    (bad.real if part == "real" else bad.imag)[index] = float(kind)
    with pytest.raises(ValueError, match="finite") as exc:
        call(bad)
    assert exc.type is ValueError


# name -> array a validated type keeps after its check
CHECKED = {
    "DensityMatrix.matrix": lambda: density_from_bloch([0.1, 0, 0]).matrix,
    "Povm.elements": lambda: NAMED_POVMS["sic-single"].elements,
    "OperatorSet.elements": lambda: OperatorSet(
        sic_qubit().projectors()).elements,
    "WeightedStateSet.vectors": lambda: sic_qubit().vectors,
    "WeightedStateSet.weights": lambda: sic_qubit().weights,
    "PureState.vector": lambda: PureState([1.0, 0.0]).vector,
}


@pytest.mark.parametrize("name", sorted(CHECKED))
def test_checked_arrays_are_read_only(name):
    # a write after the check would reach kernels that trust the check
    with pytest.raises(ValueError, match="read-only"):
        CHECKED[name]().flat[0] = np.nan


def test_povm_is_frozen():
    p = NAMED_POVMS["sic-single"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.elements = np.zeros_like(p.elements)


def test_callers_arrays_stay_writable():
    # the checked copies are frozen, never the arrays passed in
    rho = np.diag([0.5, 0.5]).astype(complex)
    stack = np.array([rho, rho])
    vectors = sic_qubit().vectors.copy()
    weights = np.full(4, 0.5)
    vector = np.array([1.0, 0.0], dtype=complex)
    DensityMatrix(rho)
    Povm(stack, copies=1, base_dim=2)
    OperatorSet(stack)
    WeightedStateSet(vectors, weights)
    psi = PureState(vector)
    for a in (rho, stack, vectors, weights, vector):
        a.flat[0] = a.flat[0]
    # and writing to them leaves the checked copy alone
    vector[0] = np.nan
    assert np.all(np.isfinite(psi.vector))
