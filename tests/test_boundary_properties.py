"""Property test for the matrix boundary.

Every public function that takes a matrix validates it once, through
``matcore.require_hermitian``: a matrix that is not Hermitian, or that
has NaN or an infinity in the real or imaginary part of any entry, raises
``ValueError`` with a message of its own (not a LAPACK failure further
in).  Each case below first accepts a valid matrix in its slot, so the
corruption is the only reason it can raise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.designs import OperatorSet, g2design_from_unitary_design
from fisym.fisher import gm_value, optimal_fisher, wmse_bound
from fisym.matcore import hermitian_eig, mat_power, require_hermitian
from fisym.povm import Povm
from fisym.states import AffineMixed, DensityMatrix, qfi_matrix, sld

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def _traceless(rho):
    return rho - np.eye(len(rho)) / len(rho)


# name -> (valid matrix in the slot from a full-rank state rho, call)
CASES = {
    "require_hermitian": (None, require_hermitian),
    "hermitian_eig": (None, hermitian_eig),
    "mat_power": (None, lambda m: mat_power(m, -0.5)),
    "DensityMatrix": (None, DensityMatrix),
    "Povm": (None, lambda m: Povm([m], copies=1, base_dim=len(m))),
    "OperatorSet": (None, lambda m: OperatorSet((m,))),
    "AffineMixed": (_traceless, lambda m: AffineMixed(
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
