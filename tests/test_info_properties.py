"""Property tests for the information pipeline.

``fisher_report`` computes the tangents, I and J once and derives both
verdicts from them.  These tests draw random states and POVMs and check
that the report agrees with the stand-alone functions, with verdicts
recomputed from the matrices it returns, and with the finite-difference
oracle; and that no single-copy POVM beats tr(J^-1 I) <= d - 1
(Gill & Massar, PRA 61, 042312, 2000).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.designs import sic_d3
from fisym.fisher import (
    fisher_fd_oracle,
    fisher_matrix,
    fisher_report,
    fisher_symmetry_check,
    gm_check,
)
from fisym.matcore import mat_power
from fisym.povm import Povm, minimal_tight_coherent_d3, twocopy_design_povm
from fisym.states import (
    AffineMixed,
    BlochQubit,
    DensityMatrix,
    PureCanonical,
    PureState,
    qfi_matrix,
    tangent_ops,
)
from fisym.tomosim import scheme_povm

SETTINGS = settings(max_examples=50)  # on the suite profile (conftest.py)

QUBIT_POVMS = {name: scheme_povm(name)
               for name in ("sic-single", "mub-single", "collective-sic")}
D3_POVMS = {
    "tight-coherent-d3": minimal_tight_coherent_d3(),
    "twocopy-design": twocopy_design_povm(sic_d3(0.0)),
}

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


def complex_array(shape):
    return st.tuples(hnp.arrays(float, shape, elements=unit),
                     hnp.arrays(float, shape, elements=unit)).map(
        lambda pair: pair[0] + 1j * pair[1])


@st.composite
def bloch_vectors(draw):
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    radius = draw(st.floats(0.0, 0.95))
    return np.zeros(3) if norm < 1e-3 else radius * v / norm


@st.composite
def pure_d3(draw):
    v = draw(complex_array(3))
    norm = float(np.linalg.norm(v))
    if norm < 1e-2:
        v, norm = np.array([1.0, 0.0, 0.0], dtype=complex), 1.0
    return PureState(v / norm)


@st.composite
def full_rank(draw, d):
    g = draw(complex_array((d, d)))
    w = g @ g.conj().T + 1e-3 * np.eye(d)
    mix = draw(st.floats(0.05, 0.9))
    return DensityMatrix((1 - mix) * w / np.trace(w).real + mix * np.eye(d) / d)


@st.composite
def single_copy_povms(draw, d):
    n = draw(st.integers(d, d + 3))
    blocks = []
    for _ in range(n):
        r = draw(st.integers(1, d))
        g = draw(complex_array((d, r)))
        blocks.append(g @ g.conj().T + 1e-3 * np.eye(d))
    root = mat_power(sum(blocks), -0.5)
    return Povm([root @ b @ root for b in blocks], copies=1, base_dim=d)


def charts():
    qubit = st.tuples(
        st.sampled_from(sorted(QUBIT_POVMS)),
        bloch_vectors().map(BlochQubit))
    d3 = st.tuples(
        st.sampled_from(sorted(D3_POVMS)),
        st.one_of(pure_d3().map(PureCanonical), full_rank(3).map(AffineMixed)))
    return st.one_of(qubit, d3)


def povm_named(name):
    return QUBIT_POVMS[name] if name in QUBIT_POVMS else D3_POVMS[name]


@SETTINGS
@given(case=charts())
def test_report_agrees_with_standalone_functions(case):
    name, par = case
    p = povm_named(name)
    rep = fisher_report(par, p)
    assert np.array_equal(rep.i_matrix, fisher_matrix(par, p))
    j_alone = qfi_matrix(par.base(), tangent_ops(par))
    assert np.array_equal(rep.j_matrix, j_alone)
    assert gm_check(par, p) == rep.gm
    assert fisher_symmetry_check(par, p) == rep.symmetry


@pytest.mark.filterwarnings("ignore:outcome .* dropped")
@SETTINGS
@given(case=charts(), drop_threshold=st.sampled_from([1e-12, 0.02, 0.1]))
def test_verdicts_follow_returned_matrices(case, drop_threshold):
    # with a raised drop threshold both verdicts must still be computed
    # from the Fisher matrix the report returns
    name, par = case
    rep = fisher_report(par, povm_named(name), drop_threshold=drop_threshold)
    i_mat, j_mat = rep.i_matrix, rep.j_matrix
    value = float(np.trace(np.linalg.solve(j_mat, i_mat)))
    assert rep.gm.value == pytest.approx(value, rel=1e-10, abs=1e-12)
    assert rep.gm.margin == pytest.approx(rep.gm.bound - value, abs=1e-10)
    fit = float(np.sum(j_mat * i_mat) / np.sum(j_mat * j_mat))
    assert rep.symmetry.scale_fit == pytest.approx(fit, rel=1e-10, abs=1e-14)
    # every law checked here lives on the natural bound: never violated
    assert rep.gm.verdict in ("equality", "strict")


def loop_fisher(par, p):
    """Element-by-element reference for the stacked contraction."""
    m = par.base().matrix
    if p.copies == 1:
        sigma, ders = m, par.tangents()
    else:
        sigma = np.kron(m, m)
        ders = [np.kron(t, m) + np.kron(m, t) for t in par.tangents()]
    probs = np.array([np.trace(sigma @ e).real for e in p.elements])
    grads = np.array([[np.trace(t @ e).real for t in ders]
                      for e in p.elements])
    kept = probs > 1e-12
    g = grads[kept]
    return (g / probs[kept, None]).T @ g


@SETTINGS
@given(case=charts())
def test_fisher_matrix_matches_loop_reference(case):
    name, par = case
    p = povm_named(name)
    ref = loop_fisher(par, p)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.max(np.abs(fisher_matrix(par, p) - ref)) < 1e-12 * scale


@SETTINGS
@given(case=charts())
def test_fisher_matrix_matches_fd_oracle(case):
    name, par = case
    p = povm_named(name)
    i_an = fisher_matrix(par, p)
    i_fd = fisher_fd_oracle(par, p)
    scale = max(1.0, float(np.abs(i_an).max()))
    assert np.max(np.abs(i_an - i_fd)) < 1e-5 * scale


@SETTINGS
@given(data=st.data(), d=st.sampled_from([2, 3]))
def test_single_copy_never_beats_gill_massar(data, d):
    p = data.draw(single_copy_povms(d))
    rho = data.draw(full_rank(d))
    v = gm_check(AffineMixed(rho), p, mode="single-copy")
    assert v.bound == d - 1
    assert v.value <= v.bound + 1e-9 * v.bound
    assert v.verdict != "violated"
