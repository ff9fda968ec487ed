"""Property tests for the information pipeline.

``fisher_report`` computes the tangents, I and J once and derives both
verdicts from them.  These tests draw random states and POVMs and check
that the report agrees with the stand-alone functions, with verdicts
recomputed from the matrices it returns, and with the finite-difference
oracle; and that no single-copy POVM beats tr(J^-1 I) <= d - 1
(Gill & Massar, PRA 61, 042312, 2000).

A density matrix makes the one rank decision, from the spectrum it keeps:
its numerical rank is the count of eigenvalues above RANK_TOL, pure is
rank 1 and full rank is rank d.  Near-pure states straddle the tolerance;
the chart, the bound's mode and the SLD solve must follow the same
decision there.  The SLD is solved at every rank and raises only for a
derivative that leaves the support of the state.  The fidelity must
accept whatever state ``DensityMatrix`` accepts.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym._tol import REGULARITY_DERIV_TOL
from fisym.cli import _choose_param
from fisym.designs import sic_d3
from fisym.fisher import (
    _born,
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
    density_from_bloch,
    fidelity,
    qfi_matrix,
    sld,
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
@st.composite
def born_stacks(draw):
    """A POVM of one or two copies on d in {2, 3}, a stack of n operators
    and their states: one state for the whole stack, led by that state as
    ``_probs_and_grads`` passes it, or a stack of n states, one per
    operator, as ``tomosim._sampling_probs`` passes them.  The operators
    are Hermitian, traceless tangents or the states themselves."""
    d = draw(st.sampled_from([2, 3]))
    two_copy = [QUBIT_POVMS["collective-sic"]] if d == 2 else list(
        D3_POVMS.values())
    p = draw(st.one_of(single_copy_povms(d), st.sampled_from(two_copy)))
    n = draw(st.integers(1, 6))
    states = np.array([draw(full_rank(d)).matrix for _ in range(n)])
    g = draw(complex_array((n, d, d)))
    ops = g + g.conj().swapaxes(1, 2)
    ops -= np.trace(ops, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
    if draw(st.booleans()):  # one state
        return p, np.concatenate([states[:1], ops]), states[0]
    return p, states if draw(st.booleans()) else ops, states


@SETTINGS
@given(case=born_stacks())
def test_born_rows_do_not_depend_on_the_stack(case):
    p, ops, rho = case
    stack = _born(ops, rho, p)
    assert stack.shape == (len(ops), p.size)
    for a, op in enumerate(ops):
        alone = _born(op[None], rho if rho.ndim == 2 else rho[a:a + 1], p)
        assert stack[a].tobytes() == alone[0].tobytes()


@SETTINGS
@given(case=charts())
@example(case=("collective-sic", BlochQubit([0.0, 0.35355339, 0.35355339])))
def test_verdicts_follow_returned_matrices(case):
    # both verdicts must be computed from the Fisher matrix the report
    # returns, with the outcomes that the drop rule leaves out
    name, par = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = fisher_report(par, povm_named(name))
    # a dropped outcome may still vary: the one warning is the
    # regularity warning of each such outcome
    steep = [xi for xi, _, dp in rep.dropped if dp > REGULARITY_DERIV_TOL]
    assert [str(w.message).split()[1] for w in caught] == list(map(str, steep))
    assert all(w.category is UserWarning for w in caught)
    i_mat, j_mat = rep.i_matrix, rep.j_matrix
    value = float(np.trace(np.linalg.solve(j_mat, i_mat)))
    assert rep.gm.value == pytest.approx(value, rel=1e-10, abs=1e-12)
    assert rep.gm.margin == pytest.approx(rep.gm.bound - value, abs=1e-10)
    fit = float(np.sum(j_mat * i_mat) / np.sum(j_mat * j_mat))
    assert rep.symmetry.scale_fit == pytest.approx(fit, rel=1e-10, abs=1e-14)
    # every law checked here lives on the natural bound: never violated
    assert rep.gm.verdict in ("equality", "strict")


def loop_fisher(par, p):
    """Element-by-element reference for the stacked contraction, and the
    first-order rounding allowance of the difference between the two.

    A computed p_k = tr(sigma E_k) carries an error of about
    eps * a_k, where a_k = sum_ij |sigma_ij| |E_k,ji| <= ||E_k||_F; near a
    zero of p_k, a_k / p_k is large, and each term g_a g_b / p_k inherits
    that relative error.  Two computations differ by about
    2 eps sum_k |g_ka g_kb| a_k / p_k**2 over the kept outcomes.
    """
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
    a = np.einsum("ij,kji->k", np.abs(sigma), np.abs(p.elements))[kept]
    allowance = 2.0 * np.finfo(float).eps * np.einsum(
        "ka,kb,k->ab", np.abs(g), np.abs(g), a / probs[kept] ** 2)
    return (g / probs[kept, None]).T @ g, allowance


# A pure state near (-0.5743i, -0.5789i, -0.5789i), where two outcomes of
# the d = 3 tight coherent POVM have p_k ~ 1e-12: the two sums differ by
# 52 times 1e-12 * max(1, max|I|), inside the rounding allowance.
NEAR_ZERO_PROBS = ("tight-coherent-d3", PureCanonical(PureState(np.array([
    0.0008202283055193556 - 0.5742789700568736j,
    0.0012154377418188357 - 0.5788788016122655j,
    -0.0004249410942215484 - 0.5788788016122655j]))))


@SETTINGS
@given(case=charts())
@example(case=NEAR_ZERO_PROBS)
def test_fisher_matrix_matches_loop_reference(case):
    name, par = case
    p = povm_named(name)
    ref, allowance = loop_fisher(par, p)
    scale = max(1.0, float(np.abs(ref).max()))
    assert np.all(np.abs(fisher_matrix(par, p) - ref)
                  < 1e-12 * scale + allowance)


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


RANK_TOL = 1e-9


def _direction(v):
    norm = float(np.linalg.norm(v))
    return np.array([1.0, 0.0, 0.0]) if norm < 1e-3 else v / norm


@st.composite
def near_pure_qubits(draw):
    """Qubit states at radius 1 - 10^-k, k in [0, 13], along a random
    direction."""
    k = draw(st.floats(0.0, 13.0))
    v = draw(hnp.arrays(float, 3, elements=unit))
    return density_from_bloch((1.0 - 10.0 ** -k) * _direction(v))


@st.composite
def near_pure_d3(draw):
    """(1 - eps)|psi><psi| + eps 1/3 with eps = 10^-k, k in [0, 13]."""
    eps = 10.0 ** -draw(st.floats(0.0, 13.0))
    psi = draw(pure_d3())
    return DensityMatrix((1.0 - eps) * psi.projector() + eps * np.eye(3) / 3)


# a state near a zero of an outcome may drop it; that is no rank decision
@pytest.mark.filterwarnings("ignore:outcome .* dropped")
@settings(max_examples=100)
@given(case=st.one_of(
    st.tuples(st.sampled_from(sorted(QUBIT_POVMS)), near_pure_qubits()),
    st.tuples(st.just("tight-coherent-d3"), near_pure_d3())))
# lambda_min = 7e-10, between the old purity test and the rank tolerance
@example(case=("collective-sic", density_from_bloch([1.0 - 1.4e-9, 0, 0])))
# lambda_min = 5e-9: full rank, with an SLD of size 1e8
@example(case=("sic-single", density_from_bloch([1.0 - 1e-8, 0, 0])))
# eps = 2e-9 in d = 3: rank 1, though lambda_max = 1 - 1.3e-9
@example(case=("tight-coherent-d3", DensityMatrix(
    (1.0 - 2e-9) * np.full((3, 3), 1.0 / 3.0) + 2e-9 * np.eye(3) / 3.0)))
# eps = 3e-9 less 88 ulps in d = 3: the two small eigenvalues round to
# either side of RANK_TOL, rank 2
@example(case=("tight-coherent-d3", DensityMatrix(
    (1.0 - 2.9999999999997357e-09) * np.full((3, 3), 1.0 / 3.0)
    + 2.9999999999997357e-09 * np.eye(3) / 3.0)))
def test_rank_rule_is_one_decision(case):
    name, rho = case
    rank = int(np.count_nonzero(rho.eigenvalues > RANK_TOL))
    assert rho.rank() == rank
    assert rho.is_pure() == (rank == 1)
    par = _choose_param(rho, "auto")
    if rank in (1, rho.dim):
        rep = fisher_report(par, povm_named(name))
        assert (rep.gm.mode == "pure-n") == rho.is_pure()
    else:
        # rank 2 of 3 under the affine chart: its Gell-Mann tangents leave
        # the support of the state
        assert rho.dim == 3
        with pytest.raises(ValueError, match="leaves the support"):
            fisher_report(par, povm_named(name))


@st.composite
def rank_r_states(draw):
    """A d x d state of rank r, d in {2, 3, 4} and r in [1, d], with its
    kept eigenvalues at least 0.01 and its eigenvectors at random."""
    d = draw(st.sampled_from([2, 3, 4]))
    r = draw(st.integers(1, d))
    w = draw(hnp.arrays(float, r, elements=st.floats(0.01, 1.0)))
    q, _ = np.linalg.qr(draw(complex_array((d, d))) + 3.0 * np.eye(d))
    rho = DensityMatrix((q[:, :r] * (w / w.sum())) @ q[:, :r].conj().T)
    return rho, q, r


@SETTINGS
@given(case=rank_r_states(), data=st.data())
def test_sld_solves_exactly_the_derivatives_inside_the_support(case, data):
    rho, q, r = case
    d = rho.dim
    # a traceless Hermitian derivative written in the eigenbasis q
    g = data.draw(complex_array((d, d)))
    h = g + g.conj().T
    h[r:, r:] = 0.0
    h -= np.trace(h) / r * np.diag(np.arange(d) < r)
    inside = q @ h @ q.conj().T
    l = sld(rho, inside)
    resid = 0.5 * (rho.matrix @ l + l @ rho.matrix) - inside
    assert np.linalg.norm(resid) <= 1e-9 * max(1.0, np.linalg.norm(inside))
    if r < d:
        # a null-null block of norm 0.1 leaves the support
        k = np.zeros((d, d))
        k[r, r], k[0, 0] = 0.1, -0.1
        with pytest.raises(ValueError, match="leaves the support"):
            sld(rho, inside + q @ k @ q.conj().T)


@st.composite
def accepted_states(draw, d):
    """Density matrices whose smallest eigenvalue is as low as -5e-11,
    which ``DensityMatrix`` accepts as rounding."""
    w = draw(hnp.arrays(float, d, elements=st.floats(0.0, 1.0)))
    w = np.eye(d)[0] if w.sum() < 1e-3 else w / w.sum()
    shift = draw(st.floats(0.0, 5e-11))
    w = np.sort(w)
    w[0] -= shift
    w[-1] += shift
    q, _ = np.linalg.qr(draw(complex_array((d, d))) + 3.0 * np.eye(d))
    return DensityMatrix((q * w) @ q.conj().T)


@SETTINGS
@given(data=st.data(), d=st.sampled_from([2, 3]))
def test_fidelity_accepts_every_density_matrix(data, d):
    rho, sigma = data.draw(accepted_states(d)), data.draw(accepted_states(d))
    f = fidelity(rho, sigma)
    assert 0.0 <= f <= 1.0
