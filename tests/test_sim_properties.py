"""Property tests for the estimation model and the closed-form metrics of
the batched trial loop.

The MLE works on ``tomosim._quad_model``, the Born rule of a qubit POVM
written as a quadratic in the Bloch vector.  It must reproduce the
probabilities and gradients of ``fisher`` for any complete single-copy or
two-copy POVM, swap-symmetric or not.

``run_simulation`` scores every trial with ``states.qubit_fidelity``, the
closed form of Hubner (Phys. Lett. A 163, 239 (1992)), instead of the
eigendecomposition in ``states.fidelity``.  The two must agree on any pair
of qubit states: interior, the maximally mixed centre and pure states.

The trials draw their counts from the streams of
``np.random.default_rng((seed, i))``, seeded in bulk by
``_streams.stream_states``, a reimplementation of NumPy's SeedSequence
hash.  It must give NumPy's words and NumPy's draws for any key, whatever
mix of entropy lengths one batch holds.

A sweep's analytic columns come from the same model for the whole grid
at once, with the Bures weight in closed form.  They must agree with
``asymptotic_metrics`` of each point's Bloch chart, or fail as it does.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym._streams import seeded_rng, stream_states
from fisym.fisher import _probs_and_grads, fisher_matrix, outcome_probs
from fisym.matcore import mat_power
from fisym.povm import NAMED_POVMS, Povm
from fisym.states import (BlochQubit, density_from_bloch, fidelity,
                          qubit_fidelity, tangent_ops)
from fisym.tomosim import (SCHEMES, _analytic_columns, _quad_model,
                           asymptotic_metrics)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def bloch_vectors(draw):
    """Bloch vectors at the centre, inside the ball, or on the sphere."""
    kind = draw(st.sampled_from(["centre", "interior", "pure"]))
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    if kind == "centre" or norm < 1e-3:
        return np.zeros(3)
    radius = 1.0 if kind == "pure" else draw(st.floats(0.0, 0.95))
    return radius * v / norm


@settings(max_examples=200)
@given(s=bloch_vectors(), t=bloch_vectors())
def test_closed_form_matches_eigendecomposition(s, t):
    expected = fidelity(density_from_bloch(s), density_from_bloch(t))
    assert abs(qubit_fidelity(s, t) - expected) <= 1e-12


@settings(max_examples=50)
@given(s=bloch_vectors(), t=st.lists(bloch_vectors(), min_size=1,
                                     max_size=5))
def test_batch_matches_pairwise(s, t):
    batch = qubit_fidelity(s, np.array(t))
    assert batch.shape == (len(t),)
    for f, ti in zip(batch, t):
        assert f == qubit_fidelity(s, ti)
        assert 0.0 <= f <= 1.0


# one to six 32-bit words: seeds up to 2**160, both sides of each word
# boundary, and the 4-word pool size where the extra mixing loop starts
seeds = st.one_of(
    st.integers(0, 2**160 - 1), st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1,
                     2**96, 2**128, 2**160 - 1]))
trial_indices = st.one_of(st.integers(0, 2**33 - 1), st.integers(0, 99),
                          st.integers(2**32 - 2, 2**32 + 2))


@settings(max_examples=100)
@given(seed_list=st.lists(seeds, min_size=1, max_size=4),
       trials=st.lists(trial_indices, min_size=1, max_size=6),
       probs=hnp.arrays(float, 4, elements=st.floats(0.01, 1.0)))
def test_streams_match_numpy(seed_list, trials, probs):
    # a small and a large key in every batch, so entropy lengths mix
    seed_list = [5, *seed_list, 2**96 + 1]
    trials = [3, *trials, 2**32 + 7]
    probs = probs / probs.sum()
    states = stream_states(seed_list, trials)
    assert states.shape == (len(seed_list), len(trials), 4)
    for seed, row in zip(seed_list, states):
        for i, state in zip(trials, row):
            expected = np.random.SeedSequence((seed, i)).generate_state(
                4, np.uint64)
            assert state.dtype == np.uint64
            assert np.array_equal(state, expected)
            assert np.array_equal(
                seeded_rng(state).multinomial(1000, probs),
                np.random.default_rng((seed, i)).multinomial(1000, probs))


def complex_array(shape):
    return st.tuples(hnp.arrays(float, shape, elements=unit),
                     hnp.arrays(float, shape, elements=unit)).map(
        lambda pair: pair[0] + 1j * pair[1])


@st.composite
def qubit_povms(draw):
    """Complete POVMs on one or two qubit copies.  Two-copy elements are
    random operators on C^2 x C^2, so in general not swap-symmetric."""
    copies = draw(st.sampled_from([1, 2]))
    dim = 2 ** copies
    blocks = []
    for _ in range(draw(st.integers(2, dim + 3))):
        g = draw(complex_array((dim, draw(st.integers(1, dim)))))
        blocks.append(g @ g.conj().T + 1e-3 * np.eye(dim))
    root = mat_power(sum(blocks), -0.5)
    return Povm([root @ b @ root for b in blocks], copies=copies, base_dim=2)


@st.composite
def interior_bloch(draw):
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    return np.zeros(3) if norm < 1e-3 else draw(st.floats(0.0, 0.95)) * v / norm


@settings(max_examples=100)
@given(p=qubit_povms(), s=interior_bloch())
def test_quad_model_matches_born_rule(p, s):
    model = _quad_model(p)
    par = BlochQubit(s)
    _, grads = _probs_and_grads(par.base(), tangent_ops(par), p)
    assert np.max(np.abs(model.probs(s) - outcome_probs(par.base(), p))) <= 1e-12
    assert np.max(np.abs(model.grads(s) - grads)) <= 1e-12


@st.composite
def bloch_grids(draw):
    """One to four Bloch vectors along one direction, a random one or an
    axis (where some outcomes of mub-single vanish).  Radii cover the
    ball and approach the sphere to within 1e-13, through the rank
    tolerance."""
    axes = [sign * e for e in np.eye(3) for sign in (1.0, -1.0)]
    v = draw(st.one_of(hnp.arrays(float, 3, elements=unit),
                       st.sampled_from(axes)))
    norm = float(np.linalg.norm(v))
    direction = np.array([1.0, 0.0, 0.0]) if norm < 1e-3 else v / norm
    radii = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 13.0).map(lambda k: 1.0 - 10.0 ** -k)),
        min_size=1, max_size=4))
    return np.outer(radii, direction)


def _outcome(f):
    """f() or the exception it raised; warnings are errors here."""
    try:
        return f()
    except (ValueError, UserWarning) as exc:
        return exc


@settings(max_examples=200)
@given(p=st.one_of(qubit_povms(),
                   st.sampled_from([NAMED_POVMS[s] for s in SCHEMES[:-1]])),
       bloch=bloch_grids())
# an outcome of probability 6.7e-14 with gradient 1/6: dropped with a
# regularity warning before the rank check
@example(p=NAMED_POVMS["mub-single"],
         bloch=np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -(1.0 - 4e-13)]]))
def test_analytic_columns_match_asymptotic_metrics(p, bloch):
    refs = [[_outcome(lambda: asymptotic_metrics(BlochQubit(s), p, w))
             for w in ("hs", "msb")] for s in bloch]
    got = _outcome(lambda: _analytic_columns(_quad_model(p), bloch,
                                             p.copies))
    if isinstance(got, Exception):
        raised = {type(r) for row in refs for r in row
                  if isinstance(r, Exception)}
        assert type(got) in raised
        return
    for s, row, *cols in zip(bloch, refs, *got):
        # 1 - |s|^2 cancels near the sphere, and J carries its inverse;
        # the inverse of I turns rounding of I into cond(I) times as much
        cond = np.linalg.cond(fisher_matrix(BlochQubit(s), p))
        tol = max(1e-12, 1e-14 / (1.0 - s @ s), 1e-15 * cond)
        for ref, val in zip(row, cols):
            assert val == pytest.approx(ref, rel=tol)
