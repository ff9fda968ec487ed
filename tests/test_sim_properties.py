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
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.fisher import _probs_and_grads, outcome_probs
from fisym.matcore import mat_power
from fisym.povm import Povm
from fisym.states import (BlochQubit, density_from_bloch, fidelity,
                          qubit_fidelity, tangent_ops)
from fisym.tomosim import _quad_model

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
