"""Property tests for the closed-form metrics of the batched trial loop.

``run_simulation`` scores every trial with ``states.qubit_fidelity``, the
closed form of Hubner (Phys. Lett. A 163, 239 (1992)), instead of the
eigendecomposition in ``states.fidelity``.  The two must agree on any pair
of qubit states: interior, the maximally mixed centre and pure states.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.states import density_from_bloch, fidelity, qubit_fidelity

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
