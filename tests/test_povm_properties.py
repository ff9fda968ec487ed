"""Property tests for the batched coherence classification.

``povm._classify`` works on the whole (k, n, n) element stack at once.
Coherence is a property of each element alone and is covariant under
local unitaries: conjugating a coherent POVM by U ⊗ U and reordering its
elements must reorder the kinds and weights the same way, carry every
sym-power witness psi to U psi (up to a phase), and keep a tight coherent
POVM tight.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.povm import (
    Povm,
    classify_coherent,
    collective_sic_qubit,
    minimal_tight_coherent_d3,
    tight_coherent_check,
)

SETTINGS = settings(max_examples=40)  # on the suite profile (conftest.py)

TIGHT = {2: collective_sic_qubit(), 3: minimal_tight_coherent_d3()}

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def unitaries(draw, d):
    """The unitary factor of the QR decomposition of a drawn matrix."""
    re = draw(hnp.arrays(float, (d, d), elements=unit))
    im = draw(hnp.arrays(float, (d, d), elements=unit))
    return np.linalg.qr(re + 1j * im)[0]


@SETTINGS
@given(st.data())
def test_classification_follows_local_unitary_and_order(data):
    d = data.draw(st.sampled_from(sorted(TIGHT)))
    p = TIGHT[d]
    u = data.draw(unitaries(d))
    perm = data.draw(st.permutations(range(p.size)))
    uu = np.kron(u, u)
    q = Povm(uu @ p.elements[perm] @ uu.conj().T, copies=2, base_dim=d)

    ref = [classify_coherent(p).classes[i] for i in perm]
    got = classify_coherent(q)
    assert got.coherent
    assert [c.kind for c in got.classes] == [c.kind for c in ref]
    assert np.allclose([c.weight for c in got.classes],
                       [c.weight for c in ref], rtol=0.0, atol=1e-12)
    for c, r in zip(got.classes, ref):
        if c.kind == "sym-power":
            overlap = abs(np.vdot(u @ r.states[0], c.states[0]))
            assert abs(overlap - 1.0) <= 1e-10
    assert tight_coherent_check(q).ok
