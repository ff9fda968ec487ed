"""Property tests for the batched coherence classification.

``povm.classify_coherent`` works on the whole (k, n, n) element stack at
once.  Coherence is a property of each element alone and is covariant
under local unitaries: conjugating a coherent POVM by U ⊗ U and
reordering its elements must reorder the kinds and weights the same way,
carry every sym-power witness psi to U psi (up to a phase), and keep a
tight coherent POVM tight.  The single-copy companion of a two-copy
design POVM is built from the same 2-design, so it follows the design
under any unitary and refuses a state set that is no 2-design.

An element is classified by two identities of its marginal, which hold
on its class only and whose residual grows linearly with the distance
from it.  So an element about eps from its class must keep it for eps up
to 1e-10 and lose it from eps = 1e-7 on, and on a qubit the sym-power
elements must be the outcomes that ``tomosim._linear_system`` keeps, as
perfect squares of the Bloch vector, outside that band.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.designs import WeightedStateSet, mub_state_set, sic_d3, sic_qubit
from fisym.matcore import antisym_projector, sym_projector
from fisym.povm import (
    Povm,
    classify_coherent,
    collective_sic_qubit,
    companion_povm,
    minimal_tight_coherent_d3,
    tight_coherent_check,
    twocopy_design_povm,
    validate_povm,
)
from fisym.tomosim import _linear_system, _quad_model

SETTINGS = settings(max_examples=40)  # on the suite profile (conftest.py)

TIGHT = {2: collective_sic_qubit(), 3: minimal_tight_coherent_d3()}

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                             allow_infinity=False)


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


DESIGNS = [sic_qubit(), sic_d3(0.0), mub_state_set(2), mub_state_set(3)]


@SETTINGS
@given(st.data())
def test_companion_follows_its_rotated_design(data):
    design = data.draw(st.sampled_from(DESIGNS))
    d = design.dim
    u = data.draw(unitaries(d))
    rotated = WeightedStateSet(design.vectors @ u.T, design.weights)
    comp = companion_povm(rotated)
    assert comp.copies == 1 and comp.base_dim == d
    assert validate_povm(comp).ok
    traces = np.trace(comp.elements, axis1=1, axis2=2).real
    two = np.trace(twocopy_design_povm(rotated).elements, axis1=1,
                   axis2=2).real
    assert np.allclose(traces, 2.0 / (d + 1) * two, rtol=0.0, atol=1e-12)
    # one state short of the design is not even a 1-design
    with pytest.raises(ValueError, match="not a projective 2-design"):
        companion_povm(WeightedStateSet(rotated.vectors[1:],
                                        rotated.weights[1:]))


def _near_class_element(kind, u, g, eps):
    """|v><v| for v = phi + eps chi: phi the square psi psi of the first
    column of the unitary u ('sym-power') or the determinant state of its
    first two ('slater'), and chi the unit vector along the part of g
    orthogonal to the class's tangent space at phi, so that the element
    lies about eps from the class; None if that part is small.  For psi
    psi, chi is symmetric as well: the qubit probabilities tr(rho^(x2) E)
    do not see the part of E that maps the symmetric subspace to the
    antisymmetric one."""
    d = len(u)
    if kind == "sym-power":
        phi = np.kron(u[:, 0], u[:, 0])
        g = sym_projector(d) @ g
        tangent = sym_projector(d) @ np.kron(np.eye(d), u[:, :1])
    else:
        phi = (np.kron(u[:, 0], u[:, 1])
               - np.kron(u[:, 1], u[:, 0])) / np.sqrt(2.0)
        tangent = antisym_projector(d) @ np.kron(np.eye(d), u[:, :2])
    chi = g - tangent @ (np.linalg.pinv(tangent) @ g)
    if np.linalg.norm(chi) < 1e-2:
        return None
    v = phi + eps * chi / np.linalg.norm(chi)
    return np.outer(v, v.conj())


# distances from the class: none, below 1e-10, or from 1e-7 on
distances = st.one_of(st.just(0.0),
                      st.floats(-14.0, -10.0).map(lambda x: 10.0 ** x),
                      st.floats(-7.0, 0.0).map(lambda x: 10.0 ** x))


@pytest.mark.parametrize("d", sorted(TIGHT))
@pytest.mark.parametrize("kind", ["sym-power", "slater"])
@settings(max_examples=60)
@given(data=st.data(), eps=distances, w=st.floats(0.05, 1.0))
def test_classification_tracks_the_distance_from_the_class(kind, d, data,
                                                           eps, w):
    e = _near_class_element(kind, data.draw(unitaries(d)),
                            data.draw(hnp.arrays(complex, d * d,
                                                 elements=entries)), eps)
    assume(e is not None)
    p = Povm([w * e, *TIGHT[d].elements], copies=2, base_dim=d)
    classes = classify_coherent(p).classes
    assert classes[0].kind == (kind if eps <= 1e-10 else "neither")
    if d == 2:
        system = _linear_system(p, _quad_model(p))
        assert system.indices.tolist() == [
            xi for xi, c in enumerate(classes) if c.kind == "sym-power"]
