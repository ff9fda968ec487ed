import numpy as np
import pytest

from conftest import random_two_copy_povm
from fisym.designs import OperatorSet, WeightedStateSet, sic_d3, sic_qubit
from fisym.matcore import kron, sym_projector
from fisym.povm import (
    NAMED_POVMS,
    Povm,
    classify_coherent,
    collective_sic_qubit,
    companion_povm,
    great_circle_qubit,
    marginal_Q,
    minimal_tight_coherent_d3,
    tight_coherent_check,
    tight_coherent_from_designs,
    twocopy_design_povm,
    validate_povm,
)


def bell_basis_povm():
    s = 1.0 / np.sqrt(2.0)
    vecs = [
        np.array([s, 0, 0, s]),
        np.array([s, 0, 0, -s]),
        np.array([0, s, s, 0]),
        np.array([0, s, -s, 0]),
    ]
    return Povm([np.outer(v, v.conj()) for v in vecs], copies=2, base_dim=2)


class TestPovmType:
    def test_rejects_bad_copies(self):
        with pytest.raises(ValueError):
            Povm([np.eye(2)], copies=3, base_dim=2)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Povm([np.eye(3)], copies=1, base_dim=2)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            Povm([m], copies=1, base_dim=2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Povm([], copies=1, base_dim=2)

    def test_list_tuple_and_stack_build_equal_povms(self):
        elems = collective_sic_qubit().elements
        built = [Povm(form, copies=2, base_dim=2)
                 for form in (list(elems), tuple(elems), np.array(elems))]
        for p in built:
            assert isinstance(p.elements, np.ndarray)
            assert p.elements.shape == (5, 4, 4)
            assert np.array_equal(p.elements, built[0].elements)

    def test_subspace_needs_two_copies(self):
        with pytest.raises(ValueError):
            Povm([np.eye(2)], copies=1, base_dim=2, subspace="symmetric")

    def test_completeness_target(self):
        p = great_circle_qubit()
        assert np.allclose(p.completeness_target(), np.eye(2))
        q = twocopy_design_povm(sic_qubit())
        assert np.allclose(q.completeness_target(), sym_projector(2))


class TestValidatePovm:
    def test_complete_povm_passes(self):
        rep = validate_povm(great_circle_qubit())
        assert rep.ok
        assert rep.psd_violation == 0.0
        assert rep.completeness_residual < 1e-14

    def test_incomplete_povm_fails(self):
        p = Povm([np.diag([1.0, 0.0])], copies=1, base_dim=2)
        rep = validate_povm(p)
        assert not rep.ok
        assert rep.completeness_residual == pytest.approx(1.0)

    def test_negative_element_reported(self):
        elems = [np.diag([1.1, 0.0]), np.diag([-0.1, 1.0])]
        rep = validate_povm(Povm(elems, copies=1, base_dim=2))
        assert not rep.ok
        assert rep.psd_violation == pytest.approx(0.1)


class TestTwoCopyDesignPovm:
    @pytest.mark.parametrize("design,d", [(sic_qubit(), 2), (sic_d3(0.0), 3)])
    def test_resolves_symmetric_projector(self, design, d):
        p = twocopy_design_povm(design)
        assert p.subspace == "symmetric"
        assert np.allclose(sum(p.elements), sym_projector(d), atol=1e-12)
        assert validate_povm(p).ok

    def test_weights_rescaled(self):
        p = twocopy_design_povm(sic_qubit())
        traces = [np.trace(e).real for e in p.elements]
        assert np.allclose(traces, 0.75)

    def test_rejects_non_design(self, rng):
        g = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        vecs = g / np.linalg.norm(g, axis=1)[:, None]
        bad = WeightedStateSet(vecs, np.full(4, 0.5))
        with pytest.raises(ValueError):
            twocopy_design_povm(bad)


class TestCompanion:
    def test_qubit_companion_weights(self):
        comp = companion_povm(sic_qubit())
        assert comp.copies == 1
        traces = [np.trace(e).real for e in comp.elements]
        assert np.allclose(traces, 0.5)
        assert validate_povm(comp).ok

    def test_d3_companion_complete(self):
        comp = companion_povm(sic_d3(0.0))
        assert validate_povm(comp).ok

    def test_companion_of_sic_is_sic_single(self):
        # the companion of the design behind collective-sic
        comp = companion_povm(sic_qubit())
        assert comp.size == 4
        assert np.allclose(comp.elements, NAMED_POVMS["sic-single"].elements,
                           rtol=0.0, atol=1e-15)


class TestBuiltinPovms:
    def test_collective_sic_structure(self):
        p = collective_sic_qubit()
        assert p.size == 5
        assert p.subspace is None
        assert validate_povm(p).ok

    def test_collective_sic_center_probabilities(self):
        # at the maximally mixed state the four design outcomes carry 3/16
        # each and the singlet carries 1/4
        p = collective_sic_qubit()
        rho = np.eye(2) / 2
        probs = [np.trace(kron(rho, rho) @ e).real for e in p.elements]
        assert np.allclose(probs, [3 / 16] * 4 + [1 / 4], atol=1e-14)

    def test_great_circle_structure(self):
        p = great_circle_qubit()
        assert p.size == 4
        assert validate_povm(p).ok


class TestClassifyCoherent:
    def test_collective_sic_classes(self):
        rep = classify_coherent(collective_sic_qubit())
        assert rep.coherent
        kinds = [c.kind for c in rep.classes]
        assert kinds == ["sym-power"] * 4 + ["slater"]

    def test_sym_power_witness_matches_design(self):
        p = twocopy_design_povm(sic_qubit())
        rep = classify_coherent(p)
        for c, v in zip(rep.classes, sic_qubit().vectors):
            assert c.kind == "sym-power"
            assert abs(np.vdot(c.states[0], v)) == pytest.approx(1.0, abs=1e-10)

    def test_bell_basis_not_coherent(self):
        rep = classify_coherent(bell_basis_povm())
        kinds = [c.kind for c in rep.classes]
        # maximally entangled symmetric states have rank-two marginals
        assert kinds == ["neither", "neither", "neither", "slater"]
        assert not rep.coherent

    @pytest.mark.parametrize("eps", [1e-8, 1e-7, 1e-5])
    def test_near_product_element_is_neither(self, eps):
        # |v><v| lies about eps from the sym-power class, and its
        # marginal's second eigenvalue is only eps^2
        v = np.array([1.0, 0.0, 0.0, eps]) / np.hypot(1.0, eps)
        e = np.outer(v, v)
        rep = classify_coherent(Povm([e, np.eye(4) - e], copies=2,
                                     base_dim=2))
        assert rep.classes[0].kind == "neither"

    def test_random_two_copy_povm_not_coherent(self, rng):
        rep = classify_coherent(random_two_copy_povm(rng, 2, 5))
        assert not rep.coherent

    def test_single_copy_rejected(self):
        with pytest.raises(ValueError):
            classify_coherent(great_circle_qubit())


class TestMarginalQ:
    def test_sym_power_element(self):
        p = twocopy_design_povm(sic_qubit())
        v = sic_qubit().vectors[0]
        q = marginal_Q(p.elements[0])
        assert np.allclose(q, 1.5 * np.outer(v, v.conj()))

    def test_singlet_element(self):
        q = marginal_Q(collective_sic_qubit().elements[-1])
        assert np.allclose(q, np.eye(2))

    def test_sum_rule_complete_povm(self):
        # marginals of a complete two-copy POVM sum to 2d identity
        for p in (collective_sic_qubit(), minimal_tight_coherent_d3()):
            total = sum(marginal_Q(e) for e in p.elements)
            d = p.base_dim
            assert np.allclose(total, 2 * d * np.eye(d), atol=1e-12)


class TestTightCoherentFromDesigns:
    def qubit_seeds(self):
        sym = OperatorSet(tuple(0.75 * np.outer(v, v.conj())
                                for v in sic_qubit().vectors))
        anti = OperatorSet((2.0 * np.eye(2),))
        return sym, anti

    def test_qubit_assembly_reproduces_collective_sic(self):
        sym, anti = self.qubit_seeds()
        p = tight_coherent_from_designs(sym, anti)
        ref = collective_sic_qubit()
        assert p.size == ref.size
        for a, b in zip(p.elements, ref.elements):
            assert np.allclose(a, b, atol=1e-12)

    def test_wrong_sym_sum_rejected(self):
        sym = OperatorSet(tuple(0.5 * np.outer(v, v.conj())
                                for v in sic_qubit().vectors))
        _, anti = self.qubit_seeds()
        with pytest.raises(ValueError):
            tight_coherent_from_designs(sym, anti)

    def test_wrong_antisym_sum_rejected(self):
        sym, _ = self.qubit_seeds()
        anti = OperatorSet((np.eye(2),))
        with pytest.raises(ValueError):
            tight_coherent_from_designs(sym, anti)

    def test_rank_profiles_enforced(self):
        sym, anti = self.qubit_seeds()
        bad_sym = OperatorSet((1.5 * np.eye(2),))
        with pytest.raises(ValueError):
            tight_coherent_from_designs(bad_sym, anti)
        bad_anti = OperatorSet((np.diag([1.5, 0.5]),))
        with pytest.raises(ValueError):
            tight_coherent_from_designs(sym, bad_anti)
        # one seed 1e-6 away from rank one
        a = sym.elements[0]
        near = OperatorSet((a + 1e-6 * (np.trace(a) * np.eye(2) - a),
                            *sym.elements[1:]))
        with pytest.raises(ValueError, match="rank-1"):
            tight_coherent_from_designs(near, anti)

    def test_non_design_seed_rejected(self, rng):
        # rank-one seeds summing correctly but not a generalized 2-design:
        # two copies of one basis, rescaled
        v0 = np.array([1.0, 0.0])
        v1 = np.array([0.0, 1.0])
        sym = OperatorSet(tuple(0.75 * np.outer(v, v.conj())
                                for v in (v0, v1, v0, v1)))
        _, anti = self.qubit_seeds()
        with pytest.raises(ValueError):
            tight_coherent_from_designs(sym, anti)


class TestMinimalTightCoherent:
    def test_element_count_and_completeness(self):
        p = minimal_tight_coherent_d3()
        assert p.size == 18
        assert validate_povm(p).ok

    def test_two_different_sics_accepted(self):
        p = minimal_tight_coherent_d3(sic_d3(0.0), sic_d3(np.pi / 18.0))
        assert p.size == 18
        assert validate_povm(p).ok
        assert tight_coherent_check(p).ok

    def test_non_sic_input_rejected(self):
        with pytest.raises(ValueError):
            minimal_tight_coherent_d3(sic_qubit(), None)


class TestTightCoherentCheck:
    def test_collective_sic_is_tight(self):
        rep = tight_coherent_check(collective_sic_qubit())
        assert rep.ok
        assert rep.purity_target == pytest.approx(7.0 / 8.0)
        assert rep.purity_residual < 1e-12
        assert rep.q_certificate.is_design
        assert rep.antisym_gsic is None

    def test_minimal_d3_reports_antisym_gsic(self):
        rep = tight_coherent_check(minimal_tight_coherent_d3())
        assert rep.ok
        assert rep.purity_target == pytest.approx(5.0 / 6.0)
        assert rep.antisym_gsic is not None
        assert rep.antisym_gsic.is_gsic
        assert rep.antisym_gsic.purity == pytest.approx(0.5, abs=1e-12)

    def test_bell_basis_not_tight(self):
        rep = tight_coherent_check(bell_basis_povm())
        assert not rep.ok
        assert not rep.classification.coherent

    def test_subspace_povm_rejected(self):
        with pytest.raises(ValueError):
            tight_coherent_check(twocopy_design_povm(sic_qubit()))

    def test_single_copy_rejected(self):
        with pytest.raises(ValueError):
            tight_coherent_check(great_circle_qubit())
