import numpy as np
import pytest

from conftest import random_pure
from fisym.designs import (
    OperatorSet,
    WeightedStateSet,
    clifford_group_qubit,
    g2design_from_unitary_design,
    generalized_2design_check,
    generalized_sic_check,
    mub,
    mub_state_set,
    projective_2design_check,
    sic_d3,
    sic_qubit,
)


def overlap_residual(states, target):
    g = np.abs(states.vectors.conj() @ states.vectors.T) ** 2
    want = np.where(np.eye(states.size, dtype=bool), 1.0, target)
    return np.max(np.abs(g - want))


class TestWeightedStateSet:
    def test_requires_normalized_vectors(self):
        with pytest.raises(ValueError):
            WeightedStateSet(np.array([[1.0, 1.0]]), np.array([1.0]))

    def test_requires_finite_vectors(self):
        with pytest.raises(ValueError):
            WeightedStateSet(np.array([[np.nan, 0.0]]), np.array([1.0]))

    def test_requires_positive_weights(self):
        v = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            WeightedStateSet(v, np.array([0.0]))

    def test_rescaled_total(self):
        des = sic_qubit()
        res = des.rescaled(3.0)
        assert res.weights.sum() == pytest.approx(3.0)
        assert np.allclose(res.vectors, des.vectors)

    def test_weighted_sum_identity(self):
        des = sic_qubit()
        assert np.allclose(np.einsum("k,kij->ij", des.weights,
                                     des.projectors()), np.eye(2))


class TestOperatorSet:
    def test_rejects_non_psd(self):
        with pytest.raises(ValueError):
            OperatorSet((np.diag([1.0, -0.2]),))

    def test_rejects_zero_trace(self):
        with pytest.raises(ValueError):
            OperatorSet((np.zeros((2, 2)),))

    def test_traces_and_total(self):
        ops = OperatorSet((np.eye(2), 2.0 * np.eye(2)))
        assert np.allclose(ops.traces(), [2.0, 4.0])
        assert np.allclose(ops.total(), 3.0 * np.eye(2))


class TestSicSets:
    def test_qubit_overlaps(self):
        assert overlap_residual(sic_qubit(), 1.0 / 3.0) < 1e-12

    def test_qubit_is_2design(self):
        cert = projective_2design_check(sic_qubit())
        assert cert.is_design
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_d3_overlaps_along_family(self):
        for phi in (0.0, np.pi / 18.0, np.pi / 9.0):
            des = sic_d3(phi)
            assert des.size == 9
            assert overlap_residual(des, 0.25) < 1e-12
            assert np.allclose(np.einsum("k,kij->ij", des.weights,
                                         des.projectors()), np.eye(3))

    def test_d3_warns_outside_range(self):
        with pytest.warns(UserWarning):
            sic_d3(0.5)

    def test_d3_no_warning_inside_range(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sic_d3(np.pi / 18.0)


class TestMub:
    @pytest.mark.parametrize("d", [2, 3])
    def test_bases_orthonormal(self, d):
        for b in mub(d):
            assert np.allclose(b.conj().T @ b, np.eye(d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_pairwise_unbiased(self, d):
        bases = mub(d)
        assert len(bases) == d + 1
        for i, bi in enumerate(bases):
            for bj in bases[i + 1:]:
                g = np.abs(bi.conj().T @ bj) ** 2
                assert np.max(np.abs(g - 1.0 / d)) < 1e-12

    def test_unsupported_dimension(self):
        with pytest.raises(ValueError):
            mub(4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_state_set_is_2design(self, d):
        des = mub_state_set(d)
        assert des.size == d * (d + 1)
        assert np.allclose(np.einsum("k,kij->ij", des.weights,
                                     des.projectors()), np.eye(d))
        cert = projective_2design_check(des)
        assert cert.is_design
        assert cert.slack == pytest.approx(0.0, abs=1e-12)


class TestProjective2DesignCheck:
    def test_single_basis_is_not_a_design(self):
        v = np.eye(2, dtype=complex)
        des = WeightedStateSet(v, np.ones(2))
        cert = projective_2design_check(des)
        assert not cert.is_design
        # frame potential 2 versus bound 2*4/6
        assert cert.frame_potential == pytest.approx(2.0)
        assert cert.bound == pytest.approx(4.0 / 3.0)

    def test_slack_never_negative(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(2, 4))
            vecs = np.array([random_pure(rng, d).vector for _ in range(n)])
            w = rng.uniform(0.1, 2.0, size=n)
            cert = projective_2design_check(WeightedStateSet(vecs, w))
            assert cert.slack > -1e-10 * w.sum() ** 2

    def test_random_states_rarely_form_designs(self, rng):
        vecs = np.array([random_pure(rng, 2).vector for _ in range(4)])
        cert = projective_2design_check(WeightedStateSet(vecs, np.full(4, 0.5)))
        assert not cert.is_design


class TestGeneralized2Design:
    def test_smeared_sic_is_design(self):
        # projectors mixed with identity keep the design property
        ops = OperatorSet(tuple(p + 0.5 * np.eye(2) for p in sic_qubit().projectors()))
        cert = generalized_2design_check(ops)
        assert cert.is_design
        assert cert.purity == pytest.approx(0.625)
        assert cert.slack == pytest.approx(0.0, abs=1e-12)

    def test_scaling_invariance(self):
        ops = OperatorSet(tuple(p for p in sic_qubit().projectors()))
        scaled = OperatorSet(tuple(7.0 * p for p in sic_qubit().projectors()))
        ca = generalized_2design_check(ops)
        cb = generalized_2design_check(scaled)
        assert ca.frame_potential == pytest.approx(cb.frame_potential)
        assert ca.purity == pytest.approx(cb.purity)

    def test_random_operators_fail(self, rng):
        elems = []
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            elems.append(g @ g.conj().T)
        cert = generalized_2design_check(OperatorSet(tuple(elems)))
        assert not cert.is_design
        assert cert.slack > 1e-3

    def test_second_moment_identity(self):
        # independent characterization: the second moment sum Pi (x) Pi of a
        # generalized 2-design lies in the span of identity and swap
        from fisym.matcore import kron, swap_operator

        d = 2
        ops = OperatorSet(tuple(p + 0.5 * np.eye(d) for p in sic_qubit().projectors()))
        elems = [e * d / sum(np.trace(x).real for x in ops.elements)
                 for e in ops.elements]
        second = sum(kron(e, e) for e in elems)
        swap = swap_operator(d)
        # coefficients of x*I + y*V follow from tr M and tr(V M)
        t_i = np.trace(second).real
        t_v = np.trace(swap @ second).real
        x = (d * d * t_i - d * t_v) / (d * d * (d * d - 1.0))
        y = (d * d * t_v - d * t_i) / (d * d * (d * d - 1.0))
        assert np.max(np.abs(second - (x * np.eye(d * d) + y * swap))) < 1e-12


class TestGeneralizedSic:
    def test_qubit_sic_projectors(self):
        ops = OperatorSet(tuple(sic_qubit().projectors()))
        rep = generalized_sic_check(ops)
        assert rep.is_gsic
        assert rep.purity == pytest.approx(1.0)
        assert rep.alpha == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.beta == pytest.approx(1.0 / 12.0, abs=1e-12)

    def test_d3_sic_projectors(self):
        ops = OperatorSet(tuple(sic_d3(0.0).projectors()))
        rep = generalized_sic_check(ops)
        assert rep.is_gsic
        assert rep.alpha == pytest.approx(1.0 / 12.0, abs=1e-12)
        assert rep.beta == pytest.approx(1.0 / 36.0, abs=1e-12)

    def test_parameter_relations(self):
        # alpha and beta are pinned by the purity:
        # alpha = (d p - 1)/(d (d^2-1)), beta = (d - p)/(d^2 (d^2-1))
        for ops, d in ((OperatorSet(tuple(sic_qubit().projectors())), 2),
                       (OperatorSet(tuple(sic_d3(0.0).projectors())), 3)):
            rep = generalized_sic_check(ops)
            p = rep.purity
            assert rep.alpha == pytest.approx(
                (d * p - 1.0) / (d * (d * d - 1.0)), abs=1e-12)
            assert rep.beta == pytest.approx(
                (d - p) / (d * d * (d * d - 1.0)), abs=1e-12)

    def test_wrong_count_rejected(self):
        ops = OperatorSet(tuple(sic_qubit().projectors()[:3]))
        with pytest.raises(ValueError):
            generalized_sic_check(ops)

    def test_random_projectors_fail(self, rng):
        vecs = [random_pure(rng, 2).vector for _ in range(4)]
        ops = OperatorSet(tuple(np.outer(v, v.conj()) for v in vecs))
        rep = generalized_sic_check(ops)
        assert not rep.is_gsic
        assert rep.gram_residual > 1e-3


class TestCliffordOrbit:
    def test_group_size_and_closure(self):
        group = clifford_group_qubit()
        assert len(group) == 24
        for u in group:
            assert u.dtype == complex and u.shape == (2, 2)
            assert np.allclose(u @ u.conj().T, np.eye(2))
        # |tr U^dag V| = 2 exactly when U = V up to phase: 24 classes
        stack = np.array(group)
        overlap = np.abs(np.einsum("aij,bij->ab", stack.conj(), stack))
        assert np.allclose(np.diag(overlap), 2.0)
        assert np.all(overlap[~np.eye(24, dtype=bool)] < 2.0 - 1e-6)
        # every product of two members is a member up to phase
        for u in group:
            for v in group:
                uv = u @ v
                hits = np.abs(np.einsum("aij,ij->a", stack.conj(), uv))
                assert np.sum(hits > 2.0 - 1e-9) == 1

    def test_orbit_of_projector_is_design(self):
        group = clifford_group_qubit()
        seed = np.diag([1.0, 0.0]).astype(complex)
        ops = g2design_from_unitary_design(group, np.full(24, 1.0), seed)
        cert = generalized_2design_check(ops)
        assert cert.is_design
        assert cert.purity == pytest.approx(1.0)

    def test_orbit_of_mixed_seed(self):
        group = clifford_group_qubit()
        seed = np.diag([0.75, 0.25]).astype(complex)
        ops = g2design_from_unitary_design(group, np.full(24, 1.0), seed)
        cert = generalized_2design_check(ops)
        assert cert.is_design
        assert cert.purity == pytest.approx(0.625)

    def test_twirl_of_pauli_product(self):
        # averaging U(x)U . sx(x)sx . (U(x)U)^dag over the group gives the
        # swap-determined combination (P_plus - 3 P_minus)/3
        from fisym.matcore import antisym_projector, kron, sym_projector

        group = clifford_group_qubit()
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        acc = np.zeros((4, 4), dtype=complex)
        for u in group:
            uu = kron(u, u)
            acc += uu @ kron(sx, sx) @ uu.conj().T
        acc /= len(group)
        target = sym_projector(2) / 3.0 - antisym_projector(2)
        assert np.max(np.abs(acc - target)) < 1e-12

    def test_seed_validation(self):
        group = clifford_group_qubit()
        with pytest.raises(ValueError):
            g2design_from_unitary_design(group, np.full(24, 1.0),
                                         np.diag([1.0, -0.1]))
        with pytest.raises(ValueError):
            g2design_from_unitary_design(group, np.full(23, 1.0), np.eye(2))
        with pytest.raises(ValueError):
            g2design_from_unitary_design([np.ones((2, 2))], [1.0], np.eye(2))
