import json

import numpy as np
import pytest

from conftest import (
    random_full_rank,
    random_povm,
    random_pure,
    random_rank_one_povm,
    random_two_copy_povm,
)
from fisym.designs import sic_qubit
from fisym.fisher import (
    fisher_fd_oracle,
    fisher_matrix,
    fisher_report,
    fisher_symmetry_check,
    gm_bound,
    gm_check,
    gm_value,
    optimal_fisher,
    outcome_probs,
    wmse_bound,
)
from fisym.tomosim import scheme_povm
from fisym.povm import (
    Povm,
    collective_sic_qubit,
    companion_povm,
    great_circle_qubit,
    twocopy_design_povm,
)
from fisym.states import (
    AffineMixed,
    BlochQubit,
    DensityMatrix,
    PureCanonical,
    density_from_bloch,
)


def sic_single_qubit():
    return companion_povm(twocopy_design_povm(sic_qubit()))


def diluted_sic_qubit():
    # informative part scaled down by half; identity absorbs the rest
    elems = [0.5 * np.eye(2)] + [0.25 * np.outer(v, v.conj())
                                 for v in sic_qubit().vectors]
    return Povm(elems, copies=1, base_dim=2)


class TestOutcomeProbs:
    def test_complete_povm_sums_to_one(self, rng):
        rho = random_full_rank(rng, 2)
        probs = outcome_probs(rho, great_circle_qubit())
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(probs >= 0)

    def test_symmetric_subspace_total(self, rng):
        # the symmetric part of rho (x) rho carries (1 + tr rho^2)/2
        rho = random_full_rank(rng, 2)
        probs = outcome_probs(rho, twocopy_design_povm(sic_qubit()))
        assert probs.sum() == pytest.approx((1 + rho.purity()) / 2, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        rho = random_full_rank(rng, 3)
        with pytest.raises(ValueError):
            outcome_probs(rho, great_circle_qubit())


class TestFisherMatrix:
    def test_sic_single_at_center(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        i_mat = fisher_matrix(par, sic_single_qubit())
        assert np.max(np.abs(i_mat - np.eye(3) / 3)) < 1e-12

    def test_matches_fd_oracle_single_copy(self, rng):
        for d in (2, 3):
            rho = random_full_rank(rng, d)
            par = AffineMixed(rho)
            p = random_povm(rng, d, d + 2)
            i_an = fisher_matrix(par, p)
            i_fd = fisher_fd_oracle(par, p)
            assert np.max(np.abs(i_an - i_fd)) < 1e-6

    def test_matches_fd_oracle_two_copy(self, rng):
        for d in (2, 3):
            rho = random_full_rank(rng, d)
            par = AffineMixed(rho)
            p = random_two_copy_povm(rng, d, d * d + 1)
            i_an = fisher_matrix(par, p)
            i_fd = fisher_fd_oracle(par, p)
            assert np.max(np.abs(i_an - i_fd)) < 1e-6

    def test_matches_fd_oracle_pure_chart(self, rng):
        psi = random_pure(rng, 2)
        par = PureCanonical(psi)
        p = collective_sic_qubit()
        assert np.max(np.abs(fisher_matrix(par, p)
                             - fisher_fd_oracle(par, p))) < 1e-6

    def test_zero_probability_outcome_dropped_quietly(self):
        # at a pure state an orthogonal rank-one outcome has zero
        # probability and zero derivative; it is dropped without warning
        import warnings

        from fisym.states import PureState

        par = PureCanonical(PureState(np.array([1.0, 0.0], dtype=complex)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            i_mat = fisher_matrix(par, great_circle_qubit())
        assert i_mat.shape == (2, 2)

    def test_irregular_outcome_warns(self):
        # in the mixed chart a vanishing probability with nonzero
        # derivative signals an ill-defined Fisher matrix
        par = BlochQubit([0.0, 0.0, 1.0])
        z_basis = Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                       copies=1, base_dim=2)
        with pytest.warns(UserWarning):
            fisher_matrix(par, z_basis)


class TestGmValue:
    def test_known_value(self):
        j = np.diag([2.0, 4.0])
        i = np.diag([1.0, 1.0])
        assert gm_value(j, i) == pytest.approx(0.75)

    def test_reparametrization_invariance(self, rng):
        j = random_full_rank(rng, 4).matrix.real * 4 + np.eye(4)
        i = random_full_rank(rng, 4).matrix.real
        i = 0.5 * (i + i.T)
        m = rng.normal(size=(4, 4))
        assert gm_value(m.T @ j @ m, m.T @ i @ m) == pytest.approx(
            gm_value(j, i), rel=1e-9)

    def test_singular_j_rejected(self):
        with pytest.raises(ValueError):
            gm_value(np.diag([1.0, 0.0]), np.eye(2))


class TestGmBound:
    def test_values(self):
        assert gm_bound("single-copy", 3) == 2.0
        assert gm_bound("two-copy", 3) == 6.0
        assert gm_bound("pure-n", 2, copies=2) == 2.0

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            gm_bound("three-copy", 2)


class TestGmCheck:
    def test_rank_one_single_copy_saturates(self):
        par = BlochQubit([0.2, -0.1, 0.4])
        v = gm_check(par, sic_single_qubit())
        assert v.mode == "single-copy"
        assert v.verdict == "equality"
        assert v.value == pytest.approx(1.0, abs=1e-10)

    def test_non_rank_one_is_strict(self):
        par = BlochQubit([0.2, -0.1, 0.4])
        v = gm_check(par, diluted_sic_qubit())
        assert v.verdict == "strict"
        assert v.value < 1.0 - 1e-6

    def test_two_copy_saturation(self):
        par = BlochQubit([0.5, 0.0, 0.0])
        v = gm_check(par, collective_sic_qubit())
        assert v.mode == "two-copy"
        assert v.verdict == "equality"
        assert v.value == pytest.approx(3.0, abs=1e-10)

    def test_pure_n_saturation(self, rng):
        for d in (2, 3):
            from fisym.designs import sic_d3

            design = sic_qubit() if d == 2 else sic_d3(0.0)
            par = PureCanonical(random_pure(rng, d))
            v = gm_check(par, twocopy_design_povm(design))
            assert v.mode == "pure-n"
            assert v.bound == 2.0 * (d - 1)
            assert v.verdict == "equality"

    def test_mode_override_can_violate(self):
        # judging a collective measurement against the single-copy bound
        par = BlochQubit([0.5, 0.0, 0.0])
        v = gm_check(par, collective_sic_qubit(), mode="single-copy")
        assert v.verdict == "violated"


class TestFisherSymmetry:
    def test_collective_sic_fully_symmetric(self):
        par = BlochQubit([0.3, 0.2, -0.4])
        rep = fisher_symmetry_check(par, collective_sic_qubit())
        assert rep.verdict == "fisher-symmetric"
        assert rep.target_factor == pytest.approx(1.0)
        assert rep.full_residual < 1e-9

    def test_sic_single_fully_symmetric_at_center(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        rep = fisher_symmetry_check(par, sic_single_qubit())
        assert rep.verdict == "fisher-symmetric"
        assert rep.target_factor == pytest.approx(1.0 / 3.0)

    def test_diluted_sic_weakly_symmetric(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        rep = fisher_symmetry_check(par, diluted_sic_qubit())
        assert rep.verdict == "weakly-fisher-symmetric"
        assert rep.scale_fit == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert rep.weak_residual < 1e-12
        assert rep.full_residual > 0.1

    def test_generic_point_not_symmetric(self):
        par = BlochQubit([0.3, 0.2, -0.4])
        rep = fisher_symmetry_check(par, great_circle_qubit())
        assert rep.verdict == "not-fisher-symmetric"


class TestWmseBound:
    def test_scaled_qfi_weight_is_parameter_free(self, rng):
        # with weight J/4 the bound depends only on the manifold dimension
        for _ in range(5):
            j = random_full_rank(rng, 3).matrix.real * 3 + np.eye(3)
            j = 0.5 * (j + j.T)
            assert wmse_bound(j, j / 4, 2, "separable") == pytest.approx(9 / 4)
            assert wmse_bound(j, j / 4, 2, "two-copy") == pytest.approx(3 / 2)

    def test_hs_weight_at_qubit_center(self):
        j = np.eye(3)
        w = 0.5 * np.eye(3)
        assert wmse_bound(j, w, 2, "separable") == pytest.approx(4.5)
        assert wmse_bound(j, w, 2, "two-copy") == pytest.approx(3.0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            wmse_bound(np.eye(3), np.eye(3), 2, "collective")


class TestOptimalFisher:
    def test_saturates_information_bound(self, rng):
        j = random_full_rank(rng, 3).matrix.real * 3 + np.eye(3)
        j = 0.5 * (j + j.T)
        w = random_full_rank(rng, 3).matrix.real
        w = 0.5 * (w + w.T) + np.eye(3)
        for mode, c in (("separable", 1.0), ("two-copy", 3.0)):
            i_star = optimal_fisher(j, w, 2, mode)
            assert gm_value(j, i_star) == pytest.approx(c, abs=1e-9)

    def test_attains_wmse_bound(self, rng):
        j = np.eye(3) * 2.0
        w = np.diag([1.0, 2.0, 3.0])
        for mode, t in (("separable", 1.0), ("two-copy", 2.0)):
            i_star = optimal_fisher(j, w, 2, mode)
            mse = t * np.trace(w @ np.linalg.inv(i_star)).real
            assert mse == pytest.approx(wmse_bound(j, w, 2, mode), rel=1e-9)


class TestFisherReport:
    def test_collective_sic_report(self):
        par = BlochQubit([0.5, 0.0, 0.0])
        rep = fisher_report(par, collective_sic_qubit())
        assert rep.gm.verdict == "equality"
        assert rep.symmetry.verdict == "fisher-symmetric"
        assert rep.dropped == ()
        assert np.allclose(rep.i_matrix, rep.j_matrix, atol=1e-10)

    def test_to_dict_is_json_serializable(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        rep = fisher_report(par, great_circle_qubit())
        text = json.dumps(rep.to_dict())
        assert "i_matrix" in json.loads(text)

    @pytest.mark.filterwarnings("ignore:outcome .* dropped")
    def test_verdicts_use_report_drop_threshold(self):
        # a high drop threshold removes two outcomes; both verdicts must be
        # computed from the Fisher matrix the report returns
        par = BlochQubit([0.0, 0.0, 0.9])
        p = scheme_povm("sic-single")
        rep = fisher_report(par, p, drop_threshold=0.2)
        assert len(rep.dropped) == 2
        i_mat, j_mat = rep.i_matrix, rep.j_matrix
        assert np.max(np.abs(
            i_mat - fisher_matrix(par, p, drop_threshold=0.2))) < 1e-14
        assert rep.gm.value == pytest.approx(gm_value(j_mat, i_mat), rel=1e-12)
        fit = np.sum(j_mat * i_mat) / np.sum(j_mat * j_mat)
        assert rep.symmetry.scale_fit == pytest.approx(fit, rel=1e-12)

    def test_tolerances_reach_verdicts(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        p = diluted_sic_qubit()
        rep = fisher_report(par, p)
        assert rep.gm.verdict == "strict"
        assert rep.symmetry.verdict == "weakly-fisher-symmetric"
        loose = fisher_report(par, p, tol=1.0, symmetry_tol=1.0)
        assert loose.gm.verdict == "equality"
        assert loose.symmetry.verdict == "fisher-symmetric"
        assert gm_check(par, p, tol=1.0) == loose.gm
        assert fisher_symmetry_check(par, p, tol=1.0) == loose.symmetry
