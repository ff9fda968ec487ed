import numpy as np
import pytest

from conftest import bloch_of, random_full_rank, random_pure, random_unitary
from fisym.states import (
    AffineMixed,
    BlochQubit,
    DensityMatrix,
    Parametrization,
    PureCanonical,
    PureState,
    density_from_bloch,
    fidelity,
    gell_mann_basis,
    qfi_matrix,
    sld,
    tangent_ops,
)


class TestStateTypes:
    def test_pure_state_requires_normalization(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_projector(self):
        psi = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.allclose(psi.projector(), 0.5 * np.ones((2, 2)))

    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_density_requires_psd(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_density_requires_hermitian(self):
        m = np.array([[0.5, 0.3], [0.1, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_purity_and_is_pure(self, rng):
        psi = random_pure(rng, 3)
        rho = DensityMatrix.from_pure(psi)
        assert np.sum(np.abs(rho.matrix) ** 2) == pytest.approx(1.0)
        assert rho.is_pure()
        mixed = DensityMatrix.maximally_mixed(3)
        assert np.sum(np.abs(mixed.matrix) ** 2) == pytest.approx(1.0 / 3.0)
        assert not mixed.is_pure()


    def test_spectrum_is_kept_descending_and_read_only(self, rng):
        rho = random_full_rank(rng, 3)
        vals, v = rho.eigenvalues, rho.eigenvectors
        assert np.all(np.diff(vals) <= 0)
        assert np.allclose((v * vals) @ v.conj().T, rho.matrix, atol=1e-14)
        for a in (rho.matrix, vals, v):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_is_pure_is_numerical_rank_one(self):
        # purity 1 - 1.4e-9 is below 1 - RANK_TOL; the rank is 1
        assert DensityMatrix(np.diag([1.0 - 7e-10, 7e-10])).is_pure()
        assert not DensityMatrix(np.diag([1.0 - 2e-9, 2e-9])).is_pure()
        # lambda_max = 1 - 1.4e-9 is below 1 - RANK_TOL; the rank is 1
        rho = DensityMatrix(np.diag([1.0 - 1.4e-9, 7e-10, 7e-10]))
        assert rho.rank() == 1 and rho.is_pure()
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        assert rho.rank() == 2 and not rho.is_pure()
        assert DensityMatrix.maximally_mixed(3).rank() == 3

    def test_one_by_one_state_is_pure(self):
        # a state with no second eigenvalue
        rho = DensityMatrix(np.ones((1, 1)))
        assert rho.rank() == 1 and rho.is_pure()


class TestBlochMaps:
    def test_roundtrip(self, rng):
        s = np.array([0.3, -0.2, 0.5])
        assert np.allclose(bloch_of(density_from_bloch(s)), s)

    def test_unit_vector_is_pure(self):
        rho = density_from_bloch([0.0, 0.0, 1.0])
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_outside_ball_rejected(self):
        with pytest.raises(ValueError):
            density_from_bloch([1.0, 1.0, 0.0])

    @pytest.mark.parametrize("s", [[np.nan, 0.0, 0.0], [0.0, np.inf, 0.0],
                                   [0.0, 0.0, -np.inf]])
    def test_non_finite_rejected(self, s):
        with pytest.raises(ValueError, match="finite"):
            density_from_bloch(s)

    def test_center_is_maximally_mixed(self):
        rho = density_from_bloch([0.0, 0.0, 0.0])
        assert np.allclose(rho.matrix, np.eye(2) / 2)


class TestGellMannBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_traceless_hermitian(self, d):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for a, ea in enumerate(basis):
            assert np.allclose(ea, ea.conj().T)
            assert abs(np.trace(ea)) < 1e-14
            for b, eb in enumerate(basis):
                ip = np.trace(ea @ eb).real
                assert ip == pytest.approx(1.0 if a == b else 0.0, abs=1e-13)

    def test_qubit_case_is_scaled_pauli(self):
        basis = gell_mann_basis(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        targets = [m / np.sqrt(2) for m in (sx, sy, sz)]
        for t in targets:
            assert any(np.allclose(e, t) for e in basis)


class TestParametrizations:
    def test_pure_canonical_basepoint(self, rng):
        psi = random_pure(rng, 3)
        par = PureCanonical(psi)
        assert par.n_params == 4
        assert np.allclose(par.base().matrix, psi.projector())

    def test_pure_canonical_subnormal_amplitudes(self):
        # amplitudes near the smallest double once made the adapted basis NaN
        v = np.array([1j, 2.2250738585e-309j, 2.2250738585e-309j])
        par = PureCanonical(PureState(v))
        assert np.allclose(par.base().matrix, np.outer(v, v.conj()),
                           atol=1e-15)
        j = qfi_matrix(par.base(), par.tangents())
        assert np.max(np.abs(j - 4.0 * np.eye(4))) < 1e-12

    def test_pure_canonical_tangents_match_finite_differences(self, rng):
        h = 1e-6
        for d in (2, 3, 4):
            par = PureCanonical(random_pure(rng, d))
            tans = par.tangents()
            for a in range(par.n_params):
                theta = np.zeros(par.n_params)
                theta[a] = h
                plus = par.density(theta).matrix
                theta[a] = -h
                minus = par.density(theta).matrix
                fd = (plus - minus) / (2 * h)
                assert np.max(np.abs(fd - tans[a])) < 1e-8

    def test_affine_mixed_tangents_match_finite_differences(self, rng):
        h = 1e-6
        rho = random_full_rank(rng, 3)
        par = AffineMixed(rho)
        assert par.n_params == 8
        tans = par.tangents()
        for a in range(par.n_params):
            theta = np.zeros(par.n_params)
            theta[a] = h
            plus = par.density(theta).matrix
            theta[a] = -h
            minus = par.density(theta).matrix
            assert np.max(np.abs((plus - minus) / (2 * h) - tans[a])) < 1e-9

    def test_affine_mixed_rejects_traced_basis(self, rng):
        rho = random_full_rank(rng, 2)
        bad = [np.eye(2)] * 3
        with pytest.raises(ValueError):
            AffineMixed(rho, basis=bad)

    def test_bloch_qubit_tangents(self):
        par = BlochQubit([0.1, 0.2, 0.3])
        tans = par.tangents()
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.allclose(tans[0], sx / 2)
        assert np.allclose(par.base().matrix,
                           density_from_bloch([0.1, 0.2, 0.3]).matrix)
        # away from theta = 0 the chart is (1 + (s0 + theta).sigma)/2
        for s0, theta in [([0.1, 0.2, 0.3], [0.05, -0.1, 0.2]),
                          ([0.0, 0.0, 0.0], [0.3, 0.4, -0.5]),
                          ([-0.6, 0.1, 0.2], [0.6, -0.1, 0.7])]:
            got = BlochQubit(s0).density(theta).matrix
            want = density_from_bloch(np.add(s0, theta)).matrix
            assert np.max(np.abs(got - want)) <= 1e-15
        with pytest.raises(ValueError):
            BlochQubit([0.5, 0.0, 0.0]).density([0.6, 0.0, 0.0])  # radius 1.1

    def test_bloch_charts_share_one_checked_stack(self):
        a, b = BlochQubit([0.1, 0.2, 0.3]), BlochQubit([0.0, 0.0, 0.0])
        assert a.basis is b.basis
        assert not a.basis.flags.writeable
        assert np.array_equal(a.basis, tangent_ops(b))

    def test_bloch_chart_from_density(self):
        # the chart at a given state keeps it, and it is the chart at the
        # state's Bloch vector
        rho = density_from_bloch([0.1, 0.2, 0.3])
        chart = BlochQubit.from_density(rho)
        assert chart.base() is rho
        assert chart.basis is BlochQubit([0.0, 0.0, 0.0]).basis
        theta = [0.05, -0.1, 0.2]
        assert np.array_equal(chart.density(theta).matrix,
                              BlochQubit([0.1, 0.2, 0.3]).density(theta).matrix)
        with pytest.raises(ValueError):
            BlochQubit.from_density(DensityMatrix.maximally_mixed(3))

    def test_base_state_is_kept(self, rng):
        # base() returns the state validated at construction, and it equals
        # the chart at theta = 0
        bloch = BlochQubit([0.1, 0.2, 0.3])
        assert bloch.base() is bloch.base()
        assert np.array_equal(bloch.base().matrix,
                              bloch.density(np.zeros(3)).matrix)
        rho = random_full_rank(rng, 3)
        affine = AffineMixed(rho)
        assert affine.base() is rho
        assert np.array_equal(affine.base().matrix,
                              affine.density(np.zeros(8)).matrix)

    def test_tangent_ops_validation(self, rng):
        # a chart checks its tangents once, when it is built, and
        # tangent_ops hands out that read-only stack
        for par in (BlochQubit([0.0, 0.0, 0.0]), AffineMixed(
                random_full_rank(rng, 3)), PureCanonical(random_pure(rng, 3))):
            ops = tangent_ops(par)
            assert ops is par.basis and len(ops) == par.n_params
            assert not ops.flags.writeable
            copies = par.tangents()
            assert np.array_equal(copies, ops)
            copies[0][0, 0] = 7.0
            assert ops[0][0, 0] != 7.0

        rho = density_from_bloch([0.1, 0.2, 0.3])
        sx = np.array([[0, 1], [1, 0]], dtype=complex)

        class Bad(Parametrization):
            # a chart of its own that makes bad tangents
            def __init__(self, ops):
                super().__init__(rho, ops)

        bad = {
            "traced": [np.eye(2)] * 3,
            "not traceless": [sx, np.diag([1.0, 0.0]), sx],
            "NaN": [sx, np.full((2, 2), np.nan), sx],
            "infinite": [sx, sx, np.diag([np.inf, -np.inf])],
            "not Hermitian": [sx, np.array([[0.0, 1.0], [0.0, 0.0]])],
            "not square": [np.zeros((2, 3))],
            "of another size": gell_mann_basis(3),
            "not a stack": sx,
        }
        for what, ops in bad.items():
            for build in (lambda o: Parametrization(rho, o),
                          lambda o: AffineMixed(rho, basis=o), Bad):
                with pytest.raises(ValueError):
                    build(ops)
                    pytest.fail(f"accepted {what} tangents")


class TestSld:
    def test_defining_equation_full_rank(self, rng):
        for d in (2, 3, 4):
            rho = random_full_rank(rng, d)
            basis = gell_mann_basis(d)
            for e in basis[:3]:
                l = sld(rho, e)
                resid = 0.5 * (rho.matrix @ l + l @ rho.matrix) - e
                assert np.max(np.abs(resid)) < 1e-10

    def test_pure_state_shortcut(self, rng):
        psi = random_pure(rng, 3)
        par = PureCanonical(psi)
        t = par.tangents()[0]
        rho = DensityMatrix.from_pure(psi)
        assert np.allclose(sld(rho, t), 2.0 * t)

    def test_pure_state_rejects_radial_direction(self):
        rho = DensityMatrix(np.diag([1.0, 0.0]))
        radial = np.diag([1.0, -1.0])
        with pytest.raises(ValueError):
            sld(rho, radial)

    def test_rank_deficient_mixed_solves_inside_the_support(self):
        rho = DensityMatrix(np.diag([0.5, 0.5, 0.0]))
        # |0><1| + |1><0|, inside the support of rho
        e = gell_mann_basis(3)[0]
        l = sld(rho, e)
        resid = 0.5 * (rho.matrix @ l + l @ rho.matrix) - e
        assert np.max(np.abs(resid)) < 1e-12
        # diag(1, 1, -2) / sqrt(6) has a null-null block
        with pytest.raises(ValueError, match="leaves the support"):
            sld(rho, gell_mann_basis(3)[-1])


class TestQfi:
    def test_bloch_closed_form(self, rng):
        # J = identity + s s^T / (1 - s^2) in the Bloch chart
        for _ in range(20):
            s = rng.normal(size=3)
            s *= rng.uniform(0.05, 0.95) / np.linalg.norm(s)
            par = BlochQubit(s)
            j = qfi_matrix(par.base(), par.tangents())
            s2 = float(s @ s)
            target = np.eye(3) + np.outer(s, s) / (1.0 - s2)
            assert np.max(np.abs(j - target)) < 1e-9

    def test_pure_canonical_is_isotropic(self, rng):
        for d in (2, 3, 4):
            par = PureCanonical(random_pure(rng, d))
            j = qfi_matrix(par.base(), par.tangents())
            assert np.max(np.abs(j - 4.0 * np.eye(par.n_params))) < 1e-9

    def test_maximally_mixed_affine(self):
        for d in (2, 3):
            rho = DensityMatrix.maximally_mixed(d)
            par = AffineMixed(rho)
            j = qfi_matrix(rho, par.tangents())
            assert np.max(np.abs(j - d * np.eye(d * d - 1))) < 1e-10

    def test_unitary_covariance(self, rng):
        # conjugating state and tangents by a unitary leaves J unchanged
        rho = random_full_rank(rng, 3)
        par = AffineMixed(rho)
        j = qfi_matrix(rho, par.tangents())
        u = random_unitary(rng, 3)
        rho_u = DensityMatrix(u @ rho.matrix @ u.conj().T)
        tans_u = [u @ t @ u.conj().T for t in par.tangents()]
        j_u = qfi_matrix(rho_u, tans_u)
        assert np.max(np.abs(j - j_u)) < 1e-9

    def test_pure_limit_of_depolarized(self, rng):
        # QFI of a slightly depolarized pure state approaches the pure value
        psi = random_pure(rng, 2)
        par = PureCanonical(psi)
        tans = par.tangents()
        j_pure = qfi_matrix(par.base(), tans)
        eps = 1e-6
        rho_eps = DensityMatrix(
            (1 - eps) * psi.projector() + eps * np.eye(2) / 2)
        j_eps = qfi_matrix(rho_eps, tans)
        assert np.max(np.abs(j_eps - j_pure)) / np.max(np.abs(j_pure)) < 1e-3


class TestDistances:
    def test_same_state(self, rng):
        rho = random_full_rank(rng, 3)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_pure_state_fidelity_is_overlap(self, rng):
        psi = random_pure(rng, 3)
        phi = random_pure(rng, 3)
        f = fidelity(DensityMatrix.from_pure(psi), DensityMatrix.from_pure(phi))
        # square-rooted roundoff eigenvalues limit the attainable accuracy
        overlap = np.vdot(psi.vector, phi.vector)
        assert f == pytest.approx(abs(overlap) ** 2, abs=1e-7)

    def test_qubit_fidelity_closed_form(self, rng):
        for _ in range(10):
            rho = random_full_rank(rng, 2)
            sig = random_full_rank(rng, 2)
            f = fidelity(rho, sig)
            closed = (np.trace(rho.matrix @ sig.matrix).real
                      + 2 * np.sqrt(np.linalg.det(rho.matrix).real
                                    * np.linalg.det(sig.matrix).real))
            assert f == pytest.approx(closed, abs=1e-10)

    def test_hs_distance_bloch_form(self):
        a = density_from_bloch([0.5, 0.0, 0.0])
        b = density_from_bloch([0.0, 0.5, 0.0])
        # squared HS distance is half the squared Bloch displacement, the
        # closed form that tomosim scores estimates with
        hs = np.linalg.norm(a.matrix - b.matrix)
        assert hs ** 2 == pytest.approx(0.25, abs=1e-12)

    def test_rounding_negative_eigenvalue_is_accepted(self):
        # DensityMatrix accepts eigenvalues down to -1e-10 as rounding
        rho = DensityMatrix(np.diag([1.0 + 5e-11, -5e-11]))
        mixed = DensityMatrix.maximally_mixed(2)
        assert fidelity(rho, mixed) == pytest.approx(0.5, abs=1e-10)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix(np.diag([1.0, 0.0]))
        b = DensityMatrix(np.diag([0.0, 1.0]))
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)
