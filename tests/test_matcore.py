import numpy as np
import pytest

from fisym.matcore import (
    EigenDecomposition,
    antisym_projector,
    hermitian_eig,
    hermitian_part,
    hs_inner,
    kron,
    mat_power,
    partial_trace,
    require_hermitian,
    swap_operator,
    sym_projector,
)


def random_hermitian(rng, d):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


class TestHermitianChecks:
    def test_hermitian_part_is_hermitian(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = hermitian_part(a)
        assert np.allclose(h, h.conj().T)

    def test_hermitian_part_is_its_own_hermitian_part_bit_for_bit(self):
        # zero real parts with imaginary parts of either sign: halving by a
        # complex product signs these zeros by the imaginary part
        a = np.array([[1.0, complex(-0.0, 1.0)], [complex(-0.0, -1.0), 2.0]])
        h = hermitian_part(a)
        assert hermitian_part(h).tobytes() == h.tobytes()

    def test_require_hermitian_accepts_roundoff(self):
        a = np.array([[1.0, 0.5], [0.5 + 1e-15, 2.0]])
        require_hermitian(a)

    def test_require_hermitian_rejects_asymmetry(self):
        a = np.array([[1.0, 0.5], [0.6, 2.0]])
        with pytest.raises(ValueError):
            require_hermitian(a)

    def test_require_hermitian_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            require_hermitian(np.ones((2, 3)))

    @pytest.mark.parametrize("a", [
        [[1e200, 2e200], [0.0, 1e200]],  # its norms overflow to inf
        [[1.7976931348623157e308, 0.0], [0.0, 1.0]],
        [[1.3407807929942596e154j, 0.0], [0.0, 0.0]],
    ])
    def test_require_hermitian_rejects_entries_whose_norms_overflow(self, a):
        # a ValueError, not an overflow warning or a wrong acceptance
        with pytest.raises(ValueError, match="at most"):
            require_hermitian(a)

    def test_require_hermitian_stack_holds_each_matrix_to_its_norm(self, rng):
        # a large matrix in the stack must not loosen the check of a small one
        big = 1e6 * random_hermitian(rng, 2)
        small = np.array([[1.0, 1e-9], [0.0, 1.0]])
        with pytest.raises(ValueError):
            require_hermitian([big, small])
        stack = [big, random_hermitian(rng, 2)]
        assert np.array_equal(require_hermitian(stack),
                              [require_hermitian(m) for m in stack])
        # a stack need not be C-ordered
        assert np.array_equal(require_hermitian(np.asfortranarray(stack)),
                              require_hermitian(stack))


class TestKronAndPartialTrace:
    def test_kron_matches_numpy(self, rng):
        a = rng.normal(size=(2, 2))
        b = rng.normal(size=(3, 3))
        assert np.array_equal(kron(a, b), np.kron(a, b))

    def test_partial_trace_of_product(self, rng):
        for d in (2, 3):
            a = random_hermitian(rng, d)
            b = random_hermitian(rng, d)
            m = kron(a, b)
            assert np.allclose(partial_trace(m, 1), a * np.trace(b))
            assert np.allclose(partial_trace(m, 0), b * np.trace(a))
            stack = np.array([m, kron(b, a)])
            assert np.allclose(partial_trace(stack, 1),
                               [a * np.trace(b), b * np.trace(a)])
            assert np.allclose(partial_trace(stack, 0),
                               [b * np.trace(a), a * np.trace(b)])

    def test_partial_traces_preserve_full_trace(self, rng):
        m = random_hermitian(rng, 9)
        t1 = np.trace(partial_trace(m, 0))
        t2 = np.trace(partial_trace(m, 1))
        assert abs(t1 - np.trace(m)) < 1e-12
        assert abs(t2 - np.trace(m)) < 1e-12

    def test_partial_trace_rejects_nonproduct_size(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(6), 1)

    def test_partial_trace_rejects_bad_subsystem(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2)


class TestSwapAndProjectors:
    def test_swap_exchanges_product_vectors(self, rng):
        for d in (2, 3):
            v = swap_operator(d)
            x = rng.normal(size=d) + 1j * rng.normal(size=d)
            y = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert np.allclose(v @ np.kron(x, y), np.kron(y, x))

    def test_swap_is_involution(self):
        for d in (2, 3, 4):
            v = swap_operator(d)
            assert np.allclose(v @ v, np.eye(d * d))

    def test_swap_conjugation_exchanges_factors(self, rng):
        d = 3
        v = swap_operator(d)
        a = random_hermitian(rng, d)
        b = random_hermitian(rng, d)
        assert np.allclose(v @ kron(a, b) @ v, kron(b, a))

    def test_projectors_resolve_identity(self):
        for d in (2, 3):
            p_plus = sym_projector(d)
            p_minus = antisym_projector(d)
            assert np.allclose(p_plus + p_minus, np.eye(d * d))
            assert np.allclose(p_plus @ p_minus, 0.0)
            assert np.allclose(p_plus @ p_plus, p_plus)
            assert np.allclose(p_minus @ p_minus, p_minus)

    def test_projector_ranks(self):
        for d in (2, 3, 4):
            assert abs(np.trace(sym_projector(d)) - d * (d + 1) / 2) < 1e-12
            assert abs(np.trace(antisym_projector(d)) - d * (d - 1) / 2) < 1e-12

    def test_sym_projector_marginal(self):
        # tr_2 P_plus = (d+1)/2 * identity
        for d in (2, 3):
            q = partial_trace(sym_projector(d), 1)
            assert np.allclose(q, (d + 1) / 2 * np.eye(d))


class TestEigenDecomposition:
    def test_reconstruction_many_random(self, rng):
        for _ in range(1000):
            d = int(rng.integers(2, 17))
            a = random_hermitian(rng, d)
            dec = hermitian_eig(a)
            scale = max(1.0, np.linalg.norm(a))
            assert np.max(np.abs(dec.reconstruct() - a)) < 1e-10 * scale

    def test_eigenvalues_descending(self, rng):
        a = random_hermitian(rng, 8)
        dec = hermitian_eig(a)
        assert np.all(np.diff(dec.eigenvalues) <= 1e-14)

    def test_eigenvectors_orthonormal(self, rng):
        a = random_hermitian(rng, 6)
        dec = hermitian_eig(a)
        u = dec.eigenvectors
        assert np.allclose(u.conj().T @ u, np.eye(6))

    def test_rejects_non_hermitian(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        with pytest.raises(ValueError):
            hermitian_eig(a)

    def test_frozen_dataclass(self):
        dec = hermitian_eig(np.diag([2.0, 1.0]))
        assert isinstance(dec, EigenDecomposition)
        with pytest.raises(AttributeError):
            dec.eigenvalues = np.zeros(2)


class TestMatPower:
    def test_inverse_of_scaled_identity(self):
        assert np.allclose(mat_power(np.eye(3) / 2, -1.0), 2 * np.eye(3))

    def test_square_root_squares_back(self, rng):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a = g @ g.conj().T + 0.1 * np.eye(4)
        r = mat_power(a, 0.5)
        assert np.allclose(r @ r, a)

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError):
            mat_power(np.diag([1.0, -0.5]), 0.5)

    def test_singular_inverse_rejected(self):
        with pytest.raises(ValueError):
            mat_power(np.diag([1.0, 0.0]), -1.0)

    def test_pseudoinverse_on_null_space(self):
        a = np.diag([2.0, 0.0])
        p = mat_power(a, -1.0, allow_pseudoinverse=True)
        assert np.allclose(p, np.diag([0.5, 0.0]))

    def test_fractional_power_of_projector(self):
        p = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(mat_power(p, 0.5), p)


class TestHsInner:
    def test_known_value(self):
        a = np.diag([1.0, 2.0])
        b = np.diag([3.0, 4.0])
        assert hs_inner(a, b) == pytest.approx(11.0)

    def test_conjugate_symmetry(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_positive_on_nonzero(self, rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert hs_inner(a, a).real > 0
