"""Dense complex linear algebra for small Hilbert spaces.

Everything operates on plain ``numpy.ndarray`` matrices.  Dimensions stay
small (products of single-system dimensions up to ~16), so dense LAPACK
routines are used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tol

__all__ = [
    "hermitian_part",
    "require_hermitian",
    "kron",
    "partial_trace",
    "swap_operator",
    "sym_projector",
    "antisym_projector",
    "EigenDecomposition",
    "hermitian_eig",
    "mat_power",
    "hs_inner",
]


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2 of a matrix or of each matrix in a stack.

    The real and imaginary parts are halved apart: a complex product by
    1/2 would give some zeros a sign that depends on the imaginary part,
    so the result would not be its own Hermitian part bit for bit.  The
    sum is made C-ordered, as reading complex entries as float pairs
    needs a contiguous last axis.
    """
    s = np.ascontiguousarray(a + a.conj().swapaxes(-1, -2), dtype=complex)
    return (0.5 * s.view(float)).view(complex)


def require_hermitian(a) -> np.ndarray:
    """Symmetrize a matrix, or a stack of shape (..., n, n), and reject it
    if an entry is not finite or larger than ``_tol.MAX_ENTRY``, or if a
    matrix is too far from Hermitian.

    Each matrix is held to ``_tol.HERM_TOL`` times its own Frobenius norm,
    with ``HERM_TOL`` itself as an absolute floor for near-zero matrices.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    size = np.maximum(np.abs(a.real), np.abs(a.imag))
    if not np.all(size <= _tol.MAX_ENTRY):  # NaN compares false
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        raise ValueError(f"matrix entries must be at most {_tol.MAX_ENTRY:g} "
                         "in size")
    asym = np.linalg.norm(a - a.conj().swapaxes(-1, -2), axis=(-2, -1))
    limit = _tol.HERM_TOL * np.maximum(1.0, np.linalg.norm(a, axis=(-2, -1)))
    if np.any(asym > limit):
        raise ValueError(f"matrix is not Hermitian (asymmetry "
                         f"{np.max(asym):.3e})")
    return hermitian_part(a)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A ⊗ B."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _split_dim(m: np.ndarray) -> int:
    n = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != n:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    d = int(round(np.sqrt(n)))
    if d * d != n:
        raise ValueError(f"matrix of size {n} is not a two-factor product space")
    return d


def partial_trace(m: np.ndarray, subsystem: int) -> np.ndarray:
    """Trace out one factor of an operator on H ⊗ H, or of each operator
    in a stack.

    Parameters
    ----------
    m : ndarray
        Operator on a d² dimensional product of two equal factors, or a
        stack of them with shape (..., d², d²).
    subsystem : int
        0 traces out the first factor, 1 the second.

    Returns
    -------
    ndarray
        d × d operator on the remaining factor, with the stack's leading
        shape (..., d, d).
    """
    m = np.asarray(m, dtype=complex)
    d = _split_dim(m)
    t = m.reshape(*m.shape[:-2], d, d, d, d)
    if subsystem == 0:
        return np.einsum("...ikil->...kl", t)
    if subsystem == 1:
        return np.einsum("...kili->...kl", t)
    raise ValueError("subsystem must be 0 or 1")


def swap_operator(d: int) -> np.ndarray:
    """Swap V on H ⊗ H with V(x ⊗ y) = y ⊗ x."""
    if d < 1:
        raise ValueError("dimension must be positive")
    v = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            v[j * d + k, k * d + j] = 1.0
    return v


def sym_projector(d: int) -> np.ndarray:
    """Projector onto the symmetric subspace of H ⊗ H."""
    return 0.5 * (np.eye(d * d, dtype=complex) + swap_operator(d))


def antisym_projector(d: int) -> np.ndarray:
    """Projector onto the antisymmetric subspace of H ⊗ H."""
    return 0.5 * (np.eye(d * d, dtype=complex) - swap_operator(d))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns, aligned with eigenvalues

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eig(a: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, sorted descending."""
    h = require_hermitian(a)
    if h.ndim != 2:
        raise ValueError(f"expected one matrix, got shape {h.shape}")
    vals, vecs = np.linalg.eigh(h)
    order = np.argsort(vals)[::-1]
    return EigenDecomposition(vals[order], vecs[:, order])


def mat_power(
    a: np.ndarray, p: float, allow_pseudoinverse: bool = False
) -> np.ndarray:
    """Hermitian matrix power A^p through the spectral decomposition.

    Eigenvalues in [-``_tol.NULL_TOL``, 0) are clipped to zero.  More
    negative ones reject the input as not PSD.  For p < 0, eigenvalues at
    or below ``NULL_TOL`` either raise or, with ``allow_pseudoinverse``,
    are excluded from inversion (pseudoinverse convention).
    """
    dec = hermitian_eig(a)
    vals = dec.eigenvalues.copy()
    if np.any(vals < -_tol.NULL_TOL):
        raise ValueError(
            f"matrix has negative eigenvalue {vals.min():.3e}, not PSD"
        )
    vals = np.clip(vals, 0.0, None)
    if p < 0:
        null = vals <= _tol.NULL_TOL
        if np.any(null) and not allow_pseudoinverse:
            raise ValueError("matrix is singular at this tolerance; "
                             "pass allow_pseudoinverse to skip the null space")
        out = np.zeros_like(vals)
        out[~null] = vals[~null] ** p
        vals = out
    else:
        vals = vals ** p
    v = dec.eigenvectors
    return hermitian_part((v * vals) @ v.conj().T)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(A†B)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))
