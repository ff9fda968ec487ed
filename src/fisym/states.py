"""States, local parametrizations, and quantum Fisher information.

A parametrization fixes a chart theta -> rho(theta) around a base state.
Tangent operators are the partial derivatives at theta = 0; they feed both
the symmetric-logarithmic-derivative construction and the classical Fisher
matrices in :mod:`fisym.fisher`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _tol, matcore

__all__ = [
    "PureState",
    "DensityMatrix",
    "density_from_bloch",
    "gell_mann_basis",
    "Parametrization",
    "PureCanonical",
    "AffineMixed",
    "BlochQubit",
    "tangent_ops",
    "sld",
    "qfi_matrix",
    "fidelity",
    "qubit_fidelity",
]


def _unit_vector(v: np.ndarray, what: str) -> np.ndarray:
    """v / |v| for a float or complex vector v, which ``what`` names in
    the ValueError raised when v is not finite and nonzero.  v is first
    scaled by the power of two that brings its largest part (entry, or
    real or imaginary part of an entry) into [1/2, 1), so |v| neither
    overflows nor underflows; the scaling is exact and leaves v / |v| as
    it was."""
    parts = np.ascontiguousarray(v).view(float)
    v = np.ldexp(parts, -np.frexp(np.abs(parts).max())[1]).view(v.dtype)
    r = np.linalg.norm(v)
    if not 0.0 < r < np.inf:
        raise ValueError(f"{what} must be finite and nonzero")
    return v / r


@dataclass(frozen=True)
class PureState:
    """Normalized state vector: finite entries and unit norm, kept as a
    read-only copy."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.array(self.vector, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValueError("state vector entries must be finite")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > _tol.NORM_TOL:
            raise ValueError(f"state vector norm {norm} is not 1")
        v.flags.writeable = False
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.size

    def projector(self) -> np.ndarray:
        return np.outer(self.vector, self.vector.conj())


@dataclass(frozen=True)
class DensityMatrix:
    """Unit-trace positive-semidefinite matrix and its spectrum.

    Construction symmetrizes and validates: one square matrix, finite and
    Hermitian, trace within 1e-10 of 1, eigenvalues in [-1e-10, 1 + 1e-10].
    It decomposes the matrix once and keeps a read-only copy of it with
    its ``eigenvalues``, in descending order, and the matching columns of
    ``eigenvectors``.  Every rank decision reads that spectrum: the
    numerical :meth:`rank` is the count of eigenvalues above
    ``_tol.RANK_TOL``, which are the kept ones.  The state is pure when
    its rank is 1 and full rank when its rank is its dimension.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = matcore.require_hermitian(self.matrix)
        if m.ndim != 2:
            raise ValueError(f"expected one matrix, got shape {m.shape}")
        tr = np.trace(m).real
        if abs(tr - 1.0) > _tol.TRACE_TOL:
            raise ValueError(f"trace {tr} is not 1")
        vals, vecs = np.linalg.eigh(m)
        vals, vecs = vals[::-1], np.ascontiguousarray(vecs[:, ::-1])
        if vals[-1] < -_tol.PSD_TOL or vals[0] > 1.0 + _tol.PSD_TOL:
            raise ValueError(f"spectrum {vals} is outside [0, 1]")
        for f, a in zip(fields(self), (m, vals, vecs)):
            a.flags.writeable = False
            object.__setattr__(self, f.name, a)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def rank(self) -> int:
        """The numerical rank: the count of eigenvalues above
        ``_tol.RANK_TOL``."""
        return int(np.count_nonzero(self.eigenvalues > _tol.RANK_TOL))

    def is_pure(self) -> bool:
        """Whether the numerical rank is 1."""
        return self.rank() == 1

    @staticmethod
    def from_pure(psi: PureState) -> "DensityMatrix":
        return DensityMatrix(psi.projector())

    @staticmethod
    def maximally_mixed(d: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(d, dtype=complex) / d)


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _bloch_vector(s) -> np.ndarray:
    """s as a float 3-vector, checked finite and inside the unit ball."""
    s = np.asarray(s, dtype=float).reshape(3)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"Bloch vector {s} is not finite")
    r = math.hypot(*s)  # no overflow on huge finite entries
    if r > 1.0 + _tol.NORM_TOL:
        raise ValueError(f"Bloch vector has length {r} > 1")
    return s


def _bloch_matrices(bloch: np.ndarray) -> np.ndarray:
    """(1 + s·σ)/2 for a Bloch vector s, or for each row of a (g, 3)
    array of them, unchecked."""
    s = bloch[..., None, None]
    return 0.5 * (np.eye(2, dtype=complex) + s[..., 0, :, :] * _PAULI[0]
                  + s[..., 1, :, :] * _PAULI[1] + s[..., 2, :, :] * _PAULI[2])


def density_from_bloch(s) -> DensityMatrix:
    """Qubit state (1 + s·σ)/2 from a finite Bloch vector with |s| <= 1."""
    return DensityMatrix(_bloch_matrices(_bloch_vector(s)))


def gell_mann_basis(d: int) -> list[np.ndarray]:
    """Orthonormal traceless Hermitian basis, tr(E_a E_b) = delta_ab.

    Order: symmetric off-diagonals, antisymmetric off-diagonals, diagonals.
    For d = 2 this is (sigma_x, sigma_y, sigma_z)/sqrt(2).
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    basis = []
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = e[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = -1j / np.sqrt(2.0)
            e[k, j] = 1j / np.sqrt(2.0)
            basis.append(e)
    for l in range(1, d):
        e = np.zeros((d, d), dtype=complex)
        for j in range(l):
            e[j, j] = 1.0
        e[l, l] = -float(l)
        basis.append(e / np.sqrt(l * (l + 1)))
    return basis


class Parametrization:
    """Chart theta -> rho(theta) with basepoint at theta = 0.

    A chart is built from its base state and its tangents, the partial
    derivatives of rho at theta = 0, which are checked once, here (a stack
    of the state's size, and :func:`_tangent_stack`), and kept as the
    read-only stack ``basis``.
    """

    def __init__(self, base_state: DensityMatrix, tangents):
        self.base_state = base_state
        self.dim = base_state.dim
        self.basis = _tangent_stack(tangents)
        if self.basis.shape[1:] != base_state.matrix.shape:
            raise ValueError("tangents must be matrices of the state's size")
        self.n_params = len(self.basis)

    def density(self, theta: np.ndarray) -> DensityMatrix:
        raise NotImplementedError

    def tangents(self) -> list[np.ndarray]:
        """Partial derivatives of rho at theta = 0, as copies."""
        return list(self.basis.copy())

    def base(self) -> DensityMatrix:
        return self.base_state


def _tangent_stack(ops) -> np.ndarray:
    """``ops`` as a read-only stack of finite Hermitian matrices, checked
    traceless."""
    ops = matcore.require_hermitian(ops)
    if np.any(np.abs(np.trace(ops, axis1=-2, axis2=-1)) > _tol.TRACE_TOL):
        raise ValueError("tangent operators must be traceless")
    ops.flags.writeable = False
    return ops


def _adapted_basis(psi: np.ndarray) -> np.ndarray:
    """Unitary whose first column is psi."""
    d = psi.size
    m = np.hstack([psi.reshape(d, 1), np.eye(d, dtype=complex)])
    q, r = np.linalg.qr(m)
    # rotate columns so the R diagonal is real positive; column 0 then
    # reproduces psi exactly.  The phase comes from the angle, since
    # conj(r)/|r| overflows for subnormal r.
    return q * np.exp(-1j * np.angle(np.diag(r)))


class PureCanonical(Parametrization):
    """Canonical chart on pure states around a basepoint.

    With an orthonormal basis {|0'>, ..., |d-1'>} adapted so |0'> is the
    basepoint, the chart is

        psi(theta) = (|0'> + sum_j c_j |j'>) / sqrt(1 + |c|^2),
        c_j = theta_j + i theta_{j + d - 1},      j = 1 .. d-1,

    so there are 2d - 2 real parameters.  The tangents at theta = 0 are
    |j'><0'| + |0'><j'| and i(|j'><0'| - |0'><j'|), the canonical
    parametrization in which the quantum Fisher matrix is 4 times the
    identity.  ``base``, when given, is the chart's base state in place
    of a new projector onto the basepoint: a pure DensityMatrix the
    caller already holds, whose top eigenvector is the basepoint.
    """

    def __init__(self, basepoint: PureState,
                 base: DensityMatrix | None = None):
        self._basis = b = _adapted_basis(basepoint.vector)
        v0, vj = b[:, 0], b[:, 1:].T
        ket = vj[:, :, None] * v0.conj()  # |j'><0'|
        bra = v0[:, None] * vj.conj()[:, None, :]  # |0'><j'|
        if base is None:
            base = DensityMatrix.from_pure(PureState(v0 / np.linalg.norm(v0)))
        super().__init__(base, np.concatenate([ket + bra, 1j * (ket - bra)]))

    def density(self, theta: np.ndarray) -> DensityMatrix:
        theta = np.asarray(theta, dtype=float).reshape(self.n_params)
        re, im = np.split(theta, 2)  # theta_j and theta_{j + d - 1}
        v = self._basis @ np.concatenate([[1.0 + 0j], re + 1j * im])
        v = v / np.linalg.norm(v)
        return DensityMatrix(np.outer(v, v.conj()))


# the tangents σ/2 of every BlochQubit, checked once
_HALF_PAULI = _tangent_stack(0.5 * np.array(_PAULI))


class AffineMixed(Parametrization):
    """Affine chart rho(theta) = rho0 + sum_a theta_a E_a.

    The default operator basis is the orthonormal traceless basis from
    :func:`gell_mann_basis`, giving d^2 - 1 parameters.  ``basis`` holds
    the checked operators as a read-only (n_params, d, d) stack.
    """

    def __init__(self, base: DensityMatrix, basis: list[np.ndarray] | None = None):
        super().__init__(base, gell_mann_basis(base.dim) if basis is None
                         else basis)

    def density(self, theta: np.ndarray) -> DensityMatrix:
        theta = np.asarray(theta, dtype=float).reshape(self.n_params)
        m = self.base_state.matrix.copy()
        for t, e in zip(theta, self.basis):
            m = m + t * e
        return DensityMatrix(m)


class BlochQubit(AffineMixed):
    """Qubit chart rho(theta) = (1 + (s0 + theta)·σ)/2.

    It is the affine chart at ``density_from_bloch(s0)`` with the tangents
    σ/2, so rho(theta) is the affine sum.  Every chart shares one
    read-only σ/2 stack, checked once when the module loads.
    """

    dim, n_params, basis = 2, 3, _HALF_PAULI

    def __init__(self, s0):
        self.base_state = density_from_bloch(s0)

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "BlochQubit":
        """The chart at the qubit state rho, which is used as it is."""
        if rho.dim != 2:
            raise ValueError("the Bloch chart is for qubits")
        chart = cls.__new__(cls)
        chart.base_state = rho
        return chart


def tangent_ops(param: Parametrization) -> np.ndarray:
    """Tangent operators of a parametrization at its basepoint, stacked:
    its ``basis``, checked Hermitian, finite and traceless once, when the
    chart was built.  The kernels that take them from here do not check
    them again."""
    return param.basis


def _slds(rho: DensityMatrix, ops: np.ndarray) -> np.ndarray:
    """SLDs for a stack of Hermitian derivatives from the spectrum of rho:
    in its eigenbasis L_ij = 2 (drho)_ij / (lambda_i + lambda_j) on the
    pairs with a kept eigenvalue, and 0 on the null-null pairs."""
    vals, v = rho.eigenvalues, rho.eigenvectors
    # the eigenvalues descend, so the kept ones come first
    vh, kept = v.conj().T, np.arange(rho.dim) < rho.rank()
    pairs = vals[:, None] + vals[None, :]
    drho = vh @ ops @ v
    l = 2.0 * drho / np.where(kept[:, None] | kept[None, :], pairs, np.inf)
    # in the eigenbasis the residual is rounding of size |drho| on the kept
    # pairs and the null-null block of drho, which no L can match
    resid = np.linalg.norm(0.5 * pairs * l - drho, axis=(1, 2))
    limit = _tol.SLD_RESIDUAL_TOL * np.maximum(
        np.linalg.norm(ops, axis=(1, 2)), 1.0)
    if np.any(resid > limit):
        raise ValueError(f"sld residual {resid.max():.3e}; the derivative "
                         "leaves the support of the state")
    l = v @ l @ vh
    return 0.5 * (l + l.conj().swapaxes(1, 2))


def sld(rho: DensityMatrix, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L with (rho L + L rho)/2 = drho.

    It is the support form (Braunstein and Caves, PRL 72, 3439 (1994)),
    one formula at every rank, in the eigenbasis that rho keeps:
    L_ij = 2 drho_ij / (lambda_i + lambda_j) on the pairs where at least
    one eigenvalue is kept (above ``_tol.RANK_TOL``), and 0 on the pairs
    of two null eigenvalues.  For a full-rank state that is the whole
    solve; for a pure state and a drho tangent to the pure states it is
    L = 2 drho up to rounding.  A drho whose null-null block is not zero
    leaves the support of rho, where the rank changes and no finite L
    exists (Safranek, PRA 95, 052320 (2017)): the residual of the
    defining equation, taken in the eigenbasis, is then that block, and
    a residual above ``_tol.SLD_RESIDUAL_TOL`` times max(1, |drho|)
    raises.  No call decomposes rho again.
    """
    # the reshape rejects a stack, and a matrix of another size than rho
    ops = matcore.require_hermitian(drho).reshape(1, *rho.matrix.shape)
    return _slds(rho, ops)[0]


def _qfi(rho: DensityMatrix, ops: np.ndarray) -> np.ndarray:
    """:func:`qfi_matrix` for a stack of validated tangents."""
    slds = _slds(rho, ops)
    j = np.einsum("aij,bji->ab", rho.matrix @ slds, slds).real
    return 0.5 * (j + j.T)


def qfi_matrix(rho: DensityMatrix, tangents) -> np.ndarray:
    """Quantum Fisher matrix J_ab = Re tr(rho L_a L_b).

    All SLDs are solved as in :func:`sld`, from the spectrum that rho
    keeps, and each keeps its residual check, so a tangent that leaves
    the support of rho raises.  On a pure state with tangents to the pure
    states this is J_ab = 2 tr(drho_a drho_b) up to rounding.
    """
    return _qfi(rho, matcore.require_hermitian(tangents))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2, clamped to [0, 1].

    It is computed as F = |sqrt(rho) sqrt(sigma)|_1^2, the squared sum of
    the singular values of one product (Jozsa, J. Mod. Opt. 41, 2315
    (1994)).  Each root comes from the spectrum its state keeps.
    Eigenvalues at or below d * ``_tol.ROUNDOFF_TOL`` are rounding noise
    and count as zero: so do negative ones (at most ``_tol.PSD_TOL`` in
    size), so any state that :class:`DensityMatrix` accepts is accepted
    here, and a pure state's root does not pick up the square root of
    that noise.  The singular values carry rounding of the size of the
    product's norm, and no square root of a rounded small eigenvalue
    enters them, so F stays accurate next to the sphere.
    """
    def root(state):
        v, vals = state.eigenvectors, state.eigenvalues
        vals = np.where(vals > state.dim * _tol.ROUNDOFF_TOL, vals, 0.0)
        return (v * np.sqrt(vals)) @ v.conj().T

    vals = np.linalg.svd(root(rho) @ root(sigma), compute_uv=False)
    return min(max(float(np.sum(vals) ** 2), 0.0), 1.0)


def qubit_fidelity(s, t) -> np.ndarray:
    """Fidelity of qubit states from their Bloch vectors, in closed form,

        F = (1 + s.t + sqrt((1 - |s|^2)(1 - |t|^2))) / 2,

    (Hubner, Phys. Lett. A 163, 239 (1992)), clamped to [0, 1].  The last
    axis holds the Bloch coordinates; other axes broadcast.  A factor
    1 - |s|^2 at or below ``_tol.ROUNDOFF_TOL`` counts as zero (pure
    state), matching :func:`fidelity` on the same states.
    """
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)

    def mixedness(v):
        m = 1.0 - np.sum(v * v, axis=-1)
        return np.where(m > _tol.ROUNDOFF_TOL, m, 0.0)

    f = 0.5 * (1.0 + np.sum(s * t, axis=-1)
               + np.sqrt(mixedness(s) * mixedness(t)))
    return np.clip(f, 0.0, 1.0)
