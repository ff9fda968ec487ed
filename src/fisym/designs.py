"""Weighted state and operator designs with frame-potential certificates.

A weighted set of pure states {w_xi, psi_xi} is a projective 2-design when
its second moment sum_xi w_xi (psi psi)^(x2) is proportional to the
projector onto the symmetric subspace; the frame potential

    sum_{xi, eta} w_xi w_eta |<psi_xi|psi_eta>|^4

is minimized exactly by 2-designs, which is what the certificates test.
Generalized 2-designs replace rank-one projectors by arbitrary positive
operators and carry a purity parameter; their frame-potential bound is
evaluated after rescaling the set so the traces sum to the dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _tol, matcore

__all__ = [
    "WeightedStateSet",
    "OperatorSet",
    "DesignCertificate",
    "GsicReport",
    "sic_qubit",
    "sic_d3",
    "mub",
    "mub_state_set",
    "projective_2design_check",
    "generalized_2design_check",
    "generalized_sic_check",
    "g2design_from_unitary_design",
    "clifford_group_qubit",
]


@dataclass(frozen=True)
class WeightedStateSet:
    """Pure states (rows of ``vectors``) with positive weights, both kept
    as read-only copies."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # copies, so that freezing them leaves the caller's arrays writable
        v = np.array(self.vectors, dtype=complex)
        w = np.array(self.weights, dtype=float).reshape(-1)
        if v.ndim != 2 or v.shape[0] != w.size:
            raise ValueError("need one weight per state vector")
        norms = np.linalg.norm(v, axis=1)
        if not np.all(np.abs(norms - 1.0) <= _tol.NORM_TOL):
            raise ValueError("state vectors must be normalized")
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be positive and finite")
        v.flags.writeable = w.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return self.weights.size

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def projectors(self) -> np.ndarray:
        """The projectors |psi_xi><psi_xi| as one (size, dim, dim) stack."""
        v = self.vectors
        return v[:, :, None] * v.conj()[:, None, :]

    def rescaled(self, total_weight: float) -> "WeightedStateSet":
        c = total_weight / self.weights.sum()
        return WeightedStateSet(self.vectors, self.weights * c)


@dataclass(frozen=True)
class OperatorSet:
    """Nonzero positive-semidefinite Hermitian operators on one space.

    ``elements`` may be given as a sequence of n x n matrices or as one
    (k, n, n) array; it is checked once, as a whole, and stored as the
    validated (k, n, n) complex stack, read-only.  Some of the elements of
    a set make a new OperatorSet, checked again: the check leaves
    operators that passed it bit for bit as they are.
    """

    elements: np.ndarray

    def __post_init__(self):
        if len(self.elements) == 0:
            raise ValueError("need at least one operator")
        shape = np.shape(self.elements[0])
        if len(shape) != 2 or any(np.shape(e) != shape for e in self.elements):
            raise ValueError("operators must be matrices of one dimension")
        elems = matcore.require_hermitian(self.elements)
        vals = np.linalg.eigvalsh(elems)
        if np.any(vals[:, 0] < -_tol.PSD_TOL * np.maximum(1.0, vals[:, -1])):
            raise ValueError(f"operator not PSD (min eigenvalue "
                             f"{vals.min():.3e})")
        if np.any(np.trace(elems, axis1=1, axis2=2).real <= _tol.PSD_TOL):
            raise ValueError("operator has (near) zero trace")
        elems.flags.writeable = False
        object.__setattr__(self, "elements", elems)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def traces(self) -> np.ndarray:
        return np.trace(self.elements, axis1=1, axis2=2).real

    def total(self) -> np.ndarray:
        return self.elements.sum(axis=0)


@dataclass(frozen=True)
class DesignCertificate:
    """Frame-potential test result.

    ``slack`` is frame potential minus its lower bound; a set certifies as
    a design when the slack is below the tolerance used for the check.
    ``purity`` is the weighted average of tr(Pi^2)/(tr Pi)^2 (always 1 for
    projective sets).
    """

    is_design: bool
    frame_potential: float
    bound: float
    slack: float
    purity: float


@dataclass(frozen=True)
class GsicReport:
    """Result of a generalized-SIC test, in the normalization sum tr = d."""

    is_gsic: bool
    alpha: float
    beta: float
    purity: float
    gram_residual: float


def _bloch_to_vector(s: np.ndarray) -> np.ndarray:
    # eigenvector of (1 + s.sigma)/2 for eigenvalue 1; valid away from s = -z
    v = np.array([1.0 + s[2], s[0] + 1j * s[1]], dtype=complex)
    return v / np.linalg.norm(v)


def sic_qubit() -> WeightedStateSet:
    """Qubit SIC: tetrahedron on the Bloch sphere, weights 1/2.

    The weighted projectors sum to the identity, and pairwise overlaps
    satisfy |<psi|phi>|^2 = 1/3.
    """
    r = 1.0 / np.sqrt(3.0)
    bloch = np.array([
        [r, r, r],
        [r, -r, -r],
        [-r, r, -r],
        [-r, -r, r],
    ])
    vectors = np.array([_bloch_to_vector(s) for s in bloch])
    return WeightedStateSet(vectors, np.full(4, 0.5))


def sic_d3(phi: float = 0.0) -> WeightedStateSet:
    """Dimension-3 SIC family from a one-parameter fiducial orbit.

    The fiducial (0, 1, -e^{i phi})/sqrt(2) is displaced by the nine
    shift/clock operators X^j Z^k; weights are 1/3 so the weighted
    projectors sum to the identity.  The canonical parameter range is
    [0, pi/9]; values outside produce equivalent sets and only warn.
    """
    if phi < 0.0 or phi > np.pi / 9.0:
        warnings.warn(f"fiducial parameter {phi} is outside [0, pi/9]; "
                      "the set is still a SIC", stacklevel=2)
    omega = np.exp(2j * np.pi / 3.0)
    x = np.zeros((3, 3), dtype=complex)
    for j in range(3):
        x[(j + 1) % 3, j] = 1.0
    z = np.diag([1.0, omega, omega ** 2])
    fid = np.array([0.0, 1.0, -np.exp(1j * phi)], dtype=complex) / np.sqrt(2.0)
    vectors = []
    for j in range(3):
        for k in range(3):
            v = np.linalg.matrix_power(x, j) @ np.linalg.matrix_power(z, k) @ fid
            vectors.append(v / np.linalg.norm(v))
    return WeightedStateSet(np.array(vectors), np.full(9, 1.0 / 3.0))


def mub(d: int) -> list[np.ndarray]:
    """Complete set of d + 1 mutually unbiased bases, d in {2, 3}.

    Each basis is a d x d array with states as columns.  For d = 2 these
    are the sigma_x, sigma_y, sigma_z eigenbases; for d = 3 the
    computational basis plus three quadratic-phase Fourier bases.
    """
    if d == 2:
        s = 1.0 / np.sqrt(2.0)
        bx = np.array([[s, s], [s, -s]], dtype=complex)
        by = np.array([[s, s], [1j * s, -1j * s]], dtype=complex)
        bz = np.eye(2, dtype=complex)
        return [bx, by, bz]
    if d == 3:
        omega = np.exp(2j * np.pi / 3.0)
        bases = [np.eye(3, dtype=complex)]
        for m in range(3):
            b = np.zeros((3, 3), dtype=complex)
            for k in range(3):
                for j in range(3):
                    b[j, k] = omega ** ((m * j * j + k * j) % 3) / np.sqrt(3.0)
            bases.append(b)
        return bases
    raise ValueError("mutually unbiased bases implemented for d in {2, 3} only")


def mub_state_set(d: int) -> WeightedStateSet:
    """All d(d+1) basis states with weights 1/(d+1), a projective 2-design."""
    vectors = []
    for b in mub(d):
        for k in range(d):
            vectors.append(b[:, k])
    n = len(vectors)
    return WeightedStateSet(np.array(vectors), np.full(n, d / n))


def projective_2design_check(
    states: WeightedStateSet, tol: float = _tol.DESIGN_TOL
) -> DesignCertificate:
    """Frame-potential certificate for a weighted projective 2-design.

    The frame potential sum w w' |<psi|psi'>|^4 is bounded below by
    2 (sum w)^2 / (d (d + 1)) with equality exactly on 2-designs; the
    certificate passes when the slack is at most tol * (sum w)^2.
    """
    g = np.abs(states.vectors.conj() @ states.vectors.T) ** 2
    w = states.weights
    fp = float(w @ (g ** 2) @ w)
    total = float(w.sum())
    d = states.dim
    bound = 2.0 * total ** 2 / (d * (d + 1))
    slack = fp - bound
    return DesignCertificate(
        is_design=bool(slack <= tol * total ** 2),
        frame_potential=fp,
        bound=bound,
        slack=slack,
        purity=1.0,
    )


def _normalized_ops(ops: OperatorSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Rescale so the traces sum to the dimension; returns (stack, traces,
    purity).  Both generalized checks start here, and their bounds hold
    for d >= 2 only (the 2-design bound divides by d^2 - 1)."""
    if ops.dim < 2:
        raise ValueError("generalized designs need dimension at least 2")
    traces = ops.traces()
    scale = ops.dim / traces.sum()
    elems = scale * ops.elements
    traces = scale * traces
    purities = np.sum(np.abs(elems) ** 2, axis=(1, 2)) / (traces * traces)
    avg_purity = float(traces @ purities / traces.sum())
    return elems, traces, avg_purity


def generalized_2design_check(
    ops: OperatorSet, tol: float = _tol.DESIGN_TOL
) -> DesignCertificate:
    """Frame-potential certificate for a generalized 2-design.

    The set is rescaled so its traces sum to d.  With average purity p the
    frame potential sum [tr(Pi Pi')]^2 / (tr Pi tr Pi') is bounded below by
    (d^2 (1 + p^2) - 2 d p) / (d^2 - 1), with equality exactly on
    generalized 2-designs.
    """
    elems, traces, purity = _normalized_ops(ops)
    # gram[i, j] = tr(Pi_i Pi_j); real for Hermitian operators
    gram = np.einsum("iab,jba->ij", elems, elems).real
    fp = float(np.sum(gram ** 2 / np.outer(traces, traces)))
    d = ops.dim
    bound = (d * d * (1.0 + purity ** 2) - 2.0 * d * purity) / (d * d - 1.0)
    slack = fp - bound
    return DesignCertificate(
        is_design=bool(slack <= tol),
        frame_potential=fp,
        bound=bound,
        slack=slack,
        purity=purity,
    )


def generalized_sic_check(
    ops: OperatorSet, tol: float = _tol.DESIGN_TOL
) -> GsicReport:
    """Test for a generalized SIC: d^2 equal-trace elements resolving the
    identity with a two-valued Hilbert-Schmidt Gram matrix.

    Reported alpha, beta (tr Pi Pi' = alpha delta + beta) and the purity
    refer to the normalization sum tr = d, where each trace is 1/d.
    """
    d = ops.dim
    if ops.size != d * d:
        raise ValueError(f"a generalized SIC in dimension {d} needs exactly "
                         f"{d * d} elements, got {ops.size}")
    elems, traces, purity = _normalized_ops(ops)
    gram = np.einsum("iab,jba->ij", elems, elems).real
    n = ops.size
    off = gram[~np.eye(n, dtype=bool)]
    beta = float(off.mean())
    alpha = float(gram.trace() / n - beta)
    fit = alpha * np.eye(n) + beta
    gram_residual = float(np.abs(gram - fit).max())
    trace_spread = float(np.abs(traces - 1.0 / d).max())
    completeness = float(np.linalg.norm(elems.sum(axis=0) - np.eye(d)))
    ok = (gram_residual <= tol and trace_spread <= tol
          and completeness <= tol * d and alpha > tol)
    return GsicReport(
        is_gsic=bool(ok),
        alpha=alpha,
        beta=beta,
        purity=purity,
        gram_residual=gram_residual,
    )


def g2design_from_unitary_design(
    unitaries, weights, seed_op: np.ndarray
) -> OperatorSet:
    """Orbit {w_xi U_xi Pi U_xi^dag} of a PSD seed under a unitary 2-design.

    When the unitaries form a 2-design the orbit is a generalized 2-design
    with the purity of the seed.
    """
    seed = matcore.require_hermitian(seed_op)
    vals = np.linalg.eigvalsh(seed)
    if vals.min() < -_tol.PSD_TOL * max(1.0, vals.max()):
        raise ValueError("seed operator must be PSD")
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if len(unitaries) != weights.size:
        raise ValueError("need one weight per unitary")
    if np.any(weights <= 0):
        raise ValueError("weights must be positive")
    d = seed.shape[0]
    elems = []
    for u, w in zip(unitaries, weights):
        u = np.asarray(u, dtype=complex)
        if np.linalg.norm(u @ u.conj().T - np.eye(d)) > _tol.UNITARY_TOL * d:
            raise ValueError("non-unitary matrix in the design")
        elems.append(w * u @ seed @ u.conj().T)
    return OperatorSet(elems)


def clifford_group_qubit() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries, one per phase class.

    Each is P U for a Pauli P in {1, X, Y, Z} and a U in {1, S, H, HS,
    SH, HSH}: the six U permute the Pauli axes in all six ways, and the
    Paulis add the sign patterns.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0)
    s = np.array([[1, 0], [0, 1j]], dtype=complex)
    one = np.eye(2, dtype=complex)
    paulis = (one, np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.diag([1, -1]).astype(complex))
    return [p @ u for p in paulis
            for u in (one, s, h, h @ s, s @ h, h @ s @ h)]
