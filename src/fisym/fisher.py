"""Classical Fisher information of quantum measurements and the
information bounds that collective measurements can or cannot beat.

For a POVM on t copies the outcome probabilities are
p_xi(theta) = tr(rho(theta)^(xt) Pi_xi) and the classical Fisher matrix is

    I_ab = sum_xi  (d_a p_xi)(d_b p_xi) / p_xi

over outcomes with positive probability.  The scalar tr(J^{-1} I), with J
the quantum Fisher matrix, is bounded by d - 1 for single-copy
measurements, by N(d - 1) for any measurement on N copies of a pure
state, and by 3(d - 1) for two-copy measurements of full-rank states;
the last bound is saturated exactly by coherent POVMs.
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import _tol, matcore
from .povm import Povm
from .states import DensityMatrix, Parametrization, _qfi, tangent_ops

__all__ = [
    "outcome_probs",
    "fisher_matrix",
    "fisher_fd_oracle",
    "gm_value",
    "gm_bound",
    "GmVerdict",
    "gm_check",
    "SymmetryReport",
    "fisher_symmetry_check",
    "wmse_bound",
    "optimal_fisher",
    "FisherReport",
    "fisher_report",
]

_MODES = ("single-copy", "two-copy", "pure-n")


def _probs_and_grads(
    rho: DensityMatrix, tangents, p: Povm
) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities tr(rho^(xt) Pi_xi) and their derivatives along each
    tangent, from one contraction of the stacked state and derivative
    operators with the stacked POVM elements.  ``tangents`` come from
    :func:`tangent_ops` and are not checked again."""
    if rho.dim != p.base_dim:
        raise ValueError(f"state dimension {rho.dim} does not match POVM "
                         f"base dimension {p.base_dim}")
    m = rho.matrix
    ops = np.array([m, *tangents])
    if p.copies == 2:
        # d(rho x rho) = t x rho + rho x t; slot 0 becomes 2 rho x rho
        x = np.einsum("aij,kl->aikjl", ops, m)
        ops = (x + x.transpose(0, 2, 1, 4, 3)).reshape(len(ops), p.dim, p.dim)
        ops[0] *= 0.5
    vals = np.einsum("aij,kji->ka", ops, p.elements).real
    return _nonnegative(vals[:, 0]), vals[:, 1:]


def _nonnegative(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities, of any shape, clipped at zero.  One below
    -``_tol.NEG_PROB_TOL`` signals an invalid POVM/state pair and raises."""
    if probs.min() < -_tol.NEG_PROB_TOL:
        raise ValueError(f"negative outcome probability {probs.min():.3e}")
    return np.clip(probs, 0.0, None)


def outcome_probs(rho: DensityMatrix, p: Povm) -> np.ndarray:
    """Probabilities tr(rho^(xt) Pi_xi), clipped at zero.

    A probability below -``_tol.NEG_PROB_TOL`` signals an invalid
    POVM/state pair and raises.  For symmetric-subspace POVMs the
    probabilities sum to tr(rho^(x2) P_+) instead of 1.
    """
    return _probs_and_grads(rho, (), p)[0]


def _kept(probs: np.ndarray, grads: np.ndarray, drop_threshold: float):
    """The mask of outcomes above ``drop_threshold`` for (..., k)
    probabilities with (..., k, n) gradients, one point or a grid of
    them, and (outcome, probability, largest |derivative|) of each
    dropped one, in order.  A dropped outcome whose derivative exceeds
    ``_tol.REGULARITY_DERIV_TOL`` warns that I may be ill defined.  A
    negative (or NaN) threshold raises: it would keep zero-probability
    outcomes, which the sums divide by."""
    if not drop_threshold >= 0.0:
        raise ValueError(f"drop threshold must be nonnegative, got "
                         f"{drop_threshold!r}")
    kept = probs > drop_threshold
    dropped = []
    for at in zip(*np.nonzero(~kept)):
        xi, dp_max = at[-1], float(np.abs(grads[at]).max())
        dropped.append((int(xi), float(probs[at]), dp_max))
        if dp_max > _tol.REGULARITY_DERIV_TOL:
            warnings.warn(
                f"outcome {xi} dropped at probability {probs[at]:.3e} but has "
                f"derivative {dp_max:.3e}; the Fisher information may be "
                "ill defined here", stacklevel=4)
    return kept, dropped


def _accumulate(
    probs: np.ndarray, grads: np.ndarray, drop_threshold: float
) -> tuple[np.ndarray, list]:
    """Classical Fisher matrices, symmetrized, of (..., k) probabilities
    with (..., k, n) gradients, shape (..., n, n), over the outcomes that
    :func:`_kept` keeps, and its dropped outcomes.  A kept outcome's
    gradient is divided by its probability and a dropped one's becomes
    zero, so a stack of points is one batched product whose matrices are,
    bit for bit, those of each point on its own."""
    kept, dropped = _kept(probs, grads, drop_threshold)
    scaled = np.divide(grads, probs[..., None], out=np.zeros_like(grads),
                       where=kept[..., None])
    i_mat = scaled.swapaxes(-1, -2) @ grads
    return 0.5 * (i_mat + i_mat.swapaxes(-1, -2)), dropped


def fisher_matrix(
    param: Parametrization, p: Povm,
    drop_threshold: float = _tol.DROP_THRESHOLD,
) -> np.ndarray:
    """Classical Fisher matrix of a POVM at the chart basepoint.

    Outcomes with probability at or below ``drop_threshold`` are excluded;
    if such an outcome has a non-negligible probability gradient a
    regularity warning is emitted.
    """
    probs, grads = _probs_and_grads(param.base(), tangent_ops(param), p)
    return _accumulate(probs, grads, drop_threshold)[0]


def fisher_fd_oracle(
    param: Parametrization, p: Povm,
    step: float = 1e-4,
    drop_threshold: float = _tol.DROP_THRESHOLD,
) -> np.ndarray:
    """Classical Fisher matrix from finite differences only; an
    independent cross-check for :func:`fisher_matrix`.

    Central differences act on the square-root probabilities, using
    I_ab = 4 sum_xi (d_a sqrt p_xi)(d_b sqrt p_xi) over positive-probability
    outcomes.  The square root keeps the truncation error uniform even
    where a probability approaches zero; the two expressions are
    identical wherever p_xi > 0.
    """
    n = param.n_params
    probs = outcome_probs(param.base(), p)
    roots = np.zeros((p.size, n))
    for a in range(n):
        theta = np.zeros(n)
        theta[a] = step
        plus = np.sqrt(outcome_probs(param.density(theta), p))
        theta[a] = -step
        minus = np.sqrt(outcome_probs(param.density(theta), p))
        roots[:, a] = (plus - minus) / (2.0 * step)
    kept = probs > drop_threshold
    g = roots[kept]
    i_mat = 4.0 * g.T @ g
    return 0.5 * (i_mat + i_mat.T)


def _gm(j: np.ndarray, i: np.ndarray) -> float:
    """:func:`gm_value` of real symmetric J and I, not checked again."""
    vals = np.linalg.eigvalsh(j)
    if vals.min() <= _tol.SINGULAR_J_TOL:
        raise ValueError(f"quantum Fisher matrix is singular "
                         f"(min eigenvalue {vals.min():.3e})")
    return float(np.trace(np.linalg.solve(j, i)).real)


def gm_value(j_matrix: np.ndarray, i_matrix: np.ndarray) -> float:
    """tr(J^{-1} I).  J must be positive definite."""
    return _gm(matcore.require_hermitian(j_matrix).real,
               matcore.require_hermitian(i_matrix).real)


def gm_bound(mode: str, d: int, copies: int = 1) -> float:
    """Information bound on tr(J^{-1} I) for the given measurement class."""
    if mode == "single-copy":
        return float(d - 1)
    if mode == "two-copy":
        return float(3 * (d - 1))
    if mode == "pure-n":
        return float(copies * (d - 1))
    raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")


def _infer_mode(rho: DensityMatrix, p: Povm) -> str:
    if rho.is_pure():
        return "pure-n"
    return "single-copy" if p.copies == 1 else "two-copy"


@dataclass(frozen=True)
class GmVerdict:
    """Comparison of tr(J^{-1} I) against its bound.

    ``verdict`` is 'equality', 'strict' (below the bound), or 'violated'.
    """

    value: float
    bound: float
    margin: float
    mode: str
    verdict: str


def _gm_verdict(
    i_mat: np.ndarray, j_mat: np.ndarray, bound: float, mode: str, tol: float
) -> GmVerdict:
    value = _gm(j_mat, i_mat)
    margin = bound - value
    scale = max(1.0, bound)
    if margin < -tol * scale:
        verdict = "violated"
    elif abs(margin) <= tol * scale:
        verdict = "equality"
    else:
        verdict = "strict"
    return GmVerdict(value=value, bound=bound, margin=margin,
                     mode=mode, verdict=verdict)


def gm_check(
    param: Parametrization, p: Povm,
    mode: str | None = None,
    tol: float = _tol.GM_TOL,
) -> GmVerdict:
    """Evaluate tr(J^{-1} I) and compare with the applicable bound.

    Without an explicit mode, pure basepoints (numerical rank 1, by
    ``DensityMatrix.is_pure``) check the N-copy pure-state bound and
    other basepoints the single- or two-copy bound matching the POVM.  J
    is solved as in :func:`states.sld` at every rank; a tangent that
    leaves the support of the basepoint raises ValueError.  Equality
    holds within ``tol`` times max(1, bound).
    """
    return fisher_report(param, p, mode=mode, tol=tol).gm


@dataclass(frozen=True)
class SymmetryReport:
    """Proportionality test between classical and quantum Fisher matrices.

    Weak Fisher symmetry means I = c J for some scalar c; full Fisher
    symmetry fixes c at the information bound divided by the parameter
    count (t/2 on pure states; t(d-1)/(d^2-1) or 3(d-1)/(d^2-1) on
    full-rank states).  Residuals are Frobenius-relative.
    """

    verdict: str
    scale_fit: float
    target_factor: float
    weak_residual: float
    full_residual: float


def _symmetry_verdict(
    i_mat: np.ndarray, j_mat: np.ndarray, rho: DensityMatrix,
    bound: float, tol: float,
) -> SymmetryReport:
    d = rho.dim
    n_manifold = 2 * d - 2 if rho.is_pure() else d * d - 1
    target = bound / n_manifold
    fit = float(np.sum(j_mat * i_mat)) / float(np.sum(j_mat * j_mat))
    i_norm = max(float(np.linalg.norm(i_mat)), 1e-300)
    weak_residual = float(np.linalg.norm(i_mat - fit * j_mat)) / i_norm
    full_residual = (float(np.linalg.norm(i_mat - target * j_mat))
                     / (target * float(np.linalg.norm(j_mat))))
    if full_residual <= tol:
        verdict = "fisher-symmetric"
    elif weak_residual <= tol:
        verdict = "weakly-fisher-symmetric"
    else:
        verdict = "not-fisher-symmetric"
    return SymmetryReport(
        verdict=verdict,
        scale_fit=fit,
        target_factor=target,
        weak_residual=weak_residual,
        full_residual=full_residual,
    )


def fisher_symmetry_check(
    param: Parametrization, p: Povm,
    tol: float = _tol.SYMMETRY_TOL,
) -> SymmetryReport:
    """Classify a measurement as Fisher symmetric, weakly so, or neither."""
    return fisher_report(param, p, symmetry_tol=tol).symmetry


def _wmse_parts(
    j_matrix: np.ndarray, weight: np.ndarray, d: int, mode: str
) -> tuple[int, float, np.ndarray]:
    """Copies t, information bound and S = sqrt(J^{-1/2} W J^{-1/2}) of a
    weighted-MSE problem; 'separable' takes the single-copy bound."""
    copies = {"separable": 1, "two-copy": 2}.get(mode)
    if copies is None:
        raise ValueError(f"unknown mode {mode!r}; choose 'separable' or "
                         "'two-copy'")
    bound = gm_bound("single-copy" if copies == 1 else mode, d)
    inv_root = matcore.mat_power(np.asarray(j_matrix, dtype=complex), -0.5)
    k = inv_root @ matcore.require_hermitian(weight) @ inv_root
    return copies, bound, matcore.mat_power(k, 0.5)


def wmse_bound(
    j_matrix: np.ndarray, weight: np.ndarray, d: int, mode: str
) -> float:
    """Smallest achievable scaled weighted mean-square error.

    With T = tr sqrt(J^{-1/2} W J^{-1/2}) the bound is T^2/(d-1) for
    separable (single-copy) schemes and 2 T^2 / (3(d-1)) for two-copy
    collective schemes, per input copy in both cases.
    """
    copies, bound, s = _wmse_parts(j_matrix, weight, d, mode)
    t = float(np.trace(s).real)
    return copies * t * t / bound


def optimal_fisher(
    j_matrix: np.ndarray, weight: np.ndarray, d: int, mode: str
) -> np.ndarray:
    """Fisher matrix attaining the weighted mean-square-error bound.

    Returns c J^{1/2} S J^{1/2} / tr(S) with S = sqrt(J^{-1/2} W J^{-1/2})
    and c = d - 1 (separable) or 3(d - 1) (two-copy).
    """
    _, bound, s = _wmse_parts(j_matrix, weight, d, mode)
    t = float(np.trace(s).real)
    if t <= 0:
        raise ValueError("weight matrix is zero")
    root = matcore.mat_power(np.asarray(j_matrix, dtype=complex), 0.5)
    return (bound / t) * np.real(root @ s @ root)


@dataclass(frozen=True)
class FisherReport:
    """Bundle of the information quantities for one state/POVM pair."""

    dim: int
    copies: int
    n_params: int
    i_matrix: np.ndarray
    j_matrix: np.ndarray
    gm: GmVerdict
    symmetry: SymmetryReport
    dropped: tuple

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "copies": self.copies,
            "n_params": self.n_params,
            "i_matrix": self.i_matrix.tolist(),
            "j_matrix": self.j_matrix.tolist(),
            "gm": asdict(self.gm),
            "symmetry": asdict(self.symmetry),
            "dropped_outcomes": [
                {"index": i, "probability": pr, "max_derivative": dp}
                for i, pr, dp in self.dropped
            ],
        }


def fisher_report(
    param: Parametrization, p: Povm,
    mode: str | None = None,
    drop_threshold: float = _tol.DROP_THRESHOLD,
    tol: float = _tol.GM_TOL,
    symmetry_tol: float = _tol.SYMMETRY_TOL,
) -> FisherReport:
    """Full information report: Fisher matrices, bound check, symmetry.

    The tangents, rho, I and J are computed once, and both verdicts are
    derived from the returned ``i_matrix`` and ``j_matrix``: outcomes at
    or below ``drop_threshold`` are left out of I for the bound check and
    the symmetry test alike.  ``tol`` is the relative margin for equality
    with the bound (as in :func:`gm_check`), ``symmetry_tol`` the residual
    allowed by the symmetry test (as in :func:`fisher_symmetry_check`).
    The symmetry target always uses the bound of the inferred mode, so
    an explicit ``mode`` changes only the bound check.
    """
    rho = param.base()
    tangents = tangent_ops(param)
    i_mat, dropped = _accumulate(*_probs_and_grads(rho, tangents, p),
                                 drop_threshold)
    j_mat = _qfi(rho, tangents)
    natural = _infer_mode(rho, p)
    if mode is None:
        mode = natural
    gm = _gm_verdict(i_mat, j_mat, gm_bound(mode, rho.dim, p.copies), mode,
                     tol)
    symmetry = _symmetry_verdict(i_mat, j_mat, rho,
                                 gm_bound(natural, rho.dim, p.copies),
                                 symmetry_tol)
    return FisherReport(
        dim=rho.dim,
        copies=p.copies,
        n_params=param.n_params,
        i_matrix=i_mat,
        j_matrix=j_mat,
        gm=gm,
        symmetry=symmetry,
        dropped=tuple(dropped),
    )
