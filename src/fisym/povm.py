"""POVM construction, validation, and collective-measurement structure.

Two-copy POVMs act on H ⊗ H of a ``base_dim``-dimensional system.  A
two-copy POVM is *coherent* when every element is proportional either to
the second tensor power of a pure state (symmetric support, product
marginal) or to an antisymmetric two-particle determinant state.  Coherent
POVMs are exactly the ones saturating the two-copy information bound, and
the tight ones among them have marginal operator sets

    Q_xi = tr_1(Pi_xi) + tr_2(Pi_xi)

forming a generalized 2-design of purity (3d + 1)/(4d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _tol, matcore
from .designs import (
    DesignCertificate,
    GsicReport,
    OperatorSet,
    WeightedStateSet,
    generalized_2design_check,
    generalized_sic_check,
    mub,
    mub_state_set,
    projective_2design_check,
    sic_d3,
    sic_qubit,
)

__all__ = [
    "Povm",
    "PovmReport",
    "validate_povm",
    "twocopy_design_povm",
    "companion_povm",
    "collective_sic_qubit",
    "great_circle_qubit",
    "NAMED_POVMS",
    "ElementClass",
    "CoherenceReport",
    "classify_coherent",
    "marginal_Q",
    "tight_coherent_from_designs",
    "minimal_tight_coherent_d3",
    "TightCoherentReport",
    "tight_coherent_check",
]


@dataclass(frozen=True)
class Povm:
    """Measurement with Hermitian elements on (base_dim)^copies dimensions.

    ``elements`` may be given as a sequence of matrices or as one
    (k, dim, dim) array.  Construction checks shapes, finiteness and
    hermiticity only, in one stacked check, and stores the validated
    (k, dim, dim) complex stack as a read-only copy; positivity and
    completeness are inspected by :func:`validate_povm` so that imperfect
    candidates can still be examined.  ``subspace='symmetric'`` marks a
    two-copy measurement that resolves the symmetric projector instead of
    the identity.
    """

    elements: np.ndarray
    copies: int
    base_dim: int
    subspace: str | None = None
    source_design: WeightedStateSet | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.copies not in (1, 2):
            raise ValueError("copies must be 1 or 2")
        if self.base_dim < 2:
            raise ValueError("base dimension must be at least 2")
        if self.subspace not in (None, "symmetric"):
            raise ValueError("subspace must be None or 'symmetric'")
        if self.subspace == "symmetric" and self.copies != 2:
            raise ValueError("a symmetric-subspace POVM must have copies=2")
        if len(self.elements) == 0:
            raise ValueError("need at least one element")
        dim = self.base_dim ** self.copies
        if any(np.shape(e) != (dim, dim) for e in self.elements):
            raise ValueError(f"elements must be {dim} x {dim} matrices")
        elements = matcore.require_hermitian(self.elements)
        elements.flags.writeable = False
        object.__setattr__(self, "elements", elements)

    @property
    def dim(self) -> int:
        return self.base_dim ** self.copies

    @property
    def size(self) -> int:
        return len(self.elements)

    def completeness_target(self) -> np.ndarray:
        if self.subspace == "symmetric":
            return matcore.sym_projector(self.base_dim)
        return np.eye(self.dim, dtype=complex)


@dataclass(frozen=True)
class PovmReport:
    """Positivity and completeness diagnostics."""

    psd_violation: float
    completeness_residual: float
    ok: bool


def _povm_report(p: Povm, vals: np.ndarray, tol: float) -> PovmReport:
    """:func:`validate_povm` given the element eigenvalues ``vals``."""
    violation = max(0.0, -float(vals.min()))
    resid = float(np.linalg.norm(p.elements.sum(axis=0)
                                 - p.completeness_target()))
    return PovmReport(
        psd_violation=violation,
        completeness_residual=resid,
        ok=bool(violation <= tol and resid <= tol),
    )


def validate_povm(p: Povm, tol: float = _tol.POVM_TOL) -> PovmReport:
    """Largest negative-eigenvalue excursion and |sum - target|_F."""
    return _povm_report(p, np.linalg.eigvalsh(p.elements), tol)


def _kron_squares(ops: np.ndarray) -> np.ndarray:
    """A ⊗ A for every A in a (k, n, n) stack, as a (k, n², n²) stack."""
    k, n, _ = ops.shape
    return (ops[:, :, None, :, None] * ops[:, None, :, None, :]).reshape(
        k, n * n, n * n)


def _design_elements(design, tol: float) -> tuple[np.ndarray, WeightedStateSet]:
    """Elements w_xi (psi psi)^(x2) of :func:`twocopy_design_povm` and the
    rescaled design they come from."""
    cert = projective_2design_check(design, tol)
    if not cert.is_design:
        raise ValueError(
            f"state set is not a projective 2-design (slack {cert.slack:.3e})")
    d = design.dim
    scaled = design.rescaled(d * (d + 1) / 2.0)
    return (scaled.weights[:, None, None]
            * _kron_squares(scaled.projectors())), scaled


def twocopy_design_povm(
    design: WeightedStateSet, tol: float = _tol.DESIGN_TOL
) -> Povm:
    """Symmetric-subspace POVM {w_xi (psi psi)^(x2)} from a 2-design.

    The weights are rescaled so they sum to d(d+1)/2, which makes the
    elements resolve the symmetric projector.  The input must certify as a
    projective 2-design.
    """
    elements, scaled = _design_elements(design, tol)
    return Povm(elements, copies=2, base_dim=design.dim, subspace="symmetric",
                source_design=scaled)


def _rank_one_povm(states: WeightedStateSet) -> Povm:
    """Single-copy POVM {w_xi |psi_xi><psi_xi|} of a weighted state set."""
    return Povm(states.weights[:, None, None] * states.projectors(),
                copies=1, base_dim=states.dim)


def companion_povm(p: Povm) -> Povm:
    """Single-copy POVM {2 w_xi / (d + 1) |psi_xi><psi_xi|}.

    Defined only for POVMs whose symmetric part came from a 2-design (the
    builder records that design); its statistics are recoverable from the
    two-copy statistics through <psi|rho|psi> = sqrt(p_xi / w_xi).
    """
    if p.source_design is None:
        raise ValueError("companion is defined only for POVMs built from a "
                         "projective 2-design")
    design = p.source_design
    return _rank_one_povm(WeightedStateSet(
        design.vectors, 2.0 * design.weights / (p.base_dim + 1)))


def _singlet() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def collective_sic_qubit() -> Povm:
    """Five-outcome collective qubit measurement saturating the two-copy
    information bound: four elements (3/4)(psi psi)^(x2) over the
    tetrahedral SIC plus the singlet projector."""
    elements, scaled = _design_elements(sic_qubit(), _tol.DESIGN_TOL)
    return Povm(np.concatenate([elements, _singlet()[None]]), copies=2,
                base_dim=2, source_design=scaled)


def great_circle_qubit() -> Povm:
    """Four-outcome qubit POVM from two orthogonal great-circle bases:
    {|0>, |1>, |+>, |->} each with weight 1/2."""
    bx, _, bz = mub(2)
    return _rank_one_povm(
        WeightedStateSet(np.hstack([bz, bx]).T, np.full(4, 0.5)))


# The paper's named measurements; ``fisym build``, ``fisym fisher --povm``
# and the tomography schemes all resolve these names here.  Each is built
# once: a Povm is frozen and its elements are read-only, so callers share it.
NAMED_POVMS = {
    "collective-sic": collective_sic_qubit(),
    "sic-single": _rank_one_povm(sic_qubit()),
    "mub-single": _rank_one_povm(mub_state_set(2)),
    "great-circle": great_circle_qubit(),
}


@dataclass(frozen=True)
class ElementClass:
    """Structure of one two-copy POVM element.

    ``kind`` is 'sym-power' for c (psi psi)^(x2), 'slater' for a weighted
    antisymmetric determinant projector, 'neither' otherwise.  For the two
    coherent kinds ``states`` holds the witness vector(s) and ``weight``
    the trace.
    """

    kind: str
    weight: float
    states: tuple = ()


@dataclass(frozen=True)
class CoherenceReport:
    coherent: bool
    classes: tuple


def _numerical_ranks(vals: np.ndarray, tol: float) -> np.ndarray:
    """Per row of ``vals``, the count of eigenvalues above ``tol`` times
    the row's largest (0 for a row with no positive eigenvalue)."""
    top = np.maximum(vals.max(axis=-1, keepdims=True), 0.0)
    return np.sum(vals > tol * top, axis=-1)


def classify_coherent(p: Povm, tol: float = _tol.RANK_TOL) -> CoherenceReport:
    """Classify every element of a two-copy POVM.

    An element is 'sym-power' when it is rank one with symmetric support
    and a rank-one single-system marginal, and 'slater' when it is rank
    one with antisymmetric support and a rank-two marginal with equal
    eigenvalues.  The POVM is coherent when no element is 'neither'.
    """
    if p.copies != 2:
        raise ValueError("coherence structure applies to two-copy POVMs")
    return _classify(p, np.linalg.eigvalsh(p.elements), tol)


def _classify(p: Povm, vals: np.ndarray, tol: float) -> CoherenceReport:
    """:func:`classify_coherent` given the element eigenvalues ``vals``."""
    e = p.elements
    p_sym = matcore.sym_projector(p.base_dim)
    p_anti = matcore.antisym_projector(p.base_dim)
    scale = np.linalg.norm(e, axis=(1, 2))
    weights = np.trace(e, axis1=1, axis2=2).real.tolist()
    sym_resid = np.linalg.norm(e - p_sym @ e @ p_sym, axis=(1, 2))
    anti_resid = np.linalg.norm(e - p_anti @ e @ p_anti, axis=(1, 2))
    rank1 = (scale > _tol.POVM_TOL) & (_numerical_ranks(vals, tol) == 1)
    # marginal eigenpairs, descending
    mvals, mvecs = np.linalg.eigh(matcore.partial_trace(e, 0))
    mvals, mvecs = mvals[:, ::-1], mvecs[:, :, ::-1]
    mranks = _numerical_ranks(mvals, tol)
    # a symmetric element is never tried as an antisymmetric one
    sym = rank1 & (sym_resid <= tol * scale)
    sym_power = sym & (mranks == 1)
    slater = (rank1 & ~sym & (anti_resid <= tol * scale) & (mranks == 2)
              & (np.abs(mvals[:, 0] - mvals[:, 1]) <= tol * mvals[:, 0]))
    classes = []
    for k, weight in enumerate(weights):
        if sym_power[k]:
            classes.append(ElementClass("sym-power", weight, (mvecs[k, :, 0],)))
        elif slater[k]:
            classes.append(ElementClass(
                "slater", weight, (mvecs[k, :, 0], mvecs[k, :, 1])))
        else:
            classes.append(ElementClass("neither", weight))
    return CoherenceReport(
        coherent=all(c.kind != "neither" for c in classes),
        classes=tuple(classes),
    )


def marginal_Q(element: np.ndarray) -> np.ndarray:
    """Q = tr_1(Pi) + tr_2(Pi), the symmetrized single-system marginal of
    a two-copy element, or of each element of a (k, d², d²) stack.

    Over a complete two-copy POVM these sum to 2d times the identity.
    """
    return matcore.partial_trace(element, 0) + matcore.partial_trace(element, 1)


def _check_rank_profile(ops: OperatorSet, rank: int, tol: float) -> None:
    vals = np.linalg.eigvalsh(ops.elements)
    if np.any(_numerical_ranks(vals, tol) != rank):
        raise ValueError(f"operator is not rank-{rank} as required")
    if rank == 2:
        top, second = vals[:, -1], vals[:, -2]
        if np.any(np.abs(top - second) > tol * top):
            raise ValueError("rank-2 operator is not proportional to a "
                             "projector")


def tight_coherent_from_designs(
    sym_ops: OperatorSet,
    antisym_ops: OperatorSet,
    tol: float = _tol.DESIGN_TOL,
) -> Povm:
    """Assemble a tight coherent two-copy POVM from two seed designs.

    ``sym_ops`` must be rank-one operators A_zeta summing to (d+1)/2 times
    the identity and forming a generalized 2-design; they produce the
    symmetric elements A ⊗ A / tr A.  ``antisym_ops`` must be operators
    B_eta proportional to rank-two projectors, summing to 2(d-1) times the
    identity and forming a generalized 2-design; they produce the
    antisymmetric elements P_- (B ⊗ B) P_- / tr B.
    """
    d = sym_ops.dim
    if antisym_ops.dim != d:
        raise ValueError("seed designs must share one dimension")
    _check_rank_profile(sym_ops, 1, _tol.RANK_TOL)
    _check_rank_profile(antisym_ops, 2, _tol.RANK_TOL)
    eye = np.eye(d)
    sym_sum = np.linalg.norm(sym_ops.total() - (d + 1) / 2.0 * eye)
    if sym_sum > tol * d:
        raise ValueError(
            f"rank-one seeds must sum to (d+1)/2 identity (residual {sym_sum:.3e})")
    anti_sum = np.linalg.norm(antisym_ops.total() - 2.0 * (d - 1) * eye)
    if anti_sum > tol * d:
        raise ValueError(
            f"rank-two seeds must sum to 2(d-1) identity (residual {anti_sum:.3e})")
    sym_cert = generalized_2design_check(sym_ops, tol)
    if not sym_cert.is_design:
        raise ValueError("rank-one seed set is not a generalized 2-design "
                         f"(slack {sym_cert.slack:.3e})")
    anti_cert = generalized_2design_check(antisym_ops, tol)
    if not anti_cert.is_design:
        raise ValueError("rank-two seed set is not a generalized 2-design "
                         f"(slack {anti_cert.slack:.3e})")
    p_anti = matcore.antisym_projector(d)
    sym = _kron_squares(sym_ops.elements) / sym_ops.traces()[:, None, None]
    anti = (p_anti @ _kron_squares(antisym_ops.elements) @ p_anti
            / antisym_ops.traces()[:, None, None])
    return Povm(np.concatenate([sym, anti]), copies=2, base_dim=d)


def minimal_tight_coherent_d3(
    sic_plus: WeightedStateSet | None = None,
    sic_minus: WeightedStateSet | None = None,
) -> Povm:
    """Minimal (18-element) tight coherent POVM for a three-level system.

    Nine symmetric elements (2/3)(psi psi)^(x2) over one SIC and nine
    antisymmetric elements (1/3) P_-(1 - phi phi)^(x2) P_- over another.
    The antisymmetric marginals (1 - phi phi)/3 form a generalized SIC of
    purity 1/2, which is what makes the count 2d^2 attainable.
    """
    if sic_plus is None:
        sic_plus = sic_d3(0.0)
    if sic_minus is None:
        sic_minus = sic_d3(0.0)
    for s in (sic_plus, sic_minus):
        if s.dim != 3 or s.size != 9:
            raise ValueError("need nine-element SICs in dimension 3")
        cert = projective_2design_check(s)
        if not cert.is_design:
            raise ValueError("input state set is not a 2-design "
                             f"(slack {cert.slack:.3e})")
    sym_ops = OperatorSet((2.0 / 3.0) * sic_plus.projectors())
    anti_ops = OperatorSet((2.0 / 3.0) * (np.eye(3) - sic_minus.projectors()))
    return tight_coherent_from_designs(sym_ops, anti_ops)


@dataclass(frozen=True)
class TightCoherentReport:
    """Diagnostics for tightness of a coherent two-copy POVM.

    ``ok`` requires a complete coherent POVM whose marginal set {Q_xi} is
    a generalized 2-design with purity (3d+1)/(4d); ``q_certificate`` is
    that set's frame-potential certificate.  ``antisym_gsic``, the
    generalized-SIC test of the marginals of the antisymmetric (slater)
    elements, is present when there are exactly d^2 of them.
    """

    ok: bool
    completeness_residual: float
    classification: CoherenceReport
    q_certificate: DesignCertificate
    purity_target: float
    purity_residual: float
    antisym_gsic: GsicReport | None


def tight_coherent_check(
    p: Povm, tol: float = _tol.DESIGN_TOL
) -> TightCoherentReport:
    """Test whether a two-copy POVM is tight coherent."""
    if p.copies != 2 or p.subspace is not None:
        raise ValueError("tightness applies to complete two-copy POVMs")
    d = p.base_dim
    # one batched eigensolve serves the PSD check and the rank tests
    vals = np.linalg.eigvalsh(p.elements)
    report = _povm_report(p, vals, _tol.POVM_TOL)
    classification = _classify(p, vals, _tol.RANK_TOL)
    q_all = OperatorSet(marginal_Q(p.elements))
    q_cert = generalized_2design_check(q_all, tol)
    target = (3.0 * d + 1.0) / (4.0 * d)
    purity_residual = abs(q_cert.purity - target)

    anti_q = q_all.subset([c.kind == "slater"
                           for c in classification.classes])
    anti_gsic = None
    if anti_q and anti_q.size == d * d:
        anti_gsic = generalized_sic_check(anti_q, tol)

    ok = (report.ok and classification.coherent and q_cert.is_design
          and purity_residual <= max(tol, _tol.TIGHT_PURITY_TOL))
    return TightCoherentReport(
        ok=bool(ok),
        completeness_residual=report.completeness_residual,
        classification=classification,
        q_certificate=q_cert,
        purity_target=target,
        purity_residual=purity_residual,
        antisym_gsic=anti_gsic,
    )
