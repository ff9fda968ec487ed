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

from dataclasses import dataclass

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


def validate_povm(p: Povm, tol: float = _tol.POVM_TOL) -> PovmReport:
    """Largest negative-eigenvalue excursion over the elements and
    |sum - target|_F, the target being the identity or, for a
    symmetric-subspace POVM, the symmetric projector; ``ok`` when both are
    at most ``tol``."""
    violation = max(0.0, -float(np.linalg.eigvalsh(p.elements).min()))
    resid = float(np.linalg.norm(p.elements.sum(axis=0)
                                 - p.completeness_target()))
    return PovmReport(
        psd_violation=violation,
        completeness_residual=resid,
        ok=bool(violation <= tol and resid <= tol),
    )


def _require_povm(p: Povm) -> None:
    """Raise ValueError, with the report's figures, unless
    :func:`validate_povm` finds p positive and complete to
    ``_tol.POVM_TOL``: the one check of a POVM from outside the library,
    a file or a custom scheme's."""
    report = validate_povm(p)
    if not report.ok:
        raise ValueError(
            f"not a POVM (positivity violation {report.psd_violation:.3g}, "
            f"completeness residual {report.completeness_residual:.3g}, "
            f"tolerance {_tol.POVM_TOL:g})")


def _kron_squares(ops: np.ndarray) -> np.ndarray:
    """A ⊗ A for every A in a (k, n, n) stack, as a (k, n², n²) stack."""
    k, n, _ = ops.shape
    return (ops[:, :, None, :, None] * ops[:, None, :, None, :]).reshape(
        k, n * n, n * n)


def _scaled_design(design: WeightedStateSet) -> WeightedStateSet:
    """``design`` with its weights rescaled to sum to d(d+1)/2; it must
    certify as a projective 2-design to ``_tol.DESIGN_TOL``."""
    cert = projective_2design_check(design, _tol.DESIGN_TOL)
    if not cert.is_design:
        raise ValueError(
            f"state set is not a projective 2-design (slack {cert.slack:.3e})")
    d = design.dim
    return design.rescaled(d * (d + 1) / 2.0)


def _design_elements(design: WeightedStateSet) -> np.ndarray:
    """Elements w_xi (psi psi)^(x2) of :func:`twocopy_design_povm`."""
    scaled = _scaled_design(design)
    return scaled.weights[:, None, None] * _kron_squares(scaled.projectors())


def twocopy_design_povm(design: WeightedStateSet) -> Povm:
    """Symmetric-subspace POVM {w_xi (psi psi)^(x2)} from a 2-design.

    The weights are rescaled so they sum to d(d+1)/2, which makes the
    elements resolve the symmetric projector.  The input must certify as a
    projective 2-design to ``_tol.DESIGN_TOL``.
    """
    return Povm(_design_elements(design), copies=2, base_dim=design.dim,
                subspace="symmetric")


def _rank_one_povm(states: WeightedStateSet) -> Povm:
    """Single-copy POVM {w_xi |psi_xi><psi_xi|} of a weighted state set."""
    return Povm(states.weights[:, None, None] * states.projectors(),
                copies=1, base_dim=states.dim)


def companion_povm(design: WeightedStateSet) -> Povm:
    """Single-copy companion {2 w_xi / (d + 1) |psi_xi><psi_xi|} of
    :func:`twocopy_design_povm`, built from the same 2-design rescaled as
    there, so w_xi is the weight of its element w_xi (psi psi)^(x2).  Its
    statistics are recoverable from the two-copy statistics through
    <psi|rho|psi> = sqrt(p_xi / w_xi).  The input must certify as a
    projective 2-design to ``_tol.DESIGN_TOL``.
    """
    scaled = _scaled_design(design)
    return _rank_one_povm(WeightedStateSet(
        scaled.vectors, 2.0 * scaled.weights / (design.dim + 1)))


def _singlet() -> np.ndarray:
    v = np.zeros(4, dtype=complex)
    v[1] = 1.0 / np.sqrt(2.0)
    v[2] = -1.0 / np.sqrt(2.0)
    return np.outer(v, v.conj())


def collective_sic_qubit() -> Povm:
    """Five-outcome collective qubit measurement saturating the two-copy
    information bound: four elements (3/4)(psi psi)^(x2) over the
    tetrahedral SIC plus the singlet projector."""
    return Povm(np.concatenate([_design_elements(sic_qubit()),
                                _singlet()[None]]), copies=2, base_dim=2)


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


def classify_coherent(p: Povm, tol: float = _tol.RANK_TOL) -> CoherenceReport:
    """Classify every element E of a two-copy POVM by two identities of
    its trace w and its marginal M = tr_1(E).

    E is 'sym-power' when w E = P_+ (M ⊗ M) P_+, and 'slater' when
    w E = 4 P_- (M ⊗ M) P_-, each to ``tol`` w |E|_F, with w above
    ``_tol.POVM_TOL``; otherwise 'neither'.  Taking tr_1 of either right
    side gives w M back only when M is w times a rank-one projector, or
    w/2 times a rank-two one, so each identity holds on its class alone,
    and its residual grows linearly with the distance from the class
    (about sqrt(2) eps for v ∝ |00> + eps |11>, whose marginal's second
    eigenvalue is only eps^2).  The witness states are the marginal's
    leading eigenvectors.  The POVM is coherent when no element is
    'neither'.

    On a qubit, a sym-power element w (psi psi)^(x2) has the outcome
    probability (w/4)(1 + u.s)^2, u the Bloch vector of psi; ``tomosim``
    finds its linearizable outcomes by that square, from the Pauli
    model, without this classification.
    """
    if p.copies != 2:
        raise ValueError("coherence structure applies to two-copy POVMs")
    e = p.elements
    weights = np.trace(e, axis1=1, axis2=2).real
    marginals = matcore.partial_trace(e, 0)
    squares = _kron_squares(marginals)
    p_sym = matcore.sym_projector(p.base_dim)
    p_anti = matcore.antisym_projector(p.base_dim)
    we = weights[:, None, None] * e
    bound = tol * weights * np.linalg.norm(e, axis=(1, 2))
    positive = weights > _tol.POVM_TOL
    sym_power = positive & (np.linalg.norm(
        we - p_sym @ squares @ p_sym, axis=(1, 2)) <= bound)
    slater = positive & (np.linalg.norm(
        we - 4.0 * p_anti @ squares @ p_anti, axis=(1, 2)) <= bound)
    # marginal eigenvectors, by descending eigenvalue
    mvecs = np.linalg.eigh(marginals)[1][:, :, ::-1]
    classes = []
    for k, weight in enumerate(weights.tolist()):
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


def _check_rank_profile(ops: OperatorSet, rank: int) -> None:
    """Each operator A must be tr(A)/rank times a rank-``rank`` projector:
    A^2 = (tr A / rank) A to ``_tol.RANK_TOL`` |A|_F^2.  The operators of an
    OperatorSet are PSD with positive trace, so that identity is enough."""
    a = ops.elements
    resid = np.linalg.norm(a @ a - (ops.traces() / rank)[:, None, None] * a,
                           axis=(1, 2))
    if np.any(resid > _tol.RANK_TOL * np.linalg.norm(a, axis=(1, 2)) ** 2):
        raise ValueError(f"operator is not a multiple of a rank-{rank} "
                         "projector")


def tight_coherent_from_designs(
    sym_ops: OperatorSet,
    antisym_ops: OperatorSet,
) -> Povm:
    """Assemble a tight coherent two-copy POVM from two seed designs.

    ``sym_ops`` must be rank-one operators A_zeta summing to (d+1)/2 times
    the identity and forming a generalized 2-design; they produce the
    symmetric elements A ⊗ A / tr A.  ``antisym_ops`` must be operators
    B_eta proportional to rank-two projectors, summing to 2(d-1) times the
    identity and forming a generalized 2-design; they produce the
    antisymmetric elements P_- (B ⊗ B) P_- / tr B.

    The rank profiles are checked by the identity A^2 = (tr A / r) A,
    r = 1 or 2, to ``_tol.RANK_TOL`` |A|_F^2, whose residual grows
    linearly with a seed's distance from its profile; the sums to
    ``_tol.DESIGN_TOL`` times d, and the design certificates to
    ``_tol.DESIGN_TOL``.
    """
    d, tol = sym_ops.dim, _tol.DESIGN_TOL
    if antisym_ops.dim != d:
        raise ValueError("seed designs must share one dimension")
    _check_rank_profile(sym_ops, 1)
    _check_rank_profile(antisym_ops, 2)
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
    """Test whether a two-copy POVM is tight coherent.

    One tolerance serves the request: ``tol`` bounds the relative
    residual of :func:`classify_coherent`'s identities, the frame-potential
    slack of the marginals {Q_xi} and, with ``_tol.TIGHT_PURITY_TOL`` as
    its floor, their purity residual.  Positivity and completeness are
    :func:`validate_povm` at its default ``_tol.POVM_TOL``.  The marginals
    of the slater elements, when there are d^2 of them, are a new
    OperatorSet of elements of {Q_xi}.
    """
    if p.copies != 2 or p.subspace is not None:
        raise ValueError("tightness applies to complete two-copy POVMs")
    d = p.base_dim
    report = validate_povm(p)
    classification = classify_coherent(p, tol)
    q_all = OperatorSet(marginal_Q(p.elements))
    q_cert = generalized_2design_check(q_all, tol)
    target = (3.0 * d + 1.0) / (4.0 * d)
    purity_residual = abs(q_cert.purity - target)

    slater = [c.kind == "slater" for c in classification.classes]
    anti_gsic = None
    if sum(slater) == d * d:
        anti_gsic = generalized_sic_check(OperatorSet(q_all.elements[slater]),
                                          tol)

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
