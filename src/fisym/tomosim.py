"""Monte Carlo qubit tomography with single-copy and two-copy schemes.

A simulation draws multinomial outcome counts for a fixed true state,
estimates the state per trial, and reports scaled error metrics

    scaled_mse = N * mean Hilbert-Schmidt distance squared,
    scaled_msb = N * mean Bures distance squared,

where N counts input copies (a two-copy scheme performs N/2 measurements).
Asymptotically these approach t * tr(W I^{-1}) with W the matching weight
matrix, which is what :func:`asymptotic_metrics` evaluates for any chart.
A sweep evaluates it for its whole grid at once, from the POVM's
Pauli-basis model and the closed-form Bures weight of the Bloch chart.

Trial RNG streams are keyed by (seed, trial index), so results are
reproducible and independent of execution order: trial i draws from the
stream of ``np.random.default_rng((seed, i))``.  The seeds of every
stream in a run are hashed together as arrays by ``_streams``, a
reimplementation of NumPy's SeedSequence mixing, and each trial's PCG64
is seeded from its hashed words.

A run, and a whole sweep, is processed as arrays, each stage once per
batch and none per grid point: one checked stack of states, one
Born-rule contraction for their sampling probabilities, one count
matrix over every grid point and trial, one least-squares solve for all
linear estimates, and the error metrics in closed form from Bloch
vectors, stacked and reduced along the trial axis in one pass.  A
scheme is set up from its Pauli-basis model alone: the model serves the
MLE, gives the linear system of single-copy and two-copy POVMs alike,
and gives a sweep's analytic columns.  A named scheme is set up once per
process and estimator and shared, read-only, by every config that names
it; a custom POVM is set up when its config is checked.  The MLE
restricts the model to a trial's observed outcomes once, for all of the
trial's starts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import _tol
from .fisher import _accumulate, _born, _nonnegative, fisher_matrix
from .opfile import _integer, _number
from .povm import NAMED_POVMS, Povm, _require_povm
from .states import (
    _PAULI,
    _bloch_matrices,
    _bloch_vector,
    _qfi,
    _unit_vector,
    Parametrization,
    qubit_fidelity,
    tangent_ops,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "scheme_povm",
    "run_simulation",
    "asymptotic_metrics",
    "SweepConfig",
    "sweep",
    "write_sweep_csv",
]

# The informationally complete subset of the named POVMs, plus "custom".
# great-circle is left out: its Bloch rows have rank 2.
SCHEMES = ("collective-sic", "sic-single", "mub-single", "custom")

# Iteration cap that ends one MLE ascent.
_MLE_MAX_ITER = 200


def _read_only(a: np.ndarray) -> np.ndarray:
    """a as a contiguous array (a itself if it is one), made read-only:
    a scheme's set-up may be shared by every run of the process."""
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# Offsets of the MLE's starts from s0: the first alone where the model is
# affine, all four where it is quadratic (:func:`_scheme_setup`).
_STARTS = _read_only(np.vstack([np.zeros(3), 0.05 * np.eye(3)]))

# Machine epsilon, the relative rounding of one float64 operation.
_EPS = float(np.finfo(float).eps)


def _validate_run(config) -> None:
    """Checks shared by :class:`SimConfig` and :class:`SweepConfig`, and
    the run's set-up.  ``n_copies``, ``n_trials`` and ``seed`` become
    ints; a value that is not a JSON integer (a bool, a string, a
    fraction) raises ValueError, as does a scheme and POVM that
    :func:`scheme_povm` refuses, a custom POVM that is not positive and
    complete (:func:`povm._require_povm`), and one that
    :func:`_scheme_setup` refuses.  The set-up is kept in
    ``config._setup`` for the run: a named scheme's comes from
    :func:`_named_setup`, built once per process and estimator, and a
    custom POVM's is built here, once per config.  The config is frozen
    and the set-up read-only, so neither goes stale."""
    for name in ("n_copies", "n_trials", "seed"):
        object.__setattr__(config, name, _integer(getattr(config, name)))
    p = scheme_povm(config.scheme, config.povm)
    if config.scheme == "custom":
        _require_povm(p)
    if config.estimator not in ("mle", "linear"):
        raise ValueError("estimator must be 'mle' or 'linear'")
    if config.n_trials < 1:
        raise ValueError("need at least one trial")
    if config.n_copies < 1:
        raise ValueError("need at least one copy per trial")
    if config.n_copies >= 2 ** 63:
        # the multinomial sampler takes a signed 64-bit count
        raise ValueError("n_copies must be below 2**63")
    if config.n_copies % p.copies != 0:
        raise ValueError(f"n_copies must be a positive multiple of {p.copies}")
    if config.seed < 0:
        raise ValueError("seed must be nonnegative")
    object.__setattr__(config, "_setup", (
        _scheme_setup(p, config.estimator) if config.scheme == "custom"
        else _named_setup(config.scheme, config.estimator)))


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment; its fields are the keys of a
    ``fisym simulate`` config file.

    ``n_copies`` is the total number of input copies per trial; it must be
    divisible by the POVM's copy count.  ``povm`` is the POVM of the scheme
    "custom", and only of it.
    """

    scheme: str
    bloch: tuple
    n_copies: int
    n_trials: int
    seed: int
    estimator: str = "mle"
    povm: Povm | None = None
    _setup: _Scheme = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_run(self)
        bloch = _bloch_vector([_number(x) for x in self.bloch])
        object.__setattr__(self, "bloch", tuple(map(float, bloch)))


@dataclass
class SimResult:
    """Aggregated Monte Carlo output; all errors are scaled by n_copies.
    Its float fields are the point's statistics, :data:`STATISTICS`."""

    config: SimConfig
    scaled_mse: float
    mse_stderr: float
    scaled_msb: float
    msb_stderr: float
    scaled_infidelity: float
    infidelity_stderr: float
    n_clipped: int
    counts_total: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "scheme": self.config.scheme,
            "bloch": list(self.config.bloch),
            "estimator": self.config.estimator,
            "n_copies": self.config.n_copies,
            "n_trials": self.config.n_trials,
            "seed": self.config.seed,
            **{name: getattr(self, name) for name in STATISTICS},
            "n_clipped": self.n_clipped,
            "counts_total": [int(c) for c in self.counts_total],
        }


# A point's statistics, the float fields of SimResult in their order: the
# scaled mean squared Hilbert-Schmidt and Bures distances and the scaled
# mean infidelity, each followed by its standard error.  The one list of
# their names, which the record, the sweep rows and the CSV header read.
STATISTICS = tuple(f.name for f in fields(SimResult) if f.type == "float")


def scheme_povm(scheme: str, custom: Povm | None = None) -> Povm:
    """Resolve a scheme to a POVM of ``povm.NAMED_POVMS`` or to ``custom``,
    which the scheme "custom" needs and no other scheme takes."""
    if scheme == "custom":
        if custom is None:
            raise ValueError("custom scheme needs an explicit POVM")
        return custom
    if custom is not None:
        raise ValueError('a "povm" file is read only with "scheme": "custom"')
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return NAMED_POVMS[scheme]


# B_m = (1, sigma_x, sigma_y, sigma_z)/2, so rho(s) = sum_m shat_m B_m with
# shat = (1, s).
_BASIS = 0.5 * np.array([np.eye(2), *_PAULI])


def _pauli_coeffs(elements, copies: int = 1) -> np.ndarray:
    """tr((B_m1 x ... x B_mt) E) for stacked qubit operators E on t copies,
    shape (k, 4) or (k, 4, 4), so that tr(rho(s)^(xt) E) contracts the
    result with shat once per copy.  Two copies contract the first basis
    with E, then the second, on a fixed path: searching for it costs more
    than the contraction."""
    e = np.asarray(elements).reshape(-1, *(2,) * (2 * copies))
    if copies == 1:
        return np.einsum("mab,kba->km", _BASIS, e).real
    return np.einsum("mab,ncd,kbdac->kmn", _BASIS, _BASIS, e,
                     optimize=["einsum_path", (0, 2), (0, 1)]).real


@dataclass(frozen=True)
class _QuadModel:
    """Outcome probabilities as p(s) = c + L s + s^T M s over Bloch space,
    with each M_k symmetric.  ``quad`` holds the M_k as a (k, 3, 3)
    stack, or, in the MLE's restriction to the observed outcomes, as
    their (3k, 3) rows, for which M s is one 2-D product."""

    c: np.ndarray
    lin: np.ndarray
    quad: np.ndarray

    def evaluate(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """p(s) = c + (L + M s) s and M s, shape (k, 3), from one product
        M s; the gradients of p at s are then L + 2 M s."""
        ms = self.quad.dot(s).reshape(-1, 3)
        return self.c + (self.lin + ms).dot(s), ms


def _quad_model(p: Povm) -> _QuadModel:
    q = _pauli_coeffs(p.elements, p.copies)
    if p.copies == 1:
        parts = q[:, 0], q[:, 1:], np.zeros((p.size, 3, 3))
    else:
        q = 0.5 * (q + q.transpose(0, 2, 1))  # rho x rho is swap-symmetric
        parts = q[:, 0, 0], 2.0 * q[:, 0, 1:], q[:, 1:, 1:]
    # contiguous copies of the slices: the MLE evaluates the model hundreds
    # of times per trial, and products with strided views are slower
    return _QuadModel(*map(_read_only, parts))


def _sampling_probs(rhos: np.ndarray, p: Povm) -> np.ndarray:
    """Outcome probabilities tr(rho^(xt) E) of every state of a checked
    (g, d, d) stack, shape (g, k), clipped at zero, checked complete and
    renormalized.  They come from ``fisher._born``, the kernel of
    ``fisher.outcome_probs``, so each row is that of its state alone and
    equals the probabilities the Fisher reports read."""
    probs = _nonnegative(_born(rhos, rhos, p) / p.copies)
    total = probs.sum(axis=1, keepdims=True)
    incomplete = np.abs(total - 1.0) > _tol.POVM_TOL
    if np.any(incomplete):
        raise ValueError(f"outcome probabilities sum to {total[incomplete][0]}"
                         ", POVM is not complete for this state")
    return probs / total


@dataclass(frozen=True)
class _LinearSystem:
    """Linear model target = offset + rows @ s extracted from a POVM.

    For single-copy POVMs the targets are the outcome frequencies f.  For
    two-copy POVMs they are sqrt(f/c) of the outcomes whose probability
    is c (1 + u.s)^2, with rows u and offsets 1; other outcomes carry no
    linear information and are skipped.
    """

    indices: np.ndarray
    offset: np.ndarray
    rows: np.ndarray
    squares: np.ndarray | None  # two-copy only: the c of each outcome


def _linear_system(p: Povm, model: _QuadModel) -> _LinearSystem:
    """The linear model of a qubit POVM, read from its Pauli ``model``
    p(s) = c + L s + s^T M s.

    A single-copy POVM's offsets and rows are c and L.  A two-copy
    outcome linearizes when its probability is a perfect square
    c (1 + u.s)^2 with |u| = 1, that is c > 0, |L| = 2c and 4c M = L L^T,
    each within ``_tol.RANK_TOL`` relative to c: then
    sqrt(f/c) = 1 + u.s with u = L/(2c).  The sym-power elements
    w (psi psi)^(x2) of ``povm.classify_coherent`` are such outcomes,
    with c = w/4 and u the Bloch vector of psi; any element whose
    probability is such a square for every s linearizes too, whatever its
    structure.  No element is decomposed.
    """
    if p.copies == 1:
        indices = np.arange(p.size)
        offset, rows = model.c, model.lin
        squares = None
    else:
        c, lin = model.c, model.lin
        tol = _tol.RANK_TOL
        outer = lin[:, :, None] * lin[:, None, :]
        indices = np.nonzero(
            (c > 0.0)
            & (np.abs(np.linalg.norm(lin, axis=1) - 2.0 * c) <= tol * 2.0 * c)
            & (np.linalg.norm(4.0 * c[:, None, None] * model.quad - outer,
                              axis=(1, 2)) <= tol * 4.0 * c * c))[0]
        if not indices.size:
            raise ValueError("two-copy POVM has no symmetric rank-one-power "
                             "outcomes; linear inversion is unavailable")
        squares = _read_only(c[indices])
        rows = lin[indices] / (2.0 * squares[:, None])
        offset = np.ones(len(indices))
    rows = _identifying(rows)
    return _LinearSystem(*map(_read_only, (indices, offset, rows)), squares)


def _identifying(rows: np.ndarray) -> np.ndarray:
    """The rows of a linear model in s, checked to identify s: rank 3 to
    ``_tol.BLOCH_RANK_TOL``."""
    if np.linalg.matrix_rank(rows, tol=_tol.BLOCH_RANK_TOL) < 3:
        raise ValueError("POVM is not informationally complete for the "
                         "Bloch vector")
    return rows


def _linear_bloch(counts: np.ndarray, sys: _LinearSystem) -> np.ndarray:
    """Least-squares Bloch vectors for a (trials, outcomes) count array,
    every trial solved by one lstsq with a matrix right-hand side."""
    freqs = counts / counts.sum(axis=1, keepdims=True)
    target = freqs[:, sys.indices]
    if sys.squares is not None:
        target = np.sqrt(target / sys.squares)
    s, *_ = np.linalg.lstsq(sys.rows, (target - sys.offset).T, rcond=None)
    return s.T


def _to_ball(s: np.ndarray) -> np.ndarray:
    """Rescale the rows of s that lie outside the unit Bloch ball onto it
    and then, as :func:`_project` does, move those that rounding left
    outside toward 0 an ulp per coordinate at a time until |s| <= 1 holds
    in floating point."""
    r = np.linalg.norm(s, axis=-1, keepdims=True)
    s = np.where(r > 1.0, s / np.maximum(r, 1.0), s)
    while np.any(out := np.linalg.norm(s, axis=-1, keepdims=True) > 1.0):
        s = np.where(out, np.nextafter(s, 0.0), s)
    return s


def _project(s: np.ndarray, clip: float) -> np.ndarray:
    """s if |s| <= clip, else s scaled onto the sphere of radius clip and
    then, where rounding left it outside, moved toward 0 an ulp per
    coordinate at a time until |s| <= clip holds in floating point.
    |s| is sqrt(s.s), which is how ``np.linalg.norm`` computes the norm of
    a real vector, without its per-call cost."""
    r = math.sqrt(s.dot(s))
    if r <= clip:
        return s
    s = s * (clip / r)
    while math.sqrt(s.dot(s)) > clip:
        s = np.nextafter(s, 0.0)
    return s


def _ldl_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """The solution d of A d = b for a symmetric 3 x 3 A, read from its
    upper triangle, by the LDL^T factorization A = L D L^T, or None where
    a pivot D_ii is not positive and finite.  A pivot is not so where A
    is not positive definite (up to rounding) or not finite: a
    non-finite entry reaches a pivot as inf, -inf or NaN.  So one pass
    decides definiteness and solves, in Python floats, where numpy's
    per-call cost on a 3 x 3 system would exceed its arithmetic many
    times over."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a.tolist()
    b0, b1, b2 = b.tolist()
    if not 0.0 < a00 < math.inf:
        return None
    l10, l20 = a01 / a00, a02 / a00
    d1 = a11 - l10 * a01
    if not 0.0 < d1 < math.inf:
        return None
    l21 = (a12 - l20 * a01) / d1
    d2 = a22 - l20 * a02 - l21 * l21 * d1
    if not 0.0 < d2 < math.inf:
        return None
    y1 = b1 - l10 * b0
    x2 = (b2 - l20 * b0 - l21 * y1) / d2
    x1 = y1 / d1 - l21 * x2
    return np.array([b0 / a00 - l10 * x1 - l20 * x2, x1, x2])


class _Observed:
    """A model restricted to the outcomes that a trial's counts observed,
    n_k > 0, laid out for one product per term of :func:`_mle_bloch`:
    the counts; the restricted :class:`_QuadModel`, with its M_k as
    (3k, 3) rows, so that :meth:`_QuadModel.evaluate` forms M s in one
    product; -2 M_k as rows of 9, so that -Hess l = G + w (-2 M) with
    w = n / p is one product; 1 / sqrt(n), so that G = U^T U with
    U = grad p (w / sqrt(n)); and ``rounding``, k eps, the rounding of
    l = sum_k n_k log p_k relative to |l|.  :func:`_estimate` builds it
    once per trial and hands it to the ascent from each start."""

    def __init__(self, counts: np.ndarray, model: _QuadModel):
        observed = counts > 0
        self.counts = counts[observed]
        quad = model.quad[observed]
        self.model = _QuadModel(model.c[observed], model.lin[observed],
                                quad.reshape(-1, 3))
        self.neg_quad9 = -2.0 * quad.reshape(-1, 9)
        self.inv_root = 1.0 / np.sqrt(self.counts)
        self.rounding = self.counts.size * _EPS


def _mle_bloch(
    obs: _Observed,
    init: np.ndarray,
    clip: float,
) -> tuple[np.ndarray, float]:
    """Projected damped-Newton ascent on the multinomial log-likelihood
    l(s) = sum_k n_k log p_k(s) over the ball |s| <= clip, with Fisher
    scoring after Hradil, PRA 55, R1561 (1997), of the trial whose
    counts and model ``obs`` restricts to its observed outcomes.

    Each iteration solves A d = b and backtracks along d: for
    t = 1, 1/2, 1/4, ... it takes the first trial point s + t d,
    projected onto the clipped ball, that raises l.  b is the gradient g
    of l, and A is the exact Hessian -Hess l where its LDL^T pivots are
    positive (:func:`_ldl_solve`, which gives Newton's d in the same
    pass), and otherwise the scoring matrix
    G = sum_k n_k grad p_k grad p_k^T / p_k^2 over the observed outcomes.
    For an affine model the two are equal; for a quadratic one
    -Hess l = G - 2 sum_k (n_k / p_k) M_k, and Newton's step converges
    where scoring would crawl.  At the clip, with g pointing outward, the
    step is Newton's on the sphere: A and g restricted to its tangent
    plane, A plus the curvature term (g.s / |s|^2) of the constraint,
    which makes that system definite, and it too is solved by
    :func:`_ldl_solve`.  So only G can be singular; g lies in its range,
    and the minimum-norm least-squares d of ``lstsq`` still ascends.
    Halving a far step along a flat direction of l brings the trial point
    back from the sphere into the ball, where d ascends.

    The ascent ends, before each trial point, when the rise the step
    predicts, t b.d / 2 with b.d the Newton decrement lambda^2, is within
    k eps |l|: l sums k observed terms n_k log p_k <= 0, so it is computed
    only to about that, and a smaller rise would be rounding.  At t = 1
    this is the decrement test that Newton's method runs before its line
    search (Boyd and Vandenberghe, Convex Optimization, 2004, Alg. 9.5).
    A NaN prediction ends it too, and t reaches 0 within about 1075
    halvings.
    The ascent also ends when |g| falls to ``_tol.MLE_GRAD_TOL``, when d
    or the system A d = b is not finite, or after ``_MLE_MAX_ITER``
    iterations.

    The restriction, made once per trial (:class:`_Observed`), lays the
    model out for one product per term.  The model is evaluated once per
    trial point: that one M s gives its probabilities
    p = c + (L + M s) s, which l comes with, and, once the point is
    accepted, the gradients L + 2 M s and the weights of the next
    iteration.  The scalar tests (p > 0, |g|, s.s and g.s) run on Python
    floats, as :func:`_ldl_solve` does, where numpy's per-call cost would
    exceed the arithmetic.  Returns the point and its log-likelihood.
    """
    c_obs, model, inv_root = obs.counts, obs.model, obs.inv_root

    def loglik(s):
        pr, ms = model.evaluate(s)
        if min(pr.tolist()) <= 0.0:
            return -math.inf, pr, ms
        return float(c_obs.dot(np.log(pr))), pr, ms

    s = _project(init, clip)
    f, pr, ms = loglik(s)
    if not math.isfinite(f):
        s = np.zeros(3)
        f, pr, ms = loglik(s)
    for _ in range(_MLE_MAX_ITER):
        grads = model.lin + 2.0 * ms
        w = c_obs / pr
        g = w.dot(grads)
        g0, g1, g2 = g.tolist()
        if math.hypot(g0, g1, g2) <= _tol.MLE_GRAD_TOL:
            break
        u = grads.T * (w * inv_root)
        fisher = u.dot(u.T)
        hess = fisher + w.dot(obs.neg_quad9).reshape(3, 3)
        d = _ldl_solve(hess, g)  # Newton's step, where -Hess l is definite
        a, b = (fisher if d is None else hess), g
        s0, s1, s2 = s.tolist()
        r2, gs = s0 * s0 + s1 * s1 + s2 * s2, g0 * s0 + g1 * s1 + g2 * s2
        if r2 >= (clip - _tol.CLIP_MARGIN) ** 2 and gs > 0.0:
            # pressed against the clip: a Newton step along the sphere
            tan = np.eye(3) - np.outer(s, s) / r2
            a = tan @ (a + (gs / r2) * np.eye(3)) @ tan + np.eye(3) - tan
            b = tan @ g
            d = _ldl_solve(a, b)
        elif d is None:
            d = _ldl_solve(a, b)
        if d is None:  # G is singular, or the system is not finite
            if not (np.isfinite(a).all() and np.isfinite(b).all()):
                break  # lstsq's LAPACK would refuse it on stderr
            d = np.linalg.lstsq(a, b, rcond=None)[0]  # b is in G's range
        if not all(map(math.isfinite, d.tolist())):
            break  # d is not finite (a list checks faster than an array)
        t, rise = 1.0, 0.5 * b.dot(d)
        while True:  # backtrack along d to the first point that rises
            if not t * rise > obs.rounding * abs(f):
                return s, f  # any rise left is rounding of l
            cand = _project(s + t * d, clip)
            fc, pc, mc = loglik(cand)
            if fc > f:
                break
            t *= 0.5
        s, f, pr, ms = cand, fc, pc, mc
    return s, f


@dataclass(frozen=True)
class _Scheme:
    """What estimation needs from a POVM: its Pauli model, which the MLE
    and a sweep's analytic columns read, the linear system that
    :func:`_linear_system` reads from the model, with no
    eigendecomposition, and the MLE's starts.  A named scheme's is built
    once per process and estimator (:func:`_named_setup`) and shared by
    every run; a custom POVM's once per config.  So that no run can
    change it for another, it and its parts are frozen and every array
    in them is read-only (:func:`_read_only`)."""

    povm: Povm
    model: _QuadModel
    linsys: _LinearSystem | None  # None: MLE starts from the centre
    mle: bool
    starts: np.ndarray  # (m, 3) offsets of the MLE's starts from s0


def _scheme_setup(p: Povm, estimator: str) -> _Scheme:
    """The scheme of a qubit POVM, held to one rule for both estimators:
    the rows that the estimator reads identify the Bloch vector
    (:func:`_identifying`).  The linear estimator reads the rows of its
    linear system, and the MLE the model's linear part L, the
    information at the centre.  The MLE starts from s0, the linear
    estimate, or the centre when the POVM has no linear system: a
    two-copy POVM with no square outcome, or with too few for the Bloch
    vector.  Where the model is affine (every quadratic part M is zero,
    as for every single-copy POVM), the log-likelihood is concave on a
    convex set, so one ascent from s0 finds its global maximizer.  A
    quadratic model's likelihood need not be concave, so it also starts
    from s0 + 0.05 e_i for each axis i."""
    if p.base_dim != 2:
        raise ValueError("simulation estimators are implemented for qubits")
    model = _quad_model(p)
    mle = estimator == "mle"
    if mle:
        _identifying(model.lin)
    try:
        linsys = _linear_system(p, model)
    except ValueError:
        if not mle:
            raise
        linsys = None
    starts = _STARTS if np.any(model.quad) else _STARTS[:1]
    return _Scheme(p, model, linsys, mle, starts)


@functools.cache
def _named_setup(scheme: str, estimator: str) -> _Scheme:
    """The set-up of a scheme of ``povm.NAMED_POVMS``, whose POVMs are
    frozen: built on first use and shared by every later config of the
    process that names the scheme and estimator."""
    return _scheme_setup(NAMED_POVMS[scheme], estimator)


def _estimate(counts: np.ndarray, setup: _Scheme) -> np.ndarray:
    """Bloch estimates for a (trials, outcomes) count array: the linear
    inversion projected into the unit ball, or the MLE over the ball
    clipped at ``_tol.INTERIOR_CLIP``, which keeps Bures distances
    finite, one trial at a time.  Each trial restricts the model to its
    observed outcomes once (:class:`_Observed`) and runs one
    :func:`_mle_bloch` ascent on that restriction per start of the
    scheme, from s0 projected into the clipped ball and moved by the
    start's offset (which the ascent projects again).  It keeps the end
    of the first start whose log-likelihood is within k eps |l| of the
    highest l, the rounding of l that ends an ascent once its Newton
    step predicts no larger rise, so rounding does not pick among ends
    that tie to within it."""
    s_lin = (np.zeros((len(counts), 3)) if setup.linsys is None
             else _linear_bloch(counts, setup.linsys))
    if not setup.mle:
        return _to_ball(s_lin)
    clip = _tol.INTERIOR_CLIP
    estimates = []
    for c, s0 in zip(counts, s_lin):
        s0 = _project(s0, clip)
        observed = _Observed(c, setup.model)
        ends = [_mle_bloch(observed, s0 + d, clip) for d in setup.starts]
        top = max(f for _, f in ends)
        floor = top - observed.rounding * abs(top)
        estimates.append(next(s for s, f in ends if f >= floor))
    return np.array(estimates)


def _simulate(config, bloch: np.ndarray, seeds) -> list[dict]:
    """Monte Carlo runs at the states of a (g, 3) array of Bloch vectors,
    point a with seed ``seeds[a]``, as one batch.

    Every stage runs once for the batch.  The states are one (g, 2, 2)
    stack (``states._bloch_matrices``) of the vectors that ``config``
    checked, whose Born probabilities tr(rho^(xt) E) come from one
    contraction (:func:`_sampling_probs`).
    Trial i at a point draws its counts from the RNG stream keyed by that
    point's (seed, i), seeded from :func:`_streams.stream_states`, which
    hashes the seeds of every stream of the batch in one pass.  The
    counts fill one (points, trials, outcomes) matrix, which one
    :func:`_estimate` call inverts (one least-squares solve; the MLE runs
    per trial).  The squared Hilbert-Schmidt and Bures distances and the
    infidelities of every estimate from its point's vector are stacked,
    and one mean and one standard deviation along the trial axis reduce
    them, each mean stacked with its standard error in the order of
    :data:`STATISTICS`.  ``config`` (a :class:`SimConfig` or
    :class:`SweepConfig`) gives its scheme's set-up, the copies and the
    trials.  Returns, per point, the fields of :class:`SimResult` other
    than ``config``.
    """
    setup = config._setup
    p = setup.povm
    n_meas = config.n_copies // p.copies
    probs = _sampling_probs(_bloch_matrices(bloch), p)

    # numpy.random is imported on the first draw, not with fisym
    from ._streams import seeded_rng, stream_states

    nt = config.n_trials
    words = stream_states(seeds, np.arange(nt))
    counts = np.array([[seeded_rng(w).multinomial(n_meas, pr) for w in ws]
                       for ws, pr in zip(words, probs)])
    s_hat = _estimate(counts.reshape(-1, p.size).astype(float),
                      setup).reshape(len(bloch), nt, 3)
    radii = np.linalg.norm(s_hat, axis=-1)
    if not (np.all(np.isfinite(s_hat))
            and np.all(radii <= 1.0 + _tol.NORM_TOL)):
        raise ValueError("an estimate is not a finite Bloch vector in the "
                         "unit ball")

    s0 = bloch[:, None, :]
    fid = qubit_fidelity(s0, s_hat)
    # squared HS distance, squared Bures distance, infidelity
    errors = np.stack([0.5 * np.sum((s_hat - s0) ** 2, axis=-1),
                       np.maximum(2.0 - 2.0 * np.sqrt(fid), 0.0), 1.0 - fid])
    n = config.n_copies
    means = n * errors.mean(axis=-1)
    stderrs = (n * errors.std(axis=-1, ddof=1) / np.sqrt(nt) if nt > 1
               else 0.0 * means)
    # rows in STATISTICS order: each mean, then its standard error
    stats = np.stack([means, stderrs], axis=1).reshape(len(STATISTICS), -1)
    n_clipped = np.count_nonzero(
        radii >= _tol.INTERIOR_CLIP - _tol.CLIP_MARGIN, axis=1)
    totals = counts.sum(axis=1)
    return [{**dict(zip(STATISTICS, map(float, stats[:, a]))),
             "n_clipped": int(n_clipped[a]), "counts_total": totals[a]}
            for a in range(len(bloch))]


def run_simulation(config: SimConfig) -> SimResult:
    """Run the configured Monte Carlo experiment.

    Deterministic in the seed: trial i uses the RNG stream keyed by
    (seed, i) regardless of how many trials run.
    """
    return SimResult(config=config, **_simulate(
        config, np.array([config.bloch]), [config.seed])[0])


def _inverse_fisher(i_mats: np.ndarray) -> np.ndarray:
    """Inverses of a (g, n, n) stack of classical Fisher matrices, each
    checked nonsingular relative to its largest eigenvalue."""
    vals = np.linalg.eigvalsh(i_mats)
    if np.any(vals[:, 0] <= _tol.SINGULAR_I_TOL
              * np.maximum(1.0, vals[:, -1])):
        raise ValueError("classical Fisher matrix is singular; the scheme "
                         "does not identify all parameters here")
    return np.linalg.inv(i_mats)


def asymptotic_metrics(param: Parametrization, p: Povm, weight="hs") -> float:
    """Asymptotic scaled error t * tr(W I^{-1}) at the basepoint of any
    chart, with I from :func:`fisher.fisher_matrix`.

    ``weight`` selects the Hilbert-Schmidt matrix W_ab = tr(t_a t_b)
    ('hs') or the Bures matrix J/4 ('msb', J the quantum Fisher matrix of
    :func:`states.qfi_matrix`, whose tangents the chart checked when it
    was built); only the selected one is computed.  :func:`sweep`
    evaluates the same quantities for the Bloch chart in closed form.
    """
    if not (isinstance(weight, str) and weight in ("hs", "msb")):
        raise ValueError(f"unknown weight {weight!r}")
    i_inv = _inverse_fisher(fisher_matrix(param, p)[None])[0]
    tangents = tangent_ops(param)
    if weight == "hs":
        w = np.einsum("aij,bji->ab", tangents, tangents).real
    else:
        w = _qfi(param.base(), tangents) / 4.0
    return float(p.copies * np.trace(w @ i_inv))


def _analytic_columns(model: _QuadModel, bloch: np.ndarray,
                      copies: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`asymptotic_metrics` of the Bloch chart with the weights
    'hs' and 'msb', at every row of a (g, 3) array of Bloch vectors.

    The chart's tangents are σ/2, along which the model's gradient is
    L + 2 M s, so the I of every point follows from the model alone, in
    the form of :meth:`_QuadModel.evaluate`: one product M s for the
    whole grid gives the probabilities p = c + (L + M s) s and the
    gradients L + 2 M s, which ``fisher._accumulate`` takes as one stack,
    with the drop rule and regularity warning of
    :func:`fisher.fisher_matrix`.  The weights are 1/2 and J/4 with
    J = 1 + s s^T / (1 - |s|^2) (Braunstein and Caves, PRL 72, 3439
    (1994)).  A state with (1 - |s|)/2 at or below ``_tol.RANK_TOL``
    raises: that test is the numerical rank rule of
    :class:`states.DensityMatrix` for a qubit, whose smaller eigenvalue
    is (1 - |s|)/2.  Such a state is pure, the Bloch chart's radial
    tangent leaves its support, and the SLD solve of the general path
    raises there as well.
    """
    ms = np.einsum("kab,gb->gka", model.quad, bloch)
    probs = _nonnegative(model.c + np.einsum("gka,ga->gk", model.lin + ms,
                                             bloch))
    grads = model.lin + 2.0 * ms
    i_inv = _inverse_fisher(_accumulate(probs, grads)[0])
    r = np.linalg.norm(bloch, axis=1)
    if np.any((1.0 - r) / 2.0 <= _tol.RANK_TOL):
        raise ValueError(f"Bloch radius {float(r.max())!r} is pure to within "
                         "the rank tolerance; the Bures weight J/4 is "
                         "undefined there")
    tr_inv = np.trace(i_inv, axis1=1, axis2=2)
    radial = np.einsum("ga,gab,gb->g", bloch, i_inv, bloch)
    return (copies * tr_inv / 2.0,
            copies * (tr_inv + radial / (1.0 - r * r)) / 4.0)


@dataclass(frozen=True)
class SweepConfig:
    """Bloch-radius sweep of one scheme at fixed direction; its fields
    are the keys of a ``fisym sweep`` config file."""

    scheme: str
    radii: tuple
    n_copies: int
    n_trials: int
    seed: int
    direction: tuple = (1.0, 0.0, 0.0)
    estimator: str = "mle"
    povm: Povm | None = None
    _setup: _Scheme = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate_run(self)
        object.__setattr__(self, "direction", tuple(_unit_vector(np.array(
            [_number(x) for x in self.direction]).reshape(3), "direction")))
        radii = tuple(_number(s) for s in self.radii)
        if not radii:
            raise ValueError("need at least one radius")
        if not all(0.0 <= s < 1.0 for s in radii):
            raise ValueError("radii must lie in [0, 1)")
        object.__setattr__(self, "radii", radii)


# the Hilbert-Schmidt and Bures statistics, then their asymptotic values
SWEEP_COLUMNS = ("s", "scheme", *STATISTICS[:4], "analytic_mse",
                 "analytic_msb")


def sweep(config: SweepConfig) -> list[dict]:
    """Monte Carlo plus asymptotic errors along a Bloch-radius grid.

    Grid point idx runs with the derived seed ``seed + 99991 * idx``, so
    its trials draw from the streams keyed by (that seed, i) and each row
    equals an independent :func:`run_simulation` there.  Rows carry the
    scaled Monte Carlo errors next to the asymptotic values
    t * tr(W I^{-1}), keyed by :data:`SWEEP_COLUMNS`.  The scheme's
    set-up, which the config holds, serves the whole grid.  The analytic
    columns come first, from ``setup.model``, the scheme's Pauli model,
    for the whole grid at once (:func:`_analytic_columns`), with one
    batched singular-I check and one batched inverse; they equal :func:`asymptotic_metrics` of the
    point's :class:`BlochQubit` chart to rounding, and a grid that they
    refuse, such as one with a near-pure radius, raises before any trial
    runs.  Then the whole grid is one Monte Carlo batch
    (:func:`_simulate`): one stack of states, one count matrix for every
    point and trial and one estimate pass.  No step builds a
    :class:`DensityMatrix` or classifies the POVM's elements.
    """
    setup = config._setup
    bloch = np.outer(config.radii, config.direction)
    mse, msb = _analytic_columns(setup.model, bloch, setup.povm.copies)
    sims = _simulate(config, bloch, [config.seed + 99991 * idx
                                     for idx in range(len(bloch))])
    return [dict(zip(SWEEP_COLUMNS, (s, config.scheme,
                                     *(sim[name] for name in STATISTICS[:4]),
                                     float(m), float(b))))
            for s, sim, m, b in zip(config.radii, sims, mse, msb)]


def write_sweep_csv(rows: list[dict], path) -> None:
    """Write sweep rows as UTF-8 CSV with a weight-convention comment.

    Rows are formatted as ``csv.writer`` writes them: fields joined by
    commas, floats by ``repr`` and lines ended by CRLF; no field of a
    sweep row needs quoting.
    """
    lines = [SWEEP_COLUMNS, *([row[c] for c in SWEEP_COLUMNS] for row in rows)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {STATISTICS[0]} weights squared error by the "
                 "Hilbert-Schmidt metric, 0.5*|delta s|^2 in Bloch "
                 f"coordinates; {STATISTICS[2]} uses squared Bures distance\n")
        fh.write("".join(",".join(map(str, line)) + "\r\n" for line in lines))
