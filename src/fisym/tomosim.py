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
vectors, stacked and reduced along the trial axis in one pass.  The
scheme is set up once, from its Pauli-basis model alone: the model
serves the MLE, gives the linear system of single-copy and two-copy
POVMs alike, and gives a sweep's analytic columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _tol
from .fisher import _accumulate, _nonnegative, fisher_matrix
from .opfile import _integer, _number
from .povm import NAMED_POVMS, Povm
from .states import (
    _PAULI,
    _bloch_states,
    _bloch_vector,
    DensityMatrix,
    Parametrization,
    density_from_bloch,
    qfi_matrix,
    qubit_fidelity,
    tangent_ops,
)

__all__ = [
    "SimConfig",
    "SimResult",
    "scheme_povm",
    "sample_outcomes",
    "estimate_linear_qubit",
    "estimate_mle_qubit",
    "run_simulation",
    "asymptotic_metrics",
    "SweepConfig",
    "sweep",
    "write_sweep_csv",
]

# The informationally complete subset of the named POVMs, plus "custom".
# great-circle is left out: its Bloch rows have rank 2.
SCHEMES = ("collective-sic", "sic-single", "mub-single", "custom")

# Iteration cap and absolute gradient norm that end one MLE ascent.
_MLE_MAX_ITER = 200
_MLE_GRAD_TOL = 1e-10


def _validate_run(config) -> None:
    """Checks shared by :class:`SimConfig` and :class:`SweepConfig`.
    ``n_copies``, ``n_trials`` and ``seed`` become ints and
    ``interior_clip`` a float; a value that is not a JSON integer (a
    bool, a string, a fraction), or for the clip a JSON number, raises
    ValueError."""
    config.n_copies = _integer(config.n_copies)
    config.n_trials = _integer(config.n_trials)
    config.seed = _integer(config.seed)
    config.interior_clip = _number(config.interior_clip)
    scheme_povm(config.scheme, config.povm)
    if config.estimator not in ("mle", "linear"):
        raise ValueError("estimator must be 'mle' or 'linear'")
    if config.n_trials < 1:
        raise ValueError("need at least one trial")
    if config.n_copies < 1:
        raise ValueError("need at least one copy per trial")
    if config.n_copies >= 2 ** 63:
        # the multinomial sampler takes a signed 64-bit count
        raise ValueError("n_copies must be below 2**63")
    if config.seed < 0:
        raise ValueError("seed must be nonnegative")
    if not (0.0 < config.interior_clip < 1.0):
        raise ValueError("interior_clip must be in (0, 1)")


@dataclass
class SimConfig:
    """One Monte Carlo experiment; its fields are the keys of a
    ``fisym simulate`` config file.

    ``n_copies`` is the total number of input copies per trial; it must be
    divisible by the POVM's copy count.  ``interior_clip`` bounds estimate
    Bloch radii away from 1 so Bures distances stay finite.
    """

    scheme: str
    bloch: tuple
    n_copies: int
    n_trials: int
    seed: int
    estimator: str = "mle"
    povm: Povm | None = None
    interior_clip: float = _tol.INTERIOR_CLIP

    def __post_init__(self):
        _validate_run(self)
        self.bloch = tuple(float(x) for x in _bloch_vector(
            [_number(x) for x in self.bloch]))


@dataclass
class SimResult:
    """Aggregated Monte Carlo output; all errors are scaled by n_copies."""

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
            "scaled_mse": self.scaled_mse,
            "mse_stderr": self.mse_stderr,
            "scaled_msb": self.scaled_msb,
            "msb_stderr": self.msb_stderr,
            "scaled_infidelity": self.scaled_infidelity,
            "infidelity_stderr": self.infidelity_stderr,
            "n_clipped": self.n_clipped,
            "counts_total": [int(c) for c in self.counts_total],
        }


def scheme_povm(scheme: str, custom: Povm | None = None) -> Povm:
    """Resolve a scheme to a POVM of ``povm.NAMED_POVMS`` or to ``custom``."""
    if scheme == "custom":
        if custom is None:
            raise ValueError("custom scheme needs an explicit POVM")
        return custom
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


@dataclass
class _QuadModel:
    """Outcome probabilities as p(s) = c + L s + s^T M s over Bloch space."""

    c: np.ndarray
    lin: np.ndarray
    quad: np.ndarray

    def probs(self, s: np.ndarray) -> np.ndarray:
        return self.c + self.lin @ s + np.einsum("kab,a,b->k", self.quad, s, s)

    def grads(self, s: np.ndarray) -> np.ndarray:
        return self.lin + 2.0 * self.quad @ s


def _quad_model(p: Povm) -> _QuadModel:
    q = _pauli_coeffs(p.elements, p.copies)
    if p.copies == 1:
        parts = q[:, 0], q[:, 1:], np.zeros((p.size, 3, 3))
    else:
        q = 0.5 * (q + q.transpose(0, 2, 1))  # rho x rho is swap-symmetric
        parts = q[:, 0, 0], 2.0 * q[:, 0, 1:], q[:, 1:, 1:]
    # contiguous copies of the slices: the MLE evaluates the model hundreds
    # of times per trial, and products with strided views are slower
    return _QuadModel(*map(np.ascontiguousarray, parts))


def _sampling_probs(rhos: np.ndarray, p: Povm) -> np.ndarray:
    """Outcome probabilities tr(rho^(xt) E) of every state of a checked
    (g, d, d) stack, shape (g, k), clipped at zero, checked complete and
    renormalized.

    One contraction over every (state, element) pair gives them.  It
    sums each pair in the order in which ``fisher.outcome_probs`` sums
    one state's, so the probabilities, and the multinomial draws, which
    change with their last bit, are those of each state on its own.  A
    (g, n, n) by (k, n, n) contraction would not be: its order of
    summation depends on g.
    """
    if p.copies == 2:
        x = np.einsum("gij,gkl->gikjl", rhos, rhos)
        rhos = 0.5 * (x + x.transpose(0, 2, 1, 4, 3)).reshape(-1, p.dim, p.dim)
    g, k = len(rhos), p.size
    probs = _nonnegative(np.einsum(
        "xij,xji->x", np.repeat(rhos, k, axis=0),
        np.tile(p.elements, (g, 1, 1))).real.reshape(g, k))
    total = probs.sum(axis=1, keepdims=True)
    incomplete = np.abs(total - 1.0) > _tol.POVM_TOL
    if np.any(incomplete):
        raise ValueError(f"outcome probabilities sum to {total[incomplete][0]}"
                         ", POVM is not complete for this state")
    return probs / total


def sample_outcomes(
    rho: DensityMatrix, p: Povm, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Multinomial counts for n measurements of rho with a complete POVM."""
    return rng.multinomial(n, _sampling_probs(rho.matrix[None], p)[0])


@dataclass
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
        squares = c[indices]
        rows = lin[indices] / (2.0 * squares[:, None])
        offset = np.ones(len(indices))
    if np.linalg.matrix_rank(rows, tol=_tol.BLOCH_RANK_TOL) < 3:
        raise ValueError("POVM is not informationally complete for the "
                         "Bloch vector")
    return _LinearSystem(indices, offset, rows, squares)


def _linear_bloch(counts: np.ndarray, sys: _LinearSystem) -> np.ndarray:
    """Least-squares Bloch vectors for a (trials, outcomes) count array,
    every trial solved by one lstsq with a matrix right-hand side."""
    freqs = counts / counts.sum(axis=1, keepdims=True)
    target = freqs[:, sys.indices]
    if sys.squares is not None:
        target = np.sqrt(np.clip(target, 0.0, None) / sys.squares)
    s, *_ = np.linalg.lstsq(sys.rows, (target - sys.offset).T, rcond=None)
    return s.T


def _to_ball(s: np.ndarray) -> np.ndarray:
    """Rescale the rows of s that lie outside the unit Bloch ball onto it."""
    r = np.linalg.norm(s, axis=-1, keepdims=True)
    return np.where(r > 1.0, s / np.maximum(r, 1.0), s)


def _check_counts(counts, size: int) -> np.ndarray:
    counts = np.asarray(counts, dtype=float).reshape(-1)
    if counts.size != size:
        raise ValueError(f"expected {size} outcome counts, got {counts.size}")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    if counts.sum() <= 0:
        raise ValueError("need at least one recorded outcome")
    return counts


def _project(s: np.ndarray, clip: float) -> np.ndarray:
    """s if |s| <= clip, else s scaled onto the sphere of radius clip and
    then, where rounding left it outside, moved toward 0 an ulp per
    coordinate at a time until |s| <= clip holds in floating point."""
    r = np.linalg.norm(s)
    if r <= clip:
        return s
    s = s * (clip / r)
    while np.linalg.norm(s) > clip:
        s = np.nextafter(s, 0.0)
    return s


def _mle_bloch(
    counts: np.ndarray,
    model: _QuadModel,
    init: np.ndarray,
    clip: float,
) -> tuple[np.ndarray, float]:
    """Projected damped-Newton ascent on the multinomial log-likelihood
    l(s) = sum_k n_k log p_k(s) over the ball |s| <= clip, with Fisher
    scoring after Hradil, PRA 55, R1561 (1997).

    Each iteration tries the step d = A^{-1} g, g the gradient, at
    t = 1, 1/2, 1/4, 1/8, each trial point projected onto the clipped
    ball, and takes the first that raises l.  A is -Hess l where that is
    positive definite, and otherwise the scoring matrix
    G = sum_k n_k grad p_k grad p_k^T / p_k^2 over the observed outcomes,
    which is positive semidefinite, so d is an ascent direction.  For an
    affine model the two are equal; for a quadratic one
    -Hess l = G - 2 sum_k (n_k / p_k) M_k, and Newton's step converges
    where scoring would crawl.  At the clip, with g pointing outward, the
    step is Newton's on the sphere: A and g restricted to its tangent
    plane, A plus the curvature term (g.s / |s|^2) of the constraint.
    When A is singular or no Newton point rises, the iteration takes a
    projected gradient step with a backtracking step size instead.  The
    ascent ends when |g| falls to ``_MLE_GRAD_TOL``, when no step raises
    l, or after ``_MLE_MAX_ITER`` iterations.  Returns the point and its
    log-likelihood.
    """
    observed = counts > 0
    c_obs = counts[observed]

    def loglik(s):
        pr = model.probs(s)[observed]
        if np.any(pr <= 0.0):
            return -np.inf
        return float(c_obs @ np.log(pr))

    s = _project(init, clip)
    f = loglik(s)
    if not np.isfinite(f):
        s = np.zeros(3)
        f = loglik(s)
    step = 1.0 / counts.sum()
    for _ in range(_MLE_MAX_ITER):
        grads = model.grads(s)[observed]
        w = c_obs / model.probs(s)[observed]
        g = w @ grads
        if np.linalg.norm(g) <= _MLE_GRAD_TOL:
            break
        fisher = (grads.T * (w * w / c_obs)) @ grads
        hess = fisher - 2.0 * np.tensordot(w, model.quad[observed], 1)
        a = hess if np.linalg.eigvalsh(hess)[0] > 0.0 else fisher
        r2, b = s @ s, g
        if r2 >= (clip - _tol.CLIP_MARGIN) ** 2 and g @ s > 0.0:
            # pressed against the clip: a Newton step along the sphere
            tan = np.eye(3) - np.outer(s, s) / r2
            a = tan @ (a + (g @ s / r2) * np.eye(3)) @ tan + np.eye(3) - tan
            b = tan @ g
        try:
            d = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:  # singular: no Newton step
            d = np.full(3, np.nan)
        for h in range(4 if np.all(np.isfinite(d)) else 0):
            cand = _project(s + 0.5 ** h * d, clip)
            fc = loglik(cand)
            if fc > f:
                s, f = cand, fc
                break
        else:  # no Newton point rises: a projected gradient step
            while step >= 1e-18:
                cand = _project(s + step * g, clip)
                fc = loglik(cand)
                if fc > f:
                    s, f = cand, fc
                    step *= 2.0
                    break
                step *= 0.5
            else:  # no step rises at all
                break
    return s, f


def _mle_multistart(counts: np.ndarray, model: _QuadModel, s0: np.ndarray,
                    clip: float) -> np.ndarray:
    """Best :func:`_mle_bloch` solution of four ascents, from s0 and from
    s0 moved by 0.05 along each axis, all projected into the clipped
    ball: the start for models whose likelihood need not be concave."""
    s0 = _project(s0, clip)
    best, best_f = None, -np.inf
    for init in (s0, *(_project(s0 + 0.05 * e, clip) for e in np.eye(3))):
        s, f = _mle_bloch(counts, model, init, clip)
        if f > best_f:
            best, best_f = s, f
    return best


@dataclass
class _Scheme:
    """What estimation needs from a POVM, built once per run or sweep:
    its Pauli model, which the MLE and a sweep's analytic columns read,
    and the linear system that :func:`_linear_system` reads from the
    model, with no eigendecomposition."""

    povm: Povm
    model: _QuadModel
    linsys: _LinearSystem | None  # None: MLE starts from the centre
    mle: bool


def _scheme_setup(p: Povm, estimator: str) -> _Scheme:
    if p.base_dim != 2:
        raise ValueError("simulation estimators are implemented for qubits")
    model = _quad_model(p)
    try:
        linsys = _linear_system(p, model)
    except ValueError:
        if estimator != "mle":
            raise
        linsys = None
    return _Scheme(p, model, linsys, estimator == "mle")


def _estimate(counts: np.ndarray, setup: _Scheme,
              clip: float = _tol.INTERIOR_CLIP) -> np.ndarray:
    """Bloch estimates for a (trials, outcomes) count array: the linear
    inversion projected into the unit ball, or the MLE from it over the
    ball clipped at ``clip``, one trial at a time.

    When the Pauli model is affine (every quadratic part M is zero, as
    for every single-copy POVM), the log-likelihood is concave on a
    convex set, so one :func:`_mle_bloch` ascent from the linear estimate
    finds its global maximizer.  A two-copy model is quadratic and its
    likelihood need not be concave, so it runs :func:`_mle_multistart`.
    """
    s_lin = (np.zeros((len(counts), 3)) if setup.linsys is None
             else _linear_bloch(counts, setup.linsys))
    if not setup.mle:
        return _to_ball(s_lin)
    ascent = (_mle_multistart if np.any(setup.model.quad)
              else lambda *args: _mle_bloch(*args)[0])
    return np.array([ascent(c, setup.model, s0, clip)
                     for c, s0 in zip(counts, s_lin)])


def estimate_linear_qubit(counts, p: Povm) -> DensityMatrix:
    """Least-squares Bloch inversion of observed frequencies.

    Exact frequencies reproduce the exact state.  The result is projected
    into the Bloch ball.  Used as initialization and as a baseline.
    """
    counts = _check_counts(counts, p.size)
    return density_from_bloch(_estimate(counts[None],
                                        _scheme_setup(p, "linear"))[0])


def estimate_mle_qubit(
    counts, p: Povm, interior_clip: float = _tol.INTERIOR_CLIP
) -> DensityMatrix:
    """Maximum-likelihood qubit estimate over the clipped Bloch ball.

    The projected damped-Newton ascent of :func:`_mle_bloch` from the
    linear-inversion estimate: once for a single-copy POVM, whose
    likelihood is concave, and for a two-copy POVM also from the three
    perturbed starts of :func:`_mle_multistart`, keeping the best.  The
    returned log-likelihood never falls below the linear start's.
    """
    counts = _check_counts(counts, p.size)
    return density_from_bloch(_estimate(
        counts[None], _scheme_setup(p, "mle"), interior_clip)[0])


_ERROR_FIELDS = ("scaled_mse", "scaled_msb", "scaled_infidelity",
                 "mse_stderr", "msb_stderr", "infidelity_stderr")


def _simulate(setup: _Scheme, config, bloch: np.ndarray, seeds) -> list[dict]:
    """Monte Carlo runs at the states of a (g, 3) array of Bloch vectors,
    point a with seed ``seeds[a]``, as one batch.

    Every stage runs once for the batch.  The states are one checked
    (g, 2, 2) stack (``states._bloch_states``), whose Born probabilities
    tr(rho^(xt) E) come from one contraction (:func:`_sampling_probs`).
    Trial i at a point draws its counts from the RNG stream keyed by that
    point's (seed, i), seeded from :func:`_streams.stream_states`, which
    hashes the seeds of every stream of the batch in one pass.  The
    counts fill one (points, trials, outcomes) matrix, which one
    :func:`_estimate` call inverts (one least-squares solve; the MLE runs
    per trial).  The squared Hilbert-Schmidt and Bures distances and the
    infidelities of every estimate from its point's vector are stacked,
    and one mean and one standard deviation along the trial axis reduce
    them.  ``config`` (a :class:`SimConfig` or :class:`SweepConfig`) gives
    the copies, trials and clip.  Returns, per point, the fields of
    :class:`SimResult` other than ``config``.
    """
    p = setup.povm
    t = p.copies
    if config.n_copies < t or config.n_copies % t != 0:
        raise ValueError(f"n_copies must be a positive multiple of {t}")
    n_meas = config.n_copies // t
    probs = _sampling_probs(_bloch_states(bloch), p)

    # numpy.random is imported on the first draw, not with fisym
    from ._streams import seeded_rng, stream_states

    nt = config.n_trials
    words = stream_states(seeds, np.arange(nt))
    counts = np.array([[seeded_rng(w).multinomial(n_meas, pr) for w in ws]
                       for ws, pr in zip(words, probs)])
    clip = config.interior_clip
    s_hat = _estimate(counts.reshape(-1, p.size).astype(float), setup,
                      clip).reshape(len(bloch), nt, 3)
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
    # rows in _ERROR_FIELDS order: the means, then their standard errors
    fields = np.concatenate([means, n * errors.std(axis=-1, ddof=1)
                             / np.sqrt(nt) if nt > 1 else 0.0 * means])
    n_clipped = np.count_nonzero(radii >= clip - _tol.CLIP_MARGIN, axis=1)
    totals = counts.sum(axis=1)
    return [{**dict(zip(_ERROR_FIELDS, map(float, fields[:, a]))),
             "n_clipped": int(n_clipped[a]), "counts_total": totals[a]}
            for a in range(len(bloch))]


def run_simulation(config: SimConfig) -> SimResult:
    """Run the configured Monte Carlo experiment.

    Deterministic in the seed: trial i uses the RNG stream keyed by
    (seed, i) regardless of how many trials run.
    """
    setup = _scheme_setup(scheme_povm(config.scheme, config.povm),
                          config.estimator)
    return SimResult(config=config, **_simulate(
        setup, config, np.array([config.bloch]), [config.seed])[0])


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
    ('hs'), the Bures matrix J/4 ('msb', J from
    :func:`states.qfi_matrix`), or any explicit matrix; only the selected
    one is computed.  :func:`sweep` evaluates the same quantities for the
    Bloch chart in closed form.
    """
    i_inv = _inverse_fisher(fisher_matrix(param, p)[None])[0]
    tangents = tangent_ops(param)
    if not isinstance(weight, str):
        w = np.asarray(weight, dtype=float)
    elif weight == "hs":
        w = np.einsum("aij,bji->ab", tangents, tangents).real
    elif weight == "msb":
        w = qfi_matrix(param.base(), tangents) / 4.0
    else:
        raise ValueError(f"unknown weight {weight!r}")
    return float(p.copies * np.trace(w @ i_inv))


def _analytic_columns(model: _QuadModel, bloch: np.ndarray,
                      copies: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`asymptotic_metrics` of the Bloch chart with the weights
    'hs' and 'msb', at every row of a (g, 3) array of Bloch vectors.

    The chart's tangents are σ/2, along which the model's gradient is
    L + 2 M s, so the I of every point follows from the model alone:
    ``fisher._accumulate`` takes the whole grid's probabilities and
    gradients as one stack, with the drop rule and regularity warning of
    :func:`fisher.fisher_matrix`.  The weights are 1/2 and J/4 with
    J = 1 + s s^T / (1 - |s|^2) (Braunstein and Caves, PRL 72, 3439
    (1994)).  A state with (1 - |s|)/2 at or below ``_tol.RANK_TOL``
    raises: that test is the numerical rank rule of
    :class:`states.DensityMatrix` for a qubit, whose smaller eigenvalue
    is (1 - |s|)/2.  Such a state is pure, the Bloch chart's radial
    tangent leaves its support, and the SLD solve of the general path
    raises there as well.
    """
    probs = _nonnegative(model.c + bloch @ model.lin.T + np.einsum(
        "kab,ga,gb->gk", model.quad, bloch, bloch))
    grads = model.lin + 2.0 * np.einsum("kab,gb->gka", model.quad, bloch)
    i_inv = _inverse_fisher(_accumulate(probs, grads, _tol.DROP_THRESHOLD)[0])
    r = np.linalg.norm(bloch, axis=1)
    if np.any((1.0 - r) / 2.0 <= _tol.RANK_TOL):
        raise ValueError(f"Bloch radius {float(r.max())!r} is pure to within "
                         "the rank tolerance; the Bures weight J/4 is "
                         "undefined there")
    tr_inv = np.trace(i_inv, axis1=1, axis2=2)
    radial = np.einsum("ga,gab,gb->g", bloch, i_inv, bloch)
    return (copies * tr_inv / 2.0,
            copies * (tr_inv + radial / (1.0 - r * r)) / 4.0)


@dataclass
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
    interior_clip: float = _tol.INTERIOR_CLIP

    def __post_init__(self):
        _validate_run(self)
        d = np.array([_number(x) for x in self.direction]).reshape(3)
        r = np.linalg.norm(d)
        if not 0.0 < r < np.inf:
            raise ValueError("direction must be a finite nonzero vector")
        self.direction = tuple(d / r)
        radii = tuple(_number(s) for s in self.radii)
        if not radii:
            raise ValueError("need at least one radius")
        if not all(0.0 <= s < 1.0 for s in radii):
            raise ValueError("radii must lie in [0, 1)")
        self.radii = radii


SWEEP_COLUMNS = ("s", "scheme", "scaled_mse", "mse_stderr",
                 "scaled_msb", "msb_stderr", "analytic_mse", "analytic_msb")


def sweep(config: SweepConfig) -> list[dict]:
    """Monte Carlo plus asymptotic errors along a Bloch-radius grid.

    Grid point idx runs with the derived seed ``seed + 99991 * idx``, so
    its trials draw from the streams keyed by (that seed, i) and each row
    equals an independent :func:`run_simulation` there.  Rows carry the
    scaled Monte Carlo errors next to the asymptotic values
    t * tr(W I^{-1}).  The scheme is set up once for the whole grid, and
    the whole grid is one Monte Carlo batch (:func:`_simulate`): one
    stack of states, one count matrix for every point and trial and one
    estimate pass.  The analytic columns come from ``setup.model``, the
    scheme's Pauli model, for the whole grid at once
    (:func:`_analytic_columns`), with one batched singular-I check and
    one batched inverse; they equal :func:`asymptotic_metrics` of the
    point's :class:`BlochQubit` chart to rounding.  No step builds a
    :class:`DensityMatrix` or classifies the POVM's elements.
    """
    setup = _scheme_setup(scheme_povm(config.scheme, config.povm),
                          config.estimator)
    bloch = np.outer(config.radii, config.direction)
    sims = _simulate(setup, config, bloch, [config.seed + 99991 * idx
                                            for idx in range(len(bloch))])
    mse, msb = _analytic_columns(setup.model, bloch, setup.povm.copies)
    return [{
        "s": s,
        "scheme": config.scheme,
        "scaled_mse": sim["scaled_mse"],
        "mse_stderr": sim["mse_stderr"],
        "scaled_msb": sim["scaled_msb"],
        "msb_stderr": sim["msb_stderr"],
        "analytic_mse": float(m),
        "analytic_msb": float(b),
    } for s, sim, m, b in zip(config.radii, sims, mse, msb)]


def write_sweep_csv(rows: list[dict], path) -> None:
    """Write sweep rows as UTF-8 CSV with a weight-convention comment.

    Rows are formatted as ``csv.writer`` writes them: fields joined by
    commas, floats by ``repr`` and lines ended by CRLF; no field of a
    sweep row needs quoting.
    """
    lines = [SWEEP_COLUMNS, *([row[c] for c in SWEEP_COLUMNS] for row in rows)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# scaled_mse weights squared error by the Hilbert-Schmidt "
                 "metric, 0.5*|delta s|^2 in Bloch coordinates; scaled_msb "
                 "uses squared Bures distance\n")
        fh.write("".join(",".join(map(str, line)) + "\r\n" for line in lines))
