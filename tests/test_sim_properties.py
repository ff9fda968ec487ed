"""Property tests for the estimation model and the closed-form metrics of
the batched trial loop.

The MLE works on ``tomosim._quad_model``, the Born rule of a qubit POVM
written as a quadratic in the Bloch vector.  It must reproduce the
probabilities and gradients of ``fisher`` for any complete single-copy or
two-copy POVM, swap-symmetric or not.  Its one evaluation takes one
product M s and gives p = c + (L + M s) s, to 1e-13 of the Born rule,
and M s, whose L + 2 M s must match the gradients and central
differences of p, with M stacked or laid out as the MLE's (3k, 3) rows.

``run_simulation`` scores every trial with ``states.qubit_fidelity``, the
closed form of Hubner (Phys. Lett. A 163, 239 (1992)), instead of the
eigendecomposition in ``states.fidelity``.  The two must agree on any pair
of qubit states: interior, the maximally mixed centre and pure states.

The trials draw their counts from the streams of
``np.random.default_rng((seed, i))``, seeded in bulk by
``_streams.stream_states``, a reimplementation of NumPy's SeedSequence
hash.  It must give NumPy's words and NumPy's draws for any key, whatever
mix of entropy lengths one batch holds.

A sweep's analytic columns come from the same model for the whole grid
at once, with the Bures weight in closed form.  They must agree with
``asymptotic_metrics`` of each point's Bloch chart, or fail as it does.

The same model gives a two-copy POVM's linear system: the outcomes
whose probability is a perfect square c (1 + u.s)^2 with |u| = 1.  They
must be exactly the sym-power elements of ``povm.classify_coherent``,
and exact probabilities must invert to the state.  The Fisher matrices
of a grid are accumulated as one stack, which must give each point's
matrix bit for bit.

A sweep samples from the Born rule tr(rho^(xt) E), not from the model:
the states of its grid are one stack and their probabilities one
contraction.  Both must equal, bit for bit, what ``density_from_bloch``
and ``outcome_probs`` give point by point, so the counts do not change.

The MLE must end at a maximizer over the clipped ball: for sampled
counts of any named scheme or random rank-one qubit POVM, the gradient
of the log-likelihood vanishes inside the ball, and at the clip it
points outward with no tangential part (the KKT conditions), each to
1e-6 N.  Counts on one or two outcomes, where the Fisher-scoring matrix
of the Newton step is singular, must give a finite estimate in the
clipped ball.

The MLE evaluates its model on the observed outcomes only and carries
each accepted point's probabilities into the next iteration.  The
log-likelihood it returns must be that of the full model at the returned
point, sum over n_k > 0 of n_k log p_k, for random one- and two-copy
POVMs and counts with zeros, so no probabilities of an earlier point
survive into the result.

A named scheme is set up once per process and estimator and shared by
every run.  For random counts of every named scheme, with either
estimator, its shared set-up must give the estimates of a fresh set-up
of the same POVM bit for bit.

The MLE must return the maximum, not a local one, for every model it
accepts.  For random two-copy qubit POVMs, whose likelihood need not be
concave, the log-likelihood l at the estimate must reach l at the end of
an ascent from the best point of a 41^3 lattice over the clipped ball,
to a slack of 1e-6 |l| (an ascent may stop just short of the clip).  The
fixed starts of ``_scheme_setup`` miss it, so that test is an expected
failure until the MLE searches the ball.

Each Newton system of the MLE is solved by ``tomosim._ldl_solve``, an
LDL^T factorization in Python floats that also decides definiteness.
For a symmetric A = Q diag(lambda) Q^T it must solve A d = b to a
residual of rounding relative to |A| |d| where min lambda exceeds
1e-8 max |lambda|, and return None where min lambda is below
-1e-8 max |lambda| or A is not finite, at any scale.
"""

import warnings

import numpy as np
import pytest
from conftest import random_rank_one_povm, random_two_copy_povm
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym._streams import seeded_rng, stream_states
from fisym.fisher import (_accumulate, _probs_and_grads, fisher_matrix,
                          outcome_probs)
from fisym.matcore import mat_power
from fisym.povm import NAMED_POVMS, Povm, classify_coherent
from fisym.states import (_PAULI, BlochQubit, _bloch_matrices,
                          density_from_bloch, fidelity, qubit_fidelity,
                          tangent_ops)
from fisym._tol import CLIP_MARGIN, INTERIOR_CLIP
from fisym.tomosim import (SCHEMES, _analytic_columns, _estimate,
                           _ldl_solve, _linear_bloch, _linear_system,
                           _mle_bloch, _named_setup, _Observed, _quad_model,
                           _QuadModel, _sampling_probs, _scheme_setup,
                           asymptotic_metrics, scheme_povm)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def bloch_vectors(draw):
    """Bloch vectors at the centre, inside the ball, or on the sphere."""
    kind = draw(st.sampled_from(["centre", "interior", "pure"]))
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    if kind == "centre" or norm < 1e-3:
        return np.zeros(3)
    radius = 1.0 if kind == "pure" else draw(st.floats(0.0, 0.95))
    return radius * v / norm


@settings(max_examples=200)
@given(s=bloch_vectors(), t=bloch_vectors())
def test_closed_form_matches_eigendecomposition(s, t):
    expected = fidelity(density_from_bloch(s), density_from_bloch(t))
    assert abs(qubit_fidelity(s, t) - expected) <= 1e-12


@st.composite
def near_sphere_bloch(draw):
    """Bloch vectors of radius 1 - 10^-k, k in [0, 13], or pure."""
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    if norm < 1e-3:
        v, norm = np.array([0.0, 0.0, 1.0]), 1.0
    pure = draw(st.booleans())
    return (1.0 if pure else 1.0 - 10.0 ** -draw(st.floats(0.0, 13.0))) \
        * v / norm


@settings(max_examples=300)
@given(s=near_sphere_bloch(), t=near_sphere_bloch())
def test_fidelity_is_accurate_near_the_sphere(s, t):
    # the closed form keeps 1 - |s|^2 to rounding relative to it
    expected = qubit_fidelity(s, t)
    assert abs(fidelity(density_from_bloch(s), density_from_bloch(t))
               - expected) <= 1e-9


@settings(max_examples=50)
@given(s=bloch_vectors(), t=st.lists(bloch_vectors(), min_size=1,
                                     max_size=5))
def test_batch_matches_pairwise(s, t):
    batch = qubit_fidelity(s, np.array(t))
    assert batch.shape == (len(t),)
    for f, ti in zip(batch, t):
        assert f == qubit_fidelity(s, ti)
        assert 0.0 <= f <= 1.0


# one to six 32-bit words: seeds up to 2**160, both sides of each word
# boundary, and the 4-word pool size where the extra mixing loop starts
seeds = st.one_of(
    st.integers(0, 2**160 - 1), st.integers(0, 2**32 - 1),
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1,
                     2**96, 2**128, 2**160 - 1]))
trial_indices = st.one_of(st.integers(0, 2**33 - 1), st.integers(0, 99),
                          st.integers(2**32 - 2, 2**32 + 2))


@settings(max_examples=100)
@given(seed_list=st.lists(seeds, min_size=1, max_size=4),
       trials=st.lists(trial_indices, min_size=1, max_size=6),
       probs=hnp.arrays(float, 4, elements=st.floats(0.01, 1.0)))
def test_streams_match_numpy(seed_list, trials, probs):
    # a small and a large key in every batch, so entropy lengths mix
    seed_list = [5, *seed_list, 2**96 + 1]
    trials = [3, *trials, 2**32 + 7]
    probs = probs / probs.sum()
    states = stream_states(seed_list, trials)
    assert states.shape == (len(seed_list), len(trials), 4)
    for seed, row in zip(seed_list, states):
        for i, state in zip(trials, row):
            expected = np.random.SeedSequence((seed, i)).generate_state(
                4, np.uint64)
            assert state.dtype == np.uint64
            assert np.array_equal(state, expected)
            assert np.array_equal(
                seeded_rng(state).multinomial(1000, probs),
                np.random.default_rng((seed, i)).multinomial(1000, probs))


def complex_array(shape):
    return st.tuples(hnp.arrays(float, shape, elements=unit),
                     hnp.arrays(float, shape, elements=unit)).map(
        lambda pair: pair[0] + 1j * pair[1])


@st.composite
def qubit_povms(draw):
    """Complete POVMs on one or two qubit copies.  Two-copy elements are
    random operators on C^2 x C^2, so in general not swap-symmetric."""
    copies = draw(st.sampled_from([1, 2]))
    dim = 2 ** copies
    blocks = []
    for _ in range(draw(st.integers(2, dim + 3))):
        g = draw(complex_array((dim, draw(st.integers(1, dim)))))
        blocks.append(g @ g.conj().T + 1e-3 * np.eye(dim))
    root = mat_power(sum(blocks), -0.5)
    return Povm([root @ b @ root for b in blocks], copies=copies, base_dim=2)


@st.composite
def interior_bloch(draw):
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    return np.zeros(3) if norm < 1e-3 else draw(st.floats(0.0, 0.95)) * v / norm


@settings(max_examples=100)
@given(p=qubit_povms(), s=interior_bloch())
def test_quad_model_matches_born_rule(p, s):
    model = _quad_model(p)
    par = BlochQubit(s)
    _, grads = _probs_and_grads(par.base(), tangent_ops(par), p)
    pr, ms = model.evaluate(s)
    assert np.max(np.abs(pr - outcome_probs(par.base(), p))) <= 1e-13
    assert np.max(np.abs(model.lin + 2.0 * ms - grads)) <= 1e-12
    # the MLE's layout of M, its (3k, 3) rows, gives the same evaluation
    rows = _QuadModel(model.c, model.lin, model.quad.reshape(-1, 3))
    for stacked, laid_out in zip((pr, ms), rows.evaluate(s)):
        assert np.max(np.abs(stacked - laid_out)) <= 1e-15
    # central differences of a quadratic are exact but for rounding
    h = 1e-5
    for a, e in enumerate(h * np.eye(3)):
        fd = (model.evaluate(s + e)[0] - model.evaluate(s - e)[0]) / (2 * h)
        assert np.max(np.abs(fd - (model.lin + 2.0 * ms)[:, a])) <= 1e-9


@st.composite
def bloch_grids(draw):
    """One to four Bloch vectors along one direction, a random one or an
    axis (where some outcomes of mub-single vanish).  Radii cover the
    ball and approach the sphere to within 1e-13, through the rank
    tolerance."""
    axes = [sign * e for e in np.eye(3) for sign in (1.0, -1.0)]
    v = draw(st.one_of(hnp.arrays(float, 3, elements=unit),
                       st.sampled_from(axes)))
    norm = float(np.linalg.norm(v))
    direction = np.array([1.0, 0.0, 0.0]) if norm < 1e-3 else v / norm
    radii = draw(st.lists(st.one_of(
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.0, 13.0).map(lambda k: 1.0 - 10.0 ** -k)),
        min_size=1, max_size=4))
    return np.outer(radii, direction)


def _outcome(f):
    """f() or the exception it raised; warnings are errors here."""
    try:
        return f()
    except (ValueError, UserWarning) as exc:
        return exc


@settings(max_examples=200)
@given(p=st.one_of(qubit_povms(),
                   st.sampled_from([NAMED_POVMS[s] for s in SCHEMES[:-1]])),
       bloch=bloch_grids())
# an outcome of probability 6.7e-14 with gradient 1/6: dropped with a
# regularity warning before the rank check
@example(p=NAMED_POVMS["mub-single"],
         bloch=np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -(1.0 - 4e-13)]]))
def test_analytic_columns_match_asymptotic_metrics(p, bloch):
    refs = [[_outcome(lambda: asymptotic_metrics(BlochQubit(s), p, w))
             for w in ("hs", "msb")] for s in bloch]
    got = _outcome(lambda: _analytic_columns(_quad_model(p), bloch,
                                             p.copies))
    if isinstance(got, Exception):
        raised = {type(r) for row in refs for r in row
                  if isinstance(r, Exception)}
        assert type(got) in raised
        return
    for s, row, *cols in zip(bloch, refs, *got):
        # 1 - |s|^2 cancels near the sphere, and J carries its inverse;
        # the inverse of I turns rounding of I into cond(I) times as much
        cond = np.linalg.cond(fisher_matrix(BlochQubit(s), p))
        tol = max(1e-12, 1e-14 / (1.0 - s @ s), 1e-15 * cond)
        for ref, val in zip(row, cols):
            assert val == pytest.approx(ref, rel=tol)


@settings(max_examples=200)
@given(p=st.one_of(qubit_povms(),
                   st.sampled_from([NAMED_POVMS[s] for s in SCHEMES[:-1]])),
       bloch=bloch_grids(), on_sphere=st.booleans())
@example(p=NAMED_POVMS["collective-sic"],
         bloch=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0 + 1e-13]]),
         on_sphere=True)
def test_grid_probabilities_match_each_point(p, bloch, on_sphere):
    if on_sphere:  # and one pure state, along the grid if it is not tiny
        top = bloch[np.argmax(np.linalg.norm(bloch, axis=1))]
        r = np.linalg.norm(top)
        bloch = np.vstack([bloch, top / r if r > 1e-3 else [0.0, 1.0, 0.0]])
    rhos = [density_from_bloch(s) for s in bloch]
    stack = _bloch_matrices(bloch)
    assert stack.tobytes() == np.array([r.matrix for r in rhos]).tobytes()
    # the per-point sampling probabilities: Born rule, renormalized
    expected = [pr / pr.sum() for pr in (outcome_probs(r, p) for r in rhos)]
    assert _sampling_probs(stack, p).tobytes() == np.array(expected).tobytes()


@settings(max_examples=200)
@given(p=st.one_of(qubit_povms(),
                   st.sampled_from([NAMED_POVMS[s] for s in SCHEMES[:-1]])),
       bloch=bloch_grids())
def test_accumulate_stack_matches_each_point(p, bloch):
    model = _quad_model(p)
    evals = [model.evaluate(s) for s in bloch]
    probs = np.array([np.clip(pr, 0.0, None) for pr, _ in evals])
    grads = np.array([model.lin + 2.0 * ms for _, ms in evals])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        stack, dropped = _accumulate(probs, grads)
        points = [_accumulate(pr, g) for pr, g in zip(probs, grads)]
    assert stack.shape == (len(bloch), 3, 3)
    assert stack.tobytes() == np.array([i for i, _ in points]).tobytes()
    assert dropped == [d for _, ds in points for d in ds]


def _unit_vector(v):
    norm = np.linalg.norm(v)
    return v / norm if norm > 1e-3 else np.array([1.0, 0.0], dtype=complex)


@st.composite
def mixed_two_copy_povms(draw):
    """Complete two-copy qubit POVMs that mix sym-power elements
    w (psi psi)^(x2), singlets, products |a>|b> of two states at fidelity
    below 0.98 and random full-rank PSD elements, scaled to sum to at
    most 0.8 times the identity and completed by the remainder."""
    elements = []
    kinds = draw(st.lists(st.sampled_from(["singlet", "product", "random"]),
                          max_size=4))
    kinds += ["sym-power"] * draw(st.integers(0 if kinds else 1, 6))
    for kind in draw(st.permutations(kinds)):
        if kind == "sym-power":
            psi = _unit_vector(draw(complex_array(2)))
            proj = np.outer(psi, psi.conj())
            elements.append(draw(st.floats(0.1, 1.0)) * np.kron(proj, proj))
        elif kind == "singlet":
            v = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
            elements.append(np.outer(v, v))
        elif kind == "product":
            a = _unit_vector(draw(complex_array(2)))
            theta = draw(st.floats(0.0, 1.4))
            b = np.cos(theta) * np.array([-a[1].conj(), a[0].conj()]) \
                + np.sin(theta) * a
            ab = np.kron(a, b)
            elements.append(np.outer(ab, ab.conj()))
        else:
            g = draw(complex_array((4, draw(st.integers(1, 4)))))
            elements.append(g @ g.conj().T + 1e-3 * np.eye(4))
    elements = np.array(elements) / (
        1.25 * np.linalg.eigvalsh(sum(elements))[-1])
    return Povm([*elements, np.eye(4) - elements.sum(axis=0)], copies=2,
                base_dim=2)


@settings(max_examples=300)
@given(p=mixed_two_copy_povms(), s=interior_bloch())
@example(p=NAMED_POVMS["collective-sic"], s=np.array([0.3, -0.5, 0.6]))
def test_linear_system_keeps_the_sym_power_classes(p, s):
    classes = classify_coherent(p).classes
    sym = [xi for xi, c in enumerate(classes) if c.kind == "sym-power"]
    # the Bloch vectors of the classes' states
    u = np.array([[np.vdot(c.states[0], m @ c.states[0]).real
                   for m in _PAULI] for c in classes if c.kind == "sym-power"])
    try:
        system = _linear_system(p, _quad_model(p))
    except ValueError:
        # no such outcome, or too few directions for the Bloch vector
        assert not sym or np.linalg.matrix_rank(u, tol=1e-10) < 3
        return
    assert system.indices.tolist() == sym
    probs = outcome_probs(density_from_bloch(s), p)
    # the least-squares solve turns rounding into cond(rows) times as much
    tol = max(1e-12, 1e-14 * np.linalg.cond(system.rows))
    assert np.max(np.abs(_linear_bloch(probs[None], system)[0] - s)) <= tol


@st.composite
def symmetric_systems(draw):
    """A = Q diag(lambda) Q^T with Q the rotation of a unit quaternion and
    the lambda of any sign, max |lambda| = c, and b = c v with v in
    [-1, 1]^3, at a scale c of 1e-100 to 1e100."""
    w, x, y, z = draw(hnp.arrays(float, 4, elements=unit))
    norm2 = w * w + x * x + y * y + z * z
    assume(norm2 > 0.01)
    q = np.eye(3) + 2.0 / norm2 * np.array(
        [[-y * y - z * z, x * y - z * w, x * z + y * w],
         [x * y + z * w, -x * x - z * z, y * z - x * w],
         [x * z - y * w, y * z + x * w, -x * x - y * y]])
    lam = draw(hnp.arrays(float, 3, elements=unit))
    assume(np.any(lam != 0.0))
    scale = 10.0 ** draw(st.integers(-100, 100))
    lam = scale * (lam / np.max(np.abs(lam)))
    b = scale * draw(hnp.arrays(float, 3, elements=unit))
    return q @ np.diag(lam) @ q.T, lam, b


@settings(max_examples=300)
@given(system=symmetric_systems())
@example(system=(np.diag([1.0, 3e-8, 2.0]), np.array([1.0, 3e-8, 2.0]),
                 np.array([1.0, -1.0, 0.5])))
@example(system=(np.array([[1e-9, 1.0, 0.0], [1.0, 1e-9, 0.0],
                           [0.0, 0.0, 1.0]]),
                 np.array([1.0 + 1e-9, -1.0 + 1e-9, 1.0]),
                 np.array([1.0, 0.0, 0.0])))
@example(system=(np.array([[1e67, 0.0, 0.0], [0.0, 1e67, 7.76266755e50],
                           [0.0, -7.15426829e50, 1e67]]),
                 np.array([1e67, 1e67, 1e67]),
                 np.full(3, 3.00801447e-134)))
def test_ldl_solve_decides_definiteness_and_solves(system):
    a, lam, b = system
    d = _ldl_solve(a, b)
    top = np.max(np.abs(lam))
    if lam.min() > 1e-8 * top:
        assert d is not None
        # d and b in units of d's largest entry: d can be so small (1e-201
        # at the last example) that its squared norm underflows to 0
        unit = np.max(np.abs(d)) or 1.0
        residual = np.linalg.norm(a @ (d / unit) - b / unit)
        assert residual <= (1e-13 * np.linalg.norm(a, 2)
                            * np.linalg.norm(d / unit))
    elif lam.min() < -1e-8 * top:
        assert d is None


@settings(max_examples=50)
@given(system=symmetric_systems())
def test_ldl_solve_refuses_a_non_finite_system(system):
    a, _, b = system
    for i, j in zip(*np.tril_indices(3)):
        for value in (np.nan, np.inf, -np.inf):
            bad = a.copy()
            bad[i, j] = bad[j, i] = value
            assert _ldl_solve(bad, b) is None


def _kkt_residuals(p, counts):
    """At the MLE of ``counts``, checked finite and in the clipped ball,
    the gradient g of the log-likelihood: its norm and None inside the
    ball, or at the clip its tangential norm and its radial part g.s."""
    model = _quad_model(p)
    s = _estimate(counts[None].astype(float), _scheme_setup(p, "mle"))[0]
    assert np.all(np.isfinite(s))
    assert np.linalg.norm(s) <= INTERIOR_CLIP
    observed = counts > 0
    pr, ms = model.evaluate(s)
    g = (counts[observed] / pr[observed]) @ (model.lin + 2.0 * ms)[observed]
    r = np.linalg.norm(s)
    if r < INTERIOR_CLIP - CLIP_MARGIN:
        return np.linalg.norm(g), None
    u = s / r
    return np.linalg.norm(g - (g @ u) * u), g @ s


@st.composite
def sampled_counts(draw):
    """A named scheme or a random rank-one qubit POVM, and counts of N
    measurements, N in [4, 10^4], sampled at a state of radius up to
    0.999."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["collective-sic", "sic-single",
                                 "mub-single", "random"]))
    p = (random_rank_one_povm(rng, 2, draw(st.integers(4, 6)))
         if name == "random" else scheme_povm(name))
    v = draw(hnp.arrays(float, 3, elements=unit))
    norm = float(np.linalg.norm(v))
    s = np.zeros(3) if norm < 1e-3 else draw(
        st.sampled_from([0.0, 0.3, 0.9, 0.99, 0.999])) * v / norm
    probs = _sampling_probs(density_from_bloch(s).matrix[None], p)[0]
    return p, rng.multinomial(draw(st.integers(4, 10**4)), probs)


@settings(max_examples=150)
@given(case=sampled_counts())
def test_mle_meets_the_kkt_conditions(case):
    p, counts = case
    residual, radial = _kkt_residuals(p, counts)
    assert residual <= 1e-6 * counts.sum()
    assert radial is None or radial >= 0.0


@settings(max_examples=60)
@given(p=qubit_povms(), start=interior_bloch(), data=st.data())
def test_mle_loglik_is_the_full_model_at_the_estimate(p, start, data):
    counts = np.array(data.draw(st.lists(st.integers(0, 1000), min_size=p.size,
                                         max_size=p.size)), dtype=float)
    zero = data.draw(st.integers(0, p.size - 1))
    counts[zero] = 0.0
    counts[(zero + 1) % p.size] += 1.0
    try:  # the MLE's domain: POVMs whose model identifies the Bloch vector
        model = _scheme_setup(p, "mle").model
    except ValueError:
        assume(False)
    s, loglik = _mle_bloch(_Observed(counts, model), start, INTERIOR_CLIP)
    observed = counts > 0
    full = counts[observed] @ np.log(model.evaluate(s)[0][observed])
    assert loglik == pytest.approx(full, rel=1e-12)


@st.composite
def named_scheme_counts(draw):
    """A named scheme, an estimator, and the counts of 1 to 3 trials on
    the scheme's POVM, each trial with an observed outcome."""
    name = draw(st.sampled_from(SCHEMES[:-1]))
    size = NAMED_POVMS[name].size
    counts = draw(hnp.arrays(int, (draw(st.integers(1, 3)), size),
                             elements=st.integers(0, 1000)))
    counts[:, draw(st.integers(0, size - 1))] += 1
    return name, draw(st.sampled_from(["mle", "linear"])), counts.astype(float)


@settings(max_examples=100)
@given(case=named_scheme_counts())
def test_shared_setup_estimates_as_a_fresh_one(case):
    name, estimator, counts = case
    shared = _named_setup(name, estimator)
    assert _named_setup(name, estimator) is shared
    fresh = _scheme_setup(NAMED_POVMS[name], estimator)
    assert (_estimate(counts, shared).tobytes()
            == _estimate(counts, fresh).tobytes())


def _lattice_started_maximum(model, counts, n=41):
    """The log-likelihood at the end of an MLE ascent from the point of an
    n^3 lattice over the clipped ball where it is highest."""
    axis = np.linspace(-1.0, 1.0, n)
    grid = np.stack(np.meshgrid(axis, axis, axis), axis=-1).reshape(-1, 3)
    grid = grid[np.einsum("ga,ga->g", grid, grid) <= INTERIOR_CLIP ** 2]
    observed = counts > 0
    probs = (model.c + grid @ model.lin.T
             + np.einsum("ga,kab,gb->gk", grid, model.quad, grid))
    with np.errstate(divide="ignore"):  # p <= 0 gives l = -inf
        loglik = np.log(np.clip(probs[:, observed], 0.0, None)) \
            @ counts[observed]
    return _mle_bloch(_Observed(counts, model), grid[np.argmax(loglik)],
                      INTERIOR_CLIP)[1]


@st.composite
def two_copy_counts(draw):
    """A random two-copy qubit POVM of 4 to 6 outcomes and counts on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = random_two_copy_povm(rng, 2, draw(st.integers(4, 6)))
    counts = draw(st.lists(st.integers(0, 200), min_size=p.size,
                           max_size=p.size).filter(any))
    return p, np.array(counts, dtype=float)


@pytest.mark.xfail(raises=AssertionError,
                   reason="the MLE's fixed starts can end at a local "
                          "maximum of a likelihood that is not concave")
@settings(max_examples=10)
@given(case=two_copy_counts())
@example(case=(random_two_copy_povm(np.random.default_rng(6), 2, 4),
               np.array([2.0, 2.0, 3.0, 3.0])))
def test_mle_reaches_the_maximum_of_a_two_copy_model(case):
    p, counts = case
    try:  # the MLE's domain: POVMs whose model identifies the Bloch vector
        setup = _scheme_setup(p, "mle")
    except ValueError:
        assume(False)
    s = _estimate(counts[None], setup)[0]
    observed = counts > 0
    loglik = counts[observed] @ np.log(setup.model.evaluate(s)[0][observed])
    best = _lattice_started_maximum(setup.model, counts)
    assert loglik >= best - 1e-6 * abs(best)


@pytest.mark.parametrize("scheme, counts", [
    ("collective-sic", [500, 0, 0, 0, 0]),
    ("collective-sic", [0, 0, 0, 0, 300]),
    ("collective-sic", [0, 7, 0, 0, 0]),
    ("collective-sic", [200, 100, 0, 0, 0]),
    ("collective-sic", [0, 0, 40, 0, 1]),
    ("sic-single", [500, 0, 0, 0]),
    # small-N draws on which the ascent used to fall back to a projected
    # gradient search: G singular on the first three, and on the last a
    # failed Newton step that predicted a rise beyond the rounding of l
    ("mub-single", [1, 2, 0, 0, 1, 0]),
    ("mub-single", [0, 0, 0, 0, 2, 1]),
    ("collective-sic", [0, 14, 5, 0, 0]),
    ("collective-sic", [7, 0, 15, 31, 0]),
])
def test_mle_with_singular_scoring_matrix(scheme, counts):
    counts = np.array(counts)
    residual, radial = _kkt_residuals(scheme_povm(scheme), counts)
    assert residual <= 1e-6 * counts.sum()
    assert radial is None or radial >= 0.0
