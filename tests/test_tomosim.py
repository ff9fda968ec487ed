import csv
import dataclasses
import json

import numpy as np
import pytest
from conftest import _sandwich, random_povm, random_two_copy_povm

from fisym import tomosim
from fisym.cli import main
from fisym.opfile import povm_to_obj, save_json
from fisym.povm import (NAMED_POVMS, Povm, classify_coherent,
                        minimal_tight_coherent_d3, twocopy_design_povm,
                        validate_povm)
from fisym.designs import sic_qubit
from fisym.states import BlochQubit, density_from_bloch
from fisym.tomosim import (
    SCHEMES,
    SWEEP_COLUMNS,
    SimConfig,
    SweepConfig,
    asymptotic_metrics,
    run_simulation,
    scheme_povm,
    sweep,
    write_sweep_csv,
)
from fisym.tomosim import _quad_model  # noqa: the model must track the POVM
from fisym.tomosim import (_estimate, _linear_system, _pauli_coeffs,
                           _scheme_setup, _to_ball)
from fisym._tol import INTERIOR_CLIP
from fisym.fisher import outcome_probs


def z_basis_povm():
    return Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                copies=1, base_dim=2)


def exact_counts(bloch, p, n=10 ** 6):
    rho = density_from_bloch(bloch)
    return outcome_probs(rho, p) * n


def estimate(counts, p, estimator):
    """The Bloch estimate of one trial's counts, as a run makes it."""
    return _estimate(np.asarray(counts, float)[None],
                     _scheme_setup(p, estimator))[0]


def criterion_7_mix():
    """MLE runs of the criterion-7 mix: collective-sic at three radii and
    sic-single at the centre, N = 10^4, 10 trials each."""
    return [SimConfig(scheme=scheme, bloch=(s, 0.0, 0.0), n_copies=10**4,
                      n_trials=10, seed=21, estimator="mle")
            for scheme, s in (("collective-sic", 0.0), ("collective-sic", 0.5),
                              ("collective-sic", 0.9), ("sic-single", 0.0))]


def ascents_of(configs):
    """The MLE ascents that runs of ``configs`` make: one per start of
    each config's scheme, per trial."""
    return sum(len(c._setup.starts) * c.n_trials for c in configs)


def seeded_ascent_ends():
    """(counts, model, end, l) of 1800 MLE ascents: one per start, for 100
    seeded trials of each named scheme at N = 10, 200 and 5000, at states
    drawn uniformly from the Bloch ball."""
    ends = []
    for scheme in ("collective-sic", "sic-single", "mub-single"):
        setup = _scheme_setup(scheme_povm(scheme), "mle")
        copies = setup.povm.copies
        for n in (10, 200, 5000):
            rng = np.random.default_rng((36, n))
            for _ in range(100):
                v = rng.normal(size=3)
                v *= rng.uniform() ** (1 / 3) / np.linalg.norm(v)
                probs = outcome_probs(density_from_bloch(v), setup.povm)
                counts = rng.multinomial(n // copies, probs / probs.sum())
                counts = counts.astype(float)
                obs = tomosim._Observed(counts, setup.model)
                s0 = tomosim._project(tomosim._linear_bloch(
                    counts[None], setup.linsys)[0])
                for d in setup.starts:
                    end, f = tomosim._mle_bloch(obs, s0 + d)
                    ends.append((counts, setup.model, end, f))
    return ends


class TestSchemePovm:
    def test_known_schemes_resolve(self):
        for name in SCHEMES:
            if name == "custom":
                continue
            p = scheme_povm(name)
            assert p.base_dim == 2

    def test_custom_requires_povm(self):
        with pytest.raises(ValueError):
            scheme_povm("custom")
        # and only the scheme "custom" takes one
        with pytest.raises(ValueError, match='only with "scheme": "custom"'):
            scheme_povm("sic-single", z_basis_povm())
        p = scheme_povm("custom", z_basis_povm())
        assert p.size == 2

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_povm("adaptive")

    def test_schemes_come_from_the_registry(self):
        # the named schemes are exactly the named POVMs that both
        # estimators accept; great-circle is named but not informationally
        # complete
        def both_estimators_accept(p):
            try:
                _scheme_setup(p, "mle")
                _scheme_setup(p, "linear")
            except ValueError:
                return False
            return True

        assert set(SCHEMES) - {"custom"} == {
            name for name, p in NAMED_POVMS.items()
            if both_estimators_accept(p)}
        with pytest.raises(ValueError):
            scheme_povm("great-circle")


class TestQuadModel:
    def test_model_tracks_probabilities(self, rng):
        for scheme in ("collective-sic", "sic-single", "mub-single"):
            p = scheme_povm(scheme)
            model = _quad_model(p)
            for _ in range(10):
                s = rng.normal(size=3)
                s *= rng.uniform(0.0, 0.95) / max(np.linalg.norm(s), 1e-12)
                rho = density_from_bloch(s)
                direct = outcome_probs(rho, p)
                assert np.max(np.abs(model.evaluate(s)[0] - direct)) < 1e-13

    def test_model_gradients(self, rng):
        p = scheme_povm("collective-sic")
        model = _quad_model(p)
        s = np.array([0.3, -0.1, 0.2])
        h = 1e-7
        g = model.lin + 2.0 * model.evaluate(s)[1]
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            up, down = model.evaluate(s + e)[0], model.evaluate(s - e)[0]
            fd = (up - down) / (2 * h)
            assert np.max(np.abs(fd - g[:, a])) < 1e-6


def incomplete_povms():
    """An informationally complete single-copy POVM scaled to sum to
    0.9, and the two-copy POVM of a 2-design that resolves the symmetric
    projector, complete only on pure states."""
    return [Povm(0.9 * NAMED_POVMS["sic-single"].elements, copies=1,
                 base_dim=2),
            twocopy_design_povm(sic_qubit())]


def incomplete_message(total):
    return (f"outcome probabilities sum to {total}, POVM is not complete "
            "for this state")


def not_a_povm_message(p):
    report = validate_povm(p)
    return (f"not a POVM (positivity violation {report.psd_violation:.3g}, "
            f"completeness residual {report.completeness_residual:.3g}, "
            "tolerance 1e-09)")


class TestIncompletePovm:
    # the configs refuse the 0.9-scaled POVM, p0, as no POVM; the
    # two-copy one, p1, is complete on the symmetric subspace, its target,
    # and a sweep finds the first incomplete grid point as the per-point
    # runs did, with the same message.  p1 sums to (3 + r^2)/4, complete
    # to 1e-9 only where (1 - r)/2 is within the rank tolerance, and the
    # analytic columns refuse such a radius before any trial runs
    @pytest.mark.parametrize("p", incomplete_povms())
    def test_sweep_and_simulation_raise(self, p):
        radii = (0.5, 0.0)
        totals = [outcome_probs(density_from_bloch([r, 0.0, 0.0]), p).sum()
                  for r in radii]
        if validate_povm(p).ok:
            messages = incomplete_message(totals[0]), incomplete_message(
                totals[1])
            with pytest.raises(ValueError, match="pure to within the rank "
                               "tolerance"):
                sweep(SweepConfig(scheme="custom", radii=(1.0 - 1e-16, *radii),
                                  n_copies=100, n_trials=2, seed=1,
                                  estimator="linear", povm=p))
        else:
            messages = (not_a_povm_message(p),) * 2
        with pytest.raises(ValueError) as exc:
            sweep(SweepConfig(scheme="custom", radii=radii, n_copies=100,
                              n_trials=2, seed=1, estimator="linear", povm=p))
        assert str(exc.value) == messages[0]
        with pytest.raises(ValueError) as exc:
            run_simulation(SimConfig(scheme="custom", bloch=(radii[1], 0, 0),
                                     n_copies=100, n_trials=2, seed=1,
                                     estimator="linear", povm=p))
        assert str(exc.value) == messages[1]

    # the CLI refuses the 0.9-scaled file, p0, as no POVM (exit 2, in
    # test_cli.py); the two-copy one fails at the first incomplete state
    @pytest.mark.parametrize("p", incomplete_povms()[1:], ids=["p1"])
    def test_cli_exits_3(self, capsys, tmp_path, p):
        povm_path = str(tmp_path / "povm.json")
        save_json(povm_to_obj(p), povm_path)
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "scheme": "custom", "povm": povm_path, "radii": [0.0, 0.5],
            "n_copies": 100, "n_trials": 2, "seed": 1}))
        assert main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "out.csv")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: outcome probabilities "
                              "sum to ")


class TestCustomPovmIsChecked:
    @pytest.mark.parametrize("estimator", ["linear", "mle"])
    def test_a_complete_set_with_a_negative_element_is_refused(
            self, estimator):
        # the six mub-single elements with E0, E1 replaced by 2 E0 - E1 and
        # 2 E1 - E0: they sum to the identity, but have the eigenvalue -1/3
        e = NAMED_POVMS["mub-single"].elements.copy()
        e[:2] = 2.0 * e[:2] - e[1::-1]
        p = Povm(e, copies=1, base_dim=2)
        runs = {"scheme": "custom", "n_copies": 100, "n_trials": 2,
                "seed": 1, "estimator": estimator, "povm": p}
        with pytest.raises(ValueError) as exc:
            run_simulation(SimConfig(bloch=(0.3, -0.2, 0.5), **runs))
        assert str(exc.value) == not_a_povm_message(p)
        with pytest.raises(ValueError) as exc:
            sweep(SweepConfig(radii=(0.0, 0.5), **runs))
        assert str(exc.value) == not_a_povm_message(p)

    @pytest.mark.parametrize("estimator", ["linear", "mle"])
    def test_a_measurement_beyond_qubits_is_refused_at_construction(
            self, estimator):
        # the 18-element tight coherent POVM of d = 3 is a measurement,
        # but the estimators are for qubits
        p = minimal_tight_coherent_d3()
        runs = {"scheme": "custom", "n_copies": 100, "n_trials": 2,
                "seed": 1, "estimator": estimator, "povm": p}
        for config in (lambda: SimConfig(bloch=(0.0, 0.0, 0.0), **runs),
                       lambda: SweepConfig(radii=(0.0, 0.5), **runs)):
            with pytest.raises(ValueError, match="implemented for qubits"):
                config()


def mixed_two_copy_povm():
    """The collective SIC measurement with a 'neither' element (the
    rank-one product |0><0| x |1><1|) put between its sym-power
    elements, ahead of its singlet, a 'slater' element."""
    e = NAMED_POVMS["collective-sic"].elements
    product = np.kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    return Povm(np.concatenate([e[:2], product[None], e[2:]]), copies=2,
                base_dim=2)


class TestLinearSystem:
    @pytest.mark.parametrize("p", [NAMED_POVMS["collective-sic"],
                                   mixed_two_copy_povm()],
                             ids=["collective-sic", "mixed-kinds"])
    def test_two_copy_outcomes_are_the_sym_power_classes(self, p):
        classes = classify_coherent(p).classes
        assert {c.kind for c in classes} >= {"sym-power", "slater"}
        sym = [(xi, c) for xi, c in enumerate(classes)
               if c.kind == "sym-power"]
        psi = np.array([c.states[0] for _, c in sym])
        system = _linear_system(p, _quad_model(p))
        assert system.indices.tolist() == [xi for xi, _ in sym]
        # the unit Bloch vector u of psi; the element's probability is
        # (w/4)(1 + u.s)^2
        u = 2.0 * _pauli_coeffs(psi[:, :, None] * psi.conj()[:, None, :])[:, 1:]
        assert np.allclose(system.rows, u, rtol=0.0, atol=1e-12)
        assert np.allclose(system.squares, [c.weight / 4.0 for _, c in sym],
                           rtol=0.0, atol=1e-12)

    def test_mixed_povm_has_every_kind(self):
        kinds = [c.kind for c in classify_coherent(
            mixed_two_copy_povm()).classes]
        assert kinds == ["sym-power"] * 2 + ["neither"] + ["sym-power"] * 2 \
            + ["slater"]

    @pytest.mark.parametrize("p", [
        Povm([np.eye(4) / 2, np.eye(4) / 2], copies=2, base_dim=2),
        random_two_copy_povm(np.random.default_rng(5), 2, 5)])
    def test_no_sym_power_outcome_raises(self, p):
        assert not any(c.kind == "sym-power"
                       for c in classify_coherent(p).classes)
        with pytest.raises(ValueError, match="no symmetric rank-one-power"):
            _linear_system(p, _quad_model(p))


class TestLinearEstimator:
    @pytest.mark.parametrize("scheme", ["collective-sic", "sic-single",
                                        "mub-single"])
    def test_exact_frequencies_recover_state(self, scheme):
        bloch = np.array([0.3, -0.2, 0.4])
        p = scheme_povm(scheme)
        est = density_from_bloch(estimate(exact_counts(bloch, p), p, "linear"))
        assert np.max(np.abs(est.matrix - density_from_bloch(bloch).matrix)) < 1e-12

    def test_result_stays_in_ball(self, rng):
        p = scheme_povm("sic-single")
        counts = np.array([900.0, 50.0, 25.0, 25.0])
        assert np.linalg.norm(estimate(counts, p, "linear")) <= 1.0

    def test_rank_deficient_povm_rejected(self):
        with pytest.raises(ValueError):
            estimate(np.array([600.0, 400.0]), z_basis_povm(), "linear")

    def test_rows_outside_land_inside_the_ball(self):
        # dividing by |s| once left 981 of these rows an ulp outside
        s = 3.0 * np.random.default_rng(7).normal(size=(100_000, 3))
        r = np.linalg.norm(s, axis=1)
        ball = _to_ball(s)
        assert np.all(np.linalg.norm(ball, axis=1) <= 1.0)
        assert np.array_equal(ball[r <= 1.0], s[r <= 1.0])
        assert np.allclose(ball[r > 1.0], (s / r[:, None])[r > 1.0],
                           rtol=0.0, atol=1e-15)


class TestMleEstimator:
    @pytest.mark.parametrize("scheme", ["collective-sic", "sic-single"])
    def test_fixed_point_at_exact_frequencies(self, scheme):
        bloch = np.array([0.4, 0.1, -0.2])
        p = scheme_povm(scheme)
        est = density_from_bloch(estimate(exact_counts(bloch, p), p, "mle"))
        assert np.max(np.abs(est.matrix - density_from_bloch(bloch).matrix)) < 1e-6

    def test_never_below_linear_likelihood(self, rng):
        p = scheme_povm("collective-sic")
        model = _quad_model(p)
        rho = density_from_bloch([0.6, 0.2, 0.1])

        def loglik(counts, s):
            pr = np.clip(model.evaluate(s)[0], 1e-300, None)
            return float(counts @ np.log(pr))

        for _ in range(10):
            counts = rng.multinomial(200, outcome_probs(rho, p)).astype(float)
            s_lin = estimate(counts, p, "linear")
            s_mle = estimate(counts, p, "mle")
            assert loglik(counts, s_mle) >= loglik(counts, s_lin) - 1e-9

    def test_converges_where_the_gradient_ascent_stalled(self):
        # a plain projected-gradient ascent, the MLE before Newton steps,
        # stopped here at its iteration cap with |grad l| / N = 4.6e-5,
        # 9.1e-5 from the maximizer in x
        p = scheme_povm("mub-single")
        counts = np.array([271.0, 80.0, 69.0, 249.0, 217.0, 114.0])
        s = estimate(counts, p, "mle")
        model = _quad_model(p)
        pr, ms = model.evaluate(s)
        grad = (counts / pr) @ (model.lin + 2.0 * ms)
        assert np.linalg.norm(grad) <= 1e-6 * counts.sum()
        assert abs(s[0] - 0.544160) < 1e-6

    @pytest.mark.parametrize("name, counts", [
        ("collective-sic", [500, 0, 0, 0, 0]),
        ("collective-sic", [0, 0, 0, 500, 0]),
        ("sic-single", [500, 0, 0, 0]),
        ("sic-single", [0, 0, 0, 500])])
    def test_estimate_lands_inside_the_clip(self, name, counts):
        # scaling by clip / |s| once left these 1 to 3 ulps outside
        setup = _scheme_setup(scheme_povm(name), "mle")
        s = _estimate(np.array([counts], dtype=float), setup)[0]
        assert np.linalg.norm(s) <= INTERIOR_CLIP

    def test_ascent_ends_at_the_rounding_of_the_likelihood(self, monkeypatch):
        # an ascent stops, before its next trial point, once the Newton
        # step predicts a rise within the rounding of l; trying the
        # backtracked points t = 1, 1/2, 1/4, 1/8 first took the
        # criterion-7 mix to 6.87 model evaluations per ascent instead of
        # 3.52, and searching on down to a 1e-18 step to 40
        evals, ascents = [0], [0]
        evaluate, mle_bloch = tomosim._QuadModel.evaluate, tomosim._mle_bloch

        def counted_evaluate(model, s):
            evals[0] += 1
            return evaluate(model, s)

        def counted_ascent(*args):
            ascents[0] += 1
            return mle_bloch(*args)

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", counted_evaluate)
        monkeypatch.setattr(tomosim, "_mle_bloch", counted_ascent)
        configs = criterion_7_mix()
        for config in configs:
            run_simulation(config)
        assert ascents[0] == ascents_of(configs)
        # at least the start of each ascent, so the count is not vacuous
        assert ascents[0] <= evals[0] <= 5 * ascents[0]

    def test_each_ascent_evaluates_a_point_once(self, monkeypatch):
        # an accepted point's probabilities serve the next iteration, so no
        # point is evaluated twice; evaluating it again took the
        # criterion-7 mix from 6.6 to 10.7 evaluations per ascent, when
        # an ascent still tried four backtracked points before it ended
        # (3.52 since it ends on the predicted rise alone)
        points = []
        evaluate, mle_bloch = tomosim._QuadModel.evaluate, tomosim._mle_bloch

        def recorded_evaluate(model, s):
            points[-1].append(np.array(s, dtype=float).tobytes())
            return evaluate(model, s)

        def recorded_ascent(*args):
            points.append([])
            return mle_bloch(*args)

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", recorded_evaluate)
        monkeypatch.setattr(tomosim, "_mle_bloch", recorded_ascent)
        configs = criterion_7_mix()
        for config in configs:
            run_simulation(config)
        n_ascents = ascents_of(configs)
        assert len(points) == n_ascents
        assert all(points)  # each ascent evaluated its start at least
        assert sum(map(len, points)) <= 8 * len(points)
        for name, counts in (("sic-single", [7, 0, 3, 2]),
                             ("collective-sic", [9, 0, 4, 0, 2])):
            estimate(counts, scheme_povm(name), "mle")
            n_ascents += len(_scheme_setup(scheme_povm(name), "mle").starts)
        assert len(points) == n_ascents
        for ascent in points:
            assert len(set(ascent)) == len(ascent)

    def test_ascent_restarted_at_its_end_evaluates_only_the_end(
            self, monkeypatch):
        # an ascent ends when its Newton step predicts a rise within the
        # rounding k eps |l| of l, before it tries a point; restarted at
        # its own end it evaluates that end alone, where it used to try
        # the backtracked points t = 1, 1/2, 1/4, 1/8 first (in 1103 of
        # these 1800 restarts)
        ends = seeded_ascent_ends()
        assert len(ends) == 1800
        evals = [0]
        evaluate = tomosim._QuadModel.evaluate

        def counted_evaluate(model, s):
            evals[0] += 1
            return evaluate(model, s)

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", counted_evaluate)
        for counts, model, end, f in ends:
            evals[0] = 0
            s, f_again = tomosim._mle_bloch(tomosim._Observed(counts, model),
                                            end)
            assert np.array_equal(s, end) and f_again == f
            assert evals[0] == 1

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="where one outcome is observed, l = n log p "
                              "rounds to several k eps |l|: from the ends "
                              "of collective-sic counts [0, 5, 0, 0, 0] a "
                              "backtracked point reads 5.6 k eps |l| higher")
    def test_backtracked_points_from_an_end_rise_within_the_rounding(
            self, monkeypatch):
        # restarted at its end with no rounding allowed, an ascent tries the
        # backtracked Newton points t = 1, 1/2, 1/4, 1/8 that it skips; none
        # should rise over the end by more than the rounding of l at the two
        # points, 2 k eps |l|.  Every other end meets this, but at the
        # single-outcome ends of [0, 5, 0, 0, 0], l = -1.438, a point reads
        # 1.78e-15 higher in floating point; computed exactly, from the same
        # points, it rises 3.2e-16, k eps |l|
        evaluated = []
        evaluate = tomosim._QuadModel.evaluate

        class Enough(Exception):
            pass

        def capped_evaluate(model, s):
            if len(evaluated) == 5:  # the end and four trial points
                raise Enough
            pr, ms = evaluate(model, s)
            evaluated.append(pr)
            return pr, ms

        ends = seeded_ascent_ends()
        monkeypatch.setattr(tomosim._QuadModel, "evaluate", capped_evaluate)
        for counts, model, end, f in ends:
            free = tomosim._Observed(counts, model)
            free.rounding = 0.0
            evaluated.clear()
            try:
                tomosim._mle_bloch(free, end)
            except Enough:
                pass
            rises = [free.counts.dot(np.log(pr)) - f
                     for pr in evaluated[1:] if pr.min() > 0.0]
            bound = 2.0 * free.counts.size * np.finfo(float).eps * abs(f)
            assert max(rises, default=0.0) <= bound, counts

    def test_starts_that_tie_within_rounding_keep_the_first(
            self, monkeypatch):
        # counts of a collective-sic sweep at radius 0.9: the ascents from
        # the four starts end about 4e-9 apart, with likelihoods that
        # differ by an ulp, within the rounding k eps |l| of l; the first
        # start is kept, so rounding does not decide the pick; the set-up
        # gets all four starts, whatever a named scheme's count of them
        setup = dataclasses.replace(
            _scheme_setup(scheme_povm("collective-sic"), "mle"),
            starts=tomosim._STARTS)
        counts = np.array([42.0, 42.0, 9.0, 4.0, 3.0])
        s0 = tomosim._project(tomosim._linear_bloch(
            counts[None], setup.linsys)[0])
        ends = [tomosim._mle_bloch(tomosim._Observed(counts, setup.model),
                                   s0 + d)
                for d in setup.starts]
        first, f0 = ends[0]
        bound = counts.size * np.finfo(float).eps * abs(f0)
        assert max(np.linalg.norm(s - first) for s, _ in ends) > 1e-9
        assert all(abs(f - f0) <= bound for _, f in ends)
        assert np.array_equal(_estimate(counts[None], setup)[0], first)
        # whatever the rounding of these ascents: a later start is kept
        # only where its l rises by more than k eps |l| over the first's
        bound = counts.size * np.finfo(float).eps * 100.0
        for rise, kept in ((0.5, 0), (2.0, 1)):
            ends = iter([(np.full(3, 0.1 * i), -100.0 + rise * bound * i)
                         for i in (0, 1, 0, 0)])
            monkeypatch.setattr(tomosim, "_mle_bloch",
                                lambda *args: next(ends))
            assert _estimate(counts[None], setup)[0][0] == 0.1 * kept

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="an ascent that starts at the clip, where an "
                              "observed outcome's probability nearly "
                              "vanishes, creeps inward a Newton step at a "
                              "time")
    @pytest.mark.parametrize("counts", [[0, 0, 40, 0, 1], [0, 0, 20, 0, 1]])
    def test_ascents_near_a_vanishing_outcome_take_few_evaluations(
            self, monkeypatch, counts):
        # the singlet's probability is about 5e-10 at the clipped linear
        # start; on the mc-mle points over seeds 0-39 (3160 ascents) no
        # ascent took more than 16 model evaluations
        evals = []
        evaluate, mle_bloch = tomosim._QuadModel.evaluate, tomosim._mle_bloch

        def counted_evaluate(model, s):
            evals[-1] += 1
            return evaluate(model, s)

        def counted_ascent(*args):
            evals.append(0)
            return mle_bloch(*args)

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", counted_evaluate)
        monkeypatch.setattr(tomosim, "_mle_bloch", counted_ascent)
        setup = _scheme_setup(scheme_povm("collective-sic"), "mle")
        _estimate(np.array([counts], dtype=float), setup)
        assert len(evals) == len(setup.starts)
        assert max(evals) <= 20, evals

    def test_singular_newton_system_falls_back_to_the_gradient(
            self, monkeypatch):
        # all counts on one collective-SIC outcome: from this start A is
        # singular, so a pivot of its LDL^T is not positive; b lies in the
        # range of A, so the minimum-norm least-squares step still ascends,
        # and the ascent reaches the maximizer at the clip
        singular = []
        lstsq = np.linalg.lstsq

        def counted_lstsq(a, b, rcond):
            singular.append(a)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counted_lstsq)
        model = _quad_model(scheme_povm("collective-sic"))
        counts = np.array([0.0, 7.0, 0.0, 0.0, 0.0])
        u = np.array([1.0, -1.0, -1.0]) / np.sqrt(3.0)
        start = tomosim._project(INTERIOR_CLIP * u + [0.0, 0.05, 0.0])
        s, _ = tomosim._mle_bloch(tomosim._Observed(counts, model), start)
        assert singular
        assert np.linalg.norm(s - INTERIOR_CLIP * u) < 1e-9

    def test_non_finite_newton_step_ends_the_ascent(self, monkeypatch):
        # an infinite d made every trial point NaN (inf * 0 in the
        # projection, with numpy's "invalid value" warning), which never
        # rises, and t halved to 0 before the ascent ended where it
        # started; it now ends there at once, with no trial point
        evals = [0]
        evaluate = tomosim._QuadModel.evaluate

        def counted_evaluate(model, s):
            evals[0] += 1
            return evaluate(model, s)

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", counted_evaluate)
        monkeypatch.setattr(tomosim, "_ldl_solve",
                            lambda a, b: np.full(3, np.inf))
        model = _quad_model(scheme_povm("collective-sic"))
        start = np.array([0.1, 0.2, -0.1])
        s, f = tomosim._mle_bloch(tomosim._Observed(
            np.array([3.0, 1.0, 2.0, 0.0, 1.0]), model), start)
        assert np.array_equal(s, start) and np.isfinite(f)
        assert np.linalg.norm(s) <= INTERIOR_CLIP
        assert evals[0] == 1  # the start alone

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_newton_system_ends_the_ascent(self, monkeypatch,
                                                      value):
        # gradients L + 2 M s that are not finite make A d = b not
        # finite, and no pivot of A positive and finite; lstsq must not see
        # the system: on NaN it prints LAPACK's "On entry to DLASCL" to the
        # process's stderr and raises, and on inf it does not return
        evals = [0]
        evaluate = tomosim._QuadModel.evaluate

        def non_finite_ms(model, s):
            evals[0] += 1
            pr, ms = evaluate(model, s)
            return pr, np.full_like(ms, value)

        def lstsq(*args, **kwargs):
            raise AssertionError("lstsq on a system that is not finite")

        monkeypatch.setattr(tomosim._QuadModel, "evaluate", non_finite_ms)
        monkeypatch.setattr(np.linalg, "lstsq", lstsq)
        model = _quad_model(scheme_povm("collective-sic"))
        start = np.array([0.1, 0.2, -0.1])
        with np.errstate(invalid="ignore"):  # inf - inf in the products
            s, f = tomosim._mle_bloch(tomosim._Observed(
                np.array([3.0, 1.0, 2.0, 0.0, 1.0]), model), start)
        assert np.array_equal(s, start) and np.isfinite(f)
        assert evals[0] == 1  # the start, whose M s is not finite

    def test_newton_step_past_the_ball_is_halved_into_it(self):
        # three observed outcomes of a six-outcome POVM: l is nearly flat
        # along the Newton step, which leaves the ball, and its first four
        # projections onto the sphere do not rise; backtracking halves on
        # until the trial point lies back in the ball, where l rises, and
        # does not leave the ascent crawling along that ridge
        vectors = [[0.75, -0.01 + 0.4j], [0.18, -0.07 + 0.02j],
                   [0.1, -0.24 - 0.66j], [0.36, 0.04 - 0.45j],
                   [0.49, 0.05 - 0.24j], [0.14, 0.01 + 0.28j]]
        p = Povm(_sandwich([np.outer(v, np.conj(v)) for v in vectors]),
                 copies=1, base_dim=2)
        counts = np.array([2, 0, 1, 0, 1, 0])
        s = _estimate(counts[None].astype(float), _scheme_setup(p, "mle"))[0]
        model, observed = _quad_model(p), counts > 0
        pr, ms = model.evaluate(s)
        g = ((counts[observed] / pr[observed])
             @ (model.lin + 2.0 * ms)[observed])
        u = s / np.linalg.norm(s)
        assert np.linalg.norm(s) == pytest.approx(INTERIOR_CLIP, abs=1e-12)
        assert np.linalg.norm(g - (g @ u) * u) <= 1e-6 * counts.sum()
        assert g @ u > 0.0


def not_ic_povms():
    """Single-copy POVMs whose Bloch rows cannot identify the Bloch
    vector: the z basis (rank 1) and a custom copy of great-circle
    (rank 2)."""
    return [z_basis_povm(), Povm(NAMED_POVMS["great-circle"].elements,
                                 copies=1, base_dim=2)]


NOT_IC = "POVM is not informationally complete for the Bloch vector"


class TestNotInformationallyComplete:
    # one rule at set-up refuses both estimators; the MLE once estimated
    # with these POVMs, from the centre, and reported meaningless errors
    @pytest.mark.parametrize("p", not_ic_povms(),
                             ids=["z-basis", "great-circle"])
    def test_both_estimators_refuse(self, p):
        counts = np.full(p.size, 100.0)
        counts[0] = 600.0
        for estimator in ("linear", "mle"):
            with pytest.raises(ValueError, match=NOT_IC):
                estimate(counts, p, estimator)
            with pytest.raises(ValueError, match=NOT_IC):
                _scheme_setup(p, estimator)
            with pytest.raises(ValueError, match=NOT_IC):
                run_simulation(SimConfig(
                    scheme="custom", bloch=(0.3, 0.0, 0.0), n_copies=100,
                    n_trials=2, seed=1, estimator=estimator, povm=p))

    @pytest.mark.parametrize("estimator", ["linear", "mle"])
    @pytest.mark.parametrize("p", not_ic_povms(),
                             ids=["z-basis", "great-circle"])
    def test_cli_exits_2_before_any_trial(self, capsys, tmp_path,
                                          monkeypatch, p, estimator):
        def no_trials(*args):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(tomosim, "_simulate", no_trials)
        povm_path = str(tmp_path / "povm.json")
        save_json(povm_to_obj(p), povm_path)
        run = {"scheme": "custom", "povm": povm_path, "n_copies": 100,
               "n_trials": 2, "seed": 1, "estimator": estimator}
        for command, what, extra in (
                ("simulate", "simulation", {"bloch": [0.3, 0.0, 0.0]}),
                ("sweep", "sweep", {"radii": [0.0, 0.5]})):
            config = tmp_path / f"{command}.json"
            config.write_text(json.dumps({**run, **extra}))
            argv = [command, "--config", str(config)]
            if command == "sweep":
                argv += ["--out", str(tmp_path / "rows.csv")]
            # refused with the config, as a usage error
            assert main(argv) == 2
            assert (capsys.readouterr().err
                    == f"error: bad {what} config: {NOT_IC}\n")

    def test_mle_starts_from_the_centre_without_a_linear_system(self):
        # no square outcome, or two square outcomes, whose rows have rank 2
        # (the collective SIC with its singlet split over two of its
        # sym-power elements): no linear system, but L has rank 3
        e = NAMED_POVMS["collective-sic"].elements
        two_squares = Povm([e[0], e[1], e[2] + e[4] / 2, e[3] + e[4] / 2],
                           copies=2, base_dim=2)
        for p, message in (
                (random_two_copy_povm(np.random.default_rng(5), 2, 5),
                 "no symmetric rank-one-power"), (two_squares, NOT_IC)):
            with pytest.raises(ValueError, match=message):
                _scheme_setup(p, "linear")
            setup = _scheme_setup(p, "mle")
            assert setup.linsys is None
            s = _estimate(np.round(exact_counts([0.3, -0.2, 0.1], p))[None],
                          setup)[0]
            assert np.linalg.norm(s - [0.3, -0.2, 0.1]) < 1e-2
        # no square outcome and L = 0: nothing identifies the Bloch vector
        flat = Povm([np.eye(4) / 2, np.eye(4) / 2], copies=2, base_dim=2)
        with pytest.raises(ValueError, match=NOT_IC):
            _scheme_setup(flat, "mle")


def setup_arrays(obj):
    """Every array reachable from a set-up through dataclass fields."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from setup_arrays(getattr(obj, f.name))


def setup_parts(setup):
    """The set-up and the dataclasses in its fields."""
    return [setup, *(getattr(setup, f.name) for f in dataclasses.fields(setup)
                     if dataclasses.is_dataclass(getattr(setup, f.name)))]


class TestNamedSetup:
    """A named scheme is set up once per process and estimator and shared
    by every config that names it, so no run may be able to change it."""

    def config(self, cls=SimConfig, **kw):
        args = dict(scheme="collective-sic", n_copies=40, n_trials=2,
                    seed=5, estimator="mle")
        args.update(kw)
        if cls is SimConfig:
            return SimConfig(bloch=(0.3, 0.0, 0.0), **args)
        return SweepConfig(radii=(0.3,), **args)

    @pytest.mark.parametrize("estimator", ["mle", "linear"])
    @pytest.mark.parametrize("scheme", SCHEMES[:-1])
    def test_every_array_is_read_only(self, scheme, estimator):
        setup = self.config(scheme=scheme, estimator=estimator)._setup
        arrays = list(setup_arrays(setup))
        # povm.elements, c, L, M, starts, and the linear system's arrays
        assert len(arrays) >= 8
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = a.flat[0]

    @pytest.mark.parametrize("scheme", SCHEMES[:-1])
    def test_its_parts_are_frozen(self, scheme):
        for part in setup_parts(self.config(scheme=scheme)._setup):
            name = dataclasses.fields(part)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(part, name, None)

    @pytest.mark.parametrize("estimator", ["mle", "linear"])
    @pytest.mark.parametrize("scheme", SCHEMES[:-1])
    def test_configs_share_one_setup(self, scheme, estimator):
        configs = [self.config(scheme=scheme, estimator=estimator),
                   self.config(scheme=scheme, estimator=estimator, seed=6,
                               n_copies=400),
                   self.config(SweepConfig, scheme=scheme,
                               estimator=estimator)]
        assert all(c._setup is configs[0]._setup for c in configs)
        other = "linear" if estimator == "mle" else "mle"
        assert self.config(scheme=scheme,
                           estimator=other)._setup is not configs[0]._setup

    @pytest.mark.parametrize("cls", [SimConfig, SweepConfig])
    def test_custom_config_has_its_own_setup(self, cls):
        named = self.config(cls)._setup
        p = NAMED_POVMS["collective-sic"]
        a = self.config(cls, scheme="custom", povm=p)._setup
        b = self.config(cls, scheme="custom", povm=p)._setup
        assert a is not named and b is not named and a is not b
        assert a.povm is p
        for x, y in zip(setup_arrays(a), setup_arrays(named)):
            assert np.array_equal(x, y)


class TestRunSimulation:
    def base_config(self, **kw):
        args = dict(scheme="collective-sic", bloch=(0.5, 0.0, 0.0),
                    n_copies=400, n_trials=20, seed=77)
        args.update(kw)
        return SimConfig(**args)

    def test_record_keys(self):
        # the output contract of `fisym simulate`, written out in full
        assert list(run_simulation(self.base_config()).to_dict()) == [
            "scheme", "bloch", "estimator", "n_copies", "n_trials", "seed",
            "scaled_mse", "mse_stderr", "scaled_msb", "msb_stderr",
            "scaled_infidelity", "infidelity_stderr", "n_clipped",
            "counts_total"]

    def test_deterministic_in_seed(self):
        a = run_simulation(self.base_config())
        b = run_simulation(self.base_config())
        assert a.to_dict() == b.to_dict()

    def test_seed_changes_output(self):
        a = run_simulation(self.base_config())
        b = run_simulation(self.base_config(seed=78))
        assert a.scaled_mse != b.scaled_mse

    def test_linear_estimator_path(self):
        r = run_simulation(self.base_config(estimator="linear"))
        assert r.scaled_mse > 0
        assert r.counts_total.sum() == 20 * 200

    def test_copies_must_match_povm(self):
        with pytest.raises(ValueError):
            run_simulation(self.base_config(n_copies=401))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="bogus", bloch=(0, 0, 0), n_copies=10,
                      n_trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(scheme="custom", bloch=(0, 0, 0), n_copies=10,
                      n_trials=1, seed=0)
        with pytest.raises(ValueError):
            SimConfig(scheme="sic-single", bloch=(0, 0, 0), n_copies=10,
                      n_trials=0, seed=0)

    @pytest.mark.parametrize("bad", [
        {"n_copies": 0},
        {"n_copies": -2},
        {"seed": -1},
        {"bloch": (float("nan"), 0.0, 0.0)},
        {"bloch": (float("inf"), 0.0, 0.0)},
        {"bloch": (1.0, 1.0, 0.0)},
        {"n_copies": 401},
        {"scheme": "sic-single", "povm": NAMED_POVMS["collective-sic"]},
    ])
    def test_config_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            self.base_config(**bad)

    def test_configs_are_frozen(self):
        # a field set after construction would skip the checks and leave
        # the scheme's set-up stale
        for config in (self.base_config(), SweepConfig(
                scheme="collective-sic", radii=(0.5,), n_copies=400,
                n_trials=1, seed=0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.estimator = "linear"

    def test_to_dict_serializable(self):
        r = run_simulation(self.base_config(n_trials=3))
        json.dumps(r.to_dict())

    @pytest.mark.parametrize("estimator", ["linear", "mle"])
    def test_counts_total_sums_keyed_streams(self, estimator):
        # the batched count matrix keeps one RNG stream per (seed, trial)
        config = self.base_config(n_trials=7, estimator=estimator)
        p = scheme_povm(config.scheme)
        probs = outcome_probs(density_from_bloch(config.bloch), p)
        probs = probs / probs.sum()
        expected = sum(np.random.default_rng((config.seed, i)).multinomial(
            config.n_copies // p.copies, probs) for i in range(7))
        assert np.array_equal(run_simulation(config).counts_total, expected)

    @pytest.mark.parametrize("scheme, bloch, seed, expected", [
        ("sic-single", (0, 0, 0), 0, [1281, 1258, 1241, 1220]),
        ("sic-single", (0, 0, 0), 2**32 - 99991, [1284, 1274, 1223, 1219]),
        ("sic-single", (0.3, -0.2, 0.5), 0, [1711, 1258, 517, 1514]),
        ("sic-single", (0.3, -0.2, 0.5), 2**32 - 99991,
         [1712, 1273, 519, 1496]),
        ("mub-single", (0, 0, 0), 0, [825, 857, 827, 792, 882, 817]),
        ("mub-single", (0, 0, 0), 2**32 - 99991,
         [857, 862, 818, 802, 806, 855]),
        ("mub-single", (0.3, -0.2, 0.5), 0,
         [1091, 567, 669, 1008, 1253, 412]),
        ("mub-single", (0.3, -0.2, 0.5), 2**32 - 99991,
         [1116, 611, 657, 950, 1267, 399]),
        ("collective-sic", (0, 0, 0), 0, [435, 473, 492, 470, 630]),
        ("collective-sic", (0, 0, 0), 2**32 - 99991,
         [499, 487, 462, 430, 622]),
        ("collective-sic", (0.3, -0.2, 0.5), 0, [843, 470, 86, 723, 378]),
        ("collective-sic", (0.3, -0.2, 0.5), 2**32 - 99991,
         [884, 488, 68, 669, 391]),
    ])
    def test_counts_total_is_pinned(self, scheme, bloch, seed, expected):
        """The summed counts of 5 trials at N = 1000, recorded literally.

        ``Generator.multinomial`` changes its draws when a probability
        moves by one ulp, and a probability moves by one ulp when the
        Born-rule einsum sums in another order.  So a change to the
        sampling contraction can change every Monte Carlo output while
        each probability still agrees to rounding; these literals catch
        it, and show that a change to the estimators leaves sampling
        alone.
        """
        config = SimConfig(scheme=scheme, bloch=bloch, n_copies=1000,
                           n_trials=5, seed=seed)
        assert run_simulation(config).counts_total.tolist() == expected

    def test_non_finite_estimate_is_numerical_failure(self, monkeypatch):
        import fisym.tomosim as tomosim

        monkeypatch.setattr(tomosim, "_linear_bloch",
                            lambda counts, sys: np.full((len(counts), 3),
                                                        np.nan))
        with pytest.raises(ValueError, match="finite Bloch vector"):
            run_simulation(self.base_config(estimator="linear"))


class TestAsymptoticMetrics:
    def test_collective_sic_values(self):
        for s in (0.0, 0.5, 0.9):
            par = BlochQubit([s, 0.0, 0.0])
            p = scheme_povm("collective-sic")
            assert asymptotic_metrics(par, p, "hs") == pytest.approx(
                3.0 - s * s, abs=1e-12)
            assert asymptotic_metrics(par, p, "msb") == pytest.approx(
                1.5, abs=1e-12)

    def test_single_sic_center_values(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        p = scheme_povm("sic-single")
        assert asymptotic_metrics(par, p, "hs") == pytest.approx(4.5)
        assert asymptotic_metrics(par, p, "msb") == pytest.approx(2.25)

    def test_singular_information_rejected(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            asymptotic_metrics(par, z_basis_povm(), "hs")

    def test_unknown_weight_name(self):
        # an array, the explicit weight matrix once taken, is no name; it
        # raised numpy's "truth value of an array ... is ambiguous"
        par = BlochQubit([0.0, 0.0, 0.0])
        for weight in ("trace", 0.5 * np.eye(3)):
            with pytest.raises(ValueError, match="unknown weight"):
                asymptotic_metrics(par, scheme_povm("sic-single"), weight)


class TestSweep:
    def test_rows_and_csv(self, tmp_path):
        config = SweepConfig(scheme="collective-sic", radii=(0.0, 0.5),
                             n_copies=200, n_trials=5, seed=3)
        rows = sweep(config)
        assert len(rows) == 2
        for row in rows:
            assert tuple(row.keys()) == SWEEP_COLUMNS
        assert rows[0]["analytic_mse"] == pytest.approx(3.0)
        assert rows[1]["analytic_mse"] == pytest.approx(2.75)
        assert rows[0]["analytic_msb"] == pytest.approx(1.5)

        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        # the output contract of `fisym sweep`, written out in full
        assert lines[1] == ("s,scheme,scaled_mse,mse_stderr,scaled_msb,"
                            "msb_stderr,analytic_mse,analytic_msb")
        reader = csv.DictReader(lines[1:])
        parsed = list(reader)
        assert len(parsed) == 2
        assert float(parsed[1]["s"]) == pytest.approx(0.5)

    @pytest.mark.parametrize("scheme,estimator,seed,n_trials", [
        pytest.param("collective-sic", "linear", 9, 4,
                     id="collective-sic-linear"),
        pytest.param("sic-single", "linear", 9, 4, id="sic-single-linear"),
        pytest.param("collective-sic", "mle", 9, 4, id="collective-sic-mle"),
        # the grid seeds 2**32 - 99991, 2**32, 2**32 + 99991 take one, two
        # and two 32-bit words, so one batch hashes keys of two lengths
        pytest.param("sic-single", "linear", 2**32 - 99991, 4,
                     id="sic-single-linear-seeds-cross-word"),
        pytest.param("collective-sic", "mle", 2**32 - 99991, 4,
                     id="collective-sic-mle-seeds-cross-word"),
        pytest.param("mub-single", "linear", 9, 1,
                     id="mub-single-linear-one-trial"),
        pytest.param("custom", "linear", 9, 4, id="custom-linear"),
        pytest.param("custom", "mle", 2**32 - 99991, 1,
                     id="custom-mle-one-trial-seeds-cross-word")])
    def test_rows_match_independent_runs(self, scheme, estimator, seed,
                                         n_trials):
        # one batch per sweep must not change any grid point
        custom = (random_povm(np.random.default_rng(7), 2, 5)
                  if scheme == "custom" else None)
        config = SweepConfig(scheme=scheme, radii=(0.0, 0.4, 0.8),
                             n_copies=300, n_trials=n_trials, seed=seed,
                             direction=(1.0, -1.0, 0.5), estimator=estimator,
                             povm=custom)
        p = scheme_povm(scheme, custom)
        for idx, row in enumerate(sweep(config)):
            bloch = tuple(row["s"] * np.asarray(config.direction))
            sim = run_simulation(SimConfig(
                scheme=scheme, bloch=bloch, n_copies=300, n_trials=n_trials,
                seed=seed + 99991 * idx, estimator=estimator, povm=custom))
            if n_trials == 1:
                assert sim.mse_stderr == sim.msb_stderr == 0.0
            par = BlochQubit(bloch)
            # the analytic columns come from the scheme's Pauli model,
            # the reference from the chart's density matrix: equal to
            # rounding, not to the bit
            assert row == {
                "s": row["s"], "scheme": scheme,
                "scaled_mse": sim.scaled_mse, "mse_stderr": sim.mse_stderr,
                "scaled_msb": sim.scaled_msb, "msb_stderr": sim.msb_stderr,
                "analytic_mse": pytest.approx(
                    asymptotic_metrics(par, p, "hs"), rel=1e-12),
                "analytic_msb": pytest.approx(
                    asymptotic_metrics(par, p, "msb"), rel=1e-12),
            }

    @pytest.mark.parametrize("scheme", ["sic-single", "collective-sic"])
    def test_near_pure_radius_is_numerical_failure(self, monkeypatch,
                                                   scheme):
        # (1 - r)/2 = 5e-11 is below the rank tolerance: the Bures weight
        # J/4 of the analytic column is undefined there, and the columns
        # come first, so no trial runs; a collective-sic MLE sweep over
        # 2000 trials once ran 3 s of them before it failed
        def no_trials(*args):
            raise AssertionError("the Monte Carlo ran")

        monkeypatch.setattr(tomosim, "_simulate", no_trials)
        config = SweepConfig(scheme=scheme, radii=(0.3, 1.0 - 1e-10),
                             n_copies=100, n_trials=2, seed=1,
                             estimator="linear")
        with pytest.raises(ValueError, match="pure to within the rank "
                           "tolerance"):
            sweep(config)

    def test_direction_normalized(self):
        config = SweepConfig(scheme="sic-single", radii=(0.1,),
                             n_copies=100, n_trials=2, seed=1,
                             direction=(0.0, 2.0, 0.0))
        assert np.linalg.norm(config.direction) == pytest.approx(1.0)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(scheme="sic-single", radii=(1.0,), n_copies=10,
                        n_trials=1, seed=0)
        with pytest.raises(ValueError):
            SweepConfig(scheme="sic-single", radii=(), n_copies=10,
                        n_trials=1, seed=0)
        with pytest.raises(ValueError):
            SweepConfig(scheme="sic-single", radii=(0.5,), n_copies=10,
                        n_trials=1, seed=0, direction=(0, 0, 0))

    @pytest.mark.parametrize("bad", [
        {"scheme": "bogus"},
        {"scheme": "custom"},
        {"estimator": "nope"},
        {"n_trials": 0},
        {"povm": NAMED_POVMS["sic-single"]},
        {"scheme": "custom", "povm": z_basis_povm()},
        {"n_copies": 0},
        {"seed": -1},
        {"radii": (float("nan"),)},
        {"direction": (float("nan"), 0.0, 0.0)},
        {"direction": (float("inf"), 0.0, 0.0)},
    ])
    def test_config_validated_at_construction(self, bad):
        # the same checks as SimConfig, before any grid point runs
        args = dict(scheme="sic-single", radii=(0.5,), n_copies=10,
                    n_trials=1, seed=0)
        args.update(bad)
        with pytest.raises(ValueError):
            SweepConfig(**args)
