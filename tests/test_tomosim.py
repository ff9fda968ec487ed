import csv
import json

import numpy as np
import pytest
from conftest import random_povm, random_two_copy_povm

from fisym.cli import main
from fisym.opfile import povm_to_obj, save_json
from fisym.povm import (NAMED_POVMS, Povm, classify_coherent,
                        collective_sic_qubit,
                        twocopy_design_povm)
from fisym.designs import sic_qubit
from fisym.states import BlochQubit, density_from_bloch
from fisym.tomosim import (
    SCHEMES,
    SWEEP_COLUMNS,
    SimConfig,
    SweepConfig,
    asymptotic_metrics,
    estimate_linear_qubit,
    estimate_mle_qubit,
    run_simulation,
    sample_outcomes,
    scheme_povm,
    sweep,
    write_sweep_csv,
)
from fisym.tomosim import _quad_model  # noqa: the model must track the POVM
from fisym.tomosim import (_estimate, _linear_system, _pauli_coeffs,
                           _scheme_setup)
from fisym._tol import INTERIOR_CLIP
from fisym.fisher import outcome_probs


def z_basis_povm():
    return Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                copies=1, base_dim=2)


def exact_counts(bloch, p, n=10 ** 6):
    rho = density_from_bloch(bloch)
    return outcome_probs(rho, p) * n


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
        p = scheme_povm("custom", z_basis_povm())
        assert p.size == 2

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_povm("adaptive")

    def test_schemes_come_from_the_registry(self):
        assert set(SCHEMES) - {"custom"} <= set(NAMED_POVMS)
        # great-circle is named but not informationally complete
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
                assert np.max(np.abs(model.probs(s) - direct)) < 1e-13

    def test_model_gradients(self, rng):
        p = scheme_povm("collective-sic")
        model = _quad_model(p)
        s = np.array([0.3, -0.1, 0.2])
        h = 1e-7
        g = model.grads(s)
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd = (model.probs(s + e) - model.probs(s - e)) / (2 * h)
            assert np.max(np.abs(fd - g[:, a])) < 1e-6


class TestSampling:
    def test_counts_sum_and_determinism(self):
        rho = density_from_bloch([0.2, 0.1, -0.3])
        p = scheme_povm("sic-single")
        a = sample_outcomes(rho, p, 1000, np.random.default_rng(7))
        b = sample_outcomes(rho, p, 1000, np.random.default_rng(7))
        assert a.sum() == 1000
        assert np.array_equal(a, b)

    def test_incomplete_povm_rejected(self):
        rho = density_from_bloch([0.2, 0.1, -0.3])
        with pytest.raises(ValueError):
            sample_outcomes(rho, twocopy_design_povm(sic_qubit()), 100,
                            np.random.default_rng(0))


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


class TestIncompletePovm:
    # a sweep finds the first incomplete grid point as the per-point
    # runs did, with the same message
    @pytest.mark.parametrize("p", incomplete_povms())
    def test_sweep_and_simulation_raise(self, p):
        radii = (1.0 - 1e-16, 0.0, 0.5)
        totals = [outcome_probs(density_from_bloch([r, 0.0, 0.0]), p).sum()
                  for r in radii]
        first = next(t for t in totals if abs(t - 1.0) > 1e-9)
        config = SweepConfig(scheme="custom", radii=radii, n_copies=100,
                             n_trials=2, seed=1, estimator="linear", povm=p)
        with pytest.raises(ValueError) as exc:
            sweep(config)
        assert str(exc.value) == incomplete_message(first)
        with pytest.raises(ValueError) as exc:
            run_simulation(SimConfig(scheme="custom", bloch=(radii[1], 0, 0),
                                     n_copies=100, n_trials=2, seed=1,
                                     estimator="linear", povm=p))
        assert str(exc.value) == incomplete_message(totals[1])

    @pytest.mark.parametrize("p", incomplete_povms())
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
        est = estimate_linear_qubit(exact_counts(bloch, p), p)
        assert np.max(np.abs(est.matrix - density_from_bloch(bloch).matrix)) < 1e-12

    def test_result_stays_in_ball(self, rng):
        p = scheme_povm("sic-single")
        counts = np.array([900.0, 50.0, 25.0, 25.0])
        est = estimate_linear_qubit(counts, p)
        assert est.min_eigenvalue() > -1e-12

    def test_rank_deficient_povm_rejected(self):
        with pytest.raises(ValueError):
            estimate_linear_qubit(np.array([600.0, 400.0]), z_basis_povm())

    def test_count_validation(self):
        p = scheme_povm("sic-single")
        with pytest.raises(ValueError):
            estimate_linear_qubit(np.array([1.0, 2.0]), p)
        with pytest.raises(ValueError):
            estimate_linear_qubit(np.array([1.0, -2.0, 1.0, 1.0]), p)
        with pytest.raises(ValueError):
            estimate_linear_qubit(np.zeros(4), p)


class TestMleEstimator:
    @pytest.mark.parametrize("scheme", ["collective-sic", "sic-single"])
    def test_fixed_point_at_exact_frequencies(self, scheme):
        bloch = np.array([0.4, 0.1, -0.2])
        p = scheme_povm(scheme)
        est = estimate_mle_qubit(exact_counts(bloch, p), p)
        assert np.max(np.abs(est.matrix - density_from_bloch(bloch).matrix)) < 1e-6

    def test_never_below_linear_likelihood(self, rng):
        p = scheme_povm("collective-sic")
        model = _quad_model(p)
        rho = density_from_bloch([0.6, 0.2, 0.1])
        from fisym.states import bloch_from_density

        def loglik(counts, s):
            pr = np.clip(model.probs(s), 1e-300, None)
            return float(counts @ np.log(pr))

        for _ in range(10):
            counts = sample_outcomes(rho, p, 200, rng).astype(float)
            lin = estimate_linear_qubit(counts, p)
            mle = estimate_mle_qubit(counts, p)
            s_lin = bloch_from_density(lin)
            s_mle = bloch_from_density(mle)
            assert loglik(counts, s_mle) >= loglik(counts, s_lin) - 1e-9

    def test_converges_where_the_gradient_ascent_stalled(self):
        # projected gradient ascent stopped here at its iteration cap with
        # |grad l| / N = 4.6e-5, 9.1e-5 from the maximizer in x
        p = scheme_povm("mub-single")
        counts = np.array([271.0, 80.0, 69.0, 249.0, 217.0, 114.0])
        from fisym.states import bloch_from_density

        s = bloch_from_density(estimate_mle_qubit(counts, p))
        model = _quad_model(p)
        grad = (counts / model.probs(s)) @ model.grads(s)
        assert np.linalg.norm(grad) <= 1e-6 * counts.sum()
        assert abs(s[0] - 0.544160) < 1e-6

    def test_estimate_respects_clip(self):
        p = scheme_povm("sic-single")
        # all mass on one outcome pulls the estimate to the boundary
        counts = np.array([500.0, 0.0, 0.0, 0.0])
        clip = 0.9
        est = estimate_mle_qubit(counts, p, interior_clip=clip)
        from fisym.states import bloch_from_density

        assert np.linalg.norm(bloch_from_density(est)) <= clip

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


class TestRunSimulation:
    def base_config(self, **kw):
        args = dict(scheme="collective-sic", bloch=(0.5, 0.0, 0.0),
                    n_copies=400, n_trials=20, seed=77)
        args.update(kw)
        return SimConfig(**args)

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
    ])
    def test_config_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            self.base_config(**bad)

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

    def test_explicit_weight_matrix(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        p = scheme_povm("sic-single")
        byname = asymptotic_metrics(par, p, "hs")
        bymatrix = asymptotic_metrics(par, p, 0.5 * np.eye(3))
        assert byname == pytest.approx(bymatrix)

    def test_singular_information_rejected(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            asymptotic_metrics(par, z_basis_povm(), "hs")

    def test_unknown_weight_name(self):
        par = BlochQubit([0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            asymptotic_metrics(par, scheme_povm("sic-single"), "trace")


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
        custom = random_povm(np.random.default_rng(7), 2, 5)
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
    def test_near_pure_radius_is_numerical_failure(self, scheme):
        # (1 - r)/2 = 5e-11 is below the rank tolerance: the Bures weight
        # J/4 of the analytic column is undefined there
        config = SweepConfig(scheme=scheme, radii=(0.3, 1.0 - 1e-10),
                             n_copies=100, n_trials=2, seed=1,
                             estimator="linear")
        with pytest.raises(ValueError):
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
        {"interior_clip": 1.0},
        {"interior_clip": 0.0},
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
