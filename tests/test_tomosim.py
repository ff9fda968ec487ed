import csv
import json

import numpy as np
import pytest

from fisym.povm import Povm, collective_sic_qubit, twocopy_design_povm
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

    def test_estimate_respects_clip(self):
        p = scheme_povm("sic-single")
        # all mass on one outcome pulls the estimate to the boundary
        counts = np.array([500.0, 0.0, 0.0, 0.0])
        clip = 0.9
        est = estimate_mle_qubit(counts, p, interior_clip=clip)
        from fisym.states import bloch_from_density

        assert np.linalg.norm(bloch_from_density(est)) <= clip + 1e-12


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

    @pytest.mark.parametrize("scheme,estimator", [
        ("collective-sic", "linear"), ("sic-single", "linear"),
        ("collective-sic", "mle")])
    def test_rows_match_independent_runs(self, scheme, estimator):
        # one set-up per sweep must not change any grid point
        config = SweepConfig(scheme=scheme, radii=(0.0, 0.4, 0.8),
                             n_copies=300, n_trials=4, seed=9,
                             direction=(1.0, -1.0, 0.5), estimator=estimator)
        p = scheme_povm(scheme)
        for idx, row in enumerate(sweep(config)):
            bloch = tuple(row["s"] * np.asarray(config.direction))
            sim = run_simulation(SimConfig(
                scheme=scheme, bloch=bloch, n_copies=300, n_trials=4,
                seed=9 + 99991 * idx, estimator=estimator))
            par = BlochQubit(bloch)
            assert row == {
                "s": row["s"], "scheme": scheme,
                "scaled_mse": sim.scaled_mse, "mse_stderr": sim.mse_stderr,
                "scaled_msb": sim.scaled_msb, "msb_stderr": sim.msb_stderr,
                "analytic_mse": asymptotic_metrics(par, p, "hs"),
                "analytic_msb": asymptotic_metrics(par, p, "msb"),
            }

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
    ])
    def test_config_validated_at_construction(self, bad):
        # the same checks as SimConfig, before any grid point runs
        args = dict(scheme="sic-single", radii=(0.5,), n_copies=10,
                    n_trials=1, seed=0)
        args.update(bad)
        with pytest.raises(ValueError):
            SweepConfig(**args)
