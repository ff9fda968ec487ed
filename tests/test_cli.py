import json
import os
import subprocess
import sys

import numpy as np
import pytest

import fisym
from fisym import states
from fisym.cli import _choose_param, _parse_state, main
from fisym.designs import OperatorSet, WeightedStateSet, mub, sic_qubit
from fisym.opfile import (load_json, operator_set_to_obj, save_json,
                          state_set_to_obj)
from fisym.povm import NAMED_POVMS


# the maximally mixed qubit state as a file matrix
_HALF = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


class TestBuildVerify:
    def test_sic_qubit_roundtrip(self, capsys, tmp_path):
        path = str(tmp_path / "sic.json")
        code, _, _ = run(capsys, "build", "sic-qubit", "--out", path)
        assert code == 0
        code, report, _ = run(capsys, "verify", "sic", path)
        assert code == 0
        assert report["ok"] is True
        assert report["overlap_residual"] < 1e-12

    def test_sic_d3_with_phi(self, capsys, tmp_path):
        path = str(tmp_path / "sic3.json")
        code, _, _ = run(capsys, "build", "sic-d3", "--phi",
                         str(np.pi / 18), "--out", path)
        assert code == 0
        code, report, _ = run(capsys, "verify", "sic", path)
        assert code == 0
        assert report["elements"] == 9

    def test_mub_design(self, capsys, tmp_path):
        path = str(tmp_path / "mub3.json")
        assert run(capsys, "build", "mub", "--dim", "3", "--out", path)[0] == 0
        code, report, _ = run(capsys, "verify", "design2", path)
        assert code == 0
        assert report["is_design"] is True

    @pytest.mark.parametrize("dim", ["5", "1", "0", "-2"])
    def test_unsupported_mub_dim_is_usage_error(self, capsys, tmp_path, dim):
        path = tmp_path / "mub.json"
        with pytest.raises(SystemExit) as exc:
            main(["build", "mub", "--dim", dim, "--out", str(path)])
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err
        assert not path.exists()

    def test_collective_sic_chain(self, capsys, tmp_path):
        path = str(tmp_path / "coll.json")
        assert run(capsys, "build", "collective-sic", "--out", path)[0] == 0
        assert run(capsys, "verify", "povm", path)[0] == 0
        code, report, _ = run(capsys, "verify", "coherent", path)
        assert code == 0
        assert [c["kind"] for c in report["classes"]].count("sym-power") == 4
        code, report, _ = run(capsys, "verify", "tight-coherent", path)
        assert code == 0
        assert report["purity_target"] == pytest.approx(7 / 8)
        # the marginals' purity is 7/8 exactly, and the frame potential
        # meets its bound exactly
        cert = report["q_certificate"]
        assert (cert["purity"], cert["bound"], cert["slack"]) == (
            0.875, 1.1875, 0.0)

    def test_twocopy_design_and_companion(self, capsys, tmp_path):
        sic = str(tmp_path / "sic.json")
        two = str(tmp_path / "two.json")
        comp = str(tmp_path / "comp.json")
        run(capsys, "build", "sic-qubit", "--out", sic)
        assert run(capsys, "build", "twocopy-design", "--design", sic,
                   "--out", two)[0] == 0
        assert run(capsys, "verify", "povm", two)[0] == 0
        assert load_json(two)["subspace"] == "symmetric"
        assert run(capsys, "build", "companion", "--source", sic,
                   "--out", comp)[0] == 0
        assert run(capsys, "verify", "povm", comp)[0] == 0

    def test_tight_coherent_d3(self, capsys, tmp_path):
        path = str(tmp_path / "tc18.json")
        assert run(capsys, "build", "tight-coherent-d3", "--out", path)[0] == 0
        code, report, _ = run(capsys, "verify", "tight-coherent", path)
        assert code == 0
        assert report["purity_target"] == pytest.approx(5 / 6)
        assert report["antisym_gsic"]["is_gsic"] is True

    def test_missing_required_option(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "twocopy-design", "--out",
                           str(tmp_path / "x.json"))
        assert code == 2
        assert "design" in err

    def test_companion_needs_state_set(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "companion", "--out",
                           str(tmp_path / "x.json"))
        assert code == 2
        assert "state set" in err

    @pytest.mark.parametrize("option", [
        ("twocopy-design", "--design"),
        ("companion", "--source"),
        ("tight-coherent-d3", "--sic1"),
        ("tight-coherent-d3", "--sic2"),
    ], ids=lambda o: "-".join(o))
    @pytest.mark.parametrize("source", ["xz-bases", "two-copy-povm"])
    def test_input_file_unfit_for_the_construction_is_usage_error(
            self, capsys, tmp_path, option, source):
        # the input file, not the numerics, is at fault: exit 2, no output
        path = str(tmp_path / "in.json")
        if source == "xz-bases":
            # four qubit states, not a projective 2-design
            bx, _, bz = mub(2)
            vectors = np.concatenate([bx.T, bz.T])
            save_json(state_set_to_obj(WeightedStateSet(vectors,
                                                        np.full(4, 0.5))),
                      path)
        else:
            run(capsys, "build", "collective-sic", "--out", path)
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "build", *option, path, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("phi", ["nan", "inf"])
    def test_non_finite_phi_is_usage_error(self, tmp_path, phi):
        path = tmp_path / "sic3.json"
        with pytest.raises(SystemExit) as exc:
            main(["build", "sic-d3", "--phi", phi, "--out", str(path)])
        assert exc.value.code == 2
        assert not path.exists()


class TestNamedPovms:
    @pytest.mark.parametrize("name", sorted(NAMED_POVMS))
    def test_built_file_gives_the_named_report(self, capsys, tmp_path, name):
        # every registered name builds, and the file stands in for the name
        path = str(tmp_path / f"{name}.json")
        assert run(capsys, "build", name, "--out", path)[0] == 0
        assert run(capsys, "verify", "povm", path)[0] == 0
        state = ["--state", "bloch:0.3,-0.2,0.5"]
        code, by_name, _ = run(capsys, "fisher", "--povm", name, *state)
        assert code == 0
        assert run(capsys, "fisher", "--povm", path, *state)[1] == by_name


class TestVerifyFailures:
    def test_tampered_file_fails(self, capsys, tmp_path):
        path = str(tmp_path / "coll.json")
        run(capsys, "build", "collective-sic", "--out", path)
        obj = load_json(path)
        obj["elements"][0]["matrix"][0][0][0] *= 1.5
        save_json(obj, path)
        code, report, _ = run(capsys, "verify", "povm", path)
        assert code == 1
        assert report["ok"] is False

    def test_tol_does_not_leak_into_next_call(self, capsys, tmp_path):
        # main() reuses one parser; --tol must fall back to its default
        path = str(tmp_path / "coll.json")
        run(capsys, "build", "collective-sic", "--out", path)
        obj = load_json(path)
        obj["elements"][0]["matrix"][0][0][0] *= 1.0 + 1e-6
        save_json(obj, path)
        assert run(capsys, "verify", "povm", path, "--tol", "1e-3")[0] == 0
        assert run(capsys, "verify", "povm", path)[0] == 1
        assert run(capsys, "verify", "povm", path, "--tol", "1e-3")[0] == 0

    def test_coherent_honours_tol(self, capsys, tmp_path):
        # a 1e-6 diagonal shift gives element 0 a second small eigenvalue
        path = str(tmp_path / "coll.json")
        run(capsys, "build", "collective-sic", "--out", path)
        obj = load_json(path)
        obj["elements"][0]["matrix"][0][0][0] += 1e-6
        save_json(obj, path)
        code, report, _ = run(capsys, "verify", "coherent", path,
                              "--tol", "1e-3")
        assert (code, report["coherent"]) == (0, True)
        code, report, _ = run(capsys, "verify", "coherent", path)
        assert (code, report["coherent"]) == (1, False)

    def test_unassemblable_content_fails(self, capsys, tmp_path):
        path = str(tmp_path / "bad.json")
        run(capsys, "build", "collective-sic", "--out", path)
        obj = load_json(path)
        del obj["elements"][0]["matrix"][0]  # no longer square
        save_json(obj, path)
        code, report, _ = run(capsys, "verify", "povm", path)
        assert code == 1
        assert report["ok"] is False
        assert "error" in report

    @pytest.mark.parametrize("kind", ["povm", "gdesign2", "sic"])
    @pytest.mark.parametrize("spoil", [
        lambda obj: obj["elements"][0].pop("matrix"),
        lambda obj: obj["elements"].__setitem__(0, []),
        lambda obj: obj.update(dim=None),
        lambda obj: obj.update(copies=[1]),
        lambda obj: obj.update(dim=2.7),
        lambda obj: obj.update(copies=1.5),
        # the same entries as a string and as a boolean are not numbers
        lambda obj: obj["elements"][0]["matrix"][0][0].__setitem__(
            0, repr(obj["elements"][0]["matrix"][0][0][0])),
        lambda obj: obj["elements"][0]["matrix"][0][0].__setitem__(1, False),
    ], ids=["no-matrix", "list-element", "null-dim", "list-copies",
            "fractional-dim", "fractional-copies", "string-entry",
            "bool-entry"])
    def test_malformed_file_fails_the_check(self, capsys, tmp_path, kind,
                                            spoil):
        # a key that is missing or of the wrong type is content that cannot
        # be assembled, not a crash
        path = str(tmp_path / "bad.json")
        run(capsys, "build", "sic-qubit", "--out", path)
        obj = load_json(path)
        spoil(obj)
        save_json(obj, path)
        code, report, _ = run(capsys, "verify", kind, path)
        assert code == 1
        assert report["ok"] is False
        assert "error" in report

    @pytest.mark.parametrize("kind", ["sic", "design2"])
    @pytest.mark.parametrize("weight", ["0.5", True])
    def test_non_numeric_weight_fails_the_check(self, capsys, tmp_path, kind,
                                                weight):
        # state-set readers take weights as JSON numbers only
        path = str(tmp_path / "bad.json")
        run(capsys, "build", "sic-qubit", "--out", path)
        obj = load_json(path)
        obj["elements"][0]["weight"] = weight
        save_json(obj, path)
        code, report, _ = run(capsys, "verify", kind, path)
        assert code == 1
        assert report["ok"] is False
        assert "not a number" in report["error"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "povm",
                           str(tmp_path / "nope.json"))
        assert code == 2
        assert "no such file" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "verify", "povm", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_unknown_kind_is_argparse_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["verify", "frame", str(tmp_path / "x.json")])


class TestVerifyOperatorSets:
    def test_gsic_from_projectors(self, capsys, tmp_path):
        ops = OperatorSet(tuple(sic_qubit().projectors()))
        path = str(tmp_path / "gsic.json")
        save_json(operator_set_to_obj(ops), path)
        code, report, _ = run(capsys, "verify", "gsic", path)
        assert code == 0
        assert report["alpha"] == pytest.approx(1 / 6)

    def test_gdesign2_smeared(self, capsys, tmp_path):
        ops = OperatorSet(tuple(p + 0.5 * np.eye(2)
                                for p in sic_qubit().projectors()))
        path = str(tmp_path / "g2.json")
        save_json(operator_set_to_obj(ops), path)
        code, report, _ = run(capsys, "verify", "gdesign2", path)
        assert code == 0
        assert report["purity"] == pytest.approx(0.625)

    def test_random_operators_fail_gdesign2(self, capsys, tmp_path, rng):
        elems = []
        for _ in range(5):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            elems.append(g @ g.conj().T)
        path = str(tmp_path / "rand.json")
        save_json(operator_set_to_obj(OperatorSet(tuple(elems))), path)
        assert run(capsys, "verify", "gdesign2", path)[0] == 1


class TestFisherCommand:
    def test_collective_sic_report(self, capsys):
        code, report, _ = run(capsys, "fisher", "--povm", "collective-sic",
                              "--state", "bloch:0.5,0,0")
        assert code == 0
        assert report["gm"]["value"] == pytest.approx(3.0, abs=1e-9)
        assert report["gm"]["verdict"] == "equality"
        assert report["symmetry"]["verdict"] == "fisher-symmetric"

    @pytest.mark.parametrize("param", ["auto", "bloch"])
    def test_bloch_state_built_once(self, capsys, monkeypatch, param):
        built = []
        monkeypatch.setattr(states, "density_from_bloch",
                            lambda s, make=states.density_from_bloch:
                            built.append(s) or make(s))
        code, report, _ = run(capsys, "fisher", "--povm", "collective-sic",
                              "--state", "bloch:0.5,0.1,0", "--param", param)
        assert code == 0
        assert len(built) == 1
        assert report["gm"]["verdict"] == "equality"

    def test_pure_state_spec(self, capsys):
        code, report, _ = run(capsys, "fisher", "--povm", "great-circle",
                              "--state", "pure:1,1")
        assert code == 0
        assert report["gm"]["mode"] == "pure-n"

    @pytest.mark.parametrize("spec", ["pure:0.6,0.8j", "pure:1,2j,-2",
                                      "bloch:0.9999999986,0,0"])
    def test_pure_chart_is_based_at_the_state(self, spec):
        rho = _parse_state(spec)
        par = _choose_param(rho, "auto")
        assert isinstance(par, states.PureCanonical)
        assert np.allclose(par.base().matrix, rho.matrix, atol=1e-9)

    def test_state_from_file(self, capsys, tmp_path):
        path = str(tmp_path / "rho.json")
        rho = np.diag([0.75, 0.25]).astype(complex)
        obj = {"dim": 2, "copies": 1, "elements": [
            {"matrix": [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]}]}
        save_json(obj, path)
        code, report, _ = run(capsys, "fisher", "--povm", "sic-single",
                              "--state", path)
        assert code == 0
        assert report["gm"]["verdict"] == "equality"

    def test_explicit_mode_and_param(self, capsys):
        code, report, _ = run(capsys, "fisher", "--povm", "collective-sic",
                              "--state", "bloch:0.3,0.1,0", "--param",
                              "affine", "--mode", "two-copy")
        assert code == 0
        assert report["n_params"] == 3

    @pytest.mark.filterwarnings("ignore:outcome .* dropped")
    def test_drop_threshold_reaches_verdicts(self, capsys):
        code, report, _ = run(capsys, "fisher", "--povm", "sic-single",
                              "--state", "bloch:0,0,0.9",
                              "--drop-threshold", "0.2")
        assert code == 0
        assert len(report["dropped_outcomes"]) == 2
        i_mat = np.array(report["i_matrix"])
        j_mat = np.array(report["j_matrix"])
        fit = np.sum(j_mat * i_mat) / np.sum(j_mat * j_mat)
        assert fit == pytest.approx(0.0268, abs=1e-4)
        assert report["symmetry"]["scale_fit"] == pytest.approx(fit, rel=1e-9)
        assert report["gm"]["value"] == pytest.approx(
            np.trace(np.linalg.solve(j_mat, i_mat)), rel=1e-9)

    @pytest.mark.filterwarnings("ignore:outcome .* dropped")
    def test_options_do_not_leak_into_next_call(self, capsys):
        # main() reuses one parser; a non-default option must not stick
        argv = ["fisher", "--povm", "sic-single", "--state", "bloch:0,0,0.9"]
        raised = run(capsys, *argv, "--drop-threshold", "0.2")[1]
        plain = run(capsys, *argv)[1]
        assert len(raised["dropped_outcomes"]) == 2
        assert plain["dropped_outcomes"] == []
        assert plain == run(capsys, *argv, "--drop-threshold", "1e-12")[1]

    @pytest.mark.parametrize("spec", ["bloch:nan,0,0", "bloch:0,inf,0",
                                      "bloch:2,0,0", "pure:nan,1",
                                      "pure:inf,1", "pure:1,0,0", "pure:1"])
    def test_bad_state_is_usage_error(self, capsys, spec):
        code, _, err = run(capsys, "fisher", "--povm", "sic-single",
                           "--state", spec)
        assert code == 2
        assert "numerical failure" not in err

    # each content pairs a state file with a part of the error it must give
    @pytest.mark.parametrize("content", [
        ([1, 2, 3], "JSON object"),
        ({"dim": 2, "copies": 1, "elements": [{"weight": 1.0}]},
         "'matrix' field"),
        ({"dim": 2, "copies": 1,
          "elements": [{"matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [float("nan"), 0.0]]]}]},
         "finite"),
        # a valid matrix under a header that does not match it, or none
        ({"dim": 3, "copies": 1, "elements": [{"matrix": _HALF}]},
         "header dim 3"),
        ({"dim": 2, "copies": 2, "elements": [{"matrix": _HALF}]},
         "copies 1"),
        ({"elements": [{"matrix": _HALF}]}, "'dim' field"),
        # entries that are strings or booleans, not numbers
        ({"dim": 2, "copies": 1, "elements": [{"matrix": [
            [["0.5", 0], [0, 0]], [[0, 0], ["0.5", 0]]]}]}, "not a number"),
        ({"dim": 2, "copies": 1, "elements": [{"matrix": [
            [[0.5, False], [0, 0]], [[0, 0], [0.5, False]]]}]},
         "not a number"),
    ])
    def test_malformed_state_file_is_usage_error(self, capsys, tmp_path,
                                                 content):
        obj, reason = content
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(obj))
        code, _, err = run(capsys, "fisher", "--povm", "sic-single",
                           "--state", str(path))
        assert code == 2
        assert reason in err

    def test_malformed_povm_file_is_usage_error(self, capsys, tmp_path):
        path = str(tmp_path / "coll.json")
        run(capsys, "build", "collective-sic", "--out", path)
        obj = load_json(path)
        del obj["elements"][0]["matrix"]
        save_json(obj, path)
        code, _, err = run(capsys, "fisher", "--povm", path,
                           "--state", "bloch:0,0,0")
        assert code == 2
        assert "bad POVM file" in err

    def test_bad_povm_spec(self, capsys):
        code, _, err = run(capsys, "fisher", "--povm", "unknown-name",
                           "--state", "bloch:0,0,0")
        assert code == 2
        assert all(name in err for name in NAMED_POVMS)

    def test_pure_chart_needs_pure_state(self, capsys):
        code, _, err = run(capsys, "fisher", "--povm", "sic-single",
                           "--state", "bloch:0.5,0,0", "--param", "pure")
        assert code == 2

    @pytest.mark.parametrize("name", ["sic-single", "collective-sic"])
    def test_near_pure_full_rank_state(self, capsys, name):
        # lambda_min = 5e-9 is above the rank tolerance, so the SLD is
        # solved in the eigenbasis, where it grows like 1/lambda_min and
        # so does the rounding of its residual
        r = 0.99999999
        code, report, err = run(capsys, "fisher", "--povm", name,
                                "--state", f"bloch:{r},0,0")
        assert code == 0, err
        assert report["j_matrix"][0][0] == pytest.approx(1.0 / (1.0 - r * r),
                                                         rel=1e-6)

    def test_state_at_the_rank_tolerance_is_pure(self, capsys):
        # lambda_min = 7e-10 <= RANK_TOL: pure for the chart, the mode and
        # the SLD solve alike
        code, report, err = run(capsys, "fisher", "--povm", "collective-sic",
                                "--state", "bloch:0.9999999986,0,0")
        assert code == 0, err
        assert report["gm"]["mode"] == "pure-n"
        assert report["n_params"] == 2

    @pytest.mark.filterwarnings("ignore:outcome 4 dropped")
    def test_boundary_state_numerical_failure(self, capsys):
        # a pure state in the mixed Bloch chart has no finite QFI
        code, _, err = run(capsys, "fisher", "--povm", "collective-sic",
                           "--state", "bloch:0,0,1", "--param", "bloch")
        assert code == 3
        assert "numerical failure" in err


class TestSimulateCommand:
    def write_config(self, tmp_path, **extra):
        obj = {"scheme": "sic-single", "bloch": [0.5, 0.0, 0.0],
               "n_copies": 300, "n_trials": 5, "seed": 11}
        obj.update(extra)
        path = str(tmp_path / "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    def test_run_writes_result(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        out = str(tmp_path / "result.json")
        code, report, _ = run(capsys, "simulate", "--config", config,
                              "--out", out)
        assert code == 0
        assert report["scaled_mse"] > 0
        assert load_json(out) == report

    def test_deterministic(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        a = run(capsys, "simulate", "--config", config)[1]
        b = run(capsys, "simulate", "--config", config)[1]
        assert a == b

    def test_missing_seed(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        obj = load_json(config)
        del obj["seed"]
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, _, err = run(capsys, "simulate", "--config", config)
        assert code == 2
        assert "seed" in err

    def test_bad_scheme(self, capsys, tmp_path):
        config = self.write_config(tmp_path, scheme="bogus")
        assert run(capsys, "simulate", "--config", config)[0] == 2

    @pytest.mark.parametrize("bad", [{"n_copies": 0}, {"seed": -1},
                                     {"n_trials": float("inf")},
                                     {"bloch": [float("nan"), 0.0, 0.0]},
                                     {"bloch": [2.0, 0.0, 0.0]},
                                     {"n_copies": 300.7}, {"seed": 1.5},
                                     {"n_trials": 5.5}, {"seed": True},
                                     {"n_trials": "3"},
                                     {"estimater": "linear"},
                                     {"radii": [0.5]},
                                     {"interior_clip": "0.5"},
                                     {"bloch": ["0.5", 0, 0]},
                                     {"bloch": [True, 0, 0]}])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, bad):
        config = self.write_config(tmp_path, **bad)
        code, _, err = run(capsys, "simulate", "--config", config)
        assert code == 2
        assert "bad simulation config" in err

    def test_integral_floats_run_as_integers(self, capsys, tmp_path):
        as_int = run(capsys, "simulate", "--config",
                     self.write_config(tmp_path))[1]
        as_float = run(capsys, "simulate", "--config", self.write_config(
            tmp_path, n_copies=300.0, n_trials=5.0, seed=11.0))[1]
        assert as_float == as_int

    def test_incompatible_copies(self, capsys, tmp_path):
        config = self.write_config(tmp_path, scheme="collective-sic",
                                   n_copies=301)
        code, _, err = run(capsys, "simulate", "--config", config)
        assert code == 3

    def test_oversized_run_is_numerical_failure(self, capsys, tmp_path):
        # 10**15 trials ask for petabytes, so the first allocation fails
        config = self.write_config(tmp_path, n_trials=10 ** 15,
                                   estimator="linear")
        code, out, err = run(capsys, "simulate", "--config", config)
        assert code == 3
        assert out is None
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("estimator", ["linear", "mle"])
    def test_custom_povm_file_gives_the_named_run(self, capsys, tmp_path,
                                                  estimator):
        path = str(tmp_path / "sic.json")
        run(capsys, "build", "sic-single", "--out", path)
        named = run(capsys, "simulate", "--config", self.write_config(
            tmp_path, estimator=estimator))[1]
        custom = run(capsys, "simulate", "--config", self.write_config(
            tmp_path, estimator=estimator, scheme="custom", povm=path))[1]
        assert (named.pop("scheme"), custom.pop("scheme")) == (
            "sic-single", "custom")
        assert custom == named

    def test_povm_must_be_a_path(self, tmp_path):
        # an int names a file descriptor; reading fd 2 would close the
        # run's stderr, so this runs in its own process
        config = self.write_config(tmp_path, scheme="custom", povm=2)
        src = os.path.dirname(os.path.dirname(fisym.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "fisym.cli", "simulate", "--config",
             config], stdin=subprocess.DEVNULL, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert proc.returncode == 2
        assert "no such file: 2" in proc.stderr

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the reader closes the pipe before the result is written, as
        # `fisym simulate ... | head -2` does on a longer output
        config = self.write_config(tmp_path, estimator="linear")
        src = os.path.dirname(os.path.dirname(fisym.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "fisym.cli", "simulate", "--config",
             config], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src})
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    def test_povm_file_needs_custom_scheme(self, capsys, tmp_path):
        path = str(tmp_path / "sic.json")
        run(capsys, "build", "sic-single", "--out", path)
        config = self.write_config(tmp_path, povm=path)
        code, _, err = run(capsys, "simulate", "--config", config)
        assert code == 2
        assert "bad simulation config" in err


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("content", ['"povm"', '["povm"]', "null"])
def test_config_must_be_an_object(capsys, tmp_path, command, content):
    # a JSON string may hold "povm", but it is no config
    config = tmp_path / "config.json"
    config.write_text(content)
    code, _, err = run(capsys, command, "--config", str(config), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert "JSON object" in err


class TestSweepCommand:
    def test_writes_csv(self, capsys, tmp_path):
        config = str(tmp_path / "sweep.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"scheme": "collective-sic", "radii": [0.0, 0.5],
                       "n_copies": 200, "n_trials": 3, "seed": 5}, fh)
        out = str(tmp_path / "rows.csv")
        code, _, err = run(capsys, "sweep", "--config", config, "--out", out)
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("#")
        assert lines[1].split(",")[0] == "s"
        assert len(lines) == 4

    @pytest.mark.parametrize("bad", [{"scheme": "bogus"},
                                     {"estimator": "nope"},
                                     {"n_trials": 0},
                                     {"n_copies": 0},
                                     {"seed": -1},
                                     {"radii": [float("nan")]},
                                     {"n_copies": 200.5}, {"seed": 5.5},
                                     {"n_trials": 3.5}, {"n_copies": True},
                                     {"seed": "5"},
                                     {"bloch": [0.5, 0.0, 0.0]},
                                     {"radii": ["0.5"]},
                                     {"radii": [False, 0.5]},
                                     {"direction": ["1", 0, "0"]},
                                     {"direction": [True, 0, 0]}])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, bad):
        obj = {"scheme": "collective-sic", "radii": [0.0, 0.5],
               "n_copies": 200, "n_trials": 3, "seed": 5}
        obj.update(bad)
        config = str(tmp_path / "sweep.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        code, _, err = run(capsys, "sweep", "--config", config, "--out",
                           str(tmp_path / "rows.csv"))
        assert code == 2
        assert "bad sweep config" in err

    def test_near_pure_radius_is_numerical_failure(self, capsys, tmp_path):
        config = str(tmp_path / "sweep.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"scheme": "sic-single", "radii": [0.5, 1.0 - 1e-10],
                       "n_copies": 200, "n_trials": 3, "seed": 5,
                       "estimator": "linear"}, fh)
        code, _, err = run(capsys, "sweep", "--config", config, "--out",
                           str(tmp_path / "rows.csv"))
        assert code == 3
        assert err.startswith("numerical failure")

    def test_povm_file_needs_custom_scheme(self, capsys, tmp_path):
        path = str(tmp_path / "coll.json")
        run(capsys, "build", "collective-sic", "--out", path)
        config = str(tmp_path / "sweep.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump({"scheme": "collective-sic", "radii": [0.0, 0.5],
                       "n_copies": 200, "n_trials": 3, "seed": 5,
                       "povm": path}, fh)
        code, _, err = run(capsys, "sweep", "--config", config, "--out",
                           str(tmp_path / "rows.csv"))
        assert code == 2
        assert "bad sweep config" in err
