import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import fisym
from fisym import cli, fisher, states
from fisym.cli import _choose_param, _parse_state, main
from fisym.designs import OperatorSet, WeightedStateSet, mub, sic_qubit
from fisym.opfile import (_stack, load_json, matrix_to_json,
                          operator_set_to_obj, povm_to_obj, save_json,
                          state_set_to_obj)
from fisym.povm import NAMED_POVMS, Povm


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

    def test_coherent_kinds_classify_at_one_tol(self, capsys, tmp_path):
        # element 0 becomes w (psi psi + 5e-9 chi chi) with chi symmetric
        # and orthogonal to psi psi; its class residual, about 2.5e-9,
        # lies between the two tolerances
        path = str(tmp_path / "tc18.json")
        run(capsys, "build", "tight-coherent-d3", "--out", path)
        obj = load_json(path)
        e = _stack([obj["elements"][0]["matrix"]])[0]
        marginal = e.reshape(3, 3, 3, 3).trace(axis1=0, axis2=2)
        psi = np.linalg.eigh(marginal)[1][:, -1]
        a = np.linalg.qr(np.column_stack([psi, np.eye(3)[:, :2]]))[0][:, 1]
        pp = np.kron(psi, psi)
        chi = (np.kron(psi, a) + np.kron(a, psi)) / np.sqrt(2.0)
        e = np.trace(e).real * (np.outer(pp, pp.conj())
                                + 5e-9 * np.outer(chi, chi.conj()))
        obj["elements"][0]["matrix"] = matrix_to_json(e)
        save_json(obj, path)
        for tol, coherent in (("1e-8", True), ("1e-9", False)):
            for kind in ("coherent", "tight-coherent"):
                report = run(capsys, "verify", kind, path, "--tol", tol)[1]
                assert report["coherent"] is coherent

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
    @pytest.mark.parametrize("source", ["xz-bases", "two-copy-povm",
                                        "directory"])
    def test_input_file_unfit_for_the_construction_is_usage_error(
            self, capsys, tmp_path, option, source):
        # the input file, not the numerics, is at fault: exit 2, no output
        path = str(tmp_path / "in.json")
        if source == "directory":
            os.mkdir(path)
        elif source == "xz-bases":
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


def _choices(command, dest):
    """The choices that the parser of ``command`` offers for ``dest``."""
    sub = cli._parser()._subparsers._group_actions[0].choices[command]
    return next(a.choices for a in sub._actions if a.dest == dest)


def test_parser_choices_come_from_the_dispatch_tables():
    # a name added to a table is offered by the parser, and only those
    assert _choices("build", "name") == list(cli._BUILDS)
    assert _choices("verify", "kind") == sorted(cli._VERIFIERS)
    assert _choices("fisher", "mode") == ["auto", *fisher._MODES]


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

    @pytest.mark.parametrize("tol", ["-1", "-1e-300"])
    def test_negative_tol_is_usage_error(self, capsys, tmp_path, tol):
        # no residual can be below it, so every check would fail
        path = str(tmp_path / "cs.json")
        run(capsys, "build", "collective-sic", "--out", path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "povm", path, f"--tol={tol}"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

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

    @pytest.mark.parametrize("kind", ["gdesign2", "gsic"])
    def test_one_dimensional_set_fails_the_check(self, capsys, tmp_path,
                                                 kind):
        # the 2-design bound divides by d^2 - 1 and the SIC fit averages
        # d^2 (d^2 - 1) overlaps: d = 1 ended in a ZeroDivisionError
        # traceback (gdesign2) and in NaN after numpy's warning (gsic)
        path = tmp_path / "one-d1.json"
        path.write_text(json.dumps({"dim": 1, "copies": 1, "elements": [
            {"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = run(capsys, "verify", kind, str(path))
        assert (code, err) == (1, "")
        assert report == {"ok": False, "error": "generalized designs need "
                                                "dimension at least 2"}


class TestStrictJson:
    def test_non_finite_output_is_numerical_failure(self, capsys, tmp_path,
                                                    monkeypatch):
        # RFC 8259 has no NaN: stdout carries strict JSON or nothing
        monkeypatch.setitem(cli._VERIFIERS, "povm", lambda obj, tol: (
            True, {"ok": True, "residual": float("nan")}))
        path = str(tmp_path / "sic.json")
        run(capsys, "build", "sic-qubit", "--out", path)
        code, out, err = run(capsys, "verify", "povm", path)
        assert (code, out) == (3, None)
        assert err.startswith("numerical failure: Out of range float values "
                              "are not JSON compliant")


def _scaled_collective_sic(path):
    # entries up to 1.5e149 pass the reader's bound of 1e150, but their
    # squares summed in a Frobenius norm of a 4 x 4 element overflow
    obj = povm_to_obj(NAMED_POVMS["collective-sic"])
    for e in obj["elements"]:
        e["matrix"] = (np.array(e["matrix"]) * 1e149).tolist()
    save_json(obj, path)
    return path


def _heavy_sic(path):
    # weights of 1e308 overflow the frame potential, a sum of w_i w_j |.|^2
    obj = state_set_to_obj(sic_qubit())
    for e in obj["elements"]:
        e["weight"] = 1e308
    save_json(obj, path)
    return path


class TestOverflow:
    # found by test_cli_properties.py: an overflow printed numpy's
    # RuntimeWarning and the request went on with infinities, to a
    # verdict (coherent), to NaN (the design slack that build reported)
    # or to a misleading message (simulate); simulate on the scaled file,
    # which is no POVM, exits 2 before any overflow
    # (test_povm_file_that_is_not_a_measurement_is_usage_error)
    @pytest.mark.parametrize("make, argv", [
        (_scaled_collective_sic, ["verify", "coherent", "{}"]),
        (_scaled_collective_sic, ["verify", "tight-coherent", "{}"]),
        (_heavy_sic, ["verify", "sic", "{}"]),
    ])
    def test_overflow_is_numerical_failure(self, capsys, tmp_path, make,
                                           argv):
        path = make(str(tmp_path / "in.json"))
        code, out, err = run(capsys, *(a.format(path) for a in argv))
        assert (code, out) == (3, None)
        assert err.startswith("numerical failure: overflow encountered")

    def test_overflow_in_an_input_file_is_usage_error(self, capsys, tmp_path):
        # as any other input file unfit for the construction
        path = _heavy_sic(str(tmp_path / "in.json"))
        out = tmp_path / "out.json"
        code, _, err = run(capsys, "build", "companion", "--source", path,
                           "--out", str(out))
        assert code == 2
        assert err.startswith("error: unfit input file: overflow encountered")
        assert not out.exists()


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

    @pytest.mark.parametrize("spec,param", [
        ("pure:1,1", "auto"), ("pure:0.6,0.8j", "pure"), ("pure:1,2j", "auto"),
        ("bloch:0.5,0.1,0", "auto"), ("bloch:0.5,0.1,0", "affine"),
        ("bloch:1,0,0", "auto"), ("bloch:0.9999999986,0,0", "pure")])
    def test_state_built_once(self, capsys, monkeypatch, spec, param):
        # the chart, the pure one included, is based at the parsed state
        built = []
        check = states.DensityMatrix.__post_init__
        monkeypatch.setattr(states.DensityMatrix, "__post_init__",
                            lambda rho: built.append(rho) or check(rho))
        code, report, _ = run(capsys, "fisher", "--povm", "sic-single",
                              "--state", spec, "--param", param)
        assert code == 0
        assert len(built) == 1
        assert report["gm"]["verdict"] == "equality"

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

    def test_drop_threshold_reaches_verdicts(self, capsys):
        # at |0> the great-circle outcome |1><1|/2 has probability and
        # derivative 0 and is dropped; the verdicts use the I returned
        code, report, _ = run(capsys, "fisher", "--povm", "great-circle",
                              "--state", "pure:1,0")
        assert code == 0
        assert report["dropped_outcomes"] == [
            {"index": 1, "probability": 0.0, "max_derivative": 0.0}]
        i_mat = np.array(report["i_matrix"])
        j_mat = np.array(report["j_matrix"])
        fit = np.sum(j_mat * i_mat) / np.sum(j_mat * j_mat)
        assert fit == pytest.approx(0.25, rel=1e-12)
        assert report["symmetry"]["scale_fit"] == pytest.approx(fit, rel=1e-9)
        assert report["gm"]["value"] == pytest.approx(
            np.trace(np.linalg.solve(j_mat, i_mat)), rel=1e-9)

    def test_drop_threshold_is_not_an_option(self, capsys):
        # the drop rule is the constant _tol.DROP_THRESHOLD
        with pytest.raises(SystemExit) as exc:
            main(["fisher", "--povm", "sic-single", "--state",
                  "bloch:0,0,0.9", "--drop-threshold", "0.2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_options_do_not_leak_into_next_call(self, capsys):
        # main() reuses one parser; a non-default option must not stick
        argv = ["fisher", "--povm", "collective-sic", "--state",
                "bloch:0.3,0.1,0"]
        single = run(capsys, *argv, "--mode", "single-copy")[1]
        plain = run(capsys, *argv)[1]
        assert single["gm"]["mode"] == "single-copy"
        assert plain["gm"]["mode"] == "two-copy"
        assert plain == run(capsys, *argv, "--mode", "auto")[1]

    @pytest.mark.parametrize("spec", ["bloch:nan,0,0", "bloch:0,inf,0",
                                      "bloch:2,0,0", "bloch:1e308,1e308,0",
                                      "pure:nan,1",
                                      "pure:inf,1", "pure:1,0,0", "pure:1"])
    def test_bad_state_is_usage_error(self, capsys, spec):
        code, _, err = run(capsys, "fisher", "--povm", "sic-single",
                           "--state", spec)
        assert code == 2
        assert "numerical failure" not in err

    @pytest.mark.parametrize("spec", ["pure:1e308,1e308",
                                      "pure:1e-320,1e-320",
                                      "pure:1e308j,-1e308",
                                      f"pure:{2.0 ** 1000!r},{2.0 ** 1000!r}",
                                      f"pure:{2.0 ** -1070!r},{2.0 ** -1070!r}"])
    def test_pure_amplitudes_of_any_finite_size(self, capsys, spec):
        # |v| overflowed, with a RuntimeWarning, or underflowed to 0, for
        # these amplitudes, and the state was refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report, err = run(capsys, "fisher", "--povm", "sic-single",
                                    "--state", spec)
        assert (code, err) == (0, "")
        unit = "pure:1j,-1" if "j" in spec else "pure:1,1"
        want = run(capsys, "fisher", "--povm", "sic-single", "--state",
                   unit)[1]
        if "e-320" in spec or "e308" in spec:
            assert np.allclose(report["i_matrix"], want["i_matrix"],
                               rtol=0.0, atol=1e-12)
        else:  # a power of two scales without rounding
            assert report == want

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

    # each edit takes a built file's elements to a set that is no
    # measurement; fisher --povm and a config's "povm" refuse it alike,
    # before a state is sampled
    @pytest.mark.parametrize("name, edit", [
        # sum 2 * 1: the single-copy bound then reads "violated"
        ("sic-single", lambda m: 2.0 * m),
        ("collective-sic", lambda m: 2.0 * m),
        # complete, but 2 E_0 - E_1 has the eigenvalue -1/3
        ("mub-single", lambda m: np.concatenate(
            [[2.0 * m[0] - m[1], 2.0 * m[1] - m[0]], m[2:]])),
        # entries whose products in the Monte Carlo overflow
        ("collective-sic", lambda m: 1e149 * m),
        # sum 0.9 * 1
        ("sic-single", lambda m: 0.9 * m),
    ], ids=["double-sic-single", "double-collective-sic", "mub-not-positive",
            "huge-sic", "sum-0.9"])
    def test_povm_file_that_is_not_a_measurement_is_usage_error(
            self, capsys, tmp_path, name, edit):
        path = str(tmp_path / "unfit.json")
        save_json(povm_to_obj(Povm(edit(NAMED_POVMS[name].elements),
                                   copies=NAMED_POVMS[name].copies,
                                   base_dim=2)), path)
        config = {"scheme": "custom", "povm": path, "n_copies": 4,
                  "n_trials": 2, "seed": 1}
        sim, sweep = str(tmp_path / "sim.json"), str(tmp_path / "sweep.json")
        save_json({**config, "bloch": [0.0, 0.0, 0.0]}, sim)
        save_json({**config, "radii": [0.0, 0.5]}, sweep)
        rows = tmp_path / "rows.csv"
        for argv in (["fisher", "--povm", path, "--state", "bloch:0,0,0"],
                     ["simulate", "--config", sim],
                     ["sweep", "--config", sweep, "--out", str(rows)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, None)
            assert "bad POVM file" in err and "not a POVM" in err
        assert not rows.exists()

    def test_povm_file_that_is_not_a_qubit_measurement_is_usage_error(
            self, capsys, tmp_path):
        # a d = 3 POVM is a measurement, but the estimators are for qubits;
        # the configs refuse it, where the Monte Carlo used to exit 3
        path = str(tmp_path / "tight.json")
        assert run(capsys, "build", "tight-coherent-d3", "--out", path)[0] == 0
        config = {"scheme": "custom", "povm": path, "n_copies": 4,
                  "n_trials": 2, "seed": 1}
        sim, sweep = str(tmp_path / "sim.json"), str(tmp_path / "sweep.json")
        save_json({**config, "bloch": [0.0, 0.0, 0.0]}, sim)
        save_json({**config, "radii": [0.0, 0.5]}, sweep)
        rows = tmp_path / "rows.csv"
        for argv, what in ((["simulate", "--config", sim], "simulation"),
                           (["sweep", "--config", sweep, "--out", str(rows)],
                            "sweep")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, None)
            assert err.startswith(f"error: bad {what} config")
            assert "implemented for qubits" in err
        assert not rows.exists()

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

    @staticmethod
    def d3_files(tmp_path, rho):
        povm, state = str(tmp_path / "povm.json"), str(tmp_path / "rho.json")
        main(["build", "tight-coherent-d3", "--out", povm])
        save_json({"dim": 3, "copies": 1, "elements": [{"matrix": [
            [[float(x), 0.0] for x in row] for row in rho]}]}, state)
        return povm, state

    def test_d3_state_between_pure_and_full_rank(self, capsys, tmp_path):
        # eps = 2e-9: lambda_max = 1 - 1.3e-9 and two eigenvalues of 6.7e-10,
        # so the numerical rank is 1 and the state takes the pure chart
        eps = 2e-9
        rho = (1.0 - eps) * np.full((3, 3), 1.0 / 3.0) + eps * np.eye(3) / 3.0
        povm, state = self.d3_files(tmp_path, rho)
        capsys.readouterr()
        code, report, err = run(capsys, "fisher", "--povm", povm,
                                "--state", state)
        assert code == 0, err
        assert report["gm"]["mode"] == "pure-n"
        assert report["gm"]["verdict"] == "equality"

    @pytest.mark.filterwarnings("ignore:outcome .* dropped")
    def test_rank_two_d3_state_leaves_the_support(self, capsys, tmp_path):
        # the affine chart's tangents leave the support of diag(1/2, 1/2, 0)
        povm, state = self.d3_files(tmp_path, np.diag([0.5, 0.5, 0.0]))
        capsys.readouterr()
        code, _, err = run(capsys, "fisher", "--povm", povm, "--state", state)
        assert code == 3
        assert "leaves the support of the state" in err

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
                                     {"bloch": [True, 0, 0]},
                                     {"n_copies": 10 ** 23},
                                     {"n_copies": 2 ** 63},
                                     {"bloch": [1e308, 1e308, 0.0]},
                                     {"scheme": "collective-sic",
                                      "n_copies": 301}])
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
        assert code == 2
        assert "n_copies must be a positive multiple of 2" in err

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

    def test_report_is_written_at_once(self, monkeypatch):
        # one write of the bytes json.dump writes in chunks
        writes = []
        sink = type("Sink", (), {"write": lambda _, text: writes.append(text),
                                 "flush": lambda _: None})()
        obj = {"i_matrix": [[1.5, -0.0], [2e-300, 3]], "gm": {"mode": None},
               "dropped_outcomes": [], "ok": True}
        monkeypatch.setattr(sys, "stdout", sink)
        cli._emit(obj)
        chunked = io.StringIO()
        json.dump(obj, chunked, indent=1)
        assert writes == [chunked.getvalue() + "\n"]

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


@pytest.mark.parametrize("command, what, point", [
    ("simulate", "simulation", {"bloch": [0.5, 0.0, 0.0]}),
    ("sweep", "sweep", {"radii": [0.5]})])
@pytest.mark.parametrize("povm", ["missing.json", 3])
def test_named_scheme_refuses_povm_before_reading_it(
        capsys, tmp_path, command, what, point, povm):
    # the config's own rule is the error, not the file that it names
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"scheme": "sic-single", "n_copies": 200, "n_trials": 3, "seed": 5,
         "povm": povm, **point}))
    code, _, err = run(capsys, command, "--config", str(config), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert err == (f'error: bad {what} config: a "povm" file is read only '
                   'with "scheme": "custom"\n')


@pytest.mark.parametrize("command, what, point", [
    ("simulate", "simulation", {"bloch": [0.5, 0.0, 0.0]}),
    ("sweep", "sweep", {"radii": [0.5]})])
def test_custom_scheme_with_null_povm_is_refused_by_its_config(
        capsys, tmp_path, command, what, point):
    # JSON null is no file name: the config says what it lacks, as it does
    # when the key is absent
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"scheme": "custom", "n_copies": 200, "n_trials": 3, "seed": 5,
         "povm": None, **point}))
    code, _, err = run(capsys, command, "--config", str(config), "--out",
                       str(tmp_path / "out"))
    assert code == 2
    assert err == (f"error: bad {what} config: custom scheme needs an "
                   "explicit POVM\n")


@pytest.mark.parametrize("argv", [
    ("verify", "sic", "{dir}"),
    ("verify", "povm", "{latin1}"),
    ("fisher", "--povm", "{dir}", "--state", "bloch:0,0,0"),
    ("fisher", "--povm", "sic-single", "--state", "{dir}"),
    ("simulate", "--config", "{dir}"),
    ("simulate", "--config", "{latin1}"),
    ("sweep", "--config", "{latin1}", "--out", "{out}"),
], ids=["verify-dir", "verify-latin1", "fisher-povm-dir", "fisher-state-dir",
        "simulate-dir", "simulate-latin1", "sweep-latin1"])
def test_unreadable_input_is_usage_error(capsys, tmp_path, argv):
    # a directory, or a file whose bytes are not UTF-8
    paths = {"dir": tmp_path / "dir.json", "latin1": tmp_path / "latin1.json",
             "out": tmp_path / "rows.csv"}
    paths["dir"].mkdir()
    paths["latin1"].write_bytes('{"scheme": "sic-single", "note": "\xe9"}'
                                .encode("latin-1"))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out is None
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ("verify", "povm", "{bad}"),
    ("fisher", "--povm", "{bad}", "--state", "bloch:0,0,0"),
    ("fisher", "--povm", "sic-single", "--state", "{bad}"),
    ("simulate", "--config", "{bad}"),
    ("sweep", "--config", "{bad}", "--out", "{out}"),
    ("simulate", "--config", "{custom}"),
    ("build", "twocopy-design", "--design", "{bad}", "--out", "{out}"),
], ids=["verify", "fisher-povm", "fisher-state", "simulate", "sweep",
        "config-povm", "build-design"])
@pytest.mark.parametrize("content", [
    "[" * 100_000 + "]" * 100_000,
    '{"dim": ' + "7" * 5000 + "}",
], ids=["nested-too-deeply", "integer-too-long"])
def test_json_that_the_parser_refuses_is_usage_error(capsys, tmp_path, argv,
                                                     content):
    # RecursionError and the int-digits ValueError got past the loader:
    # a traceback (exit 1), and "numerical failure" (exit 3) or, for
    # build, "unfit input file"
    paths = {"bad": tmp_path / "bad.json", "custom": tmp_path / "custom.json",
             "out": tmp_path / "out"}
    paths["bad"].write_text(content)
    paths["custom"].write_text(json.dumps(
        {"scheme": "custom", "povm": str(paths["bad"]), "bloch": [0, 0, 0],
         "n_copies": 10, "n_trials": 1, "seed": 0}))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out is None
    assert err.startswith(f"error: invalid JSON in {paths['bad']}: ")
    assert err.count("\n") == 1
    assert not paths["out"].exists()


@pytest.mark.parametrize("argv", [
    ("build", "sic-qubit", "--out", "{out}"),
    ("simulate", "--config", "{simulate}", "--out", "{out}"),
    ("sweep", "--config", "{sweep}", "--out", "{out}"),
], ids=lambda argv: argv[0])
def test_unwritable_output_is_usage_error(capsys, tmp_path, argv):
    # --out in a directory that does not exist
    run_keys = {"n_copies": 200, "n_trials": 3, "seed": 5,
                "estimator": "linear"}
    paths = {"simulate": tmp_path / "simulate.json",
             "sweep": tmp_path / "sweep.json",
             "out": tmp_path / "missing" / "out"}
    paths["simulate"].write_text(json.dumps(
        {"scheme": "sic-single", "bloch": [0.5, 0.0, 0.0], **run_keys}))
    paths["sweep"].write_text(json.dumps(
        {"scheme": "sic-single", "radii": [0.0, 0.5], **run_keys}))
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out is None
    assert err.startswith("error: cannot write output: ")
    assert err.count("\n") == 1


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
                                     {"direction": [True, 0, 0]},
                                     {"n_copies": 10 ** 23},
                                     {"n_copies": 2 ** 63},
                                     {"n_copies": 201}])
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

    @pytest.mark.parametrize("direction", [[2.0 ** 1000, 2.0 ** 1000, 0.0],
                                           [2.0 ** -1070, 2.0 ** -1070, 0.0],
                                           [1e308, 1e308, 0.0]])
    def test_direction_of_any_finite_size(self, capsys, tmp_path, direction):
        # |d| overflowed, or d . d underflowed to 0, for these directions
        rows = []
        for d in (direction, [1.0, 1.0, 0.0]):
            config = str(tmp_path / "sweep.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({"scheme": "sic-single", "radii": [0.5],
                           "n_copies": 200, "n_trials": 3, "seed": 5,
                           "estimator": "linear", "direction": d}, fh)
            out = tmp_path / "rows.csv"
            assert run(capsys, "sweep", "--config", config, "--out",
                       str(out))[0] == 0
            rows.append(out.read_text(encoding="utf-8"))
        if direction[0] != 1e308:  # a power of two scales without rounding
            assert rows[0] == rows[1]

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
        assert f"Bloch radius {1.0 - 1e-10!r} is pure" in err

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
