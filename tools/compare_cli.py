"""Run one fixed list of fisym CLI requests on two source trees and
compare their outputs byte for byte.

Usage: python tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``fisym`` package,
such as the ``src`` directory of two checkouts.  Each tree runs every
request through ``fisym.cli.main`` in one subprocess, in an empty
working directory of its own, so the requests name their files by
relative paths.  The requests are every ``build``, the companion built
from the qubit SIC and from the d = 3 SIC and MUB files among them;
every ``verify`` kind on every built file at three ``--tol`` values;
``fisher`` for each named POVM at fixed Bloch and pure states and for
the built d = 3 POVMs at fixed state files; ``simulate`` and ``sweep``
for each scheme and estimator at small N, with a near-pure sweep and an
oversized ``n_copies`` among them, a linear sweep of each named scheme
along the direction (1, -1, 0.5), and ``simulate`` with the MLE for each
scheme at ``n_copies`` 10 and 40 over 200 trials, at a mixed state and
at radius 0.99; ``fisher`` with each ``--param`` chart at pure and mixed
states of d = 2 and 3, an unknown ``--param`` and ``fisher --help``;
``fisher`` on the one-element POVM {1}, whose Fisher matrix is 0, at a
Bloch state; ``simulate`` and ``sweep`` on custom files that are no POVM
and on the qutrit POVM ``tight-coherent-d3.json``; ``simulate`` and
``sweep`` that name ``sic-single`` and also a valid ``povm`` file, which
only ``custom`` takes; and the usage errors of ``build`` (a missing
``--design`` or ``--source``, an unfit input file), an unknown ``build``
name and ``verify`` kind, and ``simulate`` and ``sweep`` on
collective-sic with an odd ``n_copies``.

Some requests are expected to differ from a tree older than the change
that mended them, and only these:

- ``simulate`` and ``sweep`` with the MLE on the custom POVMs
  ``z-basis.json`` and ``great-circle.json``, whose Bloch rows have rank
  1 and 2: they exit 2, "bad simulation config" or "bad sweep config",
  "POVM is not informationally complete for the Bloch vector", where
  they used to exit 3 with that message as a numerical failure, and
  before that the MLE estimated from the centre (and a sweep failed
  after its Monte Carlo, on a singular Fisher matrix);
- ``fisher`` at ``pure:1e308,1e308`` and ``pure:1e-320,1e-320``: a
  report, where the norm used to overflow or underflow and the state was
  refused;
- ``verify design2`` on the one-dimensional state set ``one-d1.json``:
  a certificate, where the reader used to fail with numpy's message;
- ``verify gdesign2`` and ``verify gsic`` on ``one-d1.json``: exit 1 with
  ``{"ok": false, "error": ...}``, where ``gdesign2`` used to end in a
  ``ZeroDivisionError`` and ``gsic`` to print NaN after numpy's warning;
- ``simulate`` and ``sweep`` with the MLE, against a tree whose ascent
  ran a gradient search after its last failed Newton step: the numbers
  move by at most 1e-6 relative, since an ascent now ends where Newton's
  step predicts a rise within the rounding of the log-likelihood;
- ``simulate`` with the MLE at ``n_copies`` 10 and 40, against a tree
  whose ascent fell back to a projected gradient search where Newton's
  system was singular or its failed step predicted a rise beyond the
  rounding: the numbers move by at most 1e-8 relative (2.1e-9 measured),
  since the ascent now takes the minimum-norm least-squares step and
  ends on one backtracking rule.
- ``simulate`` and ``sweep`` on collective-sic with an odd ``n_copies``
  (``sim-odd.json``, ``sweep-odd.json``): exit 2, "bad simulation
  config" or "bad sweep config", where they used to exit 3 with
  "numerical failure" when the Monte Carlo started.
- ``simulate`` and ``sweep`` on the custom files ``not-positive.json``
  (an element with eigenvalue -1/3) and ``mub-0.9.json`` (complete to
  0.9): exit 2, "bad POVM file ...: not a POVM", as ``fisher --povm``
  says of them, where ``simulate`` on ``not-positive.json`` used to run
  (exit 0) and the other three to exit 3 with "numerical failure" in the
  Monte Carlo.
- ``simulate`` and ``sweep`` on the qutrit POVM ``tight-coherent-d3.json``
  (``sim-d3.json``, ``sweep-d3.json``): exit 2, "bad simulation config"
  or "bad sweep config", "simulation estimators are implemented for
  qubits", where they used to exit 3 with "numerical failure".
- ``simulate`` with the MLE at ``n_copies`` 10 and 40 (16 requests) and
  the two MLE sweeps, ``sweep-collective-sic-mle.json`` and
  ``sweep-custom-mle.json``, against a tree that decided definiteness
  with ``eigvalsh`` and solved Newton's system with ``solve``: the
  numbers move by at most 1e-8 relative (7.6e-9 measured).  The 3 x 3
  LDL^T in Python floats rounds differently, and where ascents from two
  starts end about 1e-9 apart with likelihoods equal to the rounding of
  l, that rounding decides which one is kept.
- ``simulate`` with the MLE (the 16 requests at ``n_copies`` 10 and 40,
  ``sim-collective-sic-mle.json``, ``sim-mub-single-mle.json`` and
  ``sim-custom-mle.json``) and the MLE sweeps
  ``sweep-collective-sic-mle.json``, ``sweep-mub-single-mle.json`` and
  ``sweep-custom-mle.json``, against a tree whose MLE evaluated its
  model with an einsum for the probabilities and a second product for
  the gradients: the numbers move by at most 5e-8 relative (2.7e-8
  measured).  One product M s per trial point now gives p = c + (L + M s)
  s and the gradients L + 2 M s, the scoring matrix is U^T U and the
  scalar tests run on Python floats, so l and the Newton systems round
  differently.  Of ascents that end within the rounding of l of the
  highest, the first start's is now kept, so that rounding no longer
  decides the pick.  Against such a tree, every other output is
  byte-identical.
- the linear sweeps along (1, -1, 0.5), ``sweep-collective-sic-off-axis``
  and ``sweep-sic-single-off-axis`` (``sweep-mub-single-off-axis`` is
  identical), against a tree whose analytic columns evaluated
  c + L s + s^T M s and L + 2 M s with an einsum each: ``analytic_mse``
  and ``analytic_msb`` move by at most 1e-14 relative, and no other
  column moves.  One product M s now gives p = c + (L + M s) s and the
  gradients L + 2 M s, as in the MLE, and rounds differently off the
  axis.
- ``fisher --help`` and the four ``fisher --param bogus`` requests,
  against a tree whose ``fisher`` took ``--drop-threshold``: their usage
  text no longer shows ``[--drop-threshold DROP_THRESHOLD]``, which is
  all that differs.

Each request's output files are deleted before it runs, so a request
that fails before writing shows no file rather than the last request's.

The output of a request is its exit code (or the exception that escaped
``main``), its standard output and error, and the files it writes.
Warnings are printed as ``Category: message``, without the file and line
that raised them, so two copies of one tree compare identical.

Per subcommand the tool prints the count of byte-identical and of
differing outputs, the largest relative difference between the numbers
of differing outputs ("inf" when their numbers do not pair up), and the
requests that differ.  It exits 1 if any output differs.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile

# Runs in the subprocess: writes the input files, then runs each request
# and prints one JSON list of outputs.
DRIVER = r"""
import contextlib, io, json, os, sys, warnings
import fisym
from fisym.cli import main
src = os.path.join(sys.argv[1], "")
if not os.path.abspath(fisym.__file__).startswith(src):
    raise SystemExit(f"fisym imported from {fisym.__file__}, not {src}")
warnings.simplefilter("always")
# the default text holds the source file's absolute path and line number,
# which differ between two trees that run the same code
warnings.formatwarning = lambda message, category, *_: (
    f"{category.__name__}: {message}\n")
job = json.load(sys.stdin)
for name, obj in job["inputs"].items():
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
results = []
for argv, outputs in job["requests"]:
    for name in outputs:
        if os.path.exists(name):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    files = {}
    for name in outputs:
        if os.path.exists(name):
            with open(name, encoding="utf-8") as fh:
                files[name] = fh.read()
    results.append([code, out.getvalue(), err.getvalue(), files])
print(json.dumps(results))
"""

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _state(rows) -> dict:
    """A state file for a real density matrix."""
    return {"dim": len(rows), "copies": 1, "elements": [
        {"matrix": [[[x, 0.0] for x in row] for row in rows]}]}


def _requests():
    """The input files and the (argv, written files) requests."""
    builds = {
        "sic-qubit.json": ["sic-qubit"],
        "sic-d3.json": ["sic-d3"],
        "sic-d3-phi.json": ["sic-d3", "--phi", "0.17453292519943295"],
        "mub2.json": ["mub", "--dim", "2"],
        "mub3.json": ["mub", "--dim", "3"],
        "collective-sic.json": ["collective-sic"],
        "sic-single.json": ["sic-single"],
        "mub-single.json": ["mub-single"],
        "great-circle.json": ["great-circle"],
        "twocopy-qubit.json": ["twocopy-design", "--design", "sic-qubit.json"],
        "twocopy-d3.json": ["twocopy-design", "--design", "sic-d3.json"],
        "companion.json": ["companion", "--source", "sic-qubit.json"],
        "companion-d3.json": ["companion", "--source", "sic-d3.json"],
        "companion-mub3.json": ["companion", "--source", "mub3.json"],
        "tight-coherent-d3.json": ["tight-coherent-d3"],
        "tight-coherent-d3-two.json": ["tight-coherent-d3", "--sic1",
                                       "sic-d3.json", "--sic2",
                                       "sic-d3-phi.json"],
    }
    requests = [(["build", *args, "--out", name], [name])
                for name, args in builds.items()]
    for name in builds:
        for kind in ("povm", "sic", "design2", "gdesign2", "gsic",
                     "coherent", "tight-coherent"):
            for tol in ([], ["--tol", "1e-6"], ["--tol", "1e-10"]):
                requests.append((["verify", kind, name, *tol], []))
    for name in ("collective-sic", "sic-single", "mub-single", "great-circle"):
        for state in ("bloch:0,0,0", "bloch:0.5,0.1,0", "bloch:0.3,-0.4,0.5",
                      "bloch:0,0,0.9", "pure:1,0", "pure:0.6,0.8j"):
            requests.append((["fisher", "--povm", name, "--state", state], []))
    inputs = {
        "mixed-d3.json": _state([[0.5, 0.1, 0.0], [0.1, 0.3, 0.05],
                                 [0.0, 0.05, 0.2]]),
        "centre-d3.json": _state([[1 / 3, 0.0, 0.0], [0.0, 1 / 3, 0.0],
                                  [0.0, 0.0, 1 / 3]]),
        # (1 - eps)|psi><psi| + eps 1/3, psi = (1, 1, 1)/sqrt(3), eps = 2e-9:
        # numerical rank 1
        "gap-d3.json": _state([[(1 - 2e-9) / 3 + (2e-9 / 3 if i == j else 0.0)
                                for j in range(3)] for i in range(3)]),
        "rank2-d3.json": _state([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0],
                                 [0.0, 0.0, 0.0]]),
    }
    for name in ("twocopy-d3.json", "tight-coherent-d3.json",
                 "tight-coherent-d3-two.json"):
        for state in ("mixed-d3.json", "centre-d3.json", "gap-d3.json",
                      "rank2-d3.json", "pure:0.6,0.8,0"):
            requests.append((["fisher", "--povm", name, "--state", state], []))
    runs = {"n_copies": 200, "n_trials": 5, "seed": 7}
    for scheme, extra in (("collective-sic", {}), ("sic-single", {}),
                          ("mub-single", {}),
                          ("custom", {"povm": "collective-sic.json"})):
        for estimator in ("linear", "mle"):
            base = {"scheme": scheme, "estimator": estimator, **runs, **extra}
            tag = f"{scheme}-{estimator}"
            inputs[f"sim-{tag}.json"] = {**base, "bloch": [0.3, -0.2, 0.5]}
            inputs[f"sweep-{tag}.json"] = {**base, "radii": [0.0, 0.4, 0.9]}
            requests.append((["simulate", "--config", f"sim-{tag}.json"], []))
            requests.append((["sweep", "--config", f"sweep-{tag}.json",
                              "--out", "rows.csv"], ["rows.csv"]))
        if scheme != "custom":
            # off the axis, where the terms of the Pauli model differ
            inputs[f"sweep-{scheme}-off-axis.json"] = {
                "scheme": scheme, "estimator": "linear", **runs,
                "radii": [0.0, 0.4, 0.9], "direction": [1, -1, 0.5]}
            requests.append((["sweep", "--config",
                              f"sweep-{scheme}-off-axis.json", "--out",
                              "rows.csv"], ["rows.csv"]))
        # small N, where an MLE ascent reaches the rare ends of its rules
        for n in (10, 40):
            for where, state in (("mixed", [0.3, -0.2, 0.5]),
                                 ("near-pure", [0.0, 0.0, 0.99])):
                tag = f"{scheme}-mle-n{n}-{where}"
                inputs[f"sim-{tag}.json"] = {
                    "scheme": scheme, "estimator": "mle", "n_copies": n,
                    "n_trials": 200, "seed": 7, "bloch": state, **extra}
                requests.append((["simulate", "--config",
                                  f"sim-{tag}.json"], []))
    inputs["z-basis.json"] = {"dim": 2, "copies": 1, "elements": [
        _state(m)["elements"][0] for m in ([[1.0, 0.0], [0.0, 0.0]],
                                           [[0.0, 0.0], [0.0, 1.0]])]}
    for povm in ("z-basis.json", "great-circle.json"):
        base = {"scheme": "custom", "povm": povm, "estimator": "mle", **runs}
        inputs[f"sim-{povm}"] = {**base, "bloch": [0.3, -0.2, 0.5]}
        inputs[f"sweep-{povm}"] = {**base, "radii": [0.0, 0.4, 0.9]}
        requests.append((["simulate", "--config", f"sim-{povm}"], []))
        requests.append((["sweep", "--config", f"sweep-{povm}", "--out",
                          "rows.csv"], ["rows.csv"]))
    for state in ("pure:1e308,1e308", "pure:1e-320,1e-320"):
        requests.append((["fisher", "--povm", "sic-single", "--state",
                          state], []))
    inputs["one-d1.json"] = {"dim": 1, "copies": 1, "elements": [
        {"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]}
    for kind in ("design2", "gdesign2", "gsic"):
        requests.append((["verify", kind, "one-d1.json"], []))
    inputs["sim-oversized.json"] = {"scheme": "sic-single", **runs,
                                    "bloch": [0.5, 0.0, 0.0],
                                    "n_copies": 10 ** 23}
    inputs["sweep-near-pure.json"] = {"scheme": "sic-single", **runs,
                                      "estimator": "linear",
                                      "radii": [0.5, 0.999999999]}
    requests.append((["simulate", "--config", "sim-oversized.json"], []))
    requests.append((["sweep", "--config", "sweep-near-pure.json", "--out",
                      "near.csv"], ["near.csv"]))
    # usage errors of build and the parser's refusals of unknown choices
    for args in (["twocopy-design"], ["companion"],
                 ["companion", "--source", "collective-sic.json"],
                 ["tight-coherent-d3", "--sic1", "mub2.json"], ["bogus"]):
        requests.append((["build", *args, "--out", "unbuilt.json"],
                         ["unbuilt.json"]))
    requests.append((["verify", "bogus", "sic-qubit.json"], []))
    # every chart of fisher --param, where it fits the state and where not
    for param in ("auto", "pure", "bloch", "affine", "bogus"):
        for povm, state in (("sic-single", "pure:0.6,0.8j"),
                            ("sic-single", "bloch:0.3,-0.4,0.5"),
                            ("twocopy-d3.json", "pure:0.6,0.8,0"),
                            ("twocopy-d3.json", "mixed-d3.json")):
            requests.append((["fisher", "--povm", povm, "--state", state,
                              "--param", param], []))
    requests.append((["fisher", "--help"], []))
    # the trivial measurement {1}: I = 0, a zero weak residual
    inputs["identity.json"] = {"dim": 2, "copies": 1, "elements": [
        _state([[1.0, 0.0], [0.0, 1.0]])["elements"][0]]}
    requests.append((["fisher", "--povm", "identity.json", "--state",
                      "bloch:0.3,0,0"], []))
    # custom files that are no POVM: the six MUB projectors over 3 with
    # the first two replaced by 2 E_0 - E_1 and 2 E_1 - E_0 (eigenvalues
    # 2/3 and -1/3), and the six scaled to sum to 0.9
    mub = [[[1, 1], [1, 1]], [[1, -1], [-1, 1]], [[1, -1j], [1j, 1]],
           [[1, 1j], [-1j, 1]], [[2, 0], [0, 0]], [[0, 0], [0, 2]]]
    unfit = {"not-positive.json": (1 / 6, [[[1, 3], [3, 1]],
                                           [[1, -3], [-3, 1]], *mub[2:]]),
             "mub-0.9.json": (0.9 / 6, mub)}
    for povm, (scale, mats) in unfit.items():
        inputs[povm] = {"dim": 2, "copies": 1, "elements": [
            {"matrix": [[[scale * complex(x).real, scale * complex(x).imag]
                         for x in row] for row in m]} for m in mats]}
        base = {"scheme": "custom", "povm": povm, "estimator": "mle", **runs}
        inputs[f"sim-{povm}"] = {**base, "bloch": [0.3, -0.2, 0.5]}
        inputs[f"sweep-{povm}"] = {**base, "radii": [0.0, 0.4, 0.9]}
        requests.append((["simulate", "--config", f"sim-{povm}"], []))
        requests.append((["sweep", "--config", f"sweep-{povm}", "--out",
                          "rows.csv"], ["rows.csv"]))
    # a measurement, but on a qutrit: the estimators are for qubits
    d3 = {"scheme": "custom", "povm": "tight-coherent-d3.json", **runs}
    inputs["sim-d3.json"] = {**d3, "bloch": [0.3, -0.2, 0.5]}
    inputs["sweep-d3.json"] = {**d3, "radii": [0.0, 0.4]}
    requests.append((["simulate", "--config", "sim-d3.json"], []))
    requests.append((["sweep", "--config", "sweep-d3.json", "--out",
                      "rows.csv"], ["rows.csv"]))
    odd = {"scheme": "collective-sic", "n_copies": 201, "n_trials": 5,
           "seed": 7}
    inputs["sim-odd.json"] = {**odd, "bloch": [0.3, -0.2, 0.5]}
    inputs["sweep-odd.json"] = {**odd, "radii": [0.0, 0.4]}
    requests.append((["simulate", "--config", "sim-odd.json"], []))
    requests.append((["sweep", "--config", "sweep-odd.json", "--out",
                      "odd.csv"], ["odd.csv"]))
    # a named scheme takes no POVM file, not even a valid one
    named = {"scheme": "sic-single", "povm": "sic-single.json", **runs}
    inputs["sim-named-povm.json"] = {**named, "bloch": [0.3, -0.2, 0.5]}
    inputs["sweep-named-povm.json"] = {**named, "radii": [0.0, 0.4]}
    requests.append((["simulate", "--config", "sim-named-povm.json"], []))
    requests.append((["sweep", "--config", "sweep-named-povm.json", "--out",
                      "rows.csv"], ["rows.csv"]))
    return inputs, requests


def _run(src: str, inputs: dict, requests: list) -> list:
    src = os.path.abspath(src)
    env = {**os.environ, "PYTHONPATH": src}
    with tempfile.TemporaryDirectory() as cwd:
        done = subprocess.run(
            [sys.executable, "-c", DRIVER, src], cwd=cwd, env=env, text=True,
            input=json.dumps({"inputs": inputs, "requests": requests}),
            capture_output=True)
    if done.returncode != 0:
        raise SystemExit(f"requests failed on {src}:\n{done.stderr}")
    return json.loads(done.stdout)


def _relative_difference(a: str, b: str) -> float:
    x, y = NUMBER.findall(a), NUMBER.findall(b)
    if len(x) != len(y):
        return math.inf
    worst = 0.0
    for u, v in zip(map(float, x), map(float, y)):
        if u != v:
            worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return worst


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    inputs, requests = _requests()
    old, new = (_run(src, inputs, requests) for src in argv)
    tally = {}
    for (args, _), a, b in zip(requests, old, new):
        t = tally.setdefault(args[0], {"same": 0, "differ": [], "worst": 0.0})
        if a == b:
            t["same"] += 1
        else:
            t["differ"].append(" ".join(args))
            t["worst"] = max(t["worst"], _relative_difference(
                json.dumps(a), json.dumps(b)))
    for command, t in tally.items():
        print(f"{command:9} {t['same']:5} identical {len(t['differ']):5} "
              f"differ   largest relative difference {t['worst']:.3g}")
        for name in t["differ"]:
            print(f"    differs: {name}")
    return 1 if any(t["differ"] for t in tally.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
