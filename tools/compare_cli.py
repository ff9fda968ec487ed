"""Run one fixed list of fisym CLI requests on two source trees and
compare their outputs byte for byte.

Usage: python tools/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the ``fisym`` package, such
as the ``src`` directory of two checkouts.  Each tree runs every request
through ``fisym.cli.main`` in one subprocess, in an empty working
directory of its own, so the requests name their files by relative
paths.  The requests are every ``build``; every ``verify`` kind on every
built file at three ``--tol`` values; ``fisher`` for each named POVM at
fixed Bloch and pure states and for the built d = 3 POVMs at fixed state
files; ``simulate`` and ``sweep`` for each scheme and estimator at small
N, with a near-pure sweep and an oversized ``n_copies`` among them.  The
output of a request is its exit code (or the exception that escaped
``main``), its standard output and error, and the files it writes.

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
job = json.load(sys.stdin)
for name, obj in job["inputs"].items():
    with open(name, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
results = []
for argv, outputs in job["requests"]:
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
    inputs["sim-oversized.json"] = {"scheme": "sic-single", **runs,
                                    "bloch": [0.5, 0.0, 0.0],
                                    "n_copies": 10 ** 23}
    inputs["sweep-near-pure.json"] = {"scheme": "sic-single", **runs,
                                      "estimator": "linear",
                                      "radii": [0.5, 0.999999999]}
    requests.append((["simulate", "--config", "sim-oversized.json"], []))
    requests.append((["sweep", "--config", "sweep-near-pure.json", "--out",
                      "near.csv"], ["near.csv"]))
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
