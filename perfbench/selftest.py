"""Self-test of the benchmark harness and its tracer.

    python3 perfbench/selftest.py

Run from the root of a fisym checkout; takes about two minutes.  Checks:

1. a tiny run of every workload, untraced and traced, prints every metric
   BENCHMARK.json names, with its unit, and reports no failure;
2. a deliberately wrong reference value is counted as a failed request
   and makes the run incorrect, for every workload;
3. the tracer reproduces the known call structure: per Monte Carlo trial
   one ``states.fidelity``, one ``linalg.lstsq``, one ``linalg.eigh`` and
   two ``linalg.eigvalsh`` calls; per ``fisher`` request two
   ``states.qfi_matrix`` and one ``fisher.fisher_matrix`` call; most of
   ``mc-mle`` time is ``tomosim`` self time;
4. per-layer counts repeat exactly between two traced runs of each
   workload with different seeds, and the tracer restores every patched
   attribute.

Exits 0 when every check passes, 1 otherwise.
"""

import copy
import json
import math
import os
import shutil
import sys
import tempfile

from repeat import one_run
from run import HERE, ROOT, import_fisym

import_fisym()

import numpy as np  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402

FAILURES = []


def check(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}", flush=True)
    if not ok:
        FAILURES.append(message)


def check_result_shape(bench, workload, trace, result) -> None:
    spec = bench["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace={trace}: result has exactly the four keys")
    check(set(metrics) == {m["name"] for m in spec},
          f"{workload} trace={trace}: every named metric, and no other")
    check(all(metrics[m["name"]]["unit"] == m["unit"]
              for m in spec if m["name"] in metrics),
          f"{workload} trace={trace}: units match BENCHMARK.json")
    check(all(math.isfinite(v["value"]) for v in metrics.values()),
          f"{workload} trace={trace}: every value is finite")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1,
          f"{workload} trace={trace}: correct, "
          f"{result['failed']}/{result['attempted']} failed")
    if not trace:
        check(all(metrics[m]["value"] > 0 for m in metrics),
              f"{workload}: every end-to-end metric is nonzero")


def corrupted(reference: dict) -> dict:
    ref = copy.deepcopy(reference)
    for entries in ref["mc-mle"]["points"]:
        for e in entries:
            e["scaled_mse"] *= 1.0 + 1e-3
    for entry in ref["mc-sweep-linear"]["sic-single"]:
        entry["rows"][2][4] *= 1.0 + 1e-8
    for rep in ref["info-certify"]["reports"]["great-circle"]:
        rep["j_matrix"][1][1] *= 1.0 + 1e-8
    return ref


CORRUPTED_KINDS = {"mc-mle": None, "mc-sweep-linear": "sweep sic-single",
                   "info-certify": "fisher great-circle"}


def in_process_run(name, reference, workdir):
    """A shortest run: warm-up plus two timed rounds."""
    workload = harness.WORKLOADS[name](7, reference, workdir)
    run = harness.Run(workload, harness.run_round(workload, 0))
    harness.timed_phase(run, 0.0)
    return run


def traced_counts(argv_list) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        for argv in argv_list:
            rc, _ = harness.run_cli(argv)
            if rc != 0:
                raise RuntimeError(f"fisym {' '.join(argv)} exited {rc}")
    finally:
        tracer.uninstall()
    return tracer


def per_trial_counts(workdir, make_config, grid_points, verb) -> dict:
    """Count difference between 7-trial and 3-trial requests, per trial."""
    counts = []
    for n in (3, 7):
        path = harness.write_json(os.path.join(workdir, f"t{n}.json"),
                                  make_config(n))
        argv = [verb, "--config", path]
        if verb == "sweep":
            argv += ["--out", os.path.join(workdir, "t.csv")]
        counts.append(traced_counts([argv]))
    extra = 4 * grid_points
    out = {"states.fidelity": (counts[1].calls["states.fidelity"]
                               - counts[0].calls["states.fidelity"]) / extra}
    for name in ("lstsq", "eigh", "eigvalsh"):
        out[f"linalg.{name}"] = (counts[1].linalg_calls[name]
                                 - counts[0].linalg_calls[name]) / extra
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    print("1. tiny runs print every metric with its unit")
    for name in names:
        for trace in (0, 1):
            check_result_shape(bench, name, trace,
                               one_run(name, 3, 1, trace))

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        print("2. a wrong reference value is counted as a failure")
        bad = corrupted(reference)
        for name in names:
            run = in_process_run(name, bad, workdir)
            kinds = {e.split(":", 1)[0] for e in run.errors}
            want = CORRUPTED_KINDS[name]
            check(bool(run.errors) and (want is None or kinds == {want}),
                  f"{name}: {len(run.errors)}/{run.attempted} requests "
                  f"failed, kinds {sorted(kinds)}")

        print("3. tracer reproduces the known call structure")
        for j in (1, 3):
            scheme, s, _ = harness.MLE_POINTS[j]
            got = per_trial_counts(
                workdir,
                lambda n: dict(harness.simulate_config(j, 5), n_trials=n),
                1, "simulate")
            check(got == {"states.fidelity": 1.0, "linalg.lstsq": 1.0,
                          "linalg.eigh": 1.0, "linalg.eigvalsh": 2.0},
                  f"simulate {scheme} s={s}: per trial {got}")
        for scheme in harness.SWEEP_SCHEMES:
            got = per_trial_counts(
                workdir,
                lambda n: dict(harness.sweep_config(scheme, 5), n_trials=n),
                len(harness.SWEEP_RADII), "sweep")
            check(got == {"states.fidelity": 1.0, "linalg.lstsq": 1.0,
                          "linalg.eigh": 1.0, "linalg.eigvalsh": 2.0},
                  f"sweep {scheme}: per trial {got}")
        info = in_process_run("info-certify", reference, workdir)
        for req in info.workload.round(1):
            if req.argv[0] != "fisher":
                continue
            t = traced_counts([req.argv])
            got = (t.calls["states.qfi_matrix"], t.calls["fisher.fisher_matrix"],
                   t.calls["fisher.fisher_report"])
            check(got == (2, 1, 1),
                  f"{req.kind}: qfi_matrix, fisher_matrix, fisher_report "
                  f"calls {got}")

        print("4. counts repeat across traced runs; attributes restored")
        import fisym

        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "fisym" or k.startswith("fisym.")] + [np.linalg]
        before = [dict(vars(m)) for m in modules]
        tracer = Tracer()
        tracer.install()
        tracer.uninstall()
        check(before == [dict(vars(m)) for m in modules],
              "tracer restores every patched attribute")
        check(fisym.fidelity is fisym.states.fidelity,
              "re-exported names point at the originals again")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name in names:
        a, b = (one_run(name, seed, 2, 1) for seed in (11, 12))
        counts = [k for k in a["metrics"]
                  if k.endswith((".calls", ".errors"))]
        differ = [k for k in counts
                  if a["metrics"][k]["value"] != b["metrics"][k]["value"]]
        check(not differ, f"{name}: {len(counts)} per-op counts repeat "
                          f"exactly{'' if not differ else f', not {differ}'}")
        if name == "mc-mle":
            self_s = {k: v["value"] for k, v in a["metrics"].items()
                      if k.endswith(".self_s")}
            share = self_s["tomosim.self_s"] / sum(self_s.values())
            check(share > 0.9, f"mc-mle: tomosim self time is "
                               f"{share:.1%} of traced time")
        print(f"     {name}: tracing overhead "
              f"{a['metrics']['trace.overhead']['value']:+.1%}, "
              f"{b['metrics']['trace.overhead']['value']:+.1%}")

    print(f"\n{len(FAILURES)} check(s) failed" if FAILURES
          else "\nall checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
