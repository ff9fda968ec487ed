"""Record the benchmark's input pools and reference outputs.

    python3 perfbench/record.py

Run from the root of a fisym checkout.  Draws the input pools from a
fixed seed, sends every pool entry through the same request builders the
benchmark uses, and writes the inputs with fisym's outputs to
perfbench/reference.json.  Re-record only on purpose: the file defines
what a correct result is for every later commit.
"""

import csv
import json
import os
import shutil
import sys
import tempfile

from run import HERE, ROOT, import_fisym, source_sha256

fisym = import_fisym()

import numpy as np  # noqa: E402

import harness  # noqa: E402

POOL_SEED = 20170918
MLE_POOL = 48
SWEEP_POOL = 128
QUBIT_POOL = 128
QUTRIT_POOL = 64


def short(x: float) -> float:
    """13 significant digits: far below every check's 1e-9 tolerance."""
    return float(f"{x:.13g}")


def compact_matrix(m) -> list:
    """Rounded entries; round-off noise far below the norm becomes 0."""
    m = np.asarray(m, dtype=float)
    floor = 1e-13 * np.abs(m).max()
    return [[short(x) if abs(x) > floor else 0.0 for x in row] for row in m]


def state_pools(rng) -> dict:
    dirs = rng.normal(size=(QUBIT_POOL, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(0.05, 0.9, size=QUBIT_POOL)
    qubit = [[float(x) for x in r * d] for r, d in zip(radii, dirs)]
    pure = []
    for _ in range(QUTRIT_POOL):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        pure.append([[float(a.real), float(a.imag)] for a in v])
    mixed = []
    for _ in range(QUTRIT_POOL):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        w = g @ g.conj().T
        rho = 0.8 * w / np.trace(w).real + 0.2 * np.eye(3) / 3.0
        mixed.append(harness.matrix_obj(0.5 * (rho + rho.conj().T)))
    return {"qubit": qubit, "pure": pure, "mixed": mixed}


def run_json(argv) -> dict:
    rc, out = harness.run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"fisym {' '.join(argv)} exited {rc}")
    return json.loads(out)


def record_mle(workdir) -> dict:
    points = []
    for j in range(len(harness.MLE_POINTS)):
        entries = []
        for k in range(MLE_POOL):
            seed = 10_000 * (j + 1) + k
            path = harness.write_json(os.path.join(workdir, "c.json"),
                                      harness.simulate_config(j, seed))
            res = run_json(["simulate", "--config", path])
            entries.append({"seed": seed,
                            "scaled_mse": short(res["scaled_mse"]),
                            "scaled_msb": short(res["scaled_msb"])})
        points.append(entries)
    return {"points": points}


def record_sweep(workdir) -> dict:
    out = {}
    for i, scheme in enumerate(harness.SWEEP_SCHEMES):
        entries = []
        for k in range(SWEEP_POOL):
            seed = 50_000 + 1_000 * i + k
            path = harness.write_json(os.path.join(workdir, "s.json"),
                                      harness.sweep_config(scheme, seed))
            csv_path = os.path.join(workdir, "s.csv")
            rc, _ = harness.run_cli(["sweep", "--config", path,
                                     "--out", csv_path])
            if rc != 0:
                raise RuntimeError(f"sweep {scheme} seed {seed} exited {rc}")
            with open(csv_path, encoding="utf-8", newline="") as fh:
                rows = list(csv.DictReader(
                    ln for ln in fh if not ln.startswith("#")))
            entries.append({"seed": seed, "rows": [
                [short(float(row[c])) for c in harness.SWEEP_COLUMNS]
                for row in rows]})
        out[scheme] = entries
    return out


def record_info(workdir, rng) -> dict:
    pools = state_pools(rng)
    files = harness.build_povm_files(workdir)
    reports = {}
    for key, povm, pool in harness.FISHER_KINDS:
        reports[key] = []
        for k, state in enumerate(pools[pool]):
            spec = harness.state_spec(pool, state,
                                      os.path.join(workdir, "state.json"))
            rep = run_json(["fisher", "--povm", files.get(povm, povm),
                            "--state", spec])
            reports[key].append({
                "i_matrix": compact_matrix(rep["i_matrix"]),
                "j_matrix": compact_matrix(rep["j_matrix"]),
                "gm": rep["gm"]["verdict"],
                "symmetry": rep["symmetry"]["verdict"],
                "gm_margin": short(rep["gm"]["margin"])})
    return {"states": pools, "reports": reports}


def main() -> int:
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=scratch)
    try:
        reference = {
            "recorded_with": {"fisym_version": fisym.__version__,
                              "numpy_version": np.__version__,
                              "source_sha256": source_sha256(),
                              "pool_seed": POOL_SEED},
            "mc-mle": record_mle(workdir),
            "mc-sweep-linear": record_sweep(workdir),
            "info-certify": record_info(
                workdir, np.random.default_rng(POOL_SEED)),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
