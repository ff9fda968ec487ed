"""fisym benchmark: one run of one workload.

    python3 perfbench/run.py --workload mc-mle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; fisym is imported from ``src/``.
The last line of stdout is the result object (``correct``, ``attempted``,
``failed``, ``metrics``); the line before it holds the provenance and
run details.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics from a traced run.  See perfbench/README.md.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6
SETUP_HOST_PROBES = 5


def import_fisym():
    """Import fisym from this checkout's ``src/``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "fisym", "__init__.py")):
        sys.exit(f"error: no fisym sources under {SRC}; run from the root "
                 "of a fisym checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import fisym

    if os.path.dirname(os.path.dirname(os.path.abspath(fisym.__file__))) \
            != SRC:
        sys.exit(f"error: imported fisym from {fisym.__file__}, not {SRC}")
    return fisym


def blas_info() -> dict:
    import ctypes
    import numpy as np

    info = {"env": {k: os.environ[k] for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS") if k in os.environ}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = fn()
                    return info
    info["threads"] = None
    return info


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout; never ask a parent repository
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fisym", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def provenance(fisym, args, workload) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "fisym_version": fisym.__version__,
        "numpy_version": np.__version__,
        "python_version": platform.python_version(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": workload.op_unit,
        "params": workload.params(),
    }


def setup_probes(args) -> list:
    """Set-up time of fresh processes doing the same set-up as this one."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds", "0",
             "--trace", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc-mle", "mc-sweep-linear", "info-certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    fisym = import_fisym()
    import harness
    from tracer import Tracer

    # Host probes at three points of the set-up scale it to reference host
    # speed; their own time is taken out of it.
    probes = [harness.host_probe() for _ in range(SETUP_HOST_PROBES)]
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        workload = harness.WORKLOADS[args.workload](
            args.seed, reference, workdir)
        probes += [harness.host_probe() for _ in range(SETUP_HOST_PROBES)]
        run = harness.Run(workload, harness.run_round(workload, 0))
        probes += [o.probe_s for o in run.warmup.outcomes]
        probes += [harness.host_probe() for _ in range(SETUP_HOST_PROBES)]
        setup_unscaled_s = time.perf_counter() - PROCESS_START - sum(probes)
        setup_s = setup_unscaled_s / harness.host_factor(probes)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = Tracer(workload.observe) if args.trace else None
        harness.timed_phase(run, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)

    detail = {}
    if args.trace:
        metrics = harness.per_layer_metrics(run, tracer)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        span_file = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.tsv")
        detail["spans"] = tracer.write_spans(span_file)
        detail["span_file"] = os.path.relpath(span_file, ROOT)
    else:
        setup_samples = [setup_s] + setup_probes(args)
        metrics = harness.end_to_end_metrics(
            run, statistics.median(setup_samples))
        detail["setup_samples_s"] = setup_samples
        detail["unscaled"] = {
            "setup_s": setup_unscaled_s,
            "ops_per_s": statistics.median(
                r.ops / r.busy_s for r in run.rounds),
            "latency_p50_ms": 1e3 * statistics.median(
                o.latency_s for r in run.rounds for o in r.outcomes)}
    latencies = harness.scaled_latencies(run)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    errors = run.errors
    detail.update(
        host_factor=harness.host_factor(
            [o.probe_s for r in run.rounds for o in r.outcomes]),
        rounds=len(run.rounds),
        timed_requests=len(latencies),
        timed_ops=sum(r.ops for r in run.rounds),
        requests_above_p90=sum(1 for x in latencies if x > p90),
        failed_frac=len(errors) / run.attempted,
        errors=errors[:10],
        run_check_failures=run.run_failures,
    )
    print(json.dumps({"provenance": provenance(fisym, args, workload),
                      "detail": detail}))
    for line in errors[:10] + run.run_failures:
        sys.stderr.write(f"check failed: {line}\n")
    print(json.dumps({
        "correct": not errors and not run.run_failures,
        "attempted": run.attempted,
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
