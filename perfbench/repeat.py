"""Repeat benchmark runs and report median, quartiles and spread.

    python3 perfbench/repeat.py --repeats 10
    python3 perfbench/repeat.py --repeats 5 --workloads mc-mle --trace 1

Run from the root of a fisym checkout.  Every run is a fresh process with
its own seed (``--seed-base`` + repeat index); the workload order rotates
from one repeat to the next, so slow phases of a noisy host spread over
all workloads.  For each workload and metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json.  In
traced runs it reports whether every count repeats exactly.  The last
line of stdout is the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "identical": len(set(values)) == 1}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in
                                         bench["workloads"]))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("need at least two repeats for quartiles")

    workloads = args.workloads.split(",")
    spec = bench["per_layer" if args.trace else "end_to_end"]
    results = {w: [] for w in workloads}
    for r in range(args.repeats):
        shift = r % len(workloads)
        for w in workloads[shift:] + workloads[:shift]:
            res = one_run(w, args.seed_base + r, args.seconds, args.trace)
            results[w].append(res)
            print(f"repeat {r} {w}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}",
                  file=sys.stderr, flush=True)

    summary = {}
    for w in workloads:
        runs = results[w]
        rows = {}
        for m in spec:
            values = [run["metrics"][m["name"]]["value"] for run in runs]
            row = summarize(values)
            row["unit"] = m["unit"]
            if "bound" in m:
                row["bound"] = m["bound"]
                row["within_third"] = row["spread"] < m["bound"] / 3
            rows[m["name"]] = row
        summary[w] = {
            "all_correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "metrics": rows,
        }
        print(f"\n{w}: all correct {summary[w]['all_correct']}, failed "
              f"{summary[w]['failed']}/{summary[w]['attempted']}")
        for name, row in rows.items():
            extra = (f" bound {row['bound']:.3f}"
                     f"{'' if row['within_third'] else '  WIDE'}"
                     if "bound" in row else
                     (" identical" if row["identical"] else ""))
            print(f"  {name:36s} {row['median']:14.6g} {row['unit']:9s} "
                  f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} "
                  f"spread {row['spread']:.4f}{extra}")
    print(json.dumps({"repeats": args.repeats, "seconds": args.seconds,
                      "trace": args.trace, "seed_base": args.seed_base,
                      "workloads": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
