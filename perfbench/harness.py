"""Workloads, closed request loop and metrics of the fisym benchmark.

A request is one in-process call to ``fisym.cli.main(argv)`` with stdout
and stderr captured.  One client sends the next request only after the
previous one returned and was checked.  Requests are grouped in rounds;
every round of a workload has the same request kinds, so per-operation
counts from a traced run do not depend on how many rounds fit.

Inputs come from a recorded pool (``reference.json``): the workload seed
chooses which pool entries are sent and in which order, and the recorded
outputs of those entries are the correctness reference.

Before each request the client times a fixed host probe that runs no
fisym code; request times are divided by the host factor it gives, so
they read as if measured on a host of reference speed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from fisym import cli
from tracer import LINALG

N_COPIES = 10_000

# Criterion-7 points: (scheme, Bloch radius along x, trials per request).
# Trial counts make each request cost about 80 ms at the commit that
# recorded the reference, so the latency percentiles fall inside one
# cluster of request times instead of on the gap between two kinds, and
# a run holds enough requests for its p90 to have ten samples above it.
MLE_POINTS = (
    ("collective-sic", 0.0, 3),
    ("collective-sic", 0.5, 8),
    ("collective-sic", 0.9, 6),
    ("sic-single", 0.0, 11),
)
MLE_REL_TOL = 1e-4
# Pooled Monte Carlo means must lie within this many standard errors of
# the asymptotic value, plus criterion 7's 5 % allowance for the
# finite-N gap, which does not shrink with more trials.
MLE_STAT_SIGMAS = 5.0
MLE_STAT_REL = 0.05

SWEEP_SCHEMES = ("sic-single", "mub-single", "collective-sic")
SWEEP_RADII = (0.0, 0.3, 0.6, 0.9)
SWEEP_TRIALS = 20
SWEEP_COLUMNS = ("scaled_mse", "mse_stderr", "scaled_msb", "msb_stderr",
                 "analytic_mse", "analytic_msb")
SWEEP_REL_TOL = 1e-9

# Fisher requests: (reference key, --povm, state pool).
FISHER_KINDS = (
    ("collective-sic", "collective-sic", "qubit"),
    ("sic-single", "sic-single", "qubit"),
    ("great-circle", "great-circle", "qubit"),
    ("tight-coherent-d3/pure", "tight-coherent-d3", "pure"),
    ("tight-coherent-d3/mixed", "tight-coherent-d3", "mixed"),
    ("twocopy-design/pure", "twocopy-design", "pure"),
    ("twocopy-design/mixed", "twocopy-design", "mixed"),
)
# The paper's law: rank-one single-copy POVMs and coherent complete
# two-copy POVMs attain the bound with equality on full-rank states.
EQUALITY_LAW = {"collective-sic", "sic-single", "great-circle",
                "tight-coherent-d3/mixed"}
FISHER_REL_TOL = 1e-9
VERIFY_FILES = 8


@dataclass
class Request:
    kind: str
    argv: list
    ops: int
    check: Callable[[int, str], str | None]
    out: str | None = None


@dataclass
class Outcome:
    kind: str
    ops: int
    latency_s: float
    error: str | None
    probe_s: float = 0.0   # host probe time just before the request
    scaled_s: float = 0.0  # latency at reference host speed


def close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def write_json(path, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return str(path)


def matrix_obj(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


# ----------------------------------------------------------- input builders
# Shared by the workloads and by record.py, so the recorded reference
# comes from exactly the requests the benchmark sends.

def simulate_config(point: int, seed: int) -> dict:
    scheme, s, trials = MLE_POINTS[point]
    return {"scheme": scheme, "bloch": [s, 0.0, 0.0], "n_copies": N_COPIES,
            "n_trials": trials, "seed": seed}


def sweep_config(scheme: str, seed: int) -> dict:
    return {"scheme": scheme, "radii": list(SWEEP_RADII),
            "n_copies": N_COPIES, "n_trials": SWEEP_TRIALS, "seed": seed,
            "estimator": "linear"}


def state_spec(pool: str, state, path) -> str:
    """The ``--state`` argument; full-rank d = 3 states go via a file."""
    if pool == "qubit":
        return "bloch:" + ",".join(repr(float(x)) for x in state)
    if pool == "pure":
        amps = [complex(re, im) for re, im in state]
        return "pure:" + ",".join(repr(a) for a in amps)
    return write_json(path, {"dim": 3, "copies": 1,
                             "elements": [{"matrix": state}]})


def run_cli(argv) -> tuple[int, str]:
    """One request: ``fisym.cli.main(argv)`` with output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def fisym_build(argv) -> None:
    """An input-generating ``fisym build`` call; it must succeed."""
    rc, _ = run_cli(argv)
    if rc != 0:
        raise RuntimeError(f"fisym {' '.join(argv[:3])} exited {rc}")


def build_povm_files(workdir) -> dict:
    """The d = 3 operator files the fisher requests read."""
    sic = os.path.join(workdir, "sic-d3.json")
    files = {"twocopy-design": os.path.join(workdir, "twocopy-design.json"),
             "tight-coherent-d3": os.path.join(workdir, "tight-coherent.json")}
    for argv in (["build", "sic-d3", "--phi", "0.0", "--out", sic],
                 ["build", "twocopy-design", "--design", sic,
                  "--out", files["twocopy-design"]],
                 ["build", "tight-coherent-d3",
                  "--out", files["tight-coherent-d3"]]):
        fisym_build(argv)
    return files


def pool_order(size: int, rng: random.Random) -> list:
    """Entry 0 first, for the warm-up round, then the rest shuffled.

    A fixed warm-up input keeps the set-up time independent of the seed.
    """
    rest = list(range(1, size))
    rng.shuffle(rest)
    return [0] + rest


# ---------------------------------------------------------------- workloads

class Workload:
    name = ""
    op_unit = ""

    def __init__(self):
        self.clipped = [0, 0]  # n_clipped, n_trials seen by the tracer

    @property
    def observe(self) -> dict:
        """Tracer callbacks: clip counts from every SimResult returned."""
        return {"tomosim.run_simulation": self._count_clipped}

    def _count_clipped(self, result):
        self.clipped[0] += result.n_clipped
        self.clipped[1] += result.config.n_trials

    def round(self, index: int) -> list[Request]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks after the last round; returns failures."""
        return []

    def params(self) -> dict:
        raise NotImplementedError


class McMle(Workload):
    """``fisym simulate`` with the MLE estimator on the criterion-7 mix."""

    name = "mc-mle"
    op_unit = "Monte Carlo trial at N = 1e4"

    def __init__(self, seed: int, ref: dict, workdir: str):
        super().__init__()
        self.rng = random.Random(seed)
        self.queues = []
        for j, entries in enumerate(ref["mc-mle"]["points"]):
            order = pool_order(len(entries), self.rng)
            self.queues.append([
                (entries[k], write_json(
                    os.path.join(workdir, f"mle-{j}-{k}.json"),
                    simulate_config(j, entries[k]["seed"])))
                for k in order])
        self.pooled = [[] for _ in MLE_POINTS]

    def _request(self, j: int, index: int) -> Request:
        scheme, s, trials = MLE_POINTS[j]
        queue = self.queues[j]
        entry, path = queue[index % len(queue)]

        def check(rc, out):
            if rc != 0:
                return f"exit code {rc}"
            res = json.loads(out)
            if res["n_trials"] != trials or res["seed"] != entry["seed"]:
                return "result echoes another config"
            for key in ("scaled_mse", "scaled_msb"):
                if not close(res[key], entry[key], MLE_REL_TOL):
                    return (f"{key} {res[key]!r} differs from reference "
                            f"{entry[key]!r} (seed {entry['seed']})")
            self.pooled[j].append((trials, res))
            return None

        return Request(f"simulate {scheme} s={s}",
                       ["simulate", "--config", path], trials, check)

    def round(self, index):
        reqs = [self._request(j, index) for j in range(len(MLE_POINTS))]
        self.rng.shuffle(reqs)
        return reqs

    def finish(self):
        failures = []
        for (scheme, s, _), results in zip(MLE_POINTS, self.pooled):
            targets = {"scaled_msb": 1.5 if scheme == "collective-sic"
                       else 2.25}
            if scheme == "collective-sic":
                targets["scaled_mse"] = 3.0 - s * s
            total = sum(t for t, _ in results)
            if not total:
                failures.append(f"{scheme} s={s}: no result passed its check")
                continue
            for key, target in targets.items():
                se_key = "mse_stderr" if key == "scaled_mse" else "msb_stderr"
                mean = sum(t * r[key] for t, r in results) / total
                se = math.sqrt(sum((t * r[se_key]) ** 2
                                   for t, r in results)) / total
                slack = MLE_STAT_SIGMAS * se + MLE_STAT_REL * target
                if abs(mean - target) > slack:
                    failures.append(
                        f"{scheme} s={s} pooled {key} {mean:.4f} over "
                        f"{total} trials is {abs(mean - target):.4f} from "
                        f"the analytic {target} (allowed {slack:.4f})")
        return failures

    def params(self):
        return {"points": [{"scheme": sc, "bloch": [s, 0.0, 0.0],
                            "n_trials": t} for sc, s, t in MLE_POINTS],
                "n_copies": N_COPIES, "estimator": "mle",
                "pool_per_point": [len(q) for q in self.queues],
                "rel_tol": MLE_REL_TOL,
                "stat_check": {"sigmas": MLE_STAT_SIGMAS,
                               "rel_allowance": MLE_STAT_REL}}


class McSweepLinear(Workload):
    """``fisym sweep`` with the linear estimator over four radii."""

    name = "mc-sweep-linear"
    op_unit = "Monte Carlo trial at N = 1e4"

    def __init__(self, seed: int, ref: dict, workdir: str):
        super().__init__()
        self.rng = random.Random(seed)
        self.queues = {}
        for scheme in SWEEP_SCHEMES:
            entries = ref["mc-sweep-linear"][scheme]
            order = pool_order(len(entries), self.rng)
            self.queues[scheme] = [
                (entries[k], write_json(
                    os.path.join(workdir, f"sweep-{scheme}-{k}.json"),
                    sweep_config(scheme, entries[k]["seed"])))
                for k in order]
        self.workdir = workdir

    def _request(self, scheme: str, index: int) -> Request:
        queue = self.queues[scheme]
        entry, path = queue[index % len(queue)]
        out_path = os.path.join(self.workdir, f"sweep-{scheme}.csv")

        def check(rc, _):
            if rc != 0:
                return f"exit code {rc}"
            with open(out_path, encoding="utf-8", newline="") as fh:
                lines = [ln for ln in fh if not ln.startswith("#")]
            rows = list(csv.DictReader(lines))
            if len(rows) != len(SWEEP_RADII):
                return f"{len(rows)} rows, expected {len(SWEEP_RADII)}"
            for row, s, ref_row in zip(rows, SWEEP_RADII, entry["rows"]):
                if float(row["s"]) != s or row["scheme"] != scheme:
                    return f"row for s={row['s']} {row['scheme']} out of order"
                for col, ref_value in zip(SWEEP_COLUMNS, ref_row):
                    if not close(float(row[col]), ref_value, SWEEP_REL_TOL):
                        return (f"s={s} {col} {row[col]} differs from "
                                f"reference {ref_value!r} (seed "
                                f"{entry['seed']})")
            return None

        return Request(f"sweep {scheme}",
                       ["sweep", "--config", path, "--out", out_path],
                       SWEEP_TRIALS * len(SWEEP_RADII), check, out=out_path)

    def round(self, index):
        reqs = [self._request(sc, index) for sc in SWEEP_SCHEMES]
        self.rng.shuffle(reqs)
        return reqs

    def params(self):
        return {"schemes": list(SWEEP_SCHEMES), "radii": list(SWEEP_RADII),
                "direction": [1.0, 0.0, 0.0], "n_copies": N_COPIES,
                "n_trials": SWEEP_TRIALS, "estimator": "linear",
                "pool_per_scheme": {k: len(q) for k, q in self.queues.items()},
                "rel_tol": SWEEP_REL_TOL}


class InfoCertify(Workload):
    """Short ``fisher`` and ``verify`` requests; no Monte Carlo."""

    name = "info-certify"
    op_unit = "request"

    def __init__(self, seed: int, ref: dict, workdir: str):
        super().__init__()
        info = ref["info-certify"]
        self.rng = random.Random(seed)
        files = build_povm_files(workdir)
        self.fisher = []
        for key, povm, pool in FISHER_KINDS:
            states = info["states"][pool]
            order = pool_order(len(states), self.rng)
            queue = []
            for k in order:
                spec = state_spec(pool, states[k], os.path.join(
                    workdir, f"state-{pool}-{k}.json"))
                queue.append((k, ["fisher", "--povm", files.get(povm, povm),
                                  "--state", spec]))
            self.fisher.append((key, info["reports"][key], queue))
        # verify targets: SICs of the d = 3 family at seeded phases and
        # tight coherent POVMs built from pairs of them.
        self.phases = [self.rng.uniform(0.0, 2.0 * math.pi)
                       for _ in range(VERIFY_FILES)]
        self.sic_files, self.tight_files = [], []
        for i, phi in enumerate(self.phases):
            path = os.path.join(workdir, f"verify-sic-{i}.json")
            fisym_build(["build", "sic-d3", "--phi", repr(phi),
                         "--out", path])
            self.sic_files.append(path)
        for i, path in enumerate(self.sic_files):
            other = self.sic_files[(i + 1) % len(self.sic_files)]
            out = os.path.join(workdir, f"verify-tight-{i}.json")
            fisym_build(["build", "tight-coherent-d3", "--sic1", path,
                         "--sic2", other, "--out", out])
            self.tight_files.append(out)

    @staticmethod
    def _fisher_check(key, expected):
        def check(rc, out):
            if rc != 0:
                return f"exit code {rc}"
            rep = json.loads(out)
            for name in ("i_matrix", "j_matrix"):
                got = np.array(rep[name], dtype=float)
                want = np.array(expected[name], dtype=float)
                if (got.shape != want.shape or np.linalg.norm(got - want)
                        > FISHER_REL_TOL * np.linalg.norm(want)):
                    return f"{key} {name} differs from reference"
            for part in ("gm", "symmetry"):
                if rep[part]["verdict"] != expected[part]:
                    return (f"{key} {part} verdict {rep[part]['verdict']!r}, "
                            f"reference {expected[part]!r}")
            if key in EQUALITY_LAW and rep["gm"]["verdict"] != "equality":
                return f"{key} misses the equality law: {rep['gm']}"
            return None
        return check

    @staticmethod
    def _verify_check(rc, out):
        if rc != 0:
            return f"exit code {rc}"
        if json.loads(out).get("ok") is not True:
            return "report does not say ok"
        return None

    def round(self, index):
        reqs = []
        for key, reports, queue in self.fisher:
            k, argv = queue[index % len(queue)]
            reqs.append(Request(f"fisher {key}", argv, 1,
                                self._fisher_check(key, reports[k])))
        i = index % VERIFY_FILES
        reqs.append(Request("verify sic", ["verify", "sic",
                                           self.sic_files[i]],
                            1, self._verify_check))
        reqs.append(Request("verify tight-coherent",
                            ["verify", "tight-coherent", self.tight_files[i]],
                            1, self._verify_check))
        self.rng.shuffle(reqs)
        return reqs

    def params(self):
        return {"fisher_kinds": [k for k, _, _ in FISHER_KINDS],
                "pool_per_kind": {k: len(q) for k, _, q in self.fisher},
                "verify_sic_phases": self.phases,
                "equality_law": sorted(EQUALITY_LAW),
                "rel_tol": FISHER_REL_TOL}


WORKLOADS = {w.name: w for w in (McMle, McSweepLinear, InfoCertify)}


# -------------------------------------------------------------- request loop

def execute(req: Request) -> Outcome:
    if req.out and os.path.exists(req.out):
        os.remove(req.out)
    rc, out, error = None, "", None
    start = time.perf_counter()
    try:
        rc, out = run_cli(req.argv)
    except (Exception, SystemExit) as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    if error is None:
        try:
            error = req.check(rc, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    if error is not None:
        error = f"{req.kind}: {error}"
    return Outcome(req.kind, req.ops, latency, error)


@dataclass
class RoundResult:
    outcomes: list
    traced: bool

    @property
    def ops(self) -> int:
        return sum(o.ops for o in self.outcomes)

    @property
    def busy_s(self) -> float:
        return sum(o.latency_s for o in self.outcomes)

    @property
    def scaled_busy_s(self) -> float:
        return sum(o.scaled_s for o in self.outcomes)


@dataclass
class Run:
    workload: Workload
    warmup: RoundResult
    rounds: list = field(default_factory=list)
    run_failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0

    def outcomes(self):
        yield from self.warmup.outcomes
        for r in self.rounds:
            yield from r.outcomes

    @property
    def attempted(self) -> int:
        return sum(1 for _ in self.outcomes())

    @property
    def errors(self) -> list:
        return [o.error for o in self.outcomes() if o.error]


# The host probe's time on a host at reference speed.  Timings divided by
# host_factor() read as if measured at that speed.
PROBE_REF_S = 1e-3
# A request's host factor comes from the probes of this many requests on
# either side of it: enough probes for a steady median, few enough to
# follow the host's drift.
HOST_WINDOW = 8
_PROBE_A = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])


def host_probe() -> float:
    """Seconds taken by a fixed kernel of small NumPy calls and Python.

    It uses no fisym code, so it measures how fast the host runs at the
    moment, not how fast fisym is.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(20):
        a = _PROBE_A + i * 1e-3
        acc += float(np.linalg.eigvalsh(a)[0])
        m = np.kron(a, a)
        acc += float(np.einsum("ab,ba->", m, m).real)
        acc += sum(k * 0.5 for k in range(30))
    return time.perf_counter() - start


def host_factor(probe_times) -> float:
    """How much slower than reference speed the host ran (median)."""
    return statistics.median(probe_times) / PROBE_REF_S


def scale_to_reference(rounds) -> None:
    """Set every outcome's ``scaled_s`` from the probes around it."""
    outcomes = [o for r in rounds for o in r.outcomes]
    probes = [o.probe_s for o in outcomes]
    for i, o in enumerate(outcomes):
        window = probes[max(0, i - HOST_WINDOW):i + HOST_WINDOW + 1]
        o.scaled_s = o.latency_s / host_factor(window)


def run_round(workload, index, tracer=None) -> RoundResult:
    outcomes = []
    for req in workload.round(index):
        probe = host_probe()
        if tracer is not None:
            tracer.install()
        try:
            outcome = execute(req)
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome.probe_s = probe
        outcomes.append(outcome)
    return RoundResult(outcomes, tracer is not None)


def timed_phase(run: Run, seconds: float, tracer=None) -> None:
    """Run whole rounds until ``seconds`` have passed (at least two).

    With a tracer, every round runs twice on the same inputs, traced and
    then untraced, so the tracing overhead compares identical work.
    """
    start = time.perf_counter()
    index = 1
    while index <= 2 or time.perf_counter() - start < seconds:
        run.rounds.append(run_round(run.workload, index, tracer))
        if tracer is not None:
            run.rounds.append(run_round(run.workload, index))
        index += 1
    scale_to_reference(run.rounds)
    run.peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.run_failures = run.workload.finish()


# ------------------------------------------------------------------ metrics

def scaled_latencies(run: Run) -> list:
    return [o.scaled_s for r in run.rounds for o in r.outcomes]


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    """End-to-end metrics; request timings are scaled to reference host
    speed; ``setup_s`` comes scaled."""
    latencies = scaled_latencies(run)
    rates = [r.ops / r.scaled_busy_s for r in run.rounds]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "latency_p50_ms": {"value": 1e3 * statistics.median(latencies),
                           "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * statistics.quantiles(
            latencies, n=10)[-1], "unit": "ms"},
        "peak_rss_mb": {"value": run.peak_rss_mb, "unit": "MB"},
    }


NAMED_CALLS = (
    "states.fidelity", "states.density_from_bloch", "states.qfi_matrix",
    "states.sld", "states.tangent_ops", "fisher.fisher_matrix",
    "fisher.fisher_report", "fisher.outcome_probs", "povm.classify_coherent",
    "matcore.require_hermitian", "opfile.json_to_matrix",
)


def per_layer_metrics(run: Run, tracer) -> dict:
    """Per-operation layer metrics from the traced rounds."""
    traced = [r for r in run.rounds if r.traced]
    plain = [r for r in run.rounds if not r.traced]
    ops = sum(r.ops for r in traced)
    out = {}
    for layer, agg in tracer.layer_totals().items():
        out[f"{layer}.calls"] = {"value": agg["calls"] / ops,
                                 "unit": "calls/op"}
        out[f"{layer}.self_s"] = {"value": agg["self_s"] / ops, "unit": "s/op"}
        out[f"{layer}.errors"] = {"value": agg["errors"] / ops,
                                  "unit": "errors/op"}
    for name in NAMED_CALLS:
        out[f"{name}.calls"] = {"value": tracer.calls[name] / ops,
                                "unit": "calls/op"}
    for name in LINALG:
        out[f"linalg.{name}.calls"] = {
            "value": tracer.linalg_calls[name] / ops, "unit": "calls/op"}
    n_clipped, n_trials = run.workload.clipped
    out["tomosim.clip_frac"] = {
        "value": n_clipped / n_trials if n_trials else 0.0, "unit": "ratio"}
    ratios = [t.scaled_busy_s / p.scaled_busy_s
              for t, p in zip(traced, plain)]
    out["trace.overhead"] = {"value": statistics.median(ratios) - 1.0,
                             "unit": "ratio"}
    return out
