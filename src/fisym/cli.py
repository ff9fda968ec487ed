"""Command-line interface.

Subcommands: verify (certify a design/POVM file), build (write standard
constructions to operator files), fisher (information report for a
state/POVM pair), simulate (Monte Carlo run), sweep (radius grid to CSV).

Exit codes: 0 success / check passed, 1 check failed, 2 usage or parse
error, 3 numerical failure, 141 standard output closed by its reader
(128 + SIGPIPE, as a shell reports a process that a closed pipe ended).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import _tol, designs, fisher, opfile, povm, states, tomosim


class UsageError(Exception):
    pass


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")
    # a reader that closed the pipe shows here, inside main, not at exit
    sys.stdout.flush()


def _load(path) -> dict:
    # a config's "povm" may be any JSON value; an int would name a file
    # descriptor, which open() would read and then close
    if not isinstance(path, str) or not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    try:
        return opfile.load_json(path)
    except json.JSONDecodeError as exc:
        raise UsageError(f"invalid JSON in {path}: {exc}") from exc


def _finite_float(text: str) -> float:
    """argparse type of the float options: NaN and infinities are usage
    errors, as unparsable text is."""
    try:
        x = float(text)
        if np.isfinite(x):
            return x
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


# ---------------------------------------------------------------- verify

def _verify_povm(obj, tol) -> tuple[bool, dict]:
    p = opfile.obj_to_povm(obj)
    report = povm.validate_povm(p, tol)
    return report.ok, dataclasses.asdict(report)


def _verify_sic(obj, tol) -> tuple[bool, dict]:
    s = opfile.obj_to_state_set(obj)
    d = s.dim
    n = s.size
    overlaps = np.abs(s.vectors.conj() @ s.vectors.T) ** 2
    law = (d * np.eye(n) + 1.0) / (d + 1.0)
    residual = float(np.abs(overlaps - law).max())
    cert = designs.projective_2design_check(s, tol)
    ok = n == d * d and residual <= tol and cert.is_design
    return ok, {
        "elements": n,
        "dim": d,
        "overlap_residual": residual,
        "design": dataclasses.asdict(cert),
        "ok": bool(ok),
    }


def _verify_design2(obj, tol) -> tuple[bool, dict]:
    s = opfile.obj_to_state_set(obj)
    cert = designs.projective_2design_check(s, tol)
    return cert.is_design, dataclasses.asdict(cert)


def _verify_gdesign2(obj, tol) -> tuple[bool, dict]:
    s = opfile.obj_to_operator_set(obj)
    cert = designs.generalized_2design_check(s, tol)
    return cert.is_design, dataclasses.asdict(cert)


def _verify_gsic(obj, tol) -> tuple[bool, dict]:
    s = opfile.obj_to_operator_set(obj)
    report = designs.generalized_sic_check(s, tol)
    return report.is_gsic, dataclasses.asdict(report)


def _verify_coherent(obj, tol) -> tuple[bool, dict]:
    p = opfile.obj_to_povm(obj)
    report = povm.classify_coherent(p, tol)
    out = {
        "coherent": report.coherent,
        "classes": [{"kind": c.kind, "weight": c.weight}
                    for c in report.classes],
    }
    return report.coherent, out


def _verify_tight_coherent(obj, tol) -> tuple[bool, dict]:
    p = opfile.obj_to_povm(obj)
    report = povm.tight_coherent_check(p, tol)
    out = {
        "ok": report.ok,
        "completeness_residual": report.completeness_residual,
        "coherent": report.classification.coherent,
        "q_certificate": dataclasses.asdict(report.q_certificate),
        "purity_target": report.purity_target,
        "purity_residual": report.purity_residual,
    }
    if report.antisym_gsic is not None:
        out["antisym_gsic"] = dataclasses.asdict(report.antisym_gsic)
    return report.ok, out


_VERIFIERS = {
    "povm": _verify_povm,
    "sic": _verify_sic,
    "design2": _verify_design2,
    "gdesign2": _verify_gdesign2,
    "gsic": _verify_gsic,
    "coherent": _verify_coherent,
    "tight-coherent": _verify_tight_coherent,
}


def cmd_verify(args) -> int:
    obj = _load(args.file)
    try:
        ok, report = _VERIFIERS[args.kind](obj, args.tol)
    except ValueError as exc:
        # content that cannot even be assembled fails the check
        _emit({"ok": False, "error": str(exc)})
        return 1
    _emit(report)
    return 0 if ok else 1


# ----------------------------------------------------------------- build

def _povm_from_files(construct, *paths) -> dict:
    """File object of the POVM ``construct`` makes from the state sets in
    ``paths`` (None where a path is not given).  A given file that does
    not load as a state set, or whose states the construction rejects,
    is a usage error."""
    try:
        sets = [opfile.obj_to_state_set(_load(f)) if f else None
                for f in paths]
        return opfile.povm_to_obj(construct(*sets))
    except ValueError as exc:
        if not any(paths):
            raise
        raise UsageError(f"unfit input file: {exc}") from exc


def cmd_build(args) -> int:
    name = args.name
    if name in povm.NAMED_POVMS:
        obj = opfile.povm_to_obj(povm.NAMED_POVMS[name])
    elif name == "sic-qubit":
        obj = opfile.state_set_to_obj(designs.sic_qubit())
    elif name == "sic-d3":
        obj = opfile.state_set_to_obj(designs.sic_d3(args.phi))
    elif name == "mub":
        obj = opfile.state_set_to_obj(designs.mub_state_set(args.dim))
    elif name == "twocopy-design":
        if args.design is None:
            raise UsageError("twocopy-design needs --design FILE")
        obj = _povm_from_files(povm.twocopy_design_povm, args.design)
    elif name == "companion":
        if args.source is None:
            raise UsageError("companion needs --source FILE, a projective "
                             "2-design state set such as sic-qubit writes")
        obj = _povm_from_files(
            lambda s: povm.companion_povm(povm.twocopy_design_povm(s)),
            args.source)
    else:  # tight-coherent-d3, the last of the parser's choices
        obj = _povm_from_files(povm.minimal_tight_coherent_d3,
                               args.sic1, args.sic2)
    opfile.save_json(obj, args.out)
    return 0


# ---------------------------------------------------------------- fisher

def _resolve_povm(spec: str) -> povm.Povm:
    if spec in povm.NAMED_POVMS:
        return povm.NAMED_POVMS[spec]
    if os.path.exists(spec):
        try:
            return opfile.obj_to_povm(_load(spec))
        except ValueError as exc:
            raise UsageError(f"bad POVM file {spec}: {exc}") from exc
    raise UsageError(f"--povm must be a file or one of "
                     f"{tuple(povm.NAMED_POVMS)}")


def _parse_state(spec: str) -> states.DensityMatrix:
    if spec.startswith("bloch:"):
        try:
            s = [float(x) for x in spec[len("bloch:"):].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad Bloch vector: {exc}") from exc
        if len(s) != 3:
            raise UsageError("a Bloch vector has three components")
        return states.density_from_bloch(s)
    if spec.startswith("pure:"):
        try:
            amps = [complex(x) for x in spec[len("pure:"):].split(",")]
        except ValueError as exc:
            raise UsageError(f"bad amplitude list: {exc}") from exc
        v = np.array(amps, dtype=complex)
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            raise UsageError("state vector must be finite and nonzero")
        return states.DensityMatrix.from_pure(states.PureState(v / norm))
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    if os.path.exists(path):
        return opfile.obj_to_density(_load(path))
    raise UsageError("state must be 'bloch:x,y,z', 'pure:a0,a1,...', or a "
                     "density-matrix file")


def _choose_param(rho: states.DensityMatrix, choice: str) -> states.Parametrization:
    if choice == "auto":
        choice = ("pure" if rho.is_pure() else
                  "bloch" if rho.dim == 2 else "affine")
    if choice == "pure":
        if not rho.is_pure():
            raise UsageError("the pure-state chart needs a pure state")
        return states.PureCanonical(states.PureState(rho.eigenvectors[:, 0]))
    if choice == "bloch":
        if rho.dim != 2:
            raise UsageError("the Bloch chart is for qubits")
        return states.BlochQubit.from_density(rho)
    if choice == "affine":
        return states.AffineMixed(rho)
    raise UsageError(f"unknown parametrization {choice!r}")


def cmd_fisher(args) -> int:
    p = _resolve_povm(args.povm)
    try:
        rho = _parse_state(args.state)
    except ValueError as exc:
        raise UsageError(f"bad state {args.state!r}: {exc}") from exc
    if rho.dim != p.base_dim:
        raise UsageError(f"state dimension {rho.dim} does not match POVM "
                         f"base dimension {p.base_dim}")
    param = _choose_param(rho, args.param)
    mode = None if args.mode == "auto" else args.mode
    report = fisher.fisher_report(param, p, mode=mode,
                                  drop_threshold=args.drop_threshold)
    _emit(report.to_dict())
    return 0


# -------------------------------------------------------------- simulate

def _run_config(cls, path, what: str):
    """``cls(**obj)`` for the JSON object in the config file ``path``, its
    ``povm`` operator-file path replaced by the POVM it holds.  A config
    that the dataclass or the operator file rejects is a usage error."""
    obj = _load(path)
    try:
        if not isinstance(obj, dict):
            raise TypeError("config must be a JSON object")
        if "povm" in obj:
            if obj.get("scheme") != "custom":
                raise ValueError('a "povm" file is read only with "scheme": '
                                 '"custom"')
            obj = {**obj, "povm": opfile.obj_to_povm(_load(obj["povm"]))}
        return cls(**obj)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad {what} config: {exc}") from exc


def cmd_simulate(args) -> int:
    config = _run_config(tomosim.SimConfig, args.config, "simulation")
    out = tomosim.run_simulation(config).to_dict()
    if args.out:
        opfile.save_json(out, args.out)
    _emit(out)
    return 0


def cmd_sweep(args) -> int:
    config = _run_config(tomosim.SweepConfig, args.config, "sweep")
    rows = tomosim.sweep(config)
    tomosim.write_sweep_csv(rows, args.out)
    sys.stderr.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisym",
        description="Measurement designs, Fisher information bounds, and "
                    "tomography simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify a design or POVM file")
    p_verify.add_argument("kind", choices=sorted(_VERIFIERS))
    p_verify.add_argument("file")
    p_verify.add_argument("--tol", type=_finite_float,
                          default=_tol.VERIFY_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_build = sub.add_parser("build", help="write a standard construction")
    p_build.add_argument("name", choices=[
        "sic-qubit", "sic-d3", "mub", *povm.NAMED_POVMS,
        "twocopy-design", "companion", "tight-coherent-d3"])
    p_build.add_argument("--out", required=True)
    p_build.add_argument("--phi", type=_finite_float, default=0.0)
    p_build.add_argument("--dim", type=int, default=2, choices=(2, 3))
    p_build.add_argument("--design", help="state-set file for twocopy-design")
    p_build.add_argument("--source", help="state-set file for companion")
    p_build.add_argument("--sic1", help="first SIC file for tight-coherent-d3")
    p_build.add_argument("--sic2", help="second SIC file for tight-coherent-d3")
    p_build.set_defaults(func=cmd_build)

    p_fisher = sub.add_parser("fisher", help="information report")
    p_fisher.add_argument("--povm", required=True,
                          help=f"file or one of {tuple(povm.NAMED_POVMS)}")
    p_fisher.add_argument("--state", required=True,
                          help="'bloch:x,y,z', 'pure:a0,a1,...', or file")
    p_fisher.add_argument("--param", default="auto",
                          choices=["auto", "pure", "bloch", "affine"])
    p_fisher.add_argument("--mode", default="auto",
                          choices=["auto", "single-copy", "two-copy", "pure-n"])
    p_fisher.add_argument("--drop-threshold", type=_finite_float,
                          default=_tol.DROP_THRESHOLD)
    p_fisher.set_defaults(func=cmd_fisher)

    p_sim = sub.add_parser("simulate", help="Monte Carlo tomography run")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="radius sweep to CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ValueError, np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except MemoryError as exc:
        sys.stderr.write(f"out of memory: {exc}\n")
        return 3
    except BrokenPipeError:
        # the reader of stdout is gone; send what is left to devnull, so
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
