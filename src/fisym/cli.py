"""Command-line interface.

Subcommands: verify (certify a design/POVM file), build (write standard
constructions to operator files), fisher (information report for a
state/POVM pair), simulate (Monte Carlo run), sweep (radius grid to CSV).

The verify kinds are the keys of one table, ``_VERIFIERS``, the build
names the keys of another, ``_BUILDS``, whose named measurements are
spread from ``povm.NAMED_POVMS``, and the fisher charts the keys of a
third, ``_CHARTS``; the parser reads its choices from them.  Every POVM
file, given to ``fisher --povm`` or named by a config, is read and
checked by one reader, ``_povm_file``.

Exit codes: 0 success / check passed, 1 check failed, 2 usage or parse
error (an input file that cannot be read as UTF-8 JSON or an --out path
that cannot be written included), 3 numerical failure (a floating-point
overflow anywhere in the request included), 141 standard
output closed by its reader (128 + SIGPIPE, as a shell reports a process
that a closed pipe ended).
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
    # strict JSON: a non-finite number raises ValueError, a numerical
    # failure, instead of printing NaN, which RFC 8259 does not have
    sys.stdout.write(json.dumps(obj, indent=1, allow_nan=False) + "\n")
    # a reader that closed the pipe shows here, inside main, not at exit
    sys.stdout.flush()


def _load(path) -> dict:
    # a config's "povm" may be any JSON value; an int would name a file
    # descriptor, which open() would read and then close
    if not isinstance(path, str) or not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    try:
        return opfile.load_json(path)
    except (OSError, UnicodeDecodeError) as exc:
        # a directory, an unreadable file, or bytes that are not UTF-8;
        # first, as a UnicodeDecodeError is a ValueError too
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not JSON, nested too deeply, or an integer too long to read
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


def _nonnegative(text: str) -> float:
    """argparse type of ``verify --tol``: a finite number, at least 0."""
    x = _finite_float(text)
    if x < 0.0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, "
                                         f"got {text!r}")
    return x


# ---------------------------------------------------------------- verify

def _verifier(read, check, ok_field):
    """Verify kind that reads the file object with ``read`` and runs
    ``check(x, tol)``.  It prints the report (a dataclass, or the dict of
    the kinds whose printed report is not one), whose field ``ok_field``
    holds the verdict."""
    def verify(obj, tol) -> tuple[bool, dict]:
        report = check(read(obj), tol)
        if not isinstance(report, dict):
            report = dataclasses.asdict(report)
        return report[ok_field], report
    return verify


def _sic_report(s, tol) -> dict:
    d, n = s.dim, s.size
    overlaps = np.abs(s.vectors.conj() @ s.vectors.T) ** 2
    law = (d * np.eye(n) + 1.0) / (d + 1.0)
    residual = float(np.abs(overlaps - law).max())
    cert = designs.projective_2design_check(s, tol)
    return {"elements": n, "dim": d, "overlap_residual": residual,
            "design": dataclasses.asdict(cert),
            "ok": bool(n == d * d and residual <= tol and cert.is_design)}


def _coherent_report(p, tol) -> dict:
    report = povm.classify_coherent(p, tol)
    return {"coherent": report.coherent,
            "classes": [{"kind": c.kind, "weight": c.weight}
                        for c in report.classes]}


def _tight_coherent_report(p, tol) -> dict:
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
    return out


# kind -> verifier(obj, tol) -> (ok, report); the parser's verify choices
_VERIFIERS = {
    "povm": _verifier(opfile.obj_to_povm, povm.validate_povm, "ok"),
    "sic": _verifier(opfile.obj_to_state_set, _sic_report, "ok"),
    "design2": _verifier(opfile.obj_to_state_set,
                         designs.projective_2design_check, "is_design"),
    "gdesign2": _verifier(opfile.obj_to_operator_set,
                          designs.generalized_2design_check, "is_design"),
    "gsic": _verifier(opfile.obj_to_operator_set,
                      designs.generalized_sic_check, "is_gsic"),
    "coherent": _verifier(opfile.obj_to_povm, _coherent_report, "coherent"),
    "tight-coherent": _verifier(opfile.obj_to_povm, _tight_coherent_report,
                                "ok"),
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
    not load as a state set, or whose states the construction rejects or
    overflows on, is a usage error."""
    try:
        sets = [opfile.obj_to_state_set(_load(f)) if f else None
                for f in paths]
        return opfile.povm_to_obj(construct(*sets))
    except (ValueError, FloatingPointError) as exc:
        if not any(paths):
            raise
        raise UsageError(f"unfit input file: {exc}") from exc


def _given(path, message: str) -> str:
    """``path``, an option that its construction needs; None is a usage
    error that says ``message``."""
    if path is None:
        raise UsageError(message)
    return path


# name -> file object of the construction for the parsed args; the parser's
# build choices, in this order
_BUILDS = {
    "sic-qubit": lambda a: opfile.state_set_to_obj(designs.sic_qubit()),
    "sic-d3": lambda a: opfile.state_set_to_obj(designs.sic_d3(a.phi)),
    "mub": lambda a: opfile.state_set_to_obj(designs.mub_state_set(a.dim)),
    **{name: lambda a, p=p: opfile.povm_to_obj(p)
       for name, p in povm.NAMED_POVMS.items()},
    "twocopy-design": lambda a: _povm_from_files(
        povm.twocopy_design_povm,
        _given(a.design, "twocopy-design needs --design FILE")),
    "companion": lambda a: _povm_from_files(
        povm.companion_povm,
        _given(a.source, "companion needs --source FILE, a projective "
                         "2-design state set such as sic-qubit writes")),
    "tight-coherent-d3": lambda a: _povm_from_files(
        povm.minimal_tight_coherent_d3, a.sic1, a.sic2),
}


def cmd_build(args) -> int:
    opfile.save_json(_BUILDS[args.name](args), args.out)
    return 0


# ---------------------------------------------------------------- fisher

def _povm_file(path) -> povm.Povm:
    """The POVM in the operator file ``path``, which must be positive and
    complete to ``_tol.POVM_TOL`` (:func:`povm._require_povm`): the one
    reader of ``fisher --povm`` files and of a config's ``povm`` file."""
    try:
        p = opfile.obj_to_povm(_load(path))
        povm._require_povm(p)
    except ValueError as exc:
        raise UsageError(f"bad POVM file {path}: {exc}") from exc
    return p


def _resolve_povm(spec: str) -> povm.Povm:
    """A named POVM, or the POVM in the file ``spec`` (:func:`_povm_file`)."""
    if spec in povm.NAMED_POVMS:
        return povm.NAMED_POVMS[spec]
    if os.path.exists(spec):
        return _povm_file(spec)
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
        v = states._unit_vector(np.array(amps, dtype=complex), "state vector")
        return states.DensityMatrix.from_pure(states.PureState(v))
    path = spec[len("file:"):] if spec.startswith("file:") else spec
    if os.path.exists(path):
        return opfile.obj_to_density(_load(path))
    raise UsageError("state must be 'bloch:x,y,z', 'pure:a0,a1,...', or a "
                     "density-matrix file")


def _pure_chart(rho: states.DensityMatrix) -> states.PureCanonical:
    if not rho.is_pure():
        raise UsageError("the pure-state chart needs a pure state")
    # based at rho itself, which is not built again
    return states.PureCanonical(states.PureState(rho.eigenvectors[:, 0]), rho)


def _bloch_chart(rho: states.DensityMatrix) -> states.BlochQubit:
    if rho.dim != 2:
        raise UsageError("the Bloch chart is for qubits")
    return states.BlochQubit.from_density(rho)


# name -> chart of rho; the parser's --param choices after "auto"
_CHARTS = {"pure": _pure_chart, "bloch": _bloch_chart,
           "affine": states.AffineMixed}


def _choose_param(rho: states.DensityMatrix, choice: str) -> states.Parametrization:
    if choice == "auto":
        choice = ("pure" if rho.is_pure() else
                  "bloch" if rho.dim == 2 else "affine")
    return _CHARTS[choice](rho)


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
    report = fisher.fisher_report(param, p, mode=mode)
    _emit(report.to_dict())
    return 0


# -------------------------------------------------------------- simulate

def _run_config(cls, path, what: str):
    """``cls(**obj)`` for the JSON object in the config file ``path``.
    With the scheme "custom", a ``povm`` operator-file path is replaced by
    the POVM it holds (:func:`_povm_file`); a null ``povm``, like any
    ``povm`` of another scheme, passes on unread for the dataclass to
    refuse.  A config that the dataclass or the operator file rejects is
    a usage error; the dataclass checks the whole run, its POVM included,
    before any trial."""
    obj = _load(path)
    try:
        if not isinstance(obj, dict):
            raise TypeError("config must be a JSON object")
        if obj.get("scheme") == "custom" and obj.get("povm") is not None:
            obj = {**obj, "povm": _povm_file(obj["povm"])}
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

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fisym",
        description="Measurement designs, Fisher information bounds, and "
                    "tomography simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="certify a design or POVM file")
    p_verify.add_argument("kind", choices=sorted(_VERIFIERS))
    p_verify.add_argument("file")
    p_verify.add_argument("--tol", type=_nonnegative,
                          default=_tol.VERIFY_TOL)
    p_verify.set_defaults(func=cmd_verify)

    p_build = sub.add_parser("build", help="write a standard construction")
    p_build.add_argument("name", choices=list(_BUILDS))
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
                          choices=["auto", *_CHARTS])
    p_fisher.add_argument("--mode", default="auto",
                          choices=["auto", *fisher._MODES])
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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # an overflow is a numerical failure, not a warning printed beside
        # a result computed from infinities
        with np.errstate(over="raise"):
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
    except OSError as exc:
        # input files are read by _load, so this is an --out path
        sys.stderr.write(f"error: cannot write output: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
