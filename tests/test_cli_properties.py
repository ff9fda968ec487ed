"""Property test for the command-line contract.

Whatever files and options it is given, ``fisym.cli.main`` returns exit
code 0 (ok), 1 (check failed), 2 (usage or parse error) or 3 (numerical
failure); no exception escapes it, and what it writes to standard output
is strict JSON, with no NaN or infinity.  hypothesis drives every
subcommand in process, and ``verify`` with every kind, on operator files
of dimension 1 to 3 on one or two copies: valid POVMs and state sets,
rank-deficient and non-informationally-complete POVMs, random elements,
entries scaled to near 1e308 or to subnormal size, and zero weights.
Numerical warnings are errors here, as everywhere in the suite; the
deliberate warnings of the Fisher reports (``UserWarning``) are not.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fisym.cli import _BUILDS, _CHARTS, _VERIFIERS, main
from fisym.designs import OperatorSet, sic_d3, sic_qubit
from fisym.fisher import _MODES
from fisym.opfile import (matrix_to_json, operator_set_to_obj, povm_to_obj,
                          state_set_to_obj)
from fisym.povm import NAMED_POVMS, Povm
from fisym.tomosim import SCHEMES

_EXIT_CODES = {0, 1, 2, 3}

# the dispatch table's names, so a new construction is fuzzed too
BUILD_NAMES = list(_BUILDS)

VALID = (
    *(povm_to_obj(p) for p in NAMED_POVMS.values()),
    povm_to_obj(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                     copies=1, base_dim=2)),  # rank 1 in the Bloch rows
    state_set_to_obj(sic_qubit()),
    state_set_to_obj(sic_d3(0.0)),
    operator_set_to_obj(OperatorSet(tuple(sic_qubit().projectors()))),
    {"dim": 1, "copies": 1,
     "elements": [{"weight": 1.0, "matrix": [[[1.0, 0.0]]]}]},
    *({"dim": 2, "copies": 1, "elements": [{"matrix": matrix_to_json(rho)}]}
      for rho in (np.diag([0.75, 0.25]), np.diag([1.0, 0.0]))),  # states
)

unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
# sizes an entry or weight may take: order one, near the largest double,
# subnormal, zero
sizes = st.sampled_from([1.0, 0.5, 1e308, 1.7e308, 1e150, 1e149, 1e-160,
                         1e-310, 5e-324, 0.0])


@st.composite
def random_files(draw):
    """Files of one to five random elements on d^copies dimensions, each
    a PSD matrix of random rank, or zero, scaled by one of ``sizes``,
    with or without a weight."""
    dim = draw(st.integers(1, 3))
    copies = draw(st.integers(1, 2)) if dim < 3 else 1
    n = dim ** copies
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        rank = draw(st.integers(0, n))
        g = draw(hnp.arrays(float, (n, max(rank, 1)), elements=unit)) \
            + 1j * draw(hnp.arrays(float, (n, max(rank, 1)), elements=unit))
        with np.errstate(over="ignore"):
            m = draw(sizes) * (g @ g.conj().T) if rank else np.zeros((n, n))
        element = {"matrix": matrix_to_json(m)}
        if draw(st.booleans()):
            element["weight"] = draw(sizes)
        elements.append(element)
    return {"dim": dim, "copies": copies, "elements": elements}


@st.composite
def edited_files(draw):
    """A valid file with its entries scaled by one of ``sizes``, with a
    subnormal added to one entry, or with one weight set to zero."""
    obj = json.loads(json.dumps(draw(st.sampled_from(VALID))))
    elements = obj["elements"]
    how = draw(st.sampled_from(["scale", "subnormal", "zero-weight", "none"]))
    index = draw(st.integers(0, len(elements) - 1))
    if how == "scale":
        scale = draw(sizes)
        for e in elements:
            e["matrix"] = (np.array(e["matrix"]) * scale).tolist()
    elif how == "subnormal":
        matrix = np.array(elements[index]["matrix"])
        matrix[(0,) * (matrix.ndim - 1)] += 5e-324
        elements[index]["matrix"] = matrix.tolist()
    elif how == "zero-weight":
        elements[index]["weight"] = 0.0
    return obj


files = st.one_of(random_files(), edited_files())

bloch_specs = st.sampled_from([
    "bloch:0,0,0", "bloch:0.3,-0.2,0.5", "bloch:1,0,0", "bloch:1e-320,0,0",
    "bloch:1e308,0,0", "pure:1,0", "pure:1e308,1e308", "pure:1e-320,1e-320",
    "pure:1,0,0", "pure:0.6,0.8j"])
tols = st.sampled_from(["0", "1e-8", "1e-3", "1e308", "5e-324"])
blochs = st.sampled_from([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5],
                          [0.999999, 0.0, 0.0], [1e-320, 0.0, 0.0]])


@st.composite
def requests(draw):
    """(argv, files) for one request: ``files`` maps the names in argv to
    the JSON objects to write there first."""
    command = draw(st.sampled_from(["verify", "build", "fisher", "simulate",
                                    "sweep"]))
    written = {"a.json": draw(files)}
    if command == "verify":
        return ["verify", draw(st.sampled_from(sorted(_VERIFIERS))), "a.json",
                "--tol", draw(tols)], written
    if command == "build":
        name = draw(st.sampled_from(BUILD_NAMES))
        written["b.json"] = draw(files)
        argv = ["build", name, "--out", "out.json", "--design", "a.json",
                "--source", "a.json", "--sic1", "a.json", "--sic2", "b.json"]
        if name == "mub":
            argv += ["--dim", draw(st.sampled_from(["2", "3"]))]
        if name == "sic-d3":
            argv += ["--phi", draw(st.sampled_from(["0", "0.7", "1e308"]))]
        return argv, written
    if command == "fisher":
        povm = draw(st.sampled_from(["a.json", *NAMED_POVMS]))
        state = draw(st.one_of(bloch_specs, st.just("a.json")))
        return ["fisher", "--povm", povm, "--state", state,
                "--param", draw(st.sampled_from(["auto", *_CHARTS])),
                "--mode", draw(st.sampled_from(["auto", *_MODES]))], written
    config = {
        "scheme": draw(st.sampled_from(SCHEMES)),
        "n_copies": draw(st.sampled_from([2, 4, 100])),
        "n_trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 5)),
        "estimator": draw(st.sampled_from(["mle", "linear"])),
    }
    if config["scheme"] == "custom":
        config["povm"] = "a.json"
    if command == "simulate":
        written["cfg.json"] = {**config, "bloch": draw(blochs)}
        return ["simulate", "--config", "cfg.json", "--out", "res.json"], \
            written
    written["cfg.json"] = {**config, "direction": draw(blochs),
                           "radii": draw(st.lists(st.sampled_from(
                               [0.0, 0.5, 0.999999]), min_size=1,
                               max_size=2))}
    return ["sweep", "--config", "cfg.json", "--out", "rows.csv"], written


def _strict(name):
    raise ValueError(f"non-finite {name} in standard output")


def run_request(argv, written):
    """Exit code and standard output of ``main(argv)``, run in a fresh
    directory after writing ``written`` there."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, obj in written.items():
                with open(name, "w") as f:
                    json.dump(obj, f)
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err), \
                    warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    code = exc.code
        finally:
            os.chdir(cwd)
    return code, out.getvalue()


@settings(max_examples=150)
@given(request=requests())
def test_every_request_keeps_the_exit_contract(request):
    code, stdout = run_request(*request)
    assert code in _EXIT_CODES
    if stdout:
        json.loads(stdout, parse_constant=_strict)
