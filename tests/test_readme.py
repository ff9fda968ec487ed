"""README.md as a tested contract: its examples run as written.

The examples are read from README.md itself, so no copy of them is kept
here.  Its fenced ``python`` block is a session whose ``print`` lines
each carry, as a ``# ...`` comment, the line they print.  Its plain
fenced blocks are shell: lines that start with ``fisym`` run in order
through ``fisym.cli.main`` in one temporary directory, each of them
exiting 0, after the files that ``cat > FILE <<'EOF' ... EOF`` writes
there; other lines (``pip``, ``pytest``, ``python tools/...``) are
skipped.  Every build name, verify kind, chart, mode, scheme, estimator
and config key of the CLI, every key of the ``simulate`` record and every
column of the ``sweep`` CSV is named in README.md, and every name in a
row of its module table exists in that row's module.
"""

import contextlib
import dataclasses
import importlib
import io
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import fisym
from fisym import cli, fisher, tomosim

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")

FENCES = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
SHELL = "".join(body for lang, body in FENCES if lang == "")
MODULES = {info.name for info in pkgutil.iter_modules(fisym.__path__)}


def _normal(line):
    return " ".join(line.split())


def test_session_prints_its_comments():
    # The printed text must equal the comments, up to whitespace, with no
    # numerical tolerance: what a reader sees is what the README shows.
    # The session rounds the floats it prints (to 9 decimals), so that the
    # last bits of numpy's arithmetic do not reach its output.
    (session,) = [body for lang, body in FENCES if lang == "python"]
    expected = [_normal(line.split("#", 1)[1]) for line in
                session.splitlines() if line.lstrip().startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(session, "README.md", "exec"), {})
    assert list(map(_normal, out.getvalue().splitlines())) == expected


def _shell_steps():
    """("write", name, text) and ("run", argv) steps in README order."""
    lines = iter(SHELL.splitlines(keepends=True))
    for line in lines:
        if heredoc := re.fullmatch(r"cat > (\S+) <<'EOF'\n", line):
            yield "write", heredoc[1], "".join(iter(lines.__next__, "EOF\n"))
        elif (argv := shlex.split(line, comments=True))[:1] == ["fisym"]:
            yield "run", argv[1:]


def test_commands_exit_zero(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for kind, *step in _shell_steps():
        if kind == "write":
            (tmp_path / step[0]).write_text(step[1], encoding="utf-8")
            continue
        (argv,) = step
        code = cli.main(argv)
        err = capsys.readouterr().err
        assert code == 0, f"fisym {' '.join(argv)} exited {code}: {err}"
        ran.append(argv)
    # every subcommand and every build name has an example
    assert {argv[0] for argv in ran} == {"build", "verify", "fisher",
                                          "simulate", "sweep"}
    assert {argv[1] for argv in ran if argv[0] == "build"} == set(cli._BUILDS)


def test_every_cli_name_is_documented():
    record = tomosim.run_simulation(tomosim.SimConfig(
        scheme="sic-single", bloch=(0.0, 0.0, 0.0), n_copies=4, n_trials=1,
        seed=0, estimator="linear")).to_dict()
    names = {*cli._BUILDS, *cli._VERIFIERS, *cli._CHARTS, *fisher._MODES,
             *tomosim.SCHEMES, "mle", "linear",
             *(f.name for cls in (tomosim.SimConfig, tomosim.SweepConfig)
               for f in dataclasses.fields(cls) if not f.name.startswith("_")),
             *record, *tomosim.SWEEP_COLUMNS}
    documented = set(re.findall(r"[\w-]+", README))
    assert names - documented == set()


def _table_rows():
    return re.findall(r"^\| `fisym\.(\w+)` \| (.*) \|$", README, re.M)


@pytest.mark.parametrize("module, cell", [
    pytest.param(module, cell, id=module) for module, cell in _table_rows()])
def test_module_table_names_resolve(module, cell):
    # a name resolves in the row's module, or, as fisher._born, in the
    # fisym module that its first part names
    names = re.findall(r"`([^`]+)`", cell)
    assert names, f"the fisym.{module} row names nothing"
    for name in names:
        parts = name.split(".")
        if parts[0] not in MODULES:
            parts = [module, *parts]
        obj = importlib.import_module(f"fisym.{parts[0]}")
        for part in parts[1:]:
            assert hasattr(obj, part), f"fisym.{module} row: {name}"
            obj = getattr(obj, part)
