"""The package's public surface: every name that a module exports exists,
the top-level names are those exports, the package reports the version of
its project metadata, and its tolerances are defined in one module."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fisym


def test_every_exported_name_resolves():
    # a stale __all__ entry shows only on `from module import *`
    missing = []
    for info in pkgutil.iter_modules(fisym.__path__):
        module = importlib.import_module(f"fisym.{info.name}")
        missing += [f"fisym.{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_top_level_names_are_the_modules_exports():
    # the modules' __all__ lists are the one list of the public API
    modules = ("matcore", "states", "designs", "povm", "fisher", "tomosim")
    exported = set()
    for name in modules:
        exported.update(importlib.import_module(f"fisym.{name}").__all__)
    public = {name for name, obj in vars(fisym).items()
              if not name.startswith("_") and not inspect.ismodule(obj)}
    assert public == exported


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert fisym.__version__ == version


def test_tolerances_live_in_tol_module():
    # a small float literal is a tolerance; _tol.py is the one place for it
    found = []
    for path in sorted(Path(fisym.__file__).parent.glob("*.py")):
        if path.name == "_tol.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and type(node.value) is float
                    and 0.0 < abs(node.value) < 1e-3):
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert found == []
