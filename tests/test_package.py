"""The package's public surface: every name that a module exports exists,
and the package reports the version of its project metadata."""

import importlib
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


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert fisym.__version__ == version
