"""The package's public names: every export resolves, once, to an import;
every entry point the benchmark traces still exists; and the package
metadata names the package, its version and its commands."""

import ast
import importlib
import os

import pytest

import nudgelab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INIT = os.path.join(os.path.dirname(nudgelab.__file__), "__init__.py")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")
PYPROJECT = os.path.join(ROOT, "pyproject.toml")


def _imported_names():
    with open(INIT, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            and node.level == 1 for alias in node.names]


def test_every_export_resolves():
    missing = [name for name in nudgelab.__all__
               if not hasattr(nudgelab, name)]
    assert missing == []


def test_every_export_listed_once():
    names = nudgelab.__all__
    assert len(names) == len(set(names))


def test_exports_match_imports():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert sorted(imported) == sorted(nudgelab.__all__)


def _traced_functions():
    # read the list without importing the tracer, which patches on install
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "NAMED_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no NAMED_FUNCTIONS")


def test_traced_entry_points_resolve():
    named = _traced_functions()
    assert named
    missing = [(mod, attr) for mod, attr, _ in named
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


def test_package_metadata():
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 and later
    with open(PYPROJECT, "rb") as fh:
        meta = tomllib.load(fh)
    project = meta["project"]
    assert project["name"] == "nudgelab"
    assert "version" not in project and project["dynamic"] == ["version"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "nudgelab.__version__"}
    assert project["scripts"]
    for target in project["scripts"].values():
        mod, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(mod), attr, None)), target
