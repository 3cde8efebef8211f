"""The package's public names: every export resolves, once, to an import;
every entry point the benchmark traces still exists; importing the
package and building the torus models' set-ups loads neither scipy.fft
nor concurrent.futures; and the package metadata names the package, its
version and its commands."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import nudgelab
from nudgelab.models import build_model, random_field

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


# what Tracer.install wraps by name besides NAMED_FUNCTIONS: the generator
# constructor behind every noise draw, and the writer of every output
INSTALLED = [("nudgelab.integrate", "_rng_for"), ("nudgelab.cli", "_write")]


def test_traced_entry_points_resolve():
    # a hook deleted or renamed fails here, not inside a traced benchmark run
    named = [(mod, attr) for mod, attr, _ in _traced_functions()]
    assert named
    missing = [(mod, attr) for mod, attr in named + INSTALLED
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []


# Run in a fresh interpreter: builds three torus set-ups, then one Allen-
# Cahn nonlinearity, and reports what was loaded before and after it.
IMPORT_PROBE = """
import hashlib, json, sys
import nudgelab
from nudgelab.models import build_model, random_field
for text in %r:
    nudgelab.build_setup(nudgelab.parse_config(text))
loaded = [m for m in ("scipy.fft", "concurrent.futures") if m in sys.modules]
spec = build_model("ac_weak", 64)
f = spec.f_raw(random_field(spec, 1))
print(json.dumps({"torus": loaded, "sine": "scipy.fft" in sys.modules,
                  "f_raw": hashlib.sha256(f.tobytes()).hexdigest()}))
"""
TORUS_CONFIGS = [
    "model.id = qg\nmodel.n = 16\nnoise.kind = pointwise_multiplicative\n"
    "noise.sigma = 0.05\n",
    "model.id = nse_strong\nmodel.n = 16\nobservation.kind = volume\n"
    "noise.sigma = 0.02\n",
    "model.id = mhd\nmodel.n = 16\nnoise.sigma = 0.02\n",
]
# sha256 of the bytes of f_raw(random_field(ac_weak 64, seed 1)), as it
# was computed while the package imported scipy.fft at import time
AC_F_RAW_SHA256 = "939297dff4d990d51b52932c0b51017db2baa61ff832b81876f7fe3f2e2c67b5"


def test_only_a_sine_model_loads_scipy():
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE % (TORUS_CONFIGS,)],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"torus": [], "sine": True, "f_raw": AC_F_RAW_SHA256}


def test_sine_transform_is_looked_up_at_each_call(monkeypatch):
    # the benchmark's tracer counts DSTs by rebinding scipy.fft.dst, so the
    # models must not hold on to the function they first found
    import scipy.fft
    calls = []
    real = scipy.fft.dst

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "dst", counted)
    spec = build_model("ac_weak", 16)
    spec.f_raw(random_field(spec, 1))
    assert len(calls) == 2     # to the doubled grid and back


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
