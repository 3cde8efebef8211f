"""The package's public names: every export resolves, once, to an import,
and is used inside the package or listed with its reader; every
exported function reads each of its parameters; no module squares a
norm; observe.py takes no matrix product; every entry point the
benchmark traces still exists; importing the package and building
set-ups (three torus ones and a sine one with pointwise noise) loads
none of scipy.fft, concurrent.futures and multiprocessing;
the package metadata names the package, its version and its commands;
and the kernel microbenchmarks run once."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
import textwrap

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


# exports that no module of the package calls, each kept for a reader
# outside it: the benchmark's tracer wraps simulate_pair by name, and
# tail_sup is the statistic of acceptance criterion 04
UNCALLED_EXPORTS = {"simulate_pair", "tail_sup"}


def test_every_export_is_used_in_the_package():
    # a public function that nothing calls fails here unless listed above
    used = set()
    for name in os.listdir(os.path.dirname(INIT)):
        path = os.path.join(os.path.dirname(INIT), name)
        if not name.endswith(".py") or path == INIT:
            continue
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert {n for n in nudgelab.__all__ if n not in used} == UNCALLED_EXPORTS


def test_every_export_reads_its_parameters():
    # a public function that ignores a parameter asks every caller for it
    unread = []
    for name in nudgelab.__all__:
        fn = getattr(nudgelab, name)
        if not inspect.isfunction(fn):
            continue
        node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                  + [args.vararg, args.kwarg] if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += ["%s(%s)" % (name, p) for p in params if p not in read]
    assert unread == []


def _is_norm_call(node):
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == "norm_raw"


def _names(target):
    # the names an assignment or loop target binds, not those it reads
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, ast.Starred):
        return _names(target.value)
    if isinstance(target, (ast.Tuple, ast.List)):
        return set().union(*map(_names, target.elts))
    return set()


def _own_nodes(scope):
    # the nodes of a module or function, not those of the functions in it
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _squared_norms(tree):
    """Lines that raise a norm to a power: a norm_raw(...) call, a name
    bound in the same function from an expression with such a call, or a
    for or comprehension target over an expression that reads a norm."""
    lines = []
    for scope in [tree] + [node for node in ast.walk(tree) if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef))]:
        nodes = list(_own_nodes(scope))
        norms, grown = None, set()
        while grown != norms:
            norms = grown
            grown = set(norms)
            for node in nodes:
                if (isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr))
                        and node.value is not None
                        and any(map(_is_norm_call, ast.walk(node.value)))):
                    targets = getattr(node, "targets", None) or [node.target]
                    grown |= set().union(*map(_names, targets))
                elif (isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                      and any(isinstance(n, ast.Name) and n.id in norms
                              for n in ast.walk(node.iter))):
                    grown |= _names(node.target)
        lines += [node.lineno for node in nodes
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                  and (_is_norm_call(node.left) or isinstance(node.left, ast.Name)
                       and node.left.id in norms)]
    return sorted(lines)


def test_no_module_squares_a_norm():
    """No module in the package raises a norm to a power: a squared norm
    or a pairing is one fields._wsum, as sqrt(s) ** 2 need not give back
    s.  Caught are ** of a norm_raw(...) call, of a name bound from one in
    the same function, and of a loop or comprehension variable drawn from
    such a name.  Two squares stay on purpose, since moving them moves
    pinned digests, and the pattern does not catch them: the Allen-Cahn
    kappa monitors in models._build_ac ((w * c) ** 2) and
    harness._aggregate (w ** 2 of the recorded w_h)."""
    squared = []
    for name in sorted(os.listdir(os.path.dirname(INIT))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(os.path.dirname(INIT), name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        squared += ["%s:%d" % (name, line) for line in _squared_norms(tree)]
    assert squared == []


def test_the_norm_square_guard_sees_through_names_and_loops():
    # the forms a squared norm has taken in the package, and look-alikes
    # that square no norm
    flagged = textwrap.dedent("""
        def direct(spec, u):
            return norm_raw(spec, u, "H") ** 2
        def bound(spec, u):
            r = 2.0 * fields.norm_raw(spec, u, "H")
            return r ** 2
        def looped(spec, us, lam):
            norms = norm_raw(spec, us, "H")
            total = 0.0
            for l, x in zip(lam, norms.tolist()):
                total += l * l * x ** 2
            return total + sum(y ** 2 for y in norms)
        """)
    clean = textwrap.dedent("""
        def other_function(spec, u):
            r = norm_raw(spec, u, "H")
            return r
        def squares_its_own(r):
            return r ** 2
        def subscript_target(spec, u, a, i):
            a[i] = norm_raw(spec, u, "H")
            return i ** 2
        """)
    assert _squared_norms(ast.parse(flagged)) == [3, 6, 11, 12]
    assert _squared_norms(ast.parse(clean)) == []


def test_observe_uses_no_matrix_product():
    """observe.py forms I_delta and C_I by gathers, products and sums over
    the alias classes, and noise.py the increments and the Hilbert-Schmidt
    norms (the torus form included) by products, transforms and sums: no
    @, np.matmul, np.dot, np.tensordot or np.einsum, whose BLAS kernels
    round differently from host to host.  The one exception is
    np.linalg.svd in estimate_interp_constant, the norm of the class
    blocks, which is not caught here."""
    banned = {"matmul", "dot", "tensordot", "einsum"}
    found = []
    for name in ("observe.py", "noise.py"):
        with open(os.path.join(os.path.dirname(INIT), name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        found += ["%s:@:%d" % (name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.MatMult)]
        found += ["%s:%s:%d" % (name, node.attr, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in banned]
    assert found == []


def test_the_fork_helper_knows_no_caller():
    """chunks.py, the fork helper, imports nothing of the package, so no
    caller's result layout leaks into it; and the process count is
    decided in integrate alone (_processes), so harness binds neither
    _cpus nor _forkable."""
    with open(os.path.join(os.path.dirname(INIT), "chunks.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    own = [node.lineno for node in ast.walk(tree)
           if isinstance(node, ast.ImportFrom)
           and (node.level or (node.module or "").startswith("nudgelab"))]
    assert own == []
    import nudgelab.harness as H
    assert {"_cpus", "_forkable"} & set(vars(H)) == set()


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


# Run in a fresh interpreter: builds three torus set-ups and a sine one,
# then one Allen-Cahn nonlinearity, and reports what was loaded before and
# after it.  The sine set-up builds a pointwise-noise QSpec, which must run
# no DST: loading scipy.fft takes longer than the whole set-up.
IMPORT_PROBE = """
import hashlib, json, sys
import nudgelab
from nudgelab.models import build_model, random_field
for text in %r:
    nudgelab.build_setup(nudgelab.parse_config(text))
loaded = [m for m in ("scipy.fft", "concurrent.futures", "multiprocessing")
          if m in sys.modules]
spec = build_model("ac_weak", 64)
f = spec.f_raw(random_field(spec, 1))
print(json.dumps({"setup": loaded, "sine": "scipy.fft" in sys.modules,
                  "f_raw": hashlib.sha256(f.tobytes()).hexdigest()}))
"""
SETUP_CONFIGS = [
    "model.id = qg\nmodel.n = 16\nnoise.kind = pointwise_multiplicative\n"
    "noise.sigma = 0.05\n",
    "model.id = nse_strong\nmodel.n = 16\nobservation.kind = volume\n"
    "noise.sigma = 0.02\n",
    "model.id = mhd\nmodel.n = 16\nnoise.sigma = 0.02\n",
    "model.id = ac_weak\nmodel.n = 64\nnoise.kind = pointwise_multiplicative\n"
    "noise.sigma = 0.05\n",
]
# sha256 of the bytes of f_raw(random_field(ac_weak 64, seed 1)); it reads
# the same with numpy's AVX-512 dispatch on and off
AC_F_RAW_SHA256 = "5dddc9fb6f48b5b4471aca683104abfade124e818aeaa53d219e440941df1b8e"


def test_only_a_sine_model_loads_scipy():
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE % (SETUP_CONFIGS,)],
                         env=env, capture_output=True, text=True, check=True)
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen == {"setup": [], "sine": True, "f_raw": AC_F_RAW_SHA256}


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
    assert len(calls) == 2     # to the cube's 5-smooth grid and back


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


def test_microbenchmarks_run_once():
    # the microbenchmarks call into the package's internals, outside the
    # suite's own collection: run each once, untimed, so a narrowed
    # signature they use fails here rather than only when they are timed
    pytest.importorskip("pytest_benchmark")
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q",
         "-p", "no:cacheprovider", "--benchmark-disable"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
