"""Kernel microbenchmarks (pytest-benchmark), outside the test suite.

    python -m pytest benchmarks -q

Times the per-step kernels the end-to-end benchmark spends its steps in:
the pointwise Hilbert-Schmidt monitor, each model's nonlinearity on one
field, on the stack of three that a two-member run steps and on the
stack of thirteen that a 3 x 2 sweep of two members steps, the
dealiased advection of the torus models, the threaded Monte Carlo
variance of the stochastic convolution, the lockstep loop
simulate_members on a small sweep and on a 64-member ensemble, the
noise draws of that ensemble alone, the measured constants (alpha,
C_I, eta0) a volume sweep takes per delta, and `import nudgelab` in a
fresh interpreter.  pytest collects tests/ only by default, so these run
only when asked for.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import nudgelab
from nudgelab.harness import (_stride_idx, convolution_variance_mc,
                              measured_constants, member_seed)
from nudgelab.integrate import (_DRAW_BYTES, MONITORS, Group, Record,
                                StepConfig, _fill, _rng_for, simulate_members)
from nudgelab.models import build_model, random_field
from nudgelab.noise import hs_norm_sq, make_noise_coefficient, make_qspec
from nudgelab.observe import make_observation

# Grid sizes of the end-to-end workloads (ac_weak 64, nse_strong 32,
# qg 32); the models no workload runs take the size of their own kind.
SIZES = {"ac_weak": 64, "ac_strong": 64, "nse_weak": 32, "nse_strong": 32,
         "qg": 32, "mhd": 32}


def test_hs_norm_sq_pointwise_qg(benchmark):
    spec = build_model("qg", 32)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.05)
    u = random_field(spec, 1)
    assert benchmark(hs_norm_sq, coef, spec, u, q) > 0.0


@pytest.mark.parametrize("rows", [None, 3, 13])
@pytest.mark.parametrize("model_id", sorted(SIZES))
def test_f_raw(benchmark, model_id, rows):
    # rows=3: the (3,) + spec.shape stack a 2-member run steps, the
    # reference in row 0; rows=13: the stack of a 3 x 2 (mu, delta) sweep
    # of 2 members, one shared reference and 12 estimates; None: one lone
    # field
    spec = build_model(model_id, SIZES[model_id])
    if rows is None:
        c = random_field(spec, 1)
    else:
        c = np.stack([random_field(spec, s) for s in range(1, rows + 1)])
    assert benchmark(spec.f_raw, c).shape == c.shape


def test_torus_advect_nse_strong(benchmark):
    spec = build_model("nse_strong", 32)
    c = random_field(spec, 1)
    assert benchmark(spec.aux.advect, c, c).shape == spec.shape


def test_convolution_variance_mc_ac_weak(benchmark):
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=1e-3, T=0.5, mu=20.0)
    _, var, _ = benchmark(convolution_variance_mc, spec, cfg, coef, q,
                          [0.125, 0.25, 0.5], 1000, 3)
    assert var.shape == (3, spec.n)


def _bench_members(benchmark, spec, cfg, groups, members, record):
    # fresh generators per round: a run consumes its generators
    u0, v0 = random_field(spec, 1), random_field(spec, 2)

    def run():
        return simulate_members(spec, cfg, groups, u0, v0, [
            _rng_for(s) for s in range(members)], record)

    _, cells = benchmark(run)
    assert all(e is None for by_mu in cells for c in by_mu for e in c.errors)


def test_simulate_members_sweep_nse_strong_volume(benchmark):
    # sweep_vol's stack at n=16: a 3 x 2 (mu, delta) grid of 2 members,
    # recording the members' w_h only
    spec = build_model("nse_strong", 16)
    groups = [Group(make_observation(spec, "volume", d),
                    make_noise_coefficient("additive", 0.02),
                    make_qspec(spec, delta=d), (10.0, 50.0, 200.0))
              for d in (0.39, 0.8)]
    _bench_members(benchmark, spec, StepConfig(dt=1e-3, T=0.02), groups, 2,
                   Record(("w_h",)))


def test_simulate_members_ensemble_ac_weak(benchmark):
    # ens_ac's stack: 64 members, every monitor at every 10th step
    spec = build_model("ac_weak", 64)
    cfg = StepConfig(dt=1e-3, T=0.05)
    groups = [Group(make_observation(spec, "modal", 0.39),
                    make_noise_coefficient("additive", 0.05),
                    make_qspec(spec, delta=0.39), (50.0,))]
    _bench_members(benchmark, spec, cfg, groups, 64,
                   Record(MONITORS, _stride_idx(cfg.nsteps + 1, 10)))


@pytest.mark.parametrize("delta", [0.39, 0.8])
def test_measured_constants_nse_strong_volume(benchmark, delta):
    # what sweep_vol measures at each delta of its grid
    spec = build_model("nse_strong", 32)
    op = make_observation(spec, "volume", delta)
    _, ci, eta = benchmark(measured_constants, spec, op)
    assert ci > 0.0 and eta > 0.0


def test_member_sources_ac_weak(benchmark):
    # ens_ac's draws: 64 members of ac_weak n=64 over 250 steps, into one
    # buffer in the chunks of steps simulate_members draws
    shape = make_qspec(build_model("ac_weak", 64), delta=0.39).draw_shape
    chunk = _DRAW_BYTES // (8 * int(np.prod(shape)))
    buf = np.empty((64, chunk) + shape)

    def run():
        rngs = [_rng_for(member_seed(3, m)) for m in range(64)]
        for i in range(0, 250, chunk):
            _fill(rngs, buf[:, :250 - i])
        return buf

    assert benchmark(run).shape == (64, chunk, 64)


def test_import_nudgelab(benchmark):
    # a fresh interpreter that imports the package; the interpreter's own
    # start-up (that of python -c pass) is included
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    benchmark.pedantic(subprocess.run, args=(
        [sys.executable, "-c", "import nudgelab"],), kwargs={
        "env": env, "check": True}, rounds=10)
