"""Kernel microbenchmarks (pytest-benchmark), outside the test suite.

    python -m pytest benchmarks -q

Times the per-step kernels the end-to-end benchmark spends its steps in:
the pointwise Hilbert-Schmidt monitor on qg (the torus form, one value
per mode), on nse_strong (a 2 x 2 block per mode), on ac_weak n=64 and
n=256 and on ac_strong n=32 (the sine grid's transformed directions and
one weighted sum), the pointwise G(u) dW
of a two-member increment on qg and on ac_weak n=64, the kappa monitor
on nse_strong, the covariance build make_qspec with its torus form on qg
and nse_strong, each model's nonlinearity on one field, on the stack of
three that a two-member run steps and on the stack of thirteen that a
3 x 2 sweep of two members steps, the Allen-Cahn nonlinearity on a
65-row ensemble stack whose grid values are mostly negative, the noise
increment of a two-member qg block and of a 64-member ac_weak n=64
one (the sine rank's draws scattered into the modes), the projection
of a three-row qg stack, the observation of a 13-row stack (volume on
nse_strong and ac_weak, modal on nse_strong), the dealiased advection of the torus models, the Monte
Carlo variance of the stochastic convolution in one process and in one
forked process per CPU, the
lockstep loop simulate_members on a small sweep and on a 64-member and
a 500-member ensemble, on a 256-member one and a 64-member qg n=32 one,
each stepped in one process and in member chunks (one forked process per
CPU), the noise draws of the 64 members alone through
integrate._blocks, the measured constants (alpha,
C_I, eta0) a volume sweep takes per delta and those of ac_weak n=64 with
volume observation, verify's assumption report
on a 1000-step run, and `import nudgelab` in a fresh interpreter.
pytest collects tests/ only by default, so these run only when asked for.

The module pins the allocator's thresholds as the command line does
(cli._pin_malloc_thresholds) once at import, so the kernels are timed
under the CLI's allocator policy, and a 13-row stack's time does not
depend on which benchmark ran before it.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import nudgelab
from nudgelab import integrate
from nudgelab.cli import _pin_malloc_thresholds
from nudgelab.harness import (_stride_idx, convolution_variance_mc,
                              measured_constants, member_seed, verify_assumptions,
                              verify_record)
from nudgelab.integrate import (MONITORS, Group, Record, StepConfig, _blocks,
                                _rng_for, simulate_members)
from nudgelab.models import (_cube_grid, _sine_to_grid, build_model,
                             random_field)
from nudgelab.noise import (apply_G_raw, hs_norm_sq, increment_from_noise,
                            make_noise_coefficient, make_qspec)
from nudgelab.observe import apply_observation_raw, make_observation

_pin_malloc_thresholds()

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


@pytest.mark.parametrize("model_id,n,delta", [("nse_strong", 32, 0.39),
                                              ("ac_weak", 64, 0.39),
                                              ("ac_weak", 256, 0.05),
                                              ("ac_strong", 32, 0.1)],
                         ids=["nse_strong", "ac_weak", "ac_weak_256", "ac_strong"])
def test_hs_norm_sq_pointwise(benchmark, model_id, n, delta):
    # nse_strong: the three entries of each mode's 2 x 2 block of the
    # torus form; ac_weak n=64 (8 directions), ac_weak n=256 (62) and
    # ac_strong n=32 (31): the sine grid's transforms of u and of the
    # stack of directions, their products transformed back, and one
    # weighted sum over the stack
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=delta)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.05)
    u = random_field(spec, 1)
    assert benchmark(hs_norm_sq, coef, spec, u, q) > 0.0


@pytest.mark.parametrize("model_id", ["qg", "ac_weak"])
def test_apply_G_raw_pointwise(benchmark, model_id):
    # G(u) dW of each step of a two-member run: mult_qg's on qg n=32, and
    # the sine grid's 2n-point collocation on ac_weak n=64
    spec = build_model(model_id, SIZES[model_id])
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.05)
    block = np.random.default_rng(1).standard_normal((2,) + q.draw_shape)
    dw = increment_from_noise(spec, q, 1e-3, block)
    u = random_field(spec, 1)
    assert benchmark(apply_G_raw, coef, spec, u, dw).shape == dw.shape


def test_kappa_raw_nse_strong(benchmark):
    # the kappa monitor of one reference state, as a run records it at
    # each written step
    spec = build_model("nse_strong", 32)
    assert benchmark(spec.kappa_raw, random_field(spec, 1)) >= 0.0


@pytest.mark.parametrize("model_id", ["qg", "nse_strong"])
def test_make_qspec(benchmark, model_id):
    # the covariance a set-up builds per delta, its torus form included:
    # one circular correlation on qg, three on nse_strong
    spec = build_model(model_id, 32)
    assert benchmark(make_qspec, spec, 0.39).form is not None


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


def test_ac_f_raw_ens_ac_stack(benchmark):
    # ens_ac's 65-row stack (64 members and the reference) with 94% of its
    # cube-grid values negative, as at ens_ac seed 4: the sign on which a
    # SIMD power, unlike a product, leaves its vector path
    spec = build_model("ac_weak", 64)
    c = np.stack([random_field(spec, s) for s in range(1, 66)])
    c[:, 0] -= 1.75
    vals = _sine_to_grid(c, _cube_grid(spec.n))
    assert abs(np.mean(vals < 0.0) - 0.94) < 0.01
    assert benchmark(spec.f_raw, c).shape == c.shape


@pytest.mark.parametrize("model_id,members", [("qg", 2), ("ac_weak", 64)],
                         ids=["qg", "ac_weak"])
def test_increment_from_noise(benchmark, model_id, members):
    # the increment of each step of a two-member qg n = 32 run, and of the
    # 64-member ac_weak n = 64 ensemble, whose 8 draws per member (Q's
    # rank at delta 0.39) scatter into the 64 modes
    spec = build_model(model_id, SIZES[model_id])
    q = make_qspec(spec, delta=0.39)
    block = np.random.default_rng(1).standard_normal((members,) + q.draw_shape)
    dw = benchmark(increment_from_noise, spec, q, 1e-3, block)
    assert dw.shape == (members,) + spec.shape


def test_project_raw_qg_three_rows(benchmark):
    # the projection that ends each f_raw of the stack a two-member run steps
    spec = build_model("qg", 32)
    c = np.stack([random_field(spec, s) for s in range(1, 4)])
    assert benchmark(spec.project_raw, c).shape == c.shape


@pytest.mark.parametrize("model_id,n,kind,delta", [
    ("nse_strong", 32, "volume", 0.39), ("ac_weak", 64, "volume", 0.1),
    ("nse_strong", 32, "modal", 0.39)])
def test_apply_observation_raw(benchmark, model_id, n, kind, delta):
    # I_delta on the 13-row stack of a 3 x 2 sweep of 2 members: sweep_vol's
    # volume observation, the sine grid's alias classes at 10 cells, and
    # the modal mask
    spec = build_model(model_id, n)
    op = make_observation(spec, kind, delta)
    c = np.stack([random_field(spec, s) for s in range(1, 14)])
    assert benchmark(apply_observation_raw, op, spec, c).shape == c.shape


def test_torus_advect_nse_strong(benchmark):
    spec = build_model("nse_strong", 32)
    c = random_field(spec, 1)
    assert benchmark(spec.aux.advect, c, c).shape == spec.shape


@pytest.mark.parametrize("forked", [False, True],
                         ids=["one-process", "forked"])
def test_convolution_variance_mc_ac_weak(benchmark, monkeypatch, forked):
    # conv_ac's set-up over 1000 paths, two tasks: in one process, and in
    # one forked process per CPU
    if not forked:
        monkeypatch.setattr(integrate, "_cpus", lambda: 1)
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=1e-3, T=0.5, mu=20.0)
    _, var, _, chunks = benchmark(convolution_variance_mc, spec, cfg, coef, q,
                                  [0.125, 0.25, 0.5], 1000, 3)
    assert var.shape == (3, spec.n)
    assert chunks == integrate._processes(2)


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


def _ensemble_ac_weak(benchmark, members):
    # ens_ac's stack: every monitor at every 10th step
    spec = build_model("ac_weak", 64)
    cfg = StepConfig(dt=1e-3, T=0.05)
    groups = [Group(make_observation(spec, "modal", 0.39),
                    make_noise_coefficient("additive", 0.05),
                    make_qspec(spec, delta=0.39), (50.0,))]
    _bench_members(benchmark, spec, cfg, groups, members,
                   Record(MONITORS, _stride_idx(cfg.nsteps + 1, 10)))


def test_simulate_members_ensemble_ac_weak(benchmark):
    # ens_ac's 64 members
    _ensemble_ac_weak(benchmark, 64)


def test_simulate_members_ensemble_ac_weak_500(benchmark):
    # 500 members, where per-row work of the loop (the blow-up guard's
    # included) weighs most against the stacked kernels
    _ensemble_ac_weak(benchmark, 500)


@pytest.mark.parametrize("chunked", [False, True],
                         ids=["one-process", "chunked"])
def test_simulate_members_ensemble_ac_weak_256(benchmark, monkeypatch,
                                                chunked):
    # 256 members in one process, and in member chunks, one forked
    # process per CPU whatever the size rule says: how the loop scales
    # past ens_ac's 64 members
    monkeypatch.setattr(integrate, "_CHUNK_WORK", 1 if chunked else 10 ** 18)
    _ensemble_ac_weak(benchmark, 256)


@pytest.mark.parametrize("chunked", [False, True],
                         ids=["one-process", "chunked"])
def test_simulate_members_ensemble_qg_64(benchmark, monkeypatch, chunked):
    # 64 members of qg n=32 with additive noise and modal observation, in
    # one process and in member chunks whatever the size rule says: every
    # monitor at every 10th step of 50
    monkeypatch.setattr(integrate, "_CHUNK_WORK", 1 if chunked else 10 ** 18)
    spec = build_model("qg", 32)
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


def test_measured_constants_ac_weak_volume(benchmark):
    # the sine grid's alias classes at n=64, delta 0.1: 10 cells, blocks
    # of up to 7 modes
    spec = build_model("ac_weak", 64)
    op = make_observation(spec, "volume", 0.1)
    _, ci, eta = benchmark(measured_constants, spec, op)
    assert ci > 0.0 and eta > 0.0


def test_verify_assumptions_long_run(benchmark):
    # verify's report on a 1000-step ac_weak n=64 run: its 1001 kappa
    # samples give the drift envelope 68 grid times and 2278 pairs, whose
    # largest rise of int kappa one running minimum finds
    spec = build_model("ac_weak", 64)
    cfg = StepConfig(dt=1e-3, T=1.0)
    traj, _ = simulate_members(spec, cfg, [], random_field(spec, 1), None, [],
                               verify_record(cfg.nsteps))
    op = make_observation(spec, "volume", 0.1)
    rep = benchmark(verify_assumptions, spec, traj, op)
    assert np.isfinite(rep.m0) and np.isfinite(rep.m1)


def test_member_sources_ac_weak(benchmark):
    # ens_ac's draws: 64 members of ac_weak n=64 over 250 steps, through
    # the step blocks simulate_members reads
    shape = make_qspec(build_model("ac_weak", 64), delta=0.39).draw_shape

    def run():
        rngs = [_rng_for(member_seed(3, m)) for m in range(64)]
        return sum(1 for _ in _blocks(rngs, 64, 250, shape))

    assert benchmark(run) == 250


def test_import_nudgelab(benchmark):
    # a fresh interpreter that imports the package; the interpreter's own
    # start-up (that of python -c pass) is included
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    benchmark.pedantic(subprocess.run, args=(
        [sys.executable, "-c", "import nudgelab"],), kwargs={
        "env": env, "check": True}, rounds=10)
