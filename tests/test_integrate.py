"""Time stepping: exact recursions, coupling structure, guards, noise
stream discipline."""

import numpy as np
import pytest

import oracles as O
from nudgelab.integrate import (BlowupError, StepConfig, simulate_members,
                                simulate_pair, _noise_source)
from nudgelab.models import build_model, random_field
from nudgelab.noise import make_noise_coefficient, make_qspec
from nudgelab.observe import make_observation


def _setup(mid="ac_weak", n=16, sigma=0.0, mu=0.0, dt=1e-2, T=0.5, **kw):
    spec = build_model(mid, n)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", sigma)
    cfg = StepConfig(dt=dt, T=T, mu=mu, **kw)
    return spec, op, q, coef, cfg


def test_linear_mode_recursion_exact():
    # with F off, each mode follows the scalar resolvent recursion
    spec = build_model("ac_weak", 8, linear=True)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.0)
    cfg = StepConfig(dt=2e-2, T=0.4, mu=0.0)
    u0 = np.zeros(8)
    u0[2] = 1.0
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0, record_u=True)
    want = O.imex_mode_path(spec.a[2], cfg.dt, cfg.nsteps)
    got = np.array([res.u_path[i][2] for i in range(cfg.nsteps + 1)])
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("implicit", [False, True])
def test_reference_ignores_coupling_and_noise(implicit):
    # coupling and noise never touch the reference trajectory: a noisy,
    # nudged run's reference equals a reference-only run's, bit for bit
    spec, op, q, coef, cfg = _setup(sigma=0.3, mu=10.0,
                                    implicit_nudging=implicit)
    u0 = random_field(spec, 0)
    v0 = random_field(spec, 1)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 5)
    alone = simulate_pair(spec, cfg, None, None, None, u0, u0, 0)
    assert np.array_equal(res.u_final, alone.u_final)
    assert np.array_equal(res.u_h, alone.u_h)
    assert np.array_equal(res.kappa, alone.kappa)


def test_one_nonlinearity_call_per_step(monkeypatch):
    # the reference and every member step in one stacked call
    spec, op, q, coef, cfg = _setup(sigma=0.3, mu=10.0, T=0.1)
    calls = []
    f_raw = spec.f_raw

    def counted(x):
        calls.append(x.shape)
        return f_raw(x)

    monkeypatch.setattr(spec, "f_raw", counted)
    res = simulate_members(spec, cfg, op, coef, q, random_field(spec, 0),
                           random_field(spec, 1),
                           [_noise_source(s, q) for s in range(3)])
    assert not any(isinstance(r, BlowupError) for r in res)
    assert calls == [(4,) + spec.shape] * cfg.nsteps


def test_same_fixed_point_is_exact():
    spec, op, q, coef, cfg = _setup(mu=30.0)
    u0 = random_field(spec, 2)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert np.all(res.w_h == 0.0)
    assert np.array_equal(res.u_final, res.v_final)


def test_mu_zero_decouples():
    spec, op, q, coef, cfg = _setup(mu=0.0)
    u0 = random_field(spec, 3)
    v0 = random_field(spec, 4)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 0)
    solo = simulate_pair(spec, cfg, op, coef, q, v0, v0, 0)
    assert np.allclose(res.v_final, solo.u_final, atol=1e-14)


def test_reference_stream_invariant_under_sigma():
    # draws are consumed whether or not sigma > 0, so u is bit-stable
    spec, op, q, _, cfg = _setup(mu=20.0)
    u0 = random_field(spec, 5)
    v0 = random_field(spec, 6)
    paths = {}
    for sigma in (0.0, 0.25):
        coef = make_noise_coefficient("additive", sigma)
        res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 77)
        paths[sigma] = res.u_h
    assert np.array_equal(paths[0.0], paths[0.25])


def test_noisy_run_reproducible():
    spec, op, q, coef, cfg = _setup(sigma=0.4, mu=15.0)
    u0 = random_field(spec, 7)
    v0 = random_field(spec, 8)
    a = simulate_pair(spec, cfg, op, coef, q, u0, v0, 123)
    b = simulate_pair(spec, cfg, op, coef, q, u0, v0, 123)
    c = simulate_pair(spec, cfg, op, coef, q, u0, v0, 124)
    assert np.array_equal(a.v_final, b.v_final)
    assert not np.array_equal(a.v_final, c.v_final)


def test_emit_y_bookkeeping():
    spec, op, q, coef, cfg = _setup(mu=10.0)
    u0 = random_field(spec, 9)
    v0 = random_field(spec, 10)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 0, emit_y=True,
                        record_u=True)
    # noiseless increments are exactly dt * I_delta u at the left endpoint
    from nudgelab.observe import apply_observation_raw
    i_u = cfg.dt * np.sqrt(np.sum(
        spec.mult * spec.w_h ** 2
        * np.abs(apply_observation_raw(op, spec, res.u_path[0])) ** 2))
    assert res.dy_h[1] == pytest.approx(i_u, rel=1e-12)
    assert res.y_h[0] == 0.0
    assert np.all(np.diff(res.y_h) >= -1e-15)


def test_blowup_guard_raises():
    spec, op, q, coef, _ = _setup()
    cfg = StepConfig(dt=1e-2, T=1.0, mu=0.0, blowup_guard=1e-4)
    u0 = random_field(spec, 11, h_norm=2.0)
    with pytest.raises(BlowupError) as info:
        simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    # u == v: the reference accumulator is checked first
    assert info.value.which == "reference"
    assert info.value.step >= 1
    small = random_field(spec, 11, h_norm=1e-5)
    with pytest.raises(BlowupError) as info:
        simulate_pair(spec, cfg, op, coef, q, small, u0, 0)
    assert info.value.which == "assimilated"
    assert info.value.step >= 1


def test_guard_catches_nan():
    spec = build_model("ac_weak", 16)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.0)
    # dt far over the explicit stability limit of the cubic term
    cfg = StepConfig(dt=0.5, T=50.0, mu=0.0, blowup_guard=1e12)
    u0 = random_field(spec, 12, h_norm=40.0)
    with pytest.raises(BlowupError):
        simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)


def test_implicit_nudging_matches_fixed_point():
    # u == v survives the implicit solve up to rounding: the kept modes of v
    # take the route (x + dt*mu*x*denom_u)*denom_v instead of x*denom_u
    spec, op, q, coef, _ = _setup()
    cfg = StepConfig(dt=1e-2, T=0.3, mu=40.0, implicit_nudging=True)
    u0 = random_field(spec, 13)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert np.all(res.w_h <= 1e-13)


def test_implicit_nudging_mode_recursion():
    # F off, full observed band: every mode must contract by exactly
    # 1/(1 + dt*a_k + dt*mu) per step
    spec_lin = build_model("ac_weak", 16, nu=1.0, linear=True)
    op_full = make_observation(spec_lin, "modal", delta=2.0 / (spec_lin.n + 1))
    assert int(op_full.data.sum()) == spec_lin.n
    cfg = StepConfig(dt=5e-2, T=0.5, mu=30.0, implicit_nudging=True)
    u0 = np.zeros(spec_lin.shape)
    v0 = random_field(spec_lin, 5)
    res = simulate_pair(spec_lin, cfg, op_full, None, None, u0, v0, 0,
                        record_v=True)
    fac = 1.0 / (1.0 + cfg.dt * spec_lin.a + cfg.dt * cfg.mu)
    wc = -v0
    for i in range(1, cfg.nsteps + 1):
        wc = wc * fac
        assert np.allclose(-res.v_path[i], wc, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("implicit", [False, True])
def test_nudged_pair_matches_mode_recursion(implicit):
    # F off and a moving reference (u0 != 0): every mode of (u, v) follows
    # the scalar recursions, the observed ones nudged and the rest free
    spec = build_model("ac_weak", 16, linear=True)
    op = make_observation(spec, "modal", 0.39)
    keep = op.data
    assert keep.any() and not keep.all()
    cfg = StepConfig(dt=1e-2, T=0.3, mu=30.0, implicit_nudging=implicit)
    u0 = random_field(spec, 21)
    v0 = random_field(spec, 22)
    res = simulate_pair(spec, cfg, op, None, None, u0, v0, 0,
                        record_u=True, record_v=True)
    for k in range(spec.n):
        mu = cfg.mu if keep[k] else 0.0
        u_want, v_want = O.nudged_mode_path(spec.a[k], cfg.dt, mu,
                                            u0[k], v0[k],
                                            cfg.nsteps, implicit)
        tol = 1e-14 * (abs(u0[k]) + abs(v0[k]))
        assert np.allclose(res.u_path[:, k], u_want, rtol=1e-13, atol=tol)
        assert np.allclose(res.v_path[:, k], v_want, rtol=1e-13, atol=tol)


def test_implicit_nudging_stable_at_large_mu_dt():
    # explicit coupling at dt*mu = 5 diverges; implicit stays bounded
    spec, op, q, coef, _ = _setup()
    u0 = random_field(spec, 14)
    v0 = random_field(spec, 15)
    cfg_i = StepConfig(dt=1e-2, T=0.5, mu=500.0, implicit_nudging=True)
    res = simulate_pair(spec, cfg_i, op, coef, q, u0, v0, 0)
    assert res.w_h[-1] < res.w_h[0]
    cfg_e = StepConfig(dt=1e-2, T=0.5, mu=500.0, blowup_guard=1e8)
    with pytest.raises(BlowupError):
        simulate_pair(spec, cfg_e, op, coef, q, u0, v0, 0)


def test_convolution_matches_scalar_recursion():
    # the stochastic convolution is the estimate of the linear model
    # started from zero with no observation
    spec = build_model("ac_weak", 8, linear=True)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.3)
    cfg = StepConfig(dt=1e-2, T=0.2, mu=12.0)
    zero = np.zeros(8)
    zp = simulate_pair(spec, cfg, None, coef, q, zero, zero, 9,
                       record_v=True).v_path
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
    z = np.zeros(8)
    for i in range(cfg.nsteps):
        xi = rng.standard_normal(8)
        dw = np.sqrt(cfg.dt) * q.lam / spec.w_h * xi
        z = (z + cfg.mu * coef.sigma_delta * dw) / (1.0 + cfg.dt * spec.a)
        assert np.allclose(zp[i + 1], z, atol=1e-16)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=-1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=1.0, mu=-3.0)
    # 1.0005 / 1e-3 = 1000.5 steps would silently stop at t = 1.0
    with pytest.raises(ValueError, match="whole number of steps"):
        StepConfig(dt=1e-3, T=1.0005)
    # ratios that are whole up to rounding are accepted
    assert StepConfig(dt=1e-3, T=0.25).nsteps == 250
    assert StepConfig(dt=2e-3, T=0.2).nsteps == 100


def test_series_lengths_and_time_grid():
    spec, op, q, coef, cfg = _setup(dt=1e-2, T=0.25)
    u0 = random_field(spec, 16)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert len(res.times) == cfg.nsteps + 1 == 26
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.25)
    for arr in (res.w_h, res.w_vstar, res.u_h, res.v_h, res.hs, res.kappa):
        assert len(arr) == len(res.times)
