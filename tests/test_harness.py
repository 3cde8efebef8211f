"""Ensemble aggregation, rate fitting, and the (mu, delta) sweep."""

import numpy as np
import pytest

import nudgelab.harness as H
from nudgelab.harness import (RunSetup, convolution_variance_mc,
                              estimate_noise_floor, fit_decay_rate,
                              measure_alpha, member_seed, run_ensemble, sweep,
                              tail_sup)
from nudgelab.integrate import (BlowupError, StepConfig, simulate_pair,
                                stochastic_convolution)
from nudgelab.models import build_model, random_field
from nudgelab.noise import make_noise_coefficient, make_qspec
from nudgelab.observe import estimate_interp_constant, eta0, make_observation


def _setup(sigma=0.1, mu=20.0, T=0.5, n=16, kind="additive"):
    spec = build_model("ac_weak", n, nu=1.0)
    op = make_observation(spec, "modal", delta=0.39)
    q = make_qspec(spec)
    coef = make_noise_coefficient(kind, sigma)
    cfg = StepConfig(dt=1e-3, T=T, mu=mu)
    u0 = random_field(spec, 3)
    v0 = random_field(spec, 4)
    return RunSetup(spec, cfg, op, coef, q, u0, v0)


# ---------------------------------------------------------------- ensemble

def test_ensemble_matches_manual_members():
    setup = _setup()
    ens = run_ensemble(setup, 3, 11)
    for m in range(3):
        res = simulate_pair(setup.model, setup.cfg, setup.op, setup.coef,
                            setup.q, setup.u0, setup.v0, member_seed(11, m))
        assert np.array_equal(ens.member_w_h[m], res.w_h)
    w2 = ens.member_w_h ** 2
    assert np.allclose(ens.mean_w2_h, w2.mean(axis=0), rtol=1e-15)


def test_ensemble_rerun_identical():
    setup = _setup()
    first = run_ensemble(setup, 6, 11)
    again = run_ensemble(setup, 6, 11)
    assert np.array_equal(first.mean_w2_h, again.mean_w2_h)
    assert np.array_equal(first.se_w2_h, again.se_w2_h)
    assert np.array_equal(first.member_w_h, again.member_w_h)


def test_ensemble_zero_noise_collapses():
    setup = _setup(sigma=0.0)
    ens = run_ensemble(setup, 4, 5)
    # identical members: spread is exactly zero
    assert np.all(ens.se_w2_h == 0.0)
    assert np.all(ens.member_w_h == ens.member_w_h[0])


def test_ensemble_single_member_se_zero():
    ens = run_ensemble(_setup(), 1, 0)
    assert np.all(ens.se_w2_h == 0.0)
    assert ens.members == 1 and not ens.partial


def test_ensemble_emit_y_changes_nothing():
    setup = _setup()
    plain = run_ensemble(setup, 2, 7)
    with_y = run_ensemble(setup, 2, 7, emit_y=True)
    assert plain.first.dy_h is None
    assert with_y.first.dy_h is not None and with_y.first.y_h is not None
    assert np.array_equal(plain.mean_w2_h, with_y.mean_w2_h)


def test_ensemble_member_seeds_differ():
    setup = _setup()
    ens = run_ensemble(setup, 3, 0)
    paths = ens.member_w_h
    assert not np.array_equal(paths[0], paths[1])
    assert not np.array_equal(paths[1], paths[2])


def test_ensemble_counts_partial_blowups(monkeypatch):
    setup = _setup()
    real = simulate_pair

    def flaky(model, cfg, op, coef, q, u0, v0, seed, **kw):
        res = real(model, cfg, op, coef, q, u0, v0, seed, **kw)
        # fail the middle member only, after the real work
        if isinstance(seed, np.random.SeedSequence) and seed.spawn_key == (1,):
            raise BlowupError("assimilated", 3, 3 * cfg.dt, np.inf)
        return res

    monkeypatch.setattr(H, "simulate_pair", flaky)
    ens = run_ensemble(setup, 3, 9)
    assert ens.blowups == 1 and ens.partial
    assert ens.member_w_h.shape[0] == 2
    clean = real(setup.model, setup.cfg, setup.op, setup.coef, setup.q,
                 setup.u0, setup.v0, member_seed(9, 0))
    assert np.array_equal(ens.member_w_h[0], clean.w_h)


def test_ensemble_all_blowups_reraise(monkeypatch):
    setup = _setup()

    def dead(*a, **kw):
        raise BlowupError("reference", 1, setup.cfg.dt, np.inf)

    monkeypatch.setattr(H, "simulate_pair", dead)
    with pytest.raises(BlowupError, match="every member's reference"):
        run_ensemble(setup, 3, 0)


def test_ensemble_rejects_zero_members():
    with pytest.raises(ValueError):
        run_ensemble(_setup(), 0, 0)


# ------------------------------------------------------------ rate fitting

def test_fit_recovers_exact_exponential():
    t = np.linspace(0.0, 2.0, 401)
    series = 3.0 * np.exp(-4.5 * t)
    fit = fit_decay_rate(t, series, window=(0.2, 1.8))
    assert abs(fit.gamma_fit - 4.5) < 1e-10
    assert abs(fit.intercept - np.log(3.0)) < 1e-10
    assert fit.residual < 1e-12
    assert fit.note == ""


def test_fit_auto_window_avoids_floor():
    t = np.linspace(0.0, 4.0, 801)
    series = np.exp(-6.0 * t) + 1e-9
    fit = fit_decay_rate(t, series)
    # floor sits at 1e-9; the window must stop well before saturation
    assert abs(fit.gamma_fit - 6.0) / 6.0 < 0.05
    assert fit.window[1] < 3.8


def test_fit_shrinks_past_nonpositive():
    t = np.linspace(0.0, 1.0, 101)
    series = np.exp(-3.0 * t)
    series[60:] = 0.0
    fit = fit_decay_rate(t, series, window=(0.1, 0.9))
    assert "shrunk" in fit.note
    assert fit.window[1] < 0.6
    assert abs(fit.gamma_fit - 3.0) < 1e-8


def test_fit_needs_three_points():
    t = np.linspace(0.0, 1.0, 11)
    series = np.exp(-t)
    with pytest.raises(ValueError):
        fit_decay_rate(t, series, window=(0.0, 0.05))


def test_noise_floor_tail_average():
    t = np.linspace(0.0, 1.0, 100)
    series = np.ones(100) * 2.5
    floor, se = estimate_noise_floor(t, series)
    assert floor == 2.5 and se == 0.0


def test_noise_floor_needs_samples():
    t = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError):
        estimate_noise_floor(t, np.ones(20))


def test_tail_sup_window():
    t = np.linspace(0.0, 1.0, 11)
    w = np.linspace(1.0, 0.0, 11)
    assert tail_sup(t, w, 0.45) == w[5]
    with pytest.raises(ValueError):
        tail_sup(t, w, 1.0)


# ---------------------------------------------------------------- envelope

def _check_envelope(times, kappa, m0, m1):
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(kappa[:-1] * dt)])
    for i in range(len(times)):
        for j in range(i + 1, len(times)):
            growth = cum[j] - cum[i]
            assert growth <= m0 * (times[j] - times[i]) + m1 + 1e-12


def test_envelope_decreasing_kappa_flat():
    t = np.linspace(0.0, 2.0, 201)
    kappa = 5.0 * np.exp(-3.0 * t)
    m0, m1, total = H._mm_envelope(t, kappa)
    assert m0 == 0.0
    assert abs(m1 - total) < 1e-12
    _check_envelope(t, kappa, m0, m1)


def test_envelope_constant_kappa_tie_break():
    t = np.linspace(0.0, 1.0, 101)
    kappa = np.full(101, 2.0)
    m0, m1, total = H._mm_envelope(t, kappa)
    # (2, 0) and (0, 2T) tie on M0*T + M1; prefer the flat bound
    assert m0 == 0.0
    assert abs(m1 - total) < 1e-12


def test_envelope_zero_kappa():
    t = np.linspace(0.0, 1.0, 50)
    assert H._mm_envelope(t, np.zeros(50)) == (0.0, 0.0, 0.0)


def test_envelope_bound_holds_and_is_tight():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 3.0, 97)
    kappa = np.abs(np.cumsum(rng.standard_normal(97))) * 0.3
    m0, m1, total = H._mm_envelope(t, kappa)
    _check_envelope(t, kappa, m0, m1)
    # optimal among its own candidate slopes: zero and a touch less both
    # violate some pair unless m1 grows by at least the saved amount
    obj = m0 * t[-1] + m1
    dtv = np.diff(t)
    cum = np.concatenate([[0.0], np.cumsum(kappa[:-1] * dtv)])
    ii, jj = np.triu_indices(len(t), k=1)
    for cand in (0.0, 0.5 * m0, 2.0 * m0):
        need = np.max(cum[jj] - cum[ii] - cand * (t[jj] - t[ii]))
        assert obj <= cand * t[-1] + max(float(need), 0.0) + 1e-9


# ------------------------------------------------------------------- sweep

def test_sweep_grid_and_threshold_flags():
    def factory(mu, delta):
        spec = build_model("ac_weak", 16, nu=1.0)
        op = make_observation(spec, "modal", delta=delta)
        q = make_qspec(spec)
        coef = make_noise_coefficient("additive", 0.05)
        cfg = StepConfig(dt=2e-3, T=0.4, mu=mu)
        return RunSetup(spec, cfg, op, q=q, coef=coef,
                        u0=random_field(spec, 1), v0=random_field(spec, 2))

    res = sweep(factory, [10.0, 400.0], [0.39, 0.9], members=2, master_seed=3)
    assert len(res.rows) == 4
    spec = build_model("ac_weak", 16, nu=1.0)
    assert res.alpha_hat == measure_alpha(spec)
    for row in res.rows:
        assert row["over_threshold"] == (row["mu_delta_sq"] > row["eta0_hat"])
        assert row["members"] == 2
        assert row["valid"]
        assert np.isfinite(row["gamma_fit"]) or "error" in row
    # the delta-normalized constant keeps eta0 roughly flat in delta, so
    # the flag must bite through mu alone
    assert any(r["over_threshold"] for r in res.rows)
    assert any(not r["over_threshold"] for r in res.rows)
    for d in (0.39, 0.9):
        opd = make_observation(spec, "modal", delta=d)
        want = eta0(res.alpha_hat,
                    estimate_interp_constant(opd, spec, samples=32))
        row = next(r for r in res.rows if r["delta"] == d)
        assert abs(row["eta0_hat"] - want) < 1e-12
    assert res.eta0_hat == res.rows[0]["eta0_hat"]


def test_sweep_rerun_identical():
    def factory(mu, delta):
        s = _setup(mu=mu, T=0.2)
        op = make_observation(s.model, "modal", delta=delta)
        return RunSetup(s.model, s.cfg, op, s.coef, s.q, s.u0, s.v0)

    a = sweep(factory, [20.0], [0.39], members=4, master_seed=8)
    b = sweep(factory, [20.0], [0.39], members=4, master_seed=8)
    assert a.rows == b.rows


# ----------------------------------------------------- convolution variance

def test_convolution_mc_single_path_bit_identical():
    spec = build_model("ac_weak", 8, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.2)
    cfg = StepConfig(dt=1e-2, T=0.2, mu=15.0)
    probes = [0.1, 0.2]
    _, var, se = convolution_variance_mc(spec, cfg, coef, q, probes,
                                         paths=1, master_seed=42, chunk=1)
    _, z_path = stochastic_convolution(spec, cfg, coef, q, None,
                                       member_seed(42, 0))
    for i, t in enumerate(probes):
        step = int(round(t / cfg.dt))
        assert np.array_equal(var[i], z_path[step] ** 2)
    # one path: m4 - var^2 vanishes up to rounding of z^4 vs (z^2)^2,
    # and the square root turns ~eps relative residue into ~sqrt(eps)
    assert np.all(se <= 1e-7 * np.maximum(var, 1e-30))


def test_convolution_mc_chunking_invariant():
    spec = build_model("ac_weak", 8, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=1e-2, T=0.1, mu=10.0)
    out1 = convolution_variance_mc(spec, cfg, coef, q, [0.1], 7, 0, chunk=7)
    out2 = convolution_variance_mc(spec, cfg, coef, q, [0.1], 7, 0, chunk=3)
    assert np.allclose(out1[1], out2[1], rtol=1e-13)


def test_convolution_mc_rejects_bad_inputs():
    spec = build_model("ac_weak", 8, nu=1.0)
    q = make_qspec(spec)
    cfg = StepConfig(dt=1e-2, T=0.1, mu=10.0)
    scaled = make_noise_coefficient("state_scaled", 0.1)
    with pytest.raises(ValueError):
        convolution_variance_mc(spec, cfg, scaled, q, [0.1], 2, 0)
    torus = build_model("qg", 8, nu=1.0)
    tq = make_qspec(torus)
    tcoef = make_noise_coefficient("additive", 0.1)
    with pytest.raises(ValueError):
        convolution_variance_mc(torus, cfg, tcoef, tq, [0.1], 2, 0)
    coef = make_noise_coefficient("additive", 0.1)
    with pytest.raises(ValueError):
        convolution_variance_mc(spec, cfg, coef, q, [0.5], 2, 0)
