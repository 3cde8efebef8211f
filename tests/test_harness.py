"""Ensemble aggregation, rate fitting, and the (mu, delta) sweep."""

import os
import pickle
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import nudgelab.harness as H
import nudgelab.integrate as I
from nudgelab.fields import _wsum
from nudgelab.harness import (RunSetup, convolution_variance_mc,
                              estimate_noise_floor, fit_decay_rate,
                              imex_convolution_variance, measure_alpha,
                              measured_constants, member_seed, run_ensemble,
                              sweep, tail_sup)
from nudgelab.integrate import (SERIES, BlowupError, Group, Record,
                                StepConfig, _rng_for, simulate_members,
                                simulate_pair)
from nudgelab.models import build_model, random_field
from nudgelab.noise import make_noise_coefficient, make_qspec
from nudgelab.observe import estimate_interp_constant, eta0, make_observation

import oracles as O


# every scalar series, and member 0's observation path
WITH_Y = Record(SERIES)


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

# one case per model: a noise kind, an observation kind, implicit nudging
MANUAL_CASES = (("ac_weak", 16, "additive", "modal", False),
                ("ac_strong", 16, "state_scaled", "volume", False),
                ("nse_weak", 8, "pointwise_multiplicative", "modal", True),
                ("nse_strong", 8, "state_scaled", "volume", False),
                ("qg", 8, "pointwise_multiplicative", "volume", False),
                ("mhd", 8, "additive", "modal", True))


def _manual_setups():
    # the long ac_weak run (500 steps) first, then 20 steps of every model
    yield "ac_weak T=0.5", _setup()
    for mid, n, kind, obs, implicit in MANUAL_CASES:
        spec = build_model(mid, n, nu=1.0)
        op = make_observation(spec, obs, delta=0.39)
        q = make_qspec(spec, delta=0.39)
        coef = make_noise_coefficient(kind, 0.2)
        cfg = StepConfig(dt=1e-3, T=0.02, mu=20.0, implicit_nudging=implicit)
        yield mid, RunSetup(spec, cfg, op, coef, q, random_field(spec, 3),
                            random_field(spec, 4))


def test_ensemble_matches_manual_members():
    # every member row of one lockstep ensemble equals that member run alone
    for mid, setup in _manual_setups():
        spec, cfg, op, coef, q = (setup.model, setup.cfg, setup.op,
                                  setup.coef, setup.q)
        ens = run_ensemble(setup, 3, 11, WITH_Y)
        solo = [simulate_pair(spec, cfg, op, coef, q, setup.u0, setup.v0,
                              member_seed(11, m),
                              WITH_Y if m == 0 else Record())
                for m in range(3)]
        for m in range(3):
            assert np.array_equal(ens.member_w_h[m], solo[m].w_h), mid
        for name in ("w_vstar", "u_h", "v_h", "hs", "kappa", "dy_h", "y_h"):
            assert np.array_equal(getattr(ens.first, name),
                                  getattr(solo[0], name)), mid
        assert np.array_equal(ens.first.v_final, solo[0].v_final), mid
        assert not np.array_equal(ens.member_w_h[1], ens.member_w_h[2]), mid
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
    assert ens.member_w_h.shape[0] == 1 and not ens.partial


def test_ensemble_emit_y_changes_nothing():
    setup = _setup()
    plain = run_ensemble(setup, 2, 7)
    with_y = run_ensemble(setup, 2, 7, WITH_Y)
    assert plain.first.dy_h is None
    assert with_y.first.dy_h is not None and with_y.first.y_h is not None
    assert np.array_equal(plain.mean_w2_h, with_y.mean_w2_h)


def test_ensemble_mean_hs_is_the_monitor_itself():
    # G reads the reference alone, so hs is one series for all members;
    # the column is that series, not a mean of 7 copies of it (which
    # differs from it in the last bit on about half the entries)
    ens = run_ensemble(_setup(T=0.1, kind="state_scaled"), 7, 2, WITH_Y)
    assert ens.mean_hs is not None
    assert np.array_equal(ens.mean_hs, ens.first.hs)


def test_ensemble_member_seeds_differ():
    setup = _setup()
    ens = run_ensemble(setup, 3, 0)
    paths = ens.member_w_h
    assert not np.array_equal(paths[0], paths[1])
    assert not np.array_equal(paths[1], paths[2])


def _final_v_accumulators(setup, seeds):
    # each member alone, guard out of reach: the discrete L2(0,T;V)
    # accumulator of its estimate, summed as the integrator sums it
    accs = []
    for seed in seeds:
        res = simulate_pair(setup.model, setup.cfg, setup.op, setup.coef,
                            setup.q, setup.u0, setup.v0, seed,
                            Record((), v_path=None))
        acc = 0.0
        for vc in res.v_path[1:]:
            acc += setup.cfg.dt * _wsum(setup.model, vc, vc, setup.model.norm_w2("V"))
        accs.append(acc)
    return accs


@pytest.mark.parametrize("implicit", [False, True])
def test_ensemble_counts_partial_blowups(implicit):
    # implicit nudging keeps one resolvent per row, pruned with its row
    base = _setup(sigma=1.0)
    base = replace(base, cfg=replace(base.cfg, implicit_nudging=implicit))
    seeds = [member_seed(9, m) for m in range(6)]
    accs = _final_v_accumulators(base, seeds)
    ranked = sorted(accs)
    guard = 0.5 * (ranked[2] + ranked[3])
    cfg = replace(base.cfg, blowup_guard=guard)
    setup = replace(base, cfg=cfg)
    ens = run_ensemble(setup, 6, 9)
    survivors = [m for m in range(6) if accs[m] <= guard]
    assert ens.blowups == 3 and ens.partial
    assert len(survivors) == ens.member_w_h.shape[0] == 3
    for row, m in enumerate(survivors):
        solo = simulate_pair(setup.model, cfg, setup.op, setup.coef, setup.q,
                             setup.u0, setup.v0, seeds[m])
        assert np.array_equal(ens.member_w_h[row], solo.w_h)
    assert (ens.first is None) == (0 not in survivors)
    # a dropped member ends with the error its own run raises
    _, [[batch]] = simulate_members(
        setup.model, cfg, [Group(setup.op, setup.coef, setup.q, (cfg.mu,))],
        setup.u0, setup.v0, [_rng_for(s) for s in seeds])
    for m, res in enumerate(batch.errors):
        if m in survivors:
            continue
        with pytest.raises(BlowupError) as err:
            simulate_pair(setup.model, cfg, setup.op, setup.coef, setup.q,
                          setup.u0, setup.v0, seeds[m])
        assert isinstance(res, BlowupError) and res.which == "assimilated"
        assert (res.step, res.t, res.accumulator) == \
            (err.value.step, err.value.t, err.value.accumulator)
        # its series read NaN from the step it blew up at
        assert np.all(np.isfinite(batch.w_h[m, :res.step]))
        assert np.all(np.isnan(batch.w_h[m, res.step:]))
        with pytest.raises(BlowupError) as again:
            batch.member(m)
        assert again.value is res


def test_ensemble_all_blowups_reraise():
    base = _setup()
    one = replace(base.cfg, T=base.cfg.dt)
    u1 = O.reference_only(base.model, one, base.u0).u_final
    first_acc = base.cfg.dt * _wsum(base.model, u1, u1, base.model.norm_w2("V"))
    cfg = StepConfig(dt=base.cfg.dt, T=base.cfg.T, mu=base.cfg.mu,
                     blowup_guard=0.5 * first_acc)
    setup = RunSetup(base.model, cfg, base.op, base.coef, base.q, base.u0,
                     base.v0)
    with pytest.raises(BlowupError, match="every member's reference") as err:
        run_ensemble(setup, 3, 0)
    assert err.value.step == 1


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
    series = np.ones(100) * 2.5
    floor, se = estimate_noise_floor(series)
    assert floor == 2.5 and se == 0.0


def test_noise_floor_needs_samples():
    with pytest.raises(ValueError):
        estimate_noise_floor(np.ones(20))


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
    m0, m1, total, _ = H._mm_envelope(t, kappa)
    assert m0 == 0.0
    assert abs(m1 - total) < 1e-12
    _check_envelope(t, kappa, m0, m1)


def test_envelope_constant_kappa_tie_break():
    t = np.linspace(0.0, 1.0, 101)
    kappa = np.full(101, 2.0)
    m0, m1, total, _ = H._mm_envelope(t, kappa)
    # (2, 0) and (0, 2T) tie on M0*T + M1; prefer the flat bound
    assert m0 == 0.0
    assert abs(m1 - total) < 1e-12


def test_envelope_zero_kappa():
    t = np.linspace(0.0, 1.0, 50)
    assert H._mm_envelope(t, np.zeros(50)) == (0.0, 0.0, 0.0, 1225)


def test_envelope_bound_holds_and_is_tight():
    rng = np.random.default_rng(0)
    t = np.linspace(0.0, 3.0, 97)
    kappa = np.abs(np.cumsum(rng.standard_normal(97))) * 0.3
    m0, m1, total, _ = H._mm_envelope(t, kappa)
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


def _random_kappa(samples, seed):
    rng = np.random.default_rng(seed)
    return (np.linspace(0.0, 1.0, samples),
            1.0 + np.abs(np.cumsum(rng.standard_normal(samples))))


def _signed_kappa(samples, seed):
    # kappa of either sign on times with uneven gaps: int kappa rises and
    # falls, and its largest rise need not end at the last time
    rng = np.random.default_rng(seed)
    return (np.cumsum(rng.uniform(0.1, 2.0, samples)),
            np.cumsum(rng.standard_normal(samples)))


@pytest.mark.parametrize("make,samples,seed", [
    (_random_kappa, 10, 0), (_random_kappa, 40, 1), (_random_kappa, 97, 2),
    (_random_kappa, 1001, 3), (_random_kappa, 4001, 4),
    (_signed_kappa, 2, 6), (_signed_kappa, 11, 7), (_signed_kappa, 97, 8),
    (_signed_kappa, 1001, 9), (_signed_kappa, 1200, 10)])
def test_envelope_equals_the_candidate_search_oracle(make, samples, seed):
    # the oracle tries every positive pair slope as M0; the closed form
    # must pick its M0 = 0 and reproduce its M1 bit for bit
    t, kappa = make(samples, seed)
    assert H._mm_envelope(t, kappa) == O.mm_envelope_one_array(t, kappa)


def test_envelope_of_a_falling_integral_is_zero():
    # kappa < 0 throughout: no pair rises, so M1 is 0 while int kappa < 0
    t = np.cumsum(np.random.default_rng(11).uniform(0.1, 2.0, 50))
    env = H._mm_envelope(t, -1.0 - t)
    assert env[:2] == (0.0, 0.0) and env[2] < 0.0
    assert env == O.mm_envelope_one_array(t, -1.0 - t)


def test_envelope_memory_on_a_1000_step_run():
    # 1001 samples: 2278 pairs and up to 2279 candidates, so one
    # (candidates x pairs) array of doubles would take 41.5 MB
    t, kappa = _random_kappa(1001, 5)
    H._mm_envelope(t, kappa)
    tracemalloc.start()
    try:
        H._mm_envelope(t, kappa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


@pytest.mark.parametrize("samples,pairs", [(51, 1275), (129, 2080),
                                           (130, 2145)])
def test_verify_counts_the_envelope_grid_pairs(monkeypatch, samples, pairs):
    # stride max(samples // 64, 1) plus the last sample when the stride
    # misses it: 51 and 129 samples end on the stride, 130 does not; few
    # random probes keep the case fast, the grid is the same
    monkeypatch.setattr(H, "VERIFY_PROBES", 4)
    spec = build_model("ac_weak", 16, nu=1.0)
    op = make_observation(spec, "modal", delta=0.39)
    times = np.linspace(0.0, 1.0, samples)
    traj = SimpleNamespace(times=times, kappa=1.0 + times, u_path=())
    assert H._mm_envelope(times, traj.kappa)[3] == pairs
    rep = H.verify_assumptions(spec, traj, op)
    assert "constrained fit on %d grid pairs" % pairs in "\n".join(rep.lines)


# ------------------------------------------------------------------- sweep

def _sweep_setup(mu, deltas):
    # the shared set-up, built at deltas[0], and one observation per delta
    spec = build_model("ac_weak", 16, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.05)
    observations = [(make_observation(spec, "modal", delta=d), coef, q)
                    for d in deltas]
    cfg = StepConfig(dt=2e-3, T=0.4, mu=mu)
    return RunSetup(spec, cfg, *observations[0], u0=random_field(spec, 1),
                    v0=random_field(spec, 2)), observations


def _sweep(setup, observations, mu_grid, members, master_seed):
    # sweep with the constants it is handed measured on each observation
    return sweep(setup, observations, mu_grid, members, master_seed,
                 [measured_constants(setup.model, op)
                  for op, _, _ in observations])


def test_sweep_grid_and_threshold_flags():
    rows = _sweep(*_sweep_setup(10.0, (0.39, 0.9)), [10.0, 400.0], members=2,
                  master_seed=3)
    assert len(rows) == 4
    spec = build_model("ac_weak", 16, nu=1.0)
    alpha_hat = measure_alpha(spec)
    for row in rows:
        assert row["over_threshold"] == (row["mu_delta_sq"] > row["eta0_hat"])
        assert row["members"] == 2
        assert row["valid"]
        assert np.isfinite(row["gamma_fit"]) or "error" in row
    # the delta-normalized constant keeps eta0 roughly flat in delta, so
    # the flag must bite through mu alone
    assert any(r["over_threshold"] for r in rows)
    assert any(not r["over_threshold"] for r in rows)
    for d in (0.39, 0.9):
        opd = make_observation(spec, "modal", delta=d)
        want = eta0(alpha_hat, estimate_interp_constant(opd, spec))
        for row in (r for r in rows if r["delta"] == d):
            assert abs(row["eta0_hat"] - want) < 1e-12


def test_sweep_rerun_identical():
    s = _setup(mu=20.0, T=0.2)
    op = make_observation(s.model, "modal", delta=0.39)
    observations = [(op, s.coef, s.q)]
    a = _sweep(s, observations, [20.0], members=4, master_seed=8)
    b = _sweep(s, observations, [20.0], members=4, master_seed=8)
    assert a == b


def test_sweep_cells_equal_fresh_setups():
    # a cell is its delta's observation around the shared reference, at
    # one mu: every row of a 2 x 2 sweep equals the per-cell oracle run
    # over a set-up built at each (mu, delta)
    mus, deltas = [10.0, 400.0], [0.39, 0.9]
    rows = _sweep(*_sweep_setup(mus[0], deltas), mus, members=2,
                  master_seed=3)
    cells = [(mu, d) for mu in mus for d in deltas]
    assert [(r["mu"], r["delta"]) for r in rows] == cells
    for row, (mu, d) in zip(rows, cells):
        _assert_rows_equal([row], O.sweep_per_cell(*_sweep_setup(mu, [d]),
                                                   [mu], 2, 3))


def _assert_rows_equal(got, want):
    # NaN-aware: an unfitted cell holds NaN, which equals nothing.  chunks
    # counts the processes that stepped a sweep's members; the per-cell
    # oracle has none, and these sweeps are small enough for one process
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = dict(g), dict(w)
        assert g.pop("chunks") == w.pop("chunks", 1)
        assert g.keys() == w.keys()
        for key, val in w.items():
            same = g[key] == val or (isinstance(val, float) and np.isnan(val)
                                     and np.isnan(g[key]))
            assert same, (key, g[key], val)


def _grid_setups(mid, n, obs, deltas, kind="additive", sigma=0.05, p=0.0,
                 implicit=False, dt=2e-3, T=0.4, guard=1e6):
    # the shared set-up, built at deltas[0], and one (op, coef, q) per
    # delta, as the CLI builds them
    spec = build_model(mid, n, nu=1.0)
    cfg = StepConfig(dt=dt, T=T, mu=0.0, implicit_nudging=implicit,
                     blowup_guard=guard)
    observations = [(make_observation(spec, obs, delta=d),
                     make_noise_coefficient(kind, sigma, p=p, delta=d),
                     make_qspec(spec, delta=d)) for d in deltas]
    return RunSetup(spec, cfg, *observations[0], random_field(spec, 1),
                    random_field(spec, 2)), observations


def _partial_blowup_case():
    # a guard between the third and fourth of six members' accumulators
    # in the (20, 0.39) cell: some, not all, of its members blow up
    setup, observations = _grid_setups("ac_weak", 16, "modal", [0.39, 0.9],
                                       sigma=1.0, dt=1e-3, T=0.5)
    cell = replace(setup, cfg=replace(setup.cfg, mu=20.0))
    ranked = sorted(_final_v_accumulators(
        cell, [member_seed(9, m) for m in range(6)]))
    guard = 0.5 * (ranked[2] + ranked[3])
    return (replace(setup, cfg=replace(setup.cfg, blowup_guard=guard)),
            observations, [20.0, 60.0], 6, 9)


SWEEP_CASES = {
    "ac_weak-modal-2x2": lambda: (
        *_grid_setups("ac_weak", 16, "modal", [0.39, 0.9]), [10.0, 400.0],
        2, 3),
    "nse_strong-n8-volume-3x2": lambda: (
        *_grid_setups("nse_strong", 8, "volume", [0.39, 0.8], sigma=0.02,
                      dt=1e-3, T=0.05), [10.0, 50.0, 200.0], 2, 4),
    "implicit-modal-mu0": lambda: (
        *_grid_setups("ac_weak", 16, "modal", [0.39, 0.9], implicit=True,
                      dt=1e-2, T=0.5), [0.0, 500.0], 3, 5),
    "qg-n8-pointwise": lambda: (
        *_grid_setups("qg", 8, "volume", [0.8, 1.6],
                      kind="pointwise_multiplicative", sigma=0.2, dt=1e-3,
                      T=0.05), [10.0, 100.0], 2, 6),
    "additive-p0.5": lambda: (
        *_grid_setups("ac_weak", 16, "volume", [0.2, 0.5], sigma=0.3, p=0.5),
        [10.0, 80.0], 3, 7),
    "partial-blowups": _partial_blowup_case,
    # explicit nudging at dt * mu = 5 diverges: every member of both
    # mu = 500 cells blows up, the mu = 10 cells run through
    "cell-all-blowups": lambda: (
        *_grid_setups("ac_weak", 16, "modal", [0.39, 0.9], dt=1e-2, T=0.5,
                      guard=1e8), [10.0, 500.0], 2, 3),
    "reference-blowup": lambda: (
        *_grid_setups("ac_weak", 16, "modal", [0.39, 0.9], guard=1e-12),
        [10.0, 400.0], 2, 3),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_rows_equal_per_cell_oracle(case):
    setup, observations, mus, members, seed = SWEEP_CASES[case]()
    rows = _sweep(setup, observations, mus, members, seed)
    _assert_rows_equal(rows, O.sweep_per_cell(setup, observations, mus,
                                              members, seed))
    blowups = [r["blowups"] for r in rows]
    if case == "partial-blowups":
        assert any(0 < b < members for b in blowups)
    if case == "cell-all-blowups":
        lost = [r for r in rows if r["blowups"] == members]
        assert len(lost) == 2 and all(r["mu"] == 500.0 for r in lost)
        assert all("every member's assimilated" in r["error"] for r in lost)
    if case == "reference-blowup":
        assert all(not r["valid"] for r in rows)
        assert all("every member's reference" in r["error"] for r in rows)


def test_sweep_steps_one_stack(monkeypatch):
    # 3 x 2 cells, 2 members: the reference and all 12 estimates step as
    # one 13-row stack, and kappa, which no sweep output reads, never runs
    setup, observations = _grid_setups("nse_strong", 8, "volume", [0.39, 0.8],
                                       sigma=0.02, dt=1e-3, T=0.02)
    spec = setup.model
    shapes, kappas = [], []
    f_raw, kappa_raw = spec.f_raw, spec.kappa_raw
    monkeypatch.setattr(spec, "f_raw",
                        lambda x: shapes.append(x.shape) or f_raw(x))
    monkeypatch.setattr(spec, "kappa_raw",
                        lambda x: kappas.append(x.shape) or kappa_raw(x))
    rows = _sweep(setup, observations, [10.0, 50.0, 200.0], members=2,
                  master_seed=3)
    assert all(r["blowups"] == 0 for r in rows)
    nsteps = setup.cfg.nsteps
    assert shapes == [(1 + 6 * 2,) + spec.shape] * nsteps
    assert kappas == []


def test_sweep_needs_an_observation():
    setup, _ = _grid_setups("ac_weak", 16, "modal", [0.39])
    with pytest.raises(ValueError, match="at least one observation"):
        sweep(setup, [], [10.0], members=2, master_seed=3, consts=[])


@pytest.mark.parametrize("given", [1, 3])
def test_sweep_needs_one_set_of_constants_per_observation(monkeypatch, given):
    # 2 deltas x 2 mu with 1 constant would integrate delta 0.9's cells and
    # drop them; the sweep refuses before it steps anything
    setup, observations = _grid_setups("ac_weak", 16, "modal", [0.39, 0.9])
    consts = [measured_constants(setup.model, observations[0][0])] * given
    monkeypatch.setattr(H, "simulate_members",
                        lambda *a: pytest.fail("the sweep integrated"))
    with pytest.raises(ValueError, match="one set of constants per"):
        sweep(setup, observations, [10.0, 400.0], members=2, master_seed=3,
              consts=consts)


@pytest.mark.parametrize("mu_grid,deltas,name", [
    ([10.0, 10.0], [0.39], "mu"), ([10.0, 400.0], [0.39, 0.9, 0.39], "delta")])
def test_sweep_refuses_a_repeated_grid_entry(monkeypatch, mu_grid, deltas, name):
    # a repeated entry's cells would repeat others bit for bit
    setup, observations = _grid_setups("ac_weak", 16, "modal", deltas)
    monkeypatch.setattr(H, "simulate_members",
                        lambda *a: pytest.fail("the sweep integrated"))
    with pytest.raises(ValueError, match="a %s appears twice" % name):
        sweep(setup, observations, mu_grid, members=2, master_seed=3,
              consts=[measured_constants(setup.model, op)
                      for op, _, _ in observations])


SWEEP_IGNORES = {
    # the setup's own observation, built at deltas[0], and its mu: each
    # cell takes its delta's (op, coef, q) and its mu from the grid
    "op": lambda s, obs: replace(s, op=obs[1][0]),
    "coef": lambda s, obs: replace(s, coef=obs[1][1]),
    "q": lambda s, obs: replace(s, q=obs[1][2]),
    "mu": lambda s, obs: replace(s, cfg=replace(s.cfg, mu=400.0)),
}


@pytest.mark.parametrize("what", sorted(SWEEP_IGNORES))
def test_sweep_rows_ignore_the_setups_own_observation(what):
    setup, observations = _grid_setups("ac_weak", 16, "volume", [0.2, 0.5],
                                       sigma=0.3, p=0.5, T=0.2)
    other = SWEEP_IGNORES[what](setup, observations)
    assert pickle.dumps((other.cfg, other.op, other.coef, other.q)) != \
        pickle.dumps((setup.cfg, setup.op, setup.coef, setup.q))
    want = _sweep(setup, observations, [10.0, 80.0], members=2,
                  master_seed=3)
    _assert_rows_equal(_sweep(other, observations, [10.0, 80.0], members=2,
                              master_seed=3), want)


# ----------------------------------------------------- convolution variance

def test_convolution_mc_single_path_bit_identical():
    # one path is the estimate of the linear model from zero, un-nudged
    spec = build_model("ac_weak", 8, nu=1.0, linear=True)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.2)
    cfg = StepConfig(dt=1e-2, T=0.2, mu=15.0)
    probes = [0.1, 0.2]
    _, var, se, _ = convolution_variance_mc(spec, cfg, coef, q, probes,
                                            paths=1, master_seed=42)
    zero = np.zeros(spec.shape)
    z_path = simulate_pair(spec, cfg, O.blind_observation(spec), coef, q,
                           zero, zero,
                           member_seed(42, 0), Record((), v_path=None)).v_path
    for i, t in enumerate(probes):
        step = int(round(t / cfg.dt))
        assert np.array_equal(var[i], z_path[step] ** 2)
    # one path: m4 - var^2 vanishes up to rounding of z^4 vs (z^2)^2,
    # and the square root turns ~eps relative residue into ~sqrt(eps)
    assert np.all(se <= 1e-7 * np.maximum(var, 1e-30))


def test_convolution_mc_chunking_invariant(monkeypatch):
    spec = build_model("ac_weak", 8, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=1e-2, T=0.1, mu=10.0)
    monkeypatch.setattr(H, "_CONV_CHUNK", 7)
    out1 = convolution_variance_mc(spec, cfg, coef, q, [0.1], 7, 0)
    monkeypatch.setattr(H, "_CONV_CHUNK", 3)
    out2 = convolution_variance_mc(spec, cfg, coef, q, [0.1], 7, 0)
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


def _conv_case(n=8, T=0.2):
    spec = build_model("ac_weak", n, nu=1.0)
    return (spec, StepConfig(dt=1e-2, T=T, mu=15.0),
            make_noise_coefficient("additive", 0.2), make_qspec(spec))


def _conv_processes(workers, paths, chunk):
    # the processes convolution_variance_mc steps its paths in
    return min(workers, -(-paths // chunk)) if I._forkable() else 1


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("paths,chunk", [(1, 3), (7, 3), (13, 5), (2, 500)])
def test_convolution_mc_forked_equals_serial_oracle(monkeypatch, workers,
                                                    paths, chunk):
    # (7, 3) and (13, 5) end on a short task; (2, 500): fewer tasks than
    # processes when workers > 1
    monkeypatch.setattr(H, "_cpus", lambda: workers)
    monkeypatch.setattr(H, "_CONV_CHUNK", chunk)
    spec, cfg, coef, q = _conv_case()
    probes = [0.05, 0.1, 0.2]
    _, var, se, chunks = convolution_variance_mc(spec, cfg, coef, q, probes,
                                                 paths, 11)
    ref_var, ref_se = O.convolution_mc_serial(spec, cfg, coef, q, probes,
                                              paths, 11, chunk=chunk)
    assert np.array_equal(var, ref_var)
    assert np.array_equal(se, ref_se)
    assert chunks == _conv_processes(workers, paths, chunk)


def test_convolution_mc_more_workers_than_cores(monkeypatch):
    # eight tasks in eight processes, whatever the CPUs they share
    monkeypatch.setattr(H, "_cpus", lambda: 8)
    monkeypatch.setattr(H, "_CONV_CHUNK", 5)
    spec, cfg, coef, q = _conv_case()
    _, var, se, chunks = convolution_variance_mc(spec, cfg, coef, q,
                                                 [0.1, 0.2], 40, 2)
    ref_var, ref_se = O.convolution_mc_serial(spec, cfg, coef, q, [0.1, 0.2],
                                              40, 2, chunk=5)
    assert np.array_equal(var, ref_var)
    assert np.array_equal(se, ref_se)
    assert chunks == _conv_processes(8, 40, 5)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_convolution_mc_across_draw_blocks_equals_serial_oracle(monkeypatch,
                                                                workers):
    # 6 steps of 8 modes per generator call: the 20 steps are drawn in
    # three full blocks and a partial one of 2, yet every path and sum
    # keeps the bits of the serial oracle's whole-horizon draws
    monkeypatch.setattr(H, "_cpus", lambda: workers)
    monkeypatch.setattr(I, "_DRAW_BYTES", 6 * 8 * 8)
    monkeypatch.setattr(H, "_CONV_CHUNK", 3)
    spec, cfg, coef, q = _conv_case()
    assert q.draw_shape == (8,) and cfg.nsteps == 20
    probes = [0.05, 0.1, 0.2]
    _, var, se, _ = convolution_variance_mc(spec, cfg, coef, q, probes, 7, 11)
    ref_var, ref_se = O.convolution_mc_serial(spec, cfg, coef, q, probes, 7,
                                              11, chunk=3)
    assert np.array_equal(var, ref_var)
    assert np.array_equal(se, ref_se)


def test_convolution_mc_processes_each_refill_one_buffer(monkeypatch,
                                                         tmp_path):
    # five tasks in two processes, the last of three paths: each process
    # draws its contiguous run of tasks into one buffer, which it holds
    # for the whole call; the calls are logged to a file, which a forked
    # child appends to as well
    monkeypatch.setattr(H, "_cpus", lambda: 2)
    monkeypatch.setattr(H, "_CONV_CHUNK", 5)
    blocks, log, held = H._blocks, tmp_path / "blocks.log", []

    def recording(rngs, members, n, shape, out):
        # each process holds every buffer it logs: a freed buffer's id
        # could come back
        held.append(out.base)
        with open(log, "a") as fh:
            fh.write("%d %d %d\n" % (os.getpid(), id(out.base), out.shape[0]))
        return blocks(rngs, members, n, shape, out)

    monkeypatch.setattr(H, "_blocks", recording)
    spec, cfg, coef, q = _conv_case()
    _, var, se, chunks = convolution_variance_mc(spec, cfg, coef, q,
                                                 [0.1, 0.2], 23, 4)
    calls = [tuple(map(int, line.split()))
             for line in log.read_text().splitlines()]
    buffers, rows = {}, {}
    for pid, buf, n in calls:
        buffers.setdefault(pid, set()).add(buf)
        rows.setdefault(pid, []).append(n)
    assert all(len(bufs) == 1 for bufs in buffers.values())
    assert len(buffers) == chunks == _conv_processes(2, 23, 5)
    # this process steps the first run of tasks, a child the second
    assert rows.pop(os.getpid()) == ([5, 5] if chunks == 2 else [5] * 4 + [3])
    assert list(rows.values()) == ([[5, 5, 3]] if chunks == 2 else [])
    ref_var, ref_se = O.convolution_mc_serial(spec, cfg, coef, q, [0.1, 0.2],
                                              23, 4, chunk=5)
    assert np.array_equal(var, ref_var) and np.array_equal(se, ref_se)


def test_convolution_mc_memory_does_not_grow_with_horizon(monkeypatch):
    # 4 steps per generator call: the base run's 20 steps already span 5
    # draw blocks, and a horizon 10x longer must not hold more draws.  One
    # process: tracemalloc sees no child's allocations
    monkeypatch.setattr(H, "_cpus", lambda: 1)
    monkeypatch.setattr(I, "_DRAW_BYTES", 4 * 8 * 8)
    monkeypatch.setattr(H, "_CONV_CHUNK", 100)

    def peak(T):
        spec, cfg, coef, q = _conv_case(T=T)
        tracemalloc.start()
        try:
            convolution_variance_mc(spec, cfg, coef, q, [T], 200, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(0.2)  # the first call's one-off imports and caches
    base, long = peak(0.2), peak(2.0)
    assert long <= 1.5 * base, (base, long)


def test_convolution_mc_rerun_identical(monkeypatch):
    monkeypatch.setattr(H, "_CONV_CHUNK", 4)
    spec, cfg, coef, q = _conv_case()
    a = convolution_variance_mc(spec, cfg, coef, q, [0.1, 0.2], 9, 5)
    b = convolution_variance_mc(spec, cfg, coef, q, [0.1, 0.2], 9, 5)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("probes,paths,match", [
    ([0.1], 0, "path"),
    ([0.1, 0.1], 2, "same step"),
    ([0.05, 0.05 + 1e-12], 2, "same step"),
    ([0.1234], 2, "whole number"),
    ([0.0], 2, "inside"),
    ([float("nan")], 2, "inside"),
])
def test_convolution_mc_rejects_bad_counts_and_probes(probes, paths, match):
    spec, cfg, coef, q = _conv_case()
    with pytest.raises(ValueError, match=match):
        convolution_variance_mc(spec, cfg, coef, q, probes, paths, 0)


@pytest.mark.parametrize("model_id", ["ac_weak", "ac_strong"])
def test_imex_convolution_variance_matches_recursion(model_id):
    spec = build_model(model_id, 8, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.1)
    steps = [1, 37, 500]
    got = imex_convolution_variance(spec, q, coef, 20.0, 1e-3, steps)
    assert got.shape == (3, spec.n)
    for i, n in enumerate(steps):
        for k in range(spec.n):
            # the raw coefficients carry the noise in H-weighted units
            ref = O.imex_ou_variance(20.0, q.lam[k] / spec.w_h[k],
                                     coef.sigma_delta, spec.a[k], 1e-3, n)
            assert got[i, k] == pytest.approx(ref, rel=1e-12, abs=0.0)
