"""End-to-end acceptance runs, one printed PASS/FAIL line per criterion.

Run with -s (or read the -v test names) to see the per-criterion lines.
Each test prints its verdict before asserting so failures still report.
"""

import json
import time

import numpy as np
import pytest

import nudgelab.cli as cli
import oracles as O
from nudgelab.fields import inner_h_raw, norm_raw
from nudgelab.harness import (RunSetup, convolution_variance_mc,
                              fit_decay_rate, estimate_noise_floor,
                              run_ensemble, sweep, tail_sup,
                              verify_assumptions)
from nudgelab.integrate import StepConfig, simulate_pair
from nudgelab.models import build_model, random_field
from nudgelab.noise import make_noise_coefficient, make_qspec
from nudgelab.observe import estimate_interp_constant, eta0, make_observation

DELTA = 0.39                    # modal cutoff 8 on every family used here


def _line(num, ok, detail):
    print("%s criterion-%02d: %s" % ("PASS" if ok else "FAIL", num, detail))
    assert ok, "criterion-%02d: %s" % (num, detail)


def _pair(model_id, n, nu=1.0, sigma=0.0, kind="additive", mu=50.0,
          dt=1e-3, T=4.0, amplitude=1.0, seed=1, master=0, p=0.0):
    spec = build_model(model_id, n, nu=nu)
    op = make_observation(spec, "modal", delta=DELTA)
    q = make_qspec(spec)
    coef = make_noise_coefficient(kind, sigma, p=p, delta=DELTA)
    cfg = StepConfig(dt=dt, T=T, mu=mu)
    u0 = random_field(spec, (seed, 0), h_norm=amplitude)
    bump = random_field(spec, (seed, 1), h_norm=1.0)
    v0 = u0 + bump
    return spec, RunSetup(spec, cfg, op, coef, q, u0, v0)


@pytest.fixture(scope="module")
def sync_runs():
    """The three zero-noise synchronization runs, shared with criterion 3."""
    out = {}
    for key, model_id, n, mu, T in (("ac_weak", "ac_weak", 128, 50.0, 4.0),
                                    ("ac_strong", "ac_strong", 128, 50.0, 4.0),
                                    ("nse_strong", "nse_strong", 64, 100.0, 2.0)):
        spec, setup = _pair(model_id, n, mu=mu, T=T)
        t0 = time.time()
        res = simulate_pair(spec, setup.cfg, setup.op, None, None,
                            setup.u0, setup.v0, 0)
        out[key] = (spec, res, time.time() - t0)
    return out


def test_criterion_01_zero_noise_synchronization(sync_runs):
    parts = []
    ok = True
    for key, tol, budget in (("ac_weak", 1e-6, 60.0),
                             ("ac_strong", 1e-4, 60.0),
                             ("nse_strong", 1e-4, 300.0)):
        spec, res, wall = sync_runs[key]
        ratio = res.w_h[-1] / res.w_h[0]
        fit = fit_decay_rate(res.times, res.w_h ** 2)
        good = ratio <= tol and fit.gamma_fit > 0.0 and wall <= budget
        ok = ok and good
        parts.append("%s ratio %.2e gamma %.1f %.1fs" %
                     (key, ratio, fit.gamma_fit, wall))
    _line(1, ok, "; ".join(parts))


def test_criterion_02_noise_floor_scaling():
    floors = {}
    for sigma, members in ((0.05, 64), (0.1, 64), (0.0, 1)):
        spec, setup = _pair("ac_weak", 64, sigma=sigma, T=2.0)
        ens = run_ensemble(setup, members, 3)
        floors[sigma], _ = estimate_noise_floor(ens.times, ens.mean_w2_h)
    ratio = floors[0.1] / floors[0.05]
    gain = floors[0.05] / max(floors[0.0], 1e-300)
    ok = 3.0 <= ratio <= 5.0 and gain >= 1e3
    _line(2, ok, "2x-sigma floor ratio %.2f (theory 4), floor/zero-noise "
          "floor %.1e" % (ratio, gain))


def test_criterion_03_vstar_ordering(sync_runs):
    worst = -np.inf
    states = 0
    for key in ("ac_weak", "ac_strong", "nse_strong"):
        spec, res, _ = sync_runs[key]
        nz = res.w_h > 0.0
        worst = max(worst, np.max(res.w_vstar[nz] / (spec.c_emb * res.w_h[nz])))
        states += len(res.w_h)
    spec, setup = _pair("ac_weak", 64, sigma=0.1, T=1.0)
    res = simulate_pair(spec, setup.cfg, setup.op, setup.coef, setup.q,
                        setup.u0, setup.v0, 5)
    worst = max(worst, np.max(res.w_vstar / (spec.c_emb * res.w_h)))
    states += len(res.w_h)
    ok = worst <= 1.0 + 1e-12
    _line(3, ok, "max |w|_Vstar / (c_emb |w|_H) = %.15f over %d states"
          % (worst, states))


def test_criterion_04_almost_sure_tail_convergence():
    spec, setup = _pair("ac_strong", 32, sigma=0.3, kind="state_scaled",
                        mu=20.0, dt=2e-3, T=12.0, amplitude=0.5, seed=2)
    ens = run_ensemble(setup, 32, 7)
    med = {N: float(np.median([tail_sup(ens.times, row, N)
                               for row in ens.member_w_h]))
           for N in (2.0, 4.0, 8.0)}
    ok = med[2.0] > med[4.0] > med[8.0] and med[8.0] / med[2.0] <= 0.5
    _line(4, ok, "median tail_sup %.1e / %.1e / %.1e at N=2/4/8, "
          "ratio(8/2) %.1e" % (med[2.0], med[4.0], med[8.0],
                               med[8.0] / med[2.0]))


def test_criterion_05_convolution_isometry():
    spec = build_model("ac_weak", 8, nu=1.0)
    q = make_qspec(spec)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=2e-4, T=1.0, mu=20.0)
    probes = [0.25, 0.5, 1.0]
    t0 = time.time()
    _, var, se = convolution_variance_mc(spec, cfg, coef, q, probes,
                                         paths=10000, master_seed=2024,
                                         chunk=1000)
    wall = time.time() - t0
    worst = 0.0
    for i, t in enumerate(probes):
        for k in range(3):
            exact = O.ou_variance(cfg.mu, q.lam[k], coef.sigma, spec.a[k], t)
            worst = max(worst, abs(var[i, k] - exact) / se[i, k])
    ok = worst <= 3.0 and wall <= 300.0
    _line(5, ok, "worst deviation %.2f s.e. over 3 modes x 3 times, "
          "10^4 paths, %.1fs" % (worst, wall))


def test_criterion_06_cancellation_identities():
    worst = {}
    for model_id in ("nse_weak", "qg", "mhd", "nse_strong"):
        spec = build_model(model_id, 32, nu=1.0)
        w = 0.0
        for s in range(100):
            u = random_field(spec, (60, s))
            f = spec.f_raw(u)
            den = norm_raw(spec, f, "Vstar") * norm_raw(spec, u, "V")
            w = max(w, abs(inner_h_raw(spec, f, u)) / den)
        worst[model_id] = w
    ok = max(worst.values()) <= 1e-10
    _line(6, ok, "relative residual over 100 fields each: " +
          ", ".join("%s %.1e" % kv for kv in worst.items()))


def test_criterion_07_oracle_equivalence():
    def rel(a, b):
        return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)

    worst = 0.0
    for model_id in ("ac_weak", "ac_strong"):
        spec = build_model(model_id, 8)
        rng = np.random.default_rng(7)
        for _ in range(5):
            c = rng.standard_normal(8) / (1.0 + np.arange(1.0, 9.0))
            worst = max(worst, rel(spec.f_raw(c), c - O.sine_cube_modes(c)))
    for model_id in ("nse_weak", "nse_strong"):
        spec = build_model(model_id, 8)
        for s in range(5):
            u = random_field(spec, (70, s))
            o1, o2 = O.nse_rhs_modes(spec, u[0], u[1])
            want = np.stack([O.to_layout(spec, o1), O.to_layout(spec, o2)])
            worst = max(worst, rel(spec.f_raw(u), want))
    spec = build_model("qg", 8)
    for s in range(5):
        th = random_field(spec, (71, s))
        want = O.to_layout(spec, O.qg_rhs_modes(spec, th))
        worst = max(worst, rel(spec.f_raw(th), want))
    spec = build_model("mhd", 8)
    for s in range(5):
        z = random_field(spec, (72, s))
        parts = O.mhd_rhs_modes(spec, *z)
        want = np.stack([O.to_layout(spec, p) for p in parts])
        worst = max(worst, rel(spec.f_raw(z), want))

    # step-size sensitivity on the slow manifold: dt vs dt/100
    spec = build_model("ac_weak", 8, nu=0.05)
    u0 = random_field(spec, 21)
    coarse = simulate_pair(spec, StepConfig(dt=1e-3, T=1.0, mu=0.0),
                           None, None, None, u0, u0, 0)
    fine = simulate_pair(spec, StepConfig(dt=1e-5, T=1.0, mu=0.0),
                         None, None, None, u0, u0, 0)
    ref = fine.u_final
    imex_err = float(np.linalg.norm(coarse.u_final - ref)
                     / np.linalg.norm(ref))
    ok = worst <= 1e-12 and imex_err <= 1e-3
    _line(7, ok, "nonlinearities vs direct convolution %.1e (tol 1e-12); "
          "IMEX vs dt/100 reference %.1e (tol 1e-3)" % (worst, imex_err))


def test_criterion_08_threshold_formula():
    exact = eta0(2.0, 4.0) == 0.25

    def setup(delta):
        spec = build_model("ac_weak", 16, nu=1.0)
        op = make_observation(spec, "modal", delta=delta)
        q = make_qspec(spec)
        coef = make_noise_coefficient("additive", 0.05)
        return RunSetup(spec, StepConfig(dt=2e-3, T=0.4, mu=10.0), op, coef, q,
                        random_field(spec, 1), random_field(spec, 2))

    res = sweep([setup(0.39), setup(0.9)], [10.0, 400.0], members=2,
                master_seed=3)
    flags_ok = all(r["over_threshold"] == (r["mu_delta_sq"] > r["eta0_hat"])
                   for r in res.rows)
    some = sum(r["over_threshold"] for r in res.rows)
    ok = exact and flags_ok and 0 < some < len(res.rows)
    _line(8, ok, "eta0(2,4) == 0.25 %s; sweep flags consistent on %d cells "
          "(%d over threshold)" % (exact, len(res.rows), some))


def test_criterion_09_assumption_verifier():
    spec = build_model("nse_weak", 32, nu=1.0)
    op = make_observation(spec, "modal", delta=DELTA)
    cfg = StepConfig(dt=2e-3, T=1.0, mu=0.0)
    u0 = random_field(spec, (9, 0))
    res = simulate_pair(spec, cfg, op, None, None, u0, u0, 0, record_u=True)
    rep = verify_assumptions(spec, res, op)
    flat = rep.m0 <= 1e-2 * rep.m1 / cfg.T
    alpha_ok = abs(rep.alpha_hat - rep.alpha_declared) <= 1e-9

    lin = build_model("nse_weak", 32, nu=1.0, linear=True)
    lop = make_observation(lin, "modal", delta=DELTA)
    lres = simulate_pair(lin, StepConfig(dt=2e-3, T=0.5, mu=0.0),
                         lop, None, None, random_field(lin, 1),
                         random_field(lin, 1), 0, record_u=True)
    lrep = verify_assumptions(lin, lres, lop)
    zero_ok = lrep.m0 == 0.0 and lrep.m1 == 0.0

    ok = flat and zero_ok and alpha_ok
    _line(9, ok, "envelope M0 %.2e vs 1e-2*M1/T %.2e; F=0 gives (%g, %g); "
          "|alpha_hat - declared| %.1e"
          % (rep.m0, 1e-2 * rep.m1 / cfg.T, lrep.m0, lrep.m1,
             abs(rep.alpha_hat - rep.alpha_declared)))


CONFIG_10 = """\
model.id = ac_weak
model.n = 32
observation.delta = 0.39
noise.kind = additive
noise.sigma = 0.05
nudging.mu = 30.0
time.dt = 2e-3
time.T = 0.5
ensemble.members = 4
ensemble.seed = 11
ensemble.workers = %d
"""


def test_criterion_10_determinism(tmp_path):
    outs = []
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        cfg = tmp_path / ("run%s.cfg" % name)
        cfg.write_text(CONFIG_10 % workers)
        out = tmp_path / name
        rc = cli.main(["simulate", "--config", str(cfg),
                       "--out-dir", str(out)])
        assert rc == 0
        outs.append(out)
    a, b, c = outs
    rerun = (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes() \
        and (a / "ensemble.csv").read_bytes() == (b / "ensemble.csv").read_bytes()
    sched = (a / "series.csv").read_bytes() == (c / "series.csv").read_bytes() \
        and (a / "ensemble.csv").read_bytes() == (c / "ensemble.csv").read_bytes()
    man = tmp_path / "d"
    rc = cli.main(["simulate", "--config", str(a / "manifest.json"),
                   "--out-dir", str(man)])
    from_manifest = rc == 0 and (a / "series.csv").read_bytes() == \
        (man / "series.csv").read_bytes()
    ok = rerun and sched and from_manifest
    _line(10, ok, "rerun byte-identical %s; workers 1 vs 4 byte-identical %s; "
          "manifest replay byte-identical %s" % (rerun, sched, from_manifest))
