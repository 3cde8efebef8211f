"""Ensembles, rate fits, noise floors, sweeps, and assumption checks.

Members of an ensemble share initial data and differ only in their
noise streams, derived from the master seed by spawn keys, so results
are reproducible bit-for-bit.  Members step in lockstep: the reference
is integrated once, and every member's estimate advances in one stacked
array, with each member's numbers byte-identical to a run of that member
alone; results are aggregated by member index.  A (mu, delta) sweep is
one such lockstep run over the whole grid, built from one set-up and
one observation per delta: its cells share one reference and one draw
per member and step by construction, and each is its own ensemble.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .fields import _wsum2, inner_h_raw, norm_raw
from .integrate import (BlowupError, Group, Record, _fill, _rng_for,
                        simulate_members)
from .models import build_model, random_field
from .noise import apply_G_raw, increment_from_noise
from .observe import estimate_interp_constant, eta0


@dataclass(frozen=True)
class RunSetup:
    """Everything one coupled run needs besides its seed."""
    model: object
    cfg: object
    op: object
    coef: object
    q: object
    u0: object
    v0: object


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_w2_h: np.ndarray
    mean_w2_vstar: np.ndarray
    se_w2_h: np.ndarray
    se_w2_vstar: np.ndarray
    member_w_h: np.ndarray     # (included members, recorded steps)
    blowups: int
    mean_hs: np.ndarray
    first: object              # SimResult of member 0, None if it blew up

    @property
    def partial(self):
        return self.blowups > 0


def member_seed(master_seed, member):
    return np.random.SeedSequence(master_seed, spawn_key=(member,))


def run_ensemble(setup, members, master_seed, record=Record()):
    """Monte Carlo over noise realizations; deterministic in master_seed.
    Every statistic is formed at the steps of record (an integrate.Record)
    and keeps its bits whatever else the request names."""
    _, [[cell]] = simulate_members(
        setup.model, setup.cfg,
        [Group(setup.op, setup.coef, setup.q, (setup.cfg.mu,))],
        setup.u0, setup.v0,
        [_rng_for(member_seed(master_seed, m)) for m in range(members)], record)
    return _aggregate(cell)


def _aggregate(cell):
    """EnsembleResult of one cell (a CellResult) over the members that did
    not blow up, None where it recorded no series; raises BlowupError when
    every member blew up."""
    ok = np.array([e is None for e in cell.errors])
    if not ok.any():
        err = cell.errors[0]
        raise BlowupError("every member's " + err.which, err.step, err.t,
                          err.accumulator)
    m_eff = int(ok.sum())

    def mean_se(w):
        # mean over members of the squared series, and its standard error
        w2 = w[ok] ** 2
        se = (w2.std(axis=0, ddof=1) / np.sqrt(m_eff) if m_eff > 1
              else np.zeros(w2.shape[1]))
        return w2.mean(axis=0), se

    (mean_h, se_h), (mean_v, se_v) = ((None, None) if w is None else mean_se(w)
                                      for w in (cell.w_h, cell.w_vstar))
    # hs is the group's, the same for every member; the mean of m_eff
    # equal copies can differ from it in the last bit, and is what the
    # ensemble digests pin
    mean_hs = None if cell.hs is None else np.stack([cell.hs] * m_eff).mean(axis=0)
    return EnsembleResult(cell.times, mean_h, mean_v, se_h, se_v,
                          None if cell.w_h is None else cell.w_h[ok],
                          len(ok) - m_eff, mean_hs,
                          cell.member(0) if ok[0] else None)


@dataclass
class RateFit:
    gamma_fit: float
    intercept: float
    window: tuple
    residual: float
    note: str = ""


def fit_decay_rate(times, series, window=None):
    """Least-squares slope of log(series), gamma_fit = -slope.

    With no window given, fits [0.1, 0.9] * T_sync, where T_sync is the
    first time the series falls under max(10 * floor, 1e-12); shrinks
    past nonpositive values with a diagnostic rather than failing.
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    note = ""
    if window is None:
        tail = series[-max(len(series) // 4, 1):]
        thresh = max(10.0 * float(tail.mean()), 1e-12)
        below = np.flatnonzero(series < thresh)
        t_sync = times[below[0]] if below.size else times[-1]
        if t_sync <= 0.0:
            t_sync = times[-1]
        window = (0.1 * t_sync, 0.9 * t_sync)
    idx = (times >= window[0]) & (times <= window[1])
    if np.any(idx & (series <= 0.0)):
        bad = np.flatnonzero(idx & (series <= 0.0))
        idx = idx & (np.arange(len(series)) < bad[0])
        note = "window shrunk to positive values (noise floor reached)"
    idx = idx & (series > 0.0)
    if idx.sum() < 3:
        raise ValueError("fewer than 3 positive samples in the fit window")
    t = times[idx]
    y = np.log(series[idx])
    slope, intercept = np.polyfit(t, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return RateFit(-float(slope), float(intercept),
                   (float(t[0]), float(t[-1])), resid, note)


def estimate_noise_floor(times, series):
    """Time-average of the mean-square error over the last quarter of the
    samples, and its standard error."""
    series = np.asarray(series, dtype=float)
    k = max(round(len(series) / 4), 1)
    if k < 10:
        raise ValueError("tail window has fewer than 10 samples")
    tail = series[-k:]
    return float(tail.mean()), float(tail.std(ddof=1) / np.sqrt(k))


def tail_sup(times, w_path, n_time):
    """sup of ||w_t|| over t >= N along one member path."""
    times = np.asarray(times, dtype=float)
    if n_time >= times[-1]:
        raise ValueError("N must lie inside the simulated horizon")
    sel = times >= n_time
    return float(np.max(np.asarray(w_path)[sel]))


CI_SAMPLES = 32     # probe pairs of every measured C_I


def measured_constants(spec, op):
    """(alpha_hat, C_I_hat, eta0_hat) of spec and op, C_I over CI_SAMPLES."""
    alpha = measure_alpha(spec)
    ci = estimate_interp_constant(op, spec, samples=CI_SAMPLES)
    return alpha, ci, eta0(alpha, ci)


def sweep(setup, observations, mu_grid, members, master_seed, consts):
    """Rows of a grid over (mu, delta): per cell gamma_fit, floor,
    blow-up counts, and the mu*delta^2 > eta0_hat flag from measured
    constants.

    setup gives what every cell shares: the model, cfg but its mu, u0
    and v0.  observations holds one (op, coef, q) per delta, in grid order
    (ValueError if empty), and consts their measured_constants, one per
    observation (ValueError otherwise).  The
    reference is stepped once, and member m's noise block of each step
    is drawn once and drives member m in every cell: the whole grid is
    one lockstep integration, each cell's numbers bit-identical to an
    ensemble run of that cell alone.  Cells run mu-major; cells whose
    members blow up beyond 10% are marked invalid.  The run records only
    the members' w_h, at every step: the fit and the floor read nothing
    else.
    """
    if not observations:
        raise ValueError("sweep needs at least one observation")
    if len(consts) != len(observations):
        raise ValueError("sweep needs one set of constants per observation, "
                         "got %d for %d" % (len(consts), len(observations)))
    groups = [Group(*obs, tuple(mu_grid)) for obs in observations]
    _, cells = simulate_members(
        setup.model, setup.cfg, groups, setup.u0, setup.v0,
        [_rng_for(member_seed(master_seed, m)) for m in range(members)],
        Record(("w_h",)))
    rows = []
    for k, mu in enumerate(mu_grid):
        for group, (_, _, eta), by_mu in zip(groups, consts, cells):
            mu_delta_sq = float(mu) * group.op.delta ** 2
            row = {"mu": float(mu), "delta": group.op.delta,
                   "mu_delta_sq": mu_delta_sq, "eta0_hat": eta,
                   "over_threshold": mu_delta_sq > eta, "members": members,
                   "gamma_fit": np.nan, "fit_residual": np.nan,
                   "floor": np.nan, "floor_se": np.nan}
            rows.append(row)
            try:
                ens = _aggregate(by_mu[k])
            except BlowupError as e:
                row.update(blowups=members, valid=False, error=str(e))
                continue
            row["blowups"] = ens.blowups
            row["valid"] = ens.blowups <= 0.1 * members
            try:
                fit = fit_decay_rate(ens.times, ens.mean_w2_h)
                row["gamma_fit"] = fit.gamma_fit
                row["fit_residual"] = fit.residual
            except ValueError as e:
                row["error"] = str(e)
            try:
                row["floor"], row["floor_se"] = estimate_noise_floor(
                    ens.times, ens.mean_w2_h)
            except ValueError:
                pass
    return rows


def measure_alpha(spec):
    """Smallest Rayleigh quotient <A e_k, e_k> / ||e_k||_V^2 over modes."""
    mask = spec.mask
    quot = spec.a[mask] * spec.w_h[mask] ** 2 / spec.w_v[mask] ** 2
    return float(quot.min())


def _stride_idx(n, stride):
    """Every stride-th index of range(n), and the last one."""
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def _mm_envelope(times, kappa):
    """Smallest (M0, M1) with int_s^t kappa <= M0 (t-s) + M1 on a coarse
    grid of (s, t) pairs, every max(len(times) // 64, 1)-th time and the
    last; ties broken toward the smallest M0."""
    times = np.asarray(times, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    if times.size < 2 or np.all(kappa == 0.0):
        return 0.0, 0.0, 0.0
    dt = np.diff(times)
    cum = np.concatenate([[0.0], np.cumsum(kappa[:-1] * dt)])
    total = float(cum[-1])
    idx = _stride_idx(len(times), max(len(times) // 64, 1))
    ts = times[idx]
    ks = cum[idx]
    ii, jj = np.triu_indices(len(idx), k=1)
    d_t = ts[jj] - ts[ii]
    d_k = ks[jj] - ks[ii]
    slopes = d_k / d_t
    cand = np.unique(np.concatenate([[0.0], slopes[slopes > 0.0]]))
    horizon = times[-1] - times[0]
    m1 = np.maximum(d_k[None, :] - cand[:, None] * d_t[None, :], 0.0).max(axis=1)
    cost = cand * horizon + m1
    best = cost.min()
    pick = int(np.flatnonzero(cost <= best * (1.0 + 1e-12) + 1e-300)[0])
    return float(cand[pick]), float(m1[pick]), total


_A2_EXPONENTS = {
    # (rho, beta) per model family
    "ac_weak": (2.0, 2.0 / 3.0),
    "ac_strong": (2.0, 0.6),
    "nse_weak": (1.0, 0.75),
    "nse_strong": (1.0, 0.75),
    "qg": (1.0, 0.75),
    "mhd": (1.0, 0.75),
}


def _a2_ratio(spec, samples, seed):
    rho, beta = _A2_EXPONENTS[spec.params["family"]]
    w = spec.v_beta_weights(beta)     # weights of the [V*, V]_beta norm
    best = 0.0
    for i in range(samples):
        u = random_field(spec, (seed, 3 * i), smoothness=1.0)
        v = random_field(spec, (seed, 3 * i + 1), smoothness=1.0)
        fu = spec.f_raw(u)
        fv = spec.f_raw(v)
        num = norm_raw(spec, fu - fv, "Vstar")
        nb_u, nb_v, nb_d = (np.sqrt(_wsum2(spec, c, w)) for c in (u, v, u - v))
        den = (1.0 + nb_u ** rho + nb_v ** rho) * nb_d
        if den > 0.0:
            best = max(best, num / den)
    return best


def _cancellation_residual(spec, samples, seed):
    worst = 0.0
    for i in range(samples):
        u = random_field(spec, (seed, i), smoothness=0.8)
        fu = spec.f_raw(u)
        num = abs(inner_h_raw(spec, fu, u))
        den = norm_raw(spec, fu, "Vstar") * norm_raw(spec, u, "V")
        if den > 0.0:
            worst = max(worst, num / den)
    return worst


def _epsilon_hat(spec, traj_states, samples, seed):
    # <F(x), x> <= eps ||x||_V^2 + ||x||_H^2 + 0; measure the overshoot
    worst = 0.0
    states = list(traj_states)
    for i in range(samples):
        states.append(random_field(spec, (seed, 100 + i)))
    for c in states:
        fu = spec.f_raw(c)
        lhs = inner_h_raw(spec, fu, c)
        over = lhs - norm_raw(spec, c, "H") ** 2
        v2 = norm_raw(spec, c, "V") ** 2
        if v2 > 0.0:
            worst = max(worst, over / v2)
    return max(worst, 0.0)


@dataclass
class AssumptionReport:
    model_id: str
    alpha_hat: float
    alpha_declared: float
    c_i_hat: float
    eta0_hat: float
    m0: float
    m1: float
    kappa_integral: float
    epsilon_hat: float
    epsilon_budget: float
    cancellation_residual: float
    a2_ratio: float
    a2_ratio_refined: float
    samples: dict = field(default_factory=dict)

    def lines(self):
        out = [
            "assumption report for %s" % self.model_id,
            "  coercivity: alpha_hat = %.12g (declared %.12g, mode minimum over %d modes)"
            % (self.alpha_hat, self.alpha_declared, self.samples.get("modes", 0)),
            "  observation: C_I_hat = %.6g (%d probe pairs), eta0_hat = 2*alpha/C_I^2 = %.6g"
            % (self.c_i_hat, self.samples.get("ci_samples", 0), self.eta0_hat),
            "  drift growth: int kappa = %.6g over the run; envelope M0 = %.6g, M1 = %.6g"
            " (constrained fit on %d grid pairs)"
            % (self.kappa_integral, self.m0, self.m1, self.samples.get("pairs", 0)),
            "  energy inequality: eps_hat = %.6g, budget alpha/4 = %.6g -> %s"
            % (self.epsilon_hat, self.epsilon_budget,
               "pass" if self.epsilon_hat < self.epsilon_budget else "FAIL"),
            "  local boundedness ratio (beta-interpolated): %.6g at base size,"
            " %.6g refined (factor %.3g)"
            % (self.a2_ratio, self.a2_ratio_refined,
               self.a2_ratio_refined / self.a2_ratio if self.a2_ratio else float("nan")),
        ]
        if not np.isnan(self.cancellation_residual):
            out.insert(4, "  cancellation: relative residual %.3g over %d random fields"
                       % (self.cancellation_residual, self.samples.get("cancel", 0)))
        return out


def verify_record(nsteps):
    """What verify_assumptions reads of an nsteps-step run: kappa at every
    step and about 9 states, one every max((nsteps + 1) // 8, 1) steps."""
    return Record(("kappa",), None, range(0, nsteps + 1, max((nsteps + 1) // 8, 1)))


def verify_assumptions(spec, traj, op, samples=24, seed=1234):
    """Estimate every structural constant on a simulated trajectory.

    traj is a SimResult recorded as verify_record asks: the drift
    envelope reads its times and kappa, and the energy inequality is
    probed on each state of its u_path besides random fields;
    op is the observation operator whose constants come from
    measured_constants, as simulate and sweep report them; samples drives
    the other probes.
    """
    alpha_hat, ci, eta0_hat = measured_constants(spec, op)
    m0, m1, total = _mm_envelope(traj.times, traj.kappa)
    cancel = float("nan")
    cancel_n = 0
    if spec.kind == "torus" and not spec.params.get("linear", False):
        cancel_n = samples
        cancel = _cancellation_residual(spec, samples, seed)
    eps = _epsilon_hat(spec, traj.u_path, samples, seed)
    ratio = _a2_ratio(spec, samples, seed)
    refined = _a2_ratio(_refined_spec(spec, 2 * spec.n), samples, seed)
    k = len(_stride_idx(len(traj.times), max(len(traj.times) // 64, 1)))
    npairs = k * (k - 1) // 2
    return AssumptionReport(
        spec.model_id, alpha_hat, spec.alpha, ci, eta0_hat,
        m0, m1, total, eps, alpha_hat / 4.0, cancel, ratio, refined,
        samples={"modes": int(spec.mask.sum()), "ci_samples": CI_SAMPLES,
                 "pairs": npairs, "cancel": cancel_n, "a2": samples})


def _refined_spec(spec, n2):
    return build_model(spec.params["family"], n2, nu=spec.nu,
                       norms=spec.params.get("norms", "homogeneous"),
                       linear=spec.params.get("linear", False))


def probe_steps(probe_times, dt, nsteps):
    """Step index of each probe time.

    Raises ValueError for a time outside (0, T], a time that is not a
    whole number of steps to within 1e-9 relative (as StepConfig asks of
    T), or two times on the same step.
    """
    steps = []
    for t in probe_times:
        ratio = t / dt
        if not 0.5 <= ratio < nsteps + 0.5:
            raise ValueError("probe times must lie inside (0, T]")
        step = round(ratio)
        if not abs(ratio - step) <= 1e-9 * ratio:
            raise ValueError("probe time %r is not a whole number of steps "
                             "of dt = %r" % (t, dt))
        steps.append(step)
    if len(set(steps)) < len(steps):
        raise ValueError("two probe times fall on the same step")
    return steps


def imex_convolution_variance(spec, q, coef, mu, dt, steps):
    """Per-mode variance of the scheme's own convolution recursion
    z <- (z + mu G dW) r, r = 1/(1 + dt a), after each number of steps:
    mu^2 (sigma_delta lam / w_h)^2 dt sum_{j=1..n} r^(2j), in the raw
    coefficients convolution_variance_mc measures.  Shape
    (len(steps), n_modes)."""
    r2 = (1.0 / (1.0 + dt * spec.a)) ** 2
    scale = (mu * coef.sigma_delta * q.lam / spec.w_h) ** 2 * dt
    return np.array([scale * r2 * (1.0 - r2 ** n) / (1.0 - r2) for n in steps])


def _draw_workers():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _submit_draws(pool, workers, master_seed, first, b, shape):
    """Start drawing paths first .. first+b-1 into a path-major (b,) + shape
    buffer, each path whole from its own stream, built on the draw thread:
    one _fill task per contiguous slice of about b / workers paths.
    Returns the buffer and the futures filling it."""
    blocks = np.empty((b,) + shape)
    cuts = [b * k // workers for k in range(workers + 1)]
    return blocks, [pool.submit(_fill, (_rng_for(member_seed(master_seed, first + j))
                                        for j in range(lo, hi)), blocks[lo:hi])
                    for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


def convolution_variance_mc(spec, cfg, coef, q, probe_times, paths,
                            master_seed, chunk=500):
    """Per-mode sample variance of the stochastic convolution at probe
    times, over many paths.

    Member m draws its whole horizon in one call from the spawn_key=(m,)
    stream and steps z <- (z + mu G dW) r, r = 1/(1 + dt a), the update
    simulate_members gives the estimate of the linear model started from
    zero with no observation, so one path here is bit-identical to the
    v_path of that run.
    Paths run in chunks: a pool of one thread per available CPU draws
    the next chunk while the current one steps, so two chunks of
    paths x steps x modes doubles are alive at once.  Every path's draw
    and every sum is the same whatever the thread count, so the results
    are too.  Works for 1D (sine) models; returns (probe_times, var, se)
    with var and se shaped (len(probe_times), n_modes).
    """
    if spec.kind != "sine":
        raise ValueError("vectorized variance runs on 1D models")
    if coef.kind != "additive":
        raise ValueError("closed-form comparison needs additive noise")
    if paths < 1:
        raise ValueError("need at least one path")
    if chunk < 1:
        raise ValueError("chunk must be at least 1")
    n = cfg.nsteps
    dt = cfg.dt
    steps = probe_steps(probe_times, dt, n)
    denom = 1.0 / (1.0 + dt * spec.a)
    zero_u = np.zeros(spec.shape, dtype=spec.dtype)
    probe_at = {s: i for i, s in enumerate(steps)}
    sum2 = np.zeros((len(steps), spec.n))
    sum4 = np.zeros((len(steps), spec.n))
    from concurrent.futures import ThreadPoolExecutor
    workers = _draw_workers()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = _submit_draws(pool, workers, master_seed, 0,
                                min(chunk, paths), (n, spec.n))
        done = 0
        while done < paths:
            blocks, futures = pending
            for f in futures:
                f.result()
            b = len(blocks)
            if done + b < paths:
                pending = _submit_draws(pool, workers, master_seed, done + b,
                                        min(chunk, paths - done - b), (n, spec.n))
            z = np.zeros((b, spec.n))
            for step in range(1, n + 1):
                dw = increment_from_noise(spec, q, dt, blocks[:, step - 1])
                z = (z + cfg.mu * apply_G_raw(coef, spec, zero_u, dw)) * denom
                if step in probe_at:
                    i = probe_at[step]
                    sum2[i] += (z ** 2).sum(axis=0)
                    sum4[i] += (z ** 4).sum(axis=0)
            done += b
    var = sum2 / paths
    # standard error of a sample variance via the fourth moment
    m4 = sum4 / paths
    se = np.sqrt(np.maximum(m4 - var ** 2, 0.0) / paths)
    return np.asarray(probe_times, dtype=float), var, se
