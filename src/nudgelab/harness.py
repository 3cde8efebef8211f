"""Ensembles, rate fits, noise floors, sweeps, and assumption checks.

Members of an ensemble share initial data and differ only in their
noise streams, derived from the master seed by spawn keys, so results
are reproducible bit-for-bit.  Members step in lockstep: the reference
is integrated once, and every member's estimate advances in one stacked
array, with each member's numbers byte-identical to a run of that member
alone; results are aggregated by member index.  A (mu, delta) sweep is
one such lockstep run over the whole grid, built from one set-up and
one observation per delta: its cells share one reference, the cells of
one draw layout (every torus delta; on the sine grid the deltas of one
rank of Q) share one draw per member and step, and each cell is its own
ensemble.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .fields import _wsum, inner_h_raw, norm_raw
from .integrate import (BlowupError, Group, Record, _blocks, _processes,
                        _rng_for, simulate_members)
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
    chunks: int = 1            # processes that stepped the members

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
    return EnsembleResult(cell.times, mean_h, mean_v, se_h, se_v,
                          None if cell.w_h is None else cell.w_h[ok],
                          len(ok) - m_eff, cell.hs,
                          cell.member(0) if ok[0] else None, cell.chunks)


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


def estimate_noise_floor(series):
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


def measured_constants(spec, op):
    """(alpha_hat, C_I_hat, eta0_hat) of spec and op: the numbers simulate,
    sweep and verify all report, C_I the exact operator norm."""
    alpha = measure_alpha(spec)
    ci = estimate_interp_constant(op, spec)
    return alpha, ci, eta0(alpha, ci)


def sweep(setup, observations, mu_grid, members, master_seed, consts):
    """Rows of a grid over (mu, delta): per cell gamma_fit, floor,
    blow-up counts, and the mu*delta^2 > eta0_hat flag from measured
    constants.

    setup gives what every cell shares: the model, cfg but its mu, u0
    and v0.  observations holds one (op, coef, q) per delta, in grid order
    (ValueError if empty), and consts their measured_constants, one per
    observation (ValueError otherwise); a repeated mu or delta, whose
    cells would repeat others, is a ValueError.  The reference is stepped
    once, and member m's noise block of each step is drawn once per draw
    layout and drives member m in every cell of that layout (a sine
    delta of another rank draws from a twin of member m's generator):
    the whole grid is one lockstep integration, each cell's numbers
    bit-identical to an ensemble run of that cell alone.  Cells run
    mu-major; cells whose members blow up beyond 10% are marked invalid.  The run records only
    the members' w_h, at every step: the fit and the floor read nothing
    else.  Every row's chunks is the number of processes that stepped
    the run's members.
    """
    if not observations:
        raise ValueError("sweep needs at least one observation")
    if len(consts) != len(observations):
        raise ValueError("sweep needs one set of constants per observation, "
                         "got %d for %d" % (len(consts), len(observations)))
    groups = [Group(*obs, tuple(mu_grid)) for obs in observations]
    for name, grid in (("mu", list(mu_grid)), ("delta", [g.op.delta for g in groups])):
        if len(set(grid)) < len(grid):
            raise ValueError("a %s appears twice in the grid %r" % (name, grid))
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
                   "chunks": by_mu[k].chunks,
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
                row["floor"], row["floor_se"] = estimate_noise_floor(ens.mean_w2_h)
            except ValueError:
                pass
    return rows


def measure_alpha(spec):
    """The coercivity constant alpha of spec: ModelSpec.alpha, the smallest
    Rayleigh quotient <A e_k, e_k> / ||e_k||_V^2 over modes."""
    return spec.alpha


def _stride_idx(n, stride):
    """Every stride-th index of range(n), and the last one."""
    idx = np.arange(0, n, stride)
    if idx[-1] != n - 1:
        idx = np.append(idx, n - 1)
    return idx


def _mm_envelope(times, kappa):
    """(M0, M1, int kappa, pairs): the (M0, M1) of least M0 H + M1, H the
    horizon, with int_s^t kappa <= M0 (t-s) + M1 on a coarse grid of (s, t)
    pairs (about 64 times, evenly strided, and the last), and the number of
    those pairs.  No pair spans more than H, so (0, M1 + M0 H) bounds every
    pair that (M0, M1) bounds, at the same cost: M0 = 0, and M1 is the
    largest rise of int kappa over a pair, or 0 (int kappa when kappa >= 0).
    """
    times = np.asarray(times, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    idx = _stride_idx(len(times), max(len(times) // 64, 1))
    pairs = len(idx) * (len(idx) - 1) // 2
    if times.size < 2 or np.all(kappa == 0.0):
        return 0.0, 0.0, 0.0, pairs
    cum = np.concatenate([[0.0], np.cumsum(kappa[:-1] * np.diff(times))])
    ks = cum[idx]
    # each grid time's rise over the lowest before it, 0 at that lowest:
    # ks[t] - ks[s] falls as ks[s] grows, so this is the largest pair's rise
    rise = ks - np.minimum.accumulate(ks)
    return 0.0, float(rise.max()), float(cum[-1]), pairs


_A2_EXPONENTS = {
    # (rho, beta) per model family
    "ac_weak": (2.0, 2.0 / 3.0),
    "ac_strong": (2.0, 0.6),
    "nse_weak": (1.0, 0.75),
    "nse_strong": (1.0, 0.75),
    "qg": (1.0, 0.75),
    "mhd": (1.0, 0.75),
}


VERIFY_PROBES = 24    # random fields of each verify probe
VERIFY_SEED = 1234    # and their seed


def _a2_ratio(spec):
    rho, beta = _A2_EXPONENTS[spec.params["family"]]
    w = spec.v_beta_weights(beta)     # weights of the [V*, V]_beta norm
    mw2 = spec.mult * (w * w)
    best = 0.0
    for i in range(VERIFY_PROBES):
        u = random_field(spec, (VERIFY_SEED, 3 * i), smoothness=1.0)
        v = random_field(spec, (VERIFY_SEED, 3 * i + 1), smoothness=1.0)
        fu = spec.f_raw(u)
        fv = spec.f_raw(v)
        num = norm_raw(spec, fu - fv, "Vstar")
        nb_u, nb_v, nb_d = (np.sqrt(_wsum(spec, c, c, mw2)) for c in (u, v, u - v))
        den = (1.0 + nb_u ** rho + nb_v ** rho) * nb_d
        if den > 0.0:
            best = max(best, num / den)
    return best


def _cancellation_residual(spec):
    worst = 0.0
    for i in range(VERIFY_PROBES):
        u = random_field(spec, (VERIFY_SEED, i), smoothness=0.8)
        fu = spec.f_raw(u)
        num = abs(inner_h_raw(spec, fu, u))
        den = norm_raw(spec, fu, "Vstar") * norm_raw(spec, u, "V")
        if den > 0.0:
            worst = max(worst, num / den)
    return worst


def _epsilon_hat(spec, traj_states):
    # <F(x), x> <= eps ||x||_V^2 + ||x||_H^2 + 0; measure the overshoot
    worst = 0.0
    states = list(traj_states)
    for i in range(VERIFY_PROBES):
        states.append(random_field(spec, (VERIFY_SEED, 100 + i)))
    for c in states:
        fu = spec.f_raw(c)
        lhs = inner_h_raw(spec, fu, c)
        over = lhs - inner_h_raw(spec, c, c)
        v2 = float(_wsum(spec, c, c, spec.norm_w2("V")))
        if v2 > 0.0:
            worst = max(worst, over / v2)
    return max(worst, 0.0)


# what verify_assumptions measured and judged: the numbers the manifest
# carries, the report's lines and its (name, passed) checks
AssumptionReport = namedtuple("AssumptionReport", "alpha_hat c_i_hat eta0_hat "
                              "m0 m1 epsilon_hat lines checks")


def verify_record(nsteps):
    """What verify_assumptions reads of an nsteps-step run: kappa at every
    step and about 9 states, one every max((nsteps + 1) // 8, 1) steps."""
    return Record(("kappa",), None, range(0, nsteps + 1, max((nsteps + 1) // 8, 1)))


def verify_assumptions(spec, traj, op):
    """Estimate every structural constant on a simulated trajectory and
    judge each against its threshold.

    traj is a SimResult recorded as verify_record asks: the drift
    envelope reads its times and kappa, and the energy inequality is
    probed on each state of its u_path besides random fields.  alpha,
    C_I and eta0 come from measured_constants, as simulate and sweep
    report them; the other probes draw VERIFY_PROBES random fields each
    from VERIFY_SEED.  The report's lines end with one [pass] or [FAIL]
    line per check.
    """
    alpha, ci, eta = measured_constants(spec, op)
    m0, m1, total, pairs = _mm_envelope(traj.times, traj.kappa)
    eps = _epsilon_hat(spec, traj.u_path)
    budget = alpha / 4.0
    energy_ok = eps < budget
    ratio = _a2_ratio(spec)
    refined = _a2_ratio(build_model(spec.params["family"], 2 * spec.n, nu=spec.nu,
                                    linear=spec.params["linear"]))
    lines = [
        "assumption report for %s" % spec.model_id,
        "  coercivity: alpha_hat = %.12g (declared %.12g, mode minimum over %d modes)"
        % (alpha, spec.alpha, int(spec.mask.sum())),
        "  observation: C_I_hat = %.6g (exact, alias-class norm),"
        " eta0_hat = 2*alpha/C_I^2 = %.6g" % (ci, eta),
        "  drift growth: int kappa = %.6g over the run; envelope M0 = %.6g, M1 = %.6g"
        " (constrained fit on %d grid pairs)" % (total, m0, m1, pairs),
        "  energy inequality: eps_hat = %.6g, budget alpha/4 = %.6g -> %s"
        % (eps, budget, "pass" if energy_ok else "FAIL"),
        "  local boundedness ratio (beta-interpolated): %.6g at base size,"
        " %.6g refined (factor %.3g)"
        % (ratio, refined, refined / ratio if ratio else float("nan")),
    ]
    checks = [
        ("coercivity constant matches its declared value",
         abs(alpha - spec.alpha) <= 1e-9),
        ("energy production stays inside the alpha/4 budget", energy_ok),
        ("drift envelope is finite", np.isfinite(m0) and np.isfinite(m1)),
    ]
    if spec.kind == "torus" and not spec.params["linear"]:
        cancel = _cancellation_residual(spec)
        # round-off alone reads below 1e-14 and varies with the SIMD loops
        lines.insert(4, "  cancellation: relative residual %s over %d random fields"
                     % ("< 1e-14" if cancel < 1e-14 else "%.3g" % cancel, VERIFY_PROBES))
        checks.append(("advective pairing cancels", cancel <= 1e-10))
    if ratio > 0.0:
        checks.append(("local bound survives refinement", refined <= 1.5 * ratio))
    lines += [""] + ["  [%s] %s" % ("pass" if ok else "FAIL", name)
                     for name, ok in checks]
    return AssumptionReport(alpha, ci, eta, m0, m1, eps, lines, checks)


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


_CONV_CHUNK = 500  # Monte Carlo paths per task of convolution_variance_mc

# convolution_variance_mc's result: the probe times, the per-mode variance
# and its standard error, each (len(times), n_modes), and the number of
# processes that stepped the paths
ConvolutionMC = namedtuple("ConvolutionMC", "times var se chunks")


def _conv_sums(spec, cfg, coef, q, probe_at, master_seed, lo, hi):
    """The z^2 and z^4 sums over paths lo .. hi-1 at each probe step, the
    paths' generators made and stepped here: a (2, probes, n_modes)
    array."""
    dt = cfg.dt
    denom = 1.0 / (1.0 + dt * spec.a)
    zero_u = np.zeros(spec.shape, dtype=spec.dtype)
    rngs = [_rng_for(member_seed(master_seed, m)) for m in range(lo, hi)]
    sums = np.zeros((2, len(probe_at), spec.n))
    z = np.zeros((hi - lo, spec.n))
    for step, block in enumerate(_blocks(rngs, hi - lo, cfg.nsteps,
                                         q.draw_shape), 1):
        dw = increment_from_noise(spec, q, dt, block)
        z = (z + cfg.mu * apply_G_raw(coef, spec, zero_u, dw)) * denom
        if step in probe_at:
            sums[:, probe_at[step]] = (z ** 2).sum(axis=0), (z ** 4).sum(axis=0)
    return sums


def convolution_variance_mc(spec, cfg, coef, q, probe_times, paths,
                            master_seed):
    """Per-mode sample variance of the stochastic convolution at probe
    times, over many paths.

    Member m draws q.draw_shape per step (on the sine grid one normal
    per direction of Q's rank) from the spawn_key=(m,) stream through
    integrate._blocks and steps z <- (z + mu G dW) r, r = 1/(1 + dt a),
    the update simulate_members gives the estimate of the linear model
    started from zero with an observation that keeps no mode, so one path
    here is bit-identical to the v_path of that run.
    Paths run in tasks of _CONV_CHUNK, split into one contiguous run of
    tasks per process, min(CPUs, tasks) of them where the process may
    fork, else one (integrate._processes): this process steps the first
    run and a forked child each other (chunks.in_processes), so the
    per-step work of one process does not wait on another's for the
    interpreter lock.  A process steps its tasks one after another, each
    holding one _blocks buffer of about _CONV_CHUNK x _DRAW_BYTES of
    draws, whatever the horizon, and freeing it before the next task
    draws; each task's moment sums are added in task order.  Every
    path's draw and every sum is the same whatever the process count, so
    the results are too.
    Works for 1D (sine) models; returns a ConvolutionMC, its var and se
    shaped (len(probe_times), n_modes).
    """
    if spec.kind != "sine":
        raise ValueError("vectorized variance runs on 1D models")
    if coef.kind != "additive":
        raise ValueError("closed-form comparison needs additive noise")
    if paths < 1:
        raise ValueError("need at least one path")
    steps = probe_steps(probe_times, cfg.dt, cfg.nsteps)
    probe_at = {s: i for i, s in enumerate(steps)}
    starts = range(0, paths, _CONV_CHUNK)
    procs = _processes(len(starts))
    from .chunks import in_processes
    sums = np.zeros((2, len(steps), spec.n))
    for tasks in in_processes(lambda run: [
            _conv_sums(spec, cfg, coef, q, probe_at, master_seed, lo,
                       min(lo + _CONV_CHUNK, paths)) for lo in run],
            starts, procs):
        for task in tasks:
            sums += task
    # the second moment, and the fourth for the standard error of a sample
    # variance
    var, m4 = sums / paths
    se = np.sqrt(np.maximum(m4 - var ** 2, 0.0) / paths)
    return ConvolutionMC(np.asarray(probe_times, dtype=float), var, se, procs)
