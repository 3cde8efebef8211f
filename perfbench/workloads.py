"""The four benchmark workloads and the checks on their outputs.

Each workload is one nudgelab CLI command run in one process.  They are
chosen so that every layer does most of the work in one workload and
little in another:

- ens_ac     many small 1D paths (64 members): Python work per step and the
             DST cube of the Allen-Cahn nonlinearity dominate.
- sweep_vol  a 3 x 2 (mu, delta) sweep on nse_strong with volume
             observation: torus FFTs in advect, the dense volume
             observation and the strong-NSE kappa monitor, plus a setup
             rebuilt per cell.
- mult_qg    qg with pointwise multiplicative noise: the Hilbert-Schmidt
             monitor hs_norm_sq is nearly all of each step.
- conv_ac    convolution-check with 10000 paths: the per-path SeedSequence
             and Philox draw and the vectorized Monte Carlo loop.

Horizons (time.T) and the path count are kept to about 2-3 s per command
(ens_ac T=0.25, sweep_vol T=0.125, mult_qg T=0.05, conv_ac 10000 paths),
so that a run holds six or more commands: the host's speed varies by
10-15% from one command to the next, and the medians need the samples.

"calibration" names the kind of kernel that run.py divides times by (see
worker.make_calibration): the kind of work the workload spends its time
on, because the host's slowdowns hit Python call overhead, FFTs and
generator construction differently.

The seed sets ensemble.seed and init.seed; nothing else depends on it.
No workload sets ensemble.workers.

This module uses only the standard library: the worker imports it before
it starts the set-up clock, and the checks must not lean on nudgelab code.
"""

import csv
import json
import math
import os

CONV_PATHS = 10000
# Worst |variance - discrete-exact variance| / s.e. over the nine probes
# that still counts as correct.  At 4.5 s.e. a correct program fails with
# probability below 1e-4 per seed; a variance off by 7% at 10000 paths
# sits near 5 s.e. and is caught.
CONV_MAX_DEV_SE = 4.5


WORKLOADS = {
    "ens_ac": {
        "command": "simulate",
        "config": {
            "model.id": "ac_weak", "model.n": "64",
            "observation.kind": "modal", "observation.delta": "0.39",
            "noise.kind": "additive", "noise.sigma": "0.05",
            "nudging.mu": "50", "time.dt": "1e-3", "time.T": "0.25",
            "ensemble.members": "64"},
        "args": [],
        "outputs": ["ensemble.csv", "series.csv"],
        "calibration": "small",
    },
    "sweep_vol": {
        "command": "sweep",
        "config": {
            "model.id": "nse_strong", "model.n": "32",
            "observation.kind": "volume",
            "noise.kind": "additive", "noise.sigma": "0.02",
            "time.dt": "1e-3", "time.T": "0.125",
            "ensemble.members": "2"},
        "args": ["--mu-grid", "10,50,200", "--delta-grid", "0.39,0.8"],
        "outputs": ["sweep.csv"],
        "calibration": "small",
    },
    "mult_qg": {
        "command": "simulate",
        "config": {
            "model.id": "qg", "model.n": "32",
            "observation.kind": "modal",
            "noise.kind": "pointwise_multiplicative", "noise.sigma": "0.05",
            "nudging.mu": "50", "time.dt": "1e-3", "time.T": "0.05",
            "ensemble.members": "2"},
        "args": [],
        "outputs": ["ensemble.csv", "series.csv"],
        "calibration": "fft",
    },
    "conv_ac": {
        "command": "convolution-check",
        "config": {
            "model.id": "ac_weak", "model.n": "16",
            "noise.kind": "additive", "noise.sigma": "0.1",
            "nudging.mu": "20", "time.dt": "1e-3", "time.T": "0.5"},
        "args": ["--paths", str(CONV_PATHS)],
        "outputs": ["convolution.csv"],
        "calibration": "rng",
    },
}

# Tiny sizes for the smoke check of the benchmark itself (perfbench/smoke.py);
# the benchmark proper always runs the sizes above.
_TINY = {"ens_ac": {"time.T": "0.05"}, "sweep_vol": {"time.T": "0.03"},
         "mult_qg": {"time.T": "0.003"}, "conv_ac": {"time.T": "0.1"}}
_TINY_PATHS = 500


def config_values(name, seed, tiny=False):
    vals = dict(WORKLOADS[name]["config"])
    vals["ensemble.seed"] = str(seed)
    vals["init.seed"] = str(seed)
    if tiny:
        vals.update(_TINY[name])
    return vals


def config_text(name, seed, tiny=False):
    return "".join("%s = %s\n" % kv for kv in config_values(name, seed, tiny).items())


def cli_argv(name, config_path, out_dir, tiny=False):
    w = WORKLOADS[name]
    args = list(w["args"])
    if tiny and name == "conv_ac":
        args = ["--paths", str(_TINY_PATHS)]
    return [w["command"], "--config", config_path, "--out-dir", out_dir] + args


def _grid(args, flag):
    return [float(x) for x in args[args.index(flag) + 1].split(",")]


def member_steps(name, seed, tiny=False):
    """Member-steps one command integrates (path-steps for conv_ac)."""
    vals = config_values(name, seed, tiny)
    steps = int(round(float(vals["time.T"]) / float(vals["time.dt"])))
    if name == "conv_ac":
        return (_TINY_PATHS if tiny else CONV_PATHS) * steps
    cells = 1
    if WORKLOADS[name]["command"] == "sweep":
        args = WORKLOADS[name]["args"]
        cells = len(_grid(args, "--mu-grid")) * len(_grid(args, "--delta-grid"))
    return int(vals["ensemble.members"]) * steps * cells


# ----------------------------------------------------------------------
# output checks

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError("%s has no rows" % os.path.basename(path))
    return [{k: float(v) for k, v in r.items()} for r in rows]


def _finite(rows, path, allow_nan=()):
    for r in rows:
        for k, v in r.items():
            if k in allow_nan and math.isnan(v):
                continue
            if not math.isfinite(v):
                raise ValueError("%s: non-finite %s" % (os.path.basename(path), k))


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _check_simulate(out_dir, info, need_floor):
    man = _manifest(out_dir)
    if man["blowups"] != 0:
        return "%d member(s) blew up" % man["blowups"]
    ens = _read_csv(os.path.join(out_dir, "ensemble.csv"))
    series = _read_csv(os.path.join(out_dir, "series.csv"))
    _finite(ens, "ensemble.csv")
    _finite(series, "series.csv")
    info["series_rows"] = len(series)
    info["ensemble_rows"] = len(ens)
    info["members"] = man["members"]
    if need_floor:
        tail = [r["mean_w2_H"] for r in ens[-max(len(ens) // 4, 1):]]
        floor = sum(tail) / len(tail)
        info["tail_floor"] = floor
        if not (math.isfinite(floor) and floor > 0.0):
            return "tail floor %r is not finite and positive" % floor
    else:
        hs = [r["mean_hs_norm_sq"] for r in ens]
        if not all(math.isfinite(v) and v > 0.0 for v in hs):
            return "mean_hs_norm_sq is not finite and positive"
    return None


def _check_sweep(out_dir, info, name):
    rows = _read_csv(os.path.join(out_dir, "sweep.csv"))
    _finite(rows, "sweep.csv", allow_nan=("gamma_fit", "fit_residual",
                                          "floor", "floor_se"))
    args = WORKLOADS[name]["args"]
    want = [(m, d) for m in _grid(args, "--mu-grid")
            for d in _grid(args, "--delta-grid")]
    if [(r["mu"], r["delta"]) for r in rows] != want:
        return "sweep.csv cells do not match the grid"
    for r in rows:
        if r["mu_delta_sq"] != r["mu"] * r["delta"] ** 2:
            return "mu_delta_sq is not mu * delta^2 at mu=%g" % r["mu"]
        if bool(r["over_threshold"]) != (r["mu_delta_sq"] > r["eta0_hat"]):
            return "over_threshold disagrees with mu*delta^2 > eta0_hat"
        if r["blowups"] != 0:
            return "blow-ups in cell mu=%g delta=%g" % (r["mu"], r["delta"])
    info["fits_failed"] = sum(1 for r in rows if math.isnan(r["gamma_fit"]))
    return None


def discrete_exact_variance(vals, t, mode):
    """Variance of mode k of the IMEX recursion z+ = (z + mu G dW) r after
    n = t/dt steps: mu^2 lam_k^2 sigma^2 dt sum_{j=1..n} r^(2j), with
    r = 1/(1 + dt a_k), a_k = (k pi)^2, lam_k = (1 + k^2)^-1 for k up to
    K_Q = floor(pi/delta).  Written from the scheme for ac_weak with the
    config defaults conv_ac keeps (nu = 1, unit H weights, additive noise,
    p = 0, delta = 0.39), not from nudgelab code."""
    dt = float(vals["time.dt"])
    mu = float(vals["nudging.mu"])
    sigma = float(vals["noise.sigma"])
    delta = float(vals.get("observation.delta", "0.39"))
    if mode > math.floor(math.pi / delta):
        return 0.0
    lam = 1.0 / (1.0 + mode * mode)
    r2 = (1.0 / (1.0 + dt * (mode * math.pi) ** 2)) ** 2
    n = int(round(t / dt))
    geom = r2 * (1.0 - r2 ** n) / (1.0 - r2)
    return mu * mu * lam * lam * sigma * sigma * dt * geom


def _check_conv(out_dir, info, vals):
    rows = _read_csv(os.path.join(out_dir, "convolution.csv"))
    _finite(rows, "convolution.csv")
    if len(rows) != 9:
        return "convolution.csv has %d probes, expected 9" % len(rows)
    worst = 0.0
    for r in rows:
        ref = discrete_exact_variance(vals, r["t"], int(r["mode"]))
        if not r["se"] > 0.0:
            return "zero standard error at t=%g mode %d" % (r["t"], r["mode"])
        worst = max(worst, abs(r["variance"] - ref) / r["se"])
    info["worst_dev_discrete_se"] = worst
    # informational: the CLI compares with the continuous-time variance,
    # whose O(dt a_k) gap to the scheme is a known bias, not a failure here
    info["cli_probes_over_3se_continuous_bias"] = sum(
        1 for r in rows if r["deviation_se"] > 3.0)
    if worst > CONV_MAX_DEV_SE:
        return ("variance is %.2f s.e. from the discrete-exact reference "
                "(limit %.1f)" % (worst, CONV_MAX_DEV_SE))
    return None


def check_outputs(name, out_dir, vals):
    """Physical checks on one command's outputs.

    Returns (error or None, info dict).  Unreadable or missing outputs are
    reported as errors, never raised.
    """
    info = {}
    try:
        if name == "ens_ac":
            err = _check_simulate(out_dir, info, need_floor=True)
        elif name == "mult_qg":
            err = _check_simulate(out_dir, info, need_floor=False)
        elif name == "sweep_vol":
            err = _check_sweep(out_dir, info, name)
        else:
            err = _check_conv(out_dir, info, vals)
    except (OSError, ValueError, KeyError) as e:
        err = "unreadable output: %s" % e
    return err, info
