"""Command line front end.

Subcommands: simulate, sweep, verify, convolution-check.  Exit codes:
0 success, 1 configuration problems, 2 a run tripped the blow-up guard,
3 a requested check failed (--check).
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import ConfigError, build_setup, output_directory, parse_config, render_config
from .harness import (convolution_variance_mc, imex_convolution_variance,
                      measured_constants, probe_steps, run_ensemble,
                      sweep, verify_assumptions)
from .integrate import BlowupError, simulate_pair

FMT = "%.17e"


def _parser():
    p = argparse.ArgumentParser(prog="nudgelab",
                                description="coupled reference/estimate runs "
                                            "for nudged data assimilation")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True,
                        help="config file (key = value lines, or a manifest "
                             "JSON from an earlier run)")
        sp.add_argument("--out-dir", default=None,
                        help="output directory (default: output.directory, "
                             "else NUDGELAB_OUT_DIR, else ./runs)")
        sp.add_argument("--members", type=int, default=None,
                        help="override ensemble.members")
        sp.add_argument("--seed", type=int, default=None,
                        help="override ensemble.seed")

    sp = sub.add_parser("simulate", help="run one ensemble, write series")
    common(sp)

    sp = sub.add_parser("sweep", help="grid over mu and delta")
    common(sp)
    sp.add_argument("--mu-grid", default=None,
                    help="comma-separated mu values (default: nudging.mu)")
    sp.add_argument("--delta-grid", default=None,
                    help="comma-separated delta values (default: observation.delta)")

    sp = sub.add_parser("verify", help="measure structural constants")
    common(sp)
    sp.add_argument("--check", action="store_true",
                    help="exit 3 if any structural check fails")

    sp = sub.add_parser("convolution-check",
                        help="Monte Carlo variance of the driven convolution "
                             "against its closed form")
    common(sp)
    sp.add_argument("--paths", type=int, default=2000)
    sp.add_argument("--modes", default="1,2,3",
                    help="comma-separated probe modes")
    sp.add_argument("--times", default=None,
                    help="comma-separated probe times (default: T/4, T/2, T)")
    sp.add_argument("--check", action="store_true",
                    help="exit 3 if any probe deviates by more than 3 s.e.")
    return p


def _load_values(path, args):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        text = json.loads(text)["config_text"]
    values = parse_config(text)
    if args.members is not None:
        if args.members < 1:
            raise ConfigError(["--members must be at least 1"])
        values["ensemble.members"] = args.members
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(["--seed must be nonnegative"])
        values["ensemble.seed"] = args.seed
    if args.out_dir is not None:
        values["output.directory"] = args.out_dir
    return values


def _grid(raw, what):
    try:
        vals = [float(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(["%s: expected comma-separated numbers, got %r"
                           % (what, raw)])
    if not vals:
        raise ConfigError(["%s: empty grid" % what])
    if not np.all(np.isfinite(vals)):
        raise ConfigError(["%s: values must be finite, got %r" % (what, raw)])
    return vals


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv(path, header, columns):
    rows = [",".join(header)]
    for vals in zip(*columns):
        rows.append(",".join(FMT % v for v in vals))
    _write(path, "\n".join(rows) + "\n")


def _timing(setup_s, integrate_s, output_s, member_steps):
    """Where a command's time went: perf_counter seconds per phase, and the
    member-steps it scheduled.  Kept out of every CSV."""
    return {"timing": {"setup_s": round(setup_s, 6),
                       "integrate_s": round(integrate_s, 6),
                       "output_s": round(output_s, 6)},
            "member_steps": member_steps}


def _manifest(out_dir, command, values, extra, t0):
    doc = {"tool": "nudgelab", "version": __version__, "command": command,
           "config_text": render_config(values),
           "wall_seconds": round(time.time() - t0, 3)}
    doc.update(extra)
    _write(os.path.join(out_dir, "manifest.json"),
           json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _stride_idx(n_rows, stride):
    idx = list(range(0, n_rows, stride))
    if idx[-1] != n_rows - 1:
        idx.append(n_rows - 1)
    return np.asarray(idx)


def _require_unobserved_mode(setup):
    """eta0 needs C_I > 0; a modal observation of every mode has C_I = 0."""
    op = setup.op
    if op.kind == "modal" and np.array_equal(op.data, setup.model.mask):
        raise ConfigError(["observation: model.n = %d and K(delta) = %d leave "
                           "no unobserved mode, so C_I = 0 and eta0 is "
                           "undefined" % (setup.model.n, op.cutoff)])
    return setup


def _require_live_noise(setup, model_id):
    """Refuse pointwise noise that dealiasing removes whatever u is.

    On a torus band with kd = 1 (model.n < 8) a product of two
    divergence-free band fields has no divergence-free part left in the
    band: at k = p + q, k_perp . (p_perp * q_perp) = kx px qx - ky py qy,
    and a nonzero kx px qx would need |px + qx| = 2 > kd.  G(u) dW is then
    zero (or round-off) on every vector model, and the run has no noise.
    """
    spec, coef = setup.model, setup.coef
    if (coef.kind == "pointwise_multiplicative" and coef.sigma > 0.0
            and spec.kind == "torus" and spec.ncomp >= 2 and spec.aux.kd < 2):
        raise ConfigError(["noise: pointwise_multiplicative noise on %s at "
                           "model.n = %d vanishes after dealiasing and the "
                           "Leray projection; use model.n >= 8"
                           % (model_id, spec.n)])
    return setup


def _checked_setup(values):
    setup = _require_unobserved_mode(build_setup(values))
    return _require_live_noise(setup, values["model.id"])


def _cmd_simulate(args, values):
    t0 = time.time()
    clock = time.perf_counter()
    setup = _checked_setup(values)
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    members = values["ensemble.members"]
    seed = values["ensemble.seed"]
    extra = dict(zip(("alpha_hat", "c_i_hat", "eta0_hat"),
                     measured_constants(setup)))
    setup_s = time.perf_counter() - clock
    clock = time.perf_counter()
    ens = run_ensemble(setup, members, seed, emit_y=values["output.emit_y"])
    integrate_s = time.perf_counter() - clock
    clock = time.perf_counter()
    idx = _stride_idx(len(ens.times), values["output.stride"])
    first = ens.first
    if first is not None:
        header = ["t", "w_H", "w_Vstar", "u_H", "v_H", "hs_norm_sq", "kappa"]
        cols = [first.times[idx], first.w_h[idx], first.w_vstar[idx],
                first.u_h[idx], first.v_h[idx], first.hs[idx],
                first.kappa[idx]]
        if values["output.emit_y"]:
            header += ["dy_H", "y_H"]
            cols += [first.dy_h[idx], first.y_h[idx]]
        _csv(os.path.join(out_dir, "series.csv"), header, cols)
    if members > 1:
        _csv(os.path.join(out_dir, "ensemble.csv"),
             ["t", "mean_w2_H", "se_w2_H", "mean_w2_Vstar", "se_w2_Vstar",
              "mean_hs_norm_sq"],
             [ens.times[idx], ens.mean_w2_h[idx], ens.se_w2_h[idx],
              ens.mean_w2_vstar[idx], ens.se_w2_vstar[idx],
              ens.mean_hs[idx]])
    _write(os.path.join(out_dir, "plot_series.py"), PLOT_SCRIPT)
    extra.update({"master_seed": seed, "members": members,
                  "blowups": ens.blowups, "partial": ens.partial,
                  "files": sorted(f for f in os.listdir(out_dir)
                                  if f.endswith(".csv"))})
    extra.update(_timing(setup_s, integrate_s, time.perf_counter() - clock,
                         members * setup.cfg.nsteps))
    _manifest(out_dir, "simulate", values, extra, t0)
    w_end = float(ens.mean_w2_h[-1])
    print("simulate: %d member(s), %d blow-up(s), final mean |w|_H^2 = %.6e"
          % (members, ens.blowups, w_end))
    print("wrote %s" % out_dir)
    return 0


def _cmd_sweep(args, values):
    t0 = time.time()
    clock = time.perf_counter()
    mu_grid = _grid(args.mu_grid, "--mu-grid") if args.mu_grid \
        else [values["nudging.mu"]]
    delta_grid = _grid(args.delta_grid, "--delta-grid") if args.delta_grid \
        else [values["observation.delta"]]
    if any(d <= 0.0 for d in delta_grid):
        raise ConfigError(["--delta-grid: delta values must be positive"])
    if any(m < 0.0 for m in mu_grid):
        raise ConfigError(["--mu-grid: mu values must be nonnegative"])
    # one set-up per delta, all built (and refused) before any output
    # directory exists; the refusals depend on delta, never on mu
    setups = [_checked_setup({**values, "observation.delta": d})
              for d in delta_grid]
    setup_s = time.perf_counter() - clock
    clock = time.perf_counter()
    res = sweep(setups, mu_grid, values["ensemble.members"],
                values["ensemble.seed"])
    integrate_s = time.perf_counter() - clock
    clock = time.perf_counter()
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    header = ["mu", "delta", "mu_delta_sq", "eta0_hat", "over_threshold",
              "gamma_fit", "fit_residual", "floor", "floor_se", "blowups",
              "members", "valid"]
    lines = [",".join(header)]
    for row in res.rows:
        lines.append(",".join([
            FMT % row["mu"], FMT % row["delta"], FMT % row["mu_delta_sq"],
            FMT % row["eta0_hat"], "1" if row["over_threshold"] else "0",
            FMT % row["gamma_fit"], FMT % row["fit_residual"],
            FMT % row["floor"], FMT % row["floor_se"],
            "%d" % row["blowups"], "%d" % row["members"],
            "1" if row["valid"] else "0"]))
    _write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    extra = {"alpha_hat": res.alpha_hat, "c_i_hat": res.c_i_hat,
             "eta0_hat": res.eta0_hat, "mu_grid": mu_grid,
             "delta_grid": delta_grid,
             "master_seed": values["ensemble.seed"],
             "members": values["ensemble.members"]}
    extra.update(_timing(setup_s, integrate_s, time.perf_counter() - clock,
                         values["ensemble.members"] * len(res.rows)
                         * setups[0].cfg.nsteps))
    _manifest(out_dir, "sweep", values, extra, t0)
    flagged = sum(1 for r in res.rows if r["over_threshold"])
    print("sweep: %d cells (%d over the mu*delta^2 threshold), eta0_hat = %.4g"
          % (len(res.rows), flagged, res.eta0_hat))
    print("wrote %s" % os.path.join(out_dir, "sweep.csv"))
    return 0


def _cmd_verify(args, values):
    t0 = time.time()
    setup = _checked_setup(values)
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    spec = setup.model
    record = spec.dof * (setup.cfg.nsteps + 1) <= 5_000_000
    # the report reads only the reference (times, kappa, u_path), so it
    # runs without noise or nudging and the estimate starts on u0
    traj = simulate_pair(spec, setup.cfg, None, None, None, setup.u0,
                         setup.u0, 0, record_u=record)
    rep = verify_assumptions(spec, traj, setup.op)
    checks = [
        ("coercivity constant matches its declared value",
         abs(rep.alpha_hat - rep.alpha_declared) <= 1e-9),
        ("energy production stays inside the alpha/4 budget",
         rep.epsilon_hat < rep.epsilon_budget),
        ("drift envelope is finite",
         np.isfinite(rep.m0) and np.isfinite(rep.m1)),
    ]
    if not np.isnan(rep.cancellation_residual):
        checks.append(("advective pairing cancels",
                       rep.cancellation_residual <= 1e-10))
    if rep.a2_ratio > 0.0:
        checks.append(("local bound survives refinement",
                       rep.a2_ratio_refined <= 1.5 * rep.a2_ratio))
    lines = rep.lines()
    lines.append("")
    for name, ok in checks:
        lines.append("  [%s] %s" % ("pass" if ok else "FAIL", name))
    report = "\n".join(lines) + "\n"
    _write(os.path.join(out_dir, "report.txt"), report)
    _manifest(out_dir, "verify", values,
              {"alpha_hat": rep.alpha_hat, "c_i_hat": rep.c_i_hat,
               "eta0_hat": rep.eta0_hat, "m0": rep.m0, "m1": rep.m1,
               "epsilon_hat": rep.epsilon_hat,
               "checks": {name: bool(ok) for name, ok in checks}}, t0)
    sys.stdout.write(report)
    failed = [name for name, ok in checks if not ok]
    if args.check and failed:
        print("check failed: %s" % "; ".join(failed), file=sys.stderr)
        return 3
    return 0


def _deviation_se(value, reference, se):
    if se > 0:
        return abs(value - reference) / se
    return 0.0 if value == reference else float("inf")


def _cmd_convolution(args, values):
    t0 = time.time()
    setup = build_setup(values)
    spec = setup.model
    if spec.kind != "sine":
        raise ConfigError(["convolution-check needs a 1D model"])
    if values["noise.kind"] != "additive" or values["noise.sigma"] <= 0.0:
        raise ConfigError(["convolution-check needs additive noise with "
                           "sigma > 0"])
    if values["nudging.mu"] <= 0.0:
        raise ConfigError(["convolution-check needs mu > 0"])
    try:
        modes = [int(tok) for tok in args.modes.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(["--modes: expected comma-separated integers, got %r"
                           % args.modes])
    if not modes or any(k < 1 or k > spec.n for k in modes):
        raise ConfigError(["--modes must name modes between 1 and %d" % spec.n])
    cfg = setup.cfg
    n = cfg.nsteps
    times = _grid(args.times, "--times") if args.times \
        else [s * cfg.dt for s in sorted({max(n // 4, 1), max(n // 2, 1), n})]
    try:
        steps = probe_steps(times, cfg.dt, n)
    except ValueError as e:
        raise ConfigError(["--times: %s" % e])
    if args.paths < 2:
        raise ConfigError(["--paths must be at least 2"])
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    ts, var, se = convolution_variance_mc(spec, cfg, setup.coef,
                                          setup.q, times, args.paths,
                                          values["ensemble.seed"])
    mu = cfg.mu
    sig = setup.coef.sigma_delta
    scheme = imex_convolution_variance(spec, setup.q, setup.coef, mu, cfg.dt,
                                       steps)
    lines = ["t,mode,variance,se,exact,deviation_se"]
    worst = worst_discrete = gap = 0.0
    for i, t in enumerate(ts):
        for k in modes:
            j = k - 1
            a = spec.a[j]
            exact = mu ** 2 * setup.q.lam[j] ** 2 * sig ** 2 \
                * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a) / spec.w_h[j] ** 2
            dev = _deviation_se(var[i, j], exact, se[i, j])
            worst = max(worst, dev)
            worst_discrete = max(worst_discrete,
                                 _deviation_se(var[i, j], scheme[i, j], se[i, j]))
            if exact > 0.0:
                gap = max(gap, abs(scheme[i, j] - exact) / exact)
            lines.append("%s,%d,%s,%s,%s,%.3f"
                         % (FMT % t, k, FMT % var[i, j], FMT % se[i, j],
                            FMT % exact, dev))
    _write(os.path.join(out_dir, "convolution.csv"), "\n".join(lines) + "\n")
    _manifest(out_dir, "convolution-check", values,
              {"paths": args.paths, "modes": modes,
               "times": [float(t) for t in ts],
               "worst_deviation_discrete_se": worst_discrete,
               "worst_deviation_se": worst, "continuous_gap_rel": gap,
               "master_seed": values["ensemble.seed"]}, t0)
    print("convolution-check: %d paths, worst deviation %.2f s.e. from the "
          "scheme's variance; continuous time: %.2f s.e., discretization "
          "gap %.2e relative" % (args.paths, worst_discrete, worst, gap))
    print("wrote %s" % os.path.join(out_dir, "convolution.csv"))
    if args.check and worst_discrete > 3.0:
        print("check failed: variance off the scheme's variance by more than "
              "3 s.e.", file=sys.stderr)
        return 3
    return 0


PLOT_SCRIPT = '''\
"""Plot the series written next to this script (needs matplotlib)."""
import csv
import os
import sys

try:
    import matplotlib.pyplot as plt
except ImportError:
    sys.exit("matplotlib is not installed; pip install matplotlib")

here = os.path.dirname(os.path.abspath(__file__))


def load(name):
    path = os.path.join(here, name)
    if not os.path.exists(path):
        return None
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: [float(r[k]) for r in rows] for k in rows[0]}


series = load("series.csv")
ens = load("ensemble.csv")
if series is None and ens is None:
    sys.exit("no series.csv or ensemble.csv found here")

fig, ax = plt.subplots()
if series is not None:
    ax.semilogy(series["t"], [w ** 2 for w in series["w_H"]],
                label="member 0  |w|^2")
if ens is not None:
    ax.semilogy(ens["t"], ens["mean_w2_H"], label="ensemble mean |w|^2")
ax.set_xlabel("t")
ax.set_ylabel("squared error")
ax.legend()
fig.tight_layout()
out = os.path.join(here, "series.png")
fig.savefig(out, dpi=150)
print("wrote", out)
'''


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        values = _load_values(args.config, args)
        if args.command == "simulate":
            return _cmd_simulate(args, values)
        if args.command == "sweep":
            return _cmd_sweep(args, values)
        if args.command == "verify":
            return _cmd_verify(args, values)
        return _cmd_convolution(args, values)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError) as e:
        print("cannot load configuration: %s" % e, file=sys.stderr)
        return 1
    except BlowupError as e:
        print("blow-up guard tripped: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
