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
from .harness import (convolution_variance_mc, measure_alpha, run_ensemble,
                      sweep, verify_assumptions)
from .integrate import BlowupError, simulate_pair
from .observe import estimate_interp_constant, eta0

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
    return vals


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv(path, header, columns):
    rows = [",".join(header)]
    for vals in zip(*columns):
        rows.append(",".join(FMT % v for v in vals))
    _write(path, "\n".join(rows) + "\n")


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
    if op.kind == "modal" and np.array_equal(op.data[0], setup.model.mask):
        raise ConfigError(["observation: model.n = %d and K(delta) = %d leave "
                           "no unobserved mode, so C_I = 0 and eta0 is "
                           "undefined" % (setup.model.n, op.cutoff)])
    return setup


def _constants(setup):
    alpha = measure_alpha(setup.model)
    ci = estimate_interp_constant(setup.op, setup.model, samples=32)
    return {"alpha_hat": alpha, "c_i_hat": ci, "eta0_hat": eta0(alpha, ci)}


def _cmd_simulate(args, values):
    t0 = time.time()
    setup = _require_unobserved_mode(build_setup(values))
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    members = values["ensemble.members"]
    seed = values["ensemble.seed"]
    ens = run_ensemble(setup, members, seed, emit_y=values["output.emit_y"])
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
    extra = _constants(setup)
    extra.update({"master_seed": seed, "members": members,
                  "blowups": ens.blowups, "partial": ens.partial,
                  "files": sorted(f for f in os.listdir(out_dir)
                                  if f.endswith(".csv"))})
    _manifest(out_dir, "simulate", values, extra, t0)
    w_end = float(ens.mean_w2_h[-1])
    print("simulate: %d member(s), %d blow-up(s), final mean |w|_H^2 = %.6e"
          % (members, ens.blowups, w_end))
    print("wrote %s" % out_dir)
    return 0


def _cmd_sweep(args, values):
    t0 = time.time()
    mu_grid = _grid(args.mu_grid, "--mu-grid") if args.mu_grid \
        else [values["nudging.mu"]]
    delta_grid = _grid(args.delta_grid, "--delta-grid") if args.delta_grid \
        else [values["observation.delta"]]
    if any(d <= 0.0 for d in delta_grid):
        raise ConfigError(["--delta-grid: delta values must be positive"])
    if any(m < 0.0 for m in mu_grid):
        raise ConfigError(["--mu-grid: mu values must be nonnegative"])

    def factory(mu, delta):
        v = dict(values)
        v["nudging.mu"] = mu
        v["observation.delta"] = delta
        return _require_unobserved_mode(build_setup(v))

    # sweep builds each delta's first cell before it runs any, so a bad
    # delta fails before the output directory exists
    res = sweep(factory, mu_grid, delta_grid, values["ensemble.members"],
                values["ensemble.seed"])
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
            FMT % row.get("gamma_fit", float("nan")),
            FMT % row.get("fit_residual", float("nan")),
            FMT % row.get("floor", float("nan")),
            FMT % row.get("floor_se", float("nan")),
            "%d" % row["blowups"], "%d" % row["members"],
            "1" if row["valid"] else "0"]))
    _write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    _manifest(out_dir, "sweep", values,
              {"alpha_hat": res.alpha_hat, "c_i_hat": res.c_i_hat,
               "eta0_hat": res.eta0_hat, "mu_grid": mu_grid,
               "delta_grid": delta_grid,
               "master_seed": values["ensemble.seed"],
               "members": values["ensemble.members"]}, t0)
    flagged = sum(1 for r in res.rows if r["over_threshold"])
    print("sweep: %d cells (%d over the mu*delta^2 threshold), eta0_hat = %.4g"
          % (len(res.rows), flagged, res.eta0_hat))
    print("wrote %s" % os.path.join(out_dir, "sweep.csv"))
    return 0


def _cmd_verify(args, values):
    t0 = time.time()
    setup = _require_unobserved_mode(build_setup(values))
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    spec = setup.model
    record = spec.dof * (setup.cfg.nsteps + 1) <= 5_000_000
    traj = simulate_pair(spec, setup.cfg, setup.op, setup.coef, setup.q,
                         setup.u0, setup.v0, values["ensemble.seed"],
                         record_u=record)
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
    modes = [int(tok) for tok in args.modes.split(",") if tok.strip()]
    if not modes or any(k < 1 or k > spec.n for k in modes):
        raise ConfigError(["--modes must name modes between 1 and %d" % spec.n])
    T = setup.cfg.T
    times = _grid(args.times, "--times") if args.times \
        else [T / 4.0, T / 2.0, T]
    if args.paths < 2:
        raise ConfigError(["--paths must be at least 2"])
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    ts, var, se = convolution_variance_mc(spec, setup.cfg, setup.coef,
                                          setup.q, times, args.paths,
                                          values["ensemble.seed"])
    mu = setup.cfg.mu
    sig = setup.coef.sigma_delta
    lines = ["t,mode,variance,se,exact,deviation_se"]
    worst = 0.0
    for i, t in enumerate(ts):
        for k in modes:
            j = k - 1
            a = spec.a[j]
            exact = mu ** 2 * setup.q.lam[j] ** 2 * sig ** 2 \
                * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a)
            if se[i, j] > 0:
                dev = abs(var[i, j] - exact) / se[i, j]
            else:
                dev = 0.0 if var[i, j] == exact else float("inf")
            worst = max(worst, dev)
            lines.append("%s,%d,%s,%s,%s,%.3f"
                         % (FMT % t, k, FMT % var[i, j], FMT % se[i, j],
                            FMT % exact, dev))
    _write(os.path.join(out_dir, "convolution.csv"), "\n".join(lines) + "\n")
    _manifest(out_dir, "convolution-check", values,
              {"paths": args.paths, "modes": modes,
               "times": [float(t) for t in ts], "worst_deviation_se": worst,
               "master_seed": values["ensemble.seed"]}, t0)
    print("convolution-check: %d paths, worst deviation %.2f s.e."
          % (args.paths, worst))
    print("wrote %s" % os.path.join(out_dir, "convolution.csv"))
    if args.check and worst > 3.0:
        print("check failed: variance off by more than 3 s.e.",
              file=sys.stderr)
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
