"""Command line front end.

Subcommands: simulate, sweep, verify, convolution-check.  Exit codes:
0 success, 1 configuration problems (a bad command line included), 2 a
run tripped the blow-up guard, 3 a requested check failed (--check).
"""

import argparse
import ctypes
import json
import os
import sys
import time
from functools import partial

try:
    import resource
except ImportError:   # Windows: the manifest then has no minor_faults
    resource = None

import numpy as np

from . import __version__
from .config import (ConfigError, _built, _float, _int, build_observation,
                     build_setup, output_directory, parse_config, parse_value,
                     render_config)
from .harness import (_stride_idx, convolution_variance_mc,
                      imex_convolution_variance, measured_constants,
                      probe_steps, run_ensemble, sweep, verify_assumptions,
                      verify_record)
from .integrate import MONITORS, SERIES, BlowupError, Record, simulate_members

FMT = "%.17e"
# mallopt parameters (glibc's malloc.h)
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _pin_malloc_thresholds():
    """Pin glibc's mmap threshold at its cap and the trim threshold at
    twice that, where the C library has mallopt and accepts the values.

    A lockstep step allocates and frees stacked temporaries of about 1 MB.
    With glibc's dynamic thresholds the freed heap top goes back to the
    kernel after each step and the next step faults it in again, page by
    page.  Setting either threshold stops the dynamic rule, so both are
    set: the trim threshold alone would leave the mmap threshold at
    128 KiB, and every large stack would go through mmap and munmap.
    Twice the mmap threshold is the dynamic rule's own trim threshold at
    its cap.  The library never calls this, so a program that imports
    nudgelab keeps glibc's defaults.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    cap = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    if mallopt(_M_MMAP_THRESHOLD, cap):
        mallopt(_M_TRIM_THRESHOLD, 2 * cap)


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
        sp.add_argument("--members", default=None,
                        help="override ensemble.members")
        sp.add_argument("--seed", default=None,
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


def _config_text(path):
    """The text of a config file, or the config_text of a manifest."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        text = json.loads(text)["config_text"]
        if not isinstance(text, str):
            raise ValueError("config_text is %r, not a string" % (text,))
    return text


def _load_values(text, args):
    values = parse_config(text)
    for flag, key, raw in (("--members", "ensemble.members", args.members),
                           ("--seed", "ensemble.seed", args.seed)):
        if raw is not None:
            values[key] = _built(flag, parse_value, key, raw)
    if args.out_dir is not None:
        values["output.directory"] = args.out_dir
    return values


def _entries(flag, raw, parse):
    """The comma-separated entries of a list flag, each through parse; an
    empty entry, or one parse refuses, is a ConfigError naming flag."""
    toks = [tok.strip() for tok in raw.split(",")]
    if not all(toks):
        raise ConfigError(["%s: empty entry in %r" % (flag, raw)])
    return [_built(flag, parse, tok) for tok in toks]


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv(path, header, columns):
    """One line per row of the columns: ints and bools as %d, the rest FMT."""
    rows = [",".join(header)]
    for vals in zip(*columns):
        rows.append(",".join(("%d" if isinstance(v, (int, np.integer, np.bool_))
                              else FMT) % v for v in vals))
    _write(path, "\n".join(rows) + "\n")


def _minor_faults():
    return 0 if resource is None else \
        resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class _Clock:
    """Where a command's time goes: lap(phase) books the perf_counter
    seconds since the previous lap (or the start) in timing, and the
    process's minor page faults over the same interval in minor_faults;
    the manifest carries both and no CSV file."""

    def __init__(self):
        self.start, self.timing, self.last = time.time(), {}, time.perf_counter()
        self.minor_faults, self.last_faults = {}, _minor_faults()

    def lap(self, phase):
        now, faults = time.perf_counter(), _minor_faults()
        self.timing[phase], self.last = round(now - self.last, 6), now
        self.minor_faults[phase], self.last_faults = faults - self.last_faults, faults


def _manifest(out_dir, command, values, extra, clock, member_steps):
    """manifest.json: the run's config, extra, and clock's timing and
    minor faults with the member-steps the command scheduled."""
    doc = {"tool": "nudgelab", "version": __version__, "command": command,
           "config_text": render_config(values),
           "wall_seconds": round(time.time() - clock.start, 3),
           "timing": clock.timing, "member_steps": member_steps}
    if resource is not None:
        doc["minor_faults"] = clock.minor_faults
    doc.update(extra)
    _write(os.path.join(out_dir, "manifest.json"),
           json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _require_unobserved_mode(spec, op):
    """eta0 needs C_I > 0; a modal observation of every mode has C_I = 0."""
    if op.kind == "modal" and np.array_equal(op.data, spec.mask):
        raise ConfigError(["observation: model.n = %d and K(delta) = %d leave "
                           "no unobserved mode, so C_I = 0 and eta0 is "
                           "undefined" % (spec.n, op.cutoff)])


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
    setup = build_setup(values)
    _require_unobserved_mode(setup.model, setup.op)
    return _require_live_noise(setup, values["model.id"])


def _cmd_simulate(args, values):
    clock = _Clock()
    setup = _checked_setup(values)
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    members = values["ensemble.members"]
    seed = values["ensemble.seed"]
    clock.lap("setup_s")
    extra = dict(zip(("alpha_hat", "c_i_hat", "eta0_hat"),
                     measured_constants(setup.model, setup.op)))
    clock.lap("constants_s")
    # the files are written at the stride rows only, so only those steps
    # are recorded
    ens = run_ensemble(setup, members, seed, Record(
        SERIES if values["output.emit_y"] else MONITORS,
        _stride_idx(setup.cfg.nsteps + 1, values["output.stride"])))
    clock.lap("integrate_s")
    first, files = ens.first, []
    if first is not None:
        header = ["t", "w_H", "w_Vstar", "u_H", "v_H", "hs_norm_sq", "kappa"]
        cols = [first.times, first.w_h, first.w_vstar, first.u_h, first.v_h,
                first.hs, first.kappa]
        if values["output.emit_y"]:
            header += ["dy_H", "y_H"]
            cols += [first.dy_h, first.y_h]
        _csv(os.path.join(out_dir, "series.csv"), header, cols)
        files.append("series.csv")
    if members > 1:
        _csv(os.path.join(out_dir, "ensemble.csv"),
             ["t", "mean_w2_H", "se_w2_H", "mean_w2_Vstar", "se_w2_Vstar",
              "mean_hs_norm_sq"],
             [ens.times, ens.mean_w2_h, ens.se_w2_h, ens.mean_w2_vstar,
              ens.se_w2_vstar, ens.mean_hs])
        files.append("ensemble.csv")
    extra.update({"master_seed": seed, "members": members,
                  "blowups": ens.blowups, "partial": ens.partial,
                  "files": sorted(files)})
    clock.lap("output_s")
    _manifest(out_dir, "simulate", values, extra, clock,
              members * setup.cfg.nsteps)
    w_end = float(ens.mean_w2_h[-1])
    print("simulate: %d member(s), %d blow-up(s), final mean |w|_H^2 = %.6e"
          % (members, ens.blowups, w_end))
    print("wrote %s" % out_dir)
    return 0


def _cmd_sweep(args, values):
    clock = _Clock()
    mu_grid = [values["nudging.mu"]] if args.mu_grid is None else _entries(
        "--mu-grid", args.mu_grid, partial(parse_value, "nudging.mu"))
    delta_grid = [values["observation.delta"]] if args.delta_grid is None \
        else _entries("--delta-grid", args.delta_grid,
                      partial(parse_value, "observation.delta"))
    # the reference and one observation per delta, built (and refused)
    # before any output directory exists; refusals depend on delta, not mu
    setup = _checked_setup({**values, "observation.delta": delta_grid[0]})
    spec = setup.model
    later = [build_observation(values, spec, d) for d in delta_grid[1:]]
    for op, _, _ in later:
        _require_unobserved_mode(spec, op)
    observations = [(setup.op, setup.coef, setup.q)] + later
    out_dir = output_directory(values)
    clock.lap("setup_s")
    consts = [measured_constants(spec, op) for op, _, _ in observations]
    clock.lap("constants_s")
    rows = _built("--mu-grid, --delta-grid", sweep, setup, observations,
                  mu_grid, values["ensemble.members"], values["ensemble.seed"],
                  consts)
    clock.lap("integrate_s")
    os.makedirs(out_dir, exist_ok=True)
    header = ["mu", "delta", "mu_delta_sq", "eta0_hat", "over_threshold",
              "gamma_fit", "fit_residual", "floor", "floor_se", "blowups",
              "members", "valid"]
    _csv(os.path.join(out_dir, "sweep.csv"), header,
         [[row[k] for row in rows] for k in header])
    # alpha depends on the model alone; C_I and eta0 per delta, in grid order
    extra = {"alpha_hat": consts[0][0], "c_i_hat": [c[1] for c in consts],
             "eta0_hat": [c[2] for c in consts], "mu_grid": mu_grid,
             "delta_grid": delta_grid,
             "master_seed": values["ensemble.seed"],
             "members": values["ensemble.members"]}
    clock.lap("output_s")
    _manifest(out_dir, "sweep", values, extra, clock,
              values["ensemble.members"] * len(rows) * setup.cfg.nsteps)
    flagged = sum(1 for r in rows if r["over_threshold"])
    print("sweep: %d cells (%d over the mu*delta^2 threshold), eta0_hat = %s"
          % (len(rows), flagged, ", ".join("%.4g" % c[2] for c in consts)))
    print("wrote %s" % os.path.join(out_dir, "sweep.csv"))
    return 0


def _cmd_verify(args, values):
    clock = _Clock()
    setup = _checked_setup(values)
    out_dir = output_directory(values)
    os.makedirs(out_dir, exist_ok=True)
    spec = setup.model
    clock.lap("setup_s")
    # the report reads only the reference (times, kappa, a few states), so
    # the reference steps alone: no groups, no estimates
    traj, _ = simulate_members(spec, setup.cfg, [], setup.u0, None, [],
                               verify_record(setup.cfg.nsteps))
    if isinstance(traj, BlowupError):
        raise traj
    clock.lap("integrate_s")
    rep = verify_assumptions(spec, traj, setup.op)
    clock.lap("constants_s")
    report = "\n".join(rep.lines) + "\n"
    _write(os.path.join(out_dir, "report.txt"), report)
    clock.lap("output_s")
    _manifest(out_dir, "verify", values,
              {"alpha_hat": rep.alpha_hat, "c_i_hat": rep.c_i_hat,
               "eta0_hat": rep.eta0_hat, "m0": rep.m0, "m1": rep.m1,
               "epsilon_hat": rep.epsilon_hat,
               "checks": {name: bool(ok) for name, ok in rep.checks}},
              clock, 0)
    sys.stdout.write(report)
    failed = [name for name, ok in rep.checks if not ok]
    if args.check and failed:
        print("check failed: %s" % "; ".join(failed), file=sys.stderr)
        return 3
    return 0


def _deviation_se(value, reference, se):
    if se > 0:
        return abs(value - reference) / se
    return 0.0 if value == reference else float("inf")


def _cmd_convolution(args, values):
    clock = _Clock()
    setup = build_setup(values)
    spec, cfg = setup.model, setup.cfg
    if values["noise.sigma"] <= 0.0:
        raise ConfigError(["convolution-check needs sigma > 0"])
    if values["nudging.mu"] <= 0.0:
        raise ConfigError(["convolution-check needs mu > 0"])
    modes = _entries("--modes", args.modes, _int)
    if len(set(modes)) < len(modes) or not all(1 <= k <= spec.n for k in modes):
        raise ConfigError(["--modes must name distinct modes between 1 and %d"
                           % spec.n])
    n = cfg.nsteps
    times = _entries("--times", args.times, _float) if args.times is not None \
        else [s * cfg.dt for s in sorted({max(n // 4, 1), max(n // 2, 1), n})]
    if args.paths < 2:
        raise ConfigError(["--paths must be at least 2"])
    out_dir = output_directory(values)
    clock.lap("setup_s")
    # the library's refusals (model, noise kind, times) precede any output
    ts, var, se = _built("convolution-check", convolution_variance_mc, spec,
                         cfg, setup.coef, setup.q, times, args.paths,
                         values["ensemble.seed"])
    clock.lap("integrate_s")
    os.makedirs(out_dir, exist_ok=True)
    mu = cfg.mu
    sig = setup.coef.sigma_delta
    scheme = imex_convolution_variance(spec, setup.q, setup.coef, mu, cfg.dt,
                                       probe_steps(times, cfg.dt, n))
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
    clock.lap("output_s")
    _manifest(out_dir, "convolution-check", values,
              {"paths": args.paths, "modes": modes,
               "times": [float(t) for t in ts],
               "worst_deviation_discrete_se": worst_discrete,
               "worst_deviation_se": worst, "continuous_gap_rel": gap,
               "master_seed": values["ensemble.seed"]}, clock, args.paths * n)
    print("convolution-check: %d paths, worst deviation %.2f s.e. from the "
          "scheme's variance; continuous time: %.2f s.e., discretization "
          "gap %.2e relative" % (args.paths, worst_discrete, worst, gap))
    print("wrote %s" % os.path.join(out_dir, "convolution.csv"))
    if args.check and worst_discrete > 3.0:
        print("check failed: variance off the scheme's variance by more than "
              "3 s.e.", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    _pin_malloc_thresholds()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        # argparse has printed its message; its usage-error code 2 is the
        # code of a tripped blow-up guard here
        return 1 if e.code == 2 else e.code
    try:
        text = _config_text(args.config)
    except (OSError, ValueError, KeyError) as e:
        print("cannot load configuration: %s" % e, file=sys.stderr)
        return 1
    command = {"simulate": _cmd_simulate, "sweep": _cmd_sweep,
               "verify": _cmd_verify}.get(args.command, _cmd_convolution)
    try:
        return command(args, _load_values(text, args))
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 1
    except OSError as e:
        print("cannot write outputs: %s" % e, file=sys.stderr)
        return 1
    except BlowupError as e:
        print("blow-up guard tripped: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
