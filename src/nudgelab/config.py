"""Flat key = value run configuration.

One assignment per line, keys spelled section.key, # starts a comment.
Parsing is strict: unknown keys, bad types, and out-of-range values are
all collected and reported together, never one at a time.
"""

import os

import numpy as np

from .harness import RunSetup
from .integrate import StepConfig
from .models import MODEL_FAMILIES, build_model, random_field
from .noise import make_noise_coefficient, make_qspec
from .observe import make_observation


class ConfigError(ValueError):
    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(
            "  - " + e for e in self.errors))


def _bool(raw):
    if raw in ("true", "false"):
        return raw == "true"
    raise ValueError("expected true or false, got %r" % raw)


def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer, got %r" % raw)


def _float(raw):
    try:
        v = float(raw)
    except ValueError:
        raise ValueError("expected a number, got %r" % raw)
    if not np.isfinite(v):
        raise ValueError("expected a finite number, got %r" % raw)
    return v


# key -> (parse, default, constraint or None, description of the constraint)
SCHEMA = {
    "model.id": (str, None, lambda v: v in MODEL_FAMILIES,
                 "one of " + ", ".join(sorted(MODEL_FAMILIES))),
    "model.n": (_int, 64, lambda v: v >= 2, "at least 2"),
    "model.nu": (_float, 1.0, lambda v: v > 0.0, "positive"),
    "model.linear": (_bool, False, None, None),
    "observation.kind": (str, "modal", lambda v: v in ("modal", "volume"),
                         "modal or volume"),
    "observation.delta": (_float, 0.39, lambda v: v > 0.0, "positive"),
    "noise.kind": (str, "additive",
                   lambda v: v in ("additive", "state_scaled",
                                   "pointwise_multiplicative"),
                   "additive, state_scaled or pointwise_multiplicative"),
    "noise.sigma": (_float, 0.0, lambda v: v >= 0.0, "nonnegative"),
    "noise.p": (_float, 0.0, lambda v: v in (0.0, 0.5), "0 or 0.5"),
    "nudging.mu": (_float, 0.0, lambda v: v >= 0.0, "nonnegative"),
    "nudging.implicit": (_bool, False, None, None),
    "time.dt": (_float, 1e-3, lambda v: v > 0.0, "positive"),
    "time.T": (_float, 1.0, lambda v: v > 0.0, "positive"),
    "time.guard": (_float, 1e6, lambda v: v > 0.0, "positive"),
    "ensemble.members": (_int, 1, lambda v: v >= 1, "at least 1"),
    "ensemble.seed": (_int, 0, lambda v: v >= 0, "nonnegative"),
    "init.seed": (_int, 0, lambda v: v >= 0, "nonnegative"),
    "init.amplitude": (_float, 1.0, lambda v: v >= 0.0, "nonnegative"),
    "init.w0": (_float, 1.0, lambda v: v >= 0.0, "nonnegative"),
    "output.directory": (str, "", None, None),
    "output.stride": (_int, 10, lambda v: v >= 1, "at least 1"),
    "output.emit_y": (_bool, False, None, None),
}

# parsed and validated so old configs and manifests replay, never stored
RETIRED = {
    "ensemble.workers": (_int, None, lambda v: v >= 1, "at least 1"),
    "model.norms": (str, None, lambda v: v == "homogeneous", "homogeneous"),
    "noise.spectrum_exponent": (str, None, lambda v: v == "auto", "auto"),
    "noise.k_q": (str, None, lambda v: v == "auto", "auto"),
}


def parse_value(key, raw):
    """raw parsed and checked as SCHEMA (or RETIRED) asks of key."""
    parse, _, check, what = SCHEMA.get(key) or RETIRED[key]
    try:
        val = parse(raw)
    except ValueError as e:
        raise ValueError("%s: %s" % (key, e))
    if check is not None and not check(val):
        raise ValueError("%s must be %s, got %r" % (key, what, val))
    return val


def parse_config(text):
    """Parse and validate; returns a plain dict keyed like the schema."""
    values = {}
    seen = set()
    errors = []
    for lineno, raw_line in enumerate(text.splitlines(), 1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append("line %d: expected key = value" % lineno)
            continue
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA and key not in RETIRED:
            errors.append("line %d: unknown key %r" % (lineno, key))
            continue
        if key in seen:
            errors.append("line %d: duplicate key %r" % (lineno, key))
            continue
        seen.add(key)
        try:
            val = parse_value(key, raw)
        except ValueError as e:
            errors.append("line %d: %s" % (lineno, e))
            continue
        if key in SCHEMA:
            values[key] = val
    for key, (_, default, _, _) in SCHEMA.items():
        if key not in values:
            if default is None:
                if key not in seen:
                    errors.append("missing required key %r" % key)
            else:
                values[key] = default
    if errors:
        raise ConfigError(errors)
    return values


def render_config(values):
    """Canonical text with every key resolved; parses back to the same dict."""
    lines = []
    for key in SCHEMA:
        v = values[key]
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        lines.append("%s = %s" % (key, s))
    return "\n".join(lines) + "\n"


def output_directory(values):
    """Explicit setting, else NUDGELAB_OUT_DIR, else ./runs; an OSError,
    raised before any work and creating nothing, if a file sits on its path."""
    out_dir = (values["output.directory"] or os.environ.get("NUDGELAB_OUT_DIR", "")
               or "runs")
    head = os.path.abspath(out_dir)
    while not os.path.isdir(head):
        if os.path.exists(head):
            raise NotADirectoryError("not a directory: %r" % head)
        head = os.path.dirname(head)
    return out_dir


def _built(section, builder, *args, **kwargs):
    """builder(*args, **kwargs), a ValueError reported as a ConfigError."""
    try:
        return builder(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(["%s: %s" % (section, e)])


def build_setup(values):
    """Construct every run object a config describes.

    Returns a harness RunSetup with read-only u0 and v0; the initial
    error is w0 times a unit-norm rough field on top of u0.  A value the
    schema accepts but a builder rejects is reported as a ConfigError, as
    is implicit nudging on a volume observation (its I_delta is not diagonal).
    """
    if values["nudging.implicit"] and values["observation.kind"] != "modal":
        raise ConfigError(["nudging.implicit = true needs observation.kind = "
                           "modal, got %s" % values["observation.kind"]])
    model = _built("model", build_model, values["model.id"], values["model.n"],
                   nu=values["model.nu"], linear=values["model.linear"])
    op, coef, q = build_observation(values, model, values["observation.delta"])
    cfg = _built("time", StepConfig, dt=values["time.dt"], T=values["time.T"],
                 mu=values["nudging.mu"],
                 implicit_nudging=values["nudging.implicit"],
                 blowup_guard=values["time.guard"])
    u0 = random_field(model, (values["init.seed"], 0),
                      h_norm=values["init.amplitude"])
    v0 = u0
    if values["init.w0"] > 0.0:
        bump = random_field(model, (values["init.seed"], 1), h_norm=1.0)
        v0 = u0 + values["init.w0"] * bump
    # every member and sweep cell shares these arrays
    u0.setflags(write=False)
    v0.setflags(write=False)
    return RunSetup(model, cfg, op, coef, q, u0, v0)


def build_observation(values, model, delta):
    """(op, coef, q) of the config at observation scale delta: the
    observation operator, noise coefficient and covariance, the parts of
    a set-up that depend on delta."""
    op = _built("observation", make_observation, model,
                values["observation.kind"], delta)
    q = _built("noise", make_qspec, model, delta=delta)
    coef = _built("noise", make_noise_coefficient, values["noise.kind"],
                  values["noise.sigma"], p=values["noise.p"], delta=delta)
    return op, coef, q
