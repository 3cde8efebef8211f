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


def _str(raw):
    return raw


def _auto_or_float(raw):
    return "auto" if raw == "auto" else _float(raw)


def _auto_or_int(raw):
    return "auto" if raw == "auto" else _int(raw)


# key -> (parse, default, constraint or None, description of the constraint)
SCHEMA = {
    "model.id": (_str, None, lambda v: v in MODEL_FAMILIES,
                 "one of " + ", ".join(sorted(MODEL_FAMILIES))),
    "model.n": (_int, 64, lambda v: v >= 2, "at least 2"),
    "model.nu": (_float, 1.0, lambda v: v > 0.0, "positive"),
    "model.norms": (_str, "homogeneous",
                    lambda v: v in ("homogeneous", "sobolev"),
                    "homogeneous or sobolev"),
    "model.linear": (_bool, False, None, None),
    "observation.kind": (_str, "modal", lambda v: v in ("modal", "volume"),
                         "modal or volume"),
    "observation.delta": (_float, 0.39, lambda v: v > 0.0, "positive"),
    "noise.kind": (_str, "additive",
                   lambda v: v in ("additive", "state_scaled",
                                   "pointwise_multiplicative"),
                   "additive, state_scaled or pointwise_multiplicative"),
    "noise.sigma": (_float, 0.0, lambda v: v >= 0.0, "nonnegative"),
    "noise.p": (_float, 0.0, lambda v: v in (0.0, 0.5), "0 or 0.5"),
    "noise.spectrum_exponent": (_auto_or_float, "auto", None, None),
    "noise.k_q": (_auto_or_int, "auto",
                  lambda v: v == "auto" or v >= 1, "auto or at least 1"),
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
    "output.directory": (_str, "", None, None),
    "output.stride": (_int, 10, lambda v: v >= 1, "at least 1"),
    "output.emit_y": (_bool, False, None, None),
}

# parsed and validated so old configs and manifests replay, never stored
RETIRED = {
    "ensemble.workers": (_int, None, lambda v: v >= 1, "at least 1"),
}


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
        parse, _, check, what = SCHEMA.get(key) or RETIRED[key]
        try:
            val = parse(raw)
        except ValueError as e:
            errors.append("line %d: %s: %s" % (lineno, key, e))
            continue
        if check is not None and not check(val):
            errors.append("line %d: %s must be %s, got %r"
                          % (lineno, key, what, val))
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
    """Explicit setting, else NUDGELAB_OUT_DIR, else ./runs."""
    if values["output.directory"]:
        return values["output.directory"]
    return os.environ.get("NUDGELAB_OUT_DIR", "") or "runs"


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
    schema accepts but a builder rejects is reported as a ConfigError.
    """
    model = _built("model", build_model, values["model.id"], values["model.n"],
                   nu=values["model.nu"], norms=values["model.norms"],
                   linear=values["model.linear"])
    op = _built("observation", make_observation, model,
                values["observation.kind"], values["observation.delta"])
    q = _built("noise", make_qspec, model,
               exponent=values["noise.spectrum_exponent"],
               k_q=values["noise.k_q"], delta=values["observation.delta"])
    coef = _built("noise", make_noise_coefficient, values["noise.kind"],
                  values["noise.sigma"], p=values["noise.p"],
                  delta=values["observation.delta"])
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
