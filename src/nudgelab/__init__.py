"""Synchronization experiments for nudging-based data assimilation of
semilinear parabolic equations with noisy coarse observations."""

from .fields import Field, ModelSpec, inner_h, norm, spec_of_id
from .models import build_model, random_field
from .observe import (ObservationOperator, apply_observation,
                      estimate_interp_constant, eta0, make_observation)
from .noise import (NoiseCoefficient, QSpec, apply_G, hs_norm_sq,
                    make_noise_coefficient, make_qspec, noise_directions)
from .integrate import BlowupError, StepConfig, simulate_pair
from .harness import (RunSetup, convolution_variance_mc, estimate_noise_floor,
                      fit_decay_rate, run_ensemble, sweep, tail_sup,
                      verify_assumptions)
from .config import ConfigError, build_setup, parse_config, render_config

__all__ = [
    "Field", "ModelSpec", "inner_h", "norm", "spec_of_id",
    "build_model", "random_field",
    "ObservationOperator", "apply_observation", "estimate_interp_constant",
    "eta0", "make_observation",
    "NoiseCoefficient", "QSpec", "apply_G", "hs_norm_sq",
    "make_noise_coefficient", "make_qspec", "noise_directions",
    "BlowupError", "StepConfig", "simulate_pair",
    "RunSetup", "convolution_variance_mc", "estimate_noise_floor",
    "fit_decay_rate", "run_ensemble", "sweep", "tail_sup",
    "verify_assumptions",
    "ConfigError", "build_setup", "parse_config", "render_config",
]

__version__ = "0.1.0"
