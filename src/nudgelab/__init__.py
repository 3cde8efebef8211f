"""Synchronization experiments for nudging-based data assimilation of
semilinear parabolic equations with noisy coarse observations."""

from .fields import ModelSpec
from .models import build_model, random_field
from .observe import (ObservationOperator, estimate_interp_constant, eta0,
                      make_observation)
from .noise import (NoiseCoefficient, QSpec, hs_norm_sq,
                    make_noise_coefficient, make_qspec)
from .integrate import BlowupError, StepConfig, simulate_pair
from .harness import (RunSetup, convolution_variance_mc, estimate_noise_floor,
                      fit_decay_rate, run_ensemble, sweep, tail_sup,
                      verify_assumptions)
from .config import ConfigError, build_setup, parse_config, render_config

__all__ = [
    "ModelSpec",
    "build_model", "random_field",
    "ObservationOperator", "estimate_interp_constant", "eta0",
    "make_observation",
    "NoiseCoefficient", "QSpec", "hs_norm_sq",
    "make_noise_coefficient", "make_qspec",
    "BlowupError", "StepConfig", "simulate_pair",
    "RunSetup", "convolution_variance_mc", "estimate_noise_floor",
    "fit_decay_rate", "run_ensemble", "sweep", "tail_sup",
    "verify_assumptions",
    "ConfigError", "build_setup", "parse_config", "render_config",
]

__version__ = "0.1.0"
