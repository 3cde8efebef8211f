"""Synchronization experiments for nudging-based data assimilation of
semilinear parabolic equations with noisy coarse observations."""

from .fields import (Field, ModelSpec, apply_A, apply_F, inner_h, norm,
                     pairing, register_model, spec_of_id, zero_field)
from .models import (GridField, KappaSample, build_model, check_field,
                     from_grid, kappa_monitor, leray_project, random_field,
                     riesz_perp, to_grid)
from .observe import (ObservationOperator, apply_observation, cell_averages,
                      estimate_interp_constant, eta0, make_observation)
from .noise import (NoiseCoefficient, QSpec, apply_G, gamma_u_sup, hs_norm_sq,
                    make_noise_coefficient, make_qspec, noise_directions,
                    sample_increment)
from .integrate import (BlowupError, SimResult, StepConfig, simulate_pair,
                        step_reference, stochastic_convolution)
from .harness import (AssumptionReport, EnsembleResult, RateFit, RunSetup,
                      SweepResult, convolution_variance_mc, estimate_noise_floor,
                      fit_decay_rate, run_ensemble, sweep, tail_sup,
                      verify_assumptions)
from .config import ConfigError, build_setup, parse_config, render_config

__all__ = [
    "Field", "ModelSpec", "apply_A", "apply_F", "inner_h", "norm", "pairing",
    "register_model", "spec_of_id", "zero_field",
    "GridField", "KappaSample", "build_model", "check_field", "from_grid",
    "kappa_monitor", "leray_project", "random_field", "riesz_perp", "to_grid",
    "ObservationOperator", "apply_observation", "cell_averages",
    "estimate_interp_constant", "eta0", "make_observation",
    "NoiseCoefficient", "QSpec", "apply_G", "gamma_u_sup", "hs_norm_sq",
    "make_noise_coefficient", "make_qspec", "noise_directions",
    "sample_increment",
    "BlowupError", "SimResult", "StepConfig", "simulate_pair",
    "step_reference", "stochastic_convolution",
    "AssumptionReport", "EnsembleResult", "RateFit", "RunSetup", "SweepResult",
    "convolution_variance_mc", "estimate_noise_floor", "fit_decay_rate",
    "run_ensemble", "sweep", "tail_sup", "verify_assumptions",
    "ConfigError", "build_setup", "parse_config", "render_config",
]

__version__ = "0.1.0"
