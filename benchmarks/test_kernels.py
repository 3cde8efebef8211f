"""Kernel microbenchmarks (pytest-benchmark), outside the test suite.

    python -m pytest benchmarks -q

Times the per-step kernels the end-to-end benchmark spends its steps in:
the pointwise Hilbert-Schmidt monitor, each model's nonlinearity on one
field and on the stack of three that a two-member run steps, the
dealiased advection of the torus models, and the threaded Monte Carlo
variance of the stochastic convolution.  pytest collects tests/ only by
default, so these run only when asked for.
"""

import numpy as np
import pytest

from nudgelab.harness import convolution_variance_mc
from nudgelab.integrate import StepConfig
from nudgelab.models import build_model, random_field
from nudgelab.noise import hs_norm_sq, make_noise_coefficient, make_qspec

# Grid sizes of the end-to-end workloads (ac_weak 64, nse_strong 32,
# qg 32); the models no workload runs take the size of their own kind.
SIZES = {"ac_weak": 64, "ac_strong": 64, "nse_weak": 32, "nse_strong": 32,
         "qg": 32, "mhd": 32}


def test_hs_norm_sq_pointwise_qg(benchmark):
    spec = build_model("qg", 32)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.05)
    u = random_field(spec, 1)
    assert benchmark(hs_norm_sq, coef, spec, u, q) > 0.0


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("model_id", sorted(SIZES))
def test_f_raw(benchmark, model_id, rows):
    # rows=3: the (3,) + spec.shape stack a 2-member run steps, the
    # reference in row 0; None: one lone field
    spec = build_model(model_id, SIZES[model_id])
    if rows is None:
        c = random_field(spec, 1)
    else:
        c = np.stack([random_field(spec, s) for s in range(1, rows + 1)])
    assert benchmark(spec.f_raw, c).shape == c.shape


def test_torus_advect_nse_strong(benchmark):
    spec = build_model("nse_strong", 32)
    c = random_field(spec, 1)
    assert benchmark(spec.aux.advect, c, c).shape == spec.shape


def test_convolution_variance_mc_ac_weak(benchmark):
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.1)
    cfg = StepConfig(dt=1e-3, T=0.5, mu=20.0)
    _, var, _ = benchmark(convolution_variance_mc, spec, cfg, coef, q,
                          [0.125, 0.25, 0.5], 1000, 3)
    assert var.shape == (3, spec.n)
