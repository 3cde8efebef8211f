"""Observation operators: projections, cell averages, the interpolation
constant, and the threshold formula."""

import os
import subprocess
import sys

import numpy as np
import pytest

import nudgelab
import oracles as O
from nudgelab.fields import inner_h_raw, norm_raw
from nudgelab.models import build_model, random_field
from nudgelab.observe import (apply_observation_raw, estimate_interp_constant,
                              eta0, make_observation)


def test_modal_cutoff_count():
    spec = build_model("ac_weak", 64)
    op = make_observation(spec, "modal", 0.39)
    assert op.cutoff == 8          # floor(pi / 0.39)


def test_modal_idempotent_and_self_adjoint():
    spec = build_model("ac_weak", 64)
    op = make_observation(spec, "modal", 0.39)
    f = random_field(spec, 0)
    g = random_field(spec, 1)
    pf = apply_observation_raw(op, spec, f)
    ppf = apply_observation_raw(op, spec, pf)
    assert np.array_equal(pf, ppf)
    pg = apply_observation_raw(op, spec, g)
    assert inner_h_raw(spec, pf, g) == pytest.approx(inner_h_raw(spec, f, pg),
                                                     rel=1e-12)


def test_modal_torus_band():
    spec = build_model("nse_weak", 32)
    op = make_observation(spec, "modal", 0.39)
    f = random_field(spec, 2)
    pf = apply_observation_raw(op, spec, f)
    kabs = spec.params["kabs"]
    assert np.all(pf[:, kabs > op.cutoff] == 0.0)
    kept = (kabs <= op.cutoff) & spec.mask
    assert np.allclose(pf[:, kept], f[:, kept])


@pytest.mark.parametrize("n,delta", [(16, 0.39), (64, 0.1), (32, 0.7)])
def test_volume_cell_averages_match_quadrature(n, delta):
    # the defining identity <I_delta f, g>_H = (1/m) sum_j avg_j(f) avg_j(g),
    # the cell averages taken by Gauss quadrature
    spec = build_model("ac_weak", n)
    op = make_observation(spec, "volume", delta)
    f = random_field(spec, 3)
    g = random_field(spec, 4)
    m = op.cells
    avg = [(O.cell_average_quad(f, j / m, (j + 1) / m),
            O.cell_average_quad(g, j / m, (j + 1) / m)) for j in range(m)]
    want = sum(a * b for a, b in avg) / m
    got = inner_h_raw(spec, apply_observation_raw(op, spec, f), g)
    assert got == pytest.approx(want, rel=1e-13)


# (model, n, delta): every model, the torus at cells that alias several
# band wavevectors per class and at more cells than grid points
DENSE_CASES = [("ac_weak", 64, 0.1), ("ac_strong", 32, 0.39), ("qg", 12, 0.3),
               ("nse_weak", 12, 1.0), ("nse_strong", 32, 0.39), ("mhd", 16, 1.0)]


@pytest.mark.parametrize("model_id,n,delta", DENSE_CASES,
                         ids=["%s-%d" % c[:2] for c in DENSE_CASES])
def test_volume_class_form_matches_dense_oracle(model_id, n, delta):
    # one field and a 13-row stack against the dense cell matrices; each
    # row of the stack is bit for bit the field applied alone
    spec = build_model(model_id, n)
    op = make_observation(spec, "volume", delta)
    stack = np.stack([random_field(spec, s) for s in range(13)])
    for c in (random_field(spec, 20), stack):
        got = apply_observation_raw(op, spec, c)
        want = O.volume_observation_dense(op, spec, c)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    rows = apply_observation_raw(op, spec, stack)
    assert all(np.array_equal(apply_observation_raw(op, spec, c), row)
               for c, row in zip(stack, rows))


def test_volume_operator_self_adjoint_psd():
    for mid, n in (("ac_weak", 16), ("nse_weak", 16)):
        spec = build_model(mid, n)
        op = make_observation(spec, "volume", 0.7 if spec.kind == "sine" else 1.0)
        f = random_field(spec, 4)
        g = random_field(spec, 5)
        lhs = inner_h_raw(spec, apply_observation_raw(op, spec, f), g)
        rhs = inner_h_raw(spec, f, apply_observation_raw(op, spec, g))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
        assert inner_h_raw(spec, apply_observation_raw(op, spec, f), f) >= -1e-12


def test_volume_preserves_mean_zero():
    # torus fields are mean-zero; averaging then embedding keeps them so
    spec = build_model("qg", 16)
    op = make_observation(spec, "volume", np.pi / 2.0)
    f = random_field(spec, 6)
    back = apply_observation_raw(op, spec, f)
    assert abs(back[0, 0]) < 1e-14


def test_interp_constant_single_mode_value():
    # the mode just past the cutoff gives exactly 1/(delta w_V(K+1))
    spec = build_model("ac_weak", 64)
    op = make_observation(spec, "modal", 0.39)
    ci = estimate_interp_constant(op, spec)
    exact = 1.0 / (0.39 * spec.w_v[op.cutoff])
    assert ci == pytest.approx(exact, rel=1e-9)
    assert ci == pytest.approx(0.09068657726033923, rel=1e-12)


# (model, n, deltas): on the torus band |k| <= 3, delta 1.6 and 2.1 give
# 4 and 3 cells per axis, whose alias classes hold several wavevectors,
# and delta 0.3 more cells (21) than grid points; on the sine grid delta
# 0.15 observes every mode with the modal kind
INTERP_CASES = [
    ("ac_weak", 16, (0.39, 0.2, 0.7, 0.15)),
    ("ac_strong", 16, (0.39, 0.2, 0.7)),
    ("qg", 8, (0.8, 1.6, 3.0)),
    ("qg", 12, (0.3, 1.6, 2.1)),
    ("nse_weak", 10, (1.0, 1.6, 2.1)),
    ("nse_strong", 12, (0.3, 0.8, 1.6, 3.0)),
    ("mhd", 12, (1.0, 1.6, 2.1)),
]


@pytest.mark.parametrize("kind", ["modal", "volume"])
@pytest.mark.parametrize("model_id,n,deltas", INTERP_CASES,
                         ids=["%s-%d" % c[:2] for c in INTERP_CASES])
def test_interp_constant_matches_dense_oracle(model_id, n, deltas, kind):
    spec = build_model(model_id, n)
    for delta in deltas:
        op = make_observation(spec, kind, delta)
        want = O.interp_constant_dense(op, spec)[0]
        assert estimate_interp_constant(op, spec) == pytest.approx(
            want, rel=1e-12, abs=1e-300), delta


@pytest.mark.parametrize("model_id,n,delta", [
    ("ac_weak", 16, 0.39), ("ac_strong", 16, 0.2), ("qg", 12, 1.6),
    ("nse_strong", 12, 2.1), ("mhd", 8, 1.6)])
def test_interp_constant_witness_pair_attains_it(model_id, n, delta):
    # the oracle's singular-vector pair reaches the supremum
    spec = build_model(model_id, n)
    op = make_observation(spec, "volume", delta)
    _, f, g = O.interp_constant_dense(op, spec)
    assert O.quotient(op, spec, f, g) == pytest.approx(
        estimate_interp_constant(op, spec), rel=1e-12)


@pytest.mark.parametrize("model_id,n,kind,delta", [
    ("nse_strong", 32, "volume", 0.39), ("ac_weak", 64, "volume", 0.1),
    ("mhd", 16, "volume", 1.0), ("qg", 16, "modal", 0.6)])
def test_interp_constant_bounds_random_pairs(model_id, n, kind, delta):
    # no random pair, rough (smoothness 0.5) or not, exceeds the supremum
    spec = build_model(model_id, n)
    op = make_observation(spec, kind, delta)
    ci = estimate_interp_constant(op, spec)
    for i in range(32):
        f = random_field(spec, (0, 2 * i), smoothness=0.5)
        g = random_field(spec, (0, 2 * i + 1), smoothness=0.5)
        assert O.quotient(op, spec, f, g) <= ci * (1 + 1e-12)


def test_interp_constant_sweep_values():
    # nse_strong n=32 with volume observation at the sweep workload's
    # deltas (m = 16 and 8 cells): the largest block is the pair
    # (0, +-m/2), one combination of which I_delta maps to zero, so C_I is
    # w_H / (delta w_V) = 1 / (delta m/2)
    spec = build_model("nse_strong", 32)
    got = [estimate_interp_constant(make_observation(spec, "volume", d), spec)
           for d in (0.39, 0.8)]
    assert got == [0.3205128205128205, 0.3125]
    spec = build_model("ac_weak", 64)
    ci = estimate_interp_constant(make_observation(spec, "volume", 0.1), spec)
    assert ci == pytest.approx(0.31782, abs=5e-6)


@pytest.mark.parametrize("model_id", ["ac_weak", "ac_strong", "nse_weak",
                                      "nse_strong", "qg", "mhd"])
def test_volume_interp_constant_under_the_cell_poincare_bound(model_id):
    # h / pi, h the snapped cell width, is the sharp Poincare-Wirtinger
    # constant of a cell, so C_I <= h / (pi delta) whatever the band; a
    # torus band that holds the worst alias pair (n = 32 at delta 0.39,
    # m = 16 cells) attains it
    for n in (8, 16, 32):
        spec = build_model(model_id, n)
        for delta in (0.1, 0.2, 0.39, 0.8, 1.0):
            op = make_observation(spec, "volume", delta)
            bound = spec.params["domain"] / op.cells / (np.pi * delta)
            ci = estimate_interp_constant(op, spec)
            assert 0.0 < ci <= bound * (1 + 1e-12), (n, delta, ci, bound)
            if spec.kind == "torus" and n == 32 and delta == 0.39:
                assert ci == pytest.approx(bound, rel=1e-12)
                assert ci == pytest.approx(0.3205128205128205, rel=1e-12)


# Run in fresh interpreters: the bits of the torus volume C_I under
# another OpenBLAS kernel, whose LAPACK takes the block norms
BLAS_PROBE = """
from nudgelab.models import build_model
from nudgelab.observe import estimate_interp_constant, make_observation
for model_id, n, delta in (("nse_strong", 32, 0.39), ("nse_strong", 32, 0.8),
                           ("mhd", 16, 0.39), ("mhd", 16, 0.8)):
    spec = build_model(model_id, n)
    op = make_observation(spec, "volume", delta)
    print(estimate_interp_constant(op, spec).hex())
"""


def test_torus_volume_interp_constant_bits_do_not_depend_on_blas_kernel():
    # the kernels of two older x86-64 cores, which any host with AVX2 runs
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = [subprocess.run([sys.executable, "-c", BLAS_PROBE],
                          env=dict(env, **core), capture_output=True, text=True,
                          check=True).stdout
           for core in ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                        {"OPENBLAS_CORETYPE": "Sandybridge"})]
    assert out[0] == out[1] == out[2] and len(out[0].split()) == 4


def test_interp_bound_holds_on_random_fields():
    spec = build_model("nse_weak", 32)
    op = make_observation(spec, "modal", 0.6)
    ci = estimate_interp_constant(op, spec)
    for s in range(20):
        f = random_field(spec, (30, s), smoothness=0.4)
        g = random_field(spec, (31, s), smoothness=0.4)
        diff = f - apply_observation_raw(op, spec, f)
        lhs = abs(inner_h_raw(spec, diff, g))
        rhs = ci * op.delta * norm_raw(spec, f, "H") * norm_raw(spec, g, "V")
        assert lhs <= rhs * (1 + 1e-10)


def test_eta0_formula_exact():
    assert eta0(2.0, 4.0) == 0.25
    assert eta0(1.0, 0.5) == 8.0
    with pytest.raises(ValueError):
        eta0(-1.0, 1.0)
    with pytest.raises(ValueError):
        eta0(1.0, 0.0)


def test_observation_rejects_bad_delta():
    spec = build_model("ac_weak", 16)
    with pytest.raises(ValueError):
        make_observation(spec, "modal", 0.0)
    with pytest.raises(ValueError):
        make_observation(spec, "modal", 2.0)   # beyond the unit interval
    with pytest.raises(ValueError):
        make_observation(spec, "fourier", 0.4)


def test_observation_model_mismatch():
    a = build_model("ac_weak", 16)
    b = build_model("ac_strong", 16)
    op = make_observation(a, "modal", 0.39)
    with pytest.raises(ValueError, match="operator belongs to"):
        estimate_interp_constant(op, b)
