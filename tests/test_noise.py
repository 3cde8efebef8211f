"""Q-Wiener increments, noise coefficients, Hilbert-Schmidt norms."""

import numpy as np
import pytest

from nudgelab.fields import norm_raw
from nudgelab.models import build_model, random_field
from nudgelab.noise import (_HS_CHUNK, apply_G_raw, hs_norm_sq,
                            increment_from_noise, make_noise_coefficient,
                            make_qspec, noise_directions)
from oracles import hs_pointwise_per_direction


def test_spectrum_and_rank_defaults():
    spec = build_model("ac_weak", 32)
    q = make_qspec(spec, delta=0.39)
    k = np.arange(1.0, 33.0)
    lam = (1.0 + k ** 2) ** -1.0
    lam[8:] = 0.0                      # rank follows the observation cutoff
    assert np.allclose(q.lam, lam)
    assert q.rank == 8


def test_trace_formula(all_models):
    for spec in all_models:
        q = make_qspec(spec)
        lam2 = q.lam ** 2
        if spec.kind == "sine":
            want = np.sum(lam2)
        else:
            want = q.nstreams * np.sum(spec.mult[spec.mask] * lam2[spec.mask])
        assert q.trace == pytest.approx(want, rel=1e-12), spec.model_id


def test_increment_mean_square_matches_spectrum():
    # E <dW, e_k>_H^2 = lam_k^2 dt on H-normalized directions
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec)
    rng = np.random.default_rng(0)
    dt = 0.01
    n_draw = 4000
    acc = np.zeros(16)
    for _ in range(n_draw):
        dw = increment_from_noise(spec, q, dt, rng.standard_normal(q.draw_shape))
        acc += (spec.w_h * dw) ** 2
    acc /= n_draw * dt
    se = q.lam ** 2 * np.sqrt(2.0 / n_draw)
    assert np.all(np.abs(acc - q.lam ** 2) < 4.0 * se + 1e-12)


def test_increment_trace_identity():
    spec = build_model("nse_weak", 16)
    q = make_qspec(spec)
    rng = np.random.default_rng(1)
    dt = 0.05
    n_draw = 2000
    tot = 0.0
    for _ in range(n_draw):
        dw = increment_from_noise(spec, q, dt, rng.standard_normal(q.draw_shape))
        tot += norm_raw(spec, dw, "H") ** 2
    tot /= n_draw * dt
    assert tot == pytest.approx(q.trace, rel=0.1)


def test_bulk_draws_slice_to_per_step_draws():
    # one whole-horizon draw equals the per-step sequence, bit for bit
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec)
    ss = np.random.SeedSequence(5)
    r1 = np.random.Generator(np.random.Philox(ss))
    r2 = np.random.Generator(np.random.Philox(ss))
    bulk = r1.standard_normal((7,) + q.draw_shape)
    for i in range(7):
        step = r2.standard_normal(q.draw_shape)
        assert np.array_equal(bulk[i], step)


def test_noise_directions_are_h_orthonormal(all_models):
    for spec in all_models:
        q = make_qspec(spec)
        dirs = list(noise_directions(spec, q))
        assert len(dirs) > 0
        for lam, raw in dirs[:6]:
            assert norm_raw(spec, raw, "H") == pytest.approx(1.0, rel=1e-10), \
                spec.model_id


def test_hs_norm_closed_forms_match_assembly(all_models):
    for spec in all_models:
        q = make_qspec(spec)
        u = random_field(spec, 4)
        coefs = [make_noise_coefficient("additive", 0.3, p=0.5, delta=0.5),
                 make_noise_coefficient("state_scaled", 0.2)]
        if spec.kind == "sine":
            coefs.append(make_noise_coefficient("pointwise_multiplicative", 0.2))
        for coef in coefs:
            want = 0.0
            for lam, raw in noise_directions(spec, q):
                img = apply_G_raw(coef, spec, u, raw)
                want += lam ** 2 * norm_raw(spec, img, "H") ** 2
            got = hs_norm_sq(coef, spec, u, q)
            assert got == pytest.approx(want, rel=1e-10), (spec.model_id,
                                                           coef.kind)


def test_pointwise_hs_on_torus_matches_assembly():
    spec = build_model("qg", 8)
    q = make_qspec(spec)
    u = random_field(spec, 9)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    want = sum(lam ** 2 * norm_raw(spec, apply_G_raw(coef, spec, u, raw), "H")
               ** 2 for lam, raw in noise_directions(spec, q))
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("model_id", ["nse_weak", "nse_strong", "mhd"])
def test_pointwise_hs_vector_models_match_assembly(model_id):
    spec = build_model(model_id, 8)
    q = make_qspec(spec)
    u = random_field(spec, 9)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    want = sum(lam ** 2 * norm_raw(spec, apply_G_raw(coef, spec, u, raw), "H")
               ** 2 for lam, raw in noise_directions(spec, q))
    assert want > 0.0
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("model_id", ["ac_weak", "qg", "mhd"])
def test_pointwise_hs_rank_zero_is_zero(model_id):
    spec = build_model(model_id, 8)
    q = make_qspec(spec, k_q=0)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    assert list(noise_directions(spec, q)) == []
    assert hs_norm_sq(coef, spec, random_field(spec, 9), q) == 0.0


# grids with more noise directions than one stack of the kernel
HS_STACK_GRIDS = [("ac_weak", 64), ("ac_strong", 64), ("qg", 32),
                  ("nse_weak", 16), ("nse_strong", 16), ("mhd", 16)]


@pytest.mark.parametrize("model_id,n", HS_STACK_GRIDS)
@pytest.mark.parametrize("k_q", ["auto", 3])
def test_pointwise_hs_stacked_equals_per_direction_bitwise(model_id, n, k_q):
    spec = build_model(model_id, n)
    q = make_qspec(spec, k_q=k_q)
    if k_q == "auto":
        assert len(list(noise_directions(spec, q))) > _HS_CHUNK
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    for seed in (31, 32):
        u = random_field(spec, seed)
        assert hs_norm_sq(coef, spec, u, q) == \
            hs_pointwise_per_direction(coef, spec, u, q)


def test_sigma_delta_applies_to_additive_only():
    add = make_noise_coefficient("additive", 0.4, p=0.5, delta=0.25)
    assert add.sigma_delta == pytest.approx(0.4 * 0.25 ** 0.5)
    plain = make_noise_coefficient("additive", 0.4, p=0.0, delta=0.25)
    assert plain.sigma_delta == 0.4


def test_state_scaled_vanishes_at_zero():
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec)
    coef = make_noise_coefficient("state_scaled", 0.7)
    zero = np.zeros(16)
    rng = np.random.default_rng(2)
    dw = increment_from_noise(spec, q, 0.01, rng.standard_normal(q.draw_shape))
    assert norm_raw(spec, apply_G_raw(coef, spec, zero, dw), "H") == 0.0
    assert hs_norm_sq(coef, spec, zero, q) == 0.0


def test_pointwise_matches_matrix_collocation_oracle():
    # same collocation semantics, direct sine matrices instead of ffts
    spec = build_model("ac_weak", 8)
    u = random_field(spec, 20)
    w = random_field(spec, 21)
    coef = make_noise_coefficient("pointwise_multiplicative", 1.0)
    got = apply_G_raw(coef, spec, u, w)
    n = 8
    m = 2 * n
    x = np.arange(1, m + 1) / (m + 1.0)
    k = np.arange(1, m + 1)
    syn = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k))
    pad = np.concatenate([u, np.zeros(m - n)])
    pad_w = np.concatenate([w, np.zeros(m - n)])
    prod = (syn @ pad) * (syn @ pad_w)
    want = (syn.T @ prod)[:n] / (m + 1.0)
    assert np.max(np.abs(got - want)) < 1e-12


def test_pointwise_hs_dense_frobenius_oracle():
    # brute-force G matrix over all noise directions, Frobenius-summed
    spec = build_model("ac_weak", 8)
    q = make_qspec(spec)
    u = random_field(spec, 22)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.6)
    want = sum(lam ** 2 * norm_raw(spec, apply_G_raw(coef, spec, u, raw),
                                   "H") ** 2
               for lam, raw in noise_directions(spec, q))
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-12)


def test_state_scaled_hs_homogeneity():
    # ||u||_H = 2 and sigma = 1 gives exactly 4 sum lam^2
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec)
    u = random_field(spec, 23, h_norm=2.0)
    coef = make_noise_coefficient("state_scaled", 1.0)
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(
        4.0 * np.sum(q.lam ** 2), rel=1e-12)


def test_state_scaled_peaks_at_start_on_decay():
    # noise that vanishes on the attractor {0} of a decaying reference
    from nudgelab.integrate import StepConfig, simulate_pair
    spec = build_model("ac_strong", 16)
    q = make_qspec(spec)
    coef = make_noise_coefficient("state_scaled", 0.5)
    u0 = random_field(spec, 24, h_norm=0.5)     # decays monotonically
    cfg = StepConfig(dt=1e-2, T=0.5)
    res = simulate_pair(spec, cfg, None, None, None, u0, u0, 0, record_u=True)
    series = np.array([hs_norm_sq(coef, spec, u, q) for u in res.u_path])
    assert np.argmax(series) == 0
    assert np.all(np.diff(series) <= 1e-14)


def test_noise_coefficient_validation():
    for kind in ("loud", "attractor_vanishing"):
        with pytest.raises(ValueError):
            make_noise_coefficient(kind, 0.1)
    with pytest.raises(ValueError):
        make_noise_coefficient("additive", -0.1)
    with pytest.raises(ValueError):
        make_noise_coefficient("additive", 0.1, p=0.3)
    for kind in ("state_scaled", "pointwise_multiplicative"):
        with pytest.raises(ValueError, match="additive noise only"):
            make_noise_coefficient(kind, 0.1, p=0.5)
