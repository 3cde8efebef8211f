"""Q-Wiener increments, noise coefficients, Hilbert-Schmidt norms."""

import re

import numpy as np
import pytest

from nudgelab.fields import norm_raw
from nudgelab.models import build_model, random_field
from nudgelab.noise import (apply_G_raw, hs_norm_sq, increment_from_noise,
                            make_noise_coefficient, make_qspec)
import oracles as O
from oracles import hs_pointwise_per_direction


def test_spectrum_and_rank_defaults():
    spec = build_model("ac_weak", 32)
    q = make_qspec(spec, delta=0.39)
    k = np.arange(1.0, 33.0)
    lam = (1.0 + k ** 2) ** -1.0
    lam[8:] = 0.0                      # rank follows the observation cutoff
    assert np.allclose(q.lam, lam)
    assert np.array_equal(np.flatnonzero(q.lam), np.arange(8))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
@pytest.mark.parametrize("model_id", ["ac_weak", "ac_strong", "nse_weak",
                                      "nse_strong", "qg", "mhd"])
def test_full_band_spectrum_keeps_every_retained_mode(model_id, n):
    # with no delta, Q covers the whole dealiased band, whose corners on
    # the torus reach |k| = kd sqrt(2), beyond the largest integer below it
    spec = build_model(model_id, n)
    q = make_qspec(spec)
    assert np.array_equal(q.lam > 0.0, spec.mask)


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
        dirs = O.noise_directions(spec, q)
        assert len(dirs) > 0
        for lam, raw in dirs[:6]:
            assert norm_raw(spec, raw, "H") == pytest.approx(1.0, rel=1e-10), \
                spec.model_id


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("model_id", ["qg", "nse_weak", "mhd"])
@pytest.mark.parametrize("delta", [None, 1.0])
def test_increment_and_directions_match_by_hand_bitwise(model_id, n, delta):
    # the cached 1/w_H and the mirror index against the same arithmetic
    # formed per call, at sizes no digest pins
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=delta)
    block = np.random.default_rng(n).standard_normal((2,) + q.draw_shape)
    for b in (block, block[0]):
        assert O.bits(increment_from_noise(spec, q, 1e-3, b)) == \
            O.bits(O.increment_roll(spec, q, 1e-3, b))


@pytest.mark.parametrize("delta,rank", [(None, 32), (0.05, 32), (0.39, 8),
                                        (0.9, 3), (4.0, 0)])
def test_sine_draw_layout_is_the_rank(delta, rank):
    # one normal per direction of Q's rank, modes 1..K: the increment is
    # that of the block embedded in the whole band, with zeros above K
    spec = build_model("ac_strong", 32)
    q = make_qspec(spec, delta=delta)
    assert q.draw_shape == (rank,) == (np.count_nonzero(q.lam),)
    assert not q.lam[rank:].any()
    block = np.random.default_rng(1).standard_normal((2,) + q.draw_shape)
    whole = np.zeros((2, 32))
    whole[:, :rank] = block
    assert O.bits(increment_from_noise(spec, q, 1e-3, block)) == O.bits(
        np.sqrt(1e-3) * q.lam * q.inv_wh * whole)


@pytest.mark.parametrize("model_id", ["ac_weak", "ac_strong"])
def test_sine_increments_couple_across_n(model_id):
    # the draws no longer depend on n: one block gives n = 16 and n = 32
    # the same increment on modes 1..K, bit for bit, and exactly 0 above
    block = np.random.default_rng(2).standard_normal((3, 8))
    incs = []
    for n in (16, 32):
        spec = build_model(model_id, n)
        q = make_qspec(spec, delta=0.39)
        assert q.draw_shape == (8,)
        incs.append(increment_from_noise(spec, q, 1e-3, block))
        assert np.all(incs[-1][:, 8:] == 0.0)
    assert O.bits(incs[0][:, :8]) == O.bits(incs[1][:, :8])


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
            for lam, raw in O.noise_directions(spec, q):
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
               ** 2 for lam, raw in O.noise_directions(spec, q))
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("model_id", ["nse_weak", "nse_strong", "mhd"])
def test_pointwise_hs_vector_models_match_assembly(model_id):
    spec = build_model(model_id, 8)
    q = make_qspec(spec)
    u = random_field(spec, 9)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    want = sum(lam ** 2 * norm_raw(spec, apply_G_raw(coef, spec, u, raw), "H")
               ** 2 for lam, raw in O.noise_directions(spec, q))
    assert want > 0.0
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("model_id", ["ac_weak", "qg", "nse_weak",
                                      "nse_strong", "mhd"])
@pytest.mark.parametrize("kind", ["additive", "state_scaled",
                                  "pointwise_multiplicative"])
def test_hs_rank_zero_is_zero(model_id, kind):
    spec = build_model(model_id, 8)
    q = make_qspec(spec, delta=4.0)     # K_Q = floor(pi / 4) = 0
    coef = make_noise_coefficient(kind, 0.3, p=0.5 if kind == "additive"
                                  else 0.0, delta=0.39)
    assert O.noise_directions(spec, q) == []
    assert hs_norm_sq(coef, spec, random_field(spec, 9), q) == 0.0


@pytest.mark.parametrize("model_id", ["nse_weak", "nse_strong", "mhd"])
def test_pointwise_hs_is_zero_where_dealiasing_removes_the_noise(model_id):
    # at n = 4 (kd = 1) no divergence-free part of u . e is left in the
    # band, the runs cli._require_live_noise refuses; the form's round-off
    # cancels there exactly, as the sum over the directions' does
    spec = build_model(model_id, 4)
    q = make_qspec(spec)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    assert len(O.noise_directions(spec, q)) > 0
    for s in range(8):
        assert hs_norm_sq(coef, spec, random_field(spec, s), q) == 0.0


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("model_id", ["qg", "nse_weak", "nse_strong", "mhd"])
@pytest.mark.parametrize("delta", [0.39, 0.8, None])
def test_torus_hs_form_matches_per_direction_sum(model_id, n, delta):
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=delta)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    u = random_field(spec, n)
    want = hs_pointwise_per_direction(coef, spec, u, q)
    assert want > 0.0
    assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("model_id", ["qg", "nse_strong", "mhd"])
def test_torus_pointwise_hs_runs_no_transform(monkeypatch, model_id):
    # make_qspec builds the form; the monitor then reads each state in
    # one weighted sum, with no grid transform
    spec = build_model(model_id, 16)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    us = [random_field(spec, s) for s in range(3)]

    def refuse(*args):
        raise AssertionError("hs_norm_sq transformed a field")

    monkeypatch.setattr(spec.aux, "to_grid", refuse)
    monkeypatch.setattr(spec.aux, "from_grid", refuse)
    for u in us:
        assert hs_norm_sq(coef, spec, u, q) > 0.0


@pytest.mark.parametrize("delta,rank", [(0.39, 8), (0.1, 31)])
def test_sine_pointwise_hs_makes_three_transforms(monkeypatch, delta, rank):
    # u to the grid, the stack of directions to the grid, the products
    # back: three DSTs per call whatever Q's rank
    import scipy.fft
    spec = build_model("ac_weak", 32)
    q = make_qspec(spec, delta=delta)
    assert len(O.noise_directions(spec, q)) == rank
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    calls = []
    real = scipy.fft.dst

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.fft, "dst", counted)
    for s in range(2):
        assert hs_norm_sq(coef, spec, random_field(spec, s), q) > 0.0
        assert len(calls) == 3 * (s + 1)


# grids whose whole band holds more than 16 noise directions
HS_STACK_GRIDS = [("ac_weak", 64), ("ac_strong", 64), ("qg", 32),
                  ("nse_weak", 16), ("nse_strong", 16), ("mhd", 16)]


# ids name the rank of Q: "auto" the whole band (no delta), else
# K_Q = floor(pi / delta)
@pytest.mark.parametrize("model_id,n", HS_STACK_GRIDS)
@pytest.mark.parametrize("delta", [None, 1.0], ids=["auto", "3"])
def test_pointwise_hs_stacked_equals_per_direction_bitwise(model_id, n, delta):
    # on either grid the oracle adds one norm per direction and the
    # monitor takes one weighted sum, so the two agree to round-off
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=delta)
    if delta is None:
        assert len(O.noise_directions(spec, q)) > 16
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    for seed in (31, 32):
        u = random_field(spec, seed)
        assert hs_norm_sq(coef, spec, u, q) == pytest.approx(
            hs_pointwise_per_direction(coef, spec, u, q), rel=1e-12)


# On ac_strong K_w adds (p pi)^2 cos(p th r) up to p = n, terms of both
# signs whose sum cancels to far below the largest of them, so the grid
# form's round-off grows with n there (3e-13 at n=64, 1.1e-12 at n=256)
GRID_FORM_REL = {("ac_strong", 64): 1e-11, ("ac_strong", 256): 1e-11}


@pytest.mark.parametrize("model_id,n",
                         [("ac_weak", n) for n in (2, 3, 8, 17, 64, 256)]
                         + [("ac_strong", n) for n in (2, 3, 8, 17, 32, 64, 256)])
def test_sine_pointwise_hs_matches_the_cosine_grid_form(model_id, n):
    # the oracle shares no transform with the package: sines and cosines
    # of the 2n collocation grid, summed as a Toeplitz-minus-Hankel form
    spec = build_model(model_id, n)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.7)
    rel = GRID_FORM_REL.get((model_id, n), 1e-12)
    for delta in (0.05, 0.1, 0.39, 1.0):
        q = make_qspec(spec, delta=delta)
        for seed in (11, 12):
            u = random_field(spec, seed)
            want = O.hs_pointwise_grid_form(coef, spec, u, q)
            assert want > 0.0
            assert hs_norm_sq(coef, spec, u, q) == pytest.approx(want, rel=rel)
    # delta 4.0 leaves Q rank 0
    q = make_qspec(spec, delta=4.0)
    u = random_field(spec, 11)
    assert hs_norm_sq(coef, spec, u, q) == 0.0
    assert O.hs_pointwise_grid_form(coef, spec, u, q) == 0.0


@pytest.mark.parametrize("model_id,n", HS_STACK_GRIDS)
@pytest.mark.parametrize("delta", [None, 4.0], ids=["auto", "0"])
@pytest.mark.parametrize("kind", ["additive", "state_scaled",
                                  "pointwise_multiplicative"])
def test_hs_of_one_state_is_its_assembled_sum(model_id, n, delta, kind):
    # the monitor of one state is one float: the sum over the noise
    # directions e of lambda^2 ||G_delta(u) e||_H^2, 0 when Q has rank 0;
    # it leaves the state as it found it and repeats to the bit
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=delta)
    coef = make_noise_coefficient(kind, 0.7, p=0.5 if kind == "additive"
                                  else 0.0, delta=0.39)
    for seed in (0, 1):
        u = random_field(spec, seed)
        before = O.bits(u)
        got = hs_norm_sq(coef, spec, u, q)
        assert isinstance(got, float) and not isinstance(got, np.ndarray)
        assert O.bits(u) == before
        assert hs_norm_sq(coef, spec, u, q) == got
        want = 0.0
        for lam, raw in O.noise_directions(spec, q):
            want += lam ** 2 * norm_raw(spec, apply_G_raw(coef, spec, u, raw),
                                        "H") ** 2
        assert (got == 0.0) == (delta is not None) == (want == 0.0)
        assert got == pytest.approx(want, rel=1e-10), seed


@pytest.mark.parametrize("model_id,n,other", [("ac_weak", 64, 16),
                                              ("qg", 32, 16)])
@pytest.mark.parametrize("kind", ["state_scaled", "pointwise_multiplicative"])
def test_a_state_off_the_grid_fails_loudly(model_id, n, other, kind):
    # a state of another grid size, or stacked on two leading axes, is
    # refused with both shapes named, not zero-padded or broadcast
    spec = build_model(model_id, n)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient(kind, 0.3)
    dw = increment_from_noise(spec, q, 0.01, np.random.default_rng(3)
                              .standard_normal(q.draw_shape))
    small = random_field(build_model(model_id, other), 1)
    u = random_field(spec, 1)
    for bad in (small, np.stack([small] * 2), np.stack([np.stack([u] * 2)] * 2)):
        msg = "%s.*%s" % (re.escape(str(bad.shape)), re.escape(str(spec.shape)))
        with pytest.raises(ValueError, match=msg):
            hs_norm_sq(coef, spec, bad, q)
        with pytest.raises(ValueError, match=msg):
            apply_G_raw(coef, spec, bad, dw)


@pytest.mark.parametrize("model_id", ["ac_weak", "qg"])
@pytest.mark.parametrize("kind", ["additive", "state_scaled",
                                  "pointwise_multiplicative"])
def test_apply_G_refuses_a_stack_of_states(model_id, kind):
    # G_delta(u) dw and ||G_delta(u)||^2 read one state, so a stack of
    # states is refused with both shapes named
    spec = build_model(model_id, 16)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient(kind, 0.3)
    dw = increment_from_noise(spec, q, 0.01, np.random.default_rng(3)
                              .standard_normal(q.draw_shape))
    us = np.stack([random_field(spec, s) for s in range(16)])
    for stack in (us[:2], us):
        msg = "%s.*%s" % (re.escape(str(stack.shape)), re.escape(str(spec.shape)))
        with pytest.raises(ValueError, match=msg):
            apply_G_raw(coef, spec, stack, dw)
        with pytest.raises(ValueError, match=msg):
            hs_norm_sq(coef, spec, stack, q)


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
               for lam, raw in O.noise_directions(spec, q))
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
    from nudgelab.integrate import Record, StepConfig
    spec = build_model("ac_strong", 16)
    q = make_qspec(spec)
    coef = make_noise_coefficient("state_scaled", 0.5)
    u0 = random_field(spec, 24, h_norm=0.5)     # decays monotonically
    cfg = StepConfig(dt=1e-2, T=0.5)
    res = O.reference_only(spec, cfg, u0, Record((), u_path=None))
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


@pytest.mark.parametrize("delta", [0.0, -0.0, -0.25, -0.39, np.nan, -np.inf])
@pytest.mark.parametrize("model_id", ["ac_weak", "qg"])
def test_noise_builders_refuse_a_delta_that_is_not_positive(model_id, delta):
    # delta alone sets the rank of Q: 0.0 must not read as "no delta" (the
    # full band), nor a negative one as a rank below 0 (no noise at all),
    # nor give the additive kind a complex sigma delta^p
    spec = build_model(model_id, 16)
    with pytest.raises(ValueError, match="delta must be positive"):
        make_qspec(spec, delta=delta)
    for kind, p in (("additive", 0.5), ("additive", 0.0),
                    ("state_scaled", 0.0)):
        with pytest.raises(ValueError, match="delta must be positive"):
            make_noise_coefficient(kind, 0.1, p=p, delta=delta)
