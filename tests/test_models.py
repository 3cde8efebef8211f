"""Model kernels against direct-summation oracles and exact identities."""

import numpy as np
import pytest

import oracles as O
from nudgelab.fields import inner_h_raw, norm_raw
from nudgelab.models import (_sine_from_grid, _sine_to_grid, build_model,
                             random_field)
from nudgelab.noise import increment_from_noise, make_qspec


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


def test_cube_matches_triple_sum_oracle():
    spec = build_model("ac_weak", 8)
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.standard_normal(8) / (1.0 + np.arange(1.0, 9.0))
        impl = spec.f_raw(c)
        want = c - O.sine_cube_modes(c)
        assert _rel(impl, want) < 1e-12


def test_strong_ac_same_kernel_different_norms():
    cw = build_model("ac_weak", 8)
    cs = build_model("ac_strong", 8)
    c = np.linspace(0.3, -0.2, 8)
    assert np.allclose(cw.f_raw(c), cs.f_raw(c), rtol=0, atol=1e-15)


def test_sin_pi_x_cube_identity():
    # sin^3 = (3 sin - sin 3.)/4 pinned through the basis scaling
    spec = build_model("ac_weak", 8)
    c = np.zeros(8)
    c[0] = 1.0 / np.sqrt(2.0)      # u = sin(pi x)
    f = spec.f_raw(c)
    want = np.zeros(8)
    want[0] = (1.0 - 0.75) / np.sqrt(2.0)
    want[2] = 0.25 / np.sqrt(2.0)
    assert np.allclose(f, want, atol=1e-15)


def test_nse_matches_convolution_oracle():
    spec = build_model("nse_weak", 8)
    for s in range(3):
        u = random_field(spec, s)
        impl = spec.f_raw(u)
        o1, o2 = O.nse_rhs_modes(spec, u[0], u[1])
        want = np.stack([O.to_layout(spec, o1), O.to_layout(spec, o2)])
        assert _rel(impl, want) < 1e-12


def test_qg_matches_convolution_oracle():
    spec = build_model("qg", 8)
    for s in range(3):
        th = random_field(spec, s)
        impl = spec.f_raw(th)
        want = O.to_layout(spec, O.qg_rhs_modes(spec, th))
        assert _rel(impl, want) < 1e-12


def test_mhd_matches_convolution_oracle():
    spec = build_model("mhd", 8)
    for s in range(3):
        z = random_field(spec, s)
        impl = spec.f_raw(z)
        parts = O.mhd_rhs_modes(spec, *z)
        want = np.stack([O.to_layout(spec, p) for p in parts])
        assert _rel(impl, want) < 1e-12


def test_strong_nse_projected_kernel_matches_weak():
    w = build_model("nse_weak", 16)
    s = build_model("nse_strong", 16)
    u = random_field(w, 5)
    assert np.allclose(w.f_raw(u), s.f_raw(u), atol=1e-15)


def test_advective_cancellation(all_models):
    for spec in all_models:
        if spec.kind != "torus":
            continue
        for s in range(10):
            u = random_field(spec, (20, s))
            f = spec.f_raw(u)
            num = abs(inner_h_raw(spec, f, u))
            den = norm_raw(spec, f, "Vstar") * norm_raw(spec, u, "V")
            assert num / den < 1e-10, spec.model_id


def test_kappa_weak_ac_explicit():
    # kappa = 1 + ||u||_V^2; u = sin(pi x) has ||u||_V^2 = pi^2 / 2
    spec = build_model("ac_weak", 16)
    c = np.zeros(16)
    c[0] = 1.0 / np.sqrt(2.0)
    assert spec.kappa_raw(c) == pytest.approx(1.0 + np.pi ** 2 / 2.0, rel=1e-13)


def test_kappa_strong_ac_explicit():
    spec = build_model("ac_strong", 16)
    u = random_field(spec, 6)
    want = 1.0 + (1.0 + norm_raw(spec, u, "H") ** 2) * norm_raw(spec, u, "V") ** 2
    assert spec.kappa_raw(u) == pytest.approx(want, rel=1e-12)


def test_kappa_nonnegative_everywhere(all_models):
    for spec in all_models:
        u = random_field(spec, 7)
        assert spec.kappa_raw(u) >= 0.0


def test_riesz_multiplier_isometry_and_divergence():
    # Rperp = (rz1, rz2) per wavevector: unit length and orthogonal to k
    # on the band, so it maps a scalar to a solenoidal field of equal norm
    tor = build_model("qg", 16).aux
    band = tor.mask
    mag2 = np.abs(tor.rz1) ** 2 + np.abs(tor.rz2) ** 2
    assert np.allclose(mag2[band], 1.0, rtol=0.0, atol=1e-15)
    assert np.max(np.abs(tor.kx * tor.rz1 + tor.ky * tor.rz2)[band]) < 1e-14


def test_leray_projection_idempotent_and_kills_gradients():
    spec = build_model("nse_weak", 16)
    tor = spec.aux
    rng = np.random.default_rng(9)
    raw = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    once = spec.project_raw(raw)
    twice = spec.project_raw(once)
    assert np.allclose(once, twice, rtol=0.0, atol=1e-15)
    phi = once[0]
    grad = np.stack([1j * tor.kx * phi, 1j * tor.ky * phi])
    assert np.max(np.abs(spec.project_raw(grad))) < 1e-13


def test_linear_variant_drops_f():
    spec = build_model("nse_weak", 16, linear=True)
    u = random_field(spec, 10)
    assert np.all(spec.f_raw(u) == 0.0)
    assert spec.kappa_raw(u) == 0.0


def test_registry_returns_cached_instance():
    a = build_model("qg", 16)
    b = build_model("qg", 16)
    assert a is b
    c = build_model("qg", 16, nu=0.5)
    assert c is not a


def test_registry_keeps_nearby_nu_apart():
    # 0.1 + 0.2 and 0.3 agree to 12 significant digits but are two floats
    near = build_model("ac_weak", 16, nu=0.1 + 0.2)
    exact = build_model("ac_weak", 16, nu=0.3)
    assert near is not exact
    kpi2 = (np.arange(1, 17) * np.pi) ** 2
    assert near.nu == 0.1 + 0.2 and exact.nu == 0.3
    assert np.array_equal(near.a, (0.1 + 0.2) * kpi2)
    assert np.array_equal(exact.a, 0.3 * kpi2)


def test_sobolev_norm_option():
    hom = build_model("ac_weak", 16)
    sob = build_model("ac_weak", 16, norms="sobolev")
    k = np.arange(1.0, 17.0)
    assert np.allclose(hom.w_v, k * np.pi)
    assert np.allclose(sob.w_v, np.sqrt(1.0 + (k * np.pi) ** 2))
    with pytest.raises(ValueError):
        build_model("nse_weak", 16, norms="sobolev")


def test_grid_roundtrip(all_models):
    # sine: the doubled collocation grid; torus: the N x N grid, with the
    # model's constraints imposed again on the way back
    for spec in all_models:
        c = random_field(spec, 11)
        if spec.kind == "sine":
            back = _sine_from_grid(_sine_to_grid(c, 2 * spec.n), spec.n)
        else:
            back = spec.project_raw(spec.aux.from_grid(spec.aux.to_grid(c)))
        assert np.allclose(back, c, atol=1e-13), spec.model_id


@pytest.mark.parametrize("model_id", ["nse_weak", "nse_strong", "qg", "mhd"])
def test_torus_kernels_meet_constraints(model_id):
    spec = build_model(model_id, 16)
    rng = np.random.default_rng(15)
    raw = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    u = random_field(spec, 16)
    q = make_qspec(spec)
    outputs = {
        "project_raw": spec.project_raw(raw),
        "random_field": u,
        "f_raw": spec.f_raw(u),
        "increment_from_noise": increment_from_noise(
            spec, q, 0.01, rng.standard_normal(q.draw_shape)),
    }
    for name, c in outputs.items():
        assert np.max(np.abs(c)) > 0.0, name
        assert O.torus_constraints(spec, c) == [], name


def test_constraint_oracle_catches_band_violation():
    spec = build_model("nse_weak", 16)
    bad = random_field(spec, 12)
    bad[0, 0, spec.n // 2] = 1.0          # outside the dealias band
    assert "band" in O.torus_constraints(spec, bad)


def test_constraint_oracle_catches_mean_component():
    spec = build_model("qg", 16)
    bad = random_field(spec, 13)
    bad[0, 0] += 0.5
    assert O.torus_constraints(spec, bad) == ["mean"]


def test_random_field_normalization(all_models):
    for spec in all_models:
        u = random_field(spec, 14, h_norm=2.5)
        assert norm_raw(spec, u, "H") == pytest.approx(2.5, rel=1e-12)


def test_build_model_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_model("heat", 16)
    with pytest.raises(ValueError):
        build_model("qg", 16, nu=0.0)
