"""Model kernels against direct-summation oracles and exact identities."""

import os
import subprocess
import sys

import numpy as np
import pytest

import nudgelab
import oracles as O
from nudgelab.fields import inner_h_raw, norm_raw
from nudgelab.models import (_cube_grid, _sine_from_grid, _sine_to_grid,
                             build_model, random_field)
from nudgelab.noise import increment_from_noise, make_qspec


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300)


@pytest.mark.parametrize("n", [2, 5, 8, 32])
def test_cube_matches_triple_sum_oracle(n):
    # cube grids m = 4, 11, 17 and 71: m = 2n at n = 2 only
    spec = build_model("ac_weak", n)
    rng = np.random.default_rng(2)
    for _ in range(5):
        c = rng.standard_normal(n) / (1.0 + np.arange(1.0, n + 1.0))
        impl = spec.f_raw(c)
        want = c - O.sine_cube_modes(c)
        assert _rel(impl, want) < 1e-12


def test_cube_grid_is_the_fewest_5_smooth_points_at_or_above_2n():
    # 2(m + 1) listed as 2^a 3^b 5^c, not factored
    smooth = {2 ** a * 3 ** b * 5 ** c for a in range(12)
              for b in range(8) for c in range(6)}
    for n in range(1, 301):
        m = _cube_grid(n)
        assert m >= 2 * n and 2 * (m + 1) in smooth, n
        assert not any(2 * (k + 1) in smooth for k in range(2 * n, m)), n


# Run in a fresh interpreter: the bytes of f_raw on 65 rows of ac_weak
# n=64 whose grid values are 94% negative, the sign where numpy's SIMD
# power leaves its vector path
DISPATCH_PROBE = """
import hashlib
import numpy as np
from nudgelab.models import build_model, random_field
spec = build_model("ac_weak", 64)
c = np.stack([random_field(spec, s) for s in range(1, 66)])
c[:, 0] -= 1.75
print(hashlib.sha256(spec.f_raw(c).tobytes()).hexdigest())
"""


def test_cube_bits_do_not_depend_on_simd_dispatch():
    # numpy ignores feature names the host lacks, so this runs anywhere;
    # where AVX-512 is present, the second run takes the AVX2 or baseline
    # loops
    src = os.path.dirname(os.path.dirname(nudgelab.__file__))
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    off = dict(env, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX")
    out = [subprocess.run([sys.executable, "-c", DISPATCH_PROBE], env=e,
                          capture_output=True, text=True, check=True).stdout
           for e in (env, off)]
    assert out[0] == out[1] and len(out[0].strip()) == 64


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


# the rotational kernels against the advective mode sums, on the band of
# n = 8 (kd 2) and of n = 16 (kd 5)
def test_nse_matches_convolution_oracle():
    for model_id in ("nse_weak", "nse_strong"):
        for n in (8, 16):
            spec = build_model(model_id, n)
            for s in range(3):
                u = random_field(spec, s)
                impl = spec.f_raw(u)
                o1, o2 = O.nse_rhs_modes(spec, u[0], u[1])
                want = np.stack([O.to_layout(spec, o1), O.to_layout(spec, o2)])
                assert _rel(impl, want) < 1e-13, (model_id, n)


def test_qg_matches_convolution_oracle():
    spec = build_model("qg", 8)
    for s in range(3):
        th = random_field(spec, s)
        impl = spec.f_raw(th)
        want = O.to_layout(spec, O.qg_rhs_modes(spec, th))
        assert _rel(impl, want) < 1e-12


def test_mhd_matches_convolution_oracle():
    for n in (8, 16):
        spec = build_model("mhd", n)
        for s in range(3):
            z = random_field(spec, s)
            impl = spec.f_raw(z)
            parts = O.mhd_rhs_modes(spec, *z)
            want = np.stack([O.to_layout(spec, p) for p in parts])
            assert _rel(impl, want) < 1e-13, n


def test_strong_nse_projected_kernel_matches_weak():
    w = build_model("nse_weak", 16)
    s = build_model("nse_strong", 16)
    u = random_field(w, 5)
    assert np.allclose(w.f_raw(u), s.f_raw(u), atol=1e-15)


@pytest.mark.parametrize("model_id,inverse,forward",
                         [("nse_strong", 3, 2), ("mhd", 6, 3)])
@pytest.mark.parametrize("rows", [None, 7])
def test_torus_f_raw_transform_count(monkeypatch, model_id, inverse, forward, rows):
    # rotational form: the grid values of each field and of its curl, one
    # forward transform per product (and, on mhd, of a = u1 h2 - u2 h1),
    # one call each whatever the number of rows
    spec = build_model(model_id, 16)
    c = random_field(spec, 1)
    if rows is not None:
        c = np.stack([c] * rows)
    calls = []

    def counting(name):
        real = getattr(np.fft, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("irfft2", "rfft2"):
        monkeypatch.setattr(np.fft, name, counting(name))
    assert spec.f_raw(c).shape == c.shape
    assert (calls.count("irfft2"), calls.count("rfft2")) == (inverse, forward)


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


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("model_id", ["qg", "nse_weak", "mhd"])
def test_fix_col0_and_projection_match_roll_bitwise(model_id, n):
    # the digests pin n = 4, 8 and 32 only: at other sizes the mirror
    # index must still pick the reversed, rolled kx = 0 column
    spec = build_model(model_id, n)
    rng = np.random.default_rng(n)
    shape = (3,) + spec.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert O.bits(spec.aux.fix_col0(raw.copy())) == \
        O.bits(O.fix_col0_roll(raw.copy()))
    for c in (raw, raw[0]):
        assert O.bits(spec.project_raw(c)) == O.bits(O.project_roll(spec, c))


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
