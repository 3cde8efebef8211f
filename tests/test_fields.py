"""Weighted-space bookkeeping: norms, pairings, weight identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgelab.fields import Field, inner_h, inner_h_raw, norm, spec_of_id
from nudgelab.models import build_model, random_field


def test_weight_identity_every_model(all_models):
    for spec in all_models:
        m = spec.mask
        lhs = spec.w_v[m] * spec.w_vstar[m]
        assert np.allclose(lhs, spec.w_h[m] ** 2, rtol=1e-13, atol=0.0), spec.model_id


def test_alpha_equals_dissipation_scale(all_models):
    for spec in all_models:
        m = spec.mask
        quot = spec.a[m] * spec.w_h[m] ** 2 / spec.w_v[m] ** 2
        assert abs(quot.min() - spec.nu) < 1e-12
        assert spec.alpha == pytest.approx(spec.nu, abs=1e-12)


def test_c_emb_is_max_weight_ratio(all_models):
    for spec in all_models:
        m = spec.mask
        assert spec.c_emb == pytest.approx(np.max(spec.w_vstar[m] / spec.w_h[m]))


def test_norm_against_manual_sum(ac_weak_64):
    spec = ac_weak_64
    f = random_field(spec, 0)
    for space, w in (("H", spec.w_h), ("V", spec.w_v), ("Vstar", spec.w_vstar)):
        manual = np.sqrt(np.sum(spec.mult * w ** 2 * np.abs(f.coeffs) ** 2))
        assert norm(f, space) == pytest.approx(manual, rel=1e-14)


def test_norm_unknown_space(ac_weak_64):
    with pytest.raises(ValueError):
        norm(random_field(ac_weak_64, 0), "W")


def test_inner_h_symmetric(all_models):
    for spec in all_models:
        f = random_field(spec, 1)
        g = random_field(spec, 2)
        assert inner_h(f, g) == pytest.approx(inner_h(g, f), rel=1e-12)


def test_pairing_duality_bound(all_models):
    # |<f, g>| <= ||f||_Vstar ||g||_V holds exactly via Cauchy-Schwarz
    for spec in all_models:
        for s in range(5):
            f = random_field(spec, (10, s), smoothness=0.3)
            g = random_field(spec, (11, s), smoothness=0.3)
            lhs = abs(inner_h(f, g))
            rhs = norm(f, "Vstar") * norm(g, "V")
            assert lhs <= rhs * (1.0 + 1e-12), spec.model_id


def test_A_acts_modewise(all_models):
    # a(k) = nu (k pi)^2 on the sine models; on every model A keeps a
    # constrained field constrained, so projecting A u changes nothing
    for spec in all_models:
        if spec.kind == "sine":
            kpi = np.arange(1.0, spec.n + 1.0) * np.pi
            assert np.allclose(spec.a, spec.nu * kpi ** 2, rtol=1e-14)
        au = spec.a * random_field(spec, 3).coeffs
        assert np.allclose(spec.project_raw(au), au, rtol=0.0,
                           atol=1e-14 * np.max(np.abs(au))), spec.model_id


def test_A_coercivity(all_models):
    # <Au, u> >= alpha ||u||_V^2 with alpha = nu
    for spec in all_models:
        u = random_field(spec, 4)
        lhs = inner_h_raw(spec, spec.a * u.coeffs, u.coeffs)
        assert lhs >= spec.alpha * norm(u, "V") ** 2 * (1.0 - 1e-12)


def test_field_is_immutable(ac_weak_64):
    f = random_field(ac_weak_64, 5)
    with pytest.raises((ValueError, AttributeError)):
        f.coeffs[0] = 99.0


def test_mixed_model_operations_rejected():
    a = random_field(build_model("ac_weak", 16), 0)
    b = random_field(build_model("ac_strong", 16), 0)
    with pytest.raises(ValueError):
        inner_h(a, b)


def test_unknown_model_id():
    with pytest.raises(KeyError):
        spec_of_id("no_such_model[n=3]")


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       seed=st.integers(min_value=0, max_value=50))
def test_norm_homogeneity(scale, seed):
    spec = build_model("nse_weak", 16)
    f = random_field(spec, seed)
    g = Field(spec.model_id, scale * f.coeffs)
    for space in ("H", "V", "Vstar"):
        assert norm(g, space) == pytest.approx(scale * norm(f, space), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_norm_ordering_vstar_h(seed):
    # ||f||_Vstar <= c_emb ||f||_H for every field
    for mid in ("ac_weak", "ac_strong", "qg"):
        spec = build_model(mid, 16)
        f = random_field(spec, seed, smoothness=0.2)
        assert norm(f, "Vstar") <= spec.c_emb * norm(f, "H") * (1.0 + 1e-12)
