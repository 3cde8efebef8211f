"""Weighted-space bookkeeping: norms, pairings, weight identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nudgelab.fields import _wsum, inner_h_raw, norm_raw
from nudgelab.config import build_setup, parse_config
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
        manual = np.sqrt(np.sum(spec.mult * w ** 2 * np.abs(f) ** 2))
        assert norm_raw(spec, f, space) == pytest.approx(manual, rel=1e-14)


def test_norm_unknown_space(all_models):
    for spec in all_models:
        with pytest.raises(ValueError, match="unknown space"):
            norm_raw(spec, random_field(spec, 0), "W")


def test_norm_matches_weights_formed_per_call_bitwise(all_models):
    # norm_raw reads the factor mult * w^2 the spec formed once; it must
    # equal the factor formed from the weights on the spot, for one field
    # and for each field of a stack
    for spec in all_models:
        us = np.stack([random_field(spec, s) for s in (1, 2, 3)])
        for space, w in (("H", spec.w_h), ("V", spec.w_v),
                         ("Vstar", spec.w_vstar)):
            want = [float(np.sqrt(_wsum(spec, u, u, spec.mult * (w * w))))
                    for u in us]
            assert norm_raw(spec, us[0], space) == want[0], spec.model_id
            assert norm_raw(spec, us, space).tolist() == want, spec.model_id


def test_inner_h_symmetric(all_models):
    # swapping the arguments keeps every bit, for lone fields and for each
    # field of a 3-field stack
    for spec in all_models:
        us = [random_field(spec, s) for s in range(6)]
        for u, v in zip(us, us[1:]):
            assert inner_h_raw(spec, u, v) == inner_h_raw(spec, v, u), spec.model_id
        a, b = np.stack(us[:3]), np.stack(us[3:])
        assert inner_h_raw(spec, a, b).tolist() == inner_h_raw(spec, b, a).tolist() \
            == [inner_h_raw(spec, u, v) for u, v in zip(a, b)], spec.model_id


def test_pairing_with_itself_is_the_squared_norm_sum_bitwise(all_models):
    # one weighted sum behind norms and pairings: a field paired with itself
    # is the sum under its squared H norm, for lone fields and for each
    # field of a 3-field stack; on these 12 fields numpy's complex product
    # (a * conj(a)).real would differ in the last bit on every torus model
    for spec in all_models:
        mw2 = spec.norm_w2("H")
        us = [random_field(spec, s) for s in range(12)]
        for u in us:
            assert inner_h_raw(spec, u, u) == float(_wsum(spec, u, u, mw2)), spec.model_id
        a = np.stack(us[:3])
        assert inner_h_raw(spec, a, a).tolist() == _wsum(spec, a, a, mw2).tolist()


def test_an_empty_stack_has_no_norms(all_models):
    # one value per field of a stack, so none for a stack of no fields
    for spec in all_models:
        empty = np.zeros((0,) + spec.shape, dtype=spec.dtype)
        for space in ("H", "V", "Vstar"):
            assert norm_raw(spec, empty, space).shape == (0,), spec.model_id
        assert inner_h_raw(spec, empty, empty).shape == (0,), spec.model_id


def test_pairing_duality_bound(all_models):
    # |<f, g>| <= ||f||_Vstar ||g||_V holds exactly via Cauchy-Schwarz
    for spec in all_models:
        for s in range(5):
            f = random_field(spec, (10, s), smoothness=0.3)
            g = random_field(spec, (11, s), smoothness=0.3)
            lhs = abs(inner_h_raw(spec, f, g))
            rhs = norm_raw(spec, f, "Vstar") * norm_raw(spec, g, "V")
            assert lhs <= rhs * (1.0 + 1e-12), spec.model_id


def test_A_acts_modewise(all_models):
    # a(k) = nu (k pi)^2 on the sine models; on every model A keeps a
    # constrained field constrained, so projecting A u changes nothing
    for spec in all_models:
        if spec.kind == "sine":
            kpi = np.arange(1.0, spec.n + 1.0) * np.pi
            assert np.allclose(spec.a, spec.nu * kpi ** 2, rtol=1e-14)
        au = spec.a * random_field(spec, 3)
        assert np.allclose(spec.project_raw(au), au, rtol=0.0,
                           atol=1e-14 * np.max(np.abs(au))), spec.model_id


def test_A_coercivity(all_models):
    # <Au, u> >= alpha ||u||_V^2 with alpha = nu
    for spec in all_models:
        u = random_field(spec, 4)
        lhs = inner_h_raw(spec, spec.a * u, u)
        assert lhs >= spec.alpha * norm_raw(spec, u, "V") ** 2 * (1.0 - 1e-12)


@pytest.mark.parametrize("w0", [0.0, 1.0])
def test_setup_initial_fields_are_read_only(w0):
    # every member and sweep cell of a run shares u0 and v0
    setup = build_setup(parse_config("model.id = ac_weak\nmodel.n = 16\n"
                                     "init.w0 = %r\n" % w0))
    for arr in (setup.u0, setup.v0):
        with pytest.raises(ValueError):
            arr[0] = 99.0


@settings(max_examples=25, deadline=None)
@given(scale=st.floats(min_value=1e-6, max_value=1e6),
       seed=st.integers(min_value=0, max_value=50))
def test_norm_homogeneity(scale, seed):
    spec = build_model("nse_weak", 16)
    f = random_field(spec, seed)
    g = scale * f
    for space in ("H", "V", "Vstar"):
        assert norm_raw(spec, g, space) == pytest.approx(
            scale * norm_raw(spec, f, space), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=50))
def test_norm_ordering_vstar_h(seed):
    # ||f||_Vstar <= c_emb ||f||_H for every field
    for mid in ("ac_weak", "ac_strong", "qg"):
        spec = build_model(mid, 16)
        f = random_field(spec, seed, smoothness=0.2)
        assert norm_raw(spec, f, "Vstar") <= \
            spec.c_emb * norm_raw(spec, f, "H") * (1.0 + 1e-12)
