"""Observation operators: projections, cell averages, the interpolation
constant, and the threshold formula."""

import numpy as np
import pytest

import oracles as O
from nudgelab.fields import inner_h_raw, norm_raw
from nudgelab.models import build_model, random_field
from nudgelab.observe import (_single_mode_probes, apply_observation_raw,
                              estimate_interp_constant, eta0, make_observation)


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


def test_volume_cell_averages_match_quadrature():
    # the operator's per-cell integrals of the basis, times the cell count
    spec = build_model("ac_weak", 12)
    op = make_observation(spec, "volume", 0.2)
    f = random_field(spec, 3)
    avg = op.cells * (op.data @ f)
    cells = op.cells
    for i in range(cells):
        a, b = i / cells, (i + 1) / cells
        assert avg[i] == pytest.approx(O.cell_average_quad(f, a, b),
                                       abs=1e-13)


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


@pytest.mark.parametrize("n", [6, 12])
@pytest.mark.parametrize("model_id", ["qg", "nse_weak", "mhd"])
@pytest.mark.parametrize("kind", ["modal", "volume"])
def test_single_mode_probes_match_by_hand_bitwise(model_id, n, kind):
    # delta = pi / kd puts the probed band at the edge of the retained one
    spec = build_model(model_id, n)
    op = make_observation(spec, kind, np.pi / spec.aux.kd)
    got = _single_mode_probes(spec, op)
    want = O.single_mode_probes(spec, op)
    assert len(got) == len(want) > 0
    assert [O.bits(p) for p in got] == [O.bits(p) for p in want]


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
