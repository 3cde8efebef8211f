"""Time stepping: exact recursions, coupling structure, guards, noise
stream discipline."""

import numpy as np
import pytest

import oracles as O
import nudgelab.integrate as I
from nudgelab.fields import _wsum
from nudgelab.integrate import (_DRAW_BYTES, SERIES, BlowupError, Group,
                                Record, StepConfig, _blocks, _rng_for,
                                simulate_members, simulate_pair)
from nudgelab.models import build_model, random_field
from nudgelab.noise import hs_norm_sq, make_noise_coefficient, make_qspec
from nudgelab.observe import make_observation


# every scalar series, and member 0's observation path
WITH_Y = Record(SERIES)


def _setup(mid="ac_weak", n=16, sigma=0.0, mu=0.0, dt=1e-2, T=0.5, **kw):
    spec = build_model(mid, n)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", sigma)
    cfg = StepConfig(dt=dt, T=T, mu=mu, **kw)
    return spec, op, q, coef, cfg


def test_linear_mode_recursion_exact():
    # with F off, each mode follows the scalar resolvent recursion
    spec = build_model("ac_weak", 8, linear=True)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.0)
    cfg = StepConfig(dt=2e-2, T=0.4, mu=0.0)
    u0 = np.zeros(8)
    u0[2] = 1.0
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0, Record((), u_path=None))
    want = O.imex_mode_path(spec.a[2], cfg.dt, cfg.nsteps)
    got = np.array([res.u_path[i][2] for i in range(cfg.nsteps + 1)])
    assert np.max(np.abs(got - want)) < 1e-15


@pytest.mark.parametrize("implicit", [False, True])
def test_reference_ignores_coupling_and_noise(implicit):
    # coupling and noise never touch the reference trajectory: a noisy,
    # nudged run's reference equals a reference-only run's, bit for bit
    spec, op, q, coef, cfg = _setup(sigma=0.3, mu=10.0,
                                    implicit_nudging=implicit)
    u0 = random_field(spec, 0)
    v0 = random_field(spec, 1)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 5)
    alone = O.reference_only(spec, cfg, u0)
    assert np.array_equal(res.u_final, alone.u_final)
    assert np.array_equal(res.u_h, alone.u_h)
    assert np.array_equal(res.kappa, alone.kappa)


def test_one_nonlinearity_call_per_step(monkeypatch):
    # the reference and every member step in one stacked call
    spec, op, q, coef, cfg = _setup(sigma=0.3, mu=10.0, T=0.1)
    calls = []
    f_raw = spec.f_raw

    def counted(x):
        calls.append(x.shape)
        return f_raw(x)

    monkeypatch.setattr(spec, "f_raw", counted)
    _, [[cell]] = simulate_members(spec, cfg, [Group(op, coef, q, (cfg.mu,))],
                                   random_field(spec, 0), random_field(spec, 1),
                                   [_rng_for(s) for s in range(3)])
    assert cell.errors == [None] * 3
    assert calls == [(4,) + spec.shape] * cfg.nsteps


@pytest.mark.parametrize("mid,n,kind,obs,implicit,deltas", [
    ("ac_weak", 16, "additive", "modal", True, (0.2, 0.39)),
    ("qg", 8, "pointwise_multiplicative", "volume", False, (0.8, 1.6)),
    ("nse_weak", 8, "state_scaled", "modal", False, (0.8, 1.6))])
def test_grouped_members_equal_solo_runs(mid, n, kind, obs, implicit, deltas):
    # two observation scales, mu = 0 among the cells: every estimate of
    # the grouped run, and its group's monitors, equal its run alone
    spec = build_model(mid, n)
    cfg = StepConfig(dt=1e-3, T=0.03, implicit_nudging=implicit)
    p = 0.5 if kind == "additive" else 0.0
    groups = [Group(make_observation(spec, obs, d),
                    make_noise_coefficient(kind, 0.3, p=p, delta=d),
                    make_qspec(spec, delta=d), (0.0, 40.0, 15.0))
              for d in deltas]
    u0, v0 = random_field(spec, 0), random_field(spec, 1)
    seeds = [21, 22]
    ref, res = simulate_members(spec, cfg, groups, u0, v0,
                                [_rng_for(s) for s in seeds],
                                WITH_Y)
    for grp, cells in zip(groups, res):
        for mu, cell in zip(grp.mus, cells):
            for m in range(len(seeds)):
                got = cell.member(m)
                solo = simulate_pair(spec, StepConfig(
                    dt=cfg.dt, T=cfg.T, mu=mu, implicit_nudging=implicit),
                    grp.op, grp.coef, grp.q, u0, v0, seeds[m],
                    WITH_Y if m == 0 else Record())
                for name in ("w_h", "w_vstar", "u_h", "v_h", "hs", "kappa",
                             "v_final", "dy_h", "y_h"):
                    want = getattr(solo, name)
                    assert (want is None) == (getattr(got, name) is None)
                    assert want is None or np.array_equal(
                        getattr(got, name), want), (mu, m, name)
    assert np.array_equal(ref.u_h, solo.u_h)
    assert np.array_equal(ref.u_final, solo.u_final)
    if kind == "additive":
        # sigma_delta = sigma * delta^p: each group has its own monitor
        assert not np.array_equal(res[0][0].hs, res[1][0].hs)


def test_record_request_keeps_exactly_the_listed_steps():
    # a monitor at step i reads only the state at step i: a run asked for a
    # few steps, given in any order, returns the every-step values there
    spec = build_model("qg", 8)
    op = make_observation(spec, "volume", 0.8)
    q = make_qspec(spec, delta=0.8)
    coef = make_noise_coefficient("pointwise_multiplicative", 0.3)
    cfg = StepConfig(dt=1e-3, T=0.03, mu=20.0)
    u0, v0 = random_field(spec, 0), random_field(spec, 1)
    every = simulate_pair(spec, cfg, op, coef, q, u0, v0, 4,
                          WITH_Y._replace(u_path=None))
    steps = [0, 7, 29, 30]
    some = simulate_pair(spec, cfg, op, coef, q, u0, v0, 4,
                         Record(SERIES, steps[::-1], [30, 3]))
    assert np.array_equal(some.times, every.times[steps])
    for name in SERIES:
        assert np.array_equal(getattr(some, name), getattr(every, name)[steps])
    assert np.array_equal(some.u_path, every.u_path[[3, 30]])
    assert some.v_path.shape == (0,) + spec.shape
    assert np.array_equal(some.v_final, every.v_final)
    # nothing asked, nothing kept, and the same final states
    bare = simulate_pair(spec, cfg, op, coef, q, u0, v0, 4, Record((), ()))
    assert bare.times.size == 0 and bare.w_h is None and bare.u_path.size == 0
    assert np.array_equal(bare.v_final, every.v_final)


@pytest.mark.parametrize("record", [
    Record(at=[0, 31]),                   # past the last step
    Record(u_path=[-1]),
    Record(v_path=[31]),
    Record(("w_H",))])                    # no such series
def test_record_request_refuses_what_it_cannot_record(record):
    spec, op, q, coef, cfg = _setup(T=0.3)
    with pytest.raises(ValueError, match="cannot record"):
        simulate_pair(spec, cfg, op, coef, q, random_field(spec, 0),
                      random_field(spec, 1), 0, record)


def test_same_fixed_point_is_exact():
    spec, op, q, coef, cfg = _setup(mu=30.0)
    u0 = random_field(spec, 2)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert np.all(res.w_h == 0.0)
    assert np.array_equal(res.u_final, res.v_final)


def test_mu_zero_decouples():
    spec, op, q, coef, cfg = _setup(mu=0.0)
    u0 = random_field(spec, 3)
    v0 = random_field(spec, 4)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 0)
    solo = simulate_pair(spec, cfg, op, coef, q, v0, v0, 0)
    assert np.allclose(res.v_final, solo.u_final, atol=1e-14)


def test_reference_stream_invariant_under_sigma():
    # draws are consumed whether or not sigma > 0, so u is bit-stable
    spec, op, q, _, cfg = _setup(mu=20.0)
    u0 = random_field(spec, 5)
    v0 = random_field(spec, 6)
    paths = {}
    for sigma in (0.0, 0.25):
        coef = make_noise_coefficient("additive", sigma)
        res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 77)
        paths[sigma] = res.u_h
    assert np.array_equal(paths[0.0], paths[0.25])


def test_noisy_run_reproducible():
    spec, op, q, coef, cfg = _setup(sigma=0.4, mu=15.0)
    u0 = random_field(spec, 7)
    v0 = random_field(spec, 8)
    a = simulate_pair(spec, cfg, op, coef, q, u0, v0, 123)
    b = simulate_pair(spec, cfg, op, coef, q, u0, v0, 123)
    c = simulate_pair(spec, cfg, op, coef, q, u0, v0, 124)
    assert np.array_equal(a.v_final, b.v_final)
    assert not np.array_equal(a.v_final, c.v_final)


@pytest.mark.parametrize("mid,size,delta,shape,chunk,n", [
    # the sine rank at delta 0.05: modes 1..62
    pytest.param("ac_weak", 64, 0.05, (62,), 33, n, id=str(n))
    for n in (1, 2, 2 * 33 + 3)] + [
    # two torus streams, velocity first
    pytest.param("mhd", 8, 0.39, (2, 2, 8, 5), 12, 2 * 12 + 3, id="mhd-27")])
def test_blocks_equal_one_step_draws_in_one_buffer(mid, size, delta, shape,
                                                   chunk, n):
    # _blocks draws chunk steps per generator call; over n steps,
    # n % chunk != 0 included, it yields n blocks, each the one-step draws
    # of fresh generators, all views of one buffer of min(chunk, n) steps
    assert make_qspec(build_model(mid, size), delta=delta).draw_shape == shape
    assert _DRAW_BYTES // (8 * int(np.prod(shape))) == chunk
    seeds = [5, 6, 7]
    fresh = [_rng_for(s) for s in seeds]
    bases = set()
    count = 0
    made = [_rng_for(s) for s in seeds]
    for i, block in enumerate(_blocks(made, len(seeds), n, shape)):
        assert block.shape == (len(seeds),) + shape
        bases.add(id(block.base))
        assert block.base.shape == (len(seeds), min(chunk, n)) + shape
        for m, rng in enumerate(fresh):
            assert np.array_equal(block[m], rng.standard_normal(shape)), (i, m)
        count += 1
    assert count == n and len(bases) == 1


@pytest.mark.parametrize("mid,n,members,T,delta", [
    # 70 steps of the sine rank at delta 0.05, 62 modes: two chunks of 33,
    # then 4
    pytest.param("ac_weak", 64, 3, 0.07, 0.05, id="ac_weak-64-3-0.07"),
    # 30 steps: two chunks of 12, then 6
    pytest.param("mhd", 8, 2, 0.03, 0.39, id="mhd-8-2-0.03")])
def test_draw_chunking_keeps_every_bit(monkeypatch, mid, n, members, T, delta):
    # a run that draws one step per generator call records every series
    # and v_final bit for bit as the default chunked run does
    spec = build_model(mid, n)
    cfg = StepConfig(dt=1e-3, T=T)
    groups = [Group(make_observation(spec, "modal", delta),
                    make_noise_coefficient("additive", 0.3),
                    make_qspec(spec, delta=delta), (0.0, 20.0))]
    chunk = _DRAW_BYTES // (8 * int(np.prod(groups[0].q.draw_shape)))
    assert cfg.nsteps > 2 * chunk and cfg.nsteps % chunk

    def run():
        return simulate_members(spec, cfg, groups, random_field(spec, 0),
                                random_field(spec, 1),
                                [_rng_for(s) for s in range(members)], WITH_Y)

    chunked = run()
    monkeypatch.setattr(I, "_DRAW_BYTES", 1)
    one_step = run()
    assert np.array_equal(chunked[0].u_h, one_step[0].u_h)
    for want, got in zip(chunked[1][0], one_step[1][0]):
        for name in SERIES + ("v_final",):
            assert np.array_equal(getattr(got, name), getattr(want, name),
                                  equal_nan=True), name


def _next_after(seed, draws):
    # the normal a fresh generator of seed gives after draws normals
    rng = _rng_for(seed)
    rng.standard_normal(draws)
    return rng.standard_normal()


@pytest.mark.parametrize("deltas", [(0.39,), (0.39, 0.9), (0.9, 0.39)])
def test_a_run_draws_the_rank_of_its_first_layout(monkeypatch, deltas):
    # a sine run draws K normals per member and step, K = floor(pi/delta);
    # groups of another rank draw from twins of the members' generators,
    # so the caller's generators sit at the first group's count
    monkeypatch.setattr(I, "_cpus", lambda: 1)
    spec = build_model("ac_weak", 16)
    cfg = StepConfig(dt=1e-2, T=0.2)
    groups = [Group(make_observation(spec, "modal", d),
                    make_noise_coefficient("additive", 0.3),
                    make_qspec(spec, delta=d), (20.0,)) for d in deltas]
    rngs = [_rng_for(s) for s in (4, 5)]
    simulate_members(spec, cfg, groups, random_field(spec, 0),
                     random_field(spec, 1), rngs)
    rank = groups[0].q.draw_shape[0]
    assert rank == int(np.floor(np.pi / deltas[0]))
    assert [r.standard_normal() for r in rngs] == \
        [_next_after(s, cfg.nsteps * rank) for s in (4, 5)]


def test_rank_zero_draws_nothing():
    # a sine covariance of rank 0 (delta > pi) has an empty draw layout:
    # _blocks yields empty blocks without calling a generator, and a run
    # with it is the noiseless run, its generator left where it was
    assert [b.shape for b in _blocks([None, None], 2, 3, (0,))] == [(2, 0)] * 3
    spec = build_model("ac_weak", 16)
    q = make_qspec(spec, delta=4.0)
    assert q.draw_shape == (0,)
    cfg = StepConfig(dt=1e-2, T=0.1)
    finals = []
    for sigma in (0.3, 0.0):
        rng = _rng_for(6)
        _, [[cell]] = simulate_members(
            spec, cfg, [Group(make_observation(spec, "modal", 0.39),
                              make_noise_coefficient("additive", sigma), q,
                              (20.0,))],
            random_field(spec, 0), random_field(spec, 1), [rng])
        assert rng.standard_normal() == _next_after(6, 0)
        finals.append(cell.v_final)
    assert np.array_equal(*finals)


@pytest.mark.parametrize("weak,strong,n", [("ac_weak", "ac_strong", 16),
                                           ("nse_weak", "nse_strong", 8)])
@pytest.mark.parametrize("obs", ["modal", "volume"])
def test_formulation_pairs_are_one_dynamics(weak, strong, n, obs):
    # the weak and strong formulations share a, F and I_delta's
    # coefficients and differ only in their norm weights: at sigma 0, from
    # the same arrays, they step the same estimate bit for bit, and the
    # weak model's H error is the strong model's V* error
    u0, v0 = (random_field(build_model(weak, n), s) for s in (1, 2))
    cells = []
    for mid in (weak, strong):
        spec = build_model(mid, n)
        group = Group(make_observation(spec, obs, 0.39),
                      make_noise_coefficient("additive", 0.0),
                      make_qspec(spec, delta=0.39), (50.0,))
        _, [[cell]] = simulate_members(
            spec, StepConfig(dt=1e-3, T=0.05), [group], u0, v0,
            [_rng_for(3)], Record(("w_h", "w_vstar"), v_path=None))
        cells.append(cell)
    assert np.array_equal(cells[0].v_path, cells[1].v_path)
    assert np.array_equal(cells[0].w_h, cells[1].w_vstar)


@pytest.mark.parametrize("blowup_step", [None, 21])
def test_hs_is_the_monitor_of_each_recorded_state(blowup_step):
    # each group's hs at a recorded step is hs_norm_sq of the reference
    # state recorded there, bit for bit (0 on a noiseless group), and a
    # reference blow-up at step 21 leaves hs, dy_h and y_h NaN from it on
    spec = build_model("qg", 8)
    cfg = StepConfig(dt=1e-3, T=0.04)
    # estimates from 0 stay under the reference's accumulator
    u0, v0 = random_field(spec, 0), np.zeros(spec.shape, dtype=spec.dtype)
    if blowup_step:
        # a guard between the reference's accumulator at the step before
        # and at the blow-up step
        path = simulate_members(spec, cfg, [], u0, v0, [],
                                Record((), u_path=None))[0].u_path
        acc = np.cumsum([0.0] + [cfg.dt * _wsum(spec, u, u, spec.norm_w2("V"))
                                 for u in path[1:]])
        cfg = StepConfig(dt=cfg.dt, T=cfg.T, blowup_guard=0.5 * (
            acc[blowup_step - 1] + acc[blowup_step]))
    groups = [Group(make_observation(spec, "modal", 0.8),
                    make_noise_coefficient(kind, sigma),
                    make_qspec(spec, delta=0.8), (0.0, 20.0))
              for kind, sigma in (("pointwise_multiplicative", 0.3),
                                  ("state_scaled", 0.3), ("state_scaled", 0.0))]
    ref, res = simulate_members(spec, cfg, groups, u0, v0,
                                [_rng_for(s) for s in (4, 5)],
                                WITH_Y._replace(u_path=None))
    end = blowup_step or cfg.nsteps + 1
    if blowup_step:
        assert ref.step == end
    for grp, (cell, _) in zip(groups, res):
        want = [hs_norm_sq(grp.coef, spec, u, grp.q) for u in cell.u_path[:end]]
        assert cell.hs[:end].tolist() == want
        assert (cell.hs[:end] > 0.0).all() == (grp.coef.sigma > 0.0)
        assert cell.dy_h[0] == cell.y_h[0] == 0.0
        assert (cell.y_h[1:end] > 0.0).all()
        for name in ("hs", "dy_h", "y_h", "u_h"):
            assert np.isnan(getattr(cell, name)[end:]).all(), name


def test_emit_y_bookkeeping():
    spec, op, q, coef, cfg = _setup(mu=10.0)
    u0 = random_field(spec, 9)
    v0 = random_field(spec, 10)
    res = simulate_pair(spec, cfg, op, coef, q, u0, v0, 0,
                        WITH_Y._replace(u_path=None))
    # noiseless increments are exactly dt * I_delta u at the left endpoint
    from nudgelab.observe import apply_observation_raw
    i_u = cfg.dt * np.sqrt(np.sum(
        spec.mult * spec.w_h ** 2
        * np.abs(apply_observation_raw(op, spec, res.u_path[0])) ** 2))
    assert res.dy_h[1] == pytest.approx(i_u, rel=1e-12)
    assert res.y_h[0] == 0.0
    assert np.all(np.diff(res.y_h) >= -1e-15)


def test_blowup_guard_raises():
    spec, op, q, coef, _ = _setup()
    cfg = StepConfig(dt=1e-2, T=1.0, mu=0.0, blowup_guard=1e-4)
    u0 = random_field(spec, 11, h_norm=2.0)
    with pytest.raises(BlowupError) as info:
        simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    # u == v: the reference accumulator is checked first
    assert info.value.which == "reference"
    assert info.value.step >= 1
    small = random_field(spec, 11, h_norm=1e-5)
    with pytest.raises(BlowupError) as info:
        simulate_pair(spec, cfg, op, coef, q, small, u0, 0)
    assert info.value.which == "assimilated"
    assert info.value.step >= 1


def test_guard_catches_nan():
    spec = build_model("ac_weak", 16)
    op = make_observation(spec, "modal", 0.39)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.0)
    # dt far over the explicit stability limit of the cubic term
    cfg = StepConfig(dt=0.5, T=50.0, mu=0.0, blowup_guard=1e12)
    u0 = random_field(spec, 12, h_norm=40.0)
    with pytest.raises(BlowupError):
        simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)


def test_blown_up_estimates_rest_in_a_stack_of_one_shape(monkeypatch):
    # dt * mu = 5 blows the second group's estimates up at step 4; they
    # rest at 0 in their rows, and the group's monitors, which read only
    # the reference, go on as the live group's
    spec, op, q, _, _ = _setup()
    coef = make_noise_coefficient("state_scaled", 0.3)
    cfg = StepConfig(dt=1e-2, T=0.1, blowup_guard=1e8)
    calls = []
    f_raw = spec.f_raw
    monkeypatch.setattr(spec, "f_raw", lambda x: calls.append(x.shape) or f_raw(x))
    _, [[live], [dead]] = simulate_members(
        spec, cfg, [Group(op, coef, q, (10.0,)), Group(op, coef, q, (500.0,))],
        random_field(spec, 0), random_field(spec, 1),
        [_rng_for(s) for s in (1, 2)], WITH_Y)
    assert calls == [(5,) + spec.shape] * cfg.nsteps
    assert live.errors == [None, None]
    assert [e.step for e in dead.errors] == [4, 4]
    for name in ("hs", "dy_h", "y_h"):
        assert np.array_equal(getattr(dead, name), getattr(live, name)), name
    assert np.all(dead.hs > 0.0)
    assert not np.isnan(dead.w_h[:, :4]).any()
    assert np.isnan(dead.w_h[:, 4:]).all()
    assert not np.isnan(live.w_h).any()


def test_implicit_nudging_matches_fixed_point():
    # u == v survives the implicit solve up to rounding: the kept modes of v
    # take the route (x + dt*mu*x*denom_u)*denom_v instead of x*denom_u
    spec, op, q, coef, _ = _setup()
    cfg = StepConfig(dt=1e-2, T=0.3, mu=40.0, implicit_nudging=True)
    u0 = random_field(spec, 13)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert np.all(res.w_h <= 1e-13)


def test_implicit_nudging_mode_recursion():
    # F off, full observed band: every mode must contract by exactly
    # 1/(1 + dt*a_k + dt*mu) per step
    spec_lin = build_model("ac_weak", 16, nu=1.0, linear=True)
    op_full = make_observation(spec_lin, "modal", delta=2.0 / (spec_lin.n + 1))
    assert int(op_full.data.sum()) == spec_lin.n
    cfg = StepConfig(dt=5e-2, T=0.5, mu=30.0, implicit_nudging=True)
    u0 = np.zeros(spec_lin.shape)
    v0 = random_field(spec_lin, 5)
    res = simulate_pair(spec_lin, cfg, op_full,
                        make_noise_coefficient("additive", 0.0),
                        make_qspec(spec_lin), u0, v0, 0, Record((), v_path=None))
    fac = 1.0 / (1.0 + cfg.dt * spec_lin.a + cfg.dt * cfg.mu)
    wc = -v0
    for i in range(1, cfg.nsteps + 1):
        wc = wc * fac
        assert np.allclose(-res.v_path[i], wc, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("implicit", [False, True])
def test_nudged_pair_matches_mode_recursion(implicit):
    # F off and a moving reference (u0 != 0): every mode of (u, v) follows
    # the scalar recursions, the observed ones nudged and the rest free
    spec = build_model("ac_weak", 16, linear=True)
    op = make_observation(spec, "modal", 0.39)
    keep = op.data
    assert keep.any() and not keep.all()
    cfg = StepConfig(dt=1e-2, T=0.3, mu=30.0, implicit_nudging=implicit)
    u0 = random_field(spec, 21)
    v0 = random_field(spec, 22)
    res = simulate_pair(spec, cfg, op, make_noise_coefficient("additive", 0.0),
                        make_qspec(spec), u0, v0, 0,
                        Record((), u_path=None, v_path=None))
    for k in range(spec.n):
        mu = cfg.mu if keep[k] else 0.0
        u_want, v_want = O.nudged_mode_path(spec.a[k], cfg.dt, mu,
                                            u0[k], v0[k],
                                            cfg.nsteps, implicit)
        tol = 1e-14 * (abs(u0[k]) + abs(v0[k]))
        assert np.allclose(res.u_path[:, k], u_want, rtol=1e-13, atol=tol)
        assert np.allclose(res.v_path[:, k], v_want, rtol=1e-13, atol=tol)


def test_implicit_nudging_refuses_a_volume_observation():
    # a volume I_delta is not diagonal, so it cannot join the resolvent
    spec, _, q, coef, cfg = _setup(sigma=0.1, mu=20.0, T=0.02,
                                   implicit_nudging=True)
    op = make_observation(spec, "volume", 0.39)
    with pytest.raises(ValueError, match="modal observation"):
        simulate_pair(spec, cfg, op, coef, q, random_field(spec, 0),
                      random_field(spec, 1), 0)


def test_implicit_nudging_stable_at_large_mu_dt():
    # explicit coupling at dt*mu = 5 diverges; implicit stays bounded
    spec, op, q, coef, _ = _setup()
    u0 = random_field(spec, 14)
    v0 = random_field(spec, 15)
    cfg_i = StepConfig(dt=1e-2, T=0.5, mu=500.0, implicit_nudging=True)
    res = simulate_pair(spec, cfg_i, op, coef, q, u0, v0, 0)
    assert res.w_h[-1] < res.w_h[0]
    cfg_e = StepConfig(dt=1e-2, T=0.5, mu=500.0, blowup_guard=1e8)
    with pytest.raises(BlowupError):
        simulate_pair(spec, cfg_e, op, coef, q, u0, v0, 0)


def test_convolution_matches_scalar_recursion():
    # the stochastic convolution is the estimate of the linear model
    # started from zero with an observation that keeps no mode
    spec = build_model("ac_weak", 8, linear=True)
    q = make_qspec(spec, delta=0.39)
    coef = make_noise_coefficient("additive", 0.3)
    cfg = StepConfig(dt=1e-2, T=0.2, mu=12.0)
    zero = np.zeros(8)
    zp = simulate_pair(spec, cfg, O.blind_observation(spec), coef, q, zero,
                       zero, 9, Record((), v_path=None)).v_path
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
    z = np.zeros(8)
    for i in range(cfg.nsteps):
        xi = rng.standard_normal(8)
        dw = np.sqrt(cfg.dt) * q.lam / spec.w_h * xi
        z = (z + cfg.mu * coef.sigma_delta * dw) / (1.0 + cfg.dt * spec.a)
        assert np.allclose(zp[i + 1], z, atol=1e-16)


def test_step_config_validation():
    with pytest.raises(ValueError):
        StepConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=-1.0)
    with pytest.raises(ValueError):
        StepConfig(dt=1e-2, T=1.0, mu=-3.0)
    # 1.0005 / 1e-3 = 1000.5 steps would silently stop at t = 1.0
    with pytest.raises(ValueError, match="whole number of steps"):
        StepConfig(dt=1e-3, T=1.0005)
    # ratios that are whole up to rounding are accepted
    assert StepConfig(dt=1e-3, T=0.25).nsteps == 250
    assert StepConfig(dt=2e-3, T=0.2).nsteps == 100


def _group(mus, *missing):
    # a group of _setup's observation, coefficient and covariance, the
    # parts named in missing set to None
    _, op, q, coef, _ = _setup()
    parts = dict(op=op, coef=coef, q=q, mus=mus)
    return Group(**{**parts, **dict.fromkeys(missing)})


@pytest.mark.parametrize("make", [
    lambda: StepConfig(dt=1e-2, T=1.0, mu=np.nan),
    lambda: _group((np.nan,)),
    lambda: _group(()),
    lambda: _group((1.0,), "op"),
    lambda: _group((1.0,), "coef"),
    lambda: _group((1.0,), "q"),
    lambda: make_noise_coefficient("additive", np.nan)],
    ids=["step-mu-nan", "group-mu-nan", "group-no-mu", "group-no-op",
         "group-no-coef", "group-no-q", "sigma-nan"])
def test_invalid_library_inputs_fail_loudly(make):
    # a NaN fails every comparison, so a check written as "x < 0" lets it
    # through (a NaN sigma would run noise-free)
    with pytest.raises(ValueError):
        make()


def test_series_lengths_and_time_grid():
    spec, op, q, coef, cfg = _setup(dt=1e-2, T=0.25)
    u0 = random_field(spec, 16)
    res = simulate_pair(spec, cfg, op, coef, q, u0, u0, 0)
    assert len(res.times) == cfg.nsteps + 1 == 26
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.25)
    for arr in (res.w_h, res.w_vstar, res.u_h, res.v_h, res.hs, res.kappa):
        assert len(arr) == len(res.times)
