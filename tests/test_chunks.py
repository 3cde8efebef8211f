"""Member chunks: a run's members stepped in forked processes, joined bit
for bit with the one-process run; no child outlives a run, and no
child's error is lost."""

import os
import pickle
import threading
import time
from dataclasses import fields

import numpy as np
import pytest

import nudgelab.integrate as I
from nudgelab.fields import _wsum
from nudgelab.harness import RunSetup, member_seed, run_ensemble, sweep
from nudgelab.integrate import (MONITORS, SERIES, BlowupError, CellResult,
                                Group, Record, StepConfig, _rng_for,
                                simulate_members)
from nudgelab.models import build_model, random_field
from nudgelab.noise import make_noise_coefficient, make_qspec
from nudgelab.observe import make_observation

pytestmark = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")),
    reason="member chunks fork, on Linux only")

# every series that lets a run fork, at every step, and every state
EVERYTHING = Record(MONITORS, None, None, None)


@pytest.fixture
def forks(monkeypatch):
    """The size rule set low (any run of two members or more forks, one
    chunk per CPU) and a list of the pids every os.fork returns here."""
    monkeypatch.setattr(I, "_CHUNK_WORK", 1)
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_process(monkeypatch, run):
    with monkeypatch.context() as m:
        m.setattr(I, "_CHUNK_WORK", 10 ** 18)
        return run()


def _error_key(e):
    return None if e is None else (type(e), e.which, e.step, e.t,
                                   e.accumulator, str(e))


def _assert_same_run(got, want, chunks):
    (ref, res), (ref_want, res_want) = got, want
    if isinstance(ref_want, BlowupError):
        assert _error_key(ref) == _error_key(ref_want)
    else:
        for f in fields(ref_want):
            a, b = getattr(ref, f.name), getattr(ref_want, f.name)
            assert (a is None) == (b is None), f.name
            assert b is None or np.array_equal(a, b, equal_nan=True), f.name
    assert len(res) == len(res_want)
    for cells, cells_want in zip(res, res_want):
        assert len(cells) == len(cells_want)
        for cell, want in zip(cells, cells_want):
            assert cell.chunks == chunks and want.chunks == 1
            assert [_error_key(e) for e in cell.errors] == \
                [_error_key(e) for e in want.errors]
            for f in fields(CellResult):
                if f.name in ("errors", "chunks"):
                    continue
                a, b = getattr(cell, f.name), getattr(want, f.name)
                assert (a is None) == (b is None), f.name
                assert b is None or (a.shape == b.shape and np.array_equal(
                    a, b, equal_nan=True)), f.name


def _ensemble(mid="ac_weak", n=16, kind="additive", sigma=0.3, T=0.05,
              mus=(20.0,), deltas=(0.39,), obs="modal"):
    spec = build_model(mid, n)
    groups = [Group(make_observation(spec, obs, d),
                    make_noise_coefficient(kind, sigma),
                    make_qspec(spec, delta=d), mus) for d in deltas]
    return spec, StepConfig(dt=1e-3, T=T), groups


def _accumulators(spec, path, dt):
    # the blow-up accumulator of each recorded state path, at every step
    return np.cumsum([0.0] + [dt * float(_wsum(spec, x, x, spec.norm_w2("V")))
                              for x in path[1:]])


def _run(spec, cfg, groups, u0, v0, seeds, record=EVERYTHING):
    return simulate_members(spec, cfg, groups, u0, v0,
                            [_rng_for(s) for s in seeds], record)


def _blowup_case(which, chunks):
    """(spec, cfg, groups, u0, v0, seeds) of a six-member ensemble whose
    guard ends: "partial" members 0-1 and 5 of 6; "first-chunk" and
    "last-chunk" every member of the first or last chunk and no other;
    "reference" the reference, at step 21."""
    seeds = list(range(30, 36))
    if which == "reference":
        spec, cfg, groups = _ensemble(sigma=0.3, T=0.04)
        # estimates from 0 stay under the reference's accumulator
        u0, v0 = random_field(spec, 0, h_norm=2.0), np.zeros(spec.shape)
        acc = _accumulators(spec, _run(spec, cfg, [], u0, v0, [], Record(
            (), u_path=None))[0].u_path, cfg.dt)
        guard = 0.5 * (acc[20] + acc[21])
        return (spec, StepConfig(dt=cfg.dt, T=cfg.T, blowup_guard=guard),
                groups, u0, v0, seeds)
    # a small reference and large estimates, which strong noise tells apart
    spec, cfg, groups = _ensemble(sigma=3.0, T=0.04)
    u0, v0 = random_field(spec, 0, h_norm=1e-3), random_field(spec, 1, h_norm=3.0)
    _, [[cell]] = _run(spec, cfg, groups, u0, v0, seeds,
                       Record((), v_path=None))
    final = np.array([_accumulators(spec, p, cfg.dt)[-1] for p in cell.v_path])
    # a guard between the k-th and the (k+1)-th highest accumulator ends
    # the k members it puts first, or last
    k = {"partial": 3, "first-chunk": len(seeds) // chunks,
         "last-chunk": len(seeds) - len(seeds) * (chunks - 1) // chunks}[which]
    ranked = np.sort(final)[::-1]
    guard = 0.5 * (ranked[k - 1] + ranked[k]) if k < len(seeds) else \
        0.5 * ranked[-1]
    order = np.argsort(-final)
    if which == "last-chunk":
        order = order[::-1]
    seeds = [seeds[i] for i in order]
    if which == "partial":
        # the first two and the last member end
        seeds = seeds[:2] + seeds[3:] + seeds[2:3]
    return (spec, StepConfig(dt=cfg.dt, T=cfg.T, blowup_guard=guard), groups,
            u0, v0, seeds)


@pytest.mark.parametrize("chunks", [1, 2, 3])
@pytest.mark.parametrize("case", ["ensemble", "sweep", "partial",
                                  "first-chunk", "last-chunk", "reference"])
def test_chunks_equal_the_one_process_run(monkeypatch, forks, case, chunks):
    # 1, 2 and 3 chunks (3 on as many CPUs as this process has) join to
    # the one-process run, bit for bit in every field and every error;
    # a run forks chunks - 1 children and leaves none behind
    monkeypatch.setattr(I, "_cpus", lambda: chunks)
    if case == "ensemble":
        spec, cfg, groups = _ensemble()
        args = (spec, cfg, groups, random_field(spec, 0), random_field(spec, 1),
                [11, 12, 13, 14, 15])
    elif case == "sweep":
        spec, cfg, groups = _ensemble("nse_strong", 8, obs="volume",
                                      mus=(10.0, 50.0), deltas=(0.8, 1.6),
                                      sigma=0.05)
        args = (spec, cfg, groups, random_field(spec, 0), random_field(spec, 1),
                [4, 5, 6])
    else:
        args = _one_process(monkeypatch, lambda: _blowup_case(case, chunks))
    want = _one_process(monkeypatch, lambda: _run(*args))
    got = _run(*args)
    assert len(forks) == chunks - 1
    _no_child_left()
    _assert_same_run(got, want, chunks)
    errors = [e for e in want[1][0][0].errors if e is not None]
    if case == "reference":
        assert want[0].step == 21 and len(errors) == 6
        assert {e.which for e in errors} == {"reference"}
    elif case != "ensemble" and case != "sweep":
        ended = [e is not None for e in want[1][0][0].errors]
        assert ended == {
            "partial": [True, True, False, False, False, True],
            "first-chunk": [m < 6 // chunks for m in range(6)],
            "last-chunk": [m >= 6 * (chunks - 1) // chunks
                           for m in range(6)]}[case]
    else:
        assert errors == []


def test_no_more_chunks_than_cpus_or_members(forks):
    spec, cfg, groups = _ensemble()
    cpus = len(os.sched_getaffinity(0))
    for members in (1, 2, 3, 64):
        _, [[cell]] = _run(spec, cfg, groups, random_field(spec, 0),
                           random_field(spec, 1), range(members))
        assert cell.chunks == min(cpus, members)
        assert I._chunks(spec, cfg.nsteps, 1, members, Record()) <= cpus
    assert len(forks) == sum(min(cpus, m) - 1 for m in (1, 2, 3, 64))
    _no_child_left()


def test_size_rule_keeps_small_runs_in_process(monkeypatch):
    # the rule counts estimate rows x stored coefficients x steps
    monkeypatch.setattr(I, "_cpus", lambda: 8)
    spec = build_model("qg", 32)
    assert spec.shape == (32, 17)
    # mult_qg: two members of qg n=32 over 50 steps, 54,400
    assert I._chunks(spec, 50, 1, 2, Record()) == 1
    assert I._chunks(spec, 50 * 6, 1, 2, Record()) == 2
    # ens_ac: 64 members of ac_weak n=64 over 250 steps, 1,024,000
    assert I._chunks(build_model("ac_weak", 64), 250, 1, 64, Record()) == 6


def test_observation_path_or_another_thread_keeps_one_process(forks):
    # member 0's dy_h and y_h go on after its chunk ends, and a fork
    # copies no thread but the caller's
    spec, cfg, groups = _ensemble()
    u0, v0 = random_field(spec, 0), random_field(spec, 1)
    _, [[cell]] = _run(spec, cfg, groups, u0, v0, range(4), Record(SERIES))
    assert cell.chunks == 1
    stop = threading.Event()
    other = threading.Thread(target=stop.wait, args=(60,))
    other.start()
    try:
        _, [[cell]] = _run(spec, cfg, groups, u0, v0, range(4))
    finally:
        stop.set()
        other.join(60)
    assert not other.is_alive()
    assert cell.chunks == 1 and forks == []


def test_ensemble_and_sweep_leave_no_child(forks):
    spec, cfg, groups = _ensemble()
    grp = groups[0]
    setup = RunSetup(spec, StepConfig(dt=1e-3, T=0.05, mu=20.0), grp.op,
                     grp.coef, grp.q, random_field(spec, 0),
                     random_field(spec, 1))
    ens = run_ensemble(setup, 4, 7)
    _no_child_left()
    rows = sweep(setup, [(grp.op, grp.coef, grp.q)], [10.0, 20.0], 4, 7,
                 [(1.0, 1.0, 1.0)])
    _no_child_left()
    cpus = len(os.sched_getaffinity(0))
    assert ens.chunks == min(cpus, 4) == rows[0]["chunks"]
    assert len(forks) == 2 * (min(cpus, 4) - 1)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.mark.parametrize("error,raised,text", [
    (ZeroDivisionError("in a child"), ZeroDivisionError, "in a child"),
    (BlowupError("assimilated", 3, 0.003, 2.0), BlowupError,
     "assimilated trajectory blew up at step 3"),
    (_Unpicklable("odd"), RuntimeError, "_Unpicklable: odd")])
def test_a_childs_error_reaches_the_caller(monkeypatch, forks, error, raised,
                                           text):
    # the last chunk's child raises; the caller gets its exception, with
    # its type where it pickles, after this process stepped its own chunk
    monkeypatch.setattr(I, "_cpus", lambda: 3)
    parent = os.getpid()
    lockstep = I._lockstep
    stepped = []

    def failing(spec, cfg, groups, u0, v0, rngs, record):
        if os.getpid() != parent and len(rngs) == 2 and rngs[-1] is last:
            raise error
        out = lockstep(spec, cfg, groups, u0, v0, rngs, record)
        stepped.append(os.getpid())
        return out

    monkeypatch.setattr(I, "_lockstep", failing)
    spec, cfg, groups = _ensemble()
    rngs = [_rng_for(s) for s in range(6)]
    last = rngs[-1]
    with pytest.raises(raised, match=text):
        simulate_members(spec, cfg, groups, random_field(spec, 0),
                         random_field(spec, 1), rngs, EVERYTHING)
    assert stepped == [parent] and len(forks) == 2
    _no_child_left()


def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch, forks):
    # the children would sleep a minute; the parent's chunk is interrupted
    parent = os.getpid()
    lockstep = I._lockstep

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        return lockstep(*args)

    monkeypatch.setattr(I, "_lockstep", interrupted)
    monkeypatch.setattr(I, "_cpus", lambda: 3)
    spec, cfg, groups = _ensemble()
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _run(spec, cfg, groups, random_field(spec, 0), random_field(spec, 1),
             range(3))
    assert time.monotonic() - start < 30
    assert len(forks) == 2
    _no_child_left()


def test_children_leave_the_callers_generators_unadvanced(forks):
    # a generator a child drew from stays where the caller left it, and
    # the parent's own chunk's are consumed
    spec, cfg, groups = _ensemble()
    rngs = [_rng_for(member_seed(5, m)) for m in range(4)]
    before = [pickle.dumps(r.bit_generator.state) for r in rngs]
    _, [[cell]] = simulate_members(spec, cfg, groups, random_field(spec, 0),
                                   random_field(spec, 1), rngs)
    after = [pickle.dumps(r.bit_generator.state) for r in rngs]
    cut = 4 // cell.chunks
    assert cell.chunks == min(len(os.sched_getaffinity(0)), 4)
    assert [a == b for a, b in zip(before, after)] == \
        [False] * cut + [True] * (4 - cut)


def test_blowup_error_survives_pickling():
    e = BlowupError("reference", 3, 0.1, 2.0)
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is BlowupError
    assert (back.which, back.step, back.t, back.accumulator) == \
        ("reference", 3, 0.1, 2.0)
    assert str(back) == str(e)


def test_a_child_without_a_result_is_an_error(monkeypatch, forks):
    # a child that exits before writing its result
    parent = os.getpid()
    lockstep = I._lockstep

    def quitting(*args):
        if os.getpid() != parent:
            os._exit(3)
        return lockstep(*args)

    monkeypatch.setattr(I, "_lockstep", quitting)
    spec, cfg, groups = _ensemble()
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        _run(spec, cfg, groups, random_field(spec, 0), random_field(spec, 1),
             range(2))
    _no_child_left()
