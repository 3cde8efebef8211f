"""IMEX Euler-Maruyama stepping for the reference equation and the nudged
estimate.

One step treats A implicitly and everything else explicitly at the left
endpoint (Ito convention):

    u+ = (I + dt A)^(-1) (u + dt F(u))
    v+ = (I + dt A)^(-1) (v + dt F(v) - dt mu I_d(v - u) + mu G(u) dW)

With implicit nudging (modal operators only: I_d must be diagonal) the
mu I_d v term moves into the resolvent instead, and the explicit pull
dt mu I_d u+ is toward the advanced reference.  The implicit A part
makes the linear stability unconditional, so large mu needs no dt*mu
restriction.  The stochastic convolution is the v update with F = 0 (a
linear model), an observation that keeps no mode and u = v = 0 at the
start.

There is one stepping loop of the coupled system, simulate_members (the
one other, harness.convolution_variance_mc, steps the convolution's
linear recursion and is tested bit-identical to a path of this one): the
reference and all estimates advance together as one stack, the reference
in row 0.  The estimates come in groups, one per observation scale (its
operator, noise coefficient and covariance), each holding one cell per
nudging strength mu and one estimate per member in every cell; a (mu,
delta) sweep is one such run.  Member m draws from its own generator,
and its block of a step drives member m in every cell of the groups
that share its draw layout.  An ensemble
is the one-group, one-cell case, simulate_pair the one-member case of
that, and a run with no groups steps the reference alone.

Blow-up is a monitored abort, never a silent NaN: the discrete
L^2(0,t;V) accumulator of either trajectory exceeding the guard raises
BlowupError with the step index (in an ensemble the estimate that blew
up rests at 0 in its row of the stack, and its cell keeps the error).

The only randomness consumed is one fixed-shape standard-normal block
per member, step and draw layout (QSpec.draw_shape) whenever the run
has a group (even at sigma = 0, so runs that differ only in sigma share
their noise realizations).  Groups of one layout read the same block:
every torus group, whose layout is its whole rfft band, and sine groups
of one rank.  The first group's layout draws from the members'
generators and each other layout from twins of them (_twin), so a group
reads the draws a run of it alone reads, and the members' generators
advance by the first layout's draws only.  Every block comes from
_blocks, a view of one buffer of steps whose row m it refills from
generator m, several steps in one call with the bits of one call per
step; the Monte Carlo paths of harness.convolution_variance_mc step
through it too, so neither loop holds more than one buffer of draws per
layout at a time per process, whatever the horizon.

A run large enough to pay for a fork (_CHUNK_WORK, _CHUNK_ROWS and
_CHUNK_STEP_WORK) splits its members into contiguous chunks, one process
per CPU the process may use (_processes, chunks.in_processes): this
process steps the first chunk, and each other chunk is stepped by a
forked child, pinned to another CPU, through the same loop and its own
copy of the reference, and returned through a pipe.  Members are
independent given the reference, so the joined results (_join) have the
bits of the one-process run.  The generators of the members a child
stepped are advanced in the child only: the caller's stay where they
were.
"""

import copy
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, fields, replace
from itertools import repeat

import numpy as np

from .fields import _wsum, norm_raw
from .noise import apply_G_raw, hs_norm_sq, increment_from_noise
from .observe import apply_observation_raw


class BlowupError(RuntimeError):
    """Discrete blow-up alternative: the V-norm accumulator left the
    guarded ball (or norms stopped being finite)."""

    def __init__(self, which, step, t, accumulator):
        super().__init__(
            "%s trajectory blew up at step %d (t = %.6g): "
            "L2(0,t;V) accumulator %.6g over guard" % (which, step, t, accumulator))
        self.which = which
        self.step = step
        self.t = t
        self.accumulator = accumulator

    def __reduce__(self):
        # a member chunk's child process returns its errors pickled
        return type(self), (self.which, self.step, self.t, self.accumulator)


@dataclass(frozen=True)
class StepConfig:
    dt: float
    T: float
    mu: float = 0.0
    implicit_nudging: bool = False
    blowup_guard: float = 1e6

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.T < self.dt:
            raise ValueError("T must be at least dt")
        ratio = self.T / self.dt
        if not abs(ratio - np.round(ratio)) <= 1e-9 * ratio:
            raise ValueError("T = %r is not a whole number of steps of dt = %r"
                             % (self.T, self.dt))
        if not self.mu >= 0.0:
            raise ValueError("mu must be nonnegative")
        if not self.blowup_guard > 0.0:
            raise ValueError("blowup_guard must be positive")

    @property
    def nsteps(self):
        return int(round(self.T / self.dt))


def _rng_for(seed):
    # Philox takes an int or a SeedSequence alike
    return np.random.Generator(np.random.Philox(seed))


_DRAW_BYTES = 16384  # per generator call: 1 MB over 64 members


def _blocks(rngs, members, n, shape):
    """Yield n steps' (members,) + shape standard-normal blocks, member m's
    rows from the m-th generator of rngs: each a view of one buffer of
    min(chunk, n) steps, chunk the steps of about _DRAW_BYTES, refilled
    one generator call per member.  A fill of several steps holds the
    bits of one draw per step: the bulk-draw slicing invariant of
    noise.py.  An empty shape (a sine covariance of rank 0) yields n
    empty blocks and calls no generator."""
    size = int(np.prod(shape))
    chunk = min(max(1, _DRAW_BYTES // (8 * size)), n) if size else n
    buf = np.empty((members, chunk) + shape)
    for lo in range(0, n, chunk):
        part = buf[:, :n - lo]
        if size:
            for row, rng in zip(part, rngs):
                rng.standard_normal(out=row)
        yield from part.swapaxes(0, 1)


def _twin(rng):
    """A new generator in rng's state, which draws what rng would draw
    without advancing it."""
    return np.random.Generator(copy.deepcopy(rng.bit_generator))


@dataclass(frozen=True)
class Group:
    """One observation scale of a lockstep run: its operator, noise
    coefficient and covariance, none of them None, and the nudging
    strength mu of each of its cells.  Every cell holds one estimate per
    noise source; a run with no groups steps the reference alone."""
    op: object
    coef: object
    q: object
    mus: tuple

    def __post_init__(self):
        if any(part is None for part in (self.op, self.coef, self.q)):
            raise ValueError("a group needs its op, coef and q, not None")
        if not self.mus:
            raise ValueError("a group needs at least one mu")
        if not all(mu >= 0.0 for mu in self.mus):
            raise ValueError("mu must be nonnegative")


# the per-step series a record request can name: the monitors, then
# member 0's observation path
MONITORS = ("w_h", "w_vstar", "u_h", "v_h", "hs", "kappa")
SERIES = MONITORS + ("dy_h", "y_h")
# a cell's fields with a member axis, and those of its group
_PER_MEMBER = ("w_h", "w_vstar", "v_h", "v_final", "v_path")
_PER_GROUP = ("hs", "dy_h", "y_h")

# a record request: the series named (of SERIES) at the steps at, and the
# reference's and the estimates' states at the steps u_path and v_path,
# None standing for every step; by default every monitor at every step
Record = namedtuple("Record", "series at u_path v_path",
                    defaults=(MONITORS, None, (), ()))


@dataclass
class SimResult:
    """Recorded series of one estimate, or of the reference alone (its
    v_final None): the scalar ones at times, None where the request did
    not name them, and the states at the steps it listed for them."""
    times: np.ndarray
    u_final: np.ndarray
    v_final: np.ndarray
    w_h: np.ndarray = None
    w_vstar: np.ndarray = None
    u_h: np.ndarray = None
    v_h: np.ndarray = None
    hs: np.ndarray = None
    kappa: np.ndarray = None
    dy_h: np.ndarray = None
    y_h: np.ndarray = None
    u_path: np.ndarray = None
    v_path: np.ndarray = None


@dataclass
class CellResult(SimResult):
    """The estimates of one cell, a member axis first in w_h, w_vstar,
    v_h, v_final and v_path; the reference's u_h, kappa, u_final and
    u_path and the group's hs are shared, dy_h and y_h are member 0's.
    The group's hs, dy_h and y_h depend on the reference alone; like u_h
    and kappa they read NaN from the step the run stopped at on, a
    reference blow-up or the end of its last estimate.  errors[m] is the
    BlowupError that ended member m, or None; an ended member's series
    read NaN from its blow-up on.  chunks is the number of processes
    that stepped the run's members (see simulate_members)."""
    errors: list = None
    chunks: int = 1

    def member(self, m):
        """SimResult of member m; raises the BlowupError that ended it."""
        if self.errors[m] is not None:
            raise self.errors[m]
        own = {f.name: getattr(self, f.name) for f in fields(SimResult)}
        own.update((f, own[f][m]) for f in _PER_MEMBER if own[f] is not None)
        if m:
            own.update(dy_h=None, y_h=None)
        return SimResult(**own)


def simulate_pair(model, cfg, op, coef, q, u0, v0, seed, record=Record()):
    """Integrate the coupled pair over [0, T]; deterministic given seed.
    record is the request of simulate_members."""
    _, [[cell]] = simulate_members(
        model, cfg, [Group(op, coef, q, (cfg.mu,))], u0, v0,
        [_rng_for(seed)], record)
    return cell.member(0)


def simulate_members(spec, cfg, groups, u0, v0, rngs, record=Record()):
    """Integrate one reference and, per cell of every group, one estimate
    per generator of rngs, all in lockstep.

    cfg gives dt, T, implicit_nudging and blowup_guard; each cell nudges
    with its own mu (cfg.mu is not read).  Member m draws from rngs[m],
    which the run advances by the draws of the first group's layout
    (q.draw_shape: on the sine grid one normal per direction of Q's rank
    and step), and from a twin of rngs[m] for each other layout among the
    groups; row m of a step's block from _blocks drives member m in every
    cell of the groups of that layout.  The reference (row 0) and the
    estimates (group-major, then cell, then member) advance as one stack,
    so the nonlinearity, the norms and kappa run once per step for all of
    them; increment, G(u) dW, the observation and the Hilbert-Schmidt
    norm run once per group.  Each estimate's numbers are bit-identical
    to a run of it alone.  With no groups the reference steps alone.

    record, a Record, names the series to keep and their steps.  A
    monitor runs only at those steps; as a value at step i depends only
    on the state at step i, it has the bits of an every-step run.  The
    blow-up accumulator and the running sum y behind dy_h, y_h run at
    every step.

    A run of at least two members, _CHUNK_WORK work (estimate rows x
    stored coefficients x steps), _CHUNK_STEP_WORK of it per step and
    _CHUNK_ROWS estimate rows per process steps its members in _chunks
    contiguous chunks, the first here and each other in a forked child
    with its own copy of the reference (chunks.in_processes), and joins the chunks' results in
    member order (_join), every number bit-identical to the one-process
    run.  The generators of the members a child stepped are advanced in
    that child only: the caller's are left unadvanced, and no caller
    reads them afterwards.  CellResult.chunks says how many processes
    stepped the members.

    Returns (reference, results): the reference's SimResult, or the
    BlowupError that ended it, and results[g][k], the CellResult of cell
    k of group g.  An estimate whose accumulator leaves the guard ends,
    and rests at 0 in its row, so the stack keeps its shape; a reference
    blow-up ends every estimate still running, and the run stops when no
    estimate is left.
    """
    if groups and not rngs:
        raise ValueError("need at least one member")
    n = cfg.nsteps
    if (not set(record.series) <= set(SERIES)
            or any(s.size and not 0 <= s[0] <= s[-1] <= n
                   for s in _record_steps(record, n))):
        raise ValueError("cannot record %r over %d steps" % (record, n))
    if cfg.implicit_nudging and any(grp.op.kind != "modal" for grp in groups):
        raise ValueError("implicit nudging needs a modal observation")
    chunks = _chunks(spec, n, sum(len(grp.mus) for grp in groups), len(rngs),
                     record)
    if chunks == 1:
        return _lockstep(spec, cfg, groups, u0, v0, rngs, record)
    # imported only here: a run that does not fork compiles none of it
    from .chunks import in_processes
    if spec.kind == "sine":
        # loaded before the fork, so the children share its pages instead
        # of each importing it at its first transform
        import scipy.fft  # noqa: F401
    return _join(in_processes(
        lambda part: _lockstep(spec, cfg, groups, u0, v0, part, record),
        rngs, chunks), n)


def _record_steps(record, n):
    """The steps of record's series, u_path and v_path over n steps."""
    return [np.arange(n + 1) if s is None else np.unique(np.asarray(s, dtype=int))
            for s in (record.at, record.u_path, record.v_path)]


# the least work per process of a forked run, in estimate rows x stored
# coefficients x steps: on 2 CPUs, forcing two chunks broke even at
# about 300,000 over 64-member ac_weak n=64 ensembles, a 3 x 2 nse_strong
# n=32 volume sweep of two members and 16-member qg n=32 ensembles, and
# was 46% slower on two qg n=32 members over 50 steps (54,400 here); 64
# ac_weak n=64 members ran at 0.40x over 10 steps and 0.68x over 25
# (40,960 and 102,400), the short runs a floor per step alone would fork
_CHUNK_WORK = 150_000
# and the least estimate rows per process: each chunk repeats the
# reference row and the per-step work, so on 2 CPUs two chunks of one row
# each ran at 0.76-1.03x of one process over qg n=32 pointwise and
# nse_strong n=32 volume runs of 400 steps, and of two rows at 1.09-1.16x
_CHUNK_ROWS = 2
# and the least work per process and step, in estimate rows x stored
# coefficients: on 2 CPUs, two chunks of ac_weak n=64 ensembles over 1500
# steps ran at 0.80x of one process at 4 and 6 members (128 and 192
# here), 0.96x at 8 and 1.00-1.02x at 12 and 16 (medians of 21)
_CHUNK_STEP_WORK = 512


def _cpus():
    """CPUs this process may run on; called where _forkable() holds, so
    CPU affinity is there to read."""
    return len(os.sched_getaffinity(0))


def _forkable():
    """Whether this process may fork parts of its work (chunks.in_processes):
    not where CPU affinity, and with it os.fork, is missing (off Linux),
    nor while another Python thread runs (a fork copies no thread but the
    caller's, whatever locks the others hold)."""
    return hasattr(os, "sched_setaffinity") and threading.active_count() == 1


def _processes(most):
    """How many processes share work that splits into at most most parts:
    one per CPU, and at most most, where this process may fork
    (_forkable), else 1."""
    return min(_cpus(), most) if _forkable() else 1


def _chunks(spec, n, cells, members, record):
    """How many processes step a run of cells x members estimates over n
    steps (_processes): at most one per member, with at least _CHUNK_WORK
    of the estimates' work, _CHUNK_STEP_WORK of it per step and
    _CHUNK_ROWS estimate rows each, a size rule, since what a fork costs
    (the fork, its copy-on-write faults, the pickled results) grows
    little with the run, what it saves grows with every row it takes,
    and every chunk repeats the reference and the per-step work of the
    run; 1 where record names dy_h or y_h, member 0's observation path,
    which goes on after every member of member 0's chunk has ended."""
    if {"dy_h", "y_h"} & set(record.series):
        return 1
    step = cells * members * int(np.prod(spec.shape))
    return max(1, _processes(min(members, step * n // _CHUNK_WORK,
                                 step // _CHUNK_STEP_WORK,
                                 cells * members // _CHUNK_ROWS)))


def _lockstep(spec, cfg, groups, u0, v0, rngs, record):
    """simulate_members in this process, its arguments checked."""
    members = len(rngs)
    n = cfg.nsteps
    dt = cfg.dt
    steps = _record_steps(record, n)
    cells = [(g, k, mu) for g, grp in enumerate(groups)
             for k, mu in enumerate(grp.mus)]
    rows = len(cells) * members
    row_cells = [cell for cell in cells for _ in range(members)]
    x = np.stack([u0] + [v0] * rows)
    implicit = cfg.implicit_nudging
    noisy = [grp.coef.sigma > 0.0 for grp in groups]
    pulled = [any(mu > 0.0 for mu in grp.mus) for grp in groups]
    # one block per step and draw layout: the first layout draws from
    # rngs, each other from twins of them, so every group reads the draws
    # it would read in a run of its own
    shapes = list(dict.fromkeys(grp.q.draw_shape for grp in groups))
    layout = [shapes.index(grp.q.draw_shape) for grp in groups]
    draws = zip(*[_blocks(rngs if j == 0 else [_twin(r) for r in rngs],
                          members, n, shape)
                  for j, shape in enumerate(shapes)]) if groups \
        else repeat((), n)
    # per stack row, Python floats as a scalar-mu run would form them: the
    # mu of the noise term and the factor of the pull (a cell with mu = 0
    # in a pulled group adds a zero pull)
    col = (-1,) + (1,) * len(spec.shape)
    mu_col = np.array([0.0] + [mu for _, _, mu in row_cells]).reshape(col)
    pull_col = np.array([0.0] + [dt * mu if implicit else -dt * mu
                                 for _, _, mu in row_cells]).reshape(col)
    inv_ref = 1.0 / (1.0 + dt * spec.a)
    inv = inv_ref
    if implicit and any(mu > 0.0 for _, _, mu in cells):
        # one resolvent per row: an implicitly nudged row's also holds its
        # mu I_d part
        inv = np.stack([np.broadcast_to(r, spec.shape) for r in [inv_ref] + [
            1.0 / (1.0 + dt * spec.a + dt * mu * groups[g].op.data)
            if mu > 0.0 else inv_ref
            for g, _, mu in row_cells]])

    # per group its stack rows and the member drawn for each row
    ends = np.cumsum([1] + [len(grp.mus) * members for grp in groups]).tolist()
    spans = [(slice(lo, hi), np.arange(hi - lo) % members)
             for lo, hi in zip(ends, ends[1:])]
    live = np.ones(rows, dtype=bool)
    errors = {}
    ref_error = None
    # step -> column of the series and of each state path
    slot, u_at, v_at = ({s: j for j, s in enumerate(st.tolist())} for st in steps)
    # the requested arrays, led by their member or group axis, NaN until
    # recorded
    lead = {**dict.fromkeys(_PER_MEMBER, (rows,)),
            **dict.fromkeys(_PER_GROUP, (len(groups),))}
    rec = {f: np.full(lead.get(f, ()) + (len(slot),), np.nan)
           for f in record.series}
    for f, at in (("u_path", u_at), ("v_path", v_at)):
        rec[f] = np.full(lead.get(f, ()) + (len(at),) + spec.shape, np.nan,
                         dtype=spec.dtype)
    # per group the last observation increment dy and the running sum y
    dy = [np.zeros(spec.shape, dtype=spec.dtype)] * len(groups)
    y = list(dy)

    def store(i, x):
        j = slot.get(i)
        if j is not None:
            wc = x[0] - x[1:]
            for f, z, space in (("w_h", wc, "H"), ("w_vstar", wc, "Vstar"),
                                ("v_h", x[1:], "H")):
                if f in rec:
                    rec[f][live, j] = norm_raw(spec, z, space)[live]
            if "u_h" in rec:
                rec["u_h"][j] = norm_raw(spec, x[0], "H")
            if "kappa" in rec:
                rec["kappa"][j] = spec.kappa_raw(x[0])
            for g, grp in enumerate(groups):
                if "hs" in rec:
                    rec["hs"][g, j] = (hs_norm_sq(grp.coef, spec, x[0], grp.q)
                                       if noisy[g] else 0.0)
                for f, z in (("dy_h", dy[g]), ("y_h", y[g])):
                    if f in rec:
                        rec[f][g, j] = norm_raw(spec, z, "H")
        if i in u_at:
            rec["u_path"][u_at[i]] = x[0]
        if i in v_at:
            rec["v_path"][live, v_at[i]] = x[1:][live]

    store(0, x)
    acc = np.zeros(1 + rows)
    for i, blocks in enumerate(draws, 1):
        rhs = x + dt * spec.f_raw(x)
        for g, grp in enumerate(groups):
            s, take = spans[g]
            if noisy[g]:
                gdw = apply_G_raw(grp.coef, spec, x[0],
                                  increment_from_noise(spec, grp.q, dt,
                                                       blocks[layout[g]]))
                rhs[s] += mu_col[s] * gdw[take]
            if pulled[g]:
                # implicit: pull toward the advanced reference, so u == v
                # stays a fixed point and each kept mode contracts by
                # 1/(1 + dt*a + dt*mu); explicit: adding (-dt*mu) * x
                # rounds exactly like subtracting dt*mu*x
                gap = rhs[0] * inv_ref if implicit else x[s] - x[0]
                rhs[s] += pull_col[s] * apply_observation_raw(grp.op, spec, gap)
            if {"dy_h", "y_h"} & rec.keys():
                # dy = I_delta u dt + G(u) dW (the noise term carries no mu)
                dy[g] = dt * apply_observation_raw(grp.op, spec, x[0])
                if noisy[g]:
                    dy[g] = dy[g] + gdw[0]
                y[g] = y[g] + dy[g]
        x = rhs * inv
        t = i * dt
        acc += dt * _wsum(spec, x, x, spec.norm_w2("V"))
        # "not <=" also catches NaN and inf
        ended = np.flatnonzero(~(acc <= cfg.blowup_guard))
        if ended.size:
            if ended[0] == 0:
                ref_error = BlowupError("reference", i, t, float(acc[0]))
                break
            # an ended estimate rests at 0, a fixed point of its row's
            # step: F(0) = 0, and its noise and pull factors become 0
            for k in ended.tolist():
                errors[k - 1] = BlowupError("assimilated", i, t, float(acc[k]))
            live[ended - 1] = False
            x[ended] = mu_col[ended] = pull_col[ended] = acc[ended] = 0.0
            if not live.any():
                break
        store(i, x)

    times = steps[0] * dt
    reference = ref_error or SimResult(times, x[0], None, u_h=rec.get("u_h"),
                                       kappa=rec.get("kappa"),
                                       u_path=rec["u_path"])
    rec["v_final"] = np.full((rows,) + spec.shape, np.nan, dtype=spec.dtype)
    rec["v_final"][live] = x[1:][live]
    results = [[] for _ in groups]
    for c, (g, _, _) in enumerate(cells):
        part = slice(c * members, (c + 1) * members)
        results[g].append(CellResult(
            times, x[0], errors=[errors.get(r, ref_error) for r in range(rows)[part]],
            **{f: a[part] if f in _PER_MEMBER else a[g] if f in _PER_GROUP
               else a for f, a in rec.items()}))
    return reference, results


def _join(parts, n):
    """One run's (reference, results) from its member chunks' _lockstep
    (reference, results) over n steps, in member order.

    Per-member fields and errors are concatenated.  The reference and
    the shared series (u_final, u_h, kappa, u_path and the group's hs)
    come from the chunk that stepped longest: a chunk stops when its
    last estimate ends, and the one-process run when the last of all
    does, while a reference blow-up stops every chunk still running at
    the same step."""
    def reach(part):
        # the step a chunk stopped at, n + 1 if it ran to the end
        return max(n + 1 if e is None else e.step
                   for cells in part[1] for cell in cells for e in cell.errors)

    reference, shared = max(parts, key=reach)
    results = [[replace(cell, chunks=len(parts), errors=[
        e for part in parts for e in part[1][g][k].errors], **{
        f: np.concatenate([getattr(part[1][g][k], f) for part in parts])
        for f in _PER_MEMBER if getattr(cell, f) is not None})
        for k, cell in enumerate(cells)] for g, cells in enumerate(shared)]
    return reference, results
