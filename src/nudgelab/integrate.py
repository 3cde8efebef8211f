"""IMEX Euler-Maruyama stepping for the reference equation and the nudged
estimate.

One step treats A implicitly and everything else explicitly at the left
endpoint (Ito convention):

    u+ = (I + dt A)^(-1) (u + dt F(u))
    v+ = (I + dt A)^(-1) (v + dt F(v) - dt mu I_d(v - u) + mu G(u) dW)

With implicit nudging (modal operators only, where I_d is diagonal) the
mu I_d v term moves into the resolvent instead, and the explicit pull
dt mu I_d u+ is toward the advanced reference.  The implicit A part
makes the linear stability unconditional, so large mu needs no dt*mu
restriction.  The stochastic convolution is the v update with F = 0 (a
linear model), no observation and u = v = 0 at the start.

There is one stepping loop of the coupled system, simulate_members (the
one other, harness.convolution_variance_mc, steps the convolution's
linear recursion and is tested bit-identical to a path of this one): the
reference and all estimates advance together as one stack, the reference
in row 0.  The estimates come in groups, one per observation scale (its
operator, noise coefficient and covariance), each holding one cell per
nudging strength mu and one estimate per member in every cell; a (mu,
delta) sweep is one such run.  Member m draws from its own generator,
and its block of a step drives member m in every cell.  An ensemble
is the one-group, one-cell case, simulate_pair the one-member case of
that, and a run with no groups steps the reference alone.

Blow-up is a monitored abort, never a silent NaN: the discrete
L^2(0,t;V) accumulator of either trajectory exceeding the guard raises
BlowupError with the step index (in an ensemble the estimate that blew
up rests at 0 in its row of the stack, and its cell keeps the error).

The only randomness consumed is one fixed-shape standard-normal block
per member and step whenever a QSpec is supplied (even at sigma = 0, so
runs that differ only in sigma share their noise realizations); every
cell and group reads the same block.  Every block is drawn by _fill,
which fills row m of a buffer from generator m, several steps in one
call with the bits of one call per step; the Monte Carlo paths of
harness.convolution_variance_mc are drawn by it too.
"""

from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .fields import norm_raw
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


def _fill(rngs, out):
    """Fill out[m] with the next standard normals of generator rngs[m], in
    one call each.  A block of several steps holds the bits of one draw per
    step: the bulk-draw slicing invariant of noise.py."""
    for rng, row in zip(rngs, out):
        rng.standard_normal(out=row)


@dataclass(frozen=True)
class Group:
    """One observation scale of a lockstep run: its operator, noise
    coefficient and covariance, and the nudging strength mu of each of
    its cells.  Every cell holds one estimate per noise source."""
    op: object
    coef: object
    q: object
    mus: tuple

    def __post_init__(self):
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
    The group's hs, dy_h and y_h depend on the reference alone and are
    recorded for as long as it lives.  errors[m] is the BlowupError that
    ended member m, or None; an ended member's series read NaN from its
    blow-up on."""
    errors: list = None

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
    which the run consumes; _fill draws every member's next steps into one
    (members, chunk) + draw shape buffer, about _DRAW_BYTES per generator
    call, and a step's block, the view buf[:, j], drives member m in
    every cell.  The reference (row 0) and the estimates (group-major,
    then cell, then member) advance as one stack, so the nonlinearity,
    the norms and kappa run once per step for all of them; increment,
    G(u) dW, the observation and the Hilbert-Schmidt norm run once per
    group.  Each estimate's numbers are bit-identical to a run of it
    alone.  With no groups the reference steps alone.

    record, a Record, names the series to keep and their steps.  A
    monitor runs only at those steps; as a value at step i depends only
    on the state at step i, it has the bits of an every-step run.  The
    blow-up accumulator and the running sum y behind dy_h, y_h run at
    every step.

    Returns (reference, results): the reference's SimResult, or the
    BlowupError that ended it, and results[g][k], the CellResult of cell
    k of group g.  An estimate whose accumulator leaves the guard ends,
    and rests at 0 in its row, so the stack keeps its shape; a reference
    blow-up ends every estimate still running, and the run stops when no
    estimate is left.
    """
    if groups and not rngs:
        raise ValueError("need at least one member")
    members = len(rngs)
    n = cfg.nsteps
    dt = cfg.dt
    steps = [np.arange(n + 1) if s is None else np.unique(np.asarray(s, dtype=int))
             for s in (record.at, record.u_path, record.v_path)]
    if (not set(record.series) <= set(SERIES)
            or any(s.size and not 0 <= s[0] <= s[-1] <= n for s in steps)):
        raise ValueError("cannot record %r over %d steps" % (record, n))
    cells = [(g, k, mu) for g, grp in enumerate(groups)
             for k, mu in enumerate(grp.mus)]
    rows = len(cells) * members
    row_cells = [cell for cell in cells for _ in range(members)]
    x = np.stack([u0] + [v0] * rows)
    implicit = [cfg.implicit_nudging and grp.op is not None
                and grp.op.kind == "modal" for grp in groups]
    noisy = [grp.coef is not None and grp.coef.sigma > 0.0
             and grp.q is not None for grp in groups]
    pulled = [grp.op is not None and any(mu > 0.0 for mu in grp.mus)
              for grp in groups]
    shapes = [grp.q.draw_shape for grp in groups if grp.q is not None]
    if shapes:
        chunk = max(1, _DRAW_BYTES // (8 * int(np.prod(shapes[0]))))
        buf = np.empty((members, chunk) + shapes[0])
    # per stack row, Python floats as a scalar-mu run would form them: the
    # mu of the noise term and the factor of the pull (a cell with mu = 0
    # in a pulled group adds a zero pull)
    col = (-1,) + (1,) * len(spec.shape)
    mu_col = np.array([0.0] + [mu for _, _, mu in row_cells]).reshape(col)
    pull_col = np.array([0.0] + [dt * mu if implicit[g] else -dt * mu
                                 for g, _, mu in row_cells]).reshape(col)
    inv_ref = 1.0 / (1.0 + dt * spec.a)
    inv = inv_ref
    if any(implicit[g] and mu > 0.0 for g, _, mu in cells):
        # one resolvent per row: an implicitly nudged row's also holds its
        # mu I_d part
        inv = np.stack([np.broadcast_to(r, spec.shape) for r in [inv_ref] + [
            1.0 / (1.0 + dt * spec.a + dt * mu * groups[g].op.data)
            if implicit[g] and mu > 0.0 else inv_ref
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
    # the requested arrays, led by their member or group axis: NaN until
    # recorded, but hs (0 on a noiseless group) and the observation path
    # (0 at t = 0) start at 0
    lead = {**dict.fromkeys(_PER_MEMBER, (rows,)),
            **dict.fromkeys(_PER_GROUP, (len(groups),))}
    rec = {f: np.full(lead.get(f, ()) + (len(slot),),
                      0.0 if f in _PER_GROUP else np.nan) for f in record.series}
    for f, at in (("u_path", u_at), ("v_path", v_at)):
        rec[f] = np.full(lead.get(f, ()) + (len(at),) + spec.shape, np.nan,
                         dtype=spec.dtype)
    y = [np.zeros(spec.shape, dtype=spec.dtype)] * len(groups)

    def store(i, x):
        j = slot.get(i)
        if j is not None:
            wc = x[0] - x[1:]
            for f, z, space in (("w_h", wc, "H"), ("w_vstar", wc, "Vstar"),
                                ("v_h", x[1:], "H")):
                if rows and f in rec:
                    rec[f][live, j] = norm_raw(spec, z, space)[live]
            if "u_h" in rec:
                rec["u_h"][j] = norm_raw(spec, x[0], "H")
            if "kappa" in rec:
                rec["kappa"][j] = spec.kappa_raw(x[0])
            for g, grp in enumerate(groups):
                if "hs" in rec and noisy[g]:
                    rec["hs"][g, j] = hs_norm_sq(grp.coef, spec, x[0], grp.q)
        if i in u_at:
            rec["u_path"][u_at[i]] = x[0]
        if i in v_at:
            rec["v_path"][live, v_at[i]] = x[1:][live]

    store(0, x)
    # per row in Python floats: x ** 2 is pow(), which an array square
    # (x * x) does not always match in the last bit
    acc = [0.0] * (1 + rows)
    for i in range(1, n + 1):
        if shapes:
            j = (i - 1) % chunk
            if not j:
                _fill(rngs, buf[:, :n + 1 - i])
            block = buf[:, j]
        rhs = x + dt * spec.f_raw(x)
        for g, grp in enumerate(groups):
            s, take = spans[g]
            if noisy[g]:
                gdw = apply_G_raw(grp.coef, spec, x[0],
                                  increment_from_noise(spec, grp.q, dt, block))
                rhs[s] += mu_col[s] * gdw[take]
            if pulled[g]:
                # implicit: pull toward the advanced reference, so u == v
                # stays a fixed point and each kept mode contracts by
                # 1/(1 + dt*a + dt*mu); explicit: adding (-dt*mu) * x
                # rounds exactly like subtracting dt*mu*x
                gap = rhs[0] * inv_ref if implicit[g] else x[s] - x[0]
                rhs[s] += pull_col[s] * apply_observation_raw(grp.op, spec, gap)
            if {"dy_h", "y_h"} & rec.keys() and grp.op is not None:
                # dy = I_delta u dt + G(u) dW (the noise term carries no mu)
                dy = dt * apply_observation_raw(grp.op, spec, x[0])
                if noisy[g]:
                    dy = dy + gdw[0]
                y[g] = y[g] + dy
                for f, z in (("dy_h", dy), ("y_h", y[g])):
                    if f in rec and i in slot:
                        rec[f][g, slot[i]] = norm_raw(spec, z, "H")
        x = rhs * inv
        t = i * dt
        acc = [a + dt * v ** 2 for a, v in zip(acc, norm_raw(spec, x, "V").tolist())]
        # "not <=" also catches NaN and inf
        ok = [a <= cfg.blowup_guard for a in acc]
        if not all(ok):
            if not ok[0]:
                ref_error = BlowupError("reference", i, t, acc[0])
                break
            # an ended estimate rests at 0, a fixed point of its row's
            # step: F(0) = 0, and its noise and pull factors become 0
            for k, good in enumerate(ok):
                if not good:
                    errors[k - 1] = BlowupError("assimilated", i, t, acc[k])
                    live[k - 1] = False
                    x[k] = mu_col[k] = pull_col[k] = acc[k] = 0.0
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
