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

There is one stepping loop, simulate_members: the reference and all
estimates advance together as one stack, the reference in row 0 and
member m in row 1 + m, each member drawing from its own noise source;
simulate_pair is its one-member case.

Blow-up is a monitored abort, never a silent NaN: the discrete
L^2(0,t;V) accumulator of either trajectory exceeding the guard raises
BlowupError with the step index (in an ensemble the member that blew up
drops out, with the error as its result).

The only randomness consumed is one fixed-shape standard-normal block
per member and step whenever a QSpec is supplied (even at sigma = 0, so
runs that differ only in sigma share their noise realizations).
"""

from dataclasses import dataclass

import numpy as np

from .fields import Field, norm_raw
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
        if self.mu < 0.0:
            raise ValueError("mu must be nonnegative")
        if not self.blowup_guard > 0.0:
            raise ValueError("blowup_guard must be positive")

    @property
    def nsteps(self):
        return int(round(self.T / self.dt))


def _rng_for(seed):
    # Philox takes an int or a SeedSequence alike
    return np.random.Generator(np.random.Philox(seed))


def _noise_source(seed, q):
    """Step index -> raw standard-normal block of that step, drawn in turn
    from the generator of seed."""
    rng = _rng_for(seed)
    return lambda i: rng.standard_normal(q.draw_shape)


@dataclass
class SimResult:
    """Per-step error series of one coupled run (all samples, stride 1)."""
    times: np.ndarray
    w_h: np.ndarray
    w_vstar: np.ndarray
    u_h: np.ndarray
    v_h: np.ndarray
    hs: np.ndarray
    kappa: np.ndarray
    u_final: Field
    v_final: Field
    dy_h: np.ndarray = None
    y_h: np.ndarray = None
    u_path: np.ndarray = None
    v_path: np.ndarray = None


def simulate_pair(model, cfg, op, coef, q, u0, v0, seed, emit_y=False,
                  record_u=False, record_v=False):
    """Integrate the coupled pair over [0, T]; deterministic given seed."""
    res, = simulate_members(model, cfg, op, coef, q, u0, v0,
                            [_noise_source(seed, q)],
                            emit_y=emit_y, record_u=record_u, record_v=record_v)
    if isinstance(res, BlowupError):
        raise res
    return res


def simulate_members(spec, cfg, op, coef, q, u0, v0, sources, emit_y=False,
                     record_u=False, record_v=False):
    """Integrate one reference and len(sources) estimates in lockstep.

    Member m draws its noise from sources[m] (step index -> raw block).
    The reference (row 0) and the estimates advance as one
    (1 + members,) + spec.shape stack, so every kernel runs once per step
    for all of them; what depends on u alone (kappa, the Hilbert-Schmidt
    norm, the state factor of G(u), the implicit pull) runs once on row
    0.  Each member's numbers are bit-identical to a run of it alone.
    emit_y keeps the observation path of member 0.

    Returns one SimResult per member, or the BlowupError that ended it;
    a member whose accumulator leaves the guard drops out of the stack,
    a reference blow-up ends every member still running.
    """
    members = len(sources)
    x = np.stack([u0.coeffs] + [v0.coeffs] * members)
    n = cfg.nsteps
    dt = cfg.dt
    mu = cfg.mu
    inv = 1.0 / (1.0 + dt * spec.a)
    implicit = cfg.implicit_nudging and op is not None and op.kind == "modal" and mu > 0.0
    if implicit:
        # one resolvent per row: the estimates' also holds the mu I_d part
        inv_v = 1.0 / (1.0 + dt * spec.a + dt * mu * op.data[0])
        inv = np.stack([np.broadcast_to(r, spec.shape)
                        for r in [inv] + [inv_v] * members])

    noisy = coef is not None and coef.sigma > 0.0 and q is not None
    live = np.arange(members)          # member index of each estimate row
    errors = {}
    w_h = np.empty((members, n + 1))
    w_vstar = np.empty((members, n + 1))
    v_h = np.empty((members, n + 1))
    u_h = np.empty(n + 1)
    hs = np.zeros(n + 1)
    kap = np.empty(n + 1)
    dy_h = np.zeros(n + 1) if emit_y else None
    y_h = np.zeros(n + 1) if emit_y else None
    u_path = np.empty((n + 1,) + spec.shape, dtype=spec.dtype) if record_u else None
    v_path = np.empty((n + 1, members) + spec.shape, dtype=spec.dtype) if record_v else None
    y = np.zeros(spec.shape, dtype=spec.dtype) if emit_y else None

    def record(i, x):
        wc = x[0] - x[1:]
        w_h[live, i] = norm_raw(spec, wc, "H")
        w_vstar[live, i] = norm_raw(spec, wc, "Vstar")
        h = norm_raw(spec, x, "H")
        u_h[i] = h[0]
        v_h[live, i] = h[1:]
        kap[i] = spec.kappa_raw(x[0])
        if noisy:
            hs[i] = hs_norm_sq(coef, x[0], q)
        if u_path is not None:
            u_path[i] = x[0]
        if v_path is not None:
            v_path[i, live] = x[1:]

    record(0, x)
    # per row in Python floats: x ** 2 is pow(), which an array square
    # (x * x) does not always match in the last bit
    acc = [0.0] * (1 + members)
    for i in range(1, n + 1):
        gdw = 0.0
        if q is not None:
            block = np.stack([sources[m](i - 1) for m in live])
            dw = increment_from_noise(q, dt, block)
            if noisy:
                gdw = apply_G_raw(coef, spec, x[0], dw)
        rhs = x + dt * spec.f_raw(x)
        rhs[1:] += mu * gdw
        if implicit:
            # pull toward the advanced reference: u == v then stays a fixed
            # point and each kept mode contracts by 1/(1 + dt*a + dt*mu)
            rhs[1:] += dt * mu * apply_observation_raw(op, spec, rhs[0] * inv[0])
        elif op is not None and mu > 0.0:
            # adding (-dt*mu) * x rounds exactly like subtracting dt*mu*x
            rhs[1:] += -dt * mu * apply_observation_raw(op, spec, x[1:] - x[0])
        if emit_y and op is not None and live[0] == 0:
            # dy = I_delta u dt + G(u) dW (the noise term carries no mu)
            dy = dt * apply_observation_raw(op, spec, x[0])
            if noisy:
                dy = dy + gdw[0]
            y = y + dy
            dy_h[i] = norm_raw(spec, dy, "H")
            y_h[i] = norm_raw(spec, y, "H")
        x = rhs * inv
        t = i * dt
        acc = [a + dt * v ** 2 for a, v in zip(acc, norm_raw(spec, x, "V").tolist())]
        # "not <=" also catches NaN and inf
        if not acc[0] <= cfg.blowup_guard:
            errors.update((m, BlowupError("reference", i, t, acc[0])) for m in live)
            break
        ok = [a <= cfg.blowup_guard for a in acc[1:]]
        if not all(ok):
            errors.update((m, BlowupError("assimilated", i, t, a))
                          for m, a, good in zip(live, acc[1:], ok) if not good)
            if not any(ok):
                break
            keep = [True] + ok
            live, x, acc = live[ok], x[keep], [a for a, good in zip(acc, keep) if good]
            if implicit:
                inv = inv[keep]
        record(i, x)

    times = np.arange(n + 1) * dt
    u_final = Field(spec.model_id, x[0])
    results = [errors.get(m) for m in range(members)]
    for k, m in enumerate(live):
        if results[m] is None:
            results[m] = SimResult(
                times, w_h[m], w_vstar[m], u_h, v_h[m], hs, kap, u_final,
                Field(spec.model_id, x[1 + k]),
                dy_h if m == 0 else None, y_h if m == 0 else None,
                u_path, None if v_path is None else v_path[:, m])
    return results
