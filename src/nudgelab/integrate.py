"""IMEX Euler-Maruyama stepping for the reference equation, the nudged
estimate, and the stochastic convolution.

One step treats A implicitly and everything else explicitly at the left
endpoint (Ito convention):

    u+ = (I + dt A)^(-1) (u + dt F(u))
    v+ = (I + dt A)^(-1) (v + dt F(v) - dt mu I_d(v - u) + mu G(u) dW)

With implicit nudging (modal operators only, where I_d is diagonal) the
mu I_d v term moves into the resolvent instead, and the explicit pull
dt mu I_d u+ is toward the advanced reference.  The implicit A part
makes the linear stability unconditional, so large mu needs no dt*mu
restriction.  The stochastic convolution is the same update with F = 0,
no nudging and u frozen; all of them go through one function, _imex.

An ensemble is one loop, simulate_members: the reference steps once and
all estimates step together on a leading member axis, each member
drawing from its own noise source; simulate_pair is its one-member case.

Blow-up is a monitored abort, never a silent NaN: the discrete
L^2(0,t;V) accumulator of either trajectory exceeding the guard raises
BlowupError with the step index (in an ensemble the member that blew up
drops out, with the error as its result).

The only randomness consumed is one fixed-shape standard-normal block
per member and step whenever a QSpec is supplied (even at sigma = 0, so
runs that differ only in sigma share their noise realizations), which
keeps a paired stochastic_convolution run on the same seed bit-identical.
"""

from dataclasses import dataclass

import numpy as np

from .fields import Field, norm_raw, spec_of_id
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


def _noise_source(seed, q, noise_source=None):
    """Step index -> raw standard-normal block of that step: noise_source
    when given, else successive draws from the generator of seed."""
    if noise_source is not None:
        return noise_source
    rng = _rng_for(seed)
    return lambda i: rng.standard_normal(q.draw_shape)


def _imex(x, inv, *terms, dt=0.0, f_raw=None):
    """The resolvent update (x + dt F(x) + terms) * inv, inv = 1 / (1 + dt a)
    or its implicitly nudged variant; the explicit terms are added left to
    right, so every caller rounds the same way."""
    rhs = x if f_raw is None else x + dt * f_raw(x)
    for term in terms:
        rhs = rhs + term
    return rhs * inv


def step_reference(u, dt):
    """One IMEX step of u' + Au = F(u)."""
    spec = spec_of_id(u.model_id)
    inv = 1.0 / (1.0 + dt * spec.a)
    return Field(u.model_id, _imex(u.coeffs, inv, dt=dt, f_raw=spec.f_raw))


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


def simulate_pair(model, cfg, op, coef, q, u0, v0, seed, noise_source=None,
                  emit_y=False, record_u=False, record_v=False):
    """Integrate the coupled pair over [0, T]; deterministic given seed.

    noise_source, when given, replaces the rng: called with the step
    index, it must return the raw standard-normal block for that step.
    """
    res, = simulate_members(model, cfg, op, coef, q, u0, v0,
                            [_noise_source(seed, q, noise_source)],
                            emit_y=emit_y, record_u=record_u, record_v=record_v)
    if isinstance(res, BlowupError):
        raise res
    return res


def simulate_members(spec, cfg, op, coef, q, u0, v0, sources, emit_y=False,
                     record_u=False, record_v=False):
    """Integrate one reference and len(sources) estimates in lockstep.

    Member m draws its noise from sources[m] (step index -> raw block).
    The estimates advance together as one (members,) + spec.shape array,
    so every kernel runs once per step for all of them, and everything
    that depends on u alone (its step, norms, kappa, the Hilbert-Schmidt
    norm, the state factor of G(u), the implicit pull) once for all.
    Each member's numbers are bit-identical to a run of that member
    alone.  emit_y keeps the observation path of member 0.

    Returns one SimResult per member, or the BlowupError that ended it;
    a member whose accumulator leaves the guard drops out of the batch,
    a reference blow-up ends every member still running.
    """
    members = len(sources)
    uc = np.array(u0.coeffs)
    vc = np.repeat(np.asarray(v0.coeffs)[None], members, axis=0)
    n = cfg.nsteps
    dt = cfg.dt
    mu = cfg.mu
    denom_u = 1.0 / (1.0 + dt * spec.a)
    implicit = cfg.implicit_nudging and op is not None and op.kind == "modal" and mu > 0.0
    if implicit:
        denom_v = 1.0 / (1.0 + dt * spec.a + dt * mu * op.data[0])
    else:
        denom_v = denom_u

    noisy = coef is not None and coef.sigma > 0.0 and q is not None
    live = np.arange(members)          # member index of each batch row
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

    def record(i, uc, vc):
        wc = uc - vc
        w_h[live, i] = norm_raw(spec, wc, "H")
        w_vstar[live, i] = norm_raw(spec, wc, "Vstar")
        u_h[i] = norm_raw(spec, uc, "H")
        v_h[live, i] = norm_raw(spec, vc, "H")
        kap[i] = spec.kappa_raw(uc)
        if noisy:
            hs[i] = hs_norm_sq(coef, uc, q)
        if u_path is not None:
            u_path[i] = uc
        if v_path is not None:
            v_path[i, live] = vc

    record(0, uc, vc)
    acc_u = 0.0
    acc_v = [0.0] * members
    for i in range(1, n + 1):
        gdw = 0.0
        if q is not None:
            block = np.stack([sources[m](i - 1) for m in live])
            dw = increment_from_noise(q, dt, block)
            if noisy:
                gdw = apply_G_raw(coef, spec, uc, dw)
        uc_new = _imex(uc, denom_u, dt=dt, f_raw=spec.f_raw)
        terms = (mu * gdw,)
        if implicit:
            # pull toward the advanced reference: u == v then stays a fixed
            # point and each kept mode contracts by 1/(1 + dt*a + dt*mu)
            terms += (dt * mu * apply_observation_raw(op, spec, uc_new),)
        elif op is not None and mu > 0.0:
            # adding (-dt*mu) * x rounds exactly like subtracting dt*mu*x
            terms += (-dt * mu * apply_observation_raw(op, spec, vc - uc),)
        vc_new = _imex(vc, denom_v, *terms, dt=dt, f_raw=spec.f_raw)
        if emit_y and op is not None and live[0] == 0:
            # dy = I_delta u dt + G(u) dW (the noise term carries no mu)
            dy = dt * apply_observation_raw(op, spec, uc)
            if noisy:
                dy = dy + gdw[0]
            y = y + dy
            dy_h[i] = norm_raw(spec, dy, "H")
            y_h[i] = norm_raw(spec, y, "H")
        uc, vc = uc_new, vc_new
        t = i * dt
        acc_u += dt * norm_raw(spec, uc, "V") ** 2
        # per member in Python floats: x ** 2 is pow(), which an array
        # square (x * x) does not always match in the last bit
        acc_v = [a + dt * x ** 2 for a, x in zip(acc_v, norm_raw(spec, vc, "V").tolist())]
        # "not <=" also catches NaN and inf
        if not acc_u <= cfg.blowup_guard:
            errors.update((m, BlowupError("reference", i, t, acc_u)) for m in live)
            break
        ok = [acc <= cfg.blowup_guard for acc in acc_v]
        if not all(ok):
            errors.update((m, BlowupError("assimilated", i, t, acc))
                          for m, acc, good in zip(live, acc_v, ok) if not good)
            if not any(ok):
                break
            live, vc = live[ok], vc[ok]
            acc_v = [acc for acc, good in zip(acc_v, ok) if good]
        record(i, uc, vc)

    times = np.arange(n + 1) * dt
    u_final = Field(spec.model_id, uc)
    results = [errors.get(m) for m in range(members)]
    for k, m in enumerate(live):
        if results[m] is None:
            results[m] = SimResult(
                times, w_h[m], w_vstar[m], u_h, v_h[m], hs, kap, u_final,
                Field(spec.model_id, vc[k]),
                dy_h if m == 0 else None, y_h if m == 0 else None,
                u_path, None if v_path is None else v_path[:, m])
    return results


def stochastic_convolution(spec, cfg, coef, q, u_traj, seed, noise_source=None):
    """Z(t) = mu * integral of e^{-(t-s)A} G(u(s)) dW_s, discretized with
    the same resolvent and the same noise stream as simulate_pair.

    u_traj: array of reference coefficients per step (left endpoints),
    or None for coefficients that ignore u (additive).  Returns (times,
    z_path) with z_path[i] the coefficients of Z(t_i).
    """
    source = _noise_source(seed, q, noise_source)
    n = cfg.nsteps
    dt = cfg.dt
    denom = 1.0 / (1.0 + dt * spec.a)
    z = np.zeros(spec.shape, dtype=spec.dtype)
    z_path = np.empty((n + 1,) + spec.shape, dtype=spec.dtype)
    z_path[0] = z
    zero_u = np.zeros(spec.shape, dtype=spec.dtype)
    for i in range(1, n + 1):
        dw = increment_from_noise(q, dt, source(i - 1))
        uc = zero_u if u_traj is None else u_traj[i - 1]
        z = _imex(z, denom, cfg.mu * apply_G_raw(coef, spec, uc, dw))
        z_path[i] = z
    times = np.arange(n + 1) * dt
    return times, z_path
