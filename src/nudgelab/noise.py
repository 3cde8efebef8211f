"""Q-Wiener increments, observation-noise coefficients, and their
Hilbert-Schmidt norms.

The covariance Q is diagonal in the model's spectral basis with
eigenvalues lambda_k^2, truncated at rank K_Q.  Increments are built
from standard normal draws in the H-orthonormalized mode directions, so
E <dW, e_k>_H <dW, e_j>_H = dt lambda_k^2 delta_jk holds in every model
regardless of its norm weights.  Vector models receive noise through
the solenoidal multiplier i k_perp/|k| (a per-mode isometry), keeping
increments divergence-free; the four-component model draws two
independent streams, velocity block first.  Kernels take the ModelSpec
with raw arrays; a QSpec holds the covariance and the increment's scale
1/w_H (0 off the rank), formed once with the QSpec, so a step's increment
only pairs the draws and multiplies.

The draw block consumed per step has a fixed shape, QSpec.draw_shape,
so a whole-horizon bulk draw slices into the same per-step increments as
repeated calls; this is what makes vectorized Monte Carlo bit-identical
to the single-path integrator.  On the sine grid the block holds one
normal per direction of Q's rank K_Q, modes 1..K_Q, and no more, so it
depends on delta but not on n: the increment is 0 above the rank, and
at any n >= K_Q one block gives the same increment on modes 1..K_Q.  On
the torus it holds the whole rfft layout of each stream, whatever the
rank.

The Hilbert-Schmidt norm of the pointwise kind sums over the noise
directions.  On the torus that sum is exactly one quadratic form per
mode, built once with the QSpec (_hs_form).  The sine models' 2n
collocation grid is not diagonal in the sine basis: there the directions
lambda_k e_k / w_H(k) on Q's rank are formed from the QSpec at each
call and transformed in one stack.  Either way the norm ends in one
weighted sum (fields._wsum).
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import _wsum, norm_raw
from .models import _sine_to_grid, _sine_from_grid

# the component pairs (a, b) of each block of two that a vector model's
# form weighs: (1, 1), (2, 2) and (1, 2), the last standing for both orders
_PAIRS = ((0, 0), (1, 1), (0, 1))


@dataclass(frozen=True)
class QSpec:
    """Diagonal trace-class covariance: Q e_k = lambda_k^2 e_k; inv_wh is
    1/w_H where lambda_k > 0 and 0 elsewhere.

    trace, the sum of lambda_k^2 over Q's directions, is the additive
    kind's Hilbert-Schmidt closed form.  form is the pointwise kind's on
    the torus: mult times the per-mode matrix M_p of _hs_form in the rfft
    layout, one array on qg and the _PAIRS entries of each block of two
    components stacked on the vector models; None on the sine grid.
    draw_shape is the shape of one step's standard-normal block: (K,) on
    the sine grid, K = count_nonzero(lam) the rank (modes 1..K, none at
    rank 0), and (nstreams, 2) + lam.shape on the torus, real and
    imaginary parts of every rfft coefficient of each stream."""
    lam: np.ndarray = field(repr=False)
    inv_wh: np.ndarray = field(repr=False)
    nstreams: int = 1
    trace: float = 0.0
    draw_shape: tuple = ()
    form: np.ndarray = field(default=None, repr=False)


def make_qspec(spec, delta=None):
    """Spectrum lambda_k = (1+|k|^2)^(-s), s = 1.0 (1D) or 1.5 (2D),
    truncated at rank K_Q = floor(pi/delta), the observation's own cutoff,
    or at the whole band when delta is None."""
    s = 1.0 if spec.kind == "sine" else 1.5
    kabs = spec.params["kabs"]
    if delta is not None and not delta > 0.0:
        raise ValueError("delta must be positive")
    # no delta: the whole band, whose torus corners reach |k| = kd sqrt(2)
    rank = (int(np.ceil(np.max(kabs[spec.mask]))) if delta is None
            else int(np.floor(np.pi / delta)))
    lam = np.where(spec.mask & (kabs <= rank), (1.0 + kabs ** 2) ** (-s), 0.0)
    nstreams = 1 if spec.ncomp <= 2 else spec.ncomp // 2
    trace = nstreams * float(_wsum(spec, lam, lam, spec.mult))
    if spec.kind == "sine":
        # the sine rank is a prefix of the modes 1..n, as kabs = k
        draw_shape = (int(np.count_nonzero(lam)),)
    else:
        draw_shape = (nstreams, 2) + lam.shape
    inv_wh = np.where(lam > 0.0, 1.0 / np.where(spec.w_h == 0.0, 1.0, spec.w_h), 0.0)
    form = None if spec.kind == "sine" else _hs_form(spec, (lam * inv_wh) ** 2)
    return QSpec(lam, inv_wh, nstreams, trace, draw_shape, form)


def _hs_form(spec, c):
    # The directions come in (cos, sin) pairs at each k, whose cross terms
    # cancel, so sum_e lam_e^2 ||P_band(u . e)||_H^2 = sum_p u_p^* M_p u_p
    # with M_p = sum_k c_k w_H(p+k)^2 1_band(p+k) D_k^* Pi_{p+k} D_k, c_k =
    # (lam_k / w_H(k))^2, D_k the lift diag(rz1, rz2) and Pi_j the Leray
    # projector (both 1 on qg).  As conj(rz_a) rz_b = Pi_ab(k), entry ab is
    # the circular correlation of c Pi_ab with w_H^2 Pi_ab (0 off the band),
    # both even and real: one product of grid values.  The 2/3 rule keeps
    # every alias of p + k out of the band, so the form is exact.
    tor = spec.aux
    pi = 1.0
    if spec.ncomp > 1:
        rz = (tor.rz1, tor.rz2)
        pi = np.stack([(np.conj(rz[a]) * rz[b]).real for a, b in _PAIRS])
    vals = tor.to_grid(c * pi) * tor.to_grid(spec.w_h * spec.w_h * pi)
    form = spec.mult * tor.from_grid(vals).real
    if spec.ncomp == 1:
        return form
    form[2] *= 2.0  # the (1, 2) entry counts for (2, 1) too
    return np.concatenate([form] * (spec.ncomp // 2))


def _scalar_stream(spec, q, block):
    # block shape (..., 2, N, nx) of standard normals -> Hermitian unit draws
    z = (block[..., 0, :, :] + 1j * block[..., 1, :, :]) / np.sqrt(2.0)
    col = z[..., :, 0]
    z[..., :, 0] = (col + np.conj(col[..., spec.aux.mirror])) / np.sqrt(2.0)
    out = q.lam * q.inv_wh * z
    return np.where(spec.mask, out, 0.0)


def increment_from_noise(spec, q, dt, block):
    """The Q-Wiener increment determined by a raw standard-normal block.

    A stack of blocks on leading axes gives the stack of increments.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    root = np.sqrt(dt)
    if spec.kind == "sine":
        # block holds modes 1..K of Q's rank; the modes above get 0
        k = q.draw_shape[0]
        out = np.zeros(block.shape[:-1] + (spec.n,))
        out[..., :k] = root * q.lam[:k] * q.inv_wh[:k] * block
        return out
    # block axes: (..., stream, real/imaginary, N, nx)
    if spec.ncomp == 1:
        return root * _scalar_stream(spec, q, block[..., 0, :, :, :])
    tor = spec.aux
    comps = []
    for s in range(q.nstreams):
        z = _scalar_stream(spec, q, block[..., s, :, :, :])
        comps.extend([tor.rz1 * z, tor.rz2 * z])
    return root * np.stack(comps, axis=-3)


@dataclass(frozen=True)
class NoiseCoefficient:
    """Observation-noise coefficient G_delta(u).

    kinds: additive (sigma_delta * dW with sigma_delta = sigma*delta^p),
    state_scaled (sigma*||u||_H * dW, which vanishes on the attractor
    {0} of a decaying reference), pointwise_multiplicative (sigma * u.dW
    by collocation, dealiased).  Linear in dW for every kind; p is read
    by the additive kind only, so the other kinds take p = 0.
    """
    kind: str
    sigma: float
    p: float = 0.0
    delta: float = 1.0

    @property
    def sigma_delta(self):
        return self.sigma * self.delta ** self.p


def make_noise_coefficient(kind, sigma, p=0.0, delta=1.0):
    if kind not in ("additive", "state_scaled", "pointwise_multiplicative"):
        raise ValueError("unknown noise kind %r" % (kind,))
    if not sigma >= 0.0:
        raise ValueError("sigma must be nonnegative")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if p not in (0.0, 0.5):
        raise ValueError("p must be 0 or 0.5")
    if p != 0.0 and kind != "additive":
        raise ValueError("p scales additive noise only; %s noise needs p = 0"
                         % kind)
    return NoiseCoefficient(kind, float(sigma), float(p), float(delta))


_OFF_GRID = "a state of shape %s does not fit the %s grid of shape %s"


def _to_grid(spec, c):
    # dealiased collocation values of fields stacked on leading axes.  The
    # sine grid is 2n, not the cube's 5-smooth one: the product of two sine
    # fields is a cosine series, which no sine grid resolves exactly, so
    # this grid defines the pointwise collocation operator G, and moving
    # it changes G itself (by 3e-5 at n = 8, on 17 points), not its rounding
    return _sine_to_grid(c, 2 * spec.n) if spec.kind == "sine" else spec.aux.to_grid(c)


def _from_grid(spec, vals):
    if spec.kind == "sine":
        return _sine_from_grid(vals, spec.n)
    return spec.project_raw(spec.aux.from_grid(vals))


def apply_G_raw(coef, spec, uc, dw):
    """G_delta(u) applied to dw, for one state u; linear in dw, which may
    stack the increments of several members, the factor of u computed once."""
    if np.shape(uc) != spec.shape:
        raise ValueError(_OFF_GRID % (np.shape(uc), spec.model_id, spec.shape))
    if coef.kind == "additive":
        return coef.sigma_delta * dw
    if coef.kind == "state_scaled":
        return (coef.sigma * norm_raw(spec, uc, "H")) * dw
    return coef.sigma * _from_grid(spec, _to_grid(spec, uc) * _to_grid(spec, dw))


def hs_norm_sq(coef, spec, uc, q):
    """||G_delta(u)||^2 in the Hilbert-Schmidt norm over Q^(1/2)H -> H,
    for one state u.

    Closed forms for the kinds that scale dW.  The pointwise kind sums
    lambda^2 ||u . e||_H^2 over the noise directions e in one weighted
    sum: on the torus of u against q.form, which no transform reads; on
    the sine grid of the products u . lambda_k e_k / w_H(k), formed from
    q and transformed in one stack, against the H weights.
    """
    if np.shape(uc) != spec.shape:
        raise ValueError(_OFF_GRID % (np.shape(uc), spec.model_id, spec.shape))
    if coef.kind == "additive":
        return coef.sigma_delta ** 2 * q.trace
    if coef.kind == "state_scaled":
        return float(coef.sigma ** 2 * _wsum(spec, uc, uc, spec.norm_w2("H"))
                     * q.trace)
    if q.form is not None:
        a = b = uc
        if spec.ncomp > 1:
            rows, cols = zip(*[(i + r, i + c) for i in range(0, spec.ncomp, 2)
                               for r, c in _PAIRS])
            a, b = uc[list(rows)], uc[list(cols)]
        w = q.form
    else:
        keep = np.flatnonzero(q.lam > 0.0)
        dirs = (np.arange(spec.n) == keep[:, None]) * (q.lam * q.inv_wh)
        a = b = _from_grid(spec, _to_grid(spec, uc) * _to_grid(spec, dirs))
        w = spec.norm_w2("H")
    return float(coef.sigma ** 2 * _wsum(spec, a, b, w).sum())
