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
with raw arrays; a QSpec holds the covariance only.

The draw block consumed per step has a fixed shape, so a whole-horizon
bulk draw slices into the same per-step increments as repeated calls;
this is what makes vectorized Monte Carlo bit-identical to the
single-path integrator.

The Hilbert-Schmidt norm of the pointwise kind has no closed form: it
sums over the noise directions, which are evaluated in fixed-size stacks
(one collocation product and one norm call per stack) and added up in
direction order, bit-identical to the sum taken one direction at a time.
"""

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .fields import norm_raw
from .models import _lift_scalar_mode, _sine_to_grid, _sine_from_grid

# Noise directions per stacked product in hs_norm_sq.  Directions are
# pulled lazily, so no more than this many arrays are alive at once; a
# stack of all 197 directions of qg n = 32 raised the peak memory of a
# run by 14%, a stack of 16 by under 1%.
_HS_CHUNK = 16


@dataclass(frozen=True)
class QSpec:
    """Diagonal trace-class covariance: Q e_k = lambda_k^2 e_k, rank K_Q."""
    lam: np.ndarray = field(repr=False)
    rank: int = 0
    nstreams: int = 1
    trace: float = 0.0
    draw_shape: tuple = ()


def make_qspec(spec, exponent="auto", k_q="auto", delta=None):
    """Spectrum lambda_k = (1+|k|^2)^(-s), truncated at K_Q.

    exponent "auto" picks s = 1.0 (1D) or 1.5 (2D); k_q "auto" ties the
    rank to the observation scale, K_Q = floor(pi/delta), or keeps the
    full band when no delta is given.
    """
    if exponent == "auto":
        s = 1.0 if spec.kind == "sine" else 1.5
    else:
        s = float(exponent)
    kabs = spec.params["kabs"]
    if k_q == "auto":
        rank = int(np.floor(np.pi / delta)) if delta else int(np.max(kabs[spec.mask]))
    else:
        rank = int(k_q)
        if rank < 0:
            raise ValueError("k_q must be nonnegative")
    lam = np.where(spec.mask & (kabs <= rank), (1.0 + kabs ** 2) ** (-s), 0.0)
    nstreams = 1 if spec.ncomp <= 2 else spec.ncomp // 2
    trace = nstreams * float(np.sum(spec.mult * lam * lam))
    if spec.kind == "sine":
        draw_shape = (spec.n,)
    else:
        draw_shape = (nstreams, 2) + lam.shape
    return QSpec(lam, rank, nstreams, trace, draw_shape)


def _scalar_stream(spec, q, block):
    # block shape (..., 2, N, nx) of standard normals -> Hermitian unit draws
    z = (block[..., 0, :, :] + 1j * block[..., 1, :, :]) / np.sqrt(2.0)
    col = z[..., :, 0]
    z[..., :, 0] = (col + np.conj(np.roll(col[..., ::-1], 1, axis=-1))) / np.sqrt(2.0)
    inv_wh = np.where(q.lam > 0.0, 1.0 / np.where(spec.w_h == 0.0, 1.0, spec.w_h), 0.0)
    out = q.lam * inv_wh * z
    return np.where(spec.mask, out, 0.0)


def increment_from_noise(spec, q, dt, block):
    """The Q-Wiener increment determined by a raw standard-normal block.

    A stack of blocks on leading axes gives the stack of increments.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    root = np.sqrt(dt)
    if spec.kind == "sine":
        inv_wh = np.where(q.lam > 0.0, 1.0 / spec.w_h, 0.0)
        return root * q.lam * inv_wh * block
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
    if sigma < 0.0:
        raise ValueError("sigma must be nonnegative")
    if p not in (0.0, 0.5):
        raise ValueError("p must be 0 or 0.5")
    if p != 0.0 and kind != "additive":
        raise ValueError("p scales additive noise only; %s noise needs p = 0"
                         % kind)
    return NoiseCoefficient(kind, float(sigma), float(p), float(delta))


def _pointwise_product(spec, uc, wc):
    # wc may stack several fields on leading axes; uc is one field
    if spec.kind == "sine":
        m = 2 * spec.n
        vals = _sine_to_grid(uc, m) * _sine_to_grid(wc, m)
        return _sine_from_grid(vals, spec.n)
    tor = spec.aux
    return spec.project_raw(tor.from_grid(tor.to_grid(uc) * tor.to_grid(wc)))


def apply_G_raw(coef, spec, uc, dw):
    """G_delta(u) applied to dw, linear in dw; dw may stack the increments
    of several members, and the factor that depends on u is computed once."""
    if coef.kind == "additive":
        return coef.sigma_delta * dw
    if coef.kind == "state_scaled":
        return (coef.sigma * norm_raw(spec, uc, "H")) * dw
    return coef.sigma * _pointwise_product(spec, uc, dw)


def noise_directions(spec, q):
    """The real H-orthonormal directions spanned by Q, with their lambdas.

    Yields (lam, raw array); used for dense assembly of G and for the
    Hilbert-Schmidt sum of the pointwise kind.
    """
    if spec.kind == "sine":
        for k in np.flatnonzero(q.lam > 0.0):
            c = np.zeros(spec.shape)
            c[k] = 1.0 / spec.w_h[k]
            yield float(q.lam[k]), c
        return
    tor = spec.aux
    half = np.sqrt(0.5)
    for iy, ix in np.argwhere(q.lam > 0.0):
        if ix == 0 and (iy == 0 or iy > tor.n // 2):
            continue  # conjugate mirror of an already-listed direction
        wh = spec.w_h[iy, ix]
        for val in (half / wh, 1j * half / wh):
            c = np.zeros((tor.n, tor.n // 2 + 1), dtype=complex)
            c[iy, ix] = val
            if ix == 0:
                c[(-iy) % tor.n, 0] = np.conj(val)
            lam = float(q.lam[iy, ix])
            for f in _lift_scalar_mode(spec, c):
                yield lam, f


def hs_norm_sq(coef, spec, uc, q):
    """||G_delta(u)||^2 in the Hilbert-Schmidt norm over Q^(1/2)H -> H.

    Closed forms for the kinds that scale dW; the pointwise kind sums
    lambda^2 ||u . e||_H^2 over the noise directions e, which go through
    the collocation product and the norm in stacks of _HS_CHUNK.  The sum
    runs in direction order, so it is bit-identical to evaluating one
    direction at a time.
    """
    if coef.kind == "additive":
        return coef.sigma_delta ** 2 * q.trace
    if coef.kind == "state_scaled":
        return coef.sigma ** 2 * norm_raw(spec, uc, "H") ** 2 * q.trace
    total = 0.0
    dirs = noise_directions(spec, q)
    for chunk in iter(lambda: list(islice(dirs, _HS_CHUNK)), []):
        lams, stack = zip(*chunk)
        norms = norm_raw(spec, _pointwise_product(spec, uc, np.stack(stack)), "H")
        # Python floats in direction order: x ** 2 is libm pow, which an
        # array square does not match in the last bit for every double
        for lam, x in zip(lams, norms.tolist()):
            total += lam * lam * x ** 2
    return coef.sigma ** 2 * total
