"""Spectral states and diagonal norms for the triple V in H in V*.

Every model keeps its state as spectral coefficients with per-mode norm
weights for the three spaces.  Norms are weighted l2 sums,

    ||f||_X^2 = sum_k mult(k) w_X(k)^2 |f_k|^2,

the duality pairing extends the H inner product with weights w_H^2, and
the weights satisfy the interpolation identity w_V * w_Vstar = w_H^2 on
every retained mode.  The linear operator A acts mode-wise through
a(k) > 0; coercivity <Af, f> >= alpha ||f||_V^2 then holds with
alpha = min_k a(k) w_H(k)^2 / w_V(k)^2.

A field is a raw coefficient array, passed with its ModelSpec.  norm_raw
also takes a stack of arrays on leading axes and returns one norm per
field, which is how the ensemble integrator measures all its members at
once.
"""

import numpy as np


class ModelSpec:
    """A Gelfand-triple instantiation with diagonal spectral data.

    Parameters are arrays in the model's coefficient layout: ``a`` is the
    spectral action of A, ``w_h``/``w_v``/``w_vstar`` the norm weights,
    ``mask`` the retained (dealiased) band and ``mult`` the conjugate-pair
    multiplicity used when summing over stored modes.  ``f_raw`` evaluates
    the nonlinearity on a raw coefficient array, ``kappa_raw`` the model's
    kappa monitor, ``project_raw`` re-imposes the model's constraints
    (dealias band, zero mean, divergence-free and reality closures).
    """

    def __init__(self, model_id, kind, n, nu, ncomp, shape, dtype,
                 a, w_h, w_v, w_vstar, mask, mult,
                 f_raw, kappa_raw, project_raw, params=None):
        self.model_id = model_id
        self.kind = kind
        self.n = n
        self.nu = nu
        self.ncomp = ncomp
        self.shape = shape
        self.dtype = dtype
        self.a = a
        self.w_h = w_h
        self.w_v = w_v
        self.w_vstar = w_vstar
        self.mask = mask
        self.mult = mult
        self.f_raw = f_raw
        self.kappa_raw = kappa_raw
        self.project_raw = project_raw
        self.params = dict(params or {})

        wprod = (w_v * w_vstar)[mask]
        wh2 = (w_h * w_h)[mask]
        if not np.allclose(wprod, wh2, rtol=1e-12, atol=0.0):
            raise ValueError("norm weights must satisfy w_V*w_Vstar = w_H^2")
        if not np.all(a[mask] > 0.0):
            raise ValueError("a(k) must be positive on every retained mode")
        quot = a[mask] * wh2 / (w_v[mask] ** 2)
        self.alpha = float(quot.min())
        # embedding constant ||f||_V* <= c_emb ||f||_H
        self.c_emb = float((w_vstar[mask] / w_h[mask]).max())

    def weights(self, space):
        try:
            return {"H": self.w_h, "V": self.w_v, "Vstar": self.w_vstar}[space]
        except KeyError:
            raise ValueError("unknown space %r, expected H, V or Vstar" % (space,))

    def v_beta_weights(self, beta):
        """Weights of the interpolation space [V*, V]_beta (diagonal)."""
        w = self.w_vstar ** (1.0 - beta) * self.w_v ** beta
        return np.where(self.mask, w, 0.0)

    @property
    def dof(self):
        return int(np.prod(self.shape))

    def __repr__(self):
        return "ModelSpec(%s)" % self.model_id


def _wsum2(spec, a, w):
    # sum of mult * w^2 * |a_k|^2 over stored modes (and components), one
    # sum per field of a stack (a single vector component counts as one
    # field); each sum runs over a flattened field exactly as for a lone
    # field, so the bits do not depend on the stack
    if np.iscomplexobj(a):
        mag = (a.real * a.real + a.imag * a.imag)
    else:
        mag = a * a
    lead = a.shape[:max(a.ndim - len(spec.shape), 0)]
    return np.sum((spec.mult * (w * w) * mag).reshape(lead + (-1,)), axis=-1)


def norm_raw(spec, arr, space):
    """Norm of a raw coefficient array as a float, or an array of norms
    for a stack of arrays on leading axes."""
    r = np.sqrt(_wsum2(spec, arr, spec.weights(space)))
    return float(r) if r.ndim == 0 else r


def inner_h_raw(spec, a, b):
    """H inner product of two raw arrays, which is also the V*-V duality
    pairing: the pairing is realized with the H weights in coefficients."""
    w2 = spec.w_h * spec.w_h
    if np.iscomplexobj(a):
        prod = (a * np.conj(b)).real
    else:
        prod = a * b
    return float(np.sum(spec.mult * w2 * prod))
