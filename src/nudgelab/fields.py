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
and inner_h_raw also take a stack of arrays on leading axes and return
one value per field, which is how the ensemble integrator measures all
its members at once.  The spec forms each space's factor mult * w_X^2
once, at construction.  One weighted sum serves every squared norm and
pairing: it multiplies that factor by Re(a_k conj(b_k)), formed as
a.real*b.real + a.imag*b.imag, and sums each field once, so a field
paired with itself is its squared H norm bit for bit.
"""

import math

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
        # mult * w_X^2 of each space, the factor every norm sums against
        self._norm_w2 = {"H": mult * (w_h * w_h), "V": mult * (w_v * w_v),
                         "Vstar": mult * (w_vstar * w_vstar)}

    def norm_w2(self, space):
        """The factor mult * w_X^2 of space X, one of H, V and Vstar."""
        try:
            return self._norm_w2[space]
        except KeyError:
            raise ValueError("unknown space %r, expected H, V or Vstar" % (space,))

    def v_beta_weights(self, beta):
        """Weights of the interpolation space [V*, V]_beta (diagonal)."""
        w = self.w_vstar ** (1.0 - beta) * self.w_v ** beta
        return np.where(self.mask, w, 0.0)

    def __repr__(self):
        return "ModelSpec(%s)" % self.model_id


def _wsum(spec, a, b, mw2):
    # sum of mw2 * Re(a_k conj(b_k)) over stored modes (and components),
    # mw2 the factor mult * w^2 of some weights w; one sum per field of a
    # stack (a single vector component counts as one field); each sum runs
    # over a flattened field exactly as for a lone field, so the bits do
    # not depend on the stack, and _wsum(spec, a, a, mw2) is the squared
    # norm's sum
    if np.iscomplexobj(a) or np.iscomplexobj(b):
        prod = a.real * b.real + a.imag * b.imag
    else:
        prod = a * b
    lead = prod.shape[:max(prod.ndim - len(spec.shape), 0)]
    flat = lead + (math.prod(prod.shape[len(lead):]),)
    return np.sum((mw2 * prod).reshape(flat), axis=-1)


def norm_raw(spec, arr, space):
    """Norm of a raw coefficient array as a float, or an array of norms
    for a stack of arrays on leading axes."""
    r = np.sqrt(_wsum(spec, arr, arr, spec.norm_w2(space)))
    return float(r) if r.ndim == 0 else r


def inner_h_raw(spec, a, b):
    """H inner product of two raw arrays, also the V*-V duality pairing, as
    a float, or an array of pairings for stacks on leading axes; the
    pairing of a field with itself is its squared H norm's sum, bit for bit."""
    r = _wsum(spec, a, b, spec.norm_w2("H"))
    return float(r) if r.ndim == 0 else r
