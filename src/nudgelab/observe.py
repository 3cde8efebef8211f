"""Coarse observation operators and the approximation-of-identity bound.

Two kinds at scale delta > 0.  The modal kind keeps spectral modes with
|k| <= K(delta) := floor(pi/delta) (1D: k <= K), a self-adjoint
idempotent projection.  The volume kind averages over cells of width
delta (snapped to m = round(domain/delta) equal cells), then embeds the
piecewise-constant function back into the spectral space; with exact
per-cell integrals this composition is self-adjoint and positive but
not a projection.  It couples only modes that alias on the cells
(k = +-k' mod 2m on the sine grid, each axis mod m on the torus), and on
such a class it is rank one per scalar component:
(I_delta c)_k = conj(s_k) sum_k' s_k' c_k'.  On the sine grid the cell
integrals of a class are positive multiples of one vector, and s_k is
sqrt(m) times the norm of mode k's; on the torus s(k) = sigma(ky)
sigma(kx), sigma the cell mean of e^{ikx}.  make_observation computes
the classes once, and both I_delta (with no matrix product, so its bits
depend on no BLAS kernel) and C_I read them.  Both kinds satisfy

    <f - I_delta f, g>  <=  C_I delta ||f||_H ||g||_V,

whose best constant C_I is computed exactly, as an operator norm
(estimate_interp_constant); eta0 = 2 alpha / C_I^2 is the
well-posedness threshold for mu delta^2.  Operators act on raw
coefficient arrays together with the model's spec.
"""

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObservationOperator:
    """I_delta for one model; data is the kept-mode mask (modal) or the
    AliasClasses of its cells (volume)."""
    kind: str
    delta: float
    model_id: str
    cutoff: int = 0          # modal: retained-mode bound K(delta)
    cells: int = 0           # volume: cells per axis
    data: object = field(default=None, repr=False, compare=False)


# A volume operator's band, sorted by alias class: entry i reads the
# coefficient at flat index index[i] of the scalar layout, conjugated where
# sign[i] is -1 (the partner -k of a stored kx > 0 torus entry), with
# weight s[i]; cls[i] is its class, starts[j] the first entry of class j.
AliasClasses = namedtuple("AliasClasses", "index sign s cls starts")


def make_observation(spec, kind, delta):
    """Build an observation operator at scale delta for the given model."""
    domain = spec.params["domain"]
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if delta > domain:
        raise ValueError("delta exceeds the domain size %g" % domain)
    if kind == "modal":
        cut = int(np.floor(np.pi / delta))
        kabs = spec.params["kabs"]
        keep = (kabs <= cut) & spec.mask
        return ObservationOperator(kind, float(delta), spec.model_id,
                                   cutoff=cut, data=keep)
    if kind != "volume":
        raise ValueError("kind must be modal or volume")
    m = int(round(domain / delta))
    if spec.kind == "sine":
        k = spec.params["kabs"]
        edges = np.arange(m + 1) / m
        kpi = k * np.pi
        # exact integral of sqrt(2) sin(k pi x) over each cell
        cellint = np.sqrt(2.0) * (np.cos(kpi * edges[:-1, None])
                                  - np.cos(kpi * edges[1:, None])) / kpi
        s = np.sqrt(m * (cellint * cellint).sum(axis=0))
        index, sign = np.arange(spec.n), np.ones(spec.n, dtype=int)
        key = np.minimum(k.astype(int) % (2 * m), -k.astype(int) % (2 * m))
    else:
        # the full band: the stored entries, then the partners of kx > 0
        tor = spec.aux
        band = np.flatnonzero(spec.mask)
        right = band[tor.kx.flat[band] > 0]
        index = np.concatenate([band, right])
        sign = np.repeat([1, -1], [band.size, right.size])
        q = sign * np.stack([tor.ky.flat[index], tor.kx.flat[index]]).astype(int)
        qs = np.where(q == 0, 1, q)    # keeps 0/0 out of q = 0
        width = domain / m
        sigma = np.where(q == 0, 1.0, np.expm1(1j * qs * width) / (1j * qs * width))
        s = sigma[0] * sigma[1]
        key = (q[0] % m) * m + q[1] % m
    order = np.argsort(key, kind="stable")
    _, starts, cls = np.unique(key[order], return_index=True, return_inverse=True)
    classes = AliasClasses(index[order], sign[order], s[order], cls, starts)
    return ObservationOperator(kind, float(delta), spec.model_id, cells=m, data=classes)


def apply_observation_raw(op, spec, c):
    """I_delta applied to a raw coefficient array, or to each array of a
    stack on leading axes; linear, and for the modal kind idempotent."""
    if op.kind == "modal":
        return np.where(op.data, c, 0.0)
    # per scalar component: gather, sum s c per class, scatter conj(s) sum
    p = op.data
    flat = c.reshape(c.shape[: c.ndim - spec.mask.ndim] + (-1,))
    v = flat[..., p.index]
    sums = np.add.reduceat(p.s * np.where(p.sign < 0, np.conj(v), v), p.starts, axis=-1)
    stored = p.sign > 0
    out = np.zeros(flat.shape, dtype=spec.dtype)
    out[..., p.index[stored]] = (np.conj(p.s) * sums[..., p.cls])[..., stored]
    return spec.project_raw(out.reshape(c.shape))


def estimate_interp_constant(op, spec):
    """Exact constant of <f - I_delta f, g> <= C_I delta ||f||_H ||g||_V:
    the norm of D^-1 (I - I_delta) on H-unit modes, D = w_V / w_H, over delta.

    Modal: 1 / (delta min D) over the unobserved modes, 0 if none is.
    Volume: per alias class (op.data), the Gram matrix of per-mode columns
    |s|, times k_perp/|k| on vector models, the lift that Leray keeps (the
    phases of s and i cancel in the norm).
    """
    if spec.model_id != op.model_id:
        raise ValueError("operator belongs to %s" % op.model_id)
    if op.kind == "modal":
        unseen = spec.mask & ~op.data
        d = spec.w_v[unseen] / spec.w_h[unseen]
        return 1.0 / (op.delta * float(d.min())) if d.size else 0.0
    p = op.data
    cols = np.abs(p.s)[:, None]
    if spec.ncomp > 1:
        tor = spec.aux
        lift = p.sign * np.stack([-tor.ky.flat[p.index], tor.kx.flat[p.index]])
        cols = cols * lift.T / tor.kabs.flat[p.index][:, None]
    wh, wv = spec.w_h.flat[p.index], spec.w_v.flat[p.index]
    slot = np.arange(p.cls.size) - p.starts[p.cls]
    left = np.zeros((p.starts.size, slot.max() + 1, cols.shape[1]))
    right = left.copy()
    left[p.cls, slot] = (wh * wh / wv)[:, None] * cols
    right[p.cls, slot] = cols / wh[:, None]
    # products and sums, not matmul: the blocks do not depend on the BLAS kernel
    blocks = -(left[:, :, None, :] * right[:, None, :, :]).sum(-1)
    blocks[p.cls, slot, slot] += wh / wv
    return float(np.linalg.svd(blocks, compute_uv=False).max()) / op.delta


def eta0(alpha, c_i):
    """Well-posedness threshold for mu delta^2: eta0 = 2 alpha / C_I^2."""
    if not (alpha > 0.0 and c_i > 0.0):
        raise ValueError("alpha and C_I must be positive")
    return 2.0 * alpha / (c_i * c_i)
