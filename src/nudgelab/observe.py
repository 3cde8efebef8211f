"""Coarse observation operators and the approximation-of-identity bound.

Two kinds at scale delta > 0.  The modal kind keeps spectral modes with
|k| <= K(delta) := floor(pi/delta) (1D: k <= K), a self-adjoint
idempotent projection.  The volume kind averages over cells of width
delta (snapped to m = round(domain/delta) equal cells), then embeds the
piecewise-constant function back into the spectral space; with exact
per-cell integrals this composition is self-adjoint and positive but
not a projection.  Both satisfy the bilinear estimate

    <f - I_delta f, g>  <=  C_I delta ||f||_H ||g||_V,

whose best constant C_I is computed exactly, as an operator norm
(estimate_interp_constant); eta0 = 2 alpha / C_I^2 is the
well-posedness threshold for mu delta^2.  Operators act on raw
coefficient arrays together with the model's spec.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ObservationOperator:
    """I_delta for one model; data is the kept-mode mask (modal), the
    cell integrals (1D volume) or the cell-average matrix (2D volume)."""
    kind: str
    delta: float
    model_id: str
    cutoff: int = 0          # modal: retained-mode bound K(delta)
    cells: int = 0           # volume: cells per axis
    data: np.ndarray = field(default=None, repr=False, compare=False)


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
    if kind == "volume":
        m = int(round(domain / delta))
        if spec.kind == "sine":
            edges = np.arange(m + 1) / m
            k = spec.params["kabs"][None, :]
            kpi = k * np.pi
            # exact integral of sqrt(2) sin(k pi x) over each cell
            cellint = np.sqrt(2.0) * (np.cos(kpi * edges[:-1, None])
                                      - np.cos(kpi * edges[1:, None])) / kpi
            return ObservationOperator(kind, float(delta), spec.model_id,
                                       cells=m, data=cellint)
        width = domain / m
        left = np.arange(m) * width
        k = spec.aux.ky[:, 0]
        ks = np.where(k == 0, 1.0, k)    # keeps 0/0 out of the k = 0 column
        # (1/width) * integral of e^{i k x} over [a, a+width]; 1 at k = 0
        b = np.where(k == 0, 1.0, np.exp(1j * ks * left[:, None])
                     * np.expm1(1j * ks * width) / (1j * ks * width))
        return ObservationOperator(kind, float(delta), spec.model_id,
                                   cells=m, data=b)
    raise ValueError("kind must be modal or volume")


def _volume_scalar_full(op, cfull):
    # cell averages of a full-layout field, embedded back: the stored
    # rfft2 half of the result
    b = op.data
    m = op.cells
    avg = (b @ cfull @ b.T).real
    return (b.conj().T @ avg @ b.conj())[..., : b.shape[1] // 2 + 1] / (m * m)


def apply_observation_raw(op, spec, c):
    """I_delta applied to a raw coefficient array, or to each array of a
    stack on leading axes; linear, and for the modal kind idempotent."""
    if op.kind == "modal":
        return np.where(op.data, c, 0.0)
    if spec.kind == "sine":
        # stacked matrix-vector products: a stack as one matrix-matrix
        # product would round differently from the single-field case
        avg = op.cells * np.matmul(op.data, c[..., None])[..., 0]
        return np.matmul(op.data.T, avg[..., None])[..., 0]
    out = _volume_scalar_full(op, spec.aux.full_layout(c))
    return spec.project_raw(out)


def estimate_interp_constant(op, spec):
    """Exact constant of <f - I_delta f, g> <= C_I delta ||f||_H ||g||_V:
    the norm of D^-1 (I - I_delta) on H-unit modes, D = w_V / w_H, over delta.

    Modal: 1 / (delta min D) over the unobserved modes, 0 if none is.
    Volume: I_delta couples only modes that alias on its m cells (k = +-k'
    mod 2m on the sine grid, each axis mod m over the full torus band),
    on such a class as the Gram matrix of per-mode columns: the sine cell
    integrals times sqrt(m); on the torus |s| k_perp/|k|, s(k) = sigma(ky)
    sigma(kx) from the first row of the operator's data, k_perp/|k| the
    lift that Leray keeps (the phases of s and i cancel in the norm).
    """
    if spec.model_id != op.model_id:
        raise ValueError("operator belongs to %s" % op.model_id)
    if op.kind == "modal":
        unseen = spec.mask & ~op.data
        d = spec.w_v[unseen] / spec.w_h[unseen]
        return 1.0 / (op.delta * float(d.min())) if d.size else 0.0
    m = op.cells
    if spec.kind == "sine":
        k = spec.params["kabs"].astype(int)
        key = np.minimum(k % (2 * m), -k % (2 * m))
        cols, wh, wv = np.sqrt(m) * op.data.T, spec.w_h, spec.w_v
    else:
        # the full band: the stored wavevectors, then the partners -k of
        # those with kx > 0, which share their weights
        tor = spec.aux
        iy, ix = np.nonzero(spec.mask)
        sign = np.repeat([1, -1], [iy.size, np.count_nonzero(ix)])
        iy, ix = np.concatenate([iy, iy[ix > 0]]), np.concatenate([ix, ix[ix > 0]])
        ky, kx = sign * tor.ky[iy, ix].astype(int), sign * tor.kx[iy, ix].astype(int)
        key = (ky % m) * m + kx % m
        cols = np.abs(op.data[0, ky % tor.n] * op.data[0, kx % tor.n])[:, None]
        if spec.ncomp > 1:
            cols = cols * np.stack([-ky, kx], axis=1) / tor.kabs[iy, ix][:, None]
        wh, wv = spec.w_h[iy, ix], spec.w_v[iy, ix]
    order = np.argsort(key, kind="stable")
    key, cols, wh, wv = key[order], cols[order], wh[order], wv[order]
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    slot = np.arange(key.size) - first[cls]
    left = np.zeros((cls[-1] + 1, slot.max() + 1, cols.shape[1]))
    right = left.copy()
    left[cls, slot] = (wh * wh / wv)[:, None] * cols
    right[cls, slot] = cols / wh[:, None]
    # products and sums, not matmul: the blocks do not depend on the BLAS kernel
    blocks = -(left[:, :, None, :] * right[:, None, :, :]).sum(-1)
    blocks[cls, slot, slot] += wh / wv
    return float(np.linalg.svd(blocks, compute_uv=False).max()) / op.delta


def eta0(alpha, c_i):
    """Well-posedness threshold for mu delta^2: eta0 = 2 alpha / C_I^2."""
    if not (alpha > 0.0 and c_i > 0.0):
        raise ValueError("alpha and C_I must be positive")
    return 2.0 * alpha / (c_i * c_i)
