"""Coarse observation operators and the approximation-of-identity bound.

Two kinds at scale delta > 0.  The modal kind keeps spectral modes with
|k| <= K(delta) := floor(pi/delta) (1D: k <= K), a self-adjoint
idempotent projection.  The volume kind averages over cells of width
delta (snapped to m = round(domain/delta) equal cells), then embeds the
piecewise-constant function back into the spectral space; with exact
per-cell integrals this composition is self-adjoint and positive but
not a projection.  Both satisfy the bilinear estimate

    <f - I_delta f, g>  <=  C_I delta ||f||_H ||g||_V,

whose constant is measured, not assumed; eta0 = 2 alpha / C_I^2 is the
well-posedness threshold for mu delta^2.  Operators act on raw
coefficient arrays together with the model's spec.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import inner_h_raw, norm_raw
from .models import _lift_scalar_mode, random_field


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
        if m < 1:
            raise ValueError("delta exceeds the domain size %g" % domain)
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
        kfull = np.fft.fftfreq(spec.aux.n, d=1.0 / spec.aux.n)
        # (1/width) * integral of e^{i k x} over [a, a+width]
        b = np.empty((m, kfull.shape[0]), dtype=complex)
        for j, k in enumerate(kfull):
            if k == 0:
                b[:, j] = 1.0
            else:
                b[:, j] = np.exp(1j * k * left) * (np.expm1(1j * k * width)) / (1j * k * width)
        return ObservationOperator(kind, float(delta), spec.model_id,
                                   cells=m, data=b)
    raise ValueError("kind must be modal or volume")


def _volume_scalar_full(op, cfull):
    b = op.data
    m = op.cells
    avg = (b @ cfull @ b.T).real
    return (b.conj().T @ avg @ b.conj()) / (m * m)


def apply_observation_raw(op, spec, c):
    """I_delta applied to a raw coefficient array, or to each array of a
    stack on leading axes; linear, and for the modal kind idempotent."""
    if op.kind == "modal":
        keep = op.data
        return np.where(keep, c, 0.0) if spec.kind == "torus" else c * keep
    if spec.kind == "sine":
        # stacked matrix-vector products: a stack as one matrix-matrix
        # product would round differently from the single-field case
        avg = op.cells * np.matmul(op.data, c[..., None])[..., 0]
        return np.matmul(op.data.T, avg[..., None])[..., 0]
    tor = spec.aux
    out = tor.from_full(_volume_scalar_full(op, tor.full_layout(c)))
    return spec.project_raw(out)


def _quotient(op, spec, fc, gc):
    pair = inner_h_raw(spec, fc - apply_observation_raw(op, spec, fc), gc)
    den = op.delta * norm_raw(spec, fc, "H") * norm_raw(spec, gc, "V")
    if den == 0.0:
        return 0.0
    return abs(pair) / den


def _single_mode_probes(spec, op):
    # modes at and just above the observation scale stress the bound hardest
    kabs = spec.params["kabs"]
    probes = []
    if spec.kind == "sine":
        lo = op.cutoff if op.kind == "modal" else max(op.cells - 2, 0)
        for k in range(lo, min(lo + 6, spec.n)):
            c = np.zeros(spec.shape)
            c[k] = 1.0
            probes.append(c)
        return probes
    tor = spec.aux
    target = op.cutoff if op.kind == "modal" else np.pi / op.delta
    band = spec.mask & (kabs >= target - 1.0) & (kabs <= target + 3.0)
    idx = np.argwhere(band)
    for iy, ix in idx[:12]:
        c = np.zeros((tor.n, tor.n // 2 + 1), dtype=complex)
        c[iy, ix] = 1.0
        if ix == 0:
            c[(-iy) % tor.n, 0] = 1.0
        probes.extend(spec.project_raw(f) for f in _lift_scalar_mode(spec, c))
    return probes


def estimate_interp_constant(op, spec, samples=64, seed=0):
    """Measured constant of <f - I_delta f, g> <= C_I delta ||f||_H ||g||_V.

    Maximizes the quotient over random field pairs plus adversarial
    single-mode probes at the cutoff; deterministic given seed.
    """
    if spec.model_id != op.model_id:
        raise ValueError("operator belongs to %s" % op.model_id)
    if samples < 1:
        raise ValueError("need at least one sample")
    best = 0.0
    for i in range(samples):
        f = random_field(spec, (seed, 2 * i), smoothness=0.5)
        g = random_field(spec, (seed, 2 * i + 1), smoothness=0.5)
        best = max(best, _quotient(op, spec, f, g))
    for c in _single_mode_probes(spec, op):
        if norm_raw(spec, c, "H") == 0.0:
            continue
        best = max(best, _quotient(op, spec, c, c))
    return best


def eta0(alpha, c_i):
    """Well-posedness threshold for mu delta^2: eta0 = 2 alpha / C_I^2."""
    if not (alpha > 0.0 and c_i > 0.0):
        raise ValueError("alpha and C_I must be positive")
    return 2.0 * alpha / (c_i * c_i)
