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
well-posedness threshold for mu delta^2.
"""

from dataclasses import dataclass, field

import numpy as np

from .fields import Field, inner_h_raw, norm_raw, spec_of_id
from .models import random_field


@dataclass(frozen=True)
class ObservationOperator:
    kind: str
    delta: float
    model_id: str
    cutoff: int = 0          # modal: retained-mode bound K(delta)
    cells: int = 0           # volume: cells per axis
    data: tuple = field(default=(), repr=False, compare=False)


def make_observation(model, kind, delta):
    """Build an observation operator at scale delta for the given model."""
    spec = model if not isinstance(model, str) else spec_of_id(model)
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
                                   cutoff=cut, data=(keep,))
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
                                       cells=m, data=(cellint,))
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
                                   cells=m, data=(b,))
    raise ValueError("kind must be modal or volume")


def _volume_scalar_full(op, tor, cfull):
    b = op.data[0]
    m = op.cells
    avg = (b @ cfull @ b.T).real
    return (b.conj().T @ avg @ b.conj()) / (m * m)


def apply_observation_raw(op, spec, c):
    if op.kind == "modal":
        keep = op.data[0]
        return np.where(keep, c, 0.0) if spec.kind == "torus" else c * keep
    if spec.kind == "sine":
        cellint = op.data[0]
        avg = op.cells * (cellint @ c)
        return cellint.T @ avg
    tor = spec.aux
    if spec.ncomp == 1:
        out = tor.from_full(_volume_scalar_full(op, tor, tor.full_layout(c)))
    else:
        out = np.stack([tor.from_full(_volume_scalar_full(op, tor, tor.full_layout(comp)))
                        for comp in c])
    return spec.project_raw(out)


def apply_observation(op, f):
    """I_delta f; linear, and for the modal kind idempotent."""
    if f.model_id != op.model_id:
        raise ValueError("field model %s does not match operator model %s"
                         % (f.model_id, op.model_id))
    spec = spec_of_id(f.model_id)
    return Field(f.model_id, apply_observation_raw(op, spec, f.coeffs))


def cell_averages(op, f):
    """Volume kind only: the exact per-cell averages of f (1D: shape (m,),
    2D: shape (m, m) per component)."""
    if op.kind != "volume":
        raise ValueError("cell averages exist for the volume kind only")
    spec = spec_of_id(f.model_id)
    c = f.coeffs
    if spec.kind == "sine":
        return op.cells * (op.data[0] @ c)
    tor = spec.aux
    b = op.data[0]
    if spec.ncomp == 1:
        return (b @ tor.full_layout(c) @ b.T).real
    return np.stack([(b @ tor.full_layout(comp) @ b.T).real for comp in c])


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
        if spec.ncomp == 1:
            probes.append(spec.project_raw(c))
        else:
            vec = np.stack([tor.rz1 * c, tor.rz2 * c])
            if spec.ncomp == 4:
                zero = np.zeros_like(vec)
                probes.append(spec.project_raw(np.concatenate([vec, zero])))
                probes.append(spec.project_raw(np.concatenate([zero, vec])))
            else:
                probes.append(spec.project_raw(vec))
    return probes


def estimate_interp_constant(op, model=None, samples=64, seed=0):
    """Measured constant of <f - I_delta f, g> <= C_I delta ||f||_H ||g||_V.

    Maximizes the quotient over random field pairs plus adversarial
    single-mode probes at the cutoff; deterministic given seed.
    """
    spec = spec_of_id(op.model_id) if model is None else (
        model if not isinstance(model, str) else spec_of_id(model))
    if spec.model_id != op.model_id:
        raise ValueError("operator belongs to %s" % op.model_id)
    if samples < 1:
        raise ValueError("need at least one sample")
    best = 0.0
    for i in range(samples):
        f = random_field(spec, (seed, 2 * i), smoothness=0.5)
        g = random_field(spec, (seed, 2 * i + 1), smoothness=0.5)
        best = max(best, _quotient(op, spec, f.coeffs, g.coeffs))
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
