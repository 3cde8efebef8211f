"""The six reference models and their pseudo-spectral machinery.

1D models live on (0,1) with a Dirichlet sine basis, orthonormal basis
functions sqrt(2)*sin(k*pi*x).  2D models live on the 2*pi-periodic
torus with integer wavevectors and mean-zero fields; inner products use
the normalized measure (the mean over the grid), so Parseval carries no
extra factor.  Quadratic nonlinearities are evaluated by collocation on
the dealiased band |k_i| <= (N-1)//3 (2/3 rule), the Allen-Cahn cubic on
a doubled sine grid (1/2 rule), so retained-band coefficients of every
product are exact and the cancellation identities hold to round-off.

Model ids: ac_weak, ac_strong (Allen-Cahn, F(u) = u - u^3),
nse_weak, nse_strong (Navier-Stokes, F(u) = -P (u.grad) u),
qg (surface quasi-geostrophic, F(theta) = -div(theta * Rperp theta)),
mhd (velocity/magnetic pair with the induction-equation coupling).
"""

import numpy as np
import scipy.fft as sfft

from .fields import ModelSpec, _wsum2, norm_raw

_SQRT2 = np.sqrt(2.0)


MODEL_FAMILIES = ("ac_weak", "ac_strong", "nse_weak", "nse_strong", "qg", "mhd")
# model tag -> ModelSpec, so equal build_model arguments give the same object
_BUILT = {}


# ----------------------------------------------------------------------
# 1D sine machinery (Dirichlet on (0,1), orthonormal sqrt(2) sin(k pi x))

def _sine_to_grid(c, m):
    """Values of sum_k c_k sqrt(2) sin(k pi x) at x_j = j/(m+1), j=1..m,
    along the last axis."""
    padded = np.zeros(c.shape[:-1] + (m,))
    padded[..., : c.shape[-1]] = c
    return sfft.dst(padded, type=1, axis=-1) / _SQRT2


def _sine_from_grid(vals, n):
    """First n orthonormal sine coefficients of grid values along the last
    axis (exact quadrature)."""
    m = vals.shape[-1]
    return sfft.dst(vals, type=1, axis=-1)[..., :n] / (_SQRT2 * (m + 1))


def _ac_cube(c):
    # cube on a doubled grid: modes above n alias only onto discarded range
    n = c.shape[-1]
    vals = _sine_to_grid(c, 2 * n)
    return _sine_from_grid(vals ** 3, n)


def _ac_f_raw(c):
    return c - _ac_cube(c)


# ----------------------------------------------------------------------
# 2D torus machinery (2*pi-periodic, rfft2 layout, normalized measure)

class _Torus:
    """Precomputed wavevector arrays for an N x N periodic grid.

    Transforms act on the last two axes and vector components sit on axis
    -3, so every method also takes a stack of fields on leading axes.
    """

    def __init__(self, n):
        if n < 4 or n % 2:
            raise ValueError("torus grid size must be even and >= 4")
        self.n = n
        kx = np.arange(n // 2 + 1, dtype=float)[None, :]
        ky = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        self.kx = np.broadcast_to(kx, (n, n // 2 + 1)).copy()
        self.ky = np.broadcast_to(ky, (n, n // 2 + 1)).copy()
        self.ksq = self.kx ** 2 + self.ky ** 2
        self.kabs = np.sqrt(self.ksq)
        kd = (n - 1) // 3
        self.kd = kd
        self.mask = (np.abs(self.kx) <= kd) & (np.abs(self.ky) <= kd)
        self.mask[0, 0] = False
        self.mult = np.where(self.kx == 0, 1.0, 2.0)
        safe = np.where(self.ksq == 0, 1.0, self.ksq)
        self._inv_ksq = np.where(self.ksq == 0, 0.0, 1.0 / safe)
        inv_kabs = np.sqrt(self._inv_ksq)
        # Rperp = grad-perp (-Laplace)^(-1/2): multiplier i k_perp / |k|
        self.rz1 = -1j * self.ky * inv_kabs
        self.rz2 = 1j * self.kx * inv_kabs
        self.shape = (n, n // 2 + 1)

    def to_grid(self, c):
        return np.fft.irfft2(c, s=(self.n, self.n)) * (self.n * self.n)

    def from_grid(self, g):
        return np.fft.rfft2(g) / (self.n * self.n)

    def fix_col0(self, c):
        # reality of the kx = 0 column: c(0, -ky) = conj(c(0, ky))
        col = c[..., :, 0]
        rev = np.roll(col[..., ::-1], 1, axis=-1)
        c[..., :, 0] = 0.5 * (col + np.conj(rev))
        return c

    def project_scalar(self, c):
        out = np.where(self.mask, c, 0.0)
        return self.fix_col0(out)

    def leray(self, c):
        # per wavevector: u_hat -> u_hat - k (k . u_hat) / |k|^2
        c1, c2 = c[..., 0, :, :], c[..., 1, :, :]
        div = (self.kx * c1 + self.ky * c2) * self._inv_ksq
        return np.stack([c1 - self.kx * div, c2 - self.ky * div], axis=-3)

    def project_vector(self, c):
        out = np.where(self.mask, c, 0.0)
        out = self.fix_col0(out)
        ncomp = out.shape[-3]
        if ncomp == 2:
            return self.leray(out)
        blocks = [self.leray(out[..., i:i + 2, :, :]) for i in range(0, ncomp, 2)]
        return np.concatenate(blocks, axis=-3)

    def advect(self, a, b):
        """(a . grad) b in coefficients, dealiased; a, b shape (..., 2, N, N//2+1)."""
        a1 = self.to_grid(a[..., 0, :, :])
        a2 = self.to_grid(a[..., 1, :, :])
        out = np.empty_like(b)
        for i in range(2):
            dbx = self.to_grid(1j * self.kx * b[..., i, :, :])
            dby = self.to_grid(1j * self.ky * b[..., i, :, :])
            out[..., i, :, :] = np.where(self.mask, self.from_grid(a1 * dbx + a2 * dby), 0.0)
        return out

    def full_layout(self, c):
        """Expand an rfft2-layout scalar to the full N x N complex layout."""
        g = self.to_grid(c)
        return np.fft.fft2(g) / (self.n * self.n)

    def from_full(self, cf):
        return cf[..., : self.n // 2 + 1].copy()


_TORI = {}


def _torus(n):
    if n not in _TORI:
        _TORI[n] = _Torus(n)
    return _TORI[n]


def _lift_scalar_mode(spec, c):
    """The fields of a torus model that the scalar coefficient array c
    spans: c itself on a scalar model, its solenoidal lift
    (i k_perp/|k|) c on a vector model, and on mhd that lift in the
    velocity block, then in the magnetic block."""
    if spec.ncomp == 1:
        return [c]
    tor = spec.aux
    vec = np.stack([tor.rz1 * c, tor.rz2 * c])
    if spec.ncomp == 2:
        return [vec]
    zero = np.zeros_like(vec)
    return [np.concatenate([vec, zero]), np.concatenate([zero, vec])]


# ----------------------------------------------------------------------
# nonlinearity kernels

def _nse_f_raw(tor, c):
    return tor.project_vector(-tor.advect(c, c))


def _qg_f_raw(tor, c):
    psi1 = tor.to_grid(tor.rz1 * c)
    psi2 = tor.to_grid(tor.rz2 * c)
    th = tor.to_grid(c)
    g1 = tor.from_grid(th * psi1)
    g2 = tor.from_grid(th * psi2)
    div = 1j * (tor.kx * g1 + tor.ky * g2)
    return tor.project_scalar(-div)


def _mhd_f_raw(tor, c):
    # the velocity block carries (h.grad) h - (u.grad) u, the magnetic block
    # the induction form (h.grad) u - (u.grad) h; this sign pattern is the
    # one that makes the pairing against (u, h) itself vanish
    u = c[..., 0:2, :, :]
    h = c[..., 2:4, :, :]
    fu = tor.advect(h, h) - tor.advect(u, u)
    fh = tor.advect(h, u) - tor.advect(u, h)
    return tor.project_vector(np.concatenate([fu, fh], axis=-3))


# ----------------------------------------------------------------------
# kappa monitors (undetermined constants fixed to 1)

def _kappa_weak_pair(spec, c):
    # ||u||_2^2 ||grad u||_2^2, summed over velocity/magnetic blocks
    comps = [c] if spec.ncomp == 1 else list(c)
    h2 = [_wsum2(spec, x, spec.w_h) for x in comps]
    v2 = [_wsum2(spec, x, spec.w_v) for x in comps]
    if spec.ncomp <= 2:
        return sum(h2) * sum(v2)
    return (h2[0] + h2[1]) * (v2[0] + v2[1]) + (h2[2] + h2[3]) * (v2[2] + v2[3])


def _kappa_nse_strong(tor, c):
    # sup-norm squared of the velocity plus the squared L3 norm of grad u
    u1 = tor.to_grid(c[0])
    u2 = tor.to_grid(c[1])
    sup2 = float(np.max(u1 * u1 + u2 * u2))
    fro2 = np.zeros_like(u1)
    for comp in c:
        fro2 += tor.to_grid(1j * tor.kx * comp) ** 2
        fro2 += tor.to_grid(1j * tor.ky * comp) ** 2
    l3sq = float(np.mean(fro2 ** 1.5) ** (2.0 / 3.0))
    return sup2 + l3sq


# ----------------------------------------------------------------------
# model builders

def build_model(model_id, n, nu=1.0, norms="homogeneous", linear=False):
    """Construct (or fetch) one of the reference models.

    model_id is one of ac_weak, ac_strong, nse_weak, nse_strong, qg, mhd;
    n is the number of sine modes (1D) or the grid size per axis (2D),
    nu scales the dissipation, norms selects the weak Allen-Cahn norm
    convention (homogeneous or sobolev), linear=True drops F entirely.
    """
    if model_id not in MODEL_FAMILIES:
        raise ValueError("unknown model id %r" % (model_id,))
    if norms not in ("homogeneous", "sobolev"):
        raise ValueError("norms must be homogeneous or sobolev")
    if norms == "sobolev" and model_id != "ac_weak":
        raise ValueError("the sobolev norm option applies to ac_weak only")
    if nu <= 0:
        raise ValueError("nu must be positive")
    tag = "%s[n=%d,nu=%r" % (model_id, n, float(nu))
    if norms == "sobolev":
        tag += ",sobolev"
    if linear:
        tag += ",linear"
    tag += "]"
    if tag not in _BUILT:
        if model_id in ("ac_weak", "ac_strong"):
            _BUILT[tag] = _build_ac(tag, model_id, n, nu, norms, linear)
        else:
            _BUILT[tag] = _build_torus_model(tag, model_id, n, nu, linear)
    return _BUILT[tag]


def _build_ac(tag, model_id, n, nu, norms, linear):
    if n < 1:
        raise ValueError("need at least one sine mode")
    k = np.arange(1, n + 1, dtype=float)
    kpi = k * np.pi
    a = nu * kpi ** 2
    if model_id == "ac_weak":
        w_h = np.ones(n)
        if norms == "homogeneous":
            w_v = kpi.copy()
        else:
            w_v = np.sqrt(1.0 + kpi ** 2)
        w_vstar = 1.0 / w_v
    else:
        w_h = kpi.copy()
        w_v = kpi ** 2
        w_vstar = np.ones(n)
    mask = np.ones(n, dtype=bool)
    mult = np.ones(n)

    if linear:
        f_raw = lambda c: np.zeros_like(c)
        kappa_raw = lambda c: 0.0
    else:
        f_raw = _ac_f_raw
        if model_id == "ac_weak":
            w_v_k = w_v
            kappa_raw = lambda c: 1.0 + float(np.sum((w_v_k * c) ** 2))
        else:
            kappa_raw = lambda c: 1.0 + (
                (1.0 + float(np.sum((w_h * c) ** 2))) * float(np.sum((w_v * c) ** 2)))

    spec = ModelSpec(
        tag, "sine", n, nu, 1, (n,), np.float64,
        a, w_h, w_v, w_vstar, mask, mult,
        f_raw, kappa_raw, lambda c: np.asarray(c, dtype=float),
        params={"family": model_id, "norms": norms, "linear": linear,
                "kabs": k, "domain": 1.0})
    spec.aux = None
    return spec


def _build_torus_model(tag, model_id, n, nu, linear):
    tor = _torus(n)
    ncomp = {"qg": 1, "nse_weak": 2, "nse_strong": 2, "mhd": 4}[model_id]
    shape = (n, n // 2 + 1) if ncomp == 1 else (ncomp, n, n // 2 + 1)
    a = nu * tor.ksq
    if model_id == "nse_strong":
        w_h = np.where(tor.mask, tor.kabs, 0.0)
        w_v = np.where(tor.mask, tor.ksq, 0.0)
        w_vstar = np.where(tor.mask, 1.0, 0.0)
    else:
        w_h = np.where(tor.mask, 1.0, 0.0)
        w_v = np.where(tor.mask, tor.kabs, 0.0)
        w_vstar = np.where(tor.mask, 1.0 / np.where(tor.kabs == 0, 1.0, tor.kabs), 0.0)

    project = tor.project_scalar if ncomp == 1 else tor.project_vector

    if linear:
        f_raw = lambda c: np.zeros_like(c)
    elif model_id == "qg":
        f_raw = lambda c: _qg_f_raw(tor, c)
    elif model_id == "mhd":
        f_raw = lambda c: _mhd_f_raw(tor, c)
    else:
        f_raw = lambda c: _nse_f_raw(tor, c)

    spec = ModelSpec(
        tag, "torus", n, nu, ncomp, shape, np.complex128,
        a, w_h, w_v, w_vstar, tor.mask, tor.mult,
        f_raw, None, project,
        params={"family": model_id, "linear": linear, "domain": 2.0 * np.pi,
                "kabs": tor.kabs})
    spec.aux = tor
    if linear:
        spec.kappa_raw = lambda c: 0.0
    elif model_id == "nse_strong":
        spec.kappa_raw = lambda c: _kappa_nse_strong(tor, c)
    else:
        spec.kappa_raw = lambda c: _kappa_weak_pair(spec, c)
    return spec


# ----------------------------------------------------------------------
# random initial data

def random_field(spec, seed, h_norm=1.0, smoothness=None):
    """Smooth random array with the requested H norm, deterministic in seed."""
    rng = np.random.default_rng(seed)
    if spec.kind == "sine":
        s = 1.0 if smoothness is None else smoothness
        k = spec.params["kabs"]
        c = rng.standard_normal(spec.n) * (1.0 + k ** 2) ** (-s)
    else:
        tor = spec.aux
        s = 1.5 if smoothness is None else smoothness
        prof = (1.0 + tor.ksq) ** (-s)
        if spec.ncomp == 1:
            c = tor.from_grid(rng.standard_normal((tor.n, tor.n))) * prof
        else:
            c = np.stack([tor.from_grid(rng.standard_normal((tor.n, tor.n))) * prof
                          for _ in range(spec.ncomp)])
        c = spec.project_raw(c)
    h = norm_raw(spec, c, "H")
    if h == 0.0:
        raise ValueError("degenerate random draw")
    return c * (h_norm / h)
