"""Independent reference computations the tests compare against.

Everything here is deliberately slow and structure-free: direct
convolution sums over wavevectors, trigonometric product identities,
per-cell Gauss quadrature.  None of it shares code with the package
beyond basic array layout conventions, except hs_pointwise_per_direction,
the package's collocation taken one noise direction at a time, which the
Hilbert-Schmidt norm matches to round-off on both grids (on the sine
grid hs_pointwise_grid_form, from sines and cosines alone, checks it
too), convolution_mc_serial, sweep_per_cell and mm_envelope_one_array,
the one-at-a-time (or all-at-once) forms of computations the package
runs in stacks, blocks or on threads, which must reproduce them bit for
bit, reference_only and blind_observation, which set up package runs, and
quotient and interp_constant_dense, which apply the package's observation
to the noise directions as a dense matrix, the form the exact
interpolation constant splits into alias-class blocks, and
volume_observation_dense, the volume observation as dense cell matrices
and a full-layout FFT pair, the form whose alias-class sums the package
takes, which ends in the model's projection.  The
torus layout references (fix_col0_roll through noise_directions) form
every conjugate partner on the fly, by reversing and rolling the kx = 0
column or by writing (-iy) % N, and every per-mode factor per call, in
the arithmetic the package's cached forms must reproduce bit for bit.
noise_directions lists Q's directions by hand, on the sine grid too, for
the dense references and the sums assembled one direction at a time.
"""

import numpy as np


def sine_cube_modes(c):
    """Expansion of (sum c_k sqrt(2) sin(k pi x))^3 on the first n modes.

    Triple product identity: sin A sin B sin C = 1/4 [sin(A-B+C)
    + sin(-A+B+C) - sin(A+B+C) + sin(A+B-C)].
    """
    n = len(c)
    d = np.zeros(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                w = c[i - 1] * c[j - 1] * c[k - 1]
                if w == 0.0:
                    continue
                for s, q in ((1, i - j + k), (1, -i + j + k),
                             (-1, i + j + k), (1, i + j - k)):
                    if q == 0 or abs(q) > n:
                        continue
                    d[abs(q) - 1] += w * s * np.sign(q) / 2.0
    return d


def full_modes(spec, comp):
    """rfft2-layout component -> {(kx, ky): coefficient} over the band."""
    tor = spec.aux
    n = comp.shape[0]
    kd = tor.kd
    out = {}
    for kx in range(-kd, kd + 1):
        for ky in range(-kd, kd + 1):
            if kx == 0 and ky == 0:
                continue
            if kx >= 0:
                val = comp[ky % n, kx]
            else:
                val = np.conj(comp[(-ky) % n, -kx])
            out[(kx, ky)] = complex(val)
    return out


def to_layout(spec, modes):
    """Inverse of full_modes; wavevectors with kx = 0 fold conjugates."""
    tor = spec.aux
    n = spec.n
    out = np.zeros((n, n // 2 + 1), dtype=complex)
    for (kx, ky), val in modes.items():
        if kx > 0:
            out[ky % n, kx] = val
        elif kx == 0 and ky > 0:
            out[ky % n, 0] = val
            out[(-ky) % n, 0] = np.conj(val)
    return out


def advection_modes(spec, a1, a2, b):
    """((a . grad) b) by direct convolution over band wavevectors."""
    fa1 = full_modes(spec, a1)
    fa2 = full_modes(spec, a2)
    fb = full_modes(spec, b)
    kd = spec.aux.kd
    out = {}
    for (kx, ky) in fb:
        acc = 0.0 + 0.0j
        for (px, py), ap1 in fa1.items():
            qx, qy = kx - px, ky - py
            if (qx, qy) not in fb:
                continue
            ap2 = fa2[(px, py)]
            acc += (ap1 * (1j * qx) + ap2 * (1j * qy)) * fb[(qx, qy)]
        out[(kx, ky)] = acc
    for k in list(out):
        if abs(k[0]) > kd or abs(k[1]) > kd:
            del out[k]
    return out


def leray_modes(modes1, modes2):
    """Per-wavevector divergence-free projection of (v1, v2)."""
    o1, o2 = {}, {}
    for (kx, ky), v1 in modes1.items():
        v2 = modes2[(kx, ky)]
        k2 = kx * kx + ky * ky
        dot = (kx * v1 + ky * v2) / k2
        o1[(kx, ky)] = v1 - kx * dot
        o2[(kx, ky)] = v2 - ky * dot
    return o1, o2


def riesz_perp_modes(theta):
    """Velocity (-R2, R1) theta per wavevector."""
    o1, o2 = {}, {}
    for (kx, ky), v in theta.items():
        mag = np.sqrt(kx * kx + ky * ky)
        o1[(kx, ky)] = -1j * ky / mag * v
        o2[(kx, ky)] = 1j * kx / mag * v
    return o1, o2


def nse_rhs_modes(spec, u1, u2):
    """-Leray((u . grad) u) by direct sums."""
    adv1 = advection_modes(spec, u1, u2, u1)
    adv2 = advection_modes(spec, u1, u2, u2)
    p1, p2 = leray_modes(adv1, adv2)
    return ({k: -v for k, v in p1.items()}, {k: -v for k, v in p2.items()})


def qg_rhs_modes(spec, theta):
    """-(R^perp theta . grad) theta by direct sums."""
    th = full_modes(spec, theta)
    v1, v2 = riesz_perp_modes(th)
    l1 = to_layout(spec, v1)
    l2 = to_layout(spec, v2)
    adv = advection_modes(spec, l1, l2, theta)
    return {k: -v for k, v in adv.items()}


def mhd_rhs_modes(spec, u1, u2, h1, h2):
    """Velocity and field blocks of the coupled quadratic term."""
    hu1 = advection_modes(spec, h1, h2, u1)
    hu2 = advection_modes(spec, h1, h2, u2)
    uu1 = advection_modes(spec, u1, u2, u1)
    uu2 = advection_modes(spec, u1, u2, u2)
    hh1 = advection_modes(spec, h1, h2, h1)
    hh2 = advection_modes(spec, h1, h2, h2)
    uh1 = advection_modes(spec, u1, u2, h1)
    uh2 = advection_modes(spec, u1, u2, h2)
    fu1 = {k: hh1[k] - uu1[k] for k in hh1}
    fu2 = {k: hh2[k] - uu2[k] for k in hh2}
    fh1 = {k: hu1[k] - uh1[k] for k in hu1}
    fh2 = {k: hu2[k] - uh2[k] for k in hu2}
    fu1, fu2 = leray_modes(fu1, fu2)
    fh1, fh2 = leray_modes(fh1, fh2)
    return fu1, fu2, fh1, fh2


def torus_constraints(spec, c, tol=1e-12):
    """Names of the torus constraints that coefficients c break, from the
    wavevector arrays alone:

      band        energy outside the retained (dealiased) band;
      reality     the kx = 0 column is not conjugate-symmetric,
                  c(0, -ky) = conj(c(0, ky));
      mean        a nonzero zero mode;
      divergence  kx c_1 + ky c_2 != 0 in a two-component block.

    Each holds to tol relative to the largest coefficient (times the
    largest retained |k| for the divergence).  An empty list means c
    meets them all.
    """
    tor = spec.aux
    comps = np.reshape(c, (-1,) + tor.kx.shape)
    bound = tol * max(float(np.max(np.abs(comps))), 1e-300)
    outside = ~tor.mask
    outside[0, 0] = False            # the zero mode is the "mean" check
    col = comps[:, :, 0]
    mirror = np.conj(col[:, (-np.arange(col.shape[1])) % col.shape[1]])
    broken = []
    if np.max(np.abs(comps[:, outside])) > bound:
        broken.append("band")
    if np.max(np.abs(col - mirror)) > bound:
        broken.append("reality")
    if np.max(np.abs(comps[:, 0, 0])) > bound:
        broken.append("mean")
    if len(comps) >= 2:
        kmax = max(np.max(np.abs(tor.kx[tor.mask])), np.max(np.abs(tor.ky[tor.mask])))
        div = tor.kx * comps[0::2] + tor.ky * comps[1::2]
        if np.max(np.abs(div)) > bound * kmax:
            broken.append("divergence")
    return broken


def bits(a):
    """dtype, shape and bytes of an array: equal for two arrays exactly when
    they match bit for bit, the sign of a zero included."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def fix_col0_roll(c):
    """Reality of the kx = 0 column, c(0, -ky) = conj(c(0, ky)), imposed in
    place by averaging the column with its reversed, rolled conjugate."""
    col = c[..., :, 0]
    rev = np.roll(col[..., ::-1], 1, axis=-1)
    c[..., :, 0] = 0.5 * (col + np.conj(rev))
    return c


def project_roll(spec, c):
    """A torus model's projection: band, reality by fix_col0_roll, then the
    Leray projection of each two-component block."""
    out = fix_col0_roll(np.where(spec.mask, c, 0.0))
    if spec.ncomp == 1:
        return out
    return np.concatenate([spec.aux.leray(out[..., i:i + 2, :, :])
                           for i in range(0, spec.ncomp, 2)], axis=-3)


def single_mode(n, iy, ix, val, partner):
    """An N x (N/2 + 1) rfft2 layout holding val at (iy, ix) and, on the
    kx = 0 column, partner at ((-iy) % N, 0)."""
    c = np.zeros((n, n // 2 + 1), dtype=complex)
    c[iy, ix] = val
    if ix == 0:
        c[(-iy) % n, 0] = partner
    return c


def lift_scalar(spec, c):
    """The torus model's fields spanned by the scalar layout c: c itself,
    its solenoidal lift (i k_perp/|k|) c, or on mhd that lift in the
    velocity block, then in the magnetic block."""
    if spec.ncomp == 1:
        return [c]
    vec = np.stack([spec.aux.rz1 * c, spec.aux.rz2 * c])
    if spec.ncomp == 2:
        return [vec]
    zero = np.zeros_like(vec)
    return [np.concatenate([vec, zero]), np.concatenate([zero, vec])]


def increment_roll(spec, q, dt, block):
    """A torus model's Q-Wiener increment of a raw standard-normal block,
    1/w_H formed on the spot and the kx = 0 pairs by reverse and roll."""
    inv_wh = np.where(q.lam > 0.0,
                      1.0 / np.where(spec.w_h == 0.0, 1.0, spec.w_h), 0.0)
    comps = []
    for s in range(q.nstreams):
        b = block[..., s, :, :, :]
        z = (b[..., 0, :, :] + 1j * b[..., 1, :, :]) / np.sqrt(2.0)
        col = z[..., :, 0]
        rev = np.roll(col[..., ::-1], 1, axis=-1)
        z[..., :, 0] = (col + np.conj(rev)) / np.sqrt(2.0)
        z = np.where(spec.mask, q.lam * inv_wh * z, 0.0)
        if spec.ncomp == 1:
            return np.sqrt(dt) * z
        comps.extend([spec.aux.rz1 * z, spec.aux.rz2 * z])
    return np.sqrt(dt) * np.stack(comps, axis=-3)


def noise_directions(spec, q):
    """(lam, field) of the real H-orthonormal noise directions spanned by
    Q: on the sine grid e_k / w_H(k) for each k on Q's rank, and on the
    torus two per mode (real and imaginary val = sqrt(1/2) / w_H), each
    built as a single_mode with partner conj(val) and lifted by
    lift_scalar, skipping the kx = 0 modes that mirror a listed one."""
    if spec.kind == "sine":
        out = []
        for k in range(spec.n):
            if q.lam[k] > 0.0:
                c = np.zeros(spec.n)
                c[k] = 1.0 / spec.w_h[k]
                out.append((float(q.lam[k]), c))
        return out
    n = spec.n
    half = np.sqrt(0.5)
    out = []
    for iy, ix in np.argwhere(q.lam > 0.0):
        if ix == 0 and (iy == 0 or iy > n // 2):
            continue
        wh = spec.w_h[iy, ix]
        for val in (half / wh, 1j * half / wh):
            c = single_mode(n, iy, ix, val, np.conj(val))
            out.extend((float(q.lam[iy, ix]), f) for f in lift_scalar(spec, c))
    return out


def quotient(op, spec, f, g):
    """The bilinear quotient |<f - I_delta f, g>_H| / (delta ||f||_H ||g||_V)
    that C_I bounds, 0 where a norm vanishes."""
    from nudgelab.fields import inner_h_raw, norm_raw
    from nudgelab.observe import apply_observation_raw
    pair = inner_h_raw(spec, f - apply_observation_raw(op, spec, f), g)
    den = op.delta * norm_raw(spec, f, "H") * norm_raw(spec, g, "V")
    return 0.0 if den == 0.0 else abs(pair) / den


def interp_constant_dense(op, spec):
    """(C_I, f, g): C_I as ||D^-1 M||_2 / delta over the full-band
    H-orthonormal noise directions e_j, M[k, j] = <(I - I_delta) e_j, e_k>_H
    and D the w_V / w_H of each direction, all in one dense SVD; f and g
    the singular-vector pair whose quotient attains it."""
    from nudgelab.noise import make_qspec
    from nudgelab.observe import apply_observation_raw
    e = np.stack([f for _, f in noise_directions(spec, make_qspec(spec))])
    rest = e - apply_observation_raw(op, spec, e)
    flat = e.reshape(len(e), -1)
    wh2, wv2 = (np.broadcast_to(spec.norm_w2(x), spec.shape).ravel()
                for x in ("H", "V"))
    m = (np.conj(flat) * wh2) @ rest.reshape(len(e), -1).T
    d = np.sqrt((np.abs(flat) ** 2 @ wv2) / (np.abs(flat) ** 2 @ wh2))
    u, sv, vt = np.linalg.svd(m.real / d[:, None])
    f = np.tensordot(vt[0], e, axes=1)
    g = np.tensordot(u[:, 0] / d, e, axes=1)
    return sv[0] / op.delta, f, g


def volume_observation_dense(op, spec, c):
    """The volume I_delta of op applied to c (one field or a stack) as
    dense products: on the sine grid the exact cell integrals of every
    mode, times m, then their transpose; on the torus the cell averages
    b[j, k] of e^{ikx} per axis, the full-layout coefficients by an
    inverse real FFT and a complex FFT, avg = b C b^T and the rfft2 half
    of b^H avg conj(b) / m^2, then the model's projection."""
    m = op.cells
    if spec.kind == "sine":
        edges = np.arange(m + 1) / m
        kpi = spec.params["kabs"][None, :] * np.pi
        cellint = np.sqrt(2.0) * (np.cos(kpi * edges[:-1, None])
                                  - np.cos(kpi * edges[1:, None])) / kpi
        avg = m * np.matmul(cellint, c[..., None])[..., 0]
        return np.matmul(cellint.T, avg[..., None])[..., 0]
    n = spec.n
    width = 2.0 * np.pi / m
    k = np.fft.fftfreq(n, d=1.0 / n)
    ks = np.where(k == 0, 1.0, k)
    b = np.where(k == 0, 1.0, np.exp(1j * ks * (np.arange(m) * width)[:, None])
                 * np.expm1(1j * ks * width) / (1j * ks * width))
    cfull = np.fft.fft2(np.fft.irfft2(c, s=(n, n)))
    avg = (b @ cfull @ b.T).real
    out = (b.conj().T @ avg @ b.conj())[..., : n // 2 + 1] / (m * m)
    return spec.project_raw(out)


def cell_average_quad(c, a, b, npts=64):
    """Mean of sum c_k sqrt(2) sin(k pi x) over [a, b], Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(npts)
    x = 0.5 * (b - a) * x + 0.5 * (b + a)
    k = np.arange(1, len(c) + 1)
    vals = np.sqrt(2.0) * np.sin(np.pi * np.outer(x, k)) @ c
    # integral = (b-a)/2 * sum(w v); mean divides the (b-a) back out
    return float(np.dot(w, vals)) / 2.0


def ou_variance(mu, lam, sigma, a, t):
    """Stationary-approach variance of the scalar resolvent-driven noise."""
    return mu ** 2 * lam ** 2 * sigma ** 2 * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a)


def imex_ou_variance(mu, lam, sigma, a, dt, nsteps):
    """Variance of one mode of z <- (z + mu lam sigma sqrt(dt) xi) / (1 + dt a)
    after nsteps steps from z = 0, with xi independent standard normals:
    each step adds the new increment's variance and scales by the square
    of the resolvent factor."""
    v = 0.0
    for _ in range(nsteps):
        v = (v + mu ** 2 * lam ** 2 * sigma ** 2 * dt) / (1.0 + dt * a) ** 2
    return v


def imex_mode_path(a, dt, nsteps, forcing=None):
    """Scalar backward-Euler recursion x <- (x + dt f) / (1 + dt a)."""
    x = 1.0
    path = [x]
    for i in range(nsteps):
        f = 0.0 if forcing is None else forcing(i)
        x = (x + dt * f) / (1.0 + dt * a)
        path.append(x)
    return np.array(path)


def nudged_mode_path(a, dt, mu, u0, v0, nsteps, implicit=False):
    """One mode of the linear nudged pair, stepped by the scalar recursions

        u+ = u / (1 + dt a)
        explicit:  v+ = (v - dt mu (v - u)) / (1 + dt a)
        implicit:  v+ = (v + dt mu u+) / (1 + dt a + dt mu)

    with mu = 0 for a mode the observation does not keep.  Returns the
    (u, v) paths, nsteps + 1 values each.
    """
    u, v = u0, v0
    us, vs = [u], [v]
    for _ in range(nsteps):
        u_new = u / (1.0 + dt * a)
        if implicit:
            v = (v + dt * mu * u_new) / (1.0 + dt * a + dt * mu)
        else:
            v = (v - dt * mu * (v - u)) / (1.0 + dt * a)
        u = u_new
        us.append(u)
        vs.append(v)
    return np.array(us), np.array(vs)


def hs_pointwise_per_direction(coef, spec, u, q):
    """Hilbert-Schmidt norm of the pointwise kind, one noise direction
    (one collocation product, one norm) at a time, in direction order."""
    from nudgelab.fields import norm_raw
    from nudgelab.noise import _from_grid, _to_grid
    total = 0.0
    for lam, dirc in noise_directions(spec, q):
        g = _from_grid(spec, _to_grid(spec, u) * _to_grid(spec, dirc))
        total += lam * lam * norm_raw(spec, g, "H") ** 2
    return coef.sigma ** 2 * total


def hs_pointwise_grid_form(coef, spec, u, q):
    """Hilbert-Schmidt norm of the pointwise kind on the sine grid, in
    closed form from sines and cosines alone.  With m = 2n, th = pi/(m+1)
    and U_j = sum_k u_k sqrt(2) sin(k th j), the grid values of u, the
    identity sin a sin b = (cos(a-b) - cos(a+b))/2 and the grid's exact
    quadrature give
        hs = sigma^2/(m+1)^2 sum_{j,j'} U_j U_j' K_w(j,j') K_c(j,j'),
    K_f(j,j') = G_f(j-j') - G_f(j+j') and G_f(r) = sum_p f_p cos(p th r),
    f = w_H^2 for K_w and (lam/w_H)^2 on Q's rank for K_c.  Each integer
    multiple of th is reduced modulo 2(m+1) first, so np.sin and np.cos
    see angles below 2 pi whatever n."""
    n = spec.n
    m = 2 * n
    th = np.pi / (m + 1)
    k = np.arange(1, n + 1)
    j = np.arange(1, m + 1)

    def angle(r):
        return th * ((r[:, None] * k) % (2 * (m + 1)))

    grid = np.sum(u * np.sqrt(2.0) * np.sin(angle(j)), axis=1)
    lag = j[:, None] - j[None, :]
    lead = j[:, None] + j[None, :]

    def kernel(f):
        g = np.sum(f * np.cos(angle(np.arange(2 * m + 1))), axis=1)
        return g[np.abs(lag)] - g[lead]

    wh = spec.w_h
    c = np.where(q.lam > 0.0, (q.lam / wh) ** 2, 0.0)
    pair = grid[:, None] * grid[None, :] * kernel(wh * wh) * kernel(c)
    return coef.sigma ** 2 / (m + 1) ** 2 * float(np.sum(pair))


def convolution_mc_serial(spec, cfg, coef, q, probe_times, paths,
                          master_seed, chunk=500):
    """Monte Carlo variance of the stochastic convolution with every path
    drawn in turn on the calling thread into a step-major (n, b) +
    q.draw_shape buffer, then stepped as one stack; returns (var, se)."""
    from nudgelab.harness import member_seed
    from nudgelab.integrate import _rng_for
    from nudgelab.noise import apply_G_raw, increment_from_noise
    n, dt = cfg.nsteps, cfg.dt
    steps = [int(round(t / dt)) for t in probe_times]
    denom = 1.0 / (1.0 + dt * spec.a)
    zero_u = np.zeros(spec.shape, dtype=spec.dtype)
    sum2 = np.zeros((len(steps), spec.n))
    sum4 = np.zeros((len(steps), spec.n))
    done = 0
    while done < paths:
        b = min(chunk, paths - done)
        blocks = np.empty((n, b) + q.draw_shape)
        for j in range(b):
            rng = _rng_for(member_seed(master_seed, done + j))
            blocks[:, j] = rng.standard_normal((n,) + q.draw_shape)
        z = np.zeros((b, spec.n))
        for step in range(1, n + 1):
            dw = increment_from_noise(spec, q, dt, blocks[step - 1])
            z = (z + cfg.mu * apply_G_raw(coef, spec, zero_u, dw)) * denom
            if step in steps:
                i = steps.index(step)
                sum2[i] += (z ** 2).sum(axis=0)
                sum4[i] += (z ** 4).sum(axis=0)
        done += b
    var = sum2 / paths
    m4 = sum4 / paths
    return var, np.sqrt(np.maximum(m4 - var ** 2, 0.0) / paths)


def sweep_per_cell(setup, observations, mu_grid, members, master_seed):
    """The rows of the (mu, delta) sweep, one cell at a time: a separate
    RunSetup and ensemble per cell, with its own reference and its own
    draws, then the rate fit and the noise floor of its mean-square
    error."""
    from dataclasses import replace
    from nudgelab.harness import (RunSetup, estimate_noise_floor,
                                  fit_decay_rate, measured_constants,
                                  run_ensemble)
    from nudgelab.integrate import BlowupError
    consts = [measured_constants(setup.model, op) for op, _, _ in observations]
    rows = []
    for mu in mu_grid:
        for (op, coef, q), (_, _, eta) in zip(observations, consts):
            mu_delta_sq = float(mu) * op.delta ** 2
            row = {"mu": float(mu), "delta": op.delta,
                   "mu_delta_sq": mu_delta_sq, "eta0_hat": eta,
                   "over_threshold": mu_delta_sq > eta, "members": members,
                   "gamma_fit": np.nan, "fit_residual": np.nan,
                   "floor": np.nan, "floor_se": np.nan}
            rows.append(row)
            cell = RunSetup(setup.model, replace(setup.cfg, mu=mu), op, coef,
                            q, setup.u0, setup.v0)
            try:
                ens = run_ensemble(cell, members, master_seed)
            except BlowupError as e:
                row.update(blowups=members, valid=False, error=str(e))
                continue
            row["blowups"] = ens.blowups
            row["valid"] = ens.blowups <= 0.1 * members
            try:
                fit = fit_decay_rate(ens.times, ens.mean_w2_h)
                row["gamma_fit"] = fit.gamma_fit
                row["fit_residual"] = fit.residual
            except ValueError as e:
                row["error"] = str(e)
            try:
                row["floor"], row["floor_se"] = estimate_noise_floor(ens.mean_w2_h)
            except ValueError:
                pass
    return rows


def mm_envelope_one_array(times, kappa):
    """harness._mm_envelope as a search: every positive pair slope is a
    candidate M0, each with its least M1 taken over one (candidates x
    pairs) array, and the pick is the least M0 H + M1, ties toward the
    smallest M0.  The package's closed form (M0 = 0, M1 the largest rise)
    must reproduce it bit for bit."""
    times = np.asarray(times, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    stride = max(len(times) // 64, 1)
    idx = np.arange(0, len(times), stride)
    if idx[-1] != len(times) - 1:
        idx = np.append(idx, len(times) - 1)
    pairs = len(idx) * (len(idx) - 1) // 2
    if times.size < 2 or np.all(kappa == 0.0):
        return 0.0, 0.0, 0.0, pairs
    cum = np.concatenate([[0.0], np.cumsum(kappa[:-1] * np.diff(times))])
    ts, ks = times[idx], cum[idx]
    ii, jj = np.triu_indices(len(idx), k=1)
    d_t, d_k = ts[jj] - ts[ii], ks[jj] - ks[ii]
    slopes = d_k / d_t
    cand = np.unique(np.concatenate([[0.0], slopes[slopes > 0.0]]))
    m1 = np.maximum(d_k[None, :] - cand[:, None] * d_t[None, :], 0.0).max(axis=1)
    cost = cand * (times[-1] - times[0]) + m1
    pick = int(np.flatnonzero(cost <= cost.min() * (1.0 + 1e-12) + 1e-300)[0])
    return float(cand[pick]), float(m1[pick]), float(cum[-1]), pairs


def reference_only(spec, cfg, u0, record=None):
    """The reference stepped alone: simulate_members with no groups, the
    run a pair with no observation and no noise once stood for; its
    SimResult."""
    from nudgelab.integrate import Record, simulate_members
    ref, _ = simulate_members(spec, cfg, [], u0, None, [],
                              Record() if record is None else record)
    return ref


def blind_observation(spec):
    """A modal observation that keeps no mode: its pull is (-dt mu) * 0.0
    = -0.0, which leaves every coefficient's bits as they were, so a
    nudged run with it steps the estimate as if it were not observed."""
    from dataclasses import replace
    from nudgelab.observe import make_observation
    op = make_observation(spec, "modal", spec.params["domain"])
    return replace(op, data=np.zeros_like(op.data))
