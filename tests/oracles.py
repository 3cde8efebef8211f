"""Independent reference computations the tests compare against.

Everything here is deliberately slow and structure-free: direct
convolution sums over wavevectors, trigonometric product identities,
per-cell Gauss quadrature.  None of it shares code with the package
beyond basic array layout conventions, except hs_pointwise_per_direction
and convolution_mc_serial, the one-at-a-time forms of computations the
package runs in stacks or on threads, which must reproduce them bit for
bit.
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
    from nudgelab.noise import _pointwise_product, noise_directions
    total = 0.0
    for lam, dirc in noise_directions(spec, q):
        g = _pointwise_product(spec, u, dirc)
        total += lam * lam * norm_raw(spec, g, "H") ** 2
    return coef.sigma ** 2 * total


def convolution_mc_serial(spec, cfg, coef, q, probe_times, paths,
                          master_seed, chunk=500):
    """Monte Carlo variance of the stochastic convolution with every path
    drawn in turn on the calling thread into a step-major (n, b, N)
    buffer, then stepped as one stack; returns (var, se)."""
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
        blocks = np.empty((n, b, spec.n))
        for j in range(b):
            rng = _rng_for(member_seed(master_seed, done + j))
            blocks[:, j, :] = rng.standard_normal((n, spec.n))
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
