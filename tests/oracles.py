"""Closed-form square-well references used by several test modules."""

import math

import numpy as np
from scipy.optimize import brentq


def swave_well_eta(k, V0, r0):
    """s-wave phase for the attractive square well, defined modulo pi."""
    kp = math.sqrt(k * k + V0)
    return math.atan(k / kp * math.tan(kp * r0)) - k * r0


def swave_well_levels(V0, r0):
    """s-wave square-well levels: roots of x cos(x r0) + kappa sin(x r0) = 0.

    This is the matching condition x cot(x r0) = -kappa cleared of the cot
    poles (x = sqrt(V0+E), kappa = sqrt(-E)).
    """
    def g(E):
        x = math.sqrt(V0 + E)
        return x * math.cos(x * r0) + math.sqrt(-E) * math.sin(x * r0)

    levels = []
    grid = np.linspace(-V0 * (1 - 1e-9), -1e-9, 20000)
    vals = [g(float(E)) for E in grid]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            levels.append(brentq(g, a, b, xtol=1e-12))
    return sorted(levels)


def circ_dist(a, b):
    """Distance between two angles defined modulo pi."""
    return abs((a - b + math.pi / 2) % math.pi - math.pi / 2)


def rank1_kernel_level(lam, q, profile, strength, bracket, r0=1.0, n=80001):
    """The level E = -kappa^2 in ``bracket`` of a rank-1 separable kernel alone.

    The kernel is s S(r) S(r') with S = g r^{(q-1)/2} on (0, r0), g =
    ``profile`` (vectorised).  A level solves 1 = s <S, G S> with the free
    Green function G(r, r') = -sqrt(r r') I_lam(kappa r<) K_lam(kappa r>),
    that is 1 + 2 s int S(r) sqrt(r) K_lam(kappa r) int_0^r S sqrt(r')
    I_lam(kappa r') dr' dr = 0: cumulative trapezoids on ``n`` nodes, with
    I and K scaled by e^{-+kappa r} (scipy ``ive``, ``kve``).  At the default
    n the level of a gaussian bump is good to about 2e-8 relative.
    """
    from scipy.integrate import cumulative_trapezoid, trapezoid
    from scipy.special import ive, kve

    r = np.linspace(0.0, r0, n)
    weighted = profile(r) * r ** ((q - 1) / 2) * np.sqrt(r)

    def secular(E):
        x = math.sqrt(-E) * r
        inner = cumulative_trapezoid(weighted * ive(lam, x) * np.exp(x), r, initial=0.0)
        outer = np.zeros(n)   # K_lam is infinite at r = 0, where inner vanishes
        outer[1:] = (weighted * np.exp(-x) * inner)[1:] * kve(lam, x[1:])
        return 1.0 + 2.0 * strength * trapezoid(outer, r)

    return brentq(secular, *bracket, xtol=1e-12)


def _gauss_legendre_panels(a, b, panels, nodes):
    """Nodes and weights of composite Gauss-Legendre: ``panels`` equal panels of [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * x).ravel(), (half * w).ravel()


def _free_pair(lam, depth, E, r0):
    """Origin-regular u and decaying v of y'' + (E + depth - (lam^2 - 1/4)/r^2) y = 0 on (0, r0].

    Returns (u, v, W) with u(r), v(r) vectorised callables and W = u v' - u' v:
    u = sqrt(r) J_lam(K r) for E + depth = K^2 > 0, u = sqrt(r) I_lam(K r)
    e^{-K r0} for E + depth = -K^2 <= 0, and v the combination of u and the
    irregular sqrt(r) Y_lam or sqrt(r) K_lam e^{K r0} that continues the
    decaying exterior sqrt(r) K_lam(kappa r) from (1, h) at r0, with h its
    log-derivative there.  Derivatives come from f'_lam = +-f_{lam-1} -
    (lam/x) f_lam, and I, K from the scaled ``ive``, ``kve``.
    """
    from scipy.special import ive, jv, kve, yv

    kap = math.sqrt(-E)
    x0 = kap * r0
    h = 0.5 / r0 + kap * (-kve(lam - 1.0, x0) / kve(lam, x0) - lam / x0)
    q2 = E + depth
    k = math.sqrt(abs(q2))
    if q2 > 0:
        def u(r):
            return np.sqrt(r) * jv(lam, k * r)

        def irr(r):
            return np.sqrt(r) * yv(lam, k * r)

        du0 = u(r0) * 0.5 / r0 + math.sqrt(r0) * k * (jv(lam - 1.0, k * r0) - lam / r0 / k
                                                       * jv(lam, k * r0))
        di0 = irr(r0) * 0.5 / r0 + math.sqrt(r0) * k * (yv(lam - 1.0, k * r0) - lam / r0 / k
                                                         * yv(lam, k * r0))
    else:
        def u(r):
            return np.sqrt(r) * ive(lam, k * r) * np.exp(k * (r - r0))

        def irr(r):
            return np.sqrt(r) * kve(lam, k * r) * np.exp(k * (r0 - r))

        x = k * r0
        du0 = u(r0) * (0.5 / r0 + k * (ive(lam - 1.0, x) / ive(lam, x) - lam / x))
        di0 = irr(r0) * (0.5 / r0 + k * (-kve(lam - 1.0, x) / kve(lam, x) - lam / x))
    a, b = np.linalg.solve([[u(r0), irr(r0)], [du0, di0]], [1.0, h])

    def v(r):
        return a * u(r) + b * irr(r)

    return u, v, float(u(r0) * h - du0)


def kernel_secular(lam, q, r0, profiles, coupling, depth=0.0, panels=12, nodes=16):
    """E -> W det(Id + C G(E)) for a rank-n separable kernel on an optional square well.

    The model is y'' + [E - (lam^2 - 1/4)/r^2 + depth] y = sum_ij c_ij S_i <S_j, y>
    on (0, r0), S_i = g_i r^{(q-1)/2} with g_i = ``profiles[i]`` (vectorised),
    the free decaying exterior beyond.  A level E < 0 solves det(Id + C G) =
    0, with G_ij = -(1/W) int int S_i(r) u(r<) v(r>) S_j(r') dr dr' the
    Green matrix of the local part from the closed-form pair of
    :func:`_free_pair`; the factor W removes the pole at the square well's
    own levels (W = 0), so the function is finite there and vanishes at the
    levels alone.  The triangle r' < r takes composite Gauss-Legendre twice:
    ``panels`` x ``nodes`` nodes on (0, r0) for r, and the same rule scaled
    to (0, r) for r'; the half r' > r is the transpose.
    """
    C = np.asarray(coupling, dtype=float)
    t, wt = _gauss_legendre_panels(0.0, 1.0, panels, nodes)
    r, w = t * r0, wt * r0
    inner = r[:, None] * t[None, :]   # r' = r t on (0, r)
    weight = (q - 1.0) / 2.0
    S = np.array([g(r) * r ** weight for g in profiles])
    S_in = np.array([g(inner) * inner ** weight for g in profiles])

    def F(E):
        u, v, W = _free_pair(lam, depth, E, r0)
        P = (S_in * u(inner)) @ wt * r   # P_j(r) = int_0^r S_j u
        X = (S * v(r) * w) @ P.T
        n = len(C)   # W det(Id + C G), with no division by W at n = 1
        det = float(np.linalg.det(W * np.eye(n) - C @ (X + X.T)))
        return det / W ** (n - 1) if W != 0.0 else det

    return F


def kernel_level_near(lam, q, r0, profiles, coupling, E, depth=0.0, width=1e-6, panels=12):
    """The root of :func:`kernel_secular` nearest ``E``: brentq on a bracket widened from E."""
    F = kernel_secular(lam, q, r0, profiles, coupling, depth, panels=panels)
    d = width * max(1.0, abs(E))
    while True:
        a, b = E - d, min(E + d, 0.5 * E)
        fa, fb = F(a), F(b)
        if fa * fb <= 0:
            return brentq(F, a, b, xtol=1e-15 * max(1.0, abs(E)), rtol=1e-15)
        if d > abs(E):
            raise ValueError(f"no level of the reference near E = {E!r}")
        d *= 8.0


def kernel_phase(lam, q, r0, profiles, coupling, k, depth=0.0, panels=12, nodes=16):
    """The principal phase shift (mod pi) at E = k^2 > 0 of :func:`kernel_secular`'s model.

    Inside r0 the local pair is closed-form: u = sqrt(r) J_lam(K r) and v =
    sqrt(r) Y_lam(K r), K = sqrt(k^2 + depth), with W = u v' - u' v = 2/pi.
    The regular solution is y = u + sum_j beta_j p_j, with the particular
    solutions of variation of parameters, p_j = (v P_j + u R_j) / W, P_j =
    int_0^r S_j u and R_j = int_r^r0 S_j v (finite at every l, and any other
    particular solution moves y along u only, which the phase does not
    see), and (Id - C M) beta = C m, M_ij = int S_i p_j, m_i = int S_i u.
    The inner integrals take the rule scaled to (0, r) and to (r, r0), the
    outer ones the rule itself, as in :func:`kernel_secular`.  Matching (y,
    y')(r0) to the free pair sqrt(r) J_lam(k r), sqrt(r) Y_lam(k r) gives
    tan eta = [(A - 1/(2 r0)) J - k J'] / [(A - 1/(2 r0)) Y - k Y'] at k r0,
    A = y'/y; returns atan of it.  No profiles give the square well's phase.
    """
    from scipy.special import jv, jvp, yv, yvp

    C = np.asarray(coupling, dtype=float).reshape(len(profiles), len(profiles))
    t, wt = _gauss_legendre_panels(0.0, 1.0, panels, nodes)
    r, w = t * r0, wt * r0
    below = r[:, None] * t[None, :]                    # r' = r t on (0, r)
    above = r[:, None] + (r0 - r)[:, None] * t[None, :]  # r' on (r, r0)
    weight = (q - 1.0) / 2.0

    def sources(x):
        return np.array([g(x) * x ** weight for g in profiles]).reshape((len(profiles),) + x.shape)

    K = math.sqrt(k * k + depth)

    def pair(x):   # (u, u', v, v') at x
        sx = np.sqrt(x)
        return (sx * jv(lam, K * x), 0.5 / sx * jv(lam, K * x) + sx * K * jvp(lam, K * x),
                sx * yv(lam, K * x), 0.5 / sx * yv(lam, K * x) + sx * K * yvp(lam, K * x))

    W = 2.0 / math.pi
    S = sources(r)
    P = (sources(below) * pair(below)[0]) @ wt * r          # P_j(r) = int_0^r S_j u
    R = (sources(above) * pair(above)[2]) @ wt * (r0 - r)   # R_j(r) = int_r^r0 S_j v
    u, _, v, _ = pair(r)
    M = (S * w) @ ((v * P + u * R) / W).T
    m = (S * w) @ u
    beta = np.linalg.solve(np.eye(len(C)) - C @ M, C @ m)
    u0, du0, v0, dv0 = pair(np.array(r0))
    y = u0 + beta @ (v0 * m) / W
    dy = du0 + beta @ (dv0 * m) / W
    x = k * r0
    a = dy / y - 0.5 / r0
    return math.atan((a * jv(lam, x) - k * jvp(lam, x)) / (a * yv(lam, x) - k * yvp(lam, x)))
