"""Reference values computed with numpy and scipy alone.

Nothing here imports qws: every benchmark check compares the package against
an independent computation.  Conventions follow the package (reduced units
hbar^2/2m = 1, y = r^{(q-1)/2} psi, lam = l + (q - 2)/2, attractive wells
entered by positive depth, V = -depth inside r0):

    y'' + [E - (lam^2 - 1/4)/r^2 - V(r)] y = sum_ij c_ij S_i(r) int S_j y,

with kernel sources S_i = g_i(r) r^{(q-1)/2} cut off at r0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def circ_dist(a: float, b: float) -> float:
    """Distance between two angles defined modulo pi."""
    return abs((a - b + math.pi / 2) % math.pi - math.pi / 2)


def _eta_from_state(lam: float, k: float, r0: float, u: float, v: float) -> float:
    """eta mod pi from (y, y')(r0) matched to sqrt(r)[J cos eta - Y sin eta]."""
    x = k * r0
    a = v - u / (2.0 * r0)
    j, dj = sp.jv(lam, x), sp.jvp(lam, x)
    y, dy = sp.yv(lam, x), sp.yvp(lam, x)
    kj = a * j - u * k * dj
    kn = a * y - u * k * dy
    return math.atan2(kj, kn)


def square_well_phase(lam: float, depth: float, r0: float, k: float) -> float:
    """Phase shift (mod pi) of the square well: sqrt(r) J_lam(Kr) inside, K^2 = k^2 + depth."""
    kk = math.sqrt(k * k + depth)
    # (y, y') of sqrt(r) J_lam(K r) at r0, up to a common positive factor sqrt(r0)
    u = sp.jv(lam, kk * r0)
    v = u / (2.0 * r0) + kk * sp.jvp(lam, kk * r0)
    return _eta_from_state(lam, k, r0, u, v)


def profile_phase(lam: float, potential, r0: float, k: float) -> float:
    """Phase shift (mod pi) for a smooth local well V(r) by a DOP853 integration.

    ``potential(r)`` returns V(r) inside r0 (negative for attraction).  The
    start at r = 1e-6 r0 uses the leading power r^{lam + 1/2}; the dropped
    series terms are O(r^2) relative, below the integration tolerance.
    """
    cf = lam * lam - 0.25
    E = k * k
    r_a = 1e-6 * r0

    def rhs(r, s):
        return (s[1], -(E - cf / (r * r) - potential(r)) * s[0])

    sol = solve_ivp(rhs, (r_a, r0), (1.0, (lam + 0.5) / r_a), method="DOP853",
                    rtol=1e-13, atol=1e-300)
    u, v = sol.y[0, -1], sol.y[1, -1]
    return _eta_from_state(lam, k, r0, u, v)


def threshold_zeros(lam: float, count: int) -> list:
    """First ``count`` positive zeros of J_{lam-1}: the K r0 at which level n appears."""
    f = lambda x: sp.jv(lam - 1.0, x)
    zeros = []
    x, step = 1e-6, 0.05
    fa = f(x)
    while len(zeros) < count:
        xb = x + step
        fb = f(xb)
        if fa * fb < 0:
            zeros.append(brentq(f, x, xb, xtol=1e-14))
        x, fa = xb, fb
    return zeros


def square_well_levels(lam: float, depth: float, r0: float) -> list:
    """Bound levels of the square well from K J'_lam(K r0)/J_lam = kappa K'_lam(kappa r0)/K_lam.

    The condition is cleared of the J_lam poles: F = K J' K - kappa K' J.
    """
    def F(E):
        kap = np.sqrt(-E)
        kk = np.sqrt(depth + E)
        x = kap * r0
        return (kk * sp.jvp(lam, kk * r0) * sp.kve(lam, x)
                - kap * sp.kvp(lam, x) * np.exp(x) * sp.jv(lam, kk * r0))

    grid = -depth * (1.0 - np.linspace(1e-9, 1.0 - 1e-12, 20000))
    vals = F(grid)
    levels = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            levels.append(float(brentq(F, float(a), float(b), xtol=1e-14, rtol=1e-15)))
    return sorted(levels)


def _interior_funcs(lam: float, depth: float, kap: float):
    """(K, regular, irregular) Bessel pair of the square-well interior at E = -kap^2.

    J/Y at K = sqrt(depth - kap^2) when the interior oscillates, I/K at
    K = sqrt(kap^2 - depth) when it does not.
    """
    q2 = depth - kap * kap
    if q2 > 0:
        return math.sqrt(q2), (sp.jv, sp.jvp), (sp.yv, sp.yvp)
    return math.sqrt(-q2), (sp.iv, sp.ivp), (sp.kv, sp.kvp)


def _weighted(fn, dfn, lam: float, kk: float, r: float):
    """(u, u') of u = sqrt(r) f_lam(kk r) at a single radius."""
    val = fn(lam, kk * r)
    return math.sqrt(r) * val, val / (2.0 * math.sqrt(r)) + math.sqrt(r) * kk * dfn(lam, kk * r)


def kernel_level_function(lam: float, q: float, r0: float, profiles, strengths,
                          depth: float = 0.0, n_quad: int = 40000):
    """F(kappa) = det(W I - C N(kappa)), zero exactly at the bound levels E = -kappa^2.

    N_ij = int int S_i(r) u1(r<) u2(r>) S_j(r') over [0, r0]^2, with u1 the
    regular and u2 the decaying interior solution of the local part and W
    their Wronskian (W = -1 for the free pair sqrt(r) I, sqrt(r) K).  The
    double integral is a trapezoid rule on ``n_quad`` intervals written with
    cumulative sums; its error falls like 1/n_quad (about 3e-7 relative at
    the default on the benchmark's kernels).  With a well (rank 1 only) F
    has no poles at the well's own levels, since W (1 - c G) is regular
    there.
    """
    if depth and len(profiles) != 1:
        raise ValueError("well + kernel reference is rank-1 only")
    r = np.linspace(0.0, r0, n_quad + 1)[1:]
    h = r0 / n_quad
    w = (q - 1.0) / 2.0
    S = [np.array([g(float(x)) for x in r]) * r ** w for g in profiles]
    for s in S:
        s[-1] = 0.0  # the cutoff: sources vanish at r0
    C = np.diag(np.asarray(strengths, dtype=float))
    n = len(profiles)
    sr = np.sqrt(r)

    def trap_cum(f):
        # cumulative trapezoid from r = 0, where every integrand vanishes
        c = np.cumsum(0.5 * h * (f + np.concatenate(([0.0], f[:-1]))))
        return c

    def F(kap: float) -> float:
        x = kap * r0
        if depth:
            kk, (f1, df1), (f2, df2) = _interior_funcs(lam, depth, kap)
            u1 = sr * f1(lam, kk * r)
            v2 = sr * f2(lam, kk * r)
            a1, da1 = _weighted(f1, df1, lam, kk, r0)
            a2, da2 = _weighted(f2, df2, lam, kk, r0)
            # decaying exterior sqrt(r) K_lam(kap r), scaled by e^{kap r0}
            ke = math.sqrt(r0) * sp.kve(lam, x)
            dke = ke / (2 * r0) + math.sqrt(r0) * kap * sp.kvp(lam, x) * math.exp(x)
            det = a1 * da2 - a2 * da1
            u2 = ((ke * da2 - a2 * dke) * u1 + (a1 * dke - ke * da1) * v2) / det
            W = a1 * dke - da1 * ke
        else:
            # free pair scaled by e^{-+kap r0}; the product u1 u2 and W are unchanged
            u1 = sr * sp.ive(lam, kap * r) * np.exp(kap * (r - r0))
            u2 = sr * sp.kve(lam, kap * r) * np.exp(-kap * (r - r0))
            W = -1.0
        N = np.empty((n, n))
        for j in range(n):
            A = trap_cum(S[j] * u1)
            Bc = trap_cum(S[j] * u2)
            inner = u2 * A + u1 * (Bc[-1] - Bc)
            for i in range(n):
                f = S[i] * inner
                N[i, j] = h * (f.sum() - 0.5 * f[-1])
        return float(np.linalg.det(W * np.eye(n) - C @ N))

    return F


def kernel_levels(lam: float, q: float, r0: float, profiles, strengths,
                  depth: float = 0.0, kappa_max: float = 40.0) -> list:
    """Bound levels E = -kappa^2 of a separable kernel, optionally plus a square well."""
    F = kernel_level_function(lam, q, r0, profiles, strengths, depth)
    kaps = np.geomspace(1e-3, kappa_max, 48)
    vals = [F(float(k)) for k in kaps]
    levels = []
    for a, b, fa, fb in zip(kaps[:-1], kaps[1:], vals[:-1], vals[1:]):
        if fa * fb < 0:
            kap = brentq(F, float(a), float(b), xtol=1e-13, rtol=1e-14)
            levels.append(-kap * kap)
    return sorted(levels)


def regular_solution(lam: float, depth: float, r0: float, k: float, r):
    """Origin-regular square-well solution normalised as y ~ r^{lam + 1/2} at the origin.

    Returns (y, y') on the radii ``r``: sqrt(r) J_lam(K r) inside, matched to
    sqrt(r)[a J_lam(k r) + b Y_lam(k r)] outside.
    """
    r = np.asarray(r, dtype=float)
    kk = math.sqrt(k * k + depth)
    norm = (2.0 / kk) ** lam * math.gamma(lam + 1.0)

    def pair(fn, dfn, kw, rr):
        sr = np.sqrt(rr)
        return norm * sr * fn(lam, kw * rr), norm * (fn(lam, kw * rr) / (2 * sr)
                                                      + sr * kw * dfn(lam, kw * rr))

    u0, v0 = pair(sp.jv, sp.jvp, kk, r0)
    j0, dj0 = pair(sp.jv, sp.jvp, k, r0)
    y0, dy0 = pair(sp.yv, sp.yvp, k, r0)
    det = j0 * dy0 - y0 * dj0
    a = (u0 * dy0 - y0 * v0) / det
    b = (j0 * v0 - u0 * dj0) / det
    yi, dyi = pair(sp.jv, sp.jvp, kk, r)
    jo, djo = pair(sp.jv, sp.jvp, k, r)
    yo, dyo = pair(sp.yv, sp.yvp, k, r)
    inside = r <= r0
    y = np.where(inside, yi, a * jo + b * yo)
    dy = np.where(inside, dyi, a * djo + b * dyo)
    return y, dy


def square_well_log_derivatives(lam: float, depth: float, r0: float, E: float):
    """(interior, exterior) log-derivatives at r0 for E < 0, closed form."""
    kap = math.sqrt(-E)
    kk2 = depth + E
    if kk2 > 0:
        kk = math.sqrt(kk2)
        a_int = 0.5 / r0 + kk * sp.jvp(lam, kk * r0) / sp.jv(lam, kk * r0)
    else:
        kk = math.sqrt(-kk2)
        a_int = 0.5 / r0 + kk * sp.ivp(lam, kk * r0) / sp.iv(lam, kk * r0)
    a_ext = 0.5 / r0 + kap * sp.kvp(lam, kap * r0) / sp.kv(lam, kap * r0)
    return a_int, a_ext
