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
