"""Bracketed root refinement, shared by the bound-state search and the phase-shift events.

:func:`refine_root` closes a sign bracket of a scalar function whose every
evaluation is an ODE solve, so it spends as few evaluations as a bracketed
method can: :func:`~qws.spectral.find_bound_states` refines the levels of a
local well on the Prufer mismatch F(E) + j pi and those of a kernel on the
matching function M(E), and the mu walk of
:func:`~qws.scattering.phase_shift` and :func:`~qws.spectral.continuation_count`
locates its branch events on the matching denominator D(mu).  Both
callers already hold the values at the bracket ends and hand them in.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Tuple


def same_sign(x: float, y: float) -> bool:
    """Both nonzero and of one sign (a product of two tiny values could underflow)."""
    return (x > 0 and y > 0) or (x < 0 and y < 0)


def refine_root(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
                tol: float) -> Tuple[float, float]:
    """A sign bracket (lo, hi) of f inside [a, b] no wider than tol max(1, |midpoint|).

    ``fa`` and ``fb`` are f(a) and f(b), which the caller already holds; the
    ends may come in either order, and the result has lo <= hi.  Illinois
    false position (Dowell & Jarratt, BIT 11 (1971) 168): the secant through
    the two ends, with the value at an end kept a second time in a row
    halved, so that both ends close in.  Every trial point lies at least
    half the final width inside the bracket.  A step is a plain bisection
    once bisection alone could no longer close the bracket within twice the
    steps it needs from the start, so no kink of f can stall the loop: it
    takes at most about twice the steps of bisection.  An
    exact zero (a == b) is returned as it is.  Ends whose values do not
    straddle zero draw a warning, and the bracket is bisected as if f(b)
    had the sign opposite to f(a) until a sign change turns up.
    """
    if a == b:
        return a, b
    if a > b:
        a, fa, b, fb = b, fb, a, fa
    if same_sign(fa, fb):
        warnings.warn(f"no sign change on the bracket [{a:.12g}, {b:.12g}]: "
                      "refining by bisection")
    steps_left = 2 * math.ceil(math.log2((b - a) / (tol * max(1.0, abs(0.5 * (a + b))))))
    side = 0
    while b - a > (target := tol * max(1.0, abs(0.5 * (a + b)))):
        if same_sign(fa, fb) or b - a > target * 2.0 ** (steps_left - 1):
            x = 0.5 * (a + b)
        else:
            x = min(max((a * fb - b * fa) / (fb - fa), a + 0.5 * target), b - 0.5 * target)
        steps_left -= 1
        fx = f(x)
        if same_sign(fx, fa):
            a, fa = x, fx
            if side < 0:
                fb *= 0.5
            side = -1
        else:
            b, fb = x, fx
            if side > 0:
                fa *= 0.5
            side = 1
    return a, b
