"""Bracketed root refinement, shared by the bound-state search and the phase-shift events.

:func:`refine_root` closes a sign bracket of a scalar function whose every
evaluation is an ODE solve, so it spends as few evaluations as a bracketed
method can (an inverse-quadratic step where it is safe, a bisection where
it is not): :func:`~qws.spectral.find_bound_states` refines the levels of a
local well on the Prufer mismatch F(E) + j pi and those of a kernel on W
det(Id + K G(E)) of its Green matrix, and the mu walk of
:func:`~qws.scattering.phase_events` and
:func:`~qws.spectral.continuation_count` locates its branch events on the
matching denominator D(mu); :func:`~qws.scattering.phase_shift` walks no mu
path, for a local well or a kernel.  Every
caller already holds the values at the bracket ends and hands them in: the
values of the level counts taken so far, and the samples of the mu walk,
whose steps :func:`~qws.spectral.continuation_count` first splits in
sqrt(mu) on a deep well.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, Tuple

from .errors import QwsError


def same_sign(x: float, y: float) -> bool:
    """Both nonzero and of one sign (a product of two tiny values could underflow)."""
    return (x > 0 and y > 0) or (x < 0 and y < 0)


def refine_root(f: Callable[[float], float], a: float, fa: float, b: float, fb: float,
                tol: float) -> Tuple[float, float]:
    """A sign bracket (lo, hi) of f inside [a, b] no wider than tol max(1, |midpoint|).

    ``fa`` and ``fb`` are f(a) and f(b), which the caller already holds; the
    ends may come in either order, and the result has lo <= hi.
    Chandrupatla's method (Adv. Eng. Softw. 28 (1997) 145): the first trial
    is the secant through the two ends; after that, the inverse quadratic
    through the two ends and the end just replaced, wherever Chandrupatla's
    test says that it is monotone over the bracket (phi^2 < xi and
    (1 - phi)^2 < 1 - xi, with xi and phi the newest end's place between
    the other two in x and in f), and a bisection everywhere else.  Every
    trial point lies at least half the final width inside the bracket.  A
    step is a plain bisection once bisection alone could no longer close
    the bracket within twice the steps it needs from the start, so no kink
    of f can stall the loop: it takes at most about twice the steps of
    bisection.  An exact zero (a == b) is returned as it is.  Ends whose
    values do not straddle zero draw a warning, and the bracket is bisected
    as if f(b) had the sign opposite to f(a) until a sign change turns up.
    An infinite value counts by its sign, and a step whose interpolation
    would take one in is a bisection; a NaN value, at an end or at a trial
    point, raises :class:`~qws.errors.QwsError`.  A tol below the float
    spacing acts as the spacing: the width never goes below one spacing at
    the larger end (``math.ulp``), so a bracket whose ends are adjacent
    doubles is closed, and a trial that the clamp of half a spacing would
    round onto an end is the double next to it instead.
    """
    if a == b:
        return a, b
    if a > b:
        a, fa, b, fb = b, fb, a, fa
    _check_value(a, fa)
    _check_value(b, fb)
    if same_sign(fa, fb):
        warnings.warn(f"no sign change on the bracket [{a:.12g}, {b:.12g}]: "
                      "refining by bisection")
    # with the width at least one spacing, the ratio stays below about 2^54
    steps_left = 2 * math.ceil(math.log2((b - a) / _width(tol, a, b)))
    x3 = f3 = None   # the end the last trial replaced, and its value
    while b - a > (target := _width(tol, a, b)):
        x = 0.5 * (a + b)
        if not (same_sign(fa, fb) or b - a > target * 2.0 ** (steps_left - 1)):
            if x3 is None:
                if math.isfinite(fa) and math.isfinite(fb) and fa != fb:
                    x = (a * fb - b * fa) / (fb - fa)
            else:
                # Chandrupatla's names: x1 the newest end, x2 the other one
                (x1, f1), (x2, f2) = ((a, fa), (b, fb)) if x3 < a else ((b, fb), (a, fa))
                if math.isfinite(f1) and math.isfinite(f2) and math.isfinite(f3) and f3 != f2:
                    xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                    if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
                        t = (f1 / (f2 - f1) * f3 / (f2 - f3)
                             + (x3 - x1) / (x2 - x1) * f1 / (f3 - f1) * f2 / (f3 - f2))
                        x = x1 + t * (x2 - x1)
            # in this order, a fit that overflowed to NaN lands on the low clamp
            x = max(a + 0.5 * target, min(x, b - 0.5 * target))
            if not a < x < b:   # a clamp of half a spacing rounded onto an end
                x = math.nextafter(a, b) if x <= a else math.nextafter(b, a)
        steps_left -= 1
        fx = f(x)
        _check_value(x, fx)
        if same_sign(fx, fa):
            x3, f3, a, fa = a, fa, x, fx
        else:
            x3, f3, b, fb = b, fb, x, fx
    return a, b


def _width(tol: float, a: float, b: float) -> float:
    """tol max(1, |midpoint|), or one float spacing at the larger end where that is wider."""
    return max(tol * max(1.0, abs(0.5 * (a + b))), math.ulp(max(abs(a), abs(b))))


def _check_value(x: float, fx: float) -> None:
    """Raise on a NaN value of f, which has no sign to count by."""
    if math.isnan(fx):
        raise QwsError(f"root refinement met a NaN value at {x:.12g}")
