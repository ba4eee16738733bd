"""Cylinder and modified-cylinder functions of arbitrary real order.

J, Y, I and K of real order nu with their derivatives, computed here on
Python floats, and K also over a numpy array, so that importing the
package loads numpy and nothing heavier.  Supported envelope: order nu in
[0, 50], argument x in (0, 1e3] (J also at x = 0); outside it the
functions raise rather than return garbage, and so do they where a value
or a derivative overflows.

Two regions of x, one method each, for every order:

- x < 2: the power series for J and I (its terms keep one sign for I) and
  Temme's series for Y and K at an order mu in [-1/2, 1/2), then the upward
  order recurrence, which is stable for Y and K (N. M. Temme, J. Comput.
  Phys. 19 (1975) 324).  Temme's gamma terms come from the Taylor
  coefficients of 1/Gamma(1 + z) below.
- x >= 2: Steed's method (A. R. Barnett et al., Comput. Phys. Commun. 8
  (1974) 377; Numerical Recipes §6.7).  CF1 gives J'/J (I'/I) at nu, the
  downward recurrence carries it to mu, CF2 gives the (J + iY)'/(J + iY)
  pair (K and K'/K) at mu, and the Wronskian fixes the scale.  CF1 takes
  about x steps, which near x = 1e3 is still little beside the interior
  solve that a matching point at k r0 ~ 1e3 takes.

:func:`bessel_k_scaled` gives K e^x and K' e^x over an array, by the same
two methods for K, from one series or continued-fraction loop per region
rather than one call per point, for the exterior tail of a bound state.
It has its own domain: nu in [0, 50] and every finite x > ``_X_TINY``,
with no cap on x, as it needs no CF1 and CF2 converges faster as x grows.
The scalar functions stay on the per-energy matching path, where numpy's
per-call overhead would cost more than it saves.

Derivatives come from the order recurrences, never from finite
differences.  Near the origin the derivative is formed from the
neighbouring orders, J' = J_{nu-1} - (nu/x) J, Y' likewise,
I' = (I_{nu-1} + I_{nu+1})/2 and K' = -(K_{nu-1} + K_{nu+1})/2, so that a
neighbour that overflows raises.

The bound-state side of the package only ever needs these functions at
purely imaginary argument, which is reached through I/K so that all
arithmetic here stays real: J_lam(i kappa r) ~ I_lam(kappa r) and
H^(1)_lam(i kappa r) ~ K_lam(kappa r) up to phase factors that cancel in
logarithmic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import EnvelopeError

NU_MAX = 50.0
X_MAX = 1.0e3

_EPS = 1e-16           # relative convergence of every series and continued fraction
_TINY = 1e-300         # Lentz's stand-in for a zero denominator
_MAX_ITER = 10_000     # a guard: inside the envelope no loop it bounds takes 400 steps
_SERIES_X = 2.0        # below: power and Temme series; above: Steed's continued fractions
_LN2 = math.log(2.0)
# Below 1e3 times the smallest normal double every Y' and K' passes 2/(pi x) > 2.8e304;
# they read as overflowed there, the same boundary as AMOS (scipy.special) keeps
_X_TINY = 1e3 * 2.2250738585072014e-308

# Taylor coefficients of 1/Gamma(1 + z) about z = 0, odd and even powers
# (40-digit evaluation, rounded); the omitted terms stay below 1e-18 at |z| <= 1/2
_RGAMMA_ODD = (0.5772156649015329, -0.04200263503409524, -0.04219773455554433,
               0.0072189432466631, -0.00021524167411495098, -2.013485478078824e-05,
               1.133027231981696e-06, 6.116095104481416e-09, -1.18127457048702e-09,
               7.782263439905071e-12, 5.100370287454476e-13, -5.348122539423018e-15)
_RGAMMA_EVEN = (1.0, -0.6558780715202539, 0.16653861138229148, -0.009621971527876973,
                -0.0011651675918590652, 0.0001280502823881162, -1.2504934821426706e-06,
                -2.056338416977607e-07, 5.002007644469223e-09, 1.0434267116911005e-10,
                -3.696805618642206e-12, -2.0583260535665066e-14, 1.2267786282382608e-15)


@dataclass(frozen=True)
class EvalReport:
    """One special-function evaluation: the value and its derivative d/dx."""

    value: float
    derivative: float


@dataclass(frozen=True)
class ModifiedPair:
    """Scaled modified Bessel pair: I_nu e^{-x} and K_nu e^{+x} with their derivatives.

    The true values are i_scaled * e^{exponent} and k_scaled * e^{-exponent};
    scaling keeps the envelope x <= 1e3 free of overflow, and cancels in the
    I'/I and K'/K ratios used by the matching conditions.  Unscaled values
    that overflow read as +-inf.
    """

    nu: float
    x: float
    i_scaled: float
    i_deriv_scaled: float
    k_scaled: float
    k_deriv_scaled: float
    exponent: float

    @property
    def i_value(self) -> float:
        return _unscale(self.i_scaled, self.exponent)

    @property
    def i_derivative(self) -> float:
        return _unscale(self.i_deriv_scaled, self.exponent)

    @property
    def k_value(self) -> float:
        return self.k_scaled * math.exp(-self.exponent)

    @property
    def k_derivative(self) -> float:
        return self.k_deriv_scaled * math.exp(-self.exponent)

    @property
    def i_log_derivative(self) -> float:
        """I'_nu(x) / I_nu(x) (scaling cancels)."""
        return self.i_deriv_scaled / self.i_scaled

    @property
    def k_log_derivative(self) -> float:
        """K'_nu(x) / K_nu(x) (scaling cancels)."""
        return self.k_deriv_scaled / self.k_scaled


def _unscale(scaled: float, exponent: float) -> float:
    """scaled * e^{exponent}, or +-inf where that overflows."""
    try:
        return scaled * math.exp(exponent)
    except OverflowError:
        return math.inf * (1.0 if scaled >= 0 else -1.0)


def _check_order(nu: float) -> None:
    if isinstance(nu, complex) or not (0.0 <= nu <= NU_MAX):
        raise EnvelopeError(f"order nu={nu} outside supported real [0, {NU_MAX}]")


def _check_envelope(nu: float, x: float, allow_x_zero: bool = False) -> None:
    if isinstance(x, complex):
        raise EnvelopeError(f"argument x={x} must be real")
    _check_order(nu)
    if x == 0.0 and allow_x_zero:
        return
    if not (0.0 < x <= X_MAX):
        raise EnvelopeError(f"argument x={x} outside supported (0, {X_MAX}]")


def gamma(x: float) -> float:
    """Gamma function for finite real x away from the poles at 0, -1, -2, ..."""
    if not math.isfinite(x) or (x <= 0 and x == int(x)):
        raise EnvelopeError(f"gamma pole or non-finite x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:
        raise EnvelopeError(f"gamma({x}) not representable") from exc


def _not_converged(what: str, nu: float, x: float) -> EnvelopeError:
    return EnvelopeError(f"{what} did not converge at nu={nu}, x={x}")


def _temme_gammas(mu: float):
    """Temme's gamma terms for |mu| <= 1/2.

    Returns (gam1, gam2, 1/Gamma(1 + mu), 1/Gamma(1 - mu)) with
    gam1 = (1/Gamma(1 - mu) - 1/Gamma(1 + mu)) / (2 mu) and
    gam2 = (1/Gamma(1 - mu) + 1/Gamma(1 + mu)) / 2, free of cancellation at
    small mu.
    """
    m2 = mu * mu
    odd = 0.0
    for c in reversed(_RGAMMA_ODD):
        odd = odd * m2 + c
    gam2 = 0.0
    for c in reversed(_RGAMMA_EVEN):
        gam2 = gam2 * m2 + c
    return -odd, gam2, gam2 + mu * odd, gam2 - mu * odd


def _power_over_gamma(x: float, v: float, g: float) -> float:
    """(x/2)^v / Gamma(g), g > 0; inf where it overflows, 0 where it underflows.

    By the power where that stays in range, else by logarithms, which cost
    |log| ulps but reach the whole double range.
    """
    try:
        power = x ** v * 0.5 ** v
    except OverflowError:
        power = math.inf
    if 1e-300 < power < 1e300:
        return power / math.gamma(g)
    try:
        return math.exp(v * (math.log(x) - _LN2) - math.lgamma(g))
    except OverflowError:
        return math.inf


def _power_series(nu: float, x: float, sign: float):
    """(f_{nu-1}, f_nu, f_{nu+1}) for f = J (sign -1) or I (sign +1) by the power series.

    With z = sign x^2/4, t_k = z^k Gamma(nu + 1) / (k! Gamma(nu + k + 1))
    and P_v = (x/2)^v / Gamma(v + 1): f_nu = P_nu sum t_k,
    f_{nu+1} = P_nu (x/2) sum t_k / (nu + k + 1) and
    f_{nu-1} = P_{nu-1} sum (nu + k) t_k / nu (f_{-1} = sign f_1).  Meant
    for x < 2, where |z| < 1 and, for J, no sum comes near a zero but that
    of f_{nu-1}, whose scale is nu.
    """
    z = 0.25 * sign * x * x
    term = 1.0
    s0, sm, sp = 1.0, nu, 1.0 / (nu + 1.0)
    k = 0
    while True:
        k += 1
        term *= z / (k * (nu + k))
        s0 += term
        sm += (nu + k) * term
        sp += term / (nu + k + 1.0)
        if (abs(term) <= _EPS * abs(s0)
                and abs(term) * (nu + k) <= _EPS * max(abs(sm), nu)):
            break
    pre = _power_over_gamma(x, nu, nu + 1.0)
    above = pre * sp * 0.5 * x
    below = sign * above if nu == 0.0 else _power_over_gamma(x, nu - 1.0, nu) * (sm / nu)
    return below, pre * s0, above


def _temme_start(mu: float, x: float):
    """Temme's f_0, p_0 and q_0 of K_mu, |mu| <= 1/2; those of Y_mu are 2/pi times these.

    f_0 = mu pi / sin(mu pi) (gam1 cosh(sigma) + gam2 ln(2/x) sinh(sigma)/sigma),
    p_0 = (2/x)^mu / (2 Gamma(1 - mu)) and q_0 = (x/2)^mu / (2 Gamma(1 + mu)),
    sigma = mu ln(2/x).  ln(2/x) is taken as ln 2 - ln x, exact also for
    subnormal x.
    """
    log_2x = _LN2 - math.log(x)
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < _EPS else pimu / math.sin(pimu)
    sigma = mu * log_2x
    fact2 = 1.0 if abs(sigma) < _EPS else math.sinh(sigma) / sigma
    gam1, gam2, gampl, gammi = _temme_gammas(mu)
    e = math.exp(sigma)
    return (fact * (gam1 * math.cosh(sigma) + gam2 * fact2 * log_2x),
            0.5 * e / gampl, 0.5 / (e * gammi))


def _temme_y(mu: float, x: float):
    """(Y_mu, x Y_{mu+1}) by Temme's series, |mu| <= 1/2 and x < 2.

    The second one carries the factor x so that it does not overflow near
    x = 0 where Y_{mu+1} itself would.
    """
    ff, p, q = (2.0 / math.pi * v for v in _temme_start(mu, x))
    half = 0.5 * math.pi * mu
    fact3 = 1.0 if abs(half) < _EPS else math.sin(half) / half
    r = math.pi * half * fact3 * fact3
    c = 1.0
    d = -0.25 * x * x
    total = ff + r * q
    total1 = p
    m2 = mu * mu
    for i in range(1, _MAX_ITER):
        ff = (i * ff + p + q) / (i * i - m2)
        c *= d / i
        p /= i - mu
        q /= i + mu
        delta = c * (ff + r * q)
        total += delta
        delta1 = c * p - i * delta
        total1 += delta1
        if (abs(delta) < _EPS * (1.0 + abs(total))
                and abs(delta1) < _EPS * (1.0 + abs(total1))):
            break
    else:
        raise _not_converged("Temme's Y series", mu, x)
    return -total, -2.0 * total1


def _temme_k(mu: float, x: float):
    """(K_mu e^x, x K_{mu+1} e^x) by Temme's series, |mu| <= 1/2 and x < 2."""
    ff, p, q = _temme_start(mu, x)
    total = ff
    c = 1.0
    d = 0.25 * x * x
    total1 = p
    m2 = mu * mu
    for i in range(1, _MAX_ITER):
        ff = (i * ff + p + q) / (i * i - m2)
        c *= d / i
        p /= i - mu
        q /= i + mu
        delta = c * ff
        total += delta
        total1 += c * (p - i * ff)
        if abs(delta) < _EPS * abs(total):
            break
    else:
        raise _not_converged("Temme's K series", mu, x)
    scale = math.exp(x)
    return total * scale, 2.0 * total1 * scale


def _jy_steed(nu: float, x: float):
    """(J, J', Y, Y') of order nu by Steed's method, x >= 2."""
    xi = 1.0 / x
    xi2 = 2.0 * xi
    # CF1 for g = J_{nu+1} / J_nu, summed from its tail: the backward
    # recurrence g_{v-1} = 1 / (2v/x - g_v) from g = 0 at an order past x,
    # where J_v(x) > 0.  It keeps J within 1e-14 of sqrt(J^2 + Y^2) where
    # the forward (Lentz) evaluation lost 2.5e-12 at nu = 50, x = 376 and
    # 1.2e-9 in f at nu = 35.9, x = 988.  The signs of the denominators
    # give the sign of J_nu.
    g = 0.0
    isign = 1.0
    for j in range(int(max(x - nu, 0.0) + 8.0 * x ** (1.0 / 3.0)) + 10, 0, -1):
        den = 2.0 * (nu + j) * xi - g
        if den == 0.0:
            den = _TINY
        if den < 0.0:
            isign = -isign
        g = 1.0 / den
    h = nu * xi - g                                   # J'_nu / J_nu
    # downward recurrence from nu to mu = nu - nl, which CF2 takes for mu <~ x
    nl = max(0, int(nu - x + 1.5))
    mu = nu - nl
    jl = isign
    jpl = h * jl
    jl_nu, jpl_nu = jl, jpl
    for l in range(nl, 0, -1):
        jtemp = (mu + l) * xi * jl + jpl
        jpl = (mu + l - 1) * xi * jtemp - jl
        jl = jtemp
    f = jpl / jl
    # CF2: p + iq = (J'_mu + i Y'_mu) / (J_mu + i Y_mu)
    #   = -1/(2x) + i + (i/x) a_1 / (b_1 + a_2 / (b_2 + ...)),
    #   a_k = (k - 1/2)^2 - mu^2, b_k = 2 (x + k i)
    m2 = mu * mu
    frac = _TINY + 0j
    cc = frac
    dd = 0j
    for k in range(1, _MAX_ITER):
        ak = (k - 0.5) ** 2 - m2
        bk = complex(2.0 * x, 2.0 * k)
        dd = bk + ak * dd
        if dd == 0:
            dd = _TINY
        cc = bk + ak / cc
        if cc == 0:
            cc = _TINY
        dd = 1.0 / dd
        delta = cc * dd
        frac *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < _EPS:
            break
    else:
        raise _not_converged("CF2 for J and Y", nu, x)
    pq = complex(-0.5 * xi, 1.0) + 1j * xi * frac
    p, q = pq.real, pq.imag
    gam = (p - f) / q
    jmu = math.copysign(math.sqrt(2.0 / (math.pi * x) / ((p - f) * gam + q)), jl)
    ymu = gam * jmu
    y1 = mu * xi * ymu - (p * ymu + q * jmu)         # Y_{mu+1} = (mu/x) Y_mu - Y'_mu
    scale = jmu / jl
    for i in range(1, nl + 1):
        ymu, y1 = y1, (mu + i) * xi2 * y1 - ymu
    return jl_nu * scale, jpl_nu * scale, ymu, nu * xi * ymu - y1


def _jy(nu: float, x: float):
    """(J, J', Y, Y') of order nu at x > 0."""
    if x >= _SERIES_X:
        return _jy_steed(nu, x)
    jm1, j, _ = _power_series(nu, x, -1.0)
    # Y from Temme's pair at mu in [-1/2, 1/2), then upward to nu
    nl = int(nu + 0.5)
    mu = nu - nl
    ymu, xy1 = _temme_y(mu, x)
    if nl == 0:
        ym1 = (2.0 * mu * ymu - xy1) / x              # Y_{mu-1} = (2mu/x) Y_mu - Y_{mu+1}
        y = ymu
    else:
        ym1, y = ymu, xy1 / x
        for i in range(1, nl):
            ym1, y = y, (2.0 * (mu + i) / x) * y - ym1
    return j, jm1 - (nu / x) * j, y, ym1 - (nu / x) * y


def bessel_j(nu: float, x: float) -> EvalReport:
    """J_nu(x) and J'_nu(x); x = 0 allowed (limit values)."""
    _check_envelope(nu, x, allow_x_zero=True)
    if x == 0.0:
        # J'_nu ~ (x/2)^{nu-1} / (2 Gamma(nu)): 1/2 at nu = 1, divergent for 0 < nu < 1
        deriv = 0.5 if nu == 1.0 else (math.inf if 0.0 < nu < 1.0 else 0.0)
        return EvalReport(1.0 if nu == 0.0 else 0.0, deriv)
    value, deriv, _, _ = _jy(float(nu), float(x))
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise EnvelopeError(f"J_nu evaluation overflowed at nu={nu}, x={x}")
    return EvalReport(value, deriv)


def bessel_y(nu: float, x: float) -> EvalReport:
    """Y_nu(x) (Neumann) and Y'_nu(x); singular at x = 0."""
    _check_envelope(nu, x)
    if x < _X_TINY:
        raise EnvelopeError(f"Y_nu evaluation overflowed at nu={nu}, x={x}")
    _, _, value, deriv = _jy(float(nu), float(x))
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise EnvelopeError(f"Y_nu evaluation overflowed at nu={nu}, x={x}")
    return EvalReport(value, deriv)


def _ik_steed(nu: float, x: float):
    """(I e^-x, I' e^-x, K e^x, K' e^x) of order nu by Steed's method, x >= 2."""
    xi = 1.0 / x
    xi2 = 2.0 * xi
    # CF1: ratio = I'_nu / I_nu (all terms positive: no sign to track)
    ratio = max(nu * xi, _TINY)
    b = xi2 * nu
    d = 0.0
    c = ratio
    for _ in range(_MAX_ITER):
        b += xi2
        d = 1.0 / (b + d)
        c = b + 1.0 / c
        delta = c * d
        ratio *= delta
        if abs(delta - 1.0) < _EPS:
            break
    else:
        raise _not_converged("CF1 for I", nu, x)
    # downward recurrence from nu to mu = nu - nl in [-1/2, 1/2)
    nl = int(nu + 0.5)
    mu = nu - nl
    il = 1.0
    ipl = ratio
    for l in range(nl, 0, -1):
        itemp = (mu + l) * xi * il + ipl
        ipl = (mu + l - 1) * xi * itemp + il
        il = itemp
    f = ipl / il
    # CF2 (Temme): K_mu e^x = sqrt(pi/(2x)) / s, and K_{mu+1}/K_mu from h
    a1 = 0.25 - mu * mu
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < _EPS * abs(s):
            break
    else:
        raise _not_converged("CF2 for K", nu, x)
    kmu = math.sqrt(math.pi / (2.0 * x)) / s
    k1 = kmu * (mu + x + 0.5 - a1 * h) * xi
    # Wronskian I_mu K_{mu+1} + I_{mu+1} K_mu = 1/x, with I_{mu+1} = I'_mu - (mu/x) I_mu
    imu = xi / (f * kmu + k1 - mu * xi * kmu)
    for i in range(1, nl + 1):
        kmu, k1 = k1, (mu + i) * xi2 * k1 + kmu
    inu = imu / il
    return inu, inu * ratio, kmu, nu * xi * kmu - k1


def _ik(nu: float, x: float):
    """(I e^-x, I' e^-x, K e^x, K' e^x) of order nu at x > 0."""
    if x >= _SERIES_X:
        return _ik_steed(nu, x)
    scale = math.exp(-x)
    im1, i, ip1 = _power_series(nu, x, 1.0)
    # K from Temme's pair at mu in [-1/2, 1/2), then upward to nu + 1
    nl = int(nu + 0.5)
    mu = nu - nl
    kmu, xk1 = _temme_k(mu, x)
    if nl == 0:
        km1, k, kp1 = (xk1 - 2.0 * mu * kmu) / x, kmu, xk1 / x
    else:
        km1, k = kmu, xk1 / x
        for j in range(1, nl):
            km1, k = k, (2.0 * (mu + j) / x) * k + km1
        kp1 = (2.0 * nu / x) * k + km1
    return (i * scale, 0.5 * (im1 + ip1) * scale, k, -0.5 * (km1 + kp1))


def bessel_i_k(nu: float, x: float) -> ModifiedPair:
    """Exponentially scaled I_nu, K_nu and derivatives (see :class:`ModifiedPair`)."""
    _check_envelope(nu, x)
    if x < _X_TINY:
        raise EnvelopeError(f"modified pair overflowed at nu={nu}, x={x}")
    i0, di, k0, dk = _ik(float(nu), float(x))
    for v in (i0, k0, di, dk):
        if not math.isfinite(v):
            raise EnvelopeError(f"modified pair overflowed at nu={nu}, x={x}")
    return ModifiedPair(nu=nu, x=x, i_scaled=i0, i_deriv_scaled=di,
                        k_scaled=k0, k_deriv_scaled=dk, exponent=x)


def bessel_k_scaled(nu: float, x) -> Tuple[np.ndarray, np.ndarray]:
    """(K_nu e^x, K'_nu e^x) over an array x: K alone, with no I and so no CF1.

    Temme's series where x < 2 and Steed's CF2 where x >= 2, each over its
    part of the array with the terms in mu = nu - round(nu) taken once, then
    the upward order recurrence to nu and K' = (nu/x) K_nu - K_{nu+1}.  A
    loop stops when every element has converged; CF2 drops an element as
    it converges, since its q terms grow as (2x)^i / i! past it.  Domain:
    nu in [0, 50] and finite x > ``_X_TINY``, with no cap on x, as CF2
    converges faster as x grows; outside it, and where a value or a
    derivative overflows, EnvelopeError.
    """
    x = np.asarray(x)
    if isinstance(nu, complex) or np.iscomplexobj(x) or not 0.0 <= nu <= NU_MAX:
        raise EnvelopeError(f"order nu={nu} outside supported [0, {NU_MAX}], or complex x")
    x = x.astype(float)
    if not np.all(np.isfinite(x) & (x > _X_TINY)):
        raise EnvelopeError(f"argument x outside the supported finite x > {_X_TINY}")
    nl = int(nu + 0.5)
    mu = nu - nl
    kmu, k1 = np.empty_like(x), np.empty_like(x)
    series = x < _SERIES_X
    with np.errstate(all="ignore"):
        if series.any():
            kmu[series], k1[series] = _temme_k_array(mu, x[series])
        if not series.all():
            kmu[~series], k1[~series] = _cf2_k_array(mu, x[~series])
        xi = 1.0 / x
        xi2 = 2.0 * xi
        for i in range(1, nl + 1):
            kmu, k1 = k1, (mu + i) * xi2 * k1 + kmu
        dk = nu * xi * kmu - k1
    if not (np.all(np.isfinite(kmu)) and np.all(np.isfinite(dk))):
        raise EnvelopeError(f"K_nu e^x overflowed at nu={nu}")
    return kmu, dk


def _temme_k_array(mu: float, x: np.ndarray):
    """(K_mu e^x, K_{mu+1} e^x) by Temme's series over x < 2 (:func:`_temme_k` on an array)."""
    gam1, gam2, gampl, gammi = _temme_gammas(mu)
    pimu = math.pi * mu
    fact = 1.0 if abs(pimu) < _EPS else pimu / math.sin(pimu)
    log_2x = _LN2 - np.log(x)
    sigma = mu * log_2x
    fact2 = np.where(np.abs(sigma) < _EPS, 1.0, np.sinh(sigma) / sigma)
    e = np.exp(sigma)
    ff = fact * (gam1 * np.cosh(sigma) + gam2 * fact2 * log_2x)
    p, q = 0.5 * e / gampl, 0.5 / (e * gammi)
    total, total1 = ff, p
    c = 1.0
    d = 0.25 * x * x
    m2 = mu * mu
    for i in range(1, _MAX_ITER):
        ff = (i * ff + p + q) / (i * i - m2)
        c = c * d / i
        p = p / (i - mu)
        q = q / (i + mu)
        delta = c * ff
        total = total + delta
        total1 = total1 + c * (p - i * ff)
        if np.all(np.abs(delta) < _EPS * np.abs(total)):
            break
    else:
        raise _not_converged("Temme's K series", mu, x)
    scale = np.exp(x)
    return total * scale, 2.0 * total1 * scale / x


def _cf2_k_array(mu: float, x: np.ndarray):
    """(K_mu e^x, K_{mu+1} e^x) by Steed's CF2 over x >= 2 (that of :func:`_ik_steed`)."""
    a1 = 0.25 - mu * mu
    s_out, h_out = np.empty_like(x), np.empty_like(x)
    live = np.arange(x.size)
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = np.zeros_like(x), np.ones_like(x)
    q = np.full_like(x, a1)
    c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, _MAX_ITER):
        a -= 2 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q = q + c * qnew
        b = b + 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h = h + delh
        dels = q * delh
        s = s + dels
        going = np.abs(dels) >= _EPS * np.abs(s)
        if not going.all():
            s_out[live], h_out[live] = s, h
            if not going.any():
                break
            live, b, d, h, delh, q1, q2, q, s = (
                v[going] for v in (live, b, d, h, delh, q1, q2, q, s))
    else:
        raise _not_converged("CF2 for K", mu, x)
    kmu = np.sqrt(math.pi / (2.0 * x)) / s_out
    return kmu, kmu * (mu + x + 0.5 - a1 * h_out) / x


def log_derivative_exterior(lam: float, kappa: float, r0: float) -> float:
    """d/dr log[ sqrt(r) K_lam(kappa r) ] at r0: the decaying exterior matching value.

    Returns (1/2 - lam)/r0 exactly at kappa = 0; tends to -kappa for deep
    binding.  For lam = 1/2 it equals -kappa identically.  An order lam
    outside [0, 50] raises EnvelopeError at every kappa, 0 included.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise EnvelopeError("r0 must be positive and finite")
    if kappa < 0:
        raise EnvelopeError("kappa must be nonnegative")
    if kappa == 0.0:
        _check_order(lam)
        return (0.5 - lam) / r0
    pair = bessel_i_k(lam, kappa * r0)
    return 0.5 / r0 + kappa * pair.k_log_derivative


def log_derivative_interior_free(lam: float, kappa: float, r0: float) -> float:
    """d/dr log[ sqrt(r) I_lam(kappa r) ] at r0: the free interior value for E <= 0.

    Tends to (lam + 1/2)/r0 as kappa -> 0.  An order lam outside [0, 50]
    raises EnvelopeError at every kappa, 0 included.
    """
    if not (math.isfinite(r0) and r0 > 0):
        raise EnvelopeError("r0 must be positive and finite")
    if kappa < 0:
        raise EnvelopeError("kappa must be nonnegative")
    if kappa == 0.0:
        _check_order(lam)
        return (lam + 0.5) / r0
    pair = bessel_i_k(lam, kappa * r0)
    return 0.5 / r0 + kappa * pair.i_log_derivative
