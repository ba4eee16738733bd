"""Cylinder and modified-cylinder functions of arbitrary real order.

Thin, range-guarded wrappers around scipy.special (AMOS / cephes) that
return each value together with its derivative, which comes from the order
recurrences, never from finite differences.  Supported envelope: order nu
in [0, 50], argument x in (0, 1e3] (J also at x = 0); outside it the
functions raise rather than return garbage.

The bound-state side of the package only ever needs these functions at
purely imaginary argument, which is reached through I/K so that all
arithmetic here stays real: J_lam(i kappa r) ~ I_lam(kappa r) and
H^(1)_lam(i kappa r) ~ K_lam(kappa r) up to phase factors that cancel in
logarithmic derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sp

from .errors import EnvelopeError

NU_MAX = 50.0
X_MAX = 1.0e3


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
    I'/I and K'/K ratios used by the matching conditions.
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
        try:
            return self.i_scaled * math.exp(self.exponent)
        except OverflowError:
            return math.inf * (1.0 if self.i_scaled >= 0 else -1.0)

    @property
    def k_value(self) -> float:
        return self.k_scaled * math.exp(-self.exponent)

    @property
    def i_log_derivative(self) -> float:
        """I'_nu(x) / I_nu(x) (scaling cancels)."""
        return self.i_deriv_scaled / self.i_scaled

    @property
    def k_log_derivative(self) -> float:
        """K'_nu(x) / K_nu(x) (scaling cancels)."""
        return self.k_deriv_scaled / self.k_scaled


def _check_envelope(nu: float, x: float, allow_x_zero: bool = False) -> None:
    if isinstance(nu, complex) or isinstance(x, complex):
        raise EnvelopeError(f"order nu={nu} and argument x={x} must be real")
    if not (0.0 <= nu <= NU_MAX):
        raise EnvelopeError(f"order nu={nu} outside supported [0, {NU_MAX}]")
    if x == 0.0 and allow_x_zero:
        return
    if not (0.0 < x <= X_MAX):
        raise EnvelopeError(f"argument x={x} outside supported (0, {X_MAX}]")


def gamma(x: float) -> float:
    """Gamma function for real x away from the poles at 0, -1, -2, ..."""
    if x <= 0 and x == int(x):
        raise EnvelopeError(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:
        raise EnvelopeError(f"gamma({x}) not representable") from exc


def bessel_j(nu: float, x: float) -> EvalReport:
    """J_nu(x) and J'_nu(x); x = 0 allowed (limit values)."""
    _check_envelope(nu, x, allow_x_zero=True)
    if x == 0.0:
        # J'_nu ~ (x/2)^{nu-1} / (2 Gamma(nu)): 1/2 at nu = 1, divergent for 0 < nu < 1
        deriv = 0.5 if nu == 1.0 else (math.inf if 0.0 < nu < 1.0 else 0.0)
        return EvalReport(1.0 if nu == 0.0 else 0.0, deriv)
    value = float(_sp.jv(nu, x))
    deriv = float(_sp.jv(nu - 1.0, x)) - (nu / x) * value
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise EnvelopeError(f"J_nu evaluation overflowed at nu={nu}, x={x}")
    return EvalReport(value, deriv)


def bessel_y(nu: float, x: float) -> EvalReport:
    """Y_nu(x) (Neumann) and Y'_nu(x); singular at x = 0."""
    _check_envelope(nu, x)
    value = float(_sp.yv(nu, x))
    deriv = float(_sp.yv(nu - 1.0, x)) - (nu / x) * value
    if not (math.isfinite(value) and math.isfinite(deriv)):
        raise EnvelopeError(f"Y_nu evaluation overflowed at nu={nu}, x={x}")
    return EvalReport(value, deriv)


def bessel_i_k(nu: float, x: float) -> ModifiedPair:
    """Exponentially scaled I_nu, K_nu and derivatives (see :class:`ModifiedPair`)."""
    _check_envelope(nu, x)
    i0 = float(_sp.ive(nu, x))
    k0 = float(_sp.kve(nu, x))
    # I'_nu = (I_{nu-1} + I_{nu+1})/2,  K'_nu = -(K_{nu-1} + K_{nu+1})/2
    di = 0.5 * (float(_sp.ive(nu - 1.0, x)) + float(_sp.ive(nu + 1.0, x)))
    dk = -0.5 * (float(_sp.kve(nu - 1.0, x)) + float(_sp.kve(nu + 1.0, x)))
    for v in (i0, k0, di, dk):
        if not math.isfinite(v):
            raise EnvelopeError(f"modified pair overflowed at nu={nu}, x={x}")
    return ModifiedPair(nu=nu, x=x, i_scaled=i0, i_deriv_scaled=di,
                        k_scaled=k0, k_deriv_scaled=dk, exponent=x)


def log_derivative_exterior(lam: float, kappa: float, r0: float) -> float:
    """d/dr log[ sqrt(r) K_lam(kappa r) ] at r0: the decaying exterior matching value.

    Returns (1/2 - lam)/r0 exactly at kappa = 0; tends to -kappa for deep
    binding.  For lam = 1/2 it equals -kappa identically.
    """
    if r0 <= 0:
        raise EnvelopeError("r0 must be positive")
    if kappa < 0:
        raise EnvelopeError("kappa must be nonnegative")
    if kappa == 0.0:
        return (0.5 - lam) / r0
    pair = bessel_i_k(lam, kappa * r0)
    return 0.5 / r0 + kappa * pair.k_log_derivative


def log_derivative_interior_free(lam: float, kappa: float, r0: float) -> float:
    """d/dr log[ sqrt(r) I_lam(kappa r) ] at r0: the free interior value for E <= 0.

    Tends to (lam + 1/2)/r0 as kappa -> 0.
    """
    if r0 <= 0:
        raise EnvelopeError("r0 must be positive")
    if kappa < 0:
        raise EnvelopeError("kappa must be nonnegative")
    if kappa == 0.0:
        return (lam + 0.5) / r0
    pair = bessel_i_k(lam, kappa * r0)
    return 0.5 / r0 + kappa * pair.i_log_derivative
