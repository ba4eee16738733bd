import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sp

from qws import specfun
from qws.errors import EnvelopeError

EULER_GAMMA = 0.5772156649015329


def series_j(nu: float, x: float, terms: int = 60) -> float:
    """Power-series oracle for J_nu, summed to machine precision."""
    total = 0.0
    for m in range(terms):
        total += (-1) ** m * (x / 2) ** (2 * m + nu) / (
            math.factorial(m) * math.gamma(m + nu + 1))
    return total


def series_y0_integer(n: int, x: float, terms: int = 60) -> float:
    """Integer-order Neumann oracle via the log + harmonic-number series (n = 0, 1)."""
    # Y_n = (2/pi)(ln(x/2) + gamma) J_n - (1/pi) sum_{k<n} ... - (1/pi) sum ...
    jn = series_j(n, x, terms)
    total = (2 / math.pi) * (math.log(x / 2) + EULER_GAMMA) * jn
    # finite sum of (n-k-1)!/k! (x/2)^{2k-n}
    fin = 0.0
    for k in range(n):
        fin += math.factorial(n - k - 1) / math.factorial(k) * (x / 2) ** (2 * k - n)
    total -= fin / math.pi
    # alternating series with harmonic numbers H_k + H_{k+n}
    def H(m):
        return sum(1.0 / i for i in range(1, m + 1))
    alt = 0.0
    for k in range(terms):
        alt += ((-1) ** k * (H(k) + H(k + n)) / (math.factorial(k) * math.factorial(k + n))
                * (x / 2) ** (2 * k + n))
    total -= alt / math.pi
    return total


class TestGamma:
    def test_half_integers(self):
        assert abs(specfun.gamma(0.5) - math.sqrt(math.pi)) <= 1e-12 * math.sqrt(math.pi)
        assert abs(specfun.gamma(1.5) - math.sqrt(math.pi) / 2) <= 1e-12

    def test_factorial(self):
        assert specfun.gamma(5.0) == 24.0

    def test_poles(self):
        for x in (0.0, -1.0, -2.0, -7.0):
            with pytest.raises(EnvelopeError):
                specfun.gamma(x)

    def test_envelope_accuracy(self):
        for x in np.linspace(0.1, 50, 61):
            exact = math.gamma(x)
            assert abs(specfun.gamma(float(x)) - exact) <= 1e-12 * abs(exact)


class TestBesselJ:
    def test_half_order_closed_form(self):
        rep = specfun.bessel_j(0.5, math.pi / 2)
        assert abs(rep.value - 2 / math.pi) <= 1e-12

    def test_origin_limit(self):
        rep = specfun.bessel_j(0.0, 0.0)
        assert rep.value == 1.0 and rep.derivative == 0.0

    def test_against_series_oracle(self):
        # frozen reference computed from the series oracle
        assert abs(series_j(1.0, 1.0) - 0.4400505857449335) < 1e-15
        for nu in (0.0, 0.3, 1.0, 2.5, 7.0):
            for x in (0.3, 1.0, 4.0):
                rep = specfun.bessel_j(nu, x)
                assert abs(rep.value - series_j(nu, x)) <= 1e-12 * max(1, abs(rep.value))

    def test_derivative_from_recurrence(self):
        # J'_{1/2}(pi/2) = -2/pi^2 in closed form
        rep = specfun.bessel_j(0.5, math.pi / 2)
        assert abs(rep.derivative - (-2 / math.pi ** 2)) <= 1e-12


class TestBesselY:
    def test_half_order_zero(self):
        rep = specfun.bessel_y(0.5, math.pi / 2)
        assert abs(rep.value) <= 1e-15

    def test_integer_series_oracle(self):
        assert abs(series_y0_integer(0, 1.0) - 0.08825696421567696) < 1e-14
        for x in (0.5, 1.0, 2.0):
            rep = specfun.bessel_y(0.0, x)
            assert abs(rep.value - series_y0_integer(0, x)) <= 1e-11 * max(1, abs(rep.value))
            rep1 = specfun.bessel_y(1.0, x)
            assert abs(rep1.value - series_y0_integer(1, x)) <= 1e-11 * max(1, abs(rep1.value))

    def test_singular_origin(self):
        with pytest.raises(EnvelopeError):
            specfun.bessel_y(0.0, 0.0)

    def test_near_integer_order_continuity(self):
        # the reflection formula must not blow up just off integer order
        base = specfun.bessel_y(2.0, 1.7).value
        for eps in (1e-8, 1e-10):
            close = specfun.bessel_y(2.0 + eps, 1.7).value
            assert abs(close - base) <= 1e-6 * abs(base)


class TestModifiedPair:
    def test_k_half_closed_form(self):
        pair = specfun.bessel_i_k(0.5, 1.0)
        exact = math.sqrt(math.pi / 2) * math.exp(-1.0)
        assert abs(pair.k_value - exact) <= 1e-12

    def test_i_zero_limit(self):
        pair = specfun.bessel_i_k(0.0, 1e-6)
        assert abs(pair.i_value - 1.0) <= 1e-9

    def test_scaled_no_overflow(self):
        pair = specfun.bessel_i_k(2.0, 900.0)
        assert math.isfinite(pair.i_scaled) and math.isfinite(pair.k_scaled)
        assert pair.exponent == 900.0

    @pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 2.7, 10.0])
    def test_wronskian_identity(self, nu):
        # I_nu K'_nu - I'_nu K_nu = -1/x (scaled forms: e^{+-x} factors cancel)
        for x in np.geomspace(1e-3, 1e2, 40):
            p = specfun.bessel_i_k(nu, float(x))
            w = p.i_scaled * p.k_deriv_scaled - p.i_deriv_scaled * p.k_scaled
            assert abs(w + 1.0 / x) <= 1e-9 * (1.0 / x)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 1.5, 2.7, 10.0])
def test_cylinder_wronskian(nu):
    for x in np.geomspace(1e-3, 1e2, 40):
        j = specfun.bessel_j(nu, float(x))
        y = specfun.bessel_y(nu, float(x))
        w = j.value * y.derivative - j.derivative * y.value
        expected = 2.0 / (math.pi * x)
        assert abs(w - expected) <= 1e-9 * expected


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(min_value=1.0, max_value=20.0),
       x=st.floats(min_value=0.05, max_value=80.0))
def test_recurrence_consistency(nu, x):
    jm = specfun.bessel_j(nu - 1.0, x).value
    j0 = specfun.bessel_j(nu, x).value
    jp = specfun.bessel_j(nu + 1.0, x).value
    scale = max(abs(jm), abs(j0), abs(jp), 1e-280)
    assert abs(jm + jp - (2 * nu / x) * j0) <= 1e-9 * scale


def test_half_integer_closed_forms():
    for x in (0.3, 1.0, 2.5, 8.0):
        s, c = math.sin(x), math.cos(x)
        amp = math.sqrt(2 / (math.pi * x))
        exact = {
            0.5: amp * s,
            1.5: amp * (s / x - c),
            2.5: amp * ((3 / x ** 2 - 1) * s - 3 * c / x),
        }
        for nu, val in exact.items():
            assert abs(specfun.bessel_j(nu, x).value - val) <= 1e-12 * max(1, abs(val))
        kamp = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
        kexact = {
            0.5: kamp,
            1.5: kamp * (1 + 1 / x),
            2.5: kamp * (1 + 3 / x + 3 / x ** 2),
        }
        for nu, val in kexact.items():
            assert abs(specfun.bessel_i_k(nu, x).k_value - val) <= 1e-12 * max(1, abs(val))


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 3.0, 7.5])
def test_small_argument_law(nu):
    x = 1e-4
    rep = specfun.bessel_j(nu, x)
    scaled = rep.value * math.gamma(nu + 1) * (2 / x) ** nu
    assert abs(scaled - 1.0) <= 1e-6


def test_envelope_guards():
    with pytest.raises(EnvelopeError):
        specfun.bessel_j(60.0, 1.0)
    with pytest.raises(EnvelopeError):
        specfun.bessel_j(1.0, 2e3)
    with pytest.raises(EnvelopeError):
        specfun.bessel_j(-0.1, 1.0)
    with pytest.raises(EnvelopeError):
        specfun.bessel_i_k(0.5, 0.0)
    with pytest.raises(EnvelopeError):
        specfun.bessel_y(50.0, 1e-6)  # value overflows the double range


@pytest.mark.parametrize("fn", [specfun.bessel_j, specfun.bessel_y, specfun.bessel_i_k])
@pytest.mark.parametrize("nu, x", [(1.0 + 0.5j, 1.0), (1.0, 2.0 + 0j), (math.nan, 1.0),
                                   (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
def test_complex_or_non_finite_input_is_an_envelope_error(fn, nu, x):
    with pytest.raises(EnvelopeError):
        fn(nu, x)


def test_error_reports_within_envelope():
    # the derivative comes from J' = J_{nu-1} - (nu/x) J; scipy's jvp takes
    # the other recurrence, (J_{nu-1} - J_{nu+1}) / 2
    for nu in (0.0, 0.5, 2.0, 10.0, 50.0):
        for x in (1e-6, 1e-2, 1.0, 50.0, 1e3):
            rep = specfun.bessel_j(nu, x)
            assert rep.value == sp.jv(nu, x)
            assert abs(rep.derivative - sp.jvp(nu, x)) <= 1e-12 * abs(sp.jvp(nu, x))


class TestExteriorLogDerivative:
    def test_threshold_value(self):
        assert specfun.log_derivative_exterior(1.5, 0.0, 2.0) == (0.5 - 1.5) / 2.0

    def test_half_order_exact(self):
        # sqrt(r) K_{1/2}(kappa r) is proportional to e^{-kappa r}
        for kappa in (0.3, 1.0, 4.0):
            val = specfun.log_derivative_exterior(0.5, kappa, 1.7)
            assert abs(val + kappa) <= 1e-12 * kappa

    def test_deep_binding_limit(self):
        val = specfun.log_derivative_exterior(2.5, 40.0, 1.0)
        assert abs(val + 40.0) <= 0.1  # approaches -kappa from above

    def test_interior_free_threshold(self):
        assert specfun.log_derivative_interior_free(2.5, 0.0, 1.0) == 3.0
        val = specfun.log_derivative_interior_free(1.5, 1e-6, 1.0)
        assert abs(val - 2.0) <= 1e-6
