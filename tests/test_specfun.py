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
        # and the non-finite arguments: -inf raised OverflowError, nan and inf
        # read nan and inf
        for x in (0.0, -1.0, -2.0, -7.0, -math.inf, math.nan, math.inf):
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
    # the value within the envelope bound of the scipy grid below; the
    # derivative against scipy's jvp, which takes the other recurrence,
    # (J_{nu-1} - J_{nu+1}) / 2
    for nu in (0.0, 0.5, 2.0, 10.0, 50.0):
        for x in (1e-6, 1e-2, 1.0, 50.0, 1e3):
            rep = specfun.bessel_j(nu, x)
            assert abs(rep.value - sp.jv(nu, x)) <= 1e-12 * math.hypot(sp.jv(nu, x), sp.yv(nu, x))
            assert abs(rep.derivative - sp.jvp(nu, x)) <= 1e-12 * abs(sp.jvp(nu, x))


GRID_NUS = np.unique(np.concatenate([np.linspace(0.0, 50.0, 81), [0.5, 35.9, 45.0, 49.99]]))
GRID_XS = np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 97), [1.999, 2.0, 20.0, 988.0]]))


def test_grid_against_scipy():
    # the whole envelope nu in [0, 50], x in [1e-3, 1e3], across the series
    # and continued-fraction regions: I and K relative to the
    # value, J and Y relative to sqrt(J^2 + Y^2), their derivatives relative
    # to sqrt(J'^2 + Y'^2); the derivatives of I and K against scipy's
    # (I_{nu-1} + I_{nu+1})/2 and -(K_{nu-1} + K_{nu+1})/2
    nu, x = np.meshgrid(GRID_NUS, GRID_XS, indexing="ij")
    jv, yv, jp, yp = sp.jv(nu, x), sp.yv(nu, x), sp.jvp(nu, x), sp.yvp(nu, x)
    iv, kv = sp.ive(nu, x), sp.kve(nu, x)
    ip = 0.5 * (sp.ive(nu - 1, x) + sp.ive(nu + 1, x))
    kp = -0.5 * (sp.kve(nu - 1, x) + sp.kve(nu + 1, x))
    got = np.empty((8,) + nu.shape)
    for idx in np.ndindex(nu.shape):
        n, z = float(nu[idx]), float(x[idx])
        j, y, pair = specfun.bessel_j(n, z), specfun.bessel_y(n, z), specfun.bessel_i_k(n, z)
        got[(slice(None),) + idx] = (j.value, y.value, j.derivative, y.derivative, pair.i_scaled,
                                     pair.k_scaled, pair.i_deriv_scaled, pair.k_deriv_scaled)
    amp, damp = np.hypot(jv, yv), np.hypot(jp, yp)
    errors = {"J": abs(got[0] - jv) / amp, "Y": abs(got[1] - yv) / amp,
              "J'": abs(got[2] - jp) / damp, "Y'": abs(got[3] - yp) / damp,
              "I": abs(got[4] - iv) / iv, "K": abs(got[5] - kv) / kv,
              "I'": abs(got[6] - ip) / abs(ip), "K'": abs(got[7] - kp) / abs(kp)}
    worst = {name: float(err.max()) for name, err in errors.items()}
    print("max error against scipy: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))
    assert max(worst.values()) <= 1e-12


EDGE_NUS = (0.0, 1e-300, 1e-20, 1e-9, 1e-3, 0.25, 0.5, 0.75, 0.999, 1.0, 1.5, 2.0, 2.5, 7.3,
            10.0, 33.3, 49.5, 50.0)
EDGE_XS = (5e-324, 1e-315, 2.2e-308, 1e-305, 1e-300, 1e-250, 1e-200, 1e-100, 1e-50, 1e-30,
           1e-12, 1e-9, 3e-6, 2.4e-5, 1e-3, 2.0, 700.0, 709.8, 710.0, 800.0, 1e3)


def _scipy_wrapper(name, nu, x):
    """(raised, value) of the scipy wrappers this module replaced.

    They raised where a value or a derivative was not finite.
    """
    with np.errstate(all="ignore"):
        if name == "i_k":
            vals = (sp.ive(nu, x), sp.kve(nu, x), 0.5 * (sp.ive(nu - 1, x) + sp.ive(nu + 1, x)),
                    -0.5 * (sp.kve(nu - 1, x) + sp.kve(nu + 1, x)))
        else:
            f = sp.jv if name == "j" else sp.yv
            vals = (f(nu, x), f(nu - 1, x) - (nu / x) * f(nu, x))
    return not all(math.isfinite(v) for v in vals), vals[0]


@pytest.mark.parametrize("name", ["j", "y", "i_k"])
def test_edges_raise_where_the_scipy_wrappers_did(name):
    # an overflowing value or derivative raises, an underflowing value reads
    # 0 or next to it: AMOS flushes below 1e3 times the smallest normal
    # double, and below that x it reads J and I of positive order as 0
    # whatever their size.  One corner differs: J'_nu at 0 < nu << 1 and
    # subnormal x, where AMOS reads J_{nu-1} as overflowed; there the true
    # J' ~ (x/2)^{nu-1} / (2 Gamma(nu)) fits, and is returned
    fn = {"j": specfun.bessel_j, "y": specfun.bessel_y, "i_k": specfun.bessel_i_k}[name]
    raised, differ = 0, []
    for nu in EDGE_NUS:
        for x in EDGE_XS:
            expected, value = _scipy_wrapper(name, nu, x)
            try:
                rep = fn(nu, x)
            except EnvelopeError:
                raised += 1
                assert expected, (nu, x)
                continue
            if expected:
                differ.append((nu, x))
                lead = math.exp((nu - 1) * math.log(x / 2) - math.lgamma(nu)) / 2
                assert name == "j" and 0 < nu < 1e-6 and x < 2.2e-308
                assert abs(rep.derivative - lead) <= 1e-6 * lead
            elif value == 0.0 and x >= 2.2e-305:
                assert abs(rep.i_scaled if name == "i_k" else rep.value) < 2.3e-305, (nu, x)
    assert raised >= {"j": 30, "y": 130, "i_k": 130}[name]
    assert differ == ([(1e-9, 1e-315)] if name == "j" else [])
    if name == "j":
        assert specfun.bessel_j(2.5, 1e-300) == specfun.EvalReport(0.0, 0.0)


def test_pair_derivatives_beyond_the_exp_range():
    pair = specfun.bessel_i_k(1.0, 5.0)
    assert pair.i_derivative == pair.i_deriv_scaled * math.exp(5.0)
    assert pair.k_derivative == pair.k_deriv_scaled * math.exp(-5.0)
    far = specfun.bessel_i_k(1.0, 800.0)
    assert far.i_value == far.i_derivative == math.inf
    assert far.k_value == far.k_derivative == 0.0


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

    @pytest.mark.parametrize("fn", [specfun.log_derivative_exterior,
                                    specfun.log_derivative_interior_free])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("r0", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_r0_is_an_envelope_error(self, fn, kappa, r0):
        # at kappa = 0 no Bessel call sees r0: nan read nan and inf read +-0.0
        with pytest.raises(EnvelopeError):
            fn(1.5, kappa, r0)


    @pytest.mark.parametrize("fn", [specfun.log_derivative_exterior,
                                    specfun.log_derivative_interior_free])
    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, -3.0, 50.5, 1.5 + 0.5j])
    def test_order_outside_the_envelope_is_an_envelope_error(self, fn, kappa, lam):
        # at kappa = 0 no Bessel call saw lam: nan read nan, +-inf an
        # infinite value and -3 read 3.5 or -2.5
        with pytest.raises(EnvelopeError):
            fn(lam, kappa, 1.0)


K_NUS = (0.0, 0.1, 0.5, 1.0, 1.5, 2.5, 7.3, 50.0)
K_XS = np.unique(np.concatenate([np.geomspace(1e-3, 1e3, 121),
                                 [1.9, 1.999999, 2.0, 2.000001, 2.1]]))


class TestArrayK:
    @pytest.mark.parametrize("nu", K_NUS)
    def test_agrees_with_the_scalar_pair(self, nu):
        # one call across the series / CF2 boundary at x = 2 and up to the
        # scalar pair's cap x = 1e3, both sides by the same two methods
        k, dk = specfun.bessel_k_scaled(nu, K_XS)
        for j, x in enumerate(K_XS):
            pair = specfun.bessel_i_k(nu, float(x))
            assert abs(k[j] - pair.k_scaled) <= 1e-13 * pair.k_scaled, (nu, x)
            assert abs(dk[j] - pair.k_deriv_scaled) <= 1e-13 * abs(pair.k_deriv_scaled), (nu, x)

    @pytest.mark.parametrize("nu", K_NUS)
    def test_agrees_with_scipy(self, nu):
        k, dk = specfun.bessel_k_scaled(nu, K_XS)
        kv = sp.kve(nu, K_XS)
        kp = -0.5 * (sp.kve(nu - 1, K_XS) + sp.kve(nu + 1, K_XS))
        assert np.max(abs(k - kv) / kv) <= 1e-12
        assert np.max(abs(dk - kp) / abs(kp)) <= 1e-12

    def test_no_cap_on_x(self):
        # past the scalar pair's x <= 1e3, CF2 against scipy's kve and its
        # recurrence derivative; a far element does not spoil one near x = 2
        xs = np.array([2.0, 1.0e3, 2.6e3, 1.0e4, 1.0e6])
        for nu in (0.0, 7.3):
            k, dk = specfun.bessel_k_scaled(nu, xs)
            kv = sp.kve(nu, xs)
            kp = -0.5 * (sp.kve(nu - 1, xs) + sp.kve(nu + 1, xs))
            assert np.max(abs(k - kv) / kv) <= 1e-14
            assert np.max(abs(dk - kp) / abs(kp)) <= 1e-14

    @pytest.mark.parametrize("nu, x", [
        (50.1, [1.0]), (-0.1, [1.0]), (math.nan, [1.0]), (1.0 + 0.5j, [1.0]),
        (1.0, [specfun._X_TINY]), (1.0, [0.0]), (1.0, [-1.0]), (1.0, [2.0, math.nan]),
        (1.0, [1.0, math.inf]), (1.0, [2.0 + 0j]),
        (50.0, [1e-200]),           # K_50 overflows
    ])
    def test_outside_the_domain_raises(self, nu, x):
        with pytest.raises(EnvelopeError):
            specfun.bessel_k_scaled(nu, x)
