import cmath
import math

import numpy as np
import pytest
from scipy import special as sp

from qws.errors import (DegenerateCouplingError, GridMismatchError, QwsError,
                        RegularityError)
from qws.model import ChannelParams, EnergyValue, effective_equation, radial_coefficient
from qws.potentials import (LocalPotential, PotentialModel, gaussian_bump, poly_bump,
                            square_well, tabulated, truncated_exponential,
                            truncated_gaussian)
from qws.radial_ode import (MOMENT_NODES, R_MIN_FRACTION, _couple, _integrate,
                            _series_radius, _superposition_solves, _with_knots,
                            cutoff_integral, frobenius_start, green_identity_residual,
                            integrate_jost, integrate_regular, interior_in_mu,
                            interior_lanes, interior_state, make_grid, prufer_angle,
                            solve_nonlocal)
from qws.spectral import (_exterior_logderiv, _prufer_mismatch, default_energy_floor,
                          default_sturm_step)

from test_scattering import PRUFER_CASES

CH_S = ChannelParams(q=3, l=0)          # lam = 1/2
FREE = PotentialModel(r0=1.0)
WELL = PotentialModel(r0=1.0, local=square_well(4.0))


def second_diff_5pt(y, h, i):
    """O(h^4) central second difference."""
    return (-y[i - 2] + 16 * y[i - 1] - 30 * y[i] + 16 * y[i + 1] - y[i + 2]) / (12 * h * h)


class TestGrid:
    def test_nodes_monotone_and_cutoff_exact(self):
        g = make_grid(1.3)
        assert np.all(np.diff(g.nodes) > 0)
        assert g.nodes[g.i_cutoff] == 1.3

    def test_quadrature_polynomial_exactness(self):
        # monomials up to cubic over [0, r0], analytic tail included
        g = make_grid(1.0, n_interior=201)
        r = g.interior_nodes
        for p in range(4):
            val = cutoff_integral(g, r ** p, leading_power=p)
            exact = 1.0 / (p + 1)
            assert abs(val - exact) <= 1e-13 * exact

    def test_bad_parameters(self):
        with pytest.raises(QwsError):
            make_grid(-1.0)
        with pytest.raises(QwsError):
            make_grid(1.0, r_min=2.0)


class TestRegular:
    def test_free_s_wave_is_sine(self):
        eq = effective_equation(CH_S, FREE, EnergyValue.from_k(1.0))
        g = make_grid(1.0)
        sol = integrate_regular(eq, g, 1e-12)
        assert np.max(np.abs(sol.y - np.sin(g.nodes))) <= 1e-11
        assert np.max(np.abs(sol.dy - np.cos(g.nodes))) <= 1e-11

    @pytest.mark.parametrize("lam,k", [(1.5, 1.0), (2.7, 0.7), (0.8, 2.0)])
    def test_free_matches_bessel_form(self, lam, k):
        # y = sqrt(pi k r / 2) J_lam(k r), rescaled to the r^{lam+1/2} origin norm
        ch = ChannelParams.from_lambda(lam)
        eq = effective_equation(ch, FREE, EnergyValue.from_k(k))
        g = make_grid(1.0)
        sol = integrate_regular(eq, g, 1e-12)
        c = math.sqrt(math.pi * k / 2) * (k / 2) ** lam / math.gamma(lam + 1)
        ref = np.sqrt(math.pi * k * g.nodes / 2) * sp.jv(lam, k * g.nodes)
        assert np.max(np.abs(c * sol.y.real - ref)) <= 1e-10

    def test_square_well_interior_shape(self):
        V0, k = 4.0, 1.0
        kp = math.sqrt(k * k + V0)
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(k))
        g = make_grid(1.0)
        sol = integrate_regular(eq, g, 1e-12)
        inside = g.nodes <= 1.0
        ratio = sol.y[inside].real / np.sin(kp * g.nodes[inside])
        assert np.max(np.abs(ratio - ratio[-1])) <= 1e-10 * abs(ratio[-1])

    def test_origin_normalization(self):
        ch = ChannelParams.from_lambda(1.5)
        eq = effective_equation(ch, WELL, EnergyValue.from_k(1.0))
        g = make_grid(1.0)
        sol = integrate_regular(eq, g, 1e-12)
        lead = sol.y[0] / g.r_min ** 2.0  # lam + 1/2 = 2
        assert abs(lead - 1.0) <= 1e-6

    def test_requires_positive_lambda(self):
        ch = ChannelParams.from_lambda(-0.3, q=3)
        eq = effective_equation(ch, FREE, EnergyValue.from_k(1.0))
        with pytest.raises(RegularityError):
            integrate_regular(eq, make_grid(1.0), 1e-10)
        with pytest.raises(RegularityError):
            # second branch refuses the degenerate half-integer point
            eqh = effective_equation(ChannelParams.from_lambda(-0.5, q=3), FREE,
                                     EnergyValue.from_k(1.0))
            integrate_regular(eqh, make_grid(1.0), 1e-10, second_branch=True)

    def test_order_of_accuracy(self):
        eq = effective_equation(CH_S, FREE, EnergyValue.from_k(1.0))
        g = make_grid(1.0, n_interior=51, n_exterior=5)
        errs = []
        for tol in (1e-6, 1e-9):
            sol = integrate_regular(eq, g, tol)
            errs.append(np.max(np.abs(sol.y - np.sin(g.nodes))))
        assert errs[1] < errs[0] / 10


class TestJost:
    def test_free_jost_is_exponential(self):
        eq = effective_equation(CH_S, FREE, EnergyValue.from_k(1.0))
        g = make_grid(1.0)
        f = integrate_jost(eq, g, 1.0, 1e-12)
        assert np.max(np.abs(f.y - np.exp(-1j * g.nodes))) <= 1e-11

    def test_square_well_two_region_oracle(self):
        # inside the well f solves a constant-coefficient equation; match at r0
        V0, k, r0 = 4.0, 1.0, 1.0
        kp = math.sqrt(k * k + V0)
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(k))
        g = make_grid(r0)
        f = integrate_jost(eq, g, k, 1e-12)

        def oracle(r):
            e = cmath.exp(-1j * k * r0)
            return e * (cmath.cos(kp * (r - r0)) - 1j * (k / kp) * cmath.sin(kp * (r - r0)))

        for idx in (0, g.i_cutoff // 2, g.i_cutoff):
            r = g.nodes[idx]
            assert abs(f.y[idx] - oracle(r)) <= 1e-10

    def test_conjugation_pairing(self):
        # real potential, real k: conj(f(k)) equals f(-k) pointwise
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(1.0))
        g = make_grid(1.0)
        fp = integrate_jost(eq, g, 1.0, 1e-12)
        fm = integrate_jost(eq, g, -1.0, 1e-12)
        assert np.max(np.abs(np.conj(fp.y) - fm.y)) <= 1e-10

    def test_k_zero_rejected(self):
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(1.0))
        with pytest.raises(QwsError):
            integrate_jost(eq, make_grid(1.0), 0.0, 1e-10)


class TestNonlocal:
    BUMP = gaussian_bump(center=0.5, width=0.15)

    def test_zero_strength_returns_local(self):
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, local=square_well(2.0),
                             kernel=(self.BUMP,), strengths=(0.0,))
        g = make_grid(1.0)
        eq = effective_equation(ch, pot, EnergyValue.from_k(1.0))
        sol = solve_nonlocal(eq, g, 1e-11)
        ref = integrate_regular(
            effective_equation(ch, PotentialModel(r0=1.0, local=square_well(2.0)),
                               EnergyValue.from_k(1.0)), g, 1e-11)
        assert np.max(np.abs(sol.y - ref.y)) <= 1e-10

    def test_mu_zero_is_free(self):
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(self.BUMP,), strengths=(-5.0,), mu=0.0)
        g = make_grid(1.0)
        sol = solve_nonlocal(effective_equation(ch, pot, EnergyValue.from_k(1.0)),
                             g, 1e-11)
        free = integrate_regular(
            effective_equation(ch, PotentialModel(r0=1.0), EnergyValue.from_k(1.0)),
            g, 1e-11)
        assert np.max(np.abs(sol.y - free.y)) <= 1e-10

    def test_rank1_self_consistency(self):
        # the defining fixed point: source coefficient = mu * s * moment of y
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(self.BUMP,), strengths=(-5.0,), mu=0.7)
        g = make_grid(1.0)
        eq = effective_equation(ch, pot, EnergyValue.from_k(1.0))
        sol = solve_nonlocal(eq, g, 1e-11)
        kd = sol.kernel_data
        beta_expected = 0.7 * (-5.0) * kd.moments[0]
        assert abs(kd.coefficients[0] - beta_expected) <= 1e-8 * max(1, abs(beta_expected))
        # recompute the moment independently from the returned solution
        s = np.array([eq.sources[0](float(r)) for r in g.interior_nodes])
        m_direct = cutoff_integral(g, s * sol.y[: g.i_cutoff + 1], 2.0)
        assert abs(m_direct - kd.moments[0]) <= 1e-9 * max(1, abs(m_direct))

    def test_moments_converge_with_the_grid(self):
        # the source takes its interior limit at r0, so the Simpson moments
        # converge at the rule's order instead of first order
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(self.BUMP,), strengths=(-5.0,), mu=0.7)
        eq = effective_equation(ch, pot, EnergyValue.from_k(1.0))
        m_coarse, m_fine = (
            solve_nonlocal(eq, make_grid(1.0, n_interior=n), 1e-11).kernel_data.moments[0]
            for n in (401, 3201))
        assert abs(m_coarse - m_fine) <= 1e-9 * abs(m_fine)

    def test_superposition_satisfies_equation(self):
        # 5-point second differences: y'' + Q y = sum_i beta_i S_i to 1e-7 (integral norm)
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, local=square_well(2.0),
                             kernel=(self.BUMP,), strengths=(-5.0,))
        g = make_grid(1.0, n_interior=801)
        eq = effective_equation(ch, pot, EnergyValue.from_k(1.2))
        sol = solve_nonlocal(eq, g, 1e-11)
        h = g.nodes[1] - g.nodes[0]
        i0 = g.i_cutoff
        beta = sol.kernel_data.coefficients
        resid = []
        for i in range(200, i0 - 2):  # skip the centrifugal layer
            r = float(g.nodes[i])
            ypp = second_diff_5pt(sol.y.real, h, i)
            rhs = sum(b.real * src(r) for b, src in zip(beta, eq.sources))
            resid.append(abs(ypp + eq.coefficient(r) * sol.y[i].real - rhs))
        assert np.mean(resid) * (g.r0 - g.nodes[200]) <= 1e-7

    def test_linearity_in_source(self):
        ch = ChannelParams.from_lambda(1.5)
        g = make_grid(1.0, n_interior=401)
        e = EnergyValue.from_k(1.0)
        pots = [PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15, height=hh),),
                               strengths=(-2.0 / hh ** 2,), mu=1.0) for hh in (1.0, 2.0)]
        # scaling g -> 2g with s -> s/4 leaves the kernel s*g(x)g(x') invariant
        sols = [solve_nonlocal(effective_equation(ch, p, e), g, 1e-11) for p in pots]
        assert np.max(np.abs(sols[0].y - sols[1].y)) <= 1e-9

    def test_degenerate_coupling_detected(self):
        # back out the resonance strength from two benign solves:
        # beta(s) = mu s m_h / (1 - mu s M11), moments(s) = m_h + M11 beta(s),
        # so M11 = (m1 - m2)/(beta1 - beta2) and det vanishes at s* = 1/(mu M11)
        ch = ChannelParams.from_lambda(1.5)
        g = make_grid(1.0, n_interior=301)
        e = EnergyValue(E=-1.0)
        obs = []
        for s in (-1.0, -2.0):
            pot = PotentialModel(r0=1.0, kernel=(self.BUMP,), strengths=(s,))
            kd = solve_nonlocal(effective_equation(ch, pot, e), g, 1e-9).kernel_data
            obs.append((kd.moments[0], kd.coefficients[0]))
        m11 = (obs[0][0] - obs[1][0]) / (obs[0][1] - obs[1][1])
        s_star = float((1.0 / m11).real)
        pot = PotentialModel(r0=1.0, kernel=(self.BUMP,), strengths=(s_star,))
        with pytest.raises(DegenerateCouplingError):
            solve_nonlocal(effective_equation(ch, pot, e), g, 1e-9)


class TestGreenIdentity:
    G1 = gaussian_bump(center=0.35, width=0.12)
    G2 = gaussian_bump(center=0.6, width=0.15)

    def _pair(self, pot, k1, k2, grid):
        e1 = effective_equation(CH_S, pot, EnergyValue.from_k(k1))
        e2 = effective_equation(CH_S, pot, EnergyValue.from_k(k2))
        y1 = solve_nonlocal(e1, grid, 1e-11)
        y2 = solve_nonlocal(e2, grid, 1e-11)
        return y1, y2

    def test_local_only(self):
        g = make_grid(1.0)
        e1 = effective_equation(CH_S, WELL, EnergyValue.from_k(0.7))
        e2 = effective_equation(CH_S, WELL, EnergyValue.from_k(1.4))
        y1 = integrate_regular(e1, g, 1e-12)
        y2 = integrate_regular(e2, g, 1e-12)
        assert green_identity_residual(y1, y2) <= 1e-9

    def test_symmetric_rank2(self):
        pot = PotentialModel(r0=1.0, kernel=(self.G1, self.G2),
                             strengths=(-3.0, -2.0))
        g = make_grid(1.0)
        y1, y2 = self._pair(pot, 1.0, 1.3, g)
        assert green_identity_residual(y1, y2) <= 1e-8

    def test_antisymmetric_negative_control(self):
        # U(r,r') = c * g1(r) g2(r'): the bracket identity fails by the
        # moment mismatch, reproduced here by an independent double integral
        c = 100.0
        g1 = gaussian_bump(center=0.35, width=0.12, height=2.0)
        g2 = gaussian_bump(center=0.6, width=0.15, height=2.0)
        pot = PotentialModel(r0=1.0, kernel=(g1, g2),
                             coupling=((0.0, c), (0.0, 0.0)),
                             allow_asymmetric_kernel=True)
        g = make_grid(1.0)
        y1, y2 = self._pair(pot, 1.0, 1.3, g)
        res = green_identity_residual(y1, y2)
        assert res >= 1e-2
        # oracle: |mu c (m_g2[y1] m_g1[y2] - m_g1[y1] m_g2[y2])| via direct quadrature
        i0 = g.i_cutoff
        nodes = g.interior_nodes
        w = nodes  # r^{(q-1)/2} for q = 3
        s1 = np.array([g1.profile(float(r)) for r in nodes]) * w
        s2 = np.array([g2.profile(float(r)) for r in nodes]) * w
        m = {}
        for tag, s in (("g1", s1), ("g2", s2)):
            for name, sol in (("y1", y1), ("y2", y2)):
                m[tag, name] = cutoff_integral(g, s * sol.y[: i0 + 1], 2.0)
        oracle = abs(c * (m["g1", "y2"] * m["g2", "y1"] - m["g1", "y1"] * m["g2", "y2"]))
        assert abs(res - oracle) <= 1e-4 * max(1.0, oracle)

    def test_grid_and_energy_guards(self):
        g = make_grid(1.0)
        e1 = effective_equation(CH_S, WELL, EnergyValue.from_k(0.7))
        y1 = integrate_regular(e1, g, 1e-10)
        with pytest.raises(QwsError):
            green_identity_residual(y1, y1)
        other = integrate_regular(e1, make_grid(1.0, n_interior=401), 1e-10)
        with pytest.raises(GridMismatchError):
            green_identity_residual(y1, other)


class TestExteriorExactness:
    @pytest.mark.parametrize("lam,k", [(0.5, 1.0), (1.5, 2.0)])
    def test_free_equation_beyond_cutoff(self, lam, k):
        ch = ChannelParams.from_lambda(lam)
        eq = effective_equation(ch, WELL, EnergyValue.from_k(k))
        g = make_grid(1.0, n_exterior=321)
        sol = integrate_regular(eq, g, 1e-12)
        h = g.nodes[g.i_cutoff + 2] - g.nodes[g.i_cutoff + 1]
        cf = lam * lam - 0.25
        worst = 0.0
        for i in range(g.i_cutoff + 3, len(g.nodes) - 2):
            r = float(g.nodes[i])
            ypp = second_diff_5pt(sol.y.real, h, i)
            worst = max(worst, abs(ypp + (k * k - cf / (r * r)) * sol.y[i].real))
        # pointwise residual bounded by the 5-point differencing error
        scale = float(np.max(np.abs(sol.y)))
        assert worst <= 1e-8 * scale


def test_interior_state_matches_full_solution():
    eq = effective_equation(CH_S, WELL, EnergyValue.from_k(1.0))
    u, v, _ = interior_state(eq, 1e-12)
    g = make_grid(1.0)
    sol = integrate_regular(eq, g, 1e-12)
    y0, dy0 = sol.at_cutoff()
    assert abs(u - y0) <= 1e-10 and abs(v - dy0) <= 1e-10


class TestWindingCount:
    """Prufer winding of (y, y') from interior_state(..., return_winding=True)."""

    @staticmethod
    def lifted_angle(lam, k, r0, tol=1e-10):
        pot = PotentialModel(r0=r0)
        eq = effective_equation(ChannelParams.from_lambda(lam), pot, EnergyValue.from_k(k))
        u, v, _, turns = interior_state(eq, tol, return_winding=True)
        return math.atan2(v.real, u.real) + 2.0 * math.pi * turns, turns

    def test_free_s_wave_is_exact_rotation(self):
        # lam = 1/2, k = 1: y ~ sin r, y' ~ cos r, so the angle is pi/2 - r
        phi, turns = self.lifted_angle(0.5, 1.0, 10.0)
        assert turns == -1
        assert abs(phi - (0.5 * math.pi - 10.0)) <= 1e-8

    @pytest.mark.parametrize("lam, k, r0, zeros", [
        (0.5, 2.0, 7.0, 4),     # sin(2r): zeros at n pi/2, n = 1..4
        (1.5, 1.0, 12.0, 3),    # tan x = x: x = 4.493, 7.725, 10.904
        (1.5, 1.0, 4.4, 0),
    ])
    def test_half_turns_count_zeros(self, lam, k, r0, zeros):
        # y = 0 is crossed clockwise only (phi' = -1 there), once per zero
        phi, _ = self.lifted_angle(lam, k, r0)
        assert math.floor(0.5 - phi / math.pi) == zeros

    @pytest.mark.parametrize("pot, k", [
        (PotentialModel(r0=1.0, local=square_well(100.0)), 0.5),
        (PotentialModel(r0=12.0), 1.0),
    ])
    def test_counting_leaves_the_steps_unchanged(self, pot, k):
        eq = effective_equation(ChannelParams.from_lambda(1.5), pot, EnergyValue.from_k(k))
        assert interior_state(eq, 1e-10) == interior_state(eq, 1e-10,
                                                           return_winding=True)[:3]

    def test_kernel_rejected(self):
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.1),), strengths=(-1.0,))
        eq = effective_equation(CH_S, pot, EnergyValue.from_k(1.0))
        with pytest.raises(QwsError):
            interior_state(eq, 1e-10, return_winding=True)


class TestPotentialFamilies:
    def test_exponential_well_against_independent_integrator(self):
        # independent reference: scipy RK with the raw profile, no series start
        from scipy.integrate import solve_ivp
        from qws.potentials import truncated_exponential
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, local=truncated_exponential(6.0, 0.4))
        k = 1.3
        eq = effective_equation(ch, pot, EnergyValue.from_k(k))
        u, v, _ = interior_state(eq, 1e-12)

        def rhs(r, y):
            q = k * k - 2.0 / (r * r) - pot.local_value(r)
            return [y[1], -q * y[0]]

        r_min = 1e-6
        from qws.radial_ode import frobenius_start
        u0, v0 = frobenius_start(2.0, k * k, eq.origin_w, r_min)
        ref = solve_ivp(rhs, (r_min, 1.0), [float(u0.real), float(v0.real)],
                        rtol=1e-11, atol=1e-14, method="DOP853")
        A_mine = (v / u).real
        A_ref = ref.y[1][-1] / ref.y[0][-1]
        assert abs(A_mine - A_ref) <= 1e-7 * max(1, abs(A_ref))

    def test_poly_bump_kernel_solve(self):
        from qws.potentials import poly_bump
        ch = ChannelParams.from_lambda(1.5)
        term = poly_bump(a=2.0, b=3.0, r0=1.0, height=30.0)
        assert term.profile(1.0) == 0.0 and term.profile(0.0) == 0.0
        pot = PotentialModel(r0=1.0, kernel=(term,), strengths=(-5.0,))
        g = make_grid(1.0)
        sol = solve_nonlocal(effective_equation(ch, pot, EnergyValue.from_k(1.0)),
                             g, 1e-10)
        kd = sol.kernel_data
        assert abs(kd.coefficients[0] - (-5.0) * kd.moments[0]) <= 1e-8

    def test_tabulated_matches_parent_profile(self):
        from qws.potentials import tabulated, truncated_gaussian
        rs = np.linspace(0.01, 1.0, 400)
        parent = truncated_gaussian(3.0, 0.5)
        tab = tabulated(rs, [parent.profile(float(r)) for r in rs])
        pot_a = PotentialModel(r0=1.0, local=parent)
        pot_b = PotentialModel(r0=1.0, local=tab)
        ea = effective_equation(CH_S, pot_a, EnergyValue.from_k(1.0))
        eb = effective_equation(CH_S, pot_b, EnergyValue.from_k(1.0))
        ua, va, _ = interior_state(ea, 1e-10)
        ub, vb, _ = interior_state(eb, 1e-10)
        # linear interpolation of a smooth well: O(h^2) agreement
        assert abs((va / ua).real - (vb / ub).real) <= 1e-4


class TestIndependentIntegratorCrossCheck:
    """Same equations through scipy's DOP853 at tight tolerance."""

    def test_gaussian_well_regular_high_order(self):
        from scipy.integrate import solve_ivp
        from qws.potentials import truncated_gaussian
        lam, k = 2.7, 1.9
        ch = ChannelParams.from_lambda(lam)
        pot = PotentialModel(r0=1.0, local=truncated_gaussian(5.0, 0.4))
        eq = effective_equation(ch, pot, EnergyValue.from_k(k))
        u, v, _ = interior_state(eq, 1e-12)

        from qws.radial_ode import frobenius_start
        r_min = 1e-6
        u0, v0 = frobenius_start(lam, k * k, eq.origin_w, r_min)

        def rhs(r, y):
            return [y[1], -eq.coefficient(r) * y[0]]

        ref = solve_ivp(rhs, (r_min, 1.0), [float(u0.real), float(v0.real)],
                        rtol=1e-12, atol=1e-30, method="DOP853")
        assert ref.success
        assert abs(u.real - ref.y[0][-1]) <= 1e-9 * abs(ref.y[0][-1])
        assert abs(v.real - ref.y[1][-1]) <= 1e-9 * abs(ref.y[1][-1])

    def test_complex_k_jost_inward(self):
        from scipy.integrate import solve_ivp
        k = 1.0 + 0.2j
        eq = effective_equation(CH_S, WELL, EnergyValue(E=k * k))
        g = make_grid(1.0, n_interior=11, n_exterior=3)
        f = integrate_jost(eq, g, k, 1e-12)

        def rhs(r, y):
            # complex system split into real and imaginary parts
            u = y[0] + 1j * y[1]
            v = y[2] + 1j * y[3]
            du, dv = v, -eq.coefficient(r) * u
            return [du.real, du.imag, dv.real, dv.imag]

        u0 = cmath.exp(-1j * k * 1.0)
        v0 = -1j * k * u0
        ref = solve_ivp(rhs, (1.0, float(g.nodes[0])),
                        [u0.real, u0.imag, v0.real, v0.imag],
                        rtol=1e-12, atol=1e-30, method="DOP853")
        assert ref.success
        ref_u = ref.y[0][-1] + 1j * ref.y[1][-1]
        assert abs(f.y[0] - ref_u) <= 1e-9 * abs(ref_u)


_R_TAB = np.linspace(0.01, 1.0, 60)
# (channel, local well) pairs of the lane tests; the kinked table has its own test
LANE_WELLS = [
    (CH_S, square_well(40.0)),
    (ChannelParams(q=3, l=1), truncated_gaussian(30.0, 0.6)),
    (CH_S, truncated_exponential(15.0, 0.5)),
    (ChannelParams.from_lambda(2.5), square_well(200.0)),
]
LANE_IDS = ["square", "gaussian-p", "exponential", "square-lam2.5"]
KINKED_TABLE = (CH_S, tabulated(_R_TAB, -60.0 * np.cos(2.5 * math.pi * _R_TAB)))


def _grid_sign_changes(ch, pot, E, mu, tol=1e-10):
    """Sign changes of Re y over (0, r0) on a MOMENT_NODES grid: the node-count reference."""
    eq = effective_equation(ch, pot.with_mu(mu), EnergyValue(E=E))
    sol = solve_nonlocal(eq, make_grid(pot.r0, r_max=pot.r0, n_interior=MOMENT_NODES), tol)
    vals = np.real(sol.y[: sol.grid.i_cutoff + 1])
    s = np.where(np.abs(vals) < 1e-13 * np.max(np.abs(vals)), 0.0, np.sign(vals))
    s = s[s != 0.0]
    return int(np.sum(s[1:] * s[:-1] < 0))


def _interior_nodes_and_A(ch, pot, E, mu, tol):
    """Interior node count and A(r0) from one winding solve straight to the cutoff.

    The Prufer angle phi at r0 has passed -pi/2 - k pi once for each zero of
    y in (0, r0).
    """
    eq = effective_equation(ch, pot.with_mu(mu), EnergyValue(E=E))
    u, v, _, turns = interior_state(eq, tol, return_winding=True)
    phi = prufer_angle(u, v, turns)
    return max(0, math.ceil(-(phi + 0.5 * math.pi) / math.pi)), v.real / u.real


def test_node_counting():
    # y = sin(k r) has floor(k / pi) nodes in (0, 1): 2, 95 and 477; the
    # 477 nodes of k = 1500 are more than a 401-node grid can resolve
    for k, nodes in ((7.0, 2), (300.0, 95), (1500.0, 477)):
        count, A = _interior_nodes_and_A(CH_S, FREE, k * k, 1.0, 1e-10)
        assert count == nodes
        assert abs(A - k / math.tan(k)) <= 1e-6 * abs(k / math.tan(k))


NODE_CHANNELS = [CH_S, ChannelParams(q=3, l=1), ChannelParams(q=4, l=0),
                 ChannelParams(q=5, l=1)]
NODE_WELLS = [square_well(60.0), truncated_gaussian(80.0, 0.6),
              truncated_exponential(90.0, 0.5), KINKED_TABLE[1]]


@pytest.mark.parametrize("ch", NODE_CHANNELS, ids=["s", "p", "q4", "q5-l1"])
@pytest.mark.parametrize("local", NODE_WELLS,
                         ids=["square", "gaussian", "exponential", "sign-changing-table"])
def test_node_count_equals_grid_sign_changes(ch, local):
    # and the level count of the bound-state search, ceil(-F(E)/pi), is the
    # Sturm count: the interior nodes plus one when A(r0) lies below h(E)
    pot = PotentialModel(r0=1.0, local=local)
    counts = []
    for mu in (0.3, 1.0, 4.0, 10.0):
        for E in (-50.0, -10.0, -1.0, -1e-3, -1e-9):
            count, A = _interior_nodes_and_A(ch, pot, E, mu, 1e-10)
            assert count == _grid_sign_changes(ch, pot, E, mu), (mu, E)
            below = A < _exterior_logderiv(ch.lam, E, pot.r0)
            levels = math.ceil(-_prufer_mismatch(ch, pot, E, mu, 1e-10) / math.pi)
            assert levels == count + below, (mu, E)
            counts.append(count)
    assert max(counts) >= 2


def _scalar_cutoff(ch, pot, E, mu, tol=1e-10):
    eq = effective_equation(ch, pot.with_mu(float(mu)), EnergyValue(E=float(E)))
    u, v, max_u = interior_state(eq, tol)
    return u.real, v.real, max_u


def _scan_energies(pot, n):
    floor = 1.5 * pot.max_local() + 1.0
    return -np.geomspace(floor, 1e-11 * floor, n)


class TestInteriorLanes:
    @pytest.mark.parametrize("ch, local", LANE_WELLS, ids=LANE_IDS)
    def test_energy_and_mu_grids_match_scalar_solves(self, ch, local):
        pot = PotentialModel(r0=1.0, local=local)
        for E, mu in ((_scan_energies(pot, 60), 1.0), (-1e-10, np.linspace(0.0, 1.0, 21))):
            u, v, max_u = interior_lanes(ch, pot, E, mu)
            ref = np.array([_scalar_cutoff(ch, pot, e, m)
                            for e, m in np.broadcast(E, mu)])
            assert np.all(np.abs(u - ref[:, 0]) <= 1e-8 * ref[:, 2])
            assert np.all(np.abs(v - ref[:, 1]) <= 1e-8 * ref[:, 2])
            assert np.array_equal(np.sign(u), np.sign(ref[:, 0]))
            assert np.array_equal(np.sign(v), np.sign(ref[:, 1]))

    @pytest.mark.parametrize("ch, local", LANE_WELLS + [KINKED_TABLE],
                             ids=LANE_IDS + ["kinked-table"])
    def test_single_lane_is_the_scalar_solve(self, ch, local):
        # one lane takes the scalar stepper's steps, bit for bit
        pot = PotentialModel(r0=1.0, local=local)
        for E, mu in ((-3.7, 1.0), (-1e-10, 0.62), (-2.0, 0.0)):
            lane = interior_lanes(ch, pot, [E], mu)
            assert tuple(x[0] for x in lane) == _scalar_cutoff(ch, pot, E, mu)

    def test_complex_lambda_rejected(self):
        ch = ChannelParams(q=3, l=0.5 + 0.5j)
        with pytest.raises(QwsError):
            interior_lanes(ch, WELL, [-1.0, -2.0], 1.0)


_BUMP = gaussian_bump(0.5, 0.15)
# the three models of the benchmark's kernel workload, a poly bump, and a
# kinked table under a kernel (the lanes land on its rows)
KERNEL_MODELS = [
    (ChannelParams(q=3, l=1), PotentialModel(r0=1.0, kernel=(_BUMP,), strengths=(-700.0,))),
    (ChannelParams(q=4, l=0),
     PotentialModel(r0=1.0, kernel=(gaussian_bump(0.35, 0.12), gaussian_bump(0.7, 0.12)),
                    strengths=(-500.0, -400.0))),
    (CH_S, PotentialModel(r0=1.0, local=square_well(3.0), kernel=(_BUMP,),
                          strengths=(-120.0,))),
    (ChannelParams.from_lambda(1.5),
     PotentialModel(r0=1.0, kernel=(poly_bump(2.0, 3.0, 1.0, 30.0),), strengths=(-5.0,))),
    (CH_S, PotentialModel(r0=1.0, local=KINKED_TABLE[1], kernel=(_BUMP,),
                          strengths=(-20.0,))),
]
KERNEL_IDS = ["rank1", "rank2", "well+kernel", "poly", "table+kernel"]


class TestKernelLanes:
    """A kernel point as 1 + n lanes, and the cutoff values as a function of mu."""

    @pytest.mark.parametrize("ch, pot", KERNEL_MODELS, ids=KERNEL_IDS)
    def test_energy_and_mu_grids_match_scalar_solves(self, ch, pot):
        # the 400-energy scan grid of find_bound_states; every 10th energy
        # against a scalar solve keeps the test short
        floor = default_energy_floor(ch, pot)
        scan_E = -np.geomspace(abs(floor), 1e-11 * max(1.0, abs(floor)), 400)
        for E, mu, pick in ((scan_E, 1.0, slice(None, None, 10)),
                            (-1e-9, np.linspace(0.0, 1.0, 17), slice(None))):
            u, v, max_u = (x[pick] for x in interior_lanes(ch, pot, E, mu))
            E, mu = (x[pick] for x in np.broadcast_arrays(E, mu))
            ref = np.array([_scalar_cutoff(ch, pot, e, m) for e, m in zip(E, mu)])
            assert np.all(np.abs(u - ref[:, 0]) <= 1e-8 * ref[:, 2])
            assert np.all(np.abs(v - ref[:, 1]) <= 1e-8 * ref[:, 2])
            assert np.all(np.abs(max_u - ref[:, 2]) <= 1e-8 * ref[:, 2])
            assert np.array_equal(np.sign(u), np.sign(ref[:, 0]))
            assert np.array_equal(np.sign(v), np.sign(ref[:, 1]))

    def test_source_that_is_zero_near_the_origin(self):
        # exp(-2500) underflows: the particular lane starts at 0 under a source
        # that reads 0 up to r ~ 0.23, where its error must read 0, not 0/0
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.01),), strengths=(-2000.0,))
        E = np.array([-9.0, -1.0, 2.0])
        u, v, max_u = interior_lanes(CH_S, pot, E, 1.0)
        for j, e in enumerate(E):
            su, sv, s_max = _scalar_cutoff(CH_S, pot, e, 1.0)
            assert max(abs(u[j] - su), abs(v[j] - sv)) <= 1e-8 * s_max

    def test_resonant_point_stays_finite(self, monkeypatch):
        # the moment M forced to make det(Id - mu C M) = 1 - mu vanish exactly at
        # mu = 1: the scaled state is finite there, lanes and the scalar solve
        # agree, and A is the limit of A on either side of the resonance
        import qws.radial_ode as ro
        ch, pot = KERNEL_MODELS[0]   # rank 1
        couple = ro._couple
        dets = []

        def resonant_at_one(m, ys, dys, coupling, mu):
            m = m.copy()
            m[:, 0, 1] = 1.0 / coupling[0, 0]
            out = couple(m, ys, dys, coupling, mu)
            dets.extend(np.atleast_1d(out[-1]).tolist())
            return out

        monkeypatch.setattr(ro, "_couple", resonant_at_one)
        mus = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
        u, v, max_u = interior_lanes(ch, pot, -4.0, mus)
        su, sv, s_max = _scalar_cutoff(ch, pot, -4.0, 1.0)
        assert dets[1] == dets[3] == 0.0
        assert np.all(np.isfinite([*u, *v, *max_u, su, sv, s_max])) and s_max > 0.0
        assert max(abs(u[1] - su), abs(v[1] - sv)) <= 1e-8 * s_max
        A = v / u
        assert np.all(np.abs(A - sv / su) <= 1e-7 * abs(sv / su))

    @pytest.mark.parametrize("ch, pot", KERNEL_MODELS, ids=KERNEL_IDS)
    def test_interior_in_mu_matches_interior_state(self, ch, pot):
        mus = np.linspace(0.0, 1.0, 17)
        at = interior_in_mu(ch, pot, -1e-9)
        lanes = at(mus)
        for j, m in enumerate(mus):
            ref = _scalar_cutoff(ch, pot, -1e-9, m)
            one = tuple(x.real for x in at(float(m)))
            if m != 0.0:   # at mu = 0 interior_state takes the local solve
                assert one == ref
            assert max(abs(one[0] - ref[0]), abs(one[1] - ref[1])) <= 1e-8 * ref[2]
            assert max(abs(lanes[0][j] - ref[0]), abs(lanes[1][j] - ref[1])) <= 1e-8 * ref[2]
            assert np.sign(lanes[0][j]) == np.sign(ref[0])
            assert np.sign(lanes[1][j]) == np.sign(ref[1])

    @pytest.mark.parametrize("ch, pot", [KERNEL_MODELS[0], KERNEL_MODELS[1]],
                             ids=["rank1", "rank2"])
    def test_pure_kernel_integrates_once_per_energy(self, monkeypatch, ch, pot):
        import qws.radial_ode as ro
        calls = []
        integrate = ro._integrate

        def counted(*args, **kwargs):
            calls.append(args[2])
            return integrate(*args, **kwargs)

        monkeypatch.setattr(ro, "_integrate", counted)
        at = interior_in_mu(ch, pot, -0.5)
        assert len(calls) == 1 + pot.rank     # the homogeneous and n particular solves
        u, v, _ = at(np.linspace(0.0, 2.0, 41))
        for m in (0.3, 0.7, 1.9):
            at(m)
        assert len(calls) == 1 + pot.rank
        # the same mu grid through the lanes, one integration
        lanes = interior_lanes(ch, pot, -0.5, np.linspace(0.0, 2.0, 41))
        assert np.all(np.abs(u - lanes[0]) <= 1e-8 * lanes[2])
        assert np.all(np.abs(v - lanes[1]) <= 1e-8 * lanes[2])


def _knot_to_knot(eq, stops, u0, v0):
    """(y, y') at stops[-1] by scipy's DOP853 at rtol 1e-13, restarted at every stop."""
    from scipy.integrate import solve_ivp

    def rhs(r, y):
        u, v = y[0] + 1j * y[1], y[2] + 1j * y[3]
        dv = -eq.coefficient(r) * u
        return [v.real, v.imag, dv.real, dv.imag]

    y = [u0.real, u0.imag, v0.real, v0.imag]
    for a, b in zip(stops[:-1], stops[1:]):
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=1e-13, atol=1e-300)
        assert sol.success
        y = sol.y[:, -1]
    return complex(y[0], y[1]), complex(y[2], y[3])


class TestTabulatedKnots:
    """V' jumps at every row of a table; each interior solve lands a step on the rows."""

    def test_knots_are_the_rows_inside_the_cutoff(self):
        _, local = KINKED_TABLE
        assert local.knots == tuple(_R_TAB)
        assert PotentialModel(r0=0.5, local=local).knots == tuple(_R_TAB[_R_TAB < 0.5])
        assert PotentialModel(r0=1.0, local=square_well(4.0)).knots == ()

    def test_kinked_table_scalar_and_lanes_match_knot_to_knot_reference(self):
        # stepping across the rows left the solves ~3e-7 max|y| off this reference
        ch, local = KINKED_TABLE
        pot = PotentialModel(r0=1.0, local=local)
        E = np.array([-3.0, -20.0, 5.0])
        u, v, max_u = interior_lanes(ch, pot, E, 1.0)
        r_min = 1e-6
        for j, e in enumerate(E):
            eq = effective_equation(ch, pot, EnergyValue(E=float(e)))
            u0, v0 = frobenius_start(ch.lam, float(e), eq.origin_w, r_min)
            ref_u, ref_v = _knot_to_knot(eq, [r_min, *_R_TAB[:-1], 1.0], u0, v0)
            su, sv, s_max = _scalar_cutoff(ch, pot, e, 1.0)
            assert max(abs(su - ref_u), abs(sv - ref_v)) <= 1e-9 * s_max
            assert max(abs(u[j] - ref_u), abs(v[j] - ref_v)) <= 1e-9 * max_u[j]

    def test_full_grid_and_jost_match_knot_to_knot_reference(self):
        # a coarse grid: its nodes alone would let steps straddle the rows
        ch, local = KINKED_TABLE
        pot = PotentialModel(r0=1.0, local=local)
        g = make_grid(1.0, n_interior=11, n_exterior=3)
        i0 = g.i_cutoff
        eq = effective_equation(ch, pot, EnergyValue(E=-3.0))
        sol = solve_nonlocal(eq, g, 1e-10)
        u0, v0 = frobenius_start(ch.lam, -3.0, eq.origin_w, g.r_min)
        ref_u, ref_v = _knot_to_knot(eq, [g.r_min, *_R_TAB[:-1], 1.0], u0, v0)
        scale = np.max(np.abs(sol.y[: i0 + 1]))
        assert max(abs(sol.y[i0] - ref_u), abs(sol.dy[i0] - ref_v)) <= 1e-9 * scale
        k = 2.0
        eq = effective_equation(ch, pot, EnergyValue(E=k * k))
        jost = integrate_jost(eq, g, k, 1e-10)
        ref_u, ref_v = _knot_to_knot(eq, [1.0, *_R_TAB[-2::-1], g.r_min],
                                     jost.y[i0], jost.dy[i0])
        scale = np.max(np.abs(jost.y[: i0 + 1]))
        assert max(abs(jost.y[0] - ref_u), abs(jost.dy[0] - ref_v)) <= 1e-9 * scale

    def test_origin_expansion_is_the_profile_below_the_first_row(self):
        # np.interp holds V = v[0] below the first row; a linear extrapolation
        # there (-60.49 + 67.8 r) sent every table's series start back to r_min
        _, local = KINKED_TABLE
        w_m1, w0, w1 = local.origin
        for r in (1e-6, 1e-4, 1e-3, 0.5 * _R_TAB[0], _R_TAB[0]):
            assert w_m1 / r + w0 + w1 * r == local.profile(r)

    def test_kernel_superposition_lands_on_the_rows(self):
        # with the rows landed, moment grids of 401 and 801 nodes agree to ~1e-12
        # at r0 (stepping across them they differed by ~2e-7)
        _, local = KINKED_TABLE
        pot = PotentialModel(r0=1.0, local=local, kernel=(gaussian_bump(0.5, 0.15),),
                             strengths=(-20.0,))
        eq = effective_equation(CH_S, pot, EnergyValue(E=-3.0))
        u, v, max_u = interior_state(eq, 1e-10)
        sol = solve_nonlocal(eq, make_grid(1.0, n_interior=801), 1e-10)
        y0, dy0 = sol.at_cutoff()
        # interior_state carries the det(Id - mu C M) that solve_nonlocal divides
        # out: real at a real energy, sign and all
        ys, dys, m = _superposition_solves(
            eq, make_grid(1.0, r_max=1.0, n_interior=MOMENT_NODES), 1e-10)
        det = _couple(m, ys, dys, eq.coupling, eq.mu)[4][0]
        scale = u / y0
        assert abs(scale.imag) <= 1e-10 * abs(scale)
        assert abs(scale - det) <= 1e-10 * abs(det)
        assert abs(abs(det) - sol.kernel_data.det) <= 1e-10 * sol.kernel_data.det
        assert abs(scale * dy0 - v) <= 1e-10 * max_u


class TestLaneDriver:
    """Array start values step float64 lanes through :func:`_integrate`, on any record."""

    @pytest.mark.parametrize("inward", [False, True], ids=["outward", "inward"])
    def test_each_lane_is_its_scalar_solve_on_every_node(self, inward):
        ch, local = LANE_WELLS[1]
        pot = PotentialModel(r0=1.0, local=local)
        E = np.array([-20.0, -3.0, 0.5, 4.0])
        if inward:
            r_start, record = 1.0, np.linspace(0.9, 0.1, 9)
            u0, v0 = np.ones_like(E), -np.sqrt(np.abs(E))
        else:
            r_start, record = 1e-6, np.linspace(0.1, 1.0, 10)
            u0, v0 = frobenius_start(ch.lam, E, pot.origin_coefficients(), r_start)
        lanes = _integrate(radial_coefficient(ch.lam, E, 1.0, pot), None, r_start,
                           u0, v0, record, 1e-10)
        for j, e in enumerate(E):
            q = effective_equation(ch, pot, EnergyValue(E=float(e))).coefficient
            us, vs, max_u = _integrate(q, None, r_start, u0[j], v0[j], record, 1e-10)
            one = _integrate(radial_coefficient(ch.lam, E[j:j + 1], 1.0, pot), None,
                             r_start, u0[j:j + 1], v0[j:j + 1], record, 1e-10)
            assert np.array_equal(one[0][:, 0], us.real)
            assert np.array_equal(one[1][:, 0], vs.real)
            assert one[2][0] == max_u
            # shared steps: every lane of the batch within its tolerance of the scalar
            assert np.all(np.abs(lanes[0][:, j] - us.real) <= 1e-8 * max_u)
            assert np.all(np.abs(lanes[1][:, j] - vs.real) <= 1e-8 * np.max(np.abs(vs)))

    def test_lanes_refuse_the_winding_count(self):
        with pytest.raises(QwsError):
            _integrate(lambda r: np.full(2, -1.0), None, 0.5, np.ones(2), np.ones(2),
                       np.array([1.0]), 1e-10, return_winding=True)



def _real_problem(ch, pot, E, record=None, source=None):
    """(qfun, sfun, r_start, u0, v0, record) of a real interior solve at energy E.

    The series start of the homogeneous equation, on ``record`` or from
    r_min = 1e-6 r0 to the cutoff with the knots landed; with a ``source``
    index, the particular solve of that kernel source from (0, 0).
    """
    import qws.radial_ode as ro

    eq = effective_equation(ch, pot, EnergyValue(E=E))
    if record is None:
        record, _ = ro._with_knots(pot, [1e-6 * pot.r0, pot.r0])
    r_min = float(record[0])
    if source is not None:
        return eq.coefficient, eq.sources[source], r_min, 0.0, 0.0, record
    u0, v0 = frobenius_start(ch.lam, E, eq.origin_w, r_min)
    return eq.coefficient, None, r_min, u0, v0, record


_SQUARE = PotentialModel(r0=1.0, local=square_well(40.0))
_CH_P = ChannelParams(q=3, l=1)
# the moment grid of the kernel solves: 401 nodes on [1e-6, 1]
_MOMENT_RECORD = make_grid(1.0, r_max=1.0, n_interior=401).interior_nodes
# (id, problem, winding): real problems of every kind the scalar stepper meets
REAL_PROBLEMS = [
    ("square-s-bound", lambda: _real_problem(CH_S, _SQUARE, -12.0), True),
    ("square-s-scattering", lambda: _real_problem(CH_S, _SQUARE, 9.0), True),
    ("square-p-bound", lambda: _real_problem(_CH_P, _SQUARE, -5.0), True),
    ("square-p-scattering", lambda: _real_problem(_CH_P, _SQUARE, 30.0), True),
    ("gaussian", lambda: _real_problem(_CH_P, PotentialModel(
        r0=1.0, local=truncated_gaussian(30.0, 0.6)), -4.0), False),
    ("table-knots", lambda: _real_problem(CH_S, PotentialModel(
        r0=1.0, local=KINKED_TABLE[1]), -3.0), False),
    ("kernel-particular", lambda: _real_problem(*KERNEL_MODELS[1], -20.0,
                                                _MOMENT_RECORD, source=1), False),
    ("moment-record", lambda: _real_problem(*KERNEL_MODELS[2], -2.0, _MOMENT_RECORD), False),
]


class TestFloatStepping:
    """Real problems step in float arithmetic, exactly as in complex arithmetic."""

    @pytest.mark.parametrize("problem, winding", [case[1:] for case in REAL_PROBLEMS],
                             ids=[case[0] for case in REAL_PROBLEMS])
    def test_real_problem_matches_complex_stepping_bit_for_bit(self, problem, winding):
        qfun, sfun, r_start, u0, v0, record = problem()
        assert not isinstance(qfun(0.5), complex)
        as_float = _integrate(qfun, sfun, r_start, u0, v0, record, 1e-10,
                              return_winding=winding)
        # a complex Q(r) promotes every stage to complex: the stepping of a
        # complex problem
        as_complex = _integrate(lambda r: complex(qfun(r)), sfun, r_start, u0, v0,
                                record, 1e-10, return_winding=winding)
        assert len(as_float) == len(as_complex) == (4 if winding else 3)
        for a, b in zip(as_float, as_complex):
            assert np.array_equal(a, b)
        assert as_float[0].dtype == complex and as_float[1].dtype == complex

    def test_complex_coefficient_promotes_real_start_values(self):
        # y'' + E y = 0 from y = 1, y' = 0 at r_s: y = cos(sqrt(E) (r - r_s))
        E, r_s = 2.0 + 0.5j, 0.3
        record = np.linspace(0.4, 3.0, 27)
        us, vs, _ = _integrate(lambda r: E, None, r_s, 1.0, 0.0, record, 1e-10)
        k = cmath.sqrt(E)
        ref = np.array([cmath.cos(k * (r - r_s)) for r in record])
        assert np.max(np.abs(us - ref)) <= 1e-8
        assert np.max(np.abs(vs + k * np.sin(k * (record - r_s)))) <= 1e-8
        assert np.max(np.abs(us.imag)) > 0.1

    def test_every_abscissa_is_a_python_float(self):
        # numpy-scalar abscissas would run every Q(r) and S(r) call in numpy arithmetic
        seen = []

        def qfun(r):
            seen.append(type(r))
            return -4.0

        def sfun(r):
            seen.append(type(r))
            return 1.0

        record = _MOMENT_RECORD
        assert isinstance(record, np.ndarray) and len(record) == 401
        _integrate(qfun, sfun, float(record[0]), 0.0, 0.0, record, 1e-10)
        assert len(seen) > 2 * len(record)
        assert set(seen) == {float}


def _from_r_min(ch, pot, E, tol=1e-10):
    """(y, y', max|y|, turns) at r0 of the series start at r_min = R_MIN_FRACTION r0.

    The reference of the start at r_s: the same series and the same stepper,
    started where every origin-regular solve started before r_s.
    """
    qfun, _, r_min, u0, v0, record = _real_problem(ch, pot, E)
    us, vs, max_u, turns = _integrate(qfun, None, r_min, u0, v0, record, tol,
                                      return_winding=True)
    return us[-1], vs[-1], max_u, turns


def _assert_close(u, v, ref_u, ref_v, ref_max):
    """(y, y') at r0 within 1e-9 of max|y|; y' ~ k y, so y' also within 1e-9 of itself."""
    assert abs(u - ref_u) <= 1e-9 * ref_max
    assert abs(v - ref_v) <= 1e-9 * max(ref_max, abs(ref_v))


def _start_radius(ch, pot, E, tol=1e-10):
    """r_s of the straight-to-cutoff solve of :func:`interior_state`."""
    eq = effective_equation(ch, pot, EnergyValue(E=E))
    record, _ = _with_knots(pot, [R_MIN_FRACTION * pot.r0, pot.r0])
    return _series_radius(eq.coefficient, eq.lam, E, eq.origin_w, record, pot.r0, tol)


# (channel, local well, energy): the phase-shift cells, the lane wells at a
# bound and a scattering energy, and complex lambda through complex l and q
SERIES_START_CASES = [(ch, local, k * k) for ch, local, k in PRUFER_CASES] + [
    (ch, local, E) for ch, local in LANE_WELLS + [KINKED_TABLE] for E in (-3.7, 5.0)
] + [
    (ChannelParams(q=3, l=1.0 + 0.4j), truncated_gaussian(30.0, 0.6), (2.0 + 0.3j) ** 2),
    (ChannelParams(q=3.6 + 0.5j, l=1.0), square_well(20.0), 1.7 ** 2),
]


class TestSeriesStart:
    """Origin-regular solves start at r_s, where the series meets 1e-3 tol."""

    @pytest.mark.parametrize("ch, local, E", SERIES_START_CASES,
                             ids=[f"case{i}" for i in range(len(SERIES_START_CASES))])
    def test_cutoff_values_and_winding_match_the_start_at_r_min(self, ch, local, E):
        pot = PotentialModel(r0=1.0, local=local)
        eq = effective_equation(ch, pot, EnergyValue(E=E))
        u, v, max_u, turns = interior_state(eq, 1e-10, return_winding=True)
        ref_u, ref_v, ref_max, ref_turns = _from_r_min(ch, pot, E)
        _assert_close(u, v, ref_u, ref_v, ref_max)
        assert turns == ref_turns

    @pytest.mark.parametrize("ch, local", LANE_WELLS + [KINKED_TABLE],
                             ids=LANE_IDS + ["kinked-table"])
    def test_full_grid_takes_the_series_below_r_s(self, ch, local):
        pot = PotentialModel(r0=1.0, local=local)
        E = -3.7
        eq = effective_equation(ch, pot, EnergyValue(E=E))
        g = make_grid(1.0, n_interior=201, n_exterior=21)
        sol = integrate_regular(eq, g, 1e-10)
        assert g.r_min < _series_radius(eq.coefficient, eq.lam, E, eq.origin_w,
                                        g.nodes, 1.0, 1e-10) < g.nodes[1]
        assert sol.y[0] == frobenius_start(eq.lam, E, eq.origin_w, g.r_min)[0]
        record, keep = _with_knots(pot, g.nodes)
        u0, v0 = frobenius_start(eq.lam, E, eq.origin_w, g.r_min)
        ref_u, ref_v, _ = _integrate(eq.coefficient, None, g.r_min, u0, v0, record, 1e-10)
        scale = np.max(np.abs(ref_u[keep]))
        assert np.max(np.abs(sol.y - ref_u[keep])) <= 1e-9 * scale
        assert np.max(np.abs(sol.dy - ref_v[keep])) <= 1e-9 * np.max(np.abs(ref_v[keep]))

    def test_start_moves_off_r_min_where_the_series_is_exact(self):
        # lam = 2.5 well and p-wave gaussian: the start lies two decades above r_min
        for ch, local in (LANE_WELLS[3], LANE_WELLS[1]):
            r_s = _start_radius(ch, PotentialModel(r0=1.0, local=local), -3.7)
            assert 100 * R_MIN_FRACTION < r_s <= 1e-3

    def test_falls_back_to_r_min(self):
        r_min = R_MIN_FRACTION
        # a free s-wave at k = 1500: a4 r^4 meets the tolerance only below r_min
        assert _start_radius(CH_S, FREE, 1500.0 ** 2) == r_min
        # an origin tuple that misses the profile by 3 at r = 0: dV = 3 fails down to r_min
        wrong = LocalPotential(name="wrong-origin", profile=lambda r: -3.0 * math.exp(-r),
                               origin=(0.0, 0.0, 0.0))
        assert _start_radius(CH_S, PotentialModel(r0=1.0, local=wrong), -1.0) == r_min
        # a start at r_min steps exactly as the start at r_min always did
        for pot, E in ((FREE, 1500.0 ** 2), (PotentialModel(r0=1.0, local=wrong), -1.0)):
            eq = effective_equation(CH_S, pot, EnergyValue(E=E))
            assert interior_state(eq, 1e-10, return_winding=True) == _from_r_min(CH_S, pot, E)
        # the s-wave square_well(1e5) at its energy floor starts a few r_min out
        # and still meets the start at r_min
        deep = PotentialModel(r0=1.0, local=square_well(1e5))
        floor = -1.5e5 - 1.0
        assert r_min < _start_radius(CH_S, deep, floor) < 10 * r_min
        u, v, _ = interior_state(effective_equation(CH_S, deep, EnergyValue(E=floor)))
        _assert_close(u, v, *_from_r_min(CH_S, deep, floor)[:3])

    @pytest.mark.parametrize("ch, local", [LANE_WELLS[0], LANE_WELLS[3]],
                             ids=["square", "square-lam2.5"])
    def test_start_is_continuous_across_a_sturm_stencil(self, ch, local):
        # r_s follows a4 in closed form on these wells: E +- dE moves it by
        # O(dE), smoothly, where a search in E would step it by factors of 2
        # (and break the correlation of the stencil's step sequences)
        pot = PotentialModel(r0=1.0, local=local)
        for E in (-3.7, -0.5, 2.0):
            dE = default_sturm_step(E)
            r_lo, r_mid, r_hi = (_start_radius(ch, pot, e) for e in (E - dE, E, E + dE))
            assert r_mid < 1e-3
            # r_s falls as |w_0 - E| grows: monotone across the stencil, in
            # steps that agree to O(dE^2)
            assert (r_hi - r_mid) * (r_mid - r_lo) > 0.0
            assert abs(r_hi - r_lo) <= 1e-3 * r_mid
            assert abs((r_hi - r_mid) - (r_mid - r_lo)) <= 1e-3 * abs(r_hi - r_lo)

