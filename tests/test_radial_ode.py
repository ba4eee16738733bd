import cmath
import math

import numpy as np
import pytest
from scipy import special as sp

from qws.errors import (DegenerateCouplingError, GridMismatchError, QwsError,
                        RegularityError)
from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import PotentialModel, gaussian_bump, square_well
from qws.radial_ode import (cutoff_integral, count_interior_nodes,
                            green_identity_residual, integrate_jost,
                            integrate_regular, interior_state, make_grid,
                            solve_nonlocal)

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


def test_node_counting():
    eq = effective_equation(CH_S, FREE, EnergyValue.from_k(7.0))
    g = make_grid(1.0)
    sol = integrate_regular(eq, g, 1e-10)
    # sin(7r) has nodes at pi/7, 2pi/7 under r = 1: floor(7/pi) = 2
    assert count_interior_nodes(sol) == 2


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
        u0, v0, _ = frobenius_start(2.0, k * k, eq.origin_w, r_min)
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
        u0, v0, _ = frobenius_start(lam, k * k, eq.origin_w, r_min)

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
