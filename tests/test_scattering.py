import math

import numpy as np
import pytest

from qws.errors import (NearThresholdResonanceError, NodeAtCutoffError,
                        QwsError)
from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import (PotentialModel, gaussian_bump, square_well,
                            tabulated, truncated_exponential,
                            truncated_gaussian)
from qws.radial_ode import integrate_regular, interior_state, make_grid
from qws.scattering import (MU_REFINE_FLOOR, hermiticity_residual,
                            log_derivative_interior, low_k_phase_asymptotic,
                            phase_shift, phase_shift_curve, wronskian,
                            wronskian_pair_jost, wronskian_pair_phi)
from qws import scattering, specfun

from oracles import circ_dist, swave_well_eta

CH_S = ChannelParams(q=3, l=0)
WELL = PotentialModel(r0=1.0, local=square_well(4.0))


class TestWronskian:
    def test_phi_pair_free_value(self):
        rep = wronskian_pair_phi(ChannelParams.from_lambda(0.7),
                                 PotentialModel(r0=1.0), 1.0)
        assert rep.pair == "phi-phi-minus"
        assert rep.expected == pytest.approx(-1.4)
        assert rep.max_abs_deviation <= 1e-8 * 1.4

    @pytest.mark.parametrize("lam", [0.3, 0.45])
    def test_phi_pair_with_well(self, lam):
        rep = wronskian_pair_phi(ChannelParams.from_lambda(lam), WELL, 1.0)
        assert rep.max_abs_deviation <= 1e-8 * abs(rep.expected)
        assert rep.stddev <= 1e-8 * abs(rep.expected)

    def test_phi_pair_guard(self):
        with pytest.raises(QwsError):
            wronskian_pair_phi(ChannelParams.from_lambda(0.5), WELL, 1.0)

    def test_jost_pair_value(self):
        rep = wronskian_pair_jost(CH_S, WELL, 1.0)
        assert rep.pair == "f-f-minus-k"
        assert abs(rep.expected - 2j) <= 1e-12
        assert rep.max_abs_deviation <= 1e-8 * 2.0

    def test_self_pair_is_zero(self):
        g = make_grid(1.0)
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(1.0))
        sol = integrate_regular(eq, g, 1e-10)
        rep = wronskian(sol, sol)
        assert rep.pair == "self"
        assert np.max(np.abs(rep.values)) == 0.0


class TestHermiticity:
    def test_phi_complex_lambda(self):
        res = hermiticity_residual("phi", 0.5 + 0.3j, 1.0, WELL)
        assert res <= 1e-8

    def test_f_complex_k(self):
        res = hermiticity_residual("f", 1.5, 1.0 + 0.2j, WELL)
        assert res <= 1e-8

    def test_free_case_tight(self):
        free = PotentialModel(r0=1.0)
        assert hermiticity_residual("phi", 0.8 + 0.4j, 1.3, free) <= 1e-10
        assert hermiticity_residual("f", 0.8, 1.0 - 0.3j, free) <= 1e-10

    def test_kernel_rejected(self):
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.1),),
                             strengths=(-1.0,))
        with pytest.raises(QwsError):
            hermiticity_residual("phi", 0.5, 1.0, pot)


class TestLogDerivativeInterior:
    def test_free_threshold_limit(self):
        ch = ChannelParams.from_lambda(1.5)
        eq = effective_equation(ch, PotentialModel(r0=1.0), EnergyValue(E=-1e-12))
        ld = log_derivative_interior(eq, tol=1e-11)
        assert abs(ld.A - 2.0) <= 1e-6  # (lam + 1/2)/r0

    def test_free_positive_energy_s_wave(self):
        k = 1.3
        eq = effective_equation(CH_S, PotentialModel(r0=1.0), EnergyValue.from_k(k))
        ld = log_derivative_interior(eq, tol=1e-11)
        assert abs(ld.A - k / math.tan(k)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.5, 1.5, 2.5])
    def test_free_bound_side_matches_modified_bessel(self, lam):
        # mu = 0 interior log-derivative equals the I-function expression
        ch = ChannelParams.from_lambda(lam)
        E = -0.8
        eq = effective_equation(ch, PotentialModel(r0=1.0), EnergyValue(E=E))
        ld = log_derivative_interior(eq, tol=1e-11)
        ref = specfun.log_derivative_interior_free(lam, math.sqrt(-E), 1.0)
        assert abs(ld.A - ref) <= 1e-8 * max(1, abs(ref))

    def test_node_at_cutoff_raises(self):
        # V0 = 4, k' r0 = pi  =>  y(r0) = sin(pi) = 0
        k = math.sqrt(math.pi ** 2 - 4.0)
        eq = effective_equation(CH_S, WELL, EnergyValue.from_k(k))
        with pytest.raises(NodeAtCutoffError):
            log_derivative_interior(eq, tol=1e-11)


class TestPhaseShift:
    def test_free_coupling_is_zero(self):
        for k in (0.3, 1.0, 4.0):
            res = phase_shift(CH_S, WELL, k, mu=0.0, with_fit=False)
            assert res.eta == 0.0

    @pytest.mark.parametrize("V0", [1.0, 4.0, 25.0])
    def test_square_well_oracle(self, V0):
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        for k in np.linspace(0.1, 5.0, 12):
            res = phase_shift(CH_S, pot, float(k), mu_steps=None, with_fit=False)
            assert circ_dist(res.eta_raw, swave_well_eta(float(k), V0, 1.0)) <= 1e-8

    def test_method_agreement_mod_pi(self):
        # matching formula vs exterior two-point fit
        for k in (0.4, 1.1, 2.3):
            for mu in (0.4, 1.0):
                res = phase_shift(CH_S, WELL, k, mu=mu, mu_steps=None)
                assert circ_dist(res.eta_raw, res.eta_fit) <= 1e-8

    def test_lambda_degeneracy(self):
        pot = PotentialModel(r0=1.0, local=square_well(3.0))
        for k in np.linspace(0.2, 4.0, 9):
            ra = phase_shift(ChannelParams(q=3, l=1), pot, float(k),
                             mu_steps=None, with_fit=False)
            rb = phase_shift(ChannelParams(q=5, l=0), pot, float(k),
                             mu_steps=None, with_fit=False)
            assert abs(ra.eta_raw - rb.eta_raw) <= 1e-10

    def test_finite_through_cutoff_node(self):
        # at the A-pole the projective chart keeps eta finite: tan eta = J/N
        k = math.sqrt(math.pi ** 2 - 4.0)
        res = phase_shift(CH_S, WELL, k, mu_steps=None, with_fit=False)
        assert math.isfinite(res.eta_raw)
        assert res.A is None or abs(res.A) > 1e9  # at (or within roundoff of) the pole
        jl = specfun.bessel_j(0.5, k).value
        yl = specfun.bessel_y(0.5, k).value
        assert abs(res.tan_eta - jl / yl) <= 1e-6 * abs(jl / yl)

    def test_unwrapped_equals_raw_mod_pi(self):
        res = phase_shift(CH_S, WELL, 0.5, mu_steps=200, with_fit=False)
        assert circ_dist(res.eta, res.eta_raw) <= 1e-9
        assert res.eta == pytest.approx(swave_well_eta(0.5, 4.0, 1.0) + math.pi,
                                        abs=1e-8)

    def test_curve_collects_samples(self):
        curve = phase_shift_curve(CH_S, WELL, [0.5, 1.0], mu_steps=None)
        assert len(curve.samples) == 2
        assert curve.samples[0][0] == 0.5

    def test_rejects_bad_arguments(self):
        with pytest.raises(QwsError):
            phase_shift(CH_S, WELL, -1.0)
        with pytest.raises(QwsError):
            phase_shift(ChannelParams(q=2, l=0), WELL, 1.0)

    def test_complex_lambda_rejected(self):
        ch = ChannelParams.from_lambda(0.5 + 0.3j)
        with pytest.raises(QwsError):
            phase_shift(ch, WELL, 1.0)
        with pytest.raises(QwsError):
            phase_shift_curve(ch, WELL, [1.0])

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(QwsError, match="finite"):
            phase_shift(CH_S, WELL, k)
        with pytest.raises(QwsError, match="finite"):
            phase_shift_curve(CH_S, WELL, [1.0, k])


def _mu_continued(ch, pot, k, mu=1.0, tol=1e-10, mu_steps=200):
    """Reference: walk principal theta samples along the uniform mu grid."""
    pair, _ = scattering._matching_map(ch.lam, k, pot.r0)
    energy = EnergyValue.from_k(k)

    def sample(m):
        eq = effective_equation(ch, pot.with_mu(float(m)), energy)
        return scattering._theta(eq, pair, tol, None)[0]

    grid = np.linspace(0.0, mu, mu_steps + 1)
    th0 = sample(0.0)
    th = th0
    path = [(0.0, th0)]
    for a, b in zip(grid[:-1], grid[1:]):
        th = scattering._walk_theta(sample, float(a), th, float(b), path, th0)
    return th - th0, scattering._branch_events(path, th0)


_R_TAB = np.linspace(0.01, 1.0, 60)
PRUFER_CASES = [
    # the phase_local benchmark cells
    (ChannelParams(q=3, l=0), square_well(4.0), 0.45),
    (ChannelParams(q=3, l=0), truncated_exponential(15.0, 0.5), 1.5),
    (ChannelParams(q=4, l=0), square_well(25.0), 1.8),
    (ChannelParams(q=5, l=0), square_well(12.0), 3.2),
    (ChannelParams(q=3, l=1), truncated_gaussian(30.0, 0.6), 2.7),
    (ChannelParams(q=3, l=2), square_well(30.0), 0.7),
] + [
    # s-wave wells from 0 to 3 levels and a barrier, at Levinson and mid k
    (CH_S, square_well(depth), k)
    for depth in (4.0, (2 * math.pi) ** 2, 100.0, -10.0)
    for k in (1e-4, 2e-4, 0.5, 3.0)
] + [
    (ChannelParams(q=3, l=1), square_well(30.0), 1.0),
    (ChannelParams.from_lambda(2.5), square_well(200.0), 1.3),
    (CH_S, tabulated(_R_TAB, -60.0 * np.cos(2.5 * math.pi * _R_TAB)), 0.8),
]


class TestPruferPhase:
    @pytest.mark.parametrize("ch, local, k", PRUFER_CASES,
                             ids=[f"{loc.name}-{i}" for i, (_, loc, _) in
                                  enumerate(PRUFER_CASES)])
    def test_agrees_with_mu_continuation(self, ch, local, k):
        pot = PotentialModel(r0=1.0, local=local)
        eta_ref, events_ref = _mu_continued(ch, pot, k)
        res = phase_shift(ch, pot, k, with_fit=False)
        assert abs(res.eta - eta_ref) <= 1e-8  # absolute, not mod pi
        assert len(res.events) == len(events_ref)
        for (mu_new, d_new), (mu_ref, d_ref) in zip(res.events, events_ref):
            assert d_new == d_ref
            assert abs(mu_new - mu_ref) <= MU_REFINE_FLOOR

    @staticmethod
    def sampled_couplings(monkeypatch, pot, mu_steps):
        seen = []
        real = scattering.interior_state

        def spy(eq, *args, **kwargs):
            seen.append(eq.mu)
            return real(eq, *args, **kwargs)

        monkeypatch.setattr(scattering, "interior_state", spy)
        phase_shift(CH_S, pot, 0.8, mu_steps=mu_steps, with_fit=False)
        return set(seen)

    def test_mixed_sign_table_starts_from_mu_grid(self, monkeypatch):
        v = 60.0 * np.cos(2.5 * math.pi * _R_TAB)
        pot = PotentialModel(r0=1.0, local=tabulated(_R_TAB, v))
        assert pot.local.sign == 0 and not pot.one_signed
        grid = set(float(m) for m in np.linspace(0.0, 1.0, 21))
        assert grid <= self.sampled_couplings(monkeypatch, pot, 20)

    def test_one_signed_table_starts_from_endpoints(self, monkeypatch):
        pot = PotentialModel(r0=1.0, local=tabulated(_R_TAB, -40.0 * np.ones(60)))
        assert pot.local.sign == -1 and pot.one_signed
        seen = self.sampled_couplings(monkeypatch, pot, 20)
        assert {0.0, 1.0} <= seen and 0.05 not in seen


class TestLowK:
    def test_zero_at_interior_threshold_value(self):
        ch = ChannelParams.from_lambda(1.5)
        rho_t = 2.0
        assert low_k_phase_asymptotic(ch, rho_t, 1e-3, 1.0) == 0.0

    def test_matches_full_formula(self):
        eq = effective_equation(CH_S, WELL, EnergyValue(E=-1e-12))
        u, v, _ = interior_state(eq, 1e-11)
        A0 = (v / u).real
        t = low_k_phase_asymptotic(CH_S, A0, 1e-3, 1.0)
        full = phase_shift(CH_S, WELL, 1e-3, mu_steps=None, with_fit=False)
        assert abs(t / full.tan_eta - 1) <= 0.01

    def test_k_power_scaling(self):
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        eq = effective_equation(ch, pot, EnergyValue(E=-1e-12))
        u, v, _ = interior_state(eq, 1e-11)
        A0 = (v / u).real
        t1 = low_k_phase_asymptotic(ch, A0, 1e-4, 1.0)
        t2 = low_k_phase_asymptotic(ch, A0, 2e-4, 1.0)
        assert t2 / t1 == pytest.approx(2.0 ** 3, rel=1e-12)

    def test_resonant_denominator_raises(self):
        rho = (0.5 - 1.5) / 1.0
        with pytest.raises(NearThresholdResonanceError):
            low_k_phase_asymptotic(ChannelParams.from_lambda(1.5), rho, 1e-3, 1.0)

    def test_range_guard(self):
        with pytest.raises(QwsError):
            low_k_phase_asymptotic(CH_S, 1.0, 0.5, 1.0)
