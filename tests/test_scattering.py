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
from qws.scattering import (MU_REFINE_FLOOR, MU_STEPS_DEFAULT, hermiticity_residual,
                            log_derivative_interior, low_k_phase_asymptotic,
                            phase_events, phase_shift, phase_shift_curve, wronskian,
                            wronskian_pair_jost, wronskian_pair_phi)
from qws import scattering, specfun

from oracles import circ_dist, kernel_phase, swave_well_eta

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

    @pytest.mark.parametrize("ch, pot, integrations", [
        (CH_S, WELL, 2),
        (ChannelParams(q=3, l=1),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,)), 3),
        (ChannelParams(q=4, l=0),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.35, 0.12), gaussian_bump(0.7, 0.12)),
                        strengths=(-500.0, -400.0)), 3),
    ], ids=["square-well", "rank1-kernel", "rank2-kernel"])
    def test_fit_reuses_the_interior_solve(self, monkeypatch, ch, pot, integrations):
        # the fit continues the (y, y') the matching took at mu: one interior
        # solve (for a kernel of any rank, y_reg outward and y_2 inward) and
        # one exterior integration
        import qws.radial_ode as ro
        calls = []
        integrate = ro._integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(ro, "_integrate", counted)
        res = phase_shift(ch, pot, 1.3, mu=0.8, mu_steps=None)
        assert len(calls) == integrations
        monkeypatch.undo()
        eq = effective_equation(ch, pot.with_mu(0.8), EnergyValue.from_k(1.3))
        u, v, _ = interior_state(eq, 1e-10)
        assert res.eta_fit == scattering._exterior_fit_eta(eq, 1.3, u, v, 1e-10)

    @pytest.mark.parametrize("k, eta_ref, events_ref", [
        (1e-4, 3.1415926535895995, ((0.6361328125000001, 1),)),
        (1.0, 3.008791117936214, ((0.5630859374999999, 1),)),
    ])
    def test_pure_kernel_walk_from_one_superposition(self, monkeypatch, k, eta_ref,
                                                    events_ref):
        # the corpus rank-1 kernel; references from the walk that solved the
        # kernel afresh at every mu sample and bisected its events.  One pair
        # of local solves (one _kernel_point) serves every coupling of the walk
        import qws.radial_ode as ro
        ch = ChannelParams(q=3, l=1)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))
        made = []
        solves = ro._kernel_point

        def counted(qfun, sources, channel, potential, E, *args, **kwargs):
            made.append(E)
            return solves(qfun, sources, channel, potential, E, *args, **kwargs)

        monkeypatch.setattr(ro, "_kernel_point", counted)
        res = phase_shift(ch, pot, k, with_fit=False)
        assert abs(res.eta - eta_ref) <= 1e-8
        assert [d for _, d in res.events] == [d for _, d in events_ref]
        assert all(abs(m - m_ref) <= MU_REFINE_FLOOR
                   for (m, _), (m_ref, _) in zip(res.events, events_ref))
        assert made == [k * k]

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


def _walk_theta(sample, mu_a, th_a, mu_b, raw_b, path, th0):
    """Continuous theta at mu_b given theta at mu_a and the principal theta raw_b at mu_b.

    Segments where the angle moves by more than pi/2, or where the pi-branch
    of eta = theta - th0 changes, are bisected down to MU_REFINE_FLOOR on
    principal samples ``sample(mu)``; every resolved point is appended to
    ``path``.
    """
    th_b = scattering._unwrap_step(th_a, raw_b)
    needs_split = (abs(th_b - th_a) > 0.5 * math.pi
                   or scattering._branch_index(th_b, th0) != scattering._branch_index(th_a, th0))
    if not needs_split or abs(mu_b - mu_a) <= MU_REFINE_FLOOR:
        path.append((mu_b, th_b))
        return th_b
    mid = 0.5 * (mu_a + mu_b)
    th_mid = _walk_theta(sample, mu_a, th_a, mid, sample(mid), path, th0)
    return _walk_theta(sample, mid, th_mid, mu_b, raw_b, path, th0)


def _mu_continued(ch, pot, k, mu=1.0, tol=1e-10, mu_steps=200):
    """Reference: walk principal theta samples along the uniform mu grid.

    One scalar interior solve per sample, a kernel's scaled by
    det(Id - mu C M) as :func:`~qws.radial_ode.interior_state` gives it.
    """
    pair, _ = scattering._matching_map(ch.lam, k, pot.r0)
    energy = EnergyValue.from_k(k)

    def sample(m):
        eq = effective_equation(ch, pot.with_mu(float(m)), energy)
        return scattering._theta(pair, interior_state(eq, tol))[0]

    grid = np.linspace(0.0, mu, mu_steps + 1)
    th0 = sample(0.0)
    th = th0
    path = [(0.0, th0)]
    for a, b in zip(grid[:-1], grid[1:]):
        th = _walk_theta(sample, float(a), th, float(b), sample(b), path, th0)
    return th - th0, scattering._branch_events(path, th0)


def _bisected_events(ch, pot, k, mu=1.0, tol=1e-10, mu_steps=200):
    """Reference: bisect the branch index between absolute (Prufer-lifted) samples.

    The starting partition is the one phase_shift takes: {0, mu} for a
    one-signed profile, the uniform mu grid otherwise; each event is bisected
    down to MU_REFINE_FLOOR.
    """
    pair, g0 = scattering._matching_map(ch.lam, k, pot.r0)
    energy = EnergyValue.from_k(k)

    def sample(m):
        eq = effective_equation(ch, pot.with_mu(float(m)), energy)
        return scattering._theta(pair, interior_state(eq, tol, return_winding=True), g0)[0]

    def bisect(mu_a, th_a, mu_b, th_b):
        if (scattering._branch_index(th_b, th0) == scattering._branch_index(th_a, th0)
                or abs(mu_b - mu_a) <= MU_REFINE_FLOOR):
            path.append((mu_b, th_b))
            return
        mid = 0.5 * (mu_a + mu_b)
        th_mid = sample(mid)
        bisect(mu_a, th_a, mid, th_mid)
        bisect(mid, th_mid, mu_b, th_b)

    grid = [0.0, mu] if pot.one_signed else np.linspace(0.0, mu, mu_steps + 1)
    th0 = sample(0.0)
    path = [(0.0, th0)]
    for a, b in zip(grid[:-1], grid[1:]):
        bisect(float(a), path[-1][1], float(b), sample(b))
    return scattering._branch_events(path, th0)


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
        events = phase_events(ch, pot, k)
        assert len(events) == len(events_ref)
        for (mu_new, d_new), (mu_ref, d_ref) in zip(events, events_ref):
            assert d_new == d_ref
            assert abs(mu_new - mu_ref) <= MU_REFINE_FLOOR

    @pytest.mark.parametrize("ch, local, k", PRUFER_CASES,
                             ids=[f"{loc.name}-{i}" for i, (_, loc, _) in
                                  enumerate(PRUFER_CASES)])
    def test_two_solves_give_the_walk_eta(self, ch, local, k):
        # the walk returned theta(mu) - theta(0) of the same two solves
        pot = PotentialModel(r0=1.0, local=local)
        pair, g0, state = scattering._coupling_states(ch, pot, k, 1.0, 1e-10)
        eta_walk, _ = scattering._walk_to(pair, g0, state, state(1.0), 1.0,
                                          MU_STEPS_DEFAULT, pot)
        assert phase_shift(ch, pot, k, with_fit=False).eta == eta_walk

    def test_walk_refines_on_descending_grid(self):
        # mu < 0 turns the barrier into a well; both routes bisect their events
        pot = PotentialModel(r0=1.0, local=square_well(-40.0))
        _, events_ref = _mu_continued(CH_S, pot, 0.5, mu=-1.0)
        events = phase_events(CH_S, pot, 0.5, mu=-1.0)
        assert len(events) == len(events_ref) == 2
        # the Prufer path's events: -0.06839 and -0.56247
        for (mu_new, d_new), (mu_ref, d_ref), mu_star in zip(events, events_ref,
                                                             (-0.06839, -0.56247)):
            assert d_new == d_ref
            assert abs(mu_ref - mu_star) <= MU_REFINE_FLOOR
            assert abs(mu_new - mu_ref) <= MU_REFINE_FLOOR

    @staticmethod
    def sampled_couplings(monkeypatch, call):
        seen = []
        real = scattering.interior_state

        def spy(eq, *args, **kwargs):
            seen.append(eq.mu)
            return real(eq, *args, **kwargs)

        monkeypatch.setattr(scattering, "interior_state", spy)
        call()
        return seen

    def test_mixed_sign_table_starts_from_mu_grid(self, monkeypatch):
        v = 60.0 * np.cos(2.5 * math.pi * _R_TAB)
        pot = PotentialModel(r0=1.0, local=tabulated(_R_TAB, v))
        assert pot.local.sign == 0 and not pot.one_signed
        grid = set(float(m) for m in np.linspace(0.0, 1.0, 21))
        seen = self.sampled_couplings(monkeypatch,
                                      lambda: phase_events(CH_S, pot, 0.8, mu_steps=20))
        assert grid <= set(seen)

    def test_one_signed_table_starts_from_endpoints(self, monkeypatch):
        pot = PotentialModel(r0=1.0, local=tabulated(_R_TAB, -40.0 * np.ones(60)))
        assert pot.local.sign == -1 and pot.one_signed
        seen = set(self.sampled_couplings(monkeypatch,
                                          lambda: phase_events(CH_S, pot, 0.8, mu_steps=20)))
        assert {0.0, 1.0} <= seen and 0.05 not in seen

    @pytest.mark.parametrize("local", [
        square_well(4.0),
        tabulated(_R_TAB, -60.0 * np.cos(2.5 * math.pi * _R_TAB)),
    ], ids=["one-signed", "mixed-sign-table"])
    def test_local_phase_shift_makes_two_solves(self, monkeypatch, local):
        # the walk solved the mixed-sign table at every point of the mu grid
        # and both wells again for each event
        pot = PotentialModel(r0=1.0, local=local)
        seen = self.sampled_couplings(
            monkeypatch, lambda: phase_shift(CH_S, pot, 0.8, with_fit=False))
        assert sorted(seen) == [0.0, 1.0]


LEVINSON_WELLS = [(ch, square_well(depth), k)
                  for ch, depth in ((CH_S, 1.0), (CH_S, 4.0), (CH_S, (2 * math.pi) ** 2),
                                    (ChannelParams(q=3, l=1), 12.0))
                  for k in (1e-4, 2e-4)]
EVENT_CASES = [pytest.param(ch, local, k, 1.0, id=f"{local.name}-{i}")
               for i, (ch, local, k) in enumerate(PRUFER_CASES + LEVINSON_WELLS)] + [
    # one segment, {0, -1}, holding two crossings on a descending walk
    pytest.param(CH_S, square_well(-40.0), 0.5, -1.0, id="descending-two-in-one"),
]


class TestBranchRefinement:
    @pytest.mark.parametrize("ch, local, k, mu", EVENT_CASES)
    def test_events_match_bisection_in_few_solves(self, monkeypatch, ch, local, k, mu):
        pot = PotentialModel(r0=1.0, local=local)
        events_ref = _bisected_events(ch, pot, k, mu=mu)
        solves = []
        real = scattering.interior_state

        def counted(eq, *args, **kwargs):
            solves.append(eq.mu)
            return real(eq, *args, **kwargs)

        monkeypatch.setattr(scattering, "interior_state", counted)
        events = phase_events(ch, pot, k, mu=mu)
        assert len(events) == len(events_ref)
        for (mu_new, d_new), (mu_ref, d_ref) in zip(events, events_ref):
            assert d_new == d_ref
            assert abs(mu_new - mu_ref) <= MU_REFINE_FLOOR
        # the samples at 0, at mu and on the starting grid cost nothing extra;
        # bisection takes 14 solves per event
        start = 2 if pot.one_signed else MU_STEPS_DEFAULT + 1
        assert len(solves) - start <= 10 * len(events)

    def test_event_in_few_denominator_solves(self, monkeypatch):
        # the lam = 1 well of the phase_local benchmark: Illinois false
        # position took 9 D(mu) solves to locate its one event
        solves = []
        real = scattering.refine_root

        def counted(f, *args):
            def g(m):
                solves.append(m)
                return f(m)
            return real(g, *args)

        monkeypatch.setattr(scattering, "refine_root", counted)
        pot = PotentialModel(r0=1.0, local=square_well(24.61))
        events = phase_events(ChannelParams(q=4, l=0), pot, 1.816)
        assert [d for _, d in events] == [1]
        assert len(solves) <= 7

    def test_two_crossings_in_one_segment_are_split_first(self):
        # the two-level well's events both lie inside the partition {0, 1}
        pot = PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2))
        events = phase_events(CH_S, pot, 1e-4)
        assert [d for _, d in events] == [1, 1]
        assert 0.0 < events[0][0] < 0.5 < events[1][0] < 1.0

    def test_mixed_sign_table_on_its_grid(self):
        v = -60.0 * np.cos(2.5 * math.pi * _R_TAB)
        pot = PotentialModel(r0=1.0, local=tabulated(_R_TAB, v))
        assert not pot.one_signed
        events_ref = _bisected_events(CH_S, pot, 0.8, mu_steps=20)
        events = phase_events(CH_S, pot, 0.8, mu_steps=20)
        assert [d for _, d in events] == [d for _, d in events_ref] == [1]
        assert abs(events[0][0] - events_ref[0][0]) <= MU_REFINE_FLOOR

    def test_non_monotone_bracket_falls_back_to_bisection(self, monkeypatch):
        # a refined bracket whose ends do not carry the branch indices of the
        # segment's ends is discarded: the segment is split at its midpoint
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        ref = phase_events(CH_S, pot, 0.45)
        calls = []
        real = scattering.refine_root

        def lying(f, a, fa, b, fb, tol):
            calls.append((a, b))
            lo, hi = real(f, a, fa, b, fb, tol)
            return (lo, hi) if len(calls) > 1 else (a, a)

        monkeypatch.setattr(scattering, "refine_root", lying)
        events = phase_events(CH_S, pot, 0.45)
        assert calls[0] == (0.0, 1.0) and len(calls) == 2
        assert abs(calls[1][1] - calls[1][0]) == 0.5
        assert [d for _, d in events] == [d for _, d in ref]
        assert abs(events[0][0] - ref[0][0]) <= MU_REFINE_FLOOR


class TestMuSteps:
    RANK1 = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))

    @pytest.mark.parametrize("mu_steps", [0, -1, -200, 0.5, 2.5, math.inf])
    @pytest.mark.parametrize("ch, pot", [
        (ChannelParams(q=3, l=1), RANK1),
        (CH_S, PotentialModel(r0=1.0, local=tabulated(_R_TAB, 60.0 * np.cos(
            2.5 * math.pi * _R_TAB)))),
        (CH_S, WELL),
    ], ids=["rank1-kernel", "mixed-sign-table", "square-well"])
    def test_fewer_than_one_step_rejected(self, ch, pot, mu_steps):
        # mu_steps = 0 returned eta = 0.0 and no events for the rank-1 kernel
        # at k = 1, where the continued value is 3.0088; 2.5 was cut to 2
        # steps, and math.inf ended in an OverflowError
        with pytest.raises(QwsError, match="mu_steps"):
            phase_shift(ch, pot, 1.0, mu_steps=mu_steps, with_fit=False)
        with pytest.raises(QwsError, match="mu_steps"):
            phase_events(ch, pot, 1.0, mu_steps=mu_steps)
        with pytest.raises(QwsError, match="mu_steps"):
            phase_shift_curve(ch, pot, [1.0], mu_steps=mu_steps)

    def test_one_step_is_a_whole_walk(self):
        res = phase_shift(ChannelParams(q=3, l=1), self.RANK1, 1.0, mu_steps=1,
                          with_fit=False)
        assert abs(res.eta - 3.008791117936214) <= 1e-8
        assert len(res.events) == 1

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    @pytest.mark.parametrize("walk", [phase_shift, phase_events])
    def test_non_finite_coupling_raises_before_any_solve(self, monkeypatch, walk, mu):
        # the pure kernel's cached point never met the local path's check: nan
        # ended in "cannot convert float NaN to integer" after numpy warnings
        import qws.radial_ode as ro

        def unused(*args, **kwargs):
            raise AssertionError("a kernel point was solved")

        monkeypatch.setattr(ro, "_kernel_point", unused)
        with pytest.raises(QwsError, match="coupling scale mu must be finite"):
            walk(ChannelParams(q=3, l=1), self.RANK1, 1.0, mu=mu)


class TestSqrtMuSteps:
    def test_only_steps_that_may_turn_past_a_quarter_are_split(self):
        grid = np.linspace(0.0, 1.0, 201).tolist()
        # the deepest benchmark well (90) keeps the grid as it is
        assert scattering._sqrt_mu_steps(grid, math.sqrt(90.0)) == grid
        assert len(scattering._sqrt_mu_steps(grid, math.sqrt(1e4))) == 201 + 8


DEEP_WELL = PotentialModel(r0=1.0, local=square_well(5000.0))


def _deep_well_with_bump(strength: float) -> PotentialModel:
    return PotentialModel(r0=1.0, local=square_well(5000.0),
                          kernel=(gaussian_bump(0.5, 0.15),), strengths=(strength,))


class TestKernelActs:
    """A kernel acts when mu != 0 and some coupling is nonzero; otherwise every
    layer solves the local problem, as the bare well would."""

    @pytest.fixture(scope="class")
    def bare(self):
        return phase_shift(CH_S, DEEP_WELL, 1.0)

    def test_predicate(self):
        idle, weak = _deep_well_with_bump(0.0), _deep_well_with_bump(-1e-9)
        assert not idle.kernel_acts and weak.kernel_acts
        energy = EnergyValue.from_k(1.0)
        assert effective_equation(CH_S, weak, energy).kernel_acts
        assert not effective_equation(CH_S, weak.with_mu(0.0), energy).kernel_acts
        # the lambda = 0 guard reads the same predicate
        ch0 = ChannelParams(q=2, l=0)
        assert not effective_equation(ch0, idle, energy).kernel_acts
        with pytest.raises(QwsError, match="lambda = 0"):
            effective_equation(ch0, weak, energy)

    def test_zero_coupling_is_the_bare_well(self, bare):
        # the kernel path's walk placed 23 samples' worth of turns on a grid
        # too coarse for them: eta = 20.549 pi against 22.549 pi
        res = phase_shift(CH_S, _deep_well_with_bump(0.0), 1.0)
        assert res == bare

    def test_weak_kernel_walk_splits_placed_steps(self, bare):
        # a kernel that acts takes the placed walk, which now splits the
        # steps over which the well's phase may turn by more than pi/2
        res = phase_shift(CH_S, _deep_well_with_bump(-1e-9), 1.0, with_fit=False)
        assert abs(res.eta - bare.eta) <= 1e-6
        bare_events = phase_events(CH_S, DEEP_WELL, 1.0)
        assert [d for _, d in res.events] == [d for _, d in bare_events]


WELL_KERNEL = PotentialModel(r0=1.0, local=square_well(3.0),
                             kernel=(gaussian_bump(0.5, 0.15),), strengths=(-120.0,))


class TestRepulsiveKernel:
    """A p-wave rank-1 kernel of strength +3000: no level, det(Id - mu C M) = 0 near mu = 0.305.

    The walk on unscaled states took a spurious pi there: eta = 3.0901 at
    k = 1 and pi at the Levinson wavenumbers.
    """

    CH = ChannelParams(q=3, l=1)
    POT = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(3000.0,))

    def test_phase_at_unit_wavenumber(self):
        res = phase_shift(self.CH, self.POT, 1.0, with_fit=False)
        assert abs(res.eta - -0.05154190) <= 1e-8
        assert res.events == ()

    @pytest.mark.parametrize("tol", [1e-9, 1e-10])
    @pytest.mark.parametrize("k", [1e-4, 2e-4])
    def test_phase_vanishes_at_threshold(self, k, tol):
        res = phase_shift(self.CH, self.POT, k, tol=tol, with_fit=False)
        assert abs(res.eta) <= 1e-8
        assert res.events == ()


class TestLowKStep:
    """The q = 3, l = 2 rank-1 bump at strength -3000: one level, one event near mu = 0.2942."""

    CH = ChannelParams(q=3, l=2)
    POT = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-3000.0,))

    def test_event_rises_at_every_wavenumber(self):
        # at k = 1e-4 theta - th0 is 0 before the event and exactly +-pi
        # after it; the nearest 2 pi branch took -1 there, +1 at k = 1e-2
        for k in (1e-4, 2e-4, 1e-2):
            res = phase_shift(self.CH, self.POT, k, with_fit=False)
            assert [d for _, d in res.events] == [1]
            assert abs(res.events[0][0] - 0.29418) <= 1e-4
            assert abs(res.eta - math.pi) <= 1e-6

    def test_across_reads_p_only_where_both_ends_agree(self):
        # D falls through 0 with P > 0 at both ends: theta rose by pi
        assert scattering._across((0.0, 0.0, 1.0, 1e-20), (1e-5, -math.pi, -1.0, 1e-20)) \
            == math.pi
        # P changes sign as well: the far end keeps its nearest branch
        assert scattering._across((0.0, 0.5, 1.0, -1e-6), (1e-5, 2.0, -1.0, 1e-6)) == 0.5
        # D keeps its sign: no crossing to place
        assert scattering._across((0.0, 0.5, 1.0, 1e-6), (1e-5, 0.6, 2.0, 1e-6)) == 0.5


class TestKernelWalkLanes:
    def test_well_kernel_grid_from_one_lanes_call(self, monkeypatch):
        # the corpus well + kernel at the Levinson wavenumber; the scalar walk
        # takes 427 integrations
        import qws.radial_ode as ro
        eta_ref, events_ref = _mu_continued(CH_S, WELL_KERNEL, 1e-4, tol=1e-9)
        calls = []
        integrate = ro._integrate

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate(*args, **kwargs)

        monkeypatch.setattr(ro, "_integrate", counted)
        res = phase_shift(CH_S, WELL_KERNEL, 1e-4, tol=1e-9, with_fit=False)
        assert abs(res.eta - eta_ref) <= 1e-9
        assert [d for _, d in res.events] == [d for _, d in events_ref] == [1]
        assert abs(res.events[0][0] - events_ref[0][0]) <= MU_REFINE_FLOOR
        assert len(calls) <= 20

    def test_resonant_grid_point_stays_finite(self, monkeypatch):
        # the moment M forced to make det(Id - mu C M) vanish exactly at the
        # grid point mu = 1/2: the walk's lanes and its scalar samples stay
        # finite and agree, A there is the limit of A on either side, and the
        # walk equals the scalar reference walk through that point
        import qws.radial_ode as ro
        ch = ChannelParams(q=3, l=1)
        pot = TestMuSteps.RANK1
        mu_h = float(np.linspace(0.0, 1.0, MU_STEPS_DEFAULT + 1)[MU_STEPS_DEFAULT // 2])
        couple = ro._couple
        dets = []

        def resonant_at_half(M, m_h, coupling, mu):
            M = M.copy()
            M[:, 0, 0] = 1.0 / (mu_h * coupling[0, 0])
            out = couple(M, m_h, coupling, mu)
            dets.append(out[-1])
            return out

        monkeypatch.setattr(ro, "_couple", resonant_at_half)
        at = scattering.interior_in_mu(ch, pot, 1.0)
        u, v, max_u = at(np.array([mu_h - 1e-9, mu_h, mu_h + 1e-9]))
        su, sv, s_max = at(mu_h)
        assert dets[0][1] == dets[1][0] == 0.0
        assert np.all(np.isfinite([*u, *v, *max_u, su, sv, s_max])) and s_max > 0.0
        assert max(abs(u[1] - su.real), abs(v[1] - sv.real)) <= 1e-8 * s_max
        assert np.all(np.abs(v / u - (sv / su).real) <= 1e-7 * abs(sv / su))
        res = phase_shift(ch, pot, 1.0, with_fit=False)
        assert any(np.any(d == 0.0) for d in dets[2:])   # the walk's lanes met det = 0
        eta_ref, events_ref = _mu_continued(ch, pot, 1.0)
        assert abs(res.eta - eta_ref) <= 1e-9
        assert [d for _, d in res.events] == [d for _, d in events_ref]
        assert all(abs(m - m_ref) <= MU_REFINE_FLOOR
                   for (m, _), (m_ref, _) in zip(res.events, events_ref))

    @pytest.mark.parametrize("k", [1e-4, 1.0])
    @pytest.mark.parametrize("ch, pot", [
        (ChannelParams(q=3, l=1), TestMuSteps.RANK1),
        (CH_S, WELL_KERNEL),
    ], ids=["rank1-kernel", "well+kernel"])
    def test_phase_events_are_the_kernel_walk_events(self, ch, pot, k):
        res = phase_shift(ch, pot, k, with_fit=False)
        assert res.events and phase_events(ch, pot, k) == res.events


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


# (channel, [(center, width, strength)], square-well depth): the corpus
# rank-1 p-wave bump, the benchmark's rank-2 pair and the well + kernel
KERNEL_PHASE_MODELS = [
    (ChannelParams(q=3, l=1), [(0.5, 0.15, -700.0)], 0.0),
    (ChannelParams(q=4, l=0), [(0.35, 0.12, -500.0), (0.7, 0.12, -400.0)], 0.0),
    (CH_S, [(0.5, 0.15, -120.0)], 3.0),
]


@pytest.mark.parametrize("k", [0.5, 1.3, 3.0])
@pytest.mark.parametrize("ch, bumps, depth", KERNEL_PHASE_MODELS,
                         ids=["rank1", "rank2", "well+kernel"])
def test_principal_kernel_phase_matches_the_closed_form_oracle(ch, bumps, depth, k):
    # an independent reference: the closed-form Bessel pair and the
    # variation-of-parameters particular solutions on its own quadrature
    pot = PotentialModel(r0=1.0, local=square_well(depth) if depth else None,
                         kernel=tuple(gaussian_bump(c, w) for c, w, _ in bumps),
                         strengths=tuple(s for _, _, s in bumps))
    profiles = [lambda r, c=c, w=w: np.exp(-((r - c) / w) ** 2) for c, w, _ in bumps]
    ref = kernel_phase(ch.lam, ch.q, 1.0, profiles, pot.coupling_matrix(), k, depth=depth)
    eta = phase_shift(ch, pot, k, mu_steps=None, with_fit=False).eta
    assert circ_dist(eta, ref) <= 1e-9
