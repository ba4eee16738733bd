import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from qws import spectral as sp
from qws.errors import QwsError
from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import PotentialModel, gaussian_bump, square_well
from qws.spectral import (continuation_count, find_bound_states,
                          levinson_verify, matching_mismatch,
                          sturm_liouville_check)
from qws.radial_ode import interior_state
from qws.roots import refine_root
from qws.scattering import phase_shift

from oracles import swave_well_levels

CH_S = ChannelParams(q=3, l=0)


class TestMatchingMismatch:
    def test_free_coupling_never_matches(self):
        # no bound state at mu = 0: the mismatch is strictly nonzero
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, local=square_well(10.0))
        for E in (-5.0, -1.0, -0.1, -1e-4):
            assert abs(matching_mismatch(ch, pot, E, mu=0.0)) > 1e-3

    def test_threshold_gap_is_two_lambda_over_r0(self):
        for lam, r0 in ((0.5, 1.0), (1.5, 2.0)):
            ch = ChannelParams.from_lambda(lam)
            pot = PotentialModel(r0=r0, local=square_well(4.0))
            gap = matching_mismatch(ch, pot, -1e-12, mu=0.0)
            assert abs(gap - 2 * lam / r0) <= 1e-5

    def test_sign_changes_bracket_oracle_levels(self):
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        oracle = swave_well_levels(V0, 1.0)
        assert len(oracle) == 2
        for E_star in oracle:
            lo = matching_mismatch(CH_S, pot, E_star - 1e-3, mu=1.0)
            hi = matching_mismatch(CH_S, pot, E_star + 1e-3, mu=1.0)
            assert lo * hi < 0

    def test_positive_energy_rejected(self):
        with pytest.raises(QwsError):
            matching_mismatch(CH_S, PotentialModel(r0=1.0), 1.0, mu=1.0)


class TestFindBoundStates:
    def test_free_has_none(self):
        pot = PotentialModel(r0=1.0, local=square_well(10.0))
        assert find_bound_states(CH_S, pot, mu=0.0) == []

    def test_non_positive_tolerance_rejected(self):
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        for tol in (0.0, -1e-10):
            with pytest.raises(QwsError, match="tol must be positive"):
                find_bound_states(CH_S, pot, tol=tol)

    def test_shallow_well_has_none(self):
        pot = PotentialModel(r0=1.0, local=square_well(1.0))
        assert find_bound_states(CH_S, pot) == []

    def test_two_level_well_matches_oracle(self):
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        states = find_bound_states(CH_S, pot, tol=1e-12)
        oracle = swave_well_levels(V0, 1.0)
        assert len(states) == 2
        for s, E_ref in zip(states, oracle):
            assert abs(s.E - E_ref) <= 1e-6 * max(1, abs(E_ref))
            assert s.matching_residual <= 1e-6

    def test_solution_normalized_and_matched(self):
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        (state,) = find_bound_states(CH_S, pot)
        sol = state.solution
        assert sol.normalization == "matched-physical"
        # independent norm check: trapezoid over the grid plus exponential tail
        y2 = np.abs(sol.y) ** 2
        norm_grid = np.trapezoid(y2, sol.grid.nodes)
        tail = y2[-1] / (2 * state.kappa)  # ~ e^{-2 kappa r} remainder
        assert abs(norm_grid + tail - 1.0) <= 1e-3

    def test_kernel_bound_state(self):
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                             strengths=(-700.0,))
        states = find_bound_states(ch, pot)
        assert len(states) == 1
        assert states[0].E < 0
        assert states[0].matching_residual <= 1e-4

    @pytest.mark.parametrize("kwargs, n_levels, expected", [
        ({"n_scan": 3}, 3, []),
        ({"E_floor": -20.0}, 1,
         ["2 levels below E_floor: floor above the deepest level"]),
    ], ids=["coarse-scan", "floor-above-levels"])
    def test_sturm_cross_check_warns(self, kwargs, n_levels, expected):
        # three levels (E ~ -78.6, -54.9, -17.4): a local well is searched by
        # its Sturm count, so n_scan (a kernel's scan size) cannot lose any,
        # and E_floor = -20 keeps the one level above it and warns of the two
        # below
        pot = PotentialModel(r0=1.0, local=square_well(86.6))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            states = find_bound_states(CH_S, pot, **kwargs)
        assert len(states) == n_levels
        assert states[-1].E == pytest.approx(-17.4, abs=0.05)
        assert [str(w.message) for w in caught] == expected

    @pytest.mark.parametrize("V0, n_levels", [(1e3, 10), (1e4, 32)])
    def test_deep_well_keeps_every_level(self, V0, n_levels):
        # the 400/1600-energy scan found 26 of the 32 levels of V0 = 1e4
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot)
        oracle = swave_well_levels(V0, 1.0)
        assert len(states) == len(oracle) == n_levels
        for s, E_ref in zip(states, oracle):
            assert abs(s.E - E_ref) <= 1e-8 * abs(E_ref)


def _bisect_root(f, a, fa, b, fb, tol):
    """Bisection of a scan bracket down to tol max(1, |a|): the reference for the refiner."""
    while abs(b - a) > tol * max(1.0, abs(a)):
        m = 0.5 * (a + b)
        fm = f(m)
        if fa * fm <= 0:
            b = m
        else:
            a, fa = m, fm
    return a, b


def _refined(f, a, b, tol=1e-10):
    """(midpoint, final sign bracket, evaluations) of the refiner on an increasing f.

    The end values are evaluated here, as the refiner's callers do, and count
    among the evaluations.
    """
    seen = []

    def recording(x):
        seen.append((x, f(x)))
        return seen[-1][1]

    lo_r, hi_r = refine_root(recording, a, recording(a), b, recording(b), tol)
    lo = max(t for t, v in seen if v < 0)
    hi = min(t for t, v in seen if v >= 0)
    assert (lo_r, hi_r) == (lo, hi)
    return 0.5 * (lo_r + hi_r), (lo, hi), len(seen)


def _bisection_steps(a, b, tol):
    return math.ceil(math.log2((b - a) / tol))


class TestRefineRoot:
    @pytest.mark.parametrize("f, a, b, root", [
        (lambda x: 3.0 * x - 2.0, -10.0, 10.0, 2.0 / 3.0),
        (lambda x: (x - 1.5) * (x * x + 1.0), -4.0, 9.0, 1.5),
        (lambda x: math.exp(x) - 2.0, -20.0, 5.0, math.log(2.0)),
        (lambda x: x + 7.0, -40.0, -1.0, -7.0),
    ], ids=["line", "cubic", "exp", "negative-root"])
    def test_closed_form_roots(self, f, a, b, root):
        tol = 1e-10
        x, (lo, hi), n = _refined(f, a, b, tol)
        assert hi - lo <= tol * max(1.0, abs(x))
        assert x == 0.5 * (lo + hi)
        assert abs(x - root) <= 0.5 * tol * max(1.0, abs(x)) + 1e-15 * max(1.0, abs(root))
        assert n <= 2 + _bisection_steps(a, b, tol)

    @pytest.mark.parametrize("f, root", [
        (lambda x: (x - 0.3) ** 9, 0.3),
        (lambda x: x - 0.1 if x < 0.1 else 1000.0 * (x - 0.1), 0.1),
    ], ids=["x^9", "kink"])
    def test_stalling_false_position_still_closes(self, f, root):
        # false position alone, Illinois or not, creeps in from one end here
        # (about 260 evaluations for x^9); the bisection steps bound the
        # count, give or take one step that the relative width tol max(1, |x|)
        # costs as the bracket's midpoint drops below 1
        tol = 1e-10
        x, (lo, hi), n = _refined(f, -1.0, 2.5, tol)
        assert hi - lo <= tol and x == 0.5 * (lo + hi)
        assert lo <= root <= hi
        assert n <= 2 + 2 * _bisection_steps(-1.0, 2.5, tol) + 1

    def test_ends_in_either_order(self):
        f = lambda x: 3.0 * x - 2.0  # noqa: E731
        assert refine_root(f, 10.0, f(10.0), -10.0, f(-10.0), 1e-10) == \
            refine_root(f, -10.0, f(-10.0), 10.0, f(10.0), 1e-10)

    def test_exact_zero_bracket_costs_no_evaluation(self):
        def never(x):
            raise AssertionError("evaluated")

        assert refine_root(never, -2.5, 0.0, -2.5, 0.0, 1e-10) == (-2.5, -2.5)

    def test_bracket_without_sign_change_warns(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.warns(UserWarning, match="no sign change"):
            lo, hi = refine_root(f, -1.0, f(-1.0), 2.0, f(2.0), 1e-10)
        assert -1.0 <= lo <= hi <= 2.0


class TestSturmLiouville:
    def test_signs_and_integral_agreement_local(self):
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        for E in np.linspace(-3.0, -0.2, 8):
            rep = sturm_liouville_check(CH_S, pot, mu=1.0, E=float(E))
            assert rep.slope_interior_fd < 0 < rep.slope_exterior_fd
            assert abs(rep.slope_interior_fd / rep.slope_interior_quad - 1) <= 0.01
            assert abs(rep.slope_exterior_fd / rep.slope_exterior_quad - 1) <= 0.01

    def test_exterior_slope_positive_free(self):
        ch = ChannelParams.from_lambda(1.5)
        rep = sturm_liouville_check(ch, PotentialModel(r0=1.0), mu=0.0, E=-1.0)
        assert rep.slope_exterior_fd > 0

    def test_interior_free_closed_form(self):
        # lam = 1/2, mu = 0: A(E) = kappa coth(kappa r0), differentiable in E
        E, r0 = -0.49, 1.0
        kappa = math.sqrt(-E)
        rep = sturm_liouville_check(CH_S, PotentialModel(r0=r0), mu=0.0, E=E,
                                    dE=1e-6)
        c = 1.0 / math.tanh(kappa * r0)
        dA_dkappa = c + kappa * r0 * (1 - c * c)
        exact = dA_dkappa * (-1.0 / (2 * kappa))
        assert rep.slope_interior_fd == pytest.approx(exact, rel=1e-5)
        assert exact < 0

    def test_nonlocal_configuration(self):
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                             strengths=(-700.0,))
        rep = sturm_liouville_check(ch, pot, mu=1.0, E=-1.5)
        assert rep.slope_interior_fd < 0 < rep.slope_exterior_fd
        assert abs(rep.slope_interior_fd / rep.slope_interior_quad - 1) <= 0.01

    @pytest.mark.parametrize("dE", [0.0, -1e-4, math.nan])
    def test_non_positive_step_rejected(self, dE):
        # dE = 0 divided by zero in the centered slopes
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError, match="dE must be positive"):
            sturm_liouville_check(CH_S, pot, mu=1.0, E=-1.5, dE=dE)


class TestContinuationCount:
    def test_single_point_grid_counts_nothing(self):
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        rep = continuation_count(CH_S, pot, mu_grid=[0.0])
        assert rep.n_bound == 0 and rep.events == ()

    @pytest.mark.parametrize("y, dy, expected", [
        (lambda m: 1.0 + 0.0 * m, lambda m: 1.0 - m / 0.3, [(0.3, 1)]),
        (lambda m: 1.0 - m / 0.2, lambda m: 1.0 - m / 0.6, [(0.6, -1)]),
        (lambda m: 1.0 - m / 0.2, lambda m: 1.0 + 0.0 * m, []),
        (lambda m: 1.0 - m / 0.4, lambda m: 1.0 - m / (0.4 - 1e-6), [(0.4 - 1e-6, 1)]),
    ], ids=["down-crossing", "pole-then-up-crossing", "lone-pole", "crossing-beside-pole"])
    def test_walk_on_closed_form_states(self, monkeypatch, y, dy, expected):
        # lam = 1/2, r0 = 1: rho = 0 and rho~ = 1, and (y, y') = (1, 1) at
        # mu = 0 is the free threshold state.  A falling through rho counts
        # +1 and rising -1; a pole of A (y = 0) counts nothing, also 1e-6
        # from a crossing, where the signs of (y' - rho y, y) at the ends of
        # a 1e-5 bracket both flip and cannot give the crossing's direction
        def at(mu):
            m = np.asarray(mu, dtype=float)
            u, v = y(m), dy(m)
            if np.ndim(mu):
                return u, v, np.abs(u)
            return float(u), float(v), abs(float(u))

        monkeypatch.setattr(sp, "interior_in_mu", lambda *args: at)
        rep = continuation_count(CH_S, PotentialModel(r0=1.0), mu_grid=np.linspace(0.0, 1.0, 5))
        assert [d for _, d in rep.events] == [d for _, d in expected]
        assert all(abs(m - ref) <= sp.MU_CROSSING_FLOOR
                   for (m, _), (ref, _) in zip(rep.events, expected))
        assert rep.n_bound == sum(d for _, d in expected)

    def test_two_level_well_counts_from_few_scalar_solves(self, monkeypatch):
        # one lanes call for the 201-point grid, scalar solves only to refine
        # the two crossings (a bisection of every sign flip took 36)
        import qws.radial_ode as ro
        calls = {"interior_state": 0, "interior_lanes": 0}
        for name in calls:
            def counted(*args, _real=getattr(ro, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(ro, name, counted)
        pot = PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2))
        rep = continuation_count(CH_S, pot)
        assert rep.n_bound == 2
        assert calls["interior_lanes"] == 1 and calls["interior_state"] <= 8

    def test_two_level_well_crossings_at_oracle_couplings(self):
        # threshold states of the scaled well appear at mu V0 r0^2 = (pi/2)^2, (3pi/2)^2
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = continuation_count(CH_S, pot)
        assert (rep.n_down, rep.n_up) == (2, 0)
        mu_oracle = [(math.pi / 2) ** 2 / V0, (3 * math.pi / 2) ** 2 / V0]
        found = sorted(m for m, d in rep.events)
        assert len(found) == 2
        for m, ref in zip(found, mu_oracle):
            assert abs(m - ref) <= 2e-5

    def test_two_level_well_crossings_on_descending_grid(self):
        # the mirror image: a barrier scaled by mu from 0 down to -1 (a depth
        # whose thresholds are not grid midpoints, so refinement must act)
        V0 = 40.0
        pot = PotentialModel(r0=1.0, local=square_well(-V0))
        rep = continuation_count(CH_S, pot, mu_grid=np.linspace(0.0, -1.0, 201))
        assert (rep.n_down, rep.n_up) == (2, 0)
        mu_oracle = [-(math.pi / 2) ** 2 / V0, -(3 * math.pi / 2) ** 2 / V0]
        found = sorted((m for m, d in rep.events), reverse=True)
        assert len(found) == 2
        for m, ref in zip(found, mu_oracle):
            assert abs(m - ref) <= 2e-5
        # the staircase steps up along the path, away from mu = 0
        assert rep.eta0_staircase[0] == 0.0
        assert rep.eta0_staircase[-1] == pytest.approx(2 * math.pi)

    def test_monotone_attractive_never_uncrosses(self):
        for V0 in (4.0, 12.0, (2 * math.pi) ** 2):
            pot = PotentialModel(r0=1.0, local=square_well(V0))
            rep = continuation_count(CH_S, pot)
            assert rep.n_up == 0

    def test_staircase_jumps_only_at_events(self):
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = continuation_count(CH_S, pot)
        jumps = np.nonzero(np.diff(rep.eta0_staircase))[0]
        assert len(jumps) == len(rep.events)
        for j, (mu_star, d) in zip(jumps, rep.events):
            assert rep.mu_grid[j] <= mu_star <= rep.mu_grid[j + 1]
            assert np.diff(rep.eta0_staircase)[j] == pytest.approx(d * math.pi)

    def test_grid_must_start_at_zero(self):
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError):
            continuation_count(CH_S, pot, mu_grid=[0.5, 1.0])


class TestStaircasePhaseConsistency:
    def test_event_locations_agree_between_detectors(self):
        # A-crossing detector vs branch jumps of the small-k phase continuation
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = continuation_count(CH_S, pot, tol=1e-9)
        res = phase_shift(CH_S, pot, 1e-4, mu=1.0, tol=1e-9, with_fit=False)
        assert len(res.events) == len(rep.events)
        for (mu_phase, d_phase), (mu_cross, d_cross) in zip(res.events, rep.events):
            assert abs(mu_phase - mu_cross) <= 5e-4
            assert d_phase == d_cross


class TestLevinson:
    def test_two_level_well(self):
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = levinson_verify(CH_S, pot, tol=1e-9)
        assert rep.passed
        assert rep.n_direct == rep.n_continuation == 2
        assert abs(rep.eta0 - 2 * math.pi) <= 1e-2

    def test_free_system(self):
        rep = levinson_verify(CH_S, PotentialModel(r0=1.0), tol=1e-9)
        assert rep.passed and rep.n_direct == 0
        assert abs(rep.eta0) <= 1e-2

    def test_counts_levels_without_building_them(self, monkeypatch):
        # each built level cost a full-grid solve and 161 Bessel I/K calls
        # that the count never read
        def unused(*args, **kwargs):
            raise AssertionError("levinson_verify built a bound state")

        monkeypatch.setattr(sp, "_build_bound_state", unused)
        pot = PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2))
        rep = levinson_verify(CH_S, pot, tol=1e-9)
        assert rep.passed and rep.n_direct == rep.n_continuation == 2

    def test_counts_a_local_well_from_two_mismatch_solves(self, monkeypatch):
        # refining the two levels it only counts took 21 more solves
        solves = []
        mismatch = sp._prufer_mismatch

        def counted(*args):
            solves.append(args[2])
            return mismatch(*args)

        monkeypatch.setattr(sp, "_prufer_mismatch", counted)
        pot = PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2 + 20))
        rep = levinson_verify(CH_S, pot, tol=1e-9)
        assert rep.passed and rep.n_direct == rep.n_continuation == 2
        assert len(solves) == 2

    def test_counts_a_kernel_by_its_scan_brackets(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("levinson_verify refined a level")

        monkeypatch.setattr(sp, "refine_root", unused)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))
        rep = levinson_verify(ChannelParams(q=3, l=1), pot, tol=1e-9)
        assert rep.passed and rep.n_direct == rep.n_continuation == 1

    @pytest.mark.parametrize("strength", [3000.0, 700.0])
    def test_repulsive_kernel_has_no_level(self, strength):
        # det(Id - mu C M) changes sign inside these kernels' paths: at +3000 the
        # phase walk took a spurious pi (eta0 = pi, "fail"); at +700 the pole of
        # M(E) gave a level at E = -35.516 with matching residual 12.3
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                             strengths=(strength,))
        ch = ChannelParams(q=3, l=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_bound_states(ch, pot) == []
        rep = levinson_verify(ch, pot, tol=1e-9)
        assert rep.passed and rep.n_direct == rep.n_continuation == 0
        assert abs(rep.eta0) <= 1e-8

    def test_upstream_errors_surface_as_inconclusive(self, monkeypatch):
        from qws import spectral as sp
        from qws.errors import AmbiguousCrossingError

        def boom(*a, **k):
            raise AmbiguousCrossingError("grazing contact")

        monkeypatch.setattr(sp, "continuation_count", boom)
        rep = sp.levinson_verify(CH_S, PotentialModel(r0=1.0, local=square_well(4.0)))
        assert rep.status == "inconclusive"
        assert "grazing" in rep.reason


# the spectrum_local benchmark cells (mid-gap depths with 0, 2, 1 and 3
# levels) and the local wells of scripts/levinson_corpus.py
LANE_SCAN_CASES = [
    (CH_S, 0.62), (CH_S, 39.0), (ChannelParams(q=4, l=0), 15.7), (CH_S, 88.0),
    (CH_S, 1.0), (CH_S, 4.0), (CH_S, (2 * math.pi) ** 2), (ChannelParams(q=3, l=1), 12.0),
]


def _scalar_scan_values(channel, potential, grid_E, mu, tol):
    """The scan as one scalar solve per energy: the reference for the lanes."""
    return np.array([sp._matching_scan_value(channel, potential, float(E), mu, tol)
                     for E in grid_E])


def _one_by_one(channel, potential, E, tol):
    """interior_in_mu answered by one scalar interior solve per coupling: the reference."""
    def at(mu):
        if np.ndim(mu):
            return tuple(np.array(x) for x in zip(*(at(float(m)) for m in mu)))
        eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
        u, v, max_u = interior_state(eq, tol)
        return u.real, v.real, max_u
    return at


class TestLaneScans:
    @pytest.mark.parametrize("ch, depth", LANE_SCAN_CASES,
                             ids=[f"lam{c.lam:g}-V{d:.4g}" for c, d in LANE_SCAN_CASES])
    def test_brackets_and_levels_equal_scalar_scan(self, ch, depth):
        # the scan of a kernel's search, run here on local wells as lanes and
        # as one scalar solve per energy: every value has the same sign
        pot = PotentialModel(r0=1.0, local=square_well(depth))
        floor = sp.default_energy_floor(ch, pot)
        grid_E = -np.geomspace(abs(floor), 1e-11 * max(1.0, abs(floor)), 400)
        lanes = sp._scan_values(ch, pot, grid_E, 1.0, 1e-9)
        scalar = _scalar_scan_values(ch, pot, grid_E, 1.0, 1e-9)
        assert np.array_equal(np.sign(lanes), np.sign(scalar))
        brackets, adjacent = sp._sign_brackets(grid_E, lanes)
        assert (brackets, adjacent) == sp._sign_brackets(grid_E, scalar)
        assert len(brackets) == len(find_bound_states(ch, pot, ode_tol=1e-9))

    @pytest.mark.parametrize("depth, grid", [
        (39.0, None), (-40.0, np.linspace(0.0, -1.0, 201)), (12.0, np.linspace(0.0, 2.0, 101)),
    ], ids=["two-level-ascending", "barrier-descending", "p-wave-ascending"])
    def test_continuation_equals_scalar_samples(self, monkeypatch, depth, grid):
        ch = ChannelParams(q=3, l=1) if depth == 12.0 else CH_S
        pot = PotentialModel(r0=1.0, local=square_well(depth))
        lanes = continuation_count(ch, pot, mu_grid=grid)
        monkeypatch.setattr(sp, "interior_in_mu", _one_by_one)
        ref = continuation_count(ch, pot, mu_grid=grid)
        assert lanes.n_bound == ref.n_bound and lanes.n_bound != 0
        # the refiner's trial points follow the values, so mu* agree to its floor
        assert [d for _, d in lanes.events] == [d for _, d in ref.events]
        assert all(abs(a - b) <= sp.MU_CROSSING_FLOOR
                   for (a, _), (b, _) in zip(lanes.events, ref.events))
        assert np.array_equal(lanes.eta0_staircase, ref.eta0_staircase)
        assert np.allclose(np.arctan(lanes.A_samples), np.arctan(ref.A_samples),
                           rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("q, l, bumps, strengths", [
        (3, 1, ((0.5, 0.15),), (-700.0,)),
        (4, 0, ((0.35, 0.12), (0.7, 0.12)), (-500.0, -400.0)),
    ], ids=["rank1", "rank2"])
    def test_pure_kernel_continuation_from_one_superposition(self, monkeypatch, q, l,
                                                             bumps, strengths):
        import qws.radial_ode as ro
        ch = ChannelParams(q=q, l=l)
        pot = PotentialModel(r0=1.0, kernel=tuple(gaussian_bump(c, w) for c, w in bumps),
                             strengths=strengths)
        grid = np.linspace(0.0, 1.0, 17)
        made = []
        solves = ro._superposition_solves

        def counted(*args):
            made.append(args[0].energy.E)
            return solves(*args)

        monkeypatch.setattr(ro, "_superposition_solves", counted)
        fast = continuation_count(ch, pot, mu_grid=grid)
        assert len(made) == 1      # grid and walk refinement alike

        monkeypatch.setattr(sp, "interior_in_mu", _one_by_one)
        ref = continuation_count(ch, pot, mu_grid=grid)
        assert fast.n_bound == ref.n_bound == 1
        assert [d for _, d in fast.events] == [d for _, d in ref.events]
        assert all(abs(a - b) <= sp.MU_CROSSING_FLOOR
                   for (a, _), (b, _) in zip(fast.events, ref.events))
        assert np.allclose(np.arctan(fast.A_samples), np.arctan(ref.A_samples),
                           rtol=0.0, atol=1e-7)

    def test_resonant_kernel_point_stays_finite(self, monkeypatch):
        # the moment M forced to make det(Id - mu C M) vanish exactly at
        # mu = mu_star: the energy scan and the threshold samples read finite
        # values there, lanes and scalar solves agree, and A is the limit of A
        # on either side of the resonance
        import qws.radial_ode as ro
        from qws.radial_ode import interior_in_mu
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))
        couple = ro._couple
        mu_star = 1.0
        dets = []

        def resonant(m, ys, dys, coupling, mu):
            m = m.copy()
            m[:, 0, 1] = 1.0 / (mu_star * coupling[0, 0])
            out = couple(m, ys, dys, coupling, mu)
            dets.append(out[-1])
            return out

        monkeypatch.setattr(ro, "_couple", resonant)
        E = np.array([-9.0, -4.0, -1.0])
        vals = sp._scan_values(ch, pot, E, 1.0, 1e-10)
        assert np.array_equal(dets[0], np.zeros(3))
        scalar = _scalar_scan_values(ch, pot, E, 1.0, 1e-10)
        scale = [abs(x) for x in (sp._cutoff_match(ch, pot, float(e), 1.0, 1e-10)[2] for e in E)]
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(scalar))
        assert np.all(np.abs(vals - scalar) <= 1e-8 * np.array(scale))
        for e in E:   # A - h at the resonance against mu_star -+ 1e-9
            at = sp.matching_mismatch(ch, pot, float(e), mu_star, 1e-10)
            for side in (-1e-9, 1e-9):
                near = sp.matching_mismatch(ch, pot, float(e), mu_star + side, 1e-10)
                assert abs(near - at) <= 1e-7 * max(1.0, abs(at))

        mu_star = 0.5
        at = interior_in_mu(ch, pot, -1e-9, 1e-9)
        u, v, max_u = at(np.array([0.5 - 1e-9, 0.5, 0.5 + 1e-9]))
        su, sv, s_max = at(0.5)
        assert dets[-2][1] == dets[-1][0] == 0.0
        assert np.all(np.isfinite([*u, *v, *max_u, su, sv, s_max])) and s_max > 0.0
        assert max(abs(u[1] - su.real), abs(v[1] - sv.real)) <= 1e-8 * s_max
        assert np.all(np.abs(v / u - (sv / su).real) <= 1e-7 * abs(sv / su))
        rep = continuation_count(ch, pot, mu_grid=np.linspace(0.0, 1.0, 5))
        assert np.all(np.isfinite(rep.A_samples))


# the models whose levels the kernel benchmark and bound_states_kernel.cfg
# refine, at the scan sizes they use
KERNEL_LEVEL_CASES = [
    pytest.param(ChannelParams(q=4, l=0),
                 PotentialModel(r0=1.0, kernel=(gaussian_bump(0.35, 0.12),
                                                gaussian_bump(0.7, 0.12)),
                                strengths=(-500.0, -400.0)), 32, id="rank2-kernel"),
    pytest.param(ChannelParams(q=3, l=1),
                 PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,)),
                 400, id="rank1-kernel"),
]
LEVEL_CASES = [pytest.param(ch, PotentialModel(r0=1.0, local=square_well(d)), 400,
                            id=f"lam{ch.lam:g}-V{d:.4g}")
               for ch, d in LANE_SCAN_CASES + [(CH_S, 86.6)]] + KERNEL_LEVEL_CASES


class TestLevelRefinement:
    @pytest.mark.parametrize("ch, pot, n_scan", LEVEL_CASES)
    def test_levels_match_bisection_in_few_solves(self, monkeypatch, ch, pot, n_scan):
        # a local well's solves are its Prufer mismatches F(E), two of them
        # at the ends of the energy range; a kernel's are its M(E) refinements
        tol = 1e-10
        solves = []
        name = "_matching_scan_value" if pot.kernel else "_prufer_mismatch"
        solve = getattr(sp, name)

        def counted(*args):
            solves.append(args[2])
            return solve(*args)

        monkeypatch.setattr(sp, name, counted)
        levels = [s.E for s in find_bound_states(ch, pot, tol=tol, n_scan=n_scan)]
        ends = 0 if pot.kernel else 2
        assert len(solves) - ends <= 12 * len(levels)    # bisection takes 31-35 per level
        monkeypatch.setattr(sp, "refine_root", _bisect_root)
        ref = [s.E for s in find_bound_states(ch, pot, tol=tol, n_scan=n_scan)]
        assert len(levels) == len(ref)
        for E, E_ref in zip(levels, ref):
            assert abs(E - E_ref) <= tol * max(1.0, abs(E_ref))


def test_bound_state_search_leaves_scipy_optimize_unloaded():
    code = textwrap.dedent("""
        import sys
        import qws
        pot = qws.PotentialModel(r0=1.0, local=qws.square_well(39.0))
        assert len(qws.find_bound_states(qws.ChannelParams(q=3, l=0), pot)) == 2
        print("scipy.optimize" in sys.modules)
    """)
    src = str(Path(sp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "False"


class TestEnergyFloor:
    def test_floor_scales_with_the_coupling(self):
        pot = PotentialModel(r0=1.0, local=square_well(10.0))
        assert sp.default_energy_floor(CH_S, pot) == -1.5 * 10.0 - 1.0
        assert sp.default_energy_floor(CH_S, pot.with_mu(5.0)) == -1.5 * 50.0 - 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot, mu=5.0)
        oracle = swave_well_levels(50.0, 1.0)
        assert len(states) == len(oracle) == 2
        for s, E_ref in zip(states, oracle):
            assert abs(s.E - E_ref) <= 1e-8 * abs(E_ref)

    def test_kernel_bound_carries_the_dimension_weight(self):
        # q = 5, r0 = 3: the source g r^2 is about 4 g on the bump at r = 2, so
        # a floor from the bare profile g (-23.6) sits far above the level
        ch = ChannelParams(q=5, l=0)
        pot = PotentialModel(r0=3.0, kernel=(gaussian_bump(2.0, 0.3),), strengths=(-40.0,))
        assert sp.default_energy_floor(ch, pot) < -237.83
        states = find_bound_states(ch, pot, n_scan=16)
        assert len(states) == 1
        assert states[0].E == pytest.approx(-237.83, abs=0.01)
