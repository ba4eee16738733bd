import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qws import specfun, spectral as sp
from qws.errors import QwsError
from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import PotentialModel, gaussian_bump, square_well, tabulated
from qws.spectral import (continuation_count, find_bound_states,
                          levinson_verify, matching_mismatch,
                          sturm_liouville_check)
from qws.radial_ode import interior_lanes, interior_state
from qws.roots import refine_root
from qws.scattering import phase_events, real_lambda

from oracles import kernel_level_near, rank1_kernel_level, swave_well_levels

CH_S = ChannelParams(q=3, l=0)


def _bump(c, w):
    """The profile of gaussian_bump(c, w), vectorised for the oracle."""
    return lambda r: np.exp(-((r - c) / w) ** 2)


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

    @pytest.mark.parametrize("E", [math.nan, -math.inf])
    def test_non_finite_energy_rejected(self, E):
        # nan passed the E > 0 test and ended in a StiffnessError
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError, match="finite E <= 0"):
            matching_mismatch(CH_S, pot, E, 1.0)


class TestFindBoundStates:
    def test_nan_lambda_rejected(self):
        # real_lambda's lam <= 0 let NaN through, and the solve ended in
        # StiffnessError: step size underflow
        ch = ChannelParams.from_lambda(math.nan)
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError, match="requires lam > 0"):
            real_lambda(ch)
        with pytest.raises(QwsError, match="requires lam > 0"):
            find_bound_states(ch, pot)

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
    def test_deep_well_keeps_every_level(self, monkeypatch, V0, n_levels):
        # the 400/1600-energy scan found 26 of the 32 levels of V0 = 1e4;
        # Illinois false position took 12.2 and 12.6 F solves per level
        solves = []
        mismatch = sp._prufer_mismatch

        def counted(*args):
            solves.append(args[2])
            return mismatch(*args)

        monkeypatch.setattr(sp, "_prufer_mismatch", counted)
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot)
        oracle = swave_well_levels(V0, 1.0)
        assert len(states) == len(oracle) == n_levels
        for s, E_ref in zip(states, oracle):
            assert abs(s.E - E_ref) <= 1e-8 * abs(E_ref)
        assert len(solves) <= 11 * n_levels

    @pytest.mark.parametrize("n_scan", [None, 3, 32])
    def test_repulsive_kernel_on_a_well_keeps_both_levels(self, n_scan):
        # a repulsive rank-1 kernel on a two-level well: a 32-point energy scan
        # lost both levels (two in one interval), and a 3-point scan warned
        # "0 levels outside the interlacing window [1, 2]" and returned none;
        # the count brackets each level, and n_scan is accepted and ignored
        pot = PotentialModel(r0=1.0, local=square_well(60.0),
                             kernel=(gaussian_bump(0.5, 0.15),), strengths=(300.0,))
        assert [sp._level_count(CH_S, pot, E, 1.0, 1e-10)[0] for E in (-100.0, -1e-9)] == [0, 2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot, n_scan=n_scan)
        assert [round(s.E, 4) for s in states] == [-44.7122, -29.1884]
        for s in states:
            E_ref = kernel_level_near(0.5, 3, 1.0, [_bump(0.5, 0.15)], [[300.0]], s.E, depth=60.0)
            assert abs(s.E - E_ref) <= 1e-9 * abs(E_ref)

    @pytest.mark.parametrize("strength, E_ref", [(-5e4, -2358.10238089), (-1e5, -4760.13723223)])
    def test_strong_rank1_kernel_has_its_one_level(self, strength, E_ref):
        # a rank-1 kernel binds at most one level, but the outward superposition
        # lost its conditioning here: at -5e4 it returned -2319.77 (1.6 % off),
        # at -1e5 -5959.36 (25 % off) and warned "dropped as noise"; the
        # two-sided Green function does not cancel
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(strength,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot)
        n_floor, n_top = (sp._level_count(CH_S, pot, E, 1.0, 1e-10)[0]
                          for E in sp._search_range(CH_S, pot, 1.0, None))
        assert len(states) == n_top - n_floor == 1
        E = kernel_level_near(0.5, 3, 1.0, [_bump(0.5, 0.15)], [[strength]], states[0].E)
        assert abs(E - E_ref) <= 1e-9 * abs(E_ref)
        assert abs(states[0].E - E) <= 1e-7 * abs(E)

    @pytest.mark.parametrize("strength", [-5e4, -1e5])
    def test_strong_rank1_level_is_still_under_panel_doubling(self, monkeypatch, strength):
        import qws.radial_ode as ro
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(strength,))
        (E,) = [s.E for s in find_bound_states(CH_S, pot, tol=1e-13)]
        monkeypatch.setattr(ro, "GREEN_PANELS", 2 * ro.GREEN_PANELS)
        (E2,) = [s.E for s in find_bound_states(CH_S, pot, tol=1e-13)]
        assert abs(E2 - E) <= 1e-10 * abs(E)

    @pytest.mark.parametrize("center, strength", [(0.5, -1e5), (0.4375, -5e4)])
    def test_narrow_kernel_level(self, monkeypatch, center, strength):
        # a bump of width 0.01 on 8 fixed panels of 12 nodes, about one node
        # per width: the levels came out 0.2 % and 54 % off (the second bump
        # mid-panel); the panels now resolve the narrowest kernel width.  The
        # reference takes 48 panels of 16 nodes
        import qws.radial_ode as ro
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(center, 0.01),), strengths=(strength,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (E,) = [s.E for s in find_bound_states(CH_S, pot, tol=1e-13)]
        E_ref = kernel_level_near(0.5, 3, 1.0, [_bump(center, 0.01)], [[strength]], E, panels=48)
        assert abs(E - E_ref) <= 1e-8 * abs(E_ref)
        monkeypatch.setattr(ro, "GREEN_PANELS", 2 * ro.GREEN_PANELS)
        (E2,) = [s.E for s in find_bound_states(CH_S, pot, tol=1e-13)]
        assert abs(E2 - E) <= 1e-10 * max(1.0, abs(E))

    @pytest.mark.parametrize("ch, depth, bumps, strengths, recorded", [
        (CH_S, 60.0, ((0.5, 0.2),), (-40.0,), [-38.446612836037886, -7.243742939617051]),
        (ChannelParams(q=4, l=1), 90.0, ((0.3, 0.2), (0.6, 0.2)), (-40.0, 25.0),
         [-32.291504860382275]),
    ], ids=["s-wave-rank1", "q4-p-wave-rank2"])
    def test_tabulated_well_with_a_kernel(self, monkeypatch, ch, depth, bumps, strengths,
                                          recorded):
        # a well tabulated on 19 rows, V = -depth (1 - r^2), whose knots are
        # panel edges of the Green function's rule; the recorded levels come
        # from the outward superposition, whose Simpson moments are accurate
        # on these wide bumps
        import qws.radial_ode as ro
        r = np.linspace(0.07, 0.97, 19)
        pot = PotentialModel(r0=1.0, local=tabulated(r.tolist(), (-depth * (1 - r ** 2)).tolist()),
                             kernel=tuple(gaussian_bump(c, w) for c, w in bumps),
                             strengths=strengths)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels = [s.E for s in find_bound_states(ch, pot, tol=1e-12)]
        monkeypatch.setattr(ro, "GREEN_PANELS", 2 * ro.GREEN_PANELS)
        doubled = [s.E for s in find_bound_states(ch, pot, tol=1e-12)]
        assert len(levels) == len(doubled) == len(recorded)
        for E, E2, E_ref in zip(levels, doubled, recorded):
            assert abs(E2 - E) <= 1e-10 * abs(E)
            assert abs(E - E_ref) <= 1e-8 * abs(E_ref)

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.inf}, {"tol": math.nan}, {"E_floor": math.nan}, {"E_floor": -math.inf},
        {"E_floor": 0.0}, {"ode_tol": math.inf},
    ], ids=["tol-inf", "tol-nan", "floor-nan", "floor-minus-inf", "floor-zero", "ode-tol-inf"])
    @pytest.mark.parametrize("pot", [
        PotentialModel(r0=1.0, local=square_well(39.0)),
        PotentialModel(r0=1.0, local=square_well(3.0), kernel=(gaussian_bump(0.5, 0.15),),
                       strengths=(-120.0,)),
    ], ids=["well", "well-and-kernel"])
    def test_bad_arguments_raise_qws_error(self, pot, kwargs):
        # tol = inf raised ValueError (math domain error) in the refiner, and
        # E_floor = nan or -inf ended in StiffnessError, after a numpy
        # RuntimeWarning on the kernel path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QwsError) as caught:
                find_bound_states(CH_S, pot, **kwargs)
        assert type(caught.value) is QwsError

    def test_high_partial_wave_kernel_level(self):
        # q = 3, l = 4: each particular solve from (0, 0) at r_min carried about
        # r_min^(2 - l) y_h, and no level came out ("1 levels below E_floor")
        ch = ChannelParams(q=3, l=4)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-2e4,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(ch, pot)
        E_ref = rank1_kernel_level(ch.lam, 3, lambda r: np.exp(-((r - 0.5) / 0.15) ** 2),
                                   -2e4, (-900.0, -800.0))
        assert abs(E_ref + 840.0506) <= 1e-4
        assert len(states) == 1
        assert abs(states[0].E - E_ref) <= 1e-7 * abs(E_ref)

    def test_well_with_a_weak_kernel_keeps_every_level(self):
        # a -1e-9 bump on the 23-level well: the 400- and 1600-energy scans
        # found 21 levels and warned twice
        pot = PotentialModel(r0=1.0, local=square_well(5000.0),
                             kernel=(gaussian_bump(0.5, 0.15),), strengths=(-1e-9,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states = find_bound_states(CH_S, pot)
        oracle = swave_well_levels(5000.0, 1.0)
        assert len(states) == len(oracle) == 23
        for s, E_ref in zip(states, oracle):
            assert abs(s.E - E_ref) <= 1e-8 * abs(E_ref)

    @pytest.mark.parametrize("ch, pot", [
        (ChannelParams(q=3, l=1),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))),
        (ChannelParams(q=4, l=0),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.35, 0.12), gaussian_bump(0.7, 0.12)),
                        strengths=(-500.0, -400.0))),
        (ChannelParams(q=3, l=1),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(700.0,))),
        (CH_S, PotentialModel(r0=1.0, local=square_well(60.0),
                              kernel=(gaussian_bump(0.35, 0.12), gaussian_bump(0.7, 0.12)),
                              coupling=((100.0, -500.0), (-500.0, 100.0)))),
        (CH_S, PotentialModel(r0=1.0, local=square_well(3.0), kernel=(gaussian_bump(0.5, 0.15),),
                              strengths=(-120.0,))),
        (ChannelParams(q=5, l=0),
         PotentialModel(r0=3.0, kernel=(gaussian_bump(2.0, 0.3),), strengths=(-40.0,))),
    ], ids=["p-wave-rank1", "rank2-q4", "repulsive-rank1", "well-and-indefinite-offdiagonal",
            "well-and-kernel", "q5-r0-3"])
    def test_level_count_steps_by_one_at_each_level(self, ch, pot):
        # N(E) = N_loc + n_+(K^-1 + G) - n_+(K) reads 0 at the floor, j at
        # the midpoint between levels j and j + 1, and n at the top of the
        # range (also half-way from the floor to the first level and from
        # the last level to the top)
        E_floor, E_top = sp._search_range(ch, pot, 1.0, None)
        ends = [E_floor] + [s.E for s in find_bound_states(ch, pot)] + [E_top]
        probes = [E_floor] + [0.5 * (a + b) for a, b in zip(ends, ends[1:])] + [E_top]
        counts = [sp._level_count(ch, pot, E, 1.0, 1e-10)[0] for E in probes]
        n = len(ends) - 2
        assert counts == [0] + list(range(n + 1)) + [n]

    def test_zero_coupling_kernel_is_searched_as_its_well(self):
        # a kernel whose couplings all vanish does not act, so the well is
        # counted by Sturm, not scanned: the 400-energy scan found 21 of 23
        bare = PotentialModel(r0=1.0, local=square_well(5000.0))
        idle = PotentialModel(r0=1.0, local=square_well(5000.0),
                              kernel=(gaussian_bump(0.5, 0.15),), strengths=(0.0,))
        levels = [s.E for s in find_bound_states(CH_S, idle)]
        assert len(levels) == 23
        assert levels == [s.E for s in find_bound_states(CH_S, bare)]


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
        # false position alone creeps in from one end here (about 260
        # evaluations for x^9), and an inverse-quadratic step is no better
        # where its fit is not monotone; the bisection steps bound the
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

    @settings(max_examples=200, deadline=None)
    @given(root=st.floats(-50.0, 50.0), below=st.floats(1e-3, 60.0),
           above=st.floats(1e-3, 60.0), linear=st.floats(1e-3, 1e3),
           cubic=st.floats(0.0, 1e2), rate=st.floats(0.0, 5.0),
           tol=st.sampled_from([1e-12, 1e-10, 1e-8, 1e-6]))
    def test_contract_on_monotone_smooth_functions(self, root, below, above, linear,
                                                   cubic, rate, tol):
        # f rises through its one root: a line, a cubic and an exponential
        # term, each weighted at random
        def f(x):
            d = x - root
            return linear * d + cubic * d ** 3 + math.expm1(rate * d)

        a, b = root - below, root + above
        x, (lo, hi), n = _refined(f, a, b, tol)
        assert a <= lo < hi <= b
        assert hi - lo <= tol * max(1.0, abs(x))
        assert n <= 2 + 2 * _bisection_steps(a, b, tol)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300, 5e-324])
    @pytest.mark.parametrize("root, a, b", [
        (0.3, 0.0, 1.0), (0.7, 0.0, 1.0), (2.0 / 3.0, -10.0, 10.0), (-7.25, -40.0, -1.0),
    ])
    def test_tolerance_below_the_spacing_closes_on_adjacent_doubles(self, root, a, b, tol):
        # 1e-17 repeated one trial point, clamped onto an end, past 3000
        # evaluations; 1e-300 and 5e-324 overflowed the bisection budget
        # 2.0 ** (steps_left - 1) with an OverflowError
        seen = []

        def f(x):
            assert len(seen) < 200, "the bracket stopped closing"
            seen.append(x)
            return x - root

        lo, hi = refine_root(f, a, a - root, b, b - root, tol)
        assert lo <= root <= hi and math.nextafter(lo, math.inf) == hi
        assert len(set(seen)) == len(seen) and a < min(seen) and max(seen) < b

    def test_tolerance_below_the_spacing_near_zero_keeps_the_relative_floor(self):
        # tol max(1, |midpoint|) stays the width where it exceeds the spacing
        lo, hi = refine_root(lambda x: x - 1e-20, 0.0, -1e-20, 1.0, 1.0, 1e-17)
        assert lo <= 1e-20 <= hi and hi - lo <= 1e-17
        lo, hi = refine_root(lambda x: x - 1e-20, 0.0, -1e-20, 1.0, 1.0, 1e-300)
        assert lo <= 1e-20 <= hi and math.nextafter(lo, math.inf) == hi

    def test_nan_end_value_raises(self):
        # it returned (0.0, nan) without an error
        with pytest.raises(QwsError, match="NaN"):
            refine_root(lambda x: x - 0.5, 0.0, -0.5, 1.0, math.nan, 1e-10)

    def test_nan_trial_value_raises(self):
        f = lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5  # noqa: E731
        with pytest.raises(QwsError, match="NaN"):
            refine_root(f, 0.0, f(0.0), 1.0, f(1.0), 1e-10)

    @pytest.mark.parametrize("a, fa, b, fb", [
        (0.0, -0.5, 1.0, math.inf), (1.0, math.inf, 0.0, -0.5), (0.0, -math.inf, 1.0, 0.5),
    ], ids=["+inf-at-b", "+inf-at-a", "-inf-at-a"])
    def test_infinite_end_value_counts_by_its_sign(self, a, fa, b, fb):
        # the secant through an infinite value is inf/inf: it returned (0.0, nan)
        lo, hi = refine_root(lambda x: x - 0.5, a, fa, b, fb, 1e-10)
        assert lo <= 0.5 <= hi and hi - lo <= 1e-10

    def test_zero_at_both_ends_is_bisected(self):
        # the secant through two zeros divided by zero
        lo, hi = refine_root(lambda x: x * (x - 1.0), 0.0, 0.0, 1.0, 0.0, 1e-10)
        assert 0.0 <= lo < hi <= 1.0 and hi - lo <= 1e-10

    def test_huge_end_values_interpolate_without_nan(self):
        # the secant's a f(b) - b f(a) overflows to inf - inf = nan here
        f = lambda x: 5e307 * x  # noqa: E731
        lo, hi = refine_root(f, -2.0, f(-2.0), 2.0, f(2.0), 1e-10)
        assert lo <= 0.0 <= hi and hi - lo <= 1e-10

    def test_infinite_trial_value_counts_by_its_sign(self):
        # a pole below the root: the value there is -inf, and no fit may take it in
        f = lambda x: -math.inf if x < 0.4 else x - 0.5  # noqa: E731
        x, (lo, hi), n = _refined(f, 0.0, 1.0)
        assert lo <= 0.5 <= hi and hi - lo <= 1e-10
        assert n <= 2 + 2 * _bisection_steps(0.0, 1.0, 1e-10)


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

    @pytest.mark.parametrize("E", [math.nan, -math.inf])
    def test_non_finite_energy_rejected(self, E):
        # nan took the default step and ended in a StiffnessError
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError, match="E must be finite"):
            sturm_liouville_check(CH_S, pot, 1.0, E)


@pytest.mark.parametrize("ch, pot", [
    (CH_S, PotentialModel(r0=1.0, local=square_well(4.0))),
    (ChannelParams.from_lambda(1.5),
     PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))),
], ids=["square-well", "rank1-kernel"])
def test_no_solve_steps_past_the_cutoff(monkeypatch, ch, pot):
    # a level's state and the Sturm slope's quadrature were solved on the full
    # grid, whose exterior was integrated outward to 2 r0 and then discarded
    import qws.radial_ode as ro
    past = []
    integrate = ro._integrate

    def watched(qfun, r_start, u0, v0, record, *args, **kwargs):
        if max(r_start, float(np.max(record))) > pot.r0:
            past.append(r_start)
        return integrate(qfun, r_start, u0, v0, record, *args, **kwargs)

    monkeypatch.setattr(ro, "_integrate", watched)
    states = find_bound_states(ch, pot)
    sturm_liouville_check(ch, pot, mu=1.0, E=-1.5)
    assert states and not past
    grid = states[0].solution.grid
    assert grid.r_max == 2.0 * pot.r0 and len(grid.nodes) > grid.i_cutoff + 1
    assert np.all(np.isfinite(states[0].solution.y))


def _scalar_tail(state, r0):
    """The exterior (y, dy) of a level, node by node from the scalar K, matched at r0."""
    lam = real_lambda(state.channel, "test")
    kappa, sol = state.kappa, state.solution
    i0 = sol.grid.i_cutoff
    k0 = specfun._ik(lam, kappa * r0)[2]
    scale = sol.y[i0].real / (math.sqrt(r0) * k0)
    y, dy = [], []
    for r in sol.grid.nodes[i0 + 1:].tolist():
        _, _, k, dk = specfun._ik(lam, kappa * r)
        damp = math.exp(-kappa * (r - r0))
        y.append(scale * math.sqrt(r) * k * damp)
        dy.append(scale * damp * (0.5 / math.sqrt(r) * k + math.sqrt(r) * kappa * dk))
    return np.array(y), np.array(dy)


class TestExteriorTail:
    WELL_KERNEL = PotentialModel(r0=1.0, local=square_well(3.0),
                                 kernel=(gaussian_bump(0.5, 0.15),), strengths=(-118.0,))

    @pytest.mark.parametrize("ch, pot, kappas", [
        (CH_S, PotentialModel(r0=1.0, local=square_well(89.8)), (9.04, 7.61, 4.49)),
        (ChannelParams(q=4, l=0), PotentialModel(r0=1.0, local=square_well(40.545)), (5.45, 2.5)),
        (CH_S, WELL_KERNEL, (1.19,)),            # nodes straddle x = 2
    ], ids=["swave-3-levels", "lam1", "well+kernel"])
    def test_tail_is_the_scalar_tail(self, ch, pot, kappas):
        states = find_bound_states(ch, pot)
        assert [round(s.kappa * pot.r0, 2) for s in states] == list(kappas)
        for state in states:
            i0 = state.solution.grid.i_cutoff
            y, dy = _scalar_tail(state, pot.r0)
            assert np.max(abs(state.solution.y[i0 + 1:] - y) / abs(y)) <= 1e-12
            assert np.max(abs(state.solution.dy[i0 + 1:] - dy) / abs(dy)) <= 1e-12

    @pytest.mark.parametrize("ch, pot", [
        (CH_S, PotentialModel(r0=1.0, local=square_well(89.8))),
        (CH_S, WELL_KERNEL),
    ], ids=["swave-3-levels", "well+kernel"])
    def test_one_scalar_pair_per_energy_and_level(self, monkeypatch, ch, pot):
        # the tail once took one bessel_i_k per exterior node, 160 per level
        calls, counts = [], []
        pair, count = specfun.bessel_i_k, sp._level_count

        def counted_pair(*args):
            calls.append(args)
            return pair(*args)

        def counted_count(*args):
            counts.append(args)
            return count(*args)

        monkeypatch.setattr(specfun, "bessel_i_k", counted_pair)
        monkeypatch.setattr(sp, "_level_count", counted_count)
        states = find_bound_states(ch, pot)
        assert states and len(calls) <= len(counts) + len(states)

    def test_deep_level_tail_past_the_scalar_envelope(self):
        # kappa r reaches 1020 at 2 r0, past the scalar pair's x <= 1e3,
        # where the tail of the deepest level of square_well(2.6e5) raised
        pot = PotentialModel(r0=1.0, local=square_well(3e5))
        state = sp._build_bound_state(CH_S, pot, -2.6e5, 1.0, 1e-10)
        i0 = state.solution.grid.i_cutoff
        tail = state.solution.y[i0 + 1:], state.solution.dy[i0 + 1:]
        assert state.kappa * state.solution.grid.r_max > 1e3
        assert np.all(np.isfinite(tail[0])) and np.all(np.isfinite(tail[1]))
        for got, want in zip(tail, _scalar_tail(state, pot.r0)):
            assert np.max(abs(got - want) / abs(want)) <= 1e-12


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

    def test_deep_well_keeps_crossings_that_share_a_grid_step(self):
        # the s-wave 1e4 well's first thresholds, mu* = 2.47e-4 and 2.22e-3,
        # share the default grid's first step [0, 0.005], over which theta
        # turns by about 2 pi; the walk splits that step in sqrt(mu)
        V0 = 1e4
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = continuation_count(CH_S, pot)
        assert (rep.n_bound, rep.n_down, rep.n_up) == (32, 32, 0)
        assert len(rep.A_samples) == len(rep.mu_grid) == 201
        assert rep.eta0_staircase[-1] == pytest.approx(32 * math.pi)
        found = sorted(m for m, _ in rep.events)
        for j, m in enumerate(found[:3]):
            assert abs(m - (j + 0.5) ** 2 * math.pi ** 2 / V0) <= sp.MU_CROSSING_FLOOR

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

    @pytest.mark.parametrize("kernel, grid", [
        (False, [0.0, math.nan, 1.0]), (False, [0.0, math.inf]), (False, [0.0, 1.0, 0.5]),
        (False, [0.0, 0.5, 0.5, 1.0]), (True, [0.0, math.nan, 1.0]),
    ], ids=["nan", "inf", "not-monotone", "repeated", "nan-kernel"])
    def test_bad_grid_rejected(self, kernel, grid):
        # nan and inf ended in a StiffnessError on the well and a ValueError on
        # the pure kernel; [0, 1, 0.5] was walked as if it were monotone
        ch, pot = ((ChannelParams(q=3, l=1), PotentialModel(
            r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,)))
            if kernel else (CH_S, PotentialModel(r0=1.0, local=square_well(10.0))))
        with pytest.raises(QwsError, match="finite and strictly monotone"):
            continuation_count(ch, pot, mu_grid=grid)

    @pytest.mark.parametrize("grid", [[], [[0.0, 1.0]]], ids=["empty", "2-d"])
    def test_grid_must_be_one_dimensional(self, grid):
        # [] ended in an IndexError and [[0, 1]] in a ValueError
        pot = PotentialModel(r0=1.0, local=square_well(10.0))
        with pytest.raises(QwsError, match="one-dimensional and start at 0"):
            continuation_count(CH_S, pot, mu_grid=grid)

    def test_grid_may_run_downwards(self):
        # a barrier turned into a well by mu < 0 gains its level on [0, -1]
        pot = PotentialModel(r0=1.0, local=square_well(-10.0))
        assert continuation_count(CH_S, pot, mu_grid=np.linspace(0.0, -1.0, 41)).n_bound == 1


class TestStaircasePhaseConsistency:
    def test_event_locations_agree_between_detectors(self):
        # A-crossing detector vs branch jumps of the small-k phase continuation
        V0 = (2 * math.pi) ** 2
        pot = PotentialModel(r0=1.0, local=square_well(V0))
        rep = continuation_count(CH_S, pot, tol=1e-9)
        events = phase_events(CH_S, pot, 1e-4, mu=1.0, tol=1e-9)
        assert len(events) == len(rep.events)
        for (mu_phase, d_phase), (mu_cross, d_cross) in zip(events, rep.events):
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

    def test_counts_a_kernel_without_a_scan(self, monkeypatch):
        # the count is N(E_top) - N(E_floor): two kernel points, one at each
        # end of the range, where a 400-energy lanes scan once counted sign
        # brackets
        import qws.radial_ode as ro

        def unused(*args, **kwargs):
            raise AssertionError("levinson_verify scanned or refined")

        points = []
        point = sp._kernel_point

        def counted(channel, potential, E, *args, **kwargs):
            points.append(E)
            return point(channel, potential, E, *args, **kwargs)

        monkeypatch.setattr(sp, "refine_root", unused)
        monkeypatch.setattr(ro, "interior_lanes", unused)
        monkeypatch.setattr(sp, "_kernel_point", counted)
        ch = ChannelParams(q=3, l=1)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))
        rep = levinson_verify(ch, pot, tol=1e-9)
        assert rep.passed and rep.n_direct == rep.n_continuation == 1
        assert points == list(sp._search_range(ch, pot, pot.mu, None))

    @pytest.mark.parametrize("tol_eta", [math.inf, math.nan, -1.0, 0.0])
    def test_bad_eta_tolerance_raises_qws_error(self, tol_eta):
        # inf returned "pass" whatever eta0 was, and nan or -1 returned "fail"
        pot = PotentialModel(r0=1.0, local=square_well(4.0))
        with pytest.raises(QwsError, match="tol_eta must be positive and finite"):
            levinson_verify(CH_S, pot, tol_eta=tol_eta)

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

    def test_low_k_events_take_their_direction_from_d_and_p(self):
        # at lam = 2.5 and k = 1e-4 tan eta ~ (k r0)^5 is below double
        # precision, so a placed theta steps by exactly pi at an event and
        # its nearest 2 pi branch was a rounding tie: the first two models
        # gave eta0 = -pi and pi against 1 and 3 levels ("fail").  The
        # two-bump model flipped an event when only th0 was made exact; the
        # s-wave one, when d took the sign of P from one bracket end alone
        def model(depth, *bumps):
            return PotentialModel(r0=1.0, local=square_well(depth) if depth else None,
                                  kernel=tuple(gaussian_bump(c, w) for c, w, _ in bumps),
                                  strengths=tuple(s for *_, s in bumps))

        ch_d = ChannelParams(q=3, l=2)
        for ch, pot, n in [
            (ch_d, model(0.0, (0.5, 0.15, -3000.0)), 1),
            (ch_d, model(114.943, (0.343121, 0.120363, -2599.04)), 3),
            (ch_d, model(123.16, (0.702, 0.13, -1119.7), (0.339, 0.163, 1374.3)), 2),
            (CH_S, model(120.338, (0.623673, 0.143661, 1612.51)), 3),
        ]:
            rep = levinson_verify(ch, pot)
            assert rep.passed and rep.n_direct == rep.n_continuation == n
            assert abs(rep.eta0 - n * math.pi) <= 1e-6

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
    """M(E) = y'(r0) - h(E) y(r0), one scalar solve per energy: the reference for the lanes."""
    values = []
    for E in grid_E:
        eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=float(E)))
        u, v, _ = interior_state(eq, tol)
        values.append((v - sp._exterior_logderiv(channel.lam, float(E), potential.r0) * u).real)
    return np.array(values)


def _sign_brackets(grid_E, vals):
    """Sign-change brackets of values on an energy grid; an exact zero is its own bracket."""
    return [(float(grid_E[j]), float(grid_E[j if vals[j] == 0.0 else j + 1]))
            for j in range(len(grid_E) - 1) if vals[j] == 0.0 or vals[j] * vals[j + 1] < 0]


def _lane_scan_values(channel, potential, grid_E, mu, tol):
    """M(E) = y'(r0) - h(E) y(r0) of a local well, every energy as a lane."""
    u, v, _ = interior_lanes(channel, potential, grid_E, mu, tol)
    lam = channel.lam
    return v - np.array([sp._exterior_logderiv(lam, float(E), potential.r0) for E in grid_E]) * u


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
        # a 400-energy scan of M on local wells, as lanes and as one scalar
        # solve per energy: every value has the same sign, and the sign
        # changes are the levels
        pot = PotentialModel(r0=1.0, local=square_well(depth))
        floor = sp.default_energy_floor(ch, pot)
        grid_E = -np.geomspace(abs(floor), 1e-11 * max(1.0, abs(floor)), 400)
        lanes = _lane_scan_values(ch, pot, grid_E, 1.0, 1e-9)
        scalar = _scalar_scan_values(ch, pot, grid_E, 1.0, 1e-9)
        assert np.array_equal(np.sign(lanes), np.sign(scalar))
        brackets = _sign_brackets(grid_E, lanes)
        assert brackets == _sign_brackets(grid_E, scalar)
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
        solves = ro._kernel_point

        def counted(channel, potential, E, *args, **kwargs):
            made.append(E)
            return solves(channel, potential, E, *args, **kwargs)

        monkeypatch.setattr(ro, "_kernel_point", counted)
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
        # mu = mu_star: energy lanes and the threshold samples read finite
        # values there, lanes and scalar solves agree, and A is the limit of A
        # on either side of the resonance
        import qws.radial_ode as ro
        from qws.radial_ode import interior_in_mu
        ch = ChannelParams.from_lambda(1.5)
        pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,))
        couple = ro._couple
        mu_star = 1.0
        dets = []

        def resonant(M, m_h, coupling, mu):
            M = M.copy()
            M[:, 0, 0] = 1.0 / (mu_star * coupling[0, 0])
            out = couple(M, m_h, coupling, mu)
            dets.append(out[-1])
            return out

        monkeypatch.setattr(ro, "_couple", resonant)
        E = np.array([-9.0, -4.0, -1.0])
        u, v, _ = interior_lanes(ch, pot, E, 1.0, 1e-10)
        vals = v - np.array([sp._exterior_logderiv(ch.lam, float(e), 1.0) for e in E]) * u
        assert np.array_equal(dets[0], np.zeros(3))
        scalar = _scalar_scan_values(ch, pot, E, 1.0, 1e-10)
        scale = [interior_state(effective_equation(ch, pot, EnergyValue(E=float(e))), 1e-10)[2]
                 for e in E]
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


# the models whose levels the kernel benchmark and bound_states_kernel.cfg refine
KERNEL_LEVEL_CASES = [
    pytest.param(ChannelParams(q=4, l=0),
                 PotentialModel(r0=1.0, kernel=(gaussian_bump(0.35, 0.12),
                                                gaussian_bump(0.7, 0.12)),
                                strengths=(-500.0, -400.0)), id="rank2-kernel"),
    pytest.param(ChannelParams(q=3, l=1),
                 PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),), strengths=(-700.0,)),
                 id="rank1-kernel"),
]
LEVEL_CASES = [pytest.param(ch, PotentialModel(r0=1.0, local=square_well(d)),
                            id=f"lam{ch.lam:g}-V{d:.4g}")
               for ch, d in LANE_SCAN_CASES + [(CH_S, 86.6)]] + KERNEL_LEVEL_CASES


class TestLevelRefinement:
    @pytest.mark.parametrize("ch, pot", LEVEL_CASES)
    def test_levels_match_bisection_in_few_solves(self, monkeypatch, ch, pot):
        # a local well's solves are its Prufer mismatches F(E), two of them
        # at the ends of the energy range; a kernel's are its counts (one
        # Green matrix each), the two at the ends among them
        tol = 1e-10
        solves = []
        name = "_level_count" if pot.kernel else "_prufer_mismatch"
        solve = getattr(sp, name)

        def counted(*args):
            solves.append(args[2])
            return solve(*args)

        monkeypatch.setattr(sp, name, counted)
        levels = [s.E for s in find_bound_states(ch, pot, tol=tol)]
        ends = 0 if pot.kernel else 2
        assert len(solves) - ends <= 12 * len(levels)    # bisection takes 31-35 per level
        monkeypatch.setattr(sp, "refine_root", _bisect_root)
        ref = [s.E for s in find_bound_states(ch, pot, tol=tol)]
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
