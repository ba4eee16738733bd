"""The Green-function kernel references of oracles.py against the older references."""

import math

import numpy as np
import pytest

from oracles import (circ_dist, kernel_level_near, kernel_phase, kernel_secular,
                     rank1_kernel_level, swave_well_eta, swave_well_levels)


def _bump(c, w):
    return lambda r: np.exp(-((r - c) / w) ** 2)


@pytest.mark.parametrize("lam, strength, bracket", [
    (4.5, -2e4, (-900.0, -800.0)),
    (0.5, -5e4, (-2400.0, -2300.0)),
    (0.5, -1e5, (-4800.0, -4700.0)),
    (1.5, -700.0, (-8.0, -6.5)),
], ids=["l4", "s-wave-5e4", "s-wave-1e5", "p-wave"])
def test_reproduces_the_rank1_trapezoid_reference(lam, strength, bracket):
    # rank1_kernel_level's cumulative trapezoids are good to about 2e-8 (6e-8
    # on the strongest bump)
    ref = rank1_kernel_level(lam, 3, _bump(0.5, 0.15), strength, bracket)
    E = kernel_level_near(lam, 3, 1.0, [_bump(0.5, 0.15)], [[strength]], ref)
    assert abs(E - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("V0, r0", [(39.0, 1.0), (88.0, 1.0), (12.0, 2.0)])
@pytest.mark.parametrize("coupling", [[[0.0]], [[0.0, 0.0], [0.0, 0.0]]], ids=["rank1", "rank2"])
def test_zero_coupling_gives_the_square_well_levels(V0, r0, coupling):
    profiles = [_bump(0.4 * r0, 0.1 * r0), _bump(0.7 * r0, 0.1 * r0)][:len(coupling)]
    levels = swave_well_levels(V0, r0)
    assert levels
    for E_ref in levels:
        E = kernel_level_near(0.5, 3, r0, profiles, coupling, E_ref, depth=V0)
        assert abs(E - E_ref) <= 1e-10 * abs(E_ref)


def test_secular_function_is_finite_at_the_well_levels():
    # W = 0 at a level of the bare well, where G has a pole; W det(Id + C G)
    # stays finite and nonzero there
    (E_loc,) = swave_well_levels(4.0, 1.0)
    F = kernel_secular(0.5, 3, 1.0, [_bump(0.5, 0.15)], [[-30.0]], depth=4.0)
    value = F(E_loc)
    assert math.isfinite(value) and value != 0.0


def test_rule_is_converged():
    # doubling the panels of either rule moves the strongest bump's level by
    # rounding only
    args = (0.5, 3, 1.0, [_bump(0.5, 0.15)], [[-1e5]])
    E = kernel_level_near(*args, -4760.137)
    F2 = kernel_secular(*args, panels=24)
    assert F2(E * (1 + 1e-11)) * F2(E * (1 - 1e-11)) < 0


@pytest.mark.parametrize("k", [0.5, 1.3, 3.0])
def test_kernel_phase_gives_the_square_well_phase_at_zero_coupling(k):
    eta = kernel_phase(0.5, 3, 1.0, [_bump(0.5, 0.15)], [[0.0]], k, depth=3.0)
    assert circ_dist(eta, swave_well_eta(k, 3.0, 1.0)) <= 1e-12


def test_kernel_phase_rule_is_converged():
    # doubling the panels moves the phase of the benchmark's rank-2 pair by rounding only
    args = (1.0, 4, 1.0, [_bump(0.35, 0.12), _bump(0.7, 0.12)],
            [[-500.0, 0.0], [0.0, -400.0]], 3.0)
    assert circ_dist(kernel_phase(*args), kernel_phase(*args, panels=24)) <= 1e-14
