import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qws.errors import QwsError
from qws.model import (ChannelParams, EnergyValue, centrifugal_coefficient,
                       effective_equation, lambda_of, radial_coefficient,
                       reduce_wavefunction, unreduce_wavefunction)
from qws.potentials import (PotentialModel, gaussian_bump, square_well,
                            truncated_gaussian)


def test_lambda_of_values():
    assert lambda_of(3, 0) == 0.5
    assert lambda_of(2, 0) == 0.0
    assert lambda_of(5, 0) == 1.5
    assert lambda_of(3, 1) == 1.5
    assert lambda_of(5, 0) == lambda_of(3, 1)


def test_lambda_of_complex():
    lam = lambda_of(3 + 0.6j, 0.0)
    assert lam == 0.5 + 0.3j


def test_centrifugal_values():
    assert centrifugal_coefficient(0.5) == 0.0
    assert centrifugal_coefficient(1.5) == 2.0
    assert centrifugal_coefficient(1.7) == centrifugal_coefficient(-1.7)


@pytest.mark.parametrize("q", range(2, 9))
@pytest.mark.parametrize("l", range(0, 6))
def test_centrifugal_consistency_sweep(q, l):
    # the completed-square form must agree with l(l+q-2) + (q^2-4q+3)/4
    lam = lambda_of(q, l)
    direct = l * (l + q - 2) + (q * q - 4 * q + 3) / 4
    assert abs(centrifugal_coefficient(lam) - direct) <= 1e-13 * max(1.0, abs(direct))


def test_reduction_special_dimensions():
    r = np.linspace(0.1, 3.0, 7)
    psi = np.cos(r)
    assert np.allclose(reduce_wavefunction(r, psi, 1), psi, rtol=0, atol=0)
    assert np.allclose(reduce_wavefunction(r, psi, 3), r * psi, rtol=1e-15)
    assert np.allclose(reduce_wavefunction(r, psi, 2), np.sqrt(r) * psi, rtol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    q=st.floats(min_value=1.0, max_value=9.0, allow_nan=False),
    scale=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=2, max_value=40),
)
def test_reduction_round_trip(q, scale, n):
    r = np.linspace(0.05, 4.0, n)
    psi = np.sin(r) * math.exp(scale)
    back = unreduce_wavefunction(r, reduce_wavefunction(r, psi, q), q)
    assert np.max(np.abs(back - psi)) <= 1e-14 * np.max(np.abs(psi))


def test_reduction_rejects_nonpositive_grid():
    with pytest.raises(QwsError):
        reduce_wavefunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 3)


def test_channel_spectral_guard():
    assert ChannelParams(q=3, l=0).spectral_ok
    assert not ChannelParams(q=2, l=0).spectral_ok
    assert not ChannelParams(q=3 + 1j, l=0).spectral_ok


def test_energy_value():
    e = EnergyValue.from_k(2.0)
    assert e.E == 4.0 and e.k == 2.0
    b = EnergyValue(E=-2.25)
    assert b.kappa == 1.5
    with pytest.raises(QwsError):
        _ = b.k
    with pytest.raises(QwsError):
        _ = e.kappa


def test_effective_equation_free():
    ch = ChannelParams(q=3, l=0)
    eq = effective_equation(ch, PotentialModel(r0=1.0), EnergyValue.from_k(1.0))
    for r in (0.1, 0.5, 1.0, 1.7):
        assert eq.coefficient(r) == 1.0  # centrifugal term vanishes at lam = 1/2


def test_effective_equation_centrifugal_value():
    ch = ChannelParams.from_lambda(1.5)
    eq = effective_equation(ch, PotentialModel(r0=1.0), EnergyValue.from_k(2.0))
    assert eq.coefficient(1.0) == 4.0 - 2.0


def test_mu_zero_matches_free_bitwise():
    ch = ChannelParams(q=3, l=1)
    pot = PotentialModel(r0=1.0, local=square_well(7.0), mu=0.0)
    eq = effective_equation(ch, pot, EnergyValue.from_k(1.3))
    eq_free = effective_equation(ch, PotentialModel(r0=1.0), EnergyValue.from_k(1.3))
    for r in np.linspace(0.01, 2.0, 37):
        assert eq.coefficient(r) == eq_free.coefficient(r)
    assert eq.sources == ()


@pytest.mark.parametrize("local", [None, square_well(7.0), truncated_gaussian(5.0, 0.4)],
                         ids=["free", "square", "gaussian"])
def test_lane_coefficients_are_the_scalar_coefficients(local):
    # one function makes both: lane (i, j) is bitwise Q of the equation at (mu_i, E_j)
    ch = ChannelParams(q=3, l=1)
    pot = PotentialModel(r0=1.0, local=local)
    E = np.array([-5.0, 0.0, 2.5])
    mu = np.array([[0.0], [0.7], [-1.0]])
    lanes = radial_coefficient(ch.lam, E, mu, pot)
    for r in (0.01, 0.5, 0.999, 1.0, 1.7):
        q = np.broadcast_to(lanes(r), (3, 3))
        for i, m in enumerate(mu[:, 0]):
            for j, e in enumerate(E):
                eq = effective_equation(ch, pot.with_mu(m), EnergyValue(E=float(e)))
                assert q[i, j] == eq.coefficient(r)


def test_lambda_evenness_bitwise():
    pot = PotentialModel(r0=1.0, local=square_well(3.0))
    e = EnergyValue.from_k(0.8)
    for lam in (0.5, 1.3, 2.5):
        qp = effective_equation(ChannelParams.from_lambda(lam), pot, e).coefficient
        qm = effective_equation(ChannelParams.from_lambda(-lam, q=3), pot, e).coefficient
        for r in np.linspace(0.02, 1.9, 23):
            assert qp(r) == qm(r)


def test_q_l_degeneracy_bitwise():
    pot = PotentialModel(r0=1.0, local=square_well(5.0))
    e = EnergyValue.from_k(1.0)
    qa = effective_equation(ChannelParams(q=3, l=1), pot, e).coefficient
    qb = effective_equation(ChannelParams(q=5, l=0), pot, e).coefficient
    for r in np.linspace(0.01, 2.0, 41):
        assert qa(r) == qb(r)


def test_kernel_guards():
    bump = gaussian_bump(center=0.5, width=0.1)
    pot = PotentialModel(r0=1.0, kernel=(bump,), strengths=(-1.0,))
    with pytest.raises(QwsError):
        effective_equation(ChannelParams(q=2, l=0), pot, EnergyValue.from_k(1.0))
    with pytest.raises(QwsError):
        effective_equation(ChannelParams(q=3 + 0.5j, l=0), pot,
                           EnergyValue.from_k(1.0))


def test_kernel_source_carries_dimension_weight():
    bump = gaussian_bump(center=0.5, width=0.1)
    pot = PotentialModel(r0=1.0, kernel=(bump,), strengths=(-1.0,))
    e = EnergyValue.from_k(1.0)
    s3 = effective_equation(ChannelParams(q=3, l=1), pot, e).sources[0]
    s5 = effective_equation(ChannelParams(q=5, l=0), pot, e).sources[0]
    r = 0.4
    assert math.isclose(s3(r), bump.profile(r) * r, rel_tol=1e-15)
    assert math.isclose(s5(r), bump.profile(r) * r ** 2, rel_tol=1e-15)
    # compact support beyond r0; at r0 itself the source takes its interior limit
    assert s3(math.nextafter(1.0, 2.0)) == 0.0 and s3(1.5) == 0.0
    assert s3(1.0) == bump.profile(1.0) * 1.0


def test_potential_model_invariants():
    pot = PotentialModel(r0=2.0, local=square_well(3.0),
                         kernel=(gaussian_bump(1.0, 0.2),), strengths=(-4.0,))
    assert pot.local_value(1.9) == -3.0
    assert pot.local_value(2.0) == 0.0
    assert pot.kernel_value(1.0, 2.1) == 0.0
    assert pot.kernel_value(0.8, 1.2) == pot.kernel_value(1.2, 0.8)
    with pytest.raises(QwsError):
        PotentialModel(r0=-1.0)
    with pytest.raises(QwsError):
        PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.1),), strengths=())
    with pytest.raises(QwsError):
        PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.1),) * 2,
                       coupling=((0.0, 1.0), (0.0, 0.0)))


@pytest.mark.parametrize("r0, mu", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan),
                                    (1.0, math.inf)],
                         ids=["r0-inf", "r0-nan", "mu-nan", "mu-inf"])
def test_non_finite_cutoff_or_coupling_rejected(r0, mu):
    # through the API these reached the solver and came back as NaN
    with pytest.raises(QwsError):
        PotentialModel(r0=r0, local=square_well(4.0), mu=mu)
    if math.isfinite(r0):
        with pytest.raises(QwsError):
            PotentialModel(r0=r0, local=square_well(4.0)).with_mu(mu)


def test_truncated_gaussian_vanishes_where_its_square_overflows():
    # (r / w) ** 2 raised OverflowError once r / w passed about 1e154
    # (width = 1e-300); below that the profile is the formula, bit for bit
    d, w = 30.0, 0.6
    g = truncated_gaussian(d, w)
    for r in np.linspace(1e-6, 1.0, 97):
        assert g.profile(float(r)) == -d * math.exp(-(float(r) / w) ** 2)
    tiny = truncated_gaussian(4.0, 1e-300)
    assert tiny.profile(0.0) == -4.0
    assert tiny.profile(1e-145) == 0.0 and tiny.profile(0.5) == 0.0 and tiny.profile(1.0) == 0.0
