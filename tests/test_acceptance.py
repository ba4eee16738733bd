"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured figure of merit and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import time

import numpy as np

from qws import specfun
from qws.model import ChannelParams, EnergyValue, effective_equation
from qws.potentials import PotentialModel, gaussian_bump, square_well, truncated_gaussian
from qws.radial_ode import (green_identity_residual, interior_state,
                            make_grid, solve_nonlocal)
from qws.scattering import (hermiticity_residual, low_k_phase_asymptotic,
                            phase_shift, wronskian_pair_jost,
                            wronskian_pair_phi)
from qws.spectral import levinson_verify

from oracles import circ_dist, swave_well_eta, swave_well_levels

CH_S = ChannelParams(q=3, l=0)


class _Clock:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _report(n, name, ok, detail, clock):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {n} ({name}): {detail} [{clock.elapsed:.2f}s]")


def test_criterion_01_wronskian_audits():
    wells = [PotentialModel(r0=1.0, local=square_well(4.0)),
             PotentialModel(r0=1.0, local=truncated_gaussian(3.0, 0.5))]
    worst = 0.0
    with _Clock(10.0) as clock:
        for lam in (0.3, 0.45):
            ch = ChannelParams.from_lambda(lam)
            for pot in wells:
                rep = wronskian_pair_phi(ch, pot, 1.0)
                worst = max(worst, rep.max_abs_deviation / abs(rep.expected))
        for lam in (0.5, 1.5, 2.5):
            ch = ChannelParams.from_lambda(lam)
            for k in (0.5, 1.0, 2.0):
                for pot in wells:
                    rep = wronskian_pair_jost(ch, pot, k)
                    worst = max(worst, rep.max_abs_deviation / abs(rep.expected))
    ok = worst <= 1e-8 and clock.elapsed < 10.0
    _report(1, "wronskian audits", ok, f"max rel deviation {worst:.2e}", clock)
    assert worst <= 1e-8
    assert clock.elapsed < 10.0


def test_criterion_02_lambda_degeneracy():
    pot = PotentialModel(r0=1.0, local=square_well(4.0))
    ch_a = ChannelParams(q=3, l=1)
    ch_b = ChannelParams(q=5, l=0)
    worst = 0.0
    with _Clock(10.0) as clock:
        for k in np.linspace(0.1, 5.0, 50):
            ra = phase_shift(ch_a, pot, float(k), mu_steps=None, with_fit=False)
            rb = phase_shift(ch_b, pot, float(k), mu_steps=None, with_fit=False)
            worst = max(worst, abs(ra.eta_raw - rb.eta_raw))
    ok = worst <= 1e-10 and clock.elapsed < 10.0
    _report(2, "lambda degeneracy", ok, f"max pointwise diff {worst:.2e}", clock)
    assert worst <= 1e-10
    assert clock.elapsed < 10.0


def test_criterion_03_oracle_phase_shifts():
    worst = 0.0
    with _Clock(10.0) as clock:
        for V0 in (1.0, 4.0, 25.0):
            pot = PotentialModel(r0=1.0, local=square_well(V0))
            for k in np.linspace(0.1, 5.0, 50):
                res = phase_shift(CH_S, pot, float(k), mu_steps=None, with_fit=False)
                worst = max(worst, circ_dist(res.eta_raw,
                                             swave_well_eta(float(k), V0, 1.0)))
    ok = worst <= 1e-8 and clock.elapsed < 10.0
    _report(3, "square-well phase oracle", ok, f"max |eta - oracle| {worst:.2e}", clock)
    assert worst <= 1e-8
    assert clock.elapsed < 10.0


def test_criterion_04_low_k_law():
    cases = [(0.5, 4.0), (1.5, 12.0), (2.5, 16.0)]
    worst_slope = 0.0
    worst_agree = 0.0
    with _Clock(10.0) as clock:
        for lam, V0 in cases:
            ch = ChannelParams.from_lambda(lam)
            pot = PotentialModel(r0=1.0, local=square_well(V0))
            eq0 = effective_equation(ch, pot, EnergyValue(E=-1e-12))
            u, v, _ = interior_state(eq0, 1e-11)
            A0 = (v / u).real
            ks = np.geomspace(1e-4, 1e-2, 9)
            tans = [abs(phase_shift(ch, pot, float(k), mu_steps=None,
                                    with_fit=False).tan_eta) for k in ks]
            slope = np.polyfit(np.log(ks), np.log(tans), 1)[0]
            worst_slope = max(worst_slope, abs(slope / (2 * lam) - 1))
            asym = low_k_phase_asymptotic(ch, A0, 1e-3, 1.0)
            full = phase_shift(ch, pot, 1e-3, mu_steps=None, with_fit=False).tan_eta
            worst_agree = max(worst_agree, abs(asym / full - 1))
    ok = worst_slope <= 0.02 and worst_agree <= 0.01 and clock.elapsed < 10.0
    _report(4, "low-k law", ok,
            f"slope err {worst_slope:.2e}, formula agreement {worst_agree:.2e}", clock)
    assert worst_slope <= 0.02
    assert worst_agree <= 0.01
    assert clock.elapsed < 10.0


def test_criterion_05_threshold_limits():
    r0 = 1.0
    kappa = math.sqrt(1e-12)
    worst = 0.0
    with _Clock(1.0) as clock:
        for lam in (0.5, 1.5, 3.5):
            ext = specfun.log_derivative_exterior(lam, kappa, r0)
            intf = specfun.log_derivative_interior_free(lam, kappa, r0)
            worst = max(worst, abs(ext - (0.5 - lam) / r0),
                        abs(intf - (lam + 0.5) / r0))
    # lam = 1/2 sits exactly at the bound: the exterior deviation equals kappa
    tol = 1e-6 + 1e-12
    ok = worst <= tol and clock.elapsed < 1.0
    _report(5, "threshold limits", ok, f"max deviation {worst:.3e}", clock)
    assert worst <= tol
    assert clock.elapsed < 1.0


def test_criterion_06_sturm_liouville():
    from qws.spectral import sturm_liouville_check
    local = PotentialModel(r0=1.0, local=square_well(4.0))
    nonlocal_pot = PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                                  strengths=(-300.0,))
    ch15 = ChannelParams.from_lambda(1.5)
    worst = 0.0
    signs_ok = True
    with _Clock(30.0) as clock:
        for ch, pot, e_grid in ((CH_S, local, np.linspace(-3.0, -0.2, 20)),
                                (ch15, nonlocal_pot, np.linspace(-3.0, -0.5, 20))):
            for E in e_grid:
                rep = sturm_liouville_check(ch, pot, mu=1.0, E=float(E))
                signs_ok &= rep.slope_interior_fd < 0 < rep.slope_exterior_fd
                worst = max(worst,
                            abs(rep.slope_interior_fd / rep.slope_interior_quad - 1),
                            abs(rep.slope_exterior_fd / rep.slope_exterior_quad - 1))
    ok = signs_ok and worst <= 0.01 and clock.elapsed < 30.0
    _report(6, "interior/exterior energy slopes", ok,
            f"signs {'ok' if signs_ok else 'BROKEN'}, max fd-vs-integral {worst:.2e}",
            clock)
    assert signs_ok
    assert worst <= 0.01
    assert clock.elapsed < 30.0


def test_criterion_07_green_identity():
    # widths keep the bump tails below 1e-12 at the cutoff: a visible tail
    # truncated at r0 would leave a first-order quadrature error in the moments
    g1 = gaussian_bump(center=0.35, width=0.10)
    g2 = gaussian_bump(center=0.6, width=0.11)
    sym = PotentialModel(r0=1.0, kernel=(g1, g2), strengths=(-3.0, -2.0))
    anti = PotentialModel(
        r0=1.0,
        kernel=(gaussian_bump(0.35, 0.12, height=2.0),
                gaussian_bump(0.6, 0.15, height=2.0)),
        coupling=((0.0, 100.0), (0.0, 0.0)), allow_asymmetric_kernel=True)
    pairs = [(1.0, 1.3), (0.7, 1.9), (0.4, 2.5), (1.5, 2.0), (2.2, 3.0)]
    grid = make_grid(1.0)
    worst_sym = 0.0
    with _Clock(10.0) as clock:
        for ka, kb in pairs:
            ya = solve_nonlocal(effective_equation(CH_S, sym, EnergyValue.from_k(ka)),
                                grid, 1e-11)
            yb = solve_nonlocal(effective_equation(CH_S, sym, EnergyValue.from_k(kb)),
                                grid, 1e-11)
            worst_sym = max(worst_sym, green_identity_residual(ya, yb))
        ya = solve_nonlocal(effective_equation(CH_S, anti, EnergyValue.from_k(1.0)),
                            grid, 1e-11)
        yb = solve_nonlocal(effective_equation(CH_S, anti, EnergyValue.from_k(1.3)),
                            grid, 1e-11)
        control = green_identity_residual(ya, yb)
    ok = worst_sym <= 1e-8 and control >= 1e-2 and clock.elapsed < 10.0
    _report(7, "bracket-vs-integral identity", ok,
            f"symmetric max {worst_sym:.2e}, asymmetric control {control:.2e}", clock)
    assert worst_sym <= 1e-8
    assert control >= 1e-2
    assert clock.elapsed < 10.0


def test_criterion_08_levinson_corpus():
    corpus = [
        ("well 0 levels", CH_S,
         PotentialModel(r0=1.0, local=square_well(1.0)), 0),
        ("well 1 level", CH_S,
         PotentialModel(r0=1.0, local=square_well(4.0)), 1),
        ("well 2 levels", CH_S,
         PotentialModel(r0=1.0, local=square_well((2 * math.pi) ** 2)), 2),
        ("lam=1.5 well", ChannelParams(q=3, l=1),
         PotentialModel(r0=1.0, local=square_well(12.0)), None),
        ("rank-1 kernel", ChannelParams.from_lambda(1.5),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                        strengths=(-700.0,)), 1),
        ("local+kernel", CH_S,
         PotentialModel(r0=1.0, local=square_well(3.0),
                        kernel=(gaussian_bump(0.5, 0.15),),
                        strengths=(-120.0,)), None),
        ("repulsive rank-1 kernel", ChannelParams.from_lambda(1.5),
         PotentialModel(r0=1.0, kernel=(gaussian_bump(0.5, 0.15),),
                        strengths=(3000.0,)), 0),
    ]
    all_ok = True
    details = []
    with _Clock(120.0) as clock:
        for name, ch, pot, n_expected in corpus:
            rep = levinson_verify(ch, pot, tol=1e-9)
            case_ok = (rep.status == "pass"
                       and abs(rep.eta0 - rep.n_direct * math.pi) <= 1e-2
                       and rep.n_direct == rep.n_continuation)
            if n_expected is not None:
                case_ok &= rep.n_direct == n_expected
            # oracle verification of the square-well counts
            if pot.local is not None and not pot.kernel and ch.lam == 0.5:
                case_ok &= len(swave_well_levels(-pot.local.constant, 1.0)) == rep.n_direct
            all_ok &= case_ok
            details.append(f"{name}: eta0={rep.eta0:.4f} n={rep.n_direct}"
                           f"{'' if case_ok else ' MISMATCH'}")
    ok = all_ok and clock.elapsed < 120.0
    _report(8, "zero-momentum phase vs bound count", ok, "; ".join(details), clock)
    assert all_ok
    assert clock.elapsed < 120.0


def test_criterion_09_hermiticity_lattice():
    pot = PotentialModel(r0=1.0, local=square_well(4.0))
    lattice = (0.5 + 0.3j, 0.5 - 0.3j, 1.5 + 0.5j, 1.5 - 0.5j)
    worst = 0.0
    with _Clock(20.0) as clock:
        for lam in lattice:
            worst = max(worst, hermiticity_residual("phi", lam, 1.0, pot))
            for k in (1.0 + 0.2j, 1.0 - 0.2j):
                worst = max(worst, hermiticity_residual("f", lam, k, pot))
    ok = worst <= 1e-8 and clock.elapsed < 20.0
    _report(9, "conjugation symmetry lattice", ok, f"max residual {worst:.2e}", clock)
    assert worst <= 1e-8
    assert clock.elapsed < 20.0


def test_criterion_10_special_function_suite():
    worst = {"cyl": 0.0, "mod": 0.0, "rec": 0.0, "half": 0.0, "small": 0.0}
    with _Clock(5.0) as clock:
        xs = np.geomspace(1e-3, 1e2, 40)
        for nu in (0.0, 0.5, 1.0, 1.5, 2.7, 10.0):
            for x in xs:
                x = float(x)
                j = specfun.bessel_j(nu, x)
                y = specfun.bessel_y(nu, x)
                w = j.value * y.derivative - j.derivative * y.value
                worst["cyl"] = max(worst["cyl"],
                                   abs(w - 2 / (math.pi * x)) / (2 / (math.pi * x)))
                p = specfun.bessel_i_k(nu, x)
                wm = p.i_scaled * p.k_deriv_scaled - p.i_deriv_scaled * p.k_scaled
                worst["mod"] = max(worst["mod"], abs(wm + 1 / x) * x)
                if nu >= 1.0 and x > 0.01:
                    jm = specfun.bessel_j(nu - 1, x).value
                    jp = specfun.bessel_j(nu + 1, x).value
                    scale = max(abs(jm), abs(j.value), abs(jp), 1e-280)
                    worst["rec"] = max(worst["rec"],
                                       abs(jm + jp - 2 * nu / x * j.value) / scale)
        for x in (0.3, 1.0, 2.5, 8.0):
            amp = math.sqrt(2 / (math.pi * x))
            s, c = math.sin(x), math.cos(x)
            closed = {0.5: amp * s, 1.5: amp * (s / x - c),
                      2.5: amp * ((3 / x ** 2 - 1) * s - 3 * c / x)}
            for nu, ref in closed.items():
                worst["half"] = max(worst["half"],
                                    abs(specfun.bessel_j(nu, x).value - ref)
                                    / max(1e-3, abs(ref)))
        for nu in (0.0, 0.5, 1.5, 3.5, 7.0):
            val = specfun.bessel_j(nu, 1e-4).value
            scaled = val * math.gamma(nu + 1) * (2 / 1e-4) ** nu
            worst["small"] = max(worst["small"], abs(scaled - 1.0))
    ok = (worst["cyl"] <= 1e-9 and worst["mod"] <= 1e-9 and worst["rec"] <= 1e-9
          and worst["half"] <= 1e-12 and worst["small"] <= 1e-6
          and clock.elapsed < 5.0)
    _report(10, "special-function identities", ok,
            f"cyl {worst['cyl']:.1e}, mod {worst['mod']:.1e}, rec {worst['rec']:.1e}, "
            f"half {worst['half']:.1e}, small {worst['small']:.1e}", clock)
    assert worst["cyl"] <= 1e-9
    assert worst["mod"] <= 1e-9
    assert worst["rec"] <= 1e-9
    assert worst["half"] <= 1e-12
    assert worst["small"] <= 1e-6
    assert clock.elapsed < 5.0
