"""Scattering-side observables: Wronskian and conjugation audits, log-derivative
extraction at the cutoff, and phase shifts.

The phase shift eta(k, mu) is defined modulo pi by the cutoff matching

    tan eta = [ (A - 1/2r0) J - k J' ] / [ (A - 1/2r0) N - k N' ]      (at k r0)

and made single-valued by continuation in the coupling scale mu from the
free system, where eta(k, 0) = 0: eta = theta(mu) - theta(0), with theta
the continuous angle of the never-vanishing pair (KN, KJ) = L (y, y')(r0).
L is a fixed linear map per k, so nodes of y at the cutoff (poles of A)
need no special casing.

Two routes compute the continuous theta.  For local potentials, the
homotopy over (r, mu) carries the Prufer angle of (y, y') along r through
L, so one integration with a winding count gives theta at any mu without
a path in mu (Prufer, Math. Ann. 95 (1926) 499); one more at mu = 0 gives
theta(0).  Branch events (eta through half-integer multiples of pi) are
then bisected between such absolute samples; for a one-signed well eta is
monotone in mu (Calogero's variable-phase relation
d eta/d mu = -(1/k) int V y^2 dr), so {0, mu} is a complete starting
partition.  Kernel potentials are continued along a uniform mu grid with
bisection across jumps, since coupling resonances break the homotopy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import specfun
from .errors import (GridMismatchError, NearThresholdResonanceError,
                     NodeAtCutoffError, QwsError)
from .model import ChannelParams, EnergyValue, effective_equation
from .potentials import PotentialModel
from .radial_ode import (RadialGrid, RadialSolution, frobenius_start,
                         integrate_jost, integrate_regular, interior_state,
                         make_grid, make_scan_grid, solve_nonlocal, _integrate)

MU_STEPS_DEFAULT = 200       # uniform continuation steps from mu = 0
MU_REFINE_FLOOR = 1e-4       # bisection floor for branch-jump localization
JUMP_TRIGGER = 0.5 * math.pi


@dataclass(frozen=True)
class WronskianReport:
    """Sampled Wronskian W(r) = y1 y2' - y2 y1' against its expected constant."""

    pair: str
    expected: complex
    values: np.ndarray
    max_abs_deviation: float
    stddev: float

    def passes(self, rel_tol: float = 1e-8) -> bool:
        scale = abs(self.expected) if self.expected != 0 else 1.0
        return self.max_abs_deviation <= rel_tol * scale


@dataclass(frozen=True)
class LogDerivative:
    """A = y'(r0)/y(r0) from the interior solution, with its context."""

    A: float
    E: float
    mu: float
    channel: ChannelParams


@dataclass(frozen=True)
class PhaseShiftResult:
    """One phase-shift evaluation with diagnostics.

    eta is the value continued in mu from eta(k, 0) = 0 when ``mu_steps``
    was set (Prufer-unwrapped for local potentials, walked along the mu
    grid for kernels), otherwise the raw principal value in (-pi/2, pi/2].
    eta_raw is that principal value; tan_eta and A come from the same
    solve at mu (A is None at a node of y at r0).  ``events`` holds the
    (mu*, direction) branch events of the continuation, located to
    MU_REFINE_FLOOR.  eta_fit comes from an independent two-point fit of
    the exterior oscillating form and must agree with eta modulo pi.
    """

    k: float
    mu: float
    eta: float
    eta_raw: float
    tan_eta: float
    A: Optional[float]
    eta_fit: Optional[float]
    events: Tuple[Tuple[float, int], ...] = ()


@dataclass(frozen=True)
class PhaseShiftCurve:
    """Unwrapped eta(k) samples at fixed mu, with recorded branch-jump events."""

    channel: ChannelParams
    mu: float
    samples: Tuple[Tuple[float, float], ...]
    events: Tuple[Tuple[float, float, int], ...]  # (k, mu*, direction)


def _jost_wavenumber(sol: RadialSolution) -> complex:
    """Recover k of a jost-normalized solution from its exact exterior tail."""
    j = len(sol.grid.nodes) - 1
    return complex(1j * sol.dy[j] / sol.y[j])


def wronskian(y1: RadialSolution, y2: RadialSolution) -> WronskianReport:
    """Audit W[y1, y2] against the pair's expected constant.

    Recognized pairs: the two origin branches at (lam, -lam) and equal energy
    (expected -2 lam), Jost solutions at (k, -k) (expected 2ik), and a
    solution paired with itself (expected 0).
    """
    if not y1.grid.same_nodes(y2.grid):
        raise GridMismatchError("Wronskian needs a common grid")
    lam1, lam2 = y1.channel.lam, y2.channel.lam
    lam_scale = max(abs(lam1), abs(lam2), 1e-30)
    if y1 is y2:
        pair, expected = "self", 0.0
    elif (y1.normalization == "origin-regular" and y2.normalization == "origin-regular"
          and abs(lam2 + lam1) <= 1e-12 * lam_scale and y1.energy.E == y2.energy.E):
        pair, expected = "phi-phi-minus", -2.0 * lam1
    elif (y1.normalization == "jost" and y2.normalization == "jost" and lam1 == lam2):
        k1 = _jost_wavenumber(y1)
        k2 = _jost_wavenumber(y2)
        if abs(k1 + k2) > 1e-9 * abs(k1):
            raise GridMismatchError("Jost pair must be at opposite wavenumbers")
        pair, expected = "f-f-minus-k", 2j * k1
    else:
        raise GridMismatchError("solutions do not form a recognized Wronskian pair")
    w = y1.y * y2.dy - y2.y * y1.dy
    dev = np.abs(w - expected)
    return WronskianReport(pair=pair, expected=expected, values=w,
                           max_abs_deviation=float(np.max(dev)),
                           stddev=float(np.std(w)))


def wronskian_pair_phi(channel: ChannelParams, potential: PotentialModel,
                       k: float, grid: Optional[RadialGrid] = None,
                       tol: float = 1e-12) -> WronskianReport:
    """Integrate both origin branches at +/-lam and audit W = -2 lam.

    Test-mode only: needs the subdominant branch, hence 0 < lam < 1 away
    from the degenerate point lam = 1/2 (integer exponent difference).
    """
    lam = channel.lam
    lam_re = lam.real if isinstance(lam, complex) else lam
    if not (0.0 < lam_re < 1.0) or abs(2 * lam_re - 1) < 1e-6:
        raise QwsError("phi-pair audit requires 0 < Re lam < 1, lam != 1/2")
    if grid is None:
        grid = make_grid(potential.r0)
    energy = EnergyValue.from_k(k)
    y_p = integrate_regular(effective_equation(channel, potential, energy), grid, tol)
    minus = ChannelParams.from_lambda(-lam, q=channel.q)
    y_m = integrate_regular(effective_equation(minus, potential, energy), grid, tol,
                            second_branch=True)
    return wronskian(y_p, y_m)


def wronskian_pair_jost(channel: ChannelParams, potential: PotentialModel,
                        k: complex, grid: Optional[RadialGrid] = None,
                        tol: float = 1e-12) -> WronskianReport:
    """Integrate Jost solutions at +/-k and audit W = 2ik.

    The default audit grid keeps its lower edge where the product |f f'|,
    which grows like r^{-2 lam} under the centrifugal barrier, still leaves
    the O(1) Wronskian resolvable in double precision.
    """
    r0 = potential.r0
    if grid is None:
        lam = channel.lam
        lam_re = max(lam.real if isinstance(lam, complex) else lam, 0.5)
        r_lo = max(1e-6 * r0, r0 * (3e-7) ** (1.0 / (2.0 * lam_re)))
        grid = make_grid(r0, r_min=r_lo)
    eq = effective_equation(channel, potential, EnergyValue(E=k * k))
    f_p = integrate_jost(eq, grid, k, tol)
    f_m = integrate_jost(eq, grid, -k, tol)
    return wronskian(f_p, f_m)


def hermiticity_residual(kind: str, lam: complex, k: complex,
                         potential: PotentialModel,
                         grid: Optional[RadialGrid] = None,
                         tol: float = 1e-12) -> float:
    """Max-over-grid conjugation defect for a real-valued local potential.

    kind="phi": || conj(phi(lam, k)) - phi(conj lam, conj k) ||_inf
    kind="f":   || conj(f(lam, k))  - f(conj lam, -conj k)  ||_inf
    """
    if potential.kernel:
        raise QwsError("conjugation audit applies to the local problem")
    if grid is None:
        grid = make_grid(potential.r0)
    ch1 = ChannelParams.from_lambda(lam)
    ch2 = ChannelParams.from_lambda(complex(lam).conjugate())
    if kind == "phi":
        kc = complex(k).conjugate()
        y1 = integrate_regular(
            effective_equation(ch1, potential, EnergyValue(E=k * k)), grid, tol)
        y2 = integrate_regular(
            effective_equation(ch2, potential, EnergyValue(E=kc * kc)), grid, tol)
    elif kind == "f":
        k2 = -complex(k).conjugate()
        y1 = integrate_jost(
            effective_equation(ch1, potential, EnergyValue(E=k * k)), grid, k, tol)
        y2 = integrate_jost(
            effective_equation(ch2, potential, EnergyValue(E=k2 * k2)), grid, k2, tol)
    else:
        raise QwsError("kind must be 'phi' or 'f'")
    return float(np.max(np.abs(np.conjugate(y1.y) - y2.y)))


def log_derivative_interior(eq, tol: float = 1e-10,
                            moments_grid: Optional[RadialGrid] = None) -> LogDerivative:
    """A(E, mu) at r0^- from the interior (local or non-local) solution.

    Raises NodeAtCutoffError when y(r0) vanishes to working precision,
    which signals eta passing through pi/2 (mod pi).
    """
    u, v, max_u = interior_state(eq, tol, moments_grid)
    if abs(u) < 1e-12 * max_u:
        raise NodeAtCutoffError("y(r0) = 0 within tolerance; A undefined at this energy")
    A = v / u
    if abs(A.imag) <= 1e-10 * max(1.0, abs(A.real)):
        A = A.real
    return LogDerivative(A=A, E=eq.energy.E, mu=eq.mu, channel=eq.channel)


def _matching_map(lam: float, k: float, r0: float):
    """The fixed linear map (KN, KJ) = L (y, y')(r0), with tan eta = KJ/KN.

    KJ = (y' - y/2r0) J(k r0) - y k J'(k r0), same with N for KN; the pair
    never vanishes simultaneously, so its angle tracks eta continuously.
    det L = -2/(pi r0) < 0: L reverses orientation.  Returns L as a function
    of (y, y') plus g0 = atan2 of L (0, -1), the angle that fixes the lift
    of theta from the Prufer angle of (y, y') (see :func:`_lift_theta`).
    """
    x = k * r0
    jrep = specfun.bessel_j(lam, x)
    yrep = specfun.bessel_y(lam, x)
    jv, jd = jrep.value, jrep.derivative
    nv, nd = yrep.value, yrep.derivative

    def pair(u: complex, v: complex):
        a = v - u / (2.0 * r0)
        return a * nv - u * k * nd, a * jv - u * k * jd

    return pair, math.atan2(-jv, -nv)


def _lift_theta(theta: float, phi: float, g0: float) -> float:
    """Continuous theta = atan2(KJ, KN) from the continuous Prufer angle phi of (y, y').

    With phi = psi + n pi, psi in [-pi/2, pi/2), the orientation-reversing
    map L sends the half-turn psi onto the theta arc (g0 - pi, g0] and each
    further half-turn of (y, y') subtracts pi.  The arc midpoint
    g0 - pi/2 - n pi is within pi/2 of the lifted theta, so rounding
    against it picks the 2 pi branch with margin to spare.
    """
    n = math.floor(phi / math.pi + 0.5)
    mid = g0 - 0.5 * math.pi - n * math.pi
    return theta + 2.0 * math.pi * round((mid - theta) / (2.0 * math.pi))


def _principal(angle: float) -> float:
    """Reduce an angle to (-pi/2, pi/2] modulo pi."""
    a = math.fmod(angle, math.pi)
    if a > 0.5 * math.pi:
        a -= math.pi
    elif a <= -0.5 * math.pi:
        a += math.pi
    return a


def _theta(eq, pair, tol: float, moments_grid,
           g0: Optional[float] = None) -> Tuple[float, float, Optional[float]]:
    """One matching sample: (theta = atan2(KJ, KN), tan eta, A or None at a node).

    With ``g0`` from :func:`_matching_map` (local equation only) theta is
    the continuous lift through the Prufer angle of (y, y'), so samples at
    different couplings compare without a path between them.
    """
    if g0 is None:
        u, v, max_u = interior_state(eq, tol, moments_grid)
    else:
        u, v, max_u, turns = interior_state(eq, tol, return_winding=True)
    kn, kj = pair(u, v)
    kn_r, kj_r = kn.real, kj.real
    theta = math.atan2(kj_r, kn_r)
    if g0 is not None:
        phi = math.atan2(v.real, u.real) + 2.0 * math.pi * turns
        theta = _lift_theta(theta, phi, g0)
    tan_eta = math.inf if kn_r == 0.0 else kj_r / kn_r
    A = None
    if abs(u) >= 1e-12 * max_u:
        A = (v / u).real
    return theta, tan_eta, A


def _unwrap_step(prev: float, raw: float) -> float:
    """Nearest 2*pi branch of raw relative to prev."""
    return raw + 2.0 * math.pi * round((prev - raw) / (2.0 * math.pi))


def _branch_index(th: float, th0: float) -> int:
    return math.floor((th - th0) / math.pi + 0.5)


def _walk_theta(sample, mu_a: float, th_a: float, mu_b: float,
                path: List[Tuple[float, float]], th0: float) -> float:
    """Continuous theta at mu_b given theta at mu_a, bisecting across jumps.

    Segments where the angle moves by more than pi/2, or where the pi-branch
    of eta = theta - th0 changes, are refined down to the resolution floor;
    every resolved point is appended to ``path``.
    """
    th_b = _unwrap_step(th_a, sample(mu_b))
    needs_split = (abs(th_b - th_a) > JUMP_TRIGGER
                   or _branch_index(th_b, th0) != _branch_index(th_a, th0))
    if not needs_split or (mu_b - mu_a) <= MU_REFINE_FLOOR:
        path.append((mu_b, th_b))
        return th_b
    mid = 0.5 * (mu_a + mu_b)
    th_mid = _walk_theta(sample, mu_a, th_a, mid, path, th0)
    return _walk_theta(sample, mid, th_mid, mu_b, path, th0)


def _bisect_branches(sample, mu_a: float, th_a: float, mu_b: float, th_b: float,
                     path: List[Tuple[float, float]], th0: float) -> None:
    """Bisect [mu_a, mu_b] wherever the pi-branch of eta = theta - th0 differs.

    The theta samples are absolute (Prufer-lifted), so a segment needs no
    inner samples unless it holds a branch event; each event is resolved
    down to the floor.  Points are appended to ``path`` in order of mu.
    """
    if (_branch_index(th_b, th0) == _branch_index(th_a, th0)
            or abs(mu_b - mu_a) <= MU_REFINE_FLOOR):
        path.append((mu_b, th_b))
        return
    mid = 0.5 * (mu_a + mu_b)
    th_mid = sample(mid)
    _bisect_branches(sample, mu_a, th_a, mid, th_mid, path, th0)
    _bisect_branches(sample, mid, th_mid, mu_b, th_b, path, th0)


def _branch_events(path: List[Tuple[float, float]], th0: float) -> List[Tuple[float, int]]:
    """Crossings of eta = theta - th0 through half-integer multiples of pi.

    Each crossing is one resonance passage (the matching denominator KN
    changes sign), i.e. one step of the zero-momentum staircase.
    """
    events = []
    b_prev = _branch_index(path[0][1], th0)
    for (mu_a, th_a), (mu_b, th_b) in zip(path[:-1], path[1:]):
        b_new = _branch_index(th_b, th0)
        if b_new != b_prev:
            events.append((0.5 * (mu_a + mu_b), 1 if b_new > b_prev else -1))
        b_prev = b_new
    return events


def real_lambda(channel: ChannelParams, what: str = "phase shift") -> float:
    """lam of the channel as a float; a complex or non-positive order raises QwsError."""
    lam = channel.lam
    if isinstance(lam, complex):
        if lam.imag != 0:
            raise QwsError(f"{what} requires real lambda")
        lam = lam.real
    if lam <= 0:
        raise QwsError(f"{what} requires lam > 0")
    return float(lam)


def phase_shift(channel: ChannelParams, potential: PotentialModel, k: float,
                mu: float = 1.0, tol: float = 1e-10,
                mu_steps: Optional[int] = MU_STEPS_DEFAULT,
                with_fit: bool = True) -> PhaseShiftResult:
    """Phase shift at wavenumber k and coupling mu.

    With ``mu_steps`` set (default 200) the returned eta is the continuation
    in mu from eta(k, 0) = 0; ``mu_steps=None`` returns the principal value
    only (one solve, defined mod pi).  ``with_fit`` adds the independent
    exterior two-point fit diagnostic.

    Local potentials take theta from one Prufer-unwrapped integration at
    mu and one free integration, so eta needs no path in mu.  Branch events
    come from bisecting the branch index between these absolute samples:
    from the partition {0, mu} when the profile keeps one sign (eta is then
    monotone in mu), otherwise from the ``mu_steps`` grid.  Kernel
    potentials, whose coupling resonances break the homotopy in (r, mu),
    walk the ``mu_steps`` grid and bisect wherever theta jumps by more than
    pi/2 or changes branch.
    """
    lam = real_lambda(channel)
    if not (math.isfinite(k) and k > 0):
        raise QwsError("phase shift needs finite k > 0")
    energy = EnergyValue.from_k(k)
    pair, g0 = _matching_map(lam, k, potential.r0)
    moments_grid = None
    if potential.kernel:
        moments_grid = make_scan_grid(potential.r0)
        g0 = None

    def sample(m: float) -> float:
        eqm = effective_equation(channel, potential.with_mu(float(m)), energy)
        return _theta(eqm, pair, tol, moments_grid, g0)[0]

    pot_mu = potential.with_mu(mu)
    eq = effective_equation(channel, pot_mu, energy)
    theta, tan_eta, A = _theta(eq, pair, tol, moments_grid, g0)
    eta_raw = _principal(theta)
    events: Tuple[Tuple[float, int], ...] = ()
    if mu == 0.0:
        eta = 0.0
    elif mu_steps is None:
        eta = eta_raw
    else:
        th0 = sample(0.0)
        path: List[Tuple[float, float]] = [(0.0, th0)]
        if potential.kernel:
            mu_grid = np.linspace(0.0, mu, abs(int(mu_steps)) + 1)
            theta = th0
            for j in range(1, len(mu_grid)):
                theta = _walk_theta(sample, float(mu_grid[j - 1]), theta,
                                    float(mu_grid[j]), path, th0)
        else:
            mu_grid = [0.0, mu]
            if not potential.one_signed:
                mu_grid = np.linspace(0.0, mu, abs(int(mu_steps)) + 1)
            for j in range(1, len(mu_grid)):
                m = float(mu_grid[j])
                th_m = theta if m == mu else sample(m)
                _bisect_branches(sample, float(mu_grid[j - 1]), path[-1][1], m, th_m,
                                 path, th0)
        eta = theta - th0
        events = tuple(_branch_events(path, th0))
    eta_fit = _exterior_fit_eta(channel, pot_mu, k, tol) if with_fit else None
    return PhaseShiftResult(k=k, mu=mu, eta=float(eta), eta_raw=float(eta_raw),
                            tan_eta=float(tan_eta), A=A, eta_fit=eta_fit,
                            events=events)


def _exterior_fit_eta(channel, potential, k: float, tol: float) -> float:
    """eta mod pi from a two-point fit of y = C sqrt(pi k r/2)[J cos - N sin] beyond r0."""
    r0 = potential.r0
    eq = effective_equation(channel, potential, EnergyValue.from_k(k))
    if potential.kernel:
        grid = make_grid(r0, r_max=1.75 * r0, n_interior=401, n_exterior=3)
        sol = solve_nonlocal(eq, grid, tol)
        rr1, rr2 = float(grid.nodes[-2]), float(grid.nodes[-1])
        y1, y2 = complex(sol.y[-2]), complex(sol.y[-1])
    else:
        rr1, rr2 = 1.25 * r0, 1.75 * r0
        r_min = 1e-6 * r0
        u0, v0, _ = frobenius_start(eq.lam, eq.energy.E, eq.origin_w, r_min)
        us, _, _ = _integrate(eq.coefficient, None, r_min, u0, v0,
                              np.array([r0, rr1, rr2]), rtol=tol)
        y1, y2 = us[1], us[2]
    lam = eq.lam
    b11 = math.sqrt(math.pi * k * rr1 / 2) * specfun.bessel_j(lam, k * rr1).value
    b12 = -math.sqrt(math.pi * k * rr1 / 2) * specfun.bessel_y(lam, k * rr1).value
    b21 = math.sqrt(math.pi * k * rr2 / 2) * specfun.bessel_j(lam, k * rr2).value
    b22 = -math.sqrt(math.pi * k * rr2 / 2) * specfun.bessel_y(lam, k * rr2).value
    det = b11 * b22 - b12 * b21
    c = (b22 * y1.real - b12 * y2.real) / det
    s = (b11 * y2.real - b21 * y1.real) / det
    return _principal(math.atan2(s, c))


def phase_shift_curve(channel: ChannelParams, potential: PotentialModel,
                      k_values: Sequence[float], mu: float = 1.0,
                      tol: float = 1e-10,
                      mu_steps: Optional[int] = MU_STEPS_DEFAULT) -> PhaseShiftCurve:
    """eta(k) over a k grid at fixed mu, each point as by :func:`phase_shift`."""
    real_lambda(channel)
    samples = []
    events = []
    for k in k_values:
        res = phase_shift(channel, potential, float(k), mu=mu, tol=tol,
                          mu_steps=mu_steps, with_fit=False)
        samples.append((float(k), res.eta))
        events.extend((float(k), m, d) for m, d in res.events)
    return PhaseShiftCurve(channel=channel, mu=mu, samples=tuple(samples),
                           events=tuple(events))


def low_k_phase_asymptotic(channel: ChannelParams, A0: float, k: float,
                           r0: float) -> float:
    """Leading small-k law for tan eta in terms of the zero-energy log-derivative.

    tan eta ~ -pi (k r0)^{2 lam} / (4^lam lam Gamma(lam)^2)
              * (A0 - rho~) / (A0 - rho),
    rho = (1/2 - lam)/r0, rho~ = (lam + 1/2)/r0.  Raises when the denominator
    vanishes (threshold resonance: the leading-order law breaks down).
    """
    lam = channel.lam
    lam_re = lam.real if isinstance(lam, complex) else lam
    if lam_re <= 0:
        raise QwsError("low-k law needs lam > 0")
    if k * r0 >= 0.1:
        raise QwsError("low-k law valid only for k*r0 < 0.1")
    rho = (0.5 - lam_re) / r0
    rho_t = (lam_re + 0.5) / r0
    den = A0 - rho
    if abs(den) < 1e-10 * max(1.0, abs(rho)):
        raise NearThresholdResonanceError("A0 - rho vanishes: leading terms cancel")
    pref = -math.pi * (k * r0) ** (2 * lam_re) / (
        2.0 ** (2 * lam_re) * lam_re * specfun.gamma(lam_re) ** 2)
    return pref * (A0 - rho_t) / den
