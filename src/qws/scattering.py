"""Scattering-side observables: Wronskian and conjugation audits, log-derivative
extraction at the cutoff, and phase shifts.

The phase shift eta(k, mu) is defined modulo pi by the cutoff matching

    tan eta = [ (A - 1/2r0) J - k J' ] / [ (A - 1/2r0) N - k N' ]      (at k r0)

and made single-valued by continuation in the coupling scale mu from the
free system, where eta(k, 0) = 0: eta = theta(mu) - theta(0), with theta
the continuous angle of the never-vanishing pair (KN, KJ) = L (y, y')(r0).
L is a fixed linear map per k, so nodes of y at the cutoff (poles of A)
need no special casing.

Two sources give the samples of theta.  For local potentials, the
homotopy over (r, mu) carries the Prufer angle of (y, y') along r through
L, so one integration with a winding count gives theta at any mu without
a path in mu (Prufer, Math. Ann. 95 (1926) 499); one more at mu = 0 gives
theta(0).  For one-signed wells eta is monotone in mu (Calogero's
variable-phase relation d eta/d mu = -(1/k) int V y^2 dr), so {0, mu} is a
complete starting partition; other local wells start from the uniform mu
grid.  Kernels break the r-winding argument, so their samples are placed
on the 2 pi branch nearest the previous one along the uniform mu grid,
whose points come from one lanes call of
:func:`~qws.radial_ode.interior_in_mu` at E = k^2 (a pure kernel makes one
superposition per k).  A kernel's (y, y') comes scaled by
det(Id - mu C M), so it stays smooth in mu through coupling resonances,
where the unscaled state passes through infinity and its theta jumps by pi.

One locator, :func:`_locate_branches`, takes both kinds of samples to the
branch events (eta through half-integer multiples of pi): a segment
holding more than one is bisected, and a single one is refined by
:func:`~qws.roots.refine_root` on the matching denominator
D = KN cos th0 + KJ sin th0 = |K| cos(eta), which is linear in
(y, y')(r0), hence smooth in mu, and changes sign at the event, where
theta itself may turn like a step at low k.  :func:`_phase_walk` runs it
along a mu grid; :func:`~qws.spectral.continuation_count` walks the k -> 0
limit of L, (KN, KJ) ~ (y' - rho y, rho~ y - y'), to its own floor.
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
from .radial_ode import (R_MIN_FRACTION, RadialGrid, RadialSolution, free_exterior,
                         integrate_jost, integrate_regular, interior_in_mu,
                         interior_state, make_grid, node_at_cutoff, prufer_angle)
from .roots import refine_root, same_sign

MU_STEPS_DEFAULT = 200       # uniform continuation steps from mu = 0
MU_REFINE_FLOOR = 1e-4       # widest bracket a branch event is located to


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
    was set (Prufer-unwrapped for local potentials, unwrapped along the mu
    grid for kernels), otherwise the raw principal value in (-pi/2, pi/2].
    eta_raw is that principal value; tan_eta and A come from the same
    solve at mu (A is None at a node of y at r0).  ``events`` holds the
    (mu*, direction) branch events of the continuation: mu* is the midpoint
    of a bracket no wider than MU_REFINE_FLOOR.  eta_fit comes from a
    two-point fit of the exterior oscillating form, continued outward from
    that same solve at mu instead of matched to Bessel functions at r0, and
    must agree with eta modulo pi.
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
        r_lo = max(R_MIN_FRACTION * r0, r0 * (3e-7) ** (1.0 / (2.0 * lam_re)))
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


def log_derivative_interior(eq, tol: float = 1e-10) -> LogDerivative:
    """A(E, mu) at r0^- from the interior (local or non-local) solution.

    Raises NodeAtCutoffError when y(r0) vanishes to working precision,
    which signals eta passing through pi/2 (mod pi).
    """
    u, v, max_u = interior_state(eq, tol)
    if node_at_cutoff(u, max_u):
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


def _theta(pair, state, g0: Optional[float] = None) -> Tuple[float, float, Optional[float]]:
    """One matching sample: (theta = atan2(KJ, KN), tan eta, A or None at a node).

    ``state`` is (y, y', max|y|) at r0, plus the Prufer winding count when
    ``g0`` from :func:`_matching_map` is given (local equation only): theta
    is then the continuous lift through the Prufer angle of (y, y'), so
    samples at different couplings compare without a path between them.
    """
    u, v, max_u, *winding = state
    kn, kj = pair(u, v)
    kn_r, kj_r = kn.real, kj.real
    theta = math.atan2(kj_r, kn_r)
    if g0 is not None:
        theta = _lift_theta(theta, prufer_angle(u, v, winding[0]), g0)
    tan_eta = math.inf if kn_r == 0.0 else kj_r / kn_r
    A = None if node_at_cutoff(u, max_u) else (v / u).real
    return theta, tan_eta, A


def _unwrap_step(prev: float, raw: float) -> float:
    """Nearest 2*pi branch of raw relative to prev."""
    return raw + 2.0 * math.pi * round((prev - raw) / (2.0 * math.pi))


def _branch_index(th: float, th0: float) -> int:
    return math.floor((th - th0) / math.pi + 0.5)


def _locate_branches(point, a: Tuple[float, float, float], mu_b: float,
                     path: List[Tuple[float, float]], th0: float,
                     max_turn: float, floor: float) -> Tuple[float, float, float]:
    """Resolve every branch event of eta = theta - th0 from sample ``a`` to coupling mu_b.

    Samples are (mu, theta, D), ``a`` already the last point of ``path``.
    ``point(mu, near)`` makes one, with theta on the 2 pi branch nearest
    ``near`` (a Prufer-lifted theta is absolute and ignores ``near``), and
    answers a coupling it has seen before without a solve; the end of each
    segment is placed from the segment's start.  ``max_turn`` is the largest
    turn of theta a segment holds unsplit: math.inf for absolute samples,
    pi/2 for placed ones, so that a placement is never ambiguous.  The
    caller sets the refine floor ``floor``: MU_REFINE_FLOOR for a phase
    shift, MU_CROSSING_FLOOR for the threshold crossing count.

    A segment that turns further, or whose branch index jumps by more than
    one, is split at its midpoint.  A single jump is refined by
    :func:`~qws.roots.refine_root` on the matching denominator D, which
    changes sign there, to a bracket no wider than ``floor``; the bracket's
    ends go into ``path``.  Should the ends not carry the branch
    indices of the segment's ends (theta not monotone inside), or D not
    change sign, the segment is split at its midpoint instead.  Points are
    appended in the order of the walk; returns the sample at mu_b as
    appended.
    """
    mu_a, th_a, d_a = a
    b = point(mu_b, th_a)
    th_b, d_b = b[1], b[2]
    jump = _branch_index(th_b, th0) - _branch_index(th_a, th0)
    turn_ok = abs(th_b - th_a) <= max_turn
    if abs(mu_b - mu_a) <= floor or (jump == 0 and turn_ok):
        path.append((mu_b, th_b))
        return b
    if abs(jump) == 1 and turn_ok and not same_sign(d_a, d_b):
        tol = floor / max(1.0, abs(mu_a), abs(mu_b))
        lo, hi = refine_root(lambda m: point(m, th_a)[2], mu_a, d_a, mu_b, d_b, tol)
        near, far = (lo, hi) if mu_a < mu_b else (hi, lo)
        near, far = point(near, th_a), point(far, th_a)
        if (_branch_index(near[1], th0) == _branch_index(th_a, th0)
                and _branch_index(far[1], th0) == _branch_index(th_b, th0)):
            path.extend((m, th) for m, th, _ in (near, far) if m not in (mu_a, mu_b))
            path.append((mu_b, th_b))
            return b
    mid = _locate_branches(point, a, 0.5 * (mu_a + mu_b), path, th0, max_turn, floor)
    return _locate_branches(point, mid, mu_b, path, th0, max_turn, floor)


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


def _phase_walk(pair, g0: Optional[float], state, states: dict, grid: Sequence[float],
                floor: float) -> Tuple[float, Tuple[Tuple[float, int], ...]]:
    """Walk theta = atan2(KJ, KN), (KN, KJ) = pair(y, y'), along a coupling grid.

    ``states`` maps each coupling solved so far to its (y, y', max|y|, ...)
    at r0 and takes the new ones, which ``state(mu)`` makes.  With ``g0``
    from :func:`_matching_map` theta is the Prufer lift (absolute); with
    ``g0`` None each sample goes on the 2 pi branch nearest the previous
    one, and a step turning theta by more than pi/2 is split.
    :func:`_locate_branches` resolves the events of theta - th0,
    th0 = theta(grid[0]), each to a bracket no wider than ``floor``.
    Returns theta(grid[-1]) - th0 and the events of :func:`_branch_events`.
    """
    th0 = _theta(pair, states[grid[0]], g0)[0]
    c0, s0 = math.cos(th0), math.sin(th0)

    def point(m: float, near: float) -> Tuple[float, float, float]:
        """(mu, theta, D) with D = KN cos th0 + KJ sin th0 = |K| cos(theta - th0)."""
        st = states.get(m)
        if st is None:
            st = states[m] = state(m)
        kn, kj = pair(st[0], st[1])
        th = _theta(pair, st, g0)[0]
        if g0 is None:
            th = _unwrap_step(near, th)
        return m, th, kn.real * c0 + kj.real * s0

    max_turn = math.inf if g0 is not None else 0.5 * math.pi
    path: List[Tuple[float, float]] = [(grid[0], th0)]
    a = point(grid[0], th0)
    for m in grid[1:]:
        a = _locate_branches(point, a, m, path, th0, max_turn, floor)
    return path[-1][1] - th0, tuple(_branch_events(path, th0))


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

    With ``mu_steps`` set (default 200, at least 1) the returned eta is the
    continuation in mu from eta(k, 0) = 0; ``mu_steps=None`` returns the
    principal value only (one solve, defined mod pi).  ``with_fit`` adds the
    exterior two-point fit diagnostic, one outward integration from the
    solve at mu.

    Local potentials take theta from one Prufer-unwrapped integration at
    mu and one free integration, so eta needs no path in mu; they start
    from the partition {0, mu} when the profile keeps one sign (eta is then
    monotone in mu), otherwise from the ``mu_steps`` grid.  Kernel
    potentials start from the ``mu_steps`` grid, whose points come from
    one lanes call of :func:`~qws.radial_ode.interior_in_mu`, with theta
    read from the det(Id - mu C M)-scaled state and placed on the 2 pi
    branch nearest the previous sample.  Either way :func:`_phase_walk`
    resolves the branch events to MU_REFINE_FLOOR.
    """
    lam = real_lambda(channel)
    if not (math.isfinite(k) and k > 0):
        raise QwsError("phase shift needs finite k > 0")
    if mu_steps is not None and not mu_steps >= 1:
        raise QwsError("mu_steps must be None or at least 1")
    energy = EnergyValue.from_k(k)
    pair, g0 = _matching_map(lam, k, potential.r0)
    if potential.kernel:
        g0 = None
        state = interior_in_mu(channel, potential, energy.E, tol)
    else:
        def state(m: float):
            eqm = effective_equation(channel, potential.with_mu(m), energy)
            return interior_state(eqm, tol, return_winding=True)

    at_mu = state(float(mu))
    theta, tan_eta, A = _theta(pair, at_mu, g0)
    eta_raw = _principal(theta)
    events: Tuple[Tuple[float, int], ...] = ()
    if mu == 0.0:
        eta = 0.0
    elif mu_steps is None:
        eta = eta_raw
    else:
        states = {0.0: state(0.0), float(mu): at_mu}
        inner = np.linspace(0.0, mu, int(mu_steps) + 1)[1:-1]
        if not potential.kernel and potential.one_signed:
            inner = inner[:0]   # eta is monotone in mu: {0, mu} partitions the path
        elif potential.kernel and len(inner):
            states.update(zip(inner.tolist(), zip(*state(inner))))   # one lanes call
        grid = [0.0] + inner.tolist() + [float(mu)]
        eta, events = _phase_walk(pair, g0, state, states, grid, MU_REFINE_FLOOR)
    eta_fit = None
    if with_fit:
        eq = effective_equation(channel, potential.with_mu(mu), energy)
        eta_fit = _exterior_fit_eta(eq, k, at_mu[0], at_mu[1], tol)
    return PhaseShiftResult(k=k, mu=mu, eta=float(eta), eta_raw=float(eta_raw),
                            tan_eta=float(tan_eta), A=A, eta_fit=eta_fit,
                            events=events)


def _exterior_fit_eta(eq, k: float, u, v, tol: float) -> float:
    """eta mod pi from a two-point fit of y = C sqrt(pi k r/2)[J cos - N sin] beyond r0.

    (u, v) is the interior (y, y') of ``eq`` at r0, continued outward.
    """
    r0 = eq.r0
    rr1, rr2 = 1.25 * r0, 1.75 * r0
    ys, _ = free_exterior(eq, u, v, np.array([r0, rr1, rr2]), tol)
    y1, y2 = ys[1], ys[2]
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
