"""Bound-state search (E <= 0), log-derivative monotonicity checks, the
coupling-continuation crossing counter, and the zero-momentum phase /
bound-count identity verifier.

The matching function used for root scans is M(E) = y'(r0) - h(E) y(r0),
with h(E) the decaying-exterior log-derivative: M is continuous (no poles
where y(r0) = 0, unlike A(E) itself), vanishes exactly at bound states,
and has simple roots because the interior log-derivative decreases while
the exterior one increases with energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import specfun
from .errors import (AmbiguousCrossingError, DegenerateCouplingError,
                     InvalidDifferencingError, NearThresholdResonanceError,
                     NodeAtCutoffError, QwsError)
from .model import ChannelParams, EnergyValue, effective_equation
from .potentials import PotentialModel
from .radial_ode import (RadialGrid, RadialSolution, cutoff_integral,
                         integrate_regular, interior_state, make_grid,
                         make_scan_grid, _interior_superposition)
from .scattering import phase_shift, real_lambda

MU_CROSSING_FLOOR = 1e-5   # bisection resolution for crossing localization
MU_FINE_FLOOR = 1e-12      # separation floor for co-located flip events
GRAZING_TOL = 1e-10


@dataclass(frozen=True)
class BoundState:
    """One bound level: energy, context, unit-norm solution, matching residual."""

    E: float
    kappa: float
    mu: float
    channel: ChannelParams
    solution: RadialSolution
    matching_residual: float


@dataclass(frozen=True)
class SturmReport:
    """Energy slopes of the cutoff log-derivatives, finite-difference vs integral form."""

    E: float
    dE: float
    slope_interior_fd: float
    slope_interior_quad: float
    slope_exterior_fd: float
    slope_exterior_quad: float


@dataclass(frozen=True, eq=False)
class ContinuationReport:
    """Crossing census of A(0, mu) through rho = (1/2 - lam)/r0 along the mu grid."""

    channel: ChannelParams
    mu_grid: np.ndarray
    A_samples: np.ndarray
    rho: float
    events: Tuple[Tuple[float, int], ...]  # (mu*, +1 down / -1 up)
    n_down: int
    n_up: int
    n_bound: int
    eta0_staircase: np.ndarray


@dataclass(frozen=True)
class LevinsonReport:
    """Zero-momentum phase vs bound-state count: the two must satisfy eta0 = n pi.

    ``continuation`` is the crossing census behind n_continuation; it is
    None when the counter itself ended inconclusive.
    """

    eta0: float
    n_direct: int
    n_continuation: int
    status: str          # "pass" | "fail" | "inconclusive"
    reason: str = ""
    tol_eta: float = 1e-2
    continuation: Optional[ContinuationReport] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _exterior_logderiv(lam: float, E: float, r0: float) -> float:
    kappa = math.sqrt(-E) if E < 0 else 0.0
    return specfun.log_derivative_exterior(lam, kappa, r0)


def matching_mismatch(channel: ChannelParams, potential: PotentialModel,
                      E: float, mu: float, tol: float = 1e-10,
                      moments_grid: Optional[RadialGrid] = None) -> float:
    """Interior minus exterior log-derivative at r0 for E <= 0; zero iff bound state.

    When y(r0) vanishes (interior A has a pole) the mismatch is evaluated in
    the inverse chart 1/A instead, where the matching condition is regular.
    """
    if E > 0:
        raise QwsError("matching mismatch is defined for E <= 0")
    lam = real_lambda(channel, "spectral pipeline")
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    u, v, max_u = interior_state(eq, tol, moments_grid)
    h = _exterior_logderiv(lam, E, potential.r0)
    if abs(u) < 1e-12 * max_u:
        return float((u / v).real - 1.0 / h)  # inverse chart
    return float((v / u).real - h)


def _matching_scan_value(channel, potential, E, mu, tol, moments_grid) -> Tuple[float, float, float]:
    """(M, u, v) with M = y'(r0) - h(E) y(r0): continuous in E, zero at bound states.

    A scan point landing exactly on a kernel resonance (degenerate coupling
    solve) is sidestepped by a tiny energy perturbation; the resonant zone is
    orders of magnitude narrower than any root bracket.
    """
    lam = real_lambda(channel, "spectral pipeline")
    last = None
    for bump in (0.0, 1e-9, -1e-9, 1e-7):
        try:
            Eb = E * (1.0 + bump)
            eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=Eb))
            u, v, _ = interior_state(eq, tol, moments_grid)
            h = _exterior_logderiv(lam, Eb, potential.r0)
            m = (v - h * u).real
            return m, u.real, v.real
        except DegenerateCouplingError as exc:
            last = exc
    raise last


def default_energy_floor(potential: PotentialModel) -> float:
    """Below the deepest level: -1.5 max|V| minus a Cauchy-Schwarz kernel bound, -1."""
    floor = -1.5 * potential.max_local() - 1.0
    if potential.kernel:
        grid = make_scan_grid(potential.r0)
        nodes = grid.interior_nodes
        norms = []
        for term in potential.kernel:
            s = np.array([term.profile(float(r)) for r in nodes])
            norms.append(math.sqrt(abs(cutoff_integral(grid, s * s, 0.0))))
        c = np.abs(potential.coupling_matrix())
        bound = 0.0
        for i in range(len(norms)):
            for j in range(len(norms)):
                bound += c[i, j] * norms[i] * norms[j]
        floor -= 1.5 * bound
    return floor


def find_bound_states(channel: ChannelParams, potential: PotentialModel,
                      mu: float = 1.0, E_floor: Optional[float] = None,
                      tol: float = 1e-10, n_scan: int = 400,
                      ode_tol: float = 1e-10) -> List[BoundState]:
    """All bound levels in [E_floor, 0), by sign scan plus bisection.

    The scan runs on a log-spaced energy grid (shallow levels cluster near
    threshold); adjacent sign-change intervals trigger one refined re-scan;
    an interior node-count cross-check near threshold flags a scan that is
    still too coarse.
    """
    lam = real_lambda(channel, "spectral pipeline")
    if E_floor is None:
        E_floor = default_energy_floor(potential.with_mu(mu))
    if E_floor >= 0:
        raise QwsError("E_floor must be negative")
    moments_grid = make_scan_grid(potential.r0) if potential.kernel else None

    def scan(grid_E: np.ndarray) -> List[Tuple[float, float]]:
        vals = [_matching_scan_value(channel, potential, float(E), mu, ode_tol,
                                     moments_grid)[0] for E in grid_E]
        brackets = []
        adjacent = False
        prev_bracket = False
        for j in range(len(grid_E) - 1):
            if vals[j] == 0.0:
                brackets.append((float(grid_E[j]), float(grid_E[j])))
                continue
            if vals[j] * vals[j + 1] < 0:
                if prev_bracket:
                    adjacent = True
                brackets.append((float(grid_E[j]), float(grid_E[j + 1])))
                prev_bracket = True
            else:
                prev_bracket = False
        return brackets, adjacent

    e_lo = 1e-11 * max(1.0, abs(E_floor))
    grid_E = -np.geomspace(abs(E_floor), e_lo, n_scan)
    brackets, adjacent = scan(grid_E)
    if adjacent:
        grid_E = -np.geomspace(abs(E_floor), e_lo, 4 * n_scan)
        brackets, adjacent = scan(grid_E)
        if adjacent:
            warnings.warn("adjacent sign changes persist: energy scan too coarse")

    states = []
    for a, b in brackets:
        Ea, Eb = a, b
        fa = _matching_scan_value(channel, potential, Ea, mu, ode_tol, moments_grid)[0]
        while abs(Eb - Ea) > tol * max(1.0, abs(Ea)):
            Em = 0.5 * (Ea + Eb)
            fm = _matching_scan_value(channel, potential, Em, mu, ode_tol, moments_grid)[0]
            if fa * fm <= 0:
                Eb = Em
            else:
                Ea, fa = Em, fm
        E_root = 0.5 * (Ea + Eb)
        states.append(_build_bound_state(channel, potential, E_root, mu, ode_tol))

    # Sturm-oscillation cross-checks, valid for the local problem (the
    # kernel source breaks the simple-zero property the node count rests
    # on).  At the floor the solution must be node-free (floor below the
    # deepest level).  At threshold the count of levels equals the interior
    # node count plus one more when the interior log-derivative has already
    # dropped below the exterior limit rho.
    if not potential.kernel:
        floor_nodes, _ = _interior_nodes_and_A(channel, potential, E_floor, mu, ode_tol)
        if floor_nodes != 0:
            warnings.warn("interior nodes at E_floor: floor may be above the deepest level")
        thr_nodes, A_thr = _interior_nodes_and_A(channel, potential, -e_lo, mu, ode_tol)
        rho = (0.5 - lam) / potential.r0
        n_osc = thr_nodes + (1 if A_thr < rho else 0)
        if n_osc != len(states):
            warnings.warn(
                f"oscillation count {n_osc} != {len(states)} roots: scan too coarse")
    states.sort(key=lambda s: s.E)
    return states


def _interior_nodes_and_A(channel, potential, E, mu, tol) -> Tuple[int, float]:
    """Interior node count and A(r0) of the regular solution at energy E."""
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    grid = make_scan_grid(potential.r0)
    if potential.kernel:
        y, dy, _ = _interior_superposition(eq, grid, tol)
    else:
        sol = integrate_regular(eq, grid, tol)
        y = sol.y[: grid.i_cutoff + 1]
        dy = sol.dy[: grid.i_cutoff + 1]
    vals = np.real(y)
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0, math.inf
    s = np.where(np.abs(vals) < 1e-13 * scale, 0.0, np.sign(vals))
    s = s[s != 0.0]
    count = int(np.sum(s[1:] * s[:-1] < 0))
    y0, dy0 = vals[-1], float(np.real(dy[-1]))
    A = dy0 / y0 if y0 != 0.0 else math.inf * (1.0 if dy0 >= 0 else -1.0)
    return count, A


def _build_bound_state(channel, potential, E, mu, tol) -> BoundState:
    """Assemble the unit-norm matched solution and its residual at the root."""
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    kappa = math.sqrt(-E)
    grid = make_grid(r0)
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    if potential.kernel:
        y_int, dy_int, _ = _interior_superposition(eq, grid, tol)
    else:
        sol = integrate_regular(eq, grid, tol)
        y_int = sol.y[: grid.i_cutoff + 1]
        dy_int = sol.dy[: grid.i_cutoff + 1]
    i0 = grid.i_cutoff
    h = _exterior_logderiv(lam, E, r0)
    A_int = (dy_int[i0] / y_int[i0]).real
    residual = abs(A_int - h)
    # exterior tail proportional to sqrt(r) K_lam(kappa r), matched at r0
    pair0 = specfun.bessel_i_k(lam, kappa * r0)
    scale = y_int[i0].real / (math.sqrt(r0) * pair0.k_scaled)
    n_ext = len(grid.nodes) - (i0 + 1)
    y = np.empty(len(grid.nodes), dtype=complex)
    dy = np.empty(len(grid.nodes), dtype=complex)
    y[: i0 + 1] = y_int
    dy[: i0 + 1] = dy_int
    for j in range(i0 + 1, len(grid.nodes)):
        r = float(grid.nodes[j])
        pr = specfun.bessel_i_k(lam, kappa * r)
        damp = math.exp(-kappa * (r - r0))  # relative to the value at r0
        y[j] = scale * math.sqrt(r) * pr.k_scaled * damp
        dy[j] = scale * damp * (0.5 / math.sqrt(r) * pr.k_scaled
                                + math.sqrt(r) * kappa * pr.k_deriv_scaled)
    # norm: interior quadrature + closed-form exterior integral of r K^2
    interior_sq = cutoff_integral(grid, np.real(y_int) ** 2, 2 * lam + 1)
    z0 = kappa * r0
    k_s, dk_s = pair0.k_scaled, pair0.k_deriv_scaled
    ext_int = (z0 * z0 / 2.0) * (dk_s * dk_s - (1.0 + lam * lam / (z0 * z0)) * k_s * k_s)
    exterior_sq = (scale ** 2) * ext_int / (kappa * kappa)
    norm = math.sqrt(abs(interior_sq) + abs(exterior_sq))
    y /= norm
    dy /= norm
    solution = RadialSolution(grid=grid, y=y, dy=dy, normalization="matched-physical",
                              channel=channel, energy=EnergyValue(E=E), mu=mu)
    return BoundState(E=float(E), kappa=kappa, mu=mu, channel=channel,
                      solution=solution, matching_residual=float(residual))


def sturm_liouville_check(channel: ChannelParams, potential: PotentialModel,
                          mu: float, E: float, dE: Optional[float] = None,
                          tol: float = 1e-10) -> SturmReport:
    """Centered energy slopes of the cutoff log-derivatives plus their integral forms.

    Contract: interior slope < 0 and exterior slope > 0; each finite-difference
    slope must agree with the corresponding norm-integral expression.
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    if dE is None:
        dE = 1e-4 * max(1.0, abs(E))
    if E + dE >= 0:
        raise QwsError("need E + dE < 0 for the decaying exterior branch")
    moments_grid = make_scan_grid(potential.r0) if potential.kernel else None

    def interior_A(Ev: float) -> Tuple[float, float]:
        eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=Ev))
        u, v, max_u = interior_state(eq, tol, moments_grid)
        if abs(u) < 1e-12 * max_u:
            raise NodeAtCutoffError("node at r0 inside differencing stencil")
        return (v / u).real, u.real

    A_m, u_m = interior_A(E - dE)
    A_p, u_p = interior_A(E + dE)
    if u_m * u_p <= 0:
        raise InvalidDifferencingError("y(r0) changed sign across the stencil")
    slope_int_fd = (A_p - A_m) / (2 * dE)

    # integral form at E: -(1/y(r0)^2) * int_0^r0 y^2
    grid = make_grid(r0)
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    if potential.kernel:
        y_int, dy_int, _ = _interior_superposition(eq, grid, tol)
    else:
        s = integrate_regular(eq, grid, tol)
        y_int = s.y[: grid.i_cutoff + 1]
    y0 = y_int[grid.i_cutoff].real
    norm_sq = cutoff_integral(grid, np.real(y_int) ** 2, 2 * lam + 1)
    slope_int_quad = -abs(norm_sq) / (y0 * y0)

    slope_ext_fd = (_exterior_logderiv(lam, E + dE, r0)
                    - _exterior_logderiv(lam, E - dE, r0)) / (2 * dE)
    kappa = math.sqrt(-E)
    z0 = kappa * r0
    pair = specfun.bessel_i_k(lam, z0)
    k_s, dk_s = pair.k_scaled, pair.k_deriv_scaled
    ext_int = (z0 * z0 / 2.0) * (dk_s * dk_s - (1.0 + lam * lam / (z0 * z0)) * k_s * k_s)
    slope_ext_quad = ext_int / (kappa * kappa * r0 * k_s * k_s)
    return SturmReport(E=float(E), dE=float(dE),
                       slope_interior_fd=float(slope_int_fd),
                       slope_interior_quad=float(slope_int_quad),
                       slope_exterior_fd=float(slope_ext_fd),
                       slope_exterior_quad=float(slope_ext_quad))


def _crossing_census(state, a: float, st_a: Tuple[float, float],
                     b: float, st_b: Tuple[float, float], rho: float,
                     events: List[Tuple[float, int]]) -> None:
    """Classify sign-flip structure of (y'(r0) - rho y(r0), y(r0)) on [a, b].

    Three elementary events can flip signs along the coupling path and only
    one of them is a genuine crossing of A = y'/y through rho:

      - M0 = y' - rho y flips, y does not: A crosses rho (count, directed);
      - y flips, M0 does not: a pole of A (eta passes pi/2), not a crossing;
      - both flip together: the solution's overall normalization flipped
        through a kernel resonance while A stayed smooth - an artifact.

    Brackets are bisected until the events separate (down to MU_FINE_FLOOR
    for co-located pairs); an unseparable both-flip bracket is kept only if
    the sign of A - rho actually differs across it.
    """
    ua, va = st_a
    ub, vb = st_b
    m0a = va - rho * ua
    m0b = vb - rho * ub
    flips_m0 = m0a * m0b < 0
    flips_u = ua * ub < 0
    if not (flips_m0 or flips_u):
        return
    width = b - a
    at_floor = width <= MU_FINE_FLOOR or (width <= MU_CROSSING_FLOOR
                                          and not (flips_m0 and flips_u))
    if at_floor:
        if not flips_m0:
            return  # isolated pole of A: not a crossing
        sign_a = math.copysign(1.0, m0a * ua)   # sign of A - rho on each side
        sign_b = math.copysign(1.0, m0b * ub)
        if sign_a > 0 > sign_b:
            events.append((0.5 * (a + b), +1))  # A decreases across rho
        elif sign_a < 0 < sign_b:
            events.append((0.5 * (a + b), -1))
        # both-flip with unchanged sign of A - rho: resonance artifact
        return
    mid = 0.5 * (a + b)
    st_m = state(mid)
    _crossing_census(state, a, st_a, mid, st_m, rho, events)
    _crossing_census(state, mid, st_m, b, st_b, rho, events)


def continuation_count(channel: ChannelParams, potential: PotentialModel,
                       mu_grid: Optional[Sequence[float]] = None,
                       tol: float = 1e-9) -> ContinuationReport:
    """Count directed crossings of A(0, mu) through rho = (1/2 - lam)/r0.

    Zero energy is represented by a small negative proxy (kappa r0 < 1e-5),
    so threshold solutions stay on the single decaying-exterior code path.
    Sign-flip brackets of (y'(r0) - rho y(r0), y(r0)) are refined and
    classified by :func:`_crossing_census`, which separates genuine
    crossings from poles of A and from kernel-resonance normalization
    flips; grazing contact without a sign change raises
    AmbiguousCrossingError.
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    if mu_grid is None:
        mu_grid = np.linspace(0.0, 1.0, 201)
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid[0] != 0.0:
        raise QwsError("mu grid must start at 0")
    rho = (0.5 - lam) / r0
    eps_e = min(1e-10 * max(1.0, potential.max_local()), (1e-5 / r0) ** 2)
    E_thr = -eps_e
    moments_grid = make_scan_grid(r0) if potential.kernel else None

    def state(mu: float) -> Tuple[float, float]:
        # a sample landing exactly on a kernel resonance is nudged by far
        # less than the crossing-bracket floor
        last = None
        for bump in (0.0, 1e-13, -1e-13, 1e-12):
            try:
                eq = effective_equation(channel, potential.with_mu(float(mu) + bump),
                                        EnergyValue(E=E_thr))
                u, v, _ = interior_state(eq, tol, moments_grid)
                return u.real, v.real
            except DegenerateCouplingError as exc:
                last = exc
        raise last

    def m0(u: float, v: float) -> float:
        return v - rho * u

    samples = [state(float(m)) for m in mu_grid]
    A_vals = np.array([v / u if u != 0.0 else math.inf for u, v in samples])
    M_vals = np.array([m0(u, v) for u, v in samples])

    # grazing detection: A touches rho without M0 changing sign nearby
    for j in range(1, len(mu_grid) - 1):
        if (abs(A_vals[j] - rho) < GRAZING_TOL * max(1.0, abs(rho))
                and M_vals[j - 1] * M_vals[j + 1] > 0
                and M_vals[j - 1] * M_vals[j] > 0):
            raise AmbiguousCrossingError(
                f"A grazes rho at mu = {mu_grid[j]:.6f} without a sign change")

    events: List[Tuple[float, int]] = []
    for j in range(len(mu_grid) - 1):
        _crossing_census(state, float(mu_grid[j]), samples[j],
                         float(mu_grid[j + 1]), samples[j + 1], rho, events)

    n_down = sum(1 for _, d in events if d > 0)
    n_up = sum(1 for _, d in events if d < 0)
    stairs = np.zeros(len(mu_grid))
    for mu_star, d in events:
        stairs[mu_grid > mu_star] += d * math.pi
    return ContinuationReport(channel=channel, mu_grid=mu_grid, A_samples=A_vals,
                              rho=rho, events=tuple(events), n_down=n_down,
                              n_up=n_up, n_bound=n_down - n_up,
                              eta0_staircase=stairs)


def levinson_verify(channel: ChannelParams, potential: PotentialModel,
                    tol_eta: float = 1e-2, tol: float = 1e-9,
                    mu_steps: int = 200, n_scan: int = 400) -> LevinsonReport:
    """Check eta(0) = n pi, with n counted two independent ways.

    eta(0) comes from the mu-continued phase at two small wavenumbers,
    extrapolated to k = 0 along the k^{2 lam} law; n comes from a direct
    energy scan and from the threshold crossing counter, which must agree
    exactly.  Upstream degeneracies surface as status "inconclusive".  The
    counter's report rides along as ``continuation`` (for the staircase).
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    cont = None
    try:
        cont = continuation_count(channel, potential, tol=tol)
        states = find_bound_states(channel, potential, mu=potential.mu,
                                   ode_tol=tol, n_scan=n_scan)
        k1 = 1e-4 / r0
        k2 = 2e-4 / r0
        eta1 = phase_shift(channel, potential, k1, mu=potential.mu, tol=tol,
                           mu_steps=mu_steps, with_fit=False).eta
        eta2 = phase_shift(channel, potential, k2, mu=potential.mu, tol=tol,
                           mu_steps=mu_steps, with_fit=False).eta
        eta0 = eta1 - (eta2 - eta1) / (2.0 ** (2 * lam) - 1.0)
    except (AmbiguousCrossingError, NearThresholdResonanceError,
            NodeAtCutoffError, DegenerateCouplingError) as exc:
        return LevinsonReport(eta0=math.nan, n_direct=-1, n_continuation=-1,
                              status="inconclusive", reason=str(exc),
                              tol_eta=tol_eta, continuation=cont)
    n_direct = len(states)
    ok = (abs(eta0 - n_direct * math.pi) <= tol_eta
          and n_direct == cont.n_bound)
    return LevinsonReport(eta0=float(eta0), n_direct=n_direct,
                          n_continuation=cont.n_bound,
                          status="pass" if ok else "fail", tol_eta=tol_eta,
                          continuation=cont)
