"""Bound-state search (E <= 0), log-derivative monotonicity checks, the
coupling-continuation crossing counter, and the zero-momentum phase /
bound-count identity verifier.

Every solve goes through :func:`~qws.radial_ode.interior_state` (the cutoff
values, with the Prufer winding for a local equation),
:func:`~qws.radial_ode.interior_lanes` (the cutoff values of a whole grid
of points, as float64 lanes: the energy scan of a kernel's
:func:`find_bound_states`), :func:`~qws.radial_ode.interior_in_mu` (the
cutoff values as a function of mu at the threshold energy: every sample of
:func:`continuation_count`, its mu grid at once, which a pure kernel
answers from one superposition) or :func:`~qws.radial_ode.solve_nonlocal`
(a full grid), which decide between the local integration and the kernel
superposition themselves.  This module branches on ``potential.kernel``
only where the mathematics differs: the kernel term of the energy floor,
and how :func:`find_bound_states` finds the levels.

A local equation obeys Sturm oscillation, so its levels are counted and
refined on the Prufer mismatch F(E) = phi(r0) - atan h(E), with h(E) the
decaying-exterior log-derivative: F falls strictly with E, level j is the
root of F + j pi, and ceil(-F/pi) levels lie below E (the eigenvalue index
of SLEDGE and MATSLISE).  A kernel breaks the oscillation theorem, so its
levels are the sign changes of M(E) = y'(r0) - h(E) y(r0) on a log-spaced
energy scan: M is continuous (no poles where y(r0) = 0, unlike A(E)
itself, and none where det(Id - mu C M) = 0, since a kernel's state comes
scaled by that determinant), vanishes exactly at bound states, and has
simple roots because the interior log-derivative decreases while the
exterior one increases with energy.  Either way the search first counts
(:func:`_level_search`), then a bracketed superlinear method refines each
level: :func:`~qws.roots.refine_root` (Illinois false position with a
bisection fallback), which also locates the branch events of the phase
shifts.  :func:`levinson_verify` takes the count alone.

The crossing counter :func:`continuation_count` is the mu walk of
:func:`~qws.scattering.phase_shift` at k -> 0, with its event locator, on
the threshold map (y' - rho y, rho~ y - y'), whose grid steps are split
in sqrt(mu) wherever a well's phase may turn by more than pi/2 over one.
No sample of the scan, the count or the walk is nudged around a kernel
resonance: the scaled state is finite there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import specfun
from .errors import (AmbiguousCrossingError, InvalidDifferencingError,
                     NearThresholdResonanceError, NodeAtCutoffError, QwsError)
from .model import ChannelParams, EnergyValue, effective_equation
from .potentials import PotentialModel
from .radial_ode import (MOMENT_NODES, RadialSolution, cutoff_integral, interior_in_mu,
                         interior_lanes, interior_state, make_grid, node_at_cutoff,
                         prufer_angle, solve_nonlocal, source_samples)
from .roots import refine_root
from .scattering import _phase_walk, phase_shift, real_lambda

MU_CROSSING_FLOOR = 1e-5   # widest bracket a threshold crossing is located to
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
    """Directed crossings of A(0, mu) through rho = (1/2 - lam)/r0 along the mu grid.

    A = y'/y at r0.  ``events`` holds (mu*, direction) in the order of the walk: +1 where A
    falls through rho (a level gained), -1 where it rises; mu* is the
    midpoint of a bracket no wider than MU_CROSSING_FLOOR.  A pole of A
    (y(r0) = 0) is no event.  ``A_samples`` is A at the grid couplings
    (inf where y(r0) is exactly 0).
    """

    channel: ChannelParams
    mu_grid: np.ndarray
    A_samples: np.ndarray
    rho: float
    events: Tuple[Tuple[float, int], ...]
    n_down: int
    n_up: int
    n_bound: int
    eta0_staircase: np.ndarray


@dataclass(frozen=True)
class LevinsonReport:
    """Zero-momentum phase vs bound-state count: the two must satisfy eta0 = n pi.

    ``continuation`` is the crossing count behind n_continuation; it is
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


def _exterior_k_integral(lam: float, z0: float, pair) -> float:
    """integral_{z0}^inf z K_lam(z)^2 dz in units of e^{-2 z0}, from the scaled K at z0."""
    k_s, dk_s = pair.k_scaled, pair.k_deriv_scaled
    return (z0 * z0 / 2.0) * (dk_s * dk_s - (1.0 + lam * lam / (z0 * z0)) * k_s * k_s)


def _cutoff_match(channel, potential, E, mu, tol):
    """(y, y', max|y|) at r0^- and the decaying-exterior log-derivative h(E)."""
    lam = real_lambda(channel, "spectral pipeline")
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    u, v, max_u = interior_state(eq, tol)
    return u, v, max_u, _exterior_logderiv(lam, E, potential.r0)


def matching_mismatch(channel: ChannelParams, potential: PotentialModel,
                      E: float, mu: float, tol: float = 1e-10) -> float:
    """Interior minus exterior log-derivative at r0 for E <= 0; zero iff bound state.

    When y(r0) vanishes (interior A has a pole) the mismatch is evaluated in
    the inverse chart 1/A instead, where the matching condition is regular.
    """
    if E > 0:
        raise QwsError("matching mismatch is defined for E <= 0")
    u, v, max_u, h = _cutoff_match(channel, potential, E, mu, tol)
    if node_at_cutoff(u, max_u):
        return float((u / v).real - 1.0 / h)  # inverse chart
    return float((v / u).real - h)


def _matching_scan_value(channel, potential, E, mu, tol) -> float:
    """M = y'(r0) - h(E) y(r0): continuous in E, zero at bound states.

    A kernel's (y, y') come scaled by det(Id - mu C M)
    (:func:`~qws.radial_ode.interior_state`), so M has no pole where that
    determinant vanishes, and its sign changes are the levels alone.
    """
    u, v, _, h = _cutoff_match(channel, potential, E, mu, tol)
    return (v - h * u).real


def _scan_values(channel, potential, grid_E: np.ndarray, mu: float, tol) -> np.ndarray:
    """M(E) of :func:`_matching_scan_value` on an energy grid, all energies as lanes.

    The lanes come from :func:`~qws.radial_ode.interior_lanes`.
    """
    lam = real_lambda(channel, "spectral pipeline")
    u, v, _ = interior_lanes(channel, potential, grid_E, mu, tol)
    h = np.array([_exterior_logderiv(lam, float(E), potential.r0) for E in grid_E])
    return v - h * u


def _sign_brackets(grid_E: np.ndarray,
                   vals: np.ndarray) -> Tuple[List[Tuple[float, float]], bool]:
    """Sign-change brackets of the scan values, and whether two are adjacent."""
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


def default_energy_floor(channel: ChannelParams, potential: PotentialModel) -> float:
    """Below the deepest level: -1.5 |mu| (max|V| + kernel bound) - 1.

    The kernel bound is the Cauchy-Schwarz norm sum_ij |c_ij| |S_i| |S_j| of
    the kernel the radial equation carries, with the weighted sources
    S_i = g_i r^{(q-1)/2} normed over (0, r0).
    """
    bound = potential.max_local()
    if potential.kernel:
        grid = make_grid(potential.r0, r_max=potential.r0, n_interior=MOMENT_NODES)
        eq = effective_equation(channel, potential, EnergyValue(E=0.0))
        s = source_samples(eq.sources, grid)
        norms = np.array([math.sqrt(abs(cutoff_integral(grid, s[:, i] * s[:, i], 0.0)))
                          for i in range(eq.rank)])
        bound += float(norms @ np.abs(potential.coupling_matrix()) @ norms)
    return -1.5 * abs(potential.mu) * bound - 1.0


def find_bound_states(channel: ChannelParams, potential: PotentialModel,
                      mu: float = 1.0, E_floor: Optional[float] = None,
                      tol: float = 1e-10, n_scan: int = 400,
                      ode_tol: float = 1e-10) -> List[BoundState]:
    """All bound levels in [E_floor, 0), each refined to a width of tol max(1, |E|).

    A local potential is searched by count (:func:`_counted_levels`): Sturm
    oscillation gives the number of levels below any energy from the Prufer
    mismatch F(E) of one solve, so F at E_floor and near threshold fixes the
    count, and each level is refined on F itself.  A floor with levels below
    it draws a warning.  A kernel breaks the oscillation theorem, so it is
    searched by a sign scan of M(E) on ``n_scan`` log-spaced energies
    (:func:`_scanned_levels`); ``n_scan`` applies to kernels only.  Each
    level is the midpoint of the final bracket of
    :func:`~qws.roots.refine_root`; :func:`_level_search` finds the levels,
    and each is then built into its unit-norm solution.
    """
    if not tol > 0:
        raise QwsError("tol must be positive")
    levels, refine = _level_search(channel, potential, mu, E_floor, n_scan, ode_tol)
    return [_build_bound_state(channel, potential, E, mu, ode_tol)
            for E in sorted(refine(level, tol) for level in levels)]


def _level_search(channel, potential, mu, E_floor, n_scan, ode_tol):
    """The count step of the level search: (levels, refine).

    ``levels`` holds one entry per level in [E_floor, E_top), E_top just
    below threshold, and ``refine(level, tol)`` closes that entry to its
    energy.  :func:`levinson_verify` counts the entries and refines none,
    so the count and the list of levels cannot disagree.
    """
    if E_floor is None:
        E_floor = default_energy_floor(channel, potential.with_mu(mu))
    if E_floor >= 0:
        raise QwsError("E_floor must be negative")
    E_top = -1e-11 * max(1.0, abs(E_floor))
    if potential.kernel:
        return _scanned_levels(channel, potential, mu, E_floor, E_top, n_scan, ode_tol)
    return _counted_levels(channel, potential, mu, E_floor, E_top, ode_tol)


def _scanned_levels(channel, potential, mu, E_floor, E_top, n_scan, ode_tol):
    """Sign brackets of M(E) on a log-spaced lane scan, each refined on demand (kernels).

    Adjacent sign-change intervals trigger one re-scan on four times the
    points, and warn if they persist.  Returns the brackets, each as
    (a, M(a), b, M(b)) with the values of the scan that found it, and their
    refinement by :func:`~qws.roots.refine_root`, which starts from those
    values and solves no bracket end again.
    """
    def scan(grid_E: np.ndarray) -> Tuple[List[Tuple[float, float, float, float]], bool]:
        vals = _scan_values(channel, potential, grid_E, mu, ode_tol)
        brackets, adjacent = _sign_brackets(grid_E, vals)
        at = dict(zip(grid_E.tolist(), vals.tolist()))
        return [(a, at[a], b, at[b]) for a, b in brackets], adjacent

    brackets, adjacent = scan(-np.geomspace(abs(E_floor), -E_top, n_scan))
    if adjacent:
        brackets, adjacent = scan(-np.geomspace(abs(E_floor), -E_top, 4 * n_scan))
        if adjacent:
            warnings.warn("adjacent sign changes persist: energy scan too coarse")

    def match(E: float) -> float:
        return _matching_scan_value(channel, potential, E, mu, ode_tol)

    def refine(bracket: Tuple[float, float, float, float], tol: float) -> float:
        a, fa, b, fb = bracket
        if a == b:   # an exact zero of the scan
            return a
        lo, hi = refine_root(match, a, fa, b, fb, tol)
        return 0.5 * (lo + hi)

    return brackets, refine


def _prufer_mismatch(channel, potential, E, mu, tol) -> float:
    """F(E) = Prufer angle of the regular solution at r0 minus atan h(E) (local only).

    F decreases strictly in E (the angle falls, the exterior log-derivative
    h rises), starts in (0, pi) below the deepest level, and level j is its
    root of F(E) + j pi; so ceil(-F(E)/pi) levels lie below E.  One solve
    straight to the cutoff with its winding count, see
    :func:`~qws.radial_ode.prufer_angle`.
    """
    lam = real_lambda(channel, "spectral pipeline")
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    u, v, _, turns = interior_state(eq, tol, return_winding=True)
    return prufer_angle(u, v, turns) - math.atan(_exterior_logderiv(lam, E, potential.r0))


def _counted_levels(channel, potential, mu, E_floor, E_top, ode_tol):
    """Level indices in [E_floor, E_top) of a local potential, counted on F(E), refined on demand.

    The eigenvalue index of Sturm-Liouville codes (SLEDGE, MATSLISE): F at
    the two ends gives the indices j of the levels between them, and each
    is refined by :func:`~qws.roots.refine_root` on F + j pi.  Its start
    bracket is the tightest pair among every F value taken so far, so each
    solve also narrows the brackets of the levels still to come.  The
    middle index goes first, then the middle of each half, so that most
    levels start between two refined neighbours.  Returns the indices in
    that order and their refinement.
    """
    taken: Dict[float, float] = {}

    def F(E: float) -> float:
        taken[E] = _prufer_mismatch(channel, potential, E, mu, ode_tol)
        return taken[E]

    def middle_first(lo: int, hi: int) -> List[int]:
        if lo >= hi:
            return []
        mid = (lo + hi) // 2
        return [mid] + middle_first(lo, mid) + middle_first(mid + 1, hi)

    n_floor = math.ceil(-F(E_floor) / math.pi)
    n_top = math.ceil(-F(E_top) / math.pi)
    if n_floor > 0:
        warnings.warn(f"{n_floor} levels below E_floor: floor above the deepest level")

    def refine(j: int, tol: float) -> float:
        shift = j * math.pi
        a = max(E for E, f in taken.items() if f + shift >= 0)
        b = min(E for E, f in taken.items() if f + shift < 0)
        lo, hi = refine_root(lambda E: F(E) + shift, a, taken[a] + shift,
                             b, taken[b] + shift, tol)
        return 0.5 * (lo + hi)

    return middle_first(max(n_floor, 0), n_top), refine


def _build_bound_state(channel, potential, E, mu, tol) -> BoundState:
    """Assemble the unit-norm matched solution and its residual at the root."""
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    kappa = math.sqrt(-E)
    grid = make_grid(r0)
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    sol = solve_nonlocal(eq, grid, tol)
    y, dy = sol.y, sol.dy   # the exterior part is replaced by the decaying tail
    i0 = grid.i_cutoff
    y_int = y[: i0 + 1]
    h = _exterior_logderiv(lam, E, r0)
    A_int = (dy[i0] / y[i0]).real
    residual = abs(A_int - h)
    # exterior tail proportional to sqrt(r) K_lam(kappa r), matched at r0
    pair0 = specfun.bessel_i_k(lam, kappa * r0)
    scale = y[i0].real / (math.sqrt(r0) * pair0.k_scaled)
    for j in range(i0 + 1, len(grid.nodes)):
        r = float(grid.nodes[j])
        pr = specfun.bessel_i_k(lam, kappa * r)
        damp = math.exp(-kappa * (r - r0))  # relative to the value at r0
        y[j] = scale * math.sqrt(r) * pr.k_scaled * damp
        dy[j] = scale * damp * (0.5 / math.sqrt(r) * pr.k_scaled
                                + math.sqrt(r) * kappa * pr.k_deriv_scaled)
    # norm: interior quadrature + closed-form exterior integral of r K^2
    interior_sq = cutoff_integral(grid, np.real(y_int) ** 2, 2 * lam + 1)
    exterior_sq = (scale ** 2) * _exterior_k_integral(lam, kappa * r0, pair0) / (kappa * kappa)
    norm = math.sqrt(abs(interior_sq) + abs(exterior_sq))
    y /= norm
    dy /= norm
    solution = RadialSolution(grid=grid, y=y, dy=dy, normalization="matched-physical",
                              channel=channel, energy=EnergyValue(E=E), mu=mu)
    return BoundState(E=float(E), kappa=kappa, mu=mu, channel=channel,
                      solution=solution, matching_residual=float(residual))


def default_sturm_step(E: float) -> float:
    """The energy step of :func:`sturm_liouville_check` when none is given."""
    return 1e-4 * max(1.0, abs(E))


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
        dE = default_sturm_step(E)
    if not dE > 0:
        raise QwsError("dE must be positive")
    if E + dE >= 0:
        raise QwsError("need E + dE < 0 for the decaying exterior branch")

    def interior_A(Ev: float) -> Tuple[float, float]:
        eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=Ev))
        u, v, max_u = interior_state(eq, tol)
        if node_at_cutoff(u, max_u):
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
    y_int = solve_nonlocal(eq, grid, tol).y[: grid.i_cutoff + 1]
    y0 = y_int[grid.i_cutoff].real
    norm_sq = cutoff_integral(grid, np.real(y_int) ** 2, 2 * lam + 1)
    slope_int_quad = -abs(norm_sq) / (y0 * y0)

    slope_ext_fd = (_exterior_logderiv(lam, E + dE, r0)
                    - _exterior_logderiv(lam, E - dE, r0)) / (2 * dE)
    kappa = math.sqrt(-E)
    pair = specfun.bessel_i_k(lam, kappa * r0)
    k_s = pair.k_scaled
    slope_ext_quad = (_exterior_k_integral(lam, kappa * r0, pair)
                      / (kappa * kappa * r0 * k_s * k_s))
    return SturmReport(E=float(E), dE=float(dE),
                       slope_interior_fd=float(slope_int_fd),
                       slope_interior_quad=float(slope_int_quad),
                       slope_exterior_fd=float(slope_ext_fd),
                       slope_exterior_quad=float(slope_ext_quad))


def _sqrt_mu_steps(grid: List[float], scale: float) -> List[float]:
    """``grid`` with every step that may turn a well's phase by over pi/2 split.

    The interior phase of a local well grows like scale sqrt(mu), scale =
    r0 sqrt(max|V|), whose slope in mu is unbounded at mu = 0.  A step
    [a, b] with scale |t(b) - t(a)| > pi/2, t(mu) = sign(mu) sqrt|mu|, is
    cut into the fewest equal steps in t that each stay within pi/2; every
    other step, and each grid point, stays as it is.
    """
    walk = grid[:1]
    for a, b in zip(grid[:-1], grid[1:]):
        ta, tb = math.copysign(math.sqrt(abs(a)), a), math.copysign(math.sqrt(abs(b)), b)
        n = math.ceil(scale * abs(tb - ta) / (0.5 * math.pi))
        for j in range(1, n):
            t = ta + (tb - ta) * j / n
            walk.append(math.copysign(t * t, t))
        walk.append(b)
    return walk


def continuation_count(channel: ChannelParams, potential: PotentialModel,
                       mu_grid: Optional[Sequence[float]] = None,
                       tol: float = 1e-9) -> ContinuationReport:
    """Count directed crossings of A(0, mu) through rho = (1/2 - lam)/r0.

    Zero energy is represented by a small negative proxy (kappa r0 < 1e-5),
    so threshold solutions stay on the single decaying-exterior code path;
    every sample comes from one :func:`~qws.radial_ode.interior_in_mu` at
    that energy, the whole mu grid from one call of it, and a kernel's come
    scaled by det(Id - mu C M), smooth through kernel resonances.

    The count is the phase walk of :func:`~qws.scattering.phase_shift` at
    k -> 0: theta is the angle of L0 (y, y') = (y' - rho y, rho~ y - y'),
    rho~ = (1/2 + lam)/r0, in place of the matching map; each sample is
    placed on the 2 pi branch nearest the previous one, extra samples come
    from scalar solves at the same energy, and the branch events are
    refined to MU_CROSSING_FLOOR.  A placed sample cannot see a full turn,
    so the walk first splits each grid step over which a well's phase
    r0 sqrt(max|V| mu) may turn by more than pi/2 into equal steps in
    sqrt(mu) (:func:`_sqrt_mu_steps`): the s-wave well of depth 1e4 has
    its first two crossings in the default grid's first step.  The added
    couplings are scalar samples; ``A_samples`` and the staircase stay on
    ``mu_grid``.  The free threshold state at mu = 0 has A = rho~, so
    th0 = 0 up to the proxy energy, and the events of
    theta - th0 through pi/2 (mod pi) are the sign changes of
    D ~ y' - rho y: the crossings of rho.  L0 reverses orientation
    (det = -2 lam/r0), so a crossing where A falls through rho (a level
    gained) is a +1 event.  At a pole of A, y(r0) = 0, D = y' keeps its
    sign: no event, even beside a crossing.  Grazing contact without a
    sign change raises AmbiguousCrossingError.
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    if mu_grid is None:
        mu_grid = np.linspace(0.0, 1.0, 201)
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid[0] != 0.0:
        raise QwsError("mu grid must start at 0")
    rho = (0.5 - lam) / r0
    rho_t = (0.5 + lam) / r0
    eps_e = min(1e-10 * max(1.0, potential.max_local()), (1e-5 / r0) ** 2)
    at = interior_in_mu(channel, potential, -eps_e, tol)
    grid = mu_grid.tolist()
    lanes = [x.tolist() for x in at(mu_grid)]   # (y, y', max|y|) at every grid coupling
    samples = list(zip(lanes[0], lanes[1]))
    A_vals = np.array([v / u if u != 0.0 else math.inf for u, v in samples])
    M_vals = np.array([v - rho * u for u, v in samples])

    # grazing detection: A touches rho without M0 changing sign nearby
    for j in range(1, len(mu_grid) - 1):
        if (abs(A_vals[j] - rho) < GRAZING_TOL * max(1.0, abs(rho))
                and M_vals[j - 1] * M_vals[j + 1] > 0
                and M_vals[j - 1] * M_vals[j] > 0):
            raise AmbiguousCrossingError(
                f"A grazes rho at mu = {mu_grid[j]:.6f} without a sign change")

    def threshold_map(u, v):
        return v - rho * u, rho_t * u - v

    states = dict(zip(grid, zip(*lanes)))
    walk = _sqrt_mu_steps(grid, r0 * math.sqrt(potential.max_local()))
    _, events = _phase_walk(threshold_map, None, at, states, walk, MU_CROSSING_FLOOR)

    n_down = sum(1 for _, d in events if d > 0)
    n_up = sum(1 for _, d in events if d < 0)
    stairs = np.zeros(len(mu_grid))
    path = -1.0 if mu_grid[-1] < 0 else 1.0   # a grid may run from 0 downwards
    for mu_star, d in events:
        stairs[path * (mu_grid - mu_star) > 0] += d * math.pi
    return ContinuationReport(channel=channel, mu_grid=mu_grid, A_samples=A_vals,
                              rho=rho, events=events, n_down=n_down,
                              n_up=n_up, n_bound=n_down - n_up,
                              eta0_staircase=stairs)


def levinson_verify(channel: ChannelParams, potential: PotentialModel,
                    tol_eta: float = 1e-2, tol: float = 1e-9,
                    mu_steps: int = 200, n_scan: int = 400) -> LevinsonReport:
    """Check eta(0) = n pi, with n counted two independent ways.

    eta(0) comes from the mu-continued phase at two small wavenumbers,
    extrapolated to k = 0 along the k^{2 lam} law.  n comes from the count
    step of the level search of :func:`find_bound_states`, which refines
    and builds no level here: two Prufer-mismatch solves for a local well,
    the sign brackets of the energy scan for a kernel (``n_scan`` is its
    size).  It also comes from the threshold crossing counter, and the two
    must agree exactly.  Upstream degeneracies surface as status
    "inconclusive".  The counter's report rides along as ``continuation``
    (for the staircase).
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    cont = None
    try:
        cont = continuation_count(channel, potential, tol=tol)
        levels, _ = _level_search(channel, potential, potential.mu, None, n_scan, tol)
        n_direct = len(levels)
        k1 = 1e-4 / r0
        k2 = 2e-4 / r0
        eta1 = phase_shift(channel, potential, k1, mu=potential.mu, tol=tol,
                           mu_steps=mu_steps, with_fit=False).eta
        eta2 = phase_shift(channel, potential, k2, mu=potential.mu, tol=tol,
                           mu_steps=mu_steps, with_fit=False).eta
        eta0 = eta1 - (eta2 - eta1) / (2.0 ** (2 * lam) - 1.0)
    except (AmbiguousCrossingError, NearThresholdResonanceError,
            NodeAtCutoffError) as exc:
        return LevinsonReport(eta0=math.nan, n_direct=-1, n_continuation=-1,
                              status="inconclusive", reason=str(exc),
                              tol_eta=tol_eta, continuation=cont)
    ok = (abs(eta0 - n_direct * math.pi) <= tol_eta
          and n_direct == cont.n_bound)
    return LevinsonReport(eta0=float(eta0), n_direct=n_direct,
                          n_continuation=cont.n_bound,
                          status="pass" if ok else "fail", tol_eta=tol_eta,
                          continuation=cont)
