"""Bound-state search (E <= 0), log-derivative monotonicity checks, the
coupling-continuation crossing counter, and the zero-momentum phase /
bound-count identity verifier.

Solves go through :mod:`~qws.radial_ode`, which decides between the local
integration and the kernel's two local solves itself.  This module reads
``potential.kernel_acts`` (some coupling nonzero) only where the
mathematics differs: the kernel terms of the energy floor and of the level
count.

One count serves every model (:func:`_level_count`): ceil(-F(E)/pi)
levels lie below E, with F = phi(r0) - atan h(E) the Prufer mismatch of
the local part and h(E) the decaying-exterior log-derivative (the
eigenvalue index of SLEDGE and MATSLISE), and a kernel adds n_+(K^-1 +
G(E)) - n_+(K) (Haynsworth's inertia additivity, K = mu C).  G_ij = <S_i,
(H_loc - E)^-1 S_j> comes from two local solves, each in the direction in
which it grows (the kernel point of :func:`~qws.radial_ode._kernel_point`
with y_2 started from (1, h)), so it does not cancel however strong the
kernel.  The count at the ends of the energy range is all
:func:`levinson_verify` takes.  :func:`find_bound_states`
scans no energies: every level is bracketed by the count, and refined on F
+ j pi (a local level j) or on W det(Id + K G) (a kernel's level, W the
Wronskian of the two solves: finite at the levels of H_loc, where G has a
pole) by :func:`~qws.roots.refine_root` (Chandrupatla's inverse-quadratic
step with a bisection fallback), which also locates the phases' branch
events.

The crossing counter :func:`continuation_count` is the mu walk of
:func:`~qws.scattering.phase_events` at k -> 0 on the threshold map, on the
kernel's scaled state.  No sample of the count or the walk is nudged
around a kernel resonance: the scaled state is finite there.  Every kernel
state, here and in :mod:`~qws.scattering`, comes from the same two local
solves as the Green matrix, y_reg outward and a second solution inward,
with no particular solve; the default energy floor norms the sources on
the same rule.
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
from .radial_ode import (RadialSolution, _kernel_point, cutoff_integral, interior_in_mu,
                         interior_state, make_grid, node_at_cutoff, prufer_angle,
                         solve_nonlocal, source_norms)
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


def matching_mismatch(channel: ChannelParams, potential: PotentialModel,
                      E: float, mu: float, tol: float = 1e-10) -> float:
    """Interior minus exterior log-derivative at r0 for finite E <= 0; zero iff bound state.

    When y(r0) vanishes (interior A has a pole) the mismatch is evaluated in
    the inverse chart 1/A instead, where the matching condition is regular.
    """
    if not (math.isfinite(E) and E <= 0):
        raise QwsError("matching mismatch is defined for finite E <= 0")
    h = _exterior_logderiv(real_lambda(channel, "spectral pipeline"), E, potential.r0)
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    u, v, max_u = interior_state(eq, tol)
    if node_at_cutoff(u, max_u):
        return float((u / v).real - 1.0 / h)  # inverse chart
    return float((v / u).real - h)


def default_energy_floor(channel: ChannelParams, potential: PotentialModel) -> float:
    """Below the deepest level: -1.5 |mu| (max|V| + kernel bound) - 1.

    The kernel bound is the Cauchy-Schwarz norm sum_ij |c_ij| |S_i| |S_j| of
    the kernel the radial equation carries, with the weighted sources
    S_i = g_i r^{(q-1)/2} normed over (0, r0) on the rule of the kernel
    solves at E = 0.
    """
    bound = potential.max_local()
    if potential.kernel_acts:
        norms = source_norms(channel, potential)
        bound += float(norms @ np.abs(potential.coupling_matrix()) @ norms)
    return -1.5 * abs(potential.mu) * bound - 1.0


def _search_range(channel, potential, mu, E_floor) -> Tuple[float, float]:
    """(E_floor, E_top) of the level search: the default floor if none, E_top below threshold."""
    if E_floor is None:
        E_floor = default_energy_floor(channel, potential.with_mu(mu))
    if not (math.isfinite(E_floor) and E_floor < 0):
        raise QwsError("E_floor must be negative and finite")
    return E_floor, -1e-11 * max(1.0, abs(E_floor))


def _level_count(channel, potential, E, mu, tol) -> Tuple[int, float]:
    """(N(E), g(E)): the number of levels below E, for every model, and the refiner's function.

    H = H_loc + S K S^T with K = mu C, so Haynsworth's inertia additivity
    (Linear Algebra Appl. 1 (1968) 73) gives N(E) = N_loc(E) + n_+(K^-1 +
    G(E)) - n_+(K), G_ij = <S_i, (H_loc - E)^-1 S_j> on the range of K.
    N_loc = ceil(-F/pi) is the Sturm count of the local part alone, F =
    :func:`_prufer_mismatch` (0 in a pure kernel).  Where no kernel acts, g
    = F and level j is the root of F + j pi.  Where one acts, N = W G, W
    and F come from the two local solves of one kernel point, y_2 from (1,
    h) (:func:`~qws.radial_ode._kernel_point`), and g = det(W Id + K N) /
    (W^(n-1) |(y, y')(r0)|): that is W det(Id + K G) on a positive scale,
    which vanishes exactly at the levels, and stays finite and nonzero where
    W = 0, at the levels of H_loc, where G has a pole.
    """
    if not (mu != 0 and potential.kernel_acts):
        F = _prufer_mismatch(channel, potential, E, mu, tol)
        return math.ceil(-F / math.pi), F
    lam = real_lambda(channel, "spectral pipeline")
    eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
    h = _exterior_logderiv(lam, E, potential.r0)
    local = potential.local is not None
    point = _kernel_point(eq.coefficient, eq.sources, channel, eq.potential, E, eq.mu, tol, h=h,
                          return_winding=local)
    u, v = point.y[0, 0], point.dy[0, 0]
    scale = math.hypot(u, v)
    N, W = point.WG[0] / scale, point.W[0] / scale
    K = mu * eq.coupling
    k, U = np.linalg.eigh(K)
    on = np.abs(k) > 1e-12 * np.max(np.abs(k))
    A = np.diag(1.0 / k[on]) + U[:, on].T @ (N / W) @ U[:, on]
    index = int(np.sum(np.linalg.eigvalsh(A) > 0)) - int(np.sum(k[on] > 0))
    n_loc = math.ceil(-(prufer_angle(u, v, point.turns) - math.atan(h)) / math.pi) if local else 0
    return n_loc + index, float(np.linalg.det(W * np.eye(eq.rank) + K @ N) / W ** (eq.rank - 1))


def find_bound_states(channel: ChannelParams, potential: PotentialModel,
                      mu: float = 1.0, E_floor: Optional[float] = None,
                      tol: float = 1e-10, n_scan: Optional[int] = None,
                      ode_tol: float = 1e-10) -> List[BoundState]:
    """All bound levels in [E_floor, 0), each refined to a width of tol max(1, |E|).

    The level count of :func:`_level_count` at E_floor and at E_top, just
    below threshold, fixes the number of levels of every model; levels
    below the floor draw a warning.  A local well's level j is refined on F
    + j pi, a kernel's on the Green function's g, from the tightest bracket
    of the count among every energy taken so far (:func:`_counted_levels`).
    Each level, the midpoint of the final bracket of
    :func:`~qws.roots.refine_root`, is built into its unit-norm solution.
    No energy is scanned: ``n_scan``, the size of an energy scan that
    earlier versions took for a kernel, is accepted and ignored.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise QwsError("tol must be positive and finite")
    E_floor, E_top = _search_range(channel, potential, mu, E_floor)
    n_floor, levels, refine = _counted_levels(channel, potential, mu, E_floor, E_top, ode_tol)
    if n_floor > 0:
        warnings.warn(f"{n_floor} levels below E_floor: floor above the deepest level")
    return [_build_bound_state(channel, potential, E, mu, ode_tol)
            for E in sorted(refine(level, tol) for level in levels)]


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
    """Level indices in [E_floor, E_top), counted by :func:`_level_count`, refined on demand.

    The count at the two ends gives the indices j of the levels.  Level j
    is refined on g + j pi (a local well: g = F) or on g (a kernel: g
    vanishes at every level) from the tightest bracket among every energy
    taken so far: a the highest with at most j levels below, b the lowest
    above a with more.  A kernel's bracket must hold level j alone, so one
    whose ends count other than j and j + 1 is halved first (one count
    each), down to a width of tol max(1, |a|).  The middle index goes
    first, then the middle of each half, so that most levels start between
    two refined neighbours.  Returns N(E_floor), the indices in that order
    and their refinement.
    """
    kernel = mu != 0 and potential.kernel_acts
    taken: Dict[float, Tuple[int, float]] = {}

    def take(E: float) -> Tuple[int, float]:
        taken[E] = _level_count(channel, potential, E, mu, ode_tol)
        return taken[E]

    def middle_first(lo: int, hi: int) -> List[int]:
        if lo >= hi:
            return []
        mid = (lo + hi) // 2
        return [mid] + middle_first(lo, mid) + middle_first(mid + 1, hi)

    n_floor, n_top = take(E_floor)[0], take(E_top)[0]

    def refine(j: int, tol: float) -> float:
        shift = 0.0 if kernel else j * math.pi
        while True:
            b = min(E for E, (n, _) in taken.items() if n > j)
            a = max(E for E, (n, _) in taken.items() if n <= j and E < b)
            E = 0.5 * (a + b)
            if (not kernel or (taken[a][0], taken[b][0]) == (j, j + 1)
                    or b - a <= tol * max(1.0, abs(a)) or E in (a, b)):
                break
            take(E)
        lo, hi = refine_root(lambda E: take(E)[1] + shift, a, taken[a][1] + shift,
                             b, taken[b][1] + shift, tol)
        return 0.5 * (lo + hi)

    return n_floor, middle_first(max(n_floor, 0), n_top), refine


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
    slope must agree with the corresponding norm-integral expression.  E
    must be finite (QwsError).
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    if not math.isfinite(E):
        raise QwsError("E must be finite")
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


def continuation_count(channel: ChannelParams, potential: PotentialModel,
                       mu_grid: Optional[Sequence[float]] = None,
                       tol: float = 1e-9) -> ContinuationReport:
    """Count directed crossings of A(0, mu) through rho = (1/2 - lam)/r0.

    Zero energy is a small negative proxy (kappa r0 < 1e-5), so threshold
    solutions stay on the decaying-exterior code path; every sample comes
    from one :func:`~qws.radial_ode.interior_in_mu` at that energy (the mu
    grid from one call), a kernel's scaled by det(Id - mu C M).

    The count is the phase walk of :func:`~qws.scattering.phase_events` at
    k -> 0 (:func:`~qws.scattering._phase_walk`, handed the grid states of
    the ``A_samples`` lanes call), with events refined to
    MU_CROSSING_FLOOR: theta is the angle of L0 (y, y') = (y' - rho y, rho~
    y - y'), rho~ = (1/2 + lam)/r0, each sample placed on the 2 pi branch
    nearest the previous one.  The walk splits the steps over which a
    well's phase may turn by more than pi/2 in sqrt(mu) (the s-wave well of
    depth 1e4 has two crossings in the default grid's first step), with
    scalar samples; ``A_samples`` and the staircase stay on
    ``mu_grid``.  The free threshold state at mu = 0 has A = rho~, so
    th0 = 0 up to the proxy energy, and the events of
    theta - th0 through pi/2 (mod pi) are the sign changes of
    D ~ y' - rho y: the crossings of rho.  L0 reverses orientation
    (det = -2 lam/r0), so a crossing where A falls through rho (a level
    gained) is a +1 event.  At a pole of A, y(r0) = 0, D = y' keeps its
    sign: no event, even beside a crossing.  Grazing contact without a
    sign change raises AmbiguousCrossingError.  A grid must be one-dimensional,
    start at 0 and be finite and strictly monotone, upwards or downwards
    (QwsError).
    """
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    if mu_grid is None:
        mu_grid = np.linspace(0.0, 1.0, 201)
    mu_grid = np.asarray(mu_grid, dtype=float)
    if not (mu_grid.ndim == 1 and mu_grid.size and mu_grid[0] == 0.0):
        raise QwsError("mu grid must be one-dimensional and start at 0")
    if not (np.all(np.isfinite(mu_grid)) and np.all(np.diff(mu_grid) * np.sign(mu_grid[-1]) > 0)):
        raise QwsError("mu grid must be finite and strictly monotone")
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

    _, events = _phase_walk(threshold_map, None, at, dict(zip(grid, zip(*lanes))), grid,
                            MU_CROSSING_FLOOR, potential)

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
                    tol_eta: float = 1e-2, tol: float = 1e-9) -> LevinsonReport:
    """Check eta(0) = n pi, with n counted two independent ways.

    eta(0) comes from the continued phase of :func:`phase_shift` at two
    small wavenumbers, extrapolated to k = 0 along the k^{2 lam} law: two
    Prufer-lifted solves each for a local well, the walk along the
    MU_STEPS_DEFAULT-step mu grid where a kernel acts.  No branch event is
    read.
    n = N(E_top) - N(E_floor), the level count (:func:`_level_count`) at
    the ends of :func:`find_bound_states`' default range: two F solves, or
    two Green matrices where a kernel acts (each two local solves, the
    outward one giving F too).  The threshold crossing counter must give
    the same n.  Upstream degeneracies surface as status "inconclusive".
    The counter's report rides along as ``continuation`` (for the
    staircase).  A ``tol_eta`` that is not positive and finite raises
    QwsError.
    """
    if not (math.isfinite(tol_eta) and tol_eta > 0):
        raise QwsError("tol_eta must be positive and finite")
    lam = real_lambda(channel, "spectral pipeline")
    r0 = potential.r0
    cont = None
    try:
        cont = continuation_count(channel, potential, tol=tol)
        n_floor, n_top = (_level_count(channel, potential, E, potential.mu, tol)[0]
                          for E in _search_range(channel, potential, potential.mu, None))
        n_direct = n_top - n_floor
        k1 = 1e-4 / r0
        k2 = 2e-4 / r0
        eta1 = phase_shift(channel, potential, k1, mu=potential.mu, tol=tol,
                           with_fit=False).eta
        eta2 = phase_shift(channel, potential, k2, mu=potential.mu, tol=tol,
                           with_fit=False).eta
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
