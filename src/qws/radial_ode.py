"""Integration engine for y'' + Q(r) y = S(r) on a radial grid.

Origin-regular solutions start from a two-term power-series expansion at
r_min (exponent lam + 1/2); decaying "Jost-normalized" solutions start at
the cutoff radius, where compact support makes e^{-ikr} exact, and are
integrated inward.  The finite-rank non-local equation is solved by
superposition: one homogeneous and n particular integrations plus an
n x n linear solve for the source coefficients.

The stepper is an embedded Dormand-Prince 4(5) pair on the first-order
system (y, y'), with scalar complex arithmetic (the pipeline is dominated
by parameter scans of single integrations, not by vector work).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DegenerateCouplingError, GridMismatchError,
                     NodeAtCutoffError, QwsError, RegularityError,
                     StiffnessError)
from .model import ChannelParams, EffectiveEquation, EnergyValue

# Dormand-Prince 4(5) tableau
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

_MAX_STEPS = 5_000_000


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing radial nodes with the cutoff radius as an exact node.

    The interior section [r_min, r0] is uniform; ``interior_weights`` are
    composite Simpson weights over it.  Integrals over [0, r0] add an
    analytic power-law tail for [0, r_min] (see :func:`cutoff_integral`).
    """

    r0: float
    r_min: float
    r_max: float
    nodes: np.ndarray
    i_cutoff: int
    interior_weights: np.ndarray

    @property
    def interior_nodes(self) -> np.ndarray:
        return self.nodes[: self.i_cutoff + 1]

    def same_nodes(self, other: "RadialGrid") -> bool:
        return self is other or (len(self.nodes) == len(other.nodes)
                                 and bool(np.array_equal(self.nodes, other.nodes)))


def make_grid(r0: float, r_min: Optional[float] = None, r_max: Optional[float] = None,
              n_interior: int = 801, n_exterior: int = 161) -> RadialGrid:
    """Uniform interior grid on [r_min, r0] plus a uniform exterior tail to r_max."""
    if r0 <= 0:
        raise QwsError("r0 must be positive")
    if r_min is None:
        r_min = 1e-6 * r0
    if r_max is None:
        r_max = 2.0 * r0
    if not (0 < r_min < r0 <= r_max):
        raise QwsError("need 0 < r_min < r0 <= r_max")
    if n_interior % 2 == 0:
        n_interior += 1  # Simpson needs an even interval count
    if n_interior < 5:
        raise QwsError("n_interior too small")
    interior = np.linspace(r_min, r0, n_interior)
    interior[-1] = r0
    if r_max > r0:
        exterior = np.linspace(r0, r_max, max(n_exterior, 2))[1:]
        nodes = np.concatenate([interior, exterior])
    else:
        nodes = interior
    h = (r0 - r_min) / (n_interior - 1)
    w = np.full(n_interior, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= h / 3.0
    return RadialGrid(r0=r0, r_min=float(r_min), r_max=float(nodes[-1]),
                      nodes=nodes, i_cutoff=n_interior - 1, interior_weights=w)


def cutoff_integral(grid: RadialGrid, samples: np.ndarray, leading_power: float) -> complex:
    """integral_0^{r0} f dr from interior samples: Simpson plus an analytic tail.

    The [0, r_min] tail assumes f ~ f(r_min) (r/r_min)^p with p = leading_power,
    the small-r law of products of origin-regular solutions.
    """
    samples = np.asarray(samples)
    if samples.shape[0] != grid.i_cutoff + 1:
        raise GridMismatchError("samples do not match the interior grid")
    base = np.dot(grid.interior_weights, samples)
    tail = samples[0] * grid.r_min / (leading_power + 1.0)
    total = base + tail
    if not np.iscomplexobj(samples):
        return float(total)
    return complex(total)


@dataclass(frozen=True)
class KernelSolveData:
    """Byproducts of the non-local solve: moments m_i[y], source coefficients, det."""

    moments: np.ndarray
    coefficients: np.ndarray
    det: float


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """y and y' sampled on a radial grid, tagged by its normalization.

    Tags: ``origin-regular`` (y ~ r^{lam+1/2} at r_min), ``jost`` (y = e^{-ikr}
    exactly beyond the cutoff), ``matched-physical`` (bound state, unit norm).
    """

    grid: RadialGrid
    y: np.ndarray
    dy: np.ndarray
    normalization: str
    channel: ChannelParams
    energy: EnergyValue
    mu: float
    kernel_data: Optional[KernelSolveData] = None
    start_error: float = 0.0

    def at_cutoff(self) -> Tuple[complex, complex]:
        i = self.grid.i_cutoff
        return complex(self.y[i]), complex(self.dy[i])

    def log_derivative_at_cutoff(self) -> complex:
        y0, dy0 = self.at_cutoff()
        scale = float(np.max(np.abs(self.y)))
        if abs(y0) < 1e-12 * scale:
            raise NodeAtCutoffError("solution has a node at r0; log-derivative undefined")
        return dy0 / y0


def _integrate(qfun: Callable[[float], complex], sfun: Optional[Callable[[float], complex]],
               r_start: float, u0: complex, v0: complex,
               record: np.ndarray, rtol: float, atol: float = 0.0,
               return_winding: bool = False):
    """Adaptive DP45 along the (directed) node list ``record``; lands on every node.

    Returns (u_nodes, v_nodes, max_abs_u).  ``record`` must be monotone and
    start strictly after r_start in the direction of integration (or equal).

    ``return_winding=True`` appends the Prufer winding count: the signed
    number of 2 pi wraps of atan2(Re y', Re y) over the accepted steps, so
    that the continuous angle at the last node is its atan2 plus 2 pi times
    the count.  A step that would turn (Re y, Re y') by more than pi/2 is
    rejected and retried with half the step, which keeps every wrap
    unambiguous.
    """
    n = len(record)
    us = np.empty(n, dtype=complex)
    vs = np.empty(n, dtype=complex)
    idx = 0
    r = r_start
    u, v = complex(u0), complex(v0)
    turns = 0
    if record[0] == r_start:
        us[0], vs[0] = u, v
        idx = 1
        if n == 1:
            return (us, vs, abs(u), turns) if return_winding else (us, vs, abs(u))
    direction = 1.0 if record[-1] > r_start else -1.0
    span = abs(record[-1] - r_start)
    if span == 0.0:
        raise QwsError("empty integration span")
    h0 = 1e-3 * span
    if r_start != 0.0:
        h0 = min(h0, 0.1 * abs(r_start))  # stay below the centrifugal-layer scale
    h = direction * h0
    max_u = abs(u)   # running magnitudes; also floor the error weights below
    run_v = abs(v)
    phi = math.atan2(v.real, u.real)
    s0 = sfun(r) if sfun is not None else 0.0
    k1u, k1v = v, s0 - qfun(r) * u
    steps = 0
    while idx < n:
        steps += 1
        if steps > _MAX_STEPS:
            raise StiffnessError("step budget exhausted; equation too stiff")
        target = record[idx]
        if r == target:  # landed exactly in a free step
            us[idx], vs[idx] = u, v
            idx += 1
            continue
        h_prop = h  # remember the unclipped proposal across node landings
        clipped = False
        if direction * (r + h - target) >= 0.0:
            h = target - r
            clipped = True
        if not clipped and abs(h) < 1e-15 * span:
            raise StiffnessError("step size underflow")
        # stages
        if sfun is None:
            r2 = r + _C2 * h
            u2 = u + h * _A21 * k1u
            v2 = v + h * _A21 * k1v
            k2u, k2v = v2, -qfun(r2) * u2
            r3 = r + _C3 * h
            u3 = u + h * (_A31 * k1u + _A32 * k2u)
            v3 = v + h * (_A31 * k1v + _A32 * k2v)
            k3u, k3v = v3, -qfun(r3) * u3
            r4 = r + _C4 * h
            u4 = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            k4u, k4v = v4, -qfun(r4) * u4
            r5 = r + _C5 * h
            u5 = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            k5u, k5v = v5, -qfun(r5) * u5
            r6 = r + h
            u6 = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            k6u, k6v = v6, -qfun(r6) * u6
            un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v = vn, -qfun(r6) * un
        else:
            r2 = r + _C2 * h
            u2 = u + h * _A21 * k1u
            v2 = v + h * _A21 * k1v
            k2u, k2v = v2, sfun(r2) - qfun(r2) * u2
            r3 = r + _C3 * h
            u3 = u + h * (_A31 * k1u + _A32 * k2u)
            v3 = v + h * (_A31 * k1v + _A32 * k2v)
            k3u, k3v = v3, sfun(r3) - qfun(r3) * u3
            r4 = r + _C4 * h
            u4 = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            k4u, k4v = v4, sfun(r4) - qfun(r4) * u4
            r5 = r + _C5 * h
            u5 = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            k5u, k5v = v5, sfun(r5) - qfun(r5) * u5
            r6 = r + h
            u6 = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            k6u, k6v = v6, sfun(r6) - qfun(r6) * u6
            un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            k7u, k7v = vn, sfun(r6) - qfun(r6) * un
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        # weights floored at 1e-3 of the running magnitude: pointwise relative
        # control is unsatisfiable (roundoff floor) where a component crosses zero
        sc_u = atol + rtol * max(abs(u), abs(un), 1e-3 * max_u)
        sc_v = atol + rtol * max(abs(v), abs(vn), 1e-3 * run_v)
        err = 0.0
        if eu != 0.0:
            err = abs(eu) / sc_u if sc_u > 0.0 else math.inf
        if ev != 0.0:
            err = max(err, abs(ev) / sc_v if sc_v > 0.0 else math.inf)
        if err <= 1.0 and return_winding:
            phi_new = math.atan2(vn.real, un.real)
            turn = phi_new - phi
            wrap = 0
            if turn > math.pi:
                turn -= 2.0 * math.pi
                wrap = -1
            elif turn <= -math.pi:
                turn += 2.0 * math.pi
                wrap = 1
            if abs(turn) > 0.5 * math.pi:
                h *= 0.5
                continue
            phi = phi_new
            turns += wrap
        if err <= 1.0:
            r = target if clipped else r + h
            u, v = un, vn
            k1u, k1v = k7u, k7v  # FSAL
            au = abs(u)
            av = abs(v)
            if au > max_u:
                max_u = au
            if av > run_v:
                run_v = av
            if clipped:
                us[idx], vs[idx] = u, v
                idx += 1
                h = h_prop  # a short node-landing step says nothing about scale
            else:
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = math.copysign(min(abs(h) * fac, span), direction)
        else:
            h *= max(0.1, 0.9 * err ** -0.2)
    if return_winding:
        return us, vs, max_u, turns
    return us, vs, max_u


def frobenius_start(lam: complex, E: complex, origin_w: Tuple[float, float, float],
                    r: float) -> Tuple[complex, complex, float]:
    """Two-term series start y = r^{lam+1/2}(1 + a1 r + a2 r^2) and its derivative.

    origin_w = (w_-1, w_0, w_1) is the small-r expansion of mu*V.  Returns
    (y, y', relative truncation estimate).
    """
    w_m1, w0, w1 = origin_w
    a1 = w_m1 / (2 * lam + 1)
    a2 = (w_m1 * a1 + (w0 - E)) / (2 * (2 * lam + 2))
    # next-order coefficient only to size the truncation error
    a3 = (w_m1 * a2 + (w0 - E) * a1 + w1) / (3 * (2 * lam + 3))
    pref = r ** (lam + 0.5)
    u = pref * (1 + a1 * r + a2 * r * r)
    v = (r ** (lam - 0.5)) * ((lam + 0.5) + (lam + 1.5) * a1 * r + (lam + 2.5) * a2 * r * r)
    trunc = abs(a3) * r ** 3
    return u, v, float(trunc)


def integrate_regular(eq: EffectiveEquation, grid: RadialGrid, tol: float = 1e-10,
                      second_branch: bool = False) -> RadialSolution:
    """Origin-regular solution over the whole grid (local equation only).

    ``second_branch=True`` unlocks integration of the subdominant r^{-|lam|+1/2}
    branch (build the equation at lambda -> -lambda first).  It exists for
    Wronskian audits only: the start series degenerates at lam = -1/2 (the
    exponents differ by an integer there) and the branch is numerically
    ill-posed for large |lam|, so only -1 < Re lam < 0 away from -1/2 is
    accepted.
    """
    lam = eq.lam
    re = lam.real if isinstance(lam, complex) else lam
    if second_branch:
        if not (-1.0 < re < 0.0) or abs(2 * re + 1) < 1e-6:
            raise RegularityError(
                "second branch supported for -1 < Re lam < 0, lam != -1/2")
    elif re <= 0.0:
        raise RegularityError("regular solution requires Re lam > 0")
    if eq.rank > 0 and eq.mu != 0 and _coupling_nonzero(eq):
        raise QwsError("equation has an active kernel; use solve_nonlocal")
    u0, v0, trunc = frobenius_start(lam, eq.energy.E, eq.origin_w, grid.r_min)
    us, vs, _ = _integrate(eq.coefficient, None, grid.r_min, u0, v0,
                           grid.nodes, rtol=tol)
    return RadialSolution(grid=grid, y=us, dy=vs, normalization="origin-regular",
                          channel=eq.channel, energy=eq.energy, mu=eq.mu,
                          start_error=trunc)


def integrate_jost(eq: EffectiveEquation, grid: RadialGrid, k: complex,
                   tol: float = 1e-10) -> RadialSolution:
    """Solution equal to e^{-ikr} for r >= r0, integrated inward to r_min.

    Requires a compactly supported, local equation and k != 0; supports
    complex k and complex lambda.
    """
    if k == 0:
        raise QwsError("Jost normalization is degenerate at k = 0")
    if eq.rank > 0 and eq.mu != 0 and _coupling_nonzero(eq):
        raise QwsError("Jost solutions are defined for the local equation only")
    energy = EnergyValue(E=k * k)
    if energy.E != eq.energy.E:
        eq = _with_energy(eq, energy)
    nodes = grid.nodes
    i0 = grid.i_cutoff
    y = np.empty(len(nodes), dtype=complex)
    dy = np.empty(len(nodes), dtype=complex)
    for j in range(i0, len(nodes)):
        ph = cmath.exp(-1j * k * nodes[j])
        y[j] = ph
        dy[j] = -1j * k * ph
    inward = nodes[: i0 + 1][::-1]
    us, vs, _ = _integrate(eq.coefficient, None, float(nodes[i0]),
                           y[i0], dy[i0], inward, rtol=tol)
    y[: i0 + 1] = us[::-1]
    dy[: i0 + 1] = vs[::-1]
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="jost",
                          channel=eq.channel, energy=energy, mu=eq.mu)


def _with_energy(eq: EffectiveEquation, energy: EnergyValue) -> EffectiveEquation:
    from .model import effective_equation
    return effective_equation(eq.channel, eq.potential, energy)


def _coupling_nonzero(eq: EffectiveEquation) -> bool:
    return eq.coupling is not None and bool(np.any(eq.coupling != 0.0))


def _interior_superposition(eq: EffectiveEquation, grid: RadialGrid, tol: float):
    """Homogeneous + particular interior solves and the coupling linear system.

    Returns (y, dy on interior nodes, KernelSolveData).
    """
    lam = eq.lam
    if isinstance(lam, complex):
        if lam.imag != 0:
            raise QwsError("non-local solve requires real lambda")
        lam = lam.real
    if lam <= 0:
        raise RegularityError("non-local solve requires lam > 0")
    E = eq.energy.E
    if isinstance(E, complex) and E.imag != 0:
        raise QwsError("non-local solve requires real energy")
    interior = grid.interior_nodes
    u0, v0, _ = frobenius_start(lam, E, eq.origin_w, grid.r_min)
    yh, dyh, _ = _integrate(eq.coefficient, None, grid.r_min, u0, v0, interior, rtol=tol)
    n = eq.rank
    ys = []
    dys = []
    for src in eq.sources:
        yj, dyj, _ = _integrate(eq.coefficient, src, grid.r_min, 0.0, 0.0,
                                interior, rtol=tol)
        ys.append(yj)
        dys.append(dyj)
    s_samples = [np.array([src(float(r)) for r in interior]) for src in eq.sources]
    power = lam + 0.5
    m_h = np.array([cutoff_integral(grid, s_samples[i] * yh, power) for i in range(n)])
    M = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            M[i, j] = cutoff_integral(grid, s_samples[i] * ys[j], power)
    C = eq.coupling
    B = np.eye(n) - eq.mu * (C @ M)
    det = np.linalg.det(B)
    norm = max(1.0, float(np.linalg.norm(B)))
    if abs(det) < 1e-12 * norm ** n:
        raise DegenerateCouplingError(
            f"det(Id - mu C M) = {det:.3e}: kernel resonance at E = {E}")
    beta = np.linalg.solve(B, eq.mu * (C @ m_h.astype(complex)))
    y = yh.astype(complex).copy()
    dy = dyh.astype(complex).copy()
    for j in range(n):
        y += beta[j] * ys[j]
        dy += beta[j] * dys[j]
    moments = m_h + M @ beta
    data = KernelSolveData(moments=moments, coefficients=beta, det=float(abs(det)))
    return y, dy, data


def solve_nonlocal(eq: EffectiveEquation, grid: RadialGrid, tol: float = 1e-10) -> RadialSolution:
    """Origin-regular solution of the rank-n non-local equation by superposition.

    Falls back to the plain local integration when the kernel is absent or
    switched off (mu = 0 or all couplings zero).
    """
    if eq.rank == 0 or eq.mu == 0 or not _coupling_nonzero(eq):
        local = eq if eq.rank == 0 else _without_kernel(eq)
        return integrate_regular(local, grid, tol)
    y_int, dy_int, data = _interior_superposition(eq, grid, tol)
    n_nodes = len(grid.nodes)
    y = np.empty(n_nodes, dtype=complex)
    dy = np.empty(n_nodes, dtype=complex)
    i0 = grid.i_cutoff
    y[: i0 + 1] = y_int
    dy[: i0 + 1] = dy_int
    if n_nodes > i0 + 1:
        cf = eq.lam * eq.lam - 0.25
        E = eq.energy.E

        def q_free(r, _E=E, _cf=cf):
            return _E - _cf / (r * r)

        us, vs, _ = _integrate(q_free, None, float(grid.nodes[i0]),
                               y[i0], dy[i0], grid.nodes[i0:], rtol=tol)
        y[i0:] = us
        dy[i0:] = vs
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="origin-regular",
                          channel=eq.channel, energy=eq.energy, mu=eq.mu,
                          kernel_data=data)


def _without_kernel(eq: EffectiveEquation) -> EffectiveEquation:
    from .model import effective_equation
    from dataclasses import replace as _replace
    pot = _replace(eq.potential, kernel=(), strengths=(), coupling=None)
    return effective_equation(eq.channel, pot, eq.energy)


def interior_state(eq: EffectiveEquation, tol: float = 1e-10,
                   moments_grid: Optional[RadialGrid] = None,
                   return_winding: bool = False):
    """(y, y', max|y|) at r0^- for the local or non-local interior problem.

    The local path integrates straight to the cutoff without storing a grid;
    the non-local path needs a quadrature grid for the kernel moments (one is
    built on the fly if not supplied).  ``return_winding=True`` (local
    equation only) appends the Prufer winding count of (Re y, Re y') over
    (r_min, r0), see :func:`_integrate`; the start angle lies in (0, pi/2).
    """
    if eq.rank == 0 or eq.mu == 0 or not _coupling_nonzero(eq):
        lam = eq.lam
        re = lam.real if isinstance(lam, complex) else lam
        if re <= 0.0:
            raise RegularityError("regular solution requires Re lam > 0")
        r_min = 1e-6 * eq.r0
        u0, v0, _ = frobenius_start(lam, eq.energy.E, eq.origin_w, r_min)
        us, vs, *rest = _integrate(eq.coefficient, None, r_min, u0, v0,
                                   np.array([eq.r0]), rtol=tol,
                                   return_winding=return_winding)
        return (complex(us[0]), complex(vs[0]), *rest)
    if return_winding:
        raise QwsError("the winding count is defined for the local equation only")
    if moments_grid is None:
        moments_grid = make_scan_grid(eq.r0)
    y, dy, _ = _interior_superposition(eq, moments_grid, tol)
    max_u = float(np.max(np.abs(y)))
    return complex(y[-1]), complex(dy[-1]), max_u


def make_scan_grid(r0: float) -> RadialGrid:
    """Coarser interior-only grid for moment quadrature inside parameter scans."""
    return make_grid(r0, n_interior=401, n_exterior=2)


def green_identity_residual(y1: RadialSolution, y2: RadialSolution) -> float:
    """|[y1 y2' - y2 y1'](r0) + (E2 - E1) * integral_0^{r0} y1 y2 dr|.

    Vanishes (to quadrature tolerance) for symmetric kernels; an asymmetric
    kernel leaves an O(1) residual, which makes this a detector for broken
    kernel symmetry.
    """
    if not y1.grid.same_nodes(y2.grid):
        raise GridMismatchError("solutions live on different grids")
    if y1.channel.lam != y2.channel.lam or y1.mu != y2.mu:
        raise GridMismatchError("solutions solve different equations")
    E1, E2 = y1.energy.E, y2.energy.E
    if E1 == E2:
        raise QwsError("Green identity needs two distinct energies")
    i0 = y1.grid.i_cutoff
    bracket = y1.y[i0] * y2.dy[i0] - y2.y[i0] * y1.dy[i0]
    lam = y1.channel.lam
    lam_re = lam.real if isinstance(lam, complex) else lam
    prod = y1.y[: i0 + 1] * y2.y[: i0 + 1]
    integral = cutoff_integral(y1.grid, prod, leading_power=2 * lam_re + 1)
    return float(abs(bracket + (E2 - E1) * integral))


def count_interior_nodes(solution: RadialSolution) -> int:
    """Sign changes of Re y on the open interval (0, r0)."""
    vals = np.real(solution.y[: solution.grid.i_cutoff + 1])
    scale = float(np.max(np.abs(vals)))
    if scale == 0.0:
        return 0
    s = np.where(np.abs(vals) < 1e-13 * scale, 0.0, np.sign(vals))
    s = s[s != 0.0]
    return int(np.sum(s[1:] * s[:-1] < 0))
