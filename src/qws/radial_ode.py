"""Integration engine for y'' + Q(r) y = S(r) on a radial grid.

Origin-regular solutions start from a power series r^{lam+1/2}(1 + a1 r +
a2 r^2 + a3 r^3) at the radius r_s where the terms the series neglects
fall below 1e-3 of the tolerance (:func:`_series_radius`); the nodes below
r_s take the series value.  The solves that this does not cover, the
subdominant branch of the Wronskian audit and the kernel particular solves
with their lanes, start at r_min.  Decaying "Jost-normalized" solutions
start at the cutoff radius, where compact support makes e^{-ikr} exact, and
are integrated inward.  The finite-rank non-local equation is solved by
superposition: one homogeneous and n particular integrations plus an
n x n linear system for the source coefficients, whose cutoff state the
module hands out scaled by the system's determinant (:func:`_couple`), so
that it stays finite where the determinant vanishes (a kernel resonance);
:func:`solve_nonlocal` alone divides it out.

This module alone decides whether an equation is local or non-local (the
kernel counts when mu != 0 and some coupling is nonzero).  Callers pass an
equation to :func:`interior_state` for (y, y') at the cutoff or to
:func:`solve_nonlocal` for a full grid; both pick the local integration or
the superposition themselves.  :func:`free_exterior` continues a solution
beyond the cutoff, where the well and the kernel vanish.

One function, :func:`_integrate`, steps every solve with an embedded
Dormand-Prince 4(5) pair on the first-order system (y, y').  Scalar start
values step one solution (bisection, refinement, phase shifts, full
grids, the superposition of a single kernel point): a real problem in
float arithmetic, a complex one (Jost solves, complex k, E or lambda) in
complex arithmetic.  Array start values step float64 lanes that share one
adaptive step, which is how :func:`interior_lanes` runs a grid of (E, mu)
points of one model: the energy scan of the bound-state search and the mu
grid of the crossing counter.  A kernel point there takes 1 + n lanes, its homogeneous and its
n particular solves, landed on the moment grid.  Both paths take the
moments and the n x n systems from the same two functions.  Every interior
solve also lands a step on each knot of a tabulated well, where V' jumps
unseen by the error estimate.

:func:`interior_in_mu` gives the cutoff values as a function of mu at one
energy.  In a pure kernel (no local part) Q(r) and the series start do not
depend on mu, so it makes the superposition once and answers each coupling
with one n x n solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (DegenerateCouplingError, GridMismatchError, QwsError,
                     RegularityError, StiffnessError)
from .model import (ChannelParams, EffectiveEquation, EnergyValue,
                    effective_equation, radial_coefficient)
from .potentials import PotentialModel

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
# interior nodes of the fixed grid on which the cutoff solves take kernel
# moments; the spectral floor bound uses it too
MOMENT_NODES = 401
# r_min / r0: the first node of the default grid and of every straight-to-cutoff
# record, and the floor of the series start radius r_s
R_MIN_FRACTION = 1e-6
# r_s stays at or below this fraction of r0 (and below half the second recorded node)
SERIES_CAP_FRACTION = 1e-3
# the terms the start series neglects stay below this fraction of the tolerance
SERIES_TOL_FRACTION = 1e-3


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
        r_min = R_MIN_FRACTION * r0
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

    def at_cutoff(self) -> Tuple[complex, complex]:
        i = self.grid.i_cutoff
        return complex(self.y[i]), complex(self.dy[i])


def _integrate(qfun: Callable, sfun: Optional[Callable[[float], complex]],
               r_start: float, u0, v0, record: np.ndarray, rtol: float,
               return_winding: bool = False):
    """Adaptive Dormand-Prince 4(5) along the (directed) node list ``record``; lands on every node.

    Steps the first-order system (y, y') of y'' + Q y = S, with Q = ``qfun``
    and S = ``sfun`` (None for the homogeneous equation).  Scalar start
    values step one solution on Python scalars.  Real start values step as
    floats, so a real problem runs in float arithmetic, with the steps and
    values that complex arithmetic gives; a complex Q or S promotes the
    stages to complex.  The node arrays returned are complex.  Array start
    values step float64 lanes, one real solution per entry of a ``qfun``
    that returns one Q per lane: the lanes share every step, which is
    accepted only when each lane passes its own error test, and the next
    step follows the worst lane.  Each lane is therefore controlled at least as tightly as alone,
    and a single lane takes exactly the scalar steps.

    Returns (u_nodes, v_nodes, max_abs_u), node axis first; for lanes
    max_abs_u holds one value per lane.  ``record`` must be monotone and
    start strictly after r_start in the direction of integration (or equal).

    ``return_winding=True`` (scalars only) appends the Prufer winding count:
    the signed number of 2 pi wraps of atan2(Re y', Re y) over the accepted
    steps, so that the continuous angle at the last node is its atan2 plus
    2 pi times the count.  A step that would turn (Re y, Re y') by more
    than pi/2 is rejected and retried with half the step, which keeps every
    wrap unambiguous.
    """
    lanes = np.ndim(u0) > 0
    if lanes:
        if return_winding:
            raise QwsError("the winding count is defined for a single solution only")
        u, v = np.asarray(u0, dtype=float), np.asarray(v0, dtype=float)
        mag = np.abs
    else:
        u, v = complex(u0), complex(v0)
        if u.imag == 0.0 and v.imag == 0.0:
            # a real problem steps in float arithmetic (same real parts, bit for
            # bit); a complex Q or S promotes the stages to complex by itself
            u, v = u.real, v.real
        mag = abs
    record = record.tolist()   # Python floats: r and every stage abscissa stay float
    n = len(record)
    us = np.empty((n,) + np.shape(u), dtype=float if lanes else complex)
    vs = np.empty_like(us)
    idx = 0
    r = r_start
    turns = 0
    max_u = mag(u)   # running magnitudes; also floor the error weights below
    run_v = mag(v)
    if lanes:
        # a lane starting at zero (a particular solve) gets a floor far below
        # any solution, so that its error reads 0, not 0/0, while its source is 0
        max_u = np.where(max_u == 0.0, 1e-300, max_u)
        run_v = np.where(run_v == 0.0, 1e-300, run_v)
    if record[0] == r_start:
        us[0], vs[0] = u, v
        idx = 1
        if n == 1:
            return (us, vs, max_u, turns) if return_winding else (us, vs, max_u)
    direction = 1.0 if record[-1] > r_start else -1.0
    span = abs(record[-1] - r_start)
    if span == 0.0:
        raise QwsError("empty integration span")
    h0 = 1e-3 * span
    if r_start != 0.0:
        h0 = min(h0, 0.1 * abs(r_start))  # stay below the centrifugal-layer scale
    h = direction * h0
    phi = math.atan2(v.real, u.real) if return_winding else 0.0
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
        # one step from r to r + h, k1 = f(r) given; stages 6 and 7 share r + h
        r2 = r + _C2 * h
        u2 = u + h * _A21 * k1u
        v2 = v + h * _A21 * k1v
        k2u, k2v = v2, -qfun(r2) * u2
        if sfun is not None:
            k2v += sfun(r2)
        r3 = r + _C3 * h
        u3 = u + h * (_A31 * k1u + _A32 * k2u)
        v3 = v + h * (_A31 * k1v + _A32 * k2v)
        k3u, k3v = v3, -qfun(r3) * u3
        if sfun is not None:
            k3v += sfun(r3)
        r4 = r + _C4 * h
        u4 = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
        v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
        k4u, k4v = v4, -qfun(r4) * u4
        if sfun is not None:
            k4v += sfun(r4)
        r5 = r + _C5 * h
        u5 = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
        v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
        k5u, k5v = v5, -qfun(r5) * u5
        if sfun is not None:
            k5v += sfun(r5)
        r6 = r + h
        u6 = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
        v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
        q6 = qfun(r6)
        k6u, k6v = v6, -q6 * u6
        if sfun is not None:
            s6 = sfun(r6)
            k6v += s6
        un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
        vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
        k7u, k7v = vn, -q6 * un
        if sfun is not None:
            k7v += s6
        eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
        ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
        # weights floored at 1e-3 of the running magnitude: pointwise relative
        # control is unsatisfiable (roundoff floor) where a component crosses zero
        au, av = mag(un), mag(vn)
        if lanes:
            sc_u = rtol * np.maximum(np.maximum(np.abs(u), au), 1e-3 * max_u)
            sc_v = rtol * np.maximum(np.maximum(np.abs(v), av), 1e-3 * run_v)
            err = float(max(np.max(np.abs(eu) / sc_u), np.max(np.abs(ev) / sc_v)))
        else:
            # rtol * max(abs(u), au, 1e-3 * max_u) by max()'s own comparisons,
            # which cost less than the builtin call
            sc_u, floor = abs(u), 1e-3 * max_u
            if au > sc_u:
                sc_u = au
            if floor > sc_u:
                sc_u = floor
            sc_u *= rtol
            sc_v, floor = abs(v), 1e-3 * run_v
            if av > sc_v:
                sc_v = av
            if floor > sc_v:
                sc_v = floor
            sc_v *= rtol
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
        if err <= 1.0:  # NaN rejects
            r = target if clipped else r + h
            u, v = un, vn
            k1u, k1v = k7u, k7v  # FSAL
            if lanes:
                max_u = np.maximum(max_u, au)
                run_v = np.maximum(run_v, av)
            else:  # builtin max() would cost more than the comparisons
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
    return (us, vs, max_u, turns) if return_winding else (us, vs, max_u)


def _series_coefficients(lam, E, origin_w):
    """a1 ... a5 of y = r^{lam+1/2} sum_n a_n r^n for Q = E - (lam^2 - 1/4)/r^2 - W.

    W = mu*V ~ w_-1/r + w_0 + w_1 r (origin_w), and
    n (n + 2 lam) a_n = w_-1 a_{n-1} + (w_0 - E) a_{n-2} + w_1 a_{n-3} + ...;
    a4 and a5 leave out the W terms beyond w_1, which :func:`_series_radius`
    bounds from the profile instead.
    """
    w_m1, w0, w1 = origin_w
    d = w0 - E
    a1 = w_m1 / (2 * lam + 1)
    a2 = (w_m1 * a1 + d) / (2 * (2 * lam + 2))
    a3 = (w_m1 * a2 + d * a1 + w1) / (3 * (2 * lam + 3))
    a4 = (w_m1 * a3 + d * a2 + w1 * a1) / (4 * (2 * lam + 4))
    a5 = (w_m1 * a4 + d * a3 + w1 * a2) / (5 * (2 * lam + 5))
    return a1, a2, a3, a4, a5


def frobenius_start(lam: complex, E: complex, origin_w: Tuple[float, float, float],
                    r: float) -> Tuple[complex, complex]:
    """Series start y = r^{lam+1/2}(1 + a1 r + a2 r^2 + a3 r^3) and its derivative.

    origin_w = (w_-1, w_0, w_1) is the small-r expansion of mu*V, which
    fixes a1, a2 and a3 (:func:`_series_coefficients`).  E and origin_w may
    be arrays (float64 lanes).  Returns (y, y'); raises RegularityError
    where r^{lam+1/2} overflows (an r far beyond any physical cutoff).
    """
    a1, a2, a3, _, _ = _series_coefficients(lam, E, origin_w)
    r2 = r * r
    try:
        u = r ** (lam + 0.5) * (1 + a1 * r + a2 * r2 + a3 * r2 * r)
        v = r ** (lam - 0.5) * ((lam + 0.5) + (lam + 1.5) * a1 * r + (lam + 2.5) * a2 * r2
                                + (lam + 3.5) * a3 * r2 * r)
    except OverflowError:
        raise RegularityError(f"the origin series r^(lam + 1/2) overflows at r = {r:g}") from None
    return u, v


def _largest(x) -> float:
    """|x| for a scalar, the largest |x| over the lanes for an array."""
    return float(np.max(np.abs(x))) if np.ndim(x) else abs(x)


def _series_radius(qfun: Callable, lam, E, origin_w, record: np.ndarray, r0: float,
                   tol: float) -> float:
    """Start radius r_s of an origin-regular solve: the series meets 1e-3 tol there.

    The series of :func:`frobenius_start` neglects two things, each held
    below eps = SERIES_TOL_FRACTION tol |lam + 1/2| / |lam + 11/2| relative
    (the last factor covers y', whose terms carry n + lam + 1/2 in place of
    lam + 1/2):

    - the profile's departure dV = mu V - (w_-1/r + w_0 + w_1 r) from its
      origin expansion, |dV(r)| r^2 / (2 |2 lam + 2|) <= eps.  dV is read
      from Q(r) on radii that halve from the cap; they depend on the model
      only, not on E.  A wrong ``origin`` tuple fails here down to r_min;
    - the E-dependent terms a4 r^4 and a5 r^5, in closed form, so that r_s
      moves continuously with E (finite differences in E stay smooth).

    r_s is capped at min(SERIES_CAP_FRACTION r0, record[1] / 2), so it never
    passes a knot or the second recorded node, and it is never below
    record[0].  For float64 lanes the bounds hold on every lane: one r_s,
    the smallest over the lanes.
    """
    r_min = float(record[0])
    eps = SERIES_TOL_FRACTION * tol * abs(lam + 0.5) / abs(lam + 5.5)
    w_m1, w0, w1 = origin_w
    cf = lam * lam - 0.25
    bound = eps * 2 * abs(2 * lam + 2)
    r = min(SERIES_CAP_FRACTION * r0, 0.5 * float(record[1]))
    while r > r_min and not _largest(E - cf / (r * r) - qfun(r)
                                     - (w_m1 / r + w0 + w1 * r)) * (r * r) <= bound:
        r *= 0.5
    _, _, _, a4, a5 = _series_coefficients(lam, E, origin_w)
    for a, n in ((_largest(a4), 4), (_largest(a5), 5)):
        if a > 0.0:
            r = min(r, (eps / a) ** (1.0 / n))
    return max(r, r_min)


def _from_origin(qfun: Callable, lam, E, origin_w, record: np.ndarray, r0: float,
                 tol: float, return_winding: bool = False, second_branch: bool = False,
                 sources: tuple = ()):
    """Origin-regular solve: the series start at r_s, then :func:`_integrate` on ``record``.

    Requires Re lam > 0 (``second_branch=True`` admits the subdominant
    branch of :func:`integrate_regular` instead).  E and origin_w are
    scalars, or arrays for float64 lanes.  r_s comes from
    :func:`_series_radius` (r0 is the cutoff radius that caps it); the
    nodes below r_s (record[0] only) take the series value.  Between
    record[0] and r_s neither y nor y' has a zero, so a real problem's
    winding count is that of a solve from record[0].  The subdominant
    branch, and kernel ``sources`` S_i, start at record[0].  With sources
    (lanes only; E and origin_w then end in an axis of length 1), every
    point gets one more lane per source after its homogeneous one: the
    particular solve of y'' + Q y = S_i from (0, 0); a particular solve
    started at r_s would drop the integral of S_i below it.  Returns the
    tuple of :func:`_integrate`.
    """
    re = lam.real if isinstance(lam, complex) else lam
    if second_branch:
        if not (-1.0 < re < 0.0) or abs(2 * re + 1) < 1e-6:
            raise RegularityError(
                "second branch supported for -1 < Re lam < 0, lam != -1/2")
    elif re <= 0.0:
        raise RegularityError("regular solution requires Re lam > 0")
    r_min = float(record[0])
    u0, v0 = frobenius_start(lam, E, origin_w, r_min)
    if sources:
        zeros = np.zeros(np.shape(u0)[:-1] + (len(sources),))
        u0 = np.concatenate([u0, zeros], axis=-1)
        v0 = np.concatenate([v0, zeros], axis=-1)

        def sfun(r):
            return np.array([0.0] + [src(r) for src in sources])

        return _integrate(qfun, sfun, r_min, u0, v0, record, tol)
    r_s = r_min if second_branch else _series_radius(qfun, lam, E, origin_w, record, r0, tol)
    u_s, v_s = frobenius_start(lam, E, origin_w, r_s)
    us, vs, max_u, *turns = _integrate(qfun, None, r_s, u_s, v_s, record[1:], tol,
                                       return_winding)
    us = np.concatenate([[u0], us])
    vs = np.concatenate([[v0], vs])
    max_u = np.maximum(max_u, np.abs(u0)) if np.ndim(u0) else max(max_u, abs(u0))
    return (us, vs, max_u, *turns)


def _with_knots(potential: PotentialModel, nodes) -> Tuple[np.ndarray, object]:
    """``nodes`` with the knots of the local profile strictly inside their span merged in.

    V' jumps at a knot of a tabulated well; the DP45 error estimate does
    not see that, so a step across one misses the tolerance, while a step
    landed on each knot keeps it.  Returns (record, keep) with
    record[keep] == nodes, the record running in the direction of ``nodes``.
    """
    nodes = np.asarray(nodes, dtype=float)
    lo, hi = sorted((nodes[0], nodes[-1]))
    knots = [x for x in potential.knots if lo < x < hi]
    if not knots:
        return nodes, slice(None)
    record = np.union1d(nodes, knots)
    keep = np.searchsorted(record, nodes)
    if nodes[0] > nodes[-1]:
        return record[::-1], len(record) - 1 - keep
    return record, keep


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
    if _kernel_active(eq):
        raise QwsError("equation has an active kernel; use solve_nonlocal")
    record, keep = _with_knots(eq.potential, grid.nodes)
    us, vs, _ = _from_origin(eq.coefficient, eq.lam, eq.energy.E, eq.origin_w,
                             record, grid.r0, tol, second_branch=second_branch)
    return RadialSolution(grid=grid, y=us[keep], dy=vs[keep], normalization="origin-regular",
                          channel=eq.channel, energy=eq.energy, mu=eq.mu)


def integrate_jost(eq: EffectiveEquation, grid: RadialGrid, k: complex,
                   tol: float = 1e-10) -> RadialSolution:
    """Solution equal to e^{-ikr} for r >= r0, integrated inward to r_min.

    Requires a compactly supported, local equation and k != 0; supports
    complex k and complex lambda.
    """
    if k == 0:
        raise QwsError("Jost normalization is degenerate at k = 0")
    if _kernel_active(eq):
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
    record, keep = _with_knots(eq.potential, nodes[: i0 + 1][::-1])
    us, vs, _ = _integrate(eq.coefficient, None, float(nodes[i0]),
                           y[i0], dy[i0], record, rtol=tol)
    y[: i0 + 1] = us[keep][::-1]
    dy[: i0 + 1] = vs[keep][::-1]
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="jost",
                          channel=eq.channel, energy=energy, mu=eq.mu)


def _with_energy(eq: EffectiveEquation, energy: EnergyValue) -> EffectiveEquation:
    return effective_equation(eq.channel, eq.potential, energy)


def _carries_kernel(potential: PotentialModel) -> bool:
    """True when the potential has a kernel with some coupling != 0."""
    return potential.rank > 0 and bool(np.any(potential.coupling_matrix() != 0.0))


def _kernel_active(eq: EffectiveEquation) -> bool:
    """True when the separable kernel enters the equation: mu != 0 and some coupling != 0."""
    return eq.mu != 0 and _carries_kernel(eq.potential)


def source_samples(sources, grid: RadialGrid) -> np.ndarray:
    """The kernel sources S_i on the interior nodes of ``grid``, as (node, i)."""
    return np.array([[src(float(r)) for src in sources] for r in grid.interior_nodes])


def _kernel_moments(grid: RadialGrid, s: np.ndarray, ys: np.ndarray, power: float) -> np.ndarray:
    """m[p, i, l] = integral_0^{r0} S_i y_l dr for every point p and solution l.

    ``s`` holds the sources (node, i) and ``ys`` the solutions (node, point,
    l) on the interior nodes of ``grid``: the Simpson sum and the power-law
    tail of :func:`cutoff_integral`, for all (i, p, l) in one contraction.
    """
    m = np.tensordot(grid.interior_weights[:, None] * s, ys, axes=(0, 0))
    m += np.multiply.outer(s[0] * (grid.r_min / (power + 1.0)), ys[0])
    return np.moveaxis(m, 0, 1)


def _couple(m: np.ndarray, ys: np.ndarray, dys: np.ndarray, coupling: np.ndarray, mu):
    """det (y, y') for y = y_h + sum_j beta_j y_j, (Id - mu C M) beta = mu C m_h, at each point.

    ``ys``/``dys`` (node, point, 1 + n) hold the homogeneous solution and
    the n particular ones (``dys`` may keep fewer nodes), ``m`` their
    moments from :func:`_kernel_moments` (m_h = m[..., 0], M = m[..., 1:]);
    ``mu`` is a scalar or one coupling per point, broadcasting against the
    point axis.  With B = Id - mu C M, Cramer's rule gives det(B) beta_j =
    N_j, the determinant of B with column j replaced by mu C m_h, so
    det y = det y_h + sum_j N_j y_j takes no division: it stays finite and
    smooth through a kernel resonance (det = 0), where y itself has a pole.
    One real factor per point leaves A = y'/y, tan eta and the zeros of y
    as they are.  Returns (det y, det y' as (node, point), N, B, det).
    """
    n = coupling.shape[0]
    m_h, M = m[..., 0], m[..., 1:]
    mu = np.asarray(mu, dtype=float)[..., None, None]
    B = np.eye(n) - mu * (coupling @ M)
    rhs = mu * (coupling @ m_h[..., None])
    det = np.linalg.det(B)
    N = np.stack([np.linalg.det(np.concatenate([B[..., :j], rhs, B[..., j + 1:]], axis=-1))
                  for j in range(n)], axis=-1)
    y = det * ys[..., 0]
    dy = det * dys[..., 0]
    for j in range(n):
        y += N[:, j] * ys[..., 1 + j]
        dy += N[:, j] * dys[..., 1 + j]
    return y, dy, N, B, det


def _superposition_solves(eq: EffectiveEquation, grid: RadialGrid, tol: float):
    """Homogeneous and particular interior solves of one point, one scalar solve each.

    Returns (ys, dys as (node, 1, 1 + n), their moments from
    :func:`_kernel_moments`).
    """
    lam = eq.lam
    if isinstance(lam, complex):
        if lam.imag != 0:
            raise QwsError("non-local solve requires real lambda")
        lam = lam.real
    E = eq.energy.E
    if isinstance(E, complex) and E.imag != 0:
        raise QwsError("non-local solve requires real energy")
    record, keep = _with_knots(eq.potential, grid.interior_nodes)
    solves = [_from_origin(eq.coefficient, lam, E, eq.origin_w, record, grid.r0, tol)]
    for src in eq.sources:
        solves.append(_integrate(eq.coefficient, src, grid.r_min, 0.0, 0.0, record, rtol=tol))
    ys = np.stack([u[keep] for u, _, _ in solves], axis=-1)[:, None, :]
    dys = np.stack([v[keep] for _, v, _ in solves], axis=-1)[:, None, :]
    return ys, dys, _kernel_moments(grid, source_samples(eq.sources, grid), ys, lam + 0.5)


def solve_nonlocal(eq: EffectiveEquation, grid: RadialGrid, tol: float = 1e-10) -> RadialSolution:
    """Origin-regular solution over the whole grid, with or without a kernel.

    The one full-grid regular solve.  A local equation (no kernel, mu = 0 or
    all couplings zero) is integrated by :func:`integrate_regular`; a rank-n
    kernel is solved by superposition on the interior nodes (moments by
    Simpson on this grid) and continued through the free exterior.  It is
    the one solve that divides the state of :func:`_couple` by det(Id - mu
    C M), so it alone raises DegenerateCouplingError, where |det| <
    1e-12 max(1, |B|_F)^n (a kernel resonance: no solution of this
    normalization exists there).
    """
    if not _kernel_active(eq):
        return integrate_regular(eq, grid, tol)
    ys, dys, m = _superposition_solves(eq, grid, tol)
    y_int, dy_int, N, B, det = _couple(m, ys, dys, eq.coupling, eq.mu)
    det = det[0]
    if abs(det) < 1e-12 * max(1.0, float(np.linalg.norm(B[0]))) ** eq.rank:
        raise DegenerateCouplingError(
            f"det(Id - mu C M) = {det:.3e}: kernel resonance at E = {eq.energy.E}")
    beta = N[0] / det
    data = KernelSolveData(moments=m[0, :, 0] + m[0, :, 1:] @ beta, coefficients=beta,
                           det=float(abs(det)))
    i0 = grid.i_cutoff
    y = np.empty(len(grid.nodes), dtype=complex)
    dy = np.empty(len(grid.nodes), dtype=complex)
    y[: i0 + 1] = y_int[:, 0] / det
    dy[: i0 + 1] = dy_int[:, 0] / det
    y[i0:], dy[i0:] = free_exterior(eq, y[i0], dy[i0], grid.nodes[i0:], tol)
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="origin-regular",
                          channel=eq.channel, energy=eq.energy, mu=eq.mu,
                          kernel_data=data)


def free_exterior(eq: EffectiveEquation, y0: complex, dy0: complex,
                  nodes: np.ndarray, tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray]:
    """(y, y') on ``nodes`` continued outward from (y0, dy0) at nodes[0] >= r0.

    Beyond the cutoff the well and the kernel both vanish, so the solution
    obeys the free equation y'' + (E - (lam^2 - 1/4)/r^2) y = 0 there.
    """
    us, vs, _ = _integrate(radial_coefficient(eq.lam, eq.energy.E), None,
                           float(nodes[0]), y0, dy0, nodes, rtol=tol)
    return us, vs


def interior_state(eq: EffectiveEquation, tol: float = 1e-10,
                   return_winding: bool = False):
    """(y, y', max|y|) at r0^- for the local or non-local interior problem.

    A local equation is integrated straight to the cutoff without storing a
    grid.  A kernel is solved by superposition on the fixed uniform interior
    grid of MOMENT_NODES nodes, on which Simpson takes the kernel moments,
    and comes back scaled by det(Id - mu C M) (:func:`_couple`), finite at
    a kernel resonance too.  ``return_winding=True`` (local equation only)
    appends the Prufer winding count of (Re y, Re y') over (r_min, r0), see
    :func:`_integrate` and :func:`prufer_angle`.  :func:`node_at_cutoff`
    reads y(r0) against max|y|.
    """
    if _kernel_active(eq):
        if return_winding:
            raise QwsError("the winding count is defined for the local equation only")
        ys, dys, m = _superposition_solves(
            eq, make_grid(eq.r0, r_max=eq.r0, n_interior=MOMENT_NODES), tol)
        y, dy, *_ = _couple(m, ys, dys, eq.coupling, eq.mu)
        return complex(y[-1, 0]), complex(dy[-1, 0]), float(np.max(np.abs(y)))
    record, _ = _with_knots(eq.potential, [R_MIN_FRACTION * eq.r0, eq.r0])
    us, vs, *rest = _from_origin(eq.coefficient, eq.lam, eq.energy.E, eq.origin_w,
                                 record, eq.r0, tol, return_winding=return_winding)
    return (complex(us[-1]), complex(vs[-1]), *rest)


def node_at_cutoff(u: complex, max_u: float) -> bool:
    """True when y(r0) = u from :func:`interior_state` vanishes: |u| < 1e-12 max|y|."""
    return abs(u) < 1e-12 * max_u


def prufer_angle(u: complex, v: complex, turns: int) -> float:
    """atan2(Re y', Re y) + 2 pi turns, the Prufer angle at r0 of :func:`interior_state`.

    For the origin-regular solution it starts in (0, pi/2) and falls through
    -pi/2 - k pi at the k-th zero of y (k = 0, 1, ...), never to rise back.
    """
    return math.atan2(v.real, u.real) + 2.0 * math.pi * turns


def interior_lanes(channel: ChannelParams, potential: PotentialModel,
                   E, mu, tol: float = 1e-10) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(y, y', max|y|) at r0^- for many (E, mu) points of one channel and potential.

    Point j solves the equation of ``channel`` and ``potential`` at energy
    E[j] and coupling mu[j] (E and mu broadcast against each other;
    ``potential.mu`` is ignored).  All points are integrated at once as
    float64 lanes of :func:`_integrate`, which share every step; lam, E and
    mu must be real.  A local model takes one lane per point, straight to
    the cutoff.  A model with a kernel takes 1 + n lanes per point (the
    homogeneous solve and the n particular ones) landed on the moment grid,
    and the n x n systems of all points are taken as one stack; its points
    come back scaled by det(Id - mu C M), as from :func:`interior_state`.
    Returns the real parts.
    """
    E = np.asarray(E, dtype=float)
    mu = np.asarray(mu, dtype=float)
    shape = np.broadcast_shapes(E.shape, mu.shape)
    lam = channel.lam
    if isinstance(lam, complex):
        raise QwsError("lanes require real lambda")
    if not _carries_kernel(potential):
        record, _ = _with_knots(potential, [R_MIN_FRACTION * potential.r0, potential.r0])
        origin_w = tuple(mu * w for w in potential.origin_coefficients())
        us, vs, max_u = _from_origin(radial_coefficient(lam, E, mu, potential), lam, E,
                                     origin_w, record, potential.r0, tol)
        return us[-1].real, vs[-1].real, max_u
    eq = effective_equation(channel, potential, EnergyValue(E=0.0))  # the sources S_i
    grid = make_grid(potential.r0, r_max=potential.r0, n_interior=MOMENT_NODES)
    record, keep = _with_knots(potential, grid.interior_nodes)
    E, mu = (a.reshape(-1, 1) for a in np.broadcast_arrays(E, mu))
    origin_w = tuple(mu * w for w in potential.origin_coefficients())
    ys, dys, _ = _from_origin(radial_coefficient(lam, E, mu, potential), lam, E, origin_w,
                              record, potential.r0, tol, sources=eq.sources)
    ys, dys = ys[keep], dys[-1:].copy()   # y' is needed at r0 only: free the rest
    m = _kernel_moments(grid, source_samples(eq.sources, grid), ys, lam + 0.5)
    y, dy, *_ = _couple(m, ys, dys, eq.coupling, mu[:, 0])
    max_u = np.maximum(y.max(axis=0), -y.min(axis=0))
    return y[-1].reshape(shape), dy[-1].reshape(shape), max_u.reshape(shape)


def interior_in_mu(channel: ChannelParams, potential: PotentialModel, E: float,
                   tol: float = 1e-10) -> Callable:
    """(y, y', max|y|) at r0^- as a function of the coupling mu, at one energy E.

    The returned function takes a scalar mu and answers as
    :func:`interior_state`, or an array of couplings and answers as
    :func:`interior_lanes` (real parts); a kernel's state is scaled by
    det(Id - mu C M) either way, so it is finite and smooth in mu through a
    kernel resonance.  In a pure kernel (no local part) neither Q(r) nor the
    series start depends on mu, so the homogeneous and particular solves
    and their moments are made once, here, and each coupling costs n + 1
    determinants of n x n matrices.  Any other model solves every call
    afresh.  The solves live as long as the returned function.
    """
    if potential.local is not None or not _carries_kernel(potential):
        def at(mu):
            if np.ndim(mu):
                return interior_lanes(channel, potential, E, mu, tol)
            eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
            return interior_state(eq, tol)

        return at
    eq = effective_equation(channel, potential, EnergyValue(E=E))
    ys, dys, m = _superposition_solves(
        eq, make_grid(eq.r0, r_max=eq.r0, n_interior=MOMENT_NODES), tol)
    dys = dys[-1:]   # y' is needed at r0 only

    def at(mu):
        y, dy, *_ = _couple(m, ys, dys, eq.coupling, mu)
        if np.ndim(mu):
            return y[-1].real, dy[-1].real, np.max(np.abs(y), axis=0)
        return complex(y[-1, 0]), complex(dy[-1, 0]), float(np.max(np.abs(y)))

    return at


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

