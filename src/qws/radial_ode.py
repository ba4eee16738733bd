"""Integration engine for y'' + Q(r) y = 0 on a radial grid, and the separable kernel.

Origin-regular solutions start from a power series r^{lam+1/2}(1 + a1 r +
a2 r^2 + a3 r^3) at the radius r_s where the terms the series neglects
fall below 1e-3 of the tolerance (:func:`_series_radius`); the nodes below
r_s take the series value.  The subdominant branch of the Wronskian audit
starts at r_min.  Decaying "Jost-normalized" solutions start at the cutoff
radius, where compact support makes e^{-ikr} exact, and are integrated
inward.

Every entry point routes on one predicate: an equation's ``kernel_acts``
(mu != 0 and some coupling nonzero), or a model's for the lanes, whose
couplings come per point.  A kernel whose couplings all vanish is solved
as the local problem it is.  Callers pass an equation to
:func:`interior_state` for (y, y') at the cutoff or to
:func:`solve_nonlocal` for a full grid; both pick the local integration or
the kernel solve themselves.  :func:`free_exterior` continues a solution
beyond the cutoff, where the well and the kernel vanish.

One function, :func:`_integrate`, steps every solve with the embedded
Dormand-Prince 8(5,3) pair on the first-order system (y, y').  A step ends
only on the knots of a tabulated well and on the last node; every other
node takes the order-7 continuous extension of the step that covers it.
Scalar start values step one solution, a real problem in float and a
complex one (Jost solves, complex k, E or lambda) in complex arithmetic;
array start values step float64 lanes that share one adaptive step, for
the (E, mu) points of :func:`interior_lanes`.  No solve steps across the
cutoff: Q(r0) is the interior value, and a full grid continues from r0
through :func:`free_exterior`.

Every kernel datum at an energy comes from one kernel point
(:func:`_kernel_point`): two local solves and no particular solve, y_reg
outward and y_2 inward from r0, each in the direction in which it grows,
on a composite Gauss-Legendre rule that resolves the profiles and the
solutions (:func:`_green_edges`).  For a state y_2 starts from (-y_reg',
y_reg): variation of parameters gives the particular solutions, the rule
their moments, and Cramer's rule the cutoff state scaled by det(Id - mu C
M) (:func:`_couple`), finite at a kernel resonance; :func:`solve_nonlocal`
alone divides it out.  For the level count y_2 decays from (1, h).
"""

from __future__ import annotations

import bisect
import cmath
import contextlib
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import (DegenerateCouplingError, GridMismatchError, QwsError,
                     RegularityError, StiffnessError)
from .model import (ChannelParams, EffectiveEquation, EnergyValue,
                    effective_equation, kernel_sources, radial_coefficient)
from .potentials import PotentialModel

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10): stage
# abscissas c_i, a_ij of stages 2-12 (c_12 = 1), weights b_j, the 5th- and
# 3rd-order error rows, and the three dense-output stages 14-16 (stage 13 is the
# FSAL derivative at the step end) with the rows d_3 ... d_6 of the order-7
# continuous extension; the values of scipy's dop853_coefficients
_C2, _C3, _C4, _C5, _C6 = (
    0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333)
_C7, _C8, _C9, _C10, _C11 = 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571
_C14, _C15, _C16 = 0.1, 0.2, 0.7777777777777778
_A2_1 = 0.05260015195876773
_A3_1, _A3_2 = 0.0197250569845379, 0.0591751709536137
_A4_1, _A4_3 = 0.02958758547680685, 0.08876275643042054
_A5_1, _A5_3, _A5_4 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
_A6_1, _A6_4, _A6_5 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242
_A7_1, _A7_4, _A7_5, _A7_6 = 0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    0.03709200011850479, 0.17038392571223998, 0.10726203044637328, -0.015319437748624402,
    0.008273789163814023)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    0.6241109587160757, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
    20.154067550477894, -43.48988418106996)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
    15.279233632882423, -33.28821096898486, -0.020331201708508627)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
    -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
    27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
    0.6433927460157636)
_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025, -0.12419142326381637,
    0.15329179827876568, 0.00820105229563469, 0.007567897660545699, -0.008298)
_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566, -0.05492374857139099,
    -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325)
_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599, 4.06898981839711,
    0.3567271874552811, -0.0013990241651590145, 2.9475147891527724, -9.15095847217987)
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    0.3111643669578199, -0.1521609496625161, 0.20136540080403034, 0.04471061572777259)
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12 = (
    -0.18980075407240762, 4.450312892752409, 1.8915178993145003, -5.801203960010585,
    -0.4226823213237919, -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15, _D3_16 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
    2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
    -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894)
_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
    -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
    15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408)
_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
    -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
    -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279)
_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
    93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
    -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564)

# (c_i, columns j, a_ij) of stages 2-12 and 14-16, and the columns and rows of
# the weights, the error estimates and the extension: the lanes block sums
# them term by term in this order (:func:`_dot`), the scalar block writes the
# same sums out
_STAGES = (
    (_C2, (1,), (_A2_1,)),
    (_C3, (1, 2), (_A3_1, _A3_2)),
    (_C4, (1, 3), (_A4_1, _A4_3)),
    (_C5, (1, 3, 4), (_A5_1, _A5_3, _A5_4)),
    (_C6, (1, 4, 5), (_A6_1, _A6_4, _A6_5)),
    (_C7, (1, 4, 5, 6), (_A7_1, _A7_4, _A7_5, _A7_6)),
    (_C8, (1, 4, 5, 6, 7), (_A8_1, _A8_4, _A8_5, _A8_6, _A8_7)),
    (_C9, (1, 4, 5, 6, 7, 8), (_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8)),
    (_C10, (1, 4, 5, 6, 7, 8, 9), (_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9)),
    (_C11, (1, 4, 5, 6, 7, 8, 9, 10),
     (_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10)),
    (1.0, (1, 4, 5, 6, 7, 8, 9, 10, 11),
     (_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11)),
)
_DENSE_STAGES = (
    (_C14, (1, 7, 8, 9, 10, 11, 12, 13),
     (_A14_1, _A14_7, _A14_8, _A14_9, _A14_10, _A14_11, _A14_12, _A14_13)),
    (_C15, (1, 6, 7, 8, 11, 12, 13, 14),
     (_A15_1, _A15_6, _A15_7, _A15_8, _A15_11, _A15_12, _A15_13, _A15_14)),
    (_C16, (1, 6, 7, 8, 9, 13, 14, 15),
     (_A16_1, _A16_6, _A16_7, _A16_8, _A16_9, _A16_13, _A16_14, _A16_15)),
)
_WEIGHT_COLUMNS = (1, 6, 7, 8, 9, 10, 11, 12)
_B_ROW = (_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12)
_E5_ROW = (_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12)
_E3_ROW = (_E3_1, _E3_6, _E3_7, _E3_8, _E3_9, _E3_10, _E3_11, _E3_12)
_D_COLUMNS = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
_D_ROWS = (
    (_D3_1, _D3_6, _D3_7, _D3_8, _D3_9, _D3_10, _D3_11, _D3_12, _D3_13, _D3_14, _D3_15, _D3_16),
    (_D4_1, _D4_6, _D4_7, _D4_8, _D4_9, _D4_10, _D4_11, _D4_12, _D4_13, _D4_14, _D4_15, _D4_16),
    (_D5_1, _D5_6, _D5_7, _D5_8, _D5_9, _D5_10, _D5_11, _D5_12, _D5_13, _D5_14, _D5_15, _D5_16),
    (_D6_1, _D6_6, _D6_7, _D6_8, _D6_9, _D6_10, _D6_11, _D6_12, _D6_13, _D6_14, _D6_15, _D6_16),
)
# the stepper controls its blended error estimate, far less pessimistic than a
# 4(5) pair's, to RTOL_SCALE times the requested tolerance: the loosest of a run
# of neighbouring scales at which the oracle tests of tests/ meet their gates
RTOL_SCALE = 0.15
# an error ratio above this fails anyway; the cap keeps its square finite
_ERR_CAP = 1e100

_MAX_STEPS = 5_000_000
# r_min / r0: the first node of the default grid and of every straight-to-cutoff
# record, and the floor of the series start radius r_s
R_MIN_FRACTION = 1e-6
# r_s stays at or below this fraction of r0 (and below half the second recorded node)
SERIES_CAP_FRACTION = 1e-3
# the terms the start series neglects stay below this fraction of the tolerance
SERIES_TOL_FRACTION = 1e-3
# the composite Gauss-Legendre rule of every kernel solve: GREEN_NODES nodes on
# each of ceil(GREEN_PANELS r0 / l) equal panels of [0, r0], split further at the
# knots of a tabulated well.  l = min(r0, GREEN_PHASE / k, GREEN_WIDTHS w) is the
# shortest length on which the integrands change: k = sqrt(|E| + |mu| max|V|)
# bounds the rate at which the local solutions grow or turn, and w is the
# narrowest kernel profile's width, so no panel spans more than 3 / k or one
# width, up to GREEN_MAX_PANELS panels (a width below r0 / GREEN_MAX_PANELS is
# not resolved; the solves overflow long before k r0 needs the cap).  Doubling
# the panels moves no kernel level of tests/ by 1e-10 max(1, |E|); 8 fixed
# panels left the level of a width-0.01 bump 54 % off
GREEN_PANELS = 8
GREEN_NODES = 12
GREEN_PHASE = 24.0
GREEN_WIDTHS = 8.0
GREEN_MAX_PANELS = 4096


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
    """Byproducts of the non-local solve: moments m_i[y], source coefficients, |det|."""

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


def _check_tol(tol: float) -> None:
    """A solve's relative tolerance must be finite and positive (QwsError otherwise)."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise QwsError(f"tolerance must be finite and > 0, got {tol!r}")


def _dot(ws, ks):
    """w_1 k_1 + w_2 k_2 + ..., summed term by term in order (in place for arrays)."""
    acc = ws[0] * ks[0]   # a new array for lanes, so the sums below stay in place
    for w, k in zip(ws[1:], ks[1:]):
        acc += w * k
    return acc


def _dense(y0, F, x):
    """The order-7 extension y0 + x (F0 + (1 - x) (F1 + x (F2 + ... F6))) at step fractions x."""
    F0, F1, F2, F3, F4, F5, F6 = F
    w = 1.0 - x
    return y0 + x * (F0 + w * (F1 + x * (F2 + w * (F3 + x * (F4 + w * (F5 + x * F6))))))


def _blend(e5, e3, sc) -> float:
    """err5^2 / sqrt(err5^2 + 0.01 err3^2) for the error estimates e5 and e3 on weight sc.

    Each ratio is capped at _ERR_CAP, so no square overflows, and the
    denominator is floored at the smallest subnormal, so a step whose
    ratios both underflow reads 0, not 0/0.  The lanes block of
    :func:`_integrate` takes the same operations per entry.
    """
    a5 = min(abs(e5) / sc, _ERR_CAP)
    a3 = min(abs(e3) / sc, _ERR_CAP)
    n5 = a5 * a5
    return n5 / max(math.sqrt(n5 + 0.01 * (a3 * a3)), 5e-324)


def _integrate(qfun: Callable, r_start: float, u0, v0, record: np.ndarray, rtol: float,
               return_winding: bool = False, head=None, knots=()):
    """Adaptive Dormand-Prince 8(5,3) along the (directed) node list ``record``.

    Steps the first-order system (y, y') of y'' + Q y = 0, with Q = ``qfun``.
    A step ends on each of ``knots`` (radii strictly between r_start and the
    last node, in the direction of integration: the kinks of a tabulated
    well, where V' jumps unseen by the error estimate) and on the last node;
    every other node takes the value of the order-7 continuous extension of
    the step that covers it, which costs three more stages on such a step.
    Each step takes 12 evaluations of the right-hand side, the last one
    reused as the next step's first (FSAL), and is accepted when err5^2 /
    sqrt(err5^2 + 0.01 err3^2) of its 5th- and 3rd-order error estimates
    (:func:`_blend`) stays below RTOL_SCALE ``rtol`` times max(|y| at either
    end, 1e-3 max|y| so far) in y and in y'.

    Scalar start values step one solution on Python scalars.  Real start
    values step as floats, so a real problem runs in float arithmetic, with
    the steps and values that complex arithmetic gives; a complex Q
    promotes the stages to complex.  The node arrays returned are complex.
    Array start values step float64 lanes, one real solution per entry of a
    ``qfun`` that returns one Q per lane (or one Q for all lanes).  The
    lanes carry y and y' stacked as one (2, ...) array, so each stage is one
    array expression for both, with the scalar stepper's operations term
    for term: the derivative is y[::-1] * (1, -Q).
    They share every step, which is accepted only when each lane passes its
    own error test (one max over the stacked error, so a NaN in y or y' of
    any lane rejects the step), and the next step follows the worst lane.
    Each lane is therefore controlled at least as tightly as alone, and a
    single lane takes exactly the scalar steps, bit for bit.

    Returns (u_nodes, v_nodes, max_abs_u), node axis first, with max_abs_u
    taken over the step ends and the interpolated nodes; for lanes it holds
    one value per lane.  ``record`` must be monotone and start strictly
    after r_start in the direction of integration (or equal).  ``head`` =
    (u, v) of one node before r_start (a series start's r_min) puts that
    node first, written into the same arrays; max_abs_u leaves it out.

    ``return_winding=True`` (scalars only) appends the Prufer winding count:
    the signed number of 2 pi wraps of atan2(Re y', Re y) over the accepted
    steps, so that the continuous angle at the last node is its atan2 plus
    2 pi times the count.  Each step measures its turn on (Re y, Re y' / s),
    s = sqrt(max(1, |Q|)) at the step start, which crosses the axes where
    (Re y, Re y') does and so counts the same wraps; a step that would turn
    it by more than pi/2 is rejected and retried with half the step, which
    keeps every wrap unambiguous.  A non-finite or non-positive ``rtol``
    raises QwsError.
    """
    _check_tol(rtol)
    rtol *= RTOL_SCALE
    lanes = np.ndim(u0) > 0
    if lanes:
        if return_winding:
            raise QwsError("the winding count is defined for a single solution only")
        y = np.array(np.broadcast_arrays(u0, v0), dtype=float)
        u, v = y   # views of the two rows
        slope = np.ones_like(y)   # (1, -Q): row 1, neg_q, is refilled at every stage
        neg_q = slope[1]
        # running magnitudes of y and y', which floor the error weights below; a
        # component starting at zero gets a floor far below any solution, so
        # that its error reads 0, not 0/0, while it stays 0
        ay = np.abs(y)
        run = np.where(ay == 0.0, 1e-300, ay)
        max_u = run[0]   # a view: stays current as run grows in place
    else:
        u, v = complex(u0), complex(v0)
        if u.imag == 0.0 and v.imag == 0.0:
            # a real problem steps in float arithmetic (same real parts, bit for
            # bit); a complex Q promotes the stages to complex by itself
            u, v = u.real, v.real
        max_u = abs(u)   # running magnitudes; also floor the error weights below
        run_v = abs(v)
    at = np.asarray(record, dtype=float)
    record = at.tolist()   # Python floats: r and every stage abscissa stay float
    n = len(record)
    lead = 0 if head is None else 1
    nodes_u = np.empty((lead + n,) + np.shape(u), dtype=float if lanes else complex)
    nodes_v = np.empty_like(nodes_u)
    if head is not None:
        nodes_u[0], nodes_v[0] = head
    us, vs = nodes_u[lead:], nodes_v[lead:]   # views: one slot per node of record
    idx = 0
    r = r_start
    turns = 0
    if record[0] == r_start:
        us[0], vs[0] = u, v
        idx = 1
        if n == 1:
            return ((nodes_u, nodes_v, max_u, turns) if return_winding
                    else (nodes_u, nodes_v, max_u))
    direction = 1.0 if record[-1] > r_start else -1.0
    span = abs(record[-1] - r_start)
    if span == 0.0:
        raise QwsError("empty integration span")
    keys = record if direction > 0.0 else [-x for x in record]   # ascending, for bisect
    stops = [float(x) for x in knots] + [record[-1]]
    stop = 0
    h0 = 1e-3 * span
    if r_start != 0.0:
        h0 = min(h0, 0.1 * abs(r_start))  # stay below the centrifugal-layer scale
    h = direction * h0
    q_end = qfun(r)
    if lanes:
        np.negative(q_end, out=neg_q)
        k1 = y[::-1] * slope
    else:
        k1u, k1v = v, -q_end * u
    if return_winding:
        scale = math.sqrt(max(1.0, abs(q_end)))
        phi = math.atan2(v.real / scale, u.real)
    steps = 0
    while idx < n:
        steps += 1
        if steps > _MAX_STEPS:
            raise StiffnessError("step budget exhausted; equation too stiff")
        target = stops[stop]
        h_prop = h  # remember the unclipped proposal across landings
        clipped = False
        if direction * (r + h - target) >= 0.0:
            h = target - r
            clipped = True
        if not clipped and abs(h) < 1e-15 * span:
            raise StiffnessError("step size underflow")
        # one step from r to r + h, k1 = f(r) given; stage 12 and the FSAL
        # derivative share r + h
        r12 = r + h
        if lanes:
            # the scalar block's sums, term for term, on the stacked (y, y')
            ks = [k1]
            for c, cols, ws in _STAGES:
                ri = r + c * h
                yi = y + h * _dot(ws, [ks[j - 1] for j in cols])
                np.negative(qfun(ri), out=neg_q)
                ks.append(yi[::-1] * slope)
            kw = [ks[j - 1] for j in _WEIGHT_COLUMNS]
            yn = y + h * _dot(_B_ROW, kw)
            a = np.abs(yn)
            sc = rtol * np.maximum(np.maximum(ay, a), 1e-3 * run)
            # _blend's operations, per entry
            a5 = np.minimum(np.abs(h * _dot(_E5_ROW, kw)) / sc, _ERR_CAP)
            a3 = np.minimum(np.abs(h * _dot(_E3_ROW, kw)) / sc, _ERR_CAP)
            n5 = a5 * a5
            err = float((n5 / np.maximum(np.sqrt(n5 + 0.01 * (a3 * a3)), 5e-324)).max())
        else:
            u2 = u + h * (_A2_1 * k1u)
            v2 = v + h * (_A2_1 * k1v)
            k2u, k2v = v2, -qfun(r + _C2 * h) * u2
            u3 = u + h * (_A3_1 * k1u + _A3_2 * k2u)
            v3 = v + h * (_A3_1 * k1v + _A3_2 * k2v)
            k3u, k3v = v3, -qfun(r + _C3 * h) * u3
            u4 = u + h * (_A4_1 * k1u + _A4_3 * k3u)
            v4 = v + h * (_A4_1 * k1v + _A4_3 * k3v)
            k4u, k4v = v4, -qfun(r + _C4 * h) * u4
            u5 = u + h * (_A5_1 * k1u + _A5_3 * k3u + _A5_4 * k4u)
            v5 = v + h * (_A5_1 * k1v + _A5_3 * k3v + _A5_4 * k4v)
            k5u, k5v = v5, -qfun(r + _C5 * h) * u5
            u6 = u + h * (_A6_1 * k1u + _A6_4 * k4u + _A6_5 * k5u)
            v6 = v + h * (_A6_1 * k1v + _A6_4 * k4v + _A6_5 * k5v)
            k6u, k6v = v6, -qfun(r + _C6 * h) * u6
            u7 = u + h * (_A7_1 * k1u + _A7_4 * k4u + _A7_5 * k5u + _A7_6 * k6u)
            v7 = v + h * (_A7_1 * k1v + _A7_4 * k4v + _A7_5 * k5v + _A7_6 * k6v)
            k7u, k7v = v7, -qfun(r + _C7 * h) * u7
            u8 = u + h * (_A8_1 * k1u + _A8_4 * k4u + _A8_5 * k5u + _A8_6 * k6u + _A8_7 * k7u)
            v8 = v + h * (_A8_1 * k1v + _A8_4 * k4v + _A8_5 * k5v + _A8_6 * k6v + _A8_7 * k7v)
            k8u, k8v = v8, -qfun(r + _C8 * h) * u8
            u9 = u + h * (_A9_1 * k1u + _A9_4 * k4u + _A9_5 * k5u + _A9_6 * k6u + _A9_7 * k7u
                          + _A9_8 * k8u)
            v9 = v + h * (_A9_1 * k1v + _A9_4 * k4v + _A9_5 * k5v + _A9_6 * k6v + _A9_7 * k7v
                          + _A9_8 * k8v)
            k9u, k9v = v9, -qfun(r + _C9 * h) * u9
            u10 = u + h * (_A10_1 * k1u + _A10_4 * k4u + _A10_5 * k5u + _A10_6 * k6u
                           + _A10_7 * k7u + _A10_8 * k8u + _A10_9 * k9u)
            v10 = v + h * (_A10_1 * k1v + _A10_4 * k4v + _A10_5 * k5v + _A10_6 * k6v
                           + _A10_7 * k7v + _A10_8 * k8v + _A10_9 * k9v)
            k10u, k10v = v10, -qfun(r + _C10 * h) * u10
            u11 = u + h * (_A11_1 * k1u + _A11_4 * k4u + _A11_5 * k5u + _A11_6 * k6u
                           + _A11_7 * k7u + _A11_8 * k8u + _A11_9 * k9u + _A11_10 * k10u)
            v11 = v + h * (_A11_1 * k1v + _A11_4 * k4v + _A11_5 * k5v + _A11_6 * k6v
                           + _A11_7 * k7v + _A11_8 * k8v + _A11_9 * k9v + _A11_10 * k10v)
            k11u, k11v = v11, -qfun(r + _C11 * h) * u11
            u12 = u + h * (_A12_1 * k1u + _A12_4 * k4u + _A12_5 * k5u + _A12_6 * k6u
                           + _A12_7 * k7u + _A12_8 * k8u + _A12_9 * k9u + _A12_10 * k10u
                           + _A12_11 * k11u)
            v12 = v + h * (_A12_1 * k1v + _A12_4 * k4v + _A12_5 * k5v + _A12_6 * k6v
                           + _A12_7 * k7v + _A12_8 * k8v + _A12_9 * k9v + _A12_10 * k10v
                           + _A12_11 * k11v)
            q_end = qfun(r12)
            k12u, k12v = v12, -q_end * u12
            un = u + h * (_B1 * k1u + _B6 * k6u + _B7 * k7u + _B8 * k8u + _B9 * k9u
                          + _B10 * k10u + _B11 * k11u + _B12 * k12u)
            vn = v + h * (_B1 * k1v + _B6 * k6v + _B7 * k7v + _B8 * k8v + _B9 * k9v
                          + _B10 * k10v + _B11 * k11v + _B12 * k12v)
            # weights rtol * max(abs(u), au, 1e-3 * max_u), floored at 1e-3 of the
            # running magnitude: pointwise relative control is unsatisfiable
            # (roundoff floor) where a component crosses zero; max()'s own
            # comparisons cost less than the builtin call
            au, av = abs(un), abs(vn)
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
            eu = h * (_E5_1 * k1u + _E5_6 * k6u + _E5_7 * k7u + _E5_8 * k8u + _E5_9 * k9u
                      + _E5_10 * k10u + _E5_11 * k11u + _E5_12 * k12u)
            ev = h * (_E5_1 * k1v + _E5_6 * k6v + _E5_7 * k7v + _E5_8 * k8v + _E5_9 * k9v
                      + _E5_10 * k10v + _E5_11 * k11v + _E5_12 * k12v)
            err = 0.0
            if eu != 0.0:
                err = (_blend(eu, h * (_E3_1 * k1u + _E3_6 * k6u + _E3_7 * k7u + _E3_8 * k8u
                                       + _E3_9 * k9u + _E3_10 * k10u + _E3_11 * k11u
                                       + _E3_12 * k12u), sc_u)
                       if sc_u > 0.0 else math.inf)
            if ev != 0.0:
                err = max(err, _blend(ev, h * (_E3_1 * k1v + _E3_6 * k6v + _E3_7 * k7v
                                               + _E3_8 * k8v + _E3_9 * k9v + _E3_10 * k10v
                                               + _E3_11 * k11v + _E3_12 * k12v), sc_v)
                          if sc_v > 0.0 else math.inf)
        if err <= 1.0 and return_winding:
            phi_new = math.atan2(vn.real / scale, un.real)
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
            turns += wrap
        if err <= 1.0:  # NaN rejects
            r_new = target if clipped else r12
            # the nodes idx ... covered - 1 lie in this step: the one it ends
            # on takes the end value, the others (idx ... end - 1) the
            # continuous extension
            covered = bisect.bisect_right(keys, direction * r_new, idx)
            end = covered - 1 if covered > idx and record[covered - 1] == r_new else covered
            if lanes:
                k13 = yn[::-1] * slope   # FSAL: neg_q still holds -Q(r + h)
                if end > idx:
                    ks.append(k13)
                    for c, cols, ws in _DENSE_STAGES:
                        ri = r + c * h
                        yi = y + h * _dot(ws, [ks[j - 1] for j in cols])
                        np.negative(qfun(ri), out=neg_q)
                        ks.append(yi[::-1] * slope)
                    dy = yn - y
                    kd = [ks[j - 1] for j in _D_COLUMNS]
                    F = (dy, h * k1 - dy, 2.0 * dy - h * (k13 + k1),
                         *(h * _dot(d, kd) for d in _D_ROWS))
                    x = (at[idx:end] - r) / h
                    ys = _dense(y, F, x.reshape((-1,) + (1,) * y.ndim))
                    us[idx:end], vs[idx:end] = ys[:, 0], ys[:, 1]
                    np.maximum(max_u, np.abs(ys[:, 0]).max(axis=0), out=max_u)
                if end < covered:
                    us[end], vs[end] = yn
                y, k1, ay = yn, k13, a
                u, v = y
                np.maximum(run, a, out=run)
            else:
                k13u, k13v = vn, -q_end * un   # FSAL
                if end > idx:
                    u14 = u + h * (_A14_1 * k1u + _A14_7 * k7u + _A14_8 * k8u + _A14_9 * k9u
                                   + _A14_10 * k10u + _A14_11 * k11u + _A14_12 * k12u
                                   + _A14_13 * k13u)
                    v14 = v + h * (_A14_1 * k1v + _A14_7 * k7v + _A14_8 * k8v + _A14_9 * k9v
                                   + _A14_10 * k10v + _A14_11 * k11v + _A14_12 * k12v
                                   + _A14_13 * k13v)
                    k14u, k14v = v14, -qfun(r + _C14 * h) * u14
                    u15 = u + h * (_A15_1 * k1u + _A15_6 * k6u + _A15_7 * k7u + _A15_8 * k8u
                                   + _A15_11 * k11u + _A15_12 * k12u + _A15_13 * k13u
                                   + _A15_14 * k14u)
                    v15 = v + h * (_A15_1 * k1v + _A15_6 * k6v + _A15_7 * k7v + _A15_8 * k8v
                                   + _A15_11 * k11v + _A15_12 * k12v + _A15_13 * k13v
                                   + _A15_14 * k14v)
                    k15u, k15v = v15, -qfun(r + _C15 * h) * u15
                    u16 = u + h * (_A16_1 * k1u + _A16_6 * k6u + _A16_7 * k7u + _A16_8 * k8u
                                   + _A16_9 * k9u + _A16_13 * k13u + _A16_14 * k14u
                                   + _A16_15 * k15u)
                    v16 = v + h * (_A16_1 * k1v + _A16_6 * k6v + _A16_7 * k7v + _A16_8 * k8v
                                   + _A16_9 * k9v + _A16_13 * k13v + _A16_14 * k14v
                                   + _A16_15 * k15v)
                    k16u, k16v = v16, -qfun(r + _C16 * h) * u16
                    du, dv = un - u, vn - v
                    ku = (k1u, k6u, k7u, k8u, k9u, k10u, k11u, k12u, k13u, k14u, k15u, k16u)
                    kv = (k1v, k6v, k7v, k8v, k9v, k10v, k11v, k12v, k13v, k14v, k15v, k16v)
                    F = np.array([(du, dv), (h * k1u - du, h * k1v - dv),
                                  (2.0 * du - h * (k13u + k1u), 2.0 * dv - h * (k13v + k1v))]
                                 + [(h * _dot(d, ku), h * _dot(d, kv)) for d in _D_ROWS])
                    ys = _dense(np.array((u, v)), F, (at[idx:end, None] - r) / h)
                    us[idx:end], vs[idx:end] = ys[:, 0], ys[:, 1]
                    m = float(np.abs(ys[:, 0]).max())
                    if m > max_u:
                        max_u = m
                if end < covered:
                    us[end], vs[end] = un, vn
                u, v = un, vn
                k1u, k1v = k13u, k13v
                if au > max_u:  # builtin max() would cost more than the comparisons
                    max_u = au
                if av > run_v:
                    run_v = av
                if return_winding:
                    scale = math.sqrt(max(1.0, abs(q_end)))
                    phi = math.atan2(v.real / scale, u.real)
            idx = covered
            r = r_new
            if clipped:
                stop += 1
                h = h_prop  # a short landing step says nothing about scale
            else:
                fac = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.125))
                h = math.copysign(min(abs(h) * fac, span), direction)
        else:
            h *= max(0.1, 0.9 * err ** -0.125)
    return (nodes_u, nodes_v, max_u, turns) if return_winding else (nodes_u, nodes_v, max_u)


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
                   tol: float, knots=()) -> float:
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

    r_s is capped at min(SERIES_CAP_FRACTION r0, record[1] / 2, knots[0] / 2),
    so it never passes a knot or the second recorded node, and it is never
    below record[0].  For float64 lanes the bounds hold on every lane: one r_s,
    the smallest over the lanes.
    """
    r_min = float(record[0])
    w_m1, w0, w1 = origin_w
    cf = lam * lam - 0.25
    r = min(SERIES_CAP_FRACTION * r0, 0.5 * min([float(record[1]), *knots[:1]]))
    eps = SERIES_TOL_FRACTION * tol * abs(lam + 0.5) / abs(lam + 5.5)
    bound = eps * 2 * abs(2 * lam + 2)

    def dv(r):   # dV(r) r^2, per lane
        return (E - cf / (r * r) - qfun(r) - (w_m1 / r + w0 + w1 * r)) * (r * r)

    while r > r_min and not _largest(dv(r)) <= bound:
        r *= 0.5
    _, _, _, a4, a5 = _series_coefficients(lam, E, origin_w)
    for a, n in ((_largest(a4), 4), (_largest(a5), 5)):   # a r^n <= eps
        if a > 0.0:
            r = min(r, (eps / a) ** (1.0 / n))
    return max(r, r_min)


def _from_origin(qfun: Callable, lam, E, origin_w, record: np.ndarray, r0: float,
                 tol: float, return_winding: bool = False, second_branch: bool = False,
                 knots=()):
    """Origin-regular solve: the series start at r_s, then :func:`_integrate` on ``record``.

    Requires Re lam > 0 (``second_branch=True`` admits the subdominant
    branch of :func:`integrate_regular` instead, started at record[0]).  E
    and origin_w are scalars, or arrays for float64 lanes.  r_s comes from
    :func:`_series_radius` (r0 is the cutoff radius that caps it); the
    nodes below r_s (record[0] only) take the series value.  Between
    record[0] and r_s neither y nor y' has a zero, so a real problem's
    winding count is that of a solve from record[0].  Every step ends on
    each of ``knots`` (ascending, inside the span of ``record``), and r_s
    stays below the first.  Lanes run with numpy's floating-point warnings
    off: a NaN or inf in a lane rejects its step by design.  Returns the
    tuple of :func:`_integrate`; a non-finite or non-positive ``tol``
    raises QwsError before the series.
    """
    _check_tol(tol)
    re = lam.real if isinstance(lam, complex) else lam
    if second_branch:
        if not (-1.0 < re < 0.0) or abs(2 * re + 1) < 1e-6:
            raise RegularityError(
                "second branch supported for -1 < Re lam < 0, lam != -1/2")
    elif re <= 0.0:
        raise RegularityError("regular solution requires Re lam > 0")
    r_min = float(record[0])
    lanes = np.ndim(E) > 0 or np.ndim(origin_w[0]) > 0
    with np.errstate(all="ignore") if lanes else contextlib.nullcontext():
        r_s = (r_min if second_branch
               else _series_radius(qfun, lam, E, origin_w, record, r0, tol, knots))
        at_min = frobenius_start(lam, E, origin_w, r_min)
        us, vs, max_u, *turns = _integrate(qfun, r_s, *frobenius_start(lam, E, origin_w, r_s),
                                           record[1:], tol, return_winding, head=at_min,
                                           knots=knots)
    u0 = at_min[0]
    max_u = np.maximum(max_u, np.abs(u0)) if np.ndim(u0) else max(max_u, abs(u0))
    return (us, vs, max_u, *turns)


def _knots(potential: PotentialModel, nodes) -> Tuple[float, ...]:
    """The knots of the local profile strictly inside the span of ``nodes``, in its direction.

    V' jumps at a knot of a tabulated well, which the error estimate does
    not see, so a step across one misses the tolerance; :func:`_integrate`
    ends a step on each knot it is given instead.
    """
    lo, hi = sorted((float(nodes[0]), float(nodes[-1])))
    knots = sorted(x for x in potential.knots if lo < x < hi)
    return tuple(knots[::-1] if nodes[0] > nodes[-1] else knots)


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
    if eq.kernel_acts:
        raise QwsError("equation has an active kernel; use solve_nonlocal")
    nodes, i0 = grid.interior_nodes, grid.i_cutoff
    us, vs, _ = _from_origin(eq.coefficient, eq.lam, eq.energy.E, eq.origin_w, nodes, grid.r0,
                             tol, second_branch=second_branch, knots=_knots(eq.potential, nodes))
    y = np.empty(len(grid.nodes), dtype=complex)
    dy = np.empty(len(grid.nodes), dtype=complex)
    y[: i0 + 1], dy[: i0 + 1] = us, vs
    y[i0:], dy[i0:] = free_exterior(eq, us[-1], vs[-1], grid.nodes[i0:], tol)
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="origin-regular",
                          channel=eq.channel, energy=eq.energy, mu=eq.mu)


def integrate_jost(eq: EffectiveEquation, grid: RadialGrid, k: complex,
                   tol: float = 1e-10) -> RadialSolution:
    """Solution equal to e^{-ikr} for r >= r0, integrated inward to r_min.

    Requires a compactly supported, local equation and k != 0; supports
    complex k and complex lambda.
    """
    if k == 0:
        raise QwsError("Jost normalization is degenerate at k = 0")
    if eq.kernel_acts:
        raise QwsError("Jost solutions are defined for the local equation only")
    energy = EnergyValue(E=k * k)
    if energy.E != eq.energy.E:
        eq = effective_equation(eq.channel, eq.potential, energy)
    nodes = grid.nodes
    i0 = grid.i_cutoff
    y = np.empty(len(nodes), dtype=complex)
    dy = np.empty(len(nodes), dtype=complex)
    for j in range(i0, len(nodes)):
        ph = cmath.exp(-1j * k * nodes[j])
        y[j] = ph
        dy[j] = -1j * k * ph
    record = nodes[: i0 + 1][::-1]
    us, vs, _ = _integrate(eq.coefficient, float(nodes[i0]), y[i0], dy[i0], record,
                           rtol=tol, knots=_knots(eq.potential, record))
    y[: i0 + 1] = us[::-1]
    dy[: i0 + 1] = vs[::-1]
    return RadialSolution(grid=grid, y=y, dy=dy, normalization="jost",
                          channel=eq.channel, energy=energy, mu=eq.mu)


def _couple(M: np.ndarray, m_h: np.ndarray, coupling: np.ndarray, mu):
    """(N, B, det) of (Id - mu C M) beta = mu C m_h at each point, by Cramer's rule.

    M_ij = m_i[p_j] and m_h,i = m_i[y_reg] are moments of the particular and
    regular solutions (:func:`_kernel_point`), point axis first; ``mu`` is
    a scalar or one coupling per point.  det(B) beta_j = N_j, the
    determinant of B = Id - mu C M with column j replaced by mu C m_h, so
    det y = det y_reg + sum_j N_j p_j (:func:`_scaled`) takes no division:
    it stays finite through a kernel resonance (det = 0), where y has a
    pole, and one real factor per point leaves A = y'/y and tan eta as
    they are.
    """
    n = coupling.shape[0]
    mu = np.asarray(mu, dtype=float)[..., None, None]
    B = np.eye(n) - mu * (coupling @ M)
    rhs = mu * (coupling @ m_h[..., None])
    det = np.linalg.det(B)
    N = np.stack([np.linalg.det(np.concatenate([B[..., :j], rhs, B[..., j + 1:]], axis=-1))
                  for j in range(n)], axis=-1)
    return N, B, det


@functools.lru_cache(maxsize=None)
def _gauss_legendre(n: int):
    """Nodes x, weights w and the cumulative matrix A of the n-point Gauss-Legendre rule.

    (A f)_k = int_{-1}^{x_k} of the degree n - 1 interpolant of the node
    values f (:func:`_antiderivative`).  Made on first use, not at import:
    the first LAPACK call of a process sets up its buffers.  The arrays are
    shared, so they are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    rule = (x, w, _antiderivative(x, x))
    for a in rule:
        a.flags.writeable = False
    return rule


def _antiderivative(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows A with (A f)_k = int_{-1}^{t_k} of the degree len(x) - 1 interpolant of f at x."""
    leg = np.polynomial.legendre
    n = len(x)
    integral = leg.legvander(t, n) @ leg.legint(np.eye(n), lbnd=-1.0)
    return np.linalg.solve(leg.legvander(x, n - 1).T, integral.T).T


@functools.lru_cache(maxsize=None)
def _power_cumulative(b: float) -> np.ndarray:
    """(A phi)_k = int_{-1}^{x_k} ((1 + t)/2)^b p(t) dt, p the interpolant of phi at the nodes x.

    The cumulative matrix of the rule's first panel for an integrand r^b
    phi with phi smooth: the power is integrated exactly, so int_0^r keeps
    its relative accuracy down to the first node, where the plain
    interpolant of r^b phi errs by the panel's largest value.  Each row is
    Gauss-Jacobi with weight s^b on (0, 1) (Golub & Welsch, Math. Comp. 23
    (1969) 221), exact for p.
    """
    leg, n = np.polynomial.legendre, GREEN_NODES
    x, _, _ = _gauss_legendre(n)
    k, m = np.arange(1.0, n), np.arange(n)
    off = 2.0 * k * (k + b) / ((2.0 * k + b) * np.sqrt((2.0 * k + b) ** 2 - 1.0))
    xj, vectors = np.linalg.eigh(np.diag(b * b / ((2.0 * m + b) * (2.0 * m + b + 2.0)))
                                 + np.diag(off, 1) + np.diag(off, -1))
    t = -1.0 + np.outer(1.0 + x, 0.5 * (1.0 + xj))
    basis = np.linalg.solve(leg.legvander(x, n - 1).T, leg.legvander(t, n - 1).reshape(-1, n).T)
    A = (((0.5 * (1.0 + x)) ** b * (1.0 + x))[:, None] / (b + 1.0)
         * np.einsum("m,gkm->kg", vectors[0] ** 2, basis.reshape(n, n, n)))
    A.flags.writeable = False
    return A


def _green_edges(potential: PotentialModel, E, mu) -> np.ndarray:
    """The panel edges of the kernel rule on [0, r0] (see GREEN_PANELS).

    E and mu are a point's energy and coupling, or the arrays of lanes,
    whose largest |E| and |mu| set one rule for all of them.
    """
    r0 = potential.r0
    k = math.sqrt(_largest(E) + _largest(mu) * potential.max_local())
    length = min(r0, *(GREEN_WIDTHS * term.width for term in potential.kernel))
    if k > 0.0:
        length = min(length, GREEN_PHASE / k)
    panels = math.ceil(GREEN_PANELS * r0 / max(length, GREEN_PANELS * r0 / GREEN_MAX_PANELS))
    return np.array(sorted({*np.linspace(0.0, r0, panels + 1).tolist(),
                            *(x for x in potential.knots if 0.0 < x < r0)}))


def _rule(edges: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on ``edges``, panel after panel."""
    gl_x, gl_w, _ = _gauss_legendre(GREEN_NODES)
    half = 0.5 * np.diff(edges)[:, None]
    return ((0.5 * (edges[1:] + edges[:-1]))[:, None] + half * gl_x).ravel(), (half * gl_w).ravel()


def _graded(edges: np.ndarray, r_lo: float) -> np.ndarray:
    """``edges`` with the first panel split into panels [e/2, e] down to r_lo, [0, e] dropped.

    Near the origin y_reg S ~ r^m and y_2 S ~ r^(1 + a - l) change over
    decades that one polynomial does not follow, but on [e/2, e] by a
    bounded factor, so each radius down to r_lo gets int_0^r and int_r^r0
    to the rule's relative accuracy; below the last, both products vanish
    like high powers of r.
    """
    e1 = float(edges[1])
    if r_lo >= e1:
        return edges
    return np.concatenate((e1 * 0.5 ** np.arange(math.ceil(math.log2(e1 / r_lo)), 0, -1),
                           edges[1:]))


def _running(f: np.ndarray, edges: np.ndarray, at: Optional[np.ndarray] = None,
             reverse: bool = False, power: Optional[float] = None) -> np.ndarray:
    """int_{e_0}^r f, or int_r^{r0} f (``reverse``), from the values f (node, ...) on the rule.

    At the rule's nodes each panel's cumulative matrix adds to the whole
    panels before (after) it, or at the radii ``at`` the panel's Legendre
    interpolant does.  ``power`` = b for an f ~ r^b takes the first panel
    from :func:`_power_cumulative`.  A reverse integral takes no panel
    below r, so an f singular at the origin reaches no radius beyond the
    first panel.
    """
    x, gl_w, cumulative = _gauss_legendre(GREEN_NODES)
    half = 0.5 * np.diff(edges)
    g = f.reshape(len(half), GREEN_NODES, -1)
    full = (gl_w @ g) * half[:, None]
    outside = (np.cumsum(full[::-1], axis=0)[::-1] if reverse else np.cumsum(full, axis=0)) - full
    if at is None:
        within = (cumulative @ g) * half[:, None, None]   # from each panel's left edge
        if power is not None and edges[0] == 0.0:
            scale = (0.5 * (1.0 + x)) ** power
            phi = np.divide(g[0], scale[:, None], out=np.zeros_like(g[0]),
                            where=scale[:, None] > 0.0)
            within[0] = (_power_cumulative(power) @ phi) * half[0]
        outside, full = outside[:, None], full[:, None]
    else:
        b = np.clip(np.searchsorted(edges, at, side="right") - 1, 0, len(half) - 1)
        rows = _antiderivative(x, (at - 0.5 * (edges[1:] + edges[:-1])[b]) / half[b])
        within = np.einsum("mk,mkr->mr", rows, g[b]) * half[b, None]
        outside, full = outside[b], full[b]
    F = outside + (full - within if reverse else within)
    return F.reshape((-1,) + f.shape[1:])


def _sources(sources, at: np.ndarray) -> np.ndarray:
    """The kernel sources S_i at the radii ``at``, as (node, 1, i)."""
    return np.array([[src(r) for src in sources] for r in at.tolist()])[:, None, :]


def source_norms(channel: ChannelParams, potential: PotentialModel) -> np.ndarray:
    """The norms |S_i| = (int_0^r0 S_i^2)^(1/2), on the rule of a kernel point at E = 0."""
    at, w = _rule(_green_edges(potential, 0.0, potential.mu))
    s = _sources(kernel_sources(channel, potential), at)[:, 0]
    return np.sqrt(w @ (s * s))


class _KernelPoint(NamedTuple):
    """A kernel point of :func:`_kernel_point` at its samples, r0 last.

    y, dy, y2, dy2: y_reg, y_2 and their derivatives (sample, point); P =
    int_0^r S_j y_reg and R = int_r^r0 S_j y_2 (sample, point, j); W
    (point,); WG = W G = -(X + X^T) (point, i, j); Q0 = int_0^r0 S_j y_2 on
    the uniform rule (point, j); turns: y_reg's winding count, if asked.
    The level count's point holds r0 alone, and no P, R or Q0.
    """

    y: np.ndarray
    dy: np.ndarray
    y2: np.ndarray
    dy2: np.ndarray
    P: Optional[np.ndarray]
    R: Optional[np.ndarray]
    W: np.ndarray
    WG: np.ndarray
    Q0: Optional[np.ndarray]
    turns: Optional[int] = None

    @property
    def M(self) -> np.ndarray:
        """The moments M = m_i[p_j] = -G of the particular solutions (point, i, j)."""
        return -self.WG / self.W[:, None, None]


def _kernel_point(qfun: Callable, sources, channel: ChannelParams, potential: PotentialModel,
                  E, mu, tol: float, samples: Optional[np.ndarray] = None,
                  h: Optional[float] = None, return_winding: bool = False) -> _KernelPoint:
    """The Green matrix and the state's parts at a kernel point, from two local solves.

    y_reg goes outward from its series (:func:`_from_origin`) and y_2 inward
    from r0, each in the direction in which it grows, on the rule of
    :func:`_green_edges`, :func:`_graded` down to the first of ``samples``
    (ascending radii inside (0, r0)) if any.  With P_j = int_0^r S_j y_reg
    (the power r^(lam + q/2) exact on the first panel) and X_ij = int S_i
    y_2 P_j, the half r' < r of the double integral of the Green function
    -y_reg(r<) y_2(r>) / W, W G = -(X + X^T): bounded, so nothing cancels
    however strong the kernel, and regular where W vanishes.  A state (``h``
    None) starts y_2 from (-y_reg', y_reg), so that W = y_reg^2 + y_reg'^2
    > 0 at r0 at any real E, and gets the particular solutions of y'' + Q y
    = S_j, p_j = (y_2 P_j + y_reg R_j) / W with R_j = int_r^r0 S_j y_2, and
    their moments M = -G: no integral of y_2 S starts at the origin, where
    it diverges for l >= a + 2.  The samples get P and R from their panels'
    interpolants; without samples the state comes at the rule's nodes beyond
    the first panel.  The level count passes h = h(E), the decaying
    exterior's log-derivative: y_2 starts from (1, h), W = y_reg h - y_reg',
    and the point holds r0 alone, W G, W and, with ``return_winding``,
    y_reg's winding count: what the count reads.  E and mu are scalars, or
    arrays of float64 lanes (``potential.mu`` is not read), with Q(r) =
    ``qfun`` and S_i(r) = ``sources``: an equation's ``coefficient`` and
    ``sources``.  A complex lambda, q or E raises QwsError.
    """
    lam = channel.lam
    if isinstance(lam, complex) or np.iscomplex(channel.q) or np.any(np.iscomplex(E)):
        raise QwsError("a non-local solve requires real lambda, q and energy")
    E = np.real(E)
    uniform = _green_edges(potential, E, mu)
    edges = uniform if samples is None else _graded(uniform, float(samples[0]))
    at, w = _rule(edges)
    nodes = at
    if samples is not None:
        at_u, w_u = _rule(uniform)
        nodes = np.union1d(np.union1d(at, at_u), samples)
    r0 = potential.r0
    record = np.concatenate(([min(R_MIN_FRACTION * r0, 0.5 * nodes[0])], nodes, [r0]))
    origin_w = tuple(mu * c for c in potential.origin_coefficients())
    us, vs, _, *turns = _from_origin(qfun, lam, E, origin_w, record, r0, tol,
                                     return_winding=return_winding,
                                     knots=_knots(potential, record))
    u, v = us[-1].real, vs[-1].real
    inward = np.concatenate(([r0], nodes[::-1]))
    ys, dys, _ = _integrate(qfun, r0, *((-v, u) if h is None else (1.0, h)), inward, tol,
                            knots=_knots(potential, inward))
    y, dy, y2, dy2 = (x.real.reshape(len(x), -1) for x in (us[1:], vs[1:], ys[::-1], dys[::-1]))

    def on(radii):   # the rows of the solutions at ``radii``
        return slice(None, -1) if samples is None else np.searchsorted(nodes, radii)

    s = _sources(sources, at)
    f = s * y[on(at), :, None]
    P = _running(f, edges, power=lam + 0.5 * channel.q)
    W = y[-1] * dy2[-1] - dy[-1] * y2[-1]
    X = np.einsum("xpi,xpj->pij", s * (w[:, None] * y2[on(at)])[..., None], P)
    WG = -(X + X.swapaxes(-1, -2))
    if h is not None:
        return _KernelPoint(y[-1:], dy[-1:], y2[-1:], dy2[-1:], None, None, W, WG, None, *turns)
    f2 = s * y2[on(at), :, None]
    m_h = np.tensordot(w, f, axes=1)
    if samples is None:
        Q0 = np.tensordot(w, f2, axes=1)
        kept = np.flatnonzero(at >= edges[1])
        P, R = P[kept], _running(f2, edges, reverse=True)[kept]
    else:
        Q0 = np.tensordot(w_u, _sources(sources, at_u) * y2[on(at_u), :, None], axes=1)
        kept = np.searchsorted(nodes, samples)
        P, R = _running(f, edges, samples), _running(f2, edges, samples, reverse=True)
    rows = np.append(kept, -1)
    return _KernelPoint(y[rows], dy[rows], y2[rows], dy2[rows], np.concatenate((P, m_h[None])),
                        np.concatenate((R, 0.0 * m_h[None])), W, WG, Q0)


def _volterra_moments(part: _KernelPoint) -> np.ndarray:
    """The moments M - m_h Q0^T / W of the particular solutions p_j - (Q0_j / W) y_reg.

    Those are (y_2 P_j - y_reg int_0^r S_j y_2) / W, which keep the
    normalization of the origin series, y ~ r^(lam + 1/2) (for l < a + 2;
    beyond, the rule's finite sum Q0 is a convention).  The shift along
    y_reg scales det(Id - mu C M) and N alike (Sherman-Morrison), so det y
    stays as it is.
    """
    return part.M - part.P[-1][:, :, None] * part.Q0[:, None, :] / part.W[:, None, None]


def _scaled(part: _KernelPoint, N: np.ndarray, det) -> Tuple[np.ndarray, np.ndarray]:
    """(det y, det y') = det y_reg + (y_2 P.N + y_reg R.N) / W and its derivative at the samples.

    N and det of :func:`_couple` hold one point, or one per coupling
    against a single point's ``part``.
    """
    pn = (part.P * N).sum(axis=-1)
    rn = (part.R * N).sum(axis=-1)
    return (det * part.y + (part.y2 * pn + part.y * rn) / part.W,
            det * part.dy + (part.dy2 * pn + part.dy * rn) / part.W)


def _cutoff(part: _KernelPoint, coupling: np.ndarray, mu):
    """(det y, det y', max|det y|) at r0, per point or per coupling ``mu``."""
    y, dy = _scaled(part, *_couple(part.M, part.P[-1], coupling, mu)[::2])
    return y[-1], dy[-1], np.max(np.abs(y), axis=0)


def solve_nonlocal(eq: EffectiveEquation, grid: RadialGrid, tol: float = 1e-10) -> RadialSolution:
    """Origin-regular solution over the whole grid, with or without a kernel.

    The one full-grid regular solve.  A local equation (no kernel, mu = 0 or
    all couplings zero) is integrated by :func:`integrate_regular`; a rank-n
    kernel by :func:`_kernel_point`, with the grid's interior nodes as its
    samples, continued through the free exterior.  The solution keeps the
    normalization of the origin series: det, N and the moments are those
    of :func:`_volterra_moments`, and nodes at or below R_MIN_FRACTION r0
    take the series value of y_reg, as the first node of every
    origin-regular solve does (where l < a + 2 the particular solutions add
    r^(a + 2 - l) to it, relative).  It alone divides the scaled state by
    det, so it alone raises DegenerateCouplingError, where |det| < 1e-12
    max(1, |B|_F)^n (a kernel resonance: no solution of this normalization
    exists there).
    """
    if not eq.kernel_acts:
        return integrate_regular(eq, grid, tol)
    i0 = grid.i_cutoff
    nodes = grid.interior_nodes[:i0]
    low = int(np.searchsorted(nodes, R_MIN_FRACTION * eq.r0, side="right"))
    part = _kernel_point(eq.coefficient, eq.sources, eq.channel, eq.potential, eq.energy.E,
                         eq.mu, tol, samples=nodes[low:])
    y_int, dy_int = _scaled(part, *_couple(part.M, part.P[-1], eq.coupling, eq.mu)[::2])
    M = _volterra_moments(part)
    N, B, det = _couple(M, part.P[-1], eq.coupling, eq.mu)
    det = det[0]
    if abs(det) < 1e-12 * max(1.0, float(np.linalg.norm(B[0]))) ** eq.rank:
        raise DegenerateCouplingError(
            f"det(Id - mu C M) = {det:.3e}: kernel resonance at E = {eq.energy.E}")
    beta = N[0] / det
    data = KernelSolveData(moments=part.P[-1, 0] + M[0] @ beta, coefficients=beta,
                           det=float(abs(det)))
    y = np.empty(len(grid.nodes), dtype=complex)
    dy = np.empty(len(grid.nodes), dtype=complex)
    y[:low], dy[:low] = frobenius_start(eq.lam, eq.energy.E.real, eq.origin_w, nodes[:low])
    y[low: i0 + 1] = y_int[:, 0] / det
    dy[low: i0 + 1] = dy_int[:, 0] / det
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
    us, vs, _ = _integrate(radial_coefficient(eq.lam, eq.energy.E), float(nodes[0]), y0, dy0,
                           nodes, rtol=tol)
    return us, vs


def interior_state(eq: EffectiveEquation, tol: float = 1e-10,
                   return_winding: bool = False):
    """(y, y', max|y|) at r0^- for the local or non-local interior problem.

    A local equation is integrated straight to the cutoff without storing a
    grid.  A kernel takes the two local solves of :func:`_kernel_point` and
    comes back scaled by det(Id - mu C M) (:func:`_couple`), finite at a
    kernel resonance too; its max|y| is taken on the rule's nodes beyond
    the first panel and on r0.  ``return_winding=True`` (local equation
    only) appends the Prufer winding count of (Re y, Re y') over (r_min,
    r0), see :func:`_integrate` and :func:`prufer_angle`.
    :func:`node_at_cutoff` reads y(r0) against max|y|.
    """
    if eq.kernel_acts:
        if return_winding:
            raise QwsError("the winding count is defined for the local equation only")
        y, dy, max_y = _cutoff(_kernel_point(eq.coefficient, eq.sources, eq.channel, eq.potential,
                                             eq.energy.E, eq.mu, tol), eq.coupling, eq.mu)
        return complex(y[0]), complex(dy[0]), float(max_y[0])
    record = [R_MIN_FRACTION * eq.r0, eq.r0]
    us, vs, *rest = _from_origin(eq.coefficient, eq.lam, eq.energy.E, eq.origin_w,
                                 record, eq.r0, tol, return_winding=return_winding,
                                 knots=_knots(eq.potential, record))
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
    the cutoff.  A kernel takes the two solves of :func:`_kernel_point` as
    lanes, on one rule that the largest |E| and |mu| set, and comes back
    scaled by det(Id - mu C M), as from :func:`interior_state`.  Returns the
    real parts.
    """
    E = np.asarray(E, dtype=float)
    mu = np.asarray(mu, dtype=float)
    shape = np.broadcast_shapes(E.shape, mu.shape)
    lam = channel.lam
    if isinstance(lam, complex):
        raise QwsError("lanes require real lambda")
    if not potential.kernel_acts:
        record = [R_MIN_FRACTION * potential.r0, potential.r0]
        origin_w = tuple(mu * w for w in potential.origin_coefficients())
        us, vs, max_u = _from_origin(radial_coefficient(lam, E, mu, potential), lam, E,
                                     origin_w, record, potential.r0, tol,
                                     knots=_knots(potential, record))
        return us[-1].real, vs[-1].real, max_u
    E, mu = (a.ravel() for a in np.broadcast_arrays(E, mu))
    part = _kernel_point(radial_coefficient(lam, E, mu, potential),
                         kernel_sources(channel, potential), channel, potential, E, mu, tol)
    return tuple(x.reshape(shape) for x in _cutoff(part, potential.coupling_matrix(), mu))


def interior_in_mu(channel: ChannelParams, potential: PotentialModel, E: float,
                   tol: float = 1e-10) -> Callable:
    """(y, y', max|y|) at r0^- as a function of the coupling mu, at one energy E.

    The returned function takes a scalar mu and answers as
    :func:`interior_state`, or an array of couplings and answers as
    :func:`interior_lanes` (real parts), a kernel's state scaled by det(Id
    - mu C M) either way.  In a pure kernel (no local part) neither Q(r),
    the series start nor the rule depends on mu, so the two solves of
    :func:`_kernel_point` are made once, here, and each coupling costs n +
    1 determinants of n x n matrices.  Any other model solves every call
    afresh.  The solves live as long as the returned function.
    """
    if potential.local is not None or not potential.kernel_acts:
        def at(mu):
            if np.ndim(mu):
                return interior_lanes(channel, potential, E, mu, tol)
            eq = effective_equation(channel, potential.with_mu(mu), EnergyValue(E=E))
            return interior_state(eq, tol)

        return at
    eq = effective_equation(channel, potential, EnergyValue(E=E))
    part = _kernel_point(eq.coefficient, eq.sources, channel, potential, E, eq.mu, tol)

    def at(mu):
        y, dy, max_y = _cutoff(part, eq.coupling, mu)
        if np.ndim(mu):
            return y, dy, max_y
        return complex(y[0]), complex(dy[0]), float(max_y[0])

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

