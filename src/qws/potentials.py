"""Potential models: compactly supported local wells plus finite-rank separable kernels.

Every local profile and every kernel profile is cut off at the model radius
r0, so U(r, r') = sum_ij c_ij g_i(r) g_j(r') is symmetric and compactly
supported by construction.  Depths are positive for attractive wells
(V = -depth inside).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import QwsError

# the highest power v_m r^m of the built-in profiles' origin expansions: the
# origin series of the integrator carries radial_ode.SERIES_TERMS = ORIGIN_ORDER
# + 2 terms, which read v_j up to j = ORIGIN_ORDER
ORIGIN_ORDER = 22


def real_parameter(value, name: str) -> float:
    """``value`` as a float; a complex value, or one that is not a number, raises QwsError.

    The contract of every real parameter in qws (the factories' depths,
    widths and radii, a model's r0 and mu, a phase shift's k): float()
    would raise TypeError on a complex value, and numpy's complex scalars
    would lose their imaginary part.
    """
    if isinstance(value, (float, int)):   # numpy's float64 too
        return float(value)
    if np.iscomplexobj(value):
        raise QwsError(f"{name} must be real, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError):
        raise QwsError(f"{name} must be a real number, got {value!r}") from None


def _taylor(v0: float, step: float, every: int) -> Tuple[float, ...]:
    """(0, v_0, v_1, ..., v_m) of v_0 exp(step r^every), up to m = ORIGIN_ORDER.

    The terms v_0 step^n / n! sit on the powers every * n, zeros between.
    The tuple ends before the first later term that overflows (a float
    product does not raise): a shorter expansion, which the integrator's
    start radius bounds from the profile.
    """
    terms = [v0]
    c = v0
    for n in range(1, ORIGIN_ORDER // every + 1):
        c = c * step / n
        if not math.isfinite(c):
            break
        terms += [0.0] * (every - 1) + [c]
    return (0.0, *terms)


@dataclass(frozen=True)
class LocalPotential:
    """A local radial profile V(r), untruncated; the model applies the r0 cutoff.

    ``origin`` = (v_-1, v_0, v_1, ..., v_m) holds the small-r expansion V ~
    v_-1/r + v_0 + v_1 r + ... + v_m r^m, which the series start of the
    integrator carries to order m; a shorter tuple reads as zeros beyond
    its end, which the start radius then bounds from the profile itself.
    The built-in profiles carry m = ORIGIN_ORDER, or end where they are
    exact.  ``constant`` is set when the profile is exactly constant inside
    the cutoff (square well), which lets downstream code skip the per-point
    evaluation.  ``sign`` is +1 when V >= 0 inside the cutoff, -1 when V <=
    0, and 0 when the profile changes sign or its sign is unknown (the
    default for hand-built profiles); phase shifts of a one-signed well are
    monotone in mu.
    ``knots`` are the radii where V' jumps (the rows of a table); the
    integrator ends a step on each one inside the cutoff.
    """

    name: str
    profile: Callable[[float], float]
    origin: Tuple[float, ...]
    params: Tuple[Tuple[str, float], ...] = ()
    constant: Optional[float] = None
    sign: int = 0
    knots: Tuple[float, ...] = ()


def square_well(depth: float) -> LocalPotential:
    """V(r) = -depth for r < r0 (attractive for depth > 0)."""
    d = real_parameter(depth, "depth")
    val = -d
    return LocalPotential(
        name="square_well",
        profile=lambda r: val,
        origin=(0.0, val),
        params=(("depth", d),),
        constant=val,
        sign=-1 if d >= 0 else 1,
    )


def truncated_exponential(depth: float, scale: float) -> LocalPotential:
    """V(r) = -depth * exp(-r/scale) for r < r0."""
    d, s = real_parameter(depth, "depth"), real_parameter(scale, "scale")
    if not s > 0:   # NaN fails it too
        raise QwsError("exponential scale must be positive")
    return LocalPotential(
        name="truncated_exponential",
        profile=lambda r: -d * math.exp(-r / s),
        origin=_taylor(-d, -1.0 / s, 1),
        params=(("depth", d), ("scale", s)),
        sign=-1 if d >= 0 else 1,
    )


def truncated_gaussian(depth: float, width: float) -> LocalPotential:
    """V(r) = -depth * exp(-(r/width)^2) for r < r0."""
    d, w = real_parameter(depth, "depth"), real_parameter(width, "width")
    if not w > 0:   # NaN fails it too
        raise QwsError("gaussian width must be positive")

    def profile(r: float) -> float:
        x = r / w
        return -d * math.exp(-(x ** 2)) if x < 1e154 else 0.0   # x ** 2 would overflow

    return LocalPotential(
        name="truncated_gaussian",
        profile=profile,
        origin=_taylor(-d, -(1.0 / w) * (1.0 / w), 2),   # 1 / w ** 2 would divide by 0
        params=(("depth", d), ("width", w)),
        sign=-1 if d >= 0 else 1,
    )


def tabulated(r_values: Sequence[float], v_values: Sequence[float]) -> LocalPotential:
    """Linear interpolation of (r, V) samples; constant below the first and beyond the last."""
    if np.iscomplexobj(r_values) or np.iscomplexobj(v_values):
        raise QwsError("tabulated potential needs real radii and values")
    try:
        r = np.asarray(r_values, dtype=float)
        v = np.asarray(v_values, dtype=float)
    except (TypeError, ValueError):
        raise QwsError("tabulated potential needs numeric radii and values") from None
    if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
        raise QwsError("tabulated potential needs two equal-length columns, >= 2 rows")
    if np.any(np.diff(r) <= 0):
        raise QwsError("tabulated radii must be strictly increasing")
    if r[0] <= 0:
        raise QwsError("tabulated radii must be positive")
    return LocalPotential(
        name="tabulated",
        profile=lambda x: float(np.interp(x, r, v)),
        origin=(0.0, float(v[0])),   # np.interp holds V = v[0] below the first row
        params=(("n_rows", float(len(r))),),
        sign=1 if np.all(v >= 0) else -1 if np.all(v <= 0) else 0,
        knots=tuple(r.tolist()),
    )


@dataclass(frozen=True)
class KernelTerm:
    """One separable factor g_i(r) of the non-local kernel (untruncated profile).

    ``width`` is the length on which the profile changes, its narrowest
    feature; the quadrature rule of every kernel solve resolves it.  A
    hand-built term leaves it infinite and gets the rule's fixed panels.
    """

    name: str
    profile: Callable[[float], float]
    params: Tuple[Tuple[str, float], ...] = ()
    width: float = math.inf


def gaussian_bump(center: float, width: float, height: float = 1.0) -> KernelTerm:
    """g(r) = height * exp(-((r-center)/width)^2)."""
    c, w, h = (real_parameter(x, name) for x, name in ((center, "center"), (width, "width"),
                                                        (height, "height")))
    if not w > 0:   # NaN fails it too
        raise QwsError("bump width must be positive")

    def g(r):
        x = (r - c) / w
        return h * math.exp(-x * x)   # x * x overflows to inf where x ** 2 would raise

    return KernelTerm(name="gaussian_bump", profile=g,
                      params=(("center", c), ("width", w), ("height", h)), width=w)


def poly_bump(a: float, b: float, r0: float, height: float = 1.0) -> KernelTerm:
    """g(r) = height * r^a (r0-r)^b on (0, r0), vanishing at the cutoff for b > 0."""
    aa, bb, rr, h = (real_parameter(x, name) for x, name in ((a, "a"), (b, "b"), (r0, "r0"),
                                                             (height, "height")))
    if not bb > 0:   # NaN fails it too
        raise QwsError("poly bump needs b > 0 so the profile vanishes at the cutoff")

    def g(r):
        if r <= 0.0 or r >= rr:
            return 0.0
        return h * r ** aa * (rr - r) ** bb

    # the peak's Gaussian width, r0 sqrt(ab / (a + b)^3), with exponents below 1
    # read as 1, in a form that does not overflow
    a1, b1 = max(aa, 1.0), max(bb, 1.0)
    width = rr * math.sqrt(a1 / (a1 + b1) * (b1 / (a1 + b1)) / (a1 + b1))
    return KernelTerm(name="poly_bump", profile=g,
                      params=(("a", aa), ("b", bb), ("r0", rr), ("height", h)),
                      width=width)


@dataclass(frozen=True)
class PotentialModel:
    """Local well plus rank-n separable kernel, both vanishing for r >= r0.

    ``strengths`` are the diagonal couplings s_i of U = sum_i s_i g_i(r) g_i(r');
    an explicit (symmetric) ``coupling`` matrix overrides them.  ``mu`` scales
    both the local and the non-local part; mu = 0 is the free particle.
    """

    r0: float
    local: Optional[LocalPotential] = None
    kernel: Tuple[KernelTerm, ...] = ()
    strengths: Tuple[float, ...] = ()
    coupling: Optional[Tuple[Tuple[float, ...], ...]] = None
    mu: float = 1.0
    allow_asymmetric_kernel: bool = False  # test-only hook for negative controls

    def __post_init__(self):
        real_parameter(self.r0, "cutoff radius r0")
        real_parameter(self.mu, "coupling scale mu")
        if not (math.isfinite(self.r0) and self.r0 > 0):
            raise QwsError("cutoff radius r0 must be positive and finite")
        if not math.isfinite(self.mu):
            raise QwsError("coupling scale mu must be finite")
        if self.kernel:
            if self.coupling is None and len(self.strengths) != len(self.kernel):
                raise QwsError("one strength per kernel term required")
            if self.coupling is not None:
                n = len(self.kernel)
                c = self.coupling
                if len(c) != n or any(len(row) != n for row in c):
                    raise QwsError("coupling matrix shape must match kernel rank")
                sym = all(abs(c[i][j] - c[j][i]) <= 1e-14 * (1 + abs(c[i][j]))
                          for i in range(n) for j in range(n))
                if not sym and not self.allow_asymmetric_kernel:
                    raise QwsError("kernel coupling matrix must be symmetric")
            if np.iscomplexobj(self.strengths) or np.iscomplexobj(self.coupling or ()):
                raise QwsError("kernel couplings must be real")

    @property
    def rank(self) -> int:
        return len(self.kernel)

    @property
    def kernel_acts(self) -> bool:
        """True when the kernel has some nonzero coupling (``mu`` is not read).

        The one test of whether a solve takes the kernel path: a kernel whose
        couplings all vanish is solved as the local problem it is.
        """
        return self.rank > 0 and bool(np.any(self.coupling_matrix() != 0.0))

    def local_value(self, r: float) -> float:
        if self.local is None or r >= self.r0:
            return 0.0
        return self.local.profile(r)

    @property
    def knots(self) -> Tuple[float, ...]:
        """Kinks of the local profile strictly inside (0, r0)."""
        if self.local is None:
            return ()
        return tuple(x for x in self.local.knots if x < self.r0)

    def kernel_value(self, r: float, rp: float) -> float:
        """U(r, r') = sum_ij c_ij g_i(r) g_j(r'), zero once either radius reaches r0."""
        if not self.kernel or r >= self.r0 or rp >= self.r0:
            return 0.0
        c = self.coupling_matrix()
        gr = np.array([t.profile(r) for t in self.kernel])
        gp = np.array([t.profile(rp) for t in self.kernel])
        return float(gr @ c @ gp)

    def coupling_matrix(self) -> np.ndarray:
        if self.coupling is not None:
            return np.array(self.coupling, dtype=float)
        return np.diag(np.asarray(self.strengths, dtype=float))

    def origin_coefficients(self) -> Tuple[float, ...]:
        """(v_-1, v_0, v_1, ...): the local part's ``origin`` expansion, (0, 0) without one."""
        return (0.0, 0.0) if self.local is None else self.local.origin

    def with_mu(self, mu: float) -> "PotentialModel":
        return replace(self, mu=real_parameter(mu, "coupling scale mu"))

    @property
    def one_signed(self) -> bool:
        """True when the local part keeps one sign inside the cutoff, or is absent."""
        return self.local is None or self.local.sign != 0

    def max_local(self) -> float:
        """Upper bound on |V| inside the cutoff (sampled for non-constant profiles)."""
        if self.local is None:
            return 0.0
        if self.local.constant is not None:
            return abs(self.local.constant)
        rs = np.linspace(1e-9 * self.r0, self.r0 * (1 - 1e-12), 512)
        return float(max(abs(self.local.profile(float(r))) for r in rs))
