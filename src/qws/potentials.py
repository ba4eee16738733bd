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


@dataclass(frozen=True)
class LocalPotential:
    """A local radial profile V(r), untruncated; the model applies the r0 cutoff.

    ``origin`` holds the leading small-r expansion V ~ v_m1/r + v0 + v1*r,
    used for the series start of the integrator.  ``constant`` is set when
    the profile is exactly constant inside the cutoff (square well), which
    lets downstream code skip the per-point evaluation.  ``sign`` is +1 when
    V >= 0 inside the cutoff, -1 when V <= 0, and 0 when the profile
    changes sign or its sign is unknown (the default for hand-built
    profiles); phase shifts of a one-signed well are monotone in mu.
    ``knots`` are the radii where V' jumps (the rows of a table); the
    integrator lands a step on each one inside the cutoff.
    """

    name: str
    profile: Callable[[float], float]
    origin: Tuple[float, float, float]
    params: Tuple[Tuple[str, float], ...] = ()
    constant: Optional[float] = None
    sign: int = 0
    knots: Tuple[float, ...] = ()


def square_well(depth: float) -> LocalPotential:
    """V(r) = -depth for r < r0 (attractive for depth > 0)."""
    val = -float(depth)
    return LocalPotential(
        name="square_well",
        profile=lambda r: val,
        origin=(0.0, val, 0.0),
        params=(("depth", float(depth)),),
        constant=val,
        sign=-1 if depth >= 0 else 1,
    )


def truncated_exponential(depth: float, scale: float) -> LocalPotential:
    """V(r) = -depth * exp(-r/scale) for r < r0."""
    if scale <= 0:
        raise QwsError("exponential scale must be positive")
    d, s = float(depth), float(scale)
    return LocalPotential(
        name="truncated_exponential",
        profile=lambda r: -d * math.exp(-r / s),
        origin=(0.0, -d, d / s),
        params=(("depth", d), ("scale", s)),
        sign=-1 if d >= 0 else 1,
    )


def truncated_gaussian(depth: float, width: float) -> LocalPotential:
    """V(r) = -depth * exp(-(r/width)^2) for r < r0."""
    if width <= 0:
        raise QwsError("gaussian width must be positive")
    d, w = float(depth), float(width)

    def profile(r: float) -> float:
        x = r / w
        return -d * math.exp(-(x ** 2)) if x < 1e154 else 0.0   # x ** 2 would overflow

    return LocalPotential(
        name="truncated_gaussian",
        profile=profile,
        origin=(0.0, -d, 0.0),
        params=(("depth", d), ("width", w)),
        sign=-1 if d >= 0 else 1,
    )


def tabulated(r_values: Sequence[float], v_values: Sequence[float]) -> LocalPotential:
    """Linear interpolation of (r, V) samples; constant below the first and beyond the last."""
    r = np.asarray(r_values, dtype=float)
    v = np.asarray(v_values, dtype=float)
    if r.ndim != 1 or r.shape != v.shape or len(r) < 2:
        raise QwsError("tabulated potential needs two equal-length columns, >= 2 rows")
    if np.any(np.diff(r) <= 0):
        raise QwsError("tabulated radii must be strictly increasing")
    if r[0] <= 0:
        raise QwsError("tabulated radii must be positive")
    return LocalPotential(
        name="tabulated",
        profile=lambda x: float(np.interp(x, r, v)),
        origin=(0.0, float(v[0]), 0.0),   # np.interp holds V = v[0] below the first row
        params=(("n_rows", float(len(r))),),
        sign=1 if np.all(v >= 0) else -1 if np.all(v <= 0) else 0,
        knots=tuple(r.tolist()),
    )


@dataclass(frozen=True)
class KernelTerm:
    """One separable factor g_i(r) of the non-local kernel (untruncated profile)."""

    name: str
    profile: Callable[[float], float]
    params: Tuple[Tuple[str, float], ...] = ()


def gaussian_bump(center: float, width: float, height: float = 1.0) -> KernelTerm:
    """g(r) = height * exp(-((r-center)/width)^2)."""
    if width <= 0:
        raise QwsError("bump width must be positive")
    c, w, h = float(center), float(width), float(height)

    def g(r):
        x = (r - c) / w
        return h * math.exp(-x * x)   # x * x overflows to inf where x ** 2 would raise

    return KernelTerm(name="gaussian_bump", profile=g,
                      params=(("center", c), ("width", w), ("height", h)))


def poly_bump(a: float, b: float, r0: float, height: float = 1.0) -> KernelTerm:
    """g(r) = height * r^a (r0-r)^b on (0, r0), vanishing at the cutoff for b > 0."""
    if b <= 0:
        raise QwsError("poly bump needs b > 0 so the profile vanishes at the cutoff")
    aa, bb, rr, h = float(a), float(b), float(r0), float(height)

    def g(r):
        if r <= 0.0 or r >= rr:
            return 0.0
        return h * r ** aa * (rr - r) ** bb

    return KernelTerm(name="poly_bump", profile=g,
                      params=(("a", aa), ("b", bb), ("r0", rr), ("height", h)))


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

    @property
    def rank(self) -> int:
        return len(self.kernel)

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

    def origin_coefficients(self) -> Tuple[float, float, float]:
        return (0.0, 0.0, 0.0) if self.local is None else self.local.origin

    def with_mu(self, mu: float) -> "PotentialModel":
        return replace(self, mu=float(mu))

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
