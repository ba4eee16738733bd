"""Dimensional-reduction layer.

A central-potential problem in q spatial dimensions reduces, after the
substitution psi = r^{-(q-1)/2} y, to a one-dimensional radial equation

    y'' + [E - (lambda^2 - 1/4)/r^2 - mu*V(r)] y = (non-local source),

whose centrifugal coefficient depends on (q, l) only through the single
parameter lambda = l + (q-2)/2.  Reduced units hbar^2/2m = 1 throughout,
so E = k^2 on the scattering side and E = -kappa^2 on the bound side.

One function, :func:`radial_coefficient`, makes the bracket Q(r): every
equation from :func:`effective_equation` takes its ``coefficient`` from
it, and so do the float64 lanes of a parameter scan and the free
continuation beyond the cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import QwsError
from .potentials import PotentialModel


def lambda_of(q, l):
    """Effective order lambda = l + (q - 2)/2; accepts real or complex scalars."""
    return l + (q - 2) / 2


def centrifugal_coefficient(lam):
    """Coefficient of -1/r^2 in the reduced equation: lambda^2 - 1/4 (even in lambda)."""
    return lam * lam - 0.25


@dataclass(frozen=True)
class ChannelParams:
    """A fixed-(q, l) sector, carrying the derived parameter lambda.

    q and l may be complex in analytic-continuation contexts; the spectral
    (bound-state / zero-momentum) pipeline requires real q > 2, l >= 0, so
    that lambda > 0 and the threshold degeneracy lambda = 0 cannot occur.
    """

    q: complex
    l: complex
    lam: complex = field(init=False)

    def __post_init__(self):
        lam = lambda_of(self.q, self.l)
        if not isinstance(lam, complex) or lam.imag == 0:
            lam = complex(lam).real
        object.__setattr__(self, "lam", lam)

    @classmethod
    def from_lambda(cls, lam, q=3.0):
        """Channel with the given lambda, realized at spatial dimension q."""
        return cls(q=q, l=lam - (q - 2) / 2)

    @property
    def spectral_ok(self) -> bool:
        """True when the bound-state pipeline preconditions hold (real q>2, real l>=0)."""
        q, l = self.q, self.l
        if isinstance(q, complex) or isinstance(l, complex):
            return False
        return q > 2 and l >= 0


@dataclass(frozen=True)
class EnergyValue:
    """Energy in reduced units: E = k^2 for E > 0, kappa = sqrt(-E) for E <= 0."""

    E: complex

    @classmethod
    def from_k(cls, k):
        return cls(E=k * k)

    @property
    def k(self):
        E = self.E
        if isinstance(E, complex):
            return E ** 0.5
        if E < 0:
            raise QwsError("k undefined for E < 0; use kappa")
        return float(np.sqrt(E))

    @property
    def kappa(self) -> float:
        E = self.E
        if isinstance(E, complex) or E > 0:
            raise QwsError("kappa undefined for E > 0; use k")
        return float(np.sqrt(-E))


def reduce_wavefunction(r, psi, q):
    """Map psi -> y = r^{(q-1)/2} psi on a strictly positive grid."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise QwsError("reduction requires a strictly positive radial grid")
    return np.asarray(psi) * r ** ((q - 1) / 2)


def unreduce_wavefunction(r, y, q):
    """Inverse of :func:`reduce_wavefunction`: psi = r^{-(q-1)/2} y."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise QwsError("reduction requires a strictly positive radial grid")
    return np.asarray(y) * r ** (-(q - 1) / 2)


@dataclass(frozen=True, eq=False)
class EffectiveEquation:
    """Packaged coefficients of y'' + Q(r) y = sum_i beta_i S_i(r).

    ``coefficient`` evaluates Q(r) (see :func:`radial_coefficient`); the
    kernel sources S_i(r) = g_i(r) r^{(q-1)/2} already carry the dimensional
    weight, and ``coupling`` is the symmetric coefficient matrix of the
    separable kernel (the solver applies the overall factor mu).
    """

    channel: ChannelParams
    potential: PotentialModel
    energy: EnergyValue
    lam: complex
    mu: float
    r0: float
    coefficient: Callable[[float], complex]
    sources: tuple
    coupling: Optional[np.ndarray]
    origin_w: tuple  # (w_-1, w_0, w_1): small-r expansion of mu*V

    @property
    def rank(self) -> int:
        return len(self.sources)

    @property
    def kernel_acts(self) -> bool:
        """True when the separable kernel enters the equation: mu != 0 and some coupling != 0."""
        return self.mu != 0 and self.potential.kernel_acts


def radial_coefficient(lam, E, mu=0.0,
                       potential: Optional[PotentialModel] = None) -> Callable:
    """Q(r) = E - (lam^2 - 1/4)/r^2 - mu*V(r), the coefficient of y in the radial equation.

    V is the local part of ``potential``, zero beyond r0 (``potential.mu``
    is not read); at r0 itself Q takes its interior limit, so that a solve
    that ends or starts on the cutoff sees the interior equation in every
    stage.  E and mu are scalars for one equation, or numpy arrays that
    broadcast against each other for float64 lanes, and Q(r) then holds one
    value per lane.  Without a local part, or at a scalar mu = 0, Q is the
    free coefficient; a square well adds its constant up to r0 instead of
    calling the profile.
    """
    cf = centrifugal_coefficient(lam)
    local = None if potential is None else potential.local
    if local is None or (np.ndim(mu) == 0 and mu == 0):
        def coefficient(r, _E=E, _cf=cf):
            return _E - _cf / (r * r)
    elif local.constant is not None:
        def coefficient(r, _Ein=E - mu * local.constant, _E=E, _cf=cf, _r0=potential.r0):
            return (_Ein if r <= _r0 else _E) - _cf / (r * r)
    else:
        def coefficient(r, _E=E, _cf=cf, _mu=mu, _v=local.profile, _r0=potential.r0):
            return _E - _cf / (r * r) - _mu * (_v(r) if r <= _r0 else 0.0)
    return coefficient


def kernel_sources(channel: ChannelParams, potential: PotentialModel) -> tuple:
    """The sources S_i(r) = g_i(r) r^{(q-1)/2} of the kernel terms, in order.

    Zero only beyond r0: at r0 a source takes its interior limit, as Q does.
    """
    w = (channel.q - 1) / 2  # weight exponent carried by the kernel sources
    sources = []
    for term in potential.kernel:
        def src(r, _g=term.profile, _w=w, _r0=potential.r0):
            if r > _r0:
                return 0.0
            return _g(r) * r ** _w

        sources.append(src)
    return tuple(sources)


def effective_equation(channel: ChannelParams, potential: PotentialModel,
                       energy: EnergyValue) -> EffectiveEquation:
    """Assemble the reduced radial equation for one (channel, potential, energy).

    Raises for lambda = 0 with a kernel that acts (threshold-degenerate
    regime is excluded from the non-local pipeline) and for complex q with
    one (the weight r^{(q-1)/2} would be multivalued).
    """
    lam = channel.lam
    mu = potential.mu
    coupling = potential.coupling_matrix() if potential.rank else None
    vm1, v0, v1 = potential.origin_coefficients()
    origin_w = (mu * vm1, mu * v0, mu * v1)

    eq = EffectiveEquation(
        channel=channel, potential=potential, energy=energy,
        lam=lam, mu=mu, r0=potential.r0,
        coefficient=radial_coefficient(lam, energy.E, mu, potential),
        sources=kernel_sources(channel, potential),
        coupling=coupling, origin_w=origin_w,
    )
    if eq.kernel_acts:
        if lam == 0:
            raise QwsError("lambda = 0 with a kernel: half-bound regime unsupported")
        if isinstance(channel.q, complex) and channel.q.imag != 0:
            raise QwsError("complex q with a kernel: weight r^{(q-1)/2} is multivalued")
    return eq
