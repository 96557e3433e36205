"""Reflection and transmission coefficients, three ways.

* ``limit_coeffs``: the zero-range limit, a function of the classification
  only.  Resonant coupling theta transmits R = (1-theta^2)/(1+theta^2),
  T = 2*theta/(1+theta^2); the non-resonant barrier is opaque (R=-1, T=0).
  Independent of the wavenumber k.
* ``finite_coeffs``: the exact coefficients at scale eps > 0, in closed form
  from the boundary data of the matching conditions at the edges x = +-eps.
* ``asymptotic_coeffs``: the leading small-kappa expansion of those,
  built from boundary data at kappa = 0 and the determinant slope q(alpha).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import InvalidInputError, NumericalFailureError, _finite
from .profiles import PotentialProfile
from .resonance import Classification, NonResonant, Resonant, classify
from .shooting import shoot

LIMIT = "limit"
FINITE = "finite-eps"
ASYMPTOTIC = "asymptotic"


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Reflection R and transmission T for a left-incident wave."""

    R: complex
    T: complex
    regime: str

    @property
    def transmission_probability(self) -> float:
        return abs(self.T) ** 2

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.R) ** 2 + abs(self.T) ** 2 - 1.0)


def limit_coeffs(c: Classification) -> ScatteringCoefficients:
    """Zero-range-limit coefficients; independent of k by construction."""
    if isinstance(c, Resonant):
        th = c.theta
        denom = 1.0 + th * th
        return ScatteringCoefficients(
            complex((1.0 - th * th) / denom), complex(2.0 * th / denom), LIMIT
        )
    if isinstance(c, NonResonant):
        return ScatteringCoefficients(complex(-1.0), complex(0.0), LIMIT)
    raise InvalidInputError(f"limit_coeffs: expected a Classification, got {type(c).__name__}")


def finite_coeffs(
    profile: PotentialProfile, alpha: float, k: float, eps: float
) -> ScatteringCoefficients:
    """Exact coefficients at scale eps: match value and slope at x = +-eps.

    The interior solution is a combination of the fundamental solutions at
    kappa = eps*k.  Eliminating its amplitudes from the matching conditions
    leaves, with D = u1' - i*kappa*(u1 + v1') - kappa^2*v1,

        R = -e^{-2i kappa} (u1' - i kappa u1 + i kappa v1' + kappa^2 v1) / D
        T = -2 i kappa e^{-2i kappa} / D

    Raises InvalidInputError unless alpha is finite and k and eps positive (the
    gate in ``errors``), and NumericalFailureError when D is zero or not finite.
    """
    alpha = _finite(alpha, "finite_coeffs: alpha")
    k = _finite(k, "finite_coeffs: k", positive=True)
    eps = _finite(eps, "finite_coeffs: eps", positive=True)
    kappa = eps * k
    fd = shoot(profile, alpha, kappa * kappa)
    ik = 1j * kappa
    den = fd.du1 - ik * (fd.u1 + fd.dv1) - kappa * kappa * fd.v1
    if den == 0 or not cmath.isfinite(den):
        raise NumericalFailureError(
            f"finite_coeffs: matching determinant D = {den} at alpha={alpha}, kappa={kappa}"
        )
    phase = cmath.exp(-2j * kappa)
    R = -phase * (fd.du1 - ik * fd.u1 + ik * fd.dv1 + kappa * kappa * fd.v1) / den
    T = -2j * kappa * phase / den
    return ScatteringCoefficients(R, T, FINITE)


def _q(fd) -> float:
    """q = 2 u'(1) - u(1) - v'(1) from boundary data at kappa = 0."""
    return 2.0 * fd.du1 - fd.u1 - fd.dv1


def q_factor(profile: PotentialProfile, alpha: float) -> float:
    """Slope of the matching-system determinant in i*kappa at kappa = 0:

    q(alpha) = 2 u'(1;0,alpha) - u(1;0,alpha) - v'(1;0,alpha).
    At a resonance this equals -(theta + 1/theta).  Raises InvalidInputError
    unless alpha is finite (the gate in ``errors``).
    """
    return _q(shoot(profile, _finite(alpha, "q_factor: alpha"), 0.0))


def asymptotic_coeffs(
    profile: PotentialProfile, alpha: float, kappa: float
) -> ScatteringCoefficients:
    """Leading small-kappa expansion of the finite-scale coefficients.

        R = [-u'(1) + i*kappa*(u(1) - v'(1))] / [u'(1) + i*kappa*q]
        T = -2*i*kappa / [u'(1) + i*kappa*q]

    with all boundary data taken at kappa = 0.  Documented validity
    |kappa| <= 0.1 (soft limit, not enforced).  At kappa = 0 exactly the
    expression is evaluated in its algebraic limit: the classification of
    alpha decides between the resonant limit coefficients and (R, T) = (-1, 0),
    since the numerically refined u'(1) is never an exact zero.  Raises
    InvalidInputError unless alpha and kappa are finite (the gate in ``errors``).
    """
    alpha = _finite(alpha, "asymptotic_coeffs: alpha")
    kappa = _finite(kappa, "asymptotic_coeffs: kappa")
    if kappa == 0.0:
        c = classify(profile, alpha)
        inner = limit_coeffs(c)
        return ScatteringCoefficients(inner.R, inner.T, ASYMPTOTIC)
    fd = shoot(profile, alpha, 0.0)
    den = fd.du1 + 1j * kappa * _q(fd)
    if den == 0:
        raise NumericalFailureError(
            f"asymptotic_coeffs: vanishing denominator u'(1) + i*kappa*q at "
            f"alpha={alpha}, kappa={kappa}"
        )
    R = (-fd.du1 + 1j * kappa * (fd.u1 - fd.dv1)) / den
    T = -2j * kappa / den
    return ScatteringCoefficients(complex(R), complex(T), ASYMPTOTIC)
