"""Independent oracles used by the tests.

Everything here is derived from closed forms or textbook formulas, never
from the package under test, so these values can legitimately check it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import airy


def constant_piece_propagator(p: float, length: float) -> np.ndarray:
    """Transfer matrix of w'' = p*w over an interval of the given length,

    mapping (w, w') at the left end to (w, w') at the right end.
    """
    if p > 0:
        m = math.sqrt(p)
        c, s = math.cosh(m * length), math.sinh(m * length)
        return np.array([[c, s / m], [m * s, c]])
    if p < 0:
        m = math.sqrt(-p)
        c, s = math.cos(m * length), math.sin(m * length)
        return np.array([[c, s / m], [-m * s, c]])
    return np.array([[1.0, length], [0.0, 1.0]])


def step_boundary_data(alpha: float, kappa2: float = 0.0):
    """Exact (u1, du1, v1, dv1) for the step profile (+1 on (-1,0), -1 on (0,1)).

    The potential is piecewise constant, so the fundamental matrix is a
    product of two closed-form transfer matrices.
    """
    left = constant_piece_propagator(alpha - kappa2, 1.0)
    right = constant_piece_propagator(-alpha - kappa2, 1.0)
    full = right @ left
    u1, du1 = full @ np.array([1.0, 0.0])
    v1, dv1 = full @ np.array([0.0, 1.0])
    return float(u1), float(du1), float(v1), float(dv1)


def linear_boundary_data(alpha: float, slope: float, kappa2: float = 0.0):
    """Exact (u1, du1, v1, dv1) for the profile psi(xi) = slope*xi on [-1, 1].

    w'' = (b*xi + a)*w with b = alpha*slope != 0, a = -kappa2 is Airy's
    equation in z = b^(1/3) (xi + a/b), so the fundamental matrix is built
    from Ai and Bi, whose Wronskian in z is 1/pi.
    """
    a, b = -kappa2, alpha * slope
    c = math.copysign(abs(b) ** (1.0 / 3.0), b)

    def phi(xi):
        ai, aip, bi, bip = airy(c * (xi + a / b))
        return np.array([[ai, bi], [c * aip, c * bip]])

    left = phi(-1.0)
    inverse = np.array([[left[1, 1], -left[0, 1]], [-left[1, 0], left[0, 0]]]) * math.pi / c
    full = phi(1.0) @ inverse
    return float(full[0, 0]), float(full[1, 0]), float(full[0, 1]), float(full[1, 1])


def tan_tanh_root() -> float:
    """First positive root of tan(m) = tanh(m), by plain bisection to 1e-12.

    The root sits in (pi, 5*pi/4) where tan is continuous.
    """
    f = lambda m: math.tan(m) - math.tanh(m)
    lo, hi = math.pi + 0.05, 1.25 * math.pi
    flo = f(lo)
    assert flo < 0 < f(hi)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0) == (flo < 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def step_resonance_alpha() -> float:
    """First positive resonant coupling of the step profile: m^2 with tan m = tanh m."""
    m = tan_tanh_root()
    return m * m


def step_resonance_theta() -> float:
    """Coupling value at the first positive step resonance: cosh(m)cos(m) + sinh(m)sin(m)."""
    m = tan_tanh_root()
    return math.cosh(m) * math.cos(m) + math.sinh(m) * math.sin(m)


def dirichlet_laplacian_lowest_eigenvalue(L: float) -> float:
    """Smallest eigenvalue of -d^2/dx^2 on (-L, L) with Dirichlet ends."""
    return (math.pi / (2.0 * L)) ** 2
