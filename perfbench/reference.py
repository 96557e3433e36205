"""Reference values that never call the package under test.

Two sources:

* the table6 golden rows (seba-quadratic on [0, 200]), as the CLI prints
  them to 6 significant digits;
* closed-form transfer matrices for piecewise-constant profiles.  On a
  constant piece w'' = p*w has the propagator [[cosh, sinh/m], [m*sinh, cosh]]
  (or its trigonometric twin), so the boundary data at xi = 1, the mismatch
  g(alpha) = u'(1), every root of g in a window and the exact scattering
  coefficients follow from a product of 2x2 matrices.

Profiles are described here by plain segment lists ``[(a, b, coeffs), ...]``
with ``coeffs`` constant-first, the same layout the package's
``from_segments`` accepts.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy.optimize import brentq

#: (alpha, theta, |T|^2) rows of ``deltaprime table6``, 6 significant digits.
TABLE6_GOLDEN = (
    ("0", "1", "1"),
    ("18.1746", "-54.9376", "0.00132444"),
    ("57.149", "1352.81", "2.18568e-06"),
    ("117.486", "-32156.6", "3.8683e-09"),
    ("199.176", "755823", "7.00196e-12"),
)

STEP_SEGMENTS = ((-1.0, 0.0, (1.0,)), (0.0, 1.0, (-1.0,)))
SEBA_SEGMENTS = ((-1.0, 0.0, (0.0, -6.0, -6.0)), (0.0, 1.0, (0.0, -6.0, 6.0)))


def g6(x: float) -> str:
    """Format as the CLI table does (6 significant digits)."""
    return f"{float(x):.6g}"


def seba_roots(mirror: bool = False):
    """Resonant set of seba-quadratic (or its mirror) on [-200, 200] from the golden rows.

    seba-quadratic is odd, so its root at -alpha carries 1/theta; the mirror
    profile has the same roots with theta -> 1/theta.  Returns
    [(alpha, theta), ...] sorted by alpha, with golden precision.
    """
    pos = [(float(a), float(t)) for a, t, _ in TABLE6_GOLDEN[1:]]
    roots = [(-a, 1.0 / t) for a, t in reversed(pos)] + [(0.0, 1.0)] + pos
    if mirror:
        roots = [(a, 1.0 / t) for a, t in roots]
    return roots


def mirror_segments(segments):
    """Segments of xi -> psi(-xi)."""
    return tuple(
        (-b, -a, tuple(c * (-1.0) ** j for j, c in enumerate(coeffs)))
        for a, b, coeffs in reversed(segments)
    )


def segment_moments(segments):
    """Exact (m0, m1) of a piecewise-polynomial segment list."""
    m0 = m1 = 0.0
    for a, b, coeffs in segments:
        for j, c in enumerate(coeffs):
            m0 += c * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
            m1 += c * (b ** (j + 2) - a ** (j + 2)) / (j + 2)
    return m0, m1


def _pieces(segments):
    """(length, value) of each constant piece across [-1, 1], zero outside support."""
    out = []
    lo, hi = segments[0][0], segments[-1][1]
    if lo > -1.0:
        out.append((lo + 1.0, 0.0))
    out.extend((b - a, coeffs[0]) for a, b, coeffs in segments)
    if hi < 1.0:
        out.append((1.0 - hi, 0.0))
    return out


def _propagator(p, length):
    """Transfer matrix of w'' = p*w, vectorized over p (real ndarray)."""
    p = np.asarray(p, dtype=float)
    m = np.sqrt(np.abs(p))
    ml = m * length
    pos = p > 0
    c = np.where(pos, np.cosh(ml), np.cos(ml))
    # sinh(ml)/m and m*sinh(ml) with the m -> 0 limits
    with np.errstate(invalid="ignore", divide="ignore"):
        s_over_m = np.where(pos, np.sinh(ml), np.sin(ml)) / m
        m_s = np.where(pos, 1.0, -1.0) * m * np.where(pos, np.sinh(ml), np.sin(ml))
    s_over_m = np.where(m == 0.0, length, s_over_m)
    m_s = np.where(m == 0.0, 0.0, m_s)
    return c, s_over_m, m_s, c


def boundary_data(segments, alpha, kappa2=0.0):
    """Exact (u1, du1, v1, dv1) at xi = 1; vectorized over alpha."""
    alpha = np.asarray(alpha, dtype=float)
    m11 = np.ones_like(alpha)
    m12 = np.zeros_like(alpha)
    m21 = np.zeros_like(alpha)
    m22 = np.ones_like(alpha)
    for length, value in _pieces(segments):
        a11, a12, a21, a22 = _propagator(alpha * value - kappa2, length)
        m11, m12, m21, m22 = (
            a11 * m11 + a12 * m21,
            a11 * m12 + a12 * m22,
            a21 * m11 + a22 * m21,
            a21 * m12 + a22 * m22,
        )
    # columns are u = M @ (1, 0) and v = M @ (0, 1)
    return m11, m21, m12, m22


def mismatch(segments, alpha):
    """g(alpha) = u'(1; 0, alpha)."""
    return boundary_data(segments, alpha)[1]


def theta(segments, alpha) -> float:
    """Coupling value u(1; 0, alpha)."""
    return float(boundary_data(segments, alpha)[0])


#: grid of the reference scan; finer than any root pair the workloads can produce
SCAN_H = 0.005


def roots_in(segments, lo: float, hi: float, h: float = SCAN_H):
    """Every resonant coupling in [lo, hi] as [(alpha, theta), ...], sorted.

    alpha = 0 is resonant for every profile (constant eigenfunction,
    theta = 1) and is a tangential zero of g for delta-prime-like profiles,
    so it is inserted analytically; other roots come from sign changes of the
    exact g on a fine grid, refined by Brent's method.
    """
    n = max(2, int(math.ceil((hi - lo) / h)))
    grid = np.linspace(lo, hi, n + 1)
    gv = mismatch(segments, grid)
    out = []
    if lo <= 0.0 <= hi:
        out.append((0.0, 1.0))
    g = lambda a: float(mismatch(segments, a))
    for i in range(n):
        ga, gb = gv[i], gv[i + 1]
        if abs(grid[i]) < 1e-6 or abs(grid[i + 1]) < 1e-6:
            continue
        if ga == 0.0:
            root = float(grid[i])
        elif ga * gb < 0.0:
            root = brentq(g, grid[i], grid[i + 1], xtol=1e-15, rtol=1e-15, maxiter=200)
        else:
            continue
        out.append((root, theta(segments, root)))
    if gv[-1] == 0.0 and abs(grid[-1]) >= 1e-6:
        out.append((float(grid[-1]), theta(segments, grid[-1])))
    return sorted(out)


def cell_average_segments(segments, cells: int = 200):
    """Piecewise-constant approximation: the exact mean of each of ``cells`` equal cells."""
    edges = np.linspace(-1.0, 1.0, cells + 1)
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        total = 0.0
        for sa, sb, coeffs in segments:
            lo, hi = max(a, sa), min(b, sb)
            if hi > lo:
                total += sum(c * (hi ** (j + 1) - lo ** (j + 1)) / (j + 1)
                             for j, c in enumerate(coeffs))
        out.append((float(a), float(b), (total / (b - a),)))
    return tuple(out)


def approx_roots(segments, lo: float, hi: float):
    """Roots of g for the cell-average approximation of a polynomial profile.

    Used only to place windows (the approximation moves roots by far less
    than the window clearance), never to judge an output.
    """
    return roots_in(cell_average_segments(segments), lo, hi, h=0.1)


def finite_coeffs(segments, alpha: float, k: float, eps: float):
    """Exact (R, T) at scale eps from the closed-form boundary data.

    With D = u1' - i*kappa*(u1 + v1') - kappa^2*v1:
    R = -e^{-2i kappa} (u1' - i kappa u1 + i kappa v1' + kappa^2 v1) / D and
    T = -2 i kappa e^{-2i kappa} / D.
    """
    kappa = eps * k
    u1, du1, v1, dv1 = (float(x) for x in boundary_data(segments, alpha, kappa * kappa))
    ik = 1j * kappa
    den = du1 - ik * (u1 + dv1) - kappa * kappa * v1
    ph = cmath.exp(-2j * kappa)
    R = -ph * (du1 - ik * u1 + ik * dv1 + kappa * kappa * v1) / den
    T = -2j * kappa * ph / den
    return complex(R), complex(T)


def asymptotic_coeffs(segments, alpha: float, kappa: float):
    """Leading small-kappa expansion from the exact kappa = 0 boundary data."""
    u1, du1, v1, dv1 = (float(x) for x in boundary_data(segments, alpha))
    q = 2.0 * du1 - u1 - dv1
    den = du1 + 1j * kappa * q
    return complex((-du1 + 1j * kappa * (u1 - dv1)) / den), complex(-2j * kappa / den)


def q_factor(segments, alpha: float) -> float:
    u1, du1, v1, dv1 = (float(x) for x in boundary_data(segments, alpha))
    return 2.0 * du1 - u1 - dv1


def limit_coeffs(theta_value):
    """Zero-range limit: resonant theta, or None for the Dirichlet pair."""
    if theta_value is None:
        return complex(-1.0), complex(0.0)
    d = 1.0 + theta_value * theta_value
    return complex((1.0 - theta_value**2) / d), complex(2.0 * theta_value / d)


def relerr(x, ref) -> float:
    """|x - ref| / |ref|, or |x| when ref is 0."""
    scale = abs(ref)
    return abs(x - ref) / scale if scale > 0.0 else abs(x)
