"""Resonant couplings, the coupling function and the resonant/non-resonant dichotomy.

A coupling constant alpha is resonant for a profile psi when the Neumann
problem -w'' + alpha*psi*w = 0 on (-1, 1), w'(-1) = w'(1) = 0, has a
nontrivial solution; equivalently when g(alpha) = u'(1; 0, alpha) vanishes.
At a resonant alpha the scaled operators converge to a connected point
interaction with coupling theta = w(1)/w(-1); otherwise the limit decouples
into a Dirichlet pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._rootfind import refine_bracket
from .errors import (
    InvalidInputError,
    NearTangencyWarning,
    NotResonantError,
    NumericalFailureError,
)
from .profiles import PotentialProfile
from .shooting import shoot, shoot_batch

#: refined-root residual must satisfy |g(alpha)| <= RESIDUAL_SCALE * max(1, |u1|)
RESIDUAL_SCALE = 1e-8

#: |g| dips below this fraction of the neighbouring scan values without a sign
#: change -> near-tangency warning instead of a root
TANGENCY_FRACTION = 1e-6

DEFAULT_SCAN_STEP = 0.5
DEFAULT_ALPHA_MIN = -200.0
DEFAULT_ALPHA_MAX = 200.0


@dataclass(frozen=True)
class ResonantValue:
    """A refined resonant coupling with its coupling value and root residual."""

    alpha: float
    theta: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class Resonant:
    theta: float


@dataclass(frozen=True)
class NonResonant:
    pass


Classification = Resonant | NonResonant


def _scan_values(profile, alphas):
    """g on the scan grid, from one ``shoot_batch`` call.

    Every value is a tight-tolerance shoot, bit for bit what ``shoot`` gives
    at that alpha, so refinement can start from the scanned bracket ends.
    """
    return [float(g) for g in shoot_batch(profile, alphas)[1]]


def _brackets_from_scan(alphas, gvals):
    """Sign-change cells plus near-tangency indices from scanned g values.

    A root needs a genuine crossing: either opposite nonzero signs across a
    cell, or an exact grid zero whose neighbours have opposite signs (then a
    collapsed bracket is returned).  Tangential touches and identically-zero
    stretches (the zero profile makes g vanish everywhere) yield nothing.
    Pure function of the scan data, independent of how g was produced.
    """
    brackets = []
    tangencies = []
    n = len(alphas)
    for i in range(n - 1):
        ga, gb = gvals[i], gvals[i + 1]
        if ga == 0.0 or gb == 0.0:
            continue
        if math.copysign(1.0, ga) != math.copysign(1.0, gb):
            brackets.append((i, i + 1))
    for i in range(1, n - 1):
        ga, gi, gb = gvals[i - 1], gvals[i], gvals[i + 1]
        if ga == 0.0 or gb == 0.0:
            continue
        if gi == 0.0:
            if math.copysign(1.0, ga) != math.copysign(1.0, gb):
                brackets.append((i, i))
            continue
        same = (
            math.copysign(1.0, ga) == math.copysign(1.0, gi) == math.copysign(1.0, gb)
        )
        if same and abs(gi) < abs(ga) and abs(gi) < abs(gb):
            if abs(gi) < TANGENCY_FRACTION * max(1.0, abs(ga), abs(gb)):
                tangencies.append(i)
    brackets.sort(key=lambda ij: ij[0])
    return brackets, tangencies


def _refine_and_package(profile, a, b, fa, fb) -> ResonantValue:
    """Refine the scanned sign-change bracket [a, b] with g(a) = fa, g(b) = fb.

    a == b is an exact grid zero.  theta and the residual are read from the
    refinement's own shoot at the root.  At a root u1*dv1 = 1, and the
    transfer matrix is accurate relative to its largest entry, so theta is
    u1 when |u1| >= 1 and 1/dv1 otherwise.  Raises NumericalFailureError
    when the refined root fails the residual check.
    """
    shots = {}
    g = lambda x: shots.setdefault(x, shoot(profile, x, 0.0)).du1
    if a == b:
        root, bracket = a, (a, a)
    else:
        mid = 0.5 * (a + b)
        xtol = max(1e-13, 8.0 * abs(mid) * np.finfo(float).eps)
        root, _, bracket, _ = refine_bracket(g, a, b, fa, fb, xtol=xtol, max_iter=200)
    root, bracket = float(root), (float(bracket[0]), float(bracket[1]))
    fd = shots.get(root) or shoot(profile, root, 0.0)
    residual = abs(fd.du1)
    if not np.isfinite(fd.u1) or fd.u1 == 0.0:
        raise NumericalFailureError(
            f"resonance refinement at alpha={root}: degenerate endpoint value u1={fd.u1}"
        )
    if residual > RESIDUAL_SCALE * max(1.0, abs(fd.u1)):
        raise NumericalFailureError(
            f"resonance refinement at alpha={root} stalled: residual {residual:.3e} "
            f"exceeds {RESIDUAL_SCALE:.0e}*max(1, |u1|)"
        )
    theta = fd.u1 if abs(fd.u1) >= 1.0 else 1.0 / fd.dv1
    return ResonantValue(root, theta, residual, bracket)


def find_resonances(
    profile: PotentialProfile,
    alpha_min: float = DEFAULT_ALPHA_MIN,
    alpha_max: float = DEFAULT_ALPHA_MAX,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ResonantValue]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    g is scanned on a uniform grid by one ``shoot_batch`` call at the tight
    default tolerance, sign changes are bracketed, and each bracket is
    refined by Brent's method (inverse quadratic interpolation, secant or
    bisection steps), starting from the scanned values at its ends.  alpha = 0
    (resonant for every profile, with a constant eigenfunction and theta = 1)
    is inserted analytically and excluded from numeric scanning within
    |alpha| < scan_step/2: g has a tangential zero there for delta-prime-like
    profiles, which defeats sign-change detection.
    """
    if not (np.isfinite(alpha_min) and np.isfinite(alpha_max)):
        raise InvalidInputError("find_resonances: alpha_min and alpha_max must be finite")
    if not alpha_min < alpha_max:
        raise InvalidInputError(
            f"find_resonances: requires alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]"
        )
    if not (np.isfinite(scan_step) and scan_step > 0):
        raise InvalidInputError(f"find_resonances: scan_step must be positive, got {scan_step}")

    n_cells = max(1, int(round((alpha_max - alpha_min) / scan_step)))
    grid = list(np.linspace(alpha_min, alpha_max, n_cells + 1))
    kept = [a for a in grid if abs(a) >= scan_step / 2.0]
    gvals = _scan_values(profile, kept)

    brackets, tangencies = _brackets_from_scan(kept, gvals)
    for i in tangencies:
        warnings.warn(
            f"|g| dips to {gvals[i]:.3e} near alpha={kept[i]} without a sign change; "
            "possible close root pair, decrease scan_step",
            NearTangencyWarning,
            stacklevel=2,
        )

    found: list[ResonantValue] = []
    if alpha_min <= 0.0 <= alpha_max:
        half = scan_step / 2.0
        found.append(ResonantValue(0.0, 1.0, 0.0, (-half, half)))
    for i, j in brackets:
        found.append(_refine_and_package(profile, kept[i], kept[j], gvals[i], gvals[j]))

    found.sort(key=lambda rv: rv.alpha)
    deduped: list[ResonantValue] = []
    for rv in found:
        if deduped and abs(rv.alpha - deduped[-1].alpha) < scan_step / 10.0:
            if rv.residual < deduped[-1].residual:
                deduped[-1] = rv
            continue
        deduped.append(rv)
    return deduped


def _nearest_local_root(profile, alpha, window, scan_step):
    """Refined root of g nearest to alpha within [alpha-window, alpha+window]."""
    lo, hi = alpha - window, alpha + window
    n_cells = max(2, int(math.ceil((hi - lo) / scan_step)))
    grid = list(np.linspace(lo, hi, n_cells + 1))
    gvals = _scan_values(profile, grid)
    brackets, _ = _brackets_from_scan(grid, gvals)
    best = None
    for i, j in brackets:
        rv = _refine_and_package(profile, grid[i], grid[j], gvals[i], gvals[j])
        if best is None or abs(rv.alpha - alpha) < abs(best.alpha - alpha):
            best = rv
    return best


def coupling(profile: PotentialProfile, alpha: float, alpha_tol: float = 1e-3) -> float:
    """Coupling value theta = u(1; 0, alpha) at a resonant alpha.

    With the normalisation u(-1) = 1, u(1) is the endpoint ratio
    w(1)/w(-1) of the Neumann eigenfunction.  alpha passes the resonance
    test when its residual is already below the refined-root threshold or
    when a refined root lies within alpha_tol (so couplings published to a
    few decimals are accepted); the returned theta is evaluated at the given
    alpha, not at the refined root.

    Raises NotResonantError otherwise.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("coupling: alpha must be finite")
    if not alpha_tol > 0:
        raise InvalidInputError(f"coupling: alpha_tol must be positive, got {alpha_tol}")
    if alpha == 0.0:
        return 1.0
    fd = shoot(profile, alpha, 0.0)
    if abs(fd.du1) <= RESIDUAL_SCALE * max(1.0, abs(fd.u1)):
        return fd.u1
    nearest = _nearest_local_root(profile, alpha, window=alpha_tol, scan_step=alpha_tol / 4.0)
    if nearest is None or abs(nearest.alpha - alpha) > alpha_tol:
        raise NotResonantError(
            f"coupling: alpha={alpha} is not resonant (residual {abs(fd.du1):.3e}, "
            f"no refined root within {alpha_tol})"
        )
    return fd.u1


def classify(profile: PotentialProfile, alpha: float, tol: float = 1e-8) -> Classification:
    """Resonant(theta) when a refined root of g lies within tol of alpha.

    theta is taken at the refined root (it parameterises the connected limit
    operator); NonResonant means the limit is the Dirichlet decoupled pair.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("classify: alpha must be finite")
    if not tol > 0:
        raise InvalidInputError(f"classify: tol must be positive, got {tol}")
    if abs(alpha) <= tol:
        return Resonant(1.0)
    window = max(2.0 * tol, 0.75)
    nearest = _nearest_local_root(profile, alpha, window=window, scan_step=window / 3.0)
    if nearest is not None and abs(nearest.alpha - alpha) <= tol:
        return Resonant(nearest.theta)
    return NonResonant()
