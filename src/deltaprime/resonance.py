"""Resonant couplings, the coupling function and the resonant/non-resonant dichotomy.

A coupling constant alpha is resonant for a profile psi when the Neumann
problem -w'' + alpha*psi*w = 0 on (-1, 1), w'(-1) = w'(1) = 0, has a
nontrivial solution; equivalently when g(alpha) = u'(1; 0, alpha) vanishes.
At a resonant alpha the scaled operators converge to a connected point
interaction with coupling theta = w(1)/w(-1); otherwise the limit decouples
into a Dirichlet pair.

One search, ``_roots``, decides every answer: ``classify(profile, alpha,
tol)`` is Resonant exactly when ``find_resonances(profile, alpha - tol,
alpha + tol)`` is non-empty, with the theta of the root nearest alpha, and
``coupling`` returns u1 at alpha exactly when ``classify`` is Resonant.  The
zero profile, whose g vanishes identically, reports only alpha = 0.
"""

from __future__ import annotations

import itertools
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

#: refined-root residual must satisfy
#: |g(alpha)| <= RESIDUAL_SCALE * max(1, |u1|, |dv1|) + |g'(alpha)| * ulp(alpha)
RESIDUAL_SCALE = 1e-8

DEFAULT_SCAN_STEP = 0.5
DEFAULT_ALPHA_MIN = -200.0
DEFAULT_ALPHA_MAX = 200.0
MAX_SCAN_CELLS = 2**22  # a scan holds ~230 bytes per cell: about 1 GB at this limit


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
    """Sign-change brackets and dips, as grid indices in grid order, from scanned g.

    A bracket is a cell (i, i + 1) where g changes sign, or (i - 1, i + 1)
    around an exact grid zero whose neighbours have opposite signs.  g is
    real, entire of order 1/2 and has only real zeros (the Laguerre-Polya
    class; Levin, *Distribution of Zeros of Entire Functions*, AMS 1964), so
    by Hadamard (log|g|)'' = -m/alpha^2 - sum_k 1/(alpha - alpha_k)^2 < 0
    where g != 0, m being the order of the zero at alpha = 0 and alpha_k the
    other zeros: |g| has no positive local minimum, and every zero but
    alpha = 0 is simple.  A dip, a grid point where g does not change sign
    and |g| is below both neighbours (an exact zero included), thus proves
    at least two roots between those neighbours; the dip whose neighbours
    straddle the double zero at alpha = 0 is skipped.  A cell holding a root
    pair that shows no dip is still missed.  Identically-zero stretches (the
    zero profile) yield nothing.
    """
    brackets, dips = [], []
    s, mag = np.sign(gvals).tolist(), np.abs(gvals).tolist()
    for i in range(len(alphas) - 1):
        if s[i] * s[i + 1] < 0:
            brackets.append((i, i + 1))
        elif i > 0 and s[i] == 0 and s[i - 1] * s[i + 1] < 0:
            brackets.append((i - 1, i + 1))
        elif i > 0 and s[i - 1] == s[i + 1] != 0 and mag[i - 1] > mag[i] < mag[i + 1]:
            if not alphas[i - 1] < 0.0 < alphas[i + 1]:
                dips.append(i)
    return brackets, dips


def _refine_and_package(profile, a, b, fa, fb) -> ResonantValue:
    """Refine the scanned sign-change bracket [a, b] with g(a) = fa, g(b) = fb.

    theta and the residual are read from the refinement's own shoot at the
    root.  At a root u1*dv1 = 1, and the transfer matrix is accurate relative
    to its largest entry, so theta is u1 when |u1| >= 1 and 1/dv1 otherwise.
    The nearest double to a root leaves |g| up to |g'|*ulp(alpha)/2 however
    exact the shoot, so the root gate adds |g'|*ulp(alpha), with g' the
    slope across Brent's final bracket.  Brent stops once the bracket is
    narrower than xtol, some ulps, so a root that fails the gate is retried
    once: the bracket is bisected down to adjacent doubles, and the end with
    the smaller |g| is taken.  Raises NumericalFailureError when that root
    fails the gate too.
    """
    shots = {}

    def shot(x):  # one shoot per alpha
        if x not in shots:
            shots[x] = shoot(profile, x, 0.0)
        return shots[x]

    xtol = max(1e-13, 8.0 * abs(0.5 * (a + b)) * np.finfo(float).eps)
    root, _, (lo, hi), _ = refine_bracket(
        lambda x: shot(x).du1, a, b, fa, fb, xtol=xtol, max_iter=200
    )
    root, lo, hi = float(root), float(lo), float(hi)
    known = {a: fa, b: fb}  # the scanned ends, which refinement does not shoot
    g = lambda x: known[x] if x in known else shot(x).du1
    slope = abs(g(hi) - g(lo)) / (hi - lo) if hi > lo else 0.0

    def gate(x):  # the root gate at x, with the slope across Brent's final bracket
        fd = shot(x)
        # gating on |u1| and |dv1| treats a profile and its mirror (theta -> 1/theta) alike
        return RESIDUAL_SCALE * max(1.0, abs(fd.u1), abs(fd.dv1)) + slope * np.spacing(abs(x))

    if abs(g(root)) > gate(root):
        # Brent's bracket is some ulps wide and its end may lie ulps from the
        # sign change, so close the bracket to adjacent doubles
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            g_mid = g(mid)
            if g_mid == 0.0:
                lo = hi = mid
            elif (g_mid > 0.0) == (g(lo) > 0.0):
                lo = mid
            else:
                hi = mid
        root = lo if abs(g(lo)) <= abs(g(hi)) else hi
    fd, limit = shot(root), gate(root)
    residual = abs(fd.du1)
    if residual > limit:
        raise NumericalFailureError(
            f"resonance refinement at alpha={root} stalled: residual {residual:.3e} "
            f"exceeds {limit:.3e} = {RESIDUAL_SCALE:.0e}*max(1, |u1|, |dv1|) + |g'|*ulp(alpha)"
        )
    theta = fd.u1 if abs(fd.u1) >= 1.0 else 1.0 / fd.dv1
    return ResonantValue(root, theta, residual, (lo, hi))


def _roots(profile, lo, hi, step):
    """The roots of g in [lo, hi]: the one search of ``find_resonances`` and ``classify``.

    g is scanned by one ``shoot_batch`` call on max(1, round((hi - lo)/step))
    uniform cells, and each sign change is refined by Brent's method.  A
    window holding 0 gets alpha = 0 (resonant for every profile, theta = 1)
    analytically, skips |alpha| < step/2 (g's zero there is tangential for
    delta-prime-like profiles) and drops a bracket closing on 0, so the zero
    profile has the single root 0; a root within step/2 of 0 is found only by
    a window without 0.  A scan of more than MAX_SCAN_CELLS cells raises
    InvalidInputError before its grid is built.

    Each dip warns before any refinement runs.  Returns a lazy iterator of
    the roots in grid order, alpha = 0 last.  Brackets are disjoint and
    their ends are not zeros, so the roots are distinct zeros.
    """
    if (hi - lo) / step > MAX_SCAN_CELLS:
        raise InvalidInputError(
            f"resonance scan of [{lo}, {hi}] in steps of {step} exceeds "
            f"{MAX_SCAN_CELLS} cells; narrow the window or widen the step"
        )
    n_cells = max(1, int(round((hi - lo) / step)))
    has_zero = lo <= 0.0 <= hi
    grid = [a for a in np.linspace(lo, hi, n_cells + 1) if not has_zero or abs(a) >= step / 2.0]
    gvals = _scan_values(profile, grid)
    brackets, dips = _brackets_from_scan(grid, gvals)
    for i in dips:
        warnings.warn(
            f"|g| dips to {gvals[i]:.3e} at alpha={grid[i]} without a sign change, so at least two "
            f"roots lie in ({grid[i - 1]}, {grid[i + 1]}); a smaller scan_step resolves them",
            NearTangencyWarning,
            stacklevel=3,
        )
    refine = lambda i, j: _refine_and_package(profile, grid[i], grid[j], gvals[i], gvals[j])
    refined = (refine(i, j) for i, j in brackets)
    roots = (rv for rv in refined if not rv.bracket[0] <= 0.0 <= rv.bracket[1])
    zero = [ResonantValue(0.0, 1.0, 0.0, (-step / 2.0, step / 2.0))] if has_zero else []
    return itertools.chain(roots, zero)


def find_resonances(
    profile: PotentialProfile,
    alpha_min: float = DEFAULT_ALPHA_MIN,
    alpha_max: float = DEFAULT_ALPHA_MAX,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ResonantValue]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    The roots ``_roots`` finds in cells about scan_step wide.  Roots in
    different cells are all returned, however close.  A cell holding an even
    number of roots shows no sign change.  |g| has no positive local minimum
    (Laguerre-Polya, see ``_brackets_from_scan``), so a dip in |g| without a
    sign change proves at least two roots between the dip's scan neighbours
    and raises a NearTangencyWarning; a root pair that shows no dip is missed
    silently.  alpha = 0 is inserted analytically, and a window that holds
    it is not scanned within |alpha| < scan_step/2; the zero profile reports
    only alpha = 0.
    """
    if not (np.isfinite(alpha_min) and np.isfinite(alpha_max)):
        raise InvalidInputError("find_resonances: alpha_min and alpha_max must be finite")
    if not alpha_min < alpha_max:
        raise InvalidInputError(
            f"find_resonances: requires alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]"
        )
    if not (np.isfinite(scan_step) and scan_step > 0):
        raise InvalidInputError(f"find_resonances: scan_step must be positive, got {scan_step}")

    return sorted(_roots(profile, alpha_min, alpha_max, scan_step), key=lambda rv: rv.alpha)


def coupling(profile: PotentialProfile, alpha: float, alpha_tol: float = 1e-3) -> float:
    """Coupling value theta = u(1; 0, alpha) at a resonant alpha.

    With the normalisation u(-1) = 1, u(1) is the endpoint ratio w(1)/w(-1)
    of the Neumann eigenfunction.  alpha is accepted exactly when
    ``classify(profile, alpha, alpha_tol)`` is Resonant, so couplings
    published to a few decimals are accepted, and the zero profile only near
    alpha = 0; NotResonantError is raised otherwise.

    The returned theta is u1 at the given alpha, not at the refined root,
    and is ill-conditioned in alpha where |theta| < 1: step at -178.2697
    gives 0.491 against the root's 2.25e-6.  ``classify`` returns the root's.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("coupling: alpha must be finite")
    if not alpha_tol > 0:
        raise InvalidInputError(f"coupling: alpha_tol must be positive, got {alpha_tol}")
    if isinstance(classify(profile, alpha, alpha_tol), Resonant):
        return shoot(profile, alpha, 0.0).u1
    raise NotResonantError(f"coupling: alpha={alpha} has no root within {alpha_tol}")


def classify(profile: PotentialProfile, alpha: float, tol: float = 1e-8) -> Classification:
    """Resonant(theta) when a root of g lies in [alpha - tol, alpha + tol].

    The roots and warnings are those of ``find_resonances(profile, alpha -
    tol, alpha + tol)``, so the zero profile is resonant only where the window
    holds alpha = 0.  theta, at the root nearest alpha, parameterises the
    connected limit operator; NonResonant means the Dirichlet decoupled pair.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("classify: alpha must be finite")
    if not tol > 0:
        raise InvalidInputError(f"classify: tol must be positive, got {tol}")
    roots = _roots(profile, alpha - tol, alpha + tol, DEFAULT_SCAN_STEP)
    nearest = min(roots, key=lambda rv: abs(rv.alpha - alpha), default=None)
    return NonResonant() if nearest is None else Resonant(nearest.theta)
