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

#: refined-root residual must satisfy |g(alpha)| <= RESIDUAL_SCALE * max(1, |u1|, |dv1|)
RESIDUAL_SCALE = 1e-8

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


def _passes_root_gate(fd) -> bool:
    """|g| is small against the transfer matrix's scale, |u1| or |dv1| at a root.

    Gating on both treats a profile and its mirror (theta -> 1/theta) alike.
    """
    return abs(fd.du1) <= RESIDUAL_SCALE * max(1.0, abs(fd.u1), abs(fd.dv1))


def _refine_and_package(profile, a, b, fa, fb) -> ResonantValue:
    """Refine the scanned sign-change bracket [a, b] with g(a) = fa, g(b) = fb.

    theta and the residual are read from the refinement's own shoot at the
    root.  At a root u1*dv1 = 1, and the transfer matrix is accurate relative
    to its largest entry, so theta is u1 when |u1| >= 1 and 1/dv1 otherwise.
    Raises NumericalFailureError when the refined root fails the root gate.
    """
    shots = {}
    g = lambda x: shots.setdefault(x, shoot(profile, x, 0.0)).du1
    xtol = max(1e-13, 8.0 * abs(0.5 * (a + b)) * np.finfo(float).eps)
    root, _, bracket, _ = refine_bracket(g, a, b, fa, fb, xtol=xtol, max_iter=200)
    root, bracket = float(root), (float(bracket[0]), float(bracket[1]))
    fd = shots.get(root) or shoot(profile, root, 0.0)
    residual = abs(fd.du1)
    if not _passes_root_gate(fd):
        raise NumericalFailureError(
            f"resonance refinement at alpha={root} stalled: residual {residual:.3e} "
            f"exceeds {RESIDUAL_SCALE:.0e}*max(1, |u1|, |dv1|)"
        )
    theta = fd.u1 if abs(fd.u1) >= 1.0 else 1.0 / fd.dv1
    return ResonantValue(root, theta, residual, bracket)


def _roots(profile, grid):
    """Scan g on grid, bracket its sign changes and refine each bracket.

    Returns (roots, dips): a lazy iterator of the refined roots in grid
    order, and each dip's (alpha, g, lo, hi), lo and hi its scan neighbours,
    known before any refinement runs or raises.  Brackets are disjoint and
    their ends are not zeros, so the roots are distinct zeros of g.
    """
    gvals = _scan_values(profile, grid)
    brackets, dips = _brackets_from_scan(grid, gvals)
    refine = lambda i, j: _refine_and_package(profile, grid[i], grid[j], gvals[i], gvals[j])
    dips = [(grid[i], gvals[i], grid[i - 1], grid[i + 1]) for i in dips]
    return (refine(i, j) for i, j in brackets), dips


def find_resonances(
    profile: PotentialProfile,
    alpha_min: float = DEFAULT_ALPHA_MIN,
    alpha_max: float = DEFAULT_ALPHA_MAX,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ResonantValue]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    g is scanned by one ``shoot_batch`` call on a uniform grid of cells about
    scan_step wide; each cell where g changes sign is refined by Brent's
    method.  Roots in different cells are all returned, however close.  A
    cell holding an even number of roots shows no sign change and is missed.
    |g| has no positive local minimum (Laguerre-Polya, see
    ``_brackets_from_scan``), so a dip in |g| without a sign change proves
    at least two roots between the dip's scan neighbours and raises a
    NearTangencyWarning; a root pair that shows no dip is missed silently.
    alpha = 0 (resonant for every profile, theta = 1) is inserted
    analytically and not scanned within |alpha| < scan_step/2, where g has a
    tangential zero for delta-prime-like profiles; a refined bracket that
    closes on alpha = 0 is that root, not another.
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
    roots, dips = _roots(profile, [a for a in grid if abs(a) >= scan_step / 2.0])
    for a, g, lo, hi in dips:
        warnings.warn(
            f"|g| dips to {g:.3e} at alpha={a} without a sign change, so at least two "
            f"roots lie in ({lo}, {hi}); decrease scan_step to resolve them",
            NearTangencyWarning,
            stacklevel=2,
        )

    found = [rv for rv in roots if not rv.bracket[0] <= 0.0 <= rv.bracket[1]]
    if alpha_min <= 0.0 <= alpha_max:
        found.append(ResonantValue(0.0, 1.0, 0.0, (-scan_step / 2.0, scan_step / 2.0)))
    return sorted(found, key=lambda rv: rv.alpha)


def coupling(profile: PotentialProfile, alpha: float, alpha_tol: float = 1e-3) -> float:
    """Coupling value theta = u(1; 0, alpha) at a resonant alpha.

    With the normalisation u(-1) = 1, u(1) is the endpoint ratio
    w(1)/w(-1) of the Neumann eigenfunction.  alpha is accepted when its own
    shoot passes the refined-root gate, or else when ``classify(profile,
    alpha, alpha_tol)`` is Resonant (so couplings published to a few
    decimals are accepted); NotResonantError is raised otherwise.

    The returned theta is u1 at the given alpha, not at the refined root.
    Where |theta| < 1 that entry is ill-conditioned in alpha: the benchmark's
    generated profile d1-0 at alpha = -58.8985 gives -0.0714 against the
    root's -0.0611, and step at -178.2697 gives 0.491 against 2.25e-6.
    ``classify`` returns the root's theta.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("coupling: alpha must be finite")
    if not alpha_tol > 0:
        raise InvalidInputError(f"coupling: alpha_tol must be positive, got {alpha_tol}")
    fd = shoot(profile, alpha, 0.0)
    if _passes_root_gate(fd) or isinstance(classify(profile, alpha, alpha_tol), Resonant):
        return fd.u1
    raise NotResonantError(
        f"coupling: alpha={alpha} is not resonant (residual {abs(fd.du1):.3e}, "
        f"no refined root within {alpha_tol})"
    )


def classify(profile: PotentialProfile, alpha: float, tol: float = 1e-8) -> Classification:
    """Resonant(theta) when a refined root of g lies within tol of alpha.

    The roots are searched on [alpha - w, alpha + w], w = max(2*tol, 0.75),
    in cells of width at most w/3.  theta is taken at the refined root nearest
    alpha (it parameterises the connected limit operator); NonResonant means
    the limit is the Dirichlet decoupled pair.
    """
    if not np.isfinite(alpha):
        raise InvalidInputError("classify: alpha must be finite")
    if not tol > 0:
        raise InvalidInputError(f"classify: tol must be positive, got {tol}")
    if abs(alpha) <= tol:
        return Resonant(1.0)
    window = max(2.0 * tol, 0.75)
    lo, hi = alpha - window, alpha + window
    n_cells = max(2, int(math.ceil((hi - lo) / (window / 3.0))))
    roots, _ = _roots(profile, list(np.linspace(lo, hi, n_cells + 1)))
    nearest = min(roots, key=lambda rv: abs(rv.alpha - alpha), default=None)
    if nearest is not None and abs(nearest.alpha - alpha) <= tol:
        return Resonant(nearest.theta)
    return NonResonant()
