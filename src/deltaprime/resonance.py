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

The search decides on g over a uniform grid of scan_step cells: its sign
changes are the brackets that Brent's method refines, and its dips warn.
scan_step sets the resolution of those decisions, not the number of shoots.
g is entire, so on a window of many cells most grid values come from
Chebyshev interpolants of g, and only the values a decision reads are
shoots (``_scan_values``); the decisions are those of a grid shot wholly.
A grid of 4 to _CHEB_DEGREE + 1 points is shot whole, and there Brent's
method starts from the root of the polynomial through the grid values
nearest each bracket, which moves a root by at most Brent's xtol; a wider
grid, or one of 2 or 3 points, refines from the bracket's ends alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._rootfind import refine_bracket
from .errors import (
    InvalidInputError,
    NearTangencyWarning,
    NotResonantError,
    NumericalFailureError,
    _finite,
)
from .profiles import PotentialProfile
from .shooting import shoot, shoot_batch

#: refined-root residual must satisfy
#: |g(alpha)| <= RESIDUAL_SCALE * max(1, |u1|, |dv1|) + |g'(alpha)| * ulp(alpha)
RESIDUAL_SCALE = 1e-8

DEFAULT_SCAN_STEP = 0.5
DEFAULT_ALPHA_MIN = -200.0
DEFAULT_ALPHA_MAX = 200.0
#: a scan holds up to ~95 bytes per cell (tracemalloc at 2**20 cells): about 400 MB here
MAX_SCAN_CELLS = 2**22

#: degree of the Chebyshev interpolants that predict the scan (``_scan_values``)
_CHEB_DEGREE = 32
#: a piece's interpolant is kept only if its last four coefficients sum to less than
#: this share of max|g| at its points
_CHEB_TAIL = 1e-9
#: a prediction's bound: this many times that sum, plus _CHEB_FLOOR * max|g|
_CHEB_BOUND = 100.0
_CHEB_FLOOR = 1e-13
#: a piece is halved before it is shot while it holds more roots than this by estimate
_CHEB_ROOTS = 8
#: a bracket's seed interpolates the scan at this many grid points nearest it
_SEED_POINTS = 8


@dataclass(frozen=True)
class ResonantValue:
    """A refined resonant coupling with its coupling value and root residual."""

    alpha: float
    theta: float
    residual: float
    bracket: tuple[float, float]


@dataclass(frozen=True)
class Resonant:
    """A resonant limit with coupling value theta, which must be real, finite and nonzero."""

    theta: float

    def __post_init__(self):
        if _finite(self.theta, "Resonant: theta") == 0.0:
            raise InvalidInputError(f"Resonant: theta must be nonzero, got {self.theta!r}")


@dataclass(frozen=True)
class NonResonant:
    pass


Classification = Resonant | NonResonant


def _scan_values(profile, alphas):
    """g on the scan grid ``alphas``, a tight shoot wherever ``_brackets_from_scan`` reads it.

    The grid's spacing, scan_step, is the resolution of the sign and dip
    decisions, not a count of shoots.  Where g is predicted
    (``_predicted_scan``), a wide grid costs a few interpolants and the
    values the decisions read, and the brackets, the dips and the values
    they read are those of the grid shot wholly tight.  A profile with no
    varying cell makes every shoot one exact step per cell, so its grid,
    like a grid of no more points than one interpolant shoots, takes one
    ``shoot_batch`` call.  So does a prediction that meets a failing shoot:
    the grid then fails as it would alone, or its tight values are returned.
    """
    grid = np.asarray(alphas, dtype=float)
    if grid.size > _CHEB_DEGREE + 1 and profile.cells.varying.size:
        try:
            return _predicted_scan(profile, grid)
        except NumericalFailureError:
            pass
    return shoot_batch(profile, grid)[1]


# near overflow a coefficient, a prediction or a difference may be inf or nan, and
# each then fails its test: the piece is not kept, or it is voided
@np.errstate(over="ignore", invalid="ignore")
def _predicted_scan(profile, grid):
    """g on ``grid`` from Chebyshev interpolants, with tight shoots where a decision reads it.

    g is entire of order 1/2, so its Chebyshev coefficients on a window
    decay super-geometrically (Trefethen, *Approximation Theory and
    Approximation Practice*, SIAM 2013, ch. 8).  The grid is cut into
    pieces, and each piece's g is interpolated at _CHEB_DEGREE + 1 Chebyshev
    points, the first and last its end grid points; one ``shoot_batch`` call
    per round shoots the points of every pending piece and the pending tight
    values.  A piece is planned from its root count, the larger of one plus
    the estimate from ``_weyl_rates`` and the sign changes seen: it is shot
    tight on its whole grid when its grid has no more points than an
    interpolant and both ends of each root's bracket would cost, it is
    halved while it holds more than _CHEB_ROOTS roots, and it is
    interpolated otherwise.  A piece whose last four coefficients sum to
    _CHEB_TAIL of max|g| at its points or more is planned again as two
    halves, each with as many roots as sign changes among its samples.

    A prediction carries its piece's bound _CHEB_BOUND * tail + _CHEB_FLOOR
    * max|g|.  A value is shot tight, bit for bit what ``shoot`` gives at
    that alpha, wherever the bound leaves its sign open, at each bracket end
    and on each triple that is, or within the bounds may be, a dip
    (``_unresolved``); the other values decide as tight ones would.  A shoot
    is accurate to about RTOL times the product of its cells' scales
    (``shooting``), which the coefficients need not show, so a predicted
    value shot tight is checked against its prediction as it arrives, and a
    piece that misses its bound is shot tight on its whole grid.
    """
    n, count = grid.size, _CHEB_DEGREE + 1
    g, err = np.full(n, np.nan), np.full(n, np.nan)  # err: 0 when tight, nan while unknown
    piece = np.full(n, -1)  # the first grid index of each predicted value's piece
    pieces, need = [], np.zeros(n, dtype=bool)
    rate_pos, rate_neg = _weyl_rates(profile)

    def plan(i, j, seen=0):  # queue grid[i:j] for interpolation, in halves, or for tight shoots
        r = np.sqrt(np.maximum([grid[j - 1], grid[i], -grid[i], -grid[j - 1]], 0.0))
        roots = max(seen, int(rate_pos * (r[0] - r[1]) + rate_neg * (r[2] - r[3])) + 1)
        if j - i <= count + 2 * roots:  # an interpolant and each root's bracket cost more
            need[i:j] = True
        elif roots > _CHEB_ROOTS:
            plan(i, (i + j) // 2)
            plan((i + j) // 2, j)
        else:
            pieces.append((i, j))

    plan(0, n)
    t = -np.cos(np.pi * np.arange(count) / _CHEB_DEGREE)  # Chebyshev points from -1 up to 1
    while pieces or need.any():
        ends = [(grid[i], grid[j - 1]) for i, j in pieces]
        inner = [0.5 * (a + b) + 0.5 * (b - a) * t[1:-1] for a, b in ends]
        nodes = [np.concatenate(([a], x, [b])) for (a, b), x in zip(ends, inner)]
        idx = np.flatnonzero(need)
        shots = shoot_batch(profile, np.concatenate(nodes + [grid[idx]]))[1]
        tight = shots[len(nodes) * count :]
        # a tight value outside its prediction's bound voids the piece's predictions
        missed = piece[idx[np.abs(tight - g[idx]) > err[idx]]]
        g[idx], err[idx], need[idx] = tight, 0.0, False
        need |= np.isin(piece, missed) & (err > 0.0)
        shot, pieces = pieces, []
        for k, ((i, j), (a, b)) in enumerate(zip(shot, ends)):
            v = shots[k * count : (k + 1) * count]
            c = np.fft.rfft(np.concatenate((v[::-1], v[1:-1]))).real / _CHEB_DEGREE
            c[0], c[-1] = 0.5 * c[0], 0.5 * c[-1]
            scale, tail = np.max(np.abs(v)), np.sum(np.abs(c[-4:]))
            fits = tail < _CHEB_TAIL * scale  # false for non-finite values
            if fits:
                p = np.polynomial.chebyshev.chebval((2.0 * grid[i:j] - (a + b)) / (b - a), c)
                fits = np.all(np.isfinite(p))
            if fits:
                e = _CHEB_BOUND * tail + _CHEB_FLOOR * scale
                g[i:j], err[i:j], piece[i:j] = p, e, i
                g[[i, j - 1]], err[[i, j - 1]] = v[[0, -1]], 0.0
            else:  # each half holds at most the sign changes among the samples
                signs = np.sign(v)
                seen = np.count_nonzero(signs[:-1] * signs[1:] < 0.0)
                plan(i, (i + j) // 2, seen)
                plan((i + j) // 2, j, seen)
        need |= _unresolved(grid, g, err)
    return g


def _weyl_rates(profile):
    """(I+, I-): g has about I+ * sqrt(A) roots in [0, A] and I- * sqrt(A) in [-A, 0].

    These are the Weyl asymptotics, I+ = (1/pi) * int sqrt(max(-psi, 0)) and
    I- = (1/pi) * int sqrt(max(psi, 0)) (Atkinson & Mingarelli, J. reine
    angew. Math. 375/376, 1987), as midpoint sums over 8 points per cell.
    They only steer the cost of ``_predicted_scan``, never an answer.
    """
    cells = profile.cells
    widths = np.diff(cells.edges)[:, None]
    x = cells.edges[:-1, None] + widths * (np.arange(8) + 0.5) / 8.0
    psi = cells.values((slice(None), None), x)
    parts = (np.sqrt(np.maximum(sign * psi, 0.0)) * widths for sign in (-1.0, 1.0))
    return tuple(np.sum(part) / (8.0 * np.pi) for part in parts)


def _unresolved(alphas, g, err):
    """Predicted grid values that ``_brackets_from_scan`` would read, or whose sign is open.

    ``err`` is each value's bound: 0 for a tight value, nan for one not yet
    known.  A triple is a possible dip unless the bounds rule a dip out.
    """
    need = np.abs(g) <= err
    brackets, dips = _decisions(alphas, g, err)
    left, right = brackets
    need[left] = need[right] = True
    for shift in (-1, 0, 1):
        need[dips + shift] = True
    return need & (err > 0.0)


def _decisions(alphas, gvals, err=0.0):
    """Brackets as (left, right) index arrays, and dips as an index array, in grid order.

    With ``err`` each value is known to within +-err, and a dip is reported
    wherever the bounds allow one.  See ``_brackets_from_scan``.
    """
    a, g = np.asarray(alphas, dtype=float), np.asarray(gvals, dtype=float)
    s, m = np.sign(g), np.abs(g)
    lo, hi = m - err, m + err
    cross = s[:-1] * s[1:] < 0.0  # cell (i, i + 1)
    outer = s[:-2] * s[2:]
    around = np.zeros(cross.shape, dtype=bool)  # (i - 1, i + 1) around a grid zero
    around[1:] = (s[1:-1] == 0.0) & (outer < 0.0)
    dip = (outer > 0.0) & ~cross[1:] & (np.minimum(hi[:-2], hi[2:]) > lo[1:-1])
    dip &= (a[:-2] >= 0.0) | (a[2:] <= 0.0)
    (at,) = (cross | around).nonzero()
    return (at - around[at], at + 1), dip.nonzero()[0] + 1


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
    (left, right), dips = _decisions(alphas, gvals)
    return list(zip(left.tolist(), right.tolist())), dips.tolist()


def _interpolated_root(x, y, a, b, fa, fb):
    """A root in (a, b) of the polynomial through the points (x, y), or None.

    The points include the bracket's ends (a, fa) and (b, fb), so the
    polynomial changes sign in (a, b).  Newton's method runs on its Newton
    form from the secant point, clamped to [a, b], until a step fails to
    shrink; the iterate is the root unless it stopped at an end.
    """
    n, c = len(x), list(y)
    for k in range(1, n):  # divided differences, in place
        for i in range(n - 1, k - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (x[i] - x[i - k])
    t, last = a - fa * (b - a) / (fb - fa), float("inf")
    for _ in range(20):
        p, dp = c[-1], 0.0
        for i in range(n - 2, -1, -1):
            dp = dp * (t - x[i]) + p
            p = p * (t - x[i]) + c[i]
        if dp == 0.0 or not abs(p / dp) < last:  # at the rounding floor, or diverging
            break
        last = abs(p / dp)
        t = min(max(t - p / dp, a), b)
    return t if a < t < b else None


def _refine_and_package(profile, a, b, fa, fb, guess=None) -> ResonantValue:
    """Refine the scanned sign-change bracket [a, b] with g(a) = fa, g(b) = fb.

    theta and the residual are read from the refinement's own shoot at the
    root.  At a root u1*dv1 = 1, and each entry of the transfer matrix is
    accurate to an absolute error that can exceed 1 where max|M| is large
    (``shooting``), so theta is u1 when |u1| >= |dv1| and 1/dv1 otherwise:
    the larger entry carries the smaller relative error.  The nearest double
    to a root leaves |g| up to |g'|*ulp(alpha)/2 however exact the shoot, so
    the root gate adds |g'|*ulp(alpha), with g' the slope across Brent's
    first bracket.  Brent stops once the bracket is narrower than xtol, some
    ulps, so a root that fails the gate is retried once: Brent's method
    closes that bracket to adjacent doubles (``refine_bracket`` with xtol=0)
    and takes the end with the smaller |g|.  Raises NumericalFailureError
    when that root fails the gate too.

    ``guess``, a root estimate inside (a, b), seeds Brent's first iterate
    (``refine_bracket``); the root then still lies within xtol of the sign
    change, so it moves by at most xtol against a search from the ends.  The
    retry takes no seed.
    """
    shots = {}

    def shot(x):  # one shoot per alpha
        if x not in shots:
            shots[x] = shoot(profile, x, 0.0)
        return shots[x]

    xtol = max(1e-13, 8.0 * abs(0.5 * (a + b)) * np.finfo(float).eps)
    root, _, (lo, hi), _ = refine_bracket(
        lambda x: shot(x).du1, a, b, fa, fb, xtol=xtol, max_iter=200, guess=guess
    )
    root, lo, hi = float(root), float(lo), float(hi)
    known = {a: fa, b: fb}  # the scanned ends, which refinement does not shoot
    g = lambda x: known[x] if x in known else shot(x).du1
    slope = abs(g(hi) - g(lo)) / (hi - lo) if hi > lo else 0.0

    def gate(x):  # the root gate at x, with the slope across Brent's first bracket
        fd = shot(x)
        # gating on |u1| and |dv1| treats a profile and its mirror (theta -> 1/theta) alike
        return RESIDUAL_SCALE * max(1.0, abs(fd.u1), abs(fd.dv1)) + slope * np.spacing(abs(x))

    if abs(g(root)) > gate(root):
        # Brent's bracket is some ulps wide and its end may lie ulps from the
        # sign change, so close the bracket to adjacent doubles
        root, _, (lo, hi), _ = refine_bracket(g, lo, hi, g(lo), g(hi), xtol=0.0)
    fd, limit = shot(root), gate(root)
    residual = abs(fd.du1)
    if residual > limit:
        raise NumericalFailureError(
            f"resonance refinement at alpha={root} stalled: residual {residual:.3e} "
            f"exceeds {limit:.3e} = {RESIDUAL_SCALE:.0e}*max(1, |u1|, |dv1|) + |g'|*ulp(alpha)"
        )
    theta = fd.u1 if abs(fd.u1) >= abs(fd.dv1) else 1.0 / fd.dv1
    return ResonantValue(root, theta, residual, (lo, hi))


def _roots(profile, lo, hi, step):
    """The roots of g in [lo, hi]: the one search of ``find_resonances`` and ``classify``.

    g is scanned (``_scan_values``) on a grid of max(1, round((hi - lo)/step))
    uniform cells, held as one array, and each sign change is refined by
    Brent's method from the scanned ends and their tight values.  A window
    holding 0 gets alpha = 0 (resonant for every profile, theta = 1)
    analytically, skips |alpha| < step/2 (g's zero there is tangential for
    delta-prime-like profiles) and drops a bracket closing on 0, so the zero
    profile has the single root 0; a root within step/2 of 0 is found only by
    a window without 0.  A scan of more than MAX_SCAN_CELLS cells raises
    InvalidInputError before its grid is built.

    On a grid of 4 to _CHEB_DEGREE + 1 points, which ``_scan_values`` shoots
    whole, Brent's first iterate is the root of the polynomial through the
    _SEED_POINTS grid values nearest the bracket (``_interpolated_root``),
    and the root may move by up to xtol against Brent's from the ends.  The
    rule reads only the grid's size, so a predicted and a tight scan refine
    alike; wider grids, whose values away from the brackets are predictions,
    and grids of 2 or 3 points take no seed and are unchanged.

    Each dip warns before any refinement runs.  Returns a list of the roots
    in grid order, alpha = 0 last.  Brackets are disjoint and their ends are
    not zeros, so the roots are distinct zeros.
    """
    if (hi - lo) / step > MAX_SCAN_CELLS:
        raise InvalidInputError(
            f"resonance scan of [{lo}, {hi}] in steps of {step} exceeds "
            f"{MAX_SCAN_CELLS} cells; narrow the window or widen the step"
        )
    n_cells = max(1, int(round((hi - lo) / step)))
    has_zero = lo <= 0.0 <= hi
    grid = np.linspace(lo, hi, n_cells + 1)
    if has_zero:
        grid = grid[np.abs(grid) >= step / 2.0]
    gvals = _scan_values(profile, grid)
    brackets, dips = _brackets_from_scan(grid, gvals)
    for i in dips:
        warnings.warn(
            f"|g| dips to {gvals[i]:.3e} at alpha={grid[i]} without a sign change, so at least two "
            f"roots lie in ({grid[i - 1]}, {grid[i + 1]}); a smaller scan_step resolves them",
            NearTangencyWarning,
            stacklevel=3,
        )

    def refine(i, j):
        a, b, fa, fb = float(grid[i]), float(grid[j]), float(gvals[i]), float(gvals[j])
        guess = None
        if 4 <= grid.size <= _CHEB_DEGREE + 1:  # a grid ``_scan_values`` shoots whole
            s = max(0, min((i + j + 1) // 2 - _SEED_POINTS // 2, grid.size - _SEED_POINTS))
            near = slice(s, s + _SEED_POINTS)
            y = [float(v) for v in gvals[near]]
            guess = _interpolated_root(grid[near].tolist(), y, a, b, fa, fb)
        return _refine_and_package(profile, a, b, fa, fb, guess)

    refined = (refine(i, j) for i, j in brackets)
    roots = [rv for rv in refined if not rv.bracket[0] <= 0.0 <= rv.bracket[1]]
    zero = [ResonantValue(0.0, 1.0, 0.0, (-step / 2.0, step / 2.0))] if has_zero else []
    return roots + zero


def find_resonances(
    profile: PotentialProfile,
    alpha_min: float = DEFAULT_ALPHA_MIN,
    alpha_max: float = DEFAULT_ALPHA_MAX,
    scan_step: float = DEFAULT_SCAN_STEP,
) -> list[ResonantValue]:
    """All resonant couplings in [alpha_min, alpha_max], sorted ascending.

    The roots ``_roots`` finds in cells about scan_step wide.  scan_step is
    the resolution of the sign and dip decisions below, not a count of
    shoots: a wide window shoots a few Chebyshev points and the values the
    decisions read (``_scan_values``).  Roots in different cells are all
    returned, however close.  A cell holding an even
    number of roots shows no sign change.  |g| has no positive local minimum
    (Laguerre-Polya, see ``_brackets_from_scan``), so a dip in |g| without a
    sign change proves at least two roots between the dip's scan neighbours
    and raises a NearTangencyWarning; a root pair that shows no dip is missed
    silently.  alpha = 0 is inserted analytically, and a window that holds
    it is not scanned within |alpha| < scan_step/2; the zero profile reports
    only alpha = 0.  Raises InvalidInputError unless alpha_min < alpha_max
    are finite and scan_step positive (the gate in ``errors``), or past
    MAX_SCAN_CELLS cells.
    """
    alpha_min = _finite(alpha_min, "find_resonances: alpha_min")
    alpha_max = _finite(alpha_max, "find_resonances: alpha_max")
    scan_step = _finite(scan_step, "find_resonances: scan_step", positive=True)
    if not alpha_min < alpha_max:
        raise InvalidInputError(
            f"find_resonances: requires alpha_min < alpha_max, got [{alpha_min}, {alpha_max}]"
        )
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
    Raises InvalidInputError unless alpha is finite and alpha_tol positive
    (the gate in ``errors``).
    """
    alpha = _finite(alpha, "coupling: alpha")
    alpha_tol = _finite(alpha_tol, "coupling: alpha_tol", positive=True)
    if isinstance(classify(profile, alpha, alpha_tol), Resonant):
        return shoot(profile, alpha, 0.0).u1
    raise NotResonantError(f"coupling: alpha={alpha} has no root within {alpha_tol}")


def classify(profile: PotentialProfile, alpha: float, tol: float = 1e-8) -> Classification:
    """Resonant(theta) when a root of g lies in [alpha - tol, alpha + tol].

    The roots and warnings are those of ``find_resonances(profile, alpha -
    tol, alpha + tol)``, so the zero profile is resonant only where the window
    holds alpha = 0.  theta, at the root nearest alpha, parameterises the
    connected limit operator; NonResonant means the Dirichlet decoupled pair.
    Raises InvalidInputError unless alpha is finite and tol positive (the
    gate in ``errors``), or past MAX_SCAN_CELLS cells.
    """
    alpha, tol = _finite(alpha, "classify: alpha"), _finite(tol, "classify: tol", positive=True)
    roots = _roots(profile, alpha - tol, alpha + tol, DEFAULT_SCAN_STEP)
    nearest = min(roots, key=lambda rv: abs(rv.alpha - alpha), default=None)
    return NonResonant() if nearest is None else Resonant(nearest.theta)
