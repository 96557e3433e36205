"""Bracketing root refinement by Brent's method.

Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
inverse quadratic interpolation, or a secant step, where it lands well
inside the bracket and shrinks faster than the step before last; bisection
otherwise.  No step is shorter than max(xtol/2, the spacing of doubles at
the iterate toward the bracket's other end), so the bracket closes from both
sides, and the search stops once the bracket is xtol wide or its ends are
adjacent doubles: xtol=0 closes it to adjacent doubles.  Every iterate lies
strictly inside the bracket, so f is never evaluated twice at one point.
A caller that knows more of f than its values at the ends may seed the
first iterate with a root estimate.
"""

from __future__ import annotations

import math


def refine_bracket(f, a, b, fa=None, fb=None, xtol=1e-10, max_iter=200, guess=None):
    """Refine a sign-change bracket [a, b] of f.

    Returns (root, f(root), (a, b), n_evals): f changes sign across the final
    bracket, of width at most xtol or of adjacent doubles (or max_iter
    exhausted, whichever comes first), and root is its end with the smaller
    |f|.  f(a) and f(b) must have opposite signs; exact zeros are returned
    with a collapsed bracket.

    ``guess``, a root estimate, is the first iterate when it lies strictly
    inside the bracket and more than the step floor max(xtol/2, ulp) from
    the end with the smaller |f|; otherwise (NaN included) it is ignored.
    From there Brent's method runs unchanged, the guess counting as an
    interpolation step.  With no guess every iterate is Brent's from the ends.
    """
    if not a < b:
        raise ValueError(f"bracket requires a < b, got [{a}, {b}]")
    n_evals = 0
    if fa is None:
        fa = f(a)
        n_evals += 1
    if fb is None:
        fb = f(b)
        n_evals += 1
    if fa != 0.0 and fb != 0.0 and math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise ValueError(f"f({a})={fa} and f({b})={fb} do not bracket a root")

    # b is the best iterate and c the other end of the bracket; a is the
    # previous iterate, d the last step and e the one before it.
    c, fc, d, e = a, fa, b - a, b - a
    for it in range(max_iter + 1):
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        if fb == 0.0:
            return b, fb, (b, b), n_evals
        m = 0.5 * (c - b)
        # a step of the spacing toward c lands on the next double, inside the bracket
        tol = max(0.5 * xtol, abs(math.nextafter(b, c) - b))
        if abs(c - b) <= max(xtol, tol) or it == max_iter:
            break
        if it == 0 and guess is not None and min(b, c) < guess < max(b, c) and abs(guess - b) > tol:
            e, d = d, guess - b
            a, fa, b = b, fb, guess
        else:
            p = q = 0.0  # fails the acceptance test below, so a bisection
            if abs(e) >= tol and abs(fb) < abs(fa):
                s = fb / fa
                if a == c:  # secant
                    p, q = 2.0 * m * s, 1.0 - s
                else:  # inverse quadratic interpolation
                    q, r = fa / fc, fb / fc
                    p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                    q = (q - 1.0) * (r - 1.0) * (s - 1.0)
                p, q = abs(p), -q if p > 0.0 else q  # accepted only with the sign of m
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
            a, fa = b, fb
            b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        n_evals += 1
        if (fb > 0.0) == (fc > 0.0):
            c, fc, d, e = a, fa, b - a, b - a
    return b, fb, (min(b, c), max(b, c)), n_evals
