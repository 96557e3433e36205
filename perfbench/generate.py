"""Seeded generator of delta-prime-like test profiles.

A generated profile is piecewise polynomial on [-1, 1] with 2-5 pieces of
one degree (0, 1 or 2).  Random coefficients are shifted by a constant so
that m0 = 0 (the shift leaves m1 unchanged, because x integrates to 0 over
[-1, 1]) and then scaled so that m1 = -1.  Draws whose first moment is too
small to scale without blowing up the amplitude are redrawn.

Profiles travel as plain data (a segment list, or sampled nodes) so the
reference code and the set-up timing child can rebuild them without the
package objects.
"""

from __future__ import annotations

import random

import numpy as np

from reference import segment_moments

#: smallest |m1| accepted before scaling; bounds the amplitude of the result
MIN_ABS_M1 = 0.2
MIN_PIECE = 0.1


def generate_segments(rng: random.Random, degree: int, pieces: int | None = None):
    """One delta-prime-like segment list of the given degree (and piece count, else 2-5)."""
    while True:
        n = pieces or rng.randint(2, 5)
        while True:
            cuts = sorted(rng.uniform(-1.0, 1.0) for _ in range(n - 1))
            edges = [-1.0, *cuts, 1.0]
            if min(b - a for a, b in zip(edges[:-1], edges[1:])) >= MIN_PIECE:
                break
        segs = [
            (a, b, [rng.gauss(0.0, 1.0) for _ in range(degree + 1)])
            for a, b in zip(edges[:-1], edges[1:])
        ]
        m0, m1 = segment_moments(segs)
        if abs(m1) < MIN_ABS_M1:
            continue
        shift = m0 / 2.0
        scale = -1.0 / m1
        return tuple(
            (a, b, tuple(scale * (c - shift if j == 0 else c) for j, c in enumerate(cs)))
            for a, b, cs in segs
        )


def sample_segments(segments, n_nodes: int):
    """Uniform samples (xi, psi) of a segment list on [-1, 1]."""
    xi = np.linspace(-1.0, 1.0, n_nodes)
    psi = np.zeros(n_nodes)
    for i, x in enumerate(xi):
        for a, b, coeffs in segments:
            if a <= x <= b:
                psi[i] = sum(c * x**j for j, c in enumerate(coeffs))
                break
    return tuple(xi.tolist()), tuple(psi.tolist())
