"""Fundamental-solution boundary data for -w'' + alpha*psi(xi)*w = kappa2*w.

u (u(-1)=1, u'(-1)=0) and v (v(-1)=0, v'(-1)=1) are the columns of the
transfer matrix of y' = A y, y = (w, w'), A = [[0, 1], [alpha*psi - kappa2, 0]]
across [-1, 1].  It is built from fourth-order Magnus steps with two Gauss
nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009), each the closed-form
exponential of a traceless 2x2 matrix, so every step is unimodular.  Step
matrices form (alpha, step) arrays that are multiplied pairwise in a tree.

[-1, 1] is split into the cells of the profile's cell table, on each of
which psi is one polynomial.  A constant cell is one exact step, built once
per shoot.  The varying cells of an alpha share one n: each is cut into n
equal steps, n a power of two of at least START_RESOLUTION * width *
sqrt(|alpha|*peak + |kappa2|) on every varying cell (peak estimates max|psi|).

With P_n a cell's transfer matrix at n steps, R_n = P_n + (P_n - P_{n/2})/15
is its Richardson value.  n doubles, per alpha, until every varying cell has
|R_2n - R_n|/63 <= RTOL*max|R_2n| + ATOL; the Richardson value of the
product M of all cells is returned.  Every entry of M is then accurate to
about RTOL times the product of the cells' scales, not RTOL*max|M|: where
growth in one cell is followed by decay in another, a test on M alone would
ask a cell for accuracy below its rounding floor.  More than MAX_STEPS
steps, or a non-finite state, raises NumericalFailureError; past MAX_STEPS
the message gives the worst cell's last estimate and the bound it failed.

Everything downstream (resonance detection, the coupling ratio, scattering
coefficients) consumes only the boundary values returned here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .profiles import Cells, PotentialProfile

# Step-doubling tolerances, chosen so the boundary data supports root
# refinement in alpha down to ~1e-12 of bracket width.
RTOL = 1e-12
ATOL = 1e-14

#: steps across [-1, 1] beyond which a shoot fails instead of refining further
MAX_STEPS = 2**16

#: the first try has step * sqrt(|alpha|*peak + |kappa2|) <= 1 / START_RESOLUTION
#: on every varying cell; coarser steps would only add doublings, since the
#: tight defaults fail there
START_RESOLUTION = 8.0

#: alpha*step matrices per block, and entries per (2, 2, alpha, cell) array: bounds memory
BLOCK_ELEMENTS = 2**17

_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_COMMUTATOR = math.sqrt(3.0) / 12.0


@dataclass(frozen=True)
class FundamentalData:
    """Boundary values at xi=1 of the two fundamental solutions.

    wronskian_defect = |u1*dv1 - du1*v1 - 1| measures integration quality;
    the exact Wronskian is identically 1.  In double precision the defect
    acquires a floor of order eps_machine * max|M|^2, M the transfer matrix
    [[u1, v1], [du1, dv1]], so it grows for strongly hyperbolic runs;
    rel_wronskian_defect divides that floor out.
    """

    u1: float
    du1: float
    v1: float
    dv1: float
    wronskian_defect: float

    @property
    def rel_wronskian_defect(self) -> float:
        """|u1*dv1 - du1*v1 - 1| / max(1, max|M|)^2."""
        scale = max(1.0, abs(self.u1), abs(self.du1), abs(self.v1), abs(self.dv1))
        return self.wronskian_defect / (scale * scale)


def _step_matrices(alphas, kappa2, h, psi1, psi2):
    """exp(Omega) of every step, as a (2, 2, alpha, step) array.

    ``h``, ``psi1`` and ``psi2`` hold each step's width and psi at its two
    Gauss nodes.  With p = alpha*psi - kappa2 the Magnus exponent is
    Omega = [[a, h], [c, -a]], a = sqrt(3)/12 h^2 (p1 - p2),
    c = h (p1 + p2)/2, and Omega^2 = (a^2 + h c) I.
    """
    al = alphas[:, None]
    a = al * (_COMMUTATOR * h * h * (psi1 - psi2))
    c = al * (0.5 * h * (psi1 + psi2)) - h * kappa2
    s2 = a * a + h * c
    r = np.sqrt(np.abs(s2))
    hyper = s2 > 0.0
    cosine = np.where(hyper, np.cosh(r), np.cos(r))
    sine = np.where(hyper, np.sinh(r), np.sin(r)) / r
    sine[r == 0.0] = 1.0
    sa = sine * a
    m = np.empty((2, 2) + a.shape)
    m[0, 0] = cosine + sa
    m[0, 1] = sine * h
    m[1, 0] = sine * c
    m[1, 1] = cosine - sa
    return m


def _matmul(left, right):
    """2x2 products over the trailing axes of (2, 2, ...) arrays."""
    return left[:, :1] * right[:1] + left[:, 1:] * right[1:]


def _tree_product(m, size=1):
    """Ordered product M[n-1] ... M[1] M[0] along the last axis, pairwise, to ``size`` entries."""
    while m.shape[-1] > size:
        even = m.shape[-1] & ~1
        paired = _matmul(m[..., 1:even:2], m[..., 0:even:2])
        if even < m.shape[-1]:  # an odd step out waits for the next level
            paired = np.concatenate((paired, m[..., even:]), axis=-1)
        m = paired
    return m


def _cell_matrices(cells: Cells, rows, alphas, kappa2, n: int):
    """(2, 2, alpha, cell) transfer matrices of the cells ``rows``, each cut into n equal steps."""
    out = np.empty((2, 2, alphas.size, rows.size))
    if rows.size:
        widths = np.diff(cells.edges)[rows]
        unit = ((np.arange(n)[:, None] + _GAUSS) / n).ravel()  # Gauss nodes of a unit cell
        psi = cells.values((rows, None), cells.edges[rows, None] + widths[:, None] * unit)
        h, psi = np.repeat(widths / n, n), psi.reshape(-1, 2)
        block = max(1, BLOCK_ELEMENTS // h.size)
        for i in range(0, alphas.size, block):
            m = _step_matrices(alphas[i : i + block], kappa2, h, psi[:, 0], psi[:, 1])
            out[:, :, i : i + block] = _tree_product(m, rows.size)
    return out


def _refine(cells: Cells, varying, alphas, kappa2, const, n: int):
    """Richardson values of M at ``alphas`` from n steps per varying cell; ``const``: exact ones."""
    rows = np.flatnonzero(varying)

    def product(sel, p):  # M at the alphas ``sel`` from the varying cells' p
        mats = np.empty(p.shape[:3] + varying.shape)
        mats[..., ~varying], mats[..., varying] = const[:, :, sel], p
        m = _tree_product(mats)[..., 0]
        if not np.all(np.isfinite(m)):
            raise NumericalFailureError(
                f"shoot: non-finite state at kappa2={kappa2}, "
                f"alpha in [{alphas[sel].min()}, {alphas[sel].max()}]"
            )
        return m

    out, idx = np.empty((2, 2, alphas.size)), np.arange(alphas.size)
    p_prev = r_prev = estimate = bound = None
    while idx.size:
        if n * rows.size > MAX_STEPS:
            message = f"shoot: more than {MAX_STEPS} steps needed at alpha={alphas[idx[0]]}"
            if estimate is not None:
                c = np.argmax(estimate[0] - bound[0])  # the worst cell
                message += (
                    f"; the worst cell's last error estimate {estimate[0, c]:.3e} still exceeds "
                    f"RTOL*scale + ATOL = {bound[0, c]:.3e}; that cell may be at its rounding floor"
                )
            raise NumericalFailureError(message)
        p_n = _cell_matrices(cells, rows, alphas[idx], kappa2, n)
        if not rows.size:  # a product of exact steps
            return product(idx, p_n)
        r_n = None if p_prev is None else p_n + (p_n - p_prev) / 15.0
        if r_prev is not None:
            estimate = np.max(np.abs(r_n - r_prev), axis=(0, 1)) / 63.0
            bound = RTOL * np.max(np.abs(r_n), axis=(0, 1)) + ATOL
            done = ~np.any(estimate > bound, axis=-1)  # non-finite ones too: product raises
            if done.any():  # M at n and n/2, from one product of both levels
                k, sel = np.count_nonzero(done), np.tile(idx[done], 2)
                m = product(sel, np.concatenate((p_n[:, :, done], p_prev[:, :, done]), axis=2))
                out[..., sel[:k]] = m[..., :k] + (m[..., :k] - m[..., k:]) / 15.0
                keep = ~done
                idx, estimate, bound = idx[keep], estimate[keep], bound[keep]
                p_n, r_n = p_n[:, :, keep], r_n[:, :, keep]
        p_prev, r_prev, n = p_n, r_n, 2 * n
    return out


def _transfer(profile: PotentialProfile, alphas, kappa2):
    """(2, 2, alpha) transfer matrices across [-1, 1], refined by step doubling."""
    if not (np.all(np.isfinite(alphas)) and np.isfinite(kappa2)):
        raise NumericalFailureError("shoot: alpha and kappa2 must be finite")
    cells = profile.cells
    varying = np.isnan(cells.constant)
    widths, peak = np.diff(cells.edges)[varying, None], cells.peak[varying, None]
    block = max(1, BLOCK_ELEMENTS // (4 * varying.size))
    out = np.empty((2, 2, alphas.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(0, alphas.size, block):
            part = alphas[i : i + block]
            resolution = START_RESOLUTION * np.max(
                widths * np.sqrt(np.abs(part) * peak + abs(kappa2)), axis=0, initial=0.0
            )
            # capped exponent: anything past MAX_STEPS fails before it is built
            start = 2 ** np.ceil(np.log2(np.clip(resolution, 1.0, 2.0 * MAX_STEPS))).astype(int)
            const = _cell_matrices(cells, np.flatnonzero(~varying), part, kappa2, 1)
            for n in sorted(set(start.tolist())):  # alphas that start alike double together
                idx = np.flatnonzero(start == n)
                out[..., i + idx] = _refine(cells, varying, part[idx], kappa2, const[:, :, idx], n)
    return out


def shoot(profile: PotentialProfile, alpha: float, kappa2: float = 0.0) -> FundamentalData:
    """Boundary data of both fundamental solutions at xi=1.

    The one-alpha case of ``shoot_batch``, bit for bit.  RTOL and ATOL bound
    the step-doubling error estimate of every cell's transfer matrix, so
    every entry is accurate to about RTOL times the product of the cells'
    scales (module docstring).

    Raises NumericalFailureError on a non-finite alpha or state (e.g. alpha
    large enough that the solution overflows) or past MAX_STEPS steps.
    """
    m = _transfer(profile, np.array([float(alpha)]), float(kappa2))[..., 0]
    u1, du1, v1, dv1 = float(m[0, 0]), float(m[1, 0]), float(m[0, 1]), float(m[1, 1])
    defect = abs(u1 * dv1 - du1 * v1 - 1.0)
    return FundamentalData(u1, du1, v1, dv1, defect)


def shoot_batch(profile: PotentialProfile, alphas, kappa2: float = 0.0):
    """Boundary data for many alpha at once, each as accurate as ``shoot``.

    Step matrices are built over (alpha, step) arrays of at most
    BLOCK_ELEMENTS entries, and the step count doubles per alpha, so every
    entry equals ``shoot`` at that alpha bit for bit.

    Returns four arrays (u1, du1, v1, dv1) aligned with ``alphas``.  Raises
    InvalidInputError unless ``alphas`` is a 1-D sequence of numbers.
    """
    try:
        alphas = np.asarray(list(alphas), dtype=float)
    except (TypeError, ValueError):
        alphas = None
    if alphas is None or alphas.ndim != 1:
        raise InvalidInputError("shoot_batch: alphas must be a 1-D sequence of numbers")
    if alphas.size == 0:
        return tuple(np.empty(0) for _ in range(4))
    m = _transfer(profile, alphas, float(kappa2))
    return m[0, 0], m[1, 0], m[0, 1], m[1, 1]


def neumann_mismatch(profile: PotentialProfile, alpha: float) -> float:
    """g(alpha) = u'(1; 0, alpha): zero exactly at the resonant couplings.

    Continuous in alpha; g(0) = 0 for every profile since alpha=0 makes the
    equation free and u identically 1.
    """
    return shoot(profile, alpha, 0.0).du1
