"""Fundamental-solution boundary data for -w'' + alpha*psi(xi)*w = kappa2*w.

u (u(-1)=1, u'(-1)=0) and v (v(-1)=0, v'(-1)=1) are the columns of the
transfer matrix of y' = A y, y = (w, w'), A = [[0, 1], [alpha*psi - kappa2, 0]]
across [-1, 1].  It is built from fourth-order Magnus steps with two Gauss
nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 2009), each the closed-form
exponential of a traceless 2x2 matrix, so every step is unimodular.  Step
matrices form (alpha, step) arrays that are multiplied pairwise in a tree.

[-1, 1] is split into the cells of the profile's cell table, on each of
which psi is one polynomial.  The table lists the varying and the constant
ones (``Cells.varying``, ``Cells.constant``) and holds the varying cells'
widths and peaks (``Cells.reach``, peak estimates max|psi|): derived once per
profile with the table, not per shoot.  A constant cell is one exact step,
built once per shoot; a profile with none builds no such step and multiplies
the varying cells' matrices alone.  The varying cells of an alpha share one
n: each is cut into n equal steps, n a power of two of at least
START_RESOLUTION * width * sqrt(|alpha|*peak + |kappa2|) on every varying cell.

A step's exponent is alpha times one factor plus kappa2 times another, and
the factors depend only on the step (``_step_matrices``).  So for each n the
varying cells have one node table, every step's width and its two factors,
and the constant cells have one at n = 1.  A table is built on first use
and kept read-only in the profile's ``Cells.nodes``: a search shoots one
profile at one n many times (the scan, then Brent's shoots), and each
shoot then evaluates no polynomial.  The tables live and die with their
profile and hold nothing that depends on alpha or kappa2.  A table of more
than MAX_STEPS steps is never built, and n doubles, so one profile keeps at
most 2*MAX_STEPS steps of its varying cells and one per constant cell, x 3
float64 arrays: about 3 MiB, besides one index per constant cell and two
floats per varying cell in the cell table.  The concatenated tables of a
fused pass (below) and every step-matrix buffer are built per call, at most
FUSE_ELEMENTS steps for the tables, and not kept.

With P_n a cell's transfer matrix at n steps, R_n = P_n + (P_n - P_{n/2})/15
is its Richardson value.  n doubles, per alpha, until every varying cell has
|R_2n - R_n|/63 <= RTOL*max|R_2n| + ATOL; the Richardson value of the
product M of all cells is returned.  Alphas that start at one n double
together, and a group whose alphas all converge at one level, the usual
case, returns that level's products as they are.  Every entry of M is then accurate to
about RTOL times the product of the cells' scales, not RTOL*max|M|: where
growth in one cell is followed by decay in another, a test on M alone would
ask a cell for accuracy below its rounding floor.  More than MAX_STEPS
steps, or a non-finite state, raises NumericalFailureError; past MAX_STEPS
the message gives the worst cell's last estimate and the bound it failed.

Every alpha needs the levels n, 2n and 4n before its first estimate.  A call
of at most FUSE_ELEMENTS steps x alphas over the three, such as a single
shoot, builds them in one pass: one ``_step_matrices`` call over their node
tables concatenated finest first, then one tree (``_level_products``) that
takes each level out when it is down to one entry per cell.  Each level is a
power of two, so every pair lies in one cell of one level and each entry has
the arithmetic of a level built alone, bit for bit.  Levels past 4n and the
levels of a larger call, whose arrays gain nothing from one pass, are built
one at a time; no level past MAX_STEPS is built.

A profile also keeps its last single shoot.  ``shoot`` stores one tuple
of a key and the FundamentalData it returned in ``Cells.last_shot``, and a
call with that key returns the kept object without shooting, so
``asymptotic_coeffs`` and then ``q_factor`` at one alpha shoot (alpha, 0)
once.  The key is the exact bits of alpha and kappa2, so 0.0 and -0.0
differ, together with RTOL, ATOL, MAX_STEPS and START_RESOLUTION, so a
changed tolerance or cap shoots again.  There is one entry per profile; a
search's bracket ends are kept by the search (``resonance``).  Only a shoot
that succeeds is stored.  The entry is replaced as one tuple, so a thread
reads either the old or the new key with its own data, never a mix.
``shoot_batch`` neither reads nor writes it.

Everything downstream (resonance detection, the coupling ratio, scattering
coefficients) consumes only the boundary values returned here.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, _array, _real
from .profiles import Cells, PotentialProfile, _read_only

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

#: alpha*step matrices per block, and entries per (2, 2, alpha, cell) array.  At
#: 2**15 a block's (2, 2, alpha, step) array takes 1 MiB and each temporary
#: 256 KiB, so a block stays in a 2 MiB L2 cache; at 2**17 (4 MiB, 1 MiB
#: temporaries) it spills, and a 401-alpha scan of seba-quadratic takes 1.5x as long
BLOCK_ELEMENTS = 2**15

#: steps x alphas up to which a shoot builds its first three doubling levels
#: in one pass.  Below it a level is overhead-bound (about 20 ufunc calls plus
#: a tree of products for a few thousand entries), and one pass makes a warm
#: tight shoot about 30% faster; above it one pass saves no arithmetic, and its
#: larger arrays cost page faults: a fused 8-alpha seba-quadratic batch (7,168
#: entries) took 80 minor faults per call and was no faster
FUSE_ELEMENTS = 2**12

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


def _step_matrices(alphas, kappa2, h, a_h, c_h, m):
    """exp(Omega) of every step, written into and returned as m, a (2, 2, alpha, step) array.

    ``h``, ``a_h`` and ``c_h`` are a node table (``_nodes``): each step's
    width h and, with psi1 and psi2 psi at its two Gauss nodes,
    a_h = sqrt(3)/12 h^2 (psi1 - psi2) and c_h = h (psi1 + psi2)/2.  The
    Magnus exponent is Omega = [[a, h], [c, -a]] with a = alpha*a_h and
    c = alpha*c_h - h*kappa2, and Omega^2 = s2 I, s2 = a^2 + h c.  Only the
    cosh and sinh of the hyperbolic steps (s2 > 0) and the cos and sin of
    the others are evaluated.  Two entries of m hold s2 and sqrt|s2| until
    they are written, so a call allocates only two float (alpha, step) arrays.
    """
    al = alphas[:, None]
    a = al * a_h
    c = al * c_h
    c -= h * kappa2
    s2, r = m[0, 0], m[1, 0]  # scratch until the entries are written
    np.multiply(c, h, out=s2)
    np.multiply(a, a, out=r)
    s2 += r  # a*a + h*c
    hyper = s2 > 0.0
    trig = ~hyper
    np.sqrt(np.abs(s2, out=r), out=r)
    cosine, sine = m[1, 1], m[0, 1]
    np.cosh(r, out=cosine, where=hyper)
    np.cos(r, out=cosine, where=trig)
    np.sinh(r, out=sine, where=hyper)
    np.sin(r, out=sine, where=trig)
    sine /= r
    sine[r == 0.0] = 1.0
    sa = np.multiply(sine, a, out=a)
    np.add(cosine, sa, out=m[0, 0])
    cosine -= sa
    np.multiply(sine, c, out=m[1, 0])
    sine *= h
    return m


def _matmul(left, right):
    """2x2 products over the trailing axes of (2, 2, ...) arrays."""
    out = left[:, :1] * right[:1]
    out += left[:, 1:] * right[1:]
    return out


def _tree_product(m):
    """Ordered product M[n-1] ... M[1] M[0] along the last axis, pairwise."""
    while m.shape[-1] > 1:
        even = m.shape[-1] & ~1
        paired = _matmul(m[..., 1:even:2], m[..., 0:even:2])
        if even < m.shape[-1]:  # an odd step out waits for the next level
            paired = np.concatenate((paired, m[..., even:]), axis=-1)
        m = paired
    return m


def _level_products(m, count, n):
    """The (2, 2, alpha, cell) products of fused levels, coarsest level first.

    m holds the levels' steps along its last axis, finest level first: the
    coarsest has ``count`` cells of n steps, n a power of two, and each level
    before it twice the steps of the next.  So every pair formed lies in one
    cell of one level, each product has ``_tree_product``'s arithmetic bit for
    bit, and a level is taken out when it is down to one entry per cell.
    """
    products = []
    while True:
        if n == 1:
            cut = m.shape[-1] - count
            products.append(m[..., cut:])
            if not cut:
                return products
            m, n = m[..., :cut], 2
        m, n = _matmul(m[..., 1::2], m[..., 0::2]), n // 2


def _nodes(cells: Cells, varying: bool, n: int):
    """The node table (h, a_h, c_h) of the varying or the constant cells, each cut into n steps.

    Built on first use and kept read-only in ``cells.nodes``, keyed by
    (varying, n), since it does not depend on alpha or kappa2.
    """
    table = cells.nodes.get((varying, n))
    if table is None:
        rows = cells.varying if varying else cells.constant
        widths = np.diff(cells.edges)[rows]
        unit = ((np.arange(n)[:, None] + _GAUSS) / n).ravel()  # Gauss nodes of a unit cell
        psi = cells.values((rows, None), cells.edges[rows, None] + widths[:, None] * unit)
        h, psi = np.repeat(widths / n, n), psi.reshape(-1, 2)
        psi1, psi2 = psi[:, 0], psi[:, 1]
        table = (h, _COMMUTATOR * h * h * (psi1 - psi2), 0.5 * h * (psi1 + psi2))
        table = cells.nodes.setdefault((varying, n), _read_only(*table))
    return table


def _cell_matrices(cells: Cells, varying: bool, alphas, kappa2, n: int, levels: int = 1):
    """(2, 2, alpha, cell) transfer matrices of the varying or the constant
    cells, each cut into n, 2n, ... 2**(levels-1)*n steps: one per level, from n up.

    The levels share one ``_step_matrices`` call per block, over their node
    tables concatenated finest first, and every block writes into one buffer.
    """
    tables = [_nodes(cells, varying, n << k) for k in reversed(range(levels))]
    table = tables[0] if levels == 1 else tuple(map(np.concatenate, zip(*tables)))
    count = (cells.varying if varying else cells.constant).size
    block = max(1, BLOCK_ELEMENTS // table[0].size)
    m = np.empty((2, 2, min(block, alphas.size), table[0].size))
    if alphas.size <= block:
        return _level_products(_step_matrices(alphas, kappa2, *table, m), count, n)
    out = [np.empty((2, 2, alphas.size, count)) for _ in range(levels)]
    for i in range(0, alphas.size, block):
        part = alphas[i : i + block]
        steps = _step_matrices(part, kappa2, *table, m[:, :, : part.size])
        for o, p in zip(out, _level_products(steps, count, n)):
            o[:, :, i : i + block] = p
    return out


def _finite(m, kappa2, alphas):
    """m, the (2, 2, alpha) products at ``alphas``, unless an entry is not finite."""
    if not np.isfinite(m).all():
        raise NumericalFailureError(
            f"shoot: non-finite state at kappa2={kappa2}, alpha in [{alphas.min()}, {alphas.max()}]"
        )
    return m


def _refine(cells: Cells, alphas, kappa2, const, n: int):
    """Richardson values of M at ``alphas`` from n steps per varying cell.

    ``const`` holds the constant cells' exact matrices, None when there are none.
    """
    rows = cells.varying

    def richardson(at, p_n, p_prev):  # M at the alphas ``at`` from one product of both levels
        k, p = p_n.shape[2], np.concatenate((p_n, p_prev), axis=2)
        if const is not None:  # the exact constant cells go in between
            c = const[:, :, at]
            mats = np.empty(p.shape[:3] + cells.peak.shape)
            mats[..., cells.constant], mats[..., rows] = np.concatenate((c, c), axis=2), p
            p = mats
        m = _finite(_tree_product(p)[..., 0], kappa2, alphas[at])
        return m[..., :k] + (m[..., :k] - m[..., k:]) / 15.0

    out, idx = None, slice(None)  # the alphas still refining: all until some converge
    p_prev = r_prev = estimate = bound = None
    first = []  # levels built ahead: every alpha needs n, 2n and 4n
    if 7 * n * rows.size * alphas.size <= FUSE_ELEMENTS:
        fused = sum((n << k) * rows.size <= MAX_STEPS for k in range(3))  # the rest raise below
        first = _cell_matrices(cells, True, alphas, kappa2, n, fused) if fused else []
    while True:
        if n * rows.size > MAX_STEPS:
            message = f"shoot: more than {MAX_STEPS} steps needed at alpha={alphas[idx][0]}"
            if estimate is not None:
                c = np.argmax(estimate[0] - bound[0])  # the worst cell
                message += (
                    f"; the worst cell's last error estimate {estimate[0, c]:.3e} still exceeds "
                    f"RTOL*scale + ATOL = {bound[0, c]:.3e}; that cell may be at its rounding floor"
                )
            raise NumericalFailureError(message)
        p_n = first.pop(0) if first else _cell_matrices(cells, True, alphas[idx], kappa2, n)[0]
        r_n = None if p_prev is None else p_n + (p_n - p_prev) / 15.0
        if r_prev is not None:
            estimate = np.abs(r_n - r_prev).max(axis=(0, 1)) / 63.0
            bound = RTOL * np.abs(r_n).max(axis=(0, 1)) + ATOL
            done = ~(estimate > bound).any(axis=-1)  # non-finite ones too: the product raises
            if done.all():  # M at n and n/2, for every alpha left
                m = richardson(idx, p_n, p_prev)
                if out is None:
                    return m
                out[..., idx] = m
                return out
            if done.any():
                if out is None:
                    out, idx = np.empty((2, 2, alphas.size)), np.arange(alphas.size)
                out[..., idx[done]] = richardson(idx[done], p_n[:, :, done], p_prev[:, :, done])
                keep = ~done
                idx, estimate, bound = idx[keep], estimate[keep], bound[keep]
                p_n, r_n = p_n[:, :, keep], r_n[:, :, keep]
        p_prev, r_prev, n = p_n, r_n, 2 * n


def _block(cells: Cells, alphas, kappa2):
    """(2, 2, alpha) transfer matrices of one block of alphas, refined by step doubling.

    An alpha's first n is the least power of two of at least START_RESOLUTION
    * width * sqrt(|alpha|*peak + |kappa2|) on every varying cell, from the
    profile's ``cells.reach``; alphas that start alike double together.
    """
    const = _cell_matrices(cells, False, alphas, kappa2, 1)[0] if cells.constant.size else None
    if not cells.varying.size:  # a product of exact steps, one per cell
        return _finite(_tree_product(const)[..., 0], kappa2, alphas)
    widths, peak = cells.reach
    scale = widths * np.sqrt(np.abs(alphas) * peak + abs(kappa2))
    resolution = START_RESOLUTION * scale.max(axis=0)
    # capped exponent: anything past MAX_STEPS fails before it is built
    capped = np.minimum(np.maximum(resolution, 1.0), 2.0 * MAX_STEPS)
    start = 2 ** np.ceil(np.log2(capped)).astype(int)
    starts = sorted(set(start.tolist()))
    if len(starts) == 1:
        return _refine(cells, alphas, kappa2, const, starts[0])
    out = np.empty((2, 2, alphas.size))
    for n in starts:
        idx = np.flatnonzero(start == n)
        part = None if const is None else const[:, :, idx]
        out[..., idx] = _refine(cells, alphas[idx], kappa2, part, n)
    return out


def _transfer(profile: PotentialProfile, alphas, kappa2):
    """(2, 2, alpha) transfer matrices across [-1, 1], refined by step doubling."""
    if not (np.isfinite(alphas).all() and np.isfinite(kappa2)):
        raise NumericalFailureError("shoot: alpha and kappa2 must be finite")
    cells = profile.cells
    block = max(1, BLOCK_ELEMENTS // (4 * cells.peak.size))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = [_block(cells, alphas[i : i + block], kappa2) for i in range(0, alphas.size, block)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=2)


def shoot(profile: PotentialProfile, alpha: float, kappa2: float = 0.0) -> FundamentalData:
    """Boundary data of both fundamental solutions at xi=1.

    The one-alpha case of ``shoot_batch``, bit for bit.  RTOL and ATOL bound
    the step-doubling error estimate of every cell's transfer matrix, so
    every entry is accurate to about RTOL times the product of the cells'
    scales (module docstring).

    The profile keeps the last point shot and its result, one entry keyed
    by the exact bits of alpha and kappa2 and by RTOL, ATOL, MAX_STEPS and
    START_RESOLUTION; a repeat of that call returns the kept object.  The
    entry is stored only after a shoot succeeds and is replaced as one
    tuple, so threads sharing a profile stay safe.

    Raises InvalidInputError when alpha or kappa2 is not a real number (the
    gate in ``errors``), and NumericalFailureError on a non-finite alpha,
    kappa2 or state (e.g. alpha large enough that the solution overflows) or
    past MAX_STEPS steps.
    """
    alpha, kappa2 = _real(alpha, "shoot: alpha"), _real(kappa2, "shoot: kappa2")
    cells = profile.cells
    key = (struct.pack("2d", alpha, kappa2), RTOL, ATOL, MAX_STEPS, START_RESOLUTION)
    last = cells.last_shot[0]
    if last is not None and last[0] == key:
        return last[1]
    m = _transfer(profile, np.array([alpha]), kappa2)
    (u1, v1), (du1, dv1) = m[..., 0].tolist()
    defect = abs(u1 * dv1 - du1 * v1 - 1.0)
    fd = FundamentalData(u1, du1, v1, dv1, defect)
    cells.last_shot[0] = key, fd
    return fd


def shoot_batch(profile: PotentialProfile, alphas, kappa2: float = 0.0):
    """Boundary data for many alpha at once, each as accurate as ``shoot``.

    Step matrices are built over (alpha, step) arrays of at most
    BLOCK_ELEMENTS entries, and the step count doubles per alpha, so every
    entry equals ``shoot`` at that alpha bit for bit.

    Returns four arrays (u1, du1, v1, dv1) aligned with ``alphas``.  Raises
    InvalidInputError unless ``alphas`` is a 1-D sequence of real numbers and
    kappa2 a real number (the gate in ``errors``), and NumericalFailureError
    as ``shoot`` does, on a non-finite alpha or kappa2 among them.
    """
    alphas = _array(alphas, "shoot_batch: alphas", finite=False)
    if alphas.ndim != 1:
        raise InvalidInputError(f"shoot_batch: alphas must be 1-D, got shape {alphas.shape}")
    alphas = alphas.astype(float, copy=False)
    kappa2 = _real(kappa2, "shoot_batch: kappa2")
    if alphas.size == 0:
        return tuple(np.empty(0) for _ in range(4))
    m = _transfer(profile, alphas, kappa2)
    return m[0, 0], m[1, 0], m[0, 1], m[1, 1]


def neumann_mismatch(profile: PotentialProfile, alpha: float) -> float:
    """g(alpha) = u'(1; 0, alpha): zero exactly at the resonant couplings.

    Continuous in alpha; g(0) = 0 for every profile since alpha=0 makes the
    equation free and u identically 1.  Raises as ``shoot`` does: a non-finite
    alpha is a NumericalFailureError.
    """
    return shoot(profile, _real(alpha, "neumann_mismatch: alpha"), 0.0).du1
