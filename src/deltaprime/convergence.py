"""Discretized resolvent comparison between the scaled operators and their limit.

The scaled Schrodinger operator -d^2/dx^2 + alpha*eps^-2*psi(x/eps) and the
candidate limit operator are discretized with second-order central
differences on a truncated symmetric interval (-L, L) with homogeneous
Dirichlet ends.  The grid is staggered so x = 0 falls midway between two
nodes: the interface conditions of the connected limit operator and the
Dirichlet pair are then representable without a node at the origin.

The study applies both resolvents to a fixed battery of test functions and
reports the relative discrete-L2 errors per eps together with a fitted
log-log rate.  This is a practical surrogate for the operator-norm resolvent
difference, and is reported as such.

Every operator of a study differs from the free second difference only on a
window W around the origin: the nodes where some scaled potential can be
nonzero and the limit's interface rows, padded by two nodes.  So each
operator is built on W alone, by the row builders behind discretize_seps
and discretize_limit, and the two exterior blocks outside W are free rows by
construction: they are solved at their own length, for the battery and for
the unit vector at their inner end, which gives the boundary Green's column
g.  Each operator's W system takes the exterior as a Schur complement in
its end rows: -h^-4*g_end on the diagonal and h^-2*Y_end on the right-hand
side (Y the exterior battery solution).  Outside W two solutions differ by
a multiple of g, so the error norm is the W difference plus a rank-one tail
per side, h^-2*|dX_end|*||g||, and no full-length solution is formed per
operator.  Each sub-solve is solved and checked once, by the routine behind
resolvent_apply, whose residual norms also bound the operator's full-system
residual.

What a study takes from its battery default_test_functions(grid) (the
window's rows of F, the full-grid column norms of F and the two exterior
records) depends only on the grid and the window, not on the profile's
values or alpha.  It is kept across calls, keyed on (grid, a, b) with
W = [a, b), for the last BATTERY_CACHE_SIZE keys: a warm study solves no
exterior and builds no N-row array but the grid's nodes.  An entry holds
(b - a) x 3 floats plus O(1) per side, every array read-only; an exterior
that fails its gate raises before anything is stored.  A cold study's memory
peaks in its exterior solves: the battery's N x 3 floats, and per side one
complex block [F_side | e] that LAPACK solves in place and one complex band,
87 bytes per grid node in all (MAX_GRID_NODES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, _array, _finite
from .profiles import PotentialProfile, _read_only
from .resonance import Classification, NonResonant, Resonant, classify

DEFAULT_EPS_LIST = (0.2, 0.1, 0.05, 0.025)
DEFAULT_L = 20.0
DEFAULT_K2 = 1j
MIN_RESOLUTION = 16.0  # required nodes per eps half-width of the scaled potential

#: default nodes-per-eps for study grids.  Pointwise sampling of the scaled
#: potential detunes the discrete resonance by O((h/eps)^2) relative to the
#: resonance width ~eps*|k|*|q|/g'; at the minimal resolution 16 the detuning
#: dominates the smallest default eps, so studies resolve much finer.
STUDY_RESOLUTION = 128.0

#: (grid, window) keys whose battery solves a study keeps
BATTERY_CACHE_SIZE = 4

#: largest N a Grid accepts.  A cold study peaks at 87 bytes per node (tracemalloc,
#: N = 51,200 to 819,200), so about 365 MB at this bound; a full-grid resolvent_apply
#: of a 3-column block at 99 bytes per node when tridiagonal, 356 when pentadiagonal.
MAX_GRID_NODES = 2**22

KIND_SEPS = "scaled-potential"
KIND_CONNECTED = "limit-connected"
KIND_DIRICHLET_PAIR = "limit-dirichlet-pair"


@dataclass(frozen=True)
class Grid:
    """Staggered uniform grid: N interior nodes on (-L, L), h = 2L/(N+1).

    N must be an even integer, so the nodes are symmetric about 0 with the
    origin midway between the two middle nodes, and at most MAX_GRID_NODES.
    L must be finite (the gate in ``errors``) and exceed 1.
    """

    L: float
    N: int

    def __post_init__(self):
        if not _finite(self.L, "Grid: L") > 1.0:
            raise InvalidInputError(f"Grid: L must exceed 1, got {self.L}")
        if not isinstance(self.N, (int, np.integer)):
            raise InvalidInputError(f"Grid: N must be an integer, got {self.N!r}")
        if self.N < 64:
            raise InvalidInputError(f"Grid: N must be at least 64, got {self.N}")
        if self.N % 2 != 0:
            raise InvalidInputError(
                f"Grid: N must be even so that x=0 lies midway between nodes, got {self.N}"
            )
        if self.N > MAX_GRID_NODES:
            raise InvalidInputError(
                f"Grid: N = {self.N} exceeds MAX_GRID_NODES = {MAX_GRID_NODES}; "
                "coarsen the grid or raise the smallest eps"
            )

    @property
    def h(self) -> float:
        return 2.0 * self.L / (self.N + 1)

    def nodes(self) -> np.ndarray:
        return -self.L + self.h * np.arange(1, self.N + 1)

    @property
    def interface(self) -> tuple[int, int]:
        """Indices of the nodes at -h/2 and +h/2."""
        return self.N // 2 - 1, self.N // 2


def make_grid(eps_min: float, L: float = DEFAULT_L, resolution: float = MIN_RESOLUTION) -> Grid:
    """Smallest admissible grid resolving eps_min with the given nodes-per-eps.

    Raises InvalidInputError unless all three are positive (the gate in ``errors``).
    """
    eps_min = _finite(eps_min, "make_grid: eps_min", positive=True)
    L = _finite(L, "make_grid: L", positive=True)
    resolution = _finite(resolution, "make_grid: resolution", positive=True)
    n_plus_1 = math.ceil(2.0 * L * resolution / eps_min)
    if n_plus_1 % 2 == 0:
        n_plus_1 += 1  # N even requires N+1 odd
    return Grid(L=L, N=max(64, n_plus_1 - 1))


@dataclass(frozen=True)
class DiscreteOperator:
    """Banded n x n matrix A held as one array ab of shape (2w+1, n), with
    A[i, j] = ab[w + i - j, j]: the layout scipy.linalg.solve_banded((w, w),
    ab, b) reads.  Entries of ab outside the matrix are never read.

    The builder fixes w: 2 for a resonant limit with theta != 1, whose
    interface rows reach two nodes across the origin, and 1 for every other
    operator.  The off-diagonals are real; the diagonal is real for every
    discretization, and only the window systems of ``study`` carry a complex
    one, from the exterior's Schur corrections.
    """

    ab: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def w(self) -> int:
        return len(self.ab) // 2

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    @property
    def diag(self) -> np.ndarray:
        return self.ab[self.w]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for one vector (n,) or a block of columns (n, m)."""
        xt = x.T
        y = self.diag * xt
        _add_off_diagonals(self.ab, y, xt)
        return y.T

    def to_dense(self) -> np.ndarray:
        A = np.zeros((self.n, self.n), dtype=self.ab.dtype)
        for k in range(-self.w, self.w + 1):  # A[j + k, j] for the columns j it has
            j = np.arange(max(0, -k), min(self.n, self.n - k))
            A[j + k, j] = self.ab[self.w + k, j]
        return A

    def shifted_banded(self, shift: complex) -> np.ndarray:
        """A - shift*I as a complex copy of ab."""
        ab = self.ab.astype(complex)
        ab[self.w] -= shift
        return ab

    @property
    def inf_norm(self) -> float:
        """max_i sum_j |A[i, j]|, summed over the band one diagonal at a time."""
        w, ab = self.w, self.ab
        rows = np.abs(ab[w])
        for d in range(1, w + 1):
            rows[d:] += np.abs(ab[w + d, :-d])  # A[i + d, i]
            rows[:-d] += np.abs(ab[w - d, d:])  # A[i, i + d]
        return float(rows.max())


def _add_off_diagonals(ab: np.ndarray, y: np.ndarray, xt: np.ndarray) -> None:
    """y += (A - diag(A)) x for A held as ab, with x and y laid out as (..., n)."""
    w = len(ab) // 2
    for d in range(1, w + 1):
        y[..., d:] += ab[w + d, :-d] * xt[..., :-d]  # A[i + d, i]
        y[..., :-d] += ab[w - d, d:] * xt[..., d:]  # A[i, i + d]


def solve_banded(l_and_u, ab, b):
    """scipy.linalg.solve_banded, imported on the first solve so that
    importing the package loads no scipy.  ab and b may be overwritten:
    every caller hands it fresh copies."""
    from scipy.linalg import solve_banded as solve

    return solve(l_and_u, ab, b, overwrite_ab=True, overwrite_b=True)


def _free_rows(n: int, h: float) -> np.ndarray:
    """Band array (w = 1) of the free second difference on n nodes."""
    inv_h2 = 1.0 / (h * h)
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -inv_h2
    ab[1] = 2.0 * inv_h2
    return ab


def _seps_rows(
    profile: PotentialProfile, alpha: float, eps: float, h: float, x: np.ndarray
) -> DiscreteOperator:
    """discretize_seps' rows and columns on the consecutive nodes x of spacing h."""
    if eps / h < MIN_RESOLUTION:
        raise InvalidInputError(
            f"discretize_seps: eps/h = {eps / h:.2f} is below the resolution "
            f"requirement {MIN_RESOLUTION}; refine the grid or increase eps"
        )
    ab = _free_rows(len(x), h)
    ab[1] += (alpha / (eps * eps)) * profile.eval(x / eps)
    return DiscreteOperator(ab, KIND_SEPS, {"alpha": alpha, "eps": eps})


def discretize_seps(
    profile: PotentialProfile, alpha: float, eps: float, grid: Grid
) -> DiscreteOperator:
    """Central-difference matrix of -d^2/dx^2 + alpha*eps^-2*psi(x/eps).

    Requires eps/h >= 16 so the scaled potential is resolved.  Raises
    InvalidInputError unless alpha is finite and eps positive (the gate in ``errors``).
    """
    alpha = _finite(alpha, "discretize_seps: alpha")
    eps = _finite(eps, "discretize_seps: eps", positive=True)
    return _seps_rows(profile, alpha, eps, grid.h, grid.nodes())


def _limit_rows(c: Classification, h: float, n: int, im: int) -> DiscreteOperator:
    """discretize_limit's rows and columns on n consecutive nodes of spacing h,
    of which im and im + 1 are the nodes at -h/2 and +h/2; the run must hold
    im - 1 and im + 2."""
    inv_h2 = 1.0 / (h * h)
    ab = _free_rows(n, h)
    ip = im + 1

    if isinstance(c, NonResonant):
        ab[1, im] = ab[1, ip] = 3.0 * inv_h2
        ab[0, ip] = ab[2, im] = 0.0  # A[im, ip] and A[ip, im]
        return DiscreteOperator(ab, KIND_DIRICHLET_PAIR, {})

    if not isinstance(c, Resonant):
        raise InvalidInputError(
            f"discretize_limit: expected a Classification, got {type(c).__name__}"
        )
    th = c.theta
    if th == 1.0:
        return DiscreteOperator(ab, KIND_CONNECTED, {"theta": th})
    d = 1.0 + th * th
    interface = {
        # row at -h/2
        (im, im - 1): -(3.0 + 4.0 * th * th) / (3.0 * d),
        (im, im): (1.0 + 4.0 * th * th) / d,
        (im, ip): -3.0 * th / d,
        (im, ip + 1): th / (3.0 * d),
        # row at +h/2
        (ip, im - 1): th / (3.0 * d),
        (ip, im): -3.0 * th / d,
        (ip, ip): (th * th + 4.0) / d,
        (ip, ip + 1): -(4.0 + 3.0 * th * th) / (3.0 * d),
    }
    ab = np.pad(ab, ((1, 1), (0, 0)))  # w = 2
    for (i, j), a in interface.items():
        ab[2 + i - j, j] = a * inv_h2
    return DiscreteOperator(ab, KIND_CONNECTED, {"theta": th})


def discretize_limit(c: Classification, grid: Grid) -> DiscreteOperator:
    """Matrix of the limit operator on the staggered grid.

    NonResonant: two decoupled Dirichlet half-line blocks.  The boundary
    x=0 sits half a cell beyond each interface node, handled by odd
    reflection (diagonal 3/h^2, exact block separation).

    Resonant(theta): the rows adjacent to 0 eliminate ghost values through
    the interface conditions y(0+) = theta*y(0-), theta*y'(0+) = y'(0-);
    traces at 0 are reconstructed to O(h^3) with three-point one-sided
    stencils, giving an O(h) interface truncation error and a globally
    second-order scheme.  theta = 1 is the free line and is represented
    exactly by the unbroken stencil.
    """
    return _limit_rows(c, grid.h, grid.N, grid.interface[0])


def _sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared 2-norms of the columns of a real or complex (n, m) block."""
    sq = np.einsum("ij,ij->j", a.real, a.real)
    if np.iscomplexobj(a):
        sq += np.einsum("ij,ij->j", a.imag, a.imag)
    return sq


class _WithUnit(NamedTuple):
    """The right-hand side [F | e] of an exterior solve: F's columns, then the
    unit vector e at row ``row``, read from F where it lies.  Like an (n, m)
    array it has a shape, and iterating its ``T`` yields its columns."""

    F: np.ndarray
    row: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.F), self.F.shape[1] + 1

    @property
    def T(self) -> list[np.ndarray]:
        e = np.zeros(len(self.F))
        e[self.row] = 1.0
        return [*self.F.T, e]


def _residual_norms(op: DiscreteOperator, k2: complex, x: np.ndarray, f) -> np.ndarray:
    """Column 2-norms of (A - k2*I) x - f for an (n, m) block x and a right-hand
    side f of that shape (an array or a _WithUnit), one column of temporaries
    at a time.

    The real off-diagonals act on the real and imaginary parts of x
    separately, so no complex product of a column is formed.
    """
    d = op.diag - k2
    off = op.ab.real
    sq = np.empty(x.shape[1])
    for j, fj in enumerate(f.T):
        xr, xi = x[:, j].real, x[:, j].imag
        rr = d.real * xr
        rr -= d.imag * xi
        rr -= fj.real
        ri = d.real * xi
        ri += d.imag * xr
        if np.iscomplexobj(fj):
            ri -= fj.imag
        _add_off_diagonals(off, rr, xr)
        _add_off_diagonals(off, ri, xi)
        sq[j] = np.einsum("i,i->", rr, rr) + np.einsum("i,i->", ri, ri)
    return np.sqrt(sq)


def _gate_residuals(what, rnorm, fnorm, xnorm, n, a_norm, k2) -> None:
    """Raise unless every column's residual is at most max(1e-12*||f||, the
    double-precision floor eps_machine*||A||*||x|| of a backward-stable solve)."""
    floor = 64.0 * math.sqrt(n) * np.finfo(float).eps * (a_norm + abs(k2))
    bad = np.flatnonzero(rnorm > np.maximum(1e-12 * fnorm, floor * xnorm))
    if bad.size:
        j = bad[0]
        raise NumericalFailureError(
            f"{what}: residual {rnorm[j]:.3e} in column {j} exceeds "
            f"tolerance (||f|| = {fnorm[j]:.3e})"
        )


def _solve_gated(op: DiscreteOperator, k2: complex, f):
    """resolvent_apply's solve and per-column gate for a finite right-hand side f,
    an (n, m) array or a _WithUnit block; returns the solution with the residual
    norms it gated and its squared column norms.

    f is copied once into a complex Fortran-ordered block, which LAPACK solves
    in place and which becomes the solution; f itself is read, never written.
    """
    b = np.empty(f.shape, complex, order="F")
    for bj, fj in zip(b.T, f.T):
        bj[:] = fj
    fnorm = np.sqrt(_sq_norms(b))
    try:
        x = solve_banded((op.w, op.w), op.shifted_banded(k2), b)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"resolvent_apply: elimination breakdown: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError("resolvent_apply: non-finite solution")
    rnorm, x_sq = _residual_norms(op, k2, x, f), _sq_norms(x)
    _gate_residuals("resolvent_apply", rnorm, fnorm, np.sqrt(x_sq), op.n, op.inf_norm, k2)
    return x, rnorm, x_sq


def _sub_solve(what: str, op: DiscreteOperator, k2: complex, f):
    """_solve_gated for one of study's sub-solves, a failure reported as ``what``."""
    try:
        return _solve_gated(op, k2, f)
    except NumericalFailureError as exc:
        detail = str(exc).removeprefix("resolvent_apply")
        raise NumericalFailureError(what + detail) from exc.__cause__


def resolvent_apply(op: DiscreteOperator, k2: complex, f: np.ndarray) -> np.ndarray:
    """Solve (A - k2*I) x = f by banded direct elimination with pivoting.

    f is one right-hand side (n,) or a block (n, m) sharing one factorization,
    which is (w, w)-banded with the operator's own bandwidth w.
    k2 must have a nonzero imaginary part (the real axis meets the spectrum).
    Each column's residual is checked against max(1e-12*||f||, the
    double-precision floor eps_machine*||A||*||x|| that any backward-stable
    solver carries), with that column's norms.  study's sub-solves share
    these checks through the same routine, which also returns the norms.
    f is copied once, into the complex block that LAPACK solves in place and
    returns as x; f itself is never modified.
    Raises InvalidInputError unless k2 is one finite number off the real axis
    and f a finite real or complex array of those shapes (the gate in ``errors``).
    """
    k2, f = _array(k2, "resolvent_apply: k2", "biufc"), _array(f, "resolvent_apply: f", "biufc")
    if k2.ndim or k2.imag == 0.0:
        raise InvalidInputError(f"resolvent_apply: k2 must have nonzero imaginary part, got {k2}")
    if f.ndim not in (1, 2) or f.shape[0] != op.n:
        raise InvalidInputError(
            f"resolvent_apply: f has shape {f.shape}, expected ({op.n},) or ({op.n}, m)"
        )
    return _solve_gated(op, complex(k2), f.reshape(op.n, -1))[0].reshape(f.shape)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps resolvent-application errors and the fitted log-log rate."""

    entries: tuple[tuple[float, float], ...]  # (eps, error), eps decreasing
    fitted_rate: float = field(compare=False)  # a function of entries; NaN with no fit
    limit_kind: Classification

    @property
    def theta(self) -> float | None:
        return self.limit_kind.theta if isinstance(self.limit_kind, Resonant) else None


def default_test_functions(grid: Grid) -> list[np.ndarray]:
    """Unit-normalized battery: Gaussians centred at -1 and +1 (width 0.5)
    and a smooth bump supported in [0.5, 1.5]."""
    x = grid.nodes()
    fs = []
    for x0 in (-1.0, 1.0):
        fs.append(np.exp(-((x - x0) ** 2) / (2 * 0.5**2)))
    t = (x - 1.0) / 0.5
    bump = np.zeros_like(x)
    inside = np.abs(t) < 1.0
    bump[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    fs.append(bump)
    h = grid.h
    return [f / (math.sqrt(h) * np.linalg.norm(f)) for f in fs]


@dataclass(frozen=True)
class _Exterior:
    """One free exterior block of a study, solved for the battery (columns Y)
    and the unit vector at its inner end (the boundary Green's column g).

    ``end`` is the window row the block couples to (0 or -1); the rest is read
    at the block's inner end or summed over the block.  Arrays are read-only.
    """

    end: int
    y_end: np.ndarray  # Y at the inner end, per column
    g_end: complex
    y_sq: np.ndarray  # ||Y_j||^2
    gy: np.ndarray  # g^H Y_j
    g_sq: float  # ||g||^2
    y_res: np.ndarray  # residual norms of the Y_j
    g_res: float  # residual norm of g

    def __post_init__(self):
        _read_only(self.y_end, self.y_sq, self.gy, self.y_res)


def _solve_exterior(h: float, k2: complex, F: np.ndarray, inner: int, end: int) -> _Exterior:
    """Solve the free rows on F's nodes for F and the unit vector at row inner,
    as one block."""
    n, m = F.shape
    inv_h2 = 1.0 / (h * h)
    rows = np.array([[-inv_h2], [2.0 * inv_h2], [-inv_h2]])
    op = DiscreteOperator(np.broadcast_to(rows, (3, n)), "free")  # _free_rows(n, h), O(1) memory
    what = f"study ({'left' if end == 0 else 'right'} exterior)"
    Z, res, z_sq = _sub_solve(what, op, k2, _WithUnit(F, inner))
    gz = np.einsum("i,ij->j", Z[:, m].conj(), Z)
    y_end = Z[inner, :m].copy()  # a view would keep the block's solution Z alive
    return _Exterior(end, y_end, Z[inner, m], z_sq[:m], gz[:m], gz[m].real, res[:m], res[m])


@dataclass(frozen=True)
class _Battery:
    """What a study takes from its battery F (N, m) on a window W = [a, b):
    F's rows on W, the full-grid column norms ||F_j|| and the exterior records
    (left first, where W leaves room for them).  Arrays are read-only."""

    F: np.ndarray
    fnorm: np.ndarray
    sides: tuple[_Exterior, ...]

    def __post_init__(self):
        _read_only(self.F, self.fnorm)


@lru_cache(maxsize=BATTERY_CACHE_SIZE)
def _default_battery(grid: Grid, a: int, b: int) -> _Battery:
    """default_test_functions(grid) reduced to W = [a, b), the exterior blocks
    outside W solved and gated; kept across calls (module docstring)."""
    F = np.column_stack(default_test_functions(grid))
    sides = []
    if a > 0:
        sides.append(_solve_exterior(grid.h, DEFAULT_K2, F[:a], a - 1, 0))
    if b < grid.N:
        sides.append(_solve_exterior(grid.h, DEFAULT_K2, F[b:], 0, -1))
    return _Battery(F[a:b].copy(), np.sqrt(_sq_norms(F)), tuple(sides))


def _solve_window(
    op: DiscreteOperator, k2: complex, battery: _Battery, inv_h2: float, n: int
) -> np.ndarray:
    """Window solution of one operator, the exterior folded in as a Schur complement.

    op holds the operator's rows on W; the exterior couples to each end of W
    through the free entry -h^-2.  The full system's residual per column is
    bounded by the W residual plus, per side, ||r(Y_j)|| + h^-2*|x_end|*||r(g)||,
    and that bound is gated at resolvent_apply's threshold for the full
    operator: n rows, ||A||_inf (equal to op's, since W's pad rows are free
    rows) and the full-length ||x||, which needs only the exterior's norms.
    """
    ab = op.ab.astype(complex)
    rhs = battery.F.astype(complex)
    for s in battery.sides:
        ab[op.w, s.end] -= inv_h2 * inv_h2 * s.g_end
        rhs[s.end] += inv_h2 * s.y_end
    what = f"study ({op.kind}, {op.params})"
    X, bound, x_sq = _sub_solve(what, DiscreteOperator(ab, op.kind, op.params), k2, rhs)
    for s in battery.sides:
        c = -inv_h2 * X[s.end]  # exterior solution: Y - c*g
        bound += s.y_res + inv_h2 * np.abs(X[s.end]) * s.g_res
        x_sq += np.maximum(s.y_sq - 2.0 * np.real(np.conj(c) * s.gy) + np.abs(c) ** 2 * s.g_sq, 0.0)
    _gate_residuals(what, bound, battery.fnorm, np.sqrt(x_sq), n, op.inf_norm, k2)
    return X


def _window(profile: PotentialProfile, eps_max: float, grid: Grid):
    """Index range [a, b) of the nodes where some operator of the study differs
    from the free second difference, padded by two nodes on each side.

    The range spans the nodes with x/eps_max in the profile's support and the
    limit's interface rows around 0, so it holds the support of every
    eps <= eps_max as well.  x/eps_max rises with the node index, so the
    support's nodes are a run of indices, found from an estimate by testing
    the nodes at its ends as ``Grid.nodes`` computes them.
    """
    lo, hi = profile.support
    L, h, N = grid.L, grid.h, grid.N
    t = lambda k: (-L + h * k) / eps_max  # node k = 1..N, index k - 1
    first = min(max(math.ceil((lo * eps_max + L) / h), 1), N + 1)
    while first > 1 and t(first - 1) >= lo:
        first -= 1
    while first <= N and t(first) < lo:
        first += 1
    last = min(max(math.floor((hi * eps_max + L) / h), 0), N)
    while last < N and t(last + 1) <= hi:
        last += 1
    while last > 0 and t(last) > hi:
        last -= 1
    im, ip = grid.interface
    rows = [im - 1, ip + 1] + ([first - 1, last - 1] if first <= last else [])
    return max(min(rows) - 2, 0), min(max(rows) + 3, N)


def study(
    profile: PotentialProfile,
    alpha: float,
    eps_list=DEFAULT_EPS_LIST,
    grid: Grid | None = None,
) -> ConvergenceReport:
    """Measure the resolvent-application error of the scaled operator family
    against its classified limit over a decreasing list of eps.

    error(eps) = max over the battery default_test_functions(grid) of
    ||(S_eps - k2)^-1 f - (S_0 - k2)^-1 f||_2 / ||f||_2, k2 = DEFAULT_K2, in
    the mesh-weighted discrete L2 norm.  alpha is classified with tolerance
    1e-3 (couplings published to a few decimals snap to the refined root; the
    limit operator uses the root's theta).

    Each operator is built and solved only on the window W: the nodes with
    x/eps_max in the profile's support and the limit's interface rows, with
    a pad of two.  The exterior blocks outside W are free rows, solved once
    per (grid, W) for the battery and the boundary Green's column g and kept
    for the last BATTERY_CACHE_SIZE keys; each W system takes them as a
    Schur complement, and the error adds the rank-one exterior tails
    h^-2*|dX_end|*||g|| (module docstring).  Each sub-solve is gated once by
    the routine behind resolvent_apply, and its residual norms bound the
    operator's full-system residual, gated at the same threshold.

    Entries carry about 1e-9 relative LAPACK rounding at the default N =
    204,800, where cond(A - k2) ~ 1e8: a comparison tighter than 1e-8 tests
    LAPACK, not this code.

    The identically-zero profile is rejected: its scaled family is free and
    eps-independent, so the dichotomy does not apply.  Raises
    InvalidInputError unless alpha is finite and eps_list a strictly
    decreasing sequence of two or more positive eps (the gate in ``errors``).
    """
    if profile.is_zero:
        raise InvalidInputError(
            "study: the identically-zero profile has an eps-independent free "
            "operator family; the resonant/non-resonant dichotomy does not apply"
        )
    alpha = _finite(alpha, "study: alpha")
    eps_arr = _array(eps_list, "study: eps_list")
    if eps_arr.ndim != 1 or eps_arr.size < 2:
        raise InvalidInputError("study: eps_list must be a sequence of at least two eps values")
    eps_arr = eps_arr.astype(float).tolist()
    if not (eps_arr[-1] > 0 and all(a > b for a, b in zip(eps_arr[:-1], eps_arr[1:]))):
        raise InvalidInputError(f"study: eps_list must be positive and decreasing, got {eps_arr}")
    if grid is None:
        grid = make_grid(min(eps_arr), resolution=STUDY_RESOLUTION)

    c = classify(profile, alpha, tol=1e-3)

    a, b = _window(profile, eps_arr[0], grid)
    h = grid.h
    x = -grid.L + h * np.arange(a + 1, b + 1)  # grid.nodes()[a:b]
    ops = [_limit_rows(c, h, b - a, grid.interface[0] - a)]
    ops += [_seps_rows(profile, alpha, eps, h, x) for eps in eps_arr]
    battery = _default_battery(grid, a, b)
    inv_h2 = 1.0 / (h * h)
    X0, *Xs = (_solve_window(op, DEFAULT_K2, battery, inv_h2, grid.N) for op in ops)
    entries = []
    for eps, X in zip(eps_arr, Xs):
        dX = X - X0
        err_sq = _sq_norms(dX)
        for s in battery.sides:  # outside W the difference is -h^-2*dX_end*g
            err_sq += (inv_h2 * np.abs(dX[s.end])) ** 2 * s.g_sq
        entries.append((eps, float(np.max(np.sqrt(err_sq) / battery.fnorm))))

    if all(e > 1e-15 for _, e in entries):
        slope = np.polyfit(np.log([e for e, _ in entries]), np.log([r for _, r in entries]), 1)
        rate = float(slope[0])
    else:
        rate = float("nan")  # degenerate: discrete operators coincide
    return ConvergenceReport(tuple(entries), rate, c)
