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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import InvalidInputError, NumericalFailureError
from .profiles import PotentialProfile
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

KIND_SEPS = "scaled-potential"
KIND_CONNECTED = "limit-connected"
KIND_DIRICHLET_PAIR = "limit-dirichlet-pair"


@dataclass(frozen=True)
class Grid:
    """Staggered uniform grid: N interior nodes on (-L, L), h = 2L/(N+1).

    N must be even so the nodes are symmetric about 0 with the origin midway
    between the two middle nodes.
    """

    L: float
    N: int

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 1.0):
            raise InvalidInputError(f"grid: L must exceed 1, got {self.L}")
        if self.N < 64:
            raise InvalidInputError(f"grid: N must be at least 64, got {self.N}")
        if self.N % 2 != 0:
            raise InvalidInputError(
                f"grid: N must be even so that x=0 lies midway between nodes, got {self.N}"
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
    """Smallest admissible grid resolving eps_min with the given nodes-per-eps."""
    if not (np.isfinite(eps_min) and eps_min > 0):
        raise InvalidInputError(f"make_grid: eps_min must be positive, got {eps_min}")
    n_plus_1 = math.ceil(2.0 * L * resolution / eps_min)
    if n_plus_1 % 2 == 0:
        n_plus_1 += 1  # N even requires N+1 odd
    return Grid(L=L, N=max(64, n_plus_1 - 1))


@dataclass(frozen=True)
class DiscreteOperator:
    """Real banded matrix with at most two off-diagonals on each side.

    Entries follow numpy indexing: sub1[i] = A[i+1, i], sup1[i] = A[i, i+1],
    sub2[i] = A[i+2, i], sup2[i] = A[i, i+2].
    """

    diag: np.ndarray
    sub1: np.ndarray
    sup1: np.ndarray
    sub2: np.ndarray
    sup2: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.diag)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for one vector (n,) or a block of columns (n, m)."""
        xt = x.T
        y = self.diag * xt
        y[..., 1:] += self.sub1 * xt[..., :-1]
        y[..., :-1] += self.sup1 * xt[..., 1:]
        y[..., 2:] += self.sub2 * xt[..., :-2]
        y[..., :-2] += self.sup2 * xt[..., 2:]
        return y.T

    def to_dense(self) -> np.ndarray:
        A = np.diag(self.diag)
        A += np.diag(self.sub1, -1) + np.diag(self.sup1, 1)
        A += np.diag(self.sub2, -2) + np.diag(self.sup2, 2)
        return A

    def shifted_banded(self, shift: complex) -> np.ndarray:
        """(A - shift*I) in scipy solve_banded layout with (l, u) = (2, 2)."""
        n = self.n
        ab = np.zeros((5, n), dtype=complex)
        ab[2] = self.diag - shift
        ab[1, 1:] = self.sup1
        ab[0, 2:] = self.sup2
        ab[3, :-1] = self.sub1
        ab[4, :-2] = self.sub2
        return ab

    @property
    def inf_norm(self) -> float:
        bands = (self.diag, self.sub1, self.sup1, self.sub2, self.sup2)
        absolute = DiscreteOperator(*map(np.abs, bands), self.kind)
        return float(np.max(absolute.matvec(np.ones(self.n))))


def _free_rows(n: int, h: float):
    inv_h2 = 1.0 / (h * h)
    diag = np.full(n, 2.0 * inv_h2)
    sub1 = np.full(n - 1, -inv_h2)
    sup1 = np.full(n - 1, -inv_h2)
    sub2 = np.zeros(n - 2)
    sup2 = np.zeros(n - 2)
    return diag, sub1, sup1, sub2, sup2


def discretize_seps(
    profile: PotentialProfile, alpha: float, eps: float, grid: Grid
) -> DiscreteOperator:
    """Central-difference matrix of -d^2/dx^2 + alpha*eps^-2*psi(x/eps).

    Requires eps/h >= 16 so the scaled potential is resolved.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise InvalidInputError(f"discretize_seps: eps must be positive, got {eps}")
    if not np.isfinite(alpha):
        raise InvalidInputError(f"discretize_seps: alpha must be finite, got {alpha}")
    h = grid.h
    if eps / h < MIN_RESOLUTION:
        raise InvalidInputError(
            f"discretize_seps: eps/h = {eps / h:.2f} is below the resolution "
            f"requirement {MIN_RESOLUTION}; refine the grid or increase eps"
        )
    diag, sub1, sup1, sub2, sup2 = _free_rows(grid.N, h)
    diag += (alpha / (eps * eps)) * profile.eval(grid.nodes() / eps)
    return DiscreteOperator(
        diag, sub1, sup1, sub2, sup2, KIND_SEPS, {"alpha": alpha, "eps": eps}
    )


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
    h = grid.h
    inv_h2 = 1.0 / (h * h)
    diag, sub1, sup1, sub2, sup2 = _free_rows(grid.N, h)
    im, ip = grid.interface

    if isinstance(c, NonResonant):
        diag[im] = 3.0 * inv_h2
        diag[ip] = 3.0 * inv_h2
        sup1[im] = 0.0
        sub1[im] = 0.0  # sub1[im] = A[ip, im]
        return DiscreteOperator(
            diag, sub1, sup1, sub2, sup2, KIND_DIRICHLET_PAIR, {}
        )

    if not isinstance(c, Resonant):
        raise InvalidInputError(
            f"discretize_limit: expected a Classification, got {type(c).__name__}"
        )
    th = c.theta
    if not (np.isfinite(th) and th != 0.0):
        raise InvalidInputError(f"discretize_limit: theta must be finite and nonzero, got {th}")
    if th == 1.0:
        return DiscreteOperator(
            diag, sub1, sup1, sub2, sup2, KIND_CONNECTED, {"theta": th}
        )
    d = 1.0 + th * th
    # row at -h/2
    sub1[im - 1] = -(3.0 + 4.0 * th * th) / (3.0 * d) * inv_h2  # A[im, im-1]
    diag[im] = (1.0 + 4.0 * th * th) / d * inv_h2
    sup1[im] = -3.0 * th / d * inv_h2  # A[im, ip]
    sup2[im] = th / (3.0 * d) * inv_h2  # A[im, ip+1]
    # row at +h/2
    sub2[im - 1] = th / (3.0 * d) * inv_h2  # A[ip, im-1]
    sub1[im] = -3.0 * th / d * inv_h2  # A[ip, im]
    diag[ip] = (th * th + 4.0) / d * inv_h2
    sup1[ip] = -(4.0 + 3.0 * th * th) / (3.0 * d) * inv_h2  # A[ip, ip+1]
    return DiscreteOperator(diag, sub1, sup1, sub2, sup2, KIND_CONNECTED, {"theta": th})


def resolvent_apply(op: DiscreteOperator, k2: complex, f: np.ndarray) -> np.ndarray:
    """Solve (A - k2*I) x = f by banded direct elimination with pivoting.

    f is one right-hand side (n,) or a block (n, m) sharing one factorization,
    which is (1, 1)-banded when sub2 and sup2 vanish and (2, 2)-banded otherwise.
    k2 must have a nonzero imaginary part (the real axis meets the spectrum).
    Each column's residual is checked against max(1e-12*||f||, the
    double-precision floor eps_machine*||A||*||x|| that any backward-stable
    solver carries), with that column's norms.
    """
    k2 = complex(k2)
    if k2.imag == 0.0:
        raise InvalidInputError(
            f"resolvent_apply: k2 must have nonzero imaginary part, got {k2}"
        )
    f = np.asarray(f)
    if f.ndim not in (1, 2) or f.shape[0] != op.n:
        raise InvalidInputError(
            f"resolvent_apply: f has shape {f.shape}, expected ({op.n},) or ({op.n}, m)"
        )
    if not np.all(np.isfinite(f)):
        raise InvalidInputError("resolvent_apply: f must be finite")
    cols = f if f.ndim == 2 else f[:, None]
    w = 2 if op.sub2.any() or op.sup2.any() else 1
    try:
        x = solve_banded((w, w), op.shifted_banded(k2)[2 - w : 3 + w], cols.astype(complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"resolvent_apply: elimination breakdown: {exc}") from exc
    if not np.all(np.isfinite(x)):
        raise NumericalFailureError("resolvent_apply: non-finite solution")
    residual = op.matvec(x) - k2 * x - cols
    rnorm = np.linalg.norm(residual, axis=0)
    fnorm = np.linalg.norm(cols, axis=0)
    floor = 64.0 * math.sqrt(op.n) * np.finfo(float).eps * (op.inf_norm + abs(k2))
    bad = np.flatnonzero(rnorm > np.maximum(1e-12 * fnorm, floor * np.linalg.norm(x, axis=0)))
    if bad.size:
        j = bad[0]
        raise NumericalFailureError(
            f"resolvent_apply: residual {rnorm[j]:.3e} in column {j} exceeds "
            f"tolerance (||f|| = {fnorm[j]:.3e})"
        )
    return x.reshape(f.shape)


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-eps resolvent-application errors and the fitted log-log rate."""

    entries: tuple[tuple[float, float], ...]  # (eps, error), eps decreasing
    fitted_rate: float
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


def study(
    profile: PotentialProfile,
    alpha: float,
    eps_list=DEFAULT_EPS_LIST,
    grid: Grid | None = None,
    k2: complex = DEFAULT_K2,
    test_functions=None,
    resonance_tol: float = 1e-3,
) -> ConvergenceReport:
    """Measure the resolvent-application error of the scaled operator family
    against its classified limit over a decreasing list of eps.

    error(eps) = max over the test battery of
    ||(S_eps - k2)^-1 f - (S_0 - k2)^-1 f||_2 / ||f||_2 in the mesh-weighted
    discrete L2 norm, with the battery solved as one block: one banded solve
    for the limit and one per eps.  alpha is classified with tolerance
    resonance_tol (couplings published to a few decimals snap to the refined
    root; the limit operator uses the root's theta).

    The identically-zero profile is rejected: its scaled family is free and
    eps-independent, so the dichotomy does not apply.
    """
    if profile.is_zero:
        raise InvalidInputError(
            "study: the identically-zero profile has an eps-independent free "
            "operator family; the resonant/non-resonant dichotomy does not apply"
        )
    eps_arr = [float(e) for e in eps_list]
    if len(eps_arr) < 2:
        raise InvalidInputError("study: at least two eps values are required")
    if not all(np.isfinite(e) and e > 0 for e in eps_arr):
        raise InvalidInputError(f"study: eps values must be positive, got {eps_arr}")
    if not all(a > b for a, b in zip(eps_arr[:-1], eps_arr[1:])):
        raise InvalidInputError(f"study: eps values must be strictly decreasing, got {eps_arr}")
    if grid is None:
        grid = make_grid(min(eps_arr), resolution=STUDY_RESOLUTION)

    c = classify(profile, alpha, tol=resonance_tol)
    limit_op = discretize_limit(c, grid)

    if test_functions is None:
        test_functions = default_test_functions(grid)
    fs = [np.asarray(f, dtype=float) for f in test_functions]
    if not fs:
        raise InvalidInputError("study: test_functions must not be empty")
    for i, f in enumerate(fs):
        if f.shape != (grid.N,):
            raise InvalidInputError(
                f"study: test_functions[{i}] has shape {f.shape}, expected ({grid.N},)"
            )
        if not np.any(f):
            raise InvalidInputError(f"study: test_functions[{i}] is identically zero")

    F = np.column_stack(fs)
    fnorm = np.linalg.norm(F, axis=0)
    X0 = resolvent_apply(limit_op, k2, F)
    entries = []
    for eps in eps_arr:
        X = resolvent_apply(discretize_seps(profile, alpha, eps, grid), k2, F)
        entries.append((eps, float(np.max(np.linalg.norm(X - X0, axis=0) / fnorm))))

    if all(e > 1e-15 for _, e in entries):
        slope = np.polyfit(np.log([e for e, _ in entries]), np.log([r for _, r in entries]), 1)
        rate = float(slope[0])
    else:
        rate = float("nan")  # degenerate: discrete operators coincide
    return ConvergenceReport(tuple(entries), rate, c)
