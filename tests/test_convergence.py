import dataclasses
import math
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg import solve_banded as scipy_solve_banded

import deltaprime.convergence
from deltaprime import (
    Grid,
    builtin_profile,
    classify,
    from_samples,
    from_segments,
    InvalidInputError,
    NonResonant,
    NumericalFailureError,
    Resonant,
    discretize_limit,
    discretize_seps,
    make_grid,
    resolvent_apply,
    study,
)
from deltaprime.convergence import (
    DEFAULT_EPS_LIST,
    MAX_GRID_NODES,
    DiscreteOperator,
    default_test_functions,
)

from oracles import dirichlet_laplacian_lowest_eigenvalue


def small_grid(L=2.0, N=256):
    return Grid(L=L, N=N)


def test_grid_staggering():
    g = small_grid()
    x = g.nodes()
    im, ip = g.interface
    assert x[im] == pytest.approx(-g.h / 2, abs=1e-15)
    assert x[ip] == pytest.approx(+g.h / 2, abs=1e-15)
    np.testing.assert_allclose(x, -x[::-1], atol=1e-14)


@pytest.mark.parametrize(
    "L,N", [(0.5, 128), (2.0, 32), (2.0, 65), (2.0, 64.0), (2.0, MAX_GRID_NODES + 2)]
)
def test_grid_invariants(L, N):
    with pytest.raises(InvalidInputError):
        Grid(L=L, N=N)


def test_study_refuses_an_oversize_grid_before_classifying(monkeypatch):
    """Building a Grid allocates nothing, and study makes its grid first."""
    assert Grid(L=2.0, N=MAX_GRID_NODES).N == MAX_GRID_NODES

    def no_classify(*args, **kwargs):
        raise AssertionError("classify ran before the grid was checked")

    monkeypatch.setattr(deltaprime.convergence, "classify", no_classify)
    with pytest.raises(InvalidInputError, match="MAX_GRID_NODES"):
        study(builtin_profile("seba-quadratic"), 10.0, eps_list=(0.2, 1e-9))


def test_make_grid_resolution():
    g = make_grid(0.025)
    assert 0.025 / g.h >= 16.0
    assert g.N % 2 == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"L": math.inf},
        {"L": math.nan},
        {"L": -3.0},
        {"resolution": math.nan},
        {"resolution": math.inf},
        {"resolution": 0.0},
        {"resolution": -5.0},
    ],
    ids=["L-inf", "L-nan", "L-negative", "res-nan", "res-inf", "res-zero", "res-negative"],
)
def test_make_grid_rejects_bad_length_and_resolution(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(InvalidInputError, match=f"make_grid: {name} must be positive"):
        make_grid(0.1, **kwargs)


def _band_array(A, w, rng):
    """A packed as ab[w + i - j, j] = A[i, j], with random values in the
    entries of ab outside the matrix, which no reader may use."""
    n = len(A)
    ab = rng.normal(size=(2 * w + 1, n)).astype(A.dtype)
    for k in range(-w, w + 1):
        j = np.arange(max(0, -k), min(n, n - k))
        ab[w + k, j] = A[j + k, j]
    return ab


def _pentadiagonal(n, rng):
    A = np.diag(4.0 + rng.normal(size=n))
    for k in (-2, -1, 1, 2):
        A += np.diag(rng.normal(size=n - abs(k)), k)
    return A


def test_discretize_seps_symmetric(seba):
    g = small_grid()
    op = discretize_seps(seba, 7.0, 0.5, g)
    assert op.ab.shape == (3, g.N)  # tridiagonal
    np.testing.assert_array_equal(op.ab[0, 1:], op.ab[2, :-1])  # A[i, i+1] == A[i+1, i]
    dense = op.to_dense()
    np.testing.assert_array_equal(dense, dense.T)


def test_discretize_seps_diagonal_entry(seba):
    g = small_grid()
    eps = 0.5
    alpha = 3.0
    op = discretize_seps(seba, alpha, eps, g)
    x = g.nodes()
    i = int(np.argmin(np.abs(x - 0.5 * eps)))
    expected = 2.0 / g.h**2 + alpha / eps**2 * seba.eval(x[i] / eps)
    assert op.diag[i] == expected


def test_discretize_seps_resolution_precondition(seba):
    g = small_grid()
    with pytest.raises(InvalidInputError, match="resolution"):
        discretize_seps(seba, 1.0, 8.0 * g.h, g)


def test_discretize_seps_free_eigenvalue(seba):
    g = small_grid(L=2.0, N=256)
    op = discretize_seps(seba, 0.0, 0.5, g)
    lam = eigvalsh_tridiagonal(op.diag, op.ab[2, :-1], select="i", select_range=(0, 0))[0]
    want = dirichlet_laplacian_lowest_eigenvalue(g.L)
    assert lam == pytest.approx(want, rel=1e-4)  # O(h^2) discretization error


def test_limit_nonresonant_blocks_decouple():
    g = small_grid()
    op = discretize_limit(NonResonant(), g)
    im, ip = g.interface
    dense = op.to_dense()
    assert op.w == 1
    assert not dense[:ip, ip:].any() and not dense[ip:, :ip].any()
    assert op.diag[im] == op.diag[ip] == 3.0 / g.h**2
    assert op.kind == "limit-dirichlet-pair"


def test_limit_theta_one_is_free_stencil():
    g = small_grid()
    op = discretize_limit(Resonant(1.0), g)
    inv_h2 = 1.0 / g.h**2
    off = np.full(g.N - 1, -inv_h2)
    free = np.diag(np.full(g.N, 2.0 * inv_h2)) + np.diag(off, -1) + np.diag(off, 1)
    assert op.w == 1
    np.testing.assert_array_equal(op.to_dense(), free)


def test_limit_theta_rejects_degenerate():
    g = small_grid()
    with pytest.raises(InvalidInputError):
        discretize_limit(Resonant(0.0), g)
    with pytest.raises(InvalidInputError):
        discretize_limit(Resonant(float("nan")), g)
    with pytest.raises(InvalidInputError):
        discretize_limit("resonant", g)


def _interface_residuals(theta, N):
    """Manufactured smooth halves satisfying the interface conditions:

    y(0+) = theta*y(0-), theta*y'(0+) = y'(0-); residual of A@y against -y''.
    """
    g = Grid(L=2.0, N=N)
    x = g.nodes()
    im, ip = g.interface
    taper = (1.0 - (x / g.L) ** 2) ** 2  # kills the Dirichlet mismatch at +-L

    def left(t):
        return np.cos(t) + np.sin(t)  # y(0-) = 1, y'(0-) = 1

    def right(t):
        return theta * np.cos(t) + (1.0 / theta) * np.sin(t)

    y = np.where(x < 0, left(x), right(x)) * taper

    # exact second derivative of the tapered halves
    def d2(fun, t, L):
        f = fun(t)
        tt = t
        taper_ = (1.0 - (tt / L) ** 2) ** 2
        dtaper = 2.0 * (1.0 - (tt / L) ** 2) * (-2.0 * tt / L**2)
        d2taper = -4.0 / L**2 * (1.0 - 3.0 * (tt / L) ** 2)
        if fun is left:
            df = -np.sin(tt) + np.cos(tt)
            d2f = -f
        else:
            df = -theta * np.sin(tt) + (1.0 / theta) * np.cos(tt)
            d2f = -f
        return d2f * taper_ + 2.0 * df * dtaper + f * d2taper

    minus_ypp = -np.where(x < 0, d2(left, x, g.L), d2(right, x, g.L))
    op = discretize_limit(Resonant(theta), g)
    res = op.matvec(y) - minus_ypp
    interface = max(abs(res[im]), abs(res[ip]))
    interior = float(np.max(np.abs(np.delete(res, [im - 1, im, ip, ip + 1]))))
    return interface, interior


def test_limit_interface_residual_first_order():
    i1, interior1 = _interface_residuals(2.0, 256)
    i2, interior2 = _interface_residuals(2.0, 512)
    assert 1.5 <= i1 / i2 <= 2.8  # O(h) at the two interface rows
    assert interior1 <= 1e-2 and interior2 <= interior1  # O(h^2) elsewhere


def test_resolvent_zero_rhs():
    g = small_grid()
    op = discretize_limit(NonResonant(), g)
    x = resolvent_apply(op, 1j, np.zeros(g.N))
    assert np.all(x == 0.0)


def test_resolvent_small_n_dense_oracle():
    n, h = 8, 0.125
    inv_h2 = 1.0 / h**2
    laplacian = inv_h2 * (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1))
    rng = np.random.default_rng(7)
    op = DiscreteOperator(_band_array(laplacian, 1, rng), "dirichlet-laplacian")
    np.testing.assert_array_equal(op.to_dense(), laplacian)
    f = rng.normal(size=n)
    x = resolvent_apply(op, 2j - 0.5, f)
    want = np.linalg.solve(laplacian - (2j - 0.5) * np.eye(n), f)
    np.testing.assert_allclose(x, want, rtol=1e-12, atol=1e-12)
    residual = op.matvec(x) - (2j - 0.5) * x - f
    assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(f)


def test_resolvent_pentadiagonal_dense_oracle():
    n = 8
    rng = np.random.default_rng(11)
    A = _pentadiagonal(n, rng)
    op = DiscreteOperator(_band_array(A, 2, rng), "pentadiagonal")
    np.testing.assert_array_equal(op.to_dense(), A)
    k2 = 1.5j + 0.25
    F = rng.normal(size=(n, 3))
    X = resolvent_apply(op, k2, F)
    np.testing.assert_allclose(X, np.linalg.solve(A - k2 * np.eye(n), F), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(op.matvec(F), A @ F, rtol=1e-14)
    assert op.inf_norm == pytest.approx(np.abs(A).sum(axis=1).max(), rel=1e-15)


@pytest.mark.parametrize("which", ["seps", "nonresonant", "resonant"])
def test_resolvent_block_matches_columns(seba, which):
    g = small_grid()
    op = {
        "seps": lambda: discretize_seps(seba, 18.1746, 0.5, g),
        "nonresonant": lambda: discretize_limit(NonResonant(), g),
        "resonant": lambda: discretize_limit(Resonant(2.0), g),
    }[which]()
    assert op.w == (2 if which == "resonant" else 1)  # only Resonant(2.0) is pentadiagonal
    F = np.column_stack(default_test_functions(g))
    X = resolvent_apply(op, 1j, F)
    assert X.shape == F.shape
    for j in range(F.shape[1]):
        x = resolvent_apply(op, 1j, F[:, j])
        assert x.shape == (g.N,)
        np.testing.assert_allclose(X[:, j], x, rtol=1e-12, atol=1e-12 * np.abs(x).max())


@pytest.mark.parametrize("which", ["seps", "nonresonant", "resonant"])
def test_resolvent_solves_the_shifted_band_array(seba, monkeypatch, which):
    g = small_grid()
    op = {
        "seps": lambda: discretize_seps(seba, 18.1746, 0.5, g),
        "nonresonant": lambda: discretize_limit(NonResonant(), g),
        "resonant": lambda: discretize_limit(Resonant(2.0), g),
    }[which]()
    F = np.column_stack(default_test_functions(g))
    w = 2 if which == "resonant" else 1
    shifted = op.ab.astype(complex)
    shifted[w] -= 1j
    calls = []
    real = deltaprime.convergence.solve_banded

    def spy(lu, ab, b):
        calls.append((lu, ab.copy()))
        return real(lu, ab, b)

    monkeypatch.setattr(deltaprime.convergence, "solve_banded", spy)
    x = resolvent_apply(op, 1j, F)
    [(lu, ab)] = calls
    assert lu == (w, w)
    assert np.array_equal(ab, shifted)
    assert np.array_equal(x, scipy_solve_banded((w, w), shifted, F.astype(complex)))


def test_window_limit_rows_are_the_principal_submatrix():
    """study's limit rows on every window that holds im-1..ip+1, the reach of
    the interface rows, equal that block of the whole-grid operator."""
    g = Grid(L=2.0, N=64)
    im, ip = g.interface
    for c in (NonResonant(), Resonant(1.0), Resonant(2.0)):
        full = discretize_limit(c, g)
        dense = full.to_dense()
        for lo in range(im):
            for hi in range(ip + 2, g.N + 1):
                op = deltaprime.convergence._limit_rows(c, g.h, hi - lo, im - lo)
                assert (op.kind, op.params, op.w) == (full.kind, full.params, full.w)
                np.testing.assert_array_equal(op.to_dense(), dense[lo:hi, lo:hi])


def test_residual_norms_match_dense_residual():
    n = 12
    rng = np.random.default_rng(5)
    A = _pentadiagonal(n, rng) + 1j * np.diag(rng.normal(size=n))  # complex diagonal, as in a window
    op = DiscreteOperator(_band_array(A, 2, rng), "pentadiagonal")
    np.testing.assert_array_equal(op.to_dense(), A)
    k2 = 0.5 + 1.5j
    x = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    dense = A - k2 * np.eye(n)
    for f in (rng.normal(size=(n, 3)), rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))):
        want = np.linalg.norm(dense @ x - f, axis=0)
        got = deltaprime.convergence._residual_norms(op, k2, x, f)
        np.testing.assert_allclose(got, want, rtol=1e-13)


def test_resolvent_rejects_bad_blocks():
    g = small_grid()
    op = discretize_limit(Resonant(2.0), g)
    for shape in [(g.N + 1,), (g.N, 2, 2), (g.N + 1, 3)]:
        with pytest.raises(InvalidInputError, match="shape"):
            resolvent_apply(op, 1j, np.ones(shape))
    F = np.ones((g.N, 3))
    F[5, 1] = np.nan
    with pytest.raises(InvalidInputError, match="finite"):
        resolvent_apply(op, 1j, F)
    F[5, 1] = np.inf
    with pytest.raises(InvalidInputError, match="finite"):
        resolvent_apply(op, 1j, F)


def _poisoned(w, on_diagonal, value):
    """A w-banded operator of small_grid() with value at one entry of its band."""
    op = discretize_limit(Resonant(2.0) if w == 2 else NonResonant(), small_grid())
    assert op.w == w
    ab = op.ab.copy()
    ab[w if on_diagonal else w - 1, 100] = value
    return DiscreteOperator(ab, op.kind, op.params)


NON_FINITE_BANDS = pytest.mark.parametrize(
    "w, on_diagonal, value",
    [
        pytest.param(w, d, v, id=f"w{w}-{'diag' if d else 'off'}-{v}")
        for w in (1, 2)
        for d in (True, False)
        for v in (np.nan, np.inf)
    ],
)


@NON_FINITE_BANDS
def test_resolvent_rejects_a_non_finite_band(w, on_diagonal, value):
    op = _poisoned(w, on_diagonal, value)
    with pytest.raises(InvalidInputError, match=r"^resolvent_apply: op must be finite$"):
        resolvent_apply(op, 1j, np.ones(op.n))


@NON_FINITE_BANDS
def test_solve_gate_fails_a_non_finite_band(w, on_diagonal, value):
    """Past the input gate a non-finite band still fails: a NaN spreads into x,
    and an inf on the diagonal solves to a finite x whose residual is NaN."""
    op = _poisoned(w, on_diagonal, value)
    with np.errstate(invalid="ignore"):  # inf * 0 in the residual
        with pytest.raises(NumericalFailureError, match="^resolvent_apply: "):
            deltaprime.convergence._solve_gated(op, 1j, np.ones((op.n, 1)))


def test_residual_gate_fails_a_non_finite_residual():
    """NaN > bound is False: the gate must fail a NaN residual, not pass it."""
    with pytest.raises(NumericalFailureError, match="residual nan in column 1"):
        deltaprime.convergence._gate_residuals(
            "resolvent_apply", np.array([0.0, np.nan]), np.ones(2), np.ones(2), 256, 1.0, 1j
        )


def test_resolvent_gate_is_per_column(seba, monkeypatch):
    g = small_grid()
    op = discretize_seps(seba, 18.1746, 0.5, g)
    fs = default_test_functions(g)
    # a tiny middle column: its corruption is far below 1e-12 of the block norm
    F = np.column_stack([fs[0], 1e-8 * fs[1], fs[2]])
    resolvent_apply(op, 1j, F)
    real = deltaprime.convergence.solve_banded

    def corrupting(lu, ab, b):
        x = real(lu, ab, b)
        x[:, 1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(deltaprime.convergence, "solve_banded", corrupting)
    with pytest.raises(NumericalFailureError, match="column 1"):
        resolvent_apply(op, 1j, F)


def test_resolvent_real_spectral_parameter_rejected():
    g = small_grid()
    op = discretize_limit(NonResonant(), g)
    with pytest.raises(InvalidInputError, match="imaginary"):
        resolvent_apply(op, 4.0, np.ones(g.N))


def test_default_test_functions_normalized():
    g = small_grid(L=20.0, N=2048)
    fs = default_test_functions(g)
    assert len(fs) == 3
    for f in fs:
        assert math.sqrt(g.h) * np.linalg.norm(f) == pytest.approx(1.0, rel=1e-12)
    bump = fs[2]
    x = g.nodes()
    assert np.all(bump[(x < 0.5) | (x > 1.5)] == 0.0)


def _formula_battery(grid):
    """default_test_functions as whole-array expressions, the reference for the
    in-place column builder."""
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


@pytest.mark.parametrize(
    "grid",
    [
        small_grid(),
        small_grid(L=20.0, N=2048),
        Grid(L=1.2, N=64),  # the bump's support reaches past the last node
        make_grid(0.025, L=8.0, resolution=32),
        make_grid(min(DEFAULT_EPS_LIST), resolution=128),
    ],
    ids=["L2", "L20", "short", "L8", "default"],
)
def test_default_test_functions_match_the_formulas_bit_for_bit(grid):
    got, want = default_test_functions(grid), _formula_battery(grid)
    assert len(got) == len(want) == 3
    for f, ref in zip(got, want):
        assert f.dtype == ref.dtype and np.array_equal(f, ref)


def test_default_test_functions_build_in_place():
    """The battery returns 24 bytes per node; in place it peaks at its columns
    and the grid's nodes.  Whole-array temporaries read about 65."""
    g = make_grid(min(DEFAULT_EPS_LIST), resolution=128)
    assert g.N == 204_800
    default_test_functions(g)
    assert _traced_peak(lambda: default_test_functions(g)) <= 40 * g.N


def test_study_rejects_zero_profile(zero):
    with pytest.raises(InvalidInputError, match="zero"):
        study(zero, 5.0)


def test_study_rejects_a_non_real_alpha(seba):
    with pytest.raises(InvalidInputError, match="study: alpha must be a real number"):
        study(seba, "a")


def test_study_eps_validation(seba):
    with pytest.raises(InvalidInputError):
        study(seba, 10.0, eps_list=(0.1, 0.2))
    with pytest.raises(InvalidInputError):
        study(seba, 10.0, eps_list=(0.1,))
    with pytest.raises(InvalidInputError):
        study(seba, 10.0, eps_list=(0.1, -0.05))


def test_study_nonresonant_decreasing(seba):
    g = make_grid(0.05, L=20.0, resolution=32)
    rep = study(seba, 10.0, eps_list=(0.2, 0.1, 0.05), grid=g)
    errs = [e for _, e in rep.entries]
    assert isinstance(rep.limit_kind, NonResonant)
    assert rep.theta is None
    assert errs[0] > errs[1] > errs[2] > 0
    assert rep.fitted_rate >= 0.4


def test_study_resonant_snaps_tabulated_alpha(seba):
    g = make_grid(0.05, L=20.0, resolution=64)
    rep = study(seba, 18.1747, eps_list=(0.2, 0.1, 0.05), grid=g)
    assert isinstance(rep.limit_kind, Resonant)
    assert rep.theta == pytest.approx(-54.9376, rel=1e-4)
    errs = [e for _, e in rep.entries]
    assert errs[0] > errs[1] > errs[2] > 0


def test_study_alpha_zero_reproduces_free_line(seba):
    g = make_grid(0.1, L=20.0, resolution=32)
    rep = study(seba, 0.0, eps_list=(0.2, 0.1), grid=g)
    assert isinstance(rep.limit_kind, Resonant) and rep.limit_kind.theta == 1.0
    for _, err in rep.entries:
        assert err <= 1e-8  # S_eps at alpha=0 IS the free operator
    assert math.isnan(rep.fitted_rate)


def test_free_study_equals_itself(seba):
    # the rate is NaN at alpha = 0 and is derived from entries, so == skips it
    rep = study(seba, 0.0)
    assert math.isnan(rep.fitted_rate)
    assert rep == study(seba, 0.0)
    assert rep != dataclasses.replace(rep, entries=rep.entries[:-1])


def _window_size(profile, eps_max, grid):
    """Nodes from the first to the last with x/eps_max in the profile's support
    or among the interface rows im-1..ip+1, and a pad of two on each side."""
    lo, hi = profile.support
    t = grid.nodes() / eps_max
    im, ip = grid.interface
    inside = np.flatnonzero((t >= lo) & (t <= hi))
    first, last = min(inside[0], im - 1) - 2, max(inside[-1], ip + 1) + 2
    return min(last, grid.N - 1) - max(first, 0) + 1


@pytest.mark.parametrize(
    "alpha,limit_band", [(18.1747, 2), (10.0, 1), (0.0, 1)], ids=["connected", "dirichlet", "free"]
)
def test_study_solves_exterior_once_and_window_per_operator(seba, monkeypatch, alpha, limit_band):
    eps_list = (0.4, 0.2, 0.1, 0.05)
    g = make_grid(min(eps_list), L=4.0, resolution=16)
    calls = []
    real = deltaprime.convergence.solve_banded

    def spy(lu, ab, b):
        calls.append((lu, ab.shape, b.shape))
        return real(lu, ab, b)

    monkeypatch.setattr(deltaprime.convergence, "solve_banded", spy)
    rep = study(seba, alpha, eps_list=eps_list, grid=g)
    w = _window_size(seba, max(eps_list), g)
    assert 0 < w < g.N // 4
    assert len(calls) == 2 + len(eps_list) + 1
    # the two free exterior blocks: tridiagonal, battery plus the g column
    exterior, window = calls[:2], calls[2:]
    assert all(lu == (1, 1) for lu, _, _ in exterior)
    assert sum(b[0] for _, _, b in exterior) == g.N - w
    assert all(b[1] == 4 for _, _, b in exterior)
    # then one W system per operator, the limit first
    assert all(b == (w, 3) for _, _, b in window)
    assert window[0][0] == (limit_band, limit_band)
    assert window[0][1] == (2 * limit_band + 1, w)
    assert [lu for lu, _, _ in window[1:]] == [(1, 1)] * len(eps_list)
    assert isinstance(rep.limit_kind, Resonant if alpha != 10.0 else NonResonant)


@pytest.mark.parametrize("call", [0, 1, 2, 4], ids=["left", "right", "limit-window", "eps-window"])
def test_study_gates_every_sub_solve(seba, monkeypatch, call):
    g = make_grid(0.05, L=4.0, resolution=16)
    real = deltaprime.convergence.solve_banded
    seen = []

    def corrupting(lu, ab, b):
        x = real(lu, ab, b)
        if len(seen) == call:
            x[:, 1] *= 1.0 + 1e-6
        seen.append(lu)
        return x

    monkeypatch.setattr(deltaprime.convergence, "solve_banded", corrupting)
    with pytest.raises(NumericalFailureError, match="column 1") as failure:
        study(seba, 18.1747, eps_list=(0.2, 0.1, 0.05), grid=g)
    prefix = {
        0: "study (left exterior): residual ",
        1: "study (right exterior): residual ",
        2: "study (limit-connected, {'theta': ",
        4: "study (scaled-potential, {'alpha': 18.1747, 'eps': 0.1}): residual ",
    }[call]
    assert str(failure.value).startswith(prefix)


def test_study_gate_bounds_the_full_residual(seba, monkeypatch):
    """The gated bound is never below the residual of the full-length solution
    that the window and exterior pieces define, at the full operator's norms.

    Each exterior's g column is scaled by 1 + 1e-11, which its own gate
    passes, so the full residual sits well above rounding: (A - k2) g = e
    becomes (1 + 1e-11) e, and h^-2*|x_end| weights that on every operator.
    """
    eps_list = (0.2, 0.1, 0.05)
    g = make_grid(min(eps_list), L=4.0, resolution=16)
    conv = deltaprime.convergence
    solved, gated = [], []
    real_solve, real_apply = conv.solve_banded, conv._solve_gated
    real_gate = conv._gate_residuals

    def perturbing(lu, ab, b):
        x = real_solve(lu, ab, b)
        if len(solved) < 2:
            x[:, -1] *= 1.0 + 1e-11
        return x

    def apply_spy(op, k2, f):
        x, *norms = real_apply(op, k2, f)
        solved.append(x)
        return (x, *norms)

    def gate_spy(what, rnorm, fnorm, xnorm, n, a_norm, k2):
        if what.startswith("study"):
            gated.append((rnorm, xnorm, n, a_norm))
        return real_gate(what, rnorm, fnorm, xnorm, n, a_norm, k2)

    monkeypatch.setattr(conv, "solve_banded", perturbing)
    monkeypatch.setattr(conv, "_solve_gated", apply_spy)
    monkeypatch.setattr(conv, "_gate_residuals", gate_spy)
    rep = study(seba, 18.1747, eps_list=eps_list, grid=g)
    left, right, *windows = solved
    assert g.N - right.shape[0] - left.shape[0] == _window_size(seba, eps_list[0], g)
    inv_h2 = 1.0 / g.h**2
    F = np.column_stack(default_test_functions(g))
    ops = [discretize_limit(rep.limit_kind, g)]
    ops += [discretize_seps(seba, 18.1747, eps, g) for eps in eps_list]
    assert len(windows) == len(gated) == len(ops)
    for op, xw, (bound, xnorm, n, a_norm) in zip(ops, windows, gated):
        x = np.concatenate(
            (
                left[:, :3] + inv_h2 * xw[0] * left[:, 3:],
                xw,
                right[:, :3] + inv_h2 * xw[-1] * right[:, 3:],
            )
        )
        assert n == g.N and a_norm == op.inf_norm
        np.testing.assert_allclose(xnorm, np.linalg.norm(x, axis=0), rtol=1e-10)
        residual = np.linalg.norm(op.matvec(x) - 1j * x - F, axis=0)
        # rounding in forming x and its residual here, far below the perturbation
        slack = np.finfo(float).eps * a_norm * xnorm
        assert np.all(residual >= 30.0 * slack)
        assert np.all(bound >= residual - slack)


def _full_grid_study(profile, alpha, eps_list, grid, test_functions=None):
    """Every operator discretized on the whole grid and solved through
    resolvent_apply, as one block per operator."""
    c = classify(profile, alpha, tol=1e-3)
    fs = default_test_functions(grid) if test_functions is None else test_functions
    F = np.column_stack(fs)
    fnorm = np.linalg.norm(F, axis=0)
    X0 = resolvent_apply(discretize_limit(c, grid), 1j, F)
    entries = []
    for eps in eps_list:
        X = resolvent_apply(discretize_seps(profile, alpha, eps, grid), 1j, F)
        entries.append(float(np.max(np.linalg.norm(X - X0, axis=0) / fnorm)))
    return entries, c


def _custom_battery(x):
    """Three columns at the nodes x, which study reads through _test_function."""
    inside = np.where(np.abs(x) < 0.02, np.cos(25.0 * np.pi * x) ** 2, 0.0)  # within W only
    left = np.where(x < -1.0, np.exp(-((x + 2.0) ** 2)), 0.0)  # left exterior only
    return [inside, left, np.sin(x) * np.exp(-(x**2) / 4.0)]


def _equivalence_case(case):
    """(profile, alpha, eps_list, grid or None, battery builder or None)."""
    seba = builtin_profile("seba-quadratic")
    xi = np.linspace(-1.0, 1.0, 601)
    off_centre = from_segments([(0.3, 0.6, (3.0,)), (0.6, 0.9, (-3.0,))])
    ladder = (0.2, 0.1, 0.05)
    return {
        "connected": (seba, 18.1747, ladder, None, None),
        "dirichlet": (seba, 10.0, ladder, None, None),
        "free": (seba, 0.0, ladder, None, None),
        "sampled": (from_samples(xi, seba.eval(xi)), 12.0, ladder, None, None),
        "battery": (seba, 18.1747, ladder, None, _custom_battery),
        # a support away from 0: W must still hold it for every eps
        "off-centre": (off_centre, 5.0, ladder, None, None),
        # eps_max beyond L: the window is the whole grid and there is no exterior
        "whole-grid": (seba, 7.0, (2.5, 1.25, 0.625), Grid(L=2.0, N=256), None),
    }[case]


@pytest.mark.parametrize(
    "case", ["connected", "dirichlet", "free", "sampled", "battery", "off-centre", "whole-grid"]
)
def test_study_matches_full_grid_algorithm(monkeypatch, case):
    profile, alpha, eps_list, grid, battery = _equivalence_case(case)
    grid = grid or make_grid(min(eps_list), L=8.0, resolution=32)
    fs = battery(grid.nodes()) if battery else None
    want, c = _full_grid_study(profile, alpha, eps_list, grid, fs)
    if battery:
        monkeypatch.setattr(deltaprime.convergence, "_test_function", lambda j, x: battery(x)[j])
    calls = []
    real = deltaprime.convergence.solve_banded

    def spy(lu, ab, b):
        calls.append(b.shape[0])
        return real(lu, ab, b)

    monkeypatch.setattr(deltaprime.convergence, "solve_banded", spy)
    rep = study(profile, alpha, eps_list=eps_list, grid=grid)
    assert rep.limit_kind == c
    assert [e for e, _ in rep.entries] == list(eps_list)
    got = [r for _, r in rep.entries]
    if case == "free":  # S_eps at alpha = 0 is the free operator, on every row
        assert got == want == [0.0] * len(eps_list)
        assert math.isnan(rep.fitted_rate)
        return
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=0.0)
    rate = np.polyfit(np.log(eps_list), np.log(want), 1)[0]
    assert rep.fitted_rate == pytest.approx(rate, rel=1e-7)
    if case == "whole-grid":
        assert calls == [grid.N] * (len(eps_list) + 1)
    else:
        assert len(calls) == 2 + len(eps_list) + 1


def test_study_checks_each_sub_solve_once(seba, monkeypatch):
    """One residual per banded solve: the exterior record and the full-residual
    bound reuse the norms the sub-solve's own gate computed."""
    conv = deltaprime.convergence
    counts = {"solve_banded": 0, "_residual_norms": 0}

    def counting(name):
        real = getattr(conv, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(conv, name, counting(name))
    study(seba, 18.1746)
    assert counts == {"solve_banded": 7, "_residual_norms": 7}


def _memo_grid(L=4.0, resolution=16):
    return make_grid(min(DEFAULT_EPS_LIST), L=L, resolution=resolution)


def _counting_solves(monkeypatch):
    """Count solve_banded calls and exterior solves inside study."""
    conv = deltaprime.convergence
    counts = {"solve_banded": 0, "_solve_exterior": 0}

    def counting(name):
        real = getattr(conv, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for name in counts:
        monkeypatch.setattr(conv, name, counting(name))
    return counts


def test_study_warm_call_equals_cold_bit_for_bit(seba, step):
    g = _memo_grid()
    cold = study(seba, 18.1747, grid=g)
    assert study(seba, 18.1747, grid=g) == cold
    assert deltaprime.convergence._default_battery.cache_info().hits == 1
    # another profile on the same support shares the grid, the window and the entry
    off_cold = study(step, 100.3, grid=g)
    deltaprime.convergence._default_battery.cache_clear()
    study(seba, 18.1747, grid=g)
    assert study(step, 100.3, grid=g) == off_cold
    assert isinstance(off_cold.limit_kind, NonResonant)
    assert isinstance(cold.limit_kind, Resonant)


def test_study_warm_call_solves_only_its_windows(seba, monkeypatch):
    g = _memo_grid()
    study(seba, 18.1747, grid=g)
    counts = _counting_solves(monkeypatch)
    study(seba, 10.0, grid=g)
    assert counts == {"solve_banded": len(DEFAULT_EPS_LIST) + 1, "_solve_exterior": 0}


@pytest.mark.parametrize("alpha", [18.1747, 10.0], ids=["resonant", "non-resonant"])
def test_study_warm_call_builds_only_window_rows(seba, monkeypatch, alpha):
    g = _memo_grid()
    study(seba, alpha, grid=g)
    conv = deltaprime.convergence
    a, b = conv._window(seba, DEFAULT_EPS_LIST[0], g)
    sizes = []
    real = conv._free_rows

    def spy(n, h):
        sizes.append(n)
        return real(n, h)

    monkeypatch.setattr(conv, "_free_rows", spy)
    study(seba, alpha, grid=g)
    assert b - a < g.N
    assert sizes == [b - a] * (len(DEFAULT_EPS_LIST) + 1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"grid": _memo_grid(L=5.0)},
        {"grid": _memo_grid(resolution=20)},
        {"eps_list": (0.4, *DEFAULT_EPS_LIST[1:])},
    ],
    ids=["L", "resolution", "eps_max"],
)
def test_study_memo_misses_on_another_grid_or_window(seba, monkeypatch, kwargs):
    study(seba, 10.0, grid=_memo_grid())
    counts = _counting_solves(monkeypatch)
    study(seba, 10.0, **{"grid": _memo_grid(), **kwargs})
    assert counts["_solve_exterior"] == 2
    info = deltaprime.convergence._default_battery.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 2)


def test_study_failed_exterior_is_not_kept(seba, monkeypatch):
    g = _memo_grid()
    conv = deltaprime.convergence
    real = conv.solve_banded

    def corrupting(lu, ab, b):
        x = real(lu, ab, b)
        x[:, 1] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(conv, "solve_banded", corrupting)
    with pytest.raises(NumericalFailureError, match="column 1"):
        study(seba, 10.0, grid=g)
    assert conv._default_battery.cache_info().currsize == 0
    monkeypatch.setattr(conv, "solve_banded", real)
    counts = _counting_solves(monkeypatch)
    study(seba, 10.0, grid=g)
    assert counts["_solve_exterior"] == 2


def test_study_kept_arrays_are_read_only(seba):
    g = _memo_grid()
    study(seba, 10.0, grid=g)
    a, b = deltaprime.convergence._window(seba, DEFAULT_EPS_LIST[0], g)
    battery = deltaprime.convergence._default_battery(g, a, b)
    assert deltaprime.convergence._default_battery.cache_info().hits == 1
    assert len(battery.sides) == 2
    arrays = [battery.F, battery.fnorm]
    for s in battery.sides:
        arrays += [s.y_end, s.y_sq, s.gy, s.y_res]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def _copying_solve_gated(op, k2, f):
    """_solve_gated as it was before it solved in place: the whole right-hand side
    as a float or complex block, a C-ordered complex copy of it that scipy copies
    again into LAPACK's layout, and the residual formed on that whole block."""
    conv = deltaprime.convergence
    cols = f if isinstance(f, np.ndarray) else np.column_stack([*f.T])  # an exterior's [F | e]
    x = conv.solve_banded((op.w, op.w), op.shifted_banded(k2), cols.astype(complex))
    assert np.all(np.isfinite(x))
    rnorm, x_sq = conv._residual_norms(op, k2, x, cols), conv._sq_norms(x)
    fnorm = np.sqrt(conv._sq_norms(cols))
    conv._gate_residuals("resolvent_apply", rnorm, fnorm, np.sqrt(x_sq), op.n, op.inf_norm, k2)
    return x, rnorm, x_sq


def _in_place_cases(seba, step):
    """Three cold-battery studies, their exterior records, and a full-grid
    resolvent_apply on a real and on a complex (Fortran-ordered) 3-column block."""
    conv = deltaprime.convergence
    conv._default_battery.cache_clear()
    g = make_grid(0.025, L=8.0, resolution=32)
    reports = [study(seba, 18.1746, grid=g), study(seba, 10.0, grid=g), study(step, 100.3, grid=g)]
    battery = conv._default_battery(g, *conv._window(seba, DEFAULT_EPS_LIST[0], g))
    op = discretize_seps(seba, 18.1746, 0.025, g)
    F = np.column_stack(default_test_functions(g))
    blocks = [F, np.asfortranarray(F + 0.5j * F[:, ::-1])]
    kept = [f.copy() for f in blocks]
    solutions = [resolvent_apply(op, 1j, f) for f in blocks]
    for f, copy in zip(blocks, kept):  # the caller's f is read, never written
        assert np.array_equal(f, copy)
    return reports, battery.sides, solutions


def test_in_place_solves_match_the_copying_path_bit_for_bit(seba, step, monkeypatch):
    """The in-place block holds the values the copying path handed LAPACK, so every
    solution, exterior record and study entry is the same to the last bit.  The
    reference is computed here rather than stored: LAPACK builds may differ."""
    got = _in_place_cases(seba, step)
    monkeypatch.setattr(deltaprime.convergence, "_solve_gated", _copying_solve_gated)
    want = _in_place_cases(seba, step)
    for rep, ref in zip(got[0], want[0]):
        assert rep == ref
        assert repr(rep.fitted_rate) == repr(ref.fitted_rate)
    assert isinstance(got[0][0].limit_kind, Resonant)
    assert isinstance(got[0][1].limit_kind, NonResonant)
    assert len(got[1]) == len(want[1]) == 2
    for side, ref in zip(got[1], want[1]):
        for name in ("end", "y_end", "g_end", "y_sq", "gy", "g_sq", "y_res", "g_res"):
            assert np.array_equal(getattr(side, name), getattr(ref, name)), name
    for x, ref in zip(got[2], want[2]):
        assert np.array_equal(x, ref)


class _WithUnit(NamedTuple):
    """An exterior's right-hand side [F | e] read from the full battery F where
    it lies, with the unit vector e at row ``row``."""

    F: np.ndarray
    row: int

    @property
    def shape(self):
        return len(self.F), self.F.shape[1] + 1

    @property
    def T(self):
        e = np.zeros(len(self.F))
        e[self.row] = 1.0
        return [*self.F.T, e]


def _full_length_battery(grid, a, b):
    """_default_battery with the battery F (N, 3) kept through both exterior
    solves, which read their rows of F: the reference for the side evaluation."""
    conv = deltaprime.convergence
    F = np.column_stack(_formula_battery(grid))
    sides = []
    if a > 0:
        sides.append(conv._solve_exterior(grid.h, conv.DEFAULT_K2, _WithUnit(F[:a], a - 1), 0))
    if b < grid.N:
        sides.append(conv._solve_exterior(grid.h, conv.DEFAULT_K2, _WithUnit(F[b:], 0), -1))
    return conv._Battery(F[a:b].copy(), np.sqrt(conv._sq_norms(F)), tuple(sides))


@pytest.mark.parametrize("case", ["connected", "off-centre"])
def test_side_battery_matches_the_full_length_battery_bit_for_bit(monkeypatch, case):
    """Each exterior evaluates the battery on its own nodes, pointwise as on the
    whole grid, so every battery field and study entry keeps its last bit."""
    conv = deltaprime.convergence
    profile, alpha, *_ = _equivalence_case(case)
    g = make_grid(0.025, L=8.0, resolution=32)
    a, b = conv._window(profile, DEFAULT_EPS_LIST[0], g)
    if case == "off-centre":
        assert a != g.N - b  # sides of unequal length
    conv._default_battery.cache_clear()
    got, want = conv._default_battery(g, a, b), _full_length_battery(g, a, b)
    for name in ("F", "fnorm"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert len(got.sides) == len(want.sides) == 2
    for side, ref in zip(got.sides, want.sides):
        for name in ("end", "y_end", "g_end", "y_sq", "gy", "g_sq", "y_res", "g_res"):
            assert np.array_equal(getattr(side, name), getattr(ref, name)), name
    rep = study(profile, alpha, grid=g)
    monkeypatch.setattr(conv, "_default_battery", _full_length_battery)
    ref = study(profile, alpha, grid=g)
    assert rep == ref
    assert repr(rep.fitted_rate) == repr(ref.fitted_rate)


def test_study_sub_solve_failures_name_the_sub_solve(seba, monkeypatch):
    """A breakdown or a non-finite solution inside study names its sub-solve;
    resolvent_apply keeps its own label."""
    conv = deltaprime.convergence
    g = small_grid()
    singular = DiscreteOperator(np.array([[0.0] * g.N, [1j] * g.N, [0.0] * g.N]), "zero")
    with pytest.raises(NumericalFailureError, match=r"^resolvent_apply: elimination breakdown"):
        resolvent_apply(singular, 1j, np.ones(g.N))
    left = r"^study \(left exterior\): "
    with pytest.raises(NumericalFailureError, match=left + "elimination breakdown") as failure:
        conv._sub_solve("study (left exterior)", singular, 1j, np.ones((g.N, 1)))
    assert isinstance(failure.value.__cause__, np.linalg.LinAlgError)
    real = conv.solve_banded

    def poisoning(lu, ab, b):
        x = real(lu, ab, b)
        x[3, 0] = np.nan
        return x

    monkeypatch.setattr(conv, "solve_banded", poisoning)
    with pytest.raises(NumericalFailureError, match=r"^resolvent_apply: non-finite solution$"):
        resolvent_apply(discretize_limit(NonResonant(), g), 1j, np.ones(g.N))
    with pytest.raises(NumericalFailureError, match=left + "non-finite solution$"):
        study(seba, 10.0, grid=_memo_grid())


def _traced_peak(run):
    """Peak bytes that tracemalloc sees allocated while run() runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_study_and_resolvent_apply_peak_memory(seba):
    """A cold default study's exterior solves and a full-grid resolvent_apply
    hold one complex copy of the right-hand side, which LAPACK solves in place,
    and the study's exterior solves no full-length battery beside it: at
    N = 51,200 they peak at 57 and 99 bytes per node.  Holding the battery
    through the exterior solves reads 87, and a second copy of the
    right-hand side per solve 141 and 144."""
    g = make_grid(min(DEFAULT_EPS_LIST), resolution=32)
    assert g.N == 51_200
    warm_up = make_grid(min(DEFAULT_EPS_LIST), L=4.0, resolution=16)
    study(seba, 18.1746, grid=warm_up)  # lazy imports and classify's first shoots
    deltaprime.convergence._default_battery.cache_clear()
    assert _traced_peak(lambda: study(seba, 18.1746, grid=g)) <= 64 * g.N
    op = discretize_seps(seba, 18.1746, min(DEFAULT_EPS_LIST), g)
    F = np.column_stack(default_test_functions(g))
    solutions = []
    assert _traced_peak(lambda: solutions.append(resolvent_apply(op, 1j, F))) <= 110 * g.N
    assert solutions[0].nbytes == 48 * g.N
