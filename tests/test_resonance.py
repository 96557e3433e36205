import os
import subprocess
import sys
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from deltaprime import (
    FundamentalData,
    InvalidInputError,
    NearTangencyWarning,
    NonResonant,
    NotResonantError,
    NumericalFailureError,
    Resonant,
    classify,
    coupling,
    find_resonances,
    from_segments,
    load_profile,
    moments,
    q_factor,
    shoot,
)
import deltaprime
import deltaprime.resonance
import deltaprime.shooting
from deltaprime.resonance import RESIDUAL_SCALE, _brackets_from_scan
from deltaprime.shooting import shoot_batch

from oracles import step_resonance_alpha, step_resonance_theta

TABLE_ALPHAS = [0.0, 18.1747, 57.1490, 117.4863, 199.1756]

DATA = Path(__file__).parent / "data"
#: the benchmark pool's generated profiles pc0 (piecewise constant), d1-0 and
#: d2-0 (degrees 1 and 2), each with m0 = 0 and m1 = -1
PC0 = load_profile(DATA / "pc0.json")
D1_0 = load_profile(DATA / "d1_0.json")
D2_0 = load_profile(DATA / "d2_0.json")


@pytest.fixture(scope="module")
def seba_scan(seba):
    return find_resonances(seba, 0.0, 200.0, 0.5)


def test_seba_full_window_matches_table(seba_scan):
    found = [rv.alpha for rv in seba_scan]
    assert len(found) == len(TABLE_ALPHAS)
    for got, want in zip(found, TABLE_ALPHAS):
        assert got == pytest.approx(want, abs=5e-4)


def test_alpha_zero_entry_is_analytic(seba_scan):
    rv = seba_scan[0]
    assert rv.alpha == 0.0
    assert rv.theta == 1.0
    assert rv.residual == 0.0


def test_results_sorted_and_deduplicated(seba_scan):
    alphas = [rv.alpha for rv in seba_scan]
    assert alphas == sorted(alphas)
    gaps = np.diff(alphas)
    assert np.all(gaps >= 0.5 / 10.0)


def test_residual_invariant(seba_scan, seba):
    for rv in seba_scan:
        fd = shoot(seba, rv.alpha, 0.0)
        assert rv.residual <= 1e-8 * max(1.0, abs(fd.u1))
        assert np.isfinite(rv.theta) and rv.theta != 0.0


def test_zero_profile_has_only_alpha_zero(zero):
    rvs = find_resonances(zero, -10.0, 10.0, 0.5)
    assert [(rv.alpha, rv.theta) for rv in rvs] == [(0.0, 1.0)]


def test_step_window_roots_match_oracle(step):
    rvs = find_resonances(step, -20.0, 20.0, 0.5)
    alpha_star = step_resonance_alpha()
    assert len(rvs) == 3
    assert rvs[0].alpha == pytest.approx(-alpha_star, abs=1e-8)
    assert rvs[1].alpha == 0.0
    assert rvs[2].alpha == pytest.approx(alpha_star, abs=1e-8)
    assert rvs[2].theta == pytest.approx(step_resonance_theta(), rel=1e-8)


def test_symmetric_sets_for_odd_profiles(seba, step):
    for profile, window in ((seba, 25.0), (step, 20.0)):
        rvs = find_resonances(profile, -window, window, 0.5)
        alphas = [rv.alpha for rv in rvs]
        for rv in rvs:
            assert -rv.alpha == pytest.approx(alphas[len(alphas) - 1 - alphas.index(rv.alpha)], abs=1e-9)
        pos = [rv for rv in rvs if rv.alpha > 0]
        neg = [rv for rv in rvs if rv.alpha < 0]
        for p, n in zip(pos, reversed(neg)):
            assert p.theta * n.theta == pytest.approx(1.0, rel=1e-6)


def test_scan_step_refinement_does_not_change_roots(seba, seba_scan):
    finer = find_resonances(seba, 0.0, 200.0, 0.25)
    coarse = [rv.alpha for rv in seba_scan]
    fine = [rv.alpha for rv in finer]
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert a == pytest.approx(b, abs=1e-9)


def test_lagrange_identity_for_returned_values(seba, step):
    for profile in (seba, step):
        for rv in find_resonances(profile, -45.0, 45.0, 0.5):
            fd = shoot(profile, rv.alpha, 0.0)
            assert abs(rv.theta * fd.dv1 - 1.0) <= 1e-8


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_min": 5.0, "alpha_max": 5.0},
        {"alpha_min": 5.0, "alpha_max": 1.0},
        {"alpha_min": float("nan"), "alpha_max": 1.0},
        {"scan_step": 0.0},
        {"scan_step": -1.0},
        # a scan of more than MAX_SCAN_CELLS cells is refused before its grid is built
        {"alpha_min": -1e15, "alpha_max": 1e15},
        {"alpha_min": "a"},
        {"scan_step": 1j},
    ],
)
def test_find_resonances_preconditions(seba, kwargs):
    full = {"alpha_min": -1.0, "alpha_max": 1.0, "scan_step": 0.5}
    full.update(kwargs)
    with pytest.raises(InvalidInputError):
        find_resonances(seba, **full)


def test_brackets_from_scan_sign_change():
    brackets, tang = _brackets_from_scan([0.0, 1.0, 2.0], [1.0, -1.0, 2.0])
    assert brackets == [(0, 1), (1, 2)]
    assert tang == []


def test_brackets_from_scan_grid_zero_crossing():
    # an exact grid zero is refined like any bracket, from its two neighbours
    brackets, _ = _brackets_from_scan([0.0, 1.0, 2.0], [1.0, 0.0, -1.0])
    assert brackets == [(0, 2)]


def test_brackets_from_scan_tangential_zero_ignored():
    brackets, _ = _brackets_from_scan([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
    assert brackets == []


def test_brackets_from_scan_identically_zero():
    brackets, tang = _brackets_from_scan([0.0, 1.0, 2.0], [0.0, 0.0, 0.0])
    assert brackets == [] and tang == []


def test_brackets_from_scan_near_tangency_warning_indices():
    brackets, tang = _brackets_from_scan(
        [0.0, 1.0, 2.0], [1.0, 1e-9, 1.0]
    )
    assert brackets == []
    assert tang == [1]


def test_brackets_from_scan_any_dip_is_reported():
    # |g| has no positive local minimum, so even a shallow dip is a root pair
    assert _brackets_from_scan([0.0, 1.0, 2.0], [1.0, 0.5, 1.0]) == ([], [1])
    # a nonzero root is simple, so a touch of zero has a partner nearby
    assert _brackets_from_scan([0.0, 1.0, 2.0], [-1.0, 0.0, -2.0]) == ([], [1])


def test_brackets_from_scan_skips_the_dip_around_alpha_zero():
    # the double zero at alpha = 0 is the pair that this dip proves
    assert _brackets_from_scan([-1.0, -0.5, 0.5, 1.0], [2.0, 0.3, 0.5, 2.0]) == ([], [])


def test_coupling_at_zero(seba, step, zero):
    # alpha = 0 is classify's analytic root, and a shoot there is exactly u1 = 1
    for profile in (seba, step, zero):
        assert coupling(profile, 0.0) == 1.0


def test_coupling_accepts_tabulated_value(seba):
    assert coupling(seba, 18.1747) == pytest.approx(-54.9385, rel=5e-3)


def test_coupling_at_step_resonance(step):
    alpha = step_resonance_alpha()
    assert coupling(step, alpha) == pytest.approx(step_resonance_theta(), rel=1e-8)


def test_coupling_rejects_nonresonant(seba):
    with pytest.raises(NotResonantError):
        coupling(seba, 10.0)


@pytest.mark.parametrize("alpha", [5e-4, -3e-4])
def test_coupling_accepts_alpha_within_tol_of_zero(seba, step, alpha):
    # |alpha| <= tol: classify's root alpha = 0, which coupling shares
    for profile in (seba, step):
        assert classify(profile, alpha, 1e-3) == Resonant(1.0)
        assert coupling(profile, alpha, 1e-3) == shoot(profile, alpha).u1


def _generated_pc(seed):
    """A seeded piecewise-constant delta-prime-like profile, m0 = 0 and m1 = -1."""
    return _generated(seed, 0)


def _generated(seed, degree):
    """A seeded piecewise-polynomial delta-prime-like profile, m0 = 0 and m1 = -1.

    2-5 pieces at least 0.1 wide with normal coefficients, shifted to m0 = 0
    (which keeps m1) and scaled to m1 = -1; draws with |m1| < 0.2 are redrawn.
    """
    rng = np.random.default_rng(seed)
    powers = np.arange(degree + 1)
    while True:
        pieces = int(rng.integers(2, 6))
        edges = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, pieces - 1)), [1.0]))
        coeffs = rng.normal(size=(pieces, degree + 1))
        a, b = edges[:-1, None], edges[1:, None]
        m0 = np.sum(coeffs * (b ** (powers + 1) - a ** (powers + 1)) / (powers + 1))
        m1 = np.sum(coeffs * (b ** (powers + 2) - a ** (powers + 2)) / (powers + 2))
        if np.min(np.diff(edges)) >= 0.1 and abs(m1) >= 0.2:
            break
    coeffs[:, 0] -= m0 / 2.0
    coeffs /= -m1
    rows = zip(edges[:-1], edges[1:], coeffs)
    return from_segments([(a, b, tuple(c.tolist())) for a, b, c in rows])


@lru_cache(maxsize=None)
def _generated_roots(seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearTangencyWarning)
        return [rv.alpha for rv in find_resonances(_generated_pc(seed), -60.0, 60.0)]


def _decision_cases(n=60):
    # (seed, alpha, snap, tol): a fixed draw over seeds 0-40, alpha in
    # [-60, 60] or snapped to a root, and four tolerances, after the window
    # edges and a point where |g| is tiny but no root lies within tol
    rng = np.random.default_rng(0)
    cases = [(0, 6.1e-5, None, 1e-8), (0, 0.0, None, 1e-3), (7, 60.0, None, 2.0),
             (11, -60.0, None, 0.3), (3, 1e-300, None, 1e-8)]
    while len(cases) < n:
        snap = int(rng.integers(0, 100)) if rng.random() < 0.5 else None
        tol = float(rng.choice([1e-8, 1e-3, 0.3, 2.0]))
        cases.append((int(rng.integers(0, 41)), float(rng.uniform(-60.0, 60.0)), snap, tol))
    return cases


@pytest.mark.parametrize("seed, alpha, snap, tol", _decision_cases())
def test_classify_and_coupling_decide_as_find_resonances(seed, alpha, snap, tol):
    # one decision: classify is the root of find_resonances on [alpha - tol,
    # alpha + tol] nearest alpha, and coupling accepts exactly when it does;
    # snap moves alpha to a root's 6-digit rounding
    profile = _generated_pc(seed)
    if snap is not None:
        roots = _generated_roots(seed)
        alpha = float(f"{roots[snap % len(roots)]:.6g}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NearTangencyWarning)
        found = find_resonances(profile, alpha - tol, alpha + tol)
    nearest = min(found, key=lambda rv: abs(rv.alpha - alpha), default=None)
    c = classify(profile, alpha, tol)
    if nearest is None:
        assert c == NonResonant()
        with pytest.raises(NotResonantError):
            coupling(profile, alpha, tol)
    else:
        assert c == Resonant(nearest.theta)
        assert coupling(profile, alpha, tol) == shoot(profile, alpha).u1


@pytest.fixture(scope="module", params=range(4))
def generated(request):
    profile = _generated_pc(request.param)
    return profile, find_resonances(profile, -60.0, 60.0)


def test_generated_profiles_are_delta_prime_like(generated):
    m = moments(generated[0])
    assert m.m0 == pytest.approx(0.0, abs=1e-12)
    assert m.m1 == pytest.approx(-1.0, rel=1e-12)
    assert len(generated[1]) >= 3


def test_generated_mirror_and_q_invariants(generated):
    profile, roots = generated
    mirrored = find_resonances(profile.reflected(), -60.0, 60.0)
    assert len(mirrored) == len(roots)
    for rv, rm in zip(roots, mirrored):
        assert rm.alpha == pytest.approx(rv.alpha, rel=1e-12, abs=0.0)
        assert rv.theta * rm.theta == pytest.approx(1.0, rel=0.0, abs=1e-10)
        q = -(rv.theta + 1.0 / rv.theta)
        assert q_factor(profile, rv.alpha) == pytest.approx(q, rel=1e-9)


def test_generated_rounded_roots_accepted_by_classify_and_coupling(generated):
    profile, roots = generated
    for rv in roots:
        alpha = float(f"{rv.alpha:.6g}")
        assert isinstance(classify(profile, alpha, 1e-3), Resonant)
        assert coupling(profile, alpha, 1e-3) == shoot(profile, alpha).u1


def test_generated_far_from_roots_both_reject(generated):
    profile, roots = generated
    alphas = [rv.alpha for rv in roots]
    far = [a for a in np.arange(-59.5, 60.0, 1.5) if min(abs(a - r) for r in alphas) >= 1.0]
    assert len(far) >= 10
    for alpha in far:
        assert classify(profile, alpha, 1e-3) == NonResonant()
        with pytest.raises(NotResonantError):
            coupling(profile, alpha, 1e-3)


def test_classify_zero_resonant(seba, step, zero):
    for profile in (seba, step, zero):
        c = classify(profile, 0.0, 1e-8)
        assert isinstance(c, Resonant) and c.theta == 1.0


def test_classify_tabulated_with_loose_tol(seba):
    c = classify(seba, 18.1747, 1e-3)
    assert isinstance(c, Resonant)
    assert c.theta == pytest.approx(-54.9385, rel=5e-3)


def test_classify_tabulated_with_tight_tol_is_nonresonant(seba):
    assert isinstance(classify(seba, 18.1747, 1e-8), NonResonant)


def test_classify_nonresonant(seba):
    assert isinstance(classify(seba, 10.0, 1e-8), NonResonant)


def test_classify_preconditions(seba):
    with pytest.raises(InvalidInputError):
        classify(seba, 1.0, 0.0)
    with pytest.raises(InvalidInputError):
        classify(seba, float("inf"), 1e-8)
    with pytest.raises(InvalidInputError, match="exceeds"):
        classify(seba, 5.0, 1e15)
    with pytest.raises(InvalidInputError, match="classify: alpha must be a real number"):
        classify(seba, "x")
    with pytest.raises(InvalidInputError, match="classify: tol must be a real number"):
        classify(seba, 1.0, "t")


def test_coupling_rejects_a_non_real_alpha(seba):
    with pytest.raises(InvalidInputError, match="coupling: alpha must be a real number"):
        coupling(seba, None)


def test_scan_size_limit_admits_large_windows(seba, monkeypatch):
    # a flat fake g keeps the scan cheap: 160,000 and 400,000 cells are
    # scanned, and one cell more than MAX_SCAN_CELLS is refused
    limit = deltaprime.resonance.MAX_SCAN_CELLS
    monkeypatch.setattr(deltaprime.resonance, "_scan_values", lambda p, alphas: [1.0] * len(alphas))
    assert [rv.alpha for rv in find_resonances(seba, -40000.0, 40000.0)] == [0.0]
    assert classify(seba, 0.0, 1e5) == Resonant(1.0)
    with pytest.raises(InvalidInputError, match="exceeds"):
        find_resonances(seba, 0.0, 1.0, 1.0 / (limit + 1))


def test_root_within_half_a_scan_step_of_zero():
    # seba scaled by 100 has roots +-0.181746, inside |alpha| < DEFAULT_SCAN_STEP/2;
    # a window without 0 scans them, one holding 0 skips that zone
    seba100 = from_segments([(-1.0, 0.0, (0.0, -600.0, -600.0)), (0.0, 1.0, (0.0, -600.0, 600.0))])
    for alpha in (0.181746, -0.181746):
        (root,) = find_resonances(seba100, alpha - 1e-3, alpha + 1e-3)
        assert root.alpha == pytest.approx(alpha, abs=1e-6)
        assert classify(seba100, alpha, 1e-3) == Resonant(root.theta)
        assert coupling(seba100, alpha, 1e-3) == shoot(seba100, alpha).u1
    assert [rv.alpha for rv in find_resonances(seba100, -0.2, 0.2)] == [0.0]


def test_classify_takes_the_nearest_root_not_alpha_zero(seba):
    # [-0.5, 19.5] holds alpha = 0 and the root 18.1746, which is nearer 9.5
    roots = find_resonances(seba, -0.5, 19.5)
    assert [round(rv.alpha, 4) for rv in roots] == [0.0, 18.1746]
    assert classify(seba, 9.5, 10.0) == Resonant(roots[1].theta)


def test_find_resonances_deterministic(seba):
    first = find_resonances(seba, -25.0, 25.0, 0.5)
    second = find_resonances(seba, -25.0, 25.0, 0.5)
    assert [rv.alpha for rv in first] == [rv.alpha for rv in second]
    assert [rv.theta for rv in first] == [rv.theta for rv in second]
    grid = np.linspace(-25.0, 25.0, 101)
    u1, du1, v1, dv1 = shoot_batch(seba, grid)
    for i, a in enumerate(grid):
        fd = shoot(seba, a)
        assert (u1[i], du1[i], v1[i], dv1[i]) == (fd.u1, fd.du1, fd.v1, fd.dv1)


@pytest.mark.parametrize("name", ["seba", "step"])
def test_find_resonances_shoot_budget(name, request, monkeypatch):
    profile = request.getfixturevalue(name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return shoot(*args, **kwargs)

    monkeypatch.setattr(deltaprime.shooting, "shoot", counting)
    monkeypatch.setattr(deltaprime.resonance, "shoot", counting)
    roots = [rv for rv in find_resonances(profile, 0.0, 200.0) if rv.alpha != 0.0]
    assert len(roots) >= 4
    assert len(calls) <= 6 * len(roots)


#: the step root with tan m = tanh m, m ~ 13.352, alpha = -m^2, and its
#: coupling value theta = cos(m)cosh(m) - sin(m)sinh(m), both from the closed
#: form evaluated offline with mpmath at 60 digits
STEP_TINY_ALPHA = -178.2697294946090297911157
STEP_TINY_THETA = 2.248617022318632212395641e-06


def test_tiny_theta_step_root_matches_closed_form(step):
    roots = find_resonances(step, -180.0, -176.0)
    assert len(roots) == 1
    rv = roots[0]
    assert rv.alpha == pytest.approx(STEP_TINY_ALPHA, rel=1e-14)
    # u1 itself is off by ~1e-4 relative here; 1/dv1 is well conditioned
    assert rv.theta == pytest.approx(STEP_TINY_THETA, rel=1e-10)


def test_tiny_theta_seba_mirror_classify_matches_golden(seba):
    c = classify(seba.reflected(), 199.176, 1e-3)
    assert isinstance(c, Resonant)
    assert c.theta == pytest.approx(1.0 / 755823.0, rel=1e-6)


#: pc0's tiny-theta root; the root and its coupling value theta = 1/v'(1)
#: come from the closed form evaluated offline with mpmath at 50 digits
PC0_TINY_ALPHA = -186.5935435744515608274319
PC0_TINY_THETA = -1.114185728078103264031722e-07


def test_tiny_theta_root_passes_mirror_symmetric_gate():
    profile = PC0
    roots = find_resonances(profile, -190.0, -183.0)
    assert len(roots) == 1
    # |u1| ~ 1e-7 and |dv1| ~ 9e6 here: the residual 3e-8 is small only
    # against the scale of the transfer matrix, which is |dv1|
    assert roots[0].alpha == pytest.approx(PC0_TINY_ALPHA, rel=1e-14)
    assert roots[0].theta == pytest.approx(PC0_TINY_THETA, rel=1e-10)

    direct = find_resonances(profile)
    mirrored = find_resonances(profile.reflected())
    assert len(direct) == len(mirrored) >= 2
    for rv, rm in zip(direct, mirrored):
        assert rv.alpha == pytest.approx(rm.alpha, rel=1e-14, abs=0.0)
        assert rv.theta * rm.theta == pytest.approx(1.0, rel=1e-12)


def test_root_gate_allows_for_the_rounding_of_alpha():
    """d2-0's root near 405.924: g' ~ 9e12, so the nearest double leaves
    |g| ~ 0.3, above the scale term 1e-8*max(1, |u1|, |dv1|) ~ 0.07 alone."""
    profile = load_profile(Path(__file__).parent / "data" / "d2_0.json")
    [rv] = find_resonances(profile, 400.0, 450.0)
    assert rv.alpha == pytest.approx(405.924, abs=1e-3)
    fd = shoot(profile, rv.alpha, 0.0)
    assert rv.residual == abs(fd.du1)
    scale = RESIDUAL_SCALE * max(1.0, abs(fd.u1), abs(fd.dv1))
    lo, hi = rv.bracket
    slope = abs(shoot(profile, hi, 0.0).du1 - shoot(profile, lo, 0.0).du1) / (hi - lo)
    assert scale < rv.residual <= scale + slope * np.spacing(rv.alpha)


def test_root_gate_rejects_a_sign_change_without_a_root(seba, monkeypatch):
    """A jump of g is bracketed to xtol ~ 1e-13 at alpha ~ 1, where the
    rounding term |g'|*ulp(alpha) stays far below the jump."""
    _fake_g(monkeypatch, lambda a: np.where(np.asarray(a) < 1.0 + 1e-3, -1.0, 1.0))
    with pytest.raises(NumericalFailureError, match="stalled"):
        find_resonances(seba, 0.5, 1.5, 0.5)


def _fake_g(monkeypatch, g):
    """Make g(alpha) the Neumann mismatch, with u1 = v'(1) = 1 and v1 = 0."""

    def fake_shoot(profile, alpha, kappa2=0.0, **kwargs):
        return FundamentalData(1.0, float(g(alpha)), 0.0, 1.0, 0.0)

    def fake_batch(profile, alphas, **kwargs):
        a = np.asarray(alphas, dtype=float)
        one = np.ones_like(a)
        return one, g(a), np.zeros_like(a), one

    monkeypatch.setattr(deltaprime.resonance, "shoot", fake_shoot)
    monkeypatch.setattr(deltaprime.resonance, "shoot_batch", fake_batch)


def test_close_roots_in_adjacent_cells_are_both_returned(seba, monkeypatch):
    _fake_g(monkeypatch, lambda a: (a - 0.99) * (a - 1.01))
    roots = find_resonances(seba, 0.5, 1.5, 0.5)
    assert [rv.alpha for rv in roots] == pytest.approx([0.99, 1.01], abs=1e-12)


def test_near_tangency_warns_from_every_search(seba, monkeypatch):
    _fake_g(monkeypatch, lambda a: (a - 1.0) ** 2 + 1e-9)
    with pytest.warns(NearTangencyWarning) as record:
        assert find_resonances(seba, 0.5, 1.5, 0.5) == []
    assert len(record) == 1
    assert record[0].filename == __file__
    with pytest.warns(NearTangencyWarning) as record:
        assert classify(seba, 1.0, 0.5) == NonResonant()
    assert len(record) == 1
    assert record[0].filename == __file__
    with pytest.warns(NearTangencyWarning), pytest.raises(NotResonantError):
        coupling(seba, 1.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearTangencyWarning)
        assert classify(seba, 1.0, 1e-3) == NonResonant()  # one cell: no dip to see


def test_classify_warns_on_a_dip_as_find_resonances_does():
    # seba scaled by 100 has the roots +-0.181746 and +-0.5715 within one
    # 0.5 scan step, so g dips between them without a sign change
    seba100 = from_segments(
        [(-1.0, 0.0, (0.0, -600.0, -600.0)), (0.0, 1.0, (0.0, -600.0, 600.0))]
    )
    for alpha in (0.5715, -0.5715):
        with pytest.warns(NearTangencyWarning, match="at least two roots") as scan:
            assert find_resonances(seba100, alpha - 0.5, alpha + 0.5) == []
        with pytest.warns(NearTangencyWarning, match="at least two roots") as record:
            assert classify(seba100, alpha, 0.5) == NonResonant()
        assert [str(w.message) for w in record] == [str(w.message) for w in scan]
        with pytest.warns(NearTangencyWarning), pytest.raises(NotResonantError):
            coupling(seba100, alpha, 0.5)


def test_alpha_zero_reported_once_when_g_crosses_there():
    # m0 != 0 makes alpha = 0 a simple zero of g, so the cell around it
    # brackets a sign change whose refined root is alpha = 0 itself
    profile = from_segments([(-1.0, 0.0, (2.0,)), (0.0, 1.0, (-1.0,))])
    roots = find_resonances(profile, -5.0, 5.0, 0.5)
    assert [(rv.alpha, rv.theta) for rv in roots if abs(rv.alpha) < 0.5] == [(0.0, 1.0)]
    assert any(rv.alpha > 0.5 for rv in roots)


def test_grid_zero_is_refined_through_brent(seba, monkeypatch):
    _fake_g(monkeypatch, lambda a: a - 1.0)
    roots = find_resonances(seba, 0.5, 1.5, 0.25)
    assert [(rv.alpha, rv.residual) for rv in roots] == [(1.0, 0.0)]


#: the benchmark pool's generated degree-1 profile d1-0 (m0 = 0, m1 = -1):
#: (a, b, (c0, c1)) with psi = c0 + c1*x on [a, b]
D1_0_SEGMENTS = (
    (-1.0, -0.8274012240775848, (2.147350185069295, 0.5459633595311064)),
    (-0.8274012240775848, -0.5230295975813357, (-0.9969045525991681, 0.05196396473979383)),
    (-0.5230295975813357, -0.35660458539563034, (-1.1019781360278729, -2.5930590313378485)),
    (-0.35660458539563034, 0.5414444413549306, (1.5589482297038257, -2.4782425887183526)),
    (0.5414444413549306, 1.0, (-1.8988901638739513, -0.849994161569415)),
)


def test_root_pair_in_one_scan_cell_pair_warns():
    profile = from_segments(D1_0_SEGMENTS)
    with pytest.warns(NearTangencyWarning) as record:
        coarse = find_resonances(profile, 0.0, 100.0, 5.0)
    assert len(record) == 1
    assert "alpha=20.0 " in str(record[0].message)
    assert not any(15.0 < rv.alpha < 25.0 for rv in coarse)
    pair = [rv.alpha for rv in find_resonances(profile, 10.0, 30.0, 0.5)]
    assert pair == pytest.approx([20.490037, 23.843048], abs=1e-6)
    assert all(15.0 < a < 25.0 for a in pair)


@pytest.mark.parametrize("key", [0, 1, 2, 3, "seba", "d1-0"])
def test_g_has_no_dip_on_a_fine_scan(key, seba):
    # Laguerre-Polya: away from alpha = 0, |g| has no positive local minimum,
    # and the default scan finds every sign change that a 5x finer one sees
    profiles = {"seba": seba, "d1-0": from_segments(D1_0_SEGMENTS)}
    profile = profiles[key] if key in profiles else _generated_pc(key)
    grid = np.linspace(-60.0, 60.0, 1201)
    brackets, dips = _brackets_from_scan(grid, shoot_batch(profile, grid)[1])
    assert dips == []
    roots = [rv for rv in find_resonances(profile, -60.0, 60.0, 0.5) if rv.alpha != 0.0]
    assert len(brackets) == len(roots)


#: the step root with tan m = tanh m, m ~ 19.635, alpha = -m^2, and its
#: coupling value theta = cos(m)cosh(m) - sin(m)sinh(m), from the closed form
#: evaluated offline with mpmath at 60 digits; the refinement's final shoot
#: there has u1 = du1 = 0.0 exactly, and theta is 1/dv1
STEP_FAR_ALPHA = -385.5314219175530707019997
STEP_FAR_THETA = 4.199163514713174157535386e-09


def test_step_root_where_u1_rounds_to_zero(step):
    roots = find_resonances(step, -390.0, -380.0)
    assert len(roots) == 1
    assert roots[0].alpha == pytest.approx(STEP_FAR_ALPHA, rel=1e-14)
    assert roots[0].theta == pytest.approx(STEP_FAR_THETA, rel=1e-10)


def test_root_gate_retries_on_adjacent_doubles(monkeypatch):
    """d1-0's root at -702.41, refined from its scan cell [-702.5, -702.0]
    without a seed: Brent stops at a bracket ~11 ulps wide whose returned
    end has |g| = 0.223 against a gate of 0.221 (0.245 against 0.216 on the
    mirror), while a double across the sign change has |g| = 0.028.  Brent
    closes the bracket to adjacent doubles, shooting no alpha twice, and the
    better end is taken."""
    calls = []
    monkeypatch.setattr(
        deltaprime.resonance, "shoot", lambda *args: calls.append(args[1]) or shoot(*args)
    )
    roots = []
    for profile in (D1_0, D1_0.reflected()):
        a, b = -702.5, -702.0
        fa, fb = (shoot(profile, x, 0.0).du1 for x in (a, b))
        calls.clear()
        rv = deltaprime.resonance._refine_and_package(profile, a, b, fa, fb)
        assert len(calls) == len(set(calls)) == 5
        lo, hi = rv.bracket
        assert np.nextafter(lo, hi) == hi
        ends = [abs(shoot(profile, x, 0.0).du1) for x in (lo, hi)]
        assert rv.residual == abs(shoot(profile, rv.alpha, 0.0).du1) == min(ends)
        roots.append(rv)
    rv, rm = roots
    assert rv.alpha == rm.alpha == pytest.approx(-702.4113852728974, abs=1e-12)
    assert rv.theta * rm.theta == pytest.approx(1.0, rel=1e-7)


#: theta at three roots of d2-0 where max|M| ~ 1e16, so that u1 and dv1 each
#: carry an absolute error above 1; from 60-digit Taylor-series propagation
#: with mpmath, offline, at the true roots
D2_0_FAR_THETA = {
    -969.8390314114904: -1.168775898338728296e-16,
    -772.3861551881411: -2.261547735040127437e-15,
    643.0978913105782: -7.121226389246146512e-18,
}
#: the same for pc0's root at -953.731
PC0_FAR_THETA = {-953.7311093306816: -9.675306909298686624e-17}


@pytest.mark.parametrize(
    "profile, alpha, theta",
    [(D2_0, a, t) for a, t in D2_0_FAR_THETA.items()]
    + [(PC0, a, t) for a, t in PC0_FAR_THETA.items()],
    ids=["d2-0-a", "d2-0-b", "d2-0-c", "pc0"],
)
def test_theta_takes_the_larger_of_u1_and_dv1(profile, alpha, theta):
    # u1's absolute error exceeds |theta| many times over here; 1/dv1's does not
    [rv] = find_resonances(profile, alpha - 2.0, alpha + 2.0)
    assert rv.alpha == pytest.approx(alpha, rel=1e-14)
    assert rv.theta == pytest.approx(theta, rel=1e-9)


# --- the predicted scan ------------------------------------------------------


def _outcome(profile, lo, hi, step):
    """find_resonances' roots with every field, or its error, and its warning texts."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        try:
            roots = find_resonances(profile, lo, hi, step)
            result = [(rv.alpha, rv.theta, rv.residual, rv.bracket) for rv in roots]
        except NumericalFailureError as exc:
            result = str(exc)
    return result, [str(w.message) for w in record]


def _tight_outcome(monkeypatch, profile, lo, hi, step):
    """``_outcome`` with the whole scan grid shot tight by one ``shoot_batch``."""
    with monkeypatch.context() as m:
        m.setattr(deltaprime.resonance, "_scan_values", lambda p, alphas: shoot_batch(p, alphas)[1])
        return _outcome(profile, lo, hi, step)


def _counting_batch(monkeypatch):
    """Record the alphas of every ``shoot_batch`` call the scan makes."""
    calls = []

    def counting(profile, alphas, *args, **kwargs):
        calls.append(np.array(alphas, dtype=float))
        return shoot_batch(profile, alphas, *args, **kwargs)

    monkeypatch.setattr(deltaprime.resonance, "shoot_batch", counting)
    return calls


_NAMED = {
    "seba": lambda: deltaprime.builtin_profile("seba-quadratic"),
    "step": lambda: deltaprime.builtin_profile("step"),
    "d1-0": lambda: load_profile(DATA / "d1_0.json"),
    "d2-0": lambda: load_profile(DATA / "d2_0.json"),
    "seba-sampled-201": lambda: load_profile(DATA / "seba_sampled_201.json"),
}
_WINDOWS = [(-300.0, 300.0, 0.5), (-50.0, 50.0, 0.05)]


@pytest.mark.parametrize("window", _WINDOWS, ids=["wide", "fine"])
@pytest.mark.parametrize(
    "key",
    list(_NAMED)
    + [pytest.param((d, s), id=f"gen{d}-{s}") for d in range(3) for s in (100, 101, 102, 103)],
)
def test_predicted_scan_equals_a_tight_scan(key, window, monkeypatch):
    # alpha, theta, residual, bracket, errors and warnings, bit for bit
    profile = _NAMED[key]() if key in _NAMED else _generated(key[1], key[0])
    assert _outcome(profile, *window) == _tight_outcome(monkeypatch, profile, *window)


def test_predicted_scan_shoots_few_of_the_table6_grid(seba, monkeypatch):
    calls = _counting_batch(monkeypatch)
    roots = find_resonances(seba, 0.0, 200.0, 0.5)
    assert [rv.alpha for rv in roots] == pytest.approx(TABLE_ALPHAS, abs=5e-4)
    # one interpolant of 33 points, then both ends of each of the 4 brackets
    assert [len(x) for x in calls] == [33, 8]


def test_predicted_scan_warns_on_a_dip_as_a_tight_scan(monkeypatch):
    # 81 scan points, more than one interpolant shoots, with the root pair
    # 20.49, 23.84 inside one cell pair: the dip's triple is shot tight
    profile = load_profile(DATA / "d1_0.json")
    calls = _counting_batch(monkeypatch)
    roots, warned = _outcome(profile, 0.0, 400.0, 5.0)
    assert sum(len(x) for x in calls) < 81
    assert np.all(np.isin([15.0, 20.0, 25.0], np.concatenate(calls)))
    assert len(warned) == 1 and "alpha=20.0 " in warned[0]
    assert (roots, warned) == _tight_outcome(monkeypatch, profile, 0.0, 400.0, 5.0)


def _tight_grid(key, lo, hi, step):
    """``_roots``' scan grid, the scan's values on it, and their tight shoots."""
    grid = np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)
    grid = grid[np.abs(grid) >= step / 2.0]
    profile = _NAMED[key]()
    return grid, deltaprime.resonance._scan_values(profile, grid), shoot_batch(profile, grid)[1]


@pytest.mark.parametrize(
    "key, window",
    [("seba", (0.0, 200.0, 0.5)), ("d1-0", (0.0, 400.0, 5.0)), ("d2-0", (-300.0, 300.0, 0.5))],
)
def test_scan_values_are_tight_where_a_decision_reads_them(key, window):
    # bracket ends and dip triples are shoots, bit for bit, and every sign is right
    grid, g, tight = _tight_grid(key, *window)
    brackets, dips = _brackets_from_scan(grid, g)
    read = [i for pair in brackets for i in pair] + [i + d for i in dips for d in (-1, 0, 1)]
    assert len(read) > 0 and np.all(g[read] == tight[read])
    assert np.all(np.sign(g) == np.sign(tight))
    assert (brackets, dips) == _brackets_from_scan(grid, tight)


def test_scan_values_are_tight_where_the_bound_leaves_the_sign_open(monkeypatch):
    # a floor of 1e-5 of max|g| on one interpolant of seba on [0.5, 200]
    # leaves 14 signs open, more than the 8 bracket ends
    monkeypatch.setattr(deltaprime.resonance, "_CHEB_FLOOR", 1e-5)
    calls = _counting_batch(monkeypatch)
    grid, g, tight = _tight_grid("seba", 0.0, 200.0, 0.5)
    assert [len(x) for x in calls[:2]] == [33, 74]
    scale = np.max(np.abs(shoot_batch(_NAMED["seba"](), calls[0])[1]))
    open_ = np.abs(tight) <= 1e-5 * scale
    assert np.count_nonzero(open_) > 8 and np.all(g[open_] == tight[open_])


def test_contradicted_bound_shoots_the_piece_tight(seba, monkeypatch):
    # a bound far below the interpolant's true error: the first tight value,
    # a bracket end, contradicts it, and the piece's whole grid is shot tight
    monkeypatch.setattr(deltaprime.resonance, "_CHEB_BOUND", 0.0)
    monkeypatch.setattr(deltaprime.resonance, "_CHEB_FLOOR", 1e-300)
    calls = _counting_batch(monkeypatch)
    outcome = _outcome(seba, 0.0, 200.0, 0.5)
    grid = np.linspace(0.0, 200.0, 401)
    assert np.all(np.isin(grid[grid >= 0.25], np.concatenate(calls)))
    assert outcome == _tight_outcome(monkeypatch, seba, 0.0, 200.0, 0.5)


def test_low_degree_interpolants_halve_down_to_tight_grids(seba, monkeypatch):
    # at degree 4 no piece of [-50, 50] fits, so the pieces halve down to
    # tight grids, with the same answers
    monkeypatch.setattr(deltaprime.resonance, "_CHEB_DEGREE", 4)
    calls = _counting_batch(monkeypatch)
    outcome = _outcome(seba, -50.0, 50.0, 0.05)
    assert len(calls) > 1
    assert outcome == _tight_outcome(monkeypatch, seba, -50.0, 50.0, 0.05)


def test_failing_prediction_falls_back_to_the_tight_grid(seba, monkeypatch):
    # a shoot that fails off the scan grid, as a Chebyshev point past an
    # overflow would: the grid is shot tight, and fails only as it would alone
    grid = np.linspace(0.0, 200.0, 401)

    def failing(profile, alphas, *args, **kwargs):
        if not np.all(np.isin(alphas, grid)):
            raise NumericalFailureError("shoot: failed off the grid")
        return shoot_batch(profile, alphas, *args, **kwargs)

    monkeypatch.setattr(deltaprime.resonance, "shoot_batch", failing)
    outcome = _outcome(seba, 0.0, 200.0, 0.5)
    assert len(outcome[0]) == 5
    assert outcome == _tight_outcome(monkeypatch, seba, 0.0, 200.0, 0.5)


def test_predicted_scan_near_overflow(seba, monkeypatch):
    # |g| reaches 4e307 on [5.25e5, 5.35e5], and the interpolant's
    # coefficients overflow: no warning, and the answers of a tight scan
    window = (5.25e5, 5.35e5, 250.0)
    roots, warned = _outcome(seba, *window)
    assert warned == [] and len(roots) > 0
    assert (roots, warned) == _tight_outcome(monkeypatch, seba, *window)


def _brackets_by_loop(alphas, gvals):
    """The scan decisions one grid index at a time, as a loop states them."""
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


@pytest.mark.parametrize("seed", range(20))
def test_brackets_from_scan_matches_a_loop(seed):
    # random signs, magnitudes and exact zeros on grids that straddle 0 or not
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 60))
    alphas = np.sort(rng.uniform(-3.0, 3.0 if seed % 2 else -0.1, n))
    gvals = rng.choice([-1.0, 0.0, 1.0], n, p=[0.4, 0.2, 0.4]) * rng.integers(1, 4, n)
    assert _brackets_from_scan(alphas, gvals) == _brackets_by_loop(alphas.tolist(), gvals)


def test_scan_path_imports_no_scipy():
    code = (
        "import sys, deltaprime as dp;"
        "dp.find_resonances(dp.builtin_profile('seba-quadratic'), 0, 200);"
        "assert not any(m.startswith('scipy') for m in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(deltaprime.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_seeded_window_shoots_at_most_three_times(seba, monkeypatch):
    # 8 grid points shot whole: the seed lands ulps from the root, so Brent
    # closes in 3 single shoots where the two ends alone take 5
    calls = []
    monkeypatch.setattr(
        deltaprime.resonance, "shoot", lambda *args: calls.append(args[1]) or shoot(*args)
    )
    [rv] = find_resonances(seba, 16.5, 20.0)
    assert len(calls) <= 3
    assert rv.alpha == pytest.approx(TABLE_ALPHAS[1], abs=5e-4)


#: (alpha, theta, residual, bracket) of each root, as Brent's method from the
#: scanned ends gives them: a 2-point window (classify's kind) and windows of
#: more than one interpolant's 33 points take no seed
_UNSEEDED = [
    ("seba", 18.0, 18.5, [(18.1746073539246, -54.93758164985494, 2.510584333195486e-13,
                           (18.1746073539246, 18.17460735392465))]),
    ("seba", 0.0, 30.0, [(0.0, 1.0, 0.0, (-0.25, 0.25)),
                         (18.1746073539246, -54.93758164985494, 2.510584333195486e-13,
                          (18.1746073539246, 18.17460735392465))]),
    ("seba", 100.0, 125.0, [(117.48635322113653, -32156.596235720262, 3.4342519941114175e-10,
                             (117.48635322113643, 117.48635322113653))]),
    ("d1-0", -710.0, -690.0, [(-702.4113852728974, 3.6787679344186115e-05, 0.027864583333212067,
                               (-702.4113852728975, -702.4113852728974))]),
]


@pytest.mark.parametrize(
    "key, lo, hi, want", _UNSEEDED, ids=["2-point", "60-point", "51-point", "41-point"]
)
def test_unseeded_windows_keep_brent_from_the_ends(key, lo, hi, want):
    roots = find_resonances(_NAMED[key](), lo, hi)
    assert [(rv.alpha, rv.theta, rv.residual, rv.bracket) for rv in roots] == want


#: windows of 4 to 33 scan points at scan_step 0.5, each seeded: 16 wide over
#: [-184, 184] except around 0, one holding 0 and one of 8 points
_SEEDED_WINDOWS = [(lo, lo + 16.0) for lo in np.arange(-184.0, 184.0, 16.0) if not -16.0 < lo < 0.0]
_SEEDED_WINDOWS += [(-3.0, 5.0), (16.5, 20.0)]


@pytest.mark.parametrize(
    "key", ["seba", "step", "d1-0", "d2-0", "seba-sampled-201", "pc0", "gen0", "gen1", "gen2"]
)
def test_seeded_roots_stay_within_xtol_of_brent_from_the_ends(key):
    # each seeded root lies within xtol of Brent's root from the scanned ends,
    # passes the gate (find_resonances raises otherwise) and keeps theta*theta' = 1
    if key == "pc0":
        profile = PC0
    elif key.startswith("gen"):
        profile = _generated(100, int(key[3:]))
    else:
        profile = _NAMED[key]()
    for lo, hi in _SEEDED_WINDOWS:
        roots = []
        for p in (profile, profile.reflected()):
            grid = np.linspace(lo, hi, int(round((hi - lo) / 0.5)) + 1)
            grid = grid[np.abs(grid) >= 0.25]
            g = shoot_batch(p, grid)[1]
            brackets, _ = _brackets_from_scan(grid, g)
            seeded = [rv for rv in find_resonances(p, lo, hi) if rv.alpha != 0.0]
            assert len(seeded) == len(brackets)
            for rv, (i, j) in zip(seeded, brackets):
                a, b = float(grid[i]), float(grid[j])
                plain = deltaprime.resonance._refine_and_package(p, a, b, float(g[i]), float(g[j]))
                xtol = max(1e-13, 8.0 * abs(0.5 * (a + b)) * np.finfo(float).eps)
                assert abs(rv.alpha - plain.alpha) <= xtol
                assert rv.residual == abs(shoot(p, rv.alpha, 0.0).du1)
            roots.append(seeded)
        for rv, rm in zip(*roots):
            assert rv.theta * rm.theta == pytest.approx(1.0, rel=1e-7)
