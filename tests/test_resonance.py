import warnings

import numpy as np
import pytest

from deltaprime import (
    FundamentalData,
    InvalidInputError,
    NearTangencyWarning,
    NonResonant,
    NotResonantError,
    Resonant,
    classify,
    coupling,
    find_resonances,
    from_segments,
    moments,
    q_factor,
    shoot,
)
import deltaprime.resonance
import deltaprime.shooting
from deltaprime.resonance import _brackets_from_scan
from deltaprime.shooting import shoot_batch

from oracles import step_resonance_alpha, step_resonance_theta

TABLE_ALPHAS = [0.0, 18.1747, 57.1490, 117.4863, 199.1756]


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
    # a shoot at alpha = 0 is exactly u1 = 1, du1 = 0, so the root gate accepts it
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
    # |alpha| <= tol: classify's root alpha = 0, which coupling now shares
    for profile in (seba, step):
        assert classify(profile, alpha, 1e-3) == Resonant(1.0)
        assert coupling(profile, alpha, 1e-3) == shoot(profile, alpha).u1


def _generated_pc(seed):
    """A seeded piecewise-constant delta-prime-like profile, m0 = 0 and m1 = -1.

    2-5 pieces at least 0.1 wide with normal values, shifted to m0 = 0 (which
    keeps m1) and scaled to m1 = -1; draws with |m1| < 0.2 are redrawn.
    """
    rng = np.random.default_rng(seed)
    while True:
        pieces = int(rng.integers(2, 6))
        edges = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, pieces - 1)), [1.0]))
        values = rng.normal(size=pieces)
        m0 = np.sum(values * np.diff(edges))
        m1 = np.sum(values * np.diff(edges**2)) / 2.0
        if np.min(np.diff(edges)) >= 0.1 and abs(m1) >= 0.2:
            break
    values = (values - m0 / 2.0) / -m1
    return from_segments([(a, b, (float(v),)) for a, b, v in zip(edges[:-1], edges[1:], values)])


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


#: a generated piecewise-constant profile (m0 = 0, m1 = -1) with a tiny-theta
#: root; the root and its coupling value theta = 1/v'(1) come from the closed
#: form evaluated offline with mpmath at 50 digits
PC0_SEGMENTS = (
    (-1.0, -0.4676200826944217, (1.8783578559106588,)),
    (-0.4676200826944217, 1.0, (-0.6813752494883338,)),
)
PC0_TINY_ALPHA = -186.5935435744515608274319
PC0_TINY_THETA = -1.114185728078103264031722e-07


def test_tiny_theta_root_passes_mirror_symmetric_gate():
    profile = from_segments(PC0_SEGMENTS)
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


def test_near_tangency_warns_only_from_find_resonances(seba, monkeypatch):
    _fake_g(monkeypatch, lambda a: (a - 1.0) ** 2 + 1e-9)
    with pytest.warns(NearTangencyWarning) as record:
        assert find_resonances(seba, 0.5, 1.5, 0.5) == []
    assert len(record) == 1
    assert record[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error", NearTangencyWarning)
        assert classify(seba, 1.0, 1e-3) == NonResonant()
        coupling(seba, 1.0)


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
