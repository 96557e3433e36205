import gc
import json
import math
import operator
import re
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from deltaprime import (
    InvalidInputError,
    NumericalFailureError,
    asymptotic_coeffs,
    builtin_profile,
    finite_coeffs,
    find_resonances,
    from_samples,
    from_segments,
    load_profile,
    neumann_mismatch,
    q_factor,
    shoot,
)
from deltaprime import profiles, shooting
from deltaprime.profiles import Cells
from deltaprime.shooting import FundamentalData, shoot_batch

from oracles import linear_boundary_data, step_boundary_data, step_resonance_alpha


def test_free_equation_exact(seba):
    fd = shoot(seba, 0.0, 0.0)
    assert fd.u1 == pytest.approx(1.0, abs=1e-12)
    assert fd.du1 == pytest.approx(0.0, abs=1e-12)
    assert fd.v1 == pytest.approx(2.0, abs=1e-12)  # v = xi + 1
    assert fd.dv1 == pytest.approx(1.0, abs=1e-12)
    assert fd.wronskian_defect <= 1e-12


@pytest.mark.parametrize("alpha", [-20.0, -5.0, 3.7, 15.0, 40.0])
@pytest.mark.parametrize("kappa2", [0.0, 0.5, 2.0])
def test_step_profile_against_closed_form(step, alpha, kappa2):
    fd = shoot(step, alpha, kappa2)
    u1, du1, v1, dv1 = step_boundary_data(alpha, kappa2)
    for got, want in [(fd.u1, u1), (fd.du1, du1), (fd.v1, v1), (fd.dv1, dv1)]:
        assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


def test_tabulated_alpha_near_resonance(seba):
    # the published 4-digit coupling sits ~9e-5 from the true root, so
    # |g| = |g'| * 9e-5 ~ 2.2e-3 rather than a strict zero
    fd = shoot(seba, 18.1747, 0.0)
    assert abs(fd.du1) <= 3e-3
    assert fd.u1 == pytest.approx(-54.9385, rel=5e-3)


def test_step_resonance_du1_vanishes(step):
    alpha = step_resonance_alpha()
    fd = shoot(step, alpha, 0.0)
    assert abs(fd.du1) <= 1e-8 * max(1.0, abs(fd.u1))


def test_wronskian_on_lattice(seba, step):
    for profile in (seba, step):
        for alpha in np.linspace(-45.0, 45.0, 13):
            for kappa2 in (0.0, 1.0):
                fd = shoot(profile, alpha, kappa2)
                assert fd.wronskian_defect <= 1e-9


def test_tolerance_halving_self_consistency(seba, monkeypatch):
    fd = shoot(seba, 18.1747, 0.0)
    monkeypatch.setattr(shooting, "RTOL", 5e-13)
    fd2 = shoot(seba, 18.1747, 0.0)
    assert abs(fd2.u1 - fd.u1) <= 10 * 1e-12 * abs(fd.u1)


def test_lagrange_identity_at_refined_roots(seba, step):
    for profile, window in ((seba, (17.0, 19.0)), (step, (14.0, 17.0))):
        (rv,) = find_resonances(profile, *window, 0.5)
        fd = shoot(profile, rv.alpha, 0.0)
        assert abs(fd.u1 * fd.dv1 - 1.0) <= 1e-8


def test_neumann_mismatch_is_du1(seba):
    assert neumann_mismatch(seba, 7.3) == shoot(seba, 7.3, 0.0).du1


def test_neumann_mismatch_zero_at_alpha_zero(step):
    assert neumann_mismatch(step, 0.0) == 0.0


def test_sign_bracket_for_step_root(step):
    # g changes sign across the first positive resonance near 15.418
    assert neumann_mismatch(step, 10.0) * neumann_mismatch(step, 20.0) < 0


def test_batch_agrees_with_scalar(seba):
    # alphas that start at different step counts, on a profile with only
    # varying cells and on one with constant cells as well
    mixed = from_samples([-0.5, -0.25, 0.0, 0.25, 0.5], [1.0, 1.0, 0.0, -1.0, -1.0])
    alphas = [-12.0, 0.0, 7.5, 18.1747, 33.0, 150.0]
    for profile in (seba, mixed):
        u1, du1, v1, dv1 = shoot_batch(profile, alphas)
        for i, a in enumerate(alphas):
            fd = shoot(profile, a)
            assert (u1[i], du1[i], v1[i], dv1[i]) == (fd.u1, fd.du1, fd.v1, fd.dv1)


@pytest.mark.parametrize(
    "alphas", [5.0, np.zeros((2, 2)), [[1.0], [2.0]], [[1.0], [2.0, 3.0]], ["x"], [1j]]
)
def test_batch_rejects_non_sequence_alphas(step, alphas):
    with pytest.raises(InvalidInputError):
        shoot_batch(step, alphas)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: shoot(p, "abc"),
        lambda p: shoot(p, None),
        lambda p: shoot(p, 1j),
        lambda p: shoot(p, 1.0, "x"),
        lambda p: shoot_batch(p, [1.0], None),
        lambda p: shoot_batch(p, [], "x"),
    ],
    ids=["alpha-str", "alpha-none", "alpha-complex", "kappa2-str", "batch-kappa2-none", "empty-batch"],
)
def test_non_numeric_inputs_raise_invalid_input(step, call):
    shoot(step, 1.0)  # a kept last shoot does not answer for an input that is no number
    with pytest.raises(InvalidInputError, match="must be"):
        call(step)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_nonfinite_kappa2_raises_numerical_failure(step, bad):
    with pytest.raises(NumericalFailureError):
        shoot(step, 1.0, bad)
    with pytest.raises(NumericalFailureError):
        shoot_batch(step, [1.0], bad)


def test_batch_accepts_sequences(step):
    for alphas in ((1.0, 2.0), np.array([1.0, 2.0]), (a for a in (1.0, 2.0))):
        assert shoot_batch(step, alphas)[0].shape == (2,)
    assert shoot_batch(step, [])[0].shape == (0,)


def test_overflow_raises_numerical_failure(step):
    with pytest.raises(NumericalFailureError):
        shoot(step, 1e9, 0.0)


def test_nonfinite_alpha_raises(step):
    with pytest.raises(NumericalFailureError):
        shoot(step, float("nan"), 0.0)


def test_sampled_profile_close_to_polynomial(seba):
    fd_poly = shoot(seba, 18.1747, 0.0)
    for nodes in (2001, 601):
        xi = np.linspace(-1.0, 1.0, nodes)
        sampled = from_samples(xi, seba.eval(xi))
        fd_samp = shoot(sampled, 18.1747, 0.0)
        assert fd_samp.u1 == pytest.approx(fd_poly.u1, rel=1e-4)
        assert fd_samp.wronskian_defect <= 1e-9


@pytest.mark.parametrize("kappa2", [0.0, 0.5, 4.0])
def test_step_profile_closed_form_up_to_200(step, kappa2):
    alphas = np.linspace(-200.0, 200.0, 161)
    got = shoot_batch(step, alphas, kappa2)
    for i, alpha in enumerate(alphas):
        for entry, want in zip(got, step_boundary_data(alpha, kappa2)):
            assert abs(entry[i] - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("kappa2", [0.0, 1.0])
def test_linear_profile_against_airy(kappa2):
    # psi = -1.5*xi is delta-prime-like (m0 = 0, m1 = -1) and smooth on one piece
    linear = from_segments([(-1.0, 1.0, (0.0, -1.5))])
    for alpha in (-50.0, -7.3, 2.0, 18.0, 50.0):
        want = linear_boundary_data(alpha, -1.5, kappa2)
        fd = shoot(linear, alpha, kappa2)
        scale = max(1.0, *map(abs, want))
        for got, exact in zip((fd.u1, fd.du1, fd.v1, fd.dv1), want):
            assert abs(got - exact) <= 1e-11 * scale


def test_constant_piece_costs_one_step(monkeypatch):
    step = builtin_profile("step")  # a fresh profile, whose last shoot is not this test's point
    widths = []
    build = shooting._cell_matrices

    def recording(cells, varying, alphas, kappa2, n, levels=1):
        # the step widths of every level built, from n up; a shoot of varying
        # cells builds its first three levels in one call
        tables = (shooting._nodes(cells, varying, n << k) for k in range(levels))
        widths.extend(h for h, *_ in tables if h.size)
        return build(cells, varying, alphas, kappa2, n, levels)

    monkeypatch.setattr(shooting, "_cell_matrices", recording)
    shoot(step, 37.0, 1.0)
    assert [h.tolist() for h in widths] == [[1.0, 1.0]]  # one step per constant cell, once

    # equal adjacent samples make constant cells, and so do the zero stretches
    # outside the support [-0.5, 0.5]; psi = -4*xi varies on the two cells between
    sampled = from_samples([-0.5, -0.25, 0.0, 0.25, 0.5], [1.0, 1.0, 0.0, -1.0, -1.0])
    widths.clear()
    fd = shoot(sampled, 37.0, 1.0)
    constant, *levels = widths
    np.testing.assert_array_equal(constant, [0.5, 0.25, 0.25, 0.5])  # built once per shoot
    assert len(levels) >= 3  # at least three doubling levels of the varying cells
    for level, h in enumerate(levels):
        n = levels[0].size // 2 * 2**level  # one n shared by both varying cells
        np.testing.assert_array_equal(h, np.full(2 * n, 0.25 / n))
    same = from_segments([(-0.5, -0.25, (1.0,)), (-0.25, 0.25, (0.0, -4.0)), (0.25, 0.5, (-1.0,))])
    want = shoot(same, 37.0, 1.0)
    scale = max(abs(want.u1), abs(want.du1), abs(want.v1), abs(want.dv1))
    for got, exact in zip((fd.u1, fd.du1, fd.v1, fd.dv1), (want.u1, want.du1, want.v1, want.dv1)):
        assert abs(got - exact) <= 1e-12 * scale


def test_step_cap_raises_instead_of_degrading(seba, monkeypatch):
    with pytest.raises(NumericalFailureError, match="steps"):
        shoot(seba, 1e12, 0.0)
    monkeypatch.setattr(shooting, "MAX_STEPS", 64)
    with pytest.raises(NumericalFailureError, match="more than 64 steps"):
        shoot(seba, 150.0, 0.0)
    with pytest.raises(NumericalFailureError, match="more than 64 steps"):
        shoot_batch(seba, [0.5, 150.0])


#: the benchmark's generated degree-2 profile d2-0 (m0 = 0, m1 = -1).  At
#: alpha = 143.708 its first piece has scale 3.3e5 and M only 1.6e4, so a test
#: on M alone would ask that piece for accuracy below its rounding floor.
D2_0 = load_profile(Path(__file__).parent / "data" / "d2_0.json")


def _defect_over_u1_dv1(fd):
    """The Wronskian defect over max(1, |u1*dv1|): at most the defect over
    rel_wronskian_defect's max(1, max|M|)^2, so a bound on it is the stricter."""
    return fd.wronskian_defect / max(1.0, abs(fd.u1 * fd.dv1))


def test_growth_then_decay_converges_per_cell():
    fd = shoot(D2_0, 143.708)
    u1, du1, v1, dv1 = shoot_batch(D2_0, [143.708])
    assert (fd.u1, fd.du1, fd.v1, fd.dv1) == (u1[0], du1[0], v1[0], dv1[0])
    assert _defect_over_u1_dv1(fd) <= 1e-8


def test_d2_0_and_its_mirror_have_mirrored_roots():
    roots = find_resonances(D2_0)
    mirror = find_resonances(D2_0.reflected())
    assert len(roots) == len(mirror) == 11
    for rv, rm in zip(roots, mirror):
        assert rm.alpha == pytest.approx(rv.alpha, rel=1e-9, abs=1e-12)
        assert rv.theta * rm.theta == pytest.approx(1.0, abs=1e-9)


def test_d2_0_theta_is_mirrored_at_large_alpha():
    # past |alpha| ~ 700, max(|u1|, |dv1|) ~ 1e16 and the smaller entry is noise
    roots = find_resonances(D2_0, -1000.0, -700.0)
    mirror = find_resonances(D2_0.reflected(), -1000.0, -700.0)
    assert len(roots) == len(mirror) == 3
    for rv, rm in zip(roots, mirror):
        assert rv.theta * rm.theta == pytest.approx(1.0, abs=1e-9)


def test_step_cap_message_gives_the_stalled_estimate(monkeypatch):
    # no cell can pass a zero bound, so the cap is reached after three levels
    monkeypatch.setattr(shooting, "RTOL", 0.0)
    monkeypatch.setattr(shooting, "ATOL", 0.0)
    monkeypatch.setattr(shooting, "MAX_STEPS", 4096)
    built = []
    build = shooting._cell_matrices

    def recording(cells, varying, alphas, kappa2, n, levels=1):
        out = build(cells, varying, alphas, kappa2, n, levels)
        built.extend(out)  # one entry per level, from n up
        return out

    monkeypatch.setattr(shooting, "_cell_matrices", recording)
    pattern = (
        r"more than 4096 steps needed at alpha=143\.708; the worst cell's last error "
        r"estimate (\S+) still exceeds RTOL\*scale \+ ATOL = (\S+);"
    )
    for call in (lambda: shoot(D2_0, 143.708), lambda: shoot_batch(D2_0, [143.708])):
        built.clear()
        with pytest.raises(NumericalFailureError, match=pattern) as info:
            call()
        estimate, bound = re.search(pattern, str(info.value)).groups()
        p0, p1, p2 = (p[:, :, 0] for p in built[-3:])  # (2, 2, cell) at n, 2n and 4n
        r1, r2 = p1 + (p1 - p0) / 15.0, p2 + (p2 - p1) / 15.0
        assert p2.shape[-1] == 4  # the four varying cells
        assert estimate == f"{np.max(np.abs(r2 - r1)) / 63.0:.3e}"  # the largest over the cells
        assert float(bound) == 0.0 < float(estimate)


def test_rel_wronskian_defect_formula():
    fd = FundamentalData(4.0, 1.0, 2.0, 1.0, 1.0)  # u1*dv1 - du1*v1 = 2, max|M| = 4
    assert fd.rel_wronskian_defect == 1.0 / 16.0
    assert FundamentalData(0.5, 0.0, 0.0, 0.5, 0.75).rel_wronskian_defect == 0.75


def test_rel_wronskian_defect_where_u1_rounds_to_zero(step):
    # at step's root -385.53 u1 and du1 round to 0.0, so u1*dv1 - du1*v1 = 0
    # and the defect is 1; against max|M|^2 ~ 5.7e16 that is below rounding
    fd = shoot(step, -385.531421917553)
    assert fd.u1 == fd.du1 == 0.0 and fd.wronskian_defect == 1.0
    assert fd.rel_wronskian_defect <= np.finfo(float).eps


def test_rel_wronskian_defect_on_lattice(seba, step):
    # degree 2, neither odd nor even, with m0 = 0 and m1 = -1
    quadratic = from_segments([(-1.0, 1.0, (-1.0, -1.5, 3.0))])
    alphas = np.linspace(-200.0, 200.0, 81)
    for profile in (seba, step, quadratic):
        for a in alphas:
            assert _defect_over_u1_dv1(shoot(profile, a, 0.0)) <= 1e-12


DATA = Path(__file__).parent / "data"

#: reprs of (u1, du1, v1, dv1) per (alpha, kappa2), captured before the node
#: tables came in; the arithmetic of every entry has stayed the same since
SHOOT_GOLDEN = json.loads((DATA / "shoot_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(SHOOT_GOLDEN["profiles"]))
def test_shoot_matches_golden_bit_for_bit(name):
    profile = load_profile(DATA / name) if name.endswith(".json") else builtin_profile(name)
    rows = SHOOT_GOLDEN["profiles"][name]
    for kappa2 in sorted({row[1] for row in rows}):
        part = [row for row in rows if row[1] == kappa2]
        alphas = [float(row[0]) for row in part]
        batch = shoot_batch(profile, alphas, float(kappa2))
        for i, row in enumerate(part):
            fd = shoot(profile, alphas[i], float(kappa2))
            assert [repr(fd.u1), repr(fd.du1), repr(fd.v1), repr(fd.dv1)] == row[2:]
            assert [repr(float(entry[i])) for entry in batch] == row[2:]


#: psi = -4*xi varies on the two cells between the constant ones
MIXED_SAMPLES = ([-0.5, -0.25, 0.0, 0.25, 0.5], [1.0, 1.0, 0.0, -1.0, -1.0])


def _node_tables(profile):
    """The (varying, n) node tables a profile keeps."""
    return {key: table for key, table in profile.cells.nodes.items() if isinstance(key, tuple)}


def _profile_arrays(profile):
    """What the propagator derives once per profile, with its cell table."""
    return profile.cells.constant, profile.cells.reach


def test_node_tables_are_read_only():
    for profile in (builtin_profile("seba-quadratic"), from_samples(*MIXED_SAMPLES)):
        shoot(profile, 57.3, 0.04)
        assert _node_tables(profile)
        for table in [*profile.cells.nodes.values(), _profile_arrays(profile)]:
            assert not any(arr.flags.writeable for arr in table)


def test_node_table_is_built_once_per_step_count(monkeypatch):
    calls = []
    values = Cells.values

    def counting(self, rows, x):
        calls.append(rows)
        return values(self, rows, x)

    monkeypatch.setattr(Cells, "values", counting)
    for profile in (builtin_profile("seba-quadratic"), from_samples(*MIXED_SAMPLES)):
        assert "cells" not in vars(profile)  # built on first use, not with the profile
        calls.clear()
        shoot(profile, 57.3)
        built, arrays = len(calls), _profile_arrays(profile)
        assert built == len(_node_tables(profile)) >= 3  # the constant cells and two levels
        shoot(profile, 57.3)
        shoot(profile, 57.3, 0.04)
        shoot_batch(profile, [57.3, 57.3])
        assert len(calls) == built
        shoot_batch(profile, np.linspace(-200.0, 200.0, 41), 0.04)
        assert len(calls) == len(_node_tables(profile)) > built  # new step counts only
        assert all(map(operator.is_, _profile_arrays(profile), arrays))  # once per profile


def test_first_three_levels_take_one_step_matrix_pass(seba, monkeypatch):
    steps, calls = [], []
    build, cell_matrices = shooting._step_matrices, shooting._cell_matrices

    def counting(alphas, kappa2, h, a_h, c_h, m):
        steps.append(h.size)
        return build(alphas, kappa2, h, a_h, c_h, m)

    def recording(cells, varying, alphas, kappa2, n, levels=1):
        calls.append((varying, n, levels))
        return cell_matrices(cells, varying, alphas, kappa2, n, levels)

    monkeypatch.setattr(shooting, "_step_matrices", counting)
    monkeypatch.setattr(shooting, "_cell_matrices", recording)
    shoot(seba, 18.17)
    shoot(seba, 18.16)  # another point, so the next shoot is not the profile's last
    steps.clear()
    calls.clear()
    shoot(seba, 18.17)  # warm; converges at its third level, 256 steps per cell
    assert calls == [(True, 64, 3)]  # no constant-cell pass, then 64, 128 and 256
    assert steps == [2 * (256 + 128 + 64)]  # one pass over both cells' three levels, not three
    mixed = load_profile(DATA / "mixed_samples.json")
    shoot(mixed, 18.17)
    shoot(mixed, 18.16)
    calls.clear()
    shoot(mixed, 18.17)
    assert [call for call in calls if not call[0]] == [(False, 1, 1)]  # one constant-cell pass
    steps.clear()
    find_resonances(seba, 0.0, 200.0)
    assert len(steps) == 42  # 88 when every level took a pass of its own


def test_warm_shoot_equals_cold():
    alphas = [-150.3, -12.5, 0.0, 18.1746, 57.3, 199.0]
    cold = [shoot(builtin_profile("seba-quadratic"), a, 0.04) for a in alphas]
    warm = builtin_profile("seba-quadratic")
    shoot_batch(warm, np.linspace(-200.0, 200.0, 81), 0.04)
    assert [shoot(warm, a, 0.04) for a in alphas] == cold


def test_profile_with_node_tables_is_collected():
    profile = builtin_profile("seba-quadratic")
    shoot_batch(profile, [-150.3, 57.3])
    kept = shoot(profile, 57.3)
    assert _node_tables(profile) and profile.cells.last_shot[0][1] is kept
    refs = [weakref.ref(obj) for obj in (profile, profile.cells, *_profile_arrays(profile), kept)]
    del profile, kept
    gc.collect()
    assert [ref() for ref in refs] == [None] * 5


def test_no_module_level_table_registry():
    kept = (dict, list, set, weakref.WeakKeyDictionary, weakref.WeakValueDictionary)
    registries = [
        name
        for module in (shooting, profiles)
        for name, value in vars(module).items()
        if not name.startswith("__") and (isinstance(value, kept) or hasattr(value, "cache_info"))
    ]
    assert registries == []


@pytest.fixture
def transfers(monkeypatch):
    """The (alphas, kappa2) of every ``_transfer`` call, the work of a shoot."""
    calls = []
    transfer = shooting._transfer

    def spy(profile, alphas, kappa2):
        calls.append((alphas.tolist(), kappa2))
        return transfer(profile, alphas, kappa2)

    monkeypatch.setattr(shooting, "_transfer", spy)
    return calls


def _bits(fd):
    return [x.hex() for x in (fd.u1, fd.du1, fd.v1, fd.dv1, fd.wronskian_defect)]


def test_repeated_shoot_returns_the_kept_result(transfers):
    profile = builtin_profile("seba-quadratic")
    fd = shoot(profile, 18.17, 0.04)
    again = shoot(profile, 18.17, 0.04)
    assert len(transfers) == 1 and again is fd
    assert again == shoot(builtin_profile("seba-quadratic"), 18.17, 0.04)
    assert shoot(profile, np.float64(18.17), 0.04) is fd  # the same bits, another type



@pytest.mark.parametrize(
    "points",
    [
        [(18.17, 0.04), (np.nextafter(18.17, math.inf), 0.04)],
        [(18.17, 0.04), (18.17, np.nextafter(0.04, math.inf))],
        [(0.0, 1.0), (-0.0, 1.0)],
        [(5.0, 0.0), (5.0, -0.0)],
        [(18.17, 0.0), (7.3, 0.0), (18.17, 0.0)],
    ],
    ids=["alpha-ulp", "kappa2-ulp", "alpha-signed-zero", "kappa2-signed-zero", "A-B-A"],
)
def test_any_other_point_shoots_again(transfers, points):
    profile = builtin_profile("seba-quadratic")
    for alpha, kappa2 in points:
        shoot(profile, alpha, kappa2)
    assert [kappa2 for _, kappa2 in transfers] == [float(kappa2) for _, kappa2 in points]
    assert [alphas for alphas, _ in transfers] == [[float(alpha)] for alpha, _ in points]


@pytest.mark.parametrize(
    "name, value", [("RTOL", 5e-13), ("ATOL", 1e-15), ("MAX_STEPS", 2**15), ("START_RESOLUTION", 4.0)]
)
def test_changed_settings_shoot_again(transfers, monkeypatch, name, value):
    profile = builtin_profile("seba-quadratic")
    shoot(profile, 18.17)
    monkeypatch.setattr(shooting, name, value)
    shoot(profile, 18.17)
    shoot(profile, 18.17)
    assert len(transfers) == 2


def test_failed_shoot_stores_nothing(transfers):
    profile = builtin_profile("step")
    with pytest.raises(NumericalFailureError):
        shoot(profile, 1e9)
    assert profile.cells.last_shot == [None]
    kept = shoot(profile, 1.0)
    for _ in range(2):
        with pytest.raises(NumericalFailureError):
            shoot(profile, 1e9)
    assert len(transfers) == 4 and profile.cells.last_shot[0][1] is kept
    assert shoot(profile, 1.0) is kept and len(transfers) == 4


def test_scatter_point_shoots_twice(transfers):
    profile = builtin_profile("seba-quadratic")
    alpha, k, eps = 18.1746, 1.0, 0.01
    finite_coeffs(profile, alpha, k, eps)
    asymptotic_coeffs(profile, alpha, eps * k)
    q_factor(profile, alpha)
    assert transfers == [([alpha], (eps * k) ** 2), ([alpha], 0.0)]  # 3 shoots before the memo


def test_threads_sharing_a_profile_get_single_threaded_bits():
    points = [(18.17, 0.0), (-7.3, 0.04)]
    want = [_bits(shoot(builtin_profile("seba-quadratic"), *point)) for point in points]
    profile = builtin_profile("seba-quadratic")
    barrier = threading.Barrier(4, timeout=30)

    def alternate(first):
        barrier.wait()
        return [(i, _bits(shoot(profile, *points[i]))) for i in [first, 1 - first] * 25]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the memo's read and its write
    try:
        with ThreadPoolExecutor(4) as pool:
            runs = list(pool.map(alternate, [0, 1, 0, 1], timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(runs) == 4 and all(bits == want[i] for run in runs for i, bits in run)
