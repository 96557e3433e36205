import re

import numpy as np
import pytest

from deltaprime import (
    InvalidInputError,
    NumericalFailureError,
    find_resonances,
    from_samples,
    from_segments,
    neumann_mismatch,
    shoot,
)
from deltaprime import shooting
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
    alphas = [-12.0, 0.0, 7.5, 18.1747, 33.0]
    u1, du1, v1, dv1 = shoot_batch(seba, alphas)
    for i, a in enumerate(alphas):
        fd = shoot(seba, a)
        assert u1[i] == pytest.approx(fd.u1, rel=1e-6, abs=1e-8)
        assert du1[i] == pytest.approx(fd.du1, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize(
    "alphas", [5.0, np.zeros((2, 2)), [[1.0], [2.0]], [[1.0], [2.0, 3.0]], ["x"], [1j]]
)
def test_batch_rejects_non_sequence_alphas(step, alphas):
    with pytest.raises(InvalidInputError):
        shoot_batch(step, alphas)


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


def test_constant_piece_costs_one_step(step, monkeypatch):
    widths = []
    build = shooting._step_matrices

    def counting(alphas, kappa2, h, psi1, psi2):
        widths.append(h)
        return build(alphas, kappa2, h, psi1, psi2)

    monkeypatch.setattr(shooting, "_step_matrices", counting)
    shoot(step, 37.0, 1.0)
    assert [h.size for h in widths] == [2]  # one step on each of the two constant pieces

    # equal adjacent samples make constant cells, and so do the zero stretches
    # outside the support [-0.5, 0.5]; only the cell where psi = -4*xi varies
    sampled = from_samples([-0.5, -0.25, 0.25, 0.5], [1.0, 1.0, -1.0, -1.0])
    widths.clear()
    fd = shoot(sampled, 37.0, 1.0)
    assert len(widths) >= 3  # at least three doubling levels
    for h in widths:
        n = h.size - 4
        np.testing.assert_array_equal(h[[0, 1, -2, -1]], [0.5, 0.25, 0.25, 0.5])
        np.testing.assert_array_equal(h[2:-2], 0.5 / n)
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


#: the benchmark's generated degree-2 profile d2-0 (m0 = 0, m1 = -1); at
#: alpha = 143.708 its step-doubling estimate stalls near 1e-7 against a
#: transfer matrix of scale 1.5e4
D2_0_SEGMENTS = (
    (-1.0, -0.27949319284250973, (5.68428570500694, 4.781883674929225, -1.3503578888072)),
    (
        -0.27949319284250973,
        -0.06323329986982817,
        (0.2240255072507366, 0.6198024035906564, -2.169290895421567),
    ),
    (
        -0.06323329986982817,
        0.10855211951458665,
        (1.5290756181632152, 4.0747739736255, -4.144799340936069),
    ),
    (0.10855211951458665, 1.0, (-5.971002549278033, 0.623592394533598, 9.844549940222986)),
)


def test_step_cap_message_gives_the_stalled_estimate():
    profile = from_segments(D2_0_SEGMENTS)
    pattern = (
        r"more than 65536 steps needed at alpha=143\.708; the last error estimate "
        r"(\S+) still exceeds RTOL\*scale \+ ATOL = (\S+);"
    )
    for call in (lambda: shoot(profile, 143.708), lambda: shoot_batch(profile, [143.708])):
        with pytest.raises(NumericalFailureError, match=pattern) as info:
            call()
        estimate, bound = map(float, re.search(pattern, str(info.value)).groups())
        assert estimate > bound > 0.0


def test_rel_wronskian_defect_formula():
    fd = FundamentalData(4.0, 1.0, 2.0, 1.0, 1.0)  # u1*dv1 - du1*v1 = 2
    assert fd.rel_wronskian_defect == pytest.approx(0.25)


def test_rel_wronskian_defect_on_lattice(seba, step):
    # degree 2, neither odd nor even, with m0 = 0 and m1 = -1
    quadratic = from_segments([(-1.0, 1.0, (-1.0, -1.5, 3.0))])
    alphas = np.linspace(-200.0, 200.0, 81)
    for profile in (seba, step, quadratic):
        for a in alphas:
            assert shoot(profile, a, 0.0).rel_wronskian_defect <= 1e-12
