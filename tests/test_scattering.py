import json
from pathlib import Path

import numpy as np
import pytest

from deltaprime import (
    InvalidInputError,
    NonResonant,
    NumericalFailureError,
    Resonant,
    asymptotic_coeffs,
    builtin_profile,
    find_resonances,
    finite_coeffs,
    limit_coeffs,
    load_profile,
    q_factor,
    shoot,
)
from deltaprime import scattering
from deltaprime.shooting import FundamentalData

from oracles import step_resonance_alpha, step_resonance_theta


@pytest.fixture(scope="module")
def seba_root(seba):
    (rv,) = find_resonances(seba, 17.0, 19.0, 0.5)
    return rv


def test_limit_theta_one_transmits_fully():
    c = limit_coeffs(Resonant(1.0))
    assert c.R == 0.0 and c.T == 1.0
    assert c.regime == "limit"
    assert (c.R.imag, c.T.imag) == (0.0, 0.0)


def test_limit_nonresonant_opaque():
    c = limit_coeffs(NonResonant())
    assert c.R == -1.0 and c.T == 0.0


def test_limit_table_transmission():
    c = limit_coeffs(Resonant(-54.9385))
    assert c.transmission_probability == pytest.approx(0.00132, rel=0.01)


def test_limit_rejects_other_types():
    with pytest.raises(InvalidInputError):
        limit_coeffs(-54.9)


def test_finite_free_potential_passes_plane_wave(seba):
    c = finite_coeffs(seba, 0.0, 1.0, 0.1)
    assert abs(c.R) <= 1e-12
    assert abs(c.T - 1.0) <= 1e-12
    assert c.regime == "finite-eps"


def test_finite_table_row(seba):
    c = finite_coeffs(seba, 18.1747, 1.0, 1e-3)
    assert c.transmission_probability == pytest.approx(0.00132, rel=0.01)


def test_finite_nonresonant_reflection_linear_in_eps(seba):
    r1 = abs(finite_coeffs(seba, 10.0, 1.0, 1e-2).R + 1.0)
    r2 = abs(finite_coeffs(seba, 10.0, 1.0, 1e-3).R + 1.0)
    assert 8.0 <= r1 / r2 <= 12.0


def test_finite_unitarity_lattice(seba, step):
    for profile in (seba, step):
        for alpha in (-30.0, -10.0, 0.0, 5.0, 18.1747, 45.0):
            for k in (0.5, 1.0, 2.0):
                for eps in (0.1, 0.01, 0.001):
                    c = finite_coeffs(profile, alpha, k, eps)
                    assert c.unitarity_defect <= 1e-9


def test_finite_resonant_modulus_error_quadratic(seba, seba_root):
    t_lim = abs(limit_coeffs(Resonant(seba_root.theta)).T)
    errs = [
        abs(abs(finite_coeffs(seba, seba_root.alpha, 1.0, eps).T) - t_lim)
        for eps in (0.02, 0.01, 0.005)
    ]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_finite_nonresonant_transmission_linear(seba):
    ts = [abs(finite_coeffs(seba, 10.0, 1.0, eps).T) for eps in (0.02, 0.01, 0.005)]
    assert 1.8 <= ts[0] / ts[1] <= 2.2
    assert 1.8 <= ts[1] / ts[2] <= 2.2


def test_finite_mirror_preserves_transmission_probability(seba, seba_root):
    c = finite_coeffs(seba, seba_root.alpha, 1.0, 0.01)
    m = finite_coeffs(seba.reflected(), seba_root.alpha, 1.0, 0.01)
    assert abs(m.T) == pytest.approx(abs(c.T), rel=1e-9)


@pytest.mark.parametrize("k,eps", [(0.0, 0.1), (-1.0, 0.1), (1.0, 0.0), (1.0, -0.5), ("k", 0.1)])
def test_finite_preconditions(seba, k, eps):
    with pytest.raises(InvalidInputError):
        finite_coeffs(seba, 1.0, k, eps)


def test_q_factor_free_value(seba):
    assert q_factor(seba, 0.0) == pytest.approx(-2.0, abs=1e-12)


def test_q_factor_identity_at_seba_root(seba, seba_root):
    q = q_factor(seba, seba_root.alpha)
    want = -(seba_root.theta + 1.0 / seba_root.theta)
    assert q == pytest.approx(want, rel=1e-8)


def test_q_factor_identity_at_step_root(step):
    alpha = step_resonance_alpha()
    theta = step_resonance_theta()
    assert q_factor(step, alpha) == pytest.approx(-(theta + 1.0 / theta), rel=1e-8)


def test_asymptotic_resonant_kappa_zero_equals_limit(seba, seba_root):
    a = asymptotic_coeffs(seba, seba_root.alpha, 0.0)
    c = limit_coeffs(Resonant(seba_root.theta))
    assert a.R == pytest.approx(c.R, rel=1e-10)
    assert a.T == pytest.approx(c.T, rel=1e-10)
    assert a.regime == "asymptotic"


def test_asymptotic_nonresonant_kappa_zero(seba):
    a = asymptotic_coeffs(seba, 10.0, 0.0)
    assert a.R == -1.0 and a.T == 0.0


def test_asymptotic_matches_finite_near_resonance(seba):
    # near a resonance numerator and denominator are both O(kappa), so the
    # dropped remainders cost O(kappa) relative; |T| is small enough that the
    # absolute transmission mismatch still sits well under 1e-3
    a = asymptotic_coeffs(seba, 18.1747, 0.01)
    f = finite_coeffs(seba, 18.1747, 1.0, 0.01)
    assert abs(a.T - f.T) <= 1e-3


def test_asymptotic_matches_finite_second_order_off_resonance(seba):
    diffs = [
        abs(asymptotic_coeffs(seba, 10.0, k).R - finite_coeffs(seba, 10.0, 1.0, k).R)
        for k in (0.02, 0.01, 0.005)
    ]
    assert 3.5 <= diffs[0] / diffs[1] <= 4.5
    assert 3.5 <= diffs[1] / diffs[2] <= 4.5


def test_asymptotic_rejects_nonfinite_kappa(seba):
    with pytest.raises(InvalidInputError):
        asymptotic_coeffs(seba, 1.0, float("inf"))


def test_asymptotic_rejects_a_non_real_kappa(seba):
    with pytest.raises(InvalidInputError, match="asymptotic_coeffs: kappa must be a real number"):
        asymptotic_coeffs(seba, 18.0, None)


def _matching_system_solution(profile, alpha, k, eps):
    """(R, T) from numpy's dense solve of the 4x4 matching system at x = +-eps.

    Unknowns (R, A, B, T): e^{i kappa xi} + R e^{-i kappa xi} left of the
    well, A u + B v inside, T e^{i kappa xi} right of it, in xi = x/eps.
    """
    kappa = eps * k
    fd = shoot(profile, alpha, kappa * kappa)
    e = np.exp(1j * kappa)
    ik = 1j * kappa
    A = np.array(
        [
            [-e, 1.0, 0.0, 0.0],
            [ik * e, 0.0, 1.0, 0.0],
            [0.0, fd.u1, fd.v1, -e],
            [0.0, fd.du1, fd.dv1, -ik * e],
        ],
        dtype=complex,
    )
    rhs = np.array([1.0 / e, ik / e, 0.0, 0.0], dtype=complex)
    x = np.linalg.solve(A, rhs)
    return x[0], x[3]


def test_finite_matches_dense_matching_solve(seba, step):
    points = [(-30.0, 0.5, 0.1), (5.0, 1.0, 0.01), (18.1747, 1.0, 1e-3), (45.0, 2.0, 0.1)]
    for profile in (seba, step):
        for alpha, k, eps in points:
            R, T = _matching_system_solution(profile, alpha, k, eps)
            c = finite_coeffs(profile, alpha, k, eps)
            assert abs(c.R - R) <= 1e-10 * max(1.0, abs(R))
            assert abs(c.T - T) <= 1e-10 * abs(T)


def test_finite_vanishing_determinant_raises(seba, monkeypatch):
    # D = u1' - i*kappa*(u1 + v1') - kappa^2*v1 vanishes for all-zero boundary data
    zero = FundamentalData(0.0, 0.0, 0.0, 0.0, 1.0)
    monkeypatch.setattr(scattering, "shoot", lambda *args: zero)
    with pytest.raises(NumericalFailureError, match="determinant"):
        finite_coeffs(seba, 1.0, 1.0, 0.1)


DATA = Path(__file__).parent / "data"

#: reprs of finite_coeffs' R and T, asymptotic_coeffs' R and T at kappa =
#: eps*k, and q_factor, per (alpha, k, eps) with kappa from 1e-3 to 0.2
SCATTER_GOLDEN = json.loads((DATA / "scatter_golden.json").read_text())


@pytest.mark.parametrize("name", sorted(SCATTER_GOLDEN["profiles"]))
def test_scatter_matches_golden_bit_for_bit(name):
    profile = load_profile(DATA / name) if name.endswith(".json") else builtin_profile(name)
    parts = lambda z: [repr(z.real), repr(z.imag)]
    for row in SCATTER_GOLDEN["profiles"][name]:
        alpha, k, eps = map(float, row[:3])
        finite = finite_coeffs(profile, alpha, k, eps)
        near = asymptotic_coeffs(profile, alpha, eps * k)
        got = [*parts(finite.R), *parts(finite.T), *parts(near.R), *parts(near.T)]
        assert got + [repr(q_factor(profile, alpha))] == row[3:]
        # the reverse order, in which q_factor shoots (alpha, 0) and asymptotic_coeffs reuses it
        q = q_factor(profile, alpha)
        near = asymptotic_coeffs(profile, alpha, eps * k)
        finite = finite_coeffs(profile, alpha, k, eps)
        got = [*parts(finite.R), *parts(finite.T), *parts(near.R), *parts(near.T)]
        assert got + [repr(q)] == row[3:]
