import json
import math

import numpy as np
import pytest

from deltaprime import (
    InvalidInputError,
    builtin_profile,
    from_samples,
    from_segments,
    load_profile,
    moments,
    save_profile,
)
from deltaprime.profiles import profile_from_dict, profile_to_dict


def test_seba_eval_values(seba):
    assert seba.eval(-0.5) == pytest.approx(1.5, abs=1e-15)  # -6*(-0.5)*(0.5)
    assert seba.eval(2.0) == 0.0
    assert seba.eval(-2.0) == 0.0
    assert seba.eval(0.25) == pytest.approx(6 * 0.25 * (0.25 - 1), abs=1e-15)


def test_step_eval_values(step):
    assert step.eval(-0.5) == 1.0
    assert step.eval(0.5) == -1.0
    assert step.eval(1.5) == 0.0
    # breakpoints belong to the right segment (half-open convention)
    assert step.eval(0.0) == -1.0
    assert step.eval(1.0) == -1.0


def test_eval_vectorized_matches_scalar(seba):
    x = np.linspace(-1.5, 1.5, 401)
    vec = seba.eval(x)
    assert vec.shape == x.shape
    scalars = np.array([seba.eval(float(t)) for t in x])
    np.testing.assert_array_equal(vec, scalars)


def test_eval_rejects_nonfinite(seba):
    with pytest.raises(InvalidInputError):
        seba.eval(float("nan"))


def test_moments_seba_exact(seba):
    m = moments(seba)
    assert abs(m.m0) <= 1e-12
    assert abs(m.m1 + 1.0) <= 1e-12
    assert m.is_delta_prime_like()


def test_moments_zero(zero):
    m = moments(zero)
    assert m.m0 == 0.0 and m.m1 == 0.0
    assert not m.is_delta_prime_like()


def test_moments_step_hand_integration(step):
    # int xi*psi = int_{-1}^{0} xi - int_0^1 xi = -1/2 - 1/2
    m = moments(step)
    assert m.m0 == 0.0
    assert m.m1 == -1.0


def test_moments_sampled_hat_exact():
    hat = from_samples([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    m = moments(hat)
    assert m.m0 == pytest.approx(2.0, abs=1e-15)
    assert m.m1 == pytest.approx(0.0, abs=1e-15)


def test_sampled_eval_interpolates():
    hat = from_samples([-1.0, 0.0, 1.0], [0.0, 2.0, 0.0])
    assert hat.eval(-0.5) == pytest.approx(1.0)
    assert hat.eval(0.25) == pytest.approx(1.5)
    assert hat.eval(-1.25) == 0.0


def test_builtin_unknown_name():
    with pytest.raises(InvalidInputError, match="unknown profile name"):
        builtin_profile("gaussian")


@pytest.mark.parametrize(
    "segments,field",
    [
        ([(-1.0, 0.0, (1.0,)), (0.1, 1.0, (1.0,))], "segments[1].a"),  # gap
        ([(-1.0, 0.5, (1.0,)), (0.0, 1.0, (1.0,))], "segments[1].a"),  # overlap
        ([(-1.5, 0.0, (1.0,))], "support"),
        ([(0.0, 1.25, (1.0,))], "support"),
        ([(-1.0, 1.0, ())], "coeffs"),
        ([(0.5, 0.5, (1.0,))], "a < b"),
        ([(-1.0, 1.0, (float("inf"),))], "coeffs"),
    ],
)
def test_segment_validation_errors(segments, field):
    with pytest.raises(InvalidInputError, match=field.replace("[", r"\[").replace("]", r"\]")):
        from_segments(segments)


@pytest.mark.parametrize(
    "xi,psi,field",
    [
        ([0.0], [1.0], "at least 2"),
        ([0.0, 0.0], [1.0, 1.0], "strictly increasing"),
        ([0.5, 0.0], [1.0, 1.0], "strictly increasing"),
        ([-1.5, 1.0], [1.0, 1.0], "support"),
        ([0.0, 1.0], [1.0, float("nan")], "finite"),
        ([0.0, 1.0, 2.0], [1.0, 1.0], "equal length"),
    ],
)
def test_sample_validation_errors(xi, psi, field):
    with pytest.raises(InvalidInputError, match=field):
        from_samples(xi, psi)


def test_reflected_piecewise(seba, step):
    x = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_allclose(seba.reflected().eval(x), seba.eval(-x), atol=1e-15)
    # reflecting an odd profile flips the first moment
    m = moments(step.reflected())
    assert m.m0 == 0.0 and m.m1 == 1.0


def test_reflected_sampled():
    prof = from_samples([-0.5, 0.25, 1.0], [1.0, 3.0, -2.0])
    x = np.linspace(-1.0, 1.0, 101)
    np.testing.assert_allclose(prof.reflected().eval(x), prof.eval(-x), atol=1e-15)


def test_roundtrip_piecewise_bit_exact(tmp_path, seba):
    path = tmp_path / "seba.json"
    save_profile(seba, path)
    again = load_profile(path)
    assert again == seba


def test_roundtrip_awkward_floats(tmp_path):
    prof = from_segments(
        [(-1.0, 0.1 + 0.2, (1e-300, math.pi, -1.2345678901234567e-17)),
         (0.1 + 0.2, 1.0, (0.1,))]
    )
    path = tmp_path / "p.json"
    save_profile(prof, path)
    assert load_profile(path) == prof


def test_roundtrip_sampled_bit_exact(tmp_path):
    prof = from_samples([-1.0, -0.1, 0.7], [1.0 / 3.0, -2.0 / 7.0, 0.1])
    path = tmp_path / "p.json"
    save_profile(prof, path)
    again = load_profile(path)
    np.testing.assert_array_equal(again.xi, prof.xi)
    np.testing.assert_array_equal(again.psi, prof.psi)
    assert again == prof and hash(again) == hash(prof)


def test_sampled_profiles_compare_and_hash_by_value():
    xi, psi = np.linspace(-1.0, 1.0, 11), np.linspace(1.0, -1.0, 11) ** 3
    prof = from_samples(xi, psi)
    same = from_samples(xi.tolist(), psi.tolist())
    assert prof == same and not prof != same
    assert hash(prof) == hash(same) and len({prof, same}) == 1
    changed = psi.copy()
    changed[4] += 1e-12
    assert prof != from_samples(xi, changed)
    assert prof != from_samples(xi[:-1], psi[:-1])
    assert prof != from_segments([(-1.0, 1.0, (0.0, -1.5))])
    assert prof != "sampled"


def test_load_profile_equivalent_to_builtin(tmp_path, seba):
    path = tmp_path / "seba.json"
    path.write_text(json.dumps(profile_to_dict(seba)))
    assert load_profile(path) == seba


@pytest.mark.parametrize(
    "data,message",
    [
        ({"segments": [{"a": -1.0, "b": 0.5, "coeffs": [1.0]}, {"a": 0.0, "b": 1.0, "coeffs": [1.0]}]}, "contiguous"),
        ({"segments": [{"a": -1.0, "b": 1.0, "coeffs": [1.0], "degree": 2}]}, "unknown key"),
        ({"segments": [{"a": -1.0, "coeffs": [1.0]}]}, "missing key"),
        ({"segments": {"a": 1}}, "list"),
        ({"samples": {"xi": [0, 1], "psi": [1, 1], "w": [1]}}, "unknown key"),
        ({"samples": {"xi": [0, 1]}}, "missing key"),
        ({"samples": [1, 2]}, "object"),
        ({"profile": []}, "unknown key"),
        ({}, "exactly one"),
        ({"segments": [], "samples": {}}, "exactly one"),
        ([], "object"),
    ],
)
def test_profile_from_dict_errors(data, message):
    with pytest.raises(InvalidInputError, match=message):
        profile_from_dict(data)


def test_load_profile_missing_file(tmp_path):
    with pytest.raises(InvalidInputError, match="No such file"):
        load_profile(tmp_path / "nope.json")


def test_load_profile_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidInputError, match="invalid JSON"):
        load_profile(path)


def test_profiles_are_immutable(seba):
    with pytest.raises(Exception):
        seba.kind = "other"
    sampled = from_samples([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        sampled.xi[0] = 5.0


def _random_sampled(rng, lo=-1.0, hi=1.0):
    nodes = int(rng.integers(2, 40))
    xi = np.sort(rng.uniform(lo, hi, nodes))
    return from_samples(xi, rng.normal(size=nodes))


def test_sampled_eval_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(200):
        prof = _random_sampled(rng)
        x = rng.uniform(prof.xi[0], prof.xi[-1], 50)
        got = prof.eval(x)
        assert got.tobytes() == np.interp(x, prof.xi, prof.psi).tobytes()


def test_sampled_eval_is_exact_at_every_node():
    # the last node closes the support: it takes psi[-1], not the last
    # cell's line evaluated there, which can miss it by one ulp
    rng = np.random.default_rng(12)
    for _ in range(2000):
        prof = _random_sampled(rng)
        assert prof.eval(prof.xi).tobytes() == prof.psi.tobytes()
        assert prof.eval(float(prof.xi[-1])) == prof.psi[-1]


def test_piecewise_eval_is_polyval_bit_for_bit():
    polyval = np.polynomial.polynomial.polyval
    rng = np.random.default_rng(13)
    for _ in range(100):
        pieces = int(rng.integers(1, 5))
        edges = np.sort(rng.uniform(-1.0, 1.0, pieces + 1))
        segs = [
            (a, b, tuple(rng.normal(size=int(rng.integers(1, 4)))))
            for a, b in zip(edges[:-1], edges[1:])
        ]
        prof = from_segments(segs)
        for a, b, coeffs in segs:
            # each left edge, interior points and, on the last segment, the closed right end
            x = np.concatenate(([a], rng.uniform(a, b, 20), [b] if b == edges[-1] else []))
            assert prof.eval(x).tobytes() == polyval(x, np.asarray(coeffs)).tobytes()


def test_eval_is_zero_outside_support():
    rng = np.random.default_rng(14)
    inside = from_segments([(-0.6, -0.1, (0.5, 2.0, -3.0)), (-0.1, 0.7, (1.0, -4.0))])
    for prof in (inside, from_samples([-0.6, 0.1, 0.7], [1.0, -2.0, 3.0]), _random_sampled(rng)):
        lo, hi = prof.support
        x = np.concatenate((rng.uniform(-3.0, lo, 20), rng.uniform(hi, 3.0, 20)))
        x = x[(x < lo) | (x > hi)]
        np.testing.assert_array_equal(prof.eval(x), 0.0)
        assert prof.eval(np.nextafter(lo, -2.0)) == 0.0
        assert prof.eval(np.nextafter(hi, 2.0)) == 0.0


def test_is_zero_reads_every_cell(zero, step):
    assert zero.is_zero
    assert from_samples([-0.5, 0.5], [0.0, 0.0]).is_zero
    assert not step.is_zero
    assert not from_samples([-0.5, 0.0, 0.5], [0.0, 0.0, 1e-300]).is_zero
    assert not from_segments([(-1.0, 1.0, (0.0, 0.0, 1.0))]).is_zero


def test_sampled_moments_match_the_same_piecewise_linear_profile():
    # non-uniform nodes with gaps within a factor 4 of each other, so the
    # segments' global coefficients p - s*a lose no digits to steep slopes
    rng = np.random.default_rng(15)
    for _ in range(50):
        gaps = rng.uniform(0.5, 2.0, int(rng.integers(1, 40)))
        xi = np.minimum(-1.0 + 2.0 * np.concatenate(([0.0], np.cumsum(gaps))) / gaps.sum(), 1.0)
        psi = rng.uniform(-2.0, 2.0, xi.size)
        prof = from_samples(xi, psi)
        slope = np.diff(psi) / np.diff(xi)
        linear = from_segments(
            (a, b, (p - s * a, s)) for a, b, p, s in zip(xi[:-1], xi[1:], psi[:-1], slope)
        )
        got, want = moments(prof), moments(linear)
        assert abs(got.m0 - want.m0) <= 1e-14
        assert abs(got.m1 - want.m1) <= 1e-14


def _segment_moments(segments):
    """Segment moments in one fixed order of Python-float operations."""
    m0 = m1 = 0.0
    for a, b, coeffs in segments:
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            m0 += c * (b ** (j + 1) - a ** (j + 1)) / (j + 1)
            m1 += c * (b ** (j + 2) - a ** (j + 2)) / (j + 2)
    return m0, m1


def test_segment_moments_keep_their_order_of_operations(seba, step):
    rng = np.random.default_rng(16)
    cases = [seba, step]
    for _ in range(100):
        pieces = int(rng.integers(1, 5))
        edges = np.sort(rng.uniform(-1.0, 1.0, pieces + 1)).tolist()
        cases.append(from_segments(
            (a, b, tuple(rng.normal(size=int(rng.integers(1, 4))).tolist()))
            for a, b in zip(edges[:-1], edges[1:])
        ))
    for prof in cases:
        m = moments(prof)
        want = _segment_moments((s.a, s.b, s.coeffs) for s in prof.segments)
        assert (m.m0, m.m1) == want
