import math

import pytest

from deltaprime._rootfind import refine_bracket


def test_sqrt2():
    root, fr, (a, b), _ = refine_bracket(lambda x: x * x - 2.0, 1.0, 2.0, xtol=1e-13)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    assert b - a <= 1e-13


def test_linear_exact():
    root, fr, _, n = refine_bracket(lambda x: 3.0 * (x - 0.25), 0.0, 1.0, xtol=1e-13)
    assert abs(root - 0.25) <= 1e-13
    assert n < 20


def test_endpoint_zero_short_circuits():
    root, fr, bracket, _ = refine_bracket(lambda x: x, 0.0, 1.0)
    assert root == 0.0 and fr == 0.0 and bracket == (0.0, 0.0)


def test_requires_sign_change():
    with pytest.raises(ValueError, match="bracket"):
        refine_bracket(lambda x: x * x + 1.0, -1.0, 1.0)


def test_reversed_bracket_rejected():
    with pytest.raises(ValueError):
        refine_bracket(lambda x: x, 1.0, -1.0)


def test_stagnation_prone_function_terminates():
    # nearly flat on one side: plain endpoint-secant would crawl
    f = lambda x: (x - 1.0) ** 9 if x >= 1.0 else -((1.0 - x) ** 0.25)
    root, _, (a, b), n = refine_bracket(f, 0.0, 3.0, xtol=1e-10, max_iter=200)
    assert b - a <= 1e-10
    assert abs(root - 1.0) <= 1e-9
    assert n <= 200


def test_never_leaves_bracket():
    seen = []

    def f(x):
        seen.append(x)
        return math.tanh(5 * (x - 0.7))

    refine_bracket(f, 0.0, 1.0, xtol=1e-12)
    assert all(0.0 <= x <= 1.0 for x in seen)


@pytest.mark.parametrize(
    "f, lo, hi, xtol, budget",
    [
        (lambda x: x * x - 2.0, 1.0, 2.0, 1e-13, 10),
        (lambda x: math.tanh(5 * (x - 0.7)), 0.0, 1.0, 1e-12, 12),
    ],
    ids=["sqrt2", "tanh"],
)
def test_eval_count(f, lo, hi, xtol, budget):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    _, _, (a, b), n = refine_bracket(g, lo, hi, xtol=xtol)
    assert b - a <= xtol
    assert n == len(calls) <= budget


@pytest.mark.parametrize(
    "f, lo, hi, xtol",
    [
        (lambda x: x * x - 2.0, 1.0, 2.0, 1e-13),
        (lambda x: math.tanh(5 * (x - 0.7)), 0.0, 1.0, 1e-12),
        (lambda x: 3.0 * (x - 0.25), 0.0, 1.0, 1e-13),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 1e-14),
        (lambda x: (x - 1.0) ** 9 if x >= 1.0 else -((1.0 - x) ** 0.25), 0.0, 3.0, 1e-10),
        (lambda x: math.exp(x) - 1e3, -5.0, 20.0, 1e-12),
    ],
)
def test_returned_bracket_straddles_root(f, lo, hi, xtol):
    root, froot, (a, b), _ = refine_bracket(f, lo, hi, xtol=xtol)
    assert lo <= a <= b <= hi and b - a <= xtol
    assert root in (a, b) and froot == f(root)
    if a == b:
        assert froot == 0.0
    else:
        assert math.copysign(1.0, f(a)) != math.copysign(1.0, f(b))


def _sign_at_one(x):
    return 1.0 if x >= 1.0 else -1.0


ONE_BELOW = math.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    "f, lo, hi",
    [
        (lambda x: x * x - 2.0, 1.0, 2.0),
        (lambda x: math.tanh(5 * (x - 0.7)), 0.0, 1.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 1e3, -5.0, 20.0),
        # the spacing of doubles halves below 1, so a step of the spacing
        # above 1 would skip a double: it must land on the next one instead
        (_sign_at_one, math.nextafter(ONE_BELOW, 0.0), 1.0 + 2.0**-52),
        (_sign_at_one, 0.5, 1.0 + 2.0**-51),
    ],
)
def test_zero_xtol_closes_to_adjacent_doubles(f, lo, hi):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    root, froot, (a, b), n = refine_bracket(g, lo, hi, xtol=0.0)
    assert n == len(seen) == len(set(seen))  # never twice at one point
    if a == b:
        assert froot == 0.0
        return
    assert math.nextafter(a, b) == b
    assert math.copysign(1.0, f(a)) != math.copysign(1.0, f(b))
    assert root in (a, b) and abs(froot) == min(abs(f(a)), abs(f(b)))
    if f is _sign_at_one:
        assert (a, b) == (ONE_BELOW, 1.0)


def _traced(f, lo, hi, **kwargs):
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return refine_bracket(g, lo, hi, **kwargs), seen


# cos(x) - x on [0, 1]: the end with the smaller |f| is 1, and the step floor is xtol/2
@pytest.mark.parametrize(
    "guess",
    [-0.5, 1.5, 0.0, 1.0, 1.0 - 4e-15, math.nan, math.inf],
    ids=["below", "above", "far-end", "best-end", "within-floor", "nan", "inf"],
)
def test_guess_outside_the_bracket_or_at_an_end_is_ignored(guess):
    f = lambda x: math.cos(x) - x
    plain = _traced(f, 0.0, 1.0, xtol=1e-14)
    assert _traced(f, 0.0, 1.0, xtol=1e-14, guess=guess) == plain


@pytest.mark.parametrize(
    "f, lo, hi, guess",
    [
        (lambda x: math.cos(x) - x, 0.0, 1.0, 0.739085133215),
        (lambda x: x * x - 2.0, 1.0, 2.0, 1.41421356),
        (lambda x: math.exp(x) - 1e3, -5.0, 20.0, 15.0),  # a poor guess
    ],
    ids=["cos", "sqrt2", "exp-poor"],
)
def test_guess_inside_the_bracket_is_the_first_iterate(f, lo, hi, guess):
    ends = {"fa": f(lo), "fb": f(hi)}
    (root, froot, (a, b), n), seen = _traced(f, lo, hi, xtol=1e-13, guess=guess, **ends)
    assert seen[0] == guess and n == len(seen) == len(set(seen))
    assert lo < a <= b < hi and b - a <= 1e-13 and root in (a, b)
    assert math.copysign(1.0, f(a)) != math.copysign(1.0, f(b))
    (plain, *_), _ = _traced(f, lo, hi, xtol=1e-13, **ends)
    assert abs(root - plain) <= 1e-13
