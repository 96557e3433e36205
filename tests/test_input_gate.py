"""The input gate: every public entry point rejects a bad number with a typed error.

Each entry names a public function, one of its number arguments and the bad
values for that argument's documented kind.  Every bad value must raise
InvalidInputError whose message starts with the function's name and names the
argument, before any computation and without a warning on the way.
"""

import json
import math
import warnings

import numpy as np
import pytest

import deltaprime
from deltaprime import (
    Grid,
    InvalidInputError,
    NumericalFailureError,
    Resonant,
    asymptotic_coeffs,
    builtin_profile,
    classify,
    coupling,
    discretize_limit,
    discretize_seps,
    find_resonances,
    finite_coeffs,
    from_samples,
    from_segments,
    limit_coeffs,
    make_grid,
    neumann_mismatch,
    q_factor,
    resolvent_apply,
    shoot,
    study,
)
from deltaprime.cli import run
from deltaprime.profiles import profile_from_dict
from deltaprime.shooting import shoot_batch

P = builtin_profile("seba-quadratic")
GRID = Grid(2.0, 256)
OP = discretize_limit(Resonant(2.0), GRID)
N = GRID.N

NAN, INF = math.nan, math.inf
#: not real numbers: a numeric str, bytes, None and complex values
NOT_REAL = ["1.5", b"1.5", None, 1j, np.complex128(1 + 0j)]
FINITE = NOT_REAL + [NAN, INF, -INF]
POSITIVE = FINITE + [0.0, -1.0]
RAGGED = [[1.0], [1.0, 2.0]]
#: not arrays of real numbers
NOT_REAL_ARRAY = ["1.5", b"1.5", None, ["1", "2"], [1j], np.array([1 + 0j]), RAGGED]
FINITE_ARRAY = NOT_REAL_ARRAY + [[NAN, 0.5], [0.5, INF]]

ENTRIES = [
    ("find_resonances", "alpha_min", FINITE, lambda v: find_resonances(P, v, 20.0)),
    ("find_resonances", "alpha_max", FINITE, lambda v: find_resonances(P, 16.5, v)),
    ("find_resonances", "scan_step", POSITIVE, lambda v: find_resonances(P, 16.5, 20.0, v)),
    ("classify", "alpha", FINITE, lambda v: classify(P, v)),
    ("classify", "tol", POSITIVE, lambda v: classify(P, 18.1746, v)),
    ("coupling", "alpha", FINITE, lambda v: coupling(P, v)),
    ("coupling", "alpha_tol", POSITIVE, lambda v: coupling(P, 18.1746, v)),
    ("finite_coeffs", "alpha", FINITE, lambda v: finite_coeffs(P, v, 1.0, 0.1)),
    ("finite_coeffs", "k", POSITIVE, lambda v: finite_coeffs(P, 18.17, v, 0.1)),
    ("finite_coeffs", "eps", POSITIVE, lambda v: finite_coeffs(P, 18.17, 1.0, v)),
    ("asymptotic_coeffs", "alpha", FINITE, lambda v: asymptotic_coeffs(P, v, 0.01)),
    ("asymptotic_coeffs", "kappa", FINITE, lambda v: asymptotic_coeffs(P, 18.17, v)),
    ("q_factor", "alpha", FINITE, lambda v: q_factor(P, v)),
    # a non-finite alpha or kappa2 is a NumericalFailureError here (below)
    ("shoot", "alpha", NOT_REAL, lambda v: shoot(P, v)),
    ("shoot", "kappa2", NOT_REAL, lambda v: shoot(P, 1.0, v)),
    ("shoot_batch", "alphas", NOT_REAL_ARRAY + [5.0], lambda v: shoot_batch(P, v)),
    ("shoot_batch", "kappa2", NOT_REAL, lambda v: shoot_batch(P, [1.0], v)),
    ("neumann_mismatch", "alpha", NOT_REAL, lambda v: neumann_mismatch(P, v)),
    ("make_grid", "eps_min", POSITIVE, lambda v: make_grid(v)),
    ("make_grid", "L", POSITIVE, lambda v: make_grid(0.1, L=v)),
    ("make_grid", "resolution", POSITIVE, lambda v: make_grid(0.1, resolution=v)),
    ("Grid", "L", FINITE + [1.0, -3.0], lambda v: Grid(v, 64)),
    ("discretize_seps", "alpha", FINITE, lambda v: discretize_seps(P, v, 0.5, GRID)),
    ("discretize_seps", "eps", POSITIVE, lambda v: discretize_seps(P, 10.0, v, GRID)),
    ("study", "alpha", FINITE, lambda v: study(P, v)),
    (
        "study",
        "eps_list",
        FINITE_ARRAY + [5.0, [0.2], [0.2, 0.0], [0.2, -0.1], [0.1, 0.2]],
        lambda v: study(P, 10.0, eps_list=v),
    ),
    (
        "resolvent_apply",
        "k2",
        ["1j", b"1j", "abc", None, 4.0, complex(NAN, 1.0), complex(1.0, INF), [1j, 2j]],
        lambda v: resolvent_apply(OP, v, np.ones(N)),
    ),
    (
        "resolvent_apply",
        "f",
        ["1.5", b"1.5", None, ["a"] * N, RAGGED, [NAN] * N, 5.0, np.ones(N + 1)],
        lambda v: resolvent_apply(OP, 1j, v),
    ),
    (
        "from_segments",
        "segments",
        ["1.5", b"1.5", None, 5.0, [(-1.0, 1.0)], [1j]],
        lambda v: from_segments(v),
    ),
    ("from_segments", "segments[0].a", FINITE, lambda v: from_segments([(v, 1.0, (1.0,))])),
    ("from_segments", "segments[0].b", FINITE, lambda v: from_segments([(-1.0, v, (1.0,))])),
    (
        "from_segments",
        "segments[0].coeffs",
        FINITE_ARRAY + [5.0, []],
        lambda v: from_segments([(-1.0, 1.0, v)]),
    ),
    ("from_samples", "xi", FINITE_ARRAY + [5.0], lambda v: from_samples(v, [0.0, 0.0])),
    ("from_samples", "psi", FINITE_ARRAY + [5.0], lambda v: from_samples([-1.0, 1.0], v)),
    ("PotentialProfile.eval", "x", FINITE + FINITE_ARRAY, lambda v: P.eval(v)),
    ("Resonant", "theta", FINITE + [0.0, -0.0], lambda v: Resonant(v)),
]

CASES = [
    pytest.param(func, arg, value, call, id=f"{func}-{arg}-{repr(value)[:24]}")
    for func, arg, values, call in ENTRIES
    for value in values
]


@pytest.mark.parametrize("func, arg, value, call", CASES)
def test_bad_input_raises_invalid_input_naming_function_and_argument(func, arg, value, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning or other warning on the way
        with pytest.raises(InvalidInputError) as info:
            call(value)
    message = str(info.value)
    assert message.startswith(f"{func}: ") and arg in message, message


def test_every_public_function_with_a_number_argument_is_in_the_table():
    tabled = {func.split(".")[0] for func, *_ in ENTRIES}
    number_free = {  # these take profiles, classifications, grids, names, paths or records
        "builtin_profile", "discretize_limit", "limit_coeffs", "load_profile", "moments",
        "save_profile",
    }
    public = {
        name for name in deltaprime.__all__
        if callable(getattr(deltaprime, name)) and not isinstance(getattr(deltaprime, name), type)
    }
    assert public - number_free == tabled - {"Grid", "PotentialProfile", "Resonant", "shoot_batch"}


MOTIVATION_PROBES = {
    "complex-k": lambda: finite_coeffs(P, 18.17, np.complex128(1 + 5j), 0.1),
    "complex-alpha": lambda: shoot(P, np.complex128(1 + 2j)),
    "complex-tol": lambda: classify(P, 18.1746, np.complex128(1e-3 + 1j)),
    "bytes-alpha_min": lambda: find_resonances(P, b"16.5", 20),
    "str-alphas": lambda: shoot_batch(P, ["1", "2"]),
    "str-k2": lambda: resolvent_apply(OP, "1j", np.ones(N)),
    "json-str-coeffs": lambda: profile_from_dict(
        {"segments": [{"a": -1, "b": 1, "coeffs": ["1.0"]}]}
    ),
    "json-str-xi": lambda: profile_from_dict({"samples": {"xi": ["-1", "1"], "psi": [0, 0]}}),
    "make_grid-str": lambda: make_grid("a"),
    "Grid-str": lambda: Grid("x", 64),
    "discretize_seps-str": lambda: discretize_seps(P, "a", 0.1, GRID),
    "resolvent-str-k2": lambda: resolvent_apply(OP, "abc", np.ones(N)),
    "resolvent-str-f": lambda: resolvent_apply(OP, 1j, ["a"] * N),
    "from_samples-str": lambda: from_samples(["a", "b"], [0, 0]),
    "from_segments-int": lambda: from_segments(5),
    "from_segments-pair": lambda: from_segments([(-1, 1)]),
    "study-int-eps_list": lambda: study(P, 18.17, eps_list=5),
    "discretize_limit-str-theta": lambda: discretize_limit(Resonant("x"), GRID),
    "limit_coeffs-str-theta": lambda: limit_coeffs(Resonant("2")),
}


@pytest.mark.parametrize("probe", MOTIVATION_PROBES.values(), ids=MOTIVATION_PROBES.keys())
def test_probes_that_once_ran_or_raised_untyped_errors(probe):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError):
            probe()


@pytest.mark.parametrize(
    "call",
    [
        lambda: shoot(P, NAN),
        lambda: shoot(P, 1.0, INF),
        lambda: shoot_batch(P, [1.0, NAN]),
        lambda: shoot_batch(P, [1.0], NAN),
        lambda: neumann_mismatch(P, INF),
    ],
    ids=["shoot-alpha", "shoot-kappa2", "shoot_batch-alphas", "shoot_batch-kappa2",
         "neumann_mismatch-alpha"],
)
def test_propagator_entry_points_keep_numerical_failure_for_nonfinite_values(call):
    with pytest.raises(NumericalFailureError):
        call()


def test_numpy_scalars_and_bools_are_real_numbers():
    assert shoot(P, np.int64(3), np.float32(0.5)) == shoot(P, 3.0, 0.5)
    assert finite_coeffs(P, np.float64(18.17), True, np.float32(0.5)) == finite_coeffs(
        P, 18.17, 1.0, float(np.float32(0.5))
    )
    ints = from_segments([(-1, 0, [0, -6, -6]), (0, 1, np.array([0, -6, 6]))])
    assert ints == P and all(type(c) is float for s in ints.segments for c in s.coeffs)
    assert from_samples([-1, 1], [True, False]).psi.tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "profile",
    [
        {"segments": [{"a": -1.0, "b": 1.0, "coeffs": ["1.0"]}]},
        {"samples": {"xi": ["a", "b"], "psi": [0.0, 0.0]}},
    ],
    ids=["str-coeffs", "str-xi"],
)
def test_cli_rejects_a_profile_file_with_string_numbers(tmp_path, capsys, profile):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(profile))
    assert run(["moments", "--profile", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "must be a real number" in captured.err
