"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import deltaprime as dp  # noqa: E402

import reference  # noqa: E402
from layers import install, metrics  # noqa: E402
from run import Loop  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Op, Pass, passes  # noqa: E402


def _short_pass(workload, seed, keep_op, n):
    """The first n ops of the seed's first pass that keep_op accepts."""
    first = next(passes(workload, seed))
    keep = [op for op in first.ops if keep_op(op) and op.partner is None][:n]
    return Pass({op.profile: first.profiles[op.profile] for op in keep}, keep)


def _golden(op):
    # one-root windows on seba-quadratic (the scan runs on the thread pool),
    # and classify/coupling at tabulated couplings
    return op.ref["kind"] == "golden" and op.ref.get("theta", 0.0) is not None


def _scatter(op):
    return op.kind == "scatter"


def _traced_counts(p):
    tracer = Tracer()
    install(tracer, dp)
    try:
        Loop(dp, tracer).run_pass(p)
    finally:
        tracer.restore()
    return {k: v for k, (v, unit) in metrics(tracer).items() if unit in ("count", "bytes")}


@pytest.mark.parametrize(
    "workload, keep_op, n, busy",
    [("resonances", _golden, 3, "shooting.shoot_batch.calls"),
     ("scatter", _scatter, 4, "shooting.shoot.calls")],
)
def test_traced_counts_repeat_exactly(workload, keep_op, n, busy):
    p = _short_pass(workload, 3, keep_op, n)
    first = _traced_counts(p)
    assert first[busy] > 0
    assert _traced_counts(p) == first


def test_tracing_leaves_package_unpatched():
    before = dp.shooting.solve_ivp
    _traced_counts(_short_pass("scatter", 3, _scatter, 1))
    assert dp.shooting.solve_ivp is before


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_profiles_are_delta_prime_like(workload):
    for seed in (1, 2):
        gen = passes(workload, seed)
        for _ in range(3):
            for key, spec in next(gen).profiles.items():
                # mirrors have m1 = +1 by construction
                if spec[0] != "segments" or "mirror" in key:
                    continue
                m0, m1 = reference.segment_moments(spec[1])
                assert abs(m0) <= 1e-12, key
                assert abs(m1 + 1.0) <= 1e-12, key


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(workload):
    a, b = next(passes(workload, 7)), next(passes(workload, 7))
    assert a.ops == b.ops and a.profiles == b.profiles
    assert next(passes(workload, 8)).ops != a.ops


def _failing_package(exc):
    def find_resonances(*args, **kwargs):
        raise exc

    fake = types.SimpleNamespace(**{n: getattr(dp, n) for n in dir(dp) if not n.startswith("_")})
    fake.find_resonances = find_resonances
    return fake


def _one_op_pass():
    op = Op("find_resonances", "step", (-1.0, 1.0),
            {"kind": "exact", "roots": [(0.0, 1.0)]})
    return Pass({"step": ("builtin", "step")}, [op])


def test_numerical_failure_counts_as_failed_not_fatal():
    loop = Loop(_failing_package(dp.NumericalFailureError("refinement stalled")))
    loop.run_pass(_one_op_pass())
    assert (len(loop.durations), loop.failed, loop.unexpected) == (1, 1, 0)
    assert "NumericalFailureError" in loop.failures[0]["reason"]


def test_foreign_exception_marks_run_incorrect():
    loop = Loop(_failing_package(TypeError("bad call")))
    loop.run_pass(_one_op_pass())
    assert (loop.failed, loop.unexpected) == (1, 1)


def test_missing_name_is_absent_not_fatal():
    tracer = Tracer()
    tracer.wrap("deltaprime.resonance", "no_such_layer", "x")
    tracer.wrap("deltaprime.no_such_module", "f", "y")
    assert tracer.absent == ["deltaprime.resonance.no_such_layer", "deltaprime.no_such_module.f"]
    assert tracer.span_stats("x") == (0, 0.0, 0.0)


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        (1, None, "outer", 0.0, 10.0),
        (2, 1, "inner", 1.0, 4.0),
        (3, 1, "inner", 3.0, 6.0),  # overlaps the first child
        (4, 1, "inner", 9.0, 12.0),  # runs past the parent's end
    ]
    calls, total, own = tracer.span_stats("outer")
    assert (calls, total) == (1, 10.0)
    assert own == pytest.approx(10.0 - 5.0 - 1.0)


def test_counters_and_spans_are_thread_safe():
    tracer = Tracer()
    n_threads, n_iter = 8, 2000
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(n_iter):
                with tracer.span("s"):
                    tracer.count("c")

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counters["c"] == n_threads * n_iter
    assert len(tracer.spans) == n_threads * n_iter
    assert len({s[0] for s in tracer.spans}) == n_threads * n_iter
    assert all(parent is None for _, parent, *_ in tracer.spans)
