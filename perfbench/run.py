"""deltaprime benchmark: one caller in a closed loop over a seeded workload.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload resonances --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs each op of
the workload's first pass once traced and once untraced (for the overhead),
and reports the per-layer metrics.  The last line of stdout is the result object; the line
before it carries the environment and the failed ops.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import ops as opsmod
from workloads import WORKLOADS, defect_probe, passes

#: the highest percentile with at least ten ops beyond it on every workload;
#: a run lasts at least MIN_OPS ops so that it always has them
UPPER_PCT = 85
MIN_OPS = math.ceil(10 / (1 - UPPER_PCT / 100))
SETUP_RUNS = 5
IMPORT_RUNS = 3
CHILD_TIMEOUT_S = 60

SETUP_CHILD = """
import json, sys, time
specs = json.loads(sys.stdin.read())
t0 = time.perf_counter()
import deltaprime as dp
for kind, *rest in specs:
    if kind == "builtin":
        dp.builtin_profile(rest[0])
    elif kind == "segments":
        dp.from_segments(rest[0])
    else:
        dp.from_samples(rest[0], rest[1])
print(time.perf_counter() - t0)
"""

IMPORT_CHILD = """
import time
t = [time.perf_counter()]
import numpy
t.append(time.perf_counter())
import scipy.linalg
t.append(time.perf_counter())
import scipy.integrate
t.append(time.perf_counter())
import deltaprime
t.append(time.perf_counter())
print(" ".join(repr(b - a) for a, b in zip(t[:-1], t[1:])))
"""
IMPORT_LAYERS = ("numpy", "scipy_linalg", "scipy_integrate", "deltaprime")

CHECK_DIAG = (
    "alpha_relerr",
    "theta_relerr",
    "unitarity_defect",
    "rel_wronskian_defect",
    "q_relerr",
    "coeff_relerr",
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not (math.isfinite(args.seconds) and args.seconds > 0):
        ap.error("--seconds must be positive")
    return args


# --- environment ---------------------------------------------------------------


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_child(code, src, stdin_text=""):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=child_env(src),
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return proc.stdout.split()


def commit_of(root):
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root, src):
    import numpy
    import scipy

    return {
        "commit": commit_of(root),
        "src_sha256": source_digest(src),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "DELTAPRIME_THREADS": os.environ.get("DELTAPRIME_THREADS"),
    }


# --- the closed loop -----------------------------------------------------------


class Loop:
    """Runs ops one after another and keeps their times and check outcomes."""

    def __init__(self, dp, tracer=None):
        self.dp = dp
        self.tracer = tracer
        self.durations = []
        self.failed = 0
        self.unexpected = 0  # ops that crashed with a non-package exception
        self.failures = []
        self.diag = {}
        self.by_kind = {}
        self.untraced_s = 0.0  # traced runs only: the same ops with tracing off

    def run_pass(self, p):
        profiles = {k: opsmod.build_profile(self.dp, spec) for k, spec in p.profiles.items()}
        results = {}
        for i, op in enumerate(p.ops):
            partner = results.get(op.partner) if op.partner is not None else None
            # traced runs time each op untraced too, alternating which goes
            # first so that warm caches favour neither
            untraced_first = self.tracer is not None and i % 2 == 0
            if untraced_first:
                self.untraced_s += self.time_untraced(op, profiles[op.profile])
            results[i] = self.run_op(op, profiles[op.profile], partner)
            if self.tracer is not None and not untraced_first:
                self.untraced_s += self.time_untraced(op, profiles[op.profile])

    def time_untraced(self, op, profile):
        """The op once more with tracing off, next to its traced run."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            t0 = time.perf_counter()
            try:
                opsmod.execute(self.dp, op, profile)
            except Exception:  # judged in the traced run
                pass
            return time.perf_counter() - t0

    def run_op(self, op, profile, partner_result):
        result = error = None
        tr = self.tracer
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tr is not None:
                tr.enabled = True
            t0 = time.perf_counter()
            try:
                result = opsmod.execute(self.dp, op, profile)
            except Exception as exc:  # a failed op is recorded, not fatal
                error = exc
            dt = time.perf_counter() - t0
            if tr is not None:
                tr.enabled = False
        tangencies = sum(issubclass(w.category, self.dp.NearTangencyWarning) for w in caught)
        if tr is not None and tangencies:
            tr.count("resonance.tangency_warnings", tangencies)
        if error is not None and not isinstance(error, self.dp.DeltaPrimeError):
            self.unexpected += 1
        try:
            outcome = opsmod.check(self.dp, op, result, error, profile, partner_result)
        except Exception as exc:  # the gate could not judge this output
            self.unexpected += 1
            outcome = opsmod.Outcome(False, f"check error {type(exc).__name__}: {exc}")
        self.durations.append(dt)
        stats = self.by_kind.setdefault(op.kind, [0, 0])
        stats[0] += 1
        for name, value in outcome.diag.items():
            self.diag[name] = max(self.diag.get(name, 0.0), value)
        if not outcome.ok:
            self.failed += 1
            stats[1] += 1
            self.failures.append(
                {"kind": op.kind, "profile": op.profile,
                 "args": [float(a) for a in op.args], "reason": outcome.reason[:200]}
            )
        return None if error is not None else result


def measure_setup(src, first_pass):
    specs = json.dumps(list(first_pass.profiles.values()))
    times = [float(run_child(SETUP_CHILD, src, specs)[0]) for _ in range(SETUP_RUNS)]
    return statistics.median(times)


def measure_imports(src):
    runs = [list(map(float, run_child(IMPORT_CHILD, src))) for _ in range(IMPORT_RUNS)]
    return {
        f"setup.import_{name}_s": (statistics.median(r[i] for r in runs), "s")
        for i, name in enumerate(IMPORT_LAYERS)
    }


def end_to_end(args, dp, src):
    gen = passes(args.workload, args.seed)
    first = next(gen)
    setup_s = measure_setup(src, first)
    loop = Loop(dp)
    # Whole passes only, so every run runs the same catalogue of calls.  Another
    # pass starts while the run would end nearer to --seconds with it than
    # without it, so runs last --seconds on average.
    start = time.perf_counter()
    loop.run_pass(first)
    n_passes = 1
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / n_passes / 2 >= args.seconds and len(loop.durations) >= MIN_OPS:
            break
        loop.run_pass(next(gen))
        n_passes += 1
    d = loop.durations
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_s_p50": (statistics.median(d), "s"),
        f"op_s_p{UPPER_PCT}": (statistics.quantiles(d, n=100, method="inclusive")[UPPER_PCT - 1], "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }
    return loop, metrics


def write_spans(tracer, label):
    """Keep the traced pass's spans for inspection: .bench_build/perfbench/spans-<label>.json."""
    out = Path(".bench_build") / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    rows = [[sid, parent, name, round(start, 9), round(end, 9)]
            for sid, parent, name, start, end in tracer.spans]
    (out / f"spans-{label}.json").write_text(json.dumps(
        {"columns": ["id", "parent", "name", "start_s", "end_s"], "spans": rows}))


def traced(args, dp, src):
    from layers import install, metrics as layer_metrics
    from spans import Tracer

    first = next(passes(args.workload, args.seed))
    tracer = Tracer()
    install(tracer, dp)
    loop = Loop(dp, tracer)
    try:
        loop.run_pass(first)
    finally:
        tracer.restore()
    write_spans(tracer, f"{args.workload}-{args.seed}")
    metrics = layer_metrics(tracer)
    metrics.update(measure_imports(src))
    for name in CHECK_DIAG:
        metrics[f"check.{name}_max"] = (min(loop.diag.get(name, 0.0), 1e300), "ratio")
    # each op also ran untraced next to its traced run, so both see the same machine
    metrics["trace.overhead_frac"] = (sum(loop.durations) / loop.untraced_s - 1.0, "fraction")
    # the inputs the workloads leave out because the package fails on them
    probe = Loop(dp)
    probe.run_pass(defect_probe())
    metrics["check.known_defect_failed"] = (probe.failed, "count")
    return loop, metrics, tracer.absent, probe


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "deltaprime" / "__init__.py").is_file():
        print(f"perfbench: no package at {src}/deltaprime; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import deltaprime as dp

    if not Path(dp.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported {dp.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    absent, probe = [], None
    if args.trace:
        loop, metrics, absent, probe = traced(args, dp, src)
    else:
        loop, metrics = end_to_end(args, dp, src)

    attempted = len(loop.durations)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(root, src),
        "ops_by_kind": {k: {"attempted": a, "failed": f} for k, (a, f) in loop.by_kind.items()},
        "fail_frac": loop.failed / attempted,
        "failures": loop.failures[:50],
        "absent": absent,
    }
    if probe is not None:
        detail["known_defects"] = {"attempted": len(probe.durations), "failed": probe.failed,
                                   "failures": probe.failures}
    print(json.dumps({"detail": detail}))
    result = {
        "correct": loop.unexpected == 0 and (probe is None or probe.unexpected == 0),
        "attempted": attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
