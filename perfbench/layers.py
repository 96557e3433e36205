"""Which package names are traced, and the per-layer metrics derived from them.

Layer -> end-to-end metric it should move (workload):

* ``shooting.*`` (one tight ``shoot``, the batched scan integration,
  ``solve_ivp`` RHS evaluations and steps): ``op_s_p50`` on scatter
  (polynomial profiles), ``ops_per_s`` on scatter (polynomial profiles and
  the sampled share, 2 ops in 16), ``op_s_p85`` on scatter (the sampled
  share), ``ops_per_s`` on resonances.
* ``rootfind.*`` and ``resonance.*`` (scan, bracket refinement, tight and
  loose shoots per root): every timing metric on resonances.
* ``scattering.*`` (``finite_coeffs`` self time = assembling and solving the
  4x4 system): ``op_s_p50`` on scatter.
* ``profiles.eval`` and ``convergence.*`` (discretization, banded solves and
  the residual/floor check in ``resolvent_apply`` self time): ``ops_per_s``,
  ``op_s_p85`` and ``peak_rss_mb`` on resonances, through its two ``study``
  calls.
* ``setup.import_*_s``: ``setup_s`` on every workload.
"""

from __future__ import annotations

import numpy as np

REFINE = "resonance.refine"
SHOOT = "shooting.shoot"


def install(tracer, dp):
    """Wrap the names callers look up; ``dp`` is the imported package."""
    t = tracer

    def solve_ivp_after(args, sol):
        steps = max(len(sol.t) - 1, 0)
        t.count("shooting.solve_ivp.calls")
        t.count("shooting.solve_ivp.rhs_evals", sol.nfev)
        t.count("shooting.solve_ivp.steps", steps)
        if t.inside(SHOOT):
            t.count("shooting.shoot.rhs_evals", sol.nfev)

    def shoot_before(args):
        t.count("shooting.shoot.calls")
        if t.inside(REFINE):
            t.count("resonance.refine.tight_shoots")

    def batch_before(args):
        t.count("shooting.shoot_batch.calls")
        t.count("shooting.shoot_batch.alphas", np.size(args[1]))
        if t.inside(REFINE):
            t.count("resonance.refine.loose_shoots")

    def refine_after(args, result):
        t.count("rootfind.refine_bracket.calls")
        t.count("rootfind.refine_bracket.evals", result[3])

    def package_after(args, result):
        if result is not None:
            t.count("resonance.roots")

    def package_error(exc):
        if isinstance(exc, dp.NumericalFailureError):
            t.count("resonance.failures")

    def eval_before(args):
        t.count("profiles.eval.calls")
        t.count("profiles.eval.points", np.size(args[1]))

    def resolvent_before(args):
        t.count("convergence.resolvent_apply.calls")

    def banded_before(args):
        (lower, upper), ab, b = args[0], args[1], args[2]
        n = ab.shape[1]
        t.count("convergence.solve_banded.calls")
        t.count("convergence.banded_unknowns", n)
        # LU storage with fill-in rows, right-hand side and solution
        t.count("convergence.solve_banded.bytes_computed",
                (2 * lower + upper + 1) * n * ab.itemsize + 2 * np.asarray(b).nbytes)

    P = "deltaprime"
    t.wrap(f"{P}.shooting", "solve_ivp", "shooting.solve_ivp", after=solve_ivp_after)
    for owner in ("shooting", "resonance", "scattering"):
        t.wrap(f"{P}.{owner}", "shoot", SHOOT, before=shoot_before)
    for owner in ("shooting", "resonance"):
        t.wrap(f"{P}.{owner}", "shoot_batch", "shooting.shoot_batch", before=batch_before)
    t.wrap(f"{P}.resonance", "refine_bracket", "rootfind.refine_bracket", after=refine_after)
    t.wrap(f"{P}.resonance", "_scan_values", "resonance.scan",
           before=lambda args: t.count("resonance.scan.alphas", len(args[1])))
    t.wrap(f"{P}.resonance", "_refine_and_package", REFINE,
           after=package_after, on_error=package_error)
    # the benchmark calls the public API through the package namespace
    for attr in ("find_resonances", "classify", "coupling"):
        t.wrap(P, attr, f"resonance.{attr}")
    for attr in ("finite_coeffs", "asymptotic_coeffs", "q_factor"):
        t.wrap(P, attr, f"scattering.{attr}")
    t.wrap(P, "study", "convergence.study")
    t.wrap(f"{P}.profiles.PotentialProfile", "eval", "profiles.eval", before=eval_before)
    for attr in ("classify", "discretize_seps", "discretize_limit"):
        t.wrap(f"{P}.convergence", attr, f"convergence.{attr}")
    t.wrap(f"{P}.convergence", "resolvent_apply", "convergence.resolvent_apply",
           before=resolvent_before)
    t.wrap(f"{P}.convergence", "solve_banded", "convergence.solve_banded",
           before=banded_before)


def _ratio(num, den):
    return num / den if den else 0.0


def metrics(tracer):
    """Per-layer metric values (name -> (value, unit)) from one traced pass."""
    c = tracer.counters
    out = {}

    def span_total(name):
        out[f"{name}.s"] = (tracer.span_stats(name)[1], "s")

    def span_self(name):
        out[f"{name}.self_s"] = (tracer.span_stats(name)[2], "s")

    def counter(name, unit="count"):
        out[name] = (c.get(name, 0.0), unit)

    counter("shooting.shoot.calls")
    span_total(SHOOT)
    counter("shooting.shoot_batch.calls")
    counter("shooting.shoot_batch.alphas")
    span_total("shooting.shoot_batch")
    counter("shooting.solve_ivp.calls")
    counter("shooting.solve_ivp.rhs_evals")
    counter("shooting.solve_ivp.steps")
    out["shooting.rhs_evals_per_shoot"] = (
        _ratio(c.get("shooting.shoot.rhs_evals", 0.0), c.get("shooting.shoot.calls", 0.0)),
        "count",
    )

    counter("rootfind.refine_bracket.calls")
    counter("rootfind.refine_bracket.evals")
    span_total("rootfind.refine_bracket")
    counter("resonance.scan.alphas")
    span_total("resonance.scan")
    roots = c.get("resonance.roots", 0.0)
    out["resonance.tight_shoots_per_root"] = (
        _ratio(c.get("resonance.refine.tight_shoots", 0.0), roots), "count")
    out["resonance.loose_shoots_per_root"] = (
        _ratio(c.get("resonance.refine.loose_shoots", 0.0), roots), "count")
    counter("resonance.roots")
    counter("resonance.tangency_warnings")
    counter("resonance.failures")
    for name in ("find_resonances", "classify", "coupling"):
        span_total(f"resonance.{name}")

    out["scattering.finite_coeffs.calls"] = (
        float(tracer.span_stats("scattering.finite_coeffs")[0]), "count")
    span_self("scattering.finite_coeffs")
    span_total("scattering.asymptotic_coeffs")
    span_total("scattering.q_factor")

    counter("profiles.eval.calls")
    counter("profiles.eval.points")
    span_total("profiles.eval")
    for name in ("study", "classify", "discretize_seps", "discretize_limit"):
        span_total(f"convergence.{name}")
    counter("convergence.resolvent_apply.calls")
    span_self("convergence.resolvent_apply")
    counter("convergence.solve_banded.calls")
    span_total("convergence.solve_banded")
    counter("convergence.banded_unknowns")
    counter("convergence.solve_banded.bytes_computed", "bytes")
    return out
