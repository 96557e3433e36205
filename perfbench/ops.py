"""Executing one op against the package, and its correctness gate.

``execute`` is the only code inside the timed region.  ``check`` runs
afterwards and returns an ``Outcome``; where it needs the package (the
invariant checks shoot once per root or point) those calls happen with
tracing suspended, so they are neither timed nor counted.

Tolerances:

* golden rows carry 6 significant digits, so a value matches when it is
  within 5e-6 relative of the row (the CLI rounding of ``table6`` itself is
  compared as text);
* closed-form references: alpha to 1e-9 relative, theta to 1e-6 relative
  (the mirror-product tolerance of the package's own tests), scattering
  coefficients to 1e-8;
* invariants: |R|^2 + |T|^2 = 1 to 1e-9 (the package's unitarity test),
  relative Wronskian defect |u1 dv1 - du1 v1 - 1| / max(1, |u1 dv1|) to 1e-8,
  q = -(theta + 1/theta) to 1e-7 (a root may keep |g| up to 1e-8 max(1, |theta|),
  which enters q twice), mirror roots equal to 1e-9 with theta * theta' = 1
  to 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import reference as ref

GOLDEN_RTOL = 5e-6
#: coupling() returns theta at the 6-digit alpha, not at the refined root
GOLDEN_OFFROOT_RTOL = 1e-4
EXACT_ALPHA_RTOL = 1e-9
EXACT_THETA_RTOL = 1e-6
EXACT_COEFF_RTOL = 1e-8
UNITARITY_TOL = 1e-9
LIMIT_TOL = 1e-12
WRONSKIAN_TOL = 1e-8
Q_RTOL = 1e-7
MIRROR_ALPHA_TOL = 1e-9
MIRROR_THETA_RTOL = 1e-6
DEFAULT_EPS_LADDER = (0.2, 0.1, 0.05, 0.025)


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    diag: dict = field(default_factory=dict)  # check.* maxima seen in this op


def build_profile(dp, spec):
    kind = spec[0]
    if kind == "builtin":
        return dp.builtin_profile(spec[1])
    if kind == "segments":
        return dp.from_segments(spec[1])
    if kind == "samples":
        return dp.from_samples(spec[1], spec[2])
    raise ValueError(f"unknown profile spec {kind!r}")


def execute(dp, op, profile):
    """The package calls of one op (the timed region)."""
    if op.kind == "find_resonances":
        return dp.find_resonances(profile, *op.args)
    if op.kind == "classify":
        return dp.classify(profile, *op.args)
    if op.kind == "coupling":
        return dp.coupling(profile, *op.args)
    if op.kind == "scatter":
        alpha, k, eps = op.args
        theta = op.ref["theta"]
        limit_class = dp.NonResonant() if theta is None else dp.Resonant(theta)
        return (
            dp.finite_coeffs(profile, alpha, k, eps),
            dp.asymptotic_coeffs(profile, alpha, eps * k),
            dp.q_factor(profile, alpha),
            dp.limit_coeffs(limit_class),
        )
    if op.kind == "study":
        return dp.study(profile, *op.args)
    raise ValueError(f"unknown op kind {op.kind!r}")


class _Gate:
    """Accumulates diagnostics; ``need`` raises on the first violated bound."""

    def __init__(self):
        self.diag = {}

    def note(self, name, value):
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.diag[name] = max(self.diag.get(name, 0.0), value)
        return value

    def need(self, cond, reason):
        if not cond:
            raise CheckFailed(reason)

    def within(self, name, value, tol, what):
        v = self.note(name, value)
        self.need(v <= tol, f"{what}: {name} {v:.3e} > {tol:.0e}")


def check(dp, op, result, error, profile, partner_result=None) -> Outcome:
    """Correctness gate for one op; an exception counts as a failed op.

    Off-resonance ``coupling`` is expected to raise ``NotResonantError``.
    """
    gate = _Gate()
    try:
        if op.kind == "coupling" and op.ref["theta"] is None:
            gate.need(isinstance(error, dp.NotResonantError),
                      f"expected NotResonantError, got {error!r}")
        elif error is not None:
            raise CheckFailed(f"{type(error).__name__}: {error}")
        else:
            _CHECKS[op.kind](dp, gate, op, result, profile, partner_result)
    except CheckFailed as exc:
        return Outcome(False, str(exc), gate.diag)
    return Outcome(True, "", gate.diag)


# --- find_resonances ---------------------------------------------------------


def _check_roots(dp, gate, op, result, profile, partner_result):
    got = [(rv.alpha, rv.theta) for rv in result]
    gate.need(all(math.isfinite(a) and math.isfinite(t) for a, t in got), "non-finite root")
    gate.need(got == sorted(got), "roots not ascending")
    kind = op.ref["kind"]
    if kind == "table6":
        want = ref.TABLE6_GOLDEN
        gate.need(len(got) == len(want), f"table6: {len(got)} rows, expected {len(want)}")
        for (a, t), (ga, gt, gT2) in zip(got, want):
            T2 = (2.0 * t / (1.0 + t * t)) ** 2
            gate.note("alpha_relerr", ref.relerr(a, float(ga)))
            gate.note("theta_relerr", ref.relerr(t, float(gt)))
            gate.need((ref.g6(a), ref.g6(t), ref.g6(T2)) == (ga, gt, gT2),
                      f"table6 row {ref.g6(a)} {ref.g6(t)} {ref.g6(T2)} != {ga} {gt} {gT2}")
        return
    lo, hi = op.args[:2]
    if kind in ("golden", "exact"):
        want = op.ref["roots"]
        a_tol = GOLDEN_RTOL if kind == "golden" else EXACT_ALPHA_RTOL
        t_tol = GOLDEN_RTOL if kind == "golden" else EXACT_THETA_RTOL
        gate.need(len(got) == len(want),
                  f"{len(got)} roots in [{lo:.4f}, {hi:.4f}], reference has {len(want)}")
        for (a, t), (ra, rt) in zip(got, want):
            gate.within("alpha_relerr", ref.relerr(a, ra), a_tol, f"root {ra:.9g}")
            gate.within("theta_relerr", ref.relerr(t, rt), t_tol, f"root {ra:.9g}")
        return
    gate.need(all(lo <= a <= hi for a, _ in got), "root outside the window")
    for a, t in got:
        gate.need(t != 0.0, f"theta = 0 at {a}")
        if a == 0.0:
            continue
        fd = dp.shoot(profile, a)
        gate.within("rel_wronskian_defect",
                    fd.wronskian_defect / max(1.0, abs(fd.u1 * fd.dv1)), WRONSKIAN_TOL,
                    f"root {a:.9g}")
        q = dp.q_factor(profile, a)
        gate.within("q_relerr", ref.relerr(q, -(t + 1.0 / t)), Q_RTOL, f"root {a:.9g}")
    if partner_result is not None:
        mine = [(rv.alpha, rv.theta) for rv in partner_result]
        gate.need(len(mine) == len(got),
                  f"mirror has {len(got)} roots, original {len(mine)}")
        for (a, t), (ma, mt) in zip(got, mine):
            gate.need(abs(a - ma) <= MIRROR_ALPHA_TOL * max(1.0, abs(ma)),
                      f"mirror root {a!r} != {ma!r}")
            gate.within("theta_relerr", abs(t * mt - 1.0), MIRROR_THETA_RTOL,
                        f"mirror theta*theta' at {ma:.9g}")


# --- classify / coupling -----------------------------------------------------


def _check_classify(dp, gate, op, result, profile, partner_result):
    want = op.ref["theta"]
    if want is None:
        gate.need(isinstance(result, dp.NonResonant), f"expected NonResonant, got {result!r}")
        return
    gate.need(isinstance(result, dp.Resonant), f"expected Resonant, got {result!r}")
    tol = GOLDEN_RTOL if op.ref["kind"] == "golden" else EXACT_THETA_RTOL
    gate.within("theta_relerr", ref.relerr(result.theta, want), tol, "classify theta")


def _check_coupling(dp, gate, op, result, profile, partner_result):
    tol = GOLDEN_OFFROOT_RTOL if op.ref["kind"] == "golden" else EXACT_THETA_RTOL
    gate.within("theta_relerr", ref.relerr(result, op.ref["theta"]), tol, "coupling theta")


# --- scatter -----------------------------------------------------------------


def _coeff_err(c, R, T):
    return max(ref.relerr(c.R, R), ref.relerr(c.T, T))


def _check_scatter(dp, gate, op, result, profile, partner_result):
    fin, asy, q, lim = result
    alpha, k, eps = op.args
    kappa = eps * k
    theta = op.ref["theta"]
    gate.within("unitarity_defect", fin.unitarity_defect, UNITARITY_TOL, "finite_coeffs")
    R, T = ref.limit_coeffs(theta)
    gate.within("limit_err", _coeff_err(lim, R, T), LIMIT_TOL, "limit_coeffs")
    if op.ref["kind"] == "exact":
        segs = op.ref["segments"]
        gate.within("coeff_relerr", _coeff_err(fin, *ref.finite_coeffs(segs, alpha, k, eps)),
                    EXACT_COEFF_RTOL, "finite_coeffs vs closed form")
        gate.within("coeff_relerr", _coeff_err(asy, *ref.asymptotic_coeffs(segs, alpha, kappa)),
                    EXACT_COEFF_RTOL, "asymptotic_coeffs vs closed form")
        q_ref = ref.q_factor(segs, alpha)
        gate.within("q_relerr", abs(q - q_ref) / max(1.0, abs(q_ref)), EXACT_COEFF_RTOL,
                    "q_factor vs closed form")
        return
    # Re(1/T) of the asymptotic expansion is -q/2 identically
    inv_T = 1.0 / asy.T
    gate.within("q_relerr", abs(inv_T.real + q / 2.0) / max(1.0, abs(q) / 2.0), Q_RTOL,
                "asymptotic_coeffs vs q_factor")
    if profile.kind != "sampled":
        fd = dp.shoot(profile, alpha, kappa * kappa)
        gate.within("rel_wronskian_defect",
                    fd.wronskian_defect / max(1.0, abs(fd.u1 * fd.dv1)), WRONSKIAN_TOL,
                    "shoot at the point")


# --- study -------------------------------------------------------------------


def _check_study(dp, gate, op, result, profile, partner_result):
    want = op.ref["theta"]
    if want is None:
        gate.need(isinstance(result.limit_kind, dp.NonResonant),
                  f"expected a Dirichlet-pair limit, got {result.limit_kind!r}")
    else:
        gate.need(isinstance(result.limit_kind, dp.Resonant),
                  f"expected a connected limit, got {result.limit_kind!r}")
        tol = GOLDEN_RTOL if op.ref["kind"] == "golden" else EXACT_THETA_RTOL
        gate.within("theta_relerr", ref.relerr(result.limit_kind.theta, want), tol,
                    "study theta")
    eps = tuple(e for e, _ in result.entries)
    errs = [r for _, r in result.entries]
    gate.need(eps == DEFAULT_EPS_LADDER, f"eps ladder {eps}")
    gate.need(all(math.isfinite(r) and r >= 0.0 for r in errs), f"errors {errs}")
    slope = float(np.polyfit(np.log(eps), np.log(errs), 1)[0])
    gate.need(abs(result.fitted_rate - slope) <= 1e-9 * max(1.0, abs(slope)),
              f"fitted_rate {result.fitted_rate} != slope {slope}")
    if want is None:
        # the Dirichlet-pair limit converges at first order on every profile;
        # resonant limits are detuned by the grid at the smallest eps and are
        # not gated on convergence
        gate.need(all(a > b for a, b in zip(errs[:-1], errs[1:])),
                  f"errors not decreasing along the ladder: {errs}")


_CHECKS = {
    "find_resonances": _check_roots,
    "classify": _check_classify,
    "coupling": _check_coupling,
    "scatter": _check_scatter,
    "study": _check_study,
}
