"""Command-line front end.

Subcommands cover every computation in the package; `table6` reproduces the
headline table of resonant intensities, coupling values and transmission
probabilities for the built-in quadratic profile on the scan window [0, 200].

Output formats: ``table`` (aligned, 6 significant digits), ``csv`` (full
double precision, header row) and ``json`` (full precision, stable key
order).  Exit codes: 0 success, 2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import convergence, profiles, resonance, scattering
from .errors import InvalidInputError, NumericalFailureError, _finite
from .shooting import FundamentalData, shoot

FORMATS = ("table", "csv", "json")


def _parsed(text: str, what: str, parse):
    """parse(text), its ValueError (InvalidInputError is one) an argparse error."""
    try:
        return parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None


def _finite_float(text: str) -> float:
    return _parsed(text, "a finite number", lambda t: _finite(float(t), "argument"))


def _eps_list(text: str) -> tuple[float, ...]:
    return _parsed(text, "comma-separated numbers", lambda t: tuple(map(float, t.split(","))))


def _resolve_profile(args) -> profiles.PotentialProfile:
    if args.builtin is not None:
        prof = profiles.builtin_profile(args.builtin)
    else:
        prof = profiles.load_profile(args.profile)
    return prof.reflected() if args.mirror else prof


def _profile_command(subs, name: str, help: str, compute):
    """Add subcommand `name` with the profile flags and --format; its handler
    returns compute(profile, args) on the profile those flags resolve."""
    p = subs.add_parser(name, help=help)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="NAME", help="built-in profile name")
    group.add_argument("--profile", metavar="PATH", help="profile JSON file")
    p.add_argument(
        "--mirror",
        action="store_true",
        help="reflect the profile about xi=0 (right-incidence scattering)",
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=lambda args: compute(_resolve_profile(args), args))
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deltaprime",
        description=(
            "Resonant couplings, coupling function and scattering coefficients "
            "of 1-D Schrodinger operators with short-range delta-prime-like "
            "potentials alpha*eps^-2*psi(x/eps)."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    _profile_command(
        subs, "moments", "zeroth and first moments of a profile",
        lambda prof, args: profiles.moments(prof),
    )

    p = _profile_command(
        subs, "shoot", "fundamental-solution boundary data at xi=1",
        lambda prof, args: shoot(prof, args.alpha, args.kappa2),
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--kappa2", type=_finite_float, default=0.0)

    p = _profile_command(
        subs, "resonances", "resonant couplings on a scan window",
        lambda prof, args: resonance.find_resonances(
            prof, args.alpha_min, args.alpha_max, args.scan_step
        ),
    )
    p.add_argument("--alpha-min", type=_finite_float, default=resonance.DEFAULT_ALPHA_MIN)
    p.add_argument("--alpha-max", type=_finite_float, default=resonance.DEFAULT_ALPHA_MAX)
    p.add_argument("--scan-step", type=_finite_float, default=resonance.DEFAULT_SCAN_STEP)

    p = _profile_command(
        subs, "theta", "coupling value at a resonant alpha",
        lambda prof, args: {
            "alpha": args.alpha, "theta": resonance.coupling(prof, args.alpha, args.tol)
        },
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument(
        "--tol",
        type=_finite_float,
        default=1e-3,
        help="accept alpha within this distance of a refined root",
    )

    p = _profile_command(
        subs, "scatter-limit", "zero-range-limit scattering coefficients",
        lambda prof, args: scattering.limit_coeffs(resonance.classify(prof, args.alpha, args.tol)),
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument(
        "--tol",
        type=_finite_float,
        default=1e-8,
        help="resonance classification tolerance in alpha",
    )

    p = _profile_command(
        subs, "scatter-eps", "exact finite-scale scattering coefficients",
        lambda prof, args: scattering.finite_coeffs(prof, args.alpha, args.k, args.eps),
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--eps", type=_finite_float, required=True)

    p = _profile_command(
        subs, "scatter-asymptotic", "leading small-kappa expansion at kappa = eps*k",
        lambda prof, args: scattering.asymptotic_coeffs(prof, args.alpha, args.eps * args.k),
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--eps", type=_finite_float, required=True)

    p = _profile_command(
        subs, "converge", "resolvent-error study of the scaled family against its limit",
        lambda prof, args: convergence.study(prof, args.alpha, args.eps_list),
    )
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument(
        "--eps-list",
        type=_eps_list,
        default=convergence.DEFAULT_EPS_LIST,
        metavar="E1,E2,...",
        help="decreasing eps values (default 0.2,0.1,0.05,0.025)",
    )

    p = subs.add_parser(
        "table6",
        help="resonant intensities, coupling values and |T|^2 for the "
        "built-in quadratic profile on [0, 200]",
    )
    p.add_argument("--format", choices=FORMATS, default="table")
    p.set_defaults(handler=_cmd_table6)

    return parser


def _cmd_table6(args):
    prof = profiles.builtin_profile("seba-quadratic")
    rows = []
    for rv in resonance.find_resonances(prof, 0.0, 200.0, 0.5):
        t2 = scattering.limit_coeffs(resonance.Resonant(rv.theta)).transmission_probability
        rows.append({"alpha": rv.alpha, "theta": rv.theta, "T2": t2})
    return rows


# --- rendering -------------------------------------------------------------


def _to_records(result):
    """Normalize any module output to an ordered record dict or list of them."""
    if isinstance(result, (profiles.Moments, FundamentalData)):
        return asdict(result)
    if isinstance(result, resonance.ResonantValue):
        return {
            "alpha": result.alpha,
            "theta": result.theta,
            "residual": result.residual,
            "bracket_lo": result.bracket[0],
            "bracket_hi": result.bracket[1],
        }
    if isinstance(result, scattering.ScatteringCoefficients):
        return {
            "R_re": result.R.real,
            "R_im": result.R.imag,
            "T_re": result.T.real,
            "T_im": result.T.imag,
            "T2": result.transmission_probability,
            "regime": result.regime,
        }
    if isinstance(result, convergence.ConvergenceReport):
        kind = "resonant" if isinstance(result.limit_kind, resonance.Resonant) else "non-resonant"
        return {
            "entries": [{"eps": e, "error": r} for e, r in result.entries],
            "fitted_rate": result.fitted_rate,
            "limit_kind": kind,
            "theta": result.theta,
        }
    if isinstance(result, list):
        return [_to_records(item) for item in result]
    if isinstance(result, dict):
        return result
    raise InvalidInputError(f"render: unsupported result type {type(result).__name__}")


def _cell(value, full_precision: bool) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, float):  # incl. numpy float64, normalized through float()
        return repr(float(value)) if full_precision else f"{float(value):.6g}"
    if value is None:
        return ""
    return str(value)


def _render_table(records) -> str:
    if isinstance(records, dict):
        if "entries" in records:  # convergence report
            lines = [_render_table(records["entries"])]
            for key in ("fitted_rate", "limit_kind", "theta"):
                if records[key] is not None:
                    lines.append(f"{key}={_cell(records[key], False)}")
            return "\n".join(lines)
        return " ".join(f"{k}={_cell(v, False)}" for k, v in records.items())
    if not records:
        return "(empty)"
    keys = list(records[0].keys())
    cells = [[_cell(r[k], False) for k in keys] for r in records]
    widths = [max(len(k), max(len(c[i]) for c in cells)) for i, k in enumerate(keys)]
    header = "  ".join(k.rjust(w) for k, w in zip(keys, widths))
    body = "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)
    return header + "\n" + body


def _render_csv(records) -> str:
    if isinstance(records, dict):
        if "entries" in records:
            return _render_csv(records["entries"])
        records = [records]
    if not records:
        return ""
    keys = list(records[0].keys())
    lines = [",".join(keys)]
    for r in records:
        lines.append(",".join(_cell(r[k], True) for k in keys))
    return "\n".join(lines)


def render(result, fmt: str) -> str:
    """Render any module output in the requested format."""
    if fmt not in FORMATS:
        raise InvalidInputError(f"render: unknown format {fmt!r}")
    records = _to_records(result)
    if fmt == "json":
        return json.dumps(records, indent=2)
    if fmt == "csv":
        return _render_csv(records)
    return _render_table(records)


def run(argv) -> int:
    """Parse argv, dispatch, print to stdout; return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        result = args.handler(args)
        text = render(result, args.format)
    except InvalidInputError as exc:
        print(f"deltaprime: error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"deltaprime: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))
