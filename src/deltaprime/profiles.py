"""Compactly supported potential profiles on [-1, 1].

A profile is either piecewise polynomial (exact segment-wise integration)
or sampled (linear interpolation between nodes).  Profiles evaluate to 0
outside their support and are immutable once constructed, so they can be
shared freely across threads.

The JSON file format is::

    {"segments": [{"a": -1.0, "b": 0.0, "coeffs": [0.0, -6.0, -6.0]}, ...]}

with ``coeffs`` ordered constant-first, or::

    {"samples": {"xi": [...], "psi": [...]}}

Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

PIECEWISE = "piecewise-polynomial"
SAMPLED = "sampled"

BUILTIN_NAMES = ("seba-quadratic", "step", "zero")


@dataclass(frozen=True)
class Segment:
    """Polynomial piece sum(coeffs[j] * xi**j) on [a, b]."""

    a: float
    b: float
    coeffs: tuple[float, ...]


@dataclass(frozen=True)
class Moments:
    """Zeroth and first moments of a profile.

    A delta-prime-like profile has m0 = 0 and m1 = -1: its scaled copies
    eps**-2 * psi(x/eps) then converge to the derivative of the Dirac delta.
    """

    m0: float
    m1: float

    def is_delta_prime_like(self, tol: float = 1e-9) -> bool:
        return abs(self.m0) <= tol and abs(self.m1 + 1.0) <= tol


@dataclass(frozen=True)
class PotentialProfile:
    kind: str
    segments: tuple[Segment, ...] = ()
    xi: np.ndarray | None = None
    psi: np.ndarray | None = None

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == PIECEWISE:
            return (self.segments[0].a, self.segments[-1].b)
        return (float(self.xi[0]), float(self.xi[-1]))

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Abscissae where the profile definition changes (segment edges)."""
        if self.kind == PIECEWISE:
            pts = [self.segments[0].a]
            pts.extend(s.b for s in self.segments)
            return tuple(pts)
        return (float(self.xi[0]), float(self.xi[-1]))

    @property
    def is_zero(self) -> bool:
        if self.kind == PIECEWISE:
            return all(all(c == 0.0 for c in s.coeffs) for s in self.segments)
        return bool(np.all(self.psi == 0.0))

    def eval(self, x):
        """Evaluate the profile at x (scalar or ndarray); 0 outside support."""
        arr = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise InvalidInputError("xi: evaluation point must be finite")
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        lo, hi = self.support
        inside = (arr >= lo) & (arr <= hi)
        if self.kind == PIECEWISE:
            # half-open segments [a, b); the last segment is closed
            edges = np.array([s.b for s in self.segments[:-1]])
            idx = np.searchsorted(edges, arr[inside], side="right")
            vals = np.empty(idx.shape)
            for j, seg in enumerate(self.segments):
                mask = idx == j
                if np.any(mask):
                    vals[mask] = np.polynomial.polynomial.polyval(
                        arr[inside][mask], np.asarray(seg.coeffs)
                    )
            out[inside] = vals
        else:
            out[inside] = np.interp(arr[inside], self.xi, self.psi)
        return float(out[0]) if scalar else out

    def reflected(self) -> "PotentialProfile":
        """The mirror profile xi -> psi(-xi)."""
        if self.kind == PIECEWISE:
            segs = tuple(
                Segment(-s.b, -s.a, tuple(c * (-1.0) ** j for j, c in enumerate(s.coeffs)))
                for s in reversed(self.segments)
            )
            return PotentialProfile(PIECEWISE, segments=segs)
        return from_samples(-self.xi[::-1], self.psi[::-1])


def _check_finite(value: float, field: str) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{field}: expected a real number, got {value!r}") from None
    if not np.isfinite(value):
        raise InvalidInputError(f"{field}: must be finite, got {value!r}")
    return value


def from_segments(segments) -> PotentialProfile:
    """Build and validate a piecewise-polynomial profile.

    ``segments`` is an iterable of (a, b, coeffs) triples or Segment objects,
    sorted, contiguous, with support inside [-1, 1].
    """
    segs = []
    for i, s in enumerate(segments):
        if isinstance(s, Segment):
            a, b, coeffs = s.a, s.b, s.coeffs
        else:
            a, b, coeffs = s
        a = _check_finite(a, f"segments[{i}].a")
        b = _check_finite(b, f"segments[{i}].b")
        coeffs = tuple(_check_finite(c, f"segments[{i}].coeffs[{j}]") for j, c in enumerate(coeffs))
        if len(coeffs) == 0:
            raise InvalidInputError(f"segments[{i}].coeffs: must not be empty")
        if not a < b:
            raise InvalidInputError(f"segments[{i}]: requires a < b, got [{a}, {b}]")
        segs.append(Segment(a, b, coeffs))
    if not segs:
        raise InvalidInputError("segments: at least one segment is required")
    for i in range(1, len(segs)):
        if segs[i].a != segs[i - 1].b:
            raise InvalidInputError(
                f"segments[{i}].a: segments must be contiguous and sorted "
                f"(expected {segs[i - 1].b}, got {segs[i].a})"
            )
    if segs[0].a < -1.0 or segs[-1].b > 1.0:
        raise InvalidInputError(
            f"support: [{segs[0].a}, {segs[-1].b}] must lie within [-1, 1]"
        )
    return PotentialProfile(PIECEWISE, segments=tuple(segs))


def from_samples(xi, psi) -> PotentialProfile:
    """Build and validate a sampled profile (linear interpolation between nodes)."""
    xi = np.asarray(xi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if xi.ndim != 1 or psi.ndim != 1 or xi.size != psi.size:
        raise InvalidInputError("samples: xi and psi must be 1-D arrays of equal length")
    if xi.size < 2:
        raise InvalidInputError("samples.xi: at least 2 nodes are required")
    if not np.all(np.isfinite(xi)):
        raise InvalidInputError("samples.xi: all nodes must be finite")
    if not np.all(np.isfinite(psi)):
        raise InvalidInputError("samples.psi: all values must be finite")
    if not np.all(np.diff(xi) > 0):
        raise InvalidInputError("samples.xi: nodes must be strictly increasing")
    if xi[0] < -1.0 or xi[-1] > 1.0:
        raise InvalidInputError(
            f"support: [{xi[0]}, {xi[-1]}] must lie within [-1, 1]"
        )
    xi = xi.copy()
    psi = psi.copy()
    xi.flags.writeable = False
    psi.flags.writeable = False
    return PotentialProfile(SAMPLED, xi=xi, psi=psi)


def builtin_profile(name: str) -> PotentialProfile:
    """Named profiles: 'seba-quadratic', 'step' and 'zero'.

    seba-quadratic is -6*xi*(xi+1) on [-1, 0] and 6*xi*(xi-1) on [0, 1];
    step is +1 on (-1, 0) and -1 on (0, 1); zero is identically 0.
    The first two have moments (0, -1), i.e. they are delta-prime-like.
    """
    if name == "seba-quadratic":
        return from_segments([(-1.0, 0.0, (0.0, -6.0, -6.0)), (0.0, 1.0, (0.0, -6.0, 6.0))])
    if name == "step":
        return from_segments([(-1.0, 0.0, (1.0,)), (0.0, 1.0, (-1.0,))])
    if name == "zero":
        return from_segments([(-1.0, 1.0, (0.0,))])
    raise InvalidInputError(
        f"builtin: unknown profile name {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
    )


def moments(profile: PotentialProfile) -> Moments:
    """Exact zeroth and first moments.

    Piecewise-polynomial segments are integrated symbolically via monomial
    antiderivatives; sampled profiles integrate the linear interpolant exactly.
    """
    if profile.kind == PIECEWISE:
        m0 = 0.0
        m1 = 0.0
        for seg in profile.segments:
            for j, c in enumerate(seg.coeffs):
                if c == 0.0:
                    continue
                m0 += c * (seg.b ** (j + 1) - seg.a ** (j + 1)) / (j + 1)
                m1 += c * (seg.b ** (j + 2) - seg.a ** (j + 2)) / (j + 2)
        return Moments(m0, m1)
    xi = profile.xi
    psi = profile.psi
    dx = np.diff(xi)
    m0 = float(np.sum(0.5 * (psi[:-1] + psi[1:]) * dx))
    # per-cell psi(t) = p0 + s*(t - x0); integrate t*psi(t) exactly
    s = np.diff(psi) / dx
    x0, x1 = xi[:-1], xi[1:]
    m1 = float(
        np.sum(
            psi[:-1] * (x1**2 - x0**2) / 2.0
            + s * ((x1**3 - x0**3) / 3.0 - x0 * (x1**2 - x0**2) / 2.0)
        )
    )
    return Moments(m0, m1)


def profile_to_dict(profile: PotentialProfile) -> dict:
    """JSON-ready representation, bit-exact on coefficients."""
    if profile.kind == PIECEWISE:
        return {
            "segments": [
                {"a": s.a, "b": s.b, "coeffs": list(s.coeffs)} for s in profile.segments
            ]
        }
    return {"samples": {"xi": list(map(float, profile.xi)), "psi": list(map(float, profile.psi))}}


def profile_from_dict(data) -> PotentialProfile:
    if not isinstance(data, dict):
        raise InvalidInputError("profile: top-level JSON value must be an object")
    keys = set(data.keys())
    if keys == {"segments"}:
        raw = data["segments"]
        if not isinstance(raw, list):
            raise InvalidInputError("segments: must be a list of segment objects")
        segs = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict):
                raise InvalidInputError(f"segments[{i}]: must be an object")
            extra = set(item.keys()) - {"a", "b", "coeffs"}
            if extra:
                raise InvalidInputError(
                    f"segments[{i}]: unknown key {sorted(extra)[0]!r}"
                )
            missing = {"a", "b", "coeffs"} - set(item.keys())
            if missing:
                raise InvalidInputError(
                    f"segments[{i}]: missing key {sorted(missing)[0]!r}"
                )
            if not isinstance(item["coeffs"], list):
                raise InvalidInputError(f"segments[{i}].coeffs: must be a list")
            segs.append((item["a"], item["b"], item["coeffs"]))
        return from_segments(segs)
    if keys == {"samples"}:
        raw = data["samples"]
        if not isinstance(raw, dict):
            raise InvalidInputError("samples: must be an object with keys 'xi' and 'psi'")
        extra = set(raw.keys()) - {"xi", "psi"}
        if extra:
            raise InvalidInputError(f"samples: unknown key {sorted(extra)[0]!r}")
        missing = {"xi", "psi"} - set(raw.keys())
        if missing:
            raise InvalidInputError(f"samples: missing key {sorted(missing)[0]!r}")
        if not isinstance(raw["xi"], list) or not isinstance(raw["psi"], list):
            raise InvalidInputError("samples: xi and psi must be lists")
        return from_samples(raw["xi"], raw["psi"])
    unknown = keys - {"segments", "samples"}
    if unknown:
        raise InvalidInputError(f"profile: unknown key {sorted(unknown)[0]!r}")
    raise InvalidInputError("profile: exactly one of 'segments' or 'samples' is required")


def load_profile(path) -> PotentialProfile:
    """Read and validate a profile JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"profile file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"profile file {path}: invalid JSON ({exc})") from exc
    return profile_from_dict(data)


def save_profile(profile: PotentialProfile, path) -> None:
    """Write a profile JSON file; load_profile(save_profile(p)) == p bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")
