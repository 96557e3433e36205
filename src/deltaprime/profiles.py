"""Compactly supported potential profiles on [-1, 1].

A profile is either piecewise polynomial or sampled (linear interpolation
between nodes).  Its one representation for computing is its cell table
(``Cells``), built on first use, which also states which cells vary:
``eval``, ``moments``, ``is_zero``, the scan and the propagator read only
that, so no other module decodes the two formats.
``kind`` with ``segments`` or ``xi`` and ``psi`` stay as constructed and
define equality and hash (samples by value), the mirror profile and the JSON
format below.  Profiles evaluate to 0 outside their support.  They are
immutable apart from two things the propagator keeps in the cell table:
its node tables (``Cells.nodes``), which fill lazily and hold only
alpha-independent data, and its last shoot (``Cells.last_shot``), one
(alpha, kappa2) point with the boundary data it gave.  Profiles can be
shared across threads: a concurrent first build of a table only duplicates
work, and the last shoot is replaced as one tuple.

The JSON file format is::

    {"segments": [{"a": -1.0, "b": 0.0, "coeffs": [0.0, -6.0, -6.0]}, ...]}

with ``coeffs`` ordered constant-first, or::

    {"samples": {"xi": [...], "psi": [...]}}

Unknown keys are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, _array, _finite

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


def _horner(coeffs, t):
    """sum(coeffs[..., k] * t**k), in numpy ``polyval``'s order of operations."""
    val = coeffs[..., -1] + t * 0
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        val = coeffs[..., k] + val * t
    return val


@dataclass(frozen=True)
class Cells:
    """The cells of [-1, 1], on each of which psi is one polynomial.

    Cell i is [edges[i], edges[i+1]), with psi = sum(coeffs[i, k] * t**k) in
    t = x - origin[i].  A segment has origin 0 and its coefficients, padded
    with zeros; a node interval has its left node and (psi_i, slope_i), the
    form ``np.interp`` evaluates; the stretches outside the support are 0.
    ``varying`` holds the positions of the cells on which psi is not
    constant and ``constant`` those of the others, ``peak`` a 9-point
    estimate of max|psi| per cell, and ``end`` psi at the closed right end of
    the support.  ``reach`` holds the varying cells' widths and peaks as two
    (cell, 1) columns, which set the propagator's first step count.  All of
    these are read-only and built with the table, once per profile.
    Two fields belong to ``shooting`` and live and die with the profile:
    ``nodes`` holds the propagator's node tables, read-only arrays built on
    first use, and ``last_shot[0]`` the last single shoot, a (key, boundary
    data) tuple that depends on alpha and kappa2, None until a shoot succeeds.
    """

    edges: np.ndarray
    origin: np.ndarray
    coeffs: np.ndarray
    varying: np.ndarray
    constant: np.ndarray
    peak: np.ndarray
    reach: np.ndarray
    end: float
    nodes: dict = field(default_factory=dict, repr=False, compare=False)
    last_shot: list = field(default_factory=lambda: [None], repr=False, compare=False)

    def values(self, rows, x):
        """psi at x on the cells ``rows`` (the two broadcast together)."""
        return _horner(self.coeffs[rows], x - self.origin[rows])


@dataclass(frozen=True)
class PotentialProfile:
    """A profile as constructed, and its cell table ``cells`` (module docstring)."""

    kind: str
    segments: tuple[Segment, ...] = ()
    xi: np.ndarray | None = None
    psi: np.ndarray | None = None

    def _key(self):
        samples = () if self.xi is None else (tuple(self.xi.tolist()), tuple(self.psi.tolist()))
        return (self.kind, self.segments) + samples

    def __eq__(self, other):  # samples compare by value
        return isinstance(other, PotentialProfile) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def support(self) -> tuple[float, float]:
        if self.kind == PIECEWISE:
            return (self.segments[0].a, self.segments[-1].b)
        return (float(self.xi[0]), float(self.xi[-1]))

    @cached_property
    def cells(self) -> Cells:
        """The cell table of [-1, 1], built on first use."""
        if self.kind == PIECEWISE:
            segs = self.segments
            degree = max(len(s.coeffs) for s in segs)
            coeffs = np.array([s.coeffs + (0.0,) * (degree - len(s.coeffs)) for s in segs])
            edges, origin = np.array([s.a for s in segs] + [segs[-1].b]), np.zeros(len(segs))
            varying = np.array([any(s.coeffs[1:]) for s in segs])
            end = _horner(coeffs[-1], segs[-1].b)
        else:
            edges, origin, end = self.xi, self.xi[:-1], self.psi[-1]
            coeffs = np.column_stack((self.psi[:-1], np.diff(self.psi) / np.diff(self.xi)))
            varying = self.psi[:-1] != self.psi[1:]
        lo, hi = int(edges[0] > -1.0), int(edges[-1] < 1.0)  # zero cells out to -1 and 1
        edges = np.concatenate(([-1.0] * lo, edges, [1.0] * hi))

        def padded(arr):  # arr with a zero row for each zero cell
            out = np.zeros((edges.size - 1,) + arr.shape[1:], arr.dtype)
            out[lo : lo + len(arr)] = arr
            return out

        origin, coeffs, varying = padded(origin), padded(coeffs), padded(varying)
        varying, constant = np.flatnonzero(varying), np.flatnonzero(~varying)
        nine = np.linspace(edges[:-1], edges[1:], 9, axis=-1)
        peak = np.max(np.abs(_horner(coeffs[:, None], nine - origin[:, None])), axis=-1)
        reach = np.stack((edges[varying + 1] - edges[varying], peak[varying]))[..., None]
        _read_only(edges, origin, coeffs, varying, constant, peak, reach)
        return Cells(edges, origin, coeffs, varying, constant, peak, reach, float(end))

    @property
    def is_zero(self) -> bool:
        return not self.cells.coeffs.any()

    def eval(self, x):
        """Evaluate the profile at x (scalar or ndarray); 0 outside support.

        Cells are half-open, and the support's right end takes psi's value there,
        so a sampled profile returns psi exactly at every node.  Raises
        InvalidInputError unless x is finite (the gate in ``errors``).
        """
        arr = _array(x, "PotentialProfile.eval: x").astype(float, copy=False)
        cells = self.cells
        rows = np.searchsorted(cells.edges, arr, side="right") - 1  # clipped into the table by take
        coeffs = np.take(cells.coeffs, rows, axis=0, mode="clip")
        psi = _horner(coeffs, arr - np.take(cells.origin, rows, mode="clip"))
        lo, hi = self.support
        out = np.where(arr == hi, cells.end, psi)
        out = np.where((arr >= lo) & (arr <= hi), out, 0.0)
        return float(out) if out.ndim == 0 else out

    def reflected(self) -> "PotentialProfile":
        """The mirror profile xi -> psi(-xi)."""
        if self.kind == PIECEWISE:
            segs = tuple(
                Segment(-s.b, -s.a, tuple(c * (-1.0) ** j for j, c in enumerate(s.coeffs)))
                for s in reversed(self.segments)
            )
            return PotentialProfile(PIECEWISE, segments=segs)
        return from_samples(-self.xi[::-1], self.psi[::-1])


def _read_only(*arrays):
    """The arrays, each made read-only so that it can be kept and shared across threads."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def from_segments(segments) -> PotentialProfile:
    """Build and validate a piecewise-polynomial profile.

    ``segments`` is an iterable of (a, b, coeffs) triples or Segment objects,
    sorted, contiguous, with support inside [-1, 1].  Raises InvalidInputError
    unless it is one, with finite real ends and non-empty finite real coeffs
    (the gate in ``errors``).
    """
    try:
        items = [(s.a, s.b, s.coeffs) if isinstance(s, Segment) else tuple(s) for s in segments]
    except TypeError:
        items = None
    if items is None or any(len(item) != 3 for item in items):
        raise InvalidInputError(
            f"from_segments: segments must be an iterable of (a, b, coeffs) triples, "
            f"got {segments!r:.80}"
        )
    segs = []
    for i, (a, b, coeffs) in enumerate(items):
        name = f"from_segments: segments[{i}]"
        a, b = _finite(a, f"{name}.a"), _finite(b, f"{name}.b")
        coeffs = _array(coeffs, f"{name}.coeffs")
        if coeffs.ndim != 1 or not coeffs.size:
            raise InvalidInputError(f"{name}.coeffs must be a non-empty sequence, got {coeffs}")
        if not a < b:
            raise InvalidInputError(f"{name}: requires a < b, got [{a}, {b}]")
        segs.append(Segment(a, b, tuple(coeffs.astype(float).tolist())))
    if not segs:
        raise InvalidInputError("from_segments: at least one segment is required")
    for i in range(1, len(segs)):
        if segs[i].a != segs[i - 1].b:
            raise InvalidInputError(
                f"from_segments: segments[{i}].a: segments must be contiguous and sorted "
                f"(expected {segs[i - 1].b}, got {segs[i].a})"
            )
    if segs[0].a < -1.0 or segs[-1].b > 1.0:
        raise InvalidInputError(
            f"from_segments: support [{segs[0].a}, {segs[-1].b}] must lie within [-1, 1]"
        )
    return PotentialProfile(PIECEWISE, segments=tuple(segs))


def from_samples(xi, psi) -> PotentialProfile:
    """Build and validate a sampled profile (linear interpolation between nodes).

    Raises InvalidInputError unless xi and psi are finite 1-D arrays of equal length
    (the gate in ``errors``) with at least 2 strictly increasing nodes in [-1, 1].
    """
    xi = _array(xi, "from_samples: xi").astype(float)
    psi = _array(psi, "from_samples: psi").astype(float)
    if xi.ndim != 1 or psi.ndim != 1 or xi.size != psi.size:
        raise InvalidInputError("from_samples: xi and psi must be 1-D arrays of equal length")
    if xi.size < 2:
        raise InvalidInputError("from_samples: xi: at least 2 nodes are required")
    if not np.all(np.diff(xi) > 0):
        raise InvalidInputError("from_samples: xi: nodes must be strictly increasing")
    if xi[0] < -1.0 or xi[-1] > 1.0:
        raise InvalidInputError(
            f"from_samples: support [{xi[0]}, {xi[-1]}] must lie within [-1, 1]"
        )
    xi, psi = _read_only(xi, psi)
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

    Each cell's polynomial in t = x - origin is integrated through monomial
    antiderivatives, in Python floats; x*psi adds origin times the
    zeroth-moment term.
    """
    cells = profile.cells
    edges = cells.edges.tolist()
    m0 = m1 = 0.0
    for a, b, o, coeffs in zip(edges, edges[1:], cells.origin.tolist(), cells.coeffs.tolist()):
        ta, tb = a - o, b - o
        for j, c in enumerate(coeffs):
            if c == 0.0:
                continue
            part = c * (tb ** (j + 1) - ta ** (j + 1)) / (j + 1)
            m0 += part
            m1 += c * (tb ** (j + 2) - ta ** (j + 2)) / (j + 2) + o * part
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


def _check_keys(obj, where: str, allowed, required=None) -> None:
    """Raise InvalidInputError unless obj is a dict with keys in ``allowed`` and all
    of ``required`` (default ``allowed``), naming the first unknown, else missing, key."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: must be an object")
    required = allowed if required is None else required
    for problem, keys in (("unknown", obj.keys() - allowed), ("missing", required - obj.keys())):
        if keys:
            raise InvalidInputError(f"{where}: {problem} key {sorted(keys)[0]!r}")


def profile_from_dict(data) -> PotentialProfile:
    _check_keys(data, "profile", {"segments", "samples"}, required=set())
    if len(data) != 1:
        raise InvalidInputError("profile: exactly one of 'segments' or 'samples' is required")
    if "samples" in data:
        raw = data["samples"]
        _check_keys(raw, "samples", {"xi", "psi"})
        return from_samples(raw["xi"], raw["psi"])
    raw = data["segments"]
    if not isinstance(raw, list):
        raise InvalidInputError("segments: must be a list of segment objects")
    for i, item in enumerate(raw):
        _check_keys(item, f"segments[{i}]", {"a", "b", "coeffs"})
    return from_segments([(item["a"], item["b"], item["coeffs"]) for item in raw])


def load_profile(path) -> PotentialProfile:
    """Read and validate a UTF-8 profile JSON file; a read or decode error is InvalidInputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"profile file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidInputError(f"profile file {path}: invalid JSON ({exc})") from exc
    return profile_from_dict(data)


def save_profile(profile: PotentialProfile, path) -> None:
    """Write a profile JSON file; load_profile(save_profile(p)) == p bit-exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")
