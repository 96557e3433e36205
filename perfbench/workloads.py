"""Seeded workload generators.  Nothing here imports the package under test.

A workload is an endless sequence of *passes*.  Every pass runs the same
catalogue of calls: the profiles and the roots or points they are aimed at
are fixed, and the seed sets the rest (window edges, off-resonance
couplings, k and eps, and the order of the calls).  So the same seed gives
the same inputs, and a run measures the same work whatever the seed.  An op
is plain data: a kind, the key of its profile, its arguments and the
reference its check compares against.

The catalogues hold only inputs on which the package passes every check at
the seed, as the benchmark's contract asks.  The inputs on which it fails
are kept in ``defect_probe()``; the traced run executes them once and
reports how many still fail (see README.md, "Known defects").

Reference kinds (``Op.ref["kind"]``):

* ``golden``  - seba-quadratic and its mirror, from the table6 rows;
* ``exact``   - piecewise-constant profiles, from closed-form transfer matrices;
* ``invariant`` - everything else: mirror set with theta -> 1/theta,
  q = -(theta + 1/theta), relative Wronskian defect, |R|^2 + |T|^2 = 1.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import reference as ref
from generate import generate_segments, sample_segments

ALPHA_LO, ALPHA_HI = -200.0, 200.0
#: window edges keep this distance from every other root; golden roots are
#: only known to 6 digits
EDGE_CLEARANCE = 0.5
#: a window reaches this far (uniform) on each side of its root
WINDOW_REACH = (1.0, 3.0)
#: off-resonance couplings keep this distance from every root, beyond
#: classify's search window
OFF_ROOT_CLEARANCE = 1.0


@dataclass(frozen=True)
class Op:
    kind: str
    profile: str
    args: tuple
    ref: dict
    partner: int | None = None  # index (within the pass) of the mirror op checked against


@dataclass
class Pass:
    profiles: dict = field(default_factory=dict)  # key -> spec
    ops: list = field(default_factory=list)


# --- profiles ----------------------------------------------------------------


def _segments_spec(segments):
    return ("segments", tuple(segments))


def _pool(degree, j):
    """The j-th fixed generated profile of a degree (the same for every seed)."""
    return generate_segments(random.Random(f"pool:{degree}:{j}"), degree)


SEBA = ("builtin", "seba-quadratic")
STEP = ("builtin", "step")
SEBA_MIRROR = _segments_spec(ref.mirror_segments(ref.SEBA_SEGMENTS))

#: key -> segments (for the references) of every generated profile used
POOL = {f"pc{j}": _pool(0, j) for j in range(3)}
POOL.update({f"d1-{j}": _pool(1, j) for j in range(2)})
POOL.update({f"d2-{j}": _pool(2, j) for j in range(2)})
POOL.update({f"{k}-mirror": ref.mirror_segments(s) for k, s in list(POOL.items())})

PROFILES = {"seba": SEBA, "seba-mirror": SEBA_MIRROR, "step": STEP}
PROFILES.update({k: _segments_spec(s) for k, s in POOL.items()})

#: the sampled share of scatter: seba-quadratic sampled at these node counts.
#: Fewer nodes cost far more per shoot (0.2-0.9 s at 101-301 nodes against
#: about 0.1 s at 601-1001), erratically in alpha, and would swamp the
#: workload's time.
SAMPLED_NODES = (601, 1001)
for _n in SAMPLED_NODES:
    PROFILES[f"sampled{_n}"] = ("samples", *sample_segments(ref.SEBA_SEGMENTS, _n))

GOLDEN = {"seba": ref.seba_roots(False), "seba-mirror": ref.seba_roots(True)}


@functools.cache
def _exact_roots(key):
    return ref.roots_in(POOL[key], ALPHA_LO, ALPHA_HI)


@functools.cache
def _approx_roots(key):
    return ref.approx_roots(POOL[key], ALPHA_LO, ALPHA_HI)


def _nearest(roots, alpha):
    return min(roots, key=lambda r: abs(r[0] - alpha))


# --- seeded parameters -------------------------------------------------------


def _window(rng, roots, alpha):
    """Window inside [-200, 200] around the root alpha, clear of its neighbours."""
    alphas = sorted(a for a, _ in roots)
    i = alphas.index(alpha)
    left = alphas[i - 1] + EDGE_CLEARANCE if i > 0 else ALPHA_LO
    right = alphas[i + 1] - EDGE_CLEARANCE if i + 1 < len(alphas) else ALPHA_HI
    lo = max(left, ALPHA_LO, alpha - rng.uniform(*WINDOW_REACH))
    hi = min(right, ALPHA_HI, alpha + rng.uniform(*WINDOW_REACH))
    return lo, hi


def _off_root(rng, roots, lo, hi, clearance=OFF_ROOT_CLEARANCE):
    """A coupling in [lo, hi] at least ``clearance`` away from 0 and every root."""
    while True:
        a = rng.uniform(lo, hi)
        if abs(a) >= clearance and all(abs(a - r) >= clearance for r, _ in roots):
            return a


def _point(rng):
    """(k, eps) of a scattering point."""
    k = rng.uniform(0.5, 2.0)
    eps = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
    return k, eps


def _in(roots, lo, hi):
    return [(a, t) for a, t in roots if lo <= a <= hi]


class _Builder:
    """Collects the groups of one pass and shuffles them with the seed."""

    def __init__(self, rng):
        self.rng = rng
        self.groups = []

    def add(self, *ops):
        """Ops of one group stay adjacent (a mirror pair is one group)."""
        self.groups.append(ops)

    def finish(self) -> Pass:
        self.rng.shuffle(self.groups)
        p = Pass()
        for group in self.groups:
            base = len(p.ops)
            for op in group:
                partner = None if op.partner is None else base + op.partner
                p.ops.append(Op(op.kind, op.profile, op.args, op.ref, partner))
                p.profiles[op.profile] = PROFILES[op.profile]
        return p


# --- resonances --------------------------------------------------------------

#: one-root windows on seba and its mirror, one per |alpha| band of width 50.
#: Roots with |theta| < 1e-5 are left out: the package's theta there is off
#: by more than the rows' precision (a known defect).
GOLDEN_WINDOWS = (("seba", 18.1746), ("seba", -57.149),
                  ("seba-mirror", 117.486), ("seba-mirror", -199.176))
#: one-root windows on generated profiles, each run on its mirror too.
#: Piecewise-constant: roots with 1e-3 <= |theta| <= 1e3, so that the mirror's
#: 1/theta stays clear of the tiny-theta defect.  Degree 1-2: roots with
#: |alpha| <= 30; beyond about 40 many of the package's shoots lose the
#: Wronskian to 1e-8 and worse (a known defect).
GEN_WINDOWS = (("pc0", 36.4), ("pc1", -46.4), ("d1-0", -21.3), ("d2-1", 12.5))
#: classify at 6-digit tabulated couplings
GOLDEN_CLASSIFY = (("seba", 117.486), ("seba-mirror", -18.1746))
#: coupling() evaluates theta at the 6-digit alpha, off the root; only where
#: |theta| >= 1 does that stay within the golden row's precision
GOLDEN_COUPLING = ("seba", 57.149)
#: the piecewise-constant profile for classify and coupling, and its root
TAB = ("pc2", -49.6)
#: off-resonance couplings come from these intervals (narrow, because the cost
#: of a shoot grows with |alpha|)
OFF_INTERVALS = ((-110.0, -90.0), (90.0, 110.0))


def _resonances_pass(rng) -> Pass:
    b = _Builder(rng)
    # the exact table6 call
    b.add(Op("find_resonances", "seba", (0.0, 200.0, 0.5), {"kind": "table6"}))

    for key, alpha in GOLDEN_WINDOWS:
        lo, hi = _window(rng, GOLDEN[key], alpha)
        b.add(Op("find_resonances", key, (lo, hi),
                 {"kind": "golden", "roots": _in(GOLDEN[key], lo, hi)}))

    for key, target in GEN_WINDOWS:
        mkey = f"{key}-mirror"
        if key.startswith("pc"):
            roots = _exact_roots(key)
            lo, hi = _window(rng, roots, _nearest(roots, target)[0])
            b.add(*(Op("find_resonances", k, (lo, hi),
                       {"kind": "exact", "roots": _in(_exact_roots(k), lo, hi)})
                    for k in (key, mkey)))
        else:
            # windows placed on approximate roots; checked by invariants
            roots = _approx_roots(key)
            lo, hi = _window(rng, roots, _nearest(roots, target)[0])
            b.add(Op("find_resonances", key, (lo, hi), {"kind": "invariant"}),
                  Op("find_resonances", mkey, (lo, hi), {"kind": "invariant"}, partner=0))

    for key, alpha in GOLDEN_CLASSIFY:
        theta = dict(GOLDEN[key])[alpha]
        b.add(Op("classify", key, (float(ref.g6(alpha)), 1e-3),
                 {"kind": "golden", "theta": theta}))
    key, alpha = GOLDEN_COUPLING
    b.add(Op("coupling", key, (float(ref.g6(alpha)), 1e-3),
             {"kind": "golden", "theta": dict(GOLDEN[key])[alpha]}))
    _off_resonance(b, rng, "seba", GOLDEN["seba"], "golden")

    key, target = TAB
    roots = _exact_roots(key)
    a, t = _nearest(roots, target)
    a6 = float(ref.g6(a))
    b.add(Op("classify", key, (a6, 1e-3), {"kind": "exact", "theta": t}))
    b.add(Op("coupling", key, (a6, 1e-3),
             {"kind": "exact", "theta": ref.theta(POOL[key], a6)}))
    _off_resonance(b, rng, key, roots, "exact")
    _studies(b, rng)
    return b.finish()


def _off_resonance(b, rng, key, roots, kind):
    for op, interval in zip(("classify", "coupling"), OFF_INTERVALS):
        alpha = _off_root(rng, roots, *interval)
        args = (alpha,) if op == "classify" else (alpha, 1e-3)
        b.add(Op(op, key, args, {"kind": kind, "theta": None}))


# --- scatter -----------------------------------------------------------------

#: (profile, root near) at a resonant coupling, (profile, interval) off resonance.
#: Exact points on piecewise-constant profiles stay at |alpha| <= 70: further
#: out |T| gets small and the package's T loses up to 1e-3 relative against
#: the closed form (a known defect).
SCATTER_ROOTS = (("seba", 18.1746), ("seba", -18.1746), ("step", 15.418), ("pc0", 11.8),
                 ("pc2", -15.1))
#: The intervals are narrow, because the cost of a shoot grows with |alpha|.
SCATTER_OFF = (("seba", (-160.0, -140.0)), ("seba", (140.0, 160.0)),
               ("step", (-50.0, -30.0)), ("pc1", (-10.0, 10.0)), ("pc2", (25.0, 45.0)),
               ("d1-0", (-160.0, -140.0)), ("d1-1", (-60.0, -40.0)),
               ("d2-0", (40.0, 60.0)), ("d2-1", (140.0, 160.0)),
               ("sampled601", (-55.0, -45.0)), ("sampled1001", (45.0, 55.0)))


@functools.cache
def _scatter_roots(key):
    if key == "seba":
        return GOLDEN[key]
    if key == "step":
        return ref.roots_in(ref.STEP_SEGMENTS, ALPHA_LO, ALPHA_HI)
    if key.startswith("pc"):
        return _exact_roots(key)
    if key.startswith("d"):
        return _approx_roots(key)
    return GOLDEN["seba"]  # sampled seba


def _scatter_ref(key, theta):
    if key == "step":
        return {"kind": "exact", "theta": theta, "segments": ref.STEP_SEGMENTS}
    if key.startswith("pc"):
        return {"kind": "exact", "theta": theta, "segments": POOL[key]}
    return {"kind": "invariant", "theta": theta}


def _scatter_pass(rng) -> Pass:
    b = _Builder(rng)
    for key, target in SCATTER_ROOTS:
        a, t = _nearest(_scatter_roots(key), target)
        if key == "seba":
            a = float(ref.g6(a))  # the tabulated coupling
        b.add(Op("scatter", key, (a, *_point(rng)), _scatter_ref(key, t)))
    for key, interval in SCATTER_OFF:
        a = _off_root(rng, _scatter_roots(key), *interval)
        b.add(Op("scatter", key, (a, *_point(rng)), _scatter_ref(key, None)))
    return b.finish()


# --- resolvent studies (part of resonances) ----------------------------------

#: study on the default eps ladder: at a table6 coupling (6 digits), and off
#: resonance (the Dirichlet-pair limit)
STUDY_ROOT = ("seba", 18.1746)
STUDY_OFF = ("pc1", (90.0, 110.0))


def _studies(b, rng):
    key, alpha = STUDY_ROOT
    b.add(Op("study", key, (float(ref.g6(alpha)),),
             {"kind": "golden", "theta": dict(GOLDEN[key])[alpha]}))
    key, interval = STUDY_OFF
    b.add(Op("study", key, (_off_root(rng, _exact_roots(key), *interval),),
             {"kind": "exact", "theta": None}))


#: workload name -> builder of one pass
WORKLOADS = {
    "resonances": _resonances_pass,
    "scatter": _scatter_pass,
}


def passes(workload: str, seed: int):
    """Endless, deterministic sequence of passes for (workload, seed)."""
    make = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield make(rng)


# --- known defects -----------------------------------------------------------


def defect_probe() -> Pass:
    """Inputs on which the package fails its checks at the seed, one of each kind.

    The timed workloads leave these out; the traced run executes them once.
    """
    step_roots = ref.roots_in(ref.STEP_SEGMENTS, ALPHA_LO, ALPHA_HI)
    pc1 = _exact_roots("pc1")
    a, t = _nearest(pc1, -158.2)  # theta ~ 3.5e-6
    d2 = _approx_roots("d2-0")
    d_lo, d_hi = _window(random.Random(0), d2, _nearest(d2, 143.8)[0])
    ops = [
        # refinement stalls at alpha ~ -178.27
        Op("find_resonances", "step", (ALPHA_LO, ALPHA_HI), {"kind": "exact", "roots": step_roots}),
        # tiny theta: theta off by 1.3e-4 relative
        Op("classify", "seba-mirror", (199.176, 1e-3),
           {"kind": "golden", "theta": dict(GOLDEN["seba-mirror"])[199.176]}),
        Op("find_resonances", "pc1", (a - 2.0, a + 2.0),
           {"kind": "exact", "roots": _in(pc1, a - 2.0, a + 2.0)}),
        Op("study", "seba", (-199.176,), {"kind": "golden", "theta": 1.0 / 755823.0}),
        # degree-2 root at large alpha: relative Wronskian defect ~ 2e-3
        Op("find_resonances", "d2-0", (d_lo, d_hi), {"kind": "invariant"}),
        # |T| ~ 1e-8: finite_coeffs T off against the closed form
        Op("scatter", "step", (*_nearest(step_roots, 178.27)[:1], 1.012, 0.099),
           {"kind": "exact", "theta": _nearest(step_roots, 178.27)[1],
            "segments": ref.STEP_SEGMENTS}),
    ]
    return Pass({op.profile: PROFILES[op.profile] for op in ops}, ops)
