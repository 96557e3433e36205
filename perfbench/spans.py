"""Spans and counters recorded around the package's layer functions.

The tracer wraps *module attributes the package's callers look up at call
time* (``deltaprime.resonance.shoot_batch``, ``deltaprime.shooting.solve_ivp``,
``deltaprime.convergence.solve_banded``, ...), so the package itself is not
edited.  A name that no longer exists is recorded as absent and its metrics
read 0; nothing crashes when a later version of the package drops it.

Spans and counters are guarded by one lock because the resonance scan runs
on the package's thread pool.  Each thread keeps its own span stack, so a
span's parent is the enclosing span on the same thread.  A span's self time
is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.enabled = False
        self.counters = defaultdict(float)
        self.spans = []  # (id, parent id, name, start, end)
        self.absent = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._patches = []

    # --- recording -----------------------------------------------------------

    def count(self, name, n=1):
        with self._lock:
            self.counters[name] += n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name) -> bool:
        """True when a span of this name is open on the calling thread."""
        return any(n == name for _, n in self._stack())

    @contextmanager
    def span(self, name):
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            sid = self._next_id
        parent = stack[-1][0] if stack else None
        stack.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, start, end))

    # --- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr, name, before=None, after=None, on_error=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``owner`` is a dotted module path, optionally followed by a class name
        (``deltaprime.profiles.PotentialProfile``).  ``before(args)``,
        ``after(args, result)`` and ``on_error(exc)`` run inside the span, only
        while the tracer is enabled.
        """
        target = _resolve(owner)
        original = getattr(target, attr, None) if target is not None else None
        if original is None:
            self.absent.append(f"{owner}.{attr}")
            return

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            with self.span(name):
                if before is not None:
                    before(args)
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(exc)
                    raise
                if after is not None:
                    after(args, result)
                return result

        wrapper.__wrapped__ = original
        self._patches.append((target, attr, original))
        setattr(target, attr, wrapper)

    def restore(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    # --- summaries -----------------------------------------------------------

    def span_stats(self, name):
        """(calls, total seconds, self seconds) of the spans with this name."""
        children = defaultdict(list)
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        calls = 0
        total = 0.0
        own = 0.0
        for sid, _, n, start, end in self.spans:
            if n != name:
                continue
            calls += 1
            total += end - start
            own += (end - start) - _covered(children.get(sid, ()), start, end)
        return calls, total, own


def _covered(intervals, start, end):
    """Length of the union of intervals, clipped to [start, end]."""
    covered = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return covered


def _resolve(owner):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None
