"""Span tracing for the traced benchmark run, and the arithmetic on spans
and samples.

Spans are recorded from outside the program: the traced run replaces a
layer's public functions, at the module or class attributes their callers
look them up on, with wrappers that time each call. Nothing is wrapped in
an untraced run.

A span is the tuple ``(id, name, start, end, parent, request, info)``:
``parent`` is the id of the enclosing span on the same thread (or None),
``request`` is the id of the benchmark request the span served (or None
when unknown, as for relay threads under concurrent TCP load), and
``info`` is an optional note taken from the call's arguments or result,
such as the byte counts of a chunk cipher call.
"""

from __future__ import annotations

import contextlib
import gzip
import itertools
import json
import random
import sys
import threading
import time
from collections import defaultdict

ID, NAME, START, END, PARENT, REQUEST, INFO = range(7)


class Tracer:
    """Collects spans in memory; ``install`` wraps, ``restore`` unwraps."""

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self.requests: dict[int, dict] = {}
        # Requests opened while this is set claim spans from every thread.
        self.global_request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def install(self, owner, attr: str, name: str, note=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper that records ``name``.

        ``note(args, result)``, when given, returns the span's info field.
        """
        original = vars(owner)[attr]
        spans, ids, local = self.spans, self._ids, self._local
        tracer = self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else None
            request = getattr(local, "request", None)
            if request is None:
                request = tracer.global_request
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                info = note(args, result) if note is not None and result is not None else None
                spans.append((sid, name, start, end, parent, request, info))

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- requests ------------------------------------------------------------

    @contextlib.contextmanager
    def request(self, kind: str, **info):
        """Open one benchmark request (a build or an echo) as a root span.

        With ``everywhere=True`` the request also claims spans that start on
        other threads while it is open.
        """
        everywhere = info.pop("everywhere", False)
        rid = next(self._ids)
        self.requests[rid] = dict(info, kind=kind)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        previous = getattr(self._local, "request", None)
        self._local.request = rid
        if everywhere:
            self.global_request = rid
        stack.append(rid)
        start = time.perf_counter()
        try:
            yield rid
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.request = previous
            if everywhere:
                self.global_request = None
            self.spans.append((rid, "bench." + kind, start, end, None, rid, None))

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class NullTracer:
    """The untraced run's stand-in: requests cost one context-manager call."""

    enabled = False

    def request(self, kind: str, **info):
        return contextlib.nullcontext()

    def restore(self) -> None:
        pass


class CountingRandom(random.Random):
    """A ``random.Random`` that counts the draws the program makes itself.

    ``getrandbits`` calls coming from inside the ``random`` module (the
    rejection sampling behind ``randrange``) are not counted, so during a
    safe-prime search the count is the number of candidates drawn, not the
    Miller-Rabin bases. The stream of numbers is that of ``random.Random``.
    """

    def __init__(self, seed):
        self.draws = 0
        super().__init__(seed)

    def getrandbits(self, k: int) -> int:
        if sys._getframe(1).f_globals.get("__name__") != "random":
            self.draws += 1
        return super().getrandbits(k)


# -- arithmetic on spans -----------------------------------------------------

def covered_length(start: float, end: float, intervals) -> float:
    """Length of the part of [start, end] covered by the union of intervals."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - covered_length(s[START], s[END], children[s[ID]])
            for s in spans}


def layer_time(spans, layer: str) -> float:
    """Time spent in ``layer``, counting nested spans of the same layer once.

    A span counts when no ancestor span belongs to the same layer.
    """
    by_id = {s[ID]: s for s in spans}
    prefix = layer + "."
    total = 0.0
    for s in spans:
        if not s[NAME].startswith(prefix):
            continue
        parent = by_id.get(s[PARENT])
        nested = False
        while parent is not None:
            if parent[NAME].startswith(prefix):
                nested = True
                break
            parent = by_id.get(parent[PARENT])
        if not nested:
            total += s[END] - s[START]
    return total


def percentile(values, q: int) -> float:
    """Nearest-rank percentile of a non-empty sample, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def by_request(spans) -> dict[int, list[tuple]]:
    groups = defaultdict(list)
    for s in spans:
        if s[REQUEST] is not None:
            groups[s[REQUEST]].append(s)
    return groups
