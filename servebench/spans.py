"""In-memory spans recorded around calls into the runtime's public entry points.

A span is ``(id, name, start, end, parent, request)``.  Spans nest through
a per-thread stack when one wrapped call runs inside another on the same
thread (``executor.forward`` -> ``im2col`` / ``gemm/<layer>``); spans the
engine records on its own threads (``engine.traces()``) are linked to the
client's request span afterwards, by interval containment.  Nothing is
written until the run ends (:meth:`SpanRecorder.dump`).

A span's *self time* is its duration minus the part of its interval that
its children cover (:func:`self_time`).
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["FIELDS", "SpanRecorder", "covered", "self_time", "traced_layers"]

FIELDS = ("id", "name", "start", "end", "parent", "request")


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: tuple, children: Sequence[tuple]) -> float:
    """``span``'s duration minus the interval its ``children`` cover."""
    start, end = span[2], span[3]
    return (end - start) - covered(((c[2], c[3]) for c in children), start, end)


class SpanRecorder:
    """Thread-safe append-only span store with call wrappers."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float, parent=None, request=None) -> int:
        """Append a span; a root span without a request id starts its own request."""
        sid = next(self._ids)
        if parent is None and request is None:
            request = sid
        self.spans.append((sid, name, start, end, parent, request))
        return sid

    def wrap(self, name: str | Callable, fn: Callable) -> Callable:
        """``fn`` recording one span per call; ``name`` may be ``f(args)``."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                label = name(*args) if callable(name) else name
                self.spans.append((sid, label, t0, t1, parent, None))

        return traced

    def named(self, prefix: str) -> list[tuple]:
        return [s for s in self.spans if s[1] == prefix or s[1].startswith(prefix + "/")]

    def children(self) -> dict[int, list[tuple]]:
        out: dict[int, list[tuple]] = {}
        for s in self.spans:
            if s[4] is not None:
                out.setdefault(s[4], []).append(s)
        return out

    def link_requests(self, requests: Sequence[tuple], engine_traces, wrapped: str) -> None:
        """Attach engine trace spans and ``wrapped`` call spans to requests.

        ``requests`` holds ``(request_span_id, submit_called, submit_returned)``
        from one submitting thread, so the intervals are disjoint and each
        engine trace (whose first span starts inside ``submit``) matches at
        most one.  Each ``wrapped`` span (a forward or dispatch run on an
        engine thread) is parented to the ``execute`` span covering it, and
        its descendants take its request id.
        """
        calls = sorted(requests, key=lambda r: r[1])
        starts = [r[1] for r in calls]
        executes: list[tuple] = []
        for trace in engine_traces:
            submitted = trace.spans[0].start
            i = bisect.bisect_right(starts, submitted) - 1
            if i < 0 or submitted > calls[i][2]:
                continue
            rid = calls[i][0]
            for span in trace.spans:
                sid = self.add(f"serve.{span.name}", span.start, span.end, rid, rid)
                if span.name == "execute":
                    executes.append((span.start, span.end, sid, rid))
        executes.sort()
        ex_starts = [e[0] for e in executes]
        for k, s in enumerate(self.spans):
            if s[1] != wrapped or s[4] is not None:
                continue
            i = bisect.bisect_right(ex_starts, s[2]) - 1
            if i >= 0 and executes[i][1] >= s[3]:
                self.spans[k] = (s[0], s[1], s[2], s[3], executes[i][2], executes[i][3])
        request_of = {s[0]: s[5] for s in self.spans if s[5] is not None}
        for k, s in enumerate(self.spans):
            if s[5] is None and s[4] in request_of:
                self.spans[k] = s[:5] + (request_of[s[4]],)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": FIELDS, "spans": self.spans}))


@contextlib.contextmanager
def traced_layers(recorder: SpanRecorder):
    """Time every ``im2col`` call of ``Conv2d.forward`` and every ``LayerPlan.gemm``.

    Both are patched at the names the forward looks up at call time
    (``repro.nn.layers.im2col`` and the ``LayerPlan.gemm`` attribute), in
    this process only, and restored on exit.
    """
    from repro.nn import layers as nn_layers
    from repro.runtime.plan import LayerPlan

    im2col, gemm = nn_layers.im2col, LayerPlan.gemm
    nn_layers.im2col = recorder.wrap("im2col", im2col)
    LayerPlan.gemm = recorder.wrap(lambda lp, *_: f"gemm/{lp.name}", gemm)
    try:
        yield recorder
    finally:
        nn_layers.im2col, LayerPlan.gemm = im2col, gemm
