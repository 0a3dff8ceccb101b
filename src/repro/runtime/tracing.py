"""Per-request tracing: span timelines in a bounded ring buffer.

Every served request leaves a :class:`RequestTrace` — the timeline of its
life inside the serving engine, split into the spans that matter for
debugging tail latency:

- ``enqueue``    — submit → a worker pulled it off the request queue;
- ``batch_form`` — pulled → its micro-batch dispatched (backlog drained,
  plus any opt-in batch-window wait);
- ``execute``    — dispatch → the pool returned the outputs;
- ``reply``      — outputs → this request's future resolved.

Traces land in a :class:`TraceBuffer`, a thread-safe ring buffer with a
hard capacity bound: a long-running server keeps the most recent N
requests and drops the oldest, so tracing memory never grows with uptime.
``ServingEngine.traces()`` snapshots it, and the ``/statusz`` endpoint
renders :meth:`TraceBuffer.table` — the "what has the server been doing
lately" view.

Timestamps are ``time.perf_counter()`` values (monotonic, same clock the
engine's latency stats use), so span durations are exact but absolute
times are process-relative.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

__all__ = ["SPAN_NAMES", "Span", "RequestTrace", "TraceBuffer"]

SPAN_NAMES = ("enqueue", "batch_form", "execute", "reply")


@dataclass(frozen=True)
class Span:
    """One named interval inside a request's lifetime."""

    name: str
    start: float  # perf_counter timestamp
    duration: float  # seconds

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class RequestTrace:
    """The span timeline of one served (or failed) request."""

    request_id: int
    batch_size: int
    samples: int
    spans: tuple[Span, ...]
    error: str | None = None
    attempts: int = 1  # dispatch attempts; > 1 means crash-recovery retries

    @property
    def latency(self) -> float:
        return sum(s.duration for s in self.spans)

    @property
    def ok(self) -> bool:
        return self.error is None

    def span(self, name: str) -> Span | None:
        for s in self.spans:
            if s.name == name:
                return s
        return None

    @classmethod
    def from_timestamps(
        cls,
        request_id: int,
        submitted_at: float,
        collected_at: float,
        dispatched_at: float,
        done_at: float,
        resolved_at: float,
        batch_size: int,
        samples: int,
        error: str | None = None,
        attempts: int = 1,
    ) -> "RequestTrace":
        """Build the standard span set from the engine's five timestamps.

        Timestamps are clamped monotonic (each stage starts no earlier
        than the previous one ended), so a request that skipped a stage —
        e.g. served synchronously during shutdown, where collection is
        immediate — yields zero-length spans, never negative ones.
        """
        collected = max(submitted_at, collected_at)
        dispatched = max(collected, dispatched_at)
        done = max(dispatched, done_at)
        resolved = max(done, resolved_at)
        spans = (
            Span("enqueue", submitted_at, collected - submitted_at),
            Span("batch_form", collected, dispatched - collected),
            Span("execute", dispatched, done - dispatched),
            Span("reply", done, resolved - done),
        )
        return cls(
            request_id=request_id,
            batch_size=batch_size,
            samples=samples,
            spans=spans,
            error=error,
            attempts=attempts,
        )


class TraceBuffer:
    """Thread-safe ring buffer of the most recent request traces.

    ``capacity`` is a hard bound: recording trace ``capacity + 1`` drops
    the oldest.  ``recorded`` counts everything ever recorded, so
    ``dropped`` exposes how much history the bound has discarded — a
    server-side signal that the buffer is undersized for the scrape
    interval.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"trace buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._buf: deque[RequestTrace] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    def record(self, trace: RequestTrace) -> None:
        with self._lock:
            self._buf.append(trace)
            self._recorded += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._buf)

    @property
    def recorded(self) -> int:
        """Traces ever recorded (including ones the ring has dropped)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._recorded - len(self._buf)

    def snapshot(self) -> list[RequestTrace]:
        """Oldest-to-newest copy of the retained traces."""
        with self._lock:
            return list(self._buf)

    def clear(self) -> None:
        with self._lock:
            self._buf.clear()

    # ------------------------------------------------------------------ #
    def table(self, limit: int = 25) -> str:
        """Recent-request table (newest first) — the ``/statusz`` body."""
        traces = self.snapshot()[-limit:][::-1]
        header = (
            f"{'request':>8s} {'batch':>5s} {'samples':>7s} "
            f"{'enqueue_ms':>10s} {'form_ms':>8s} {'execute_ms':>10s} "
            f"{'reply_ms':>8s} {'total_ms':>9s}  status"
        )
        lines = [
            f"recent requests: showing {len(traces)} of {len(self)} retained "
            f"({self.recorded} recorded, {self.dropped} dropped by the "
            f"{self.capacity}-entry ring)",
            header,
            "-" * len(header),
        ]
        for t in traces:
            ms = {s.name: s.duration * 1e3 for s in t.spans}
            status = "ok" if t.ok else t.error
            if t.attempts > 1:  # crash-recovery retries are worth seeing
                status = f"{status} (x{t.attempts})"
            lines.append(
                f"{t.request_id:>8d} {t.batch_size:>5d} {t.samples:>7d} "
                f"{ms.get('enqueue', 0.0):>10.2f} {ms.get('batch_form', 0.0):>8.2f} "
                f"{ms.get('execute', 0.0):>10.2f} {ms.get('reply', 0.0):>8.2f} "
                f"{t.latency * 1e3:>9.2f}  {status}"
            )
        return "\n".join(lines) + "\n"
