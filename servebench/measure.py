"""Load generation and order statistics for the serving benchmark.

Two clients drive a ``submit(x) -> Future`` callable (in practice
``ServingEngine.submit``):

- :func:`closed_loop` — one client that sends its next request only after
  the previous one returned;
- :func:`open_loop` — one generator thread that sends on a seeded Poisson
  schedule whatever the system does, so its queue can grow.  Latency is
  timed from each request's *due* time, so a stall is charged to every
  request it delays, and the generator's own lateness is reported.

Timings are ``time.perf_counter()`` values, the clock the engine uses.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MIN_BEYOND",
    "Outcome",
    "PhaseResult",
    "closed_loop",
    "open_loop",
    "percentile",
    "poisson_schedule",
    "supported",
    "tail",
]

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100); NaN for no samples."""
    if not len(samples):
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supported(q: float, n: int) -> bool:
    """Whether ``n`` samples leave at least :data:`MIN_BEYOND` beyond percentile ``q``."""
    return n - max(1, math.ceil(q / 100.0 * n)) >= MIN_BEYOND if n else False


def tail(samples: Sequence[float]) -> tuple[float | None, float, int]:
    """``(q, value, n)``: the highest ladder percentile the sample supports.

    ``q`` is ``None`` (and ``value`` the maximum) when even the median has
    fewer than :data:`MIN_BEYOND` samples beyond it.
    """
    n = len(samples)
    for q in TAIL_LADDER:
        if supported(q, n):
            return q, percentile(samples, q), n
    return None, (float(max(samples)) if n else float("nan")), n


def poisson_schedule(rate: float, count: int, seed: int) -> np.ndarray:
    """Due offsets (seconds from phase start) of ``count`` Poisson arrivals.

    The stream is keyed on ``(seed, rate)``: the same seed reproduces the
    schedule exactly, and each ladder rate draws an independent stream.
    """
    if rate <= 0 or count <= 0:
        raise ValueError(f"rate and count must be positive, got {rate}, {count}")
    rng = np.random.default_rng([seed, int(round(rate * 1000))])
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


@dataclass
class Outcome:
    """One request as the client saw it."""

    index: int
    due: float  # when it should have been sent
    sent: float  # when submit() was called
    submitted: float = math.nan  # when submit() returned
    done: float = math.nan  # when the result (or error) was available
    output: np.ndarray | None = None
    error: str | None = None  # the request failed or was refused
    wrong: bool = False  # it returned, but failed the output check

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


@dataclass
class PhaseResult:
    """Everything a load phase measured."""

    outcomes: list[Outcome]
    started: float
    ended: float  # last completion (or the drain deadline)
    backlog_mid: int = 0  # outstanding requests when half had been sent
    backlog_end: int = 0  # outstanding requests when the last was sent

    @property
    def completed(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.error is None]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.error is not None or o.wrong)

    @property
    def latencies(self) -> list[float]:
        return [o.latency for o in self.completed]

    @property
    def max_late(self) -> float:
        return max((o.late for o in self.outcomes), default=0.0)


def closed_loop(
    submit: Callable, inputs: Sequence[np.ndarray], seconds: float, timeout: float = 60.0
) -> PhaseResult:
    """One client: submit, wait for the result, repeat until ``seconds`` pass."""
    outcomes: list[Outcome] = []
    started = time.perf_counter()
    stop = started + seconds
    i = 0
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        out = Outcome(i, t0, t0)
        try:
            future = submit(inputs[i % len(inputs)])
            out.submitted = time.perf_counter()
            out.output = future.result(timeout=timeout)
        # A failed request is counted, never fatal to the run.
        except Exception as exc:  # noqa: BLE001
            out.error = f"{type(exc).__name__}: {exc}"
        out.done = time.perf_counter()
        outcomes.append(out)
        i += 1
    return PhaseResult(outcomes, started, time.perf_counter())


def open_loop(
    submit: Callable,
    inputs: Sequence[np.ndarray],
    offsets: Sequence[float],
    drain_timeout: float = 60.0,
) -> PhaseResult:
    """Send ``inputs[i % len]`` at ``start + offsets[i]`` from this thread.

    The generator never waits for replies: each result is stamped by a
    done-callback on its future.  A request that is still unresolved
    ``drain_timeout`` seconds after the last send counts as failed.
    """
    n = len(offsets)
    outcomes = [Outcome(i, math.nan, math.nan) for i in range(n)]
    lock = threading.Lock()
    resolved = threading.Event()
    state = {"done": 0}

    def stamp(out: Outcome, future) -> None:
        t = time.perf_counter()
        exc = future.exception()
        with lock:
            out.done = t
            if exc is not None:
                out.error = f"{type(exc).__name__}: {exc}"
            else:
                out.output = future.result()
            state["done"] += 1
            if state["done"] == n:
                resolved.set()

    def outstanding(sent: int) -> int:
        with lock:
            return sent - state["done"]

    backlog_mid = 0
    started = time.perf_counter()
    for i, offset in enumerate(offsets):
        out = outcomes[i]
        out.due = started + float(offset)
        delay = out.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        out.sent = time.perf_counter()
        try:
            future = submit(inputs[i % len(inputs)])
        # A refused request is counted as failed, and the schedule goes on.
        except Exception as exc:  # noqa: BLE001
            with lock:
                out.done = out.submitted = time.perf_counter()
                out.error = f"{type(exc).__name__}: {exc}"
                state["done"] += 1
                if state["done"] == n:
                    resolved.set()
        else:
            out.submitted = time.perf_counter()
            future.add_done_callback(lambda f, out=out: stamp(out, f))
        if i == n // 2:
            backlog_mid = outstanding(i + 1)
    backlog_end = outstanding(n)
    resolved.wait(drain_timeout)
    with lock:
        for out in outcomes:
            if math.isnan(out.done):
                out.error = f"unresolved {drain_timeout:.0f}s after the last send"
                out.done = time.perf_counter()
        ended = max(o.done for o in outcomes)
    return PhaseResult(outcomes, started, ended, backlog_mid, backlog_end)
