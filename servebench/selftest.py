"""Self-tests of the benchmark's own machinery (no model is served).

Run from the repository root with either::

    python3 -m pytest -q servebench/selftest.py
    python3 servebench/selftest.py
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import Future
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from measure import MIN_BEYOND, open_loop, percentile, poisson_schedule, tail  # noqa: E402
from spans import SpanRecorder, covered, self_time  # noqa: E402


class StallingEngine:
    """Answers at once, except that its first ``submit`` blocks for ``stall`` s."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.calls = 0

    def submit(self, x):
        self.calls += 1
        if self.calls == 1:
            time.sleep(self.stall)
        future: Future = Future()
        future.set_result(x)
        return future


def test_poisson_schedule_reproduces_per_seed_and_differs_across_seeds():
    a = poisson_schedule(50, 200, seed=7)
    np.testing.assert_array_equal(a, poisson_schedule(50, 200, seed=7))
    assert not np.array_equal(a, poisson_schedule(50, 200, seed=8))
    assert not np.array_equal(a, poisson_schedule(100, 200, seed=7))
    assert np.all(np.diff(a) > 0)
    # mean inter-arrival gap is 1/rate, within sampling noise
    assert abs(a[-1] / len(a) - 1 / 50) < 0.2 / 50


def test_latency_is_timed_from_the_due_time_so_a_stall_is_charged():
    engine = StallingEngine(stall=0.2)
    inputs = [np.zeros(1)]
    phase = open_loop(engine.submit, inputs, offsets=[0.01, 0.02, 0.03], drain_timeout=5)
    first, second, third = phase.outcomes
    # The first request is charged the stall inside its own submit; the
    # next two were due during it and are charged their wait to be sent.
    assert first.latency >= 0.19
    assert second.latency >= 0.17
    assert third.latency >= 0.16
    assert second.done - second.sent < 0.05  # the engine itself answered at once
    assert phase.failed == 0


def test_generator_lateness_is_reported():
    phase = open_loop(StallingEngine(stall=0.15).submit, [np.zeros(1)], [0.01, 0.02], 5)
    assert phase.outcomes[1].late >= 0.13
    assert phase.max_late >= 0.13
    on_time = open_loop(StallingEngine(stall=0.0).submit, [np.zeros(1)], [0.01, 0.02], 5)
    assert on_time.max_late < 0.05

    import bench  # needs the program on the path: src/ next to this directory

    row = bench.phase_summary(50, phase, bench.PhaseStats(), False, 1)
    assert row["gen_late_ms_max"] >= 130


def test_percentile_reports_highest_supported_with_sample_count():
    samples = list(range(1, 1001))
    assert tail(samples) == (99.0, 990.0, 1000)
    q, _, n = tail(samples[:999])
    assert (q, n) == (98.0, 999)  # p99 of 999 leaves only 9 beyond
    assert tail(list(range(100)))[0] == 90.0
    q, value, n = tail([3.0, 1.0, 2.0])
    assert q is None and value == 3.0 and n == 3
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    # whatever it picks, at least MIN_BEYOND samples lie above it
    for n in (20, 57, 333, 5000):
        q, value, _ = tail(list(range(n)))
        assert sum(1 for s in range(n) if s > value) >= MIN_BEYOND


def test_span_self_time_subtracts_covered_child_interval():
    parent = (1, "forward", 0.0, 10.0, None, 1)
    children = [
        (2, "gemm/a", 1.0, 3.0, 1, 1),
        (3, "gemm/b", 2.0, 4.0, 1, 1),  # overlaps the first: covered once
        (4, "im2col", 8.0, 12.0, 1, 1),  # runs past the parent: clipped
    ]
    assert covered([(1.0, 3.0), (2.0, 4.0), (8.0, 12.0)], 0.0, 10.0) == 5.0
    assert self_time(parent, children) == 5.0
    assert self_time(parent, []) == 10.0


def test_wrapped_calls_nest_on_one_thread():
    rec = SpanRecorder()
    inner = rec.wrap("inner", lambda: None)
    outer = rec.wrap("outer", lambda: inner())
    outer()
    (i_span,) = rec.named("inner")
    (o_span,) = rec.named("outer")
    assert i_span[4] == o_span[0] and o_span[4] is None
    assert o_span[2] <= i_span[2] <= i_span[3] <= o_span[3]


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main(["-q", __file__]))
