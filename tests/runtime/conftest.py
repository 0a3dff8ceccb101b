"""Shared fixtures for the runtime tests."""

from __future__ import annotations

import threading

import pytest


class GatedPool:
    """A minimal :class:`~repro.runtime.pool.WorkerPool` stand-in whose
    first forward holds its caller at a gate.

    It runs ``fn`` on every batch and records each batch's input in
    ``batches``.  The first forward sets ``entered`` and then blocks until
    :meth:`release`, so a single-worker engine stays busy while a test
    queues requests behind it.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.batches: list = []
        self.entered = threading.Event()
        self._gate = threading.Event()

    def install(self) -> "GatedPool":
        return self

    def release(self) -> None:
        self._gate.set()

    def run(self, x):
        self.batches.append(x)
        if len(self.batches) == 1:
            self.entered.set()
            if not self._gate.wait(30.0):
                raise TimeoutError("gate never released")
        return self.fn(x)


@pytest.fixture(scope="session")
def gated_pool():
    """The :class:`GatedPool` class, for tests to build gated stubs."""
    return GatedPool
