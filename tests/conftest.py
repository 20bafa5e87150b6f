"""Fixtures shared by the test modules."""

from __future__ import annotations

import concurrent.futures
import os

import pytest


@pytest.fixture
def set_workers(monkeypatch):
    """``set_workers(n, cpus=n)``: run on ``n`` workers, as ``BELLBOUND_THREADS=n``
    in a process whose affinity mask holds ``cpus`` CPUs.

    The pool is capped at the usable CPUs, so with the host's own mask a test
    that asks for 2 or 3 workers would run serially on a one-CPU host.
    """

    def set_workers(n: int, cpus: int | None = None) -> None:
        monkeypatch.setenv("BELLBOUND_THREADS", str(n))
        mask = set(range(n if cpus is None else cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)

    return set_workers


@pytest.fixture
def pool_spy(monkeypatch):
    """A real ``ProcessPoolExecutor`` that records the ``max_workers`` of every
    pool ``harness._iter_chunks`` makes in its class attribute ``sizes``."""

    class PoolSpy(concurrent.futures.ProcessPoolExecutor):
        sizes = []

        def __init__(self, max_workers):
            type(self).sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PoolSpy)
    return PoolSpy
