"""Fixtures shared by the test modules."""

from __future__ import annotations

import os

import pytest


@pytest.fixture
def set_workers(monkeypatch):
    """``set_workers(n, cpus=n)``: run on ``n`` workers, as ``BELLBOUND_THREADS=n``
    in a process whose affinity mask holds ``cpus`` CPUs.

    The workers are capped at the usable CPUs, so with the host's own mask a test
    that asks for 2 or 3 workers would run serially on a one-CPU host.
    """

    def set_workers(n: int, cpus: int | None = None) -> None:
        monkeypatch.setenv("BELLBOUND_THREADS", str(n))
        mask = set(range(n if cpus is None else cpus))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)

    return set_workers


@pytest.fixture
def fork_spy(monkeypatch):
    """The list of the pids of every child that ``os.fork`` makes in this
    process while the test runs; the children are real forks."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids
