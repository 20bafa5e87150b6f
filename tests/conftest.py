"""Fixtures shared by the test modules."""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellbound


def blas_kernel() -> str:
    """The name of the OpenBLAS kernel that numpy runs (``OPENBLAS_CORETYPE`` picks it),
    read through ``ctypes`` from ``scipy_openblas_get_corename64_`` in numpy.libs'
    OpenBLAS; where no library there has that symbol, a sentence saying so."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown: numpy.libs holds no OpenBLAS with scipy_openblas_get_corename64_"


def package_env():
    """Environment for a fresh interpreter that imports this bellbound."""
    src = str(Path(bellbound.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def fresh():
    """``fresh(*args, **env)``: the finished ``sys.executable *args`` in a fresh interpreter
    that imports this bellbound, with ``env`` added to its environment, its stdout and
    stderr captured as text, and killed after 120 s."""

    def fresh(*args: str, **env: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env={**package_env(), **env}, timeout=120)

    return fresh


def signalled_at_fork(signum: signal.Signals) -> str:
    """Source that a fresh interpreter runs before a sweep: two CPUs and the least forked
    work lowered to one sample, so that the sweep forks one worker, and an ``os.fork`` that
    raises ``signum`` in the child before it returns there, ahead of any line of the runner.
    SIGINT raises ``KeyboardInterrupt`` and SIGTERM takes the default, which ``run()`` then
    replaces, whatever the test run's parent ignores.  Only a fresh interpreter may run it:
    a child that escaped the runner here would go on running the test suite."""
    return ("import os, signal\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "signal.signal(signal.SIGTERM, signal.SIG_DFL)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import bellbound.harness; bellbound.harness.MIN_SWEEP_WORK = 1\n"
            "fork = os.fork\n"
            "def fork_then_signal():\n"
            "    pid = fork()\n"
            "    if not pid:\n"
            f"        signal.raise_signal(signal.{signum.name})\n"
            "    return pid\n"
            "os.fork = fork_then_signal\n")


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
def any_work_forks(monkeypatch):
    """Lowers the least work a forked sweep worker must get (``harness.MIN_SWEEP_WORK``)
    to one sample: a small sweep then forks as many workers as its tasks and CPUs allow,
    so that a test of the runner on a small input still runs it in parallel."""
    from bellbound import harness

    monkeypatch.setattr(harness, "MIN_SWEEP_WORK", 1)


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


@pytest.fixture
def scalar_block():
    """``scalar_block(measure, m, seed, draws, prefix)``: the ``(draws, m)`` block of the
    states that ``draws`` calls of ``sample_haar(m, m, rng)`` or ``sample_simplex(m, rng)``
    return on ``rng = default_rng(seed)``, drawn at once by the draw kernel.

    The one generator is passed for every row, so the block draws what the scalar calls
    draw, in their order.  Its rows pass ``validate_rows``, as each scalar state passes
    ``SchmidtVector``'s check, and its first ``prefix`` rows equal, bit for bit, the
    states of ``prefix`` scalar calls on a fresh generator with that seed.
    """
    import numpy as np

    from bellbound import sample_haar, sample_simplex
    from bellbound.schmidt_state import _draw_rows, validate_rows

    def scalar_block(measure: str, m: int, seed: int, draws: int, prefix: int):
        rng = np.random.default_rng(seed)
        rows = _draw_rows([rng] * draws, draws, measure, m, m)
        validate_rows(rows)
        rng = np.random.default_rng(seed)
        calls = [sample_haar(m, m, rng) if measure == "haar" else sample_simplex(m, rng)
                 for _ in range(prefix)]
        assert np.array([s.coeffs for s in calls]).tobytes() == rows[:prefix].tobytes()
        return rows

    return scalar_block
