"""Timing, resource and environment helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
THREAD_VARS = (
    "BELLBOUND_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


BLAS_VARS = THREAD_VARS[1:]


def pin_blas_threads() -> None:
    """Give BLAS and OpenMP one thread here and in every process started later.

    At the program's matrix sizes (D <= 64) a multi-threaded BLAS spends about
    twice the CPU of one thread for a slower call, and its spinning threads
    make timings on a shared host swing with the neighbours' load.  With one
    BLAS thread the program's only parallelism is its own worker pool.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def _probe_kernel() -> None:
    """A fixed mix of small numpy calls, Python loops and JSON encoding.

    It is the same kind of work as the program's calls (small SVDs and
    eigensolves, float lists, dicts, encoding), and uses nothing of the
    program.
    """
    import json

    import numpy as np

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((8, 8))
    for i in range(40):
        v = rng.random(8)
        v /= v.sum()
        s = np.linalg.svd(a + i, compute_uv=False)
        w = np.linalg.eigvalsh(a @ a.T)
        json.dumps({"i": i, "v": v.tolist(), "s": float(s[0]), "w": float(w[-1])})


def _fresh_interpreter() -> None:
    """A fresh interpreter that imports numpy and exits: a CLI call without the program."""
    subprocess.run([sys.executable, "-c", "import argparse, json, numpy"], cwd=ROOT,
                   env=child_env(), capture_output=True, check=True)


class HostSpeed:
    """Times of a fixed probe, run before and after each timed call.

    The shared host's speed swings by up to 1.8x, in stretches of one second
    to minutes, as the load of its other tenants changes, and CPU time slows
    with wall time, so no choice of run length or percentile keeps raw
    timings of two runs comparable.  A call slows in about the same
    proportion as a probe of the same kind of work run right beside it: over
    500 serial sweep calls the quartile spread of call times was 0.43 raw,
    0.08 scaled by the mean of the probes just before and just after each
    call, and 0.24 scaled by the median probe within 5 s.  So a call is also
    reported at the reference speed: its wall time times `reference_s` over
    the mean of the probes around it.  `reference_s` is a fixed constant, the
    probe's time at the reference speed; it scales every run alike.
    """

    def __init__(self, kernel, reference_s: float):
        self.kernel, self.reference_s = kernel, reference_s
        self.walls: list[float] = []

    def probe(self) -> int:
        """Time the probe once; returns its index, for `reference`."""
        if not self.walls:
            self.kernel()  # the first call loads code and libraries; not timed
        start = time.perf_counter()
        self.kernel()
        self.walls.append(time.perf_counter() - start)
        return len(self.walls) - 1

    def reference(self, wall: float, before: int, after: int) -> float:
        """`wall`, measured between probes `before` and `after`, at the reference speed."""
        return wall * self.reference_s * 2 / (self.walls[before] + self.walls[after])

    def median_ms(self) -> float | None:
        return statistics.median(self.walls) * 1e3 if self.walls else None


class Probes:
    """The host-speed probes of one run."""

    def __init__(self):
        # about 3 ms, before and after each timed call in this process
        self.in_process = HostSpeed(_probe_kernel, 3.0e-3)
        # a fresh interpreter, between set-ups and after every fourth CLI call
        self.fresh_process = HostSpeed(_fresh_interpreter, 0.25)


def timing_metrics(serial, parallel, latency) -> dict[str, float]:
    """The four timed end-to-end metrics.

    `serial` and `parallel` are (work done, seconds) pairs, one per call, at 1
    and at nproc workers; `latency` holds the seconds of the calls whose p50
    and p90 are reported.
    """
    return {
        "samples_per_s": sum(n for n, _ in serial) / sum(s for _, s in serial),
        "samples_per_s_parallel": sum(n for n, _ in parallel) / sum(s for _, s in parallel),
        "call_ms_p50": statistics.median(latency) * 1e3,
        "call_ms_p90": nearest_rank(latency, 0.9) * 1e3,
    }


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def derived_seed(*parts) -> int:
    """A 63-bit seed from the workload seed and call coordinates."""
    text = "/".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "little") >> 1


def nearest_rank(values, q: float) -> float:
    """The q-quantile by nearest rank: ceil(q n) - 1 values lie at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(threads: int | None = None) -> dict:
    """Environment for a fresh `bellbound` process run from the checkout root."""
    env = dict(os.environ, PYTHONPATH="src")
    if threads is not None:
        env["BELLBOUND_THREADS"] = str(threads)
    return env


@contextlib.contextmanager
def threads_env(threads: int):
    """Set BELLBOUND_THREADS in this process for the program's default worker path."""
    saved = os.environ.get("BELLBOUND_THREADS")
    os.environ["BELLBOUND_THREADS"] = str(threads)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop("BELLBOUND_THREADS", None)
        else:
            os.environ["BELLBOUND_THREADS"] = saved


class Tally:
    """Operations attempted and failed; a wrong output counts as a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def error(self, what: str, exc: Exception) -> None:
        self.record([f"{what}: {type(exc).__name__}: {exc}"])


def interleave(steps: dict, seconds: float, min_steps: dict, quantum: float = 2.0) -> dict:
    """Run `steps[kind](i)` for i = 0, 1, ... of each kind, in turns.

    A turn goes to the kind that has used the least wall time so far and
    lasts until that kind leads by `quantum` seconds; turns go on until
    `seconds` have passed and every kind has made its `min_steps`.  All kinds
    thus sample the same stretch of a shared host whose speed drifts, while
    few steps run right after a turn of another kind.  Returns each kind's
    step results in order.
    """
    results = {kind: [] for kind in steps}
    spent = dict.fromkeys(steps, 0.0)
    deadline = time.perf_counter() + seconds

    def unfinished():
        return time.perf_counter() < deadline or any(
            len(results[k]) < min_steps.get(k, 0) for k in steps)

    while unfinished():
        kind = min(spent, key=spent.get)
        lead = min(spent.values()) + quantum
        while spent[kind] < lead and unfinished():
            start = time.perf_counter()
            results[kind].append(steps[kind](len(results[kind])))
            spent[kind] += time.perf_counter() - start
    return results


def traced_pairs(untraced, traced, count: int, tally: Tally) -> list[tuple[float, float]]:
    """(untraced, traced) wall seconds of `count` calls, each pair run back to back.

    `untraced(i)` returns a call with a `wall` (or None if it failed);
    `traced(i, call)` repeats it with tracing on and returns (problems, call),
    the problems comparing its output with the untraced one.  Running the two
    of a pair together keeps both on the same stretch of a shared host.
    """
    pairs = []
    for i in range(count):
        before = untraced(i)
        if before is None:
            continue
        try:
            problems, after = traced(i, before)
        except Exception as exc:
            tally.error(f"traced call {i}", exc)
            continue
        tally.record(problems)
        pairs.append((before.wall, after.wall))
    return pairs


def overhead_pct(pairs) -> float:
    """Extra wall time of the traced calls, in percent of the untraced ones."""
    return (sum(t for _, t in pairs) / sum(u for u, _ in pairs) - 1.0) * 100.0


def cpu_seconds() -> tuple[float, float]:
    """(this process, waited-for children) user + system CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest waited-for child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def setup_seconds(workload: str, seed: int, host: HostSpeed) -> tuple[list[float], list[float]]:
    """Wall time of fresh benchmark processes from start to ready, raw and at
    the reference host speed.

    Each set-up starts the interpreter, imports bellbound and generates the
    workload's inputs, then prints one line and exits; the clock stops when
    that line arrives.  A probe of `host` runs before each and after the last.
    """
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    times, probes = [], [host.probe()]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        probes.append(host.probe())
    return times, [host.reference(t, *probes[i:i + 2]) for i, t in enumerate(times)]


def _fresh_python(code: str) -> tuple[float, str]:
    """Wall ms and standard output of one `python -c code` from the checkout root."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True)
    return (time.perf_counter() - start) * 1e3, done.stdout


def layer_probes() -> dict[str, float]:
    """Interpreter start and `import bellbound` time, the two parts of set-up."""
    timed_import = ("import time; t = time.perf_counter(); import bellbound; "
                    "print((time.perf_counter() - t) * 1e3)")
    return {
        "cli.interpreter_ms": statistics.median(
            _fresh_python("pass")[0] for _ in range(SETUP_PROBES)),
        "cli.import_ms": statistics.median(
            float(_fresh_python(timed_import)[1]) for _ in range(SETUP_PROBES)),
    }


def _git_revision() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def environment(np, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """What a reader needs to compare this run with another."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "mp_start_method": multiprocessing.get_context().get_start_method(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": list(os.getloadavg()),
    }
