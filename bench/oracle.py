"""The oracle workload: `verify_oracle` on one fresh state per call.

Shapes are those of acceptance criterion 2 (m = 2..6, n in {m, m+1}) plus
the guard-limit shape m = n = 8 (D = 64).  A cycle runs every shape once, in
an order fixed by the workload seed; a run is made of whole cycles, so every
run has the same mix of shapes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import measure
from measure import Tally, derived_seed, threads_env
from tracing import Tracer

SHAPES = tuple((m, n) for m in range(2, 7) for n in (m, m + 1)) + ((8, 8),)
GRID = 64
MIN_CALLS = 100  # so that 10 calls lie beyond p90
TRACED_CYCLES = 10


@dataclass(frozen=True)
class OraclePlan:
    seed: int
    order: tuple[tuple[int, int], ...]

    def call(self, i: int) -> tuple[int, int, int]:
        """(m, n, seed) of call i."""
        m, n = self.order[i % len(self.order)]
        return m, n, derived_seed("oracle", self.seed, i)


def make_inputs(bb, workload: str, seed: int) -> OraclePlan:
    order = list(SHAPES)
    random.Random(f"oracle/{seed}").shuffle(order)
    return OraclePlan(seed, tuple(order))


class Call:
    """One timed `verify_oracle` call on a single state."""

    probes = (-1, -1)  # host-speed probes just before and after a measured call

    def __init__(self, bb, plan: OraclePlan, i: int):
        self.m, self.n, self.seed = plan.call(i)
        config = bb.ExperimentConfig(dims=(self.m,), samples=1, seed=self.seed,
                                     second_dim_offset=self.n - self.m)
        cpu0 = measure.cpu_seconds()
        start = time.perf_counter()
        self.summary = bb.harness.verify_oracle(config, grid_points=GRID)
        self.wall = time.perf_counter() - start
        cpu1 = measure.cpu_seconds()
        self.parent_cpu, self.worker_cpu = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]

    def problems(self, bb) -> list[str]:
        s = self.summary
        where = f"m={self.m} n={self.n} seed={self.seed}"
        if [(d.m, d.n, d.samples) for d in s.per_dim] != [(self.m, self.n, 1)]:
            return [f"{where}: summary describes {s.per_dim}"]
        if not s.max_gap <= bb.tolerances.ORACLE_TOL:
            return [f"{where}: gap {s.max_gap!r} exceeds ORACLE_TOL"]
        return []


def _run_calls(bb, plan, ks, tally, gaps, host):
    """Run the given call numbers; a call that raises is counted as failed.

    Each call runs between two probes of `host`.  The gap of call k must equal
    `gaps[k]` when another phase recorded it.
    """
    out = []
    for k in ks:
        before = host.probe()
        try:
            call = Call(bb, plan, k)
        except Exception as exc:
            tally.error(f"call {k}", exc)
            continue
        call.probes = (before, host.probe())
        problems = call.problems(bb)
        gap = call.summary.max_gap
        if gaps.setdefault(k, gap) != gap:
            problems.append(f"call {k}: gap {gap!r} differs from {gaps[k]!r} in another phase")
        tally.record(problems)
        out.append((k, call))
    return out


def _timing(ser, par, seconds) -> dict[str, float]:
    """States checked per second of `verify_oracle` time, and serial call latency.

    `seconds(call)` is its wall time, raw or at the reference host speed.
    """
    return measure.timing_metrics([(1, seconds(c)) for _, c in ser],
                                  [(1, seconds(c)) for _, c in par],
                                  [seconds(c) for _, c in ser])


def run(bb, plan: OraclePlan, seconds: int, trace: bool, scratch, probes) -> dict:
    """One run of the oracle workload: metrics, operation tally and counts."""
    tally = Tally()
    host = probes.in_process
    gaps: dict[int, float] = {}
    cycle = len(plan.order)

    def step(threads):
        def one(j):
            with threads_env(threads):
                return _run_calls(bb, plan, range(j * cycle, (j + 1) * cycle), tally, gaps,
                                  host)
        return one

    steps = {"serial": step(1), "parallel": step(measure.nproc())}
    if not trace:
        done = measure.interleave(steps, seconds, {"serial": -(-MIN_CALLS // cycle),
                                                   "parallel": 1})
        ser = [kc for block in done["serial"] for kc in block]
        par = [kc for block in done["parallel"] for kc in block]
        return {
            "tally": tally,
            "metrics": _timing(ser, par, lambda c: host.reference(c.wall, *c.probes)),
            "raw": _timing(ser, par, lambda c: c.wall),
            "calls": {kind: [[c.wall, host.reference(c.wall, *c.probes)] for _, c in calls]
                      for kind, calls in (("serial", ser), ("parallel", par))},
            "counts": {"serial_calls": len(ser), "parallel_calls": len(par),
                       "grid_points": GRID},
        }

    tracer = Tracer(bb)

    def untraced(k):
        with threads_env(1):
            return next((call for _, call in _run_calls(bb, plan, [k], tally, gaps, host)),
                        None)

    def traced(k, before):
        with threads_env(1), tracer.installed():
            call = Call(bb, plan, k)
        same = call.summary.max_gap == before.summary.max_gap
        return call.problems(bb) + ([] if same else [f"call {k}: traced gap differs"]), call

    pairs = measure.traced_pairs(untraced, traced, TRACED_CYCLES * cycle, tally)
    done = measure.interleave({"parallel": steps["parallel"]}, seconds / 2, {"parallel": 1})
    par = [c for block in done["parallel"] for _, c in block]
    return {
        "tally": tally,
        "tracer": tracer,
        "metrics": {
            "harness.bytes_per_sample": 0.0,
            "harness.parent_cpu_us": sum(c.parent_cpu for c in par) / len(par) * 1e6,
            "harness.worker_cpu_us": sum(c.worker_cpu for c in par) / len(par) * 1e6,
            "trace.overhead_pct": measure.overhead_pct(pairs),
        },
        "counts": {"traced_calls": len(pairs), "parallel_calls": len(par),
                   "grid_points": GRID},
    }
