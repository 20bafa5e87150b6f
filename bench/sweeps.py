"""The two sweep workloads: seeded `run_sweep` calls, file write included.

Every call draws fresh states: its seed is derived from the workload seed and
the call number.  Serial calls are short so that their latency percentiles
rest on many calls; parallel calls are long so that the worker pool's
start-up does not dominate them.  Records depend only on (seed, m, index), so
the first SERIAL_SAMPLES records of each m block of a parallel call with
the same seed must equal the serial call's bytes.
"""

from __future__ import annotations

import contextlib
import json
import random
import time
from dataclasses import dataclass

import measure
from measure import Tally, derived_seed, sha256, threads_env
from tracing import Tracer

SHAPES = {
    # even m and the Haar measure: SVD draws, theorem gate live on every record
    "sweep-haar-even": {"dims": (2, 4, 6, 8), "measure": "haar", "parallel_samples": 800},
    # odd m, simplex measure: no SVD, gamma != 0, null flags, longer records.
    # Not a timed workload, to keep all runs within the benchmark's time
    # limit; every sweep run checks its golden hash, so the odd-m branch is
    # still gated.
    "sweep-simplex-odd": {"dims": (3, 9, 33), "measure": "simplex", "parallel_samples": 1000},
}
SERIAL_SAMPLES = 100   # per m per serial call
MIN_SERIAL_CALLS = 100  # so that 10 serial calls lie beyond p90
MIN_PARALLEL_CALLS = 5
SPOT_CHECKS = 2         # records recomputed from the scalar API per call
TRACED_CALLS = 20       # serial calls run untraced, then traced (~17 spans per record)
_dumps = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class SweepPlan:
    workload: str
    seed: int
    dims: tuple[int, ...]
    measure: str
    parallel_samples: int
    golden: dict

    def call_seed(self, i: int) -> int:
        return derived_seed(self.workload, self.seed, i)


def make_inputs(bb, workload: str, seed: int) -> SweepPlan:
    golden = json.loads((measure.ROOT / "bench" / "golden.json").read_text())[workload]
    return SweepPlan(workload, seed, golden=golden, **SHAPES[workload])


class Call:
    """One timed `run_sweep` call: wall seconds, CPU seconds, output bytes, summary."""

    probes = (-1, -1)  # host-speed probes just before and after a measured call

    def __init__(self, bb, plan: SweepPlan, seed: int, samples: int, path):
        config = bb.ExperimentConfig(dims=plan.dims, samples=samples, seed=seed,
                                     measure=plan.measure, output_path=str(path))
        cpu0 = measure.cpu_seconds()
        start = time.perf_counter()
        self.summary = bb.harness.run_sweep(config)
        self.wall = time.perf_counter() - start
        cpu1 = measure.cpu_seconds()
        self.parent_cpu, self.worker_cpu = cpu1[0] - cpu0[0], cpu1[1] - cpu0[1]
        self.data = path.read_bytes()


def expected_line(bb, plan: SweepPlan, seed: int, m: int, index: int) -> bytes:
    """One record rebuilt from the public scalar API, encoded as the sweep does."""
    rng = bb.substream(seed, m, index)
    s = bb.sample_haar(m, m, rng) if plan.measure == "haar" else bb.sample_simplex(m, rng)
    c = bb.concurrence(s)
    b = bb.bell_value_formula(s)
    up, lo = bb.upper_bound(c), bb.lower_bound(c)
    even = m % 2 == 0
    tol = bb.tolerances.THEOREM_TOL
    record = {
        "m": m, "n": m, "index": index, "coeffs": s.coeffs.tolist(),
        "effective_rank": bb.effective_rank(s), "concurrence": c, "k": bb.k_value(s),
        "gamma": bb.gamma_value(s), "bell_value": b, "upper": up, "lower": lo,
        "theorem1_ok": (up - b >= -tol) if even else None,
        "theorem2_ok": (b - lo >= -tol) if even else None,
        "certified_nonlocal": bb.is_nonlocal_certified(s),
        "oracle_value": None, "oracle_gap": None,
    }
    return (_dumps(record) + "\n").encode()


def check_output(bb, plan, seed, samples, data, summary, rng, spot=SPOT_CHECKS) -> list[str]:
    """Problems with one call's output; empty when it is correct."""
    where = f"seed={seed}"
    lines = data.splitlines(keepends=True)
    expected = samples * len(plan.dims)
    problems = []
    if len(lines) != expected or summary.records_written != expected:
        problems.append(f"{where}: {len(lines)} lines, {summary.records_written} reported,"
                        f" {expected} expected")
    if summary.violations or b'"theorem1_ok":false' in data or b'"theorem2_ok":false' in data:
        problems.append(f"{where}: theorem violation reported")
    for _ in range(spot if lines else 0):
        j = rng.randrange(min(len(lines), expected))
        m, index = plan.dims[j // samples], j % samples
        if lines[j] != expected_line(bb, plan, seed, m, index):
            problems.append(f"{where}: record m={m} index={index} differs from the scalar API")
    return problems


def restrict(data: bytes, n_dims: int, samples: int, keep: int) -> bytes:
    """The first `keep` records of each m block of a `samples`-per-m output."""
    lines = data.splitlines(keepends=True)
    return b"".join(b"".join(lines[j * samples: j * samples + keep]) for j in range(n_dims))


def _golden(bb, plan, path, threads: int, tally: Tally, tracer: Tracer | None = None) -> bytes:
    """The pinned configuration, whose output sha256 must never change."""
    g = plan.golden
    with threads_env(threads), (tracer.installed() if tracer else contextlib.nullcontext()):
        data = Call(bb, plan, g["seed"], g["samples"], path).data
    tally.record([] if sha256(data) == g["sha256"] else [
        f"golden output sha256 {sha256(data)} != pinned {g['sha256']} (threads={threads})"])
    return data


def _timing(ser, par, seconds) -> dict[str, float]:
    """Records written per second of `run_sweep` time, and serial call latency.

    `seconds(call)` is its wall time, raw or at the reference host speed.
    """
    return measure.timing_metrics([(c.summary.records_written, seconds(c)) for c in ser],
                                  [(c.summary.records_written, seconds(c)) for c in par],
                                  [seconds(c) for c in ser])


def run(bb, plan: SweepPlan, seconds: int, trace: bool, scratch, probes) -> dict:
    """One run of a sweep workload: metrics, operation tally and counts."""
    path = scratch / "sweep.jsonl"
    rng = random.Random(f"spot/{plan.workload}/{plan.seed}")
    tally = Tally()
    host = probes.in_process
    n_dims = len(plan.dims)
    serial_shas: dict[int, str] = {}

    def step(threads, samples, check):
        def one(i):
            seed = plan.call_seed(i)
            before = host.probe()
            try:
                with threads_env(threads):
                    call = Call(bb, plan, seed, samples, path)
            except Exception as exc:  # counted as failed, never dropped
                tally.error(f"seed={seed}", exc)
                return None
            call.probes = (before, host.probe())
            tally.record(check(i, call))
            call.data = None  # checked; memory must not grow with the call count
            return call
        return one

    def check_serial(i, call):
        serial_shas[i] = sha256(call.data)
        return check_output(bb, plan, plan.call_seed(i), SERIAL_SAMPLES, call.data,
                            call.summary, rng)

    def check_parallel(i, call):
        problems = check_output(bb, plan, plan.call_seed(i), plan.parallel_samples, call.data,
                                call.summary, rng)
        if i in serial_shas:
            head = restrict(call.data, n_dims, plan.parallel_samples, SERIAL_SAMPLES)
            if sha256(head) != serial_shas[i]:
                problems.append(f"seed={plan.call_seed(i)}: parallel records differ from serial")
        return problems

    steps = {"serial": step(1, SERIAL_SAMPLES, check_serial),
             "parallel": step(measure.nproc(), plan.parallel_samples, check_parallel)}
    if not trace:
        for shape in [plan] + [make_inputs(bb, w, plan.seed) for w in SHAPES if w != plan.workload]:
            _golden(bb, shape, path, 1, tally)
            _golden(bb, shape, path, measure.nproc(), tally)
        done = measure.interleave(steps, seconds, {"serial": MIN_SERIAL_CALLS,
                                                   "parallel": MIN_PARALLEL_CALLS})
        ser = [c for c in done["serial"] if c]
        par = [c for c in done["parallel"] if c]
        return {
            "tally": tally,
            "metrics": _timing(ser, par, lambda c: host.reference(c.wall, *c.probes)),
            "raw": _timing(ser, par, lambda c: c.wall),
            "calls": {kind: [[c.wall, host.reference(c.wall, *c.probes)] for c in calls]
                      for kind, calls in (("serial", ser), ("parallel", par))},
            "counts": {"serial_calls": len(ser), "parallel_calls": len(par),
                       "serial_records_per_call": SERIAL_SAMPLES * n_dims,
                       "parallel_records_per_call": plan.parallel_samples * n_dims},
        }

    golden_data = _golden(bb, plan, path, 1, tally, tracer=Tracer(bb))
    tracer = Tracer(bb)

    def traced(i, before):
        with threads_env(1), tracer.installed():
            call = Call(bb, plan, plan.call_seed(i), SERIAL_SAMPLES, path)
        return ([] if sha256(call.data) == serial_shas[i] else
                [f"seed={plan.call_seed(i)}: traced output differs from untraced"]), call

    pairs = measure.traced_pairs(steps["serial"], traced, TRACED_CALLS, tally)
    done = measure.interleave({"parallel": steps["parallel"]}, seconds / 2,
                              {"parallel": MIN_PARALLEL_CALLS})
    par = [c for c in done["parallel"] if c]
    records = sum(c.summary.records_written for c in par)
    return {
        "tally": tally,
        "tracer": tracer,
        "metrics": {
            "harness.bytes_per_sample": len(golden_data) / (plan.golden["samples"] * n_dims),
            "harness.parent_cpu_us": sum(c.parent_cpu for c in par) / records * 1e6,
            "harness.worker_cpu_us": sum(c.worker_cpu for c in par) / records * 1e6,
            "trace.overhead_pct": measure.overhead_pct(pairs),
        },
        "counts": {"traced_calls": len(pairs), "parallel_calls": len(par),
                   "traced_records": SERIAL_SAMPLES * n_dims * len(pairs)},
    }
