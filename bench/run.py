"""Benchmark of the bellbound toolkit.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the package in the checkout's
``src/`` (nothing needs installing).  With ``--trace 0`` it measures the
end-to-end metrics named in ``BENCHMARK.json`` with tracing off; with
``--trace 1`` it makes a serial traced run and reports the per-layer metrics.
Every output is checked; a wrong output counts as a failed operation.

Earlier lines of standard output are a readable report (environment, every
metric with its unit, failed_fraction, the first problems found).  The last
line is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  A record of the run, and the spans of a traced run, are
written under ``.bench_out/``.

Workloads (why each exists is in ``bench/README.md``): sweep-haar-even,
oracle, cli-mix.

BLAS and OpenMP pools are pinned to one thread in this process and every
process it starts, so the program's only parallelism is its own worker pool
(``BELLBOUND_THREADS``); see ``measure.pin_blas_threads``.

Timed end-to-end metrics are reported at a reference host speed: timed calls
follow a short fixed probe of the same kind of work, and each call's wall
time is scaled by the probe's time around it (``measure.HostSpeed``).  The
raw wall-clock figures are printed beside them and kept in the run record.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "sweep-haar-even": "sweeps",
    "oracle": "oracle",
    "cli-mix": "climix",
}


def load_package():
    """Import bellbound from this checkout's src/, and nowhere else."""
    measure.pin_blas_threads()  # before numpy is first imported
    init = ROOT / "src" / "bellbound" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} is missing; run the benchmark inside a bellbound checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import bellbound
    import bellbound.cli  # not imported by the package itself

    if Path(bellbound.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported bellbound from {bellbound.__file__}, not {init}")
    return bellbound


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None,
                   help="how long to measure (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def metric_specs(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json, for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = metric_specs(args.trace)
    bb = load_package()
    import numpy as np
    from tracing import layer_metrics

    workload = importlib.import_module(WORKLOADS[args.workload])
    plan = workload.make_inputs(bb, args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    env = measure.environment(np, args.workload, args.seed, args.seconds, args.trace)
    probes = measure.Probes()
    setup_raw, setup = ([], []) if args.trace else measure.setup_seconds(
        args.workload, args.seed, probes.fresh_process)
    scratch = measure.OUT / "scratch"
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    try:
        result = workload.run(bb, plan, args.seconds, bool(args.trace), scratch, probes)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.perf_counter() - started

    metrics = dict(result["metrics"])
    raw = dict(result.get("raw", {}))  # the timed metrics as measured, not scaled
    tracer = result.get("tracer")
    if args.trace:
        metrics.update(layer_metrics(tracer))
        metrics.update(measure.layer_probes())
        for name in specs:
            metrics.setdefault(name, 0.0)  # a layer this workload never calls
    else:
        metrics["setup_s"] = statistics.median(setup)
        raw["setup_s"] = statistics.median(setup_raw)
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
    missing = sorted(set(specs) - set(metrics))
    if missing:
        raise SystemExit(f"error: workload produced no value for {missing}")

    tally = result["tally"]
    env["loadavg_after"] = list(os.getloadavg())
    env["measure_s"] = elapsed
    env["host_probe_ms"] = {name: {"median": host.median_ms(), "reference": host.reference_s * 1e3}
                            for name, host in vars(probes).items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "metrics": {name: {"value": metrics[name], "unit": specs[name]} for name in specs},
        "raw_metrics": raw,
        "failed_fraction": tally.failed / max(tally.attempted, 1),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "counts": result.get("counts", {}),
        "calls_raw_and_scaled_s": result.get("calls", {}),
        "setup_s_probes": setup,
        "setup_s_probes_raw": setup_raw,
        "problems": tally.problems[:50],
    }
    if tracer is not None:
        tracer.write(measure.OUT / f"spans-{args.workload}.jsonl")  # latest traced run only
        record["spans"] = tracer.summary()
    (measure.OUT / f"run-{tag}.json").write_text(json.dumps(record, indent=1))

    print(f"# environment {json.dumps(env)}")
    print(f"# counts {json.dumps(record['counts'])}")
    for name, unit in specs.items():
        print(f"# {name} = {metrics[name]!r} {unit}"
              + (f" (raw wall clock: {raw[name]!r})" if name in raw else ""))
    print(f"# failed_fraction = {record['failed_fraction']!r} ratio"
          f" ({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"# problem: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
