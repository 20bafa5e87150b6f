"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads sweep-haar-even,oracle --seeds 1-10 [--trace 0]

For every workload and metric prints the median and the spread, the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json.  With
``--json PATH`` the raw results are saved too.  Exits 1 if any run fails or
reports a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--json", type=Path)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - start
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                ok = False
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            result["wall_s"] = wall
            ok &= result["correct"]
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: {wall:.1f}s correct={result['correct']}", flush=True)
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs, max wall "
              f"{max(r['wall_s'] for r in results):.1f}s)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, 0, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f" bound {bound}" + (
                "  <-- above bound/3" if spread > bound / 3 else "")
            print(f"  {name:36s} median {med:14.6g}  spread {spread:7.4f}{flag}")
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
