"""The cli-mix workload: fresh `bellbound` processes, one per subcommand call.

A cycle is eight commands, one for each subcommand and both measures of
`sample`, with arguments drawn from the workload seed and the cycle number.
Each command runs twice in a row, once with BELLBOUND_THREADS=1 and once
with BELLBOUND_THREADS=nproc, so both halves see the same mix.  Calls are a
closed loop with one client: the next call starts when the previous ends.
Flags are passed as `--flag=value`, because a value starting with `-` (a
negative matrix entry) is otherwise read as a missing argument.

After the timed calls every printed value is parsed again and compared with
the same quantity computed in this process through the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

import measure
from measure import Tally, derived_seed, sha256, threads_env
from tracing import Tracer

SUBCOMMANDS = ("concurrence", "bell", "bounds", "jn", "sample", "sweep", "verify")
JN_SIZE = 18          # classical_bound enumerates 2^17 sign vectors
SWEEP_DIMS = "2,4"
SWEEP_SAMPLES = 200
VERIFY_SHAPE = (3, 4)
VERIFY_SAMPLES = 2
VERIFY_GRID = 64
MIN_CALLS = 100       # so that 10 calls lie beyond p90
TRACE_CYCLES = 2
ENTRY = "from bellbound.cli import run; run()"


@dataclass(frozen=True)
class Command:
    label: str        # subcommand, with the measure for `sample`
    argv: tuple[str, ...]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class ClimixPlan:
    seed: int
    scratch: str

    def cycle(self, k: int) -> list[Command]:
        """The eight commands of cycle k, in an order drawn from the seed."""
        rng = random.Random(f"cli-mix/{self.seed}/{k}")

        def coeffs():
            return ",".join(repr(rng.uniform(0.01, 1.0)) for _ in range(rng.randint(2, 8)))

        matrix = ";".join(",".join(str(rng.randint(-3, 3)) for _ in range(JN_SIZE))
                          for _ in range(JN_SIZE))
        seed = derived_seed("cli-mix", self.seed, k)
        m, n = VERIFY_SHAPE
        out = [
            Command("concurrence", ("concurrence", f"--coeffs={coeffs()}")),
            Command("bell", ("bell", f"--coeffs={coeffs()}")),
            Command("bounds", ("bounds", f"--coeffs={coeffs()}")),
            Command("jn", ("jn", f"--matrix={matrix}")),
            Command("sample-haar", ("sample", "--m=4", "--n=5", f"--seed={seed}",
                                    "--measure=haar")),
            Command("sample-simplex", ("sample", "--m=5", f"--seed={seed}",
                                       "--measure=simplex")),
            Command("sweep", ("sweep", f"--dims={SWEEP_DIMS}", f"--samples={SWEEP_SAMPLES}",
                              f"--seed={seed}", "--measure=haar",
                              f"--out={self.scratch}/cli-sweep-{k}.jsonl")),
            Command("verify", ("verify", f"--m={m}", f"--n={n}", f"--samples={VERIFY_SAMPLES}",
                               f"--grid={VERIFY_GRID}", f"--seed={seed}")),
        ]
        rng.shuffle(out)
        return out


def make_inputs(bb, workload: str, seed: int) -> ClimixPlan:
    scratch = measure.OUT / "scratch"
    return ClimixPlan(seed, str(scratch.relative_to(measure.ROOT)))


@dataclass
class Result:
    command: Command
    threads: int
    wall: float
    parent_cpu: float
    worker_cpu: float
    code: int
    stdout: str
    output_sha: str | None  # of the file a `sweep` writes
    probes: tuple[int, int] = (-1, -1)  # host-speed probes before and after a fresh call


def _output_sha(command: Command) -> str | None:
    if command.subcommand != "sweep":
        return None
    out = next(a for a in command.argv if a.startswith("--out="))[len("--out="):]
    return sha256((measure.ROOT / out).read_bytes())


def fresh_call(command: Command, threads: int) -> Result:
    """One timed invocation in a new interpreter, from the checkout root."""
    cpu0 = measure.cpu_seconds()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", ENTRY, *command.argv], cwd=measure.ROOT,
                          env=measure.child_env(threads), capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - start
    cpu1 = measure.cpu_seconds()
    sha = _output_sha(command) if done.returncode == 0 else None
    return Result(command, threads, wall, cpu1[0] - cpu0[0], cpu1[1] - cpu0[1],
                  done.returncode, done.stdout, sha)


def in_process_call(bb, command: Command) -> Result:
    """The same invocation through `cli.main` in this process, serially."""
    buf = io.StringIO()
    with threads_env(1), contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = bb.cli.main(list(command.argv))
        wall = time.perf_counter() - start
    sha = _output_sha(command) if code == 0 else None
    return Result(command, 1, wall, 0.0, 0.0, code, buf.getvalue(), sha)


def _pairs(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _flag(command: Command, name: str) -> str:
    prefix = f"--{name}="
    return next(a for a in command.argv if a.startswith(prefix))[len(prefix):]


class Expected:
    """In-process library results for each command, computed once per command."""

    def __init__(self, bb, plan: ClimixPlan):
        self.bb, self.plan = bb, plan
        self._cache: dict[tuple[str, ...], object] = {}

    def problems(self, r: Result) -> list[str]:
        where = f"{r.command.label} (threads={r.threads})"
        if r.code != 0:
            return [f"{where}: exit code {r.code}"]
        try:
            found = self._compare(r)
        except (ValueError, KeyError, StopIteration, json.JSONDecodeError) as exc:
            return [f"{where}: output does not parse: {type(exc).__name__}: {exc}"]
        return [f"{where}: {p}" for p in found]

    def _compare(self, r: Result) -> list[str]:
        bb, c = self.bb, r.command
        sub = c.subcommand
        if sub in ("concurrence", "bell", "bounds"):
            s = bb.new_schmidt([float(t) for t in _flag(c, "coeffs").split(",")])
        if sub == "concurrence":
            p = _pairs(r.stdout)
            want = {"coeffs": s.coeffs.tolist(), "concurrence": bb.concurrence(s)}
            got = {"coeffs": json.loads(p["coeffs"]), "concurrence": float(p["concurrence"])}
        elif sub == "bell":
            p = _pairs(r.stdout)
            want = {"coeffs": s.coeffs.tolist(), "k": bb.k_value(s), "gamma": bb.gamma_value(s),
                    "theta_star": bb.theta_star(s), "bell_value": bb.bell_value_formula(s)}
            got = {key: json.loads(p[key]) if key == "coeffs" else float(p[key]) for key in want}
        elif sub == "bounds":
            want = vars(bb.bound_report(s))
            got = json.loads(r.stdout)
        elif sub == "jn":
            rows = [[float(t) for t in row.split(",")] for row in _flag(c, "matrix").split(";")]
            want = self._memo(c, lambda: bb.classical_bound(
                bb.BellCoefficientMatrix(np.array(rows))))
            got = float(r.stdout)
        elif sub == "sample":
            rng = np.random.default_rng(int(_flag(c, "seed")))
            m = int(_flag(c, "m"))
            if _flag(c, "measure") == "haar":
                want = bb.sample_haar(m, int(_flag(c, "n")), rng).coeffs.tolist()
            else:
                want = bb.sample_simplex(m, rng).coeffs.tolist()
            got = json.loads(r.stdout)
        elif sub == "sweep":
            want = self._memo(c, lambda: self._sweep(c))
            p = _pairs(r.stdout)
            got = {"records_written": int(p["records_written"]),
                   "violations": int(p["violations"]), "sha256": r.output_sha,
                   "per_dim": [dict((k, None if v == "None" else float(v))
                                    for k, v in (t.split("=") for t in line.split()))
                               for line in r.stdout.splitlines() if line.startswith("m=")]}
        else:  # verify
            want = self._memo(c, lambda: self._verify(c))
            got = float(_pairs(r.stdout)["max_gap"])
            if not got <= bb.tolerances.ORACLE_TOL:
                return [f"gap {got!r} exceeds ORACLE_TOL"]
        return [] if got == want else [f"printed {got!r}, library gives {want!r}"]

    def _memo(self, command: Command, compute):
        if command.argv not in self._cache:
            self._cache[command.argv] = compute()
        return self._cache[command.argv]

    def _sweep(self, c: Command):
        bb = self.bb
        path = measure.ROOT / self.plan.scratch / "expected-sweep.jsonl"
        config = bb.ExperimentConfig(
            dims=tuple(int(t) for t in _flag(c, "dims").split(",")),
            samples=int(_flag(c, "samples")), seed=int(_flag(c, "seed")),
            measure=_flag(c, "measure"), output_path=str(path))
        with threads_env(1):
            summary = bb.run_sweep(config)
        return {"records_written": summary.records_written, "violations": 0,
                "sha256": sha256(path.read_bytes()),
                "per_dim": [asdict(d) for d in summary.per_dim]}

    def _verify(self, c: Command):
        bb = self.bb
        m, n = int(_flag(c, "m")), int(_flag(c, "n"))
        config = bb.ExperimentConfig(dims=(m,), samples=int(_flag(c, "samples")),
                                     seed=int(_flag(c, "seed")), second_dim_offset=n - m)
        return bb.verify_oracle(config, grid_points=int(_flag(c, "grid"))).max_gap


def _fresh_cycles(plan, seconds, min_calls, host):
    """Whole cycles of fresh calls until both `seconds` and `min_calls` are reached.

    Probes of `host` run at the start and after every second command, that is
    every fourth call; a call is scaled by the two probes around its group.
    """
    results = []
    deadline = time.perf_counter() + seconds
    k = 0
    before = host.probe()
    while len(results) < min_calls or time.perf_counter() < deadline:
        for j, command in enumerate(plan.cycle(k)):
            settings = (1, measure.nproc())
            for threads in settings if k % 2 == 0 else settings[::-1]:
                results.append(fresh_call(command, threads))
            if j % 2 == 1:
                after = host.probe()
                for r in results[-4:]:
                    r.probes = (before, after)
                before = after
        k += 1
    return results


def _timing(results, seconds) -> dict[str, float]:
    """Calls per second at 1 and at nproc workers, and the latency of all calls.

    `seconds(result)` is its wall time, raw or at the reference host speed.
    """
    return measure.timing_metrics([(1, seconds(r)) for r in results if r.threads == 1],
                                  [(1, seconds(r)) for r in results
                                   if r.threads == measure.nproc()],
                                  [seconds(r) for r in results])


def run(bb, plan: ClimixPlan, seconds: int, trace: bool, scratch, probes) -> dict:
    """One run of the cli-mix workload: metrics, operation tally and counts."""
    tally = Tally()
    host = probes.fresh_process
    expected = Expected(bb, plan)
    if not trace:
        results = _fresh_cycles(plan, seconds, MIN_CALLS, host)
        for r in results:
            tally.record(expected.problems(r))
        return {
            "tally": tally,
            "metrics": _timing(results, lambda r: host.reference(r.wall, *r.probes)),
            "raw": _timing(results, lambda r: r.wall),
            "calls": {f"threads={t}": [[r.wall, host.reference(r.wall, *r.probes)]
                                       for r in results if r.threads == t]
                      for t in sorted({r.threads for r in results})},
            "counts": {"calls": len(results)},
        }

    fresh = _fresh_cycles(plan, 0, TRACE_CYCLES * 2 * len(plan.cycle(0)), host)
    for r in fresh:
        tally.record(expected.problems(r))
    reference = {r.command.argv: (r.stdout, r.output_sha) for r in fresh if r.threads == 1}
    commands = [c for k in range(TRACE_CYCLES) for c in plan.cycle(k)]
    tracer = Tracer(bb)

    def traced(i, before):
        with tracer.installed():
            after = in_process_call(bb, commands[i])
        want = reference[commands[i].argv]
        same = (before.stdout, before.output_sha) == want == (after.stdout, after.output_sha)
        return ([] if same else [f"{commands[i].label}: in-process or traced output differs"
                                 " from the fresh process"]), after

    pairs = measure.traced_pairs(lambda i: in_process_call(bb, commands[i]), traced,
                                 len(commands), tally)
    nproc_calls = [r for r in fresh if r.threads == measure.nproc()]
    metrics = {
        f"cli.{sub}_ms": statistics.median(
            r.wall for r in fresh if r.command.subcommand == sub) * 1e3
        for sub in SUBCOMMANDS
    }
    sweep_bytes = [(measure.ROOT / _flag(c, "out")).stat().st_size
                   for c in commands if c.subcommand == "sweep"]
    per_sweep = len(SWEEP_DIMS.split(",")) * SWEEP_SAMPLES
    metrics.update({
        "harness.bytes_per_sample": sum(sweep_bytes) / (per_sweep * len(sweep_bytes)),
        "harness.parent_cpu_us": sum(r.parent_cpu for r in nproc_calls) / len(nproc_calls) * 1e6,
        "harness.worker_cpu_us": sum(r.worker_cpu for r in nproc_calls) / len(nproc_calls) * 1e6,
        "trace.overhead_pct": measure.overhead_pct(pairs),
    })
    return {
        "tally": tally,
        "tracer": tracer,
        "metrics": metrics,
        "counts": {"fresh_calls": len(fresh), "traced_calls": len(pairs)},
    }
