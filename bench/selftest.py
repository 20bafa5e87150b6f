"""Tests of the benchmark itself: metrics, correctness gates and tracing.

    python3 bench/selftest.py            (or: python3 -m pytest bench/selftest.py)

Runs every workload at a tiny size, shows that each correctness gate fires
on a deliberately corrupted output, and that tracing changes no output byte.
Takes about a minute; it is not part of the package's test suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (bench/ must be on sys.path first)

bb = run.load_package()

import climix  # noqa: E402
import measure  # noqa: E402
import oracle  # noqa: E402
import sweeps  # noqa: E402
from tracing import Tracer, layer_metrics, traced_attributes  # noqa: E402

TINY = [
    mock.patch.object(measure, "SETUP_PROBES", 1),
    mock.patch.object(sweeps, "MIN_SERIAL_CALLS", 2),
    mock.patch.object(sweeps, "MIN_PARALLEL_CALLS", 1),
    mock.patch.object(oracle, "MIN_CALLS", 1),
    mock.patch.object(climix, "MIN_CALLS", 1),
    mock.patch.object(climix, "TRACE_CYCLES", 1),
]


def run_benchmark(*argv) -> tuple[dict, str]:
    """run.main at tiny size; the parsed last line and the whole report."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        for patch in TINY:
            stack.enter_context(patch)
        stack.enter_context(contextlib.redirect_stdout(out))
        code = run.main(list(argv))
    assert code == 0
    text = out.getvalue()
    return json.loads(text.splitlines()[-1]), text


def corrupt_index(index: int):
    """Patch the record encoder so records with this index carry a wrong k."""
    original = bb.harness._dumps

    def bad(record):
        if record["index"] == index:
            record = dict(record, k=record["k"] * (1 + 2**-40))
        return original(record)

    return mock.patch.object(bb.harness, "_dumps", bad)


class Metrics(unittest.TestCase):
    def test_every_named_metric_with_its_unit(self):
        for trace in (0, 1):
            specs = run.metric_specs(trace)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result, report = run_benchmark("--workload", workload, "--seed", "3",
                                                   "--seconds", "1", "--trace", str(trace))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], report)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, specs)
                    self.assertIn("# failed_fraction = 0.0 ratio", report)
                    for name, unit in specs.items():
                        self.assertIn(f"# {name} = ", report)
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_fourteen_closed_form_calls_per_even_record(self):
        tracer = Tracer(bb)
        plan = sweeps.make_inputs(bb, "sweep-haar-even", 1)
        with tempfile.TemporaryDirectory() as tmp, measure.threads_env(1), tracer.installed():
            sweeps.Call(bb, plan, 5, 20, Path(tmp) / "s.jsonl")
        self.assertEqual(layer_metrics(tracer)["bounds.calls_per_sample"], 14.0)


class Gates(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.path = Path(self.tmp.name) / "s.jsonl"
        self.plan = sweeps.make_inputs(bb, "sweep-haar-even", 1)

    def tearDown(self):
        self.tmp.cleanup()

    def sweep(self, seed=11, samples=20, threads=1):
        with measure.threads_env(threads):
            return sweeps.Call(bb, self.plan, seed, samples, self.path)

    def check(self, call, data, spot=None):
        lines = len(data.splitlines())
        return sweeps.check_output(bb, self.plan, 11, 20, data, call.summary, random.Random(0),
                                   spot=lines if spot is None else spot)

    def test_clean_output_passes(self):
        call = self.sweep()
        self.assertEqual(self.check(call, call.data), [])

    def test_spot_check_fires_on_a_changed_record(self):
        call = self.sweep()
        lines = call.data.splitlines(keepends=True)
        lines[7] = lines[7].replace(b'"index":7,', b'"index":7, ')
        problems = self.check(call, b"".join(lines))
        self.assertTrue(any("differs from the scalar API" in p for p in problems), problems)

    def test_missing_record_fires(self):
        call = self.sweep()
        problems = self.check(call, b"".join(call.data.splitlines(keepends=True)[:-1]), spot=0)
        self.assertTrue(any("expected" in p for p in problems), problems)

    def test_even_m_violation_fires(self):
        call = self.sweep()
        data = call.data.replace(b'"theorem2_ok":true', b'"theorem2_ok":false', 1)
        problems = self.check(call, data, spot=0)
        self.assertTrue(any("violation" in p for p in problems), problems)

    def test_golden_hash_fires(self):
        tally = measure.Tally()
        sweeps._golden(bb, self.plan, self.path, 1, tally)
        self.assertEqual((tally.attempted, tally.failed), (1, 0))
        wrong = dataclasses.replace(self.plan, golden=dict(self.plan.golden, sha256="0" * 64))
        sweeps._golden(bb, wrong, self.path, 1, tally)
        self.assertEqual((tally.attempted, tally.failed), (2, 1))

    def test_corrupted_record_raises_failed_fraction(self):
        with corrupt_index(7):
            result = sweeps.run(bb, self.plan, 0, False, Path(self.tmp.name), measure.Probes())
        tally = result["tally"]
        self.assertGreater(tally.failed, 0)
        self.assertTrue(any("golden" in p for p in tally.problems))

    def test_parallel_only_corruption_fires(self):
        original = bb.harness._iter_chunks

        def parallel_differs(config, workers):
            for m, records in original(config, workers):
                if workers > 1:
                    records[0] = dict(records[0], k=records[0]["k"] * (1 + 2**-40))
                yield m, records

        with mock.patch.object(bb.harness, "_iter_chunks", parallel_differs), \
                mock.patch.object(sweeps, "MIN_SERIAL_CALLS", 2), \
                mock.patch.object(sweeps, "MIN_PARALLEL_CALLS", 1):
            tally = sweeps.run(bb, self.plan, 0, False, Path(self.tmp.name),
                               measure.Probes())["tally"]
        self.assertTrue(any("parallel records differ from serial" in p for p in tally.problems))

    def test_oracle_gap_fires(self):
        plan = oracle.make_inputs(bb, "oracle", 1)
        call = oracle.Call(bb, plan, 0)
        self.assertEqual(call.problems(bb), [])
        call.summary = dataclasses.replace(call.summary, max_gap=1e-6)
        self.assertTrue(call.problems(bb))

    def test_cli_exit_code_and_values_fire(self):
        plan = climix.make_inputs(bb, "cli-mix", 1)
        expected = climix.Expected(bb, plan)
        command = next(c for c in plan.cycle(0) if c.label == "bell")
        good = climix.in_process_call(bb, command)
        self.assertEqual(expected.problems(good), [])
        self.assertTrue(expected.problems(dataclasses.replace(good, code=1)))
        k_line = next(x for x in good.stdout.splitlines() if x.startswith("k = "))
        k = float(k_line[4:])
        changed = good.stdout.replace(k_line, f"k = {k * (1 + 2**-40)!r}")
        self.assertTrue(expected.problems(dataclasses.replace(good, stdout=changed)))

    def test_negative_matrix_entry_in_flag_equals_value_form(self):
        # `--matrix -1,2;...` (two tokens) is read as a missing argument, a
        # known CLI defect; the workload therefore passes `--flag=value`.
        command = climix.Command("jn", ("jn", "--matrix=-1,2;3,-4"))
        result = climix.in_process_call(bb, command)
        self.assertEqual(result.code, 0)
        self.assertEqual(climix.Expected(bb, None).problems(result), [])


class HostSpeedScaling(unittest.TestCase):
    def test_a_call_is_scaled_by_the_probes_around_it(self):
        host = measure.HostSpeed(lambda: None, 2.0)
        host.walls = [2.0, 6.0, 8.0]
        self.assertEqual(host.reference(10.0, 0, 1), 5.0)  # probes 2 and 6: twice as slow
        self.assertEqual(host.reference(10.0, 1, 2), 10.0 * 2.0 / 7.0)

    def test_every_cli_call_lies_between_two_probes(self):
        host = measure.HostSpeed(lambda: None, 1.0)
        plan = climix.make_inputs(bb, "cli-mix", 1)
        fake = climix.Result(plan.cycle(0)[0], 1, 0.3, 0.0, 0.0, 0, "", None)
        with mock.patch.object(climix, "fresh_call", lambda c, t: dataclasses.replace(fake)):
            results = climix._fresh_cycles(plan, 0, 1, host)
        self.assertEqual(len(results), 16)
        self.assertEqual([r.probes for r in results[::4]], [(0, 1), (1, 2), (2, 3), (3, 4)])
        self.assertTrue(all(r.probes == results[i - i % 4].probes for i, r in enumerate(results)))

    def test_the_first_probe_is_warmed_up_untimed(self):
        calls = []
        host = measure.HostSpeed(lambda: calls.append(1), 1.0)
        self.assertEqual((host.probe(), host.probe()), (0, 1))
        self.assertEqual((len(calls), len(host.walls)), (3, 2))


class Tracing(unittest.TestCase):
    def test_traced_bytes_equal_untraced_and_originals_restored(self):
        plan = sweeps.make_inputs(bb, "sweep-simplex-odd", 2)
        before = {(owner, attr): owner.__dict__[attr]
                  for owner, attr, _ in traced_attributes(bb)}
        with tempfile.TemporaryDirectory() as tmp, measure.threads_env(1):
            path = Path(tmp) / "s.jsonl"
            plain = sweeps.Call(bb, plan, 9, 30, path).data
            tracer = Tracer(bb)
            with tracer.installed():
                traced = sweeps.Call(bb, plan, 9, 30, path).data
        self.assertEqual(traced, plain)
        for (owner, attr), fn in before.items():
            self.assertIs(owner.__dict__[attr], fn)
        summary = tracer.summary()
        self.assertEqual(summary["harness.substream"]["calls"], 3 * 30)
        self.assertEqual(summary["harness.run_sweep"]["calls"], 1)

    def test_self_time_excludes_children(self):
        tracer = Tracer(bb)
        s = bb.new_schmidt([3, 2, 1, 1])
        with tracer.installed():
            bb.bounds.bell_value_formula(s)
        t = tracer.summary()
        parent = t["bounds.bell_value_formula"]
        children = t["bounds.k_value"]["total_ns"] + t["bounds.gamma_value"]["total_ns"]
        self.assertAlmostEqual(parent["self_ns"], parent["total_ns"] - children, delta=1)

    def test_restored_after_an_exception(self):
        original = bb.harness.__dict__["substream"]
        with self.assertRaises(ZeroDivisionError), Tracer(bb).installed():
            1 / 0
        self.assertIs(bb.harness.__dict__["substream"], original)


if __name__ == "__main__":
    unittest.main()
