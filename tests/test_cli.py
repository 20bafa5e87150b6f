"""Tests for the command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import errno
import gc
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from bellbound import ExperimentConfig, SchmidtVector, concurrence, harness, run_sweep
from bellbound.cli import _FLAGS, _SUBCOMMANDS, main
from bellbound.tolerances import MAX_EXHAUSTIVE_N, MAX_GRID_POINTS, MAX_ORACLE_DIM, ORACLE_TOL

from conftest import package_env, signalled_at_fork


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parsed_lines(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" = ")
        pairs[key] = value
    return pairs


class TestJn:
    def test_chsh_prints_two(self, capsys):
        code, out, _ = run_cli(capsys, "jn", "--matrix", "1,1;1,-1")
        assert code == 0
        assert float(out.strip()) == 2.0

    def test_identity_three(self, capsys):
        code, out, _ = run_cli(capsys, "jn", "--matrix", "1,0,0;0,1,0;0,0,1")
        assert code == 0
        assert float(out.strip()) == 3.0

    @pytest.mark.parametrize("matrix", ["-1,1;1,1", "-.5,2;1,-1"])
    def test_leading_minus_value_as_two_tokens(self, capsys, matrix):
        joined = run_cli(capsys, "jn", f"--matrix={matrix}")
        assert joined[0] == 0
        assert run_cli(capsys, "jn", "--matrix", matrix) == joined


class TestConcurrence:
    def test_product_state(self, capsys):
        code, out, _ = run_cli(capsys, "concurrence", "--coeffs", "1,0")
        assert code == 0
        pairs = parsed_lines(out)
        assert json.loads(pairs["coeffs"]) == [1.0, 0.0]
        assert float(pairs["concurrence"]) == 0.0

    def test_echoes_canonical_form(self, capsys):
        _, out, _ = run_cli(capsys, "concurrence", "--coeffs", "0.6,0.8")
        coeffs = json.loads(parsed_lines(out)["coeffs"])
        assert coeffs == sorted(coeffs, reverse=True)
        assert abs(math.fsum(c * c for c in coeffs) - 1.0) <= 1e-9

    def test_printed_value_round_trips(self, capsys):
        _, out, _ = run_cli(capsys, "concurrence", "--coeffs", "0.8,0.6")
        pairs = parsed_lines(out)
        s = SchmidtVector(np.array(json.loads(pairs["coeffs"])))
        assert repr(concurrence(s)) == pairs["concurrence"]


class TestBell:
    def test_uniform_four_term_vector(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--coeffs", "0.5,0.5,0.5,0.5")
        assert code == 0
        pairs = parsed_lines(out)
        assert float(pairs["k"]) == pytest.approx(1.0, abs=1e-12)
        assert float(pairs["gamma"]) == 0.0
        assert float(pairs["theta_star"]) == pytest.approx(math.pi / 4, abs=1e-12)
        assert float(pairs["bell_value"]) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_values_round_trip(self, capsys):
        from bellbound import bell_value_formula, gamma_value, k_value, theta_star

        _, out, _ = run_cli(capsys, "bell", "--coeffs", "1,2,2")
        pairs = parsed_lines(out)
        s = SchmidtVector(np.array(json.loads(pairs["coeffs"])))
        assert repr(k_value(s)) == pairs["k"]
        assert repr(gamma_value(s)) == pairs["gamma"]
        assert repr(theta_star(s)) == pairs["theta_star"]
        assert repr(bell_value_formula(s)) == pairs["bell_value"]

    def test_negative_zero_amplitude_prints_unsigned(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--coeffs=1,-0.0")
        assert code == 0
        assert "-0.0" not in out
        pairs = parsed_lines(out)
        assert (pairs["coeffs"], pairs["k"], pairs["theta_star"]) == ("[1.0, 0.0]", "0.0", "0.0")


class TestBounds:
    def test_prints_flat_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--coeffs", "1,1")
        assert code == 0
        payload = json.loads(out)
        assert payload["bell_value"] == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        assert payload["classical"] == 2.0
        assert payload["certified_nonlocal"] is True


class TestSample:
    def test_haar_draw_is_valid_and_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "sample", "--m", "4", "--n", "4", "--seed", "7")
        assert code == 0
        coeffs = json.loads(out1)
        assert len(coeffs) == 4
        assert abs(math.fsum(c * c for c in coeffs) - 1.0) <= 1e-9
        _, out2, _ = run_cli(capsys, "sample", "--m", "4", "--n", "4", "--seed", "7")
        assert out1 == out2

    def test_simplex_measure(self, capsys):
        code, out, _ = run_cli(
            capsys, "sample", "--m", "3", "--seed", "5", "--measure", "simplex"
        )
        assert code == 0
        assert len(json.loads(out)) == 3

    @pytest.mark.parametrize("measure,n", [("haar", "5"), ("simplex", "3")])
    def test_index_replays_sweep_record(self, capsys, tmp_path, set_workers, measure, n):
        out = tmp_path / "sweep.jsonl"
        set_workers(1)
        run_sweep(ExperimentConfig(dims=(3,), samples=8, seed=11, measure=measure,
                                   second_dim_offset=2, output_path=str(out)))
        record = json.loads(out.read_text().splitlines()[5])
        code, printed, _ = run_cli(capsys, "sample", "--seed", "11", "--m", "3", "--n", n,
                                   "--measure", measure, "--index", "5")
        assert code == 0
        assert json.loads(printed) == record["coeffs"]

    def test_index_matches_block_draw_past_two_to_the_32(self, capsys):
        start = 2**32 - 2
        rows = harness._draw_block(5, "haar", 0, 4, start, start + 4).tolist()
        for k, row in enumerate(rows):
            _, printed, _ = run_cli(capsys, "sample", "--seed", "5", "--m", "4",
                                    "--index", str(start + k))
            assert json.loads(printed) == row


class TestSweep:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_theorem_violations_exit_one_with_one_line_each(self, capsys, monkeypatch, tmp_path,
                                                            set_workers, any_work_forks, threads):
        # a tolerance far below one ulp makes m = 2's rounding margins fail theorem 1, as in
        # TestFoldedSummaries; the patch reaches the forked worker
        monkeypatch.setattr(harness, "THEOREM_TOL", 1e-300)
        set_workers(threads)
        out_path = tmp_path / "sweep.jsonl"
        code, out, err = run_cli(capsys, "sweep", "--dims", "2,3", "--samples", "300",
                                 "--seed", "6", "--out", str(out_path))
        assert code == 1
        total = int(parsed_lines(out)["violations"])
        per_dim = [int(line.rpartition(" violations=")[2])
                   for line in out.splitlines() if line.startswith("m=")]
        assert total > 0 and total == sum(per_dim)
        # the whole file is written, then one line per violation in (m, index) order
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [(r["m"], r["index"]) for r in records] == [(m, i) for m in (2, 3)
                                                           for i in range(300)]
        line = re.compile(r"error: TheoremViolation: m=2 index=(\d+) theorem1 margin=(\S+)")
        found = [line.fullmatch(text) for text in err.splitlines()]
        assert len(found) == total and all(found)
        failing = [r for r in records if r["theorem1_ok"] is False]
        assert [int(f[1]) for f in found] == [r["index"] for r in failing]
        assert [float(f[2]) for f in found] == [r["upper"] - r["bell_value"] for r in failing]
        assert not any(r["theorem2_ok"] is False for r in records)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_violation_lines_stop_at_the_cap(self, capsys, monkeypatch, tmp_path, set_workers,
                                             any_work_forks, threads):
        # every m = 2 check fails: stdout counts all 1200, stderr lists the first
        # MAX_VIOLATIONS in (m, index) order and then says how many more there were
        monkeypatch.setattr(harness, "THEOREM_TOL", -10.0)
        set_workers(threads)
        code, out, err = run_cli(capsys, "sweep", "--dims", "2", "--samples", "600",
                                 "--seed", "6", "--out", str(tmp_path / "sweep.jsonl"))
        assert code == 1
        assert parsed_lines(out)["violations"] == "1200"
        lines = err.splitlines()
        assert len(lines) == harness.MAX_VIOLATIONS + 1
        assert [re.match(r"error: TheoremViolation: m=2 index=(\d+) (theorem\d) margin=", line)
                .groups() for line in lines[:-1]] == [
            (str(i // 2), f"theorem{i % 2 + 1}") for i in range(harness.MAX_VIOLATIONS)]
        more = 1200 - harness.MAX_VIOLATIONS
        assert lines[-1] == f"error: TheoremViolation: {more} more, not listed"

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failed_allocation_is_one_line(self, capsys, tmp_path, set_workers, fork_spy,
                                           threads):
        # the m = 10**7 chunk asks for petabytes; at 2 workers a forked worker runs it, and
        # its MemoryError reaches the caller, which reports it as the caller's own
        set_workers(threads)
        code, out, err = run_cli(capsys, "sweep", "--dims", "2,10000000", "--samples", "64",
                                 "--seed", "1", "--out", str(tmp_path / "x.jsonl"))
        assert len(fork_spy) == threads - 1
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: MemoryError: Unable to allocate .+\n", err)
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_gap_beyond_oracle_tol_exits_one(self, capsys, monkeypatch, set_workers):
        argv = ["verify", "--m", "3", "--n", "4", "--samples", "5", "--grid", "64",
                "--seed", "2"]
        set_workers(1)  # the patch below reaches no worker process
        assert run_cli(capsys, *argv)[0] == 0
        block = harness.max_expectation_block

        def off_by_twice_the_tol(*args):
            return [(theta, value + 2 * ORACLE_TOL) for theta, value in block(*args)]

        monkeypatch.setattr(harness, "max_expectation_block", off_by_twice_the_tol)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        pairs = parsed_lines(out)
        assert float(pairs["max_gap"]) > ORACLE_TOL
        assert err == f"error: OracleGap: m=3 n=4 max_gap={pairs['max_gap']}\n"


class TestWorkerSetUp:
    """An ``OSError`` while a run starts its forked worker ends it as a domain error."""

    @pytest.mark.parametrize("target,error", [
        ("os.fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        ("tempfile.TemporaryFile", OSError(errno.ENOSPC, "No space left on device")),
    ])
    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_failed_set_up_is_a_worker_failure(self, capsys, monkeypatch, tmp_path, set_workers,
                                               any_work_forks, target, error, command):
        def fails(*args, **kwargs):
            raise error

        argv = {"sweep": ["sweep", "--dims", "2,4", "--samples", "200", "--seed", "1",
                          "--out", str(tmp_path / "out.jsonl")],
                "verify": ["verify", "--m=2", "--samples=200", "--seed", "1"]}[command]
        set_workers(2)  # two tasks: the caller and one forked worker
        monkeypatch.setattr(target, fails)
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: WorkerFailedError: cannot start worker 1 of 2: {error!r}")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


EYE_PAST_GUARD = ";".join(",".join(map(str, row))
                          for row in np.eye(MAX_EXHAUSTIVE_N + 1, dtype=int).tolist())
SWEEP = "sweep --samples 1 --seed 1 --dims"
VERIFY = "verify --samples 1 --seed 1 --grid 8 --m"

INT = "value must be an integer"
SEEDS = f"{INT} in [0, {2**64})"
REALS = "--coeffs expects comma-separated reals"
FINITE = "--matrix entries must be finite"
NOT_FINITE = "error: NonFiniteCoefficientError: amplitudes must be finite reals"
NEGATIVE = "error: NegativeCoefficientError: amplitudes must be nonnegative"
ZERO = "error: ZeroVectorError: amplitude norm 0.000e+00 is below 1e-12"
GUARD = "error: TooLargeError: dense oracle guard:"
THREADS = "error: InvalidDimensionError: BELLBOUND_THREADS must be an integer >= 0, got"
ALLOCATE = "error: MemoryError: Unable to allocate"  # the size it names depends on the platform

# one row per bad input: a shell-like command line, with NAME=value words before the
# subcommand setting the environment; its exit code; and the reason that the last line of
# its stderr gives, which names the flag or the error class and the refused value
BAD_INPUTS = [
    ("", 2, "bellbound: error: the following arguments are required: subcommand"),
    ("frobnicate", 2, "argument subcommand: invalid choice: 'frobnicate'"),
    # argparse's own rule takes "-1" and "-.5" as values, but not these: the top-level
    # parser reads them through _SIGNED_VALUE, as its subcommand parsers do
    ("-inf", 2, "argument subcommand: invalid choice: '-inf'"),
    ("-nan", 2, "argument subcommand: invalid choice: '-nan'"),
    ("concurrence", 2, "the following arguments are required: --coeffs"),
    ("concurrence --coeffs a,b", 2, f"argument --coeffs: {REALS}, got 'a,b'"),
    ("bell --coeffs 1,x", 2, f"argument --coeffs: {REALS}, got '1,x'"),
    ("bounds --coeffs 1,,2", 2, f"argument --coeffs: {REALS}, got '1,,2'"),
    ("jn --matrix 1,1;1", 2, "argument --matrix: --matrix must be square, got '1,1;1'"),
    ("jn --matrix=inf,1;1,1", 2, f"argument --matrix: {FINITE}, got 'inf,1;1,1'"),
    ("jn --matrix=nan,1;1,1", 2, f"argument --matrix: {FINITE}, got 'nan,1;1,1'"),
    ("jn --matrix 1,x;1,1", 2, "argument --matrix: --matrix expects ';'-separated rows of "
                              "comma-separated reals, got '1,x;1,1'"),
    ("sample --m 0 --seed 1", 2, f"argument --m: {INT} >= 1, got 0"),
    ("sample --m 2 --seed -1", 2, f"argument --seed: {SEEDS}, got -1"),
    (f"sample --m 2 --seed {2**64}", 2, f"argument --seed: {SEEDS}, got {2**64}"),
    ("sample --m 2 --seed 1 --measure uniform", 2, "argument --measure: invalid choice: 'uniform'"),
    # a rule across flags, reported by the subcommand's own parser
    ("sample --m 4 --n 2 --seed 1", 2,
     "bellbound sample: error: --n must be >= --m, got n=2 < m=4"),
    ("sample --m 4 --n 2 --seed 1 --index 3", 2,
     "bellbound sample: error: --n must be >= --m, got n=2 < m=4"),
    ("sample --measure simplex --m 3 --n 1 --seed 1", 2,
     "bellbound sample: error: --n must be >= --m, got n=1 < m=3"),
    ("sample --m 2.5 --seed 1", 2, f"argument --m: {INT} >= 1, got '2.5'"),
    ("sample --m 2 --n 2.0 --seed 1", 2, f"argument --n: {INT} >= 1, got '2.0'"),
    ("sample --m 2 --seed 3.5", 2, f"argument --seed: {SEEDS}, got '3.5'"),
    ("sample --m 2 --seed 1 --index 0.5", 2, f"argument --index: {INT} >= 0, got '0.5'"),
    ("sample --m 2 --seed 1 --index -1", 2, f"argument --index: {INT} >= 0, got -1"),
    ("sample --m 2 --seed 1 --index x", 2, f"argument --index: {INT} >= 0, got 'x'"),
    (f"{SWEEP} 2,2 --out {{out}}", 2,
     "argument --dims: --dims entries must be distinct, got '2,2'"),
    (f"{SWEEP} 0 --out {{out}}", 2, f"argument --dims: {INT} >= 1, got 0"),
    (f"{SWEEP} 2,x --out {{out}}", 2, f"argument --dims: {INT} >= 1, got 'x'"),
    (f"{SWEEP} 2", 2, "the following arguments are required: --out"),
    (f"{SWEEP} 2 --out {{out}} --samples 0", 2, f"argument --samples: {INT} >= 1, got 0"),
    (f"{SWEEP} 2 --out {{out}} --offset -1", 2, f"argument --offset: {INT} >= 0, got -1"),
    (f"{SWEEP} 2 --out {{out}} --offset=-1", 2, f"argument --offset: {INT} >= 0, got -1"),
    (f"{SWEEP} 4.5 --out {{out}}", 2, f"argument --dims: {INT} >= 1, got '4.5'"),
    (f"{SWEEP} 2 --out {{out}} --samples 1.9", 2, f"argument --samples: {INT} >= 1, got '1.9'"),
    (f"{SWEEP} 2 --out {{out}} --offset 0.5", 2, f"argument --offset: {INT} >= 0, got '0.5'"),
    # the theorem checks use THEOREM_TOL: --tolerance is unknown, whatever its value
    (f"{SWEEP} 2 --out {{out}} --tolerance inf", 2, "unrecognized arguments: --tolerance inf"),
    (f"{SWEEP} 2 --out {{out}} --tolerance nan", 2, "unrecognized arguments: --tolerance nan"),
    (f"{SWEEP} 2 --out {{out}} --tolerance 0", 2, "unrecognized arguments: --tolerance 0"),
    (f"{SWEEP} 2 --out {{out}} --tolerance 1e300", 2, "unrecognized arguments: --tolerance 1e300"),
    (f"{SWEEP} 2 --out {{out}} --tolerance=inf", 2, "unrecognized arguments: --tolerance=inf"),
    (f"{SWEEP} 2 --out {{out}} --tolerance=nan", 2, "unrecognized arguments: --tolerance=nan"),
    (f"{SWEEP} 2 --out {{out}} --tolerance=0", 2, "unrecognized arguments: --tolerance=0"),
    (f"{SWEEP} 2 --out {{out}} --tolerance=1e-09", 2, "unrecognized arguments: --tolerance=1e-09"),
    (f"{SWEEP} 2 --out {{out}} --tolerance=1e300", 2, "unrecognized arguments: --tolerance=1e300"),
    (f"{VERIFY} 2 --grid 0", 2, f"argument --grid: {INT} >= 8, got 0"),
    (f"{VERIFY} 2 --grid 3", 2, f"argument --grid: {INT} >= 8, got 3"),
    (f"{VERIFY} 2 --grid 7", 2, f"argument --grid: {INT} >= 8, got 7"),
    (f"{VERIFY} 4 --n 2", 2, "bellbound verify: error: --n must be >= --m, got n=2 < m=4"),
    (f"{VERIFY} 2 --n 0", 2, f"argument --n: {INT} >= 1, got 0"),
    (f"{VERIFY} 2 --samples 0", 2, f"argument --samples: {INT} >= 1, got 0"),
    (f"{VERIFY} 2 --measure uniform", 2, "argument --measure: invalid choice: 'uniform'"),
    (f"{VERIFY} 2 --grid 8.5", 2, f"argument --grid: {INT} >= 8, got '8.5'"),
    (f"{VERIFY} 2.5", 2, f"argument --m: {INT} >= 1, got '2.5'"),
    ("concurrence --coeffs 0,0", 1, ZERO),
    ("concurrence --coeffs 0.5,-1", 1, NEGATIVE),
    ("concurrence --coeffs inf,1", 1, NOT_FINITE), ("concurrence --coeffs nan,1", 1, NOT_FINITE),
    ("concurrence --coeffs -inf,1", 1, NOT_FINITE), ("concurrence --coeffs -nan,1", 1, NOT_FINITE),
    ("concurrence --coeffs -INF,1", 1, NOT_FINITE),
    ("bell --coeffs -1,0", 1, NEGATIVE),
    ("bounds --coeffs 0,0", 1, ZERO),
    (f"jn --matrix {EYE_PAST_GUARD}", 1, "error: TooLargeError: exhaustive search guard: "
                                         f"n={MAX_EXHAUSTIVE_N + 1} exceeds {MAX_EXHAUSTIVE_N}"),
    ("jn --matrix 1e308,1e308;1e308,1e308", 1,
     "error: TooLargeError: classical bound is not finite in float64, got inf"),
    (f"{VERIFY} 8 --n {MAX_ORACLE_DIM // 8 + 1}", 1,
     f"{GUARD} m*dim_b = {8 * (MAX_ORACLE_DIM // 8 + 1)} exceeds {MAX_ORACLE_DIM}"),
    (f"{VERIFY} 2 --grid {MAX_GRID_POINTS + 1}", 1,
     f"{GUARD} grid_points = {MAX_GRID_POINTS + 1} > {MAX_GRID_POINTS}"),
    (f"{VERIFY} 2 --grid {10**13}", 1, f"{GUARD} grid_points = {10**13} > {MAX_GRID_POINTS}"),
    (f"{SWEEP} 2 --out {{tmp}}", 1,
     "error: IoFailureError: cannot write {tmp}: not a regular file"),
    # the temporary file that the error names holds the pid and random hex
    (f"{SWEEP} 2 --out {{tmp}}/missing/x.jsonl", 1, "error: IoFailureError: cannot write "
                                                    "{tmp}/missing/x.jsonl: [Errno 2] No such file"
                                                    " or directory"),
    (f"BELLBOUND_THREADS=many {SWEEP} 2 --out {{out}}", 1, f"{THREADS} 'many'"),
    (f"BELLBOUND_THREADS=-1 {SWEEP} 2 --out {{out}}", 1, f"{THREADS} -1"),
    (f"BELLBOUND_THREADS=2.5 {SWEEP} 2 --out {{out}}", 1, f"{THREADS} '2.5'"),
    (f"BELLBOUND_THREADS=many {VERIFY} 2", 1, f"{THREADS} 'many'"),
    # m = 10**7 asks for petabytes, beyond a 47-bit address space: the allocation fails at once
    ("sample --m 10000000 --seed 1", 1, ALLOCATE),
    (f"{SWEEP} 10000000 --out {{out}}", 1, ALLOCATE),
]


@pytest.mark.parametrize("line,code,reason", BAD_INPUTS,
                         ids=[line[:90] for line, *_ in BAD_INPUTS])
def test_bad_input_exit_code(capsys, monkeypatch, tmp_path, line, code, reason):
    # usage errors exit 2 with argparse's usage, domain errors 1 with one line, and the
    # last line says why; neither prints to stdout or leaves a file
    paths = dict(tmp=tmp_path, out=tmp_path / "x.jsonl")
    words = shlex.split(line.format(**paths))
    monkeypatch.setenv("BELLBOUND_THREADS", "1")
    while words and "=" in words[0]:
        monkeypatch.setenv(*words.pop(0).split("=", 1))
    try:
        status = main(words)
    except SystemExit as exc:
        status = exc.code
    out, err = capsys.readouterr()
    assert (status, out) == (code, "")
    if code == 2:
        assert err.startswith("usage: ") and "error: " in err
        # a named subcommand prints its own usage, also for a flag that it does not know
        if words and words[0] in _SUBCOMMANDS:
            assert err.startswith(f"usage: bellbound {words[0]} ")
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    assert reason and reason.format(**paths) in err.splitlines()[-1]
    assert list(tmp_path.iterdir()) == []


# one bad value for each flag of cli._FLAGS with a type or choices; a new such flag
# without a row here fails test_every_checked_flag_rejects_a_bad_value
BAD_VALUES = {"--coeffs": "1,x", "--matrix": "1,1;1", "--m": "0", "--n": "2.0", "--dims": "2,2",
              "--samples": "0", "--grid": "7", "--seed": "-1", "--measure": "uniform",
              "--index": "x", "--offset": "-1"}
CHECKED_FLAGS = [(name, flag) for name, (_, _, flags) in _SUBCOMMANDS.items()
                 for flag in flags.split() if {"type", "choices"} & _FLAGS[flag].keys()]


@pytest.mark.parametrize("name,flag", CHECKED_FLAGS, ids=[" ".join(row) for row in CHECKED_FLAGS])
def test_every_checked_flag_rejects_a_bad_value(capsys, monkeypatch, tmp_path, name, flag):
    # argparse refuses the value itself: a usage error naming the flag, before any handler runs
    assert flag in BAD_VALUES, f"{flag} has no row in BAD_VALUES"
    monkeypatch.chdir(tmp_path)
    code, out, err = in_process(capsys, [name, flag, BAD_VALUES[flag]])
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: bellbound {name} ") and f"error: argument {flag}: " in err
    assert list(tmp_path.iterdir()) == []


SIGNALS = [signal.SIGTERM, signal.SIGHUP]  # the signals that run() makes raise, as SIGINT does


ENTRY = "from bellbound.cli import run; run()"
# one row per way out of main(): argv and exit code of a success, a domain error,
# a usage error (a missing flag) and a written file
ENTRY_ROWS = {
    "bell": (["bell", "--coeffs", "0.8,0.6"], 0),
    "domain-error": (["concurrence", "--coeffs", "0,0"], 1),
    "usage-error": (["sweep", "--dims", "2", "--samples", "5", "--seed", "1"], 2),
    "sweep": (["sweep", "--dims", "2,3", "--samples", "70", "--seed", "3", "--out", "{out}"], 0),
}


def in_process(capsys, argv):
    """``(exit code, stdout, stderr)`` of ``main(argv)`` in this process."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestModuleEntryPoint:
    def test_python_m_matches_console_entry_point(self, capsys, fresh, tmp_path):
        # both fresh entries give main()'s exit code, streams and file bytes,
        # whichever way main() ends
        out = tmp_path / "out.jsonl"
        for name, (row, code) in ENTRY_ROWS.items():
            argv = [word.format(out=out) for word in row]
            expected = in_process(capsys, argv)
            assert expected[0] == code, name
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            for prefix in (["-m", "bellbound"], ["-c", ENTRY]):
                r = fresh(*prefix, *argv)
                assert (r.returncode, r.stdout, r.stderr) == expected, (name, prefix)
                assert (out.read_bytes() if out.exists() else None) == written, (name, prefix)
                out.unlink(missing_ok=True)

    @pytest.mark.parametrize("name", ["sweep", "domain-error", "usage-error"])
    def test_main_never_freezes_the_collector(self, capsys, tmp_path, name):
        # only run() freezes, once main() has returned: a caller of main() keeps
        # its own objects collectable
        row, code = ENTRY_ROWS[name]
        frozen = gc.get_freeze_count()
        assert in_process(capsys, [word.format(out=tmp_path / "x") for word in row])[0] == code
        assert gc.get_freeze_count() == frozen

    @pytest.mark.parametrize("name", ["sweep", "domain-error", "usage-error"])
    def test_main_installs_no_signal_handler(self, capsys, tmp_path, name):
        # only run() makes SIGTERM and SIGHUP raise: a caller of main() keeps its own handlers
        row, code = ENTRY_ROWS[name]
        handlers = [signal.getsignal(signum) for signum in SIGNALS]
        assert in_process(capsys, [word.format(out=tmp_path / "x") for word in row])[0] == code
        assert [signal.getsignal(signum) for signum in SIGNALS] == handlers

    def test_run_keeps_an_ignored_hangup(self, capsys, fresh):
        # a run started under nohup keeps running when its terminal closes
        prelude = ("import atexit, signal, sys; signal.signal(signal.SIGHUP, signal.SIG_IGN); "
                   "atexit.register(lambda: print(signal.getsignal(signal.SIGHUP).name, "
                   "signal.getsignal(signal.SIGTERM).__name__, file=sys.stderr)); ")
        argv = ENTRY_ROWS["bell"][0]
        r = fresh("-c", prelude + ENTRY, *argv)
        assert (r.returncode, r.stdout) == (0, in_process(capsys, argv)[1])
        assert r.stderr == "SIG_IGN _interrupt\n"

    def test_run_freezes_the_collector_and_atexit_handlers_still_run(self, capsys, fresh):
        prelude = ("import atexit, gc, sys; "
                   "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr)); ")
        argv = ENTRY_ROWS["bell"][0]
        r = fresh("-c", prelude + ENTRY, *argv)
        assert (r.returncode, r.stdout, r.stderr) == (0, in_process(capsys, argv)[1], "True\n")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("name", ["bell", "sweep"])
    def test_closed_stdout_is_a_one_line_domain_error(self, capsys, tmp_path, name, unbuffered):
        # the reader's end closes before the call starts, so its first write to stdout
        # fails: at the final flush when buffered, inside main() when not; a sweep has
        # moved its whole file into place by then
        out = tmp_path / "out.jsonl"
        argv = [word.format(out=out) for word in ENTRY_ROWS[name][0]]
        in_process(capsys, argv)
        written = out.read_bytes() if out.exists() else None
        env = {key: value for key, value in package_env().items() if key != "PYTHONUNBUFFERED"}
        for prefix in (["-m", "bellbound"], ["-c", ENTRY]):
            out.unlink(missing_ok=True)
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                r = subprocess.run([sys.executable, *prefix, *argv], stdout=write_end,
                                   stderr=subprocess.PIPE, text=True, timeout=120,
                                   env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env)
            finally:
                os.close(write_end)
            assert r.returncode == 1, (prefix, r.stderr)
            assert r.stderr == ("error: IoFailureError: cannot write standard output: "
                                "[Errno 32] Broken pipe\n"), prefix
            assert (out.read_bytes() if out.exists() else None) == written, prefix


def group_empties(pgid, timeout):
    """Whether process group ``pgid`` holds no process within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


class TestInterrupt:
    @pytest.mark.parametrize("kill", [os.kill, os.killpg], ids=["caller", "group"])
    @pytest.mark.parametrize("signum", SIGNALS + [signal.SIGINT], ids=lambda s: s.name)
    def test_ctrl_c_leaves_nothing_behind(self, tmp_path, signum, kill):
        # the sweep and its forked worker get a session of their own, and the signal goes
        # to the caller alone (as `kill` sends it) or to the whole group (as a terminal's
        # Ctrl-C or hang-up does); each signal is reset to the default, since a parent
        # that ignores one (a shell's `&` job, nohup) passes that on and the sweep would
        # then run to its end
        out = tmp_path / "out.jsonl"
        argv = [sys.executable, "-m", "bellbound", "sweep", "--dims", "2,4",
                "--samples", "50000", "--seed", "1", "--out", str(out)]

        def defaults():
            for each in SIGNALS + [signal.SIGINT]:
                signal.signal(each, signal.SIG_DFL)

        proc = subprocess.Popen(
            argv, env={**package_env(), "BELLBOUND_THREADS": "2"}, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, preexec_fn=defaults)
        try:
            deadline = time.monotonic() + 60
            while not any(path.stat().st_size for path in tmp_path.iterdir()):
                assert proc.poll() is None, "the sweep ended before writing"
                assert time.monotonic() < deadline, "the sweep wrote nothing in 60 s"
                time.sleep(0.01)
            kill(proc.pid, signum)  # the hidden temp file holds records
            _, err = proc.communicate(timeout=60)
            emptied = group_empties(proc.pid, timeout=10)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert (proc.returncode, err) == (128 + signum, f"error: Interrupted: {signum.name}\n")
        assert list(tmp_path.iterdir()) == []
        assert emptied

    def test_worker_signalled_at_its_fork_ends_alone(self, fresh, tmp_path):
        # SIGTERM in the forked worker as its fork returns: the worker ends there, and the
        # one line on stderr is the caller's, naming the chunk that the worker never sent
        out = tmp_path / "out.jsonl"
        argv = ["bellbound", "sweep", "--dims", "2,3", "--samples", "10", "--seed", "5",
                "--out", str(out)]
        code = (signalled_at_fork(signal.SIGTERM)
                + f"import sys; from bellbound.cli import run\nsys.argv = {argv!r}\nrun()\n")
        r = fresh("-c", code, BELLBOUND_THREADS="2")
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith("error: WorkerFailedError: no readable result from worker 1 "
                                   "of 2 for chunk m=3 [0, 10): "), r.stderr
        assert r.stderr.count("\n") == 1, r.stderr
        assert list(tmp_path.iterdir()) == []


class TestImportPath:
    EAGER = ("errors", "schmidt_state", "tolerances")
    CORE = EAGER + ("cli",)
    KERNEL = CORE + ("bell_operators", "bounds")

    # one row per way in: an import, or a command line with NAME=value words before the
    # subcommand setting the environment; and the bellbound modules that it loads
    MODULE_SETS = [
        ("import bellbound", EAGER),
        ("import bellbound.bounds", EAGER + ("bounds",)),  # bell_operators imports from bounds
        ("import bellbound.cli", CORE),
        ("concurrence --coeffs 1,2", CORE),
        ("sample --m 3 --seed 1", CORE),
        ("sample --m 3 --seed 1 --measure simplex", CORE),
        ("sample --m 3 --seed 1 --index 2", CORE),
        ("bell --coeffs 1,2", CORE + ("bounds",)),
        ("bounds --coeffs 1,2", CORE + ("bounds",)),
        ("jn --matrix 1,1;1,-1", CORE + ("bounds",)),
        # enough work for the sweep to be worker 0 of two and fork the other itself
        ("BELLBOUND_THREADS=2 sweep --dims 2,4 --samples 400 --seed 1 --out {out}",
         KERNEL + ("harness",)),
        ("verify --m 2 --samples 1 --grid 8 --seed 1", KERNEL + ("harness",)),
    ]

    @pytest.mark.parametrize("line,loaded", MODULE_SETS, ids=[line for line, _ in MODULE_SETS])
    def test_subcommand_loads_only_its_modules(self, fresh, tmp_path, line, loaded):
        # each handler imports what it runs; a fresh process on two CPUs shows what a call
        # loads, and that it forks BELLBOUND_THREADS - 1 workers. Of the stdlib, json is
        # loaded by `bounds` alone, the one output that is a dumped dict, and no process
        # pool at all: the runner forks its workers, and every CLI process would pay it
        words = shlex.split(line.format(out=tmp_path / "x.jsonl"))
        env = {"BELLBOUND_THREADS": "1"}
        while "=" in words[0]:
            env.update([words.pop(0).split("=", 1)])
        call = (f"{line}\n" if words[0] == "import" else
                "import contextlib, io; from bellbound.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({words!r}) == 0\n")
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(os.getpid()) or fork()\n" + call
                + "print(len(forks), sorted(m for m in sys.modules if m.startswith('bellbound.')), "
                "[m for m in ('json', 'multiprocessing', 'concurrent.futures') "
                "if m in sys.modules])")
        run = fresh("-c", code, **env)
        assert run.returncode == 0, run.stderr
        forks, stdlib = int(env["BELLBOUND_THREADS"]) - 1, ["json"] * (words[0] == "bounds")
        assert run.stdout == f"{forks} {sorted(f'bellbound.{m}' for m in loaded)} {stdlib}\n"
