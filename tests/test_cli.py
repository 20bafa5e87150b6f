"""Tests for the command-line interface: formats, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bellbound
from bellbound import ExperimentConfig, SchmidtVector, concurrence, harness, run_sweep
from bellbound.cli import main
from bellbound.tolerances import MAX_EXHAUSTIVE_N, MAX_GRID_POINTS, MAX_ORACLE_DIM, ORACLE_TOL


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

    def test_ragged_matrix_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["jn", "--matrix", "1,1;1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("matrix", ["-1,1;1,1", "-.5,2;1,-1"])
    def test_leading_minus_value_as_two_tokens(self, capsys, matrix):
        joined = run_cli(capsys, "jn", f"--matrix={matrix}")
        assert joined[0] == 0
        assert run_cli(capsys, "jn", "--matrix", matrix) == joined


    @pytest.mark.parametrize("entry", ["inf", "nan"])
    def test_non_finite_entry_is_usage_error_with_reason(self, capsys, entry):
        with pytest.raises(SystemExit) as exc:
            main(["jn", f"--matrix={entry},1;1,1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"--matrix entries must be finite, got '{entry},1;1,1'" in err


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

    def test_zero_vector_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "concurrence", "--coeffs", "0,0")
        assert code == 1
        assert "ZeroVectorError" in err

    def test_negative_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "concurrence", "--coeffs", "0.5,-1")
        assert code == 1
        assert "NegativeCoefficientError" in err

    @pytest.mark.parametrize("coeffs", ["inf,1", "nan,1", "-inf,1"])
    def test_non_finite_is_domain_error(self, capsys, coeffs):
        code, _, err = run_cli(capsys, "concurrence", "--coeffs", coeffs)
        assert code == 1
        assert "NonFiniteCoefficientError" in err

    def test_malformed_coeffs_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["concurrence", "--coeffs", "a,b"])
        assert exc.value.code == 2


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

    def test_m_above_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--m", "4", "--n", "2", "--seed", "1"])
        assert exc.value.code == 2
        assert "--n must be >= --m, got n=2 < m=4" in capsys.readouterr().err


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

    def test_non_integral_flag_is_usage_error_with_reason(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--m", "2.5", "--seed", "1"])
        assert exc.value.code == 2
        assert "argument --m: value must be an integer >= 1, got '2.5'" in capsys.readouterr().err

    def test_negative_index_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--seed", "1", "--m", "2", "--index", "-1"])
        assert exc.value.code == 2


class TestSweep:
    def test_smoke_and_summary_format(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        code, out, err = run_cli(
            capsys, "sweep", "--dims", "2,3", "--samples", "25", "--seed", "3",
            "--measure", "simplex", "--out", str(out_path),
        )
        assert code == 0
        assert err == ""
        pairs = parsed_lines(out)
        assert pairs["measure"] == "simplex"
        assert pairs["records_written"] == "50"
        assert pairs["violations"] == "0"
        assert len(out_path.read_text().splitlines()) == 50

    def test_identical_flags_hash_identical_files(self, capsys, tmp_path):
        digests = []
        for name in ("s1.jsonl", "s2.jsonl"):
            out_path = tmp_path / name
            code, _, _ = run_cli(
                capsys, "sweep", "--dims", "2,4", "--samples", "40", "--seed", "8",
                "--out", str(out_path),
            )
            assert code == 0
            digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
        assert digests[0] == digests[1]

    def test_unwritable_out_is_domain_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--dims", "2", "--samples", "1", "--seed", "1",
            "--out", str(tmp_path / "nope" / "x.jsonl"),
        )
        assert code == 1
        assert "IoFailureError" in err

    # the theorem checks use THEOREM_TOL: --tolerance is unknown, whatever its value
    @pytest.mark.parametrize("flag", ["--offset=-1", "--tolerance=inf", "--tolerance=nan",
                                      "--tolerance=0", "--tolerance=1e-09",
                                      "--tolerance=1e300"])
    def test_bad_flag_is_usage_error(self, tmp_path, capsys, flag):
        out_path = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "2", "--samples", "1", "--seed", "1",
                  "--out", str(out_path), flag])
        assert exc.value.code == 2
        assert not out_path.exists()
        unknown = f"unrecognized arguments: {flag}\n" in capsys.readouterr().err
        assert unknown == flag.startswith("--tolerance")

    def test_duplicate_dims_is_usage_error(self, tmp_path):
        out_path = tmp_path / "x.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--dims", "2,2", "--samples", "3", "--seed", "1",
                  "--out", str(out_path)])
        assert exc.value.code == 2
        assert not out_path.exists()


class TestVerify:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2", "--n", "2", "--samples", "5",
            "--grid", "64", "--seed", "2",
        )
        assert code == 0
        pairs = parsed_lines(out)
        assert float(pairs["max_gap"]) <= ORACLE_TOL

    def test_n_defaults_to_m(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "3", "--samples", "3", "--grid", "64",
            "--seed", "2",
        )
        assert code == 0
        assert "m=3 n=3" in out

    @pytest.mark.parametrize("grid", ["0", "3", "7"])
    def test_grid_below_eight_is_usage_error(self, grid):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "2", "--samples", "1", "--seed", "1", "--grid", grid])
        assert exc.value.code == 2

    def test_grid_eight_is_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--m", "2", "--samples", "1", "--seed", "1", "--grid", "8",
        )
        assert code == 0
        assert "grid_points = 8" in out

    def test_n_below_m_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--m", "4", "--n", "2", "--samples", "1",
                  "--grid", "64", "--seed", "1"])
        assert exc.value.code == 2

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


EYE_PAST_GUARD = ";".join(",".join(map(str, row))
                          for row in np.eye(MAX_EXHAUSTIVE_N + 1, dtype=int).tolist())
SWEEP = "sweep --samples 1 --seed 1 --dims"
VERIFY = "verify --samples 1 --seed 1 --grid 8 --m"

# one row per bad input: a shell-like command line, with NAME=value words
# before the subcommand setting the environment, and its exit code
BAD_INPUTS = [
    ("", 2), ("frobnicate", 2), ("concurrence", 2),
    ("concurrence --coeffs a,b", 2), ("bell --coeffs 1,x", 2), ("bounds --coeffs 1,,2", 2),
    ("jn --matrix 1,1;1", 2), ("jn --matrix=inf,1;1,1", 2), ("jn --matrix 1,x;1,1", 2),
    ("sample --m 0 --seed 1", 2), ("sample --m 2 --seed -1", 2),
    (f"sample --m 2 --seed {2**64}", 2), ("sample --m 2 --seed 1 --measure uniform", 2),
    ("sample --m 4 --n 2 --seed 1", 2), ("sample --m 4 --n 2 --seed 1 --index 3", 2),
    ("sample --measure simplex --m 3 --n 1 --seed 1", 2),
    ("sample --m 2.5 --seed 1", 2), ("sample --m 2 --n 2.0 --seed 1", 2),
    ("sample --m 2 --seed 3.5", 2), ("sample --m 2 --seed 1 --index 0.5", 2),
    ("sample --m 2 --seed 1 --index -1", 2), ("sample --m 2 --seed 1 --index x", 2),
    (f"{SWEEP} 2,2 --out {{out}}", 2), (f"{SWEEP} 0 --out {{out}}", 2),
    (f"{SWEEP} 2,x --out {{out}}", 2), (f"{SWEEP} 2", 2),
    (f"{SWEEP} 2 --out {{out}} --samples 0", 2), (f"{SWEEP} 2 --out {{out}} --offset -1", 2),
    (f"{SWEEP} 4.5 --out {{out}}", 2), (f"{SWEEP} 2 --out {{out}} --samples 1.9", 2),
    (f"{SWEEP} 2 --out {{out}} --offset 0.5", 2),
    (f"{SWEEP} 2 --out {{out}} --tolerance inf", 2),
    (f"{SWEEP} 2 --out {{out}} --tolerance nan", 2),
    (f"{SWEEP} 2 --out {{out}} --tolerance 0", 2),
    (f"{SWEEP} 2 --out {{out}} --tolerance 1e300", 2),
    (f"{VERIFY} 2 --grid 7", 2), (f"{VERIFY} 4 --n 2", 2), (f"{VERIFY} 2 --n 0", 2),
    (f"{VERIFY} 2 --samples 0", 2), (f"{VERIFY} 2 --measure uniform", 2),
    (f"{VERIFY} 2 --grid 8.5", 2), (f"{VERIFY} 2.5", 2),
    ("concurrence --coeffs 0,0", 1), ("concurrence --coeffs 0.5,-1", 1),
    ("bell --coeffs -1,0", 1), ("bounds --coeffs 0,0", 1), (f"jn --matrix {EYE_PAST_GUARD}", 1),
    ("jn --matrix 1e308,1e308;1e308,1e308", 1),
    (f"{VERIFY} 8 --n {MAX_ORACLE_DIM // 8 + 1}", 1),
    (f"{VERIFY} 2 --grid {MAX_GRID_POINTS + 1}", 1), (f"{VERIFY} 2 --grid {10**13}", 1),
    (f"{SWEEP} 2 --out {{tmp}}", 1),
    (f"{SWEEP} 2 --out {{tmp}}/missing/x.jsonl", 1),
    (f"BELLBOUND_THREADS=many {SWEEP} 2 --out {{out}}", 1),
    (f"BELLBOUND_THREADS=-1 {SWEEP} 2 --out {{out}}", 1),
    (f"BELLBOUND_THREADS=2.5 {SWEEP} 2 --out {{out}}", 1),
    (f"BELLBOUND_THREADS=many {VERIFY} 2", 1),
]


@pytest.mark.parametrize("line,code", BAD_INPUTS, ids=[line[:90] for line, _ in BAD_INPUTS])
def test_bad_input_exit_code(capsys, monkeypatch, tmp_path, line, code):
    # usage errors exit 2 with argparse's usage, domain errors 1 with one line;
    # neither prints to stdout or leaves a file
    words = shlex.split(line.format(tmp=tmp_path, out=tmp_path / "x.jsonl"))
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
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


class TestDispatch:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2



def package_env():
    """Environment for a fresh interpreter that imports this bellbound."""
    src = str(Path(bellbound.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestModuleEntryPoint:
    def test_python_m_matches_console_entry_point(self):
        argv = ["bell", "--coeffs", "0.8,0.6"]
        runs = [
            subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                           env=package_env(), timeout=120)
            for prefix in (["-m", "bellbound"], ["-c", "from bellbound.cli import run; run()"])
        ]
        assert [r.returncode for r in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert "bell_value = " in runs[0].stdout


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
    def test_ctrl_c_leaves_nothing_behind(self, tmp_path):
        # the sweep and its two workers get a session of their own, and SIGINT
        # goes to the whole group, as a terminal's Ctrl-C does; SIGINT is reset
        # to the default, since a parent that ignores it (a shell's `&` job)
        # passes that on and the sweep would then run to its end
        out = tmp_path / "out.jsonl"
        argv = [sys.executable, "-m", "bellbound", "sweep", "--dims", "2,4",
                "--samples", "50000", "--seed", "1", "--out", str(out)]
        proc = subprocess.Popen(
            argv, env={**package_env(), "BELLBOUND_THREADS": "2"}, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
        try:
            deadline = time.monotonic() + 60
            while not any(path.stat().st_size for path in tmp_path.iterdir()):
                assert proc.poll() is None, "the sweep ended before writing"
                assert time.monotonic() < deadline, "the sweep wrote nothing in 60 s"
                time.sleep(0.01)
            os.killpg(proc.pid, signal.SIGINT)  # the hidden temp file holds records
            _, err = proc.communicate(timeout=60)
            emptied = group_empties(proc.pid, timeout=10)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=60)
        assert proc.returncode != 0, err
        assert list(tmp_path.iterdir()) == []
        assert emptied


class TestImportPath:
    def test_cli_import_loads_no_process_pool(self):
        # only a parallel sweep needs the pool; every CLI process pays its import
        code = ("import sys, bellbound.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
                "if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=package_env(), timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_parallel_sweep_loads_no_process_pool(self, tmp_path):
        # the sweep forks its two workers itself; the CPU mask is widened, so
        # that a one-CPU host forks them too
        argv = ["sweep", "--dims", "2,4", "--samples", "200", "--seed", "1",
                "--out", str(tmp_path / "x.jsonl")]
        code = ("import contextlib, io, os, sys; from bellbound.cli import main\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(os.getpid()) or fork()\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({argv!r}) == 0\n"
                "print(len(forks), sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**package_env(), "BELLBOUND_THREADS": "2"}, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "2 []\n"

    CORE = ("cli", "errors", "schmidt_state", "tolerances")
    KERNEL = CORE + ("bell_operators", "bounds")

    MODULE_SETS = [
        ("concurrence --coeffs 1,2", CORE),
        ("sample --m 3 --seed 1", CORE),
        ("sample --m 3 --seed 1 --measure simplex", CORE),
        ("sample --m 3 --seed 1 --index 2", CORE),
        ("bell --coeffs 1,2", CORE + ("bounds",)),
        ("bounds --coeffs 1,2", CORE + ("bounds",)),
        ("jn --matrix 1,1;1,-1", CORE + ("bounds",)),
        ("sweep --dims 2 --samples 1 --seed 1 --out {out}", KERNEL + ("harness",)),
        ("verify --m 2 --samples 1 --grid 8 --seed 1", KERNEL + ("harness",)),
    ]

    @pytest.mark.parametrize("line,loaded", MODULE_SETS, ids=[line for line, _ in MODULE_SETS])
    def test_subcommand_loads_only_its_modules(self, tmp_path, line, loaded):
        # each handler imports what it runs; a fresh process shows what a call loads
        argv = shlex.split(line.format(out=tmp_path / "x.jsonl"))
        code = ("import sys; from bellbound.cli import main; import contextlib, io\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({argv!r}) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith('bellbound.')))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**package_env(), "BELLBOUND_THREADS": "1"}, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == f"{sorted(f'bellbound.{m}' for m in loaded)}\n"
