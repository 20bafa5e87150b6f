"""Mutation check: each mutant of the source below must make one of its tests fail.

    python3 tests/mutants.py [NAME ...]

Copies the checkout's ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every listed test there unchanged; they must pass.  Then, one
mutant at a time, it replaces one exact text in one source file of the copy, runs that
mutant's tests and puts the file back.  Each mutant is printed with the test that killed
it, ``SURVIVED`` (all its tests passed), ``BROKEN`` (pytest crashed, could not collect
the tests or ran past ``TIMEOUT``, so no test failed on the mutant) or ``STALE`` (its
text does not occur exactly once, so the mutant no longer fits the source).  Exits 1
on any survivor, broken or stale mutant.  The checkout is never written.  pytest does
not collect this file (no ``test_`` prefix); a run takes two to four minutes on 2 CPUs.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/bellbound
    old: str  # must occur exactly once
    new: str
    tests: tuple[str, ...]  # pytest node ids that should kill it


BELL = "tests/test_bell_operators.py"
BOUNDS = "tests/test_bounds.py"
CLI = "tests/test_cli.py"
HARNESS = "tests/test_harness.py"
SCHMIDT = "tests/test_schmidt_state.py"
IN_ORDER = "data, credit, spill = slots[i % workers - 1]"
AS_READY = ("data, credit, spill = next(slot for slot in slots if slot[0] in "
            '__import__("select").select([slot[0] for slot in slots], [], [])[0])')
WAIT = ("if j:  # the spill file is free once the caller has read chunk j - 1\n"
        "                    credit_in.read(1)\n")
COMPUTE = ("try:\n"
           "                    message = pickle.dumps((True, work(task)), -1)\n"
           "                except Exception as exc:\n"
           "                    message = pickle.dumps((False, exc), -1)\n")
READ = "ok, result = pickle.loads(os.pread(spill.fileno(), count, 0))\n"
REPORT = ("            except Exception as exc:\n" + " " * 16
          + 'raise WorkerFailedError(f"no readable result from worker {i % workers} of "\n'
          + " " * 40 + 'f"{workers} for chunk m={m} [{lo}, {hi}): {exc!r}") from exc\n')
CREDIT = " " * 16 + 'credit.write(b"\\0")\n'
SUPPRESS = (" " * 12 + "with contextlib.suppress(BrokenPipeError):"
            "  # a worker gone fails its next read\n")
GRID = "thetas = np.arange(lo, min(lo + _BLOCK, grid_points)) * (math.pi / grid_points)"

MUTANTS = [
    Mutant("grid stack drops lo", "bell_operators.py", GRID,
           "thetas = np.arange(min(lo + _BLOCK, grid_points) - lo) * (math.pi / grid_points)",
           (f"{BELL}::TestGoldenPath::test_matches_sequential_search",)),
    Mutant("grid stack drops grid_points", "bell_operators.py", GRID,
           "thetas = np.arange(lo, min(lo + _BLOCK, grid_points)) * (math.pi / 64)",
           (f"{BELL}::TestGoldenPath::test_matches_sequential_search",
            f"{BELL}::TestBatchedEvaluator::test_grid_best_index_matches_scalar_path")),
    Mutant("golden lookahead at depth 1", "bell_operators.py",
           "_GOLDEN_DEPTH = 3", "_GOLDEN_DEPTH = 1",
           (f"{BELL}::TestBatchedEvaluator::test_evaluator_calls_per_search",)),
    Mutant("the first golden stack asks only x1 and x2", "bell_operators.py",
           "    bracket = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))\n",
           "    bracket = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))\n"
           "    known.update(zip(bracket[2:], f(list(bracket[2:])).tolist()))\n",
           (f"{BELL}::TestBatchedEvaluator::test_evaluator_calls_per_search",)),
    Mutant("golden requests cut into stacks of at most 1 MB", "bell_operators.py",
           "_real_part(np.vecdot(\n            psi, _scatter(_operators(m, dim_b, angles), at, side)"
           " @ psi)),",
           "np.concatenate([_real_part(np.vecdot(psi, _scatter(_operators(\n"
           "            m, dim_b, angles[i:i + _BLOCK * MAX_ORACLE_DIM**2 // side**2]), at, side)"
           " @ psi))\n            for i in range(0, len(angles), _BLOCK * MAX_ORACLE_DIM**2"
           " // side**2)]),",
           (f"{BELL}::TestBatchedEvaluator::test_evaluator_calls_per_search",)),
    Mutant("the grid contracts as (ops @ psi) @ psi.conj()", "bell_operators.py",
           "np.vecdot(psi, ops @ psi) for psi in psis", "(ops @ psi) @ psi.conj() for psi in psis",
           (f"{BELL}::TestBatchedEvaluator::test_grid_values_take_the_golden_rule",)),
    Mutant("a later stack wins a tie", "bell_operators.py",
           "ahead = new > top", "ahead = new >= top",
           (f"{BELL}::TestGoldenLookahead::test_flat_family_matches_sequential_search",)),
    Mutant("_real_part never raises", "bell_operators.py",
           "if not residue.max() <= IMAG_TOL:", "if False:",
           (f"{BELL}::test_checkers_reject_non_finite",)),
    Mutant("_check_hermitian at 1e3 x HERMITIAN_TOL", "bell_operators.py",
           "if not defect <= HERMITIAN_TOL:", "if not defect <= 1e3 * HERMITIAN_TOL:",
           (f"{BELL}::test_hermitian_check_is_at_hermitian_tol",)),
    Mutant("theorem gate at 1e-6", "harness.py",
           "t1 >= -THEOREM_TOL, t2 >= -THEOREM_TOL", "t1 >= -1e-6, t2 >= -1e-6",
           (f"{HARNESS}::TestRunSweep::test_violations_match_record_flags",)),
    Mutant("_atomic_output writes the target in place", "harness.py",
           "tmp = os.path.join(os.path.dirname(target),  # not the target's name, which may "
           "fill NAME_MAX\n"
           '                       f".bellbound.{os.getpid()}.{os.urandom(6).hex()}.tmp")',
           "tmp = target",
           (f"{HARNESS}::TestRunSweep::test_failed_run_keeps_the_file_it_would_replace",
            f"{HARNESS}::TestRunSweep::test_two_writers_of_one_file")),
    Mutant("_atomic_output names its file by pid only", "harness.py",
           ".bellbound.{os.getpid()}.{os.urandom(6).hex()}.tmp",
           ".bellbound.{os.getpid()}.tmp",
           (f"{HARNESS}::TestRunSweep::test_two_writers_of_one_file",)),
    Mutant("closed_forms pairs c1 c3 + c2 c4", "bounds.py",
           "np.vecdot(rows[:, 0:paired:2], rows[:, 1:paired:2])",
           "np.vecdot(rows[:, 0:paired // 2], rows[:, paired // 2:paired])",
           (f"{HARNESS}::TestSweepKernel::test_records_match_scalar_api",)),
    Mutant("closed_forms drops gamma for odd m", "bounds.py",
           "gamma = [x ** 2 for x in rows[:, -1].tolist()] if m % 2 else [0.0] * len(rows)",
           "gamma = [0.0] * len(rows)",
           (f"{HARNESS}::TestSweepKernel::test_records_match_scalar_api",)),
    Mutant("closed_forms' upper uses hypot(1, K)", "bounds.py",
           "[2.0 * x for x in h]", "[2.0 * math.hypot(1.0, k_i) for k_i in k]",
           (f"{BOUNDS}::TestExactReference::test_columns_are_within_a_few_ulps",)),
    Mutant("_family flips the sign of the which = 1 part", "bell_operators.py",
           "np.array([1.0, -1.0])[:, None, None]", "np.array([1.0, 1.0])[:, None, None]",
           (f"{BELL}::TestBatchedEvaluator::test_operators_equal_kron_reference",)),
    Mutant("each entry is checked against itself", "bell_operators.py",
           "np.searchsorted(at, (j * n + l) * m * n + i * n + k)", "np.arange(len(at))",
           (f"{BELL}::TestCompactCheck::test_agrees_with_the_dense_check",
            f"{BELL}::TestCompactCheck::test_positions_are_closed_under_transposition")),
    Mutant("positions not closed under transposition", "bell_operators.py",
           "at = np.flatnonzero(mask | mask.T)", "at = np.flatnonzero(mask)",
           (f"{BELL}::TestCompactCheck::test_asymmetric_pattern_is_refused",)),
    Mutant("verify exits on a gap beyond 10 x ORACLE_TOL", "cli.py",
           "if not d.max_gap <= ORACLE_TOL", "if not d.max_gap <= 10 * ORACLE_TOL",
           (f"{CLI}::TestVerify::test_gap_beyond_oracle_tol_exits_one",)),
    Mutant("_seed_words treats every index as one word", "harness.py",
           "width = len(_words(lo))\n        hi = min(stop, 1 << 32 * width)",
           "width = 1\n        hi = stop",
           (f"{HARNESS}::TestSeedDerivation::test_matches_numpy_seeding",)),
    Mutant("the block check hashes its own SeedSequence", "harness.py",
           "owner = schmidt_state.substream(seed, m, index)",
           "owner = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, m, index))))",
           (f"{HARNESS}::TestSeedDerivation::test_block_is_checked_against_substream",)),
    Mutant("the block check calls the traced substream", "harness.py",
           "owner = schmidt_state.substream(", "owner = substream(",
           (f"{HARNESS}::TestSeedDerivation::test_block_check_calls_no_traced_substream",)),
    Mutant("_iter_chunks reads whichever pipe is ready", "harness.py", IN_ORDER, AS_READY,
           (f"{HARNESS}::TestRunSweep::test_chunks_leave_in_submission_order",)),
    Mutant("forked worker w runs worker w - 1's share", "harness.py",
           "islice(tasks, w, None, workers)", "islice(tasks, w - 1, None, workers)",
           (f"{HARNESS}::TestRunSweep::test_worker_w_runs_every_wth_chunk",)),
    Mutant("minimum ignored", "harness.py",
           "min(requested, cpus, max(1, work // minimum))", "min(requested, cpus)",
           (f"{HARNESS}::TestRunSweep::test_forks_only_where_a_worker_pays",)),
    Mutant("chunks cut for the requested count", "harness.py",
           "max(64, -(-config.samples // workers))", "max(64, -(-config.samples // requested))",
           (f"{HARNESS}::TestRunSweep::test_pool_capped_at_usable_cpus",)),
    Mutant("one field folds by the wrong rule (max in place of min)", "harness.py",
           'min_theorem1_margin: float | None = field(metadata={"fold": min})',
           'min_theorem1_margin: float | None = field(metadata={"fold": max})',
           (f"{HARNESS}::TestFoldedSummaries::test_sweep_summary_does_not_depend_on_chunking",)),
    Mutant("a worker waits for its credit before computing", "harness.py",
           COMPUTE + " " * 16 + WAIT, WAIT + " " * 16 + COMPUTE,
           (f"{HARNESS}::TestForkedRunner::test_no_worker_waits_on_the_caller",)),
    Mutant("a worker never waits for its credit", "harness.py",
           "credit_in.read(1)", "pass",
           (f"{HARNESS}::TestRunSweep::test_bounded_chunks_in_flight",)),
    Mutant("the credit write goes back inside the read's try", "harness.py",
           READ + REPORT + SUPPRESS + CREDIT, READ + CREDIT + REPORT,
           (f"{HARNESS}::TestForkedRunner::test_dead_worker_is_named_at_its_own_chunk",)),
    Mutant("an OSError while workers start escapes", "harness.py",
           "except OSError as exc:\n                raise WorkerFailedError(",
           "except ArithmeticError as exc:\n                raise WorkerFailedError(",
           (f"{CLI}::TestWorkerSetUp::test_failed_set_up_is_a_worker_failure",)),
    Mutant("a forked worker falls through, not os._exit", "harness.py",
           "os._exit(0)", "pass",
           (f"{HARNESS}::TestForkedRunner::test_children_never_return_into_the_caller",)),
    Mutant("a child leaves by os._exit only when it returned", "harness.py",
           "if os.getpid() != caller:",
           'if os.getpid() != caller and __import__("sys").exc_info()[0] is None:',
           (f"{HARNESS}::TestForkedRunner::test_child_signalled_at_its_fork_ends_alone",
            f"{CLI}::TestInterrupt::test_worker_signalled_at_its_fork_ends_alone")),
    Mutant("_iter_chunks reaps no child", "harness.py",
           "os.waitpid(pid, 0)", "pass",
           (f"{HARNESS}::TestForkedRunner::test_every_child_is_reaped",)),
    Mutant("run() never freezes the collector", "cli.py",
           "gc.freeze()  #", "pass  #",
           (f"{CLI}::TestModuleEntryPoint::"
            "test_run_freezes_the_collector_and_atexit_handlers_still_run",)),
    Mutant("run() lets a closed stdout through", "cli.py",
           "except BrokenPipeError as exc:", "except ZeroDivisionError as exc:",
           (f"{CLI}::TestModuleEntryPoint::test_closed_stdout_is_a_one_line_domain_error",)),
    Mutant("main() freezes the collector too", "cli.py",
           "        return 1\n\n\ndef _interrupt",
           "        return 1\n    finally:\n        gc.freeze()\n\n\ndef _interrupt",
           (f"{CLI}::TestModuleEntryPoint::test_main_never_freezes_the_collector",)),
    Mutant("run() installs no SIGTERM or SIGHUP handler", "cli.py",
           "signal.signal(signum, _interrupt)", "pass",
           (f"{CLI}::TestInterrupt::test_ctrl_c_leaves_nothing_behind",)),
    Mutant("a MemoryError escapes main()", "cli.py",
           "except MemoryError as exc:", "except ZeroDivisionError as exc:",
           (f"{CLI}::TestSweep::test_failed_allocation_is_one_line",)),
    Mutant("Haar draws keep only the real part", "schmidt_state.py",
           "np.linalg.svd(z[:, 0] + 1j * z[:, 1], compute_uv=False)",
           "np.linalg.svd(z[:, 0], compute_uv=False)",
           (f"{HARNESS}::TestDrawKernel::test_mean_purity_matches_its_exact_value",)),
    Mutant("_draw_block ignores the offset", "harness.py",
           "stop - start, measure, m, m + offset)", "stop - start, measure, m, m)",
           (f"{HARNESS}::TestDrawKernel::test_mean_purity_matches_its_exact_value",)),
    Mutant("simplex draws uniform variates", "schmidt_state.py",
           "rng.standard_exponential(out=p[row])", "rng.random(out=p[row])",
           (f"{HARNESS}::TestDrawKernel::test_mean_purity_matches_its_exact_value",)),
    Mutant("validate_rows skips the descending-order check", "schmidt_state.py",
           "(rows[:, :-1] < rows[:, 1:]).any(axis=1)", "np.zeros(len(rows), bool)",
           (f"{SCHMIDT}::TestValidateRows::test_names_first_failing_index",)),
    Mutant("the fused test drops the nonincreasing check", "schmidt_state.py",
           " and (rows[:, :-1] >= rows[:, 1:]).all()", "",
           (f"{SCHMIDT}::TestValidateRows::test_fused_test_decides_as_the_per_check_rules",)),
    Mutant("the caller keeps every violation", "harness.py",
           "violations.extend(found[:MAX_VIOLATIONS - len(violations)])",
           "violations.extend(found)",
           (f"{HARNESS}::TestRunSweep::"
            "test_failing_sweep_keeps_the_first_violations_and_counts_all",
            f"{HARNESS}::TestRunSweep::test_failing_sweep_memory_does_not_grow_with_samples")),
    Mutant("schmidt_state imports json again", "schmidt_state.py",
           "import math\n", "import json\nimport math\n",
           (f"{CLI}::TestImportPath::test_subcommand_loads_only_its_modules",)),
    Mutant("sweep exits 0 on theorem violations", "cli.py",
           "return 1 if summary.violations else 0", "return 0",
           (f"{CLI}::TestSweep::test_theorem_violations_exit_one_with_one_line_each",)),
    Mutant("sweep drops its TheoremViolation lines", "cli.py",
           "for v in summary.violations:", "for v in ():",
           (f"{CLI}::TestSweep::test_theorem_violations_exit_one_with_one_line_each",)),
    Mutant("scatter_cb sorts by bell_value", "harness.py",
           "sorted(group, key=operator.itemgetter(1))", "sorted(group, key=operator.itemgetter(2))",
           (f"{HARNESS}::TestScatterCb::test_rows_sorted_and_within_envelopes",)),
    Mutant("verify_oracle checks its shapes only once a chunk runs", "harness.py",
           "    for m in config.dims:\n"
           "        oracle_guard(m, m + config.second_dim_offset, grid_points)\n", "",
           (f"{HARNESS}::TestVerifyOracle::test_refuses_before_any_fork_or_draw",)),
    Mutant("a bad draw loses its sample label", "harness.py",
           'validate_rows(rows, start, f"sample m={m} ")', "validate_rows(rows, start)",
           (f"{HARNESS}::TestSweepKernel::test_invalid_draw_names_sample",)),
    Mutant("a cross-flag usage error goes through the top-level parser", "cli.py",
           "set_defaults(func=handler, parser=p)", "set_defaults(func=handler, parser=parser)",
           (f"{CLI}::test_bad_input_exit_code",)),
    Mutant("an unknown flag goes through the top-level parser", "cli.py",
           'args.parser.error(f"unrecognized', 'build_parser().error(f"unrecognized',
           (f"{CLI}::test_bad_input_exit_code",)),
    Mutant("the subcommand parsers keep argparse's own negative-number rule", "cli.py",
           "        p._negative_number_matcher = _SIGNED_VALUE\n", "",
           (f"{CLI}::TestJn::test_leading_minus_value_as_two_tokens",)),
    Mutant("the top-level parser keeps argparse's own negative-number rule", "cli.py",
           "parser._negative_number_matcher = _SIGNED_VALUE", "pass",
           (f"{CLI}::test_bad_input_exit_code",)),
    Mutant("classical_bound's reused buffer skips np.abs", "bounds.py",
           "np.abs(np.matmul(signs, n_matrix.entries, out=products), out=products)",
           "np.matmul(signs, n_matrix.entries, out=products)",
           (f"{BOUNDS}::TestClassicalBound::test_reduction_matches_naive_enumeration",)),
    Mutant("classical_bound rewrites one high bit too few", "bounds.py",
           "signs[:, low:] = _sign_space(n, start, start + 1)[0, low:]",
           "signs[:, low + 1:] = _sign_space(n, start, start + 1)[0, low + 1:]",
           (f"{BOUNDS}::TestClassicalBound::test_shared_sign_block_keeps_every_bit",)),
]


TIMEOUT = 600  # seconds for one run of pytest


def run_tests(tree: Path, tests) -> tuple[int | None, str]:
    """pytest's exit code and output on ``tests`` in ``tree``, stopping at the first failure.
    A run past ``TIMEOUT`` seconds has its session killed and returns no exit code."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
            cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            start_new_session=True) as proc:  # a mutant that signals its group ends only its run
        try:
            output = proc.communicate(timeout=TIMEOUT)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest, unreaped, and every process it forked
            proc.communicate()
            return None, ""
    return proc.returncode, output


def verdict(code: int | None, output: str, tests) -> str:
    """The outcome of one mutant from its run's exit code (None for a timeout) and output.

    It is killed only when pytest exits 1 (tests failed) and a ``FAILED`` or ``ERROR`` line
    names one of ``tests``, a parametrised id standing for its function.  Exit 0 is a
    survivor.  Any other exit (a collection error, ``INTERNALERROR``, a usage error) or a
    timeout is ``BROKEN``: pytest did not run the tests to their end.
    """
    if code == 0:
        return "SURVIVED"
    if code != 1:
        return "BROKEN (timeout)" if code is None else f"BROKEN (pytest exit {code})"
    named = (line.split()[1].partition("[")[0] for line in output.splitlines()
             if line.startswith(("FAILED ", "ERROR ")))
    return next((f"killed by {test}" for test in named if test in tests), "SURVIVED")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    if len(chosen) != (len(argv) or len(MUTANTS)):
        known = "\n  ".join(m.name for m in MUTANTS)
        print(f"unknown mutant name; the mutants are:\n  {known}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="bellbound-mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        tests = sorted({test for m in chosen for test in m.tests})
        code, output = run_tests(tree, tests)
        if code != 0:  # None: the run timed out
            print(f"the tests do not pass with no mutant applied (exit {code}):\n{output}",
                  file=sys.stderr)
            return 1
        bad = 0
        for mutant in chosen:
            source = tree / "src" / "bellbound" / mutant.path
            original = source.read_text()
            if original.count(mutant.old) != 1:
                outcome = "STALE"
            else:
                source.write_text(original.replace(mutant.old, mutant.new))
                try:
                    outcome = verdict(*run_tests(tree, mutant.tests), mutant.tests)
                finally:
                    source.write_text(original)
            bad += not outcome.startswith("killed")
            print(f"{mutant.name:<45} {outcome}", flush=True)
        print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
