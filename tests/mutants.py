"""Mutation check: each mutant of the source below must make one of its tests fail.

    python3 tests/mutants.py [NAME ...]

Copies the checkout's ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every listed test there unchanged; they must pass.  Then, one
mutant at a time, it replaces one exact text in one source file of the copy, runs that
mutant's tests and puts the file back.  Each mutant is printed with the test that killed
it, ``SURVIVED`` (all its tests passed) or ``STALE`` (its text does not occur exactly
once, so the mutant no longer fits the source).  Exits 1 on any survivor or stale
mutant.  The checkout is never written.  pytest does not collect this file (no ``test_``
prefix); a run takes about a minute on 2 CPUs.
"""

from __future__ import annotations

import os
import shutil
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
IN_ORDER = "ok, result = pickle.load(pipes[i % workers])"
AS_READY = 'ok, result = pickle.load(__import__("select").select(pipes, [], [])[0][0])'
GRID = "thetas = np.arange(lo, min(lo + _BLOCK, grid_points)) * (math.pi / grid_points)"

MUTANTS = [
    Mutant("grid stack drops lo", "bell_operators.py", GRID,
           "thetas = np.arange(min(lo + _BLOCK, grid_points) - lo) * (math.pi / grid_points)",
           (f"{BELL}::TestGoldenPath::test_matches_sequential_search",)),
    Mutant("grid stack drops grid_points", "bell_operators.py", GRID,
           "thetas = np.arange(lo, min(lo + _BLOCK, grid_points)) * (math.pi / 64)",
           (f"{BELL}::TestGoldenPath::test_matches_sequential_search",
            f"{BELL}::TestBatchedEvaluator::test_grid_best_index_matches_scalar_path")),
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
           "(t1 >= -THEOREM_TOL).tolist(), (t2 >= -THEOREM_TOL).tolist()",
           "(t1 >= -1e-6).tolist(), (t2 >= -1e-6).tolist()",
           (f"{HARNESS}::TestRunSweep::test_violations_match_record_flags",)),
    Mutant("_atomic_output writes the target in place", "harness.py",
           'tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}."\n'
           '                       f"{os.getpid()}.{os.urandom(6).hex()}.tmp")',
           "tmp = target",
           (f"{HARNESS}::TestRunSweep::test_failed_run_keeps_the_file_it_would_replace",
            f"{HARNESS}::TestRunSweep::test_two_writers_of_one_file")),
    Mutant("_atomic_output names its file by pid only", "harness.py",
           'f"{os.getpid()}.{os.urandom(6).hex()}.tmp"', 'f"{os.getpid()}.tmp"',
           (f"{HARNESS}::TestRunSweep::test_two_writers_of_one_file",)),
    Mutant("closed_forms pairs c1 c3 + c2 c4", "bounds.py",
           "np.vecdot(rows[:, 0:paired:2], rows[:, 1:paired:2])",
           "np.vecdot(rows[:, 0:paired // 2], rows[:, paired // 2:paired])",
           (f"{HARNESS}::TestSweepKernel::test_records_match_scalar_api",)),
    Mutant("closed_forms drops gamma for odd m", "bounds.py",
           "gamma = [x ** 2 for x in rows[:, -1].tolist()] if m % 2 else [0.0] * len(rows)",
           "gamma = [0.0] * len(rows)",
           (f"{HARNESS}::TestSweepKernel::test_records_match_scalar_api",)),
    Mutant("_family flips the sign of the which = 1 part", "bell_operators.py",
           "np.array([1.0, -1.0])[:, None, None]", "np.array([1.0, 1.0])[:, None, None]",
           (f"{BELL}::TestBatchedEvaluator::test_operators_equal_kron_reference",)),
    Mutant("verify exits on a gap beyond 10 x ORACLE_TOL", "cli.py",
           "if not d.max_gap <= ORACLE_TOL", "if not d.max_gap <= 10 * ORACLE_TOL",
           (f"{CLI}::TestVerify::test_gap_beyond_oracle_tol_exits_one",)),
    Mutant("_seed_words treats every index as one word", "harness.py",
           "width = len(_words(lo))\n        hi = min(stop, 1 << 32 * width)",
           "width = 1\n        hi = stop",
           (f"{HARNESS}::TestSeedDerivation::test_matches_numpy_seeding",)),
    Mutant("_iter_chunks reads whichever pipe is ready", "harness.py", IN_ORDER, AS_READY,
           (f"{HARNESS}::TestRunSweep::test_chunks_leave_in_submission_order",)),
    Mutant("a forked worker falls through, not os._exit", "harness.py",
           "os._exit(0)", "pass",
           (f"{HARNESS}::TestForkedRunner::test_children_never_return_into_the_caller",)),
    Mutant("_iter_chunks reaps no child", "harness.py",
           "os.waitpid(pid, 0)", "pass",
           (f"{HARNESS}::TestForkedRunner::test_every_child_is_reaped",)),
    Mutant("validate_rows skips the descending-order check", "schmidt_state.py",
           "(rows[:, :-1] < rows[:, 1:]).any(axis=1)", "np.zeros(len(rows), bool)",
           (f"{SCHMIDT}::TestValidateRows::test_names_first_failing_index",)),
    Mutant("classical_bound's reused buffer skips np.abs", "bounds.py",
           "np.abs(np.matmul(signs, n_matrix.entries, out=products), out=products)",
           "np.matmul(signs, n_matrix.entries, out=products)",
           (f"{BOUNDS}::TestClassicalBound::test_reduction_matches_naive_enumeration",)),
]


def run_tests(tree: Path, tests) -> list[str]:
    """The node ids of the tests that failed (or errored) among ``tests`` in ``tree``;
    stops at the first failure."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600)
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1):  # 1: tests failed; anything else: pytest did not run
        failed.append(f"pytest exit {proc.returncode}: {proc.stdout[-300:]}{proc.stderr[-300:]}")
    return failed


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
        broken = run_tests(tree, tests)
        if broken:
            print(f"the tests fail with no mutant applied: {broken}", file=sys.stderr)
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
                    failed = run_tests(tree, mutant.tests)
                finally:
                    source.write_text(original)
                outcome = f"killed by {failed[0]}" if failed else "SURVIVED"
            bad += not outcome.startswith("killed")
            print(f"{mutant.name:<45} {outcome}", flush=True)
        print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
