"""The mutation check of ``tests/mutants.py`` still fits the tree: each mutant's text
occurs exactly once in its source file, each mutant changes that text and leaves a file
that parses, each test named to kill it exists, and README states their number.  The
check itself runs outside the suite; these tests catch a stale mutant at once.  Its
verdict on one run is checked here on canned pytest output, with nothing run."""

from __future__ import annotations

import ast
import re

import pytest

from mutants import MUTANTS, ROOT, verdict

IDS = [mutant.name for mutant in MUTANTS]


def defined_tests(path: str) -> set[str]:
    """The node ids, without parameters, of the test functions and methods in ``path``."""
    tree = ast.parse((ROOT / path).read_text())
    ids = {f"{path}::{node.name}" for node in tree.body if isinstance(node, ast.FunctionDef)}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        ids.update(f"{path}::{cls.name}::{node.name}" for node in cls.body
                   if isinstance(node, ast.FunctionDef))
    return {test for test in ids if test.rpartition("::")[2].startswith("test_")}


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_mutant_text_occurs_once(mutant):
    assert (ROOT / "src" / "bellbound" / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_mutant_is_a_change_that_parses(mutant):
    # a mutant that broke the import would end its run in a collection error, BROKEN
    assert mutant.new != mutant.old
    source = (ROOT / "src" / "bellbound" / mutant.path).read_text()
    ast.parse(source.replace(mutant.old, mutant.new), mutant.path)


@pytest.mark.parametrize("mutant", MUTANTS, ids=IDS)
def test_killers_are_existing_tests(mutant):
    assert mutant.tests
    for test in mutant.tests:
        assert test in defined_tests(test.partition("::")[0]), test


def test_readme_states_the_mutant_count():
    text = " ".join((ROOT / "README.md").read_text().split())  # the count may wrap
    assert re.findall(r"(\d+) mutants\b", text) == [str(len(MUTANTS))]


LISTED = ("tests/test_cli.py::test_bad_input_exit_code",
          "tests/test_cli.py::TestJn::test_leading_minus_value_as_two_tokens")
SUMMARY = "=========================== short test summary info ============================\n"
STOPPED = "!!!!!!!!!!!!!!!!!!!!!!!!!! stopping after 1 failures !!!!!!!!!!!!!!!!!!!!!!!!!!!\n"
# pytest -x -q -rfE output: a parametrised id may hold spaces, and is cut by no message
FAILED_LISTED = ("F\n" + SUMMARY + "FAILED tests/test_cli.py::test_bad_input_exit_code"
                 "[jn --matrix 1,1;1] - Asserti...\n" + STOPPED + "1 failed in 0.85s\n")
FAILED_UNLISTED = (".F\n" + SUMMARY + "FAILED tests/test_cli.py::TestJn::test_chsh_prints_two"
                   " - assert 1 == 0\n" + STOPPED + "1 failed, 1 passed in 0.91s\n")
COLLECTION_ERROR = (
    "\n==================================== ERRORS ====================================\n"
    "_______________________ ERROR collecting tests/test_cli.py ______________________\n"
    "tests/test_cli.py:24: in <module>\n"
    "    from bellbound.cli import _FLAGS, _SUBCOMMANDS, main\n"
    "E   NameError: name 'undefined_name' is not defined\n" + SUMMARY
    + "ERROR tests/test_cli.py - NameError: name 'undefined_name' is not defined\n" + STOPPED
    + "!!!!!!!!!!!!!!!!!!!! Interrupted: 1 error during collection !!!!!!!!!!!!!!!!!!!!\n"
    "1 error in 1.46s\n")
INTERNAL_ERROR = (
    "INTERNALERROR> Traceback (most recent call last):\n"
    'INTERNALERROR>   File ".../_pytest/main.py", line 289, in wrap_session\n'
    "INTERNALERROR>     session.exitstatus = doit(config, session) or 0\n"
    "INTERNALERROR> ValueError: boom\n\nno tests ran in 0.02s\n")


@pytest.mark.parametrize("code,output,outcome", [
    (1, FAILED_LISTED, "killed by tests/test_cli.py::test_bad_input_exit_code"),
    (1, FAILED_UNLISTED, "SURVIVED"),
    (0, "..\n2 passed in 0.40s\n", "SURVIVED"),
    (2, COLLECTION_ERROR, "BROKEN (pytest exit 2)"),
    (3, INTERNAL_ERROR, "BROKEN (pytest exit 3)"),
    (3, FAILED_LISTED, "BROKEN (pytest exit 3)"),  # a listed failure, then a crash
    (None, "", "BROKEN (timeout)"),
], ids=["listed failure", "unlisted failure", "all passed", "collection error",
        "internal error", "listed failure then internal error", "timeout"])
def test_only_a_listed_failure_kills(code, output, outcome):
    assert verdict(code, output, LISTED) == outcome
