"""The mutation check of ``tests/mutants.py`` still fits the tree: each mutant's text
occurs exactly once in its source file, each mutant changes that text and leaves a file
that parses, each test named to kill it exists, and README states their number.  The
check itself runs outside the suite; these tests catch a stale mutant at once."""

from __future__ import annotations

import ast
import re

import pytest

from mutants import MUTANTS, ROOT

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
    # a mutant that broke the import would count as killed by the first test to error
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
