"""The package namespace: eager core, lazily loaded ``bell_operators``,
``bounds``, ``harness`` and ``cli``, and one public name list."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import bellbound
from bellbound import bell_operators, bounds, harness, schmidt_state

OWNERS = (schmidt_state, bell_operators, bounds, harness)

SOURCES = [*Path(bellbound.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]

# module-level imports that their module never reads, each bound there for a reader elsewhere
UNREAD_IMPORTS = {
    # bench/tracing.py wraps these names in harness, and tests/test_bench_tracing.py pins that
    ("harness.py", "max_expectation_grid"),
    ("harness.py", "sample_haar"),
    ("harness.py", "sample_simplex"),
    # the eager core: importing bellbound loads the schmidt_state submodule
    ("__init__.py", "schmidt_state"),
}


def unread_imports(path: Path) -> set[tuple[str, str]]:
    """The ``(file name, name)`` of each module-level import in ``path`` that no name in the
    module reads and that its ``__all__`` does not list."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__"
                                                for target in node.targets):
            read.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant))
    imported = [alias.asname or alias.name.partition(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    return {(path.name, name) for name in imported if name not in read}


def test_all_has_no_duplicates():
    assert len(set(bellbound.__all__)) == len(bellbound.__all__)


@pytest.mark.parametrize("name", bellbound.__all__)
def test_public_name_is_its_owners_object(name):
    value = getattr(bellbound, name)
    owners = [module for module in OWNERS if name in module.__all__]
    if name in ("errors", "tolerances", "__version__"):
        assert owners == []
    else:
        assert len(owners) == 1
    for module in owners:
        assert value is getattr(module, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellbound.no_such_name
    assert not hasattr(bellbound, "no_such_name")


def test_dependency_floors_cover_what_the_code_uses():
    # np.vecdot is NumPy 2.0's, and the strict_config and strict_markers ini keys are
    # pytest 9's; read with a regex, since tomllib is Python 3.11's
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    floors = {name: tuple(map(int, version.split(".")))
              for name, version in re.findall(r'"(numpy|pytest)>=([\d.]+)"', text)}
    assert floors.keys() == {"numpy", "pytest"}
    assert floors["numpy"] >= (2, 0) and floors["pytest"] >= (9,)


def test_every_import_is_read():
    assert set().union(*map(unread_imports, SOURCES)) == UNREAD_IMPORTS


def test_star_import_and_dir_list_every_name(fresh):
    # dir first: the star import binds every lazy name
    code = ("import bellbound\n"
            "print(sorted(set(bellbound.__all__) - set(dir(bellbound))))\n"
            "names = {}\n"
            "exec('from bellbound import *', names)\n"
            "print(sorted(set(bellbound.__all__) - set(names)))")
    run = fresh("-c", code)
    assert (run.returncode, run.stdout) == (0, "[]\n[]\n"), run.stderr


def test_first_use_binds_the_owners_names(fresh):
    code = ("import sys, bellbound\n"
            "run = bellbound.run_sweep\n"
            "print('bellbound.harness' in sys.modules, run is bellbound.harness.run_sweep,\n"
            "      'bellbound.bell_operators' in sys.modules)\n"
            "print(bellbound.bounds.bound_report is bellbound.bound_report,\n"
            "      bellbound.cli is sys.modules['bellbound.cli'])")
    run = fresh("-c", code)
    assert (run.returncode, run.stdout) == (0, "True True True\nTrue True\n"), run.stderr
