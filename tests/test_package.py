"""The package namespace: eager core, lazily loaded ``bell_operators``,
``bounds``, ``harness`` and ``cli``, and one public name list."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

import bellbound
from bellbound import bell_operators, bounds, harness, schmidt_state

OWNERS = (schmidt_state, bell_operators, bounds, harness)


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
