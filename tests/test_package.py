"""The package namespace: eager core, lazily loaded ``bell_operators``,
``bounds``, ``harness`` and ``cli``, and one public name list."""

from __future__ import annotations

import subprocess
import sys

import pytest

import bellbound
from bellbound import bell_operators, bounds, harness, schmidt_state

from test_cli import package_env

OWNERS = (schmidt_state, bell_operators, bounds, harness)
LAZY = ("bellbound.bell_operators", "bellbound.bounds", "bellbound.harness", "bellbound.cli")


def test_all_has_no_duplicates():
    assert len(set(bellbound.__all__)) == len(bellbound.__all__)


@pytest.mark.parametrize("name", bellbound.__all__)
def test_public_name_is_its_owners_object(name):
    value = getattr(bellbound, name)
    owners = [module for module in OWNERS if name in module.__all__]
    if name in ("errors", "tolerances", "__version__"):
        assert owners == []
    elif name in ("MEASURES", "substream"):  # schmidt_state's, re-exported by harness
        assert owners == [schmidt_state, harness]
    else:
        assert len(owners) == 1
    for module in owners:
        assert value is getattr(module, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        bellbound.no_such_name
    assert not hasattr(bellbound, "no_such_name")


def fresh(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env(), timeout=120)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_import_loads_no_lazy_module():
    out = fresh("import sys, bellbound\n"
                f"print(sorted(m for m in {LAZY!r} if m in sys.modules))")
    assert out == "[]\n"


def test_star_import_and_dir_list_every_name():
    # dir first: the star import binds every lazy name
    code = ("import bellbound\n"
            "print(sorted(set(bellbound.__all__) - set(dir(bellbound))))\n"
            "names = {}\n"
            "exec('from bellbound import *', names)\n"
            "print(sorted(set(bellbound.__all__) - set(names)))")
    assert fresh(code) == "[]\n[]\n"


def test_first_use_binds_the_owners_names():
    code = ("import sys, bellbound\n"
            "run = bellbound.run_sweep\n"
            "print('bellbound.harness' in sys.modules, run is bellbound.harness.run_sweep,\n"
            "      'bellbound.bell_operators' in sys.modules)\n"
            "print(bellbound.bounds.bound_report is bellbound.bound_report,\n"
            "      bellbound.cli is sys.modules['bellbound.cli'])")
    assert fresh(code) == "True True True\nTrue True\n"
