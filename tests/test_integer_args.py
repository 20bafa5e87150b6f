"""One table over every library entry point that takes an integer argument.

Each checks it with ``errors.integer_arg``: an integral value in range is taken
as a Python int, and anything else -- a fraction, an integral float, the text of
an accepted value, a value out of range -- raises, never truncated.
"""

from __future__ import annotations

import numpy as np
import pytest

from bellbound import (
    BellOperator,
    ExperimentConfig,
    build_a,
    build_b,
    max_concurrence,
    sample_haar,
    sample_simplex,
)
from bellbound.bell_operators import max_expectation_block
from bellbound.errors import InvalidDimensionError, InvalidIndexError, InvariantError, integer_arg
from bellbound.tolerances import MIN_GRID_POINTS

ROWS = np.array([[0.8, 0.6]])


def config(**fields):
    return ExperimentConfig(**{"dims": (2,), "samples": 1, "seed": 0, **fields})


def rng():
    return np.random.default_rng(7)


# (id, call with the argument under test set to x, an accepted value, a value out of range,
# the error); BellOperator keeps InvariantError, the error of its other invariants
ENTRY_POINTS = [
    ("config-dims", lambda x: config(dims=(4, x)), 2, 0, InvalidDimensionError),
    ("config-samples", lambda x: config(samples=x), 3, 0, InvalidDimensionError),
    ("config-seed", lambda x: config(seed=x), 2**63 - 1, 2**64, InvalidDimensionError),
    ("config-offset", lambda x: config(second_dim_offset=x), 1, -1, InvalidDimensionError),
    ("sample_haar-m", lambda x: sample_haar(x, 4, rng()), 3, 0, InvalidDimensionError),
    ("sample_haar-n", lambda x: sample_haar(3, x, rng()), 4, 2, InvalidDimensionError),
    ("sample_simplex-m", lambda x: sample_simplex(x, rng()), 3, 0, InvalidDimensionError),
    ("max_concurrence-m", max_concurrence, 3, 0, InvalidDimensionError),
    ("build_a-dim", lambda x: build_a(0.3, x, 0), 3, 0, InvalidDimensionError),
    ("build_a-which", lambda x: build_a(0.3, 3, x), 1, 2, InvalidIndexError),
    ("build_b-dim", lambda x: build_b(x, 1), 3, 0, InvalidDimensionError),
    ("build_b-which", lambda x: build_b(3, x), 1, -1, InvalidIndexError),
    ("block-grid_points", lambda x: max_expectation_block(ROWS, 3, x),
     MIN_GRID_POINTS, MIN_GRID_POINTS - 1, InvalidDimensionError),
    ("block-dim_b", lambda x: max_expectation_block(ROWS, x, MIN_GRID_POINTS), 3, 0,
     InvalidDimensionError),
    ("BellOperator-dim_a", lambda x: BellOperator(x, 2, np.eye(6)), 3, 0, InvariantError),
    ("BellOperator-dim_b", lambda x: BellOperator(2, x, np.eye(6)), 3, 0, InvariantError),
]
IDS = [row[0] for row in ENTRY_POINTS]


@pytest.mark.parametrize("_,call,good,out_of_range,error", ENTRY_POINTS, ids=IDS)
@pytest.mark.parametrize("bad", ["fraction", "integral float", "text", "out of range"])
def test_rejects_anything_but_an_integer_in_range(_, call, good, out_of_range, error, bad):
    value = {"fraction": good + 0.5, "integral float": float(good), "text": str(good),
             "out of range": out_of_range}[bad]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("_,call,good,out_of_range,error", ENTRY_POINTS, ids=IDS)
def test_numpy_integer_gives_the_python_int_result(_, call, good, out_of_range, error):
    # repr shows every field, so a kept np.int64 would show as np.int64(...)
    assert repr(call(np.int64(good))) == repr(call(good))


def test_error_names_the_argument_range_and_value():
    with pytest.raises(InvalidDimensionError,
                       match=r"^seed must be an integer in \[0, 18446744073709551616\), got 2\.5$"):
        integer_arg("seed", 2.5, 0, 2**64)
    with pytest.raises(InvalidIndexError, match=r"^which must be an integer >= 0, got '1'$"):
        integer_arg("which", "1", 0, error=InvalidIndexError)
    assert type(integer_arg("m", np.uint8(200), 1)) is int
