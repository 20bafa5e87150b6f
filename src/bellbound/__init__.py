"""Bell values and concurrence bounds for bipartite pure states.

The package models states by their Schmidt coefficients, builds the explicit
two-setting measurement family, evaluates Bell values both in closed form
and through a dense-matrix oracle, computes exhaustive classical bounds, and
runs seeded Monte-Carlo sweeps checking the concurrence envelopes

    sqrt(2 (1 + C^2))  <=  B  <=  2 sqrt(1 + C^2)      (even Schmidt rank).

Importing the package loads only ``errors``, ``tolerances`` and
``schmidt_state``.  ``bell_operators``, ``bounds``, ``harness`` and ``cli``
load on first use of one of their names (PEP 562 module ``__getattr__``), so
a CLI call pays only for the modules its subcommand runs.
"""

from __future__ import annotations

import importlib

from . import errors, schmidt_state, tolerances

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it; every submodule
# here but schmidt_state loads on first use of its own name or one of these
_EXPORTS = {
    "schmidt_state": ("SchmidtVector", "new_schmidt", "concurrence", "max_concurrence",
                      "effective_rank", "sample_haar", "sample_simplex", "substream", "MEASURES"),
    "bell_operators": ("HermitianObservable", "BellCoefficientMatrix", "BellOperator",
                       "CHSH_MATRIX", "pauli", "build_a", "build_b", "assemble_bell",
                       "expectation", "max_expectation_grid"),
    "bounds": ("BoundReport", "NonlocalityCertificate", "k_value", "gamma_value",
               "bell_value_formula", "theta_star", "upper_bound", "lower_bound",
               "core_inequalities", "classical_bound", "classical_bound_naive",
               "nonlocality_certificate", "is_nonlocal_certified", "bound_report"),
    "harness": ("ExperimentConfig", "SweepSummary", "OracleSummary", "run_sweep",
                "verify_oracle", "scatter_cb"),
    "cli": (),
}
_OWNER = {name: owner for owner, names in _EXPORTS.items() for name in names}

__all__ = ["errors", "tolerances", *_OWNER, "__version__"]


def _bind(owner: str):
    """Import module ``owner`` and bind every name the package exports from it."""
    module = importlib.import_module(f".{owner}", __name__)
    globals().update((name, getattr(module, name)) for name in _EXPORTS[owner])
    return module


_bind("schmidt_state")


def __getattr__(name: str):
    """Load a lazy module, or the module that owns a public name, on first use."""
    if name in _EXPORTS:
        return _bind(name)
    if name in _OWNER:
        _bind(_OWNER[name])
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_OWNER})
