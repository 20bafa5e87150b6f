"""Bell values and concurrence bounds for bipartite pure states.

The package models states by their Schmidt coefficients, builds the explicit
two-setting measurement family, evaluates Bell values both in closed form
and through a dense-matrix oracle, computes exhaustive classical bounds, and
runs seeded Monte-Carlo sweeps checking the concurrence envelopes

    sqrt(2 (1 + C^2))  <=  B  <=  2 sqrt(1 + C^2)      (even Schmidt rank).
"""

from __future__ import annotations

from . import errors, tolerances
from .bell_operators import (
    CHSH_MATRIX,
    BellCoefficientMatrix,
    BellOperator,
    HermitianObservable,
    assemble_bell,
    build_a,
    build_b,
    expectation,
    max_expectation_grid,
    pauli,
)
from .bounds import (
    BoundReport,
    NonlocalityCertificate,
    bell_value_formula,
    bound_report,
    classical_bound,
    classical_bound_naive,
    core_inequalities,
    gamma_value,
    is_nonlocal_certified,
    k_value,
    lower_bound,
    nonlocality_certificate,
    theta_star,
    upper_bound,
)
from .harness import (
    MEASURES,
    ExperimentConfig,
    OracleSummary,
    SweepSummary,
    run_sweep,
    scatter_cb,
    substream,
    verify_oracle,
)
from .schmidt_state import (
    SchmidtVector,
    concurrence,
    effective_rank,
    max_concurrence,
    new_schmidt,
    sample_haar,
    sample_simplex,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "tolerances",
    "SchmidtVector",
    "new_schmidt",
    "concurrence",
    "max_concurrence",
    "effective_rank",
    "sample_haar",
    "sample_simplex",
    "HermitianObservable",
    "BellCoefficientMatrix",
    "BellOperator",
    "CHSH_MATRIX",
    "pauli",
    "build_a",
    "build_b",
    "assemble_bell",
    "expectation",
    "max_expectation_grid",
    "BoundReport",
    "NonlocalityCertificate",
    "k_value",
    "gamma_value",
    "bell_value_formula",
    "theta_star",
    "upper_bound",
    "lower_bound",
    "core_inequalities",
    "classical_bound",
    "classical_bound_naive",
    "nonlocality_certificate",
    "is_nonlocal_certified",
    "bound_report",
    "MEASURES",
    "ExperimentConfig",
    "SweepSummary",
    "OracleSummary",
    "run_sweep",
    "verify_oracle",
    "scatter_cb",
    "substream",
    "__version__",
]
