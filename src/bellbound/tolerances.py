"""Numerical tolerances and size guards, stated once.

Every module and every test pulls its cutoffs from here so that a single
edit retunes the whole package consistently.
"""

from __future__ import annotations

# -- state vectors ----------------------------------------------------------
NORM_TOL = 1e-9          # allowed |sum c_i^2 - 1| on a SchmidtVector
ZERO_TOL = 1e-12         # coefficient below this counts as zero

# -- observables ------------------------------------------------------------
HERMITIAN_TOL = 1e-12    # entrywise |M - M^H| allowed
SPECTRUM_TOL = 1e-9      # slack on the [-1, 1] eigenvalue window
IMAG_TOL = 1e-10         # largest imaginary residue discarded by expectation

# -- theorem checking -------------------------------------------------------
THEOREM_TOL = 1e-9       # margin tolerance of the sweep's theorem checks
ORACLE_TOL = 1e-8        # allowed |closed form - grid maximum|
SATURATION_TOL = 1e-10   # upper-bound margin for two-coefficient states
CERT_MARGIN = 1e-9       # strict excess over the classical value 2

# -- search parameters ------------------------------------------------------
GOLDEN_WIDTH = 1e-10     # golden-section bracket width at termination

# -- size guards ------------------------------------------------------------
MAX_ORACLE_DIM = 64      # largest m*n the dense oracle will assemble
MAX_GRID_POINTS = 1 << 20  # largest grid the dense oracle will scan
MAX_EXHAUSTIVE_N = 24    # classical_bound refuses larger sign spaces
MAX_NAIVE_N = 8          # classical_bound_naive enumerates 4^n pairs
