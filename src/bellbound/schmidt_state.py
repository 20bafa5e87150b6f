"""Bipartite pure states through their Schmidt coefficients.

A pure state of an m x n system (m <= n) is represented by the ordered
nonnegative coefficients ``c_1 >= ... >= c_m >= 0`` of its Schmidt form
``sum_i c_i |i>|i>``, with the local Schmidt bases identified with the first
m computational basis vectors of each factor.  Every quantity downstream --
concurrence, Bell values, bound margins -- depends on the state only through
these coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InvariantError,
    NegativeCoefficientError,
    NonFiniteCoefficientError,
    ZeroVectorError,
    integer_arg,
)
from .tolerances import NORM_TOL, ZERO_TOL

__all__ = [
    "SchmidtVector",
    "new_schmidt",
    "concurrence",
    "max_concurrence",
    "effective_rank",
    "sample_haar",
    "sample_simplex",
    "validate_rows",
    "substream",
    "MEASURES",
]

MEASURES = ("haar", "simplex")  # the draw kernel's distributions


@dataclass(frozen=True, eq=False)
class SchmidtVector:
    """Ordered, unit-norm Schmidt coefficients of a bipartite pure state.

    ``coeffs`` must be one-dimensional, nonincreasing, entrywise in [0, 1],
    with squares summing to one within ``NORM_TOL``.  Direct construction
    validates and rejects anything non-canonical; use :func:`new_schmidt`
    to canonicalize raw amplitudes instead.  The stored array is read-only.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=float) + 0.0  # + 0.0 clears the sign of a -0.0
        if arr.ndim != 1 or arr.size == 0:
            raise InvariantError("coeffs must be a nonempty 1-D real array")
        validate_rows(arr[None, :])
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def m(self) -> int:
        """Number of Schmidt slots (declared rank, counting zeros)."""
        return self.coeffs.size

    def to_json(self) -> str:
        """JSON array, shortest round-trip decimals: ``json.dumps``'s bytes for a finite list."""
        return repr(self.coeffs.tolist())

    def __repr__(self) -> str:
        return f"SchmidtVector({self.coeffs.tolist()!r})"


def validate_rows(rows: np.ndarray, first_index: int = 0, label: str = "") -> None:
    """Check the :class:`SchmidtVector` invariants on every row of an ``(N, m)`` block.

    Rows must be finite, entrywise in [0, 1], nonincreasing, with squares summing to one
    within ``NORM_TOL``.  One fused test decides: its reductions start at 0 (an empty block
    passes) and are NaN on a NaN, so NaN and inf fail its range part.  Only on a failure do
    the per-check rules run, to raise :class:`InvariantError` naming the first failing row
    as ``label`` then ``index first_index + row``, and its reason.
    """
    defect = np.abs(np.vecdot(rows, rows) - 1.0)
    if (0.0 <= rows.min(initial=0.0) <= rows.max(initial=0.0) <= 1.0 + NORM_TOL
            and defect.max(initial=0.0) <= NORM_TOL and (rows[:, :-1] >= rows[:, 1:]).all()):
        return
    checks = (
        (~np.isfinite(rows).all(axis=1), "coeffs must be finite"),
        (((rows < 0.0) | (rows > 1.0 + NORM_TOL)).any(axis=1),
         "every coefficient must lie in [0, 1]"),
        ((rows[:, :-1] < rows[:, 1:]).any(axis=1), "coefficients must be nonincreasing"),
        (defect > NORM_TOL, "squares must sum to 1 within {tol:g} (off by {defect:.3e})"),
    )
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    row = int(np.argmax(failing))
    reason = next(text for bad, text in checks if bad[row])
    raise InvariantError(f"{label}index {first_index + row}: "
                         + reason.format(tol=NORM_TOL, defect=float(defect[row])))


def new_schmidt(raw) -> SchmidtVector:
    """Canonicalize raw amplitudes into a :class:`SchmidtVector`.

    Parameters
    ----------
    raw : sequence of float
        Nonnegative amplitudes, in any order, not necessarily normalized.

    Returns
    -------
    SchmidtVector
        The input sorted descending and scaled to unit 2-norm.

    Raises
    ------
    EmptyInputError
        If ``raw`` has no entries.
    NonFiniteCoefficientError
        If any entry is infinite or NaN.
    NegativeCoefficientError
        If any entry is negative.
    ZeroVectorError
        If the 2-norm of ``raw`` is below the zero cutoff.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInputError("need at least one amplitude")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCoefficientError("amplitudes must be finite reals")
    if np.any(arr < 0.0):
        raise NegativeCoefficientError("amplitudes must be nonnegative")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(arr))
    if math.isinf(norm):  # squares overflow: rescale by the largest amplitude first
        arr = arr / arr.max()
        norm = float(np.linalg.norm(arr))
    if norm < ZERO_TOL:
        raise ZeroVectorError(f"amplitude norm {norm:.3e} is below {ZERO_TOL:g}")
    return SchmidtVector(np.sort(arr)[::-1] / norm)


def concurrence(s: SchmidtVector) -> float:
    """Concurrence ``C = 2 sqrt(sum_{i<j} c_i^2 c_j^2)`` of a pure state.

    Evaluated through the power-sum identity
    ``2 sum_{i<j} p_i p_j = (sum p_i)^2 - sum p_i^2`` with ``p_i = c_i^2``,
    which is exact and avoids the quadratic pair loop.  Ranges from 0 for
    product states to ``sqrt(2(m-1)/m)`` at the uniform vector.
    """
    p = s.coeffs * s.coeffs
    pair_sum = 0.5 * (float(p.sum()) ** 2 - float(np.dot(p, p)))
    return 2.0 * math.sqrt(max(pair_sum, 0.0))


def max_concurrence(m: int) -> float:
    """Largest concurrence at Schmidt rank ``m``: ``sqrt(2(m-1)/m)``.

    Attained by the uniform coefficient vector ``(1/sqrt(m), ...)``.
    """
    m = integer_arg("m", m, 1)
    return math.sqrt(2.0 * (m - 1) / m)


def effective_rank(s: SchmidtVector) -> int:
    """Count of coefficients above the zero cutoff ``ZERO_TOL``.

    Can be smaller than ``s.m`` for states with trailing (numerical) zeros;
    sweep records report both.
    """
    return int(np.count_nonzero(s.coeffs > ZERO_TOL))


def sample_haar(m: int, n: int, rng: np.random.Generator) -> SchmidtVector:
    """Schmidt spectrum of a Haar-random pure state on an m x n bipartition.

    Draws an ``m x n`` matrix of independent standard complex Gaussians and
    returns its singular values scaled to unit 2-norm; that spectrum is
    distributed exactly as the Schmidt coefficients of a Haar-random state.

    Parameters
    ----------
    m, n : int
        Local dimensions with ``1 <= m <= n``.
    rng : numpy.random.Generator
        Source of randomness; the caller owns seeding.
    """
    m = integer_arg("m", m, 1)
    n = integer_arg("n", n, m)
    return SchmidtVector(_draw_rows([rng], 1, "haar", m, n)[0])


def sample_simplex(m: int, rng: np.random.Generator) -> SchmidtVector:
    """Coefficients with ``c_i^2`` uniform on the probability simplex.

    Normalized exponential variates give the flat Dirichlet distribution on
    the squared coefficients.  Compared with the Haar marginal this measure
    puts much more weight near degenerate spectra, so sweeps run under both.
    """
    m = integer_arg("m", m, 1)
    return SchmidtVector(_draw_rows([rng], 1, "simplex", m, m)[0])


def substream(seed: int, m: int, index: int) -> np.random.Generator:
    """Per-sample generator seeded by the (seed, m, index) triple, which ``integer_arg``
    checks: seed in [0, 2**64), m >= 1, index >= 0.  SeedSequence hashes the triple into
    independent stream state, so draws never depend on scheduling or on chunking."""
    triple = (integer_arg("seed", seed, 0, 2**64), integer_arg("m", m, 1),
              integer_arg("index", index, 0))
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(triple)))


def _draw_rows(streams, count: int, measure: str, m: int, n: int) -> np.ndarray:
    """Unvalidated ``(count, m)`` descending coefficient rows, row i drawn from
    the i-th generator in ``streams``: the one draw kernel of both measures,
    with one stacked SVD for Haar (bitwise equal to per-matrix calls)."""
    if measure == "haar":
        z = np.empty((count, 2, m, n))
        for row, rng in enumerate(streams):
            rng.standard_normal(out=z[row])  # real part, then imaginary
        sv = np.linalg.svd(z[:, 0] + 1j * z[:, 1], compute_uv=False)  # descending
        return sv / np.sqrt(np.vecdot(sv, sv))[:, None]
    p = np.empty((count, m))
    for row, rng in enumerate(streams):
        rng.standard_exponential(out=p[row])
    p /= p.sum(axis=1)[:, None]
    rows = np.sqrt(p)
    rows[:, ::-1].sort(axis=1)  # descending, in place
    return rows
