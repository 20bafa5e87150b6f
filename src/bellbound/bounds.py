"""Closed-form quantities: K, gamma, the Bell value, concurrence bounds, the
Bell coefficient matrix with its exhaustive classical bound J(N), and the
nonlocality certificate.  The dense oracle in ``bell_operators`` imports them.

The two bound theorems checked throughout the package read, for even m,

    sqrt(2 (1 + C^2))  <=  B  <=  2 sqrt(1 + C^2),

with B the theta-maximum of the measurement family and C the concurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, NegativeInputError, OddDimensionError, TooLargeError
from .schmidt_state import SchmidtVector, concurrence
from .tolerances import CERT_MARGIN, MAX_EXHAUSTIVE_N, MAX_NAIVE_N

__all__ = [
    "BellCoefficientMatrix",
    "CHSH_MATRIX",
    "BoundReport",
    "NonlocalityCertificate",
    "k_value",
    "gamma_value",
    "bell_value_formula",
    "theta_star",
    "upper_bound",
    "lower_bound",
    "closed_forms",
    "core_inequalities",
    "classical_bound",
    "classical_bound_naive",
    "nonlocality_certificate",
    "is_nonlocal_certified",
    "bound_report",
]


@dataclass(frozen=True, eq=False)
class BellCoefficientMatrix:
    """Real n x n coefficient matrix defining a two-party Bell expression."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvariantError("entries must be a square real matrix")
        if not np.all(np.isfinite(arr)):
            raise InvariantError("entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


#: The CHSH coefficient matrix, classical bound 2.
CHSH_MATRIX = BellCoefficientMatrix(np.array([[1.0, 1.0], [1.0, -1.0]]))


def k_value(s: SchmidtVector) -> float:
    """Paired-coefficient sum ``K = 2 (c1 c2 + c3 c4 + ...)``.

    Consecutive pairs of the descending-sorted coefficients; for odd m the
    last coefficient is left out (it enters through :func:`gamma_value`).
    """
    c = s.coeffs
    paired = 2 * (c.size // 2)
    return 2.0 * float(np.dot(c[0:paired:2], c[1:paired:2]))


def gamma_value(s: SchmidtVector) -> float:
    """``gamma = c_m^2`` for odd m, 0 for even m."""
    return float(s.coeffs[-1] ** 2) if s.m % 2 else 0.0


def bell_value_formula(s: SchmidtVector) -> float:
    """Theta-maximum of the family's expectation:
    ``B = 2 sqrt((1 - gamma)^2 + K^2) + 2 gamma``."""
    g = gamma_value(s)
    return 2.0 * math.hypot(1.0 - g, k_value(s)) + 2.0 * g


def theta_star(s: SchmidtVector) -> float:
    """Maximizing angle ``atan2(K, 1 - gamma)`` of the theta-family."""
    return math.atan2(k_value(s), 1.0 - gamma_value(s))


def upper_bound(c: float) -> float:
    """Upper Bell-value envelope ``2 sqrt(1 + c^2)`` at concurrence ``c``."""
    if not c >= 0.0:
        raise NegativeInputError(f"concurrence must be nonnegative, got {c!r}")
    return 2.0 * math.hypot(1.0, c)


def lower_bound(c: float) -> float:
    """Lower Bell-value envelope ``sqrt(2 (1 + c^2))`` at concurrence ``c``."""
    if not c >= 0.0:
        raise NegativeInputError(f"concurrence must be nonnegative, got {c!r}")
    return math.sqrt(2.0) * math.hypot(1.0, c)


def closed_forms(rows: np.ndarray) -> tuple[list, ...]:
    """Closed forms of every row of an ``(N, m)`` block of canonical coefficients.

    Returns the columns ``(concurrence, k, gamma, bell_value, upper, lower,
    certified_nonlocal)`` as lists, each entry bit-identical to the scalar
    function of that name on the row: ``sum(axis=1)`` and ``np.vecdot``
    reduce a row exactly as ``sum()`` and ``np.dot`` reduce a vector, and
    the scalar steps stay on Python floats (``np.hypot`` need not match
    ``math.hypot`` to the last ulp).
    """
    m = rows.shape[1]
    p = rows * rows
    paired = 2 * (m // 2)
    k = (2.0 * np.vecdot(rows[:, 0:paired:2], rows[:, 1:paired:2])).tolist()
    # Python's float ** calls libm pow, as the scalar gamma_value does;
    # numpy's array ** 2 squares, which differs in the last ulp
    gamma = [x ** 2 for x in rows[:, -1].tolist()] if m % 2 else [0.0] * len(rows)
    c = [2.0 * math.sqrt(max(0.5 * (t ** 2 - q), 0.0))
         for t, q in zip(p.sum(axis=1).tolist(), np.vecdot(p, p).tolist())]
    b = [2.0 * math.hypot(1.0 - g, k_i) + 2.0 * g for k_i, g in zip(k, gamma)]
    h = [math.hypot(1.0, c_i) for c_i in c]
    root2 = math.sqrt(2.0)
    even = m % 2 == 0
    cert = [(even and c_i > 1.0) or b_i > 2.0 + CERT_MARGIN for c_i, b_i in zip(c, b)]
    return c, k, gamma, b, [2.0 * x for x in h], [root2 * x for x in h], cert


def core_inequalities(s: SchmidtVector) -> tuple[float, float, float, float]:
    """Both sides of the two scalar inequalities behind the even-m bounds.

    Returns ``(lhs5, rhs5, lhs10, rhs10)`` where the bound proofs need
    ``lhs5 = sum_{i<j} c_i^2 c_j^2 >= (K/2)^2 = rhs5`` and
    ``lhs10 = 1 + 2 K^2 >= C^2 = rhs10``.  The pair sum here is the literal
    double loop, deliberately independent of the power-sum shortcut used by
    :func:`~bellbound.schmidt_state.concurrence`.
    """
    if s.m % 2:
        raise OddDimensionError(f"even m required, got m={s.m}")
    p = s.coeffs * s.coeffs
    lhs5 = float(np.triu(np.outer(p, p), k=1).sum())
    k = k_value(s)
    rhs5 = (0.5 * k) ** 2
    lhs10 = 1.0 + 2.0 * k * k
    rhs10 = concurrence(s) ** 2
    return lhs5, rhs5, lhs10, rhs10


def _sign_space(bits: int, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the sign vectors in {-1,1}^bits in binary
    counting order: bit k of the row number is set where entry k is -1."""
    idx = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((idx[:, None] >> np.arange(bits)[None, :]) & 1)


def classical_bound(n_matrix: BellCoefficientMatrix) -> float:
    """Exhaustive classical bound ``J = sup |sum_ij N_ij a_i b_j|``.

    For any fixed sign vector ``a`` the optimal ``b_j`` is the sign of the column sum
    ``sum_i N_ij a_i``, so the supremum is ``max_a sum_j |sum_i N_ij a_i|``; and
    ``(a, b) -> (-a, -b)`` leaves the objective unchanged, so ``a_n`` can be pinned to +1:
    the first half of the sign rows (both reductions are checked against
    :func:`classical_bound_naive`).  Rows go in chunks of 2^12 sharing their 12 low bits:
    one sign block, whose high-bit columns are rewritten per chunk, and one product buffer
    of its shape, 1.2 MB for both at n = 18, fit a 2 MB L2.  The bits match 2^14-row chunks
    (at 2^11 OpenBLAS rounds some rows otherwise).  Overflow raises :class:`TooLargeError`.
    """
    n = n_matrix.n
    if n > MAX_EXHAUSTIVE_N:
        raise TooLargeError(f"exhaustive search guard: n={n} exceeds {MAX_EXHAUSTIVE_N}")
    best, total, low = 0.0, 1 << (n - 1), 12
    signs = _sign_space(n, 0, min(total, 1 << low))
    products = np.empty(signs.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, total, len(signs)):
            signs[:, low:] = _sign_space(n, start, start + 1)[0, low:]
            np.abs(np.matmul(signs, n_matrix.entries, out=products), out=products)
            best = max(best, _finite(products.sum(axis=1).max()))
    return best


def classical_bound_naive(n_matrix: BellCoefficientMatrix) -> float:
    """Reference value of J by brute force over every (a, b) sign pair."""
    n = n_matrix.n
    if n > MAX_NAIVE_N:
        raise TooLargeError(f"naive enumeration guard: n={n} exceeds {MAX_NAIVE_N}")
    signs = _sign_space(n, 0, 1 << n)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.abs(signs @ n_matrix.entries @ signs.T).max())


def _finite(bound) -> float:
    """``bound`` as a float; :class:`TooLargeError` when it overflowed float64."""
    if not math.isfinite(bound):
        raise TooLargeError(f"classical bound is not finite in float64, got {float(bound)!r}")
    return float(bound)


@dataclass(frozen=True)
class NonlocalityCertificate:
    """Which sufficient condition, if any, certified a state as nonlocal."""

    concurrence_above_one: bool
    bell_above_classical: bool

    @property
    def certified(self) -> bool:
        return self.concurrence_above_one or self.bell_above_classical


def nonlocality_certificate(s: SchmidtVector) -> NonlocalityCertificate:
    """Evaluate both certification criteria for a state.

    ``concurrence_above_one`` needs even m (that is where C > 1 implies a
    Bell violation through the lower envelope); ``bell_above_classical``
    asks for the closed-form B to clear 2 by the strict margin
    ``CERT_MARGIN``, guarding against floating-point false positives.
    """
    return NonlocalityCertificate(
        concurrence_above_one=(s.m % 2 == 0 and concurrence(s) > 1.0),
        bell_above_classical=(bell_value_formula(s) > 2.0 + CERT_MARGIN),
    )


def is_nonlocal_certified(s: SchmidtVector) -> bool:
    """True iff either certification criterion fires; see
    :func:`nonlocality_certificate` for which one."""
    return nonlocality_certificate(s).certified


@dataclass(frozen=True)
class BoundReport:
    """Every closed-form quantity for one state, with the bound margins."""

    concurrence: float
    k: float
    gamma: float
    bell_value: float
    upper: float
    lower: float
    classical: float
    theorem1_margin: float
    theorem2_margin: float
    certified_nonlocal: bool

    def to_json(self) -> str:
        """Flat JSON object, field names as declared."""
        import json  # here alone: no other CLI call loads the codec
        return json.dumps(vars(self))


def bound_report(s: SchmidtVector) -> BoundReport:
    """Assemble a :class:`BoundReport` for one state.

    The ``classical`` field is the exhaustive CHSH value (2); the margins
    are ``upper - bell_value`` and ``bell_value - lower``, nonnegative for
    even m up to tolerance.
    """
    (c,), (k,), (g,), (b,), (up,), (lo,), (cert,) = closed_forms(s.coeffs[None, :])
    return BoundReport(concurrence=c, k=k, gamma=g, bell_value=b, upper=up, lower=lo,
                       classical=classical_bound(CHSH_MATRIX), theorem1_margin=up - b,
                       theorem2_margin=b - lo, certified_nonlocal=cert)
