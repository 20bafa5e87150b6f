"""Measurement observables of the two-setting family and dense Bell operators.

The first party measures ``A_0, A_1`` built from block copies of
``cos(theta) s3 +/- sin(theta) s1`` over consecutive basis pairs; the second
party measures block copies of ``s3`` and ``s1``.  Odd local dimensions end
in a scalar block equal to 1.  Contracted against the CHSH coefficient
matrix ``[[1, 1], [1, -1]]`` this family realizes the closed-form Bell value
``2 sqrt((1-gamma)^2 + K^2) + 2 gamma`` as its theta-maximum; the dense
evaluation path in this module is the independent numerical oracle for that
formula.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidIndexError,
    InvariantError,
    LengthMismatchError,
    NonHermitianResidueError,
    TooLargeError,
    integer_arg,
)
from .schmidt_state import SchmidtVector
from .tolerances import (
    GOLDEN_WIDTH,
    HERMITIAN_TOL,
    IMAG_TOL,
    MAX_GRID_POINTS,
    MAX_ORACLE_DIM,
    MIN_GRID_POINTS,
    SPECTRUM_TOL,
)

__all__ = [
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
]


def _check_hermitian(stack: np.ndarray, what: str, work=None) -> None:
    """Each matrix on the last two axes is Hermitian within ``HERMITIAN_TOL`` entrywise;
    like every check here, written so that a NaN fails it.  ``work``: (complex, real) scratch."""
    diff, mag = work or (np.empty_like(stack), np.empty(stack.shape))
    np.subtract(stack, np.conjugate(stack.swapaxes(-1, -2), out=diff), out=diff)
    defect = float(np.abs(diff, out=mag).max())
    if not defect <= HERMITIAN_TOL:
        raise InvariantError(f"{what} is not Hermitian (defect {defect:.3e})")


def _check_observables(stack: np.ndarray) -> None:
    """``_check_hermitian``, and each spectrum inside [-1, 1] within ``SPECTRUM_TOL``."""
    _check_hermitian(stack, "matrix")
    eigs = np.linalg.eigvalsh(stack)
    lo, hi = eigs.min(), eigs.max()
    if not (-1.0 - SPECTRUM_TOL <= lo and hi <= 1.0 + SPECTRUM_TOL):
        raise InvariantError(f"spectrum [{lo:.6f}, {hi:.6f}] leaves [-1, 1]")


def _real_part(values):
    """``values.real`` of a NumPy complex scalar or array of expectations, which a
    Hermitian operator makes real: a residue beyond ``IMAG_TOL`` aborts, never dropped."""
    residue = abs(values.imag)
    if not residue.max() <= IMAG_TOL:
        worst = values.imag.flat[residue.argmax()]
        raise NonHermitianResidueError(f"imaginary residue {worst:.3e} exceeds {IMAG_TOL:g}")
    return values.real


_SIGMA = {
    1: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    2: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    3: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True, eq=False)
class HermitianObservable:
    """Dense complex Hermitian matrix with spectrum inside [-1, 1].

    Hermiticity is required within ``HERMITIAN_TOL`` entrywise and the
    eigenvalue window within ``SPECTRUM_TOL``; both are checked at
    construction so downstream code never revalidates.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.entries, dtype=complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvariantError("entries must be a square matrix")
        _check_observables(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


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


@dataclass(frozen=True, eq=False)
class BellOperator:
    """Assembled Bell operator on the (dim_a * dim_b)-dimensional product space."""

    dim_a: int
    dim_b: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        for name in ("dim_a", "dim_b"):
            object.__setattr__(self, name, integer_arg(name, getattr(self, name), 1,
                                                       error=InvariantError))
        side = self.dim_a * self.dim_b
        arr = np.array(self.entries, dtype=complex)
        if arr.shape != (side, side):
            raise InvariantError(f"entries must be {side} x {side}, got {arr.shape}")
        _check_hermitian(arr, "operator")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)


def pauli(k: int) -> HermitianObservable:
    """Pauli matrix ``sigma_k`` for ``k`` in {1, 2, 3}, as an observable."""
    if k not in _SIGMA:
        raise InvalidIndexError(f"Pauli index must be 1, 2 or 3, got {k!r}")
    return HermitianObservable(_SIGMA[k])


def _block_repeat(block: np.ndarray, dim: int, tail: float = 1.0) -> np.ndarray:
    """Tile a 2x2 block down the diagonal; odd dims end in the scalar ``tail``."""
    out = np.zeros((dim, dim), dtype=complex)
    pairs = dim // 2
    if pairs:
        out[: 2 * pairs, : 2 * pairs] = np.kron(np.eye(pairs), block)
    if dim % 2:
        out[-1, -1] = tail
    return out


def _dim_which(dim, which) -> tuple[int, int]:
    """The checked ``dim`` (at least 1) and ``which`` (0 or 1) of :func:`build_a` / :func:`build_b`."""
    return integer_arg("dim", dim, 1), integer_arg("which", which, 0, 2, InvalidIndexError)


def build_a(theta: float, dim: int, which: int) -> HermitianObservable:
    """First-party observable of the family at measurement angle ``theta``.

    ``which=0`` tiles ``cos(theta) s3 + sin(theta) s1``; ``which=1`` flips
    the sign of the ``s1`` part.  ``dim=1`` degenerates to the scalar 1.
    """
    dim, which = _dim_which(dim, which)
    sign = 1.0 if which == 0 else -1.0
    block = math.cos(theta) * _SIGMA[3] + sign * math.sin(theta) * _SIGMA[1]
    return HermitianObservable(_block_repeat(block, dim))


def build_b(dim: int, which: int) -> HermitianObservable:
    """Second-party observable: tiled ``s3`` (``which=0``) or ``s1`` (``which=1``)."""
    dim, which = _dim_which(dim, which)
    return HermitianObservable(_block_repeat(_SIGMA[3 if which == 0 else 1], dim))


def assemble_bell(
    n_matrix: BellCoefficientMatrix,
    a_list,
    b_list,
) -> BellOperator:
    """Contract ``sum_ij N_ij A_i (x) B_j`` into a dense operator.

    The A factor acts on the first subsystem.  All A observables must share
    one dimension and all B observables another; list lengths must match the
    coefficient matrix size.
    """
    n = n_matrix.n
    if len(a_list) != n or len(b_list) != n:
        raise LengthMismatchError(
            f"need {n} observables per side, got {len(a_list)} and {len(b_list)}"
        )
    dim_a = a_list[0].dim
    dim_b = b_list[0].dim
    if any(a.dim != dim_a for a in a_list) or any(b.dim != dim_b for b in b_list):
        raise DimensionMismatchError("observables on one side must share a dimension")
    total = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for i in range(n):
        for j in range(n):
            w = n_matrix.entries[i, j]
            if w != 0.0:
                total += w * np.kron(a_list[i].entries, b_list[j].entries)
    return BellOperator(dim_a, dim_b, total)


def expectation(op: BellOperator, s: SchmidtVector, dim_b: int) -> float:
    """Expectation ``<psi| op |psi>`` for the embedded Schmidt state.

    ``|psi> = sum_i c_i |i>|i>`` lives on the first ``s.m`` basis vectors of
    each factor, so the product-space amplitudes sit at indices
    ``i * (dim_b + 1)``.  An imaginary residue beyond ``IMAG_TOL`` aborts
    (``_real_part``).
    """
    if op.dim_b != dim_b:
        raise DimensionMismatchError(f"operator has dim_b={op.dim_b}, caller said {dim_b}")
    if s.m > op.dim_a or s.m > dim_b:
        raise DimensionMismatchError(
            f"state rank {s.m} exceeds operator factors ({op.dim_a}, {dim_b})"
        )
    psi = np.zeros(op.dim_a * op.dim_b, dtype=complex)
    psi[np.arange(s.m) * (op.dim_b + 1)] = s.coeffs
    return float(_real_part(np.vdot(psi, op.entries @ psi)))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, width: float, depth: int) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [lo, hi] to absolute width.  ``f`` maps a
    list of angles to their values.  The loop keeps a one-angle search's arithmetic, so it
    asks for the same angles, but evaluates each new one with all that the next
    ``depth - 1`` steps can ask for, either way their comparisons go."""
    known = {}

    def ahead(lo, hi, x1, x2, steps):
        if steps <= 0:
            return []
        if hi - lo <= width:
            return [0.5 * (lo + hi)]
        up, down = x1 + _INVPHI * (hi - x1), x2 - _INVPHI * (x2 - lo)  # lo to x1, hi to x2
        return [up, down, *ahead(x1, hi, x2, up, steps - 1), *ahead(lo, x2, down, x1, steps - 1)]

    def evaluate(*thetas):
        thetas = list(dict.fromkeys(thetas))  # the last bracket's midpoint can come twice
        known.update(zip(thetas, f(thetas).tolist()))

    def value(x, *bracket):
        if x not in known:
            evaluate(x, *ahead(*bracket, depth - 1))
        return known[x]

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    evaluate(x1, x2, *ahead(lo, hi, x1, x2, depth - 2))
    f1, f2 = known[x1], known[x2]
    while hi - lo > width:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = value(x2, lo, hi, x1, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = value(x1, lo, hi, x1, x2)
    mid = 0.5 * (lo + hi)
    return mid, value(mid, lo, hi, x1, x2)


_BLOCK = 16  # angles per grid stack: at most 1 MB of operators at m*n = 64
_LOCAL = threading.local()  # this thread's operator and check buffers (_operators)


def _golden_depth(side: int) -> int:
    """The largest depth <= 3 whose 2**depth - 1 operators fit in 128 KiB: 3 up to m*n = 34,
    2 up to 52; with reused buffers it timed no slower than one more at m*n = 20 and 54-64."""
    return max(d for d in (1, 2, 3) if d == 1 or ((1 << d) - 1) * 16 * side**2 <= 128 << 10)


@functools.lru_cache(maxsize=None)
def _family(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The state-independent parts of the family at (m, n), read-only: the tiled
    ``s3``/``s1`` blocks of the first party and its odd-m scalar slot, and the
    contracted second-party side ``sum_j N_ij B_j`` of the CHSH matrix on the checked
    pair of :func:`build_b`.  Callers pass the dense-oracle guards first, which bound
    the cache to the 144 shapes with m <= n and m*n <= ``MAX_ORACLE_DIM``."""
    b_side = np.einsum("ij,jkl->ikl", CHSH_MATRIX.entries, [build_b(n, w).entries for w in (0, 1)])
    parts = (
        _block_repeat(_SIGMA[3], m, tail=0.0),
        np.array([1.0, -1.0])[:, None, None] * _block_repeat(_SIGMA[1], m, tail=0.0),
        _block_repeat(np.zeros((2, 2)), m),
        b_side[:, :, None, :],  # broadcasts as the second Kronecker factor
    )
    for part in parts:
        part.setflags(write=False)
    return parts


def _operators(m: int, n: int, thetas) -> np.ndarray:
    """The ``(G, D, D)`` operators ``sum_i A_i(theta) (x) sum_j N_ij B_j`` at ``G`` angles,
    two broadcast Kronecker products of :func:`_family`'s parts; the ``(G, 2, m, m)``
    first-party stack and the operators pass the checkers of :class:`HermitianObservable`
    and :class:`BellOperator`.  A view of this thread's buffers, allocated once at the
    largest stack asked for (at least 16 angles at D = 64, 2.6 MB with the check's
    scratch), which the thread's next call overwrites."""
    cos_part, sin_parts, odd_slot, b_side = _family(m, n)
    g, size = len(thetas), len(thetas) * (m * n) ** 2
    bufs = getattr(_LOCAL, "bufs", ())
    if not bufs or len(bufs[0]) < size:
        cap = max(size, _BLOCK * MAX_ORACLE_DIM**2)
        bufs = _LOCAL.bufs = [np.empty(cap, t) for t in (complex, complex, float)]
    ops, work, mag = (buf[:size].reshape(g, m * n, m * n) for buf in bufs)
    cos = np.cos(thetas)[:, None, None, None]
    sin = np.sin(thetas)[:, None, None, None]
    a = cos * cos_part + sin * sin_parts + odd_slot
    _check_observables(a)
    np.multiply(a[:, 0, :, None, :, None], b_side[0], out=ops.reshape(g, m, n, m, n))
    np.multiply(a[:, 1, :, None, :, None], b_side[1], out=work.reshape(g, m, n, m, n))
    ops += work
    _check_hermitian(ops, "operator", (work, mag))
    return ops


def max_expectation_block(rows: np.ndarray, dim_b: int, grid_points: int) -> list:
    """:func:`max_expectation_grid`'s ``(theta, value)`` for each row of an ``(S, m)``
    block that passed ``validate_rows``, with the bits of one call per row: each grid
    stack is built once for the block, and a state keeps only its best grid index and
    value (the first maximum, as ``np.argmax``) before its own golden search."""
    grid_points = integer_arg("grid_points", grid_points, MIN_GRID_POINTS)
    if grid_points > MAX_GRID_POINTS:
        raise TooLargeError(f"dense oracle guard: grid_points = {grid_points} > {MAX_GRID_POINTS}")
    dim_b = integer_arg("dim_b", dim_b, 1)
    count, m = rows.shape
    if m * dim_b > MAX_ORACLE_DIM:
        raise TooLargeError(f"dense oracle guard: m*dim_b = {m * dim_b} exceeds {MAX_ORACLE_DIM}")
    if m > dim_b:
        raise DimensionMismatchError(f"state rank {m} exceeds operator factors ({m}, {dim_b})")
    psis = np.zeros((count, m * dim_b), dtype=complex)
    psis[:, np.arange(m) * (dim_b + 1)] = rows
    step = math.pi / grid_points
    thetas = np.arange(grid_points) * step
    stack = np.empty((count, _BLOCK), dtype=complex)
    best, top = np.zeros(count, dtype=int), np.full(count, -np.inf)
    for lo in range(0, grid_points, _BLOCK):
        ops = _operators(m, dim_b, thetas[lo : lo + _BLOCK])
        for psi, row in zip(psis, stack):
            row[: len(ops)] = (ops @ psi) @ psi.conj()
        values = _real_part(stack[:, : len(ops)])
        k = values.argmax(axis=1)
        new = values[np.arange(count), k]
        ahead = new > top  # strictly: an earlier stack keeps a tie
        best[ahead], top[ahead] = lo + k[ahead], new[ahead]
    depth, out = _golden_depth(m * dim_b), []
    for psi, index, grid_value in zip(psis, best.tolist(), top.tolist()):
        theta_best = index * step
        theta, value = _golden_max(
            lambda angles, psi=psi: _real_part(np.vecdot(psi, _operators(m, dim_b, angles) @ psi)),
            theta_best - step, theta_best + step, GOLDEN_WIDTH, depth)
        if grid_value >= value:  # keep the best evaluation seen, the grid angle on a tie
            theta, value = theta_best, grid_value
        out.append((theta, value))
    return out


def max_expectation_grid(s: SchmidtVector, dim_b: int, grid_points: int) -> tuple[float, float]:
    """Maximize the family's expectation over theta, matrices only.

    Scans a uniform grid on [0, pi) -- the expectation is pi-periodic up to
    the sign symmetry of the family -- then refines the best bracket by
    golden-section search down to absolute width ``GOLDEN_WIDTH``.  Grid
    and refinement share one operator builder (``_operators``): the grid in
    stacks of ``_BLOCK`` angles contracted as ``(ops @ psi) @ psi.conj()``, the
    refinement in stacks of the angles its next ``_golden_depth`` steps can ask for,
    row by row (``np.vecdot``) to the bits of one-angle stacks.  Each evaluation
    assembles the dense operator from the validated observables and takes its
    expectation on the embedded state (``_real_part``); nothing uses the closed form,
    so the result is an independent cross-check of it.  Grids beyond
    ``MAX_GRID_POINTS`` raise.  A block of one of :func:`max_expectation_block`.

    Returns
    -------
    (theta_star, value) : tuple of float
        The maximizing angle and the maximum expectation.
    """
    return max_expectation_block(s.coeffs[None, :], dim_b, grid_points)[0]
