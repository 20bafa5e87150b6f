"""Measurement observables of the two-setting family and dense Bell operators.

The first party measures ``A_0, A_1`` built from block copies of
``cos(theta) s3 +/- sin(theta) s1`` over consecutive basis pairs; the second
party measures block copies of ``s3`` and ``s1``.  Odd local dimensions end
in a scalar block equal to 1.  Contracted against ``bounds.CHSH_MATRIX`` (the closed-form
layer owns the coefficient matrices and never loads this module) this family realizes the
closed-form Bell value ``2 sqrt((1-gamma)^2 + K^2) + 2 gamma`` as its theta-maximum; the
dense evaluation path here, which computes and checks only the operator entries the Kronecker
product can make nonzero, each against its transpose, is the formula's independent oracle.  Its
grid stacks are checked once each while cached, the 64 last used.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bounds import CHSH_MATRIX, BellCoefficientMatrix
from .errors import (DimensionMismatchError, InvalidIndexError, InvariantError,
                     LengthMismatchError, NonHermitianResidueError, TooLargeError, integer_arg)
from .schmidt_state import SchmidtVector
from .tolerances import (GOLDEN_WIDTH, HERMITIAN_TOL, IMAG_TOL, MAX_GRID_POINTS,
                         MAX_ORACLE_DIM, MIN_GRID_POINTS, SPECTRUM_TOL)

__all__ = [
    "HermitianObservable",
    "BellOperator",
    "pauli",
    "build_a",
    "build_b",
    "assemble_bell",
    "expectation",
    "max_expectation_grid",
]


def _check_hermitian(stack: np.ndarray, what: str, mirror=None) -> None:
    """Each matrix on the last two axes, or with ``mirror`` each row of entries against those at
    its transposed positions, is Hermitian within ``HERMITIAN_TOL``; a NaN fails it, as all here."""
    pairs = stack.swapaxes(-1, -2) if mirror is None else stack[..., mirror]
    defect = float(np.abs(stack - np.conjugate(pairs)).max())
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
    """Dense complex Hermitian matrix (within ``HERMITIAN_TOL`` entrywise) with spectrum
    inside [-1, 1] (within ``SPECTRUM_TOL``), checked at construction."""

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
    """Tile a 2x2 block down the diagonal, in its dtype; odd dims end in the scalar ``tail``."""
    out = np.zeros((dim, dim), dtype=block.dtype)
    even = dim - dim % 2
    out[:even, :even] = np.kron(np.eye(dim // 2), block)
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


def expectation(op: BellOperator, s: SchmidtVector) -> float:
    """Expectation ``<psi| op |psi>`` for the embedded Schmidt state.

    ``|psi> = sum_i c_i |i>|i>`` lives on the first ``s.m`` basis vectors of
    each factor, so the product-space amplitudes sit at indices
    ``i * (op.dim_b + 1)``; ``s.m`` may exceed neither of the operator's factors.
    An imaginary residue beyond ``IMAG_TOL`` aborts (``_real_part``).
    """
    if s.m > op.dim_a or s.m > op.dim_b:
        raise DimensionMismatchError(
            f"state rank {s.m} exceeds operator factors ({op.dim_a}, {op.dim_b})"
        )
    psi = np.zeros(op.dim_a * op.dim_b, dtype=complex)
    psi[np.arange(s.m) * (op.dim_b + 1)] = s.coeffs
    return float(_real_part(np.vecdot(psi, op.entries @ psi)))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float, width: float, depth: int,
                peak: float) -> tuple[float, float]:
    """Golden-section maximum of a unimodal f on [lo, hi] to absolute width.  ``f`` maps a
    list of angles to their values.  The loop keeps a one-angle search's arithmetic, so at
    any ``depth`` it asks for the same angles, but evaluates each new one (the first two at
    once) with all that the next ``depth - 1`` steps can ask for either way (the oracle's ``_GOLDEN_DEPTH``), and
    with the path down to width 1.5e-8 (~sqrt(eps): f1 - f2 meets rounding) if each goes
    toward ``peak``, the caller's guess at the maximum.  Every angle comes from ``step``."""
    known = {}

    def step(lo, hi, x1, x2, up):  # the bracket after one comparison, toward hi if up
        return ((x1, hi, x2, x1 + _INVPHI * (hi - x1)) if up
                else (lo, x2, x2 - _INVPHI * (x2 - lo), x1))

    def ahead(bracket, steps):
        if steps <= 0:
            return []
        if bracket[1] - bracket[0] <= width:
            return [0.5 * (bracket[0] + bracket[1])]
        up, down = step(*bracket, True), step(*bracket, False)
        return [up[3], down[2], *ahead(up, steps - 1), *ahead(down, steps - 1)]

    def path(bracket):  # a wrong guess costs an evaluation, never a bit
        while bracket[1] - bracket[0] > max(width, 1.5e-8):
            bracket = step(*bracket, bracket[2] + bracket[3] < 2.0 * peak)
            yield from bracket[2:]

    def value(x, bracket):
        if x not in known:
            thetas = [t for t in dict.fromkeys((*bracket[2:], x, *ahead(bracket, depth - 1),
                                                *path(bracket))) if t not in known]
            known.update(zip(thetas, f(thetas).tolist()))
        return known[x]

    bracket = (lo, hi, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
    while bracket[1] - bracket[0] > width:
        bracket = step(*bracket, value(bracket[2], bracket) < value(bracket[3], bracket))
    mid = 0.5 * (bracket[0] + bracket[1])
    return mid, value(mid, bracket)


_BLOCK = 16  # angles per grid stack: at most 1 MB of operators at m*n = 64
_GOLDEN_DEPTH = 3  # golden steps per lookahead stack; a depth only regroups angles, never bits
_LOCAL = threading.local()  # this thread's operator buffer (_scatter)


@functools.lru_cache(maxsize=None)
def _family(m: int, n: int) -> tuple[np.ndarray, ...]:
    """The state-independent parts of the family at (m, n), read-only: the real tiled
    ``s3``/``s1`` blocks of the first party and its odd-m scalar slot; at each operator position
    (flat) where their nonzero entries meet those of the side ``sum_j N_ij B_j`` (CHSH matrix,
    checked :func:`build_b`) in a Kronecker product or its transpose, the flat first-party
    index, the side's two entries and the index of the transposed position; and those
    positions.  Callers pass the dense-oracle guards first: <= 144 shapes."""
    b_side = np.einsum("ij,jkl->ikl", CHSH_MATRIX.entries, [build_b(n, w).entries for w in (0, 1)])
    parts = [_block_repeat(_SIGMA[3].real, m, tail=0.0),
             np.array([1.0, -1.0])[:, None, None] * _block_repeat(_SIGMA[1].real, m, tail=0.0),
             _block_repeat(np.zeros((2, 2)), m)]
    mask = np.kron(np.any([parts[0], *parts[1], parts[2]], 0), np.any(b_side, 0))
    at = np.flatnonzero(mask | mask.T)
    (i, j), (k, l) = np.divmod(np.divmod(at, m * n), n)  # row i * n + k, column j * n + l
    parts += [i * m + j, b_side.reshape(2, -1)[:, k * n + l],
              np.searchsorted(at, (j * n + l) * m * n + i * n + k), at]
    for part in parts:
        part.setflags(write=False)
    return tuple(parts)


def _scatter(entries: np.ndarray, at: np.ndarray, side: int) -> np.ndarray:
    """This thread's ``(G, side, side)`` operator buffer, zero but for ``entries`` at the flat
    positions ``at``: one complex buffer of ``_BLOCK * MAX_ORACLE_DIM**2`` entries (1.05 MB),
    or of the largest stack or golden request asked for, overwritten by the next call."""
    g, size = len(entries), len(entries) * side**2
    buf = getattr(_LOCAL, "buf", None)
    if buf is None or len(buf) < size:
        buf = _LOCAL.buf = np.empty(max(size, _BLOCK * MAX_ORACLE_DIM**2), complex)
    ops = buf[:size].reshape(g, side, side)
    ops.fill(0.0)
    ops.reshape(g, -1)[:, at] = entries
    return ops


def _operators(m: int, n: int, thetas) -> np.ndarray:
    """The read-only ``(G, P)`` entries at :func:`_family`'s ``P`` positions of the operators
    ``sum_i A_i(theta) (x) sum_j N_ij B_j`` at ``G`` angles (zero elsewhere), each ``a_0 b_0 +
    a_1 b_1``.  The real ``(G, 2, m, m)`` first-party stack passes :class:`HermitianObservable`'s
    checker, and each entry :class:`BellOperator`'s against its transpose, as the dense check."""
    cos_part, sin_parts, odd_slot, a_at, b_side, mirror, _ = _family(m, n)
    cos, sin = (f(thetas)[:, None, None, None] for f in (np.cos, np.sin))
    a = cos * cos_part + sin * sin_parts + odd_slot
    _check_observables(a)
    terms = a.reshape(len(thetas), 2, m * m)[:, :, a_at] * b_side
    entries = terms[:, 0] + terms[:, 1]
    _check_hermitian(entries, "operator", mirror)
    entries.setflags(write=False)
    return entries


@functools.lru_cache(maxsize=64)
def _grid(m: int, n: int, grid_points: int, lo: int) -> np.ndarray:
    """:func:`_operators`' checked, read-only entries of the grid stack at the angles ``k pi /
    grid_points``, ``lo <= k < lo + _BLOCK`` (the last stack ends at ``grid_points``).  A stack
    holds at most 16 x 256 entries (64 KiB), so the cache holds at most 4 MiB whatever the grid."""
    thetas = np.arange(lo, min(lo + _BLOCK, grid_points)) * (math.pi / grid_points)
    return _operators(m, n, thetas)


def oracle_guard(m: int, dim_b, grid_points) -> tuple[int, int]:
    """Checked ``(dim_b, grid_points)`` of a dense-oracle call on rank-``m`` states."""
    grid_points = integer_arg("grid_points", grid_points, MIN_GRID_POINTS)
    if grid_points > MAX_GRID_POINTS:
        raise TooLargeError(f"dense oracle guard: grid_points = {grid_points} > {MAX_GRID_POINTS}")
    dim_b = integer_arg("dim_b", dim_b, 1)
    if m * dim_b > MAX_ORACLE_DIM:
        raise TooLargeError(f"dense oracle guard: m*dim_b = {m * dim_b} exceeds {MAX_ORACLE_DIM}")
    if m > dim_b:
        raise DimensionMismatchError(f"state rank {m} exceeds operator factors ({m}, {dim_b})")
    return dim_b, grid_points


def max_expectation_block(rows: np.ndarray, dim_b: int, grid_points: int) -> list:
    """:func:`max_expectation_grid`'s ``(theta, value)`` for each row of an ``(S, m)``
    block that passed ``validate_rows``, with the bits of one call per row: each grid
    stack serves the whole block, and a state keeps only its best grid index and value
    (the first maximum, as ``np.argmax``) before its own golden search, which speculates
    toward the peak of the sinusoid through its first three grid values.  Each grid stack
    is built and checked once while :func:`_grid` caches it, then scattered into the
    zeroed buffer on each call."""
    count, m = rows.shape
    dim_b, grid_points = oracle_guard(m, dim_b, grid_points)
    psis = np.zeros((count, m * dim_b), dtype=complex)
    psis[:, np.arange(m) * (dim_b + 1)] = rows
    step, at, side = math.pi / grid_points, _family(m, dim_b)[-1], m * dim_b
    best, top = np.zeros(count, dtype=int), np.full(count, -np.inf)
    for lo in range(0, grid_points, _BLOCK):
        ops = _scatter(_grid(m, dim_b, grid_points, lo), at, side)
        values = _real_part(np.array([np.vecdot(psi, ops @ psi) for psi in psis]))
        if not lo:  # the peak of f(step + t) = a cos t + b sin t + c through t = -step, 0, step
            f0, f1, f2 = values[:, :3].T  # from b and a, both times 2 (1 - cos step) > 0
            peaks = step + np.arctan2((f2 - f0) * math.tan(step / 2), 2.0 * f1 - f0 - f2)
        k, new = values.argmax(axis=1), values.max(axis=1)
        ahead = new > top  # strictly: an earlier stack keeps a tie
        best[ahead], top[ahead] = lo + k[ahead], new[ahead]
    out = []
    for psi, theta, grid_value, peak in zip(psis, (best * step).tolist(), top.tolist(),
                                            peaks.tolist()):
        golden = _golden_max(lambda angles, psi=psi: _real_part(np.vecdot(
            psi, _scatter(_operators(m, dim_b, angles), at, side) @ psi)),
            theta - step, theta + step, GOLDEN_WIDTH, _GOLDEN_DEPTH, peak)
        # the better of the two bests seen; max keeps the first, the grid's, on a tie
        out.append(max((theta, grid_value), golden, key=lambda pair: pair[1]))
    return out


def max_expectation_grid(s: SchmidtVector, dim_b: int, grid_points: int) -> tuple[float, float]:
    """Maximize the family's expectation over theta, matrices only; returns
    ``(theta_star, value)``, the maximizing angle and the maximum expectation.

    Scans a uniform grid on [0, pi) -- the expectation is pi-periodic up to the sign symmetry
    of the family -- in stacks of ``_BLOCK`` angles, then refines the best bracket by golden-
    section search (:func:`_golden_max`) down to ``GOLDEN_WIDTH``.  Every operator is built
    and checked by :func:`_operators`: a grid stack's once while :func:`_grid` caches it,
    a golden stack's on each call.  Nothing uses the closed form, so the result
    cross-checks it.  Grids beyond ``MAX_GRID_POINTS`` raise.
    A block of one of :func:`max_expectation_block`.
    """
    return max_expectation_block(s.coeffs[None, :], dim_b, grid_points)[0]
