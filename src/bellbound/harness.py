"""Seeded Monte-Carlo sweeps that machine-check the bound theorems.

Each sample gets its own random substream derived from (seed, m, index), so
records are reproducible bit-for-bit regardless of execution order, and a
sweep parallelized across workers writes exactly the bytes a serial sweep
writes.  A theorem violation in an even-m sweep is a build-failing event; it
is collected into the summary and surfaced, never averaged away.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import operator
import os
import pickle
import signal
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bounds
# max_expectation_grid is unused, but the benchmark's tracer wraps it here
from .bell_operators import max_expectation_block, max_expectation_grid
from .errors import (InvalidDimensionError, InvariantError, IoFailureError, WorkerFailedError,
                     integer_arg)
# the benchmark's tracer wraps sample_haar, sample_simplex (both unused) and substream here
from .schmidt_state import (MEASURES, _draw_rows, sample_haar, sample_simplex, substream,
                            validate_rows)
from .tolerances import THEOREM_TOL, ZERO_TOL

__all__ = ["MEASURES", "ExperimentConfig", "DimensionSummary", "Violation", "SweepSummary",
           "OracleDimension", "OracleSummary", "substream", "resolve_workers", "run_sweep",
           "verify_oracle", "scatter_cb"]


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """Sweep parameters, by keyword only; identical configs give byte-identical outputs."""

    dims: tuple[int, ...]
    samples: int
    seed: int
    measure: str = "haar"
    second_dim_offset: int = 0
    output_path: str | None = None

    def __post_init__(self) -> None:
        dims = tuple(integer_arg("dims entry", m, 1) for m in self.dims)
        if not dims:
            raise InvalidDimensionError("dims must be nonempty")
        if len(set(dims)) != len(dims):
            raise InvalidDimensionError(f"dims must be distinct, got {dims}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "samples", integer_arg("samples", self.samples, 1))
        object.__setattr__(self, "seed", integer_arg("seed", self.seed, 0, 2**64))
        object.__setattr__(self, "second_dim_offset",
                           integer_arg("second_dim_offset", self.second_dim_offset, 0))
        if self.measure not in MEASURES:
            raise InvalidDimensionError(f"measure must be one of {MEASURES}, got {self.measure!r}")
        if self.output_path is not None:
            object.__setattr__(self, "output_path", str(self.output_path))


@dataclass(frozen=True)
class DimensionSummary:
    """Reduction of one m block of a sweep; margin minima are None for odd m."""

    m: int
    n: int
    samples: int
    min_theorem1_margin: float | None
    min_theorem2_margin: float | None
    max_concurrence: float
    violations: int


@dataclass(frozen=True)
class Violation:
    """One failed theorem check: which bound, where, by how much."""

    m: int
    index: int
    check: str  # "theorem1" or "theorem2"
    margin: float


@dataclass(frozen=True)
class SweepSummary:
    measure: str
    seed: int
    samples_per_dim: int
    records_written: int
    per_dim: tuple[DimensionSummary, ...]
    violations: tuple[Violation, ...]


@dataclass(frozen=True)
class OracleDimension:
    m: int
    n: int
    samples: int
    max_gap: float


@dataclass(frozen=True)
class OracleSummary:
    measure: str
    seed: int
    samples_per_dim: int
    grid_points: int
    per_dim: tuple[OracleDimension, ...]
    max_gap: float


# SeedSequence's hash constants (numpy/random/bit_generator.pyx); NumPy keeps
# them fixed across versions
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1


def _words(value: int) -> list[int]:
    """Little-endian uint32 words of a nonnegative int, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(const: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` + 1 values of a SeedSequence hash constant, as a
    uint32 column; the constant is multiplied by ``mult`` at every hashmix."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, one row per consecutive hash constant in ``consts``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> 16)


def _seed_words(seed: int, m: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence((seed, m, index)).generate_state(4, np.uint64)`` for every
    index in [start, stop), as an ``(N, 4)`` uint64 array.

    The same uint32 hash, run on a column per sample: the four pool words
    are rows, and every hashmix the scalar code calls in sequence on one
    source word is one array operation.  The entropy length changes the mix,
    so indices with one and with two uint32 words are hashed apart.
    """
    head = _words(seed) + _words(m)
    out = []
    lo = start
    while lo < stop:
        width = len(_words(lo))
        hi = min(stop, 1 << 32 * width)
        index = np.uint64(lo) + np.arange(hi - lo, dtype=np.uint64)
        entropy = np.empty((len(head) + width, hi - lo), np.uint32)
        entropy[: len(head)] = np.array(head, np.uint32)[:, None]
        for k in range(width):
            entropy[len(head) + k] = index >> np.uint64(32 * k)
        consts = _hash_consts(_INIT_A, _MULT_A, 16 + 4 * max(0, len(entropy) - 4))
        pool = np.zeros((4, hi - lo), np.uint32)
        pool[: len(entropy)] = entropy[:4]
        pool = _hashmix(pool, consts[:5])
        for src in range(4):  # mix every pool word into the three others
            dst = [d for d in range(4) if d != src]
            pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
        for k, word in enumerate(entropy[4:]):  # then each remaining entropy word
            pool = _mix(pool, _hashmix(word, consts[16 + 4 * k : 21 + 4 * k]))
        state = _hashmix(np.tile(pool, (2, 1)), _hash_consts(_INIT_B, _MULT_B, 8))
        state = state.astype(np.uint64)
        out.append((state[0::2] | state[1::2] << np.uint64(32)).T)
        lo = hi
    return np.concatenate(out)


class _Words(np.random.bit_generator.ISeedSequence):
    """Seed sequence whose ``generate_state(4, np.uint64)`` is one precomputed
    ``_seed_words`` row; PCG64 seeds from the row's buffer in C."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        return self.row


def _substreams(seed: int, m: int, start: int, stop: int):
    """Yield, for each index in [start, stop), a generator of its own in the
    state ``substream(seed, m, index)`` starts in, valid for as long as it is held.

    The seeds of the whole range are hashed at once (``_seed_words``), and each
    ``PCG64`` seeds in C from its row through ``_Words``.  PCG64 reads a row's
    four words from its buffer, so the block is made C-contiguous: a row of a
    Fortran-ordered block would seed another state.  The states of the first and
    the last index are checked against NumPy's own seeding, so the block never
    drifts from the scalar ``substream`` unnoticed, at either index width of a
    range that straddles 2**32.  A single index is cheaper seeded by ``substream``.
    """
    if stop - start == 1:
        yield substream(seed, m, start)
        return
    words = np.ascontiguousarray(_seed_words(seed, m, start, stop))
    for index, row in {start: words[0], stop - 1: words[-1]}.items():
        seq = np.random.SeedSequence((seed, m, index))
        if np.random.PCG64(_Words(row)).state != np.random.PCG64(seq).state:
            raise InvariantError(f"sample m={m} index {index}: derived PCG64 state "
                                 "differs from NumPy's seeding")
    for row in words:
        yield np.random.Generator(np.random.PCG64(_Words(row)))


def _draw_block(seed: int, measure: str, offset: int, m: int, start: int, stop: int) -> np.ndarray:
    """Validated rows of samples [start, stop) at one m: ``_draw_rows``, the draw kernel
    of ``sample_haar`` / ``sample_simplex``, on the range's ``_substreams``."""
    rows = _draw_rows(_substreams(seed, m, start, stop), stop - start, measure, m, m + offset)
    try:
        validate_rows(rows, start)
    except InvariantError as exc:
        exc.args = (f"sample m={m} {exc}",)
        raise
    return rows


_JSON = {True: "true", False: "false", None: "null"}


def _sweep_chunk(task: tuple) -> tuple[str, DimensionSummary, list[Violation]]:
    """Worker body: the records of samples [start, stop) at one m, encoded.

    Returns the JSONL text, the chunk's reduction and its violations.  One
    line per sample, keys in this order (the record schema):

    - ``m``, ``n``, ``index``; ``coeffs`` (descending, unit norm);
      ``effective_rank`` (coefficients above ``ZERO_TOL``);
    - ``concurrence``, ``k``, ``gamma``, ``bell_value``, ``upper``, ``lower``;
    - ``theorem1_ok`` (``upper - bell_value >= -THEOREM_TOL``) and
      ``theorem2_ok`` (``bell_value - lower >= -THEOREM_TOL``), null for odd m;
    - ``certified_nonlocal``; ``oracle_value`` and ``oracle_gap``, always null.

    Floats are written with ``repr``, as ``json.dumps`` writes finite
    floats, and every value is finite once the rows are validated.
    """
    _, _, offset, m, start, stop = task
    n = m + offset
    rows = _draw_block(*task)
    ranks = np.count_nonzero(rows > ZERO_TOL, axis=1).tolist()
    c, k, g, b, up, lo, cert = bounds.closed_forms(rows)
    ok1 = ok2 = [None] * (stop - start)
    margins = (None, None)
    violations = []
    if m % 2 == 0:
        t1, t2 = np.subtract(up, b), np.subtract(b, lo)
        ok1, ok2 = (t1 >= -THEOREM_TOL).tolist(), (t2 >= -THEOREM_TOL).tolist()
        margins = (float(t1.min()), float(t2.min()))
        for i in np.flatnonzero(~np.logical_and(ok1, ok2)).tolist():
            if not ok1[i]:
                violations.append(Violation(m, start + i, "theorem1", float(t1[i])))
            if not ok2[i]:
                violations.append(Violation(m, start + i, "theorem2", float(t2[i])))
    text = "".join(
        f'{{"m":{m},"n":{n},"index":{start + i},"coeffs":[{",".join(map(repr, row))}],'
        f'"effective_rank":{ranks[i]},"concurrence":{c[i]!r},"k":{k[i]!r},"gamma":{g[i]!r},'
        f'"bell_value":{b[i]!r},"upper":{up[i]!r},"lower":{lo[i]!r},'
        f'"theorem1_ok":{_JSON[ok1[i]]},"theorem2_ok":{_JSON[ok2[i]]},'
        f'"certified_nonlocal":{_JSON[cert[i]]},"oracle_value":null,"oracle_gap":null}}\n'
        for i, row in enumerate(rows.tolist())
    )
    summary = DimensionSummary(m, n, stop - start, *margins, max(c), len(violations))
    return text, summary, violations


def _scatter_chunk(task: tuple) -> tuple[int, list[tuple[float, ...]]]:
    """Worker body of ``scatter_cb``: m and a chunk's (C, B, upper, lower) rows."""
    c, _, _, b, up, lo, _ = bounds.closed_forms(_draw_block(*task))
    return task[3], list(zip(c, b, up, lo))


def _oracle_chunk(grid_points: int, task: tuple) -> tuple[int, float]:
    """Worker body of ``verify_oracle``: m and a chunk's largest |formula - grid maximum|."""
    _, _, offset, m, _, _ = task
    rows = _draw_block(*task)
    grid = max_expectation_block(rows, m + offset, grid_points)
    gaps = (abs(formula - value) for (_, value), formula in zip(grid, bounds.closed_forms(rows)[3]))
    return m, functools.reduce(max, gaps, 0.0)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the platform has one)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def resolve_workers() -> int:
    """Worker count from BELLBOUND_THREADS, the only worker setting; 0 or
    unset means auto, the number of CPUs this process may run on (``_usable_cpus``).
    """
    raw = os.environ.get("BELLBOUND_THREADS", "0").strip() or "0"
    with contextlib.suppress(ValueError):  # text that is no integer stays text
        raw = int(raw)
    return integer_arg("BELLBOUND_THREADS", raw, 0) or _usable_cpus()


MAX_CHUNK = 2048  # samples per chunk: bounds a chunk's draws and encoded text


def _chunk_ranges(samples: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous ranges covering [0, samples): one per worker while chunks fit
    ``MAX_CHUNK``, since every chunk pays a fixed seeding, SVD and IPC cost;
    none under 64 samples but the last."""
    size = min(MAX_CHUNK, max(64, -(-samples // workers)))
    return [(lo, min(lo + size, samples)) for lo in range(0, samples, size)]


def _iter_chunks(work, config: ExperimentConfig):
    """Yield ``work(task)`` for every task, ``_draw_block``'s arguments ``(seed,
    measure, offset, m, start, stop)``, in (m, index) order.

    Chunks are sized for ``resolve_workers()``, read only here; workers are capped at the
    tasks and usable CPUs, and are one without ``os.fork``.  Forked worker ``w`` of W > 1
    pickles ``(True, result)`` or ``(False, exception)`` for each of ``tasks[w::W]`` into
    its own pipe; the parent reads task ``i`` from pipe ``i % W``.  A full pipe blocks
    its worker: each holds one finished chunk beyond the pipe buffer (64 KiB on Linux) at
    most.  A message that does not arrive or unpickle is a ``WorkerFailedError``.  A child
    leaves by ``os._exit``, never into the caller's frames; on any exit the parent closes
    the pipes, kills the children still running and reaps them all.
    """
    workers = resolve_workers()
    tasks = [(config.seed, config.measure, config.second_dim_offset, m, lo, hi)
             for m in config.dims for (lo, hi) in _chunk_ranges(config.samples, workers)]
    workers = min(workers, len(tasks), _usable_cpus()) if hasattr(os, "fork") else 1
    if workers == 1:
        yield from map(work, tasks)
        return
    pipes, pids = [], []
    try:
        for w in range(workers):
            fd, out = os.pipe()
            pipes.append(open(fd, "rb"))
            try:
                if (pid := os.fork()) == 0:
                    try:  # a child keeps no read end, so its writes fail once the parent is gone
                        for pipe in pipes:
                            os.close(pipe.fileno())
                        with open(out, "wb") as pipe:
                            for task in tasks[w::workers]:
                                try:
                                    message = pickle.dumps((True, work(task)), -1)
                                except Exception as exc:
                                    message = pickle.dumps((False, exc), -1)
                                pipe.write(message)
                                pipe.flush()
                    finally:
                        os._exit(0)
            finally:
                os.close(out)
            pids.append(pid)
        for i, (_, _, _, m, lo, hi) in enumerate(tasks):
            try:
                ok, result = pickle.load(pipes[i % workers])
            except Exception as exc:
                raise WorkerFailedError(f"a worker process died before sending chunk m={m} "
                                        f"[{lo}, {hi}): {exc!r}") from exc
            if not ok:
                raise result
            yield result
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a zombie until reaped, so its pid is never reused
            os.waitpid(pid, 0)


def _merge(a: DimensionSummary, b: DimensionSummary) -> DimensionSummary:
    """Reduction of two consecutive blocks of one m (margins None for odd m)."""
    even = a.min_theorem1_margin is not None
    return DimensionSummary(a.m, a.n, a.samples + b.samples,
                            min(a.min_theorem1_margin, b.min_theorem1_margin) if even else None,
                            min(a.min_theorem2_margin, b.min_theorem2_margin) if even else None,
                            max(a.max_concurrence, b.max_concurrence), a.violations + b.violations)


@contextlib.contextmanager
def _atomic_output(path: str | None):
    """Text file that appears at ``path`` only if the block completes.

    Writes to a temporary file beside the target and moves it into place
    with ``os.replace`` on success; on any error the temporary file is
    removed and nothing appears at ``path``.  Every file writer opens its
    output here; a ``None`` path is an ``IoFailureError``.  Each call opens
    a temporary name of its own, exclusively: of two writers of one target,
    the last to finish leaves its whole output.
    """
    if path is None:
        raise IoFailureError("no output file: config.output_path is None")
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}."
                       f"{os.getpid()}.{os.urandom(6).hex()}.tmp")
    try:
        if os.path.exists(target) and not os.path.isfile(target):
            raise IoFailureError(f"cannot write {path}: not a regular file")
        fh = open(tmp, "x", encoding="utf-8", newline="\n")  # a failed open removes nothing
        try:
            with fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise IoFailureError(f"cannot write {path}: {exc}") from exc


def run_sweep(config: ExperimentConfig) -> SweepSummary:
    """Draw, check and record `config.samples` states per dimension.

    Writes one JSON line per sample to ``config.output_path`` in (m, index)
    order and returns the reduction; the record schema is documented on
    ``_sweep_chunk``.  Runs on the BELLBOUND_THREADS / auto worker count;
    output bytes do not depend on it.  A run that fails, or has no
    ``config.output_path``, leaves no file.
    """
    per_dim: dict[int, DimensionSummary] = {}
    violations: list[Violation] = []  # chunks arrive in (m, index) order
    with _atomic_output(config.output_path) as fh:
        for text, block, block_violations in _iter_chunks(_sweep_chunk, config):
            fh.write(text)
            per_dim[block.m] = _merge(per_dim[block.m], block) if block.m in per_dim else block
            violations += block_violations
    return SweepSummary(
        measure=config.measure,
        seed=config.seed,
        samples_per_dim=config.samples,
        records_written=sum(d.samples for d in per_dim.values()),
        per_dim=tuple(per_dim.values()),
        violations=tuple(violations),
    )


def verify_oracle(config: ExperimentConfig, grid_points: int) -> OracleSummary:
    """Cross-check the closed-form Bell value against the dense grid maximum.

    For every sampled state computes |bell_value_formula - grid maximum| and
    reduces to the largest gap per dimension.  No file output; the summary
    is the result.  Dimensions must respect the dense-oracle guard.  Runs on
    the BELLBOUND_THREADS / auto worker count; the result does not depend on it.
    """
    worst = dict.fromkeys(config.dims, 0.0)
    for m, gap in _iter_chunks(functools.partial(_oracle_chunk, grid_points), config):
        worst[m] = max(worst[m], gap)
    per_dim = tuple(OracleDimension(m, m + config.second_dim_offset, config.samples, gap)
                    for m, gap in worst.items())
    return OracleSummary(measure=config.measure, seed=config.seed,
                         samples_per_dim=config.samples, grid_points=operator.index(grid_points),
                         per_dim=per_dim, max_gap=max(d.max_gap for d in per_dim))


def scatter_cb(config: ExperimentConfig) -> Path:
    """Write the (concurrence, Bell value, envelope) cloud as CSV.

    Columns ``m,concurrence,bell_value,upper,lower``; rows sorted by
    concurrence within each m block (the sort holds one m's rows); floats
    printed with shortest round-trip decimals; bytes independent of the
    BELLBOUND_THREADS workers.  Returns the path; a failed run leaves no file.
    """
    with _atomic_output(config.output_path) as fh:
        fh.write("m,concurrence,bell_value,upper,lower\n")
        for m, group in itertools.groupby(_iter_chunks(_scatter_chunk, config), key=lambda c: c[0]):
            rows = sorted((row for _, block in group for row in block), key=lambda r: r[0])
            fh.writelines(f"{m},{c!r},{b!r},{up!r},{lo!r}\n" for c, b, up, lo in rows)
    return Path(config.output_path)
