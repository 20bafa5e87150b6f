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
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bounds
# max_expectation_grid is unused, but the benchmark's tracer wraps it here
from .bell_operators import max_expectation_block, max_expectation_grid, oracle_guard
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
    samples: int = field(metadata={"fold": operator.add})
    min_theorem1_margin: float | None = field(metadata={"fold": min})
    min_theorem2_margin: float | None = field(metadata={"fold": min})
    max_concurrence: float = field(metadata={"fold": max})
    violations: int = field(metadata={"fold": operator.add})


@dataclass(frozen=True)
class Violation:
    """One failed theorem check: which bound, where, by how much."""

    m: int
    index: int
    check: str  # "theorem1" or "theorem2"
    margin: float


@dataclass(frozen=True)
class SweepSummary:
    records_written: int
    per_dim: tuple[DimensionSummary, ...]
    violations: tuple[Violation, ...]  # the first MAX_VIOLATIONS in (m, index) order


@dataclass(frozen=True)
class OracleDimension:
    m: int
    n: int
    samples: int = field(metadata={"fold": operator.add})
    max_gap: float = field(metadata={"fold": max})


@dataclass(frozen=True)
class OracleSummary:
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
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


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
    validate_rows(rows, start, f"sample m={m} ")
    return rows


_JSON = {True: "true", False: "false", None: "null"}


def _sweep_chunk(task: tuple) -> tuple[str, DimensionSummary, list[Violation]]:
    """Worker body: the records of samples [start, stop) at one m, encoded.

    Returns the JSONL text, the chunk's reduction (``_fold`` merges those of one m), which
    counts its violations, and the first ``MAX_VIOLATIONS`` of them.  One line per sample,
    keys in this order (the record schema):

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
    margins, violations, count = (None, None), [], 0
    if m % 2 == 0:
        t1, t2 = np.subtract(up, b), np.subtract(b, lo)
        pass1, pass2 = t1 >= -THEOREM_TOL, t2 >= -THEOREM_TOL
        ok1, ok2, margins = pass1.tolist(), pass2.tolist(), (float(t1.min()), float(t2.min()))
        count = np.count_nonzero(~pass1) + np.count_nonzero(~pass2)
        found = (Violation(m, start + i, key, float(t[i]))
                 for i in np.flatnonzero(~(pass1 & pass2)).tolist()
                 for key, t, ok in (("theorem1", t1, ok1), ("theorem2", t2, ok2)) if not ok[i])
        violations = list(itertools.islice(found, MAX_VIOLATIONS))
    text = "".join(
        f'{{"m":{m},"n":{n},"index":{start + i},"coeffs":[{",".join(map(repr, row))}],'
        f'"effective_rank":{ranks[i]},"concurrence":{c[i]!r},"k":{k[i]!r},"gamma":{g[i]!r},'
        f'"bell_value":{b[i]!r},"upper":{up[i]!r},"lower":{lo[i]!r},'
        f'"theorem1_ok":{_JSON[ok1[i]]},"theorem2_ok":{_JSON[ok2[i]]},'
        f'"certified_nonlocal":{_JSON[cert[i]]},"oracle_value":null,"oracle_gap":null}}\n'
        for i, row in enumerate(rows.tolist())
    )
    summary = DimensionSummary(m, n, stop - start, *margins, max(c), count)
    return text, summary, violations


def _oracle_chunk(grid_points: int, task: tuple) -> OracleDimension:
    """Worker body of ``verify_oracle``: a chunk's largest |formula - grid maximum|."""
    _, _, offset, m, start, stop = task
    rows = _draw_block(*task)
    grid = max_expectation_block(rows, m + offset, grid_points)
    gaps = (abs(formula - value) for (_, value), formula in zip(grid, bounds.closed_forms(rows)[3]))
    return OracleDimension(m, m + offset, stop - start, functools.reduce(max, gaps, 0.0))


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
MAX_VIOLATIONS = 1000  # violations a chunk returns and a sweep keeps; per_dim counts them all
MIN_SWEEP_WORK = 1024  # samples weighted by m a forked sweep worker needs to pay for its fork


def _plan(config: ExperimentConfig, minimum: int, requested: int, cpus: int, fork: bool):
    """W, the least of the requested count, the usable CPUs, the tasks and the work (samples
    weighted by m) over ``minimum`` (``MIN_SWEEP_WORK`` or 1), the least work that pays for a fork
    (1 without ``os.fork``), and the chunk size for those W: one chunk per worker within
    ``MAX_CHUNK``, at least 64 samples each but the last, since a chunk pays a fixed seeding, SVD
    and IPC cost."""
    work = config.samples * sum(config.dims)
    workers = min(requested, cpus, max(1, work // minimum)) if fork else 1
    size = min(MAX_CHUNK, max(64, -(-config.samples // workers)))
    return min(workers, len(config.dims) * -(-config.samples // size)), size


def _iter_chunks(work, config: ExperimentConfig, minimum: int):
    """Yield ``work(task)``, a sweep's or an oracle's chunk, for every task, ``_draw_block``'s
    arguments ``(seed, measure, offset, m, start, stop)`` made one at a time, in (m, index) order.

    W and the chunk size are ``_plan``'s for ``resolve_workers()``, read only here, and the work
    body's ``minimum``.  The caller is worker 0 of W and runs tasks 0, W, 2W, ... in turn, as a
    serial run would.  Forked worker ``w`` pickles the result or exception of tasks w, w + W, ...
    (from its copy of the generator) to offset 0 of its own spill file and sends the byte count down
    a pipe; it computes its next chunk, then waits for the caller's credit byte for the last one
    before it overwrites the file.  So no worker waits on the caller's own chunk, and each holds two
    finished chunks at most.  A message that does not arrive or unpickle, or an ``OSError`` at
    start-up, is a ``WorkerFailedError``.  Children leave by ``os._exit``, never into the caller's
    frames, and are killed and reaped on any exit.
    """
    samples = config.samples
    workers, size = _plan(config, minimum, resolve_workers(), _usable_cpus(), hasattr(os, "fork"))
    tasks = ((config.seed, config.measure, config.second_dim_offset, m, lo, min(lo + size, samples))
             for m in config.dims for lo in range(0, samples, size))
    files, slots, pids = [], [], []  # all the caller opens; per forked worker (data, credit, spill)
    try:
        for w in range(1, workers):
            try:  # the data pipe, the credit pipe and the spill file, then the fork
                for _ in range(2):
                    files += map(open, os.pipe(), ("rb", "wb"), (0, 0))
                files.append(tempfile.TemporaryFile())
                data, out, credit_in, credit, spill = files[-5:]
                slots.append((data, credit, spill))
                pid = os.fork()
            except OSError as exc:
                raise WorkerFailedError(f"cannot start worker {w} of {workers}: {exc!r}") from exc
            if pid:
                pids.append(pid)
                out.close()
                credit_in.close()
                continue
            try:  # the child: it keeps no caller end, so its writes fail once the caller is gone
                for caller_end in (end for slot in slots for end in slot[:2]):
                    caller_end.close()
                for j, task in enumerate(itertools.islice(tasks, w, None, workers)):
                    try:
                        message = pickle.dumps((True, work(task)), -1)
                    except Exception as exc:
                        message = pickle.dumps((False, exc), -1)
                    if j:  # the spill file is free once the caller has read chunk j - 1
                        credit_in.read(1)
                    out.write(os.pwrite(spill.fileno(), message, 0).to_bytes(8, "big"))
            finally:
                os._exit(0)
        for i, (seed, measure, offset, m, lo, hi) in enumerate(tasks):
            if i % workers == 0:
                yield work((seed, measure, offset, m, lo, hi))
                continue
            data, credit, spill = slots[i % workers - 1]
            try:
                count = int.from_bytes(data.read(8), "big")
                ok, result = pickle.loads(os.pread(spill.fileno(), count, 0))
            except Exception as exc:
                raise WorkerFailedError(f"no readable result from worker {i % workers} of "
                                        f"{workers} for chunk m={m} [{lo}, {hi}): {exc!r}") from exc
            with contextlib.suppress(BrokenPipeError):  # a worker gone fails its next read
                credit.write(b"\0")
            if not ok:
                raise result
            yield result
    finally:
        for file in files:
            file.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)  # a zombie until reaped, so its pid is never reused
            os.waitpid(pid, 0)


def _merge(a, b):
    """Reduction of two consecutive chunks of one m, each field by its ``fold`` rule."""
    rules = ((f.metadata.get("fold"), getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    return type(a)(*(x if rule is None or x is None else rule(x, y) for rule, x, y in rules))


def _fold(blocks) -> tuple:
    """One reduction per m, in order, of chunk reductions that arrive in (m, index) order."""
    return tuple(functools.reduce(_merge, g) for _, g in itertools.groupby(blocks, lambda b: b.m))


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
        raise IoFailureError("no output file: the output path is None")
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

    Writes one JSON line per sample to ``config.output_path`` in (m, index) order and returns
    the chunks' reductions folded per m (``_fold``), which count every violation, and the first
    ``MAX_VIOLATIONS`` violations, so a failing run stays bounded; the record schema is
    on ``_sweep_chunk``.  The caller is worker 0 of W (BELLBOUND_THREADS or auto); the W - 1 it
    forks hand chunks over through spill files, two at most each (``_iter_chunks``).  Neither
    bytes nor summary depend on W.  A run that fails, or has no output path, leaves no file.
    """
    def written(fh):  # each chunk's reduction, once its text is written and violations kept
        for text, block, found in _iter_chunks(_sweep_chunk, config, MIN_SWEEP_WORK):
            fh.write(text)
            violations.extend(found[:MAX_VIOLATIONS - len(violations)])
            yield block

    violations: list[Violation] = []
    with _atomic_output(config.output_path) as fh:
        per_dim = _fold(written(fh))
    return SweepSummary(sum(d.samples for d in per_dim), per_dim, tuple(violations))


def verify_oracle(config: ExperimentConfig, grid_points: int) -> OracleSummary:
    """Cross-check the closed-form Bell value against the dense grid maximum.

    For every sampled state computes |bell_value_formula - grid maximum|; the
    chunks' largest gaps fold per dimension as a sweep's do (``_fold``).  No file
    output; the summary is the result.  Every m passes ``oracle_guard`` before any
    fork or draw.  A state pays for a fork, so the run takes up to BELLBOUND_THREADS / auto
    workers, a state each at least (``minimum`` 1); the result does not depend on them.
    """
    for m in config.dims:
        oracle_guard(m, m + config.second_dim_offset, grid_points)
    per_dim = _fold(_iter_chunks(functools.partial(_oracle_chunk, grid_points), config, 1))
    return OracleSummary(per_dim, max(d.max_gap for d in per_dim))


def scatter_cb(sweep_path, output_path) -> Path:
    """Write the (concurrence, Bell value, envelope) cloud of a ``run_sweep`` file as CSV.

    Columns ``m,concurrence,bell_value,upper,lower``; rows stably sorted by concurrence
    within each m block (the sort holds one m's rows); floats as the sweep wrote them.
    Returns the path.  An unreadable input is an ``IoFailureError``, a line that is no
    record an ``InvariantError`` naming it; a failed run leaves no file.
    """
    import json  # the one reader of records: a sweep never loads the codec
    columns = operator.itemgetter("m", "concurrence", "bell_value", "upper", "lower")

    def row(number: int, line: bytes) -> tuple:
        with contextlib.suppress(ValueError, KeyError, TypeError):  # no JSON, key or object
            values = columns(json.loads(line))
            if list(map(type, values)) == [int, float, float, float, float]:
                return values
        raise InvariantError(f"{sweep_path} line {number}: not a sweep record")

    try:
        source = open(sweep_path, "rb")
    except OSError as exc:
        raise IoFailureError(f"cannot read {sweep_path}: {exc}") from exc
    with source, _atomic_output(output_path) as fh:
        fh.write("m,concurrence,bell_value,upper,lower\n")
        rows = itertools.starmap(row, enumerate(source, 1))
        for _, group in itertools.groupby(rows, key=operator.itemgetter(0)):
            fh.writelines(f"{m},{c!r},{b!r},{up!r},{lo!r}\n"
                          for m, c, b, up, lo in sorted(group, key=operator.itemgetter(1)))
    return Path(output_path)
