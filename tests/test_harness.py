"""Tests for sweeps: record content, summaries, determinism, file formats."""

from __future__ import annotations

import fcntl
import hashlib
import json
import math
import os
import re
import signal
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bellbound as bb
from bellbound import (
    ExperimentConfig,
    harness,
    run_sweep,
    scatter_cb,
    schmidt_state,
    substream,
    verify_oracle,
)
from bellbound.cli import main
from bellbound.errors import (InvalidDimensionError, InvariantError, IoFailureError,
                              TooLargeError, WorkerFailedError)
from bellbound.harness import resolve_workers
from bellbound.tolerances import ORACLE_TOL, THEOREM_TOL

from conftest import signalled_at_fork

TEST_PID = os.getpid()  # the test run's own process; forked workers have other pids

RECORD_FIELDS = [
    "m",
    "n",
    "index",
    "coeffs",
    "effective_rank",
    "concurrence",
    "k",
    "gamma",
    "bell_value",
    "upper",
    "lower",
    "theorem1_ok",
    "theorem2_ok",
    "certified_nonlocal",
    "oracle_value",
    "oracle_gap",
]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipe_capacity():
    """Bytes a fresh pipe holds before a write to it blocks."""
    read, write = os.pipe()
    try:
        return fcntl.fcntl(write, fcntl.F_GETPIPE_SZ)
    finally:
        os.close(read)
        os.close(write)


def counting_chunks(log, peaks, pause=0.0):
    """``harness._iter_chunks`` whose workers, the caller among them, append a byte
    to ``log`` for every finished task and pad each result to twice a pipe's buffer,
    so that no result fits a pipe.  Appends to ``peaks``, ``pause`` seconds after
    the consumer takes each chunk, how many finished chunks it has not yet taken."""
    chunks, pad = harness._iter_chunks, bytes(2 * pipe_capacity())

    def padded(work):
        def run(task):
            result = work(task)
            with open(log, "ab") as fh:
                fh.write(b".")
            return result, pad
        return run

    def counted(work, config, minimum):
        for taken, (result, _) in enumerate(chunks(padded(work), config, minimum), 1):
            time.sleep(pause)
            peaks.append(log.stat().st_size - taken)
            yield result

    return counted


class TestExperimentConfig:
    def test_rejects_empty_dims(self):
        with pytest.raises(InvalidDimensionError):
            ExperimentConfig(dims=(), samples=1, seed=0)

    def test_rejects_unknown_measure(self):
        with pytest.raises(InvalidDimensionError):
            ExperimentConfig(dims=(2,), samples=1, seed=0, measure="uniform")

    def test_rejects_bad_seed(self):
        with pytest.raises(InvalidDimensionError):
            ExperimentConfig(dims=(2,), samples=1, seed=-1)

    def test_no_tolerance_and_keywords_only(self):
        # theorem checks use THEOREM_TOL; keywords only, so that a call in an
        # older field order cannot shift a value into output_path
        with pytest.raises(TypeError):
            ExperimentConfig(dims=(2,), samples=1, seed=0, tolerance=1e-9)
        with pytest.raises(TypeError):
            ExperimentConfig((2,), 1, 0)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
    def test_rejects_duplicate_dims(self, dims):
        with pytest.raises(InvalidDimensionError, match="distinct"):
            ExperimentConfig(dims=dims, samples=1, seed=0)

    def test_coerces_dims_to_ints(self):
        cfg = ExperimentConfig(dims=[2, 4], samples=3, seed=1)
        assert cfg.dims == (2, 4)


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 2, 13).standard_normal(4)
        b = substream(7, 2, 13).standard_normal(4)
        assert a.tolist() == b.tolist()

    def test_distinct_across_indices_and_dims(self):
        base = substream(7, 2, 13).standard_normal(4).tolist()
        assert substream(7, 2, 14).standard_normal(4).tolist() != base
        assert substream(7, 3, 13).standard_normal(4).tolist() != base
        assert substream(8, 2, 13).standard_normal(4).tolist() != base


class TestRunSweep:
    def test_requires_output_path(self):
        with pytest.raises(IoFailureError):
            run_sweep(ExperimentConfig(dims=(2,), samples=1, seed=0))

    def test_duplicate_dims_write_nothing(self, tmp_path):
        # a repeated m would write its block twice and double its summary
        out = tmp_path / "dup.jsonl"
        with pytest.raises(InvalidDimensionError):
            run_sweep(ExperimentConfig(dims=(2, 3, 2), samples=3, seed=1,
                                       output_path=str(out)))
        assert not out.exists()

    def test_unwritable_path_raises(self, tmp_path):
        cfg = ExperimentConfig(
            dims=(2,), samples=1, seed=0,
            output_path=str(tmp_path / "missing" / "out.jsonl"),
        )
        with pytest.raises(IoFailureError):
            run_sweep(cfg)

    def test_violations_match_record_flags(self, tmp_path, monkeypatch, set_workers,
                                           any_work_forks):
        # at a tolerance far below one ulp, m=2 states that saturate the
        # upper envelope show up as rounding-level violations; forked
        # workers inherit the patched module
        monkeypatch.setattr(harness, "THEOREM_TOL", 1e-300)
        out = tmp_path / "tight.jsonl"
        cfg = ExperimentConfig(dims=(2, 4), samples=200, seed=3, output_path=str(out))
        set_workers(2)
        summary = run_sweep(cfg)
        expected = []
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            if not rec["theorem1_ok"]:
                expected.append((rec["m"], rec["index"], "theorem1",
                                 rec["upper"] - rec["bell_value"]))
            if not rec["theorem2_ok"]:
                expected.append((rec["m"], rec["index"], "theorem2",
                                 rec["bell_value"] - rec["lower"]))
        assert expected
        assert [(v.m, v.index, v.check, v.margin) for v in summary.violations] == expected
        assert [d.violations for d in summary.per_dim] == [
            sum(1 for v in expected if v[0] == m) for m in (2, 4)]
        set_workers(1)
        assert summary == run_sweep(cfg)

    def test_failing_sweep_keeps_the_first_violations_and_counts_all(self, tmp_path, monkeypatch,
                                                                     set_workers, any_work_forks):
        # every even-m check fails: each chunk returns at most MAX_VIOLATIONS of its failures and
        # the caller keeps the first ones in (m, index) order, while per_dim counts every one
        monkeypatch.setattr(harness, "THEOREM_TOL", -10.0)
        monkeypatch.setattr(harness, "MAX_VIOLATIONS", 7)
        cfg = ExperimentConfig(dims=(2, 3, 4), samples=200, seed=1,
                               output_path=str(tmp_path / "x.jsonl"))
        for workers in (1, 2):
            set_workers(workers)
            summary = run_sweep(cfg)
            assert [d.violations for d in summary.per_dim] == [400, 0, 400]
            assert [(v.m, v.index, v.check) for v in summary.violations] == [
                (2, i // 2, f"theorem{i % 2 + 1}") for i in range(7)]

    def test_failing_sweep_memory_does_not_grow_with_samples(self, tmp_path, monkeypatch,
                                                             set_workers):
        # an all-failing run at 4x the samples peaks at about the same traced memory: what a
        # chunk holds and the MAX_VIOLATIONS kept, not a record per failure
        monkeypatch.setattr(harness, "THEOREM_TOL", -10.0)
        set_workers(1)  # tracemalloc sees the caller only
        peaks = []
        for samples in (2 * harness.MAX_CHUNK, 8 * harness.MAX_CHUNK):
            cfg = ExperimentConfig(dims=(2,), samples=samples, seed=1,
                                   output_path=str(tmp_path / "x.jsonl"))
            tracemalloc.start()
            try:
                summary = run_sweep(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.per_dim[0].violations == 2 * samples
            assert len(summary.violations) == harness.MAX_VIOLATIONS
        assert peaks[1] < 1.2 * peaks[0]

    def test_written_chunk_text_is_not_held(self, tmp_path, set_workers):
        # a chunk's text is released once written, so the caller never holds two chunks'
        # text: at m = 8 a passing 8-chunk sweep peaks at the traced memory of a 1-chunk one
        # (4.2 MiB; 5.1 MiB with the previous chunk's text still bound)
        set_workers(1)  # tracemalloc sees the caller only
        peaks = []
        for chunks in (1, 8):
            cfg = ExperimentConfig(dims=(8,), samples=chunks * harness.MAX_CHUNK, seed=1,
                                   output_path=str(tmp_path / "x.jsonl"))
            tracemalloc.start()
            try:
                summary = run_sweep(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert summary.per_dim[0].violations == 0
        assert peaks[1] <= 1.02 * peaks[0]

    def test_chunks_are_capped(self, set_workers):
        # the tasks cover [0, samples) in contiguous chunks of at most MAX_CHUNK samples; the
        # cap at any worker count is test_chunk_policy's
        for workers in (1, 2):
            set_workers(workers)
            cfg = ExperimentConfig(dims=(2,), samples=10**6, seed=0)
            ranges = list(harness._iter_chunks(lambda task: task[4:], cfg, 1))
            assert max(hi - lo for lo, hi in ranges) <= harness.MAX_CHUNK
            assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
            assert ranges[0][0] == 0 and ranges[-1][1] == 10**6

    def test_chunk_policy_examples(self):
        # (samples, dims, minimum, requested workers, usable CPUs) -> (W, chunk size)
        sweep = harness.MIN_SWEEP_WORK
        plans = {
            (100, (2,), 1, 1, 1): (1, 100),
            (800, (2,), 1, 2, 2): (2, 400),
            (250, (2,), 1, 3, 3): (3, 84),
            (100, (2,), 1, 4, 4): (2, 64),              # 64-sample floor: two tasks, two workers
            (10**6, (2,), 1, 10000, 2): (2, 2048),      # cut for the 2 CPUs, not the 10000 asked
            (100, (2, 4, 6, 8), sweep, 1, 1): (1, 100),  # sweep-haar-even, serial
            (800, (2, 4, 6, 8), sweep, 2, 2): (2, 400),  # sweep-haar-even, parallel
            (250, (2, 4, 6, 8), sweep, 2, 2): (2, 125),  # the benchmark's two golden shapes
            (250, (3, 9, 33), sweep, 2, 2): (2, 125),
            (200, (2, 4), sweep, 1, 1): (1, 200),        # cli-mix's sweep at 1 and 2 threads
            (200, (2, 4), sweep, 2, 2): (1, 200),
            (2, (3,), 1, 2, 2): (1, 64),                # cli-mix's verify --m 3 --samples 2
            (1, (8,), 1, 2, 2): (1, 64),                # the oracle workload's one-state call
        }
        for (samples, dims, minimum, requested, cpus), plan in plans.items():
            cfg = ExperimentConfig(dims=dims, samples=samples, seed=0)
            assert harness._plan(cfg, minimum, requested, cpus, True) == plan

    @pytest.mark.parametrize("writer,dims,samples,forks", [
        # sweep: two workers lose at 1600 samples x m and below, and win from 2400
        (run_sweep, (2, 4), 100, 0), (run_sweep, (2, 4), 200, 0), (run_sweep, (8,), 100, 0),
        (run_sweep, (8,), 200, 0), (run_sweep, (2, 4), 400, 1), (run_sweep, (2, 4), 800, 1),
        (run_sweep, (8,), 400, 1), (run_sweep, (8,), 800, 1),
    ])
    def test_forks_only_where_a_worker_pays(self, tmp_path, set_workers, fork_spy, writer, dims,
                                            samples, forks):
        # below the measured break-even a run at two workers forks nothing, above it W - 1
        set_workers(2)
        writer(ExperimentConfig(dims=dims, samples=samples, seed=0,
                                output_path=str(tmp_path / "out")))
        assert len(fork_spy) == forks

    @settings(max_examples=300, deadline=None)
    @given(samples=st.integers(1, 10**6), dims=st.sets(st.integers(1, 40), min_size=1, max_size=5),
           minimum=st.integers(1, 10**4), requested=st.integers(1, 10**4),
           cpus=st.integers(1, 64), fork=st.booleans())
    @example(samples=harness.MAX_CHUNK, dims={2}, minimum=1, requested=1, cpus=1, fork=True)
    @example(samples=3 * harness.MAX_CHUNK, dims={2}, minimum=1, requested=3, cpus=3, fork=True)
    @example(samples=3 * harness.MAX_CHUNK + 1, dims={2}, minimum=1, requested=3, cpus=3,
             fork=True)
    def test_chunk_policy(self, samples, dims, minimum, requested, cpus, fork):
        cfg = ExperimentConfig(dims=tuple(sorted(dims)), samples=samples, seed=0)
        workers, size = harness._plan(cfg, minimum, requested, cpus, fork)
        tasks = len(dims) * -(-samples // size)
        # every chunk but the last of an m holds 64 to MAX_CHUNK samples
        assert 64 <= size <= harness.MAX_CHUNK
        assert 1 <= workers <= min(requested, cpus, tasks)
        assert workers == 1 or workers * minimum <= samples * sum(dims)
        assert fork or workers == 1
        # the chunks are cut for the workers that run, one per worker while they fit
        assert size == min(harness.MAX_CHUNK, max(64, -(-samples // workers)))
        if fork and workers < min(requested, cpus):
            assert workers == tasks or (workers + 1) * minimum > samples * sum(dims)

    @pytest.mark.parametrize("dims,samples,workers,sizes", [
        ((2, 4), 64, 4, [1]),         # two tasks: the caller and one fork, not four
        ((2,), 64, 4, []),            # one task runs serially
        ((2, 3, 4), 100, 64, [5]),    # 64-sample floor: two chunks per m
        ((2, 3), 300, 2, [1]),        # more tasks than workers
    ])
    def test_pool_sized_to_tasks(self, tmp_path, set_workers, any_work_forks, fork_spy, dims,
                                 samples, workers, sizes):
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        kwargs = dict(dims=dims, samples=samples, seed=8)
        set_workers(1)
        run_sweep(ExperimentConfig(output_path=str(serial), **kwargs))
        assert fork_spy == []
        set_workers(workers, cpus=64)  # so that the CPU cap does not bind
        run_sweep(ExperimentConfig(output_path=str(pooled), **kwargs))
        _, size = harness._plan(ExperimentConfig(**kwargs), 1, workers, 64, True)
        tasks = len(dims) * -(-samples // size)
        assert ([len(fork_spy)] if fork_spy else []) == sizes
        assert len(fork_spy) < tasks
        assert sha256(pooled) == sha256(serial)

    def test_bounded_chunks_in_flight(self, tmp_path, monkeypatch, set_workers, any_work_forks,
                                      fork_spy):
        # three chunks per m and six dims: each forked worker runs six chunks
        serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
        kwargs = dict(dims=(2, 3, 4, 5, 6, 7), samples=64 * 3, seed=4)
        set_workers(1)
        run_sweep(ExperimentConfig(output_path=str(serial), **kwargs))
        set_workers(3)
        log, peaks = tmp_path / "finished.log", []
        # a slow consumer, so that the workers run as far ahead as they can
        monkeypatch.setattr(harness, "_iter_chunks", counting_chunks(log, peaks, pause=0.05))
        run_sweep(ExperimentConfig(output_path=str(pooled), **kwargs))
        assert len(fork_spy) == 2  # the caller is the third worker
        assert len(peaks) == log.stat().st_size == 18  # every chunk was taken
        # a worker waits for the caller's credit before it overwrites its spill file:
        # each forked worker holds at most two finished chunks, and the caller's own
        # chunk is taken as it finishes
        assert 2 < max(peaks) <= 4
        assert sha256(pooled) == sha256(serial)

    def test_pool_capped_at_usable_cpus(self, tmp_path, set_workers, fork_spy):
        # chunks follow the workers that run: 2048 samples each for the CPUs, not 64 for the
        # 10000 workers asked
        cfg = ExperimentConfig(dims=(2,), samples=10**6, seed=0)
        expected = [(2, lo, min(lo + 2048, 10**6)) for lo in range(0, 10**6, 2048)]
        log, peaks = tmp_path / "finished.log", []
        for cpus in (2, 1):
            set_workers(10000, cpus=cpus)
            log.write_bytes(b"")
            tasks = counting_chunks(log, peaks)(lambda task: task[3:], cfg, 1)
            assert list(tasks) == expected
        assert len(fork_spy) == 1  # the caller and one forked worker; one CPU ran serially
        assert max(peaks) <= 2

    def test_chunks_leave_in_submission_order(self, set_workers):
        # two forked workers, the first of which finishes its first chunk last; that
        # chunk still leaves before the second worker's
        set_workers(3)
        cfg = ExperimentConfig(dims=(2, 3), samples=192, seed=0)
        expected = [(m, lo, lo + 64) for m in (2, 3) for lo in (0, 64, 128)]
        assert list(harness._iter_chunks(first_forked_chunk_finishes_last, cfg, 1)) == expected

    @pytest.mark.parametrize("workers,dims,samples", [
        (1, (2, 3), 128),
        (2, (2, 3), 128),
        (2, (2, 3, 5), 64),        # three tasks on two workers
        (3, (2, 3, 5, 7), 128),    # eight tasks on three workers
    ])
    def test_worker_w_runs_every_wth_chunk(self, set_workers, fork_spy, workers, dims, samples):
        set_workers(workers)
        cfg = ExperimentConfig(dims=dims, samples=samples, seed=0)
        _, size = harness._plan(cfg, 1, workers, workers, True)
        expected = [(m, lo, min(lo + size, samples)) for m in dims
                    for lo in range(0, samples, size)]
        chunks = list(harness._iter_chunks(lambda task: (task[3:], os.getpid()), cfg, 1))
        assert [chunk for chunk, _ in chunks] == expected
        # the caller is worker 0 and runs chunks i = 0 (mod W); worker w is the w-th fork
        runners = [os.getpid(), *fork_spy]
        assert len(runners) == workers
        assert [pid for _, pid in chunks] == [runners[i % workers] for i in range(len(chunks))]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_chunk_of_a_huge_run_allocates_little(self, set_workers, fork_spy, workers):
        # 10**9 samples per m are about 2 * 10**6 tasks: made lazily, none is held before
        # the first chunk, in the caller or in a forked worker's copy
        set_workers(workers)
        cfg = ExperimentConfig(dims=(2, 4, 6, 8), samples=10**9, seed=0)
        chunks = harness._iter_chunks(lambda task: task[3:], cfg, harness.MIN_SWEEP_WORK)
        tracemalloc.start()
        try:
            assert next(chunks) == (2, 0, harness.MAX_CHUNK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            chunks.close()
        assert len(fork_spy) == workers - 1
        assert peak < 2**20

    @pytest.mark.parametrize("writer,kernel", [(run_sweep, "_sweep_chunk")])
    def test_failed_run_leaves_no_file(self, tmp_path, monkeypatch, set_workers, writer, kernel):
        set_workers(1)  # a forked worker counts calls apart
        original = getattr(harness, kernel)
        calls = []

        def fails_on_second_chunk(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("kernel failed")
            return original(*args)

        monkeypatch.setattr(harness, kernel, fails_on_second_chunk)
        out = tmp_path / "out.jsonl"
        cfg = ExperimentConfig(dims=(2, 4), samples=10, seed=5, output_path=str(out))
        with pytest.raises(RuntimeError, match="kernel failed"):
            writer(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_the_file_it_would_replace(self, tmp_path, monkeypatch,
                                                        set_workers):
        set_workers(1)

        def fails(task):
            raise RuntimeError("kernel failed")

        monkeypatch.setattr(harness, "_sweep_chunk", fails)
        out = tmp_path / "out.jsonl"
        out.write_bytes(b"an earlier run\n")
        with pytest.raises(RuntimeError, match="kernel failed"):
            run_sweep(ExperimentConfig(dims=(2,), samples=10, seed=5, output_path=str(out)))
        assert list(tmp_path.iterdir()) == [out]
        assert out.read_bytes() == b"an earlier run\n"

    def test_two_writers_of_one_file(self, tmp_path, monkeypatch, set_workers):
        # two threads write one target: each has a temporary file of its own, so both
        # return and the file holds the whole output of one of them
        set_workers(1)
        serial = []
        for seed in (1, 2):
            path = tmp_path / f"serial-{seed}.jsonl"
            run_sweep(ExperimentConfig(dims=(2, 4, 6, 8), samples=300, seed=seed,
                                       output_path=str(path)))
            serial.append(path.read_bytes())
        chunks, start = harness._iter_chunks, threading.Barrier(2, timeout=60)

        def after_both_opened(*args):  # both temporary files are open before a write
            start.wait()
            yield from chunks(*args)

        def write(seed):
            try:
                return run_sweep(ExperimentConfig(dims=(2, 4, 6, 8), samples=300, seed=seed,
                                                  output_path=str(tmp_path / "out.jsonl")))
            finally:
                start.abort()  # a writer that fails before the barrier frees the other

        monkeypatch.setattr(harness, "_iter_chunks", after_both_opened)
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(write, seed) for seed in (1, 2)]
            summaries = [future.result(timeout=120) for future in futures]
        assert [summary.records_written for summary in summaries] == [1200, 1200]
        assert (tmp_path / "out.jsonl").read_bytes() in serial
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "out.jsonl", "serial-1.jsonl", "serial-2.jsonl"]

    def test_dead_worker_is_a_domain_error(self, tmp_path, monkeypatch, set_workers,
                                           any_work_forks, capsys):
        # two workers: the caller runs the m=2 chunk, and the forked worker exits on
        # the m=3 chunk
        set_workers(2)
        monkeypatch.setattr(harness, "_sweep_chunk", sweep_chunk_exits_at_m_three)
        out = tmp_path / "out.jsonl"
        argv = ["sweep", "--dims", "2,3", "--samples", "10", "--seed", "5", "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: WorkerFailedError: no readable result from worker 1 of 2 "
                              "for chunk m=3 [0, 10): ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestFoldedSummaries:
    """A run's summary is the fold of its chunks' reductions, field by field: it must not
    depend on how the chunks fall, at any worker count or chunk cap, for even and odd m."""

    SPLITS = [(workers, cap) for workers in (1, 2, 3) for cap in (64, 100, 2048)]

    @staticmethod
    def folded(monkeypatch, set_workers, run, workers, cap):
        set_workers(workers)
        monkeypatch.setattr(harness, "MAX_CHUNK", cap)
        return run()

    def test_sweep_summary_does_not_depend_on_chunking(self, tmp_path, monkeypatch,
                                                       set_workers, any_work_forks):
        # a tolerance far below one ulp makes m = 2 report violations, so that the counts
        # and the violation list are folded too
        monkeypatch.setattr(harness, "THEOREM_TOL", 1e-300)

        def run():
            return run_sweep(ExperimentConfig(dims=(2, 3, 4), samples=300, seed=6,
                                              output_path=str(tmp_path / "out.jsonl")))

        summaries = [self.folded(monkeypatch, set_workers, run, *split) for split in self.SPLITS]
        assert summaries[0].violations and summaries[0].per_dim[1].min_theorem1_margin is None
        assert all(summary == summaries[-1] for summary in summaries)

    def test_oracle_summary_does_not_depend_on_chunking(self, monkeypatch, set_workers):
        def run():
            return verify_oracle(ExperimentConfig(dims=(2, 3), samples=150, seed=6,
                                                  second_dim_offset=1), grid_points=8)

        summaries = [self.folded(monkeypatch, set_workers, run, *split) for split in self.SPLITS]
        assert [d.samples for d in summaries[0].per_dim] == [150, 150]
        assert all(summary == summaries[-1] for summary in summaries)


class TestForkedRunner:
    """``harness._iter_chunks`` on two workers, the caller and one forked worker:
    what reaches the caller, and that no child outlives the call.  The caller runs
    chunks 0 and 2 and the worker chunks 1 and 3, (3, 64, 128) among them."""

    CONFIG = ExperimentConfig(dims=(2, 3), samples=128, seed=0)
    CHUNKS = [(m, lo, lo + 64) for m in (2, 3) for lo in (0, 64)]

    @staticmethod
    def fails_at_m_three(task):
        if task[3] == 3:
            raise TooLargeError(f"chunk m=3 [{task[4]}, {task[5]}) failed")
        return task[3:]

    @classmethod
    def fails_in_the_worker_at_m_three(cls, task):
        return cls.fails_at_m_three(task) if os.getpid() != TEST_PID else task[3:]

    @classmethod
    def fails_in_the_caller_at_m_three(cls, task):
        return cls.fails_at_m_three(task) if os.getpid() == TEST_PID else task[3:]

    @staticmethod
    def dies_at_m_three(task):
        if task[3] == 3 and os.getpid() != TEST_PID:  # the test run itself never dies
            os._exit(1)
        return task[3:]

    @staticmethod
    def stalls_after_first(task):
        if task[4]:
            time.sleep(60)
        return task[3:]

    def test_worker_exception_keeps_type_and_message(self, set_workers, fork_spy):
        set_workers(2)
        taken = []
        with pytest.raises(TooLargeError, match=r"^chunk m=3 \[64, 128\) failed$"):
            taken.extend(harness._iter_chunks(self.fails_in_the_worker_at_m_three, self.CONFIG, 1))
        assert taken == self.CHUNKS[:3]
        assert len(fork_spy) == 1

    def test_unpicklable_exception_is_a_worker_failure(self, set_workers, fork_spy):
        class Unpicklable(Exception):  # a class local to a function does not pickle
            pass

        def fails(task):
            if task[3] == 3 and os.getpid() != TEST_PID:  # only a forked worker pickles it
                raise Unpicklable("never sent")
            return task[3:]

        set_workers(2)
        taken = []
        with pytest.raises(WorkerFailedError, match=r"^no readable result from worker 1 of 2 "
                                                    r"for chunk m=3 \[64, 128\): "):
            taken.extend(harness._iter_chunks(fails, self.CONFIG, 1))
        assert taken == self.CHUNKS[:3]
        assert len(fork_spy) == 1

    def test_dead_worker_is_named_at_its_own_chunk(self, set_workers, fork_spy):
        # the caller's first chunk ends only once the forked worker has died at m = 3, so the
        # credit for its chunk m=2 [64, 128) meets a closed pipe; the chunk it died on is named
        def work(task):
            if os.getpid() == TEST_PID and task[3:5] == (2, 0):
                deadline = time.monotonic() + 5
                while not os.waitid(os.P_PID, fork_spy[0], os.WEXITED | os.WNOHANG | os.WNOWAIT):
                    assert time.monotonic() < deadline, "the forked worker did not die"
                    time.sleep(0.01)
            return self.dies_at_m_three(task)

        set_workers(2)
        taken = []
        with pytest.raises(WorkerFailedError, match=r"^no readable result from worker 1 of 2 "
                                                    r"for chunk m=3 \[64, 128\): EOFError"):
            taken.extend(harness._iter_chunks(work, self.CONFIG, 1))
        assert taken == self.CHUNKS[:3]
        assert len(fork_spy) == 1

    @pytest.mark.parametrize("path", ["success", "failing-chunk", "dead-worker", "closed-early",
                                      "failing-own-chunk"])
    def test_every_child_is_reaped(self, set_workers, fork_spy, path):
        set_workers(2)
        if path == "success":
            assert list(harness._iter_chunks(lambda task: task[3:], self.CONFIG, 1)) == self.CHUNKS
        elif path == "closed-early":  # the workers stall; the consumer takes one chunk
            chunks = harness._iter_chunks(self.stalls_after_first, self.CONFIG, 1)
            assert next(chunks) == self.CHUNKS[0]
            start = time.monotonic()
            chunks.close()
            assert time.monotonic() - start < 30  # the stalled workers were killed
        else:
            work, error, message = {
                "failing-chunk": (self.fails_in_the_worker_at_m_three, TooLargeError,
                                  r"^chunk m=3 \[64, 128\) failed$"),
                "dead-worker": (self.dies_at_m_three, WorkerFailedError,
                                r"^no readable result from worker 1 of 2 "
                                r"for chunk m=3 \[64, 128\): "),
                "failing-own-chunk": (self.fails_in_the_caller_at_m_three, TooLargeError,
                                      r"^chunk m=3 \[0, 64\) failed$")}[path]
            with pytest.raises(error, match=message):
                list(harness._iter_chunks(work, self.CONFIG, 1))
        assert len(fork_spy) == 1
        with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)

    def test_no_worker_waits_on_the_caller(self, tmp_path, set_workers, fork_spy):
        # results that no pipe holds, and a caller whose own first chunk ends only once
        # the forked worker has finished its second: the worker runs a chunk ahead
        # while the caller computes, whatever a chunk's size
        log, peaks = tmp_path / "finished.log", []
        log.write_bytes(b"")

        def work(task):
            if os.getpid() == TEST_PID and task[3:5] == (2, 0):
                deadline = time.monotonic() + 5
                while log.stat().st_size < 2:
                    assert time.monotonic() < deadline, "the forked worker waited on the caller"
                    time.sleep(0.01)
            return task[3:]

        set_workers(2)
        assert list(counting_chunks(log, peaks)(work, self.CONFIG, 1)) == self.CHUNKS
        assert len(fork_spy) == 1

    def test_short_spill_write_is_a_worker_failure(self, monkeypatch, set_workers, fork_spy):
        # the forked worker's pwrite writes half of each message and says so: the
        # caller reads that half, which does not unpickle
        pwrite = os.pwrite

        def writes_half(fd, data, offset):
            return pwrite(fd, data[:len(data) // 2], offset)

        monkeypatch.setattr(os, "pwrite", writes_half)
        set_workers(2)
        taken = []
        with pytest.raises(WorkerFailedError, match=r"^no readable result from worker 1 of 2 "
                                                    r"for chunk m=2 \[64, 128\): "):
            taken.extend(harness._iter_chunks(lambda task: task[3:], self.CONFIG, 1))
        assert taken == self.CHUNKS[:1]
        assert len(fork_spy) == 1

    def test_failed_fork_reaps_the_workers_forked(self, monkeypatch, set_workers, fork_spy):
        # three workers: the first fork succeeds, the second fails
        fork = os.fork

        def second_fails():
            if fork_spy:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        set_workers(3)
        monkeypatch.setattr(os, "fork", second_fails)
        with pytest.raises(WorkerFailedError,
                           match=r"^cannot start worker 2 of 3: BlockingIOError"):
            list(harness._iter_chunks(lambda task: task[3:], self.CONFIG, 1))
        assert len(fork_spy) == 1
        with pytest.raises(ChildProcessError):  # no child is left, not even a zombie
            os.waitpid(-1, os.WNOHANG)

    def test_child_signalled_at_its_fork_ends_alone(self, fresh, tmp_path):
        # KeyboardInterrupt in the forked child as its fork returns, before any line of the
        # runner runs there: only the caller leaves run_sweep, with the chunk the child never
        # sent, and the caller's except block runs in the caller alone
        out = tmp_path / "out.jsonl"
        config = f"ExperimentConfig(dims=(2, 3), samples=10, seed=5, output_path={str(out)!r})"
        code = (signalled_at_fork(signal.SIGINT)
                + "from bellbound import ExperimentConfig, run_sweep\n"
                + "print('caller', os.getpid(), flush=True)\n"
                + f"try:\n    run_sweep({config})\n"
                + "except BaseException as exc:\n"
                + "    print('left run_sweep', os.getpid(), type(exc).__name__, flush=True)\n")
        r = fresh("-c", code, BELLBOUND_THREADS="2")
        caller = r.stdout.split()[1]
        assert r.stdout == f"caller {caller}\nleft run_sweep {caller} WorkerFailedError\n", \
            r.stderr
        assert r.returncode == 0, r.stderr
        assert list(tmp_path.iterdir()) == []

    def test_children_never_return_into_the_caller(self, tmp_path, set_workers, fork_spy):
        log, parent = tmp_path / "pids", os.getpid()

        def work(task):  # the caller's last chunk is slow, so a child that fell through
            if os.getpid() == parent and task[3:5] == (3, 0):  # logs before it is killed
                time.sleep(0.5)
            return task[3:]

        def consumer():
            try:
                yield from harness._iter_chunks(work, self.CONFIG, 1)
            finally:
                with open(log, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                if os.getpid() != parent:  # a child that got here ends here, not in the test run
                    os._exit(0)

        set_workers(2)
        assert list(consumer()) == self.CHUNKS
        assert len(fork_spy) == 1
        assert log.read_text() == f"{parent}\n"


_SWEEP_CHUNK = harness._sweep_chunk


def first_forked_chunk_finishes_last(task):
    """The task's ``(m, start, stop)``, half a second late for the chunk at m=2 that
    starts at 64: task 1, the first forked worker's first chunk."""
    if task[3:5] == (2, 64):
        time.sleep(0.5)
    return task[3:]


def sweep_chunk_exits_at_m_three(task):
    """``_sweep_chunk`` whose process dies on an m=3 task, where that process
    is a forked worker; the test run itself never dies."""
    if task[3] == 3 and os.getpid() != TEST_PID:
        os._exit(1)
    return _SWEEP_CHUNK(task)


def reference_haar(m, n, rng):
    """Independent reference for the Haar draw of ``schmidt_state._draw_rows``:
    one Gaussian matrix, one SVD, scaled by ``np.linalg.norm``."""
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    sv = np.linalg.svd(g, compute_uv=False)
    return bb.SchmidtVector(sv / np.linalg.norm(sv))


def reference_simplex(m, rng):
    """Independent reference for the simplex draw of ``schmidt_state._draw_rows``."""
    p = rng.standard_exponential(m)
    p /= p.sum()
    c = np.sqrt(p)
    c[::-1].sort()
    return bb.SchmidtVector(c)


def reference_draw(measure, m, n, rng):
    return reference_haar(m, n, rng) if measure == "haar" else reference_simplex(m, rng)


def scalar_line(seed, measure, offset, m, index):
    """One sweep record rebuilt from the reference draws and the public scalar API."""
    n = m + offset
    s = reference_draw(measure, m, n, substream(seed, m, index))
    c = bb.concurrence(s)
    b = bb.bell_value_formula(s)
    up, lo = bb.upper_bound(c), bb.lower_bound(c)
    even = m % 2 == 0
    record = {
        "m": m, "n": n, "index": index, "coeffs": s.coeffs.tolist(),
        "effective_rank": bb.effective_rank(s), "concurrence": c, "k": bb.k_value(s),
        "gamma": bb.gamma_value(s), "bell_value": b, "upper": up, "lower": lo,
        "theorem1_ok": (up - b >= -THEOREM_TOL) if even else None,
        "theorem2_ok": (b - lo >= -THEOREM_TOL) if even else None,
        "certified_nonlocal": bb.is_nonlocal_certified(s),
        "oracle_value": None, "oracle_gap": None,
    }
    return json.dumps(record, separators=(",", ":")) + "\n"


class TestDrawKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.one_of(st.integers(1, 12), st.just(33)),
        offset=st.integers(0, 3),
        measure=st.sampled_from(["haar", "simplex"]),
        draws=st.integers(1, 4),
    )
    @example(seed=0, m=1, offset=0, measure="haar", draws=1)
    @example(seed=0, m=33, offset=3, measure="simplex", draws=3)
    def test_scalar_samplers_match_reference(self, seed, m, offset, measure, draws):
        # a fresh generator, then draws in a row from the same one
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(draws):
            if measure == "haar":
                s = bb.sample_haar(m, m + offset, ours)
            else:
                s = bb.sample_simplex(m, ours)
            assert s.coeffs.tobytes() == reference_draw(measure, m, m + offset, ref).coeffs.tobytes()


class TestSweepKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.one_of(st.integers(1, 12), st.just(33)),
        offset=st.integers(0, 3),
        measure=st.sampled_from(["haar", "simplex"]),
        start=st.integers(0, 10**6),
        count=st.integers(1, 6),
    )
    # gamma at m=3: libm pow(c, 2) and c * c differ in the last ulp here
    @example(seed=7919, m=3, offset=1, measure="haar", start=49, count=1)
    def test_records_match_scalar_api(self, seed, m, offset, measure, start, count):
        task = (seed, measure, offset, m, start, start + count)
        text, summary, violations = harness._sweep_chunk(task)
        expected = [scalar_line(seed, measure, offset, m, i)
                    for i in range(start, start + count)]
        assert text.splitlines(keepends=True) == expected
        assert summary.samples == count and violations == []
        records = [json.loads(line) for line in text.splitlines()]
        assert [list(record) for record in records] == [RECORD_FIELDS] * count
        assert summary.max_concurrence == max(r["concurrence"] for r in records)
        if m % 2 == 0:
            assert summary.min_theorem1_margin == min(r["upper"] - r["bell_value"]
                                                      for r in records)
            assert summary.min_theorem2_margin == min(r["bell_value"] - r["lower"]
                                                      for r in records)

    def test_invalid_draw_names_sample(self, monkeypatch):
        class NanStream:
            def standard_exponential(self, out):
                out[:] = math.nan

        streams = harness._substreams

        def nan_at_six(seed, m, start, stop):
            for index, rng in zip(range(start, stop), streams(seed, m, start, stop)):
                yield NanStream() if index == 6 else rng

        monkeypatch.setattr(harness, "_substreams", nan_at_six)
        with pytest.raises(bb.errors.InvariantError,
                           match=r"^sample m=3 index 6: coeffs must be finite"):
            harness._sweep_chunk((1, "simplex", 0, 3, 5, 8))


class TestSeedDerivation:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        m=st.integers(1, 40),
        start=st.one_of(st.integers(0, 300), st.integers(2**32 - 8, 2**32 + 2),
                        st.integers(2**32, 2**64 - 8)),
        count=st.integers(1, 8),
    )
    @example(seed=0, m=1, start=2**32 - 3, count=6)
    @example(seed=2**32 - 1, m=4, start=2**32 - 3, count=6)
    @example(seed=2**32, m=33, start=0, count=6)
    @example(seed=2**64 - 1, m=40, start=2**32 - 1, count=2)
    def test_matches_numpy_seeding(self, seed, m, start, count):
        # the contiguous block, as _substreams builds it
        words = np.ascontiguousarray(harness._seed_words(seed, m, start, start + count))
        streams = harness._substreams(seed, m, start, start + count)
        assert len(words) == count
        for index, row, rng in zip(range(start, start + count), words, streams):
            seq = np.random.SeedSequence((seed, m, index))
            assert row.tolist() == seq.generate_state(4, np.uint64).tolist()
            assert np.random.PCG64(harness._Words(row)).state == np.random.PCG64(seq).state
            assert rng.integers(2**63, size=4).tolist() == \
                substream(seed, m, index).integers(2**63, size=4).tolist()

    @pytest.mark.parametrize("start,stop", [(0, 6), (2**32 - 3, 2**32 + 3)])
    def test_generators_stay_valid_after_the_next_is_yielded(self, start, stop):
        streams = list(harness._substreams(11, 4, start, stop))  # every one yielded first
        assert len(streams) == stop - start
        for index, rng in zip(range(start, stop), streams):
            assert rng.integers(2**63, size=4).tolist() == \
                substream(11, 4, index).integers(2**63, size=4).tolist()

    def test_block_is_checked_against_substream(self, monkeypatch):
        # substream is the one seeding recipe: with another recipe in its place, a block
        # hashed as before no longer matches it, at either index width
        monkeypatch.setattr(schmidt_state, "substream",
                            lambda seed, m, index: np.random.default_rng((index, m, seed)))
        for start, stop in [(3, 7), (2**32 + 1, 2**32 + 3)]:
            with pytest.raises(bb.errors.InvariantError,
                               match=rf"^sample m=2 index {start}: derived PCG64 state"):
                next(harness._substreams(5, 2, start, stop))

    def test_block_check_calls_no_traced_substream(self, monkeypatch):
        # harness.substream, which a trace counts as drawn states, seeds a one-sample
        # range alone; the block's check asks schmidt_state's
        calls = []
        monkeypatch.setattr(harness, "substream", lambda *args: calls.append(args) or
                            schmidt_state.substream(*args))
        assert len(list(harness._substreams(5, 2, 3, 7))) == 4
        assert len(list(harness._substreams(5, 2, 9, 10))) == 1
        assert calls == [(5, 2, 9)]

    def test_wrong_derivation_fails_the_run(self, tmp_path, monkeypatch, set_workers):
        seed_words = harness._seed_words
        monkeypatch.setattr(harness, "_seed_words",
                            lambda *args: seed_words(*args) ^ np.uint64(1))
        cfg = ExperimentConfig(dims=(2,), samples=5, seed=3,
                               output_path=str(tmp_path / "out.jsonl"))
        set_workers(1)
        with pytest.raises(bb.errors.InvariantError,
                           match=r"^sample m=2 index 0: derived PCG64 state"):
            run_sweep(cfg)
        assert list(tmp_path.iterdir()) == []

    def test_wrong_last_row_fails_the_run(self, tmp_path, monkeypatch, set_workers):
        seed_words = harness._seed_words

        def wrong_last_row(*args):
            words = seed_words(*args)
            words[-1] ^= np.uint64(1)
            return words

        monkeypatch.setattr(harness, "_seed_words", wrong_last_row)
        cfg = ExperimentConfig(dims=(2,), samples=5, seed=3,
                               output_path=str(tmp_path / "out.jsonl"))
        set_workers(1)
        with pytest.raises(bb.errors.InvariantError,
                           match=r"^sample m=2 index 4: derived PCG64 state"):
            run_sweep(cfg)
        assert list(tmp_path.iterdir()) == []
        # a chunk straddling 2**32 is checked at the two-word index width too
        with pytest.raises(bb.errors.InvariantError,
                           match=rf"^sample m=2 index {2**32 + 1}: derived PCG64 state"):
            harness._sweep_chunk((3, "haar", 0, 2, 2**32 - 2, 2**32 + 2))


class TestResolveWorkers:
    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv("BELLBOUND_THREADS", "5")
        assert resolve_workers() == 5

    def test_zero_means_auto(self, monkeypatch):
        monkeypatch.setenv("BELLBOUND_THREADS", "0")
        assert resolve_workers() >= 1

    def test_unset_means_auto(self, monkeypatch):
        monkeypatch.delenv("BELLBOUND_THREADS", raising=False)
        assert resolve_workers() >= 1

    def test_auto_counts_usable_cpus(self, monkeypatch):
        monkeypatch.setenv("BELLBOUND_THREADS", "0")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers() == 1  # e.g. under taskset -c 0 on an 8-CPU host
        monkeypatch.delattr(os, "sched_getaffinity")  # platforms without the mask
        assert resolve_workers() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("BELLBOUND_THREADS", "many")
        with pytest.raises(InvalidDimensionError):
            resolve_workers()

    @pytest.mark.parametrize("text,got", [("2.5", "'2.5'"), ("-1", "-1")])
    def test_non_integral_or_negative_rejected(self, monkeypatch, text, got):
        # the text is parsed with int(), then checked as every integer argument is
        monkeypatch.setenv("BELLBOUND_THREADS", text)
        with pytest.raises(InvalidDimensionError,
                           match=f"^BELLBOUND_THREADS must be an integer >= 0, got {got}$"):
            resolve_workers()


class TestVerifyOracle:
    @pytest.mark.parametrize("m,offset", [(2, 0), (2, 1), (3, 0)])
    def test_formula_matches_grid(self, m, offset):
        cfg = ExperimentConfig(
            dims=(m,), samples=25, seed=5, second_dim_offset=offset
        )
        summary = verify_oracle(cfg, grid_points=64)
        assert summary.max_gap <= ORACLE_TOL
        assert summary.per_dim[0].n == m + offset

    def test_rows_validated_once(self, monkeypatch, set_workers):
        # _draw_block's validated rows go to the oracle as they are, not via SchmidtVector
        set_workers(1)
        calls = []
        validate = schmidt_state.validate_rows

        def counting(rows, *args):
            calls.append(len(rows))
            return validate(rows, *args)

        monkeypatch.setattr(schmidt_state, "validate_rows", counting)
        monkeypatch.setattr(harness, "validate_rows", counting)
        verify_oracle(ExperimentConfig(dims=(2, 3), samples=5, seed=5), grid_points=8)
        assert calls == [5, 5]

    def test_enforces_dense_guard(self):
        cfg = ExperimentConfig(dims=(8,), samples=1, seed=0, second_dim_offset=1)
        with pytest.raises(TooLargeError):
            verify_oracle(cfg, grid_points=64)

    def test_rejects_duplicate_dims(self):
        with pytest.raises(InvalidDimensionError):
            verify_oracle(ExperimentConfig(dims=(3, 3), samples=1, seed=0), grid_points=64)

    @pytest.mark.parametrize("m,n,samples,grid,message", [
        (2, 2, 100000, 2097152, "dense oracle guard: grid_points = 2097152 > 1048576"),
        (8, 9, 130, 64, "dense oracle guard: m*dim_b = 72 exceeds 64"),
    ], ids=["grid", "shape"])
    def test_refuses_before_any_fork_or_draw(self, monkeypatch, set_workers, fork_spy, m, n,
                                             samples, grid, message):
        # both runs would fork a worker at two; the guards refuse them before the pool starts
        set_workers(2)
        draws, draw = [], harness._draw_block
        monkeypatch.setattr(harness, "_draw_block", lambda *args: draws.append(args) or draw(*args))
        cfg = ExperimentConfig(dims=(m,), samples=samples, seed=1, second_dim_offset=n - m)
        assert harness._plan(cfg, 1, 2, 2, True)[0] == 2
        with pytest.raises(TooLargeError, match=f"^{re.escape(message)}$"):
            verify_oracle(cfg, grid_points=grid)
        assert fork_spy == [] and draws == []


def write_sweep(tmp_path, **kwargs):
    """The path of a sweep file of ``ExperimentConfig(**kwargs)`` written in ``tmp_path``."""
    sweep = tmp_path / "sweep.jsonl"
    run_sweep(ExperimentConfig(output_path=str(sweep), **kwargs))
    return sweep


def sweep_then_cb(tmp_path, **kwargs):
    """The scatter CSV that ``scatter_cb`` converts from ``write_sweep``'s file."""
    return scatter_cb(write_sweep(tmp_path, **kwargs), tmp_path / "cloud.csv")


@pytest.mark.parametrize("where", ["relative", "absolute"])
@pytest.mark.parametrize("as_path", [str, Path, os.fsencode], ids=["str", "pathlib", "bytes"])
def test_every_path_type_writes_the_named_file(tmp_path, monkeypatch, where, as_path):
    # a str, a pathlib.Path and a bytes path name the same file, with the same bytes: a
    # bytes path is decoded, never written under the text of its repr
    config = dict(dims=(2, 3), samples=5, seed=7)
    reference = write_sweep(tmp_path, **config)
    expected = [reference.read_bytes(),
                scatter_cb(reference, tmp_path / "cloud.csv").read_bytes()]
    (target := tmp_path / "out").mkdir()
    monkeypatch.chdir(target)
    sweep, cloud = (Path(name) if where == "relative" else target / name
                    for name in ("sweep.jsonl", "cloud.csv"))
    run_sweep(ExperimentConfig(output_path=as_path(sweep), **config))
    assert scatter_cb(as_path(sweep), as_path(cloud)) == cloud
    assert sorted(os.listdir(target)) == ["cloud.csv", "sweep.jsonl"]
    assert [(target / name).read_bytes() for name in ("sweep.jsonl", "cloud.csv")] == expected


class TestScatterCb:
    def test_requires_output_path(self, tmp_path):
        sweep = write_sweep(tmp_path, dims=(2,), samples=1, seed=0)
        with pytest.raises(IoFailureError):
            scatter_cb(sweep, None)
        assert list(tmp_path.iterdir()) == [sweep]

    def test_rows_sorted_and_within_envelopes(self, tmp_path):
        lines = sweep_then_cb(tmp_path, dims=(2, 4), samples=200, seed=23,
                              measure="simplex").read_text().splitlines()[1:]
        assert len(lines) == 400
        last_c = {2: -1.0, 4: -1.0}
        for line in lines:
            m_txt, c_txt, b_txt, up_txt, lo_txt = line.split(",")
            m, c, b = int(m_txt), float(c_txt), float(b_txt)
            assert c >= last_c[m]
            last_c[m] = c
            assert float(lo_txt) - THEOREM_TOL <= b <= float(up_txt) + THEOREM_TOL
        # each m block holds that m's records, stably sorted by concurrence
        keys = ("m", "concurrence", "bell_value", "upper", "lower")
        records = map(json.loads, (tmp_path / "sweep.jsonl").read_text().splitlines())
        rows = sorted((tuple(rec[key] for key in keys) for rec in records),
                      key=lambda row: (row[0], row[1]))
        assert lines == [f"{m},{c!r},{b!r},{up!r},{lo!r}" for m, c, b, up, lo in rows]

    def test_envelope_cap_at_m_four(self, tmp_path):
        lines = sweep_then_cb(tmp_path, dims=(4,), samples=2000,
                              seed=37).read_text().splitlines()[1:]
        top = max(float(line.split(",")[2]) for line in lines)
        assert top <= 2.0 * math.sqrt(1.0 + 1.5) + THEOREM_TOL  # 2 sqrt(1 + C_max^2)

    @pytest.mark.parametrize("bad", [
        b"not json", b"[1, 2]", b"null", b"", b"\xff", b'{"m": 2}',
        b'{"m": 2, "concurrence": "0.5", "bell_value": 2.0, "upper": 2.2, "lower": 1.6}',
        b'{"m": true, "concurrence": 0.5, "bell_value": 2.0, "upper": 2.2, "lower": 1.6}',
        b'{"m": 2, "concurrence": 1, "bell_value": 2.0, "upper": 2.2, "lower": 1.6}',
    ], ids=["text", "array", "null", "empty", "not-utf8", "no-columns", "string-value",
            "bool-m", "int-value"])
    def test_malformed_line_names_its_number(self, tmp_path, bad):
        # the fifth of six records is replaced; the conversion stops there and leaves no file,
        # and names a path given as bytes as text
        sweep = write_sweep(tmp_path, dims=(2, 3), samples=3, seed=3)
        lines = sweep.read_bytes().splitlines(keepends=True)
        lines[4] = bad + b"\n"
        sweep.write_bytes(b"".join(lines))
        for path in (sweep, os.fsencode(sweep)):
            with pytest.raises(InvariantError, match=f"^{re.escape(str(sweep))} line 5: "
                                                     "not a sweep record$"):
                scatter_cb(path, tmp_path / "cloud.csv")
            assert list(tmp_path.iterdir()) == [sweep]

    @pytest.mark.parametrize("is_dir", [False, True], ids=["missing", "directory"])
    def test_unreadable_input_is_an_io_failure(self, tmp_path, is_dir):
        sweep = tmp_path / "sweep.jsonl"
        if is_dir:
            sweep.mkdir()
        for path in (sweep, os.fsencode(sweep)):  # a bytes path is named as text
            with pytest.raises(IoFailureError, match=f"^cannot read {re.escape(str(sweep))}: "):
                scatter_cb(path, tmp_path / "cloud.csv")
            assert list(tmp_path.iterdir()) == ([sweep] if is_dir else [])
