"""Acceptance suite: the eight build-gating criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the real terminal (bypassing
capture) so a full run reads as a checklist.  Tolerances are the shared
package constants; none are loosened here.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np
import pytest

from bellbound import (
    CHSH_MATRIX,
    BellCoefficientMatrix,
    ExperimentConfig,
    bell_value_formula,
    classical_bound,
    classical_bound_naive,
    concurrence,
    is_nonlocal_certified,
    lower_bound,
    new_schmidt,
    sample_haar,
    sample_simplex,
    upper_bound,
    verify_oracle,
)
from bellbound.cli import main
from bellbound.tolerances import ORACLE_TOL, SATURATION_TOL

SWEEP_BUDGET_SECONDS = 180.0  # "under ~2 minutes on a laptop", with headroom


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")


def summary_pairs(out):
    pairs = {}
    for line in out.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


def test_criterion_1_theorem_sweeps(capsys, tmp_path):
    elapsed = {}
    violations = {}
    for measure in ("haar", "simplex"):
        out_path = tmp_path / f"acc1_{measure}.jsonl"
        start = time.perf_counter()
        code = main([
            "sweep", "--dims", "2,4,6,8", "--samples", "100000", "--seed", "1",
            "--measure", measure, "--out", str(out_path),
        ])
        elapsed[measure] = time.perf_counter() - start
        captured = capsys.readouterr()
        pairs = summary_pairs(captured.out)
        violations[measure] = pairs.get("violations")
        assert code == 0, f"{measure} sweep exited {code}: {captured.err}"
        out_path.unlink()  # ~160 MB each; checked, not needed again
    total = sum(elapsed.values())
    ok = all(v == "0" for v in violations.values()) and total < SWEEP_BUDGET_SECONDS
    report(
        capsys, 1, ok,
        "zero theorem violations, dims 2,4,6,8 x 100000 samples, "
        f"haar+simplex in {total:.1f}s",
    )
    assert violations == {"haar": "0", "simplex": "0"}
    assert total < SWEEP_BUDGET_SECONDS


def test_criterion_2_oracle_equivalence(capsys):
    worst = 0.0
    for m in (2, 3, 4, 5, 6):
        for offset in (0, 1):
            cfg = ExperimentConfig(
                dims=(m,), samples=200, seed=1202, second_dim_offset=offset
            )
            summary = verify_oracle(cfg, grid_points=64)
            worst = max(worst, summary.max_gap)
    ok = worst <= ORACLE_TOL
    report(
        capsys, 2, ok,
        "closed formula vs dense grid, m in 2..6, n in {m, m+1}, "
        f"200 samples each, max gap {worst:.2e}",
    )
    assert worst <= ORACLE_TOL


def test_criterion_3_classical_bound(capsys):
    code = main(["jn", "--matrix", "1,1;1,-1"])
    out = capsys.readouterr().out
    chsh_exact = code == 0 and float(out.strip()) == 2.0

    mismatches = 0
    for n in (2, 3, 4):
        rng = np.random.default_rng(3000 + n)
        for _ in range(100):
            nm = BellCoefficientMatrix(rng.standard_normal((n, n)))
            if abs(classical_bound(nm) - classical_bound_naive(nm)) > 1e-12:
                mismatches += 1
    ok = chsh_exact and mismatches == 0
    report(
        capsys, 3, ok,
        "CHSH J(N) printed as exactly 2; fast reduction == naive enumeration "
        "on 300 random matrices",
    )
    assert chsh_exact
    assert mismatches == 0


def test_criterion_4_saturation(capsys):
    worst = 0.0
    for m in (2, 4, 6):
        rng = np.random.default_rng(4000 + m)
        for _ in range(1000):
            p = rng.uniform(0.01, 0.99)
            s = new_schmidt([math.sqrt(p), math.sqrt(1.0 - p)] + [0.0] * (m - 2))
            margin = upper_bound(concurrence(s)) - bell_value_formula(s)
            worst = max(worst, abs(margin))
    ok = worst <= SATURATION_TOL
    report(
        capsys, 4, ok,
        "two-nonzero states saturate the upper bound, 1000 states per "
        f"m in 2,4,6, worst |margin| {worst:.2e}",
    )
    assert worst <= SATURATION_TOL


def test_criterion_5_two_qubit_relation(capsys):
    worst_identity = 0.0
    chain_ok = True
    for measure, seed in (("haar", 500), ("simplex", 501)):
        rng = np.random.default_rng(seed)
        for _ in range(10_000):
            s = sample_haar(2, 2, rng) if measure == "haar" else sample_simplex(2, rng)
            c = concurrence(s)
            b = bell_value_formula(s)
            if not (2.0 * math.sqrt(2.0) * c - 1e-9 <= b <= upper_bound(c) + 1e-9):
                chain_ok = False
            worst_identity = max(worst_identity, abs(b - upper_bound(c)))
    ok = chain_ok and worst_identity <= SATURATION_TOL
    report(
        capsys, 5, ok,
        "m=2: 2*sqrt(2)*C <= B <= 2*sqrt(1+C^2) on 20000 samples and the "
        f"upper bound is an identity, worst gap {worst_identity:.2e}",
    )
    assert chain_ok
    assert worst_identity <= SATURATION_TOL


def test_criterion_6_nonlocality_threshold(capsys):
    above_threshold = 0
    failures = 0
    for m in (2, 4, 6, 8):
        for measure, seed in (("haar", 600 + m), ("simplex", 650 + m)):
            rng = np.random.default_rng(seed)
            for _ in range(10_000):
                s = sample_haar(m, m, rng) if measure == "haar" else sample_simplex(m, rng)
                c = concurrence(s)
                if c > 1.0 + 1e-9:
                    above_threshold += 1
                    if not bell_value_formula(s) > 2.0:
                        failures += 1

    witness = new_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
    witness_b = bell_value_formula(witness)
    witness_ok = (
        concurrence(witness) == pytest.approx(0.6, abs=1e-12)
        and witness_b == pytest.approx(2.3324, abs=5e-4)
        and witness_b > 2.0
        and is_nonlocal_certified(witness)
    )
    ok = failures == 0 and above_threshold > 0 and witness_ok
    report(
        capsys, 6, ok,
        f"every C > 1 sample violates ({above_threshold} found, {failures} "
        "failures); witness with C = 0.6 still gives B = 2.332 > 2",
    )
    assert failures == 0
    assert above_threshold > 0
    assert witness_ok


def test_criterion_7_concurrence_extremes(capsys):
    worst_uniform = 0.0
    for m in (2, 4, 8):
        c = concurrence(new_schmidt([1.0] * m))
        worst_uniform = max(worst_uniform, abs(c - math.sqrt(2.0 * (m - 1) / m)))
    worst_single_c = 0.0
    worst_single_b = 0.0
    for m in (1, 2, 4, 8):
        s = new_schmidt([1.0] + [0.0] * (m - 1))
        worst_single_c = max(worst_single_c, concurrence(s))
        worst_single_b = max(worst_single_b, abs(bell_value_formula(s) - 2.0))
    ok = worst_uniform <= 1e-12 and worst_single_c <= 1e-12 and worst_single_b <= 1e-12
    report(
        capsys, 7, ok,
        "uniform vectors hit sqrt(2(m-1)/m) and single-coefficient states "
        f"give C = 0, B = 2; worst deviation {max(worst_uniform, worst_single_c, worst_single_b):.2e}",
    )
    assert worst_uniform <= 1e-12
    assert worst_single_c <= 1e-12
    assert worst_single_b <= 1e-12


def test_criterion_8_determinism(capsys, tmp_path, monkeypatch, set_workers):
    flags = ["sweep", "--dims", "2,3,4,5", "--samples", "2000", "--seed", "9"]
    digests = []
    for name, threads in (("d1.jsonl", None), ("d2.jsonl", None), ("d3.jsonl", 2)):
        if threads is None:
            monkeypatch.delenv("BELLBOUND_THREADS", raising=False)
        else:
            set_workers(threads)
        out_path = tmp_path / name
        code = main(flags + ["--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        digests.append(hashlib.sha256(out_path.read_bytes()).hexdigest())
    ok = len(set(digests)) == 1
    report(
        capsys, 8, ok,
        "sweep output hash-identical across reruns and with "
        "BELLBOUND_THREADS=2 parallelism",
    )
    assert len(set(digests)) == 1
