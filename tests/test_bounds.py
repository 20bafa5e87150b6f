"""Tests for the closed-form quantities, envelopes, and the classical bound."""

from __future__ import annotations

import decimal
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bellbound import (
    CHSH_MATRIX,
    BellCoefficientMatrix,
    bell_value_formula,
    bound_report,
    classical_bound,
    classical_bound_naive,
    concurrence,
    core_inequalities,
    gamma_value,
    is_nonlocal_certified,
    k_value,
    lower_bound,
    new_schmidt,
    nonlocality_certificate,
    sample_haar,
    sample_simplex,
    theta_star,
    upper_bound,
)
from bellbound.bounds import _sign_space, closed_forms
from bellbound.errors import NegativeInputError, OddDimensionError, TooLargeError
from bellbound.tolerances import SATURATION_TOL, THEOREM_TOL

SQ2 = math.sqrt(2.0)


def two_nonzero_state(m, rng):
    """A state with exactly two nonzero coefficients among m slots."""
    p = rng.uniform(0.05, 0.95)
    raw = [math.sqrt(p), math.sqrt(1.0 - p)] + [0.0] * (m - 2)
    return new_schmidt(raw)


class TestKValue:
    def test_product_state(self):
        assert k_value(new_schmidt([1, 0])) == 0.0

    def test_bell_state(self):
        assert k_value(new_schmidt([1, 1])) == pytest.approx(1.0, abs=1e-15)

    def test_odd_m_excludes_last_coefficient(self):
        assert k_value(new_schmidt([1, 1, 1])) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_single_slot(self):
        assert k_value(new_schmidt([1])) == 0.0


class TestGammaValue:
    def test_even_m_is_zero(self):
        assert gamma_value(new_schmidt([1, 1])) == 0.0

    def test_odd_m_is_last_square(self):
        assert gamma_value(new_schmidt([1, 1, 1])) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_single_slot_is_one(self):
        assert gamma_value(new_schmidt([1])) == pytest.approx(1.0, abs=0.0)


class TestBellValueFormula:
    def test_product_state_hits_classical(self):
        assert bell_value_formula(new_schmidt([1, 0])) == pytest.approx(2.0, abs=0.0)

    def test_bell_state_hits_tsirelson(self):
        b = bell_value_formula(new_schmidt([1, 1]))
        assert b == pytest.approx(2.0 * SQ2, abs=1e-12)

    def test_uniform_four_term_vector(self):
        b = bell_value_formula(new_schmidt([1, 1, 1, 1]))
        assert b == pytest.approx(2.0 * SQ2, abs=1e-12)

    def test_single_slot_is_classical(self):
        # m=1: K=0 and gamma=1, a product state in disguise
        assert bell_value_formula(new_schmidt([1])) == pytest.approx(2.0, abs=0.0)


class TestThetaStar:
    def test_values(self):
        assert theta_star(new_schmidt([1, 0])) == 0.0
        assert theta_star(new_schmidt([1, 1])) == pytest.approx(math.pi / 4, abs=1e-12)
        assert theta_star(new_schmidt([1, 1, 1])) == pytest.approx(math.pi / 4, abs=1e-12)


class TestEnvelopes:
    def test_upper_values(self):
        assert upper_bound(0.0) == 2.0
        assert upper_bound(1.0) == pytest.approx(2.0 * SQ2, abs=1e-15)
        assert upper_bound(math.sqrt(1.5)) == pytest.approx(2.0 * math.sqrt(2.5), abs=1e-15)

    def test_lower_values(self):
        assert lower_bound(0.0) == pytest.approx(SQ2, abs=1e-15)
        assert lower_bound(1.0) == pytest.approx(2.0, abs=1e-15)
        assert lower_bound(math.sqrt(1.5)) == pytest.approx(math.sqrt(5.0), abs=1e-15)

    def test_reject_negative_concurrence(self):
        for c in (-0.1, math.nan):
            with pytest.raises(NegativeInputError):
                upper_bound(c)
            with pytest.raises(NegativeInputError):
                lower_bound(c)

    def test_upper_dominates_lower_everywhere(self):
        for c in np.linspace(0.0, 3.0, 50):
            assert upper_bound(c) >= lower_bound(c)


class TestCoreInequalities:
    def test_bell_state_saturates_pair_inequality(self):
        lhs5, rhs5, lhs10, rhs10 = core_inequalities(new_schmidt([1, 1]))
        assert lhs5 == pytest.approx(0.25, abs=1e-15)
        assert rhs5 == pytest.approx(0.25, abs=1e-15)
        assert lhs10 == pytest.approx(3.0, abs=1e-12)
        assert rhs10 == pytest.approx(1.0, abs=1e-12)

    def test_uniform_four_term_vector(self):
        lhs5, rhs5, lhs10, rhs10 = core_inequalities(new_schmidt([1, 1, 1, 1]))
        assert lhs5 == pytest.approx(3.0 / 8.0, abs=1e-15)
        assert rhs5 == pytest.approx(0.25, abs=1e-15)
        assert lhs10 == pytest.approx(3.0, abs=1e-12)
        assert rhs10 == pytest.approx(1.5, abs=1e-12)

    def test_product_state(self):
        assert core_inequalities(new_schmidt([1, 0])) == (0.0, 0.0, 1.0, 0.0)

    def test_rejects_odd_m(self):
        with pytest.raises(OddDimensionError):
            core_inequalities(new_schmidt([1, 1, 1]))


class TestClassicalBound:
    def test_chsh_is_exactly_two(self):
        assert classical_bound(CHSH_MATRIX) == 2.0
        assert classical_bound_naive(CHSH_MATRIX) == 2.0

    def test_identity_matrix(self):
        assert classical_bound(BellCoefficientMatrix(np.eye(3))) == 3.0

    def test_scalar_matrix(self):
        assert classical_bound(BellCoefficientMatrix(np.array([[1.0]]))) == 1.0

    def test_zero_matrix(self):
        assert classical_bound_naive(BellCoefficientMatrix(np.zeros((2, 2)))) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reduction_matches_naive_enumeration(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(30):
            nm = BellCoefficientMatrix(rng.standard_normal((n, n)))
            assert classical_bound(nm) == pytest.approx(
                classical_bound_naive(nm), abs=1e-12
            )

    def test_size_guards(self):
        with pytest.raises(TooLargeError):
            classical_bound(BellCoefficientMatrix(np.eye(25)))
        with pytest.raises(TooLargeError):
            classical_bound_naive(BellCoefficientMatrix(np.eye(9)))

    @pytest.mark.parametrize("bound", [classical_bound, classical_bound_naive])
    def test_overflow_is_a_domain_error(self, bound):
        # the sums overflow float64: numpy gives inf (fast path) or nan (naive), not J
        with pytest.raises(TooLargeError, match="not finite"):
            bound(BellCoefficientMatrix(np.full((3, 3), 1e308)))

    @pytest.mark.parametrize("kind", ["normal", "integer", "mixed"])
    def test_shared_sign_block_keeps_every_bit(self, kind):
        # the reference builds each chunk of the 2^14-row partition afresh; the bound's
        # 2^12-row blocks (several from n = 14; six matrices at each n = 13-17) must give
        # its bits, which 2^11-row blocks do not
        def chunked(nm):
            total, chunk = 1 << (nm.n - 1), 1 << 14
            return max(float(np.abs(_sign_space(nm.n, start, min(start + chunk, total))
                                    @ nm.entries).sum(axis=1).max())
                       for start in range(0, total, chunk))

        rng = np.random.default_rng(["normal", "integer", "mixed"].index(kind))
        for n in [*range(1, 13), *np.repeat(range(13, 18), 6).tolist(), *range(18, 23)]:
            if kind == "normal":
                entries = rng.standard_normal((n, n))
            elif kind == "integer":
                entries = rng.integers(-5, 6, (n, n)).astype(float)
            else:
                entries = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-3, 2, (n, n))
            nm = BellCoefficientMatrix(entries)
            assert classical_bound(nm) == chunked(nm), n

    def test_peak_memory_is_the_sign_block_and_one_product_buffer(self):
        # a (2^12, n) float64 block each; a fresh product per chunk would make three
        nm = BellCoefficientMatrix(np.random.default_rng(18).standard_normal((18, 18)))
        tracemalloc.start()
        try:
            classical_bound(nm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (1 << 12) * 18 * 8


class TestNonlocalityCertificate:
    def test_uniform_four_fires_concurrence_criterion(self):
        s = new_schmidt([1, 1, 1, 1])
        cert = nonlocality_certificate(s)
        assert cert.concurrence_above_one
        assert cert.bell_above_classical
        assert is_nonlocal_certified(s)

    def test_product_state_is_not_certified(self):
        assert not is_nonlocal_certified(new_schmidt([1, 0]))

    def test_bell_criterion_alone_suffices(self):
        # C = 0.6 < 1 here, yet B = 2 sqrt(1.36) > 2
        s = new_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        cert = nonlocality_certificate(s)
        assert not cert.concurrence_above_one
        assert cert.bell_above_classical
        assert cert.certified

    def test_odd_m_concurrence_criterion_is_inactive(self):
        s = new_schmidt([1, 1, 1, 1, 1])
        assert concurrence(s) > 1.0
        cert = nonlocality_certificate(s)
        assert not cert.concurrence_above_one
        assert cert.bell_above_classical  # B = (2 + 8 sqrt(2)) / 5 > 2


class TestBoundReport:
    def test_bell_state_saturates_upper(self):
        rep = bound_report(new_schmidt([1, 1]))
        assert rep.bell_value == pytest.approx(2.0 * SQ2, abs=1e-12)
        assert rep.upper == pytest.approx(2.0 * SQ2, abs=1e-12)
        assert rep.lower == pytest.approx(2.0, abs=1e-12)
        assert rep.theorem1_margin == pytest.approx(0.0, abs=1e-12)
        assert rep.theorem2_margin == pytest.approx(2.0 * SQ2 - 2.0, abs=1e-12)
        assert rep.classical == 2.0
        assert rep.certified_nonlocal

    def test_product_state(self):
        rep = bound_report(new_schmidt([1, 0]))
        assert rep.bell_value == pytest.approx(2.0, abs=0.0)
        assert rep.upper == pytest.approx(2.0, abs=0.0)
        assert rep.lower == pytest.approx(SQ2, abs=1e-15)
        assert rep.theorem1_margin == pytest.approx(0.0, abs=0.0)
        assert rep.theorem2_margin == pytest.approx(2.0 - SQ2, abs=1e-15)
        assert not rep.certified_nonlocal

    def test_uniform_four_term_vector(self):
        rep = bound_report(new_schmidt([1, 1, 1, 1]))
        assert rep.bell_value == pytest.approx(2.0 * SQ2, abs=1e-12)
        assert rep.upper == pytest.approx(2.0 * math.sqrt(2.5), abs=1e-12)
        assert rep.lower == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_json_is_flat_with_declared_fields(self):
        payload = json.loads(bound_report(new_schmidt([3, 4])).to_json())
        assert list(payload) == [
            "concurrence",
            "k",
            "gamma",
            "bell_value",
            "upper",
            "lower",
            "classical",
            "theorem1_margin",
            "theorem2_margin",
            "certified_nonlocal",
        ]
        assert payload["concurrence"] == pytest.approx(2 * 0.8 * 0.6, abs=1e-15)
        assert isinstance(payload["certified_nonlocal"], bool)


EVEN_STATE_BATCHES = [
    (measure, m) for measure in ("haar", "simplex") for m in (2, 4, 6, 8)
]


class TestTheoremProperties:
    @pytest.mark.parametrize("measure,m", EVEN_STATE_BATCHES)
    def test_even_m_envelopes_hold(self, measure, m):
        rng = np.random.default_rng(m * 7919 + (measure == "haar"))
        for _ in range(200):
            s = (
                sample_haar(m, m, rng)
                if measure == "haar"
                else sample_simplex(m, rng)
            )
            c = concurrence(s)
            b = bell_value_formula(s)
            assert upper_bound(c) - b >= -THEOREM_TOL
            assert b - lower_bound(c) >= -THEOREM_TOL

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_scalar_inequalities_hold(self, m):
        rng = np.random.default_rng(m)
        for _ in range(200):
            s = sample_simplex(m, rng)
            lhs5, rhs5, lhs10, rhs10 = core_inequalities(s)
            assert lhs5 >= rhs5 - 1e-12
            assert lhs10 >= rhs10 - 1e-12
            # inequality (5) after square roots
            assert k_value(s) <= concurrence(s) + 1e-12

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda half: st.lists(
                st.floats(min_value=0.0, max_value=1e3),
                min_size=2 * half,
                max_size=2 * half,
            )
        ).filter(lambda v: math.fsum(x * x for x in v) > 1e-12)
    )
    def test_scalar_inequalities_hold_exhaustively(self, raw):
        s = new_schmidt(raw)
        lhs5, rhs5, lhs10, rhs10 = core_inequalities(s)
        assert lhs5 >= rhs5 - 1e-12
        assert lhs10 >= rhs10 - 1e-12

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_two_nonzero_states_saturate_upper(self, m):
        rng = np.random.default_rng(4242 + m)
        for _ in range(50):
            s = two_nonzero_state(m, rng)
            margin = upper_bound(concurrence(s)) - bell_value_formula(s)
            assert abs(margin) <= SATURATION_TOL

    def test_two_qubit_upper_is_an_identity(self):
        # at m=2, K = C, so B = 2 sqrt(1 + C^2) exactly
        rng = np.random.default_rng(2)
        for _ in range(200):
            s = sample_haar(2, 2, rng)
            c = concurrence(s)
            b = bell_value_formula(s)
            assert abs(b - upper_bound(c)) <= SATURATION_TOL
            assert b >= 2.0 * SQ2 * c - THEOREM_TOL

    @pytest.mark.parametrize("m", [2, 4, 6])
    def test_threshold_consistency(self, m):
        rng = np.random.default_rng(17 + m)
        found_above_one = 0
        for _ in range(300):
            s = sample_simplex(m, rng)
            c = concurrence(s)
            if c > 1.0:
                found_above_one += 1
                assert lower_bound(c) > 2.0
                assert bell_value_formula(s) > 2.0
                assert is_nonlocal_certified(s)
        if m > 2:  # C > 1 is reachable only above two slots
            assert found_above_one > 0



EXACT = decimal.Context(prec=60)
with decimal.localcontext(EXACT):
    ROOT2 = Decimal(2).sqrt()
    PRODUCT_MARGIN = 2 - ROOT2  # theorem 2 at a product state
    RANK3_MARGIN = 2 * Decimal(13).sqrt() / 3 - (Decimal(14) / 3).sqrt()  # 0.2434539508...
ULP_BOUNDS = (4, 1, 4, 4, 4)  # k, gamma (one libm pow), bell_value, upper, lower
C_BOUND = 32 * Decimal(math.ulp(1.0))  # absolute: t^2 - q cancels near product states


def exact_sums(row) -> tuple[int, ...]:
    """A float row's entries as integers a_i over one common power of two: that ``scale``,
    then t = sum a_i^2, q = sum a_i^4, S = sum_k a_{2k-1} a_{2k} and the last a_i^2, exactly."""
    scale = max(x.as_integer_ratio()[1] for x in row)
    a = [int(Fraction(x) * scale) for x in row]
    p = [x * x for x in a]
    pairs = sum(a[i] * a[i + 1] for i in range(0, len(a) - 1, 2))
    return scale, sum(p), sum(x * x for x in p), pairs, p[-1]


def exact_columns(row) -> tuple[Decimal, ...]:
    """``closed_forms``' ``(concurrence, k, gamma, bell_value, upper, lower)`` of one float
    row, as its formulas define them on the row's exact values: Fractions, then one rounding
    at 60 digits per step.  Each float is an integer over one common power of two, so the
    sums t = sum p, q = sum p^2 and K, and C^2 = 2 (t^2 - q), are exact integers over it."""
    scale, t, q, pairs, last = exact_sums(row)
    k = Fraction(2 * pairs, scale**2)
    g = Fraction(last if len(row) % 2 else 0, scale**2)
    c2 = Fraction(2 * (t * t - q), scale**4)
    with decimal.localcontext(EXACT):
        def dec(f):
            return Decimal(f.numerator) / f.denominator

        h = dec(1 + c2).sqrt()
        return (dec(c2).sqrt(), dec(k), dec(g), 2 * dec((1 - g) ** 2 + k * k).sqrt() + 2 * dec(g),
                2 * h, ROOT2 * h)


def ulps(value: float, exact: Decimal) -> float:
    """``|value - exact|`` in units in the last place of the float nearest ``exact``; an
    exact 0 admits only 0."""
    if not exact:
        return 0.0 if value == 0.0 else math.inf
    return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def uniform(rank: int, m: int) -> np.ndarray:
    """The one-row block of ``rank`` equal amplitudes, then zeros, at Schmidt rank m."""
    return new_schmidt([1.0] * rank + [0.0] * (m - rank)).coeffs[None, :]


class TestExactReference:
    """``closed_forms`` against each column's exact value, which holds under every BLAS
    kernel, unlike a pinned digest; and the states where the theorems are tight or closest."""

    @pytest.mark.parametrize("measure", ["haar", "simplex"])
    def test_columns_are_within_a_few_ulps(self, measure, scalar_block):
        # at most K 2.3, B 1.6, upper 2.3 and lower 2.9 ulps and C 3.2e-15 were measured on
        # these rows, under OpenBLAS's SkylakeX and Haswell kernels alike
        for m in range(1, 17):
            rows = scalar_block(measure, m, 1000 * m + 7, 200, prefix=0)
            for row, (c, *rest) in zip(rows.tolist(), zip(*closed_forms(rows)[:6])):
                exact_c, *exact_rest = exact_columns(row)
                errors = [ulps(x, e) for x, e in zip(rest, exact_rest)]
                assert abs(Decimal(c) - exact_c) <= C_BOUND, (m, row, c)
                assert all(map(float.__le__, errors, ULP_BOUNDS)), (m, row, errors)

    @pytest.mark.parametrize("m", [2, 4, 6, 8])
    def test_product_state(self, m):
        # C = K = 0 and B = 2: theorem 1 holds with margin 0, theorem 2 with 2 - sqrt 2
        (c,), (k,), _, (b,), (up,), (lo,), _ = closed_forms(uniform(1, m))
        assert (c, k, b, up - b) == (0.0, 0.0, 2.0, 0.0)
        assert ulps(b - lo, PRODUCT_MARGIN) <= 1

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_uniform_rank_three(self, m):
        # theorem 2's least margin found, 2 sqrt 13 / 3 - sqrt(14 / 3), within 2 ulps of B
        _, _, _, (b,), _, (lo,), _ = closed_forms(uniform(3, m))
        assert abs(Decimal(b - lo) - RANK3_MARGIN) <= 2 * Decimal(math.ulp(b))

    @pytest.mark.parametrize("m", [4, 6, 8])
    def test_rank_two_rows(self, m):
        # two nonzero coefficients, whose ratio spans 36 binary exponents: theorem 1 is an
        # identity there (K = C = 2 c1 c2), D1 = 2 (t^2 - q) - 4 S^2 is exactly 0, and
        # upper - bell_value is rounding alone (at most 2 ulps of upper measured)
        ratios = np.exp(np.random.default_rng(m).uniform(-25.0, 0.0, 200))
        rows = np.array([new_schmidt([1.0, r] + [0.0] * (m - 2)).coeffs for r in ratios])
        _, _, _, bell, upper, _, _ = closed_forms(rows)
        for row, b, up in zip(rows.tolist(), bell, upper):
            _, t, q, pairs, _ = exact_sums(row)
            assert 2 * (t * t - q) - 4 * pairs**2 == 0, row
            assert abs(up - b) <= 4 * math.ulp(up), row

    @pytest.mark.parametrize("m", range(2, 17, 2))
    def test_uniform_full_rank(self, m):
        # K = 1, C^2 = 2 (1 - 1/m) and B = 2 sqrt 2, each within 2 ulps
        (c,), (k,), _, (b,), *_ = closed_forms(uniform(m, m))
        assert ulps(k, Decimal(1)) <= 2 and ulps(b, EXACT.multiply(2, ROOT2)) <= 2
        assert ulps(c, EXACT.sqrt(EXACT.divide(2 * (m - 1), m))) <= 2
