"""Tests for the closed-form quantities, envelopes, and the classical bound."""

from __future__ import annotations

import json
import math

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
from bellbound.bounds import _sign_space
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
        # n >= 16 spans several 2^14-row chunks; the reference builds each afresh
        def chunked(nm):
            total, chunk = 1 << (nm.n - 1), 1 << 14
            return max(float(np.abs(_sign_space(nm.n, start, min(start + chunk, total))
                                    @ nm.entries).sum(axis=1).max())
                       for start in range(0, total, chunk))

        rng = np.random.default_rng(["normal", "integer", "mixed"].index(kind))
        for n in range(1, 21):
            if kind == "normal":
                entries = rng.standard_normal((n, n))
            elif kind == "integer":
                entries = rng.integers(-5, 6, (n, n)).astype(float)
            else:
                entries = rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(-3, 2, (n, n))
            nm = BellCoefficientMatrix(entries)
            assert classical_bound(nm) == chunked(nm), n


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
