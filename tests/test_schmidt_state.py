"""Tests for state construction, concurrence, and the sampling measures."""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellbound import (
    SchmidtVector,
    concurrence,
    effective_rank,
    max_concurrence,
    new_schmidt,
    sample_haar,
    sample_simplex,
)
from bellbound.errors import (
    EmptyInputError,
    InvariantError,
    NegativeCoefficientError,
    NonFiniteCoefficientError,
    ZeroVectorError,
)
from bellbound import schmidt_state
from bellbound.bounds import closed_forms
from bellbound.schmidt_state import validate_rows
from bellbound.tolerances import NORM_TOL

SQ2 = math.sqrt(0.5)


def reference_verdict(rows, first_index, tol):
    """The message of the ``InvariantError`` that ``validate_rows`` raises on ``rows``, or
    None: the per-check rules alone, each of them deciding, with no fused test before them."""
    defect = np.abs(np.vecdot(rows, rows) - 1.0)
    checks = (
        (~np.isfinite(rows).all(axis=1), "coeffs must be finite"),
        (((rows < 0.0) | (rows > 1.0 + tol)).any(axis=1), "every coefficient must lie in [0, 1]"),
        ((rows[:, :-1] < rows[:, 1:]).any(axis=1), "coefficients must be nonincreasing"),
        (defect > tol, "squares must sum to 1 within {tol:g} (off by {defect:.3e})"),
    )
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if not failing.any():
        return None
    row = int(np.argmax(failing))
    reason = next(text for bad, text in checks if bad[row])
    return f"index {first_index + row}: " + reason.format(tol=tol, defect=float(defect[row]))


# entries at the edges of the checks: signed zeros, NaN, infinities, the range bound and
# just past it, and 2**-15, whose square puts 1.0's row exactly 2**-30 off unit norm
EDGES = [0.0, -0.0, 1.0, 0.8, 0.6, SQ2, 0.5, 2**-15, 5e-324, -5e-324, 1.0 + NORM_TOL,
         1.0 + 2 * NORM_TOL, math.nan, math.inf, -math.inf]


@st.composite
def edge_blocks(draw):
    """A block of one to three rows of one width: edge entries, or unit rows, mostly sorted,
    with an entry nudged by a few ulp or replaced by an edge."""
    m = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 2)) == 0:
            row = draw(st.lists(st.sampled_from(EDGES), min_size=m, max_size=m))
        else:
            entries = st.just(0.0) | st.floats(1e-6, 1.0)
            raw = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
            row = (raw / np.linalg.norm(raw) if raw.any() else raw).tolist()
            if draw(st.integers(0, 3)):
                row.sort(reverse=True)
            k, step = draw(st.integers(0, m - 1)), draw(st.integers(-4, 4))
            for _ in range(abs(step)):
                row[k] = math.nextafter(row[k], math.copysign(math.inf, step))
            if draw(st.booleans()):
                row[draw(st.integers(0, m - 1))] = draw(st.sampled_from(EDGES))
        rows.append(row)
    return np.array(rows)


NOT_REAL = "^amplitudes must be finite reals$"
NOT_A_VECTOR = "^coeffs must be a nonempty 1-D real array"

# input that is not a sequence of reals: each entry point refuses it with its own error,
# never NumPy's TypeError or ValueError, and never by dropping an imaginary part
REFUSALS = [
    pytest.param(new_schmidt, [0.6 + 0j, 0.8], NonFiniteCoefficientError, NOT_REAL,
                 id="new_schmidt-complex-list"),
    pytest.param(new_schmidt, np.array([0.8, 0.6j]), NonFiniteCoefficientError, NOT_REAL,
                 id="new_schmidt-complex-array"),
    pytest.param(new_schmidt, ["a"], NonFiniteCoefficientError, NOT_REAL, id="new_schmidt-text"),
    pytest.param(new_schmidt, [[0.6], [0.8, 0.1]], NonFiniteCoefficientError, NOT_REAL,
                 id="new_schmidt-ragged"),
    pytest.param(new_schmidt, [[0.6, 0.8]], InvariantError,
                 r"^amplitudes must be one sequence, got shape \(1, 2\)$", id="new_schmidt-2d"),
    pytest.param(new_schmidt, 0.6, InvariantError,
                 r"^amplitudes must be one sequence, got shape \(\)$", id="new_schmidt-scalar"),
    pytest.param(SchmidtVector, [1j], InvariantError, NOT_A_VECTOR + "$",
                 id="SchmidtVector-complex-list"),
    pytest.param(SchmidtVector, np.array([0.8 + 0j, 0.6]), InvariantError, NOT_A_VECTOR + "$",
                 id="SchmidtVector-complex-array"),
    pytest.param(SchmidtVector, ["a"], InvariantError, NOT_A_VECTOR + "$",
                 id="SchmidtVector-text"),
    pytest.param(SchmidtVector, [[0.8, 0.6]], InvariantError,
                 NOT_A_VECTOR + r", got shape \(1, 2\)$", id="SchmidtVector-2d"),
    pytest.param(SchmidtVector, [], InvariantError, NOT_A_VECTOR + r", got shape \(0,\)$",
                 id="SchmidtVector-empty"),
]


@pytest.mark.parametrize("entry, value, error, message", REFUSALS)
def test_refuses_what_is_no_real_sequence(entry, value, error, message):
    with pytest.raises(error, match=message):
        entry(value)


class TestNewSchmidt:
    def test_normalizes_product_state(self):
        s = new_schmidt([2, 0])
        assert_allclose(s.coeffs, [1.0, 0.0], atol=0.0)

    def test_symmetric_normalization(self):
        s = new_schmidt([1, 1])
        assert_allclose(s.coeffs, [SQ2, SQ2], rtol=1e-15)

    def test_sorts_descending(self):
        s = new_schmidt([1, 2, 2])
        assert_allclose(s.coeffs, [2 / 3, 2 / 3, 1 / 3], rtol=1e-15)

    def test_accepts_numpy_input(self):
        s = new_schmidt(np.array([3.0, 4.0]))
        assert_allclose(s.coeffs, [0.8, 0.6], rtol=1e-15)

    @pytest.mark.parametrize("raw", [[1.0, -0.0], [-0.0, 1.0], [-0.0, 3.0, 4.0]])
    def test_negative_zero_loses_its_sign(self, raw):
        assert not np.signbit(new_schmidt(raw).coeffs).any()

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            new_schmidt([])

    def test_negative_rejected(self):
        with pytest.raises(NegativeCoefficientError):
            new_schmidt([0.5, -0.1])

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteCoefficientError):
                new_schmidt([bad, 1.0])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            new_schmidt([0.0, 0.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_amplitudes_do_not_overflow(self):
        # the squares overflow, so the norm is taken after scaling by the largest
        huge = new_schmidt([1e308, 1e308]).coeffs
        assert huge.tobytes() == new_schmidt([1, 1]).coeffs.tobytes()

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=12
        ).filter(lambda v: math.fsum(x * x for x in v) > 1e-18)
    )
    def test_constructor_invariants(self, raw):
        s = new_schmidt(raw)
        assert abs(float(np.dot(s.coeffs, s.coeffs)) - 1.0) <= 1e-9
        assert np.all(s.coeffs[:-1] >= s.coeffs[1:])
        assert np.all(s.coeffs >= 0.0)
        assert np.all(s.coeffs <= 1.0 + 1e-12)
        assert s.m == len(raw)


class TestSchmidtVectorValidation:
    def test_rejects_unsorted(self):
        with pytest.raises(InvariantError):
            SchmidtVector(np.array([0.6, 0.8]))

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantError):
            SchmidtVector(np.array([1.0, 0.5]))

    def test_rejects_negative_entry(self):
        with pytest.raises(InvariantError):
            SchmidtVector(np.array([-1.0]))

    @pytest.mark.parametrize("coeffs, text", [([1.0, -0.0], "[1.0, 0.0]"),
                                              ([0.8, 0.6, -0.0, -0.0], "[0.8, 0.6, 0.0, 0.0]")])
    def test_clears_the_sign_of_a_negative_zero(self, coeffs, text):
        assert SchmidtVector(np.array(coeffs)).to_json() == text

    def test_rejects_empty(self):
        with pytest.raises(InvariantError):
            SchmidtVector(np.array([]))

    def test_coeffs_are_read_only(self):
        s = new_schmidt([3, 4])
        with pytest.raises(ValueError):
            s.coeffs[0] = 0.0

    @settings(deadline=None)
    @given(raw=st.lists(st.floats(0.0, 1e6) | st.sampled_from([5e-324, 1e-300, 1.0]),
                        min_size=1, max_size=12).filter(lambda v: math.fsum(v) > 1e-6),
           m=st.integers(1, 9), seed=st.integers(0, 2**32))
    @example(raw=[1, 2, 2], m=1, seed=0)
    def test_to_json_round_trips(self, raw, m, seed):
        # repr of the float list writes json.dumps's bytes for every vector the class admits:
        # finite, with no -0.0; canonicalized, drawn from either measure, or with edge entries
        rng = np.random.default_rng(seed)
        for s in (new_schmidt(raw), sample_haar(m, m + 1, rng), sample_simplex(m, rng)):
            assert s.to_json() == json.dumps(s.coeffs.tolist())
            assert json.loads(s.to_json()) == s.coeffs.tolist()


class TestValidateRows:
    GOOD = [0.8, 0.6, 0.0]

    def test_accepts_canonical_block(self):
        validate_rows(np.array([self.GOOD, [1.0, 0.0, 0.0], [SQ2, SQ2, 0.0]]))

    @pytest.mark.parametrize("bad,reason", [
        ([math.nan, 0.6, 0.0], "finite"),
        ([math.inf, 0.6, 0.0], "finite"),
        ([0.8, 0.6, -1e-3], "[0, 1]"),
        ([1.25, 0.0, 0.0], "[0, 1]"),
        ([0.6, 0.8, 0.0], "nonincreasing"),
        ([0.8, 0.5, 0.0], "sum to 1"),
    ])
    def test_names_first_failing_index(self, bad, reason):
        rows = np.array([self.GOOD, self.GOOD, bad, bad])
        with pytest.raises(InvariantError, match=r"^index 42: ") as exc:
            validate_rows(rows, first_index=40)
        assert reason in str(exc.value)

    @settings(max_examples=400, deadline=None)
    @given(rows=edge_blocks(), first_index=st.integers(0, 2**40),
           tol=st.sampled_from([NORM_TOL, 2**-30]))
    @example(rows=np.array([[0.6, 0.8]]), first_index=0, tol=NORM_TOL)  # increasing
    @example(rows=np.array([[SQ2, SQ2]]), first_index=0, tol=NORM_TOL)  # equal neighbours
    @example(rows=np.array([[1.0, -0.0]]), first_index=0, tol=NORM_TOL)
    @example(rows=np.array([[1.0, 2**-15]]), first_index=0, tol=2**-30)  # defect exactly tol
    @example(rows=np.array([[1.0, 2**-15 + 2**-67]]), first_index=0, tol=2**-30)  # past it
    @example(rows=np.array([[math.nan, 0.0], [0.8, 0.6]]), first_index=3, tol=NORM_TOL)
    @example(rows=np.array([[1.0, 0.0], [-math.inf, 0.0]]), first_index=0, tol=NORM_TOL)
    @example(rows=np.zeros((0, 2)), first_index=0, tol=NORM_TOL)  # no row: passes
    @example(rows=np.zeros((1, 0)), first_index=0, tol=NORM_TOL)  # no entry: off unit norm
    def test_fused_test_decides_as_the_per_check_rules(self, rows, first_index, tol):
        # the fused test decides on its own; its verdict and the message must be those
        # of the per-check rules, at NORM_TOL and at a tolerance a defect can equal exactly
        with mock.patch.object(schmidt_state, "NORM_TOL", tol):
            try:
                validate_rows(rows, first_index)
            except InvariantError as exc:
                message = str(exc)
            else:
                message = None
        assert message == reference_verdict(rows, first_index, tol)


class TestConcurrence:
    def test_product_state_is_zero(self):
        assert concurrence(new_schmidt([1, 0])) == 0.0

    def test_bell_state_is_one(self):
        assert concurrence(new_schmidt([1, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_four_term_vector(self):
        c = concurrence(new_schmidt([1, 1, 1, 1]))
        assert c == pytest.approx(math.sqrt(1.5), abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
    def test_matches_literal_pair_sum(self, m):
        # the implementation uses power sums; compare against the double loop
        rng = np.random.default_rng(100 + m)
        for _ in range(20):
            s = sample_simplex(m, rng)
            c = s.coeffs
            brute = 2.0 * math.sqrt(
                sum((c[i] * c[j]) ** 2 for i in range(m) for j in range(i + 1, m))
            )
            assert concurrence(s) == pytest.approx(brute, abs=1e-12)

    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    def test_reduced_purity_identity(self, m):
        # C^2 = 2 (1 - sum c_i^4), the reduced-density form
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = sample_haar(m, m + 1, rng)
            purity = float(np.sum(s.coeffs**4))
            assert concurrence(s) ** 2 == pytest.approx(2.0 * (1.0 - purity), abs=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_range_with_uniform_maximum(self, m):
        rng = np.random.default_rng(m)
        for _ in range(50):
            c = concurrence(sample_simplex(m, rng))
            assert 0.0 <= c <= max_concurrence(m) + 1e-12
        uniform = new_schmidt([1.0] * m)
        assert concurrence(uniform) == pytest.approx(max_concurrence(m), abs=1e-12)

    def test_zero_iff_single_nonzero_coefficient(self):
        assert concurrence(new_schmidt([5, 0, 0])) <= 1e-12
        assert concurrence(new_schmidt([1, 1e-3])) > 1e-12


class TestMaxConcurrence:
    def test_values(self):
        assert max_concurrence(1) == 0.0
        assert max_concurrence(2) == pytest.approx(1.0, abs=0.0)
        assert max_concurrence(4) == pytest.approx(math.sqrt(1.5), abs=1e-15)


class TestEffectiveRank:
    def test_counts_above_cutoff(self):
        assert effective_rank(new_schmidt([1, 0])) == 1
        assert effective_rank(new_schmidt([3, 4])) == 2
        assert effective_rank(new_schmidt([1.0, 1e-13, 0.0])) == 1


class TestSampleHaar:
    def test_single_slot_degenerates(self):
        s = sample_haar(1, 5, np.random.default_rng(0))
        assert s.coeffs.tolist() == [1.0]

    def test_invariants_at_fixed_seed(self):
        s = sample_haar(2, 2, np.random.default_rng(11))
        assert abs(float(np.dot(s.coeffs, s.coeffs)) - 1.0) <= 1e-12
        assert s.coeffs[0] >= s.coeffs[1] >= 0.0

    def test_deterministic_under_seed(self):
        a = sample_haar(4, 5, np.random.default_rng(99))
        b = sample_haar(4, 5, np.random.default_rng(99))
        assert a.coeffs.tolist() == b.coeffs.tolist()

    def test_mean_concurrence_matches_reference(self, scalar_block):
        # For the 2x2 Haar spectrum the top squared coefficient p has
        # density 3 (2p - 1)^2 on [1/2, 1], giving E[C] = E[2 sqrt(p(1-p))]
        # = 3 pi / 16.  Cross-checked here by quadrature over that density
        # before comparing against the sampled mean.
        p = np.linspace(0.5, 1.0, 200_001)
        density = 6.0 * (2.0 * p - 1.0) ** 2  # doubled: folded onto [1/2, 1]
        reference = np.trapezoid(2.0 * np.sqrt(p * (1.0 - p)) * density, p)
        assert reference == pytest.approx(3.0 * math.pi / 16.0, abs=1e-6)

        draws = 100_000
        rows = scalar_block("haar", 2, 123, draws, prefix=2000)
        total = sum(closed_forms(rows)[0])  # bit-equal to concurrence on each row
        assert total / draws == pytest.approx(3.0 * math.pi / 16.0, abs=0.02)


class TestSampleSimplex:
    def test_single_slot_degenerates(self):
        s = sample_simplex(1, np.random.default_rng(0))
        assert s.coeffs.tolist() == [1.0]

    def test_invariants_at_fixed_seed(self):
        s = sample_simplex(3, np.random.default_rng(21))
        assert abs(float(np.dot(s.coeffs, s.coeffs)) - 1.0) <= 1e-12
        assert np.all(s.coeffs[:-1] >= s.coeffs[1:])

    def test_deterministic_under_seed(self):
        a = sample_simplex(6, np.random.default_rng(5))
        b = sample_simplex(6, np.random.default_rng(5))
        assert a.coeffs.tolist() == b.coeffs.tolist()

    def test_mean_top_weight_matches_reference(self, scalar_block):
        # p uniform on [0, 1] at m=2, so E[max(p, 1-p)] = 3/4
        draws = 100_000
        rows = scalar_block("simplex", 2, 321, draws, prefix=2000)
        total = sum((rows[:, 0] ** 2).tolist())
        assert total / draws == pytest.approx(0.75, abs=0.01)
