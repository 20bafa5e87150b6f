"""Tests for observable construction and the dense Bell-operator oracle."""

from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from bellbound import (
    CHSH_MATRIX,
    BellCoefficientMatrix,
    BellOperator,
    HermitianObservable,
    SchmidtVector,
    assemble_bell,
    build_a,
    build_b,
    expectation,
    max_expectation_grid,
    new_schmidt,
    bell_operators,
    pauli,
    sample_haar,
    sample_simplex,
)
from bellbound.bell_operators import max_expectation_block
from bellbound.errors import (
    DimensionMismatchError,
    InvalidDimensionError,
    InvalidIndexError,
    InvariantError,
    LengthMismatchError,
    NonHermitianResidueError,
    TooLargeError,
)
from bellbound.tolerances import GOLDEN_WIDTH, MAX_GRID_POINTS

S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def family_value(s, dim_b, theta):
    """Dense expectation of the CHSH-family operator at a fixed angle."""
    a_pair = [build_a(theta, s.m, 0), build_a(theta, s.m, 1)]
    b_pair = [build_b(dim_b, 0), build_b(dim_b, 1)]
    return expectation(assemble_bell(CHSH_MATRIX, a_pair, b_pair), s, dim_b)


def stack_values(s, dim_b, thetas, rowwise=False):
    """The oracle's expectations of ``s`` on one operator stack of the family: one
    matrix-vector product, or row by row (``np.vecdot``) as the golden search takes them."""
    psi = np.zeros(s.m * dim_b, dtype=complex)
    psi[np.arange(s.m) * (dim_b + 1)] = s.coeffs
    ops = bell_operators._operators(s.m, dim_b, thetas)
    return bell_operators._real_part(np.vecdot(psi, ops @ psi) if rowwise
                                     else (ops @ psi) @ psi.conj())


@pytest.fixture
def fresh_family():
    """An empty family cache, emptied again afterwards, around a test that
    patches what the cached family is built from."""
    bell_operators._family.cache_clear()
    yield bell_operators._family
    bell_operators._family.cache_clear()


def paired_parameters(s):
    """(K, gamma) recomputed from scratch, independent of the bounds module."""
    c = s.coeffs
    k = 2.0 * sum(c[i] * c[i + 1] for i in range(0, 2 * (len(c) // 2), 2))
    gamma = float(c[-1] ** 2) if len(c) % 2 else 0.0
    return k, gamma


class TestPauli:
    def test_sigma_three(self):
        assert_allclose(pauli(3).entries, S3, atol=0.0)

    def test_sigma_one(self):
        assert_allclose(pauli(1).entries, S1, atol=0.0)

    def test_sigma_two(self):
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        assert_allclose(pauli(2).entries, expected, atol=0.0)

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_rejects_bad_index(self, k):
        with pytest.raises(InvalidIndexError):
            pauli(k)


class TestHermitianObservable:
    def test_rejects_non_square(self):
        with pytest.raises(InvariantError):
            HermitianObservable(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            HermitianObservable(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_spectrum_outside_window(self):
        with pytest.raises(InvariantError):
            HermitianObservable(2.0 * np.eye(2))

    def test_accepts_pauli_and_is_read_only(self):
        obs = HermitianObservable(S3)
        assert obs.dim == 2
        with pytest.raises(ValueError):
            obs.entries[0, 0] = 0.0


class TestBellCoefficientMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(InvariantError):
            BellCoefficientMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvariantError):
            BellCoefficientMatrix(np.array([[1.0, math.inf], [0.0, 1.0]]))

    def test_chsh_constant(self):
        assert CHSH_MATRIX.n == 2
        assert_allclose(CHSH_MATRIX.entries, [[1.0, 1.0], [1.0, -1.0]], atol=0.0)


class TestBuildA:
    def test_theta_zero_is_sigma_three(self):
        assert_allclose(build_a(0.0, 2, 0).entries, S3, atol=0.0)

    def test_quarter_turn_setting_one(self):
        expected = np.kron(np.eye(2), -S1)
        assert_allclose(build_a(math.pi / 2, 4, 1).entries, expected, atol=1e-15)

    def test_odd_dimension_trailing_block(self):
        expected = np.zeros((3, 3), dtype=complex)
        expected[:2, :2] = (S3 + S1) / math.sqrt(2.0)
        expected[2, 2] = 1.0
        assert_allclose(build_a(math.pi / 4, 3, 0).entries, expected, rtol=1e-15)

    def test_dimension_one_is_scalar_one(self):
        assert_allclose(build_a(0.3, 1, 0).entries, [[1.0]], atol=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDimensionError):
            build_a(0.0, 0, 0)
        with pytest.raises(InvalidIndexError):
            build_a(0.0, 2, 2)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("which", [0, 1])
    def test_spectrum_is_plus_minus_one(self, dim, which):
        for theta in (0.0, 0.4, math.pi / 2, 2.2):
            eigs = np.linalg.eigvalsh(build_a(theta, dim, which).entries)
            assert_allclose(np.abs(eigs), 1.0, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_settings_sum_cancels_sigma_one(self, dim):
        # A0 + A1 = 2 cos(theta) * (sigma3 blocks) + 2 on a trailing odd slot
        theta = 0.9
        expected = np.zeros((dim, dim), dtype=complex)
        pairs = dim // 2
        if pairs:
            expected[: 2 * pairs, : 2 * pairs] = 2.0 * math.cos(theta) * np.kron(
                np.eye(pairs), S3
            )
        if dim % 2:
            expected[-1, -1] = 2.0
        total = build_a(theta, dim, 0).entries + build_a(theta, dim, 1).entries
        assert_allclose(total, expected, atol=1e-15)


class TestBuildB:
    def test_even_settings(self):
        assert_allclose(build_b(2, 0).entries, S3, atol=0.0)
        assert_allclose(build_b(4, 1).entries, np.kron(np.eye(2), S1), atol=0.0)

    def test_odd_dimension_trailing_block(self):
        expected = np.zeros((5, 5), dtype=complex)
        expected[:4, :4] = np.kron(np.eye(2), S3)
        expected[4, 4] = 1.0
        assert_allclose(build_b(5, 0).entries, expected, atol=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidDimensionError):
            build_b(0, 0)
        with pytest.raises(InvalidIndexError):
            build_b(2, 3)

    @pytest.mark.parametrize("dim", [1, 2, 3, 6, 7])
    @pytest.mark.parametrize("which", [0, 1])
    def test_spectrum_is_plus_minus_one(self, dim, which):
        eigs = np.linalg.eigvalsh(build_b(dim, which).entries)
        assert_allclose(np.abs(eigs), 1.0, atol=1e-12)


class TestAssembleBell:
    def test_identical_factors_sum_coefficients(self):
        obs = pauli(3)
        op = assemble_bell(CHSH_MATRIX, [obs, obs], [obs, obs])
        assert_allclose(op.entries, 2.0 * np.kron(S3, S3), atol=0.0)
        assert (op.dim_a, op.dim_b) == (2, 2)

    def test_trivial_matrix_gives_identity(self):
        eye = HermitianObservable(np.eye(2))
        op = assemble_bell(BellCoefficientMatrix(np.array([[1.0]])), [eye], [eye])
        assert_allclose(op.entries, np.eye(4), atol=0.0)

    def test_saturated_two_qubit_expectation(self):
        theta = math.pi / 4
        op = assemble_bell(
            CHSH_MATRIX,
            [build_a(theta, 2, 0), build_a(theta, 2, 1)],
            [build_b(2, 0), build_b(2, 1)],
        )
        value = expectation(op, new_schmidt([1, 1]), 2)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_linear_in_coefficient_matrix(self):
        rng = np.random.default_rng(42)
        a_pair = [build_a(0.7, 4, 0), build_a(0.7, 4, 1)]
        b_pair = [build_b(4, 0), build_b(4, 1)]
        m1 = rng.standard_normal((2, 2))
        m2 = rng.standard_normal((2, 2))
        combined = assemble_bell(BellCoefficientMatrix(m1 + m2), a_pair, b_pair)
        split = assemble_bell(BellCoefficientMatrix(m1), a_pair, b_pair).entries + (
            assemble_bell(BellCoefficientMatrix(m2), a_pair, b_pair).entries
        )
        assert_allclose(combined.entries, split, atol=1e-12)

    def test_rejects_wrong_list_length(self):
        obs = pauli(3)
        with pytest.raises(LengthMismatchError):
            assemble_bell(CHSH_MATRIX, [obs], [obs, obs])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            assemble_bell(CHSH_MATRIX, [pauli(3), build_b(4, 0)], [pauli(1), pauli(1)])


class TestExpectation:
    def test_identity_operator_gives_norm(self):
        op = BellOperator(2, 3, np.eye(6))
        s = new_schmidt([3, 4])
        assert expectation(op, s, 3) == pytest.approx(1.0, abs=1e-15)

    def test_family_at_theta_zero_on_bell_state(self):
        assert family_value(new_schmidt([1, 1]), 2, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_dim_b_mismatch(self):
        op = BellOperator(2, 2, np.eye(4))
        with pytest.raises(DimensionMismatchError):
            expectation(op, new_schmidt([1, 1]), 3)

    def test_rejects_state_larger_than_operator(self):
        op = BellOperator(2, 2, np.eye(4))
        with pytest.raises(DimensionMismatchError):
            expectation(op, new_schmidt([1, 1, 1]), 2)


class TestClosedFormAgreement:
    """The dense path must reproduce 2[(1-g) cos t + K sin t] + 2g exactly."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_dense_matches_analytic_angle_dependence(self, m):
        rng = np.random.default_rng(31 * m + 1)
        for n in (m, m + 1):
            for _ in range(3):
                s = sample_haar(m, n, rng)
                k, gamma = paired_parameters(s)
                for theta in np.linspace(0.0, 2.0 * math.pi, 9):
                    analytic = (
                        2.0 * ((1.0 - gamma) * math.cos(theta) + k * math.sin(theta))
                        + 2.0 * gamma
                    )
                    assert family_value(s, n, theta) == pytest.approx(
                        analytic, abs=1e-10
                    )

    @pytest.mark.parametrize("m", [2, 3])
    def test_half_period_covers_the_maximum(self, m):
        # f(t + pi) + f(t) = 4 gamma, so the maximum over a full period sits
        # in [0, pi): the half-grid search loses nothing
        rng = np.random.default_rng(53 + m)
        s = sample_simplex(m, rng)
        _, gamma = paired_parameters(s)
        for theta in (0.0, 0.3, 1.1, 2.9):
            folded = family_value(s, m, theta + math.pi) + family_value(s, m, theta)
            assert folded == pytest.approx(4.0 * gamma, abs=1e-10)
        full_grid = max(
            family_value(s, m, t) for t in np.linspace(0.0, 2.0 * math.pi, 720)
        )
        _, half_max = max_expectation_grid(s, m, 360)
        assert half_max >= full_grid - 1e-9


class TestMaxExpectationGrid:
    def test_product_state(self):
        theta, value = max_expectation_grid(new_schmidt([1, 0]), 2, 64)
        assert value == pytest.approx(2.0, abs=1e-10)
        assert abs(theta) <= 1e-6

    @pytest.mark.parametrize("coeffs", [[1.0], [1.0, 0.0]])
    def test_flat_family_keeps_grid_angle(self, coeffs):
        s = new_schmidt(coeffs)
        theta, value = max_expectation_grid(s, s.m, 64)
        assert 0.0 <= theta < math.pi
        assert value == 2.0

    def test_bell_state(self):
        theta, value = max_expectation_grid(new_schmidt([1, 1]), 2, 64)
        assert value == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
        assert theta == pytest.approx(math.pi / 4, abs=1e-6)

    def test_uniform_three_term_vector(self):
        _, value = max_expectation_grid(new_schmidt([1, 1, 1]), 3, 64)
        assert value == pytest.approx((4.0 * math.sqrt(2.0) + 2.0) / 3.0, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_analytic_maximum(self, m):
        rng = np.random.default_rng(m)
        for n in (m, m + 1):
            for _ in range(5):
                s = sample_haar(m, n, rng)
                k, gamma = paired_parameters(s)
                analytic = 2.0 * math.hypot(1.0 - gamma, k) + 2.0 * gamma
                _, value = max_expectation_grid(s, n, 64)
                assert value == pytest.approx(analytic, abs=1e-8)

    def test_size_guard(self):
        s = new_schmidt([1.0] * 8)
        with pytest.raises(TooLargeError):
            max_expectation_grid(s, 9, 64)

    def test_rejects_tiny_grid(self):
        with pytest.raises(InvalidDimensionError):
            max_expectation_grid(new_schmidt([1, 1]), 2, 7)

    def test_grid_guard(self, monkeypatch):
        # refused before the family or the grid's angles are built
        monkeypatch.setattr(bell_operators, "_family", None)
        monkeypatch.setattr(bell_operators, "_operators", None)
        with pytest.raises(TooLargeError, match="grid_points"):
            max_expectation_grid(new_schmidt([1, 1]), 2, MAX_GRID_POINTS + 1)


class TestBatchedEvaluator:
    """The oracle's stacked evaluator against the scalar observable/operator API."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_scalar_path(self, m):
        rng = np.random.default_rng(700 + m)
        for n in (m, m + 1):
            s = sample_haar(m, n, rng)
            thetas = np.concatenate([rng.uniform(-2.0 * math.pi, 3.0 * math.pi, 21),
                                     [0.0, math.pi / 2, math.pi, -math.pi]])
            expected = [family_value(s, n, theta) for theta in thetas]
            assert_allclose(stack_values(s, n, thetas), expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("grid_points", [8, 9, 37, 720])
    def test_grid_best_index_matches_scalar_path(self, grid_points, monkeypatch):
        brackets = []
        golden = bell_operators._golden_max

        def spy(f, lo, hi, width, depth):
            brackets.append((lo, hi))
            return golden(f, lo, hi, width, depth)

        monkeypatch.setattr(bell_operators, "_golden_max", spy)
        rng = np.random.default_rng(grid_points)
        step = math.pi / grid_points
        for m, n in ((1, 2), (2, 3), (3, 3), (5, 6), (8, 8)):
            s = sample_haar(m, n, rng)
            scalar = [family_value(s, n, k * step) for k in range(grid_points)]
            best = max(range(grid_points), key=scalar.__getitem__)
            theta, value = max_expectation_grid(s, n, grid_points)
            lo, hi = brackets[-1]
            assert (lo, hi) == (best * step - step, best * step + step)
            assert lo <= theta <= hi
            assert value >= scalar[best] - 1e-12

    @pytest.mark.parametrize("shape, most", [((2, 2), 20), ((4, 5), 20), ((8, 8), 51)])
    def test_evaluator_calls_per_search(self, monkeypatch, shape, most):
        # a one-angle golden search made 51 calls at grid 64: 4 grid stacks, 47 angles
        calls = []
        operators = bell_operators._operators

        def counting(m, n, thetas):
            calls.append(len(thetas))
            return operators(m, n, thetas)

        monkeypatch.setattr(bell_operators, "_operators", counting)
        m, n = shape
        max_expectation_grid(sample_haar(m, n, np.random.default_rng(m * n)), n, 64)
        assert calls[:4] == [16, 16, 16, 16] and len(calls) <= most

    @pytest.mark.parametrize("rowwise", [False, True])
    def test_reused_buffers_leak_no_rows(self, rowwise):
        rng = np.random.default_rng(91)
        s = sample_haar(5, 6, rng)
        for size in (16, 3, 1, 16):
            thetas = rng.uniform(0.0, math.pi, size)
            with ThreadPoolExecutor(1) as pool:  # a new thread allocates fresh buffers
                fresh = pool.submit(stack_values, s, 6, thetas, rowwise).result(timeout=60)
            assert np.array_equal(stack_values(s, 6, thetas, rowwise), fresh)

    @pytest.mark.parametrize("sigma_one, reason", [
        (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "matrix is not Hermitian"),
        (1.5 * S1, "leaves"),
    ])
    def test_first_party_stack_checks_fire(self, monkeypatch, fresh_family, sigma_one, reason):
        s = new_schmidt([3.0, 2.0, 1.0])
        b_pair = [build_b(4, 0), build_b(4, 1)]  # checked before the tampering
        monkeypatch.setattr(bell_operators, "build_b", lambda dim, which: b_pair[which])
        monkeypatch.setitem(bell_operators._SIGMA, 1, sigma_one)
        with pytest.raises(InvariantError, match=reason):
            bell_operators._operators(3, 4, np.array([0.0, 0.4, 1.1]))
        with pytest.raises(InvariantError):
            max_expectation_grid(s, 4, 64)

    def test_operator_stack_check_fires(self, monkeypatch, fresh_family):
        # a second-party matrix that skipped validation makes the stack non-Hermitian
        skew = SimpleNamespace(dim=2, entries=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        b_pair = [skew, build_b(2, 1)]
        monkeypatch.setattr(bell_operators, "build_b", lambda dim, which: b_pair[which])
        with pytest.raises(InvariantError, match="operator is not Hermitian"):
            bell_operators._operators(2, 2, np.array([0.3]))

    def test_state_wider_than_second_party(self):
        with pytest.raises(DimensionMismatchError):
            max_expectation_grid(new_schmidt([1, 1, 1]), 2, 64)


# every check fails on a NaN, where a `defect > tol` test would let it through
@pytest.mark.parametrize("build, error, reason", [
    (lambda: HermitianObservable(np.array([[math.nan, 0], [0, 1]])), InvariantError,
     r"^matrix is not Hermitian \(defect nan\)$"),
    (lambda: HermitianObservable(np.array([[math.inf, 0], [0, 1]])), InvariantError,
     r"^matrix is not Hermitian \(defect nan\)$"),
    (lambda: HermitianObservable(np.array([[1, math.nan], [math.nan, 1]])), InvariantError,
     r"^matrix is not Hermitian \(defect nan\)$"),
    (lambda: BellOperator(1, 2, [[math.nan, 0], [0, 1]]), InvariantError,
     r"^operator is not Hermitian \(defect nan\)$"),
    (lambda: bell_operators._real_part(np.array([1 + 1j * math.nan])), NonHermitianResidueError,
     r"^imaginary residue nan exceeds 1e-10$"),
], ids=["nan-diagonal", "inf-diagonal", "nan-off-diagonal", "bell-operator", "residue"])
def test_checkers_reject_non_finite(build, error, reason):
    with np.errstate(invalid="ignore"), pytest.raises(error, match=reason):
        build()


def sequential_golden_max(f, lo, hi, width):
    """The oracle's golden search before its lookahead: one angle per call of ``f``."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > width:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def sequential_grid_max(s, n, grid_points):
    """``max_expectation_grid`` with the golden search above: the grid in stacks of
    16 angles, each golden angle a one-angle stack of the default contraction."""
    step = math.pi / grid_points
    thetas = np.arange(grid_points) * step
    values = np.concatenate([stack_values(s, n, thetas[lo : lo + 16])
                             for lo in range(0, grid_points, 16)])
    best = int(np.argmax(values))
    theta_best = best * step
    theta, value = sequential_golden_max(lambda t: float(stack_values(s, n, np.array([t]))[0]),
                                         theta_best - step, theta_best + step, GOLDEN_WIDTH)
    if values[best] >= value:
        theta, value = theta_best, float(values[best])
    return theta, value


SHAPES = [(m, n) for m in range(1, 9) for n in sorted({m, m + 1, 8}) if m * n <= 64]
GRIDS = [8, 9, 17, 37, 64, 65, 720]


class TestGoldenLookahead:
    """The golden search evaluates stacks of the angles its next steps can ask for;
    theta and value must keep the bits of the one-angle search."""

    @settings(max_examples=150, deadline=None)
    @given(shape=st.sampled_from(SHAPES), grid_points=st.sampled_from(GRIDS),
           measure=st.sampled_from(["haar", "simplex"]), seed=st.integers(0, 2**32 - 1))
    def test_matches_sequential_search(self, shape, grid_points, measure, seed):
        m, n = shape
        rng = np.random.default_rng(seed)
        s = sample_haar(m, n, rng) if measure == "haar" else sample_simplex(m, rng)
        assert max_expectation_grid(s, n, grid_points) == sequential_grid_max(s, n, grid_points)

    @pytest.mark.parametrize("grid_points", GRIDS)
    @pytest.mark.parametrize("coeffs", [[1.0], [1.0, 0.0]])
    def test_flat_family_matches_sequential_search(self, coeffs, grid_points):
        s = new_schmidt(coeffs)
        for n in sorted({s.m, s.m + 1, 8}):
            assert max_expectation_grid(s, n, grid_points) == sequential_grid_max(s, n, grid_points)

    @pytest.mark.parametrize("side, depth", [(1, 3), (34, 3), (35, 2), (52, 2), (53, 1), (64, 1)])
    def test_depth_fits_the_stack_bound(self, side, depth):
        assert bell_operators._golden_depth(side) == depth


BLOCK_SHAPES = [(1, 2), (2, 2), (3, 4), (5, 6), (8, 8)]


def block_of(m, n, count, seed):
    """``count`` validated Haar rows of one (m, n), stacked as ``_draw_block`` returns them."""
    rng = np.random.default_rng(seed)
    return np.array([sample_haar(m, n, rng).coeffs for _ in range(count)])


class TestBlockOracle:
    """``max_expectation_block`` shares each grid stack among a block of states; every
    state keeps the bits of its own ``max_expectation_grid`` call."""

    @pytest.mark.parametrize("grid_points", [8, 17, 64, 65])
    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    def test_matches_one_state_calls(self, shape, grid_points):
        m, n = shape
        rows = block_of(m, n, 5, 40 * m + n)
        expected = [max_expectation_grid(SchmidtVector(row), n, grid_points) for row in rows]
        assert max_expectation_block(rows, n, grid_points) == expected

    @pytest.mark.parametrize("grid_points", [8, 17, 64, 65])
    def test_builds_each_grid_stack_once(self, monkeypatch, grid_points):
        events = []
        operators, golden = bell_operators._operators, bell_operators._golden_max

        def counting(m, n, thetas):
            events.append(len(thetas))
            return operators(m, n, thetas)

        def searching(*args):
            events.append("golden")
            return golden(*args)

        monkeypatch.setattr(bell_operators, "_operators", counting)
        monkeypatch.setattr(bell_operators, "_golden_max", searching)
        max_expectation_block(block_of(3, 4, 5, 7), 4, grid_points)
        grid = events[: events.index("golden")]
        assert grid == [min(16, grid_points - lo) for lo in range(0, grid_points, 16)]
        assert len(grid) == math.ceil(grid_points / 16)
        assert events.count("golden") == 5

    def test_threads_match_serial(self):
        # thread-local buffers: four threads on different shapes, a short switch interval
        jobs = [(block_of(m, n, 3, m * n), n) for m, n in ((2, 2), (3, 4), (5, 6), (8, 8))]
        serial = [max_expectation_block(rows, n, 17) for rows, n in jobs]

        def repeat(rows, n):
            return [max_expectation_block(rows, n, 17) for _ in range(4)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(repeat, rows, n) for rows, n in jobs]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[expected] * 4 for expected in serial]

    def test_family_is_read_only(self):
        for part in bell_operators._family(3, 4):
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[(0,) * part.ndim] = 2.0

    @pytest.mark.parametrize("shape, grid_points, reason", [
        ((8, 9), 64, "m\\*dim_b = 72"), ((2, 2), MAX_GRID_POINTS + 1, "grid_points"),
    ])
    def test_guards_come_before_the_cache(self, monkeypatch, fresh_family, shape, grid_points,
                                          reason):
        monkeypatch.setattr(bell_operators, "_operators", None)
        m, n = shape
        with pytest.raises(TooLargeError, match=reason):
            max_expectation_block(np.full((2, m), m**-0.5), n, grid_points)
        info = fresh_family.cache_info()
        assert info.hits + info.misses == 0
