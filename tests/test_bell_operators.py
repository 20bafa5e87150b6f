"""Tests for observable construction and the dense Bell-operator oracle."""

from __future__ import annotations

import math
import sys
import threading
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
from bellbound.tolerances import GOLDEN_WIDTH, HERMITIAN_TOL, MAX_GRID_POINTS

S1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
S3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def family_value(s, dim_b, theta):
    """Dense expectation of the CHSH-family operator at a fixed angle."""
    a_pair = [build_a(theta, s.m, 0), build_a(theta, s.m, 1)]
    b_pair = [build_b(dim_b, 0), build_b(dim_b, 1)]
    return expectation(assemble_bell(CHSH_MATRIX, a_pair, b_pair), s)


def dense_operators(m, n, thetas):
    """The oracle's ``(G, D, D)`` operator stack of the family at ``thetas``: the checked
    entries of ``_operators`` scattered into this thread's zeroed buffer, as it contracts them."""
    at = bell_operators._family(m, n)[-1]
    return bell_operators._scatter(bell_operators._operators(m, n, thetas), at, m * n)


def stack_values(s, dim_b, thetas, rowwise=False):
    """The oracle's expectations of ``s`` on one operator stack of the family: one
    matrix-vector product, or row by row (``np.vecdot``) as the golden search takes them."""
    psi = np.zeros(s.m * dim_b, dtype=complex)
    psi[np.arange(s.m) * (dim_b + 1)] = s.coeffs
    ops = dense_operators(s.m, dim_b, thetas)
    return bell_operators._real_part(np.vecdot(psi, ops @ psi) if rowwise
                                     else (ops @ psi) @ psi.conj())


# 0, pi/2 and pi, negative angles and angles beyond 2 pi
ANGLES = np.array([0.0, math.pi / 2, math.pi, -math.pi, -0.7, 2.3, 2.0 * math.pi + 0.4, 11.0])


def kron_operators(m, n, thetas):
    """``sum_i A_i(theta) (x) sum_j N_ij B_j`` from the scalar observables, one ``np.kron``
    per first-party setting, on the second party that ``bell_operators`` builds."""
    b_pair = [bell_operators.build_b(n, j).entries for j in (0, 1)]
    sides = [w[0] * b_pair[0] + w[1] * b_pair[1] for w in CHSH_MATRIX.entries]
    return np.array([np.kron(build_a(t, m, 0).entries, sides[0])
                     + np.kron(build_a(t, m, 1).entries, sides[1]) for t in thetas])


@pytest.fixture
def fresh_family():
    """Empty family and grid caches, emptied again afterwards, around a test that
    patches what the cached family is built from; yields the function that empties
    both.  A cached grid stack holds entries at the family's positions, so the two
    caches are emptied together."""
    caches = bell_operators._family, bell_operators._grid  # before a test patches either

    def clear():
        for cache in caches:
            cache.cache_clear()

    clear()
    yield clear
    clear()


def unchecked_grid(m, n, grid_points, lo):
    """A stand-in for ``bell_operators._grid`` that builds and checks nothing: zero
    entries at the family's positions, so that a search reaches its golden stacks."""
    return np.zeros((min(16, grid_points - lo), bell_operators._family(m, n)[-1].size), complex)


def spy_builds(monkeypatch):
    """A list that records the angle count of every ``_operators`` build and
    ``"golden"`` at the start of every golden search."""
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
    return events


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
        value = expectation(op, new_schmidt([1, 1]))
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

    @pytest.mark.parametrize("entries", [np.eye(3), np.zeros((4, 5))], ids=["3x3", "4x5"])
    def test_operator_rejects_entries_of_another_shape(self, entries):
        with pytest.raises(InvariantError, match=r"entries must be 4 x 4, got \("):
            BellOperator(2, 2, entries)


class TestExpectation:
    def test_identity_operator_gives_norm(self):
        op = BellOperator(2, 3, np.eye(6))
        s = new_schmidt([3, 4])
        assert expectation(op, s) == pytest.approx(1.0, abs=1e-15)

    def test_family_at_theta_zero_on_bell_state(self):
        assert family_value(new_schmidt([1, 1]), 2, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_state_larger_than_operator(self):
        op = BellOperator(2, 2, np.eye(4))
        with pytest.raises(DimensionMismatchError):
            expectation(op, new_schmidt([1, 1, 1]))


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

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_operators_equal_kron_reference(self, m):
        # bit for bit, on every shape the oracle's guards admit: m <= n, m * n <= 64
        for n in range(m, 64 // m + 1):
            assert np.array_equal(dense_operators(m, n, ANGLES),
                                  kron_operators(m, n, ANGLES)), (m, n)

    def test_positions_come_from_the_parts(self, monkeypatch, fresh_family):
        # a second party without a zero entry: positions assumed from the tiling would
        # leave most of each operator out
        def dense_b(dim, which):
            spread = np.full((dim, dim), 1.0 / dim)  # a projector, spectrum {0, 1}
            return HermitianObservable(0.5 * np.eye(dim) + 0.5 * spread if which == 0
                                       else 0.3 * np.eye(dim) - 0.6 * spread)

        shapes = ((1, 2), (2, 3), (3, 5), (4, 4))
        rng = np.random.default_rng(409)
        for m, n in shapes:  # warm caches, then a family rebuilt from other parts
            max_expectation_grid(new_schmidt([1.0] * m), n, 64)
        fresh_family()
        monkeypatch.setattr(bell_operators, "build_b", dense_b)
        for m, n in shapes:
            ops = dense_operators(m, n, ANGLES)
            assert np.array_equal(ops, kron_operators(m, n, ANGLES))
            first_party = np.count_nonzero(build_a(ANGLES[-1], m, 0).entries)
            assert np.count_nonzero(ops[-1]) == first_party * n * n
            # the grid stacks hold the entries at the rebuilt positions, so a call keeps
            # the bits of a search on whole operators
            s = sample_haar(m, n, rng)
            assert max_expectation_grid(s, n, 64) == sequential_grid_max(s, n, 64)
            assert bell_operators._grid(m, n, 64, 48).shape == (16, first_party * n * n)

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

    @pytest.mark.parametrize("shape, most", [((2, 2), 11), ((4, 5), 11), ((8, 8), 10)])
    def test_evaluator_calls_per_search(self, monkeypatch, shape, most):
        # at grid 64 a one-angle golden search made 51 calls (4 grid stacks, 47 angles),
        # the depth lookahead alone 20 / 20 / 51, and with the golden path at depth 3 and
        # one build per golden request 11 / 11 / 10 on a cold grid cache (20 at 8x8 at
        # depth 1, 12 with requests cut into stacks of at most 1 MB); a warm one leaves the
        # golden stacks, 7 / 7 / 6 on this state (6-9 / 6-9 / 6-8 over 40 Haar states,
        # 16-19 at 8x8 at depth 1, 8-10 with the 1 MB cut)
        events = spy_builds(monkeypatch)
        m, n = shape
        s = sample_haar(m, n, np.random.default_rng(m * n))
        bell_operators._grid.cache_clear()
        cold = max_expectation_grid(s, n, 64)
        cold_events, events[:] = events[:], []
        assert cold_events[:5] == [16, 16, 16, 16, "golden"] and len(cold_events) - 1 <= most
        assert max_expectation_grid(s, n, 64) == cold
        assert events == ["golden", *cold_events[5:]] and len(events) - 1 <= most - 4

    @pytest.mark.parametrize("rowwise", [False, True])
    def test_reused_buffers_leak_no_rows(self, rowwise):
        rng = np.random.default_rng(91)
        s = sample_haar(5, 6, rng)
        for size in (16, 3, 1, 16):
            thetas = rng.uniform(0.0, math.pi, size)
            with ThreadPoolExecutor(1) as pool:  # a new thread allocates fresh buffers
                fresh = pool.submit(stack_values, s, 6, thetas, rowwise).result(timeout=60)
            assert np.array_equal(stack_values(s, 6, thetas, rowwise), fresh)

    def test_reused_buffers_keep_no_entries(self):
        # 8x8, then 3x5, then 1x2 in one thread: only the zero fill clears the larger
        # shapes' entries from the reused buffers
        thetas = np.random.default_rng(92).uniform(-math.pi, 3.0 * math.pi, 16)
        jobs = [(8, 8, thetas), (3, 5, thetas[:5]), (1, 2, thetas[:3])]

        def build(*jobs):
            return [dense_operators(*job).copy() for job in jobs]

        with ThreadPoolExecutor(1) as pool:
            reused = pool.submit(build, *jobs).result(timeout=60)
        for job, ops in zip(jobs, reused):
            with ThreadPoolExecutor(1) as pool:  # a new thread allocates fresh buffers
                assert np.array_equal(ops, pool.submit(build, job).result(timeout=60)[0])

    @pytest.mark.parametrize("sigma_one, reason", [
        (np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "matrix is not Hermitian"),
        (1.5 * S1, "leaves"),
    ])
    def test_first_party_stack_checks_fire(self, monkeypatch, fresh_family, sigma_one, reason):
        s = new_schmidt([3.0, 2.0, 1.0])
        b_pair = [build_b(4, 0), build_b(4, 1)]  # checked before the tampering
        monkeypatch.setattr(bell_operators, "build_b", lambda dim, which: b_pair[which])
        monkeypatch.setitem(bell_operators._SIGMA, 1, sigma_one)  # a family of tampered parts
        with pytest.raises(InvariantError, match=reason):
            bell_operators._operators(3, 4, np.array([0.0, 0.4, 1.1]))
        with pytest.raises(InvariantError, match=reason):  # the grid stacks of a cold cache
            max_expectation_grid(s, 4, 64)
        monkeypatch.setattr(bell_operators, "_grid", unchecked_grid)  # and the golden stacks
        with pytest.raises(InvariantError, match=reason):
            max_expectation_grid(s, 4, 64)

    def test_operator_stack_check_fires(self, monkeypatch, fresh_family):
        # a second-party matrix that skipped validation makes the stack non-Hermitian
        s = new_schmidt([2.0, 1.0])
        skew = SimpleNamespace(dim=2, entries=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        b_pair = [skew, build_b(2, 1)]
        monkeypatch.setattr(bell_operators, "build_b", lambda dim, which: b_pair[which])
        with pytest.raises(InvariantError, match="operator is not Hermitian"):
            bell_operators._operators(2, 2, np.array([0.3]))
        with pytest.raises(InvariantError, match="operator is not Hermitian"):
            max_expectation_grid(s, 2, 64)  # the grid stacks of a cold cache
        monkeypatch.setattr(bell_operators, "_grid", unchecked_grid)  # and the golden stacks
        with pytest.raises(InvariantError, match="operator is not Hermitian"):
            max_expectation_grid(s, 2, 64)

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


@pytest.mark.parametrize("build", [HermitianObservable, lambda arr: BellOperator(1, 2, arr)],
                         ids=["observable", "operator"])
def test_hermitian_check_is_at_hermitian_tol(build):
    # a defect of half HERMITIAN_TOL passes, one of ten times it fails
    build(np.array([[0.0, 1.0 + 0.5 * HERMITIAN_TOL], [1.0, 0.0]]))
    with pytest.raises(InvariantError, match="not Hermitian"):
        build(np.array([[0.0, 1.0 + 10.0 * HERMITIAN_TOL], [1.0, 0.0]]))


GUARDED = [(m, n) for m in range(1, 9) for n in range(m, 64 // m + 1)]  # the oracle's shapes


def transposed(at, side):
    """The flat positions in a ``side x side`` matrix of the transposes of ``at``."""
    rows, cols = np.divmod(at, side)
    return cols * side + rows


def verdict(check, *args):
    """The message of the ``InvariantError`` that ``check(*args)`` raises, or None."""
    try:
        check(*args)
    except InvariantError as exc:
        return str(exc)
    return None


class TestCompactCheck:
    """``_operators`` checks the entries it computes, each against its transpose; the verdict
    and message are those of the dense check of the scattered stack."""

    def test_positions_are_closed_under_transposition(self):
        assert len(GUARDED) == 144
        for m, n in GUARDED:
            cos_part, sin_parts, odd_slot, _, _, mirror, at = bell_operators._family(m, n)
            b_side = np.einsum("ij,jkl->ikl", CHSH_MATRIX.entries,
                               [build_b(n, w).entries for w in (0, 1)])
            pattern = np.kron(np.any([cos_part, *sin_parts, odd_slot], 0), np.any(b_side, 0))
            assert np.array_equal(at, np.flatnonzero(pattern)), (m, n)  # as first taken
            assert np.array_equal(at[mirror], transposed(at, m * n)), (m, n)

    @settings(max_examples=200, deadline=None)
    @given(shape=st.sampled_from([(1, 2), (2, 3), (3, 3), (3, 5), (5, 12), (7, 9), (1, 64),
                                  (4, 16), (8, 8)]),
           kind=st.sampled_from(["pair", "diagonal", "nan", "under", "over"]),
           scale=st.sampled_from([0.0, 0.3, 0.9, 1.1, 3.0, 1e4]),
           theta=st.floats(-4.0, 4.0), pick=st.integers(0, 2**16), row=st.integers(0, 2))
    def test_agrees_with_the_dense_check(self, shape, kind, scale, theta, pick, row):
        m, n = shape
        *_, mirror, at = bell_operators._family(m, n)
        entries = bell_operators._operators(m, n, np.array([0.4, theta, 1.3])).copy()
        on_diagonal = mirror == np.arange(len(at))  # every shape here has entries of both
        candidates = np.flatnonzero(on_diagonal if kind == "diagonal" else ~on_diagonal)
        p = candidates[pick % len(candidates)]
        if kind == "pair":  # one side of a transposed pair
            entries[row, p] += scale * HERMITIAN_TOL
        elif kind == "diagonal":  # an imaginary part on the diagonal
            entries[row, p] += 0.5j * scale * HERMITIAN_TOL
        elif kind == "nan":
            entries[row, p] = complex(math.nan, 0.0) if scale else complex(0.0, math.nan)
        else:  # a defect just under or just over the tolerance
            factor = 0.99 if kind == "under" else 1.01
            entries[row, p] = np.conj(entries[row, mirror[p]]) + factor * HERMITIAN_TOL
        compact = verdict(bell_operators._check_hermitian, entries, "operator", mirror)
        dense = verdict(bell_operators._check_hermitian,
                        bell_operators._scatter(entries, at, m * n), "operator")
        assert compact == dense
        if kind in ("under", "over"):  # the cases sit on either side of HERMITIAN_TOL
            assert (compact is None) == (kind == "under")

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (3, 4), (8, 8)])
    def test_asymmetric_pattern_is_refused(self, monkeypatch, fresh_family, shape):
        # a second party whose s1 part sits above the diagonal only: the positions closed
        # under transposition pair each of its entries with a zero, and the check refuses it
        # (at m = 1 the two settings' parts cancel, and the operator is Hermitian)
        m, n = shape
        upper = SimpleNamespace(dim=n, entries=np.triu(build_b(n, 1).entries))
        b_pair = [build_b(n, 0), upper]
        monkeypatch.setattr(bell_operators, "build_b", lambda dim, which: b_pair[which])
        *_, mirror, at = bell_operators._family(m, n)
        assert np.array_equal(at[mirror], transposed(at, m * n))  # closed all the same
        dense = verdict(BellOperator, m, n, kron_operators(m, n, ANGLES[1:2])[0])
        assert dense is not None and dense.startswith("operator is not Hermitian")
        with pytest.raises(InvariantError) as refused:
            bell_operators._operators(m, n, ANGLES[1:2])
        assert str(refused.value) == dense
        with pytest.raises(InvariantError, match="operator is not Hermitian"):
            max_expectation_grid(new_schmidt([1.0] * m), n, 64)

    def test_one_buffer_per_thread(self, monkeypatch):
        # the grid and golden stacks of 64 states at 8x8 are contracted in one complex
        # buffer of operators at D = 64, 16 of them (1.05 MB) or the largest golden
        # request if that is larger; the checks hold no scratch
        events = spy_builds(monkeypatch)

        def held():
            max_expectation_block(block_of(8, 8, 64, 64), 8, 64)
            return dict(vars(bell_operators._LOCAL))

        with ThreadPoolExecutor(1) as pool:  # a new thread starts with no buffer
            local = pool.submit(held).result(timeout=120)
        largest = max(count for count in events if count != "golden")
        assert list(local) == ["buf"]
        assert local["buf"].dtype == complex and local["buf"].shape == (max(16, largest) * 64**2,)


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


def sinusoid(peak, calls, amplitude=1.0):
    """``a cos + b sin + c``, the family's form in theta, peaking at ``peak``; angle by
    angle in scalar arithmetic, so each value has the same bits in any stack.  Appends
    the length of each stack it is asked for to ``calls``."""
    def f(thetas):
        calls.append(len(thetas))
        return np.array([amplitude * math.cos(theta - peak) + 0.5 for theta in thetas])
    return f


class TestGoldenPath:
    """Each golden stack also holds the path the comparisons take if each goes toward
    the peak fitted through x1, x2 and the midpoint.  A guess only chooses what is
    evaluated: the search asks for the same angles, with the same bits."""

    @pytest.mark.parametrize("grid_points", [8, 17, 64, 65])
    @pytest.mark.parametrize("measure", ["haar", "simplex"])
    def test_matches_sequential_search(self, grid_points, measure):
        rng = np.random.default_rng(grid_points)
        for m, n in ((1, 2), (2, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 8)):
            s = sample_haar(m, n, rng) if measure == "haar" else sample_simplex(m, rng)
            assert max_expectation_grid(s, n, grid_points) == sequential_grid_max(s, n, grid_points)

    @pytest.mark.parametrize("grid_points", [8, 17, 64, 65])
    @pytest.mark.parametrize("index", ["first", "last"])
    @pytest.mark.parametrize("where", [-1.3, -0.9, -0.2, 0.0, 0.45, 1.0, 1.6])
    @pytest.mark.parametrize("turns", [-1, 0, 1])
    def test_edge_brackets(self, grid_points, index, where, turns):
        # the brackets of grid index 0 and grid - 1, around 0 and pi, with the peak
        # inside, on the edge or outside, and given as each of three 2 pi images
        step = math.pi / grid_points
        centre = 0.0 if index == "first" else (grid_points - 1) * step
        peak = centre + where * step + 2 * math.pi * turns
        calls, reference = [], []
        got = bell_operators._golden_max(sinusoid(peak, calls), centre - step, centre + step,
                                         GOLDEN_WIDTH, 3)
        f = sinusoid(peak, reference)
        assert got == sequential_golden_max(lambda t: f([t])[0], centre - step,
                                            centre + step, GOLDEN_WIDTH)
        # one stack for x1, x2 and the midpoint, one for the path, then the noise steps
        # (a peak on the midpoint leaves the first comparisons to rounding); the sign
        # of the fitted peak flipped makes 14 to 18 stacks
        assert len(calls) <= 9 < len(reference)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("amplitude", [0.0, 1e-300, 1e-17])
    def test_flat_fit(self, depth, amplitude):
        # f flat or below rounding: the fitted peak means nothing, the bits still hold
        step = math.pi / 64
        calls, reference = [], []
        got = bell_operators._golden_max(sinusoid(0.3, calls, amplitude), 0.3 - step,
                                         0.3 + step, GOLDEN_WIDTH, depth)
        f = sinusoid(0.3, reference, amplitude)
        assert got == sequential_golden_max(lambda t: f([t])[0], 0.3 - step, 0.3 + step,
                                            GOLDEN_WIDTH)


BLOCK_SHAPES = [(1, 2), (2, 2), (3, 4), (5, 6), (8, 8)]
BENCH_SHAPES = [(m, n) for m in range(2, 7) for n in (m, m + 1)] + [(8, 8)]  # bench/oracle.py


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
        events = spy_builds(monkeypatch)
        rows = block_of(3, 4, 5, 7)
        bell_operators._grid.cache_clear()
        cold = max_expectation_block(rows, 4, grid_points)
        grid = events[: events.index("golden")]
        assert grid == [min(16, grid_points - lo) for lo in range(0, grid_points, 16)]
        assert len(grid) == math.ceil(grid_points / 16)
        assert events.count("golden") == 5
        golden, events[:] = events[len(grid):], []
        # a warm cache: the grid stacks are scattered from the cache, never built again
        assert max_expectation_block(rows, 4, grid_points) == cold
        assert events == golden

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

    @pytest.mark.parametrize("grid_points", [8, 17, 64, 65])
    @pytest.mark.parametrize("measure", ["haar", "simplex"])
    def test_warm_calls_match_cold_calls(self, measure, grid_points):
        # the benchmark's 11 shapes and 1x2: a cold call builds and caches each grid
        # stack, a warm one scatters the cached entries of every stack
        rng = np.random.default_rng(grid_points)
        stacks = math.ceil(grid_points / 16)
        for m, n in [(1, 2), *BENCH_SHAPES]:
            rows = np.array([(sample_haar(m, n, rng) if measure == "haar"
                              else sample_simplex(m, rng)).coeffs for _ in range(3)])
            bell_operators._grid.cache_clear()
            cold = max_expectation_block(rows, n, grid_points)
            info = bell_operators._grid.cache_info()
            assert (info.hits, info.misses) == (0, stacks)
            assert max_expectation_block(rows, n, grid_points) == cold, (m, n)
            assert bell_operators._grid.cache_info().hits == stacks

    def test_cached_grids_are_read_only(self):
        for m, n in ((1, 2), (3, 4), (8, 8)):
            max_expectation_block(block_of(m, n, 1, 3), n, 64)
            for lo in range(0, 64, 16):
                entries = bell_operators._grid(m, n, 64, lo)
                assert not entries.flags.writeable
                with pytest.raises(ValueError):
                    entries[0, 0] = 2
                with pytest.raises(ValueError):
                    entries.fill(0)

    def test_threads_race_on_a_cold_shape(self):
        # four threads miss the cache of one shape at once and each builds its 4 stacks
        jobs = [block_of(5, 6, 3, seed) for seed in range(4)]
        serial = [max_expectation_block(rows, 6, 64) for rows in jobs]
        bell_operators._grid.cache_clear()
        start = threading.Barrier(4)

        def race(rows):
            start.wait(timeout=60)
            return [max_expectation_block(rows, 6, 64) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(race, rows) for rows in jobs]
                results = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [[expected] * 3 for expected in serial]
        assert bell_operators._grid.cache_info().currsize == 4

    def test_grid_cache_is_bounded(self):
        # a stack holds 16 angles x at most 256 entries (8x8) x 16 B = 64 KiB, so the 64
        # stacks the cache holds take at most 4 MiB, whatever the grid
        assert max(bell_operators._family(m, n)[-1].size for m, n in GUARDED) == 256
        cache = bell_operators._grid
        cache.cache_clear()
        for _ in range(2):  # the benchmark's 44 stacks are built once, then only scattered
            for m, n in BENCH_SHAPES:
                max_expectation_block(block_of(m, n, 1, 5), n, 64)
        assert cache.cache_info()[:] == (44, 44, 64, 44)  # hits, misses, maxsize, currsize
        sizes = [cache(m, n, 64, lo).nbytes for m, n in BENCH_SHAPES for lo in range(0, 64, 16)]
        assert max(sizes) == 64 << 10 and sum(sizes) < 1 << 20  # 0.96 MiB for the 11 shapes
        for grid_points in (8, 9, 17, 64, 65, 1040):  # more stacks than the cache holds
            max_expectation_block(block_of(2, 3, 1, 5), 3, grid_points)
        assert cache.cache_info().currsize == cache.cache_info().maxsize == 64

    def test_grid_beyond_the_cache(self):
        # 65 stacks, one more than the cache holds: the least recently used stack is
        # always the one a call asks for next, so every call builds every stack again
        s = sample_haar(2, 2, np.random.default_rng(1040))
        bell_operators._grid.cache_clear()
        expected = sequential_grid_max(s, 2, 1040)
        assert max_expectation_grid(s, 2, 1040) == expected  # cold
        assert max_expectation_grid(s, 2, 1040) == expected  # repeated
        assert bell_operators._grid.cache_info()[:2] == (0, 130)

    @pytest.mark.parametrize("shape, grid_points, reason", [
        ((8, 9), 64, "m\\*dim_b = 72"), ((2, 2), MAX_GRID_POINTS + 1, "grid_points"),
    ])
    def test_guards_come_before_the_cache(self, monkeypatch, fresh_family, shape, grid_points,
                                          reason):
        monkeypatch.setattr(bell_operators, "_operators", None)
        m, n = shape
        with pytest.raises(TooLargeError, match=reason):
            max_expectation_block(np.full((2, m), m**-0.5), n, grid_points)
        for info in (bell_operators._family.cache_info(), bell_operators._grid.cache_info()):
            assert info.hits + info.misses == 0
