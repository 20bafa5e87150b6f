"""What B is the maximum of: the paper's measurement family, not every measurement.

``B = 2 sqrt((1 - gamma)^2 + K^2) + 2 gamma`` is the theta-maximum of the family in which
every 2x2 block of the first party turns by one common angle.  The reference for what other
+-1 observables reach is a see-saw: alternate best responses, each the sign of a Hermitian
m x m matrix.  One best response to the family's own second party gives each block its own
angle, ``B_blk = 2 sum_k hypot(p_k, K_k) + 2 gamma`` with ``p_k = c_{2k-1}^2 + c_{2k}^2`` and
``K_k = 2 c_{2k-1} c_{2k}``; ``B_blk >= B`` (Minkowski), and from m = 4 it can be larger.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bellbound import (bell_value_formula, bounds, build_b, concurrence, harness, new_schmidt,
                       sample_haar, sample_simplex, upper_bound)

# B and the eigenvalue sums round differently, by a few ulp of values in [2, 4): 1.33e-15 was
# the largest difference between the step and B at m = 2 and 3 over 28000 drawn states
ROUNDING = 4e-15


def b_blk(rows):
    """``B_blk`` of each row of an ``(N, m)`` block of descending Schmidt coefficients."""
    m = rows.shape[1]
    odd, even = rows[:, 0 : 2 * (m // 2) : 2], rows[:, 1 : 2 * (m // 2) : 2]
    gamma = rows[:, -1] ** 2 if m % 2 else 0.0
    return 2.0 * np.hypot(odd * odd + even * even, 2.0 * odd * even).sum(axis=1) + 2.0 * gamma


def sign_of(h):
    """The +-1 observable ``sign(h)`` of a Hermitian matrix (+1 on its kernel), and
    ``tr(sign(h) h)``, the sum of its absolute eigenvalues."""
    values, vectors = np.linalg.eigh(h)
    signs = np.where(values >= 0.0, 1.0, -1.0)
    return (vectors * signs) @ vectors.conj().T, float(np.abs(values).sum())


def best_response(c, x0, x1):
    """One party's best +-1 pair against the other's pair ``x0, x1``, and the CHSH value
    ``<A_0 (B_0 + B_1) + A_1 (B_0 - B_1)>`` it reaches on ``sum_i c_i |ii>``.  With ``P =
    diag(c)``, ``<A (x) B> = tr(A P B^T P)``; so against second-party transposes ``x_j =
    B_j^T`` the best ``A_0`` is ``sign(P (x_0 + x_1) P)`` and ``A_1`` is ``sign(P (x_0 - x_1)
    P)``, and by the same algebra the answer to a first-party pair is the best ``B_j^T``."""
    y0, v0 = sign_of(c[:, None] * (x0 + x1) * c)
    y1, v1 = sign_of(c[:, None] * (x0 - x1) * c)
    return y0, y1, v0 + v1


def see_saw(c, x0, x1, steps=1000):
    """The values of alternate best responses from ``x0, x1``, until one does not rise
    by more than 1e-15 or after ``steps`` responses."""
    values = [-math.inf]
    for _ in range(steps):
        x0, x1, value = best_response(c, x0, x1)
        values.append(value)
        if value <= values[-2] + 1e-15:
            break
    return values[1:]


def random_observable(m, rng):
    """A +-1 observable with balanced signs in a Haar-random basis: a start that, unlike
    +-1, is not already a fixed point of the see-saw."""
    q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return (q * (-1.0) ** np.arange(m)) @ q.conj().T


def family_step(s):
    """The value of one best response to the family's second party (tiled ``s3``, ``s1``)."""
    return best_response(s.coeffs, build_b(s.m, 0).entries, build_b(s.m, 1).entries)[2]


def test_see_saw_reaches_the_two_qubit_maximum():
    # the largest CHSH value of a two-qubit pure state is 2 sqrt(1 + C^2) (Horodecki,
    # Horodecki & Horodecki 1995): the reference must find it, and cannot pass it
    rng = np.random.default_rng(2)
    for _ in range(10):
        s = sample_haar(2, 2, rng)
        best = max(max(see_saw(s.coeffs, random_observable(2, rng), random_observable(2, rng)))
                   for _ in range(4))
        assert abs(best - upper_bound(concurrence(s))) <= 1e-12


@pytest.mark.parametrize("m", range(1, 9))
def test_one_step_from_the_family_gives_b_blk(m):
    # the family's own first-party pair at theta* answers its second party, so the best
    # answer reaches B; it gives each block its own angle, which is B_blk
    rng = np.random.default_rng(m)
    states = [sample_haar(m, m, rng) for _ in range(25)] + [sample_simplex(m, rng)
                                                             for _ in range(25)]
    for s in states:
        step = family_step(s)
        assert step >= bell_value_formula(s) - ROUNDING
        assert abs(step - b_blk(s.coeffs[None])[0]) <= ROUNDING


def test_no_see_saw_value_passes_tsirelson():
    # no quantum CHSH value exceeds 2 sqrt 2 (Cirel'son 1980), from any start
    rng = np.random.default_rng(3)
    for m in range(2, 9):
        for _ in range(3):
            s = sample_haar(m, m, rng)
            starts = [(build_b(m, 0).entries, build_b(m, 1).entries)] + [
                (random_observable(m, rng), random_observable(m, rng)) for _ in range(2)]
            for x0, x1 in starts:
                assert max(see_saw(s.coeffs, x0, x1, steps=60)) <= 2.0 * math.sqrt(2.0) + 1e-12


def test_measurements_outside_the_family_beat_b_at_m_four():
    s = new_schmidt([1.0, 1.0, 0.6, 0.1])  # blocks with unequal K_k / p_k
    b = bell_value_formula(s)
    assert b_blk(s.coeffs[None])[0] - b > 0.01
    assert family_step(s) - b > 0.01


def test_b_blk_stays_inside_the_envelopes():
    """Observed, not proven: on the states of one sweep (seed 1, dims 2-8, 2048 each) B_blk
    stays at or under the upper envelope ``2 sqrt(1 + C^2)``, as B does for even m.  At m = 2
    B_blk is B and saturates it.  An adversarial search over coefficient vectors brought the
    margin down to 7.7e-12 at m = 4, never below 0.  The lower envelope holds for B_blk
    wherever it holds for B, since B_blk >= B; it is proven for even m and held at every m
    here."""
    for m in range(2, 9):
        rows = harness._draw_block(1, "haar", 0, m, 0, 2048)
        _, _, _, _, upper, lower, _ = bounds.closed_forms(rows)
        values = b_blk(rows)
        assert np.all(values <= np.array(upper) + ROUNDING), m
        assert np.all(values >= np.array(lower)), m
