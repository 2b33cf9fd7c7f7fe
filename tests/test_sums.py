import math
from math import isqrt
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grimmsmooth import (
    build_table,
    floor_decomposition,
    phi,
    phi_sum,
    r_d,
    ram_sum,
    remainder_exponent_ok,
    scaled_intervals_disjoint,
    window_exponent_floor,
)
from grimmsmooth import sums
from grimmsmooth.primes import TableLimitError
from oracles import (
    pi_window_terms, prime_pi_array, ram_sum_double_loop, ram_sum_miller_rabin, trial_primes,
)

PRIMES = trial_primes(1200)
PI = prime_pi_array(3_000_000 + isqrt(3_000_000) + 1)  # pi to x + W for x <= 3e6


def pi_oracle_sum(x: int, alpha: float) -> int:
    """S(x, alpha) as the sum of the exact pi terms, W as the program takes it."""
    w = max(1, math.floor(float(x) ** alpha))
    return int(pi_window_terms(x, w, w, PI).sum())


def test_ram_sum_against_double_loop(table_1e4):
    for x, alpha in [(100, 0.5), (200, 0.4), (500, 0.45), (977, 0.3), (64, 0.25)]:
        expect = ram_sum_double_loop(x, alpha, PRIMES)
        got = ram_sum(x, alpha, table_1e4)
        assert got.sum == expect, (x, alpha)


def test_ram_sum_boundary_example(table_1e4):
    # x=100, alpha=1/2: j runs to 10; the double loop gives 8
    res = ram_sum(100, 0.5, table_1e4)
    assert res.window == 10
    assert res.sum == 8
    assert math.isclose(res.normalized, 0.8)


def test_ram_sum_degenerate_single_term(table_1e4):
    # x = 1: x^alpha = 1, a single j = 1 term pi(x+1) - pi(x)
    res = ram_sum(1, 0.4, table_1e4)
    assert res.window == 1
    assert res.sum == table_1e4.pi(2) - table_1e4.pi(1) == 1


def test_ram_sum_validation(table_1e4):
    with pytest.raises(ValueError):
        ram_sum(100, 0.0, table_1e4)
    with pytest.raises(ValueError):
        ram_sum(100, 0.51, table_1e4)
    with pytest.raises(TableLimitError):
        ram_sum(10**9, 0.4, table_1e4)  # needs primes to isqrt(10**9 + 3981) = 31,623


def test_ram_sum_fields(table_1e4):
    res = ram_sum(400, 1 / 3, table_1e4, delta_target=0.25)
    assert res.heuristic == -math.log1p(-1 / 3)
    assert math.isclose(res.normalized, res.sum / 400 ** (1 / 3))
    assert res.delta_target == 0.25


def test_window_floor_identity():
    # floor((x + x^a)/j) == floor((x + floor(x^a))/j) for integer x
    rng = np.random.default_rng(17)
    for _ in range(3000):
        x = int(rng.integers(1, 10**9))
        alpha = float(rng.uniform(0.05, 0.5))
        j = int(rng.integers(1, 1000))
        xa = x**alpha
        w = math.floor(xa)
        assert math.floor((x + xa) / j) == (x + w) // j


def test_j_range_monotonicity(table_1e4):
    # same window, shorter j range: the sum can only shrink
    x = 900
    w = window_exponent_floor(x, 0.45)
    terms = pi_window_terms(x, w, w, PI)
    assert np.all(terms >= 0)
    for j_max in range(1, w + 1):
        part = int(pi_window_terms(x, w, j_max, PI).sum())
        assert part <= int(terms.sum())


def test_ram_sum_matches_pi_terms(table_1e4):
    # every x < 400 at four alphas, and x = k^2 - 1, k^2 at alpha = 1/2,
    # where W = k - 1 and k, the largest W with W^2 <= x
    for x in range(1, 400):
        for alpha in (0.2, 1 / 3, 0.45, 0.5):
            assert ram_sum(x, alpha, table_1e4).sum == pi_oracle_sum(x, alpha), (x, alpha)
    for k in range(2, isqrt(3_000_000) + 1):
        for x in (k * k - 1, k * k):
            assert ram_sum(x, 0.5, table_1e4).sum == pi_oracle_sum(x, 0.5), x


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3_000_000), st.floats(0, 0.5, exclude_min=True))
@example(1, 0.5)
@example(3_000_000, 0.5)
def test_ram_sum_matches_pi_terms_property(table_1e4, x, alpha):
    assert ram_sum(x, alpha, table_1e4).sum == pi_oracle_sum(x, alpha)


def test_ram_sum_blocks_split_the_window(table_1e4, monkeypatch):
    for block in (1, 2, 7, 64):
        monkeypatch.setattr(sums, "_BLOCK", block)
        for x in (1, 100, 5000, 999_999, 3_000_000):
            for alpha in (0.45, 0.5):
                assert ram_sum(x, alpha, table_1e4).sum == pi_oracle_sum(x, alpha)


def test_ram_sum_past_the_int64_product():
    # x * W = 1.1e19 > 2^63: the test lpf * W >= m would overflow here
    x, alpha = 10**15, 0.27
    w = window_exponent_floor(x, alpha)
    assert x * w > 2**63
    res = ram_sum(x, alpha, build_table(isqrt(x + w) + 1))
    assert res.sum == ram_sum_miller_rabin(x, alpha)


def test_r_d_examples(table_1e4):
    # direct loop
    x, alpha = 100, 0.5
    expect = sum(110 // n - 100 // n for n in range(1, 11))
    assert r_d(x, alpha, 1, 10, 1) == expect
    # d so large every floor is zero
    assert r_d(100, 0.5, 1, 10, 1000) == 0
    # single term
    assert r_d(100, 0.5, 7, 7, 1) == 110 // 7 - 100 // 7
    with pytest.raises(ValueError):
        r_d(100, 0.5, 5, 4, 1)
    with pytest.raises(ValueError):
        r_d(100, 0.5, 1, 10, 0)


def test_r_d_random_against_loop():
    rng = np.random.default_rng(23)
    for _ in range(50):
        x = int(rng.integers(50, 10**6))
        alpha = float(rng.uniform(0.1, 0.5))
        R = int(rng.integers(1, 50))
        S = R + int(rng.integers(0, 100))
        d = int(rng.integers(1, 20))
        w = window_exponent_floor(x, alpha)
        expect = sum((x + w) // (n * d) - x // (n * d) for n in range(R, S + 1))
        assert r_d(x, alpha, R, S, d) == expect


def test_phi_basics():
    assert phi(2.0) == -0.5
    assert phi(2.5) == 0.0
    assert phi(10 / 3) == pytest.approx(-1 / 6)
    assert phi(0.25) == -0.25


def test_phi_sum_examples():
    # eta/n an integer for every n: each term is -1/2
    assert phi_sum(3, 6, 720) == -2.0  # 720 divisible by 3,4,5,6
    # phi(10/3) + phi(2.5) + phi(2) + phi(10/6) = -1/6 + 0 - 1/2 + 1/6
    assert phi_sum(3, 6, 10) == -0.5
    with pytest.raises(ValueError):
        phi_sum(2, 6, 10)
    with pytest.raises(ValueError):
        phi_sum(5, 5, 10)


def test_phi_sum_is_exact_rational():
    # Fraction input: the float of the exact rational sum
    val = phi_sum(3, 7, Fraction(22, 7))
    direct = sum(
        Fraction(22, 7 * n) - math.floor(Fraction(22, 7 * n)) - Fraction(1, 2)
        for n in range(3, 8)
    )
    assert val == float(direct)


def test_phi_sum_global_bound():
    rng = np.random.default_rng(31)
    for _ in range(100):
        V = int(rng.integers(3, 200))
        V1 = V + int(rng.integers(1, 200))
        eta = float(rng.uniform(1, 10**6))
        assert abs(phi_sum(V, V1, eta)) <= (V1 - V + 1) / 2


def test_floor_decomposition_identity():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(10_000):
        x = int(rng.integers(10, 10**8))
        alpha = float(rng.uniform(0.05, 0.5))
        n = int(rng.integers(1, 5000))
        d = int(rng.integers(1, 100))
        lhs, rhs = floor_decomposition(x, alpha, n, d)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_scaled_intervals_disjoint():
    # k < sqrt-ish of n keeps the chain strictly descending
    assert scaled_intervals_disjoint(100, 9, 10) is None  # 9*9=81 < 100
    assert scaled_intervals_disjoint(100, 10, 11) == 10  # 10*10 >= 100
    assert scaled_intervals_disjoint(7, 3, 3) is None  # 2*3=6 < 7
    assert scaled_intervals_disjoint(6, 3, 3) == 2
    assert scaled_intervals_disjoint(5, 0, 99) is None


def test_scaled_intervals_disjoint_matches_interval_geometry():
    rng = np.random.default_rng(53)
    for _ in range(200):
        n = int(rng.integers(10, 10**6))
        alpha = float(rng.uniform(0.1, 0.49))
        k = int(n**alpha)
        j_max = max(2, k)
        first_bad = scaled_intervals_disjoint(n, k, j_max)
        # directly test b_{j+1} < a_j on the rationals
        ok = all(
            Fraction(n + k, j + 1) < Fraction(n, j) for j in range(1, j_max)
        )
        assert (first_bad is None) == ok


def test_remainder_exponent_check():
    # the admissible instantiation: alpha=(1-l)/2, delta=4l at l=1/30
    lam = 1 / 30
    assert remainder_exponent_ok((1 - lam) / 2, 4 * lam)
    assert not remainder_exponent_ok(0.4, 0.4)


def test_window_density_across_decades(table_1e4):
    # normalized S stays above 1/4 + lambda/2 - 0.05 at x = 1e6, 1e7, 1e8
    lam = 1 / 30
    alpha = (1 - lam) / 2
    floor_target = 0.25 + lam / 2 - 0.05
    for e in (6, 7, 8):
        res = ram_sum(10**e, alpha, table_1e4)
        assert res.normalized >= floor_target, (e, res.normalized)
