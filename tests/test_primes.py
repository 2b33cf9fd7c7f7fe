import math

import numpy as np
import pytest

from grimmsmooth import (
    GapScanSummary,
    TableLimitError,
    build_table,
    check_dusart,
    check_stirling_factorial,
    gap_check,
)
from oracles import trial_primes

TRIAL_1E4 = trial_primes(10_000)


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(2**31 + 1)


def test_tiny_tables():
    t = build_table(2)
    assert t.pi(2) == 1
    assert t.is_prime(2)
    t = build_table(10)
    assert t.pi(2) == 1
    assert t.pi(10) == 4
    assert math.isclose(t.theta(10), sum(math.log(p) for p in (2, 3, 5, 7)))


def test_pi_matches_trial_division_exhaustively(table_1e4):
    # pi at every integer <= 1e4 against the trial-division count
    expect = 0
    it = iter(TRIAL_1E4 + [10**9])
    nxt = next(it)
    for x in range(0, 10_001):
        if x == nxt:
            expect += 1
            nxt = next(it)
        assert table_1e4.pi(x) == expect


def test_pi_real_arguments(table_1e4):
    assert table_1e4.pi(1.5) == 0
    assert table_1e4.pi(2.0) == 1
    assert table_1e4.pi(2.5) == 1
    assert table_1e4.pi(96.9) == 24
    assert table_1e4.pi(97.0) == 25
    assert table_1e4.pi(110) - table_1e4.pi(100) == 4


def test_pi_is_a_step_function(table_1e4):
    # increases by exactly 1 at primes, constant elsewhere
    prev = 0
    prime_set = set(TRIAL_1E4)
    for x in range(1, 10_001):
        cur = table_1e4.pi(x)
        assert cur - prev == (1 if x in prime_set else 0)
        prev = cur


def test_pi_bulk_agrees(table_1e6):
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 10**6, size=300)
    vals = table_1e6.pi_bulk(xs)
    for x, v in zip(xs, vals):
        assert table_1e6.pi(int(x)) == v


def test_pi_out_of_range_raises(table_1e4):
    with pytest.raises(TableLimitError):
        table_1e4.pi(10_001)


def test_pi_against_sympy(table_1e6):
    # fully independent implementation (analytic-combinatorial primepi)
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(13)
    for x in rng.integers(2, 10**6, size=25):
        assert table_1e6.pi(int(x)) == int(sympy.primepi(int(x)))
    for t in (1, 100, 9999, 78498):
        assert table_1e6.nth_prime(t) == int(sympy.prime(t))


def test_nth_prime_inverse_of_pi(table_1e5):
    # nth_prime(pi(p)) == p for every prime p <= 1e5
    for seg in table_1e5.iter_prime_segments(2, 100_000):
        for p in seg.tolist():
            assert table_1e5.nth_prime(table_1e5.pi(p)) == p


def test_nth_prime_examples(table_1e4):
    assert table_1e4.nth_prime(1) == 2
    assert table_1e4.nth_prime(4) == 7
    assert table_1e4.nth_prime(25) == 97
    with pytest.raises(ValueError):
        table_1e4.nth_prime(0)
    with pytest.raises(ValueError):
        table_1e4.nth_prime(table_1e4.pi(10_000) + 1)


def test_checkpoints_nondecreasing_and_total(table_1e6):
    cc = table_1e6.checkpoint_counts
    assert np.all(np.diff(cc) >= 0)
    assert cc[-1] == table_1e6.pi(10**6) == 78498


def test_primes_in(table_1e4):
    assert table_1e4.primes_in(2, 30).tolist() == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert table_1e4.primes_in(90, 100).tolist() == [97]
    assert table_1e4.primes_in(200, 100).tolist() == []
    # spans a segment boundary on a small segment size
    t = build_table(10_000, segment_size=1 << 10)
    assert t.primes_in(2, 10_000).tolist() == TRIAL_1E4


def test_theta_values(table_1e4):
    assert table_1e4.theta(1) == 0.0
    assert math.isclose(table_1e4.theta(2), math.log(2))
    expect = sum(math.log(p) for p in TRIAL_1E4 if p <= 100)
    assert math.isclose(table_1e4.theta(100), expect, rel_tol=1e-12)


def test_theta_increments_are_log_of_primes(table_1e4):
    prime_set = set(TRIAL_1E4)
    prev = 0.0
    for x in range(2, 10_001):
        cur = table_1e4.theta(x)
        inc = cur - prev
        if x in prime_set:
            assert math.isclose(inc, math.log(x), rel_tol=1e-9)
        else:
            assert inc == 0.0
        prev = cur


def test_theta_accuracy_budget(table_1e6):
    # direct numpy sum as reference; budget is 1e-9 * pi(x)
    ref = float(np.log(table_1e6.primes_in(2, 10**6).astype(float)).sum())
    assert abs(table_1e6.theta(10**6) - ref) <= 1e-9 * table_1e6.pi(10**6)


def test_gap_check_small_limits(table_1e4):
    assert gap_check(10, table_1e4) == GapScanSummary(10, 3, (), 2, 3)
    assert gap_check(3, table_1e4) == GapScanSummary(3, 1, (), 1, 2)
    # only the pairs closing above lo: (5, 7)
    assert gap_check(10, table_1e4, lo=5) == GapScanSummary(10, 1, (), 2, 5)
    assert gap_check(2, table_1e4) == GapScanSummary(2, 0, (), 0, 0)


def test_gap_check_matches_stream(table_1e4):
    # against the consecutive differences of the trial-division primes
    s = gap_check(10_000, table_1e4)
    gaps = [q - p for p, q in zip(TRIAL_1E4, TRIAL_1E4[1:])]
    assert s.pairs == len(gaps)
    assert s.max_gap == max(gaps)
    assert s.max_gap_p == TRIAL_1E4[gaps.index(max(gaps))]
    assert not any(
        d >= 1 + math.log(p) ** 2 for p, d in zip(TRIAL_1E4, gaps)
    )
    assert len(s.violations) == 0


def test_gap_check_range_split(table_1e6):
    # sharded scans stitch to the same totals as one scan
    whole = gap_check(10**6, table_1e6)
    a = gap_check(500_000, table_1e6)
    b = gap_check(10**6, table_1e6, lo=500_000)
    assert a.pairs + b.pairs == whole.pairs
    assert max(a.max_gap, b.max_gap) == whole.max_gap


def test_dusart_examples(table_1e4):
    rep = check_dusart(1000, table_1e4)
    assert rep.ok
    assert rep.pi_points_checked == 999  # integers 2..1000
    # direct evaluations
    assert 1 < (2 / math.log(2)) * (1 + 1.2762 / math.log(2))
    assert table_1e4.theta(10) <= 1.00008 * 10


def test_dusart_clean_to_1e6(table_1e6):
    rep = check_dusart(10**6, table_1e6)
    assert rep.ok
    assert rep.pi_min_slack > 0
    assert rep.theta_min_slack > 0


def test_stirling_lower_bound_holds():
    assert check_stirling_factorial(1000) == []


def test_factorial_bound_is_what_it_claims():
    # spot-check the inequality statement itself at k=2 with plain floats
    k = 2
    lhs = math.factorial(k)
    rhs = math.sqrt(2 * math.pi * k) * math.exp(-k) * k**k * math.exp(1 / (12 * k + 1))
    assert lhs > rhs
