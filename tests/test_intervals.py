from functools import cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grimmsmooth import PrimeTable, TableLimitError, has_representation
from grimmsmooth import intervals
from grimmsmooth.intervals import _bound_smooth, lpf_range, prime_rows
from oracles import (
    distinct_primes,
    largest_prime_factor,
    strided_sieve,
    trial_factorization,
    trial_primes,
)

# Prime powers the drawn windows reach: high powers of 2 and 3, where
# multiplicities run high; prime squares p^2, whose p is the largest
# sieving prime when the window ends at p^2; and cubes and fourth powers
# of primes above 75, which hit a window of at most 1100 values a few
# times at most, so the sieve divides them out one power per pass.  All
# stay below 1e8, within reach of a table to 1e4.
PRIME_POWERS = sorted(
    {2**j for j in range(1, 21)}
    | {3**j for j in range(1, 13)}
    | {p * p for p in trial_primes(1000)}
    | {p**3 for p in trial_primes(464) if p > 75}
    | {p**4 for p in trial_primes(100) if p > 75}
)


@st.composite
def windows(draw):
    """[lo, hi] holding a prime power, often with hi equal to it, in
    lengths on both sides of the 256-element Python residual path."""
    length = draw(
        st.one_of(
            st.integers(1, 600),
            st.integers(400, 1100),
            st.sampled_from([256, 257, 512, 513]),
        )
    )
    power = draw(st.sampled_from(PRIME_POWERS))
    hi = power + draw(st.one_of(st.just(0), st.integers(0, length - 1)))
    return max(1, hi - length + 1), hi


def test_examples(table_1e4):
    assert prime_rows(9, 11, table_1e4) == [[3], [2, 5], [11]]
    assert lpf_range(9, 11, table_1e4).tolist() == [3, 5, 11]

    assert prime_rows(2, 2, table_1e4) == [[2]]
    assert prime_rows(1, 1, table_1e4) == [[]]

    assert prime_rows(10**6, 10**6 + 1, table_1e4) == [[2, 5], [101, 9901]]


def test_matches_trial_division_randomized(table_1e4):
    rng = np.random.default_rng(42)
    for _ in range(60):
        n = int(rng.integers(1, 10_000))
        k = int(rng.integers(1, 51))
        rows = prime_rows(n + 1, n + k, table_1e4)
        lpf = lpf_range(n + 1, n + k, table_1e4).tolist()
        for i in range(1, k + 1):
            assert rows[i - 1] == distinct_primes(n + i), (n, i)
            assert lpf[i - 1] == largest_prime_factor(n + i)


def test_matches_trial_division_small_exhaustive(table_1e4):
    for n in range(1, 80):
        rows = prime_rows(n + 1, n + 20, table_1e4)
        for i in range(1, 21):
            assert rows[i - 1] == distinct_primes(n + i)


def test_rows_reconstruct_value(table_1e4):
    # dividing n+i by every listed prime to full multiplicity leaves 1
    rows = prime_rows(5041, 5070, table_1e4)
    for i in range(1, 31):
        v = 5040 + i
        for p in rows[i - 1]:
            assert v % p == 0
            while v % p == 0:
                v //= p
        assert v == 1


def test_factorial_divides_product_of_window(table_1e4):
    # k! | (n+1)...(n+k): compare prime multiplicities (Legendre vs direct)
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 1000))
        k = int(rng.integers(1, 21))
        need: dict[int, int] = {}
        for m in range(2, k + 1):
            for p, e in trial_factorization(m).items():
                need[p] = need.get(p, 0) + e
        have: dict[int, int] = {}
        for i in range(1, k + 1):
            for p, e in trial_factorization(n + i).items():
                have[p] = have.get(p, 0) + e
        for p, e in need.items():
            assert have.get(p, 0) >= e, (n, k, p)


def test_validation_errors(table_1e4):
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        has_representation(1, 3, table_1e4)
    window = r"window length k must be in \[1, 1000000\]"
    for k in (0, 10**6 + 1):
        with pytest.raises(ValueError, match=window):
            has_representation(5, k, table_1e4)
    with pytest.raises(ValueError):
        prime_rows(0, 1, table_1e4)
    with pytest.raises(ValueError):
        prime_rows(5, 4, table_1e4)
    with pytest.raises(ValueError):
        _bound_smooth(0, 10, 5, table_1e4, True)
    with pytest.raises(TableLimitError):
        has_representation(4 * 10**8, 10, table_1e4)


def smooth_flags(lo, hi, bound, table):
    return _bound_smooth(lo, hi, bound, table, False)[0].tolist()


def test_bound_smooth_pieces_agree(table_1e4):
    # a block and its 100-value pieces flag the same values
    lo, hi = 10_000, 10_000 + 2000
    parts = [smooth_flags(a, min(a + 99, hi), 100, table_1e4) for a in range(lo, hi + 1, 100)]
    assert sum(parts, []) == smooth_flags(lo, hi, 100, table_1e4)


def test_bound_smooth_semantics(table_1e4):
    # flagged iff every prime factor is at or below the bound, on either
    # side of sqrt(hi)
    lo, hi = 5000, 5300
    for y in (13, 100, 5300):
        flags = smooth_flags(lo, hi, y, table_1e4)
        assert flags == [largest_prime_factor(v) <= y for v in range(lo, hi + 1)], y
    # the unit is smooth over every bound, even over no primes at all
    assert smooth_flags(1, 3, 0, table_1e4) == [True, False, False]
    assert smooth_flags(1, 3, 10, table_1e4) == [True, True, True]


def smooth_by_trial_division(lo, hi, bound):
    """(rows, lpf) of the bound-smooth values lo+i in lo..hi: each value is
    divided by every prime <= bound, ascending, and is smooth when 1 is left."""
    primes = trial_primes(bound)
    rows, lpf = [], []
    for i, v in enumerate(range(lo, hi + 1)):
        top = 1
        for p in primes:
            while v % p == 0:
                v //= p
                top = p
        if v == 1:
            rows.append(i)
            lpf.append(top)
    return rows, lpf


def check_smooth_lpf(lo, hi, bound, table):
    """The bound-smooth values and their lpf, as verify keys them."""
    flags, lpf = _bound_smooth(lo, hi, bound, table, True)
    rows = np.flatnonzero(flags)
    want = smooth_by_trial_division(lo, hi, bound)
    assert (rows.tolist(), lpf[rows].tolist()) == want, (lo, hi, bound)


@cache
def factorizations(lo, hi):
    return [trial_factorization(v) for v in range(lo, hi + 1)]


@pytest.mark.parametrize("dense_hits", [1, 45, 10**9])
def test_sieve_agrees_at_every_split(table_1e4, monkeypatch, dense_hits):
    # strided views only, the default split, and the hit list only give the
    # trial-division rows, lpf and residuals
    monkeypatch.setattr(intervals, "_DENSE_HITS", dense_hits)
    for lo, hi in [
        (1, 2000),
        (10**6 - 700, 10**6 + 700),
        (97**4 - 600, 97**4 + 600),
        (2**20 - 1000, 2**20 + 24),
    ]:
        facs = factorizations(lo, hi)
        assert prime_rows(lo, hi, table_1e4) == [sorted(f) for f in facs], (lo, hi)
        lpf = lpf_range(lo, hi, table_1e4).tolist()
        assert lpf == [max(f, default=1) for f in facs], (lo, hi)
        for bound in (7, 60, 10**4):
            flags = [max(f, default=0) <= bound for f in facs]
            assert smooth_flags(lo, hi, bound, table_1e4) == flags, (lo, hi, bound)
        for bound in (0, 2, 7, 60, 150):
            check_smooth_lpf(lo, hi, bound, table_1e4)


def test_sieve_matches_the_strided_oracle(table_1e4):
    # the wheel patterns against plain strided passes from arrays of ones:
    # bounds 0-7 take the partial patterns, counts run from 1 across the
    # 5,040-value period up to a verify piece, and lo reaches 2^31, 2^32
    # and 2^62, where the arrays are int64
    rng = np.random.default_rng(26)
    for _ in range(3000):
        bound = int(rng.choice([rng.integers(0, 8), rng.integers(0, 300), rng.integers(0, 10**4)]))
        count = int(rng.choice([
            rng.integers(1, 100), rng.integers(1, 12_000), rng.integers(1, 2**17 + 1),
        ]))
        lo = int(rng.choice([rng.integers(1, 10**6), rng.integers(1, 10**9)])) + int(
            rng.choice([0, 2**31 - 10**5, 2**32 - 10**5, 2**62 - 10**5])
        )
        primes, with_lpf = table_1e4.primes_to(bound), bool(rng.integers(2))
        got = intervals._sieve(lo, lo + count - 1, primes, with_lpf)
        want = strided_sieve(lo, lo + count - 1, primes, with_lpf)
        for g, w in zip(got, want):
            assert (g is None) == (w is None), (lo, count, bound)
            if w is not None:
                assert g.dtype == w.dtype, (lo, count, bound, g.dtype, w.dtype)
                assert np.array_equal(g, w), (lo, count, bound, with_lpf)


@settings(max_examples=100, deadline=None)
@given(windows())
@example((2**20 - 600, 2**20))  # hi = p^j on the numpy path
@example((997**2 - 700, 997**2))
def test_prime_rows_matches_trial_division_property(table_1e4, window):
    lo, hi = window
    rows = prime_rows(lo, hi, table_1e4)
    lpf = lpf_range(lo, hi, table_1e4).tolist()
    for i, v in enumerate(range(lo, hi + 1)):
        fac = trial_factorization(v)
        assert rows[i] == sorted(fac), v
        assert lpf[i] == max(fac, default=1), v


@settings(max_examples=100, deadline=None)
@given(windows(), st.integers(0, 1100))
@example((2**20 - 300, 2**20), 1024)
@example((3**12 - 300, 3**12), 3)
# windows that start at a high power: its one multiple in the block must
# still take its p-part (the power loop stops only at a power with none)
@example((2**20, 2**20 + 300), 1024)
@example((3**12, 3**12 + 300), 3)
def test_bound_smooth_matches_trial_division_property(table_1e4, window, bound):
    lo, hi = window
    flags = smooth_flags(lo, hi, bound, table_1e4)
    for v, flag in zip(range(lo, hi + 1), flags):
        assert flag == (max(trial_factorization(v), default=0) <= bound), (v, bound)


@settings(max_examples=60, deadline=None)
@given(windows())
@example((2**20 - 600, 2**20))
def test_hits_filtered_in_slices_match_trial_division(table_1e4, window):
    # 7 primes per filtered slice: every window's sieving primes, and so its
    # hit list, span many slices
    lo, hi = window
    with pytest.MonkeyPatch.context() as m:
        m.setattr(intervals, "_HIT_SLICE", 7)
        rows = prime_rows(lo, hi, table_1e4)
        lpf = lpf_range(lo, hi, table_1e4).tolist()
    for i, v in enumerate(range(lo, hi + 1)):
        fac = trial_factorization(v)
        assert rows[i] == sorted(fac), v
        assert lpf[i] == max(fac, default=1), v


@settings(max_examples=60, deadline=None)
@given(windows(), st.integers(0, 400))
@example((2**20 - 600, 2**20), 2)
@example((1, 1100), 400)
def test_smooth_lpf_matches_trial_division_property(table_1e4, window, bound):
    check_smooth_lpf(*window, bound, table_1e4)


@pytest.mark.parametrize(
    "lo,hi",
    [
        (2**31 - 700, 2**31 - 1),  # the narrow sieve arrays up to their top
        (2**31 - 300, 2**31 + 300),  # wide ones from 2^31 on
        (2**32 - 5, 2**32 + 2000),
        (2**33 + 1, 2**33 + 2**16),
    ],
)
def test_smooth_lpf_past_2_31(table_1e4, lo, hi):
    for bound in (3, 60, 300):
        check_smooth_lpf(lo, hi, bound, table_1e4)


@pytest.mark.parametrize("lo,hi", [(2**31 - 700, 2**31 - 1), (2**31 - 300, 2**31 + 300)])
def test_lpf_and_residuals_at_2_31(lo, hi):
    # the last values the narrow sieve arrays hold, and the first past them
    table = PrimeTable(isqrt(hi) + 1)
    facs = [trial_factorization(v) for v in range(lo, hi + 1)]
    assert lpf_range(lo, hi, table).tolist() == [max(f) for f in facs]
    assert smooth_flags(lo, hi, 50, table) == [max(f) <= 50 for f in facs]
