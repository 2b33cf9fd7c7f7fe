import bisect
import json
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grimmsmooth import (
    GapRecord,
    GapScanSummary,
    TableLimitError,
    build_table,
    check_dusart,
    gap_check,
    pi_table,
    prime_pi,
    segments,
)
from grimmsmooth import primes as primes_mod
from oracles import prime_pi_array, sieve_primes, trial_primes

TRIAL_1E4 = trial_primes(10_000)
DENSE_1E6 = sieve_primes(10**6)


def test_build_rejects_bad_limits():
    with pytest.raises(ValueError):
        build_table(1)
    with pytest.raises(ValueError):
        build_table(2**31 + 1)


def test_tiny_tables():
    t = build_table(2)
    assert t.pi(2) == 1
    assert t.primes_to(2).tolist() == [2]
    t = build_table(10)
    assert t.pi(2) == 1
    assert t.pi(10) == 4
    assert t.primes_to(10).tolist() == [2, 3, 5, 7]


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


def test_pi_out_of_range_raises(table_1e4):
    with pytest.raises(TableLimitError):
        table_1e4.pi(10_001)


def test_pi_against_sympy(table_1e6):
    # fully independent implementation (analytic-combinatorial primepi)
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(13)
    for x in rng.integers(2, 10**6, size=25):
        assert table_1e6.pi(int(x)) == int(sympy.primepi(int(x)))
    ps = table_1e6.primes_to(10**6)
    for t in (1, 100, 9999, 78498):
        assert ps[t - 1] == int(sympy.prime(t))


def test_pi_inverts_primes_to(table_1e5):
    # pi(p) is the 1-based position of p in the prime list, for every p <= 1e5
    ps = table_1e5.primes_to(100_000).tolist()
    assert [table_1e5.pi(p) for p in ps] == list(range(1, len(ps) + 1))


def test_every_small_table_lists_its_primes():
    # Dusart's bound, which sizes the array before it is trimmed to the
    # primes found, is loosest at small limits
    for limit in range(2, 2001):
        want = TRIAL_1E4[: bisect.bisect_right(TRIAL_1E4, limit)]
        assert build_table(limit).primes_to(limit).tolist() == want, limit


def test_primes_to_examples(table_1e4):
    ps = table_1e4.primes_to(10_000)
    assert (ps[0], ps[3], ps[24]) == (2, 7, 97)
    assert ps.dtype == np.int64 and ps.tolist() == TRIAL_1E4
    assert not ps.flags.writeable  # a view of the table's array
    # every call is a view of the one array: nothing is copied
    assert np.shares_memory(ps, table_1e4.primes_to(97))
    assert table_1e4.primes_to(96.5).tolist() == TRIAL_1E4[:24]
    assert table_1e4.primes_to(1).tolist() == []
    with pytest.raises(TableLimitError):
        table_1e4.primes_to(10_001)


def test_pi_across_small_segments(monkeypatch):
    # 256 odd numbers per build chunk: the table of 1e4 is filled from 20
    # chunks, and pi at every x <= 1e4 reads across their boundaries
    monkeypatch.setattr(primes_mod, "_CHUNK_ODDS", 256)
    t = build_table(10_000)
    counts = np.searchsorted(TRIAL_1E4, np.arange(10_001), side="right")
    assert [t.pi(x) for x in range(10_001)] == counts.tolist()
    assert t.primes_to(10_000).tolist() == TRIAL_1E4


@settings(max_examples=200, deadline=None)
@given(
    lo=st.one_of(st.sampled_from([0, 1, 2, 3]), st.integers(0, 10**6)),
    span=st.integers(-2, 5000),
    chunk=st.sampled_from([8, 64, 1 << 24]),
)
def test_segments_match_dense_sieve(lo, span, chunk):
    # a chunk of 8 or 64 odd numbers makes most ranges cross several chunks
    hi = min(lo + span, 10**6)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(primes_mod, "_CHUNK_ODDS", chunk)
        parts = list(segments(lo, hi))
    assert all(p.dtype == np.int64 for p in parts)
    got = np.concatenate([np.empty(0, dtype=np.int64), *parts])
    ref = DENSE_1E6[(DENSE_1E6 >= lo) & (DENSE_1E6 <= hi)]
    assert got.tolist() == ref.tolist()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_primes_to_matches_dense_sieve(table_1e6, bound):
    ref = DENSE_1E6[DENSE_1E6 <= bound]
    assert table_1e6.primes_to(bound).tolist() == ref.tolist()


def test_prime_pi_matches_table_exhaustively(table_1e4):
    assert [prime_pi(x) for x in range(10_001)] == [table_1e4.pi(x) for x in range(10_001)]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_pi_table_matches_table_property(table_1e6, x):
    # every entry: pi(v) for v <= isqrt(x) and pi(x // k) for 1 <= k <= isqrt(x)
    small, large = pi_table(x)
    r = math.isqrt(x)
    assert small.tolist() == [table_1e6.pi(v) for v in range(r + 1)]
    assert large.tolist() == [0] + [table_1e6.pi(x // k) for k in range(1, r + 1)]
    assert prime_pi(x) == table_1e6.pi(x)


def _assert_pi_table(x, primes):
    # every entry against pi counted in a list of the primes, as PrimeTable.pi
    small, large = pi_table(x)
    r = math.isqrt(x)
    ks = np.arange(1, r + 1)
    assert small.tolist() == np.searchsorted(primes, np.arange(r + 1), "right").tolist(), x
    assert large.tolist() == [0, *np.searchsorted(primes, x // ks, "right").tolist()], x


def test_pi_table_every_entry_below_3000(table_1e4):
    for x in range(3001):
        _assert_pi_table(x, table_1e4.primes_to(x))


def test_pi_table_every_entry_around_cubes_and_squares():
    # the per-prime passes stop at the last p with p^3 <= x, and the small
    # table's length changes at the squares
    primes = build_table(8_000_000).primes_to(8_000_000)
    for c in range(2, 200):
        for x in (c**3 - 1, c**3, c**3 + 1, c * c - 1, c * c, c * c + 1):
            _assert_pi_table(x, primes)


@pytest.mark.parametrize("chunk", [1, 7])
@settings(max_examples=25, deadline=None)
@given(x=st.integers(0, 200_000))
def test_pi_table_with_tiny_chunks(table_1e6, chunk, x):
    # chunks of 1 and 7 entries (or pairs) cut every pass, per prime and
    # batched, at every place a chunk edge can fall
    with pytest.MonkeyPatch.context() as m:
        m.setattr(primes_mod, "_PI_CHUNK", chunk)
        _assert_pi_table(x, table_1e6.primes_to(x))


def test_prime_pi_pins():
    # OEIS A006880
    assert prime_pi(10**9) == 50_847_534
    assert prime_pi(10**10) == 455_052_511
    assert prime_pi(10**11) == 4_118_054_813


def test_pi_table_temporaries_are_bounded():
    # the two int64 result arrays and the quotient array x // k take
    # 24 bytes per unit of isqrt(x); every other temporary is a chunk
    tracemalloc.start()
    try:
        pi_table(10**11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * (math.isqrt(10**11) + 1) + 4 * 2**20


def test_pi_table_refuses_a_large_root_before_allocating(monkeypatch):
    monkeypatch.setattr(primes_mod, "PI_TABLE_MAX_ROOT", 10)
    assert prime_pi(120) == 30  # isqrt(120) = 10
    with pytest.raises(ValueError, match="isqrt"):
        prime_pi(121)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="isqrt"):
        pi_table(2**62)


def test_gap_check_small_limits():
    assert gap_check(10) == GapScanSummary(10, 3, (), 2, 3)
    assert gap_check(3) == GapScanSummary(3, 1, (), 1, 2)
    # only the pairs closing above lo: (5, 7)
    assert gap_check(10, lo=5) == GapScanSummary(10, 1, (), 2, 5)
    assert gap_check(2) == GapScanSummary(2, 0, (), 0, 0)


def test_gap_check_matches_stream():
    # against the consecutive differences of the trial-division primes
    s = gap_check(10_000)
    gaps = [q - p for p, q in zip(TRIAL_1E4, TRIAL_1E4[1:])]
    assert s.pairs == len(gaps)
    assert s.max_gap == max(gaps)
    assert s.max_gap_p == TRIAL_1E4[gaps.index(max(gaps))]
    assert not any(
        d >= 1 + math.log(p) ** 2 for p, d in zip(TRIAL_1E4, gaps)
    )
    assert len(s.violations) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 10**6), max_size=6))
@example([500_000])
@example([2, 2, 10**6])  # empty shards at both ends
def test_gap_check_range_split(cuts):
    # the summaries of any split of (2, 1e6], each through the checkpoint's
    # JSON and merged in order, are the whole range's
    bounds = [2, *sorted(cuts), 10**6]
    parts = [
        GapScanSummary.from_json(json.loads(json.dumps(gap_check(b, lo=a).to_json())))
        for a, b in zip(bounds, bounds[1:])
    ]
    whole = gap_check(10**6)
    assert reduce(GapScanSummary.merge, parts) == whole
    assert sum(p.pairs for p in parts) == whole.pairs


def test_gap_summary_merge_keeps_violations_and_order():
    first = GapScanSummary(10, 3, (GapRecord(7, 11, 4, 1 + math.log(7) ** 2),), 4, 7)
    later = GapScanSummary(20, 4, (GapRecord(13, 17, 4, 1 + math.log(13) ** 2),), 4, 13)
    # a violation's float bound survives the JSON round trip exactly
    assert GapScanSummary.from_json(json.loads(json.dumps(first.to_json()))) == first
    # violations join in order, and of two equal largest gaps the first stays
    assert first.merge(later) == GapScanSummary(
        20, 7, first.violations + later.violations, 4, 7
    )


def test_dusart_examples():
    rep = check_dusart(1000)
    assert rep.ok
    assert rep.pi_points_checked == 999  # integers 2..1000
    # direct evaluations
    assert 1 < (2 / math.log(2)) * (1 + 1.2762 / math.log(2))
    assert math.log(2 * 3 * 5 * 7) <= 1.00008 * 10


def test_dusart_theta_matches_direct_sum():
    # the running theta of the scan against math.fsum of log p at every
    # prime p <= 1e4: the same prime count and minimum slack
    rep = check_dusart(10_000)
    logs = [math.log(p) for p in TRIAL_1E4]
    slack = min(1.00008 * p - math.fsum(logs[: i + 1]) for i, p in enumerate(TRIAL_1E4))
    assert rep.theta_primes_checked == len(TRIAL_1E4)
    assert math.isclose(rep.theta_min_slack, slack, rel_tol=1e-9)


@pytest.mark.parametrize(
    "c,limit",
    [
        (1.2762, 2**20 + 5000),  # the published constant: no violation
        (1.27, 2**20 + 5000),  # a few, around 1627
        (1.25, 2**20 + 5000),  # runs of them, some past the next prime
        (1.2, 2**20 + 5000),  # tens of thousands
        (0.5, 3000),  # nearly every integer
        (-1.0, 3000),  # every integer, from x = 2 on
    ],
)
def test_dusart_pi_points_match_every_integer(monkeypatch, c, limit):
    # the scan evaluates the pi bound at x < 5 and at the primes only; one
    # evaluation at every integer, with the constant lowered until the
    # bound breaks, gives the same slack and the same violations
    monkeypatch.setattr(primes_mod, "_PI_C", c)
    xs = np.arange(2, limit + 1)
    pis = prime_pi_array(limit)[2:]
    logs = np.log(xs.astype(np.float64))
    bound = xs / logs * (1.0 + c / logs)
    rep = check_dusart(limit)
    assert rep.pi_points_checked == limit - 1
    assert rep.pi_min_slack == float((bound - pis).min())
    assert rep.pi_violations == tuple(xs[pis >= bound].tolist())


def test_dusart_report_is_the_same_however_chunked(monkeypatch):
    # theta is one running sum in prime order, so its slack is the same
    # double for any sieve chunk, and equals one cumsum over every prime
    pvals = np.array(TRIAL_1E4, dtype=np.float64)
    slack = float((1.00008 * pvals - np.cumsum(np.log(pvals))).min())
    reports = []
    for chunk in (8, 64, 1 << 20):
        monkeypatch.setattr(primes_mod, "_CHUNK_ODDS", chunk)
        reports.append(check_dusart(10_000))
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].theta_min_slack == slack


def test_dusart_clean_to_1e6():
    rep = check_dusart(10**6)
    assert rep.ok
    assert rep.pi_min_slack > 0
    assert rep.theta_min_slack > 0
