import json
import random
from functools import reduce
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grimmsmooth import (
    GrimmRunReport,
    PrimeTable,
    RepresentationResult,
    VerifySummary,
    g,
    g1,
    has_representation,
    verify_grimm_summary,
)
from grimmsmooth import grimm, intervals
from grimmsmooth.intervals import lpf_range
from grimmsmooth.primes import bounding_primes
from oracles import (
    colliding_runs_full_lpf,
    distinct_primes,
    g1_prefix_union,
    g_exhaustive,
    is_prime,
    kuhn_recursive,
    largest_prime_factor,
    sdr_exists,
    trial_primes,
    verify_grimm,
)


def check_result(n, k, res, table):
    """Every result must carry a self-evidencing certificate."""
    if res.representable:
        assert res.assignment is not None and len(res.assignment) == k
        assert len(set(res.assignment)) == k  # pairwise distinct
        for i, p in enumerate(res.assignment, start=1):
            assert (n + i) % p == 0
    else:
        wit = res.hall_witness
        assert wit is not None and wit  # nonempty
        assert all(1 <= i <= k for i in wit)
        union = set()
        for i in wit:
            union.update(distinct_primes(n + i))
        assert len(union) < len(wit)  # Hall's condition violated


def test_examples(table_1e4):
    res = has_representation(8, 3, table_1e4)
    assert res.representable
    check_result(8, 3, res, table_1e4)

    res = has_representation(2, 4, table_1e4)
    assert not res.representable
    assert res.hall_witness <= {1, 2, 4}
    check_result(2, 4, res, table_1e4)

    res = has_representation(2, 1, table_1e4)
    assert res.representable and res.assignment == (3,)


def test_decision_matches_exhaustive_sdr(table_1e4):
    for n in range(2, 120):
        for k in (1, 2, 3, 5, 8):
            sets = [distinct_primes(n + i) for i in range(1, k + 1)]
            res = has_representation(n, k, table_1e4)
            assert res.representable == sdr_exists(sets), (n, k)
            check_result(n, k, res, table_1e4)


def test_decision_matches_exhaustive_sdr_randomized(table_1e6):
    # same differential check at larger magnitudes
    import numpy as np

    rng = np.random.default_rng(97)
    for _ in range(40):
        n = int(rng.integers(10**4, 10**6))
        k = int(rng.integers(1, 25))
        sets = [distinct_primes(n + i) for i in range(1, k + 1)]
        res = has_representation(n, k, table_1e6)
        assert res.representable == sdr_exists(sets), (n, k)
        check_result(n, k, res, table_1e6)


def test_g_examples(table_1e4):
    assert g(2, table_1e4) == 3
    assert g(3, table_1e4) == 4
    assert g(16, table_1e4) < 16
    with pytest.raises(ValueError):
        g(1, table_1e4)


def test_g_matches_exhaustive_oracle(table_1e4):
    for n in range(2, 301):
        assert g(n, table_1e4) == g_exhaustive(n), n


def test_g1_matches_prefix_union_oracle(table_1e4):
    for n in range(2, 301):
        assert g1(n, table_1e4) == g1_prefix_union(n), n


def test_g1_example_values(table_1e4):
    # g1(2): first failure of omega((3)...(2+l)) >= l is at l = 4
    assert g1(2, table_1e4) == 3
    assert g1(8, table_1e4) >= 3


def test_g_le_g1(table_1e5):
    for n in range(2, 10_001):
        assert g(n, table_1e5) <= g1(n, table_1e5), n


# n whose g and g1 both run past the search window's first length
# max(64, isqrt(n)), so that the window doubles
WINDOW_DOUBLING = (2555, 2760, 10741)


def test_doubling_examples_outgrow_the_first_window(table_1e4):
    for n in WINDOW_DOUBLING:
        first = max(64, isqrt(n))
        assert g(n, table_1e4) >= first and g1(n, table_1e4) >= first, n


def test_lpf_window_rows_match_trial_division(table_1e4):
    # every row is the distinct primes of its value, largest first, before
    # and after the window doubles (which raises its sqrt bound)
    for n in list(range(2, 300)) + list(WINDOW_DOUBLING):
        win = grimm._LpfWindow(n, table_1e4, 1000)
        for doubled in (False, True):
            for i in range(len(win.lpfs)):
                want = distinct_primes(n + i + 1)[::-1]
                assert win[i] == want and win.lpfs[i] == want[0], (n, i, doubled)
            win.double()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(2, 12_000), st.integers(2, 200_000)))
@example(WINDOW_DOUBLING[0])
@example(WINDOW_DOUBLING[-1])
def test_g_and_g1_certified_property(table_1e4, n):
    assert g1(n, table_1e4) == g1_prefix_union(n)
    k = g(n, table_1e4)
    res = has_representation(n, k, table_1e4)
    assert res.representable
    check_result(n, k, res, table_1e4)
    res = has_representation(n, k + 1, table_1e4)
    assert not res.representable
    check_result(n, k + 1, res, table_1e4)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 300), st.integers(2, 10**5)), st.integers(1, 60))
@example(2, 4)  # 3, 4 and 6 share {2, 3}
def test_matching_is_the_recursive_kuhn_search_property(table_1e4, n, k):
    # the same search in the same order: the same assignment, or the same
    # Hall witness, not only the same verdict
    rows = [distinct_primes(n + i) for i in range(1, k + 1)]
    assert has_representation(n, k, table_1e4) == kuhn_recursive(rows)


def test_search_cap_behaviour(monkeypatch, table_1e4):
    # g raises once it could extend past offset cap, i.e. iff g(n) > cap;
    # g1 raises iff no prefix of length <= cap falls short, i.e. g1(n) >= cap
    ns = list(range(2, 120)) + list(WINDOW_DOUBLING)
    truth = {n: (g(n, table_1e4), g1(n, table_1e4)) for n in ns}
    fixed = (1, 2, 3, 5, 8, 13, 21, 40, 63, 64, 65, 100, 130)
    for n, (gt, g1t) in truth.items():
        for cap in sorted(set(fixed) | {c for v in (gt, g1t) for c in (v - 1, v, v + 1)}):
            if cap < 1:
                continue
            monkeypatch.setattr(grimm, "_search_cap", lambda _n, c=cap: c)
            for fn, value, raises in ((g, gt, gt > cap), (g1, g1t, g1t >= cap)):
                if raises:
                    with pytest.raises(grimm.SearchCapExceeded):
                        fn(n, table_1e4)
                else:
                    assert fn(n, table_1e4) == value, (fn.__name__, n, cap)


def test_representable_is_monotone_in_k(table_1e4):
    # restriction property justifying the incremental search
    for n in range(2, 501):
        gn = g(n, table_1e4)
        for k in range(1, gn + 1):
            assert has_representation(n, k, table_1e4).representable, (n, k)
        res = has_representation(n, gn + 1, table_1e4)
        assert not res.representable
        check_result(n, gn + 1, res, table_1e4)


def test_powers_of_two(table_1e4):
    for m in (4, 5, 6, 7):
        assert g(2**m, table_1e4) < 2**m


def test_verify_grimm_small(table_1e4):
    reports = list(verify_grimm(30, table_1e4))
    seen = {(r.p, r.k) for r in reports}
    assert seen == {(3, 1), (5, 1), (7, 3), (11, 1), (13, 3), (17, 1), (19, 3), (23, 5)}
    assert all(r.result.representable for r in reports)
    for r in reports:
        check_result(r.p, r.k, r.result, table_1e4)
        # every run sits between consecutive primes: all elements composite
        for i in range(1, r.k + 1):
            assert not is_prime(r.p + i)


def test_stream_results_match_direct_calls(table_1e4):
    # the reference stream holds one run per gap between consecutive trial
    # primes, decided as the exhaustive SDR search decides it
    ps = trial_primes(2000)
    reports = list(verify_grimm(2000, table_1e4))
    assert [(r.p, r.k) for r in reports] == [
        (p, q - p - 1) for p, q in zip(ps, ps[1:]) if q - p > 1
    ]
    for r in reports:
        sets = [distinct_primes(r.p + i) for i in range(1, r.k + 1)]
        assert r.result.representable == sdr_exists(sets), (r.p, r.k)


@pytest.fixture(scope="module")
def reports_2e5(table_1e6):
    return list(verify_grimm(200_000, table_1e6))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 200_000), st.integers(2, 200_000))
def test_verify_summary_agrees_with_stream(table_1e6, reports_2e5, a, b):
    # the lpf fast path must reproduce the full matching of every run,
    # restricted to the runs whose closing prime p + k + 1 lies in (lo, hi]
    assume(a != b)
    lo, hi = min(a, b), max(a, b)
    reports = [r for r in reports_2e5 if lo < r.p + r.k + 1 <= hi]
    max_k, max_k_p = 0, 0
    for r in reports:
        if r.k > max_k:
            max_k, max_k_p = r.k, r.p
    expected = VerifySummary(
        lo=lo, hi=hi, runs=len(reports),
        failures=tuple(r for r in reports if not r.result.representable),
        max_k=max_k, max_k_p=max_k_p,
    )
    assert verify_grimm_summary(hi, table_1e6, lo=lo) == expected


@pytest.fixture(scope="module")
def lpf_1e5():
    """largest_prime_factor(n) for n <= 1e5, by trial division."""
    return [0, 1] + [largest_prime_factor(n) for n in range(2, 100_001)]


def colliding_runs(lpf, lo, hi):
    """(p, k, smooth) of each run p+1 .. p+k with closing prime p+k+1 in
    (lo, hi] in which two elements share their largest prime factor, with
    smooth the run's elements whose lpf is below k, ascending."""
    primes = [n for n in range(2, hi + 1) if lpf[n] == n]
    out = []
    for p, q in zip(primes, primes[1:]):
        run = range(p + 1, q)
        if q > lo and len({lpf[n] for n in run}) < len(run):
            out.append((p, len(run), [n for n in run if lpf[n] < len(run)]))
    return out


SHARDS = ([(2, 100_000)], [(2, 40_000), (40_000, 100_000)])


def test_collision_detector_fires(monkeypatch, table_1e5, lpf_1e5):
    # the summary decides exactly the runs whose lpf values collide, each
    # from its elements with lpf below k, and matches no run whole
    seen = []
    decide = grimm._smooth_sdr

    def record(p, k, values, table):
        seen.append((p, k, sorted(values)))
        return decide(p, k, values, table)

    monkeypatch.setattr(grimm, "_smooth_sdr", record)
    monkeypatch.setattr(
        grimm, "has_representation", lambda *run: pytest.fail(f"matched {run} whole")
    )
    for shards in SHARDS:
        for lo, hi in shards:
            seen.clear()
            s = verify_grimm_summary(hi, table_1e5, lo=lo)
            expected = colliding_runs(lpf_1e5, lo, hi)
            assert expected and seen == expected, (lo, hi)
            assert s.failures == ()
    # across 2^31, where the pieces turn int64, and past 2^32, whole and
    # split, no run is matched whole either (none collides there)
    past = 2**32 + 12345
    for lo, mid, hi, table in [
        (2**31 - 40_000, 2**31, 2**31 + 40_000, PrimeTable(50_000)),
        (past, past + 2**20, past + 2**21, PrimeTable(isqrt(past + 2**22) + 1)),
    ]:
        whole = verify_grimm_summary(hi, table, lo=lo)
        parts = verify_grimm_summary(mid, table, lo=lo).merge(
            verify_grimm_summary(hi, table, lo=mid)
        )
        assert whole == parts and whole.runs and whole.failures == (), lo


def run_smooth_elements(ps, a, blo, lpf):
    """The elements of the run ps[a]+1 .. ps[a+1]-1 whose lpf (``lpf`` of the
    block from blo) is below the run's length, ascending."""
    rows = np.arange(ps[a] + 1, ps[a + 1]) - blo
    return (blo + rows[lpf[rows] < len(rows)]).tolist()


def check_blocks(lo, hi, table):
    """The smooth-element keying against the full-lpf keying on every block
    of the runs closing in (lo, hi], and the elements each colliding run
    yields; returns each block's (K - 1, count)."""
    seen = []
    for bps, blo, bhi in grimm._iter_blocks(bounding_primes(lo, hi)):
        lpf = lpf_range(blo, bhi, table)
        want = colliding_runs_full_lpf(bps, blo, lpf)
        got = list(grimm._colliding_runs(bps, blo, bhi, table))
        assert np.array_equal([a for a, _ in got], want), (blo, bhi)
        for a, values in got:
            assert sorted(values) == run_smooth_elements(bps, a, blo, lpf), (blo, a)
        seen.append((int(np.max(np.diff(bps))) - 2, bhi - blo + 1))
    return seen


def test_smooth_keying_matches_full_lpf_keying():
    table = PrimeTable(isqrt(10**7) + 1)
    rng = random.Random(13)
    # the first block, whose interior primes below K are smooth, then full
    # blocks from random starts below 1e7
    for lo in [2] + [rng.randrange(3, 10**7 - 2**22) for _ in range(2)]:
        check_blocks(lo, lo + 2**21 + rng.randrange(2**20), table)
    # short tail blocks, where the primes below K outgrow the strided views
    sparse = 0
    for _ in range(40):
        lo = rng.randrange(3, 10**7)
        for bound, count in check_blocks(lo, lo + rng.randrange(20, 3000), table):
            sparse += bound > count // intervals._DENSE_HITS
    assert sparse >= 10


def straddling_collisions(lo, hi, piece, table):
    """How many runs closing in (lo, hi] hold two elements with the same
    lpf in different pieces of ``piece`` values from the block's start."""
    count = 0
    for bps, blo, bhi in grimm._iter_blocks(bounding_primes(lo, hi)):
        lpf = lpf_range(blo, bhi, table)
        for a in colliding_runs_full_lpf(bps, blo, lpf).tolist():
            rows = np.arange(bps[a] + 1, bps[a + 1]) - blo
            pieces = {}
            for i, q in zip(rows.tolist(), lpf[rows].tolist()):
                pieces.setdefault(q, set()).add(i // piece)
            count += any(len(s) > 1 for s in pieces.values())
    return count


@pytest.mark.parametrize("piece", [16, 64, 99])
def test_smooth_keying_in_pieces(monkeypatch, piece):
    # many pieces per block, each sieved to its own longest run, colliding
    # runs whose equal-lpf elements lie in different pieces, and pieces that
    # switch from int32 to int64 at 2^31
    monkeypatch.setattr(grimm, "_PIECE", piece)
    table = PrimeTable(50_000)
    check_blocks(2, 100_000, table)
    assert straddling_collisions(2, 100_000, piece, table) >= 3
    check_blocks(2**31 - 40_000, 2**31 + 40_000, table)


def test_smooth_keying_past_2_32():
    lo = 2**32 + 12345
    check_blocks(lo, lo + 2**21, PrimeTable(isqrt(lo + 2**22) + 1))


def test_collision_failures_carry_the_witness(monkeypatch, table_1e5, lpf_1e5):
    # a run the smooth elements' matching refuses is reported with the
    # witness that matching gives, in run order, and never matched whole
    def refuse(p, k, values, table):
        return RepresentationResult(False, hall_witness=frozenset(v - p for v in values))

    monkeypatch.setattr(grimm, "_smooth_sdr", refuse)
    monkeypatch.setattr(
        grimm, "has_representation", lambda *run: pytest.fail(f"matched {run} whole")
    )
    expected = tuple(
        GrimmRunReport(p, k, refuse(p, k, values, None))
        for p, k, values in colliding_runs(lpf_1e5, 2, 100_000)
    )
    for shards in SHARDS:
        failures = sum((verify_grimm_summary(hi, table_1e5, lo=lo).failures
                        for lo, hi in shards), ())
        assert failures == expected


def smooth_elements(n, k, table):
    """The values of n+1 .. n+k whose largest prime factor is below k."""
    lpf = lpf_range(n + 1, n + k, table).tolist()
    return [n + 1 + i for i, q in enumerate(lpf) if q < k]


def check_smooth_witness(p, k, witness):
    """A refusal's Hall witness, by trial division: offsets in 1..k whose
    elements have every prime below k, fewer of them than offsets."""
    assert witness and all(1 <= i <= k for i in witness)
    primes = [distinct_primes(p + i) for i in witness]
    assert all(q < k for qs in primes for q in qs)
    assert len(set().union(*primes)) < len(witness)


def test_smooth_sdr_refuses_hall_violations(table_1e4):
    # three elements over the two primes {2, 3}, and others whose primes
    # below k are fewer than the elements, as offsets from p = 0
    for values, k, witness in [
        ([6, 12, 18], 13, {6, 12, 18}),
        ([4, 8], 5, {4, 8}),
        ([10, 20, 40, 50], 11, {10, 20, 40}),
        ([6, 9, 12, 15, 35, 49], 8, {6, 9, 12}),  # 6, 9 and 12 over {2, 3}
    ]:
        res = grimm._smooth_sdr(0, k, values, table_1e4)
        assert res.hall_witness == witness, values


def test_smooth_sdr_accepts_distinct_representatives(table_1e4):
    for values, k in [
        ([], 1),
        ([6, 10, 15], 7),
        ([6, 15, 35, 14], 8),  # a cycle 2-3-5-7-2 of shared primes
        ([4, 9, 25, 49], 8),
        ([12, 18], 5),
    ]:
        assert grimm._smooth_sdr(0, k, values, table_1e4).representable, values


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 20_000), st.integers(1, 120))
@example(2, 4)  # 3, 4, 6 share {2, 3}
@example(4, 7)
def test_smooth_sdr_decides_every_window_property(table_1e4, n, k):
    # any k consecutive integers, primes and all, are representable exactly
    # when their elements with lpf below k are; short windows near small n
    # often are not, and the smooth elements' witness refutes the window
    res = grimm._smooth_sdr(n, k, smooth_elements(n, k, table_1e4), table_1e4)
    assert res.representable == has_representation(n, k, table_1e4).representable, (n, k)
    if not res.representable:
        check_smooth_witness(n, k, res.hall_witness)


def check_every_run(lo, hi, table):
    """The smooth-element decision of every run closing in (lo, hi] against
    has_representation."""
    ps = bounding_primes(lo, hi).tolist()
    for p, q in zip(ps, ps[1:]):
        k = q - p - 1
        if k:
            decided = grimm._smooth_sdr(p, k, smooth_elements(p, k, table), table)
            whole = has_representation(p, k, table)
            assert decided.representable == whole.representable, (p, k)


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 10**6 - 3000), st.integers(1, 3000))
def test_smooth_sdr_decides_every_run_property(table_1e6, lo, length):
    check_every_run(lo, lo + length, table_1e6)


def test_smooth_sdr_decides_every_run_past_2_32():
    lo = 2**32 + 12345
    check_every_run(lo, lo + 2**15, PrimeTable(isqrt(lo + 2**16) + 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 100_000), max_size=6))
@example([40_000])
@example([2, 2, 100_000])  # empty shards at both ends
def test_verify_sharding_stitches(table_1e5, cuts):
    # the summaries of any split of (2, 1e5], each through the checkpoint's
    # JSON and merged in order, are the whole range's
    bounds = [2, *sorted(cuts), 100_000]
    parts = [
        VerifySummary.from_json(json.loads(json.dumps(
            verify_grimm_summary(b, table_1e5, lo=a).to_json()
        )))
        for a, b in zip(bounds, bounds[1:])
    ]
    whole = verify_grimm_summary(100_000, table_1e5)
    assert reduce(VerifySummary.merge, parts) == whole
    assert sum(p.runs for p in parts) == whole.runs


def test_verify_summary_merge_keeps_failures_and_order(table_1e4):
    res = has_representation(2, 4, table_1e4)
    first = VerifySummary(2, 3, 1, (GrimmRunReport(2, 4, res),), 4, 2)
    later = VerifySummary(3, 5, 1, (GrimmRunReport(3, 4, res),), 4, 3)
    # a failure keeps its Hall witness through the JSON round trip
    assert VerifySummary.from_json(json.loads(json.dumps(first.to_json()))) == first
    # failures join in order, and of two equal longest runs the first stays
    merged = first.merge(later)
    assert (merged.lo, merged.hi, merged.runs) == (2, 5, 2)
    assert (merged.failures, merged.max_k_p) == (first.failures + later.failures, 2)
    with pytest.raises(ValueError, match="adjacent"):
        later.merge(first)


def test_verify_runs_cover_every_composite(table_1e4):
    # the windows of all runs partition the composites in (2, last prime]
    reports = list(verify_grimm(1000, table_1e4))
    covered = set()
    for r in reports:
        covered.update(range(r.p + 1, r.p + r.k + 1))
    gaps1 = {p for p, q in ((r.p, r.k) for r in reports)}  # noqa: F841
    composites = {x for x in range(3, 998) if not is_prime(x)}
    assert covered == composites


def test_csv_rows(table_1e4):
    rep = list(verify_grimm(10, table_1e4))[0]
    assert rep.csv_row() == "3,1,representable"
    res = has_representation(2, 4, table_1e4)
    row = GrimmRunReport(2, 4, res).csv_row()
    assert row.startswith("2,4,not_representable,")
    assert ";".join(str(i) for i in sorted(res.hall_witness)) in row


def test_gap_and_grimm_consistency(table_1e4):
    # every gap >= 2 among primes <= limit appears as exactly one run
    ps = trial_primes(5000)
    gaps = [(p, q - p) for p, q in zip(ps, ps[1:]) if q - p >= 2]
    runs = list(verify_grimm(5000, table_1e4))
    assert len(gaps) == len(runs)
    for (p, gap), rr in zip(gaps, runs):
        assert p == rr.p and gap == rr.k + 1


def test_verify_grimm_extended_range():
    # range-scale soak: every composite run below 1.9e7 is representable
    table = PrimeTable(19_000_000)
    s = verify_grimm_summary(19_000_000, table)
    assert s.failures == ()
    assert s.runs == table.pi(19_000_000) - 2  # all pairs except (2,3)
