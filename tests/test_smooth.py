import io
import math
import sys
from dataclasses import asdict
from functools import reduce
from math import isqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import grimmsmooth.smooth as smooth
from grimmsmooth import (
    ExceptionalScanReport,
    PrimeTable,
    build_rho_table,
    exceptional_scan,
    g,
    grimm_upper_bound,
    psi,
    psi_window,
    rho,
)
from grimmsmooth.cli import run
from oracles import (
    exceptional_scan_reference, psi_buchstab, psi_large_y, smooth_count_direct,
    trial_primes,
)

PRIMES_1E4 = trial_primes(10_000)


def test_psi_examples():
    assert psi(10, 3) == 7  # 1,2,3,4,6,8,9
    assert psi(100, 100) == 100  # y >= x counts everything
    assert psi(100, 1000) == 100
    assert psi(0, 5) == 0
    assert psi(1, 1) == 1  # the unit is smooth for any y >= ...


def test_psi_against_direct_enumeration():
    for y in (2, 3, 5, 7.5, 13, 50):
        assert psi(500, y) == smooth_count_direct(1, 500, y), y


def test_psi_against_buchstab_recursion():
    # structurally independent second method
    for x, y in ((10_000, 30), (20_000, 30), (50_000, 100), (100_000, 316)):
        assert psi(x, y) == psi_buchstab(x, y, PRIMES_1E4), (x, y)


@pytest.fixture(scope="module")
def primes_2e5():
    return trial_primes(200_000)


@st.composite
def psi_args(draw):
    """(x, y) with x <= 2e5 and y below sqrt(x), between sqrt(x) and x,
    above x, or in (0, 1); y is non-integer about half the time."""
    x = draw(st.integers(1, 200_000))
    r = isqrt(x)
    y = draw(
        st.one_of(
            st.integers(1, max(1, r - 1)),
            st.integers(r, x),
            st.integers(x + 1, 2 * x + 10),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )
    )
    if draw(st.booleans()):
        y += draw(st.floats(0.0, 1.0, exclude_max=True))
    return x, y


@settings(max_examples=60, deadline=None)
@given(psi_args())
def test_psi_matches_buchstab_property(primes_2e5, args):
    x, y = args
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))  # one frame per prime <= y
    try:
        want = psi_buchstab(x, y, primes_2e5)
    finally:
        sys.setrecursionlimit(limit)
    assert psi(x, y) == want


def test_psi_monotone_in_x_and_y():
    values = {
        (x, y): psi(x, y)
        for x in range(0, 10_001, 500)
        for y in (2, 3, 10, 31, 100)
    }
    for (x, y), v in values.items():
        if (x - 500, y) in values:
            assert values[(x - 500, y)] <= v
    for x in range(0, 10_001, 500):
        row = [values[(x, y)] for y in (2, 3, 10, 31, 100)]
        assert row == sorted(row)


def test_psi_cap(capsys):
    # psi needs the pi table of x, isqrt(x) <= 2^24, unless y >= x
    for y in (10, 2**31):
        with pytest.raises(ValueError, match="isqrt"):
            psi(2**62, y)
    for x in (0, 2**62, 2**62 + 1, 10**30):
        assert psi(x, x + 1) == x
    for x, y in ((-1, 5), (10, 0), (10, -1)):
        with pytest.raises(ValueError):
            psi(x, y)
    # the CLI takes --x up to 2^62
    argv = ["psi", "--x", str(2**62 + 1), "--y", "10", "--manifest", "-"]
    assert run(argv, stdout=io.StringIO()) == 2
    assert "argument --x" in capsys.readouterr().err


def test_psi_past_the_old_cap():
    # one block-sized range (1e8, 1e8 + 2^20], as a difference of psi
    hi = 10**8 + 2**20
    want = psi_buchstab(hi, 10, PRIMES_1E4) - psi_buchstab(10**8, 10, PRIMES_1E4)
    assert psi(hi, 10) - psi(10**8, 10) == want


@st.composite
def window_args(draw):
    """(x, y) with 1 <= x <= 1e6 and y below, at or above the cube root
    and isqrt(x), or past x; y is non-integer about half the time."""
    x = draw(st.integers(1, 10**6))
    r, c = isqrt(x), round(x ** (1 / 3))
    y = draw(
        st.one_of(
            st.integers(1, max(1, c)),
            st.integers(max(1, c - 1), max(1, r - 1)),
            st.integers(max(1, r - 1), r + 1),
            st.integers(r, x + 10),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        )
    )
    if draw(st.booleans()):
        y += draw(st.floats(0.0, 1.0, exclude_max=True))
    return x, y


@settings(max_examples=40, deadline=None)
@given(window_args(), st.none())
# block = 64 cuts the window (0, x] into 79 blocks, on both sides of
# isqrt(5000) = 70 and of the cube root, 17
@example((5000, 16), 64)
@example((5000, 70.5), 64)
@example((10**6, 1000), None)
def test_psi_is_the_window_count_of_0_x(table_1e6, args, block):
    x, y = args
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(smooth, "_BLOCK", block)
        assert psi(x, y) == psi_window(0, x, y, table_1e6).count


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.floats(0.0, 1.5))
@example(10**6, 0.0)
@example(2**20 - 1, 0.0)  # x one short of a full block
def test_psi_matches_large_y_oracle(x, extra):
    # u <= 2: y from ceil(sqrt(x)) up to 2.5 times that, integer or not
    root = isqrt(x - 1) + 1 if x else 1
    y = root * (1.0 + extra)
    assert psi(x, y) == psi_large_y(x, y)


def test_prime_regime_integer_boundary(monkeypatch):
    # floor(y) = 10 = isqrt(100) makes the root a leaf, and y just below
    # it expands the root
    assert psi(100, 10.5) == 46 == smooth_count_direct(1, 100, 10.5)
    assert psi(100, 11) == 55 == smooth_count_direct(1, 100, 11)
    assert psi(100, 9.99) == 46 == smooth_count_direct(1, 100, 9.99)
    # y >= x counts every n <= x, and builds no table
    for x in (0, 1, 2, 99, 100, 10**12, 10**18, 2**62):
        for y in (x, x + 0.5, 1e300):
            if y > 0:
                assert psi(x, y) == x, (x, y)
    # floor(y) is compared with isqrt(x) as an int: at k = 2^31 - 1 the
    # float sqrt(k^2 - 1) rounds to k, which would call y = k - 1 too small.
    # Only a root leaf asks prime_pi for pi(y); the pi table is stubbed
    # (it stops at isqrt(x) = 2^24)
    k = 2**31 - 1
    assert math.sqrt(k * k - 1) == k

    class RootLeaf(Exception):
        pass

    def root_leaf(v):
        raise RootLeaf

    empty = np.zeros(1, dtype=np.int64)
    monkeypatch.setattr(smooth, "pi_table", lambda x: (empty, empty))
    monkeypatch.setattr(smooth, "prime_pi", root_leaf)
    for x, y, leaf in (
        (k * k - 1, float(k - 1), True), (k * k, float(k - 1), False),
        (k * k, k - 0.5, False), (k * k, float(k), True),
    ):
        try:
            smooth.psi(x, y)
            assert not leaf, (x, y)
        except RootLeaf:
            assert leaf, (x, y)


@st.composite
def boundary_args(draw):
    """x at k^2 - 1, k^2 or k^2 + 1, and y one below, at, half above and
    2.5 times isqrt(x): both sides of the split where the root is a leaf."""
    k = draw(st.integers(1, 450))
    x = k * k + draw(st.sampled_from((-1, 0, 1)))
    r = isqrt(x)
    y = draw(st.sampled_from((r - 1, r, r + 0.5, 2.5 * r)))
    assume(y > 0)
    return x, y


@settings(max_examples=80, deadline=None)
@given(boundary_args())
@example((24, 3))  # k = 5: x = k^2 - 1, y = isqrt(x) - 1 expands the root
@example((25, 5))  # y = isqrt(x) makes the root a leaf
@example((202_500, 450))
def test_psi_regime_boundary(primes_2e5, args):
    x, y = args
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))  # one frame per prime <= y
    try:
        want = psi_buchstab(x, y, primes_2e5)
    finally:
        sys.setrecursionlimit(limit)
    assert psi(x, y) == want


def test_psi_window_examples(table_1e4):
    rep = psi_window(10, 8, 3, table_1e4)
    assert rep.count == 3  # 12, 16, 18
    assert rep.smooth_head == 12 and rep.smooth_tail == 18
    rep = psi_window(0, 10, 3, table_1e4)
    assert rep.count == psi(10, 3) == 7
    assert rep.smooth_head == 1


def test_window_matches_global_on_grid(table_1e4):
    for x in range(1, 1001, 7):
        for y in (2, 5, 17, 97):
            assert psi_window(0, x, y, table_1e4).count == psi(x, y)


def test_window_splits_add_up(table_1e4):
    y = 19
    whole = psi_window(100, 900, y, table_1e4).count
    parts = sum(
        psi_window(100 + i, 100, y, table_1e4).count for i in range(0, 900, 100)
    )
    assert parts == whole


def test_window_certificate_members_are_smooth(table_1e4):
    rep = psi_window(1000, 500, 11, table_1e4)
    direct = [v for v in range(1001, 1501) if _lpf(v) <= 11]
    assert rep.count == len(direct)
    if direct:
        assert rep.smooth_head == direct[0]
        assert rep.smooth_tail == direct[-1]
    assert rep.pi_y == 5
    assert rep.bound_established == (rep.count > rep.pi_y)


def _lpf(v):
    if v == 1:
        return 1
    m = 1
    d = 2
    while d * d <= v:
        while v % d == 0:
            m, v = d, v // d
        d += 1
    return max(m, v) if v > 1 else m


def test_both_sieving_regimes(table_1e4):
    # y below and above sqrt(x+z) must both count exactly
    x, z = 20_000, 3_000
    for y in (11, 97, 500, 4000):  # sqrt(23000) ~ 151.6
        rep = psi_window(x, z, y, table_1e4)
        assert rep.count == smooth_count_direct(x + 1, x + z, y), y


@pytest.mark.parametrize("x,z", [(0, 40), (1000, 300), (20_000, 3_000)])
def test_psi_window_matches_oracle_across_y(table_1e5, monkeypatch, x, z):
    # y below 1 (the unit alone), 3 and 7 (few smooth values: with block =
    # 64 the window has blocks without one before, between and after
    # theirs), from sqrt(x+z) to x+z, and past x+z, where the window sieves
    # with every prime to x+z and no further
    top = x + z
    for block in (None, 64):
        if block is not None:
            monkeypatch.setattr(smooth, "_BLOCK", block)
        for y in (0.5, 3, 7, isqrt(top), isqrt(top) + 0.5, top / 3, top, top + 7.5):
            want = [v for v in range(x + 1, top + 1) if v == 1 or _lpf(v) <= y]
            rep = psi_window(x, z, y, table_1e5)
            got = (rep.count, rep.smooth_head, rep.smooth_tail)
            ends = (min(want, default=None), max(want, default=None))
            assert got == (len(want), *ends), (block, y)


def test_psi_window_ends_within_int64(table_1e5):
    # the largest window accepted, against trial division by the primes <= y
    ps = trial_primes(10**5)

    def smooth_by_trial(v):
        for p in ps:
            while v % p == 0:
                v //= p
        return v == 1

    z = 400
    x = smooth.WINDOW_MAX_END - z
    want = [v for v in range(x + 1, x + z + 1) if smooth_by_trial(v)]
    rep = psi_window(x, z, 1e5, table_1e5)
    assert (rep.count, rep.smooth_head, rep.smooth_tail) == (len(want), want[0], want[-1])
    # one step further the int64 sieve would wrap: (2^63 - 100, 2^63 + 300]
    # holds 5 smooth values, and the sieve found 4
    for x, z in ((x + 1, z), (2**63 - 100, 400), (10**20, 1000)):
        with pytest.raises(ValueError, match="2\\^63"):
            psi_window(x, z, 1e5, table_1e5)


@pytest.mark.parametrize("x,z", [(0, 40), (1000, 300), (20_000, 3_000)])
def test_psi_window_pi_y_on_both_sides_of_x_plus_z(monkeypatch, x, z):
    # floor(y) <= x + z: pi(y) is read off the window's own table, and
    # prime_pi is not called; floor(y) > x + z: the table stops at x + z and
    # prime_pi counts pi(y)
    top = x + z
    for y in (isqrt(top), top - 0.5, top, top + 0.5, top + 1, top + 1000):
        table = PrimeTable(smooth.window_table_limit(x, z, y))
        with monkeypatch.context() as m:
            if y < top + 1:
                m.setattr(smooth, "prime_pi", None)
            pi_y = psi_window(x, z, y, table).pi_y
        assert pi_y == len(trial_primes(math.floor(y))), y


def test_grimm_upper_bound_soundness_small(table_1e5):
    # wherever the criterion fires at x <= 1e4, the exact g obeys the bound
    rng = np.random.default_rng(5)
    fired = 0
    for x in rng.integers(100, 10_000, size=40):
        x = int(x)
        z = int(x**0.7)
        b = grimm_upper_bound(x, x**0.7, z, table_1e5)
        if b is None:
            continue
        fired += 1
        assert b.count > b.pi_y
        assert x < b.smooth_head <= b.smooth_tail <= x + z
        assert g(x, table_1e5) < b.z == z
    assert fired > 0  # the sample really exercised the criterion


def test_grimm_upper_bound_none_when_not_established(table_1e4):
    # tiny window, tiny y: criterion cannot fire
    assert grimm_upper_bound(100, 2.0, 3, table_1e4) is None


def test_exceptional_scan_small(table_1e4):
    rep = exceptional_scan(2000, 0.45, table_1e4, c0=0.01, stride=1)
    assert rep.sampled == 2000
    assert rep.degenerate == sum(1 for n in range(1, 2001) if n**0.45 < 2)
    assert rep.evaluated == rep.sampled - rep.degenerate
    assert rep.failures <= rep.evaluated
    assert 0 <= rep.failure_fraction <= 1
    # tiny c0 on a packed range: failures should be rare
    assert rep.failure_fraction < 0.05


def test_exceptional_scan_degenerate_flagging(table_1e4):
    # eps so small that every window below x_max is empty
    rep = exceptional_scan(50, 0.1, table_1e4, c0=0.5)
    assert rep.degenerate == rep.sampled
    assert rep.evaluated == 0 and rep.failure_fraction == 0.0


def test_exceptional_scan_default_c0(table_1e4):
    rep = exceptional_scan(500, 0.45, table_1e4, stride=7)
    t = build_rho_table(4.0)
    assert math.isclose(rep.c0, rho(1 / 0.45, t) / 2, rel_tol=1e-9)
    assert rep.stride == 7
    assert rep.sampled == len(range(1, 501, 7))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 1000), max_size=6))
@example([500])  # the sample n = 1501
@example([0, 0, 1000])  # empty parts at both ends
def test_exceptional_scan_start_splits_the_range(table_1e4, cuts):
    # n = 1, 4, 7, ... <= 3000 split before any samples: the parts' reports,
    # merged in order, are the whole scan's
    whole = exceptional_scan(3000, 0.4, table_1e4, c0=0.2, stride=3)
    starts = [1 + 3 * i for i in [0, *sorted(cuts)]] + [3001]
    parts = [
        exceptional_scan(b - 1, 0.4, table_1e4, c0=0.2, stride=3, start=a)
        for a, b in zip(starts, starts[1:])
    ]
    assert reduce(ExceptionalScanReport.merge, parts) == whole
    assert sum(p.sampled for p in parts) == whole.sampled == 1000
    assert whole.failures > len(whole.first_failures) == 20
    with pytest.raises(ValueError, match="stride"):
        whole.merge(exceptional_scan(3000, 0.4, table_1e4, c0=0.2, stride=4))


def test_scan_validation(table_1e4):
    with pytest.raises(ValueError):
        exceptional_scan(100, 0.6, table_1e4)
    with pytest.raises(ValueError):
        exceptional_scan(100, 0.45, table_1e4, stride=0)
    with pytest.raises(ValueError):
        exceptional_scan(100, 0.45, table_1e4, c0=-1.0)
    for start in (0, -3):
        with pytest.raises(ValueError, match="start"):
            exceptional_scan(100, 0.45, table_1e4, c0=0.1, start=start)


@st.composite
def scan_args(draw):
    """Scans over n <= 3000 whose stride falls below and above n^eps, with
    c0 log-uniform so that some windows sit at the failure threshold."""
    x_max = draw(st.integers(0, 3000))
    return {
        "x_max": x_max,
        "eps": draw(st.floats(0.05, 0.5, exclude_min=True, exclude_max=True)),
        "c0": math.exp(draw(st.floats(math.log(0.005), 0.0))),
        "stride": draw(st.one_of(st.integers(1, 8), st.integers(1, 60))),
        "start": draw(st.integers(1, x_max + 1)),
    }


@pytest.mark.parametrize("block", [None, 64])
@settings(max_examples=40, deadline=None)
@given(scan_args())
# a dense scan near the failure threshold: any window miscounted by one shows
@example({"x_max": 3000, "eps": 0.45, "c0": 0.3, "stride": 2, "start": 1})
def test_exceptional_scan_matches_reference_property(table_1e4, block, args):
    # block = 64 cuts the sample segments and the runs of equal z into
    # several sieve calls; the report must not change
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(smooth, "_BLOCK", block)
        rep = exceptional_scan(table=table_1e4, **args)
    assert asdict(rep) == exceptional_scan_reference(**args)


def test_exceptional_scan_benchmark_pin(table_1e4):
    # perfbench's windows part at seed 0 (default c0 = rho(1/0.3) / 2); the
    # same figures are recomputed there from an independent lpf sieve
    rep = exceptional_scan(400_000, 0.3, table_1e4, stride=4)
    assert (rep.sampled, rep.degenerate) == (100_000, 3)
    assert (rep.evaluated, rep.failures) == (99_997, 32_095)
    assert rep.first_failures == (
        13, 17, 21, 25, 29, 33, 37, 41, 49, 57,
        65, 73, 77, 81, 85, 89, 97, 101, 109, 113,
    )


def test_exceptional_scan_1e5_with_default_c0(table_1e4):
    # larger-range run at the default (half-Dickman) threshold; the failure
    # fraction stays small and is recorded in the report
    rep = exceptional_scan(100_000, 0.45, table_1e4, stride=25)
    assert rep.evaluated > 3000
    assert rep.failure_fraction < 0.10
    assert len(rep.first_failures) <= 20


@pytest.mark.xfail(
    strict=True,
    reason="finite-x convergence to the Dickman limit is O(1/log x), about "
    "+12% at alpha=1/2 and +49% at alpha=1/3 for x=1e6, so a 5% gate "
    "cannot hold at this scale; kept as stated for the record",
)
def test_dickman_limit_within_5pct_at_1e6():
    t = build_rho_table(4.0)
    for alpha in (0.5, 1 / 3):
        y = (10**6) ** alpha
        target = rho(1 / alpha, t)
        ratio = psi(10**6, y) / 10**6
        assert abs(ratio - target) <= 0.05 * target, alpha


def test_dickman_limit_direction_at_1e6():
    # what actually holds at x = 1e6: the ratio exceeds the limit by the
    # expected finite-x excess, and sits well inside [rho, 1.6 rho]
    t = build_rho_table(4.0)
    for alpha in (0.5, 1 / 3):
        y = (10**6) ** alpha
        target = rho(1 / alpha, t)
        ratio = psi(10**6, y) / 10**6
        assert target < ratio < 1.6 * target, alpha
