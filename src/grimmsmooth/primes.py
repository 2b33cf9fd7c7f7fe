"""Exact prime infrastructure: one segmented sieve, and a table of its primes.

:func:`segments` is the package's one primality sieve: an odd-only
Eratosthenes sieve that walks [lo, hi] in chunks of ``_CHUNK_ODDS`` odd
numbers and yields each chunk's primes as an ascending int64 array.  A
chunk starts from a wheel, the odd numbers coprime to 3 5 7 11 13, whose
pattern repeats every 15,015 odd numbers and is tiled by slice copies
(:func:`_tile`, which the window sieve of ``intervals`` shares); only the
base primes from 17 to sqrt(hi) cross off their multiples, and those it
lists by walking [17, sqrt(hi)] the same way, which needs no base prime
below 289.  Its memory is one chunk, whatever the range,
so the scans read it directly, one shard at a time, and need no table:

* :func:`bounding_primes` -- the consecutive primes around the gaps that
  close in (lo, hi], opened by the largest prime <= lo, which it finds by
  sieving back from lo in doubling steps.
* :func:`gap_check` -- consecutive prime gaps against the Cramer-style bound
  ``gap < 1 + (log p)**2``.
* :func:`check_dusart` -- the explicit bounds
  ``pi(x) < (x/log x)(1 + 1.2762/log x)`` for integer ``x > 1`` and
  ``theta(x) <= 1.00008 x`` for real ``x > 0``, theta as a running sum.

:class:`PrimeTable` holds the primes of the same chunk loop, run over
[2, limit], as one read-only int64 array, filled once in its constructor.
:meth:`PrimeTable.primes_to` hands the window sieves their sieving primes
as a view of it, and :meth:`PrimeTable.pi` is a binary search in it.

:func:`pi_table` counts primes without listing them: Lucy's form of the
Legendre/Meissel recursion gives pi at every value x // k from the primes
<= isqrt(x) alone, in O(x^(3/4) / log x) elementwise work and O(sqrt(x))
memory, and :func:`prime_pi` reads pi(x) off it.  As in Meissel-Lehmer,
the recursion splits at the cube root: the primes p with p^3 <= x take
one numpy pass each, and every prime above x^(1/3) is applied in one
batched pass, so a table makes pi(x^(1/3)) per-prime passes, not
pi(sqrt(x)).  psi's prime regime is built on it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from math import isqrt
from typing import Iterator

import numpy as np

# Largest supported table: 105,097,565 int64 primes, about 802 MiB.
MAX_LIMIT = 2**31

# Largest isqrt(x) for a pi table, so x < 2^48.  A table costs about 24
# bytes per unit of isqrt(x) at its peak (three int64 arrays; the other
# temporaries are chunks, or one entry per prime of a sieve chunk):
# pi(1e13) took 7.8-9.9 s at a peak RSS of 107 MiB and pi(1e14) 42.5 s at
# 263 MiB on 2 vCPUs, which puts the bound near 420 MiB and 2 minutes.
PI_TABLE_MAX_ROOT = 1 << 24

# Entries, or (prime, k) pairs, per numpy pass of a pi table: it bounds the
# table's temporaries to a few MiB whatever x is.
_PI_CHUNK = 1 << 15

# Odd numbers sieved per numpy pass.  Its 1 MiB of flags stays in a
# core's L2 cache while every base prime strides over it: walking [2, 1e9]
# took 2.9 s in chunks of 2^20 odd numbers and 9.5 s in chunks of 2^24.
_CHUNK_ODDS = 1 << 20


class TableLimitError(ValueError):
    """An operation needs primes beyond what the table holds."""


def _tile(out: np.ndarray, pattern: np.ndarray, start: int) -> None:
    """Fill ``out`` with ``pattern`` repeated from its entry ``start``:
    ``out[i] = pattern[(start + i) % len(pattern)]``.

    At most one period is copied from ``pattern``, and only the entries
    ``out`` needs; a longer ``out`` then doubles what it holds, a whole
    number of periods per slice copy."""
    period, n = len(pattern), len(out)
    off = start % period
    head = min(n, period - off)
    out[:head] = pattern[off : off + head]
    m = min(n, period)
    out[head:m] = pattern[: m - head]
    while m < n:
        k = min(m, n - m)
        out[m : m + k] = out[:k]
        m += k


# The odd primes that every chunk of :func:`_odd_flags` takes from one
# pattern instead of striding: the odd numbers 2i + 1 coprime to their
# product repeat with period 15,015 in i.
_WHEEL_PRIMES = (3, 5, 7, 11, 13)
_WHEEL = np.gcd(2 * np.arange(15_015) + 1, 15_015) == 1


def _odd_flags(o_lo: int, o_hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(o, flags)`` per chunk of the odd indices o_lo <= i < o_hi:
    ``flags[j]`` is True iff the odd number 2(o + j) + 1 is prime.  Every
    chunk is sieved in the same buffer, so ``flags`` holds only until the
    next chunk is asked for.

    A chunk starts as the odd numbers coprime to 3 5 7 11 13 (``_WHEEL``),
    with 1 struck and those five primes set back, and only the base primes
    from 17 to sqrt(2 o_hi - 1) stride over it.  They come from
    :func:`segments` itself, which is not called below 17^2 = 289; that
    ends the recursion."""
    if o_hi <= o_lo:
        return
    r = isqrt(2 * o_hi - 1)
    base = [p for ps in segments(17, r) for p in ps.tolist()] if r >= 17 else []
    buf = np.empty(min(_CHUNK_ODDS, o_hi - o_lo), dtype=bool)
    for o in range(o_lo, o_hi, _CHUNK_ODDS):
        size = min(_CHUNK_ODDS, o_hi - o)
        flags = buf[:size]
        _tile(flags, _WHEEL, o)
        if o == 0:
            flags[0] = False  # the number 1
        if o < 7:  # the wheel primes 3 .. 13 are the odd indices 1 .. 6
            for p in _WHEEL_PRIMES:
                if 0 <= (i := p // 2 - o) < size:
                    flags[i] = True
        lo_num = 2 * o + 1
        for p in base:
            start = max(p * p, ((lo_num + p - 1) // p) * p)
            if start % 2 == 0:
                start += p
            i0 = (start - 1) // 2 - o
            if i0 < size:
                flags[i0::p] = False
        yield o, flags


def segments(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Yield the primes in [lo, hi], ascending, as int64 arrays: the prime 2
    on its own when the range holds it, then one array per sieve chunk."""
    lo, hi = max(int(lo), 2), int(hi)
    if hi < lo:
        return
    if lo == 2:
        yield np.array([2], dtype=np.int64)
    for o, flags in _odd_flags(lo // 2, (hi + 1) // 2):
        yield 2 * (np.flatnonzero(flags) + o) + 1


def pi_table(x: int) -> tuple[np.ndarray, np.ndarray]:
    """Lucy's table of pi at every value x // k, as ``(small, large)``:
    ``small[v]`` = pi(v) for v <= r = isqrt(x), and ``large[k]`` = pi(x // k)
    for 1 <= k <= r (``large[0]`` is 0).

    Every S(v) starts at v - 1, and each prime p <= r, in ascending order,
    takes S(v) -= S(v // p) - S(p - 1) at every v >= p^2 in the table,
    which strikes the composites whose least prime factor is p.  The values
    x // k // p are again values of the table: ``large[k p]`` when k p <= r,
    ``small[x // (k p)]`` otherwise.

    A prime with p^3 <= x reads values that earlier primes changed, so
    each such prime is one numpy pass (:func:`_strike`).  The primes above
    the cube root are taken together (:func:`_strike_above_cbrt`): once
    p^2 > r, ``small`` is final, and such a p only changes ``large[k]`` for
    k <= x // p^2 < p, while every ``large[m]`` it reads has m >= p, which
    no prime above the cube root changes.  So the work is O(x^(3/4) /
    log x) elementwise but only pi(x^(1/3)) per-prime passes.  The table
    is two int64 arrays of r + 1 entries, and the per-prime passes read a
    third, x // k for every k; every other temporary holds at most
    ``_PI_CHUNK`` entries or pairs, or one entry per prime of a sieve
    chunk.  r is refused above ``PI_TABLE_MAX_ROOT`` before anything is
    allocated.
    """
    x = int(x)
    r = isqrt(max(x, 0))
    if r > PI_TABLE_MAX_ROOT:
        raise ValueError(
            f"a pi table for x = {x} needs isqrt(x) <= {PI_TABLE_MAX_ROOT}, got {r}"
        )
    small = np.arange(-1, r, dtype=np.int64)
    small[0] = 0
    quot = np.zeros(r + 1, dtype=np.int64)  # quot[k] = x // k
    for a in range(1, r + 1, _PI_CHUNK):
        quot[a : a + _PI_CHUNK] = x // np.arange(a, min(a + _PI_CHUNK, r + 1))
    large = quot - 1
    large[0] = 0
    for ps in segments(2, r):
        cut = int(np.count_nonzero(ps <= x // (ps * ps)))  # the p with p^3 <= x
        for p in ps[:cut].tolist():
            _strike(small, large, quot, x, p)
        if cut < len(ps):
            quot = None  # no longer read: the primes above x^(1/3) divide x by k p
            _strike_above_cbrt(small, large, x, ps[cut:])
    return small, large


def _strike(small: np.ndarray, large: np.ndarray, quot: np.ndarray, x: int, p: int) -> None:
    """One prime's pass of :func:`pi_table`, ``_PI_CHUNK`` entries at a time.

    ``large[k]`` reads ``large[k p]`` (k p > k) or ``small``, so ``large``
    is walked up; ``small[v]`` reads ``small[v // p]`` (< v), so it is
    walked down: every read is of a value this prime has not yet struck.
    """
    r = len(small) - 1
    sp = int(small[p - 1])
    kmax = min(r, x // (p * p))
    k1 = min(kmax, r // p)
    for a in range(1, kmax + 1, _PI_CHUNK):
        b = min(a + _PI_CHUNK, kmax + 1)  # k in [a, b)
        j = min(max(a, k1 + 1), b)  # k in [a, j) read large, k in [j, b) small
        large[a:j] -= large[a * p : j * p : p] - sp
        large[j:b] -= small[quot[j:b] // p] - sp
    for hi in range(r + 1, p * p, -_PI_CHUNK):
        lo = max(p * p, hi - _PI_CHUNK)  # v in [lo, hi)
        # v // p runs over lo // p .. (hi - 1) // p, p times each
        q = small[lo // p : (hi - 1) // p + 1].repeat(p)[lo % p :]
        small[lo:hi] -= q[: hi - lo] - sp


def _strike_above_cbrt(small: np.ndarray, large: np.ndarray, x: int, ps: np.ndarray) -> None:
    """The passes of the primes ``ps`` of :func:`pi_table`, all with
    isqrt(x) >= p > x^(1/3), as one sum over the pairs (p, k <= x // p^2):
    ``large[k]`` -= pi(x // (k p)) - pi(p - 1), ``_PI_CHUNK`` pairs at a
    time, with ``np.subtract.at`` adding up the pairs that share a k."""
    r = len(small) - 1
    counts = x // (ps * ps)
    ends = np.cumsum(counts)  # the pairs of ps[i] are numbered first[i] .. ends[i] - 1
    first = ends - counts
    for s in range(0, int(ends[-1]), _PI_CHUNK):
        e = min(s + _PI_CHUNK, int(ends[-1]))  # the pairs s .. e - 1, of ps[i:j]
        i = int(np.searchsorted(ends, s, side="right"))
        j = int(np.searchsorted(ends, e - 1, side="right")) + 1
        run = np.minimum(ends[i:j], e) - np.maximum(first[i:j], s)
        p = np.repeat(ps[i:j], run)
        k = np.arange(s + 1, e + 1) - np.repeat(first[i:j], run)
        m = k * p
        inside = m <= r
        term = np.empty(len(m), dtype=np.int64)
        term[inside] = large[m[inside]]
        term[~inside] = small[x // m[~inside]]
        term -= small[p - 1]
        np.subtract.at(large, k, term)


def prime_pi(x: int) -> int:
    """pi(x) for an integer x >= 0 from :func:`pi_table`, with no sieve of
    [1, x]: pi(1e10) = 455,052,511 in about 0.05 s."""
    return int(pi_table(x)[1][1]) if x >= 2 else 0


def _joined(lo: int, hi: int) -> np.ndarray:
    """All primes in [lo, hi] as one int64 array."""
    return np.concatenate([np.empty(0, dtype=np.int64), *segments(lo, hi)])


def bounding_primes(lo: int, hi: int) -> np.ndarray:
    """The consecutive primes around every gap whose closing prime lies in
    (lo, hi]: from the largest prime <= lo (2 when lo <= 2) up to hi."""
    lo = max(int(lo), 2)
    if hi <= lo:
        return np.empty(0, dtype=np.int64)
    back = 64
    while not len(below := _joined(lo - back, lo)):  # [2, lo] holds 2
        back *= 2
    return np.concatenate([below[-1:], _joined(lo + 1, hi)])


class PrimeTable:
    """The primes up to ``limit``, as one read-only ascending int64 array of
    8 bytes per prime.

    The array is filled once, in the constructor, from :func:`segments`: a
    table is complete when the constructor returns and never changes after,
    so concurrent readers need no lock.
    """

    def __init__(self, limit: int):
        limit = int(limit)
        if not 2 <= limit <= MAX_LIMIT:
            raise ValueError(
                f"table limit must be in [2, {MAX_LIMIT}], got {limit}"
            )
        self.limit = limit
        # sized by Dusart's bound on pi(limit) and filled a chunk at a
        # time: joining the chunks would hold every prime twice
        primes = np.empty(int(_pi_bound(np.float64(limit))) + 1, dtype=np.int64)
        n = 0
        for chunk in segments(2, limit):
            primes[n : n + len(chunk)] = chunk
            n += len(chunk)
        self._primes = primes[:n]
        self._primes.flags.writeable = False  # callers get views of it

    def _check_range(self, x: float, what: str = "argument") -> None:
        if x < 0 or x > self.limit:
            raise TableLimitError(f"{what} {x} outside table range [0, {self.limit}]")

    def pi(self, x: float) -> int:
        """Number of primes <= x (real x allowed; counts primes <= floor(x))."""
        self._check_range(x)
        return int(np.searchsorted(self._primes, math.floor(x), side="right"))

    def primes_to(self, bound: float) -> np.ndarray:
        """Primes <= bound, ascending, as a read-only view of the table's array."""
        self._check_range(max(bound, 0), "prime list bound")
        return self._primes[: np.searchsorted(self._primes, math.floor(bound), "right")]


# ---------------------------------------------------------------------------
# prime gaps against the Cramer-style bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapRecord:
    """One consecutive prime pair with the bound it is measured against."""

    p: int
    next_p: int
    gap: int
    cramer_bound: float  # 1 + (log p)**2


@dataclass(frozen=True)
class GapScanSummary:
    """The prime pairs whose second prime lies at or below limit (and above
    the scan's lo): how many, the ones violating the bound, and the first
    largest gap, max_gap after the prime max_gap_p."""

    limit: int
    pairs: int
    violations: tuple[GapRecord, ...]
    max_gap: int
    max_gap_p: int

    def merge(self, other: GapScanSummary) -> GapScanSummary:
        """The summary of this scan's range followed by ``other``'s: counts
        add, violations join in order, and the first largest gap is kept."""
        widest = other if other.max_gap > self.max_gap else self
        return GapScanSummary(
            limit=other.limit, pairs=self.pairs + other.pairs,
            violations=self.violations + other.violations,
            max_gap=widest.max_gap, max_gap_p=widest.max_gap_p,
        )

    def to_json(self) -> dict:
        """The fields as JSON values, each violation as a dict."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> GapScanSummary:
        """The summary :meth:`to_json` gave ``data`` for."""
        return cls(**data | {"violations": tuple(GapRecord(**v) for v in data["violations"])})


def gap_check(limit: int, lo: int = 2) -> GapScanSummary:
    """Gap scan over the pairs whose second prime lies in (lo, limit];
    collects only the (expected empty) violations."""
    ps = bounding_primes(lo, limit)
    if len(ps) < 2:
        return GapScanSummary(limit, 0, (), 0, 0)
    p, q, gap = ps[:-1], ps[1:], np.diff(ps)
    bound = 1.0 + np.log(p.astype(np.float64)) ** 2
    bad = np.flatnonzero(gap >= bound)
    records = tuple(
        GapRecord(int(p[i]), int(q[i]), int(gap[i]), float(bound[i])) for i in bad
    )
    imax = int(np.argmax(gap))
    return GapScanSummary(limit, len(p), records, int(gap[imax]), int(p[imax]))


# ---------------------------------------------------------------------------
# explicit pi / theta bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DusartReport:
    """Outcome of the explicit-bound scan (violation lists expected empty)."""

    limit: int
    pi_points_checked: int
    pi_violations: tuple[int, ...]
    pi_min_slack: float  # min over x of bound(x) - pi(x)
    theta_primes_checked: int
    theta_violations: tuple[int, ...]
    theta_min_slack: float  # min over p of 1.00008 p - theta(p)

    @property
    def ok(self) -> bool:
        return not self.pi_violations and not self.theta_violations


# pi(x) < (x / log x)(1 + _PI_C / log x) for x > 1 (Dusart)
_PI_C = 1.2762


def _pi_bound(xs: np.ndarray) -> np.ndarray:
    logs = np.log(xs.astype(np.float64))
    return xs / logs * (1.0 + _PI_C / logs)


def _pi_violations_from(x: int, pi_x: int, limit: int) -> list[int]:
    """x, x+1, ... up to limit, while the pi bound stays at or below pi_x;
    pi only grows, so each of them breaks the bound."""
    run: list[int] = []
    while x <= limit:
        ys = np.arange(x, min(x + 1024, limit + 1), dtype=np.int64)
        above = np.flatnonzero(_pi_bound(ys) > pi_x)
        run += ys[: above[0] if len(above) else len(ys)].tolist()
        if len(above):
            break
        x += 1024
    return run


def check_dusart(limit: int) -> DusartReport:
    """Check pi(x) < (x/log x)(1 + 1.2762/log x) at every integer x in (1, limit]
    and theta(x) <= 1.00008 x for all real x in (0, limit].

    pi is constant from a prime p to the next prime q, while the pi bound
    increases from x = 5 on, so on [p, q) its slack is least at p: the scan
    evaluates it at every x below 5 and then at the primes only.  A
    violation at a point spreads to the integers after it for as long as
    the bound stays at or below its pi, and those are listed with it.
    theta too is a step function jumping only at primes, so the second
    inequality holds on all of (0, limit] iff it holds at every prime <=
    limit; the scan checks exactly those points.
    """
    pi_bad: set[int] = set()
    pi_slack = math.inf
    th_bad: list[int] = []
    th_slack = math.inf
    th_checked = 0

    def check_pi(xs: np.ndarray, pis: np.ndarray) -> None:
        nonlocal pi_slack
        if not len(xs):
            return
        bound = _pi_bound(xs)
        pi_slack = min(pi_slack, float((bound - pis).min()))
        for i in np.flatnonzero(pis >= bound).tolist():
            pi_bad.update(_pi_violations_from(int(xs[i]), int(pis[i]), limit))

    head = np.arange(2, min(limit, 4) + 1, dtype=np.int64)  # pi = 1, 2, 2
    check_pi(head, np.minimum(head - 1, 2))

    pi_base = 0
    theta_base = 0.0
    # one sieve walk, chunk by chunk; theta is one running sum in prime
    # order, so every theta(p) is the same double however the walk is cut
    for pr in segments(2, limit):
        if not (k := len(pr)):  # a last chunk may hold no prime
            continue
        pis = pi_base + np.arange(1, k + 1, dtype=np.int64)
        pi_base += k
        five = int(np.searchsorted(pr, 5))
        check_pi(pr[five:], pis[five:])

        pvals = pr.astype(np.float64)
        thetas = np.add.accumulate(np.concatenate([[theta_base], np.log(pvals)]))[1:]
        theta_base = float(thetas[-1])
        tslack = 1.00008 * pvals - thetas
        th_checked += k
        th_slack = min(th_slack, float(tslack.min()))
        th_bad.extend(pr[tslack < 0].tolist())

    return DusartReport(
        limit=limit,
        pi_points_checked=max(limit - 1, 0),
        pi_violations=tuple(sorted(pi_bad)),
        pi_min_slack=pi_slack,
        theta_primes_checked=th_checked,
        theta_violations=tuple(th_bad),
        theta_min_slack=th_slack,
    )
