"""Exact prime infrastructure: segmented bit-packed sieve, pi, theta, n-th prime.

The whole module is built around one data structure, :class:`PrimeTable`: an
odd-only, bit-packed Eratosthenes sieve up to a fixed ``limit`` with a
cumulative prime count stored at every segment boundary.  Everything it
answers (``is_prime``, ``pi``, ``theta``, ``nth_prime``, prime enumeration) is
exact for arguments up to ``limit``; there are no analytic approximations
anywhere.

Storage layout.  Odd numbers 1, 3, 5, ... map to bit indices 0, 1, 2, ...
(number ``2*i + 1`` <-> bit ``i``).  Bits are packed little-endian into a
``uint8`` array, so a segment of ``segment_size`` consecutive integers
occupies ``segment_size // 16`` bytes.  A ``pi`` query costs one checkpoint
lookup plus a popcount over at most one segment of bits; ``theta`` adds a
lazily built table of per-segment log sums (compensated summation, so the
accumulated error stays far below the 1e-9 * pi(x) budget).

On top of the table sit the scan-style checks:

* :func:`gap_check` -- consecutive prime gaps against the Cramer-style bound
  ``gap < 1 + (log p)**2``.
* :func:`check_dusart` -- the explicit bounds
  ``pi(x) < (x/log x)(1 + 1.2762/log x)`` for integer ``x > 1`` and
  ``theta(x) <= 1.00008 x`` for real ``x > 0``.
* :func:`check_stirling_factorial` -- the Stirling-type lower bound for
  ``k!`` as a finite inequality over a k-range.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

# Largest supported table; the constraint is build time and the transient
# boolean chunk, not the packed storage (2**31 packs into 128 MiB).
MAX_LIMIT = 2**31

DEFAULT_SEGMENT_SIZE = 1 << 20

# Construction chunk: sieve this many odd indices per numpy pass.
_BUILD_CHUNK_ODDS = 1 << 24


class TableLimitError(ValueError):
    """An operation needs primes beyond what the table holds."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


def _small_odd_primes(limit: int) -> list[int]:
    """Odd primes <= limit by a plain dense sieve (used for base primes)."""
    if limit < 3:
        return []
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return (np.flatnonzero(sieve)[1:]).tolist()  # drop 2


class PrimeTable:
    """Immutable primality/counting store for all integers up to ``limit``.

    Safe for concurrent reads once constructed; construction itself has no
    observable intermediate state (the constructor either returns a complete
    table or raises).  The two lazy caches (theta checkpoints, prime list)
    are idempotent, so racing readers at worst duplicate work.
    """

    def __init__(self, limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
        limit = int(limit)
        if not 2 <= limit <= MAX_LIMIT:
            raise ValueError(
                f"table limit must be in [2, {MAX_LIMIT}], got {limit}"
            )
        if segment_size % 16 != 0 or segment_size < 16:
            raise ValueError("segment_size must be a positive multiple of 16")
        self.limit = limit
        self.segment_size = int(segment_size)
        self._seg_odds = self.segment_size // 2
        self._build()
        self._theta_cum: np.ndarray | None = None
        self._plist: list[int] = []  # cached prefix of the prime sequence
        self._plist_bound = 1

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        limit = self.limit
        n_odds = (limit + 1) // 2  # odd numbers 1, 3, ..., <= limit
        seg_odds = self._seg_odds
        n_segs = (n_odds + seg_odds - 1) // seg_odds
        base = _small_odd_primes(isqrt(limit))

        bits = np.zeros((n_odds + 7) // 8, dtype=np.uint8)
        seg_counts = np.zeros(n_segs, dtype=np.int64)

        chunk = max(seg_odds, _BUILD_CHUNK_ODDS)
        for o_lo in range(0, n_odds, chunk):
            o_hi = min(o_lo + chunk, n_odds)
            size = o_hi - o_lo
            arr = np.ones(size, dtype=bool)
            if o_lo == 0:
                arr[0] = False  # the number 1
            lo_num = 2 * o_lo + 1
            for p in base:
                start = max(p * p, ((lo_num + p - 1) // p) * p)
                if start % 2 == 0:
                    start += p
                i0 = (start - 1) // 2 - o_lo
                if i0 < size:
                    arr[i0::p] = False
            # trailing odd slots beyond n_odds never exist: o_hi clips them
            pad = (-size) % 8
            if pad:
                arr = np.concatenate([arr, np.zeros(pad, dtype=bool)])
            bits[o_lo // 8 : o_lo // 8 + len(arr) // 8] = np.packbits(
                arr, bitorder="little"
            )
            # per-segment counts inside this chunk
            first_seg = o_lo // seg_odds
            edges = np.arange(0, size, seg_odds)
            sums = np.add.reduceat(arr[:size].astype(np.int64), edges)
            seg_counts[first_seg : first_seg + len(sums)] += sums

        # checkpoint_counts[s] = pi(end of segment s); the final entry is
        # pi(limit).  The +1 is the prime 2, which lives outside the odd bits.
        self._bits = bits
        self.checkpoint_counts = 1 + np.cumsum(seg_counts)
        self._n_odds = n_odds
        self._n_segs = n_segs

    # -- point queries -----------------------------------------------------

    def _check_range(self, x: float, what: str = "argument") -> None:
        if x < 0 or x > self.limit:
            raise TableLimitError(
                f"{what} {x} outside table range [0, {self.limit}]",
                required=int(math.ceil(x)),
            )

    def is_prime(self, x: int) -> bool:
        x = int(x)
        self._check_range(x)
        if x < 2:
            return False
        if x == 2:
            return True
        if x % 2 == 0:
            return False
        i = (x - 1) // 2
        return bool((self._bits[i >> 3] >> (i & 7)) & 1)

    def pi(self, x: float) -> int:
        """Number of primes <= x (real x allowed; counts primes <= floor(x))."""
        self._check_range(x)
        xi = math.floor(x)
        if xi < 2:
            return 0
        if xi == 2:
            return 1
        i = (xi - 1) // 2  # index of the largest odd number <= xi
        s = i // self._seg_odds
        base = int(self.checkpoint_counts[s - 1]) if s > 0 else 1
        b0 = (s * self._seg_odds) >> 3
        b1 = i >> 3
        count = int(np.bitwise_count(self._bits[b0:b1]).sum(dtype=np.int64))
        mask = (1 << ((i & 7) + 1)) - 1
        count += int(self._bits[b1] & mask).bit_count()
        return base + count

    def pi_bulk(self, xs) -> np.ndarray:
        """pi at many points; duplicates are answered once."""
        xs = np.asarray(xs)
        uniq, inv = np.unique(xs, return_inverse=True)
        vals = np.fromiter(
            (self.pi(float(u)) for u in uniq), dtype=np.int64, count=len(uniq)
        )
        return vals[inv].reshape(xs.shape)

    def nth_prime(self, t: int) -> int:
        t = int(t)
        total = int(self.checkpoint_counts[-1])
        if not 1 <= t <= total:
            raise ValueError(f"t must be in [1, pi(limit)] = [1, {total}], got {t}")
        if t == 1:
            return 2
        s = int(np.searchsorted(self.checkpoint_counts, t, side="left"))
        before = int(self.checkpoint_counts[s - 1]) if s > 0 else 1
        rank = t - before  # rank among odd primes of segment s, 1-based
        odd = self._segment_odd_indices(s)
        return int(2 * odd[rank - 1] + 1)

    # -- enumeration -------------------------------------------------------

    def _segment_odd_indices(self, s: int) -> np.ndarray:
        """Global odd indices of primes in segment s."""
        o_lo = s * self._seg_odds
        o_hi = min(o_lo + self._seg_odds, self._n_odds)
        raw = np.unpackbits(
            self._bits[o_lo >> 3 : (o_hi + 7) >> 3], bitorder="little"
        )[: o_hi - o_lo]
        return np.flatnonzero(raw) + o_lo

    def iter_prime_segments(self, a: int, b: int) -> Iterator[np.ndarray]:
        """Yield primes in [a, b] as one int64 array per overlapped segment."""
        a = max(int(a), 2)
        b = int(b)
        self._check_range(b, "upper bound")
        if b < a:
            return
        if a <= 2:
            yield np.array([2], dtype=np.int64)
        s0 = ((a - 1) // 2) // self._seg_odds
        s1 = ((b - 1) // 2) // self._seg_odds
        for s in range(s0, s1 + 1):
            nums = 2 * self._segment_odd_indices(s) + 1
            if s == s0:
                nums = nums[nums >= a]
            if s == s1:
                nums = nums[nums <= b]
            if len(nums):
                yield nums

    def primes_in(self, a: int, b: int) -> np.ndarray:
        """All primes in [a, b], ascending, as an int64 array."""
        parts = list(self.iter_prime_segments(a, b))
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def prev_prime(self, x: int) -> int:
        """Largest prime <= x; raises if there is none."""
        n = self.pi(x)
        if n == 0:
            raise ValueError(f"no prime <= {x}")
        return self.nth_prime(n)

    def prime_list(self, bound: int) -> list[int]:
        """Primes <= bound as a plain list; cached and grown on demand.

        Serves the hot inner loops (interval sieving) that call for the same
        small prefix of the primes over and over.
        """
        self._check_range(bound, "prime list bound")
        if self._plist_bound < bound:
            # grow generously to amortize repeated slightly-larger requests
            grow = min(self.limit, max(2 * bound, 1 << 16))
            self._plist = self.primes_in(2, grow).tolist()
            self._plist_bound = grow
        return self._plist[: bisect.bisect_right(self._plist, bound)]

    # -- Chebyshev theta ---------------------------------------------------

    def _ensure_theta(self) -> None:
        if self._theta_cum is not None:
            return
        cum = np.empty(self._n_segs, dtype=np.float64)
        total, comp = 0.0, 0.0  # Kahan across segments
        for s in range(self._n_segs):
            nums = 2.0 * self._segment_odd_indices(s) + 1.0
            part = float(np.log(nums).sum())
            if s == 0:
                part += math.log(2.0)
            y = part - comp
            t = total + y
            comp = (t - total) - y
            total = t
            cum[s] = total
        self._theta_cum = cum

    def theta(self, x: float) -> float:
        """Chebyshev theta(x) = sum of log p over primes p <= x."""
        self._check_range(x)
        xi = math.floor(x)
        if xi < 2:
            return 0.0
        self._ensure_theta()
        i = (xi - 1) // 2
        s = i // self._seg_odds
        base = float(self._theta_cum[s - 1]) if s > 0 else 0.0
        nums = 2.0 * self._segment_odd_indices(s) + 1.0
        part = float(np.log(nums[nums <= xi]).sum())
        if s == 0:
            part += math.log(2.0)
        return base + part


def build_table(limit: int, segment_size: int = DEFAULT_SEGMENT_SIZE) -> PrimeTable:
    """Build a :class:`PrimeTable` answering queries up to ``limit`` exactly."""
    return PrimeTable(limit, segment_size)


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

    @property
    def violates(self) -> bool:
        return self.gap >= self.cramer_bound


@dataclass(frozen=True)
class GapScanSummary:
    limit: int
    pairs: int
    violations: tuple[GapRecord, ...]
    max_gap: int
    max_gap_p: int


def gap_check(limit: int, table: PrimeTable, lo: int = 2) -> GapScanSummary:
    """Gap scan over the pairs whose second prime lies in (lo, limit];
    collects only the (expected empty) violations."""
    if limit > table.limit:
        raise TableLimitError(
            f"gap scan to {limit} exceeds table limit {table.limit}", required=limit
        )
    lo = max(int(lo), 2)
    # pairs close at primes > lo, so enumeration opens at the prime <= lo
    ps = table.primes_in(table.prev_prime(lo), limit) if limit > lo else []
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


def check_dusart(limit: int, table: PrimeTable) -> DusartReport:
    """Check pi(x) < (x/log x)(1 + 1.2762/log x) at every integer x in (1, limit]
    and theta(x) <= 1.00008 x for all real x in (0, limit].

    theta is a step function jumping only at primes while the right side
    increases, so the second inequality holds on all of (0, limit] iff it
    holds at every prime <= limit; the scan checks exactly those points.
    """
    if limit > table.limit:
        raise TableLimitError(
            f"dusart check to {limit} exceeds table limit {table.limit}",
            required=limit,
        )
    pi_bad: list[int] = []
    pi_slack = math.inf
    th_bad: list[int] = []
    th_slack = math.inf
    pi_checked = 0
    th_checked = 0

    pi_base = 0
    theta_base = 0.0
    block = 1 << 20
    for lo in range(2, limit + 1, block):
        hi = min(lo + block - 1, limit)
        xs = np.arange(lo, hi + 1, dtype=np.int64)
        isp = np.zeros(len(xs), dtype=np.int64)
        for seg in table.iter_prime_segments(lo, hi):
            isp[seg - lo] = 1
        pis = pi_base + np.cumsum(isp)
        pi_base = int(pis[-1])
        logs = np.log(xs.astype(np.float64))
        bound = xs / logs * (1.0 + 1.2762 / logs)
        slack = bound - pis
        pi_checked += len(xs)
        m = float(slack.min())
        if m < pi_slack:
            pi_slack = m
        for i in np.flatnonzero(pis >= bound):
            pi_bad.append(int(xs[i]))

        pr = np.flatnonzero(isp)
        if len(pr):
            pvals = xs[pr].astype(np.float64)
            thetas = theta_base + np.cumsum(np.log(pvals))
            theta_base = float(thetas[-1])
            tslack = 1.00008 * pvals - thetas
            th_checked += len(pr)
            m = float(tslack.min())
            if m < th_slack:
                th_slack = m
            for i in np.flatnonzero(tslack < 0):
                th_bad.append(int(pvals[i]))

    return DusartReport(
        limit=limit,
        pi_points_checked=pi_checked,
        pi_violations=tuple(pi_bad),
        pi_min_slack=pi_slack,
        theta_primes_checked=th_checked,
        theta_violations=tuple(th_bad),
        theta_min_slack=th_slack,
    )


def check_stirling_factorial(k_max: int = 1000) -> list[int]:
    """k where k! > sqrt(2 pi k) e^{-k} k^k e^{1/(12k+1)} fails on 2..k_max.

    Uses log-gamma on both sides; the slack is orders of magnitude above
    double-precision noise for every k >= 2, so an empty list is meaningful.
    """
    bad = []
    for k in range(2, k_max + 1):
        lhs = math.lgamma(k + 1)
        rhs = (
            0.5 * math.log(2 * math.pi * k)
            - k
            + k * math.log(k)
            + 1.0 / (12 * k + 1)
        )
        if not lhs > rhs:
            bad.append(k)
    return bad
