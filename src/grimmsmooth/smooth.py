"""Smooth-number counts, globally and in short windows, and what they imply
for g.

Psi(x, y) counts the positive integers <= x all of whose prime factors are
<= y (1 counts: the condition is vacuous).  The package has one count of
the y-smooth values in a range, :func:`psi_window`: the window count
Psi(x+z, y) - Psi(x, y) is computed directly on the window, ``_BLOCK``
values at a time, by one prime-power sieve with every prime up to
min(floor(y), x+z): an element is y-smooth exactly when the product of the
prime powers it picked up equals it (``intervals._bound_smooth``), on
either side of sqrt(x+z), and the unit is smooth for every y, y < 1
included, where no prime sieves at all.
(:func:`psi_window` needs a table to min(floor(y), x+z) only.  It reads
pi(y) off that table when floor(y) <= x+z, and counts it with
:func:`primes.prime_pi` otherwise, so its y is bounded by the pi table's
isqrt(y) <= 2^24, not by the 2^31 table limit.)

:func:`psi` splits the same two regimes at ``floor(y) >= isqrt(x)``, taken
between Python ints:

* in the prime regime every n <= x has at most one prime factor above y,
  so Psi(x, y) = floor(x) - sum over primes y < p <= x of floor(x/p), the
  first step of Buchstab's identity.  Grouped by k = floor(x/p), that sum
  needs pi only at the values x // k, which :func:`primes.pi_table` holds
  for all k at once: no prime above y is listed, and a call costs
  O(x^(3/4) / log x) for the table of x (0.05 s at x = 1e10), plus the
  smaller tables for pi(max(a, floor(y))) and, for a part (a, b] with
  b < x, for pi(b);
* in the sieve regime (floor(y) < isqrt(x)) the count is the window count
  of :func:`psi_window`, so each block is sieved with the primes <= y and
  nothing is divided.

:func:`psi_part` is the share of a range (a, b] of (0, x] in Psi(x, y): in
the prime regime (b - a) minus floor(x/p) for the primes p > y in (a, b],
in the sieve regime the y-smooth count of (a, b].  The shares of any
partition of (0, x] add up to Psi(x, y), and :func:`psi` is the share of
(0, x].  The CLI runs the sieve regime on fixed shards (a, a + 2^21] of
(0, x] in parallel and adds the shares in shard order, so x is limited only
by ``PSI_MAX_X`` = 2^62, the headroom of the int64 arrays, not by time.  It
runs the prime regime as one share of (0, x], with no pool; there the
pi table needs isqrt(x) <= 2^24 unless y >= x.

The payoff is the window criterion: if a window (x, x+z] holds more than
pi(y) many y-smooth numbers, those elements alone overwhelm the supply of
distinct primes <= y available to them (Hall's condition fails on the smooth
offsets), so (x, z) has no prime representation and g(x) < z.  That turns a
pure counting statement into a certified upper bound for g, independent of
the matching machinery -- and cheap enough to run at x far beyond where g
itself is computable.

:func:`exceptional_scan` measures, over sampled n <= X, how often the window
(n, n + n^eps] fails to contain c0 * n^eps many n^eps-smooth numbers; the
constants in the known almost-all results are not explicit, so the scan
reports empirical failure fractions rather than asserting any.  The window
length z = int(n^eps) changes only every so many n, so the scan takes the
sampled n of one z together: where their windows overlap (stride <= z) it
sieves the stretch they cover once, in blocks of at most ``_BLOCK`` values,
and reads every window's count off one prefix sum of the smooth flags;
disjoint windows (stride > z) are sieved one by one, never the gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from .dickman import build_rho_table, rho
from .intervals import _bound_smooth
from .primes import PrimeTable, TableLimitError, pi_table, prime_pi

# Largest x for psi: the sieve arrays hold the values themselves as int64.
PSI_MAX_X = 2**62

# Largest x + z for psi_window: the window sieve's int64 arrays hold the
# values of the window, and past it they wrap.
WINDOW_MAX_END = 2**63 - 1

# Failures an exceptional scan lists, and a merge of two scans keeps.
_MAX_REPORTED = 20

_BLOCK = 1 << 20


@dataclass(frozen=True)
class SmoothWindowReport:
    """Exact count of y-smooth integers in (x, x+z] plus the pi(y) comparison."""

    x: int
    z: int
    y: float
    count: int
    pi_y: int
    bound_established: bool  # count > pi_y
    smooth_head: int | None  # smallest smooth element found
    smooth_tail: int | None  # largest smooth element found


@dataclass(frozen=True)
class ExceptionalScanReport:
    """Empirical failure fraction of the short-window smoothness criterion."""

    x_max: int
    eps: float
    c0: float
    stride: int
    sampled: int
    degenerate: int  # n with n^eps < 2: empty window, skipped
    evaluated: int
    failures: int
    failure_fraction: float
    first_failures: tuple[int, ...]

    def merge(self, other: ExceptionalScanReport) -> ExceptionalScanReport:
        """The report of this scan's samples followed by ``other``'s, for
        the same eps, c0 and stride: counts add, the first failures join up
        to 20 and the failure fraction is recomputed."""
        if (self.eps, self.c0, self.stride) != (other.eps, other.c0, other.stride):
            raise ValueError("only scans with the same eps, c0 and stride merge")
        evaluated = self.evaluated + other.evaluated
        failures = self.failures + other.failures
        return replace(
            other, sampled=self.sampled + other.sampled,
            degenerate=self.degenerate + other.degenerate, evaluated=evaluated,
            failures=failures, failure_fraction=failures / evaluated if evaluated else 0.0,
            first_failures=(self.first_failures + other.first_failures)[:_MAX_REPORTED],
        )


def psi_table_limit(x: int, y: float) -> int | None:
    """The prime table :func:`psi_part` needs for Psi(x, y): floor(y) in the
    sieve regime, floor(y) < isqrt(x); None in the prime regime."""
    fy = math.floor(y)
    return fy if fy < isqrt(x) else None


def _prime_multiples(x: int, c: int, b: int) -> int:
    """The sum of floor(x/p) over the primes c < p <= b, for isqrt(x) <= c.

    Grouped by k = floor(x/p), it is
    (x//b)(pi(b) - pi(c)) + sum over x//b < k <= x//(c+1) of (pi(x//k) - pi(c)).
    Since c >= isqrt(x), every such k is <= isqrt(x), so each pi(x//k) is an
    entry of x's :func:`primes.pi_table`; so is pi(b) when b = x, and pi(c)
    and pi(b) for b < x come from their own tables.
    """
    if c >= b:
        return 0
    large = pi_table(x)[1]
    pi_b = int(large[1]) if b == x else prime_pi(b)
    pi_c = prime_pi(c)
    kb, kc = x // b, x // (c + 1)
    # pi(c) comes off each term first, so no partial sum exceeds the total
    return kb * (pi_b - pi_c) + int((large[kb + 1 : kc + 1] - pi_c).sum())


def psi_part(x: int, y: float, a: int, b: int, table: PrimeTable | None) -> int:
    """The share of (a, b] in Psi(x, y), for 0 <= a <= b <= x; the shares of
    any partition of (0, x] add up to Psi(x, y).

    In the prime regime, floor(y) >= isqrt(x), it is (b - a) minus
    floor(x/p) for every prime p in (max(a, floor(y)), b], counted from pi
    tables by :func:`_prime_multiples`; ``table`` is not read, and
    isqrt(x) must not exceed :data:`primes.PI_TABLE_MAX_ROOT` = 2^24 unless
    floor(y) >= b.  Otherwise it is the number of y-smooth n in (a, b],
    :func:`psi_window`'s count of the window (a, b], and the table must
    reach floor(y).
    """
    x, a, b = int(x), int(a), int(b)
    if not 0 <= a <= b <= x <= PSI_MAX_X:
        raise ValueError(f"need 0 <= a <= b <= x <= {PSI_MAX_X}, got a={a}, b={b}, x={x}")
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    bound = psi_table_limit(x, y)
    if bound is None:
        # p > floor(y) >= isqrt(x), so p^2 > x: no n <= x has two such p
        return b - a - _prime_multiples(x, max(a, math.floor(y)), b)
    if table is None or table.limit < bound:
        raise TableLimitError(
            f"psi(x={x}, y={y}) needs table limit >= {bound}, "
            f"have {table.limit if table else None}",
            required=bound,
        )
    return psi_window(a, b - a, y, table).count if b > a else 0


def psi(x: int, y: float, table: PrimeTable | None) -> int:
    """Psi(x, y), the y-smooth n in (0, x]: :func:`psi_part` of (0, x]."""
    return psi_part(x, y, 0, x, table)


def window_table_limit(x: int, z: int, y: float) -> int:
    """The prime table :func:`psi_window` needs for (x, x+z] and y: the
    window sieves with the primes up to min(floor(y), x+z) only."""
    return max(2, min(math.floor(y), x + z))


def psi_window(x: int, z: int, y: float, table: PrimeTable) -> SmoothWindowReport:
    """Exact count of y-smooth integers in (x, x+z], with certificate ends.

    pi(y) is read off ``table`` when it reaches floor(y), as it does
    whenever floor(y) <= x + z; otherwise it comes from
    :func:`primes.prime_pi`, so isqrt(floor(y)) must not exceed
    :data:`primes.PI_TABLE_MAX_ROOT` = 2^24.  The window must end at or
    below ``WINDOW_MAX_END`` = 2^63 - 1.
    """
    x, z = int(x), int(z)
    if x < 0 or z < 1:
        raise ValueError(f"need x >= 0 and z >= 1, got x={x}, z={z}")
    if x + z > WINDOW_MAX_END:
        raise ValueError(f"need x + z <= 2^63 - 1, got x={x}, z={z}")
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    required = window_table_limit(x, z, y)
    if table.limit < required:
        raise TableLimitError(
            f"psi_window(x={x}, z={z}, y={y}) needs table limit >= {required}, "
            f"have {table.limit}",
            required=required,
        )
    fy = math.floor(y)
    pi_y = table.pi(fy) if fy <= table.limit else prime_pi(fy)
    count = 0
    head = tail = None
    bound = min(fy, x + z)
    for lo in range(x + 1, x + z + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, x + z)
        # a block is sieved whole: psi sieves with every prime up to y (168
        # at y = 1000), and in intervals._PIECE-value pieces the numpy calls
        # per prime and piece cost more than the cache saved (psi(1e8, 1000)
        # took 1.02-1.11 s in pieces against 0.94-1.06 s whole)
        flags = _bound_smooth(lo, hi, bound, table, False)[0]
        # the ends come from argmax on the flags and on their reverse, so no
        # index array is built
        if n := int(np.count_nonzero(flags)):
            count += n
            if head is None:
                head = lo + int(np.argmax(flags))
            tail = hi - int(np.argmax(flags[::-1]))
    return SmoothWindowReport(
        x=x, z=z, y=float(y), count=count, pi_y=pi_y,
        bound_established=count > pi_y, smooth_head=head, smooth_tail=tail,
    )


def grimm_upper_bound(
    x: int, y: float, z: int, table: PrimeTable
) -> SmoothWindowReport | None:
    """g(x) < z, certified, when (x, x+z] holds more than pi(y) smooth numbers.

    The window then contains count > pi(y) offsets whose every prime factor
    is <= y; any distinct-prime assignment would need that many distinct
    primes <= y, which do not exist.  Returns the overfull window's report,
    whose ``z`` is the bound and whose ``smooth_head`` and ``smooth_tail``
    are its extreme smooth elements, or None when the criterion is not met
    (which does not decide anything).
    """
    report = psi_window(x, z, y, table)
    return report if report.bound_established else None


def scan_c0(eps: float, stride: int, c0: float | None) -> float:
    """Validate the :func:`exceptional_scan` parameters and return c0.

    Default c0 is rho(1/eps) / 2: half the limiting density of the window
    count, a scale-free stand-in for the inexplicit constant of the
    almost-all theorems.
    """
    if not 0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if c0 is None:
        t = 1.0 / eps
        c0 = rho(t, build_rho_table(t_max=math.ceil(t) + 1)) / 2.0
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    return c0


def exceptional_scan(
    x_max: int,
    eps: float,
    table: PrimeTable,
    c0: float | None = None,
    stride: int = 1,
    max_reported: int = _MAX_REPORTED,
    start: int = 1,
) -> ExceptionalScanReport:
    """Fraction of sampled n = start, start + stride, ... <= x_max failing
    Psi(n + n^eps, n^eps) - Psi(n, n^eps) >= c0 * n^eps.

    c0 defaults as in :func:`scan_c0`.  n with n^eps < 2 yield empty windows
    and are counted as degenerate rather than failures.  The windows are
    counted by :func:`_window_counts`, which sieves each run of equal-length
    windows once; the threshold n^eps is the Python float ``n**eps`` of
    every sampled n, so neither the counts nor the failures depend on how
    the runs are cut.  ``start`` must be >= 1.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    c0 = scan_c0(eps, stride, c0)
    samples = range(start, x_max + 1, stride)
    degenerate = failures = 0
    first_failures: list[int] = []
    for s in range(0, len(samples), _BLOCK):
        part = samples[s : s + _BLOCK]
        ne = np.fromiter((n**eps for n in part), dtype=np.float64, count=len(part))
        live = ne >= 2.0
        degenerate += len(part) - int(live.sum())
        ns = np.arange(part.start, part.stop, stride, dtype=np.int64)[live]
        ne = ne[live]
        counts = _window_counts(ns, ne.astype(np.int64), stride, table)
        failed = ns[counts < c0 * ne]
        failures += len(failed)
        room = max(0, max_reported - len(first_failures))
        first_failures.extend(failed[:room].tolist())
    evaluated = len(samples) - degenerate
    return ExceptionalScanReport(
        x_max=x_max, eps=eps, c0=float(c0), stride=stride, sampled=len(samples),
        degenerate=degenerate, evaluated=evaluated, failures=failures,
        failure_fraction=failures / evaluated if evaluated else 0.0,
        first_failures=tuple(first_failures),
    )


def _window_counts(
    ns: np.ndarray, z: np.ndarray, stride: int, table: PrimeTable
) -> np.ndarray:
    """Number of z-smooth values in each window (n, n + z], for ascending n.

    Each stretch is sieved with the primes <= z, and an element is z-smooth
    when the product of its prime powers up to z equals it.  Consecutive n
    sharing a z form a run; when stride <= z the run's windows overlap or
    abut, so one ``_bound_smooth`` call covers up to ``_BLOCK``
    values of it and every window is a difference of one prefix sum.  When
    stride > z the windows are disjoint and each is sieved alone, so the
    gaps between them are never touched.
    """
    counts = np.empty(len(ns), dtype=np.int64)
    cuts = [0, *(np.flatnonzero(np.diff(z)) + 1).tolist(), len(ns)]
    for a, b in zip(cuts[:-1], cuts[1:]):
        i = a
        while i < b:
            n, w = int(ns[i]), int(z[i])
            j = i + 1
            if stride <= w:  # overlapping or abutting windows share one sieve
                j = max(j, a + int(np.searchsorted(ns[a:b], n + _BLOCK - w, "right")))
            smooth = _bound_smooth(n + 1, int(ns[j - 1]) + w, w, table, False)[0]
            if j == i + 1:  # a lone window: a prefix sum costs more than it saves
                counts[i] = np.count_nonzero(smooth)
            else:
                cs = np.zeros(len(smooth) + 1, dtype=np.int64)
                np.cumsum(smooth, out=cs[1:])
                off = ns[i:j] - n
                counts[i:j] = cs[off + w] - cs[off]
            i = j
    return counts
