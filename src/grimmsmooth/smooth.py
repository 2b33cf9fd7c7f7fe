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

:func:`psi` counts Psi(x, y) globally without a sieve, by Buchstab's
recursion on the largest prime factor (the scheme of Hunter and Sorenson,
Math. Comp. 66, 1997):

    Psi(v, p) = 1 + sum over primes q <= min(p, v) of Psi(v // q, q).

A node m, y-smooth with largest prime p, is expanded until
(p + 1)^2 > v = x // m.  Then no n <= v has two prime factors above p, and
Psi(v, p) is the first step of Buchstab's identity, whose every pi value
is an entry of the one :func:`primes.pi_table` of x.  When floor(y) >=
isqrt(x), compared as Python ints, the root is such a leaf, at the cost
of the table of x and the smaller one of pi(y).  psi builds no prime
table, and needs isqrt(x) <= 2^24 unless y >= x.

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
from .primes import PrimeTable, TableLimitError, _pairs, _pi_at, pi_table, prime_pi

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


def psi(x: int, y: float) -> int:
    """Psi(x, y), the y-smooth n in (0, x], by Buchstab's recursion down to
    leaves read off x's :func:`primes.pi_table`.

    A node m, a product of primes <= y whose largest is p, stands for
    Psi(x // m, p).  It is a leaf, counted by :func:`_leaf_sum`, when
    (p + 1)^2 > x // m; otherwise it adds 1 for m itself and is expanded
    into its children m q, q <= p.  They come off a stack of chunks of
    :func:`primes._pairs`, so no temporary holds more than
    ``primes._PI_CHUNK`` children or (leaf, k) pairs.  The root m = 1 has
    p = floor(y), and is a leaf when floor(y) >= isqrt(x).  With
    floor(y) >= x the count is x and no table is built; otherwise isqrt(x)
    must not exceed :data:`primes.PI_TABLE_MAX_ROOT` = 2^24.
    """
    x = int(x)
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    fy = math.floor(y)
    if fy >= x:
        return x
    small, large = pi_table(x)
    if fy >= isqrt(x):
        # a leaf whose k <= x // (fy + 1) are <= isqrt(x): pi(x // k) is large[k];
        # pi(y) comes off each term first, so no partial sum exceeds the total
        return x - int((large[1 : x // (fy + 1) + 1] - prime_pi(fy)).sum())
    ps = np.flatnonzero(np.diff(small[: fy + 1])) + 1  # the primes <= y
    count = 1  # the root, n = 1

    def children(m: np.ndarray, c: np.ndarray):
        # the children m q, q among the first c primes, as (m q, pi(q) - 1)
        for i, j in _pairs(c):
            yield m[i] * ps[j], j

    stack = [children(np.ones(1, dtype=np.int64), np.array([len(ps)]))]
    while stack:
        if (chunk := next(stack[-1], None)) is None:
            stack.pop()
            continue
        m, j = chunk
        p = ps[j]
        leaf = (p + 1) ** 2 > x // m
        count += _leaf_sum(x, small, large, m[leaf], p[leaf], j[leaf] + 1)
        if len(m := m[~leaf]):
            count += len(m)
            stack.append(children(m, j[~leaf] + 1))
    return count


def _leaf_sum(
    x: int, small: np.ndarray, large: np.ndarray, m: np.ndarray, p: np.ndarray,
    pi_p: np.ndarray,
) -> int:
    """The sum of Psi(v, p), v = x // m, over the leaves (m, p), each with
    (p + 1)^2 > v and pi(p) = ``pi_p``.  No n <= v has two prime factors
    above p, so Psi(v, p) is v minus the primes q in (p, v] counted once
    for each k <= v // q: pi(x // (m k)) - pi(p) for every k <= v // (p + 1),
    off x's pi table."""
    v = x // m
    total = int(v.sum())
    for i, j in _pairs(v // (p + 1)):
        # pi(p) comes off each term first, so no partial sum exceeds the total
        total -= int((_pi_at(small, large, x, m[i] * (j + 1)) - pi_p[i]).sum())
    return total


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
            f"have {table.limit}"
        )
    fy = math.floor(y)
    pi_y = table.pi(fy) if fy <= table.limit else prime_pi(fy)
    count = 0
    head = tail = None
    bound = min(fy, x + z)
    for lo in range(x + 1, x + z + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, x + z)
        # a block is sieved whole: it sieves with every prime up to y (168
        # at y = 1000), and in verify's 2^17-value pieces the numpy calls
        # per prime and piece cost more than the cache saved (the window
        # (0, 1e8] at y = 1000 took 1.02-1.11 s in pieces against
        # 0.94-1.06 s whole)
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
    start: int = 1,
) -> ExceptionalScanReport:
    """Fraction of sampled n = start, start + stride, ... <= x_max failing
    Psi(n + n^eps, n^eps) - Psi(n, n^eps) >= c0 * n^eps.

    c0 defaults as in :func:`scan_c0`.  n with n^eps < 2 yield empty windows
    and are counted as degenerate rather than failures.  The windows are
    counted by :func:`_window_counts`, which sieves each run of equal-length
    windows once; the threshold n^eps is the Python float ``n**eps`` of
    every sampled n, so neither the counts nor the failures depend on how
    the runs are cut.  ``start`` must be >= 1.  The report lists the first
    ``_MAX_REPORTED`` = 20 failures.
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
        first_failures.extend(failed[: _MAX_REPORTED - len(first_failures)].tolist())
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
