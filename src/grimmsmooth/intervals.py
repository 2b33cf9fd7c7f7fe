"""Distinct-prime factor data for a window of consecutive integers.

For a window n+1, ..., n+k the factorization is the adjacency structure of
the bipartite graph "window offset <-> primes dividing it", which is what
both the matching decision (does the window admit distinct prime
representatives?) and the smoothness counts consume.

The method is one prime-power sieve (:func:`_sieve`) that splits the
sieving primes by how often they hit the block of ``count`` values.  A dense
prime p <= count // ``_DENSE_HITS`` gets strided views: for every power
q = p^j <= hi it multiplies ``smooth[(-lo) % q :: q]`` by p, so each element
picks up its p-part, and it stores ``p`` into ``lpf[(-lo) % p :: p]`` in
ascending p, so the largest dividing prime is the one left standing; one
integer division ``values // smooth`` then leaves the residual cofactor.
A sparse prime hits at most about ``_DENSE_HITS`` elements, where a numpy
call per prime and per power would cost more than it sieves, so all sparse
primes share one hit list of (row, prime) pairs built with ``np.repeat``
arithmetic (:func:`_hits`).  It feeds one ``np.maximum.at`` for the lpf
stores (every sparse prime exceeds every dense one) and
``np.floor_divide.at`` on the residual, repeated on the hits whose residual
is still divisible, one pass per power.  :func:`_factor_block` builds its
CSR rows from the same split.  A block with no sparse prime takes the
strided views alone, as every full block of psi (2^20 values, primes to
1e4) and of verify (2^21 values below 2^31) does.
When the bound reaches sqrt(hi), a residual r > 1 is necessarily prime (it
has no factor <= sqrt(hi) left) and is the element's largest prime factor.
Multiplicities are deliberately discarded -- only the set of distinct
primes per element is kept.  Windows of at most ``_SMALL_BLOCK``
(factoring) or ``_SMALL_WINDOW`` (residuals) elements take plain Python
loops instead, which beat the numpy calls there.

Rows are stored CSR-style (``offsets`` into one flat int64 array) so that a
window of a million elements stays a handful of numpy arrays, and a run of
consecutive windows can be factored once as a block and sliced.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .primes import PrimeTable, TableLimitError

# Longest window factor_interval accepts in one call.
MAX_WINDOW = 10**6


@dataclass(frozen=True)
class IntervalFactorization:
    """Distinct prime divisors for each element of the window n+1 .. n+k.

    ``offsets``/``primes_flat`` form a CSR matrix whose row i-1 (0-based)
    lists the distinct primes of n+i in increasing order.
    """

    n: int
    k: int
    offsets: np.ndarray  # int64, length k+1
    primes_flat: np.ndarray  # int64, concatenated ascending rows
    largest_prime_factor: np.ndarray  # int64, length k; lpf(n+i) (1 for the unit)

    def prime_set(self, offset: int) -> np.ndarray:
        """Distinct primes dividing n+offset (offset is 1-based)."""
        if not 1 <= offset <= self.k:
            raise ValueError(f"offset must be in [1, {self.k}], got {offset}")
        return self.primes_flat[self.offsets[offset - 1] : self.offsets[offset]]

    @property
    def prime_sets(self) -> list[list[int]]:
        """All rows as plain Python lists (materializes the whole window)."""
        flat = self.primes_flat.tolist()
        offs = self.offsets.tolist()
        return [flat[offs[i] : offs[i + 1]] for i in range(self.k)]


def _sieving_primes(table: PrimeTable, hi: int) -> list[int]:
    root = isqrt(hi)
    if table.limit < root:
        raise TableLimitError(
            f"factoring up to {hi} needs primes to {root}, "
            f"table limit is {table.limit}",
            required=root,
        )
    return table.prime_list(root) if root >= 2 else []


# Below this many elements, plain Python loops beat numpy call overhead.
_SMALL_BLOCK = 512

# A prime p > count // _DENSE_HITS hits a block of count values at most
# about _DENSE_HITS times; such sparse primes share one hit list.  Measured
# per-call times fall as this grows to about 64; 45 is the largest value
# that keeps every prime to sqrt(2^31) dense in a 2^21-value block.
_DENSE_HITS = 45


def _factor_block_small(lo: int, hi: int, plist: list[int]):
    """Python-loop variant of :func:`_factor_block` for short windows."""
    count = hi - lo + 1
    rows: list[list[int]] = [[] for _ in range(count)]
    residual = list(range(lo, hi + 1))
    for p in plist:
        start = ((lo + p - 1) // p) * p
        for m in range(start, hi + 1, p):
            i = m - lo
            rows[i].append(p)
            v = residual[i]
            while v % p == 0:
                v //= p
            residual[i] = v
    for i, r in enumerate(residual):
        if r > 1:
            rows[i].append(r)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    flat = np.fromiter(
        (p for row in rows for p in row), dtype=np.int64, count=int(offsets[-1])
    )
    lpf = np.fromiter(
        (row[-1] if row else 1 for row in rows), dtype=np.int64, count=count
    )
    return offsets, flat, lpf


def _n_dense(count: int, primes: list[int]) -> int:
    """How many of the ascending ``primes`` sieve a block of ``count`` values
    with strided views: those p <= count // _DENSE_HITS."""
    return bisect_right(primes, count // _DENSE_HITS)


def _hits(lo: int, count: int, primes: list[int]):
    """``(rows, ps)``: every multiple lo+rows[t] of ps[t] in the block of
    ``count`` values from lo, for each of ``primes``, grouped by prime in the
    given order and ascending within a prime."""
    ps = np.array(primes, dtype=np.int64)
    first = -lo % ps
    nhit = (count - 1 - first) // ps + 1  # >= 0, since first < p
    start = np.cumsum(nhit) - nhit
    rep = np.repeat(ps, nhit)
    rows = np.repeat(first - start * ps, nhit) + np.arange(len(rep)) * rep
    return rows, rep


def _sieve(lo: int, hi: int, primes: list[int], with_lpf: bool = False):
    """Prime-power sieve of the values lo..hi (lo >= 1).

    Returns ``(residual, lpf, hits)``: ``residual[i]`` is lo+i with every
    prime of ``primes`` (ascending) divided out to full multiplicity.  With
    ``with_lpf``, which needs ``primes`` to be all primes <= sqrt(hi),
    ``lpf[i]`` is the largest prime factor of lo+i (1 for the unit);
    otherwise ``lpf`` is None and the smooth counts skip those stores.
    ``hits`` is the :func:`_hits` list of the sparse primes, or None when
    every prime is dense.
    """
    count = hi - lo + 1
    dense = _n_dense(count, primes)
    smooth = np.ones(count, dtype=np.int64)
    lpf = np.ones(count, dtype=np.int64) if with_lpf else None
    for p in primes[:dense]:
        if with_lpf:
            lpf[-lo % p :: p] = p  # ascending p: the largest divisor stays
        q = p
        while q <= hi:
            smooth[-lo % q :: q] *= p
            q *= p
    residual = np.arange(lo, hi + 1, dtype=np.int64) // smooth
    hits = None
    if dense < len(primes):
        hits = rows, ps = _hits(lo, count, primes[dense:])
        if with_lpf:
            np.maximum.at(lpf, rows, ps)  # every sparse p exceeds every dense one
        while len(rows):  # one pass per power: p, p^2, p^3, ...
            np.floor_divide.at(residual, rows, ps)
            more = residual[rows] % ps == 0
            rows, ps = rows[more], ps[more]
    if with_lpf:
        # a residual above 1 is the one prime factor above sqrt(hi)
        np.copyto(lpf, residual, where=residual > 1)
    return residual, lpf, hits


def _factor_block(lo: int, hi: int, plist: list[int]):
    """CSR (offsets, flat, lpf) of distinct primes for values lo..hi, lo >= 1."""
    count = hi - lo + 1
    if count <= _SMALL_BLOCK:
        return _factor_block_small(lo, hi, plist)
    residual, lpf, hits = _sieve(lo, hi, plist, with_lpf=True)
    dense = plist[: _n_dense(count, plist)]
    has_res = residual > 1
    nfac = has_res.astype(np.int64)
    for p in dense:
        nfac[-lo % p :: p] += 1
    if hits is not None:
        sparse_n = np.bincount(hits[0], minlength=count)
        nfac += sparse_n
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(nfac, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    fill = offsets[:-1].copy()
    for p in dense:
        row_fill = fill[-lo % p :: p]
        flat[row_fill] = p
        row_fill += 1
    if hits is not None:
        # a stable sort by row keeps each row's sparse primes ascending
        order = np.argsort(hits[0], kind="stable")
        by_row = hits[0][order]
        rank = np.arange(len(by_row)) - np.searchsorted(by_row, by_row)
        flat[fill[by_row] + rank] = hits[1][order]
        fill += sparse_n
    rows = np.flatnonzero(has_res)
    flat[fill[rows]] = residual[rows]
    return offsets, flat, lpf


def factor_range(lo: int, hi: int, table: PrimeTable):
    """Block form of :func:`factor_interval` on raw values lo..hi (lo >= 1).

    Returns ``(offsets, primes_flat, lpf)``; meant for drivers that factor a
    long stretch once and slice out many sub-windows.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    return _factor_block(lo, hi, _sieving_primes(table, hi))


def lpf_range(lo: int, hi: int, table: PrimeTable) -> np.ndarray:
    """Largest prime factor of each value lo..hi (1 for the unit), without
    the CSR rows of :func:`factor_range`."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    return _sieve(lo, hi, _sieving_primes(table, hi), with_lpf=True)[1]


def factor_interval(n: int, k: int, table: PrimeTable) -> IntervalFactorization:
    """Distinct-prime sets for the window n+1, ..., n+k."""
    n, k = int(n), int(k)
    if n < 1:
        raise ValueError(f"window base n must be >= 1, got {n}")
    if not 1 <= k <= MAX_WINDOW:
        raise ValueError(f"window length k must be in [1, {MAX_WINDOW}], got {k}")
    offsets, flat, lpf = factor_range(n + 1, n + k, table)
    return IntervalFactorization(
        n=n, k=k, offsets=offsets, primes_flat=flat, largest_prime_factor=lpf
    )


# ---------------------------------------------------------------------------
# residual-only window sieving (no CSR), for smooth counting
# ---------------------------------------------------------------------------

# Below this window size plain Python loops beat numpy call overhead.
_SMALL_WINDOW = 256


def window_residuals(lo: int, hi: int, prime_bound: int, table: PrimeTable):
    """Residual of each value in lo..hi after dividing out, to full
    multiplicity, every prime <= min(prime_bound, sqrt(hi)).

    Below sqrt(hi) the bound is the smoothness threshold itself: residual 1
    marks exactly the prime_bound-smooth elements, and any other residual
    exceeds prime_bound.  At or above sqrt(hi) the residual is 1 or the
    element's one prime factor above sqrt(hi).  Either way, an element is
    y-smooth for y = prime_bound iff its residual is <= y.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    bound = min(prime_bound, isqrt(hi))
    if table.limit < bound:
        raise TableLimitError(
            f"window sieve needs primes to {bound}, table limit is {table.limit}",
            required=bound,
        )
    ps = table.prime_list(bound) if bound >= 2 else []

    if hi - lo + 1 <= _SMALL_WINDOW:
        res = list(range(lo, hi + 1))
        for p in ps:
            start = ((lo + p - 1) // p) * p
            for m in range(start, hi + 1, p):
                i = m - lo
                v = res[i]
                while v % p == 0:
                    v //= p
                res[i] = v
        return np.asarray(res, dtype=np.int64)

    return _sieve(lo, hi, ps)[0]
