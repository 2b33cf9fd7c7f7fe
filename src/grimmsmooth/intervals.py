"""Distinct-prime factor data for a window of consecutive integers.

For a window n+1, ..., n+k the factorization is the adjacency structure of
the bipartite graph "window offset <-> primes dividing it", which is what
both the matching decision (does the window admit distinct prime
representatives?) and the smoothness counts consume.

The method is one strided prime-power sieve (:func:`_sieve`).  For every
prime p up to the bound and every power q = p^j <= hi it multiplies the
strided view ``smooth[(-lo) % q :: q]`` of the block's smooth parts by p, so
each element ends up multiplied by p once per power of p dividing it: its
p-part.  One integer division ``values // smooth`` then leaves the residual
cofactor, with no gather/scatter of index arrays and no ``% p`` loop.  When
the bound reaches sqrt(hi), a residual r > 1 is necessarily prime (it has no
factor <= sqrt(hi) left) and is the element's largest prime factor; callers
that need the largest prime factor below the bound also store ``p`` into the
strided view ``lpf[(-lo) % p :: p]`` in ascending p, so the largest dividing
prime is the one left standing.  Multiplicities are deliberately discarded --
only the set of distinct primes per element is kept.  Windows of at most
``_SMALL_BLOCK`` (factoring) or ``_SMALL_WINDOW`` (residuals) elements take
plain Python loops instead, which beat the numpy calls there.

Rows are stored CSR-style (``offsets`` into one flat int64 array) so that a
window of a million elements stays a handful of numpy arrays, and a run of
consecutive windows can be factored once as a block and sliced.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from .primes import PrimeTable, TableLimitError

# Per-call window cap; longer scans must go through chunked drivers.
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


def _sieve(lo: int, hi: int, primes: list[int], with_lpf: bool = False):
    """Strided prime-power sieve of the values lo..hi (lo >= 1).

    Returns ``(residual, lpf)``: ``residual[i]`` is lo+i with every prime of
    ``primes`` divided out to full multiplicity.  With ``with_lpf``, which
    needs ``primes`` to be all primes <= sqrt(hi), ``lpf[i]`` is the largest
    prime factor of lo+i (1 for the unit); otherwise ``lpf`` is None and the
    smooth counts skip those stores.
    """
    count = hi - lo + 1
    smooth = np.ones(count, dtype=np.int64)
    lpf = np.ones(count, dtype=np.int64) if with_lpf else None
    for p in primes:
        if with_lpf:
            lpf[-lo % p :: p] = p  # ascending p: the largest divisor stays
        q = p
        while q <= hi:
            smooth[-lo % q :: q] *= p
            q *= p
    residual = np.arange(lo, hi + 1, dtype=np.int64) // smooth
    if with_lpf:
        # a residual above 1 is the one prime factor above sqrt(hi)
        np.copyto(lpf, residual, where=residual > 1)
    return residual, lpf


def _factor_block(lo: int, hi: int, plist: list[int]):
    """CSR (offsets, flat, lpf) of distinct primes for values lo..hi, lo >= 1."""
    count = hi - lo + 1
    if count <= _SMALL_BLOCK:
        return _factor_block_small(lo, hi, plist)
    residual, lpf = _sieve(lo, hi, plist, with_lpf=True)
    has_res = residual > 1
    nfac = has_res.astype(np.int64)
    for p in plist:
        nfac[-lo % p :: p] += 1
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(nfac, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    fill = offsets[:-1].copy()
    for p in plist:
        row_fill = fill[-lo % p :: p]
        flat[row_fill] = p
        row_fill += 1
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


def is_smooth(f: IntervalFactorization, offset: int, y: float) -> bool:
    """True iff every prime factor of n+offset is <= y."""
    if not 1 <= offset <= f.k:
        raise ValueError(f"offset must be in [1, {f.k}], got {offset}")
    return bool(f.largest_prime_factor[offset - 1] <= y)


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
