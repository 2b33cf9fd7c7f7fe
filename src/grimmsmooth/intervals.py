"""Prime data for a window of consecutive integers.

For a window lo, ..., hi the rows of :func:`prime_rows` (the distinct
primes of each element) are the adjacency structure of the bipartite graph
"element <-> primes dividing it" that the matching decision consumes;
:func:`lpf_range` gives each element's largest prime factor alone, and
:func:`_bound_smooth` flags the elements whose prime factors all lie at or
below a bound, the test every smooth count reads.

The method is one prime-power sieve (:func:`_sieve`) that splits the
sieving primes by how often they hit the block of ``count`` values.  A dense
prime p <= count // ``_DENSE_HITS`` gets strided views: for every power
q = p^j with a multiple in the block it multiplies ``smooth[(-lo) % q :: q]``
by p, so each element picks up its p-part, and it stores ``p`` into
``lpf[(-lo) % p :: p]`` in ascending p, so the largest dividing prime is the
one left standing.
A sparse prime hits at most about ``_DENSE_HITS`` elements, where a numpy
call per prime and per power would cost more than it sieves, so all sparse
primes share one hit list of (row, prime) pairs built with ``np.repeat``
arithmetic (:func:`_hits`).  It feeds one ``np.maximum.at`` for the lpf
stores (every sparse prime exceeds every dense one) and
``np.multiply.at`` on ``smooth``, repeated on the hits whose cofactor is
still divisible, one pass per power.  A block with no sparse prime takes
the strided views alone, as every full 2^20-value block of psi with
y <= 23,301 does, and then the narrowest integer types that hold ``smooth``
and ``lpf``.  One integer division ``values // smooth`` leaves the residual
cofactor; :func:`smooth_lpf` and :func:`_bound_smooth` need none, since a
value is smooth over the sieving primes exactly when ``smooth`` equals it.
That is how verify finds the elements that can share a largest prime factor
in a run (it sieves each 2^21-value block with the primes below the block's
longest run only, and :func:`smooth_lpf` walks the block in pieces of
``_PIECE`` values, each sieved on its own so that the sieve's arrays stay in
cache), and how ``smooth.psi_window`` (psi's blocks when y < sqrt(x) and
the short windows alike) and the exceptional scan count the y-smooth values
of a range, whatever its size: a bound above sqrt(hi) only sends more
primes to the hit list.  For :func:`prime_rows` and :func:`lpf_range` the
bound is sqrt(hi), and a residual r > 1 is then necessarily prime (it has
no factor <= sqrt(hi) left) and is the element's largest prime factor.
Multiplicities are deliberately discarded -- only the set of distinct
primes per element is kept.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .primes import PrimeTable


# A prime p > count // _DENSE_HITS hits a block of count values at most
# about _DENSE_HITS times; such sparse primes share one hit list.  Measured
# per-call times fall as this grows to about 64; 45 is the largest value
# that keeps every prime to sqrt(2^31) dense in a 2^21-value block.
_DENSE_HITS = 45


def _n_dense(count: int, primes: np.ndarray) -> int:
    """How many of the ascending ``primes`` sieve a block of ``count`` values
    with strided views: those p <= count // _DENSE_HITS."""
    return int(np.searchsorted(primes, count // _DENSE_HITS, side="right"))


# Primes filtered per slice in _hits: bounds its remainder temporary at
# 512 KiB however many primes the window sieves with.
_HIT_SLICE = 1 << 16


def _hits(lo: int, count: int, primes: np.ndarray):
    """``(rows, ps)``: every multiple lo+rows[t] of ps[t] in the block of
    ``count`` values from lo, for each of ``primes``, grouped by prime in the
    given order and ascending within a prime."""
    # primes with no multiple in the block drop out first, one slice of
    # ``primes`` at a time, so every temporary has the size of a slice or of
    # the hit list, not of ``primes``
    kept = []
    for s in range(0, max(len(primes), 1), _HIT_SLICE):
        part = primes[s : s + _HIT_SLICE]
        first = -lo % part
        hit = first < count
        kept.append((part[hit], first[hit]))
    ps, first = kept[0] if len(kept) == 1 else map(np.concatenate, zip(*kept))
    nhit = (count - 1 - first) // ps + 1
    start = np.cumsum(nhit) - nhit
    rep = np.repeat(ps, nhit)
    rows = np.repeat(first - start * ps, nhit) + np.arange(len(rep)) * rep
    return rows, rep


def _sieve(lo: int, hi: int, primes: np.ndarray, with_lpf: bool = False):
    """Prime-power sieve of the values lo..hi (lo >= 1) by ``primes``
    (ascending).

    Returns ``(smooth, lpf)``: ``smooth[i]`` is the product of the full
    powers of ``primes`` dividing lo+i, so lo+i is smooth over ``primes``
    exactly when ``smooth[i]`` equals it.  With ``with_lpf``, ``lpf[i]`` is
    the largest of ``primes`` dividing lo+i (1 if none); otherwise ``lpf``
    is None and the smooth counts skip those stores.
    """
    count = hi - lo + 1
    dense = _n_dense(count, primes)
    # the strided passes over a block are bound by its memory traffic, so
    # when every prime takes them the arrays get the narrowest type that
    # holds them: smooth[i] divides lo+i, and lpf[i] is one of ``primes``;
    # the hit list is int64, and ufunc.at is fast only on arrays of its type
    smooth_type = lpf_type = np.int64
    if dense == len(primes) and hi < 2**31:
        smooth_type = np.int32
        lpf_type = np.min_scalar_type(int(primes[-1]) if dense else 1)
    smooth = np.ones(count, dtype=smooth_type)
    lpf = np.ones(count, dtype=lpf_type) if with_lpf else None
    for p in primes[:dense].tolist():
        if with_lpf:
            lpf[-lo % p :: p] = p  # ascending p: the largest divisor stays
        # no multiple of q in the block means none of q p: a power past hi
        # has none, and in a short block the loop stops well before hi
        q = p
        while (first := -lo % q) < count:
            smooth[first::q] *= p
            q *= p
    if dense < len(primes):
        rows, ps = _hits(lo, count, primes[dense:])
        if with_lpf:
            np.maximum.at(lpf, rows, ps)  # every sparse p exceeds every dense one
        cof = (lo + rows) // ps
        while len(rows):  # one pass per power: p, p^2, p^3, ...
            np.multiply.at(smooth, rows, ps)
            more = cof % ps == 0
            rows, ps, cof = rows[more], ps[more], cof[more]
            cof //= ps
    return smooth, lpf


def _residuals(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """lo..hi with every prime of ``primes`` divided out to full multiplicity."""
    return np.arange(lo, hi + 1, dtype=np.int64) // _sieve(lo, hi, primes)[0]


def prime_rows(lo: int, hi: int, table: PrimeTable) -> list[list[int]]:
    """Distinct primes of each value lo..hi (lo >= 1), each row ascending.

    The hits of every sieving prime p <= sqrt(hi) come grouped by ascending
    p, so appending them in order keeps the rows sorted; a residual above 1
    after the sieve is the one prime above sqrt(hi) and goes last.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    primes = table.primes_to(isqrt(hi))
    rows: list[list[int]] = [[] for _ in range(hi - lo + 1)]
    for i, p in zip(*(a.tolist() for a in _hits(lo, len(rows), primes))):
        rows[i].append(p)
    residual = _residuals(lo, hi, primes)
    big = np.flatnonzero(residual > 1)
    for i, r in zip(big.tolist(), residual[big].tolist()):
        rows[i].append(r)
    return rows


def lpf_range(lo: int, hi: int, table: PrimeTable) -> np.ndarray:
    """Largest prime factor of each value lo..hi (1 for the unit)."""
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    smooth, lpf = _sieve(lo, hi, table.primes_to(isqrt(hi)), with_lpf=True)
    residual = np.arange(lo, hi + 1, dtype=np.int64) // smooth
    lpf = lpf.astype(np.int64, copy=False)
    # a residual above 1 is the one prime factor above sqrt(hi)
    np.copyto(lpf, residual, where=residual > 1)
    return lpf


def _bound_smooth(lo: int, hi: int, bound: int, table: PrimeTable, with_lpf: bool):
    """``(flags, lpf)``: whether each value lo..hi (lo >= 1) has all its
    prime factors at or below ``bound``, and ``_sieve``'s lpf.

    Only the primes <= bound sieve, whatever sqrt(hi) is, and a value is
    bound-smooth exactly when the product of its prime powers below the
    bound equals it, so the test divides nothing.
    """
    if lo < 1 or hi < lo:
        raise ValueError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    smooth, lpf = _sieve(lo, hi, table.primes_to(bound), with_lpf)
    return smooth == np.arange(lo, hi + 1, dtype=smooth.dtype), lpf


# smooth_lpf sieves its range this many values at a time below 2^31, and
# half as many from 2^31 on, where the sieve's arrays are int64: either way
# they stay in one core's L2 cache through the strided passes.  Timed per
# 2^21-value block, 2^17 beat 2^16 (more numpy calls per prime) and 2^18
# below 2^31, and 2^16 beat 2^17 past it.
_PIECE = 1 << 17


def smooth_lpf(lo: int, hi: int, bound: int, table: PrimeTable):
    """Yield ``(rows, lpf)`` for each piece of lo..hi (lo >= 1), in order:
    the rows i, ascending, of the values lo+i in the piece whose prime
    factors all lie at or below ``bound``, and the largest prime factor of
    each.

    A piece holds ``_PIECE`` values, or half as many from 2^31 on, and is
    sieved on its own, so no array spans the whole range.
    """
    start = lo
    while start <= hi:
        end = min(start + (_PIECE if start < 2**31 else _PIECE // 2) - 1, hi)
        flags, lpf = _bound_smooth(start, end, bound, table, with_lpf=True)
        rows = np.flatnonzero(flags)
        yield rows + (start - lo), lpf[rows]
        start = end + 1
