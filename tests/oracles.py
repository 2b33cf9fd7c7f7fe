"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive: trial division, a dense sieve,
exhaustive backtracking, direct recursion.  None of it shares code with the
package, except :func:`verify_grimm`, the full-matching reference for the
run verification, which lists its runs from its own sieve but decides every
run with the library's own matching, :func:`colliding_runs_full_lpf`,
which keys the largest prime factors the library's ``lpf_range`` gives,
and :func:`strided_sieve`, the window sieve without its wheel patterns,
which takes the library's hit list and dense/sparse split.
"""

from __future__ import annotations

from math import floor, gcd, isqrt
from typing import Iterator

import numpy as np

from grimmsmooth import (
    GrimmRunReport, PrimeTable, RepresentationResult, has_representation,
)
from grimmsmooth.intervals import _hits, _n_dense


def trial_primes(limit: int) -> list[int]:
    """All primes <= limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
    return out


def sieve_primes(limit: int) -> np.ndarray:
    """All primes <= limit by a plain dense sieve of Eratosthenes."""
    sieve = np.ones(max(limit + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def trial_factorization(n: int) -> dict[int, int]:
    """Full prime factorization {p: multiplicity} by trial division."""
    fac: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        fac[n] = fac.get(n, 0) + 1
    return fac


def distinct_primes(n: int) -> list[int]:
    return sorted(trial_factorization(n)) if n > 1 else []


def largest_prime_factor(n: int) -> int:
    return max(trial_factorization(n)) if n > 1 else 1


def sdr_exists(sets: list[list[int]]) -> bool:
    """Exhaustive backtracking for a system of distinct representatives.

    Fail-first ordering (smallest set next) keeps desk-scale windows fast;
    otherwise it is plain exhaustive search.
    """
    order = sorted(range(len(sets)), key=lambda i: len(sets[i]))
    used: set[int] = set()

    def place(pos: int) -> bool:
        if pos == len(order):
            return True
        for p in sets[order[pos]]:
            if p not in used:
                used.add(p)
                if place(pos + 1):
                    return True
                used.remove(p)
        return False

    return place(0)


def kuhn_recursive(rows: list[list[int]]) -> RepresentationResult:
    """The textbook recursive Kuhn matching of the offsets 1..len(rows) to
    the primes of their rows, the offsets and each row taken in the order
    given (ascending, for the canonical matching).

    Every offset matched gives the assignment.  Otherwise the first offset
    i + 1 that its search cannot match gives the Hall witness: i + 1 and
    the owners of every prime that search visited.
    """
    owner: dict[int, int] = {}

    def augment(u: int, visited: set[int]) -> bool:
        for p in rows[u]:
            if p not in visited:
                visited.add(p)
                if p not in owner or augment(owner[p], visited):
                    owner[p] = u
                    return True
        return False

    for i in range(len(rows)):
        visited: set[int] = set()
        if not augment(i, visited):
            witness = {i + 1} | {owner[p] + 1 for p in visited}
            return RepresentationResult(False, hall_witness=frozenset(witness))
    prime_of = {u: p for p, u in owner.items()}
    return RepresentationResult(True, assignment=tuple(prime_of[u] for u in range(len(rows))))


def g_exhaustive(n: int, k_cap: int = 10_000) -> int:
    """g(n) by running the SDR backtracking at every k until it fails."""
    sets: list[list[int]] = []
    k = 0
    while k < k_cap:
        sets.append(distinct_primes(n + k + 1))
        if not sdr_exists(sets):
            return k
        k += 1
    raise RuntimeError(f"g_exhaustive({n}) exceeded cap {k_cap}")


def g1_prefix_union(n: int, k_cap: int = 10_000) -> int:
    """g1(n) by directly accumulating the union of prime sets."""
    seen: set[int] = set()
    l = 1
    while l < k_cap:
        seen.update(distinct_primes(n + l))
        if len(seen) < l:
            return l - 1
        l += 1
    raise RuntimeError(f"g1_prefix_union({n}) exceeded cap {k_cap}")


def verify_grimm(limit: int, table: PrimeTable) -> Iterator[GrimmRunReport]:
    """One report per composite run p+1 .. q-1 between consecutive primes
    p < q <= limit, in increasing p, each decided by ``has_representation``.

    ``verify_grimm_summary`` matches only the runs whose largest prime
    factors collide; this decides every run, so it is the reference the
    summary's counts and failures are checked against.
    """
    ps = sieve_primes(limit).tolist()
    for p, q in zip(ps, ps[1:]):
        if q - p > 1:
            yield GrimmRunReport(p, q - p - 1, has_representation(p, q - p - 1, table))


def colliding_runs_full_lpf(ps: np.ndarray, blo: int, lpf: np.ndarray) -> np.ndarray:
    """Indices a into ``ps`` of the runs ps[a]+1 .. ps[a+1]-1 in which two
    elements share their largest prime factor, ascending, from the lpf of
    every value of the block blo .. blo + len(lpf) - 1.

    Every composite gets the key (run id, lpf), with the run id a cumulative
    count of the block's primes; equal neighbours in the sorted keys mark
    the colliding runs.
    """
    count = len(lpf)
    inner = ps[1:-1] - blo  # rows of the primes inside the block
    run_id = np.zeros(count, dtype=np.int64)
    run_id[inner] = 1
    np.cumsum(run_id, out=run_id)
    composite = np.ones(count, dtype=bool)
    composite[inner] = False
    # run_id < count < 2^22 (2^21 values plus one prime gap) and lpf <= bhi,
    # with blo + count = bhi + 1, so the key is below 2^22 * (bhi + 1) and
    # fits in int64 while bhi < 2^41
    keys = np.sort(run_id[composite] * (blo + count) + lpf[composite])
    dup = keys[1:][keys[1:] == keys[:-1]]
    return np.unique(dup // (blo + count))


def strided_sieve(lo: int, hi: int, primes: np.ndarray, with_lpf: bool = False):
    """``intervals._sieve`` as it was before the wheel patterns: every dense
    prime strides from its first power over arrays of ones, and the sparse
    primes take the package's hit list (``intervals._hits``) from the same
    split (``intervals._n_dense``), so the arrays and their dtypes are the
    ones ``_sieve`` must give.
    """
    count = hi - lo + 1
    dense = _n_dense(count, primes)
    smooth_type = lpf_type = np.int64
    if dense == len(primes) and hi < 2**31:
        smooth_type = np.int32
        lpf_type = np.min_scalar_type(int(primes[-1]) if dense else 1)
    smooth = np.ones(count, dtype=smooth_type)
    lpf = np.ones(count, dtype=lpf_type) if with_lpf else None
    for p in primes[:dense].tolist():
        if with_lpf:
            lpf[-lo % p :: p] = p
        q = p
        while (first := -lo % q) < count:
            smooth[first::q] *= p
            q *= p
    if dense < len(primes):
        rows, ps = _hits(lo, count, primes[dense:])
        if with_lpf:
            np.maximum.at(lpf, rows, ps)
        cof = (lo + rows) // ps
        while len(rows):
            np.multiply.at(smooth, rows, ps)
            more = cof % ps == 0
            rows, ps, cof = rows[more], ps[more], cof[more]
            cof //= ps
    return smooth, lpf


def smooth_count_direct(lo: int, hi: int, y: float) -> int:
    """Count y-smooth integers in [lo, hi] by factoring each element."""
    return sum(1 for v in range(lo, hi + 1) if largest_prime_factor(v) <= y)


def psi_buchstab(x: int, y: float, primes: list[int]) -> int:
    """Psi(x, y) via the recursion Psi(x, p_k) = Psi(x, p_{k-1}) + Psi(x/p_k, p_k).

    ``primes`` must contain all primes <= y (extras are ignored).
    """
    ps = [p for p in primes if p <= y]

    cache: dict[tuple[int, int], int] = {}

    def rec(x: int, k: int) -> int:
        if x < 1:
            return 0
        if k == 0:
            return 1
        key = (x, k)
        got = cache.get(key)
        if got is not None:
            return got
        p = ps[k - 1]
        if p >= x:
            val = int(x)
        else:
            val = rec(x, k - 1) + rec(x // p, k)
        cache[key] = val
        return val

    return rec(int(x), len(ps))


def psi_large_y(x: int, y: float) -> int:
    """Psi(x, y) for y >= sqrt(x), where every n <= x has at most one prime
    factor above y: floor(x) minus the multiples of each prime in (y, x]."""
    x = floor(x)
    if y * y < x:
        raise ValueError(f"need y >= sqrt(x), got x={x}, y={y}")
    ps = sieve_primes(x)
    ps = ps[ps > y]
    return x - int((x // ps).sum())


def ram_sum_double_loop(x: int, alpha: float, primes: list[int]) -> int:
    """S(x, alpha) by iterating j and counting primes in each scaled window.

    ``primes`` must reach x + x^alpha.
    """
    xa = x**alpha
    total = 0
    j = 1
    while j <= xa:
        lo, hi = x / j, (x + xa) / j
        total += sum(1 for p in primes if lo < p <= hi)
        j += 1
    return total


def prime_pi_array(limit: int) -> np.ndarray:
    """pi(v) for v = 0..limit, from a plain sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return np.cumsum(np.frombuffer(sieve, dtype=np.uint8), dtype=np.int64)


def pi_window_terms(x: int, w: int, j_max: int, pi: np.ndarray) -> np.ndarray:
    """Terms pi((x+w)//j) - pi(x//j) for j = 1..j_max, looked up in a
    ``pi`` array (:func:`prime_pi_array`) that reaches x + w."""
    js = np.arange(1, j_max + 1, dtype=np.int64)
    return pi[(x + w) // js] - pi[x // js]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PRODUCT = 7420738134810  # the product of _MR_BASES


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: exact below 3.1e23 with all twelve bases,
    below 3.4e14 with the first seven and below 2.1e12 with the first five
    (Jaeschke, Math. Comp. 61 (1993); Sorenson and Webster, Math. Comp. 86
    (2017))."""
    if n < 38:
        return n in _MR_BASES
    if gcd(n, _MR_PRODUCT) != 1:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    if n < 2_152_302_898_747:
        bases = _MR_BASES[:5]
    elif n < 341_550_071_728_321:
        bases = _MR_BASES[:7]
    else:
        bases = _MR_BASES
    for a in bases:
        y = pow(a, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def ram_sum_miller_rabin(x: int, alpha: float) -> int:
    """S(x, alpha) = sum_{j <= W} #{primes q : x < jq <= x + W} by testing
    every candidate q, with W = floor(x^alpha) as the program computes it."""
    w = max(1, floor(float(x) ** alpha))
    return sum(
        is_prime(q)
        for j in range(1, w + 1)
        for q in range(x // j + 1, (x + w) // j + 1)
    )


def exceptional_scan_reference(
    x_max: int,
    eps: float,
    c0: float,
    stride: int = 1,
    start: int = 1,
) -> dict:
    """The fields of an exceptional-scan report, one window at a time.

    Each sampled n with n^eps >= 2 counts the n^eps-smooth values of
    (n, n + int(n^eps)] by trial division and fails when that count is
    below c0 * n^eps; n with n^eps < 2 are degenerate.  The first 20
    failures are listed.
    """
    sampled = degenerate = failures = 0
    first: list[int] = []
    for n in range(start, x_max + 1, stride):
        sampled += 1
        ne = n**eps
        if ne < 2.0:
            degenerate += 1
            continue
        if smooth_count_direct(n + 1, n + int(ne), ne) < c0 * ne:
            failures += 1
            if len(first) < 20:
                first.append(n)
    evaluated = sampled - degenerate
    return {
        "x_max": x_max, "eps": eps, "c0": float(c0), "stride": stride,
        "sampled": sampled, "degenerate": degenerate, "evaluated": evaluated,
        "failures": failures,
        "failure_fraction": failures / evaluated if evaluated else 0.0,
        "first_failures": tuple(first),
    }


def rho_grid_loop(nodes_per_unit: int, n_nodes: int) -> np.ndarray:
    """Dickman's rho on the grid i / m, 0 <= i <= n_nodes, by the trapezoid
    recurrence, one node per Python step: the reference that the vectorised
    ``dickman._integrate`` must equal bit for bit."""
    m = nodes_per_unit
    vals = np.ones(n_nodes + 1)
    h = 1.0 / m
    for i in range(m, n_nodes):
        t_i = i * h
        t_n = (i + 1) * h
        f_i = vals[i - m] / t_i
        f_n = vals[i + 1 - m] / t_n
        vals[i + 1] = vals[i] - 0.5 * h * (f_i + f_n)
    return vals
