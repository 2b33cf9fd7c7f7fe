"""Independent brute-force oracles the test suite checks the library against.

Everything here is deliberately naive: trial division, exhaustive
backtracking, direct recursion.  None of it shares code with the package.
"""

from __future__ import annotations

from math import floor, gcd, isqrt

import numpy as np


def trial_primes(limit: int) -> list[int]:
    """All primes <= limit by trial division."""
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
    return out


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
    max_reported: int = 20,
    start: int = 1,
) -> dict:
    """The fields of an exceptional-scan report, one window at a time.

    Each sampled n with n^eps >= 2 counts the n^eps-smooth values of
    (n, n + int(n^eps)] by trial division and fails when that count is
    below c0 * n^eps; n with n^eps < 2 are degenerate.
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
            if len(first) < max_reported:
                first.append(n)
    evaluated = sampled - degenerate
    return {
        "x_max": x_max, "eps": eps, "c0": float(c0), "stride": stride,
        "sampled": sampled, "degenerate": degenerate, "evaluated": evaluated,
        "failures": failures,
        "failure_fraction": failures / evaluated if evaluated else 0.0,
        "first_failures": tuple(first),
    }
