"""Scaled prime-counting sums over the windows (x/j, (x+x^a)/j].

The central quantity is

    S(x, a) = sum_{j <= x^a} [ pi((x + x^a)/j) - pi(x/j) ],

which counts primes q (with multiplicity over j) such that jq lands in the
window (x, x + x^a].  For a < 1/2 the scaled windows are pairwise disjoint,
so each counted prime divides a different element of the window -- the key
supply estimate behind upper bounds for g1.

Exactness.  For integer x, every term is an exact integer: with
W = floor(x^a) one has floor((x + x^a)/j) = floor((x + W)/j), because the
fractional part of x^a can never push (x + W + frac)/j past the next
multiple of j (the remainder of x + W mod j is at most j - 1).  So the sum
depends on x^a only through W, and it is evaluated in integer arithmetic;
floating point enters only in W and in the normalized/heuristic report
fields.

Evaluation.  Each pair (j, q) that S counts is one m = jq in the window
(x, x + W], with q a prime divisor of m and m/q = j <= W.  When W^2 <= x,
q = m/j > x/W >= W >= j, so q^2 > m: q is the one prime factor of m above
sqrt(m), its largest prime factor lpf(m).  Hence

    S(x, a) = #{m in (x, x + W] : m // lpf(m) <= W},

and :func:`ram_sum` reads the largest prime factors of the W window values
from the block sieve (:func:`~grimmsmooth.intervals.lpf_range`), so its
table needs primes only to sqrt(x + W).  Two counted pairs for one m, or a
counted q below lpf(m), would need some m <= W(W - 1) in the window, so the
identity holds whenever x >= W(W - 1); the float W = floor(x^a) keeps that
for a <= 1/2 even where it rounds up to isqrt(x) + 1.

The companions are the two probe quantities appearing in remainder
analyses of such sums: the floor-difference sums R_d over n in [R, S]
(:func:`r_d`) and sums of the centered sawtooth phi(u) = u - floor(u) - 1/2
over eta/n (:func:`phi_sum`), plus the term-by-term decomposition
identity linking the two (:func:`floor_decomposition`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import lpf_range
from .primes import PrimeTable

# Values sieved at once, as verify's blocks: memory stays flat for any W.
_BLOCK = 1 << 21


@dataclass(frozen=True)
class RamSumResult:
    x: int
    alpha: float
    window: int  # W = floor(x^alpha): window top is x + W, j runs to W
    sum: int
    normalized: float  # sum / x^alpha
    heuristic: float  # -log(1 - alpha)
    delta_target: float | None = None


def window_exponent_floor(x: int, alpha: float) -> int:
    """W = floor(x^alpha), clamped to >= 1 (degenerate tiny-x inputs)."""
    return max(1, int(math.floor(float(x) ** alpha)))


def ram_sum(
    x: int,
    alpha: float,
    table: PrimeTable,
    delta_target: float | None = None,
) -> RamSumResult:
    """S(x, alpha), exactly, as #{m in (x, x + W] : m // lpf(m) <= W}; see
    the module docstring.  ``table`` must reach sqrt(x + W).

    alpha may sit on the boundary 1/2 (useful for degenerate checks); the
    disjointness of the scaled windows only holds strictly below it.
    """
    x = int(x)
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if not 0 < alpha <= 0.5:
        raise ValueError(f"alpha must be in (0, 1/2], got {alpha}")
    w = window_exponent_floor(x, alpha)
    total = 0
    for lo in range(x + 1, x + w + 1, _BLOCK):
        hi = min(lo + _BLOCK - 1, x + w)
        m = np.arange(lo, hi + 1, dtype=np.int64)
        # exact, since lpf divides m; lpf * w could overflow int64
        total += int(np.count_nonzero(m // lpf_range(lo, hi, table) <= w))
    xa = float(x) ** alpha
    return RamSumResult(
        x=x,
        alpha=alpha,
        window=w,
        sum=total,
        normalized=total / xa,
        heuristic=-math.log1p(-alpha),
        delta_target=delta_target,
    )


def r_d(x: int, alpha: float, R: int, S: int, d: int) -> int:
    """sum_{R <= n <= S} ( floor((x+x^alpha)/(n d)) - floor(x/(n d)) ), exactly."""
    x, R, S, d = int(x), int(R), int(S), int(d)
    if not 1 <= R <= S:
        raise ValueError(f"need 1 <= R <= S, got R={R}, S={S}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    w = window_exponent_floor(x, alpha)
    top = x + w
    if S * d < 2**62:
        ns = np.arange(R, S + 1, dtype=np.int64) * d
        return int((top // ns - x // ns).sum())
    return sum(top // (n * d) - x // (n * d) for n in range(R, S + 1))


def phi(u: float) -> float:
    """Centered sawtooth u - floor(u) - 1/2."""
    return u - math.floor(u) - 0.5


def phi_sum(V: int, V1: int, eta) -> float:
    """sum_{V <= n <= V1} phi(eta / n), evaluated in exact rational arithmetic.

    eta may be an int, Fraction, or float (a float is taken at its exact
    binary value).  The result is returned as a float of the exact sum.
    """
    V, V1 = int(V), int(V1)
    if not 3 <= V < V1:
        raise ValueError(f"need 3 <= V < V1, got V={V}, V1={V1}")
    eta = Fraction(eta)
    half = Fraction(1, 2)
    total = Fraction(0)
    for n in range(V, V1 + 1):
        u = eta / n
        total += u - math.floor(u) - half
    return float(total)


def floor_decomposition(x: int, alpha: float, n: int, d: int) -> tuple[float, float]:
    """Both sides of the identity
    floor((x+x^a)/q) - floor(x/q) = x^a/q - phi((x+x^a)/q) + phi(x/q), q = n d.

    The left side is the exact integer term; the right side is assembled
    from remainders so that no large cancellation occurs (the sawtooth at
    (x + x^a)/q is ((x+W) mod q + frac(x^a)) / q - 1/2).  Returns
    (lhs, rhs) for tolerance comparison.
    """
    q = n * d
    if q < 1:
        raise ValueError("n and d must be positive")
    xa = float(x) ** alpha
    w = int(math.floor(xa))
    frac = xa - w
    lhs = float((x + w) // q - x // q)
    phi_top = (((x + w) % q) + frac) / q - 0.5
    phi_bot = ((x % q)) / q - 0.5
    rhs = xa / q - phi_top + phi_bot
    return lhs, rhs


def scaled_intervals_disjoint(n: int, k: int, j_max: int) -> int | None:
    """First j in [1, j_max) where [n/(j+1), (n+k)/(j+1)] touches [n/j, ...].

    The intervals [n/j, (n+k)/j] descend without overlap exactly when
    (n+k)/(j+1) < n/j, i.e. j*k < n, checked in exact integers.  Returns
    None when all of j = 1 .. j_max-1 pass (fully disjoint chain).
    """
    if n < 1 or k < 0 or j_max < 1:
        raise ValueError("need n >= 1, k >= 0, j_max >= 1")
    if j_max == 1 or k == 0:
        return None
    # j*k < n for all j < j_max  <=>  (j_max - 1) * k < n
    if (j_max - 1) * k < n:
        return None
    return -(-n // k)  # smallest j with j*k >= n


def remainder_exponent_ok(alpha: float, delta: float) -> bool:
    """True when 1 - 3*alpha/2 + 3*delta/2 < alpha.

    The sieve remainder in the window estimates carries the exponent on the
    left; the check confirms a (alpha, delta) pair keeps it below the main
    term's exponent alpha.
    """
    return 1.0 - 1.5 * alpha + 1.5 * delta < alpha
