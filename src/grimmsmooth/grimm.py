"""Prime representability of integer windows, g(n), g1(n), and run verification.

A pair (n, k) *has a prime representation* when there are pairwise distinct
primes P_1, ..., P_k with P_i | n+i.  That is exactly a system of distinct
representatives for the family of prime sets of the window, so the decision
is a maximum bipartite matching problem: offsets on one side, primes on the
other, edges given by divisibility.

The matcher is the classic augmenting-path search (Kuhn), offsets processed
in increasing order and candidate primes tried in increasing order, which
makes the produced assignment reproducible.  When some offset cannot be
matched, the alternating tree of the failed search yields a Hall violator:
the failed offset together with the owners of every prime reached has a
prime neighborhood strictly smaller than itself.  That set is returned as an
independently checkable non-representability certificate.

g(n) is the largest k such that (n, k) is representable.  Because any
representation of (n, k) restricts to one of (n, l) for l < k, g is computed
incrementally: keep the matching, add one offset at a time, stop at the first
offset that cannot be augmented.  g1(n) is the weaker prefix condition
omega((n+1)...(n+l)) >= l for all l <= k, computed by streaming the prefix
union of prime sets.  No a-priori bound for either is available, so the
incremental loops carry a generous diagnostic cap and fail loudly rather
than return a wrong value if it is ever hit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .intervals import factor_interval, factor_range
from .primes import PrimeTable, TableLimitError


class SearchCapExceeded(RuntimeError):
    """The incremental g/g1 search ran past its diagnostic cap."""


@dataclass(frozen=True)
class RepresentationResult:
    """Outcome of the distinct-prime matching for one window.

    Exactly one of ``assignment`` / ``hall_witness`` is populated:
    ``assignment[i-1]`` is the prime chosen for n+i when representable,
    ``hall_witness`` is a set of offsets whose union of prime sets is
    smaller than the set itself when not.
    """

    representable: bool
    assignment: tuple[int, ...] | None = None
    hall_witness: frozenset[int] | None = None


@dataclass(frozen=True)
class GrimmRunReport:
    """One composite run p+1 .. p+k between consecutive primes."""

    p: int
    k: int
    result: RepresentationResult

    def csv_row(self) -> str:
        if self.result.representable:
            return f"{self.p},{self.k},representable"
        wit = ";".join(str(i) for i in sorted(self.result.hall_witness))
        return f"{self.p},{self.k},not_representable,{wit}"


@dataclass(frozen=True)
class VerifySummary:
    lo: int
    hi: int
    runs: int
    failures: tuple[GrimmRunReport, ...]
    max_k: int
    max_k_p: int


def _augment(
    start: int,
    adj: list[list[int]],
    owner: dict[int, int],
    matched: list[int | None],
) -> set[int] | None:
    """One Kuhn augmenting search from offset ``start`` (iterative).

    Returns None on success (owner/matched updated along the path), or the
    set of visited primes on failure -- at that point every visited prime is
    matched and its owner was exhausted, which is the Hall-violation data.
    """
    visited: set[int] = set()
    from_offset: dict[int, int] = {}
    stack: list[tuple[int, Iterator[int]]] = [(start, iter(adj[start]))]
    free = None
    while stack:
        u, it = stack[-1]
        pushed = False
        for p in it:
            if p in visited:
                continue
            visited.add(p)
            from_offset[p] = u
            o = owner.get(p)
            if o is None:
                free = p
                break
            stack.append((o, iter(adj[o])))
            pushed = True
            break
        else:
            stack.pop()
            continue
        if free is not None:
            break
        if pushed:
            continue
    if free is None:
        return visited
    p = free
    while True:
        u = from_offset[p]
        old = matched[u]
        owner[p] = u
        matched[u] = p
        if u == start:
            return None
        p = old


def _match_window(adj: list[list[int]]) -> RepresentationResult:
    """Full matching over all offsets of one window."""
    owner: dict[int, int] = {}
    matched: list[int | None] = [None] * len(adj)
    for i in range(len(adj)):
        visited = _augment(i, adj, owner, matched)
        if visited is not None:
            witness = {i + 1} | {owner[p] + 1 for p in visited}
            return RepresentationResult(False, hall_witness=frozenset(witness))
    return RepresentationResult(True, assignment=tuple(matched))


def has_representation(n: int, k: int, table: PrimeTable) -> RepresentationResult:
    """Decide whether (n, k) has a prime representation, with certificate."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    f = factor_interval(n, k, table)
    return _match_window(f.prime_sets)


# Diagnostic cap for the incremental searches.  This is a resource guard,
# not a theorem: if it is ever reached the search raises instead of
# returning a silently truncated value.
def _search_cap(n: int) -> int:
    return max(8, math.ceil(4.0 * math.sqrt(n) * math.log(n)))


def search_table_limit(n: int) -> int:
    """Prime-table limit that g(n) and g1(n) may need: the incremental
    search factors at most up to n + cap + 1."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    return math.isqrt(n + _search_cap(n) + 1) + 1


class _ChunkedWindow:
    """Factorization of n+1, n+2, ... materialized in growing chunks.

    ``max_rows`` bounds how far ahead the window may factor, which also
    bounds the prime-table range the search can demand.
    """

    def __init__(self, n: int, table: PrimeTable, max_rows: int):
        self.n = n
        self.table = table
        self.max_rows = max_rows
        self.adj: list[list[int]] = []
        self._chunk = 64

    def row(self, i: int) -> list[int]:
        while i >= len(self.adj):
            lo = self.n + len(self.adj) + 1
            hi = min(lo + self._chunk - 1, self.n + self.max_rows)
            offsets, flat, _ = factor_range(lo, hi, self.table)
            offs = offsets.tolist()
            fl = flat.tolist()
            self.adj.extend(
                fl[offs[j] : offs[j + 1]] for j in range(hi - lo + 1)
            )
            self._chunk = min(self._chunk * 2, 4096)
        return self.adj[i]


def g(n: int, table: PrimeTable) -> int:
    """Largest k such that (n, k) has a prime representation.

    Incremental matching: the first offset that admits no augmenting path
    terminates the search (valid because representations restrict to
    prefixes).
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    cap = _search_cap(n)
    win = _ChunkedWindow(n, table, cap + 1)
    owner: dict[int, int] = {}
    matched: list[int | None] = []
    i = 0
    while True:
        win.row(i)
        matched.append(None)
        if _augment(i, win.adj, owner, matched) is not None:
            return i
        i += 1
        if i > cap:
            raise SearchCapExceeded(
                f"g({n}) still extendable past diagnostic cap {cap}; "
                f"raise the cap if this is expected"
            )


def g1(n: int, table: PrimeTable) -> int:
    """Largest k with omega((n+1)...(n+l)) >= l for every l <= k."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    cap = _search_cap(n)
    win = _ChunkedWindow(n, table, cap + 1)
    seen: set[int] = set()
    l = 1
    while True:
        seen.update(win.row(l - 1))
        if len(seen) < l:
            return l - 1
        l += 1
        if l > cap:
            raise SearchCapExceeded(
                f"g1({n}) still extendable past diagnostic cap {cap}; "
                f"raise the cap if this is expected"
            )


# ---------------------------------------------------------------------------
# verification over all composite runs below a limit
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 1 << 21


def _iter_runs(table: PrimeTable, lo: int, hi: int):
    """Yield (p, k, adjacency) for every composite run p+1 .. p+k whose
    closing prime lies in (lo, hi], factoring [lo, hi] block by block."""
    if hi <= 2 or hi <= lo:
        return
    start = 2 if lo <= 2 else table.prev_prime(lo)
    ps = table.primes_in(start, hi)
    if len(ps) < 2:
        return
    ps_l = ps.tolist()
    i = 0
    n_p = len(ps_l)
    while i + 1 < n_p:
        j = min(int(np.searchsorted(ps, ps_l[i] + _SCAN_BLOCK)), n_p - 1)
        blo, bhi = ps_l[i] + 1, ps_l[j] - 1
        if bhi >= blo:
            offsets, flat, _ = factor_range(blo, bhi, table)
            offs = offsets.tolist()
            fl = flat.tolist()
            for a in range(i, j):
                p, q = ps_l[a], ps_l[a + 1]
                k = q - p - 1
                if k < 1:
                    continue
                r0 = p + 1 - blo
                yield p, k, [fl[offs[r0 + t] : offs[r0 + t + 1]] for t in range(k)]
        i = j


def verify_grimm(limit: int, table: PrimeTable) -> Iterator[GrimmRunReport]:
    """Decide every composite run between consecutive primes p < p' <= limit.

    Yields one report per run in increasing order of p, each carrying the
    canonical matching result (assignment or Hall witness).
    """
    if limit > table.limit:
        raise TableLimitError(
            f"verification to {limit} exceeds table limit {table.limit}",
            required=limit,
        )
    for p, k, adj in _iter_runs(table, 2, limit):
        yield GrimmRunReport(p, k, _match_window(adj))


def verify_grimm_summary(limit: int, table: PrimeTable, lo: int = 2) -> VerifySummary:
    """Count runs and collect failures for closing primes in (lo, limit].

    Fast path: when the largest prime factors of the window elements are
    pairwise distinct they already form a valid assignment, so only the rare
    colliding windows go through the full matching.  Failure reports always
    carry the canonical matching certificate.
    """
    if limit > table.limit:
        raise TableLimitError(
            f"verification to {limit} exceeds table limit {table.limit}",
            required=limit,
        )
    runs = 0
    max_k = 0
    max_k_p = 0
    failures: list[GrimmRunReport] = []
    for p, k, adj in _iter_runs(table, lo, limit):
        runs += 1
        if k > max_k:
            max_k, max_k_p = k, p
        lpfs = [row[-1] for row in adj]
        if len(set(lpfs)) == k:
            continue
        res = _match_window(adj)
        if not res.representable:
            failures.append(GrimmRunReport(p, k, res))
    return VerifySummary(
        lo=lo, hi=limit, runs=runs, failures=tuple(failures),
        max_k=max_k, max_k_p=max_k_p,
    )
