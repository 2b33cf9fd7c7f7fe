"""Prime representability of integer windows, g(n), g1(n), and run verification.

A pair (n, k) *has a prime representation* when there are pairwise distinct
primes P_1, ..., P_k with P_i | n+i.  That is exactly a system of distinct
representatives for the family of prime sets of the window, so the decision
is a maximum bipartite matching problem: offsets on one side, primes on the
other, edges given by divisibility.

The matcher is the classic augmenting-path search (Kuhn).  For
``has_representation`` and the run verification it processes offsets in
increasing order and tries candidate primes in increasing order, which makes
the produced assignment reproducible.  When some offset cannot be matched,
the alternating tree of the failed search yields a Hall violator: the failed
offset together with the owners of every prime reached has a prime
neighborhood strictly smaller than itself.  That set is returned as an
independently checkable non-representability certificate.

g(n) is the largest k such that (n, k) is representable.  Because any
representation of (n, k) restricts to one of (n, l) for l < k, g is computed
incrementally: keep the matching, add one offset at a time, stop at the first
offset that cannot be augmented.  Both g and g1 read one window of largest
prime factors (lpf), ``lpf_range(n+1, n+L)``, whose length L doubles as the
search needs it.  g returns a number, not an assignment, and whether a
prefix has a perfect matching does not depend on the order in which primes
are tried, so g tries the largest prime first: an offset whose lpf no other
offset holds takes it, a one-edge augmenting path, and only the others run
the Kuhn search, over rows listed in descending order and built when it
first visits them.  g1(n) is the weaker prefix condition
omega((n+1)...(n+l)) >= l for all l <= k.  It needs no rows: a prime
p <= sqrt(n+L) first divides the window at offset (-(n+1)) mod p, and a
larger prime divides only values it is the lpf of, so the prefix counts are
one cumulative sum of first occurrences.  No a-priori bound for either is
available, so the incremental searches carry a generous diagnostic cap and
fail loudly rather than return a wrong value if it is ever hit.

Verifying Grimm's conjecture below a limit decides every composite run
between consecutive primes, block by block.  ``verify_grimm_summary`` takes
the run counts from the prime gaps alone.  Distinct largest prime factors
already form an assignment, so only runs in which two elements share their
lpf need a matching, 138 of the 664,577 runs below 1e7.  Such a shared lpf
divides the difference of the two elements, so in a run of length k it lies
below k, and both elements are (k-1)-smooth.  Those are also the only
elements the matching needs: a prime q >= k divides at most one element of
the run, so an element whose lpf is at least k takes it, and the run is
representable exactly when its (k-1)-smooth elements have distinct primes,
about 3 elements per colliding run below 1e7 and at most 10.  A run they
cannot cover is reported with their Hall violator: its primes all lie
below k, so it violates Hall's condition for the whole run.  The block is
walked in pieces of 2^17 values (2^16 from 2^31 on), so no array spans it,
and each piece is sieved with the primes below the longest run that touches
it alone (29 of them for the median piece below 1e7, where sqrt(x) would
take 446), leaving about 3% of its values to key by (run, lpf), each key
with its value beside it.  One sort over every piece's keys lets a run that
crosses a piece edge collide across it.  The smooth numbers are the only
obstruction, as in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .intervals import _bound_smooth, lpf_range, prime_rows
from .primes import PrimeTable, bounding_primes


# Longest window has_representation accepts in one call.
MAX_WINDOW = 10**6


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

    @property
    def status(self) -> str:
        """``representable`` or ``not_representable``."""
        return "representable" if self.representable else "not_representable"

    @property
    def certificate(self) -> str:
        """The assignment's primes, or the Hall witness's offsets in
        ascending order, joined by ``;``."""
        cert = self.assignment if self.representable else sorted(self.hall_witness)
        return ";".join(map(str, cert))


@dataclass(frozen=True)
class GrimmRunReport:
    """One composite run p+1 .. p+k between consecutive primes."""

    p: int
    k: int
    result: RepresentationResult

    def csv_row(self) -> str:
        """p, k and the status, then the Hall witness when there is one."""
        row = f"{self.p},{self.k},{self.result.status}"
        return row if self.result.representable else f"{row},{self.result.certificate}"


@dataclass(frozen=True)
class VerifySummary:
    """The runs closing at primes in (lo, hi]: how many, the ones with no
    representation, and the first longest run, of length max_k after the
    prime max_k_p."""

    lo: int
    hi: int
    runs: int
    failures: tuple[GrimmRunReport, ...]
    max_k: int
    max_k_p: int

    def merge(self, other: VerifySummary) -> VerifySummary:
        """The summary of (self.lo, other.hi] from those of the adjacent
        ranges (self.lo, self.hi] and (self.hi, other.hi]: counts add,
        failures join in order, and the first longest run is kept."""
        if other.lo != self.hi:
            raise ValueError(f"(.., {self.hi}] and ({other.lo}, ..] are not adjacent")
        longest = other if other.max_k > self.max_k else self
        return VerifySummary(
            lo=self.lo, hi=other.hi, runs=self.runs + other.runs,
            failures=self.failures + other.failures,
            max_k=longest.max_k, max_k_p=longest.max_k_p,
        )

    def to_json(self) -> dict:
        """The fields as JSON values, each failure as [p, k, Hall witness]."""
        failures = [[r.p, r.k, sorted(r.result.hall_witness)] for r in self.failures]
        return {
            "lo": self.lo, "hi": self.hi, "runs": self.runs, "failures": failures,
            "max_k": self.max_k, "max_k_p": self.max_k_p,
        }

    @classmethod
    def from_json(cls, data: dict) -> VerifySummary:
        """The summary :meth:`to_json` gave ``data`` for."""
        failures = tuple(
            GrimmRunReport(p, k, RepresentationResult(False, hall_witness=frozenset(w)))
            for p, k, w in data["failures"]
        )
        return cls(**data | {"failures": failures})


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
    stack: list[tuple[int, Iterator[int]]] = [(start, iter(adj[start]))]
    while stack:
        for p in stack[-1][1]:
            if p in visited:
                continue
            visited.add(p)
            o = owner.get(p)
            if o is None:
                # p is free and the stack is the path to it: each offset
                # on it, deepest first, takes the prime it reached and hands
                # its old one to the offset below
                for u, _ in reversed(stack):
                    owner[p] = u
                    matched[u], p = p, matched[u]
                return None
            stack.append((o, iter(adj[o])))
            break
        else:
            stack.pop()
    return visited


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
    if not 1 <= k <= MAX_WINDOW:
        raise ValueError(f"window length k must be in [1, {MAX_WINDOW}], got {k}")
    return _match_window(prime_rows(n + 1, n + k, table))


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


class _LpfWindow:
    """Largest prime factors of n+1, ..., n+L, and each offset's distinct
    primes on demand.

    L starts at max(64, isqrt(n)) and doubles up to ``max_rows``, which
    bounds the prime-table range the search can demand.  With ``root`` =
    isqrt(n+L), a value v <= n+L has at most one prime factor above root,
    and if it has one, that factor is its lpf.  So row i (of v = n+i+1) is
    the lpf when it exceeds root, then the primes <= root dividing v, in
    descending order.  Rows are built only when a search asks for them.
    """

    def __init__(self, n: int, table: PrimeTable, max_rows: int):
        self.n = n
        self.table = table
        self.max_rows = max_rows
        self.lpf = np.empty(0, dtype=np.int64)
        self._rows: dict[int, list[int]] = {}
        self.grow(min(max(64, math.isqrt(n)), max_rows))

    def grow(self, length: int) -> None:
        """Extend the window to L = ``length`` rows (sieving only the new ones)."""
        lo = self.n + len(self.lpf) + 1
        self.lpf = np.concatenate([self.lpf, lpf_range(lo, self.n + length, self.table)])
        self.lpfs = self.lpf.tolist()
        self.root = math.isqrt(self.n + length)
        self.primes = self.table.primes_to(self.root)

    def double(self) -> None:
        """Double L, up to ``max_rows``."""
        self.grow(min(2 * len(self.lpf), self.max_rows))

    def __getitem__(self, i: int) -> list[int]:
        row = self._rows.get(i)
        if row is None:
            v, top = self.n + i + 1, self.lpfs[i]
            row = self.primes[v % self.primes == 0][::-1].tolist()
            if top > self.root:
                row.insert(0, top)
            self._rows[i] = row
        return row


def g(n: int, table: PrimeTable) -> int:
    """Largest k such that (n, k) has a prime representation.

    Incremental matching: the first offset that admits no augmenting path
    terminates the search (valid because representations restrict to
    prefixes).  An offset whose lpf is still free takes it, a one-edge
    augmenting path; only the others run the Kuhn search.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    cap = _search_cap(n)
    win = _LpfWindow(n, table, cap + 1)
    owner: dict[int, int] = {}
    matched: list[int | None] = []
    i = 0
    while True:
        if i == len(win.lpfs):
            win.double()
        p = win.lpfs[i]
        if p not in owner:
            owner[p] = i
            matched.append(p)
        else:
            matched.append(None)
            if _augment(i, win, owner, matched) is not None:
                return i
        i += 1
        if i > cap:
            raise SearchCapExceeded(
                f"g({n}) still extendable past diagnostic cap {cap}; "
                f"raise the cap if this is expected"
            )


def _prefix_union(win: _LpfWindow) -> np.ndarray:
    """Entry l-1 = number of distinct primes dividing (n+1)...(n+l), l <= L.

    A prime p <= root first divides the window at offset (-(n+1)) mod p; a
    larger prime divides only the values it is the lpf of, so it first
    counts at its first occurrence among those.
    """
    length = len(win.lpf)
    first = -(win.n + 1) % win.primes
    counts = np.bincount(first[first < length], minlength=length)
    big = np.flatnonzero(win.lpf > win.root)
    _, at = np.unique(win.lpf[big], return_index=True)
    counts += np.bincount(big[at], minlength=length)
    return np.cumsum(counts)


def g1(n: int, table: PrimeTable) -> int:
    """Largest k with omega((n+1)...(n+l)) >= l for every l <= k."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    cap = _search_cap(n)
    win = _LpfWindow(n, table, cap + 1)
    while True:
        union = _prefix_union(win)
        checked = min(len(union), cap)
        short = np.flatnonzero(union[:checked] <= np.arange(checked))
        if len(short):
            return int(short[0])  # l = short[0] + 1 is the first short prefix
        if checked == cap:
            raise SearchCapExceeded(
                f"g1({n}) still extendable past diagnostic cap {cap}; "
                f"raise the cap if this is expected"
            )
        win.double()


# ---------------------------------------------------------------------------
# verification over all composite runs below a limit
# ---------------------------------------------------------------------------

_SCAN_BLOCK = 1 << 21
# a block holds _SCAN_BLOCK values and one prime gap, so its rows fit below
# 2^22, and _colliding_runs packs each under its (run, lpf) key, which stays
# below 2^33 (fewer than 2^22 runs, and prime gaps below 2^11 in int64)
_ROW_BITS = _SCAN_BLOCK.bit_length()


def _iter_blocks(ps: np.ndarray):
    """Yield ``(bps, blo, bhi)`` per block of the runs between the
    consecutive primes ``ps``.

    ``bps`` is the slice of ``ps`` that bounds the block's runs, and the
    block holds the values blo = bps[0] + 1 .. bhi = bps[-1] - 1.
    """
    i, n_p = 0, len(ps)
    while i + 1 < n_p:
        j = min(int(np.searchsorted(ps, ps[i] + _SCAN_BLOCK)), n_p - 1)
        blo, bhi = int(ps[i]) + 1, int(ps[j]) - 1
        if bhi >= blo:
            yield ps[i : j + 1], blo, bhi
        i = j


# The smooth sieve walks a block this many values at a time below 2^31, and
# half as many from 2^31 on, where the sieve's arrays are int64: either way
# they stay in one core's L2 cache through the strided passes.  Timed per
# 2^21-value block, 2^17 beat 2^16 (more numpy calls per prime) and 2^18
# below 2^31, and 2^16 beat 2^17 past it.
_PIECE = 1 << 17


def _colliding_runs(ps: np.ndarray, blo: int, bhi: int, table: PrimeTable):
    """Yield ``(a, values)`` for each run ps[a]+1 .. ps[a+1]-1 of the block
    blo..bhi in which two elements share their largest prime factor, in
    ascending a, with the run's elements whose lpf is below its length k.

    Two elements of a run that share the largest prime factor q differ by a
    multiple of q between 1 and k - 1, so q < k and both are (k-1)-smooth.
    The block is sieved in pieces, each with the primes below the longest
    run that touches it, and each smooth element is keyed by (run, lpf),
    with the block's longest run as multiplier, above its row in the block;
    the block's primes below a piece's bound are smooth too and drop out as
    their own lpf.
    """
    longest = int(np.max(np.diff(ps))) - 1
    keys = []
    start = blo
    while start <= bhi:
        end = min(start + (_PIECE if start < 2**31 else _PIECE // 2) - 1, bhi)
        # ps[a-1] <= start < ps[a] and ps[b-1] <= end < ps[b], so the runs
        # a-1 .. b-1 cover the piece
        a, b = np.searchsorted(ps, (start, end), side="right")
        pps = ps[a - 1 : b + 1]
        bound = int(np.max(np.diff(pps))) - 2
        flags, lpf = _bound_smooth(start, end, bound, table, True)
        rows = np.flatnonzero(flags)
        v, q = start + rows, lpf[rows]
        keep = q != v
        # v lies in the run closed by pps[j], which is ps[a - 1 + j]
        run = np.searchsorted(pps, v[keep]) + (a - 2)
        keys.append((run * longest + q[keep]) << _ROW_BITS | (v[keep] - blo))
        start = end + 1
    # one sort over every piece's keys: a run that crosses a piece edge
    # collides across it too
    keys = np.concatenate(keys)
    keys.sort()
    pairs = keys >> _ROW_BITS
    # the colliding runs come sorted, so a neighbour comparison drops their
    # repeats; np.unique would import numpy.ma (about 9 ms) into every
    # forked worker, through its np.ma.is_masked check
    runs = pairs[1:][pairs[1:] == pairs[:-1]] // longest
    first = np.ones(len(runs), dtype=bool)
    first[1:] = runs[1:] != runs[:-1]
    runs = runs[first]
    # a run's elements with lpf below its length are one slice of the keys
    ks = ps[runs + 1] - ps[runs] - 1
    starts, ends = np.searchsorted(pairs, (runs * longest, runs * longest + ks))
    for a, i, j in zip(runs.tolist(), starts.tolist(), ends.tolist()):
        yield a, (blo + (keys[i:j] & (1 << _ROW_BITS) - 1)).tolist()


def _smooth_sdr(
    p: int, k: int, values: list[int], table: PrimeTable
) -> RepresentationResult:
    """The matching of the elements ``values`` of the run p+1 .. p+k, those
    whose largest prime factor is below k, taken in ascending order; a Hall
    witness holds their run offsets v - p.

    The run has a prime representation exactly when they do: a prime
    q >= k divides at most one element of the run, so an element whose lpf
    is at least k takes it, and no other element can want it.  Every prime
    of these elements lies below k, so a set of them with fewer primes than
    members violates Hall's condition for the whole run.  The rows come
    from trial division by the primes below k.
    """
    values = sorted(values)
    primes = table.primes_to(k - 1).tolist()
    res = _match_window([[q for q in primes if v % q == 0] for v in values])
    if res.representable:
        return res
    witness = frozenset(values[i - 1] - p for i in res.hall_witness)
    return RepresentationResult(False, hall_witness=witness)


def verify_grimm_summary(limit: int, table: PrimeTable, lo: int = 2) -> VerifySummary:
    """Count runs and collect failures for closing primes in (lo, limit].

    Run counts and the longest run come from the gaps between consecutive
    primes alone.  Only a run in which two elements share their largest
    prime factor can lack a representation, and :func:`_colliding_runs`
    finds those runs per block, each with its elements whose lpf is below
    its length k; the run is representable exactly when those elements have
    distinct primes below k, and a run they cannot cover is reported with
    their Hall witness (:func:`_smooth_sdr`).  The primes come from
    :func:`bounding_primes`; ``table`` only has to reach the longest run
    less one, for the smooth sieve and that matching: at most ceil(sqrt(q))
    for a gap closing at q (at most 12 for the gap 113 .. 127, and far
    below sqrt(q) as q grows), and a table that falls short raises
    ``TableLimitError``.
    """
    ps = bounding_primes(lo, limit)
    ks = np.diff(ps) - 1
    runs = int(np.count_nonzero(ks))
    max_k, max_k_p = 0, 0
    if runs:
        a = int(np.argmax(ks))  # the first maximum, as a strict > scan keeps
        max_k, max_k_p = int(ks[a]), int(ps[a])
    failures: list[GrimmRunReport] = []
    for bps, blo, bhi in _iter_blocks(ps):
        for a, values in _colliding_runs(bps, blo, bhi, table):
            p = int(bps[a])
            k = int(bps[a + 1]) - p - 1
            res = _smooth_sdr(p, k, values, table)
            if not res.representable:
                failures.append(GrimmRunReport(p, k, res))
    return VerifySummary(
        lo=lo, hi=limit, runs=runs, failures=tuple(failures),
        max_k=max_k, max_k_p=max_k_p,
    )
