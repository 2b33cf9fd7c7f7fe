"""The benchmark's two workloads: inputs from a seed, one timed iteration,
and the checks that decide whether the outputs are right.

Each workload runs a fixed sequence of parts, and each part is one command
or library sweep with its own inputs and checks.  ``scan`` runs the two
large-block scans (verify-grimm, psi); ``small`` runs the many-small-calls
parts (the g/g1 sweep, exceptional-scan, ram-sum).  An optimisation of the
block paths is exercised by one workload and bypassed by the other.  Two
workloads rather than one per part let each run last longer within a fixed
time for all runs (README.md, Steadiness).

Each workload issues its calls one after another from this one process (a
closed loop with a single client).  The seed moves the inputs a little
within each part's shape; seed 0 gives the base inputs, whose results
are pinned below.  Every other seed is checked against independent
computations: the brute-force oracles in ``tests/oracles.py``, a second
CLI command, or a numpy sieve written here that shares no code with the
package.  The checks run once per benchmark run, outside the timed region,
on the first iteration's outputs; every later iteration must repeat them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass
from math import isqrt
from pathlib import Path

import numpy as np

import grimmsmooth
import oracles
from grimmsmooth import cli


@dataclass
class Op:
    """One timed call into the program and what it returned."""

    label: str
    seconds: float
    output: object  # captured stdout, or the value a library call returned
    ok: bool = True  # exit code 0 and a manifest digest matching stdout


def _shift(seed: int, span: int) -> int:
    """Seed-dependent offset in [0, span); seed 0 gives 0."""
    return (seed * 7919) % span


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_op(argv: list[str], outdir: Path) -> Op:
    """Run one CLI invocation in-process; its manifest goes to ``outdir``.

    The op is ok only when the exit code is 0 and this invocation wrote a
    manifest whose digest is the sha256 of its stdout.
    """
    manifest = outdir / f"grimmsmooth-{argv[0]}.manifest.json"
    manifest.unlink(missing_ok=True)  # a stale one must not vouch for this run
    buf = io.StringIO()
    t0 = time.perf_counter()
    code = cli.run(argv, stdout=buf, manifest_dir=str(outdir))
    seconds = time.perf_counter() - t0
    out = buf.getvalue()
    try:
        digest = json.loads(manifest.read_text())["result_digest"]
    except (OSError, ValueError, KeyError):
        digest = None
    return Op(argv[0], seconds, out, code == 0 and digest == _sha256(out))


def _row(output: str) -> dict:
    rows = list(csv.DictReader(io.StringIO(output)))
    if len(rows) != 1:
        raise ValueError(f"expected one CSV row, got {output!r}")
    return rows[0]


def _data_line(output: str) -> str:
    return output.splitlines()[-1]


def _primes_upto(n: int) -> np.ndarray:
    """Sieve of Eratosthenes, independent of the package's PrimeTable."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def _largest_prime_factors(n: int) -> np.ndarray:
    """lpf[m] = largest prime factor of m for m <= n (1 for m <= 1)."""
    lpf = np.ones(n + 1, dtype=np.int64)
    for p in _primes_upto(n).tolist():
        lpf[p::p] = p  # ascending p: the last prime written is the largest
    return lpf


class Part:
    """One command or library sweep of a workload, with its inputs and checks."""

    name = ""
    call_name = ""  # the entry point whose latency call_ms.p50 reports
    n_ops = 1  # ops per iteration

    def inputs(self) -> dict:
        return dict(vars(self))

    def call_seconds(self, ops: list[Op]) -> list[float]:
        """Latencies of one iteration's calls to ``call_name``: by default
        the part's first CLI invocation."""
        return [ops[0].seconds]

    def iterate(self, workers: int, outdir: Path) -> tuple[list[Op], int]:
        """One iteration: the timed ops and the items of work they covered."""
        raise NotImplementedError

    def check(self, ops: list[Op], outdir: Path) -> list[str]:
        """Errors found in one iteration's outputs (empty when correct)."""
        raise NotImplementedError


class Verify(Part):
    """verify-grimm: the headline certificate scan.  Block factor_range
    and per-run slicing in grimm over 5 fixed shards on the cli pool."""

    name = "verify"
    call_name = "cli.run verify-grimm"
    BASE_LIMIT = 10_000_000  # 5 shards of 2^21 split 3:2 over 2 workers
    PIN = "10000000,664577,0,153,4652353"

    def __init__(self, seed: int):
        # stays below 5 * 2^21, so the shard count stays 5
        self.limit = self.BASE_LIMIT + _shift(seed, 100_000)

    def iterate(self, workers, outdir):
        argv = ["verify-grimm", "--limit", str(self.limit), "--workers", str(workers)]
        return [cli_op(argv, outdir)], self.limit

    def check(self, ops, outdir):
        errors = []
        out = ops[0].output
        if self.limit == self.BASE_LIMIT and _data_line(out) != self.PIN:
            errors.append(f"verify-grimm row {_data_line(out)!r} != pinned {self.PIN!r}")
        row = _row(out)
        gap = cli_op(
            ["gap-scan", "--limit", str(self.limit), "--workers", "1"], outdir
        )
        if not gap.ok:
            errors.append("gap-scan failed")
        gap_row = _row(gap.output)
        expect = {
            "limit": str(self.limit),
            "failures": "0",
            # one composite run between each pair of consecutive primes,
            # except (2, 3)
            "runs": str(int(gap_row["pairs"]) - 1),
            "max_k": str(int(gap_row["max_gap"]) - 1),
            "max_k_p": gap_row["max_gap_p"],
        }
        for key, want in expect.items():
            if row[key] != want:
                errors.append(f"verify-grimm {key}={row[key]}, expected {want}")
        return errors


class Psi(Part):
    """psi: global Psi(x, y) by window_residuals on 2^20-element blocks
    (numpy path).  The table is only 1e4, so set-up is near 0 and work moved
    into a table shows in setup_s."""

    name = "psi"
    call_name = "cli.run psi"
    BASE_X = 20_000_000
    Y = 10_000
    PIN = 8_532_550  # Psi(2e7, 1e4)

    def __init__(self, seed: int):
        self.x = self.BASE_X - _shift(seed, 1000)

    def iterate(self, workers, outdir):
        argv = ["psi", "--x", str(self.x), "--y", str(self.Y)]
        return [cli_op(argv, outdir)], self.x

    def check(self, ops, outdir):
        got = int(_row(ops[0].output)["psi"])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 10_000))  # one frame per prime <= y
        try:
            want = oracles.psi_buchstab(self.x, self.Y, oracles.trial_primes(self.Y))
        finally:
            sys.setrecursionlimit(limit)
        errors = []
        if got != want:
            errors.append(f"psi({self.x}, {self.Y}) = {got}, Buchstab oracle gives {want}")
        if self.x == self.BASE_X and got != self.PIN:
            errors.append(f"psi({self.x}, {self.Y}) = {got} != pinned {self.PIN}")
        return errors


class GSweep(Part):
    """Library g(n) and g1(n) over consecutive n: incremental Kuhn
    matching and many short factor_range calls, the reverse of verify.
    The only part that measures g and g1."""

    name = "gsweep"
    call_name = "g and g1"
    BASE_N = 1_000_000
    COUNT = 500
    n_ops = 2 * COUNT
    PIN = (201_803, 292_773)  # sum of g and of g1 over [1e6, 1e6 + 500)

    def __init__(self, seed: int):
        self.n0 = self.BASE_N + _shift(seed, 100_000)

    def iterate(self, workers, outdir):
        hi = self.n0 + self.COUNT
        # g and g1 factor at most n + cap + 1 with cap ~ 4 sqrt(n) log n < n,
        # so primes up to sqrt(2 hi) suffice
        table = grimmsmooth.PrimeTable(isqrt(2 * hi) + 1)
        ops = []
        clock = time.perf_counter
        for n in range(self.n0, hi):
            for label, fn in (("g", grimmsmooth.g), ("g1", grimmsmooth.g1)):
                t0 = clock()
                value = fn(n, table)
                ops.append(Op(f"{label}({n})", clock() - t0, value))
        return ops, 2 * self.COUNT  # one window of offsets after n per call

    def call_seconds(self, ops):
        return [op.seconds for op in ops]

    def check(self, ops, outdir):
        gs = [op.output for op in ops[0::2]]
        g1s = [op.output for op in ops[1::2]]
        ns = range(self.n0, self.n0 + self.COUNT)
        errors = [f"g({n}) = {a} > g1({n}) = {b}" for n, a, b in zip(ns, gs, g1s) if a > b]
        if self.n0 == self.BASE_N and (sum(gs), sum(g1s)) != self.PIN:
            errors.append(f"(sum g, sum g1) = {(sum(gs), sum(g1s))} != pinned {self.PIN}")
        table = grimmsmooth.PrimeTable(isqrt(2 * (self.n0 + self.COUNT)) + 1)
        for i in range(0, self.COUNT, self.COUNT // 5):
            n = self.n0 + i
            if g1s[i] != oracles.g1_prefix_union(n):
                errors.append(f"g1({n}) = {g1s[i]} disagrees with the prefix-union oracle")
            errors.extend(_g_certificate_errors(n, gs[i], table))
        return errors


def _g_certificate_errors(n: int, k: int, table) -> list[str]:
    """Check g(n) = k from certificates verified by trial division.

    The exhaustive SDR oracle does not finish at n ~ 1e6 (windows of ~400
    offsets), so the two certificates are checked instead: a distinct-prime
    assignment for (n, k), and a Hall violator for (n, k + 1).
    """
    errors = []
    rep = grimmsmooth.has_representation(n, k, table)
    assignment = rep.assignment or ()
    if not (
        rep.representable
        and len(assignment) == k == len(set(assignment))
        and all(p in oracles.distinct_primes(n + i) for i, p in enumerate(assignment, 1))
    ):
        errors.append(f"g({n}) = {k}: no valid assignment for (n, k)")
    rep = grimmsmooth.has_representation(n, k + 1, table)
    witness = rep.hall_witness or frozenset()
    union = set()
    for i in witness:
        union.update(oracles.distinct_primes(n + i))
    if rep.representable or not len(union) < len(witness):
        errors.append(f"g({n}) = {k}: no valid Hall violator for (n, k + 1)")
    return errors


class Windows(Part):
    """exceptional-scan pushes ~1e5 tiny windows (<= 48 elements) through
    window_residuals' Python path, the layer psi uses with large blocks;
    ram-sum then makes ~14k exact pi lookups on the largest table (1e8).
    The only part that measures sums, dickman and primes.pi."""

    name = "windows"
    call_name = "cli.run exceptional-scan"
    n_ops = 2
    BASE_X_MAX = 400_000
    EPS = 0.3
    STRIDE = 4
    BASE_X = 100_000_000
    ALPHA = 0.48
    C0 = 0.011825075096236447  # rho(1/eps) / 2 at eps = 0.3
    PIN_SCAN = ("99997", "32095")  # evaluated, failures at x_max = 4e5
    PIN_SUM = 4710  # S(1e8, 0.48)

    def __init__(self, seed: int):
        self.x_max = self.BASE_X_MAX + _shift(seed, 4000)
        self.x = self.BASE_X + _shift(seed, 100_000)

    def iterate(self, workers, outdir):
        scan = cli_op(
            [
                "exceptional-scan", "--x-max", str(self.x_max), "--eps", str(self.EPS),
                "--stride", str(self.STRIDE), "--workers", str(workers),
            ],
            outdir,
        )
        ram = cli_op(["ram-sum", "--x", str(self.x), "--alpha", str(self.ALPHA)], outdir)
        # windows: the sampled n of the scan, and the W scaled windows of S
        sampled = len(range(1, self.x_max + 1, self.STRIDE))
        return [scan, ram], sampled + max(1, math.floor(float(self.x) ** self.ALPHA))

    def check(self, ops, outdir):
        errors = []
        row = _row(ops[0].output)
        want = _scan_expected(self.x_max, self.EPS, self.STRIDE, self.C0)
        for key, value in want.items():
            if row[key] != value:
                errors.append(f"exceptional-scan {key}={row[key]}, expected {value}")
        if self.x_max == self.BASE_X_MAX and (row["evaluated"], row["failures"]) != self.PIN_SCAN:
            errors.append(f"exceptional-scan (evaluated, failures) != pinned {self.PIN_SCAN}")
        got = int(_row(ops[1].output)["sum"])
        want_sum = _ram_sum_expected(self.x, self.ALPHA)
        if got != want_sum:
            errors.append(f"ram-sum({self.x}, {self.ALPHA}) = {got}, direct count gives {want_sum}")
        if self.x == self.BASE_X and got != self.PIN_SUM:
            errors.append(f"ram-sum = {got} != pinned {self.PIN_SUM}")
        return errors


def _scan_expected(x_max: int, eps: float, stride: int, c0: float) -> dict:
    """The exceptional-scan row recomputed from a largest-prime-factor sieve."""
    ns = np.arange(1, x_max + 1, stride, dtype=np.int64)
    ne = np.array([n**eps for n in ns.tolist()])  # the program's float expression
    live = ne >= 2.0
    n_live, ne_live = ns[live], ne[live]
    z = ne_live.astype(np.int64)  # int(n**eps)
    offs = np.arange(1, int(z.max()) + 1)
    lpf = _largest_prime_factors(x_max + len(offs))
    counts = np.empty(len(n_live), dtype=np.int64)
    for a in range(0, len(n_live), 16384):
        b = a + 16384
        smooth = lpf[n_live[a:b, None] + offs] <= ne_live[a:b, None]
        counts[a:b] = (smooth & (offs <= z[a:b, None])).sum(axis=1)
    fails = counts < c0 * ne_live
    evaluated, failures = len(n_live), int(fails.sum())
    return {
        "c0": repr(c0),
        "sampled": str(len(ns)),
        "degenerate": str(len(ns) - evaluated),
        "evaluated": str(evaluated),
        "failures": str(failures),
        "failure_fraction": repr(failures / evaluated),
        "first_failures": ";".join(map(str, n_live[fails][:20].tolist())),
    }


def _ram_sum_expected(x: int, alpha: float) -> int:
    """S(x, alpha) counted directly on the window (x, x + W].

    S = sum_{j <= W} #{primes q : x < jq <= x + W}, i.e. the number of pairs
    (m, q) with m in the window, q a prime dividing m, and m / q <= W.
    """
    w = max(1, math.floor(float(x) ** alpha))
    vals = np.arange(x + 1, x + w + 1, dtype=np.int64)
    residual = vals.copy()
    count = 0
    for p in _primes_upto(isqrt(x + w)).tolist():
        sub = np.arange((-(x + 1)) % p, w, p)
        count += int((vals[sub] <= w * p).sum())
        while len(sub):
            residual[sub] //= p
            sub = sub[residual[sub] % p == 0]
    big = residual > 1  # the one prime factor above sqrt(x + w)
    return count + int((vals[big] <= w * residual[big]).sum())


class Workload:
    """A fixed sequence of parts; one iteration runs each part once."""

    def __init__(self, name: str, parts: list[Part], call_part: int):
        self.name = name
        self.parts = parts
        self.call_part = parts[call_part]
        self.call_name = self.call_part.call_name

    def inputs(self) -> dict:
        return {part.name: part.inputs() for part in self.parts}

    def iterate(self, workers: int, outdir: Path) -> tuple[list[Op], int]:
        ops, items = [], 0
        for part in self.parts:
            part_ops, part_items = part.iterate(workers, outdir)
            ops += part_ops
            items += part_items
        return ops, items

    def _by_part(self, ops: list[Op]):
        start = 0
        for part in self.parts:
            yield part, ops[start : start + part.n_ops]
            start += part.n_ops

    def call_seconds(self, ops: list[Op]) -> list[float]:
        return next(p.call_seconds(o) for p, o in self._by_part(ops) if p is self.call_part)

    def check(self, ops: list[Op], outdir: Path) -> list[str]:
        return [e for part, part_ops in self._by_part(ops) for e in part.check(part_ops, outdir)]


WORKLOADS = {
    # items: integers covered by verify-grimm plus integers classified by psi
    "scan": lambda seed: Workload("scan", [Verify(seed), Psi(seed)], call_part=1),
    # items: short windows evaluated, one per g or g1 call, per sampled scan
    # n, and per scaled window of S(x, alpha)
    "small": lambda seed: Workload("small", [GSweep(seed), Windows(seed)], call_part=0),
}
