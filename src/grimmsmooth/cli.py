"""Command-line front end.

One subcommand per library operation, deterministic CSV/JSON emission, and a
reproducible run manifest next to every invocation.

Determinism contract: for fixed flags the emitted bytes are identical across
runs and across ``--workers`` settings.  Work is split into fixed-size shards
whose boundaries depend only on the requested range (never on the worker
count).  One generator, :func:`_shards`, runs the shards of every sharded
command (verify-grimm, gap-scan, exceptional-scan): it walks the range
lazily, computes in a fork pool or in this process, reads and appends the
per-shard checkpoint, and yields the results in shard order.  A shard
function takes only its bounds, a closure over the rest of the handler's
inputs.  Each handler folds the results with its summary's ``merge``, and
only these three commands take ``--workers``; every other command, psi
included, runs in this process.  Neither the shards nor their results are
ever held as a list, and the output is hashed and written piece by piece
as it is made.

Exit codes: 0 success, 1 verification failure found (a Grimm counterexample
or a violated bound -- newsworthy, not an error), 2 usage/resource errors.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict
from functools import reduce
from math import isqrt
from types import SimpleNamespace

from . import __version__
from . import exponents as expo
from .dickman import MAX_NODES_PER_UNIT, MAX_T, build_rho_table, nodes_per_unit, rho
from .grimm import (
    MAX_WINDOW, SearchCapExceeded, VerifySummary, g, g1, has_representation,
    search_table_limit, verify_grimm_summary,
)
from .primes import (
    MAX_LIMIT, PI_TABLE_MAX_ROOT, GapScanSummary, PrimeTable, check_dusart, gap_check,
    segments,
)
from .smooth import (
    WINDOW_MAX_END, ExceptionalScanReport, exceptional_scan, psi, psi_window, scan_c0,
    window_table_limit,
)
from .sums import phi_sum, r_d, ram_sum, window_exponent_floor

# nothing reads these variables; perfbench still clears them before its runs
ENV_TABLE_LIMIT = "GRIMMSMOOTH_TABLE_LIMIT"
ENV_WORKERS = "GRIMMSMOOTH_WORKERS"

# Fixed shard span for the range scans; independent of worker count so that
# the merged output is too.
SHARD_SPAN = 1 << 21

# Largest integer taken for psi's --x and exceptional-scan's --x-max and
# --stride.  It bounds outside input, and keeps the scan's windows
# (n, n + n^eps] within its int64 arrays.
MAX_INPUT = 2**62


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(rows, fmt: str):
    """Yield the text of ``rows``, any iterable of dicts read once, as one
    JSON array or as CSV with the first row's keys as header (no rows, no
    header), one piece per 4096 rows; nothing is yielded before the first
    rows are made."""
    # in batches: one encode call per row took twice as long as dumping the
    # whole list
    rows = iter(rows)
    batches = iter(lambda: list(itertools.islice(rows, 4096)), [])
    if fmt == "json":
        encode = json.JSONEncoder(default=_fmt, separators=(",", ":")).encode
        sep = "["
        for batch in batches:
            yield sep + encode(batch)[1:-1]
            sep = ","
        yield "[]\n" if sep == "[" else "]\n"
        return
    cols = None
    for batch in batches:
        head = ""
        if cols is None:
            cols = list(batch[0])
            head = ",".join(cols) + "\n"
        # one map of _fmt per column: a call and a join per cell made CSV
        # slower than JSON's one encode per batch
        cells = [map(_fmt, [r.get(c) for r in batch]) for c in cols]
        yield head + "\n".join(map(",".join, zip(*cells))) + "\n"


def _get_table(required: int, args, flag: str) -> PrimeTable:
    """The prime table to ``required``, the bound that ``flag`` sets; the
    manifest records its limit (``args.table_limit_used``).  A bound past
    ``MAX_LIMIT`` is refused, naming the flag, before anything is built."""
    if required > MAX_LIMIT:
        raise ValueError(
            f"{flag} needs a prime table to {required}, past its limit {MAX_LIMIT}"
        )
    args.table_limit_used = max(2, required)
    return PrimeTable(args.table_limit_used)


# ---------------------------------------------------------------------------
# the shard driver: one pass over a range, pooled and checkpointed
# ---------------------------------------------------------------------------

_worker_fn = None


def _pool_entry(bounds):
    return _worker_fn(bounds)


def _shards(args, lo, hi, span, shard_fn, meta):
    """Yield ``shard_fn((a, min(a + span, hi)))`` for each a in
    ``range(lo, hi, span)``, in shard order.

    The shards left to compute run in a fork pool of ``args.worker_count``
    processes when there are more than one, else in this process.  With
    ``args.checkpoint``, the file's first line records
    ``{"cmd", "span", "version"} | meta``, and every other line one shard's
    result: the shards it holds are yielded from it, and each shard
    computed is appended as it is yielded.  Nothing is held per shard but
    the results loaded from the checkpoint.  The pool's workers are forked
    with ``shard_fn`` in ``_worker_fn``, so it is never pickled and may be a
    closure.
    """
    global _worker_fn
    starts = range(lo, hi, span)
    done: dict[int, object] = {}
    path = getattr(args, "checkpoint", None)
    ck = pool = None
    if path:
        try:
            # one handle reads the shards done, cuts a torn last line and
            # appends the shards computed now
            ck = open(path, "a+b")
        except OSError as e:
            raise ValueError(f"--checkpoint {path}: {e.strerror}") from None
    try:
        if ck:
            meta = {"cmd": args.subcommand, "span": span, "version": __version__} | meta
            ck.seek(0)
            data = ck.read()
            # a run killed mid-write leaves an unterminated last line
            end = data.rfind(b"\n") + 1
            ck.truncate(end)
            lines = data[:end].decode().splitlines()
            if not lines:
                ck.write(json.dumps({"meta": meta}).encode() + b"\n")
                ck.flush()
            elif (written := json.loads(lines[0]).get("meta")) != meta:
                raise ValueError(
                    f"checkpoint {path} was written for parameters "
                    f"{written}, current run has {meta}"
                )
            for line in lines[1:]:
                rec = json.loads(line)
                done[rec["shard"]] = rec["result"]
        # read by the pool's task thread while the loop below runs, so
        # ``done`` must not change from here on
        todo = ((a, min(a + span, hi)) for i, a in enumerate(starts) if i not in done)
        left = len(starts) - len(done)
        # a pool for a single shard only adds its start-up
        if left > 1 and args.worker_count > 1 and hasattr(os, "fork"):
            import multiprocessing as mp

            _worker_fn = shard_fn
            pool = mp.get_context("fork").Pool(min(args.worker_count, left))
            results = pool.imap(_pool_entry, todo)
        else:
            results = map(shard_fn, todo)
        for i in range(len(starts)):
            if i in done:
                yield done[i]
                continue
            res = next(results)
            if ck:
                ck.write(json.dumps({"shard": i, "result": res}).encode() + b"\n")
                ck.flush()
            yield res
    finally:
        if pool:
            pool.terminate()
            _worker_fn = None
        if ck:
            ck.close()


# the handlers' closures call these by their module names when a shard runs,
# so a wrapper installed in the module (a profiler's) sees every shard
def _verify_shard(bounds, table):
    lo, hi = bounds
    return verify_grimm_summary(hi, table, lo=lo).to_json()


def _scan_shard(bounds, table, eps, c0, stride):
    start, stop = bounds
    return exceptional_scan(stop - 1, eps, table, c0=c0, stride=stride, start=start)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, exit_flag)
# ---------------------------------------------------------------------------


def _search(fn, args) -> int:
    """``fn(--n, table)`` for g or g1; a search past its diagnostic cap is a
    resource limit, not a counterexample, and is refused naming --n."""
    table = _get_table(search_table_limit(args.n), args, "--n")
    try:
        return fn(args.n, table)
    except SearchCapExceeded as e:
        raise ValueError(f"--n {args.n}: {e}") from None


def _h_g(args):
    return [{"n": args.n, "g": _search(g, args)}], 0


def _h_g1(args):
    return [{"n": args.n, "g1": _search(g1, args)}], 0


def _h_represent(args):
    table = _get_table(isqrt(args.n + args.k) + 1, args, "--n plus --k")
    res = has_representation(args.n, args.k, table)
    row = {"n": args.n, "k": args.k, "status": res.status, "certificate": res.certificate}
    return [row], 0


def _run_rows(limit, witness):
    """Yield the row of every run of composites between consecutive primes
    <= ``limit``, one sieve chunk at a time; ``witness`` maps the p of each
    run that is not representable to its Hall witness."""
    last = []  # the previous chunk's largest prime
    for seg in segments(2, limit):
        ps = last + seg.tolist()
        for p, q in zip(ps, ps[1:]):
            if q - p > 1:
                yield {
                    "p": p,
                    "k": q - p - 1,
                    "status": "not_representable" if p in witness else "representable",
                    "witness": witness.get(p, ""),
                }
        last = ps[-1:]


def _h_verify_grimm(args):
    table = _get_table(isqrt(args.limit) + 1, args, "--limit")
    meta = {"limit": args.limit}
    shards = _shards(
        args, 2, args.limit, SHARD_SPAN, lambda ab: _verify_shard(ab, table), meta,
    )
    s = reduce(
        VerifySummary.merge, map(VerifySummary.from_json, shards),
        VerifySummary(lo=2, hi=2, runs=0, failures=(), max_k=0, max_k_p=0),
    )
    failures = len(s.failures)
    if args.emit_runs:
        # every run between consecutive primes is representable except the
        # failures the shards reported, with their Hall witnesses
        witness = {r.p: r.result.certificate for r in s.failures}
        rows = _run_rows(args.limit, witness)
        summary = f"runs={s.runs} failures={failures} max_k={s.max_k} at p={s.max_k_p}"
        print(summary, file=sys.stderr)
    else:
        rows = [{
            "limit": args.limit, "runs": s.runs, "failures": failures,
            "max_k": s.max_k, "max_k_p": s.max_k_p,
        }]
    for r in s.failures:
        print(f"NOT REPRESENTABLE: {r.csv_row()}", file=sys.stderr)
    return rows, (1 if failures else 0)


def _h_gap_scan(args):
    shards = _shards(
        args, 2, args.limit, SHARD_SPAN,
        lambda ab: gap_check(ab[1], lo=ab[0]).to_json(), {"limit": args.limit},
    )
    s = reduce(
        GapScanSummary.merge, map(GapScanSummary.from_json, shards),
        GapScanSummary(limit=2, pairs=0, violations=(), max_gap=0, max_gap_p=0),
    )
    for v in s.violations:
        print(f"GAP BOUND VIOLATED: p={v.p} next={v.next_p} gap={v.gap}", file=sys.stderr)
    row = asdict(s) | {"limit": args.limit, "violations": len(s.violations)}
    return [row], (1 if s.violations else 0)


def _h_dusart(args):
    rep = check_dusart(args.limit)
    rows = [
        {
            "bound": "pi_upper",
            "limit": args.limit,
            "checked": rep.pi_points_checked,
            "violations": len(rep.pi_violations),
            "min_slack": rep.pi_min_slack,
        },
        {
            "bound": "theta_upper",
            "limit": args.limit,
            "checked": rep.theta_primes_checked,
            "violations": len(rep.theta_violations),
            "min_slack": rep.theta_min_slack,
        },
    ]
    return rows, (0 if rep.ok else 1)


def _h_psi(args):
    x, y = args.x, args.y
    # the pi table of x is refused before it is allocated
    if math.floor(y) < x and isqrt(x) > PI_TABLE_MAX_ROOT:
        raise ValueError(
            f"--x must be below {(PI_TABLE_MAX_ROOT + 1) ** 2} unless --y reaches "
            f"it, the pi table's bound; got {x}"
        )
    return [{"x": x, "y": y, "psi": psi(x, y)}], 0


def _h_psi_window(args):
    # the window must end within int64, and --y be in reach of the pi table
    # that counts pi(y), before the table is built
    if args.x + args.z > WINDOW_MAX_END:
        raise ValueError(
            f"--x plus --z must be at most {WINDOW_MAX_END} (2^63 - 1); "
            f"got {args.x} + {args.z}"
        )
    if isqrt(math.floor(args.y)) > PI_TABLE_MAX_ROOT:
        raise ValueError(
            f"--y must be below {(PI_TABLE_MAX_ROOT + 1) ** 2}, the pi table's "
            f"bound; got {args.y}"
        )
    table = _get_table(window_table_limit(args.x, args.z, args.y), args, "--y")
    return [asdict(psi_window(args.x, args.z, args.y, table))], 0


def _h_rho(args):
    t_max = args.t_max
    if args.t is not None:
        if not 0 <= args.t <= MAX_T:
            raise ValueError(f"--t must be in [0, {MAX_T}], got {args.t}")
        t_max = max(t_max, math.ceil(args.t))
        if not args.dump:
            # the point reads nodes up to ceil(t) only
            t_max = min(t_max, math.ceil(args.t) + 1)
    table = build_rho_table(t_max=t_max, step=args.step)
    if args.dump:
        rows = [
            {"t": i * table.step, "rho": float(v)}
            for i, v in enumerate(table.values)
        ]
    else:
        if args.t is None:
            raise ValueError("provide --t for a point value or --dump for the grid")
        rows = [{"t": args.t, "rho": rho(args.t, table)}]
    return rows, 0


def _h_exceptional_scan(args):
    c0 = scan_c0(args.eps, args.stride, args.c0)
    table = _get_table(int(args.x_max**args.eps) + 2, args, "--x-max")
    # SHARD_SPAN sampled n per shard, and at least one shard; the scan
    # takes no --checkpoint
    span = args.stride * SHARD_SPAN
    shards = _shards(
        args, 1, args.x_max + 1, span,
        lambda ab: _scan_shard(ab, table, args.eps, c0, args.stride), {},
    )
    rep = reduce(ExceptionalScanReport.merge, shards)
    row = asdict(rep) | {"first_failures": ";".join(map(str, rep.first_failures))}
    return [row], 0


def _h_ram_sum(args):
    w = window_exponent_floor(args.x, args.alpha)
    table = _get_table(isqrt(args.x + w) + 1, args, "--x")
    res = ram_sum(args.x, args.alpha, table, delta_target=args.delta_target)
    row = asdict(res)
    del row["window"]  # not a column of the printed row
    return [row], 0


def _h_rd(args):
    if args.r > args.s:
        raise ValueError(f"--r must be at most --s, got --r {args.r} and --s {args.s}")
    val = r_d(args.x, args.alpha, args.r, args.s, args.d)
    return (
        [
            {
                "x": args.x,
                "alpha": args.alpha,
                "R": args.r,
                "S": args.s,
                "d": args.d,
                "rd": val,
            }
        ],
        0,
    )


def _h_phi_sum(args):
    if args.v1 <= args.v:
        raise ValueError(f"--v1 must exceed --v, got --v {args.v} and --v1 {args.v1}")
    val = phi_sum(args.v, args.v1, args.eta)
    return [{"V": args.v, "V1": args.v1, "eta": args.eta, "phi_sum": val}], 0


def _exponent_row(lam: float, eps_prime: float) -> dict:
    rep = expo.exponent_report(lam, eps_prime)
    return {
        "lambda": float(rep.lam),
        "alpha": float(rep.alpha),
        "delta": float(rep.delta),
        "gamma": float(rep.gamma),
        "alpha1": rep.alpha1,
    }


def _h_exponents(args):
    if args.grid is not None:
        lo, hi = float(expo.LAMBDA_LO), float(expo.LAMBDA_HI)
        step = (hi - lo) / (args.grid + 1)
        lams = [lo + i * step for i in range(1, args.grid + 1)]
        where = "the --grid point lambda ="
    elif args.lam is None:
        raise ValueError("provide --lambda or --grid N")
    else:
        lams, where = [args.lam], "--lambda"
    # delta = 1/4 + lambda/2 - eps' depends on both flags, so no parser type
    # can bound --eps-prime
    for lam in lams:
        if expo.delta_of_lambda(lam, args.eps_prime) < 0:
            raise ValueError(
                f"--eps-prime {args.eps_prime:g} exceeds 1/4 + lambda/2 at "
                f"{where} {lam:g}, so delta would be negative"
            )
    return [_exponent_row(lam, args.eps_prime) for lam in lams], 0


# ---------------------------------------------------------------------------
# parser / driver
# ---------------------------------------------------------------------------


def _checked(cast, accept, requirement: str):
    """argparse type: ``cast(text)``, rejected unless ``accept(value)``
    (errors name the flag)."""

    def parse(text):
        value = cast(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _positive(cast):
    return _checked(cast, lambda v: v > 0, "positive")


def _non_negative(cast):
    return _checked(cast, lambda v: v >= 0, "non-negative")


_window_n = _checked(int, lambda v: v >= 2, "at least 2")
_window_k = _checked(int, lambda v: 1 <= v <= MAX_WINDOW, f"in [1, {MAX_WINDOW}]")
_finite_float = _checked(float, math.isfinite, "finite")
_positive_finite = _checked(float, lambda v: 0 < v < math.inf, "positive and finite")
_ram_alpha = _checked(float, lambda v: 0 < v <= 0.5, "in (0, 1/2]")
# the range scans stay within 2^31, the range they are tested on
_scan_limit = _checked(int, lambda v: 0 < v <= MAX_LIMIT, f"in [1, {MAX_LIMIT}]")
_psi_x = _checked(int, lambda v: 0 <= v <= MAX_INPUT, f"in [0, {MAX_INPUT}]")
_scan_n = _checked(int, lambda v: 0 < v <= MAX_INPUT, f"in [1, {MAX_INPUT}]")
_rho_t_max = _checked(float, lambda v: 1 <= v <= MAX_T, f"in [1, {MAX_T}]")
_rho_step = _checked(
    float, lambda v: nodes_per_unit(v) is not None,
    f"1/m for an integer m in [2, {MAX_NODES_PER_UNIT}]",
)
_scan_eps = _checked(float, lambda v: 0 < v < 0.5, "in (0, 1/2)")
_phi_v = _checked(int, lambda v: v >= 3, "at least 3")
_lambda = _checked(
    float, lambda v: expo.LAMBDA_LO < v < expo.LAMBDA_HI, "strictly in (1/33, 1/29)",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grimmsmooth",
        description="Exact computations around Grimm's conjecture and smooth numbers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, sharded=False, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        if sharded:  # only the sharded commands can start a pool
            p.add_argument("--workers", type=_positive(int), default=None)
        p.add_argument(
            "--manifest",
            default=None,
            help="manifest sidecar path (default: grimmsmooth-<cmd>.manifest.json; "
            "'-' disables)",
        )
        return p

    p = add("g", _h_g, help="largest k such that (n, k) has a prime representation")
    p.add_argument("--n", type=_window_n, required=True)

    p = add("g1", _h_g1, help="largest k with omega-prefix condition holding")
    p.add_argument("--n", type=_window_n, required=True)

    p = add("represent", _h_represent, help="decide one (n, k) window with certificate")
    p.add_argument("--n", type=_window_n, required=True)
    p.add_argument("--k", type=_window_k, required=True)

    p = add(
        "verify-grimm", _h_verify_grimm, sharded=True,
        help="verify all composite runs below limit",
    )
    p.add_argument("--limit", type=_scan_limit, required=True)
    p.add_argument("--emit-runs", action="store_true")
    p.add_argument("--checkpoint", default=None)

    p = add("gap-scan", _h_gap_scan, sharded=True, help="prime gaps against 1 + (log p)^2")
    p.add_argument("--limit", type=_scan_limit, required=True)
    p.add_argument("--checkpoint", default=None)

    p = add("dusart-check", _h_dusart, help="explicit pi and theta bounds up to limit")
    p.add_argument("--limit", type=_scan_limit, required=True)

    p = add("psi", _h_psi, help="global smooth count Psi(x, y)")
    p.add_argument("--x", type=_psi_x, required=True)
    p.add_argument("--y", type=_positive_finite, required=True)

    p = add(
        "psi-window", _h_psi_window,
        help="smooth count in (x, x+z]; above pi(y) it certifies g(x) < z",
    )
    p.add_argument("--x", type=_non_negative(int), required=True)
    p.add_argument("--z", type=_positive(int), required=True)
    p.add_argument("--y", type=_positive_finite, required=True)

    p = add("rho", _h_rho, help="Dickman rho at a point, or the whole grid")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-max", type=_rho_t_max, default=8.0)
    p.add_argument("--step", type=_rho_step, default=1e-3)
    p.add_argument("--dump", action="store_true")

    p = add(
        "exceptional-scan", _h_exceptional_scan, sharded=True,
        help="short-window smoothness failures",
    )
    p.add_argument("--x-max", type=_scan_n, required=True)
    p.add_argument("--eps", type=_scan_eps, required=True)
    p.add_argument("--c0", type=_positive_finite, default=None)
    p.add_argument("--stride", type=_scan_n, default=1)

    p = add("ram-sum", _h_ram_sum, help="scaled prime-counting sum S(x, alpha)")
    p.add_argument("--x", type=_positive(int), required=True)
    p.add_argument("--alpha", type=_ram_alpha, required=True)
    p.add_argument("--delta-target", type=_finite_float, default=None)

    p = add("rd", _h_rd, help="floor-difference sum R_d")
    p.add_argument("--x", type=_positive(int), required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--r", type=_positive(int), required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=_positive(int), required=True)

    p = add("phi-sum", _h_phi_sum, help="sawtooth sum over eta/n")
    p.add_argument("--v", type=_phi_v, required=True)
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--eta", type=_finite_float, required=True)

    p = add("exponents", _h_exponents, help="lambda -> (alpha, delta, gamma, alpha1)")
    p.add_argument("--lambda", dest="lam", type=_lambda, default=None)
    p.add_argument("--eps-prime", type=_non_negative(float), default=0.0)
    p.add_argument("--grid", type=_positive(int), default=None)

    return parser


_PARSER = _build_parser()

_NON_PARAM_KEYS = {
    "handler", "subcommand", "manifest", "worker_count", "table_limit_used",
}


def _manifest_params(args) -> dict:
    out = {}
    for k, v in vars(args).items():
        if k in _NON_PARAM_KEYS or v is None:
            continue
        out[k] = v
    return out


def _peak_rss_kib() -> dict:
    """Peak resident set size of this process and of its reaped children
    (the shard workers), in KiB as Linux reports ``ru_maxrss``."""
    # imported here, not with the module: a module-level import measured
    # about 1 MiB more peak RSS in the forked shard workers of verify-grimm
    import resource

    return {
        "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def run(argv, stdout=None, manifest_dir: str | None = None) -> int:
    """Parse argv, execute, emit output and manifest; returns the exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    t0 = time.perf_counter()
    out = stdout if stdout is not None else sys.stdout
    digest = hashlib.sha256()
    # a sharded command's worker count is --workers, else the CPU count;
    # every other command has one
    workers = getattr(args, "workers", 1)
    args.worker_count = workers if workers is not None else os.cpu_count() or 1
    args.table_limit_used = None
    try:
        rows, flag = args.handler(args)
        for piece in _emit(rows, args.format):
            out.write(piece)
            digest.update(piece.encode())
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # a resource limit, not a counterexample
        print(f"error: out of memory. {e}".rstrip(), file=sys.stderr)
        return 2

    manifest = {
        "subcommand": args.subcommand,
        "parameters": _manifest_params(args),
        "table_limit": args.table_limit_used,
        "worker_count": args.worker_count,
        "wall_time_s": time.perf_counter() - t0,
        "result_digest": digest.hexdigest(),
        "peak_rss_kib": _peak_rss_kib(),
    }
    path = args.manifest
    if path != "-":
        if path is None:
            path = f"grimmsmooth-{args.subcommand}.manifest.json"
            if manifest_dir:
                path = os.path.join(manifest_dir, path)
        try:
            fh = open(path, "w")
        except OSError as e:
            print(f"error: --manifest {path}: {e.strerror}", file=sys.stderr)
            return 2
        with fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return flag


def replay_manifest(path: str, stdout=None) -> tuple[int, str]:
    """Re-run the invocation recorded in a manifest; returns (code, digest)."""
    with open(path) as fh:
        data = json.load(fh)
    argv = [data["subcommand"]]
    for k in sorted(data["parameters"]):
        v = data["parameters"][k]
        flag = "--" + k.replace("_", "-")
        if k == "lam":
            flag = "--lambda"
        if isinstance(v, bool):
            if v:
                argv.append(flag)
        else:
            argv.extend([flag, str(v)])
    argv.extend(["--manifest", "-"])
    # each piece run writes is hashed and forwarded, never kept, as in run
    digest = hashlib.sha256()

    def write(piece: str) -> None:
        digest.update(piece.encode())
        if stdout is not None:
            stdout.write(piece)

    code = run(argv, stdout=SimpleNamespace(write=write))
    return code, digest.hexdigest()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
