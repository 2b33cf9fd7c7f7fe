"""Command-line front end.

One subcommand per library operation, deterministic CSV/JSON emission, and a
reproducible run manifest next to every invocation.

Determinism contract: for fixed flags the emitted bytes are identical across
runs and across ``--workers`` settings.  Work is split into fixed-size shards
whose boundaries depend only on the requested range (never on the worker
count); workers merely execute shards in parallel, and results are merged in
shard order.  Long scans can checkpoint per shard and resume.

Exit codes: 0 success, 1 verification failure found (a Grimm counterexample
or a violated bound -- newsworthy, not an error), 2 usage/resource errors.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import isqrt

from . import __version__
from . import exponents as expo
from .dickman import MAX_T, build_rho_table, rho
from .grimm import g, g1, has_representation, search_table_limit, verify_grimm_summary
from .primes import PrimeTable, TableLimitError, check_dusart, gap_check
from .smooth import (
    ExceptionalScanReport, exceptional_scan, grimm_upper_bound, psi, psi_window, scan_c0,
)
from .sums import phi_sum, r_d, ram_sum, window_exponent_floor

ENV_TABLE_LIMIT = "GRIMMSMOOTH_TABLE_LIMIT"
ENV_WORKERS = "GRIMMSMOOTH_WORKERS"

# Fixed shard span for the range scans; independent of worker count so that
# the merged output is too.
SHARD_SPAN = 1 << 21

_table_cache: PrimeTable | None = None


@dataclass(frozen=True)
class RunManifest:
    subcommand: str
    parameters: dict
    table_limit: int | None
    worker_count: int
    wall_time_s: float
    result_digest: str
    peak_rss_kib: dict  # {"self": ..., "children": ...}, getrusage maxima


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _emit(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows, default=_fmt, indent=None, separators=(",", ":")))
        out.write("\n")
        return
    if not rows:
        return
    cols = list(rows[0].keys())
    out.write(",".join(cols) + "\n")
    for r in rows:
        out.write(",".join(_fmt(r.get(c)) for c in cols) + "\n")


def _get_table(required: int, args) -> PrimeTable:
    global _table_cache
    limit = max(2, int(required))
    if args.table_floor is not None:
        limit = max(limit, args.table_floor)
    if args.table_limit is not None:
        if args.table_limit < required:
            raise TableLimitError(
                f"--table-limit {args.table_limit} is below the required {required}",
                required=required,
            )
        limit = args.table_limit
    if _table_cache is not None and _table_cache.limit >= limit:
        return _table_cache
    _table_cache = PrimeTable(limit)
    return _table_cache


def _env_int(name: str) -> int | None:
    text = os.environ.get(name)
    if not text:
        return None
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def _resolve_env(args) -> None:
    """Read the environment defaults once, onto ``args``."""
    workers = args.workers if args.workers is not None else _env_int(ENV_WORKERS)
    args.worker_count = (os.cpu_count() or 1) if workers is None else max(1, workers)
    args.table_floor = _env_int(ENV_TABLE_LIMIT)


# ---------------------------------------------------------------------------
# sharded execution with optional per-shard checkpointing
# ---------------------------------------------------------------------------

_worker_table: PrimeTable | None = None
_worker_fn = None


def _pool_entry(item):
    idx, payload = item
    return idx, _worker_fn(payload, _worker_table)


def _run_shards(shards, shard_fn, table, workers, checkpoint=None, meta=None):
    """Run ``shard_fn(payload, table)`` over every shard, in shard order.

    Results are returned as a list indexed like ``shards``.  With a
    checkpoint path, completed shards are loaded from the file and newly
    computed ones appended (JSON lines, one per shard).
    """
    done: dict[int, object] = {}
    ck = None
    if checkpoint:
        lines = []
        if os.path.exists(checkpoint):
            with open(checkpoint, "rb+") as fh:
                data = fh.read()
                # a run killed mid-write leaves an unterminated last line
                end = data.rfind(b"\n") + 1
                fh.truncate(end)
            lines = data[:end].decode().splitlines()
        if lines:
            header = json.loads(lines[0])
            if header.get("meta") != meta:
                raise ValueError(
                    f"checkpoint {checkpoint} was written for parameters "
                    f"{header.get('meta')}, current run has {meta}"
                )
            for line in lines[1:]:
                rec = json.loads(line)
                done[rec["shard"]] = rec["result"]
            ck = open(checkpoint, "a")
        else:
            ck = open(checkpoint, "w")
            ck.write(json.dumps({"meta": meta}) + "\n")
            ck.flush()

    todo = [(i, s) for i, s in enumerate(shards) if i not in done]
    try:
        # a pool for a single shard only adds its start-up
        if len(todo) > 1 and workers > 1 and hasattr(os, "fork"):
            import multiprocessing as mp

            global _worker_table, _worker_fn
            _worker_table = table
            _worker_fn = shard_fn
            with mp.get_context("fork").Pool(min(workers, len(todo))) as pool:
                for idx, res in pool.imap(_pool_entry, todo):
                    done[idx] = res
                    if ck:
                        ck.write(json.dumps({"shard": idx, "result": res}) + "\n")
                        ck.flush()
            _worker_table = None
            _worker_fn = None
        else:
            for idx, payload in todo:
                res = shard_fn(payload, table)
                done[idx] = res
                if ck:
                    ck.write(json.dumps({"shard": idx, "result": res}) + "\n")
                    ck.flush()
    finally:
        if ck:
            ck.close()
    return [done[i] for i in range(len(shards))]


def _range_shards(limit: int) -> list[tuple[int, int]]:
    return [(a, min(a + SHARD_SPAN, limit)) for a in range(2, limit, SHARD_SPAN)]


def _verify_shard(bounds, table):
    lo, hi = bounds
    s = verify_grimm_summary(hi, table, lo=lo)
    return {
        "runs": s.runs,
        "max_k": s.max_k,
        "max_k_p": s.max_k_p,
        "failures": [r.csv_row() for r in s.failures],
    }


def _gap_shard(bounds, table):
    lo, hi = bounds
    s = gap_check(hi, table, lo=lo)
    return {
        "pairs": s.pairs,
        "max_gap": s.max_gap,
        "max_gap_p": s.max_gap_p,
        "violations": [
            [r.p, r.next_p, r.gap, r.cramer_bound] for r in s.violations
        ],
    }


def _scan_shard(payload, table):
    start, stop, eps, c0, stride = payload
    return exceptional_scan(stop, eps, table, c0=c0, stride=stride, start=start)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (rows, exit_flag, table_limit or None)
# ---------------------------------------------------------------------------


def _h_g(args):
    table = _get_table(search_table_limit(args.n), args)
    return [{"n": args.n, "g": g(args.n, table)}], 0, table.limit


def _h_g1(args):
    table = _get_table(search_table_limit(args.n), args)
    return [{"n": args.n, "g1": g1(args.n, table)}], 0, table.limit


def _h_represent(args):
    table = _get_table(isqrt(args.n + args.k) + 1, args)
    res = has_representation(args.n, args.k, table)
    if res.representable:
        cert = ";".join(str(p) for p in res.assignment)
        status = "representable"
    else:
        cert = ";".join(str(i) for i in sorted(res.hall_witness))
        status = "not_representable"
    return (
        [{"n": args.n, "k": args.k, "status": status, "certificate": cert}],
        0,
        table.limit,
    )


def _h_verify_grimm(args):
    table = _get_table(args.limit, args)
    shards = _range_shards(args.limit)
    meta = {
        "cmd": "verify-grimm", "limit": args.limit, "span": SHARD_SPAN,
        "version": __version__,
    }
    parts = _run_shards(
        shards, _verify_shard, table, args.worker_count, args.checkpoint, meta
    )
    runs = sum(p["runs"] for p in parts)
    failures = [row for p in parts for row in p["failures"]]
    max_k, max_k_p = 0, 0
    for p in parts:
        if p["max_k"] > max_k:
            max_k, max_k_p = p["max_k"], p["max_k_p"]
    if args.emit_runs:
        # every run between consecutive primes is representable except the
        # failures the shards reported, each "p,k,not_representable,witness"
        witness = {int(p): w for p, _, _, w in (f.split(",") for f in failures)}
        ps = table.primes_in(2, args.limit).tolist()
        rows = [
            {
                "p": p,
                "k": q - p - 1,
                "status": "not_representable" if p in witness else "representable",
                "witness": witness.get(p, ""),
            }
            for p, q in zip(ps, ps[1:])
            if q - p > 1
        ]
        print(
            f"runs={runs} failures={len(failures)} max_k={max_k} at p={max_k_p}",
            file=sys.stderr,
        )
    else:
        rows = [
            {
                "limit": args.limit,
                "runs": runs,
                "failures": len(failures),
                "max_k": max_k,
                "max_k_p": max_k_p,
            }
        ]
    for row in failures:
        print(f"NOT REPRESENTABLE: {row}", file=sys.stderr)
    return rows, (1 if failures else 0), table.limit


def _h_gap_scan(args):
    table = _get_table(args.limit, args)
    shards = _range_shards(args.limit)
    meta = {
        "cmd": "gap-scan", "limit": args.limit, "span": SHARD_SPAN,
        "version": __version__,
    }
    parts = _run_shards(
        shards, _gap_shard, table, args.worker_count, args.checkpoint, meta
    )
    pairs = sum(p["pairs"] for p in parts)
    violations = [v for p in parts for v in p["violations"]]
    max_gap, max_gap_p = 0, 0
    for p in parts:
        if p["max_gap"] > max_gap:
            max_gap, max_gap_p = p["max_gap"], p["max_gap_p"]
    for v in violations:
        print(f"GAP BOUND VIOLATED: p={v[0]} next={v[1]} gap={v[2]}", file=sys.stderr)
    rows = [
        {
            "limit": args.limit,
            "pairs": pairs,
            "violations": len(violations),
            "max_gap": max_gap,
            "max_gap_p": max_gap_p,
        }
    ]
    return rows, (1 if violations else 0), table.limit


def _h_dusart(args):
    table = _get_table(args.limit, args)
    rep = check_dusart(args.limit, table)
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
    return rows, (0 if rep.ok else 1), table.limit


def _h_psi(args):
    required = min(int(args.y), isqrt(args.x)) if args.x else 2
    table = _get_table(required, args)
    return (
        [{"x": args.x, "y": args.y, "psi": psi(args.x, args.y, table)}],
        0,
        table.limit,
    )


def _h_psi_window(args):
    table = _get_table(max(isqrt(args.x + args.z), int(args.y)), args)
    rep = psi_window(args.x, args.z, args.y, table)
    return [asdict(rep)], 0, table.limit


def _h_grimm_bound(args):
    table = _get_table(max(isqrt(args.x + args.z), int(args.y)), args)
    b = grimm_upper_bound(args.x, args.y, args.z, table)
    row = {
        "x": args.x,
        "y": args.y,
        "z": args.z,
        "established": b is not None,
        "bound": b.bound if b else None,
        "count": b.count if b else None,
        "pi_y": b.pi_y if b else None,
        "first_smooth": b.first_smooth if b else None,
        "last_smooth": b.last_smooth if b else None,
    }
    return [row], 0, table.limit


def _h_rho(args):
    t_max = args.t_max
    if args.t is not None:
        if not 0 <= args.t <= MAX_T:
            raise ValueError(f"--t must be in [0, {MAX_T}], got {args.t}")
        t_max = max(t_max, math.ceil(args.t))
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
    return rows, 0, None


def _h_exceptional_scan(args):
    c0 = scan_c0(args.eps, args.stride, args.c0)
    table = _get_table(int(args.x_max**args.eps) + 2, args)
    # SHARD_SPAN sampled n per shard
    span = args.stride * SHARD_SPAN
    shards = [
        (a, min(a + span - 1, args.x_max), args.eps, c0, args.stride)
        for a in range(1, args.x_max + 1, span)
    ]
    parts = _run_shards(shards, _scan_shard, table, args.worker_count)
    evaluated = sum(p.evaluated for p in parts)
    failures = sum(p.failures for p in parts)
    first = [n for p in parts for n in p.first_failures][:20]
    rep = ExceptionalScanReport(
        x_max=args.x_max, eps=args.eps, c0=float(c0), stride=args.stride,
        sampled=sum(p.sampled for p in parts),
        degenerate=sum(p.degenerate for p in parts),
        evaluated=evaluated, failures=failures,
        failure_fraction=failures / evaluated if evaluated else 0.0,
        first_failures=tuple(first),
    )
    row = asdict(rep) | {"first_failures": ";".join(map(str, first))}
    return [row], 0, table.limit


def _h_ram_sum(args):
    w = window_exponent_floor(args.x, args.alpha)
    table = _get_table(isqrt(args.x + w) + 1, args)
    res = ram_sum(args.x, args.alpha, table, delta_target=args.delta_target)
    return (
        [
            {
                "x": res.x,
                "alpha": res.alpha,
                "sum": res.sum,
                "normalized": res.normalized,
                "heuristic": res.heuristic,
                "delta_target": res.delta_target,
            }
        ],
        0,
        table.limit,
    )


def _h_rd(args):
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
        None,
    )


def _h_phi_sum(args):
    val = phi_sum(args.v, args.v1, args.eta)
    return (
        [{"V": args.v, "V1": args.v1, "eta": args.eta, "phi_sum": val}],
        0,
        None,
    )


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
    if args.grid:
        lo, hi = float(Fraction(1, 33)), float(Fraction(1, 29))
        step = (hi - lo) / (args.grid + 1)
        rows = [
            _exponent_row(lo + i * step, args.eps_prime)
            for i in range(1, args.grid + 1)
        ]
    else:
        if args.lam is None:
            raise ValueError("provide --lambda or --grid N")
        rows = [_exponent_row(args.lam, args.eps_prime)]
    return rows, 0, None


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


_finite_float = _checked(float, math.isfinite, "finite")
_ram_alpha = _checked(float, lambda v: 0 < v <= 0.5, "in (0, 1/2]")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grimmsmooth",
        description="Exact computations around Grimm's conjecture and smooth numbers",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--table-limit", type=int, default=None)
        p.add_argument(
            "--manifest",
            default=None,
            help="manifest sidecar path (default: grimmsmooth-<cmd>.manifest.json; "
            "'-' disables)",
        )
        return p

    p = add("g", _h_g, help="largest k such that (n, k) has a prime representation")
    p.add_argument("--n", type=int, required=True)

    p = add("g1", _h_g1, help="largest k with omega-prefix condition holding")
    p.add_argument("--n", type=int, required=True)

    p = add("represent", _h_represent, help="decide one (n, k) window with certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("verify-grimm", _h_verify_grimm, help="verify all composite runs below limit")
    p.add_argument("--limit", type=_positive(int), required=True)
    p.add_argument("--emit-runs", action="store_true")
    p.add_argument("--checkpoint", default=None)

    p = add("gap-scan", _h_gap_scan, help="prime gaps against 1 + (log p)^2")
    p.add_argument("--limit", type=_positive(int), required=True)
    p.add_argument("--checkpoint", default=None)

    p = add("dusart-check", _h_dusart, help="explicit pi and theta bounds up to limit")
    p.add_argument("--limit", type=_positive(int), required=True)

    p = add("psi", _h_psi, help="global smooth count Psi(x, y)")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=_finite_float, required=True)

    p = add("psi-window", _h_psi_window, help="smooth count in (x, x+z]")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--y", type=_finite_float, required=True)

    p = add("grimm-bound", _h_grimm_bound, help="certified g(x) < z from a smooth window")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--z", type=int, required=True)

    p = add("rho", _h_rho, help="Dickman rho at a point, or the whole grid")
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--t-max", type=float, default=8.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--dump", action="store_true")

    p = add("exceptional-scan", _h_exceptional_scan, help="short-window smoothness failures")
    p.add_argument("--x-max", type=_positive(int), required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c0", type=_positive(float), default=None)
    p.add_argument("--stride", type=_positive(int), default=1)

    p = add("ram-sum", _h_ram_sum, help="scaled prime-counting sum S(x, alpha)")
    p.add_argument("--x", type=_positive(int), required=True)
    p.add_argument("--alpha", type=_ram_alpha, required=True)
    p.add_argument("--delta-target", type=float, default=None)

    p = add("rd", _h_rd, help="floor-difference sum R_d")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = add("phi-sum", _h_phi_sum, help="sawtooth sum over eta/n")
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--v1", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)

    p = add("exponents", _h_exponents, help="lambda -> (alpha, delta, gamma, alpha1)")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--eps-prime", type=float, default=0.0)
    p.add_argument("--grid", type=int, default=None)

    return parser


_NON_PARAM_KEYS = {"handler", "subcommand", "manifest", "worker_count", "table_floor"}


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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)

    t0 = time.perf_counter()
    buf = io.StringIO()
    try:
        _resolve_env(args)
        rows, flag, table_limit = args.handler(args)
        _emit(rows, args.format, buf)
    except (ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    payload = buf.getvalue()
    (stdout if stdout is not None else sys.stdout).write(payload)

    digest = hashlib.sha256(payload.encode()).hexdigest()
    manifest = RunManifest(
        subcommand=args.subcommand,
        parameters=_manifest_params(args),
        table_limit=table_limit,
        worker_count=args.worker_count,
        wall_time_s=time.perf_counter() - t0,
        result_digest=digest,
        peak_rss_kib=_peak_rss_kib(),
    )
    path = args.manifest
    if path != "-":
        if path is None:
            path = f"grimmsmooth-{args.subcommand}.manifest.json"
            if manifest_dir:
                path = os.path.join(manifest_dir, path)
        with open(path, "w") as fh:
            json.dump(asdict(manifest), fh, sort_keys=True, indent=2)
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
    buf = io.StringIO()
    code = run(argv, stdout=buf)
    payload = buf.getvalue()
    if stdout is not None:
        stdout.write(payload)
    return code, hashlib.sha256(payload.encode()).hexdigest()


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
