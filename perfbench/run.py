#!/usr/bin/env python3
"""grimmsmooth benchmark.

    python3 perfbench/run.py --workload {scan,small} \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  One process issues the workload's calls one after another for
up to ``--seconds`` seconds (at least three iterations), checks every
output, and prints one line per metric followed by a final JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured at ``WORKERS`` with
only the table builds timed.  ``--trace 1`` repeats, at least three times, a
cycle of three passes: untraced at ``WORKERS``, then an untraced one-worker
twin and the same pass traced, in alternating order (spans are lost in
forked shard workers, so tracing runs at one worker); it reports the
per-layer metrics, medians over the traced passes.

Manifests and a JSON record of each run (inputs, environment, samples,
spans) go to ``perfbench/out/``.  The exit code is 0 only when every output
was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in src/ or tests/

from spans import LAYER_SPANS, LAYERS, SETUP_SPANS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_ITERATIONS = 3
WORKERS = 2  # the CLI's shard pool width: one per core of a 2-core machine
POOLED = ("verify-grimm", "exceptional-scan")  # the commands that use the pool


def _import_package():
    """Import grimmsmooth from this checkout's src/ and the test oracles."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import grimmsmooth
    import oracles  # noqa: F401  (used by the workload checks)

    if not Path(grimmsmooth.__file__).resolve().is_relative_to(src):
        raise ImportError(f"grimmsmooth was found at {grimmsmooth.__file__}, not under {src}")


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
    }


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Sample:
    """One timed iteration."""

    wall: float
    ops: list
    items: int
    stats: dict | None  # span aggregates recorded during the iteration

    @property
    def setup(self) -> float:
        return sum(
            self.stats[name].total_s for name in ("primes.build", "dickman.build_rho_table")
        )


def _iteration(wl, workers, tracer=None) -> Sample:
    from grimmsmooth import cli

    # cli caches the prime table across in-process run() calls; a real CLI
    # invocation is a fresh process and always builds it
    cli._table_cache = None
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    ops, items = wl.iterate(workers, OUT)
    wall = time.perf_counter() - t0
    return Sample(wall, ops, items, tracer.stats if tracer is not None else None)


def _loop(seconds, min_count, step):
    """Call ``step()`` ``min_count`` times, then again while the median step
    so far still ends within ``seconds`` of the start (so a run's length
    does not depend on how far its last step overshoots)."""
    results, times = [], []
    start = time.perf_counter()
    while len(results) < min_count or (
        time.perf_counter() - start + statistics.median(times) <= seconds
    ):
        t0 = time.perf_counter()
        results.append(step())
        times.append(time.perf_counter() - t0)
    return results


def _pooled_seconds(sample) -> float:
    return sum(op.seconds for op in sample.ops if op.label in POOLED)


def _peak_rss_mib() -> float:
    # ru_maxrss is in KiB on Linux; forked shard workers show up as children
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def _end_to_end(wl, samples, peak_rss_mib) -> tuple[dict, dict]:
    walls = [s.wall for s in samples]
    calls = [seconds for s in samples for seconds in wl.call_seconds(s.ops)]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(s.setup for s in samples), "s"),
        # work completed per second: the run's items over its time outside set-up
        "items_per_s": (
            sum(s.items for s in samples) / sum(s.wall - s.setup for s in samples), "1/s"
        ),
        "call_ms.p50": (1e3 * statistics.median(calls), "ms"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4)  # MIN_ITERATIONS >= 2
    notes = {
        "wall_s": f"median of {len(walls)} iterations; q1 {q1:.4f}, q3 {q3:.4f}",
        "call_ms.p50": f"{len(calls)} calls of {wl.call_name}",
        "items_per_s": f"{samples[0].items} items per iteration, {len(samples)} iterations",
    }
    if len(calls) >= 1000:
        # the highest percentile with at least ten calls beyond it; printed,
        # not bounded: its run-to-run spread on a shared 2-core machine is
        # wider than any bound the benchmark may set
        notes["call_ms.p99"] = (
            f"{1e3 * _percentile(calls, 0.99):.6g} ms (nearest rank of {len(calls)} calls)"
        )
    return metrics, notes


def _layer_metrics(stats) -> dict:
    fr = stats["intervals.factor_range"]
    wr = stats["intervals.window_residuals"]
    runs = stats["grimm.verify_grimm_summary"].items
    shards = stats["cli.verify_shard"].durations + stats["cli.scan_shard"].durations
    shard_max = max(shards, default=0.0)
    shard_mean = statistics.fmean(shards) if shards else 0.0
    m = {
        "primes.build_s": (stats["primes.build"].total_s, "s"),
        "primes.table_bytes": (stats["primes.build"].items / 16, "bytes"),
        "primes.primes_in_s": (stats["primes.primes_in"].total_s, "s"),
        "primes.pi_calls": (stats["primes.pi"].calls, "count"),
        "primes.pi_s": (stats["primes.pi"].self_s + stats["primes.pi_bulk"].self_s, "s"),
        "primes.prime_list_calls": (stats["primes.prime_list"].calls, "count"),
        "primes.prime_list_s": (stats["primes.prime_list"].total_s, "s"),
        "intervals.factor_range_calls": (fr.calls, "count"),
        "intervals.factor_range_rows": (fr.items, "count"),
        "intervals.factor_range_self_s": (fr.self_s, "s"),
        "intervals.window_residuals_calls": (wr.calls, "count"),
        "intervals.window_residuals_elements": (wr.items, "count"),
        "intervals.window_residuals_self_s": (wr.self_s, "s"),
        "intervals.small_share": (wr.small_calls / wr.calls if wr.calls else 0.0, "ratio"),
        "grimm.verify_self_s": (stats["grimm.verify_grimm_summary"].self_s, "s"),
        "grimm.rows_per_run": (fr.items / runs if runs else 0.0, "rows/run"),
        "grimm.g_self_s": (stats["grimm.g"].self_s, "s"),
        "grimm.g1_self_s": (stats["grimm.g1"].self_s, "s"),
        "smooth.psi_self_s": (stats["smooth.psi"].self_s, "s"),
        "dickman.build_s": (stats["dickman.build_rho_table"].total_s, "s"),
        "sums.ram_sum_self_s": (stats["sums.ram_sum"].self_s, "s"),
        "sums.pi_window_terms_s": (stats["sums.pi_window_terms"].total_s, "s"),
        "cli.run_self_s": (stats["cli.run"].self_s, "s"),
        "cli.shard_s.max": (shard_max, "s"),
        "cli.shard_s.mean": (shard_mean, "s"),
        "cli.shard_imbalance": (shard_max / shard_mean if shards else 0.0, "ratio"),
    }
    for layer in LAYERS:
        mine = [v for k, v in stats.items() if k.startswith(layer + ".")]
        m[f"{layer}.calls"] = (sum(v.calls for v in mine), "count")
        m[f"{layer}.self_s"] = (sum(v.self_s for v in mine), "s")
    return m


def _plain_run(wl, seconds):
    with Tracer(SETUP_SPANS) as setup:
        samples = _loop(seconds, MIN_ITERATIONS, lambda: _iteration(wl, WORKERS, setup))
    metrics, notes = _end_to_end(wl, samples, _peak_rss_mib())
    return samples, metrics, notes, {}


def _traced_run(wl, seconds):
    tracer = Tracer(LAYER_SPANS)
    count = 0

    def traced_pass():
        with tracer:
            return _iteration(wl, 1, tracer)

    def cycle():
        nonlocal count
        count += 1
        wide = _iteration(wl, WORKERS)
        # alternate which one-worker pass runs first, so that a machine
        # slowing down over the cycle does not always weigh on the same side
        if count % 2:
            serial = _iteration(wl, 1)
            traced = traced_pass()
        else:
            traced = traced_pass()
            serial = _iteration(wl, 1)
        return wide, serial, traced

    cycles = _loop(seconds, MIN_ITERATIONS, cycle)
    per_cycle = []
    for wide, serial, traced in cycles:
        m = _layer_metrics(traced.stats)
        m["cli.serial_s"] = (serial.wall, "s")
        m["cli.parallel_eff"] = (
            _pooled_seconds(serial) / (WORKERS * _pooled_seconds(wide)), "ratio"
        )
        m["trace.overhead_s"] = (traced.wall - serial.wall, "s")
        per_cycle.append(m)
    metrics = {
        name: (statistics.median(m[name][0] for m in per_cycle), unit)
        for name, (_, unit) in per_cycle[0].items()
    }
    notes = {"trace.overhead_s": f"median of {len(cycles)} traced passes"}
    if tracer.missing:
        notes["missing spans"] = ", ".join(tracer.missing)
    samples = [s for c in cycles for s in c]
    extra = {"spans": [_span_summary(traced.stats) for _, _, traced in cycles]}
    return samples, metrics, notes, extra


def _span_summary(stats) -> dict:
    return {
        name: {"calls": st.calls, "items": st.items, "total_s": st.total_s, "self_s": st.self_s}
        for name, st in stats.items()
        if st.calls
    }


def _count_failures(wl, samples) -> tuple[int, int, list[str]]:
    """(attempted, failed, errors): every op is compared with the checked
    outputs of the first iteration."""
    reference = samples[0].ops
    try:
        errors = wl.check(reference, OUT)
    except (ValueError, KeyError, IndexError) as e:
        errors = [f"output could not be checked: {e!r}"]
    attempted = 0
    bad = []
    for s in samples:
        for op, ref in zip(s.ops, reference, strict=True):
            attempted += 1
            if not op.ok or op.output != ref.output:
                bad.append(op.label)
    failed = attempted if errors else len(bad)
    if bad:
        errors.append(f"{len(bad)} ops failed or differ from the first iteration, first {bad[0]}")
    return attempted, failed, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "small"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        _import_package()
    except ImportError as e:
        print(f"error: cannot import grimmsmooth from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    from grimmsmooth import cli
    from workloads import WORKLOADS

    for var in (cli.ENV_TABLE_LIMIT, cli.ENV_WORKERS):
        os.environ.pop(var, None)
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    run = _traced_run if args.trace else _plain_run
    samples, metrics, notes, extra = run(wl, args.seconds)
    attempted, failed, errors = _count_failures(wl, samples)

    env = _environment()
    print(f"# workload {wl.name} seed {args.seed} inputs {wl.inputs()} workers {WORKERS}")
    print(f"# {json.dumps(env)}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for key in notes.keys() - metrics.keys():
        print(f"# {key}: {notes[key]}")
    for e in errors[:20]:
        print(f"ERROR {e}", file=sys.stderr)

    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result, workload=wl.name, seed=args.seed, trace=args.trace, workers=WORKERS,
        inputs=wl.inputs(), environment=env, errors=errors,
        walls=[s.wall for s in samples], **extra,
    )
    out_file = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
