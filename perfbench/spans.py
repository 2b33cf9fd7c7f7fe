"""Span recording for the benchmark, done entirely from outside the package.

A :class:`Tracer` wraps chosen functions of ``grimmsmooth`` and records, per
span name, the calls, the items handled, the total time and the self time
(the span's duration minus the time covered by spans it caused).  Nothing
under ``src/`` is edited: a module-level function is replaced at every
binding site, i.e. in every ``grimmsmooth.*`` module namespace that holds it
(``cli`` imports ``window_residuals``, ``g``, ``psi`` ... by name, so wrapping
only the defining module would miss those calls); a ``PrimeTable`` method is
replaced on the class.  :meth:`Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

PACKAGE = "grimmsmooth"

# window_residuals takes its Python small-window path at or below this many
# elements.  Fixed here, not read from the package, so that the share stays
# comparable when that code changes.
SMALL_WINDOW = 256


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _span_len(args, kwargs, result):
    return _arg(args, kwargs, 1, "hi") - _arg(args, kwargs, 0, "lo") + 1


def _table_limit(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "limit"))


def _lookups(args, kwargs, result):
    return len(result)


def _runs(args, kwargs, result):
    return result.runs


@dataclass(frozen=True)
class Span:
    """One wrapped function: ``owner`` is "module" or "module:Class"."""

    name: str
    owner: str
    attr: str
    items: object = None  # (args, kwargs, result) -> int; default 1 per call
    keep_durations: bool = False


# The layers a traced run reports.  ``exponents`` is left out: its exact
# arithmetic takes microseconds and no workload spends time in it.
LAYERS = ("primes", "intervals", "grimm", "smooth", "dickman", "sums", "cli")

SETUP_SPANS = (
    Span("primes.build", "primes:PrimeTable", "__init__", _table_limit),
    Span("dickman.build_rho_table", "dickman", "build_rho_table"),
)

LAYER_SPANS = SETUP_SPANS + (
    Span("primes.pi", "primes:PrimeTable", "pi"),
    Span("primes.pi_bulk", "primes:PrimeTable", "pi_bulk", _lookups),
    Span("primes.primes_in", "primes:PrimeTable", "primes_in", _lookups),
    Span("primes.prime_list", "primes:PrimeTable", "prime_list", _lookups),
    Span("intervals.factor_range", "intervals", "factor_range", _span_len),
    Span("intervals.window_residuals", "intervals", "window_residuals", _span_len),
    Span("grimm.verify_grimm_summary", "grimm", "verify_grimm_summary", _runs),
    Span("grimm.g", "grimm", "g"),
    Span("grimm.g1", "grimm", "g1"),
    Span("smooth.psi", "smooth", "psi"),
    Span("smooth.psi_window", "smooth", "psi_window"),
    Span("smooth.exceptional_scan", "smooth", "exceptional_scan"),
    Span("dickman.rho", "dickman", "rho"),
    Span("sums.ram_sum", "sums", "ram_sum"),
    Span("sums.pi_window_terms", "sums", "pi_window_terms", _lookups),
    Span("cli.run", "cli", "run"),
    Span("cli.verify_shard", "cli", "_verify_shard", keep_durations=True),
    Span("cli.scan_shard", "cli", "_scan_shard", keep_durations=True),
)


@dataclass
class SpanStats:
    calls: int = 0
    items: int = 0
    small_calls: int = 0  # calls with at most SMALL_WINDOW items
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Installs wrappers for ``spans``; aggregates are per :meth:`reset`."""

    def __init__(self, spans):
        self.spans = spans
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats = {s.name: SpanStats() for s in self.spans}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        self.missing = []
        for span in self.spans:
            modname, _, cls = span.owner.partition(":")
            owner = modules.get(f"{PACKAGE}.{modname}")
            if cls:
                owner = getattr(owner, cls, None)
            original = (
                owner.__dict__.get(span.attr) if cls and owner is not None
                else getattr(owner, span.attr, None)
            )
            if original is None:
                # renamed or removed by a later change: report the span as 0
                self.missing.append(span.name)
                continue
            wrapper = self._wrap(span, original)
            if cls:
                self._patch(owner, span.attr, original, wrapper)
                continue
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, span: Span, fn):
        stack = self._stack
        clock = time.perf_counter
        name, items, keep = span.name, span.items, span.keep_durations

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell = [0.0]  # time covered by child spans
            stack.append(cell)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = self.stats[name]
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - cell[0]
                if keep:
                    st.durations.append(dt)
            n = items(args, kwargs, result) if items else 1
            st.items += n
            st.small_calls += n <= SMALL_WINDOW
            return result

        return wrapper
