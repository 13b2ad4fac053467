"""Shared pieces of the workloads: timing, sample statistics, set-up
repetition, provenance, the traced-run instrumentation and the result
record every workload fills in.

Nothing here imports :mod:`repro` at module level, so the oracles and
their tests can be loaded without the package under test.
"""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Percentiles tried for the tail, highest first; the reported tail is
#: the highest one that leaves at least ``TAIL_BEYOND`` samples above it.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0)
TAIL_BEYOND = 10
#: A tail is reported only from this many samples on.
TAIL_MIN_SAMPLES = 40
#: Full set-ups made in every run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Generator seed of the synthetic corpus.  The corpus stands in for a
#: fixed real dataset, so it is the same for every run; the workload
#: seed varies what is asked of it (queries, arrival times, the write
#: schedule and the join's sampling seed).
CORPUS_SEED = 7
#: Bits flipped in a near-miss query.
NEAR_MISS_FLIPS = 2


class BenchError(RuntimeError):
    """A workload could not run as specified (not an oracle mismatch)."""


class OracleMismatch(AssertionError):
    """A served answer disagrees with the independent oracle."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchError("median of no samples")
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int] | None:
    """``(percentile, value, samples)`` of the highest percentile that
    keeps :data:`TAIL_BEYOND` samples beyond it, or ``None`` below
    :data:`TAIL_MIN_SAMPLES` samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < TAIL_MIN_SAMPLES:
        return None
    for pct in TAIL_LADDER:
        rank = int(count * pct / 100.0)
        if count - rank >= TAIL_BEYOND:
            return pct, float(ordered[min(rank, count - 1)]), count
    return None


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def repeat_setup(build, close) -> tuple[object, list[float]]:
    """Run ``build()`` :data:`SETUP_REPEATS` times, timing each; every
    product but the last is handed to ``close``.  Returns the last
    product and the per-repeat seconds."""
    seconds = []
    product = None
    for attempt in range(SETUP_REPEATS):
        if product is not None:
            close(product)
            product = None
        started = time.perf_counter()
        product = build(attempt)
        seconds.append(time.perf_counter() - started)
    return product, seconds


@dataclass
class Result:
    """What one run reports; :func:`perfbench.run.main` prints it."""

    workload: str
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)
    correct: bool = False

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, kind: str, attempted: int, failed: int = 0) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + attempted
        self.failed[kind] = self.failed.get(kind, 0) + failed


def provenance(root: Path, seed: int) -> dict[str, object]:
    """Where a figure came from: commit, cores, backend, versions."""
    import numpy

    from repro.core.native import active_backend

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "native_backend": active_backend(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop (11 repeats): how fast
    this host ran the interpreter around the run, for reading the
    figures against host speed."""
    samples = []
    for _ in range(11):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` when the tree is not a git checkout."""
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            ref_file = root / ".git" / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            packed = root / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return text
    except OSError:
        return "unknown"


def query_blend(codes, count: int, seed: int, shares) -> list[int]:
    """``count`` queries blended from the named shapes of
    :mod:`repro.data.workloads` in the given shares, shuffled.

    Near-miss queries flip :data:`NEAR_MISS_FLIPS` bits.  (This is what
    ``mixed_workload`` is meant to produce; it passes its seed where
    ``near_miss_queries`` expects the flip count, so it is not used.)
    """
    import random

    from repro.data import workloads

    makers = {
        "member": lambda n, s: workloads.member_queries(codes, n, seed=s),
        "zipf": lambda n, s: workloads.zipf_queries(codes, n, seed=s),
        "near-miss": lambda n, s: workloads.near_miss_queries(
            codes, n, flips=NEAR_MISS_FLIPS, seed=s),
    }
    total = sum(share for _, share in shares)
    queries: list[int] = []
    for offset, (name, share) in enumerate(shares):
        queries.extend(makers[name](round(count * share / total),
                                    seed + offset))
    random.Random(seed).shuffle(queries)
    return queries[:count]


# -- traced-run instrumentation ----------------------------------------------


class CallStats:
    """Calls and seconds spent inside one wrapped callable."""

    __slots__ = ("calls", "seconds", "samples", "_lock")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = 0
            self.seconds = 0.0
            self.samples: list[float] = []

    def add(self, seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.seconds += seconds
            self.samples.append(seconds)


def patch(owner, name: str, stats: CallStats, after=None):
    """Replace ``owner.name`` with a timing wrapper; returns an undo.

    ``owner`` is a class (every instance is wrapped; the wrapper then
    receives ``self`` first) or one object built by the benchmark.
    ``after(args, result)`` runs after every call.
    """
    is_class = isinstance(owner, type)
    original = owner.__dict__[name] if is_class else getattr(owner, name)

    def timed(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        stats.add(time.perf_counter() - started)
        if after is not None:
            after(args, result)
        return result

    setattr(owner, name, timed)

    def undo() -> None:
        if is_class:
            setattr(owner, name, original)
        else:
            with contextlib.suppress(AttributeError):
                delattr(owner, name)

    return undo


class RootSpanCollector:
    """Collects every root span a module opens through its ``trace``
    global (the service's ``service.batch`` roots), which
    :func:`repro.obs.last_trace` would overwrite one by one."""

    def __init__(self, module) -> None:
        self._module = module
        self._original = module.trace
        self.spans: list = []
        self._lock = threading.Lock()
        collector = self

        class _Collect:
            __slots__ = ("_context", "_span")

            def __init__(self, context) -> None:
                self._context = context

            def __enter__(self):
                self._span = self._context.__enter__()
                return self._span

            def __exit__(self, *exc_info):
                result = self._context.__exit__(*exc_info)
                with collector._lock:
                    collector.spans.append(self._span)
                return result

        def collecting_trace(name, **attrs):
            return _Collect(collector._original(name, **attrs))

        module.trace = collecting_trace

    def close(self) -> None:
        self._module.trace = self._original

    def reset(self) -> None:
        with self._lock:
            self.spans = []

    def seconds(self) -> float:
        with self._lock:
            return sum(span.seconds for span in self.spans)


def span_seconds(root, name: str) -> float:
    """Summed seconds of every span called ``name`` under ``root``."""
    total = 0.0
    stack = [root]
    while stack:
        span = stack.pop()
        if span.name == name:
            total += span.seconds
        stack.extend(span.children)
    return total


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
