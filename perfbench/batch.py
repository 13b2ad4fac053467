"""The ``batch-select`` workload: batched kernels with no service,
store or MapReduce in the path.

Five batch classes run back to back in a fixed interleaved order, each
class repeated enough times per round that every class takes a
comparable share of the round:

* ``h1``, ``h3``, ``h5`` — :func:`repro.core.select.hamming_select_batch`
  at h = 1, 3, 5 over 32-bit codes (h = 5 sits past the index/scan
  crossover of the 8-bit substring index family);
* ``knn`` — :func:`repro.core.knn.knn_select_batch` with k = 10;
* ``wide`` — h = 3 selects over 128-bit codes, which the native engine
  serves through its numpy sweep.

Each class cycles through a few fixed 64-query batches.  Answers are
reduced to a canonical digest between timed calls and compared after
the timed phase with a popcount scan of the same queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import oracles
from perfbench.common import (
    CORPUS_SEED,
    OracleMismatch,
    Result,
    log,
    median,
    peak_rss_mb,
    query_blend,
    repeat_setup,
)

BATCH = 64
KNN_K = 10
HASH_SAMPLE = 5_000
#: distinct batches per class, cycled through.
BATCHES_PER_CLASS = 32


@dataclass(frozen=True)
class BatchClass:
    name: str
    kind: str  # "select" or "knn"
    param: int
    wide: bool
    #: batches of this class per round.
    repeats: int


CLASSES = (
    BatchClass("h1", "select", 1, False, 100),
    BatchClass("h3", "select", 3, False, 20),
    BatchClass("h5", "select", 5, False, 6),
    BatchClass("knn", "knn", KNN_K, False, 1),
    BatchClass("wide", "select", 3, True, 3),
)


#: Codes in the 32-bit corpus, and in the 128-bit one (its first rows).
N_CODES = 100_000
N_WIDE = 50_000
BITS = 32
BITS_WIDE = 128


class Corpus:
    """One encoded, indexed code set."""

    def __init__(self, bits: int) -> None:
        self.bits = bits
        self.codes: list[int] = []
        self.plane = None


def build_corpus(vectors: np.ndarray, bits: int, layers: dict) -> Corpus:
    from repro.core.dynamic_ha import DynamicHAIndex
    from repro.hashing.spectral import SpectralHash

    corpus = Corpus(bits)
    started = time.perf_counter()
    hasher = SpectralHash(bits).fit(vectors[:HASH_SAMPLE])
    layers["hashing.fit_s"] += time.perf_counter() - started
    started = time.perf_counter()
    codes = hasher.encode(vectors)
    layers["hashing.encode_s"] += time.perf_counter() - started
    layers["hashing.encode_calls"] += 1
    started = time.perf_counter()
    index = DynamicHAIndex.build(codes)
    layers["index.build_s"] += time.perf_counter() - started
    started = time.perf_counter()
    # The registry's ``native`` engine: H-Build, then the native plane.
    corpus.plane = index.compile_native()
    layers["index.setup_compile_s"] += time.perf_counter() - started
    corpus.codes = list(codes.codes)
    return corpus


def batches_for(corpus: Corpus, seed: int) -> list[list[int]]:
    from repro.core.bitvector import CodeSet

    queries = query_blend(
        CodeSet(corpus.codes, corpus.bits), BATCH * BATCHES_PER_CLASS,
        seed=seed, shares=(("member", 0.5), ("near-miss", 0.5)),
    )
    return [queries[i:i + BATCH] for i in range(0, len(queries), BATCH)]


def call(cls: BatchClass, plane, batch: list[int], profile: bool = False):
    from repro.core.knn import knn_select_batch
    from repro.core.select import hamming_select_batch

    if cls.kind == "knn":
        return knn_select_batch(batch, plane, cls.param, profile=profile)
    return hamming_select_batch(batch, plane, cls.param, profile=profile)


def digest(cls: BatchClass, answer) -> int:
    if cls.kind == "knn":
        return hash(tuple(tuple(sorted(pairs)) for pairs in answer))
    return hash(tuple(tuple(sorted(ids)) for ids in answer))


def run(seed: int, seconds: float, traced: bool,
        work_dir: Path, result: Result) -> None:
    from repro.data.synthetic import nuswide_like

    vectors = nuswide_like(N_CODES, seed=CORPUS_SEED).vectors
    wide_vectors = vectors[:N_WIDE]
    warm_up(vectors)

    def build(attempt: int):
        layers = dict.fromkeys(
            ("hashing.fit_s", "hashing.encode_s", "hashing.encode_calls",
             "index.build_s", "index.setup_compile_s"), 0.0)
        narrow = build_corpus(vectors, BITS, layers)
        wide = build_corpus(wide_vectors, BITS_WIDE, layers)
        return narrow, wide, layers

    (narrow, wide, layers), setup_seconds = repeat_setup(
        build, lambda product: None
    )
    result.put("setup_s", median(setup_seconds), "s")
    log(f"batch-select: set-up {median(setup_seconds):.2f} s")
    batches = {
        cls.name: batches_for(wide if cls.wide else narrow, seed + index)
        for index, cls in enumerate(CLASSES)
    }
    planes = {cls.name: (wide if cls.wide else narrow).plane
              for cls in CLASSES}
    # Untimed warm-up: every distinct batch once; its answers are the
    # reference each timed repeat must reproduce.
    reference: dict[tuple[str, int], object] = {}
    for cls in CLASSES:
        for position, batch in enumerate(batches[cls.name]):
            reference[(cls.name, position)] = call(cls, planes[cls.name],
                                                   batch)
            result.count("warmup", 1)
    figures = measure(batches, planes, seconds / 2 if traced else seconds,
                      result, profile=False)
    if traced:
        traced_figures = measure(batches, planes, seconds / 2, result,
                                 profile=True)
        report_layers(layers, figures, traced_figures, batches, planes,
                      result)
    else:
        result.put("p50_ms", median(figures["round_ms"]), "ms")
        result.put("qps", figures["queries"] / figures["busy_s"], "1/s")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
        result.notes["rounds"] = len(figures["round_ms"])
        result.notes["batch_ms"] = {
            name: median(samples)
            for name, samples in figures["batch_ms"].items()
        }
    log("batch-select: timed phase done, checking answers")
    checked = check(narrow, wide, batches, reference, figures)
    if traced:
        checked += check(narrow, wide, batches, reference, traced_figures)
    result.notes["checked_batches"] = checked
    result.correct = True


def warm_up(vectors: np.ndarray) -> None:
    """Untimed process-level one-offs: linear-algebra and native-kernel
    library loads."""
    from repro.core.dynamic_ha import DynamicHAIndex
    from repro.core.select import hamming_select_batch
    from repro.hashing.spectral import SpectralHash

    codes = SpectralHash(32).fit(vectors[:1_000]).encode(vectors[:2_000])
    plane = DynamicHAIndex.build(codes).compile_native()
    hamming_select_batch(list(codes.codes[:BATCH]), plane, 3)


def measure(batches, planes, seconds: float, result: Result,
            profile: bool) -> dict:
    """Whole rounds of every class, in the fixed order, until the time
    is up."""
    batch_ms = {cls.name: [] for cls in CLASSES}
    digests: list[tuple[str, int, int]] = []
    round_ms: list[float] = []
    busy = 0.0
    queries = 0
    rounds = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        round_busy = 0.0
        for cls in CLASSES:
            plane = planes[cls.name]
            for repeat in range(cls.repeats):
                position = (rounds * cls.repeats + repeat) % len(
                    batches[cls.name])
                batch = batches[cls.name][position]
                result.count(cls.name, 1)
                started = time.perf_counter()
                answer = call(cls, plane, batch, profile)
                elapsed = time.perf_counter() - started
                round_busy += elapsed
                batch_ms[cls.name].append(elapsed * 1000.0)
                queries += len(batch)
                digests.append((cls.name, position, digest(cls, answer)))
        busy += round_busy
        round_ms.append(round_busy * 1000.0)
        rounds += 1
    return {"batch_ms": batch_ms, "digests": digests, "round_ms": round_ms,
            "busy_s": busy, "queries": queries}


def check(narrow: Corpus, wide: Corpus, batches, reference, figures) -> int:
    """Reference answers against the popcount oracle, then every timed
    answer against its reference digest."""
    oracles_by_bits = {}
    for corpus in (narrow, wide):
        oracles_by_bits[corpus.bits] = oracles.ScanOracle(
            corpus.codes, range(len(corpus.codes)), corpus.bits
        )
    for cls in CLASSES:
        oracle = oracles_by_bits[wide.bits if cls.wide else narrow.bits]
        for position, batch in enumerate(batches[cls.name]):
            answer = reference[(cls.name, position)]
            check_batch(cls, oracle, batch, answer)
    return check_digests(reference, figures) + len(reference)


def check_digests(reference, figures) -> int:
    """Every timed answer must equal the oracle-checked reference."""
    classes = {cls.name: cls for cls in CLASSES}
    digests = {key: digest(classes[key[0]], answer)
               for key, answer in reference.items()}
    for name, position, value in figures["digests"]:
        if digests[(name, position)] != value:
            raise OracleMismatch(
                f"batch-select {name} batch {position}: a timed answer "
                "differs from the oracle-checked one"
            )
    return len(figures["digests"])


def check_batch(cls: BatchClass, oracle: oracles.ScanOracle,
                batch: list[int], answer) -> None:
    if len(answer) != len(batch):
        raise OracleMismatch(
            f"batch-select {cls.name}: {len(answer)} answers for "
            f"{len(batch)} queries"
        )
    for query, row, value in zip(batch, oracle.rows(batch), answer):
        what = f"batch-select {cls.name} q={query:#x}"
        if cls.kind == "knn":
            oracles.check_knn(value, query,
                              oracle.nearest(row, cls.param),
                              oracle.code_of, what)
        else:
            oracles.check_select(value, oracle.select(row, cls.param), what)


def report_layers(layers, figures, traced_figures, batches, planes,
                  result: Result) -> None:
    from perfbench.common import CallStats, patch

    for name, value in layers.items():
        result.put(name, value, "count" if name.endswith("_calls") else "s")
    for cls in CLASSES:
        result.put(f"kernel.batch_ms.{cls.name}",
                   median(figures["batch_ms"][cls.name]), "ms")
        plane = planes[cls.name]
        hits = 0
        queries = 0
        # Exact operation counts: ``last_search_ops`` after every sweep
        # (kNN runs one sweep per expanding-threshold round).
        sweeps = CallStats()
        counted = []
        name = ("search_with_distances_batch" if cls.kind == "knn"
                else "search_batch")
        undo = patch(plane, name, sweeps,
                     lambda args, answer: counted.append(plane.last_search_ops))
        try:
            for batch in batches[cls.name]:
                answer = call(cls, plane, batch)
                hits += sum(len(item) for item in answer)
                queries += len(batch)
        finally:
            undo()
        ops = sum(counted)
        result.put(f"kernel.ops_per_query.{cls.name}", ops / queries, "ops")
        result.put(f"kernel.ops_per_hit.{cls.name}", ops / max(1, hits),
                   "ops")
    plain = figures["queries"] / figures["busy_s"]
    traced = traced_figures["queries"] / traced_figures["busy_s"]
    result.put("trace.overhead_pct", 100.0 * (plain / traced - 1.0), "%")
