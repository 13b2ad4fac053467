"""The two serving workloads: ``serve-rw`` and ``serve-sharded``.

Both drive a service open-loop from one process with two client
threads: the *generator* submits each read at its Poisson due time (and,
on ``serve-rw``, performs the fixed write schedule in line), and the
*collector* waits for the tickets in submission order and stamps each
one's observed resolution.  Latency runs from the due time, so a stall
is charged to every request queued behind it, and the generator's own
lateness is reported as ``load.lag_ms``.

A run then measures saturation throughput: the generator keeps
``SATURATION_WINDOW`` reads outstanding, so the admission queue never
runs dry, for a fixed number of reads sized from the workload's nominal
throughput.  The completions are cut into ``SATURATION_CHUNKS`` equal
chunks and ``qps`` is the median chunk's rate (the first chunk, which
fills the queue, is left out), so a burst of contention from outside
the process moves one chunk rather than the figure.

Every answer is kept with the epoch it was served at and checked after
the timed phases against a popcount scan of the index contents at that
epoch (the base codes plus the write-schedule mirror).
"""

from __future__ import annotations

import queue
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import oracles
from perfbench.common import (
    CORPUS_SEED,
    BenchError,
    CallStats,
    Result,
    RootSpanCollector,
    log,
    median,
    patch,
    peak_rss_mb,
    query_blend,
    repeat_setup,
    tail,
)

#: Codes served, and their width.
N_CODES = 100_000
BITS = 32
SHARDS = 4
#: Share of the run spent open-loop; the rest measures saturation.
OPEN_SHARE = 0.7
#: Read kinds in the order they repeat through the stream.
KIND_CYCLE = ("select", "select", "knn", "probe")
THRESHOLD = 3
KNN_K = 10
HASH_SAMPLE = 5_000
SATURATION_WINDOW = 128
SATURATION_CHUNKS = 9
WARMUP_READS = 600
SOLO_QUERIES = 200


@dataclass
class ServeConfig:
    """Sizes and rates of one serving workload."""

    name: str
    #: open-loop arrival rate (reads per second), below saturation.
    rate: float
    #: reads per second used to size the saturation phase (a constant,
    #: so every run of a seed attempts the same reads).
    nominal_qps: float = 3_000.0
    #: seconds between writes (0 disables writes).
    write_every: float = 0.0
    #: distinct read queries, cycled through.
    pool: int = 8_192
    #: shares of the ``repro.data.workloads`` shapes in the read pool.
    shapes: tuple = (("member", 0.4), ("zipf", 0.3), ("near-miss", 0.3))
    sharded: bool = False


SERVE_RW = ServeConfig(
    name="serve-rw", rate=40.0, write_every=2.0,
)
SERVE_SHARDED = ServeConfig(
    name="serve-sharded",
    rate=50.0,
    nominal_qps=350.0,
    pool=20_000,
    shapes=(("member", 0.5), ("near-miss", 0.5)),
    sharded=True,
)


@dataclass
class Served:
    """One resolved read: what was asked and what came back."""

    kind: str
    query: int
    param: int
    value: object
    epoch: int


@dataclass
class Phase:
    """Samples of one timed phase."""

    latencies_ms: list[float] = field(default_factory=list)
    done_at: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    completed: int = 0


class Deployment:
    """One fully set-up service plus what its set-up cost."""

    def __init__(self) -> None:
        self.service = None
        self.index = None
        self.store = None
        self.codes: list[int] = []
        self.layers: dict[str, float] = {}
        self.data_dir: Path | None = None

    def close(self) -> None:
        if self.service is not None:
            self.service.close(snapshot=False)
            self.service = None
        if self.data_dir is not None:
            shutil.rmtree(self.data_dir, ignore_errors=True)


def deploy(
    config: ServeConfig, vectors: np.ndarray, work_dir: Path,
    attempt: int, traced: bool,
) -> Deployment:
    """Hash learning, encoding, H-Build, kernel compile, store and
    service start: everything between vectors in hand and the first
    query."""
    from repro.core.dynamic_ha import DynamicHAIndex
    from repro.hashing.spectral import SpectralHash
    from repro.service.server import HammingQueryService
    from repro.service.sharded import ShardedQueryService
    from repro.store.store import DurableIndexStore

    deployment = Deployment()
    layers = deployment.layers
    started = time.perf_counter()
    hasher = SpectralHash(BITS).fit(vectors[:HASH_SAMPLE])
    layers["hashing.fit_s"] = time.perf_counter() - started
    started = time.perf_counter()
    codes = hasher.encode(vectors)
    layers["hashing.encode_s"] = time.perf_counter() - started
    layers["hashing.encode_calls"] = 1
    deployment.codes = list(codes.codes)
    if config.sharded:
        started = time.perf_counter()
        deployment.service = ShardedQueryService(
            codes,
            num_shards=SHARDS,
            pool="thread",
            pool_workers=2,
            workers=2,
            trace_batches=traced,
        )
        layers["index.build_s"] = time.perf_counter() - started
        return deployment
    started = time.perf_counter()
    index = DynamicHAIndex.build(codes)
    layers["index.build_s"] = time.perf_counter() - started
    started = time.perf_counter()
    index.compile_native()
    layers["index.setup_compile_s"] = time.perf_counter() - started
    deployment.data_dir = work_dir / f"store-{attempt}"
    shutil.rmtree(deployment.data_dir, ignore_errors=True)
    started = time.perf_counter()
    store = DurableIndexStore(deployment.data_dir, fsync=True)
    store.initialize(index)
    layers["store.init_s"] = time.perf_counter() - started
    deployment.service = HammingQueryService(
        index,
        store=store,
        workers=2,
        kernel="native",
        trace_batches=traced,
    )
    deployment.index = index
    deployment.store = store
    return deployment


def read_stream(config: ServeConfig, codes: list[int], seed: int):
    """The cycled ``(kind, query, param)`` read pool."""
    from repro.core.bitvector import CodeSet

    queries = query_blend(
        CodeSet(codes, BITS), config.pool, seed=seed,
        shares=config.shapes,
    )
    stream = []
    for position, query in enumerate(queries):
        kind = KIND_CYCLE[position % len(KIND_CYCLE)]
        stream.append((kind, query, KNN_K if kind == "knn" else THRESHOLD))
    return stream


class WriteMirror:
    """The write schedule and the index contents it leads to, by epoch.

    Writes insert an extra tuple under an existing code (so the write
    lands in the index tree) and delete it again on the next step.
    """

    def __init__(self, codes: list[int], seed: int) -> None:
        rng = np.random.default_rng(seed + 1)
        self._codes = codes
        self._picks = rng.integers(0, len(codes), size=1 << 16)
        self._next_id = len(codes)
        self._step = 0
        self._pending: tuple[int, int] | None = None
        #: (epoch, tuple id, code, live after this epoch)
        self.events: list[tuple[int, int, int, bool]] = []

    def next_write(self) -> tuple[str, int, int]:
        if self._pending is None:
            code = self._codes[int(self._picks[self._step % len(self._picks)])]
            self._pending = (code, self._next_id)
            self._next_id += 1
            self._step += 1
            return ("insert", code, self._pending[1])
        code, tuple_id = self._pending
        self._pending = None
        return ("delete", code, tuple_id)

    def applied(self, op: str, code: int, tuple_id: int, epoch: int) -> None:
        self.events.append((epoch, tuple_id, code, op == "insert"))

    def extras_at(self, epoch: int) -> dict[int, int]:
        """Extra tuples (id -> code) live at ``epoch``."""
        live: dict[int, int] = {}
        for event_epoch, tuple_id, code, alive in self.events:
            if event_epoch > epoch:
                break
            if alive:
                live[tuple_id] = code
            else:
                live.pop(tuple_id, None)
        return live


class Driver:
    """The two client threads and the sample book-keeping."""

    def __init__(self, service, stream, result: Result) -> None:
        self.service = service
        self.stream = stream
        self.cursor = 0
        self.result = result
        self.served: list[Served] = []
        self._errors: list[BaseException] = []

    def _next_read(self):
        item = self.stream[self.cursor % len(self.stream)]
        self.cursor += 1
        return item

    def _collector(self, inbox: queue.SimpleQueue, phase: Phase,
                   window: threading.Semaphore | None) -> None:
        while True:
            item = inbox.get()
            if item is None:
                return
            due, kind, query, param, ticket = item
            try:
                value = ticket.result(timeout=60.0)
            except Exception as error:  # counted, reported, never hidden
                self._errors.append(error)
                self.result.count(kind, 0, 1)
                if window is not None:
                    window.release()
                continue
            done = time.perf_counter()
            phase.latencies_ms.append((done - due) * 1000.0)
            phase.done_at.append(done)
            phase.completed += 1
            self.served.append(
                Served(kind, query, param, value.value, value.epoch)
            )
            if window is not None:
                window.release()

    def _submit(self, kind, query, param, due, inbox) -> bool:
        self.result.count(kind, 1)
        try:
            ticket = self.service.submit(kind, query, param)
        except Exception as error:  # counted, reported, never hidden
            self._errors.append(error)
            self.result.count(kind, 0, 1)
            return False
        inbox.put((due, kind, query, param, ticket))
        return True

    def open_loop(self, rate: float, seconds: float, seed: int,
                  write_every: float = 0.0, mirror: WriteMirror | None = None
                  ) -> Phase:
        """Poisson reads at ``rate`` plus writes every ``write_every``
        seconds, for ``seconds``."""
        phase = Phase()
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 2) + 16)
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        collector = threading.Thread(
            target=self._collector, args=(inbox, phase, None)
        )
        collector.start()
        start = time.perf_counter()
        end = start + seconds
        next_read = start + gaps[0]
        gap_index = 1
        next_write = start + write_every if write_every else float("inf")
        try:
            while True:
                due = min(next_read, next_write)
                if due >= end:
                    break
                now = time.perf_counter()
                if due > now:
                    time.sleep(due - now)
                    now = time.perf_counter()
                phase.lags_ms.append((now - due) * 1000.0)
                if due == next_write:
                    op, code, tuple_id = mirror.next_write()
                    self.result.count(op, 1)
                    started = time.perf_counter()
                    if op == "insert":
                        epoch = self.service.insert(code, tuple_id)
                    else:
                        epoch = self.service.delete(code, tuple_id)
                    phase.write_ms.append(
                        (time.perf_counter() - started) * 1000.0
                    )
                    mirror.applied(op, code, tuple_id, epoch)
                    next_write += write_every
                    continue
                kind, query, param = self._next_read()
                self._submit(kind, query, param, due, inbox)
                next_read += gaps[gap_index]
                gap_index += 1
        finally:
            inbox.put(None)
            collector.join()
        return phase

    def saturate(self, reads: int) -> Phase:
        """Submit ``reads`` reads, keeping ``SATURATION_WINDOW`` of them
        outstanding."""
        phase = Phase()
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        window = threading.Semaphore(SATURATION_WINDOW)
        collector = threading.Thread(
            target=self._collector, args=(inbox, phase, window)
        )
        collector.start()
        try:
            for _ in range(reads):
                window.acquire()
                kind, query, param = self._next_read()
                if not self._submit(kind, query, param, time.perf_counter(),
                                    inbox):
                    window.release()
        finally:
            inbox.put(None)
            collector.join()
        return phase

    def closed_loop(self, queries: list[int]) -> list[float]:
        """One select at a time; per-call milliseconds."""
        samples = []
        for query in queries:
            self.result.count("select", 1)
            started = time.perf_counter()
            served = self.service.select(query, THRESHOLD)
            samples.append((time.perf_counter() - started) * 1000.0)
            self.served.append(
                Served("select", query, THRESHOLD, served.value, served.epoch)
            )
        return samples

    def raise_errors(self) -> None:
        if self._errors:
            raise BenchError(
                f"{len(self._errors)} operations failed; first: "
                f"{self._errors[0]!r}"
            )


class LayerProbe:
    """Traced-run wrappers around the index and store layers."""

    def __init__(self, deployment: Deployment) -> None:
        from repro.core.dynamic_ha import DynamicHAIndex
        import repro.service.server as server_module
        import repro.service.sharded as sharded_module

        self.nodewalk = CallStats()
        self.compile = CallStats()
        self.append = CallStats()
        self.recompiles = 0
        self._planes: dict[int, object] = {}
        self._undo = []

        def note_plane(args, plane) -> None:
            # The first plane seen per index is the one set-up compiled.
            previous = self._planes.get(id(args[0]))
            self._planes[id(args[0])] = plane
            if previous is not None and previous is not plane:
                self.recompiles += 1

        for name in ("search", "contains_within", "count_within",
                     "search_with_distances"):
            self._undo.append(patch(DynamicHAIndex, name, self.nodewalk))
        for name in ("compile", "compile_native"):
            self._undo.append(
                patch(DynamicHAIndex, name, self.compile, note_plane)
            )
        if deployment.store is not None:
            for name in ("append_insert", "append_delete"):
                self._undo.append(
                    patch(deployment.store, name, self.append)
                )
        self.batches = [
            RootSpanCollector(server_module),
            RootSpanCollector(sharded_module),
        ]

    def reset(self, deployment: Deployment) -> None:
        """Zero every count; the planes compiled so far are current."""
        if deployment.index is not None:
            deployment.index.compile_native()
        for stats in (self.nodewalk, self.compile, self.append):
            stats.reset()
        for collector in self.batches:
            collector.reset()
        self.recompiles = 0

    def close(self) -> None:
        for undo in reversed(self._undo):
            undo()
        for collector in self.batches:
            collector.close()

    def snapshot(self) -> dict[str, float]:
        """The counts so far (the open-loop phase, when taken after it)."""
        return {
            "nodewalk": self.nodewalk.calls,
            "compile_s": self.compile.seconds,
            "recompiles": self.recompiles,
            "busy_s": sum(collector.seconds() for collector in self.batches),
        }


def check(config: ServeConfig, codes: list[int], served: list[Served],
          mirror: WriteMirror | None) -> int:
    """Check every served read; returns how many were checked."""
    oracle = oracles.ScanOracle(codes, range(len(codes)), BITS)
    by_query: dict[int, list[Served]] = {}
    for record in served:
        by_query.setdefault(record.query, []).append(record)
    distinct = list(by_query)
    checked = 0
    extras_cache: dict[int, dict[int, int]] = {}
    for query, row in zip(distinct, oracle.rows(distinct)):
        expected: dict[tuple, object] = {}
        for record in by_query[query]:
            extras = {}
            if mirror is not None:
                if record.epoch not in extras_cache:
                    extras_cache[record.epoch] = mirror.extras_at(record.epoch)
                extras = extras_cache[record.epoch]
            key = (record.kind, record.param, tuple(sorted(extras)))
            what = (f"{config.name} {record.kind} q={query:#x} "
                    f"p={record.param} epoch={record.epoch}")
            if record.kind == "select":
                if key not in expected:
                    ids = oracle.select(row, record.param)
                    ids.extend(tuple_id for tuple_id, code in extras.items()
                               if oracles.hamming(code, query) <= record.param)
                    expected[key] = sorted(ids)
                oracles.check_select(record.value, expected[key], what)
            elif record.kind == "probe":
                if key not in expected:
                    expected[key] = bool(row.min() <= record.param) or any(
                        oracles.hamming(code, query) <= record.param
                        for code in extras.values()
                    )
                oracles.check_probe(record.value, expected[key], what)
            else:
                if key not in expected:
                    pool = list(oracle.nearest(row, record.param))
                    pool.extend(oracles.hamming(code, query)
                                for code in extras.values())
                    expected[key] = sorted(pool)[:record.param]
                code_of = oracle.code_of
                if extras:
                    code_of = dict(code_of)
                    code_of.update(extras)
                oracles.check_knn(record.value, query, expected[key],
                                  code_of, what)
            checked += 1
    return checked


def run(config: ServeConfig, seed: int, seconds: float, traced: bool,
        work_dir: Path, result: Result) -> None:
    from repro.data.synthetic import nuswide_like

    vectors = nuswide_like(N_CODES, seed=CORPUS_SEED).vectors
    warm_up(vectors)
    keep = []

    def build(attempt: int) -> Deployment:
        deployment = deploy(config, vectors, work_dir, attempt,
                            traced=traced and attempt == 2)
        if traced and attempt == 1:
            keep.append(deployment)  # the untraced comparison service
        return deployment

    def close(deployment: Deployment) -> None:
        if deployment not in keep:
            deployment.close()

    deployment, setup_seconds = repeat_setup(build, close)
    result.put("setup_s", median(setup_seconds), "s")
    log(f"{config.name}: set-up {median(setup_seconds):.2f} s")
    codes = deployment.codes
    stream = read_stream(config, codes, seed)
    try:
        if traced:
            baseline = keep[0]
            untraced = measure(config, baseline, stream, seed, seconds / 2,
                               result, None)
            baseline.close()
            probe = LayerProbe(deployment)
            try:
                figures = measure(config, deployment, stream, seed,
                                  seconds / 2, result, probe)
            finally:
                probe.close()
            report_layers(config, deployment, figures, untraced, probe,
                          result)
        else:
            figures = measure(config, deployment, stream, seed, seconds,
                              result, None)
            report_end_to_end(figures, result)
    finally:
        deployment.close()
    log(f"{config.name}: timed phases done, checking answers")
    mirror = figures["mirror"]
    checked = check(config, codes, figures["served"], mirror)
    if traced:
        checked += check(config, codes, untraced["served"],
                         untraced["mirror"])
    result.notes["checked_answers"] = checked
    result.correct = True


def warm_up(vectors: np.ndarray) -> None:
    """Process-level one-off costs, paid untimed before set-up: the
    linear-algebra and native-kernel library loads, and a small service
    round trip."""
    from repro.core.dynamic_ha import DynamicHAIndex
    from repro.hashing.spectral import SpectralHash
    from repro.service.server import HammingQueryService

    codes = SpectralHash(BITS).fit(vectors[:1_000]).encode(
        vectors[:2_000]
    )
    index = DynamicHAIndex.build(codes)
    index.compile_native()
    with HammingQueryService(index, workers=2, kernel="native") as service:
        for kind in ("select", "knn", "probe"):
            param = KNN_K if kind == "knn" else THRESHOLD
            service.submit(kind, codes[0], param).result(timeout=60.0)


def measure(config: ServeConfig, deployment: Deployment, stream, seed: int,
            seconds: float, result: Result, probe: LayerProbe | None
            ) -> dict:
    service = deployment.service
    driver = Driver(service, stream, result)
    # Untimed warm-up: the first reads of the pool, closed-loop.
    for kind, query, param in stream[:WARMUP_READS]:
        served = service.submit(kind, query, param).result(timeout=60.0)
        driver.served.append(Served(kind, query, param, served.value,
                                    served.epoch))
    driver.cursor = WARMUP_READS
    result.count("warmup", WARMUP_READS)
    if probe is not None:
        probe.reset(deployment)
    before = service.stats()
    shard_before = service.shard_stats() if config.sharded else None
    mirror = WriteMirror(deployment.codes, seed) if config.write_every else None
    open_phase = driver.open_loop(
        config.rate, seconds * OPEN_SHARE, seed,
        write_every=config.write_every, mirror=mirror,
    )
    after_open = service.stats()
    shard_open = service.shard_stats() if config.sharded else None
    layers_open = probe.snapshot() if probe is not None else None
    chunks = SATURATION_CHUNKS
    reads = config.nominal_qps * seconds * (1.0 - OPEN_SHARE)
    saturation = driver.saturate(max(chunks, round(reads / chunks)) * chunks)
    solo = []
    if probe is not None:
        from repro.data.workloads import near_miss_queries
        from repro.core.bitvector import CodeSet

        solo = driver.closed_loop(near_miss_queries(
            CodeSet(deployment.codes, BITS), SOLO_QUERIES,
            seed=seed + 7,
        ))
    driver.raise_errors()
    return {
        "open": open_phase,
        "saturation": saturation,
        "solo_ms": solo,
        "before": before,
        "after_open": after_open,
        "layers_open": layers_open,
        "shard_before": shard_before,
        "shard_open": shard_open,
        "store": deployment.store.stats() if deployment.store else None,
        "served": driver.served,
        "mirror": mirror,
        "setup_layers": deployment.layers,
    }


def report_end_to_end(figures: dict, result: Result) -> None:
    open_phase: Phase = figures["open"]
    saturation: Phase = figures["saturation"]
    result.put("p50_ms", median(open_phase.latencies_ms), "ms")
    result.put("qps", chunked_rate(saturation.done_at), "1/s")
    result.put("peak_rss_mb", peak_rss_mb(), "MB")
    found = tail(open_phase.latencies_ms)
    if found is not None:
        pct, value, samples = found
        result.notes["tail_ms"] = {
            "percentile": pct, "value": value, "samples": samples,
        }
    if open_phase.write_ms:
        result.notes["write_ms"] = {
            "median": median(open_phase.write_ms),
            "samples": len(open_phase.write_ms),
        }
    result.notes["load_lag_ms"] = median(open_phase.lags_ms)
    result.notes["open_loop_reads"] = len(open_phase.latencies_ms)
    result.notes["saturation_reads"] = saturation.completed


def report_layers(config: ServeConfig, deployment: Deployment, figures: dict,
                  untraced: dict, probe: LayerProbe, result: Result) -> None:
    open_phase: Phase = figures["open"]
    for name, value in figures["setup_layers"].items():
        unit = "count" if name.endswith("_calls") else "s"
        result.put(name, value, unit)
    before, after = figures["before"], figures["after_open"]
    served = after.served - before.served
    batches = after.batches - before.batches
    requests = after.batched_requests - before.batched_requests
    hits = after.cache.hits - before.cache.hits
    lookups = hits + after.cache.misses - before.cache.misses
    layers_open = figures["layers_open"]
    result.put("index.compile_s", layers_open["compile_s"], "s")
    result.put("index.recompiles", layers_open["recompiles"], "count")
    result.put("index.nodewalk_per_query",
               layers_open["nodewalk"] / max(1, served), "ratio")
    result.put("service.solo_ms", median(figures["solo_ms"]), "ms")
    result.put("service.batch_size", requests / max(1, batches), "count")
    result.put("service.cache_hit_ratio", hits / max(1, lookups), "ratio")
    result.put("service.traversals_per_query",
               (after.executed - before.executed) / max(1, served), "ratio")
    result.put("service.busy_s", layers_open["busy_s"], "s")
    result.put("load.lag_ms", median(open_phase.lags_ms), "ms")
    result.put("serve.p50_ms", median(open_phase.latencies_ms), "ms")
    found = tail(open_phase.latencies_ms)
    result.put("serve.tail_ms", found[1] if found else 0.0, "ms")
    if config.sharded:
        first, last = figures["shard_before"], figures["shard_open"]
        planned = max(1, last.planned - first.planned)
        result.put("shard.contacted_per_query",
                   (last.shards_contacted - first.shards_contacted) / planned,
                   "ratio")
        result.put("shard.pruning_ratio",
                   (last.shards_pruned - first.shards_pruned)
                   / (planned * last.num_shards), "ratio")
        result.put("shard.pool_busy_s",
                   last.pool_busy_seconds - first.pool_busy_seconds, "s")
        result.put("shard.pool_critical_s",
                   last.pool_critical_seconds - first.pool_critical_seconds,
                   "s")
    store = figures["store"]
    if store is not None:
        result.put("store.wal_appends", store.wal_appends, "count")
        result.put("store.append_ms", median(
            [s * 1000.0 for s in probe.append.samples]
        ) if probe.append.samples else 0.0, "ms")
        result.put("store.write_ms", median(open_phase.write_ms)
                   if open_phase.write_ms else 0.0, "ms")
    traced_p50 = median(open_phase.latencies_ms)
    plain_p50 = median(untraced["open"].latencies_ms)
    result.put("trace.overhead_pct",
               100.0 * (traced_p50 - plain_p50) / plain_p50, "%")


def chunked_rate(done_at: list[float]) -> float:
    """Median completion rate over equal chunks, the first left out."""
    chunk = len(done_at) // SATURATION_CHUNKS
    if chunk < 1:
        raise BenchError("too few saturation reads to cut into chunks")
    done = sorted(done_at)
    ends = [done[k * chunk - 1] for k in range(1, SATURATION_CHUNKS + 1)]
    return median(chunk / (later - earlier)
                  for earlier, later in zip(ends, ends[1:]))
