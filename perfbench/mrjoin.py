"""The ``mr-join`` workload: the paper's MapReduce h-join pipeline.

Each job is a full :func:`repro.distributed.hamming_join.
mapreduce_hamming_join` self-join (sampling, hash learning, pivots, the
global-index build job and the join job) on a fresh simulated cluster.
Option A and Option B jobs alternate.

The inputs do not depend on the workload seed: the corpus is fixed and
the pipeline samples with its default seed.  A seed-drawn sampling seed
changes the learned hash, and with it the join's output 4.5-fold
(10,723 against 47,813 pairs for two seeds tried), which measures hash
learning rather than the code's speed.  Every job's pairs are checked
against a brute-force popcount self-join over the codes of the hash that
job learned, so Option A and Option B must also agree with each other.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perfbench import oracles
from perfbench.common import (
    CORPUS_SEED,
    CallStats,
    Result,
    log,
    median,
    patch,
    peak_rss_mb,
    repeat_setup,
    span_seconds,
)


@dataclass
class JoinConfig:
    n: int = 4_000
    workers: int = 16
    threshold: int = 3
    bits: int = 32


MR_JOIN = JoinConfig()

_MB = 1024.0 * 1024.0


@dataclass
class Job:
    option: str
    wall_s: float
    report: object
    hasher: object
    counters: dict
    span: object = None


def run_job(config: JoinConfig, records, option: str,
            traced: bool = False) -> Job:
    from repro.distributed.global_index import CACHE_HASH
    from repro.distributed.hamming_join import mapreduce_hamming_join
    from repro.mapreduce.cluster import Cluster
    from repro.mapreduce.runtime import MapReduceRuntime
    from repro.obs import trace

    cluster = Cluster(config.workers)
    runtime = MapReduceRuntime(cluster)
    span = None
    started = time.perf_counter()
    if traced:
        with trace("bench.mr_job", option=option) as span:
            report = mapreduce_hamming_join(
                runtime, records, records, config.threshold,
                num_bits=config.bits, option=option, exclude_self_pairs=True,
            )
    else:
        report = mapreduce_hamming_join(
            runtime, records, records, config.threshold,
            num_bits=config.bits, option=option, exclude_self_pairs=True,
        )
    wall = time.perf_counter() - started
    return Job(option, wall, report, cluster.cached(CACHE_HASH),
               cluster.counters.as_dict(), span)


def run(config: JoinConfig, seed: int, seconds: float, traced: bool,
        work_dir: Path, result: Result) -> None:
    from repro.data.synthetic import nuswide_like

    vectors = nuswide_like(config.n, seed=CORPUS_SEED).vectors
    records = list(zip(range(config.n), vectors))
    warm_up(vectors)
    jobs: list[Job] = []

    def build(attempt: int) -> Job:
        job = run_job(config, records, "AB"[attempt % 2])
        result.count(f"join-{job.option}", 1)
        jobs.append(job)
        return job

    _, setup_seconds = repeat_setup(build, lambda job: None)
    result.put("setup_s", median(setup_seconds), "s")
    log(f"mr-join: set-up {median(setup_seconds):.2f} s")
    timed = measure(config, records, seconds / 2 if traced else seconds,
                    result, traced=False)
    if traced:
        probe = EncodeProbe()
        try:
            traced_jobs = measure(config, records, seconds / 2, result,
                                  traced=True)
        finally:
            probe.close()
        report_layers(config, timed, traced_jobs, probe, result)
        jobs.extend(traced_jobs)
    else:
        walls = [job.wall_s for job in timed]
        result.put("p50_ms", median(walls) * 1000.0, "ms")
        result.put("qps", config.n * len(timed) / sum(walls), "1/s")
        result.put("peak_rss_mb", peak_rss_mb(), "MB")
        result.notes["job_s"] = {"median": median(walls),
                                 "samples": len(walls), "walls": walls}
        result.notes["modelled_s"] = median(
            job.report.total_seconds for job in timed)
        result.notes["shuffle_mb"] = float(np.mean(
            [job.report.data_shuffle_bytes / _MB for job in timed]))
    jobs.extend(timed)
    log("mr-join: timed jobs done, checking pairs")
    result.notes["checked_jobs"] = check(config, vectors, jobs)
    result.correct = True


def warm_up(vectors: np.ndarray) -> None:
    """Untimed process-level one-off: the linear-algebra library load
    that the first hash fit of a process pays."""
    from repro.hashing.spectral import SpectralHash

    SpectralHash(32).fit(vectors[:1_000]).encode(vectors[:10])


def measure(config: JoinConfig, records, seconds: float, result: Result,
            traced: bool) -> list[Job]:
    """Whole jobs, alternating Option A and Option B, until the time is
    up (at least two, one of each)."""
    jobs: list[Job] = []
    end = time.perf_counter() + seconds
    while len(jobs) < 2 or time.perf_counter() < end:
        option = "AB"[len(jobs) % 2]
        result.count(f"join-{option}", 1)
        jobs.append(run_job(config, records, option, traced=traced))
    return jobs


def check(config: JoinConfig, vectors: np.ndarray, jobs: list[Job]) -> int:
    """Every job's pairs against a brute-force self-join over the codes
    of the hash that job learned (computed once per distinct hash)."""
    expected: dict[bytes, set] = {}
    for job in jobs:
        key = hashlib.sha256(pickle.dumps(job.hasher)).digest()
        if key not in expected:
            # Encode row by row, exactly as the pipeline's mappers do.
            codes = [int(job.hasher.encode(row).codes[0]) for row in vectors]
            expected[key] = oracles.self_join_pairs(
                codes, range(len(codes)), config.bits, config.threshold
            )
        oracles.check_pairs(job.report.pairs, expected[key],
                            f"mr-join option {job.option}")
    return len(jobs)


class EncodeProbe:
    """Counts and times every hash fit and encode call while alive."""

    def __init__(self) -> None:
        from repro.hashing.base import SimilarityHash

        self.encode = CallStats()
        self.fit = CallStats()
        self._undo = [
            patch(SimilarityHash, "encode", self.encode),
            patch(SimilarityHash, "fit", self.fit),
        ]

    def close(self) -> None:
        for undo in reversed(self._undo):
            undo()


def report_layers(config: JoinConfig, untraced: list[Job],
                  traced: list[Job], probe: EncodeProbe,
                  result: Result) -> None:
    count = len(traced)

    def per_job(values) -> float:
        return float(sum(values)) / count

    result.put("hashing.fit_s", probe.fit.seconds / count, "s")
    result.put("hashing.encode_s", probe.encode.seconds / count, "s")
    result.put("hashing.encode_calls", probe.encode.calls / count, "count")
    result.put("mr.map_s", per_job(span_seconds(j.span, "mr.map")
                                   for j in traced), "s")
    result.put("mr.reduce_s", per_job(span_seconds(j.span, "mr.reduce")
                                      for j in traced), "s")
    result.put("mr.shuffle_records", per_job(
        j.counters.get("shuffle.records", 0) for j in traced), "count")
    result.put("mr.broadcast_mb", per_job(
        j.counters.get("broadcast.bytes", 0) / _MB for j in traced), "MB")
    for phase in ("preprocess", "build", "join", "postprocess"):
        result.put(f"dist.{phase}_s", per_job(
            span_seconds(j.span, f"dist_join.{phase}") for j in traced), "s")
        result.put(f"dist.{phase}_modelled_s", per_job(
            getattr(j.report, f"{phase}_seconds") for j in traced), "s")
    result.put("dist.partition_skew", per_job(
        max(j.report.partition_sizes) / np.mean(j.report.partition_sizes)
        for j in traced), "ratio")
    result.put("dist.modelled_s", per_job(
        j.report.total_seconds for j in traced), "s")
    result.put("dist.shuffle_mb", per_job(
        j.report.data_shuffle_bytes / _MB for j in traced), "MB")
    plain = median(job.wall_s for job in untraced)
    with_trace = median(job.wall_s for job in traced)
    result.put("trace.overhead_pct", 100.0 * (with_trace / plain - 1.0), "%")
