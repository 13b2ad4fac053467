"""The benchmark's answer checks must reject wrong answers.

Each test takes answers the program really served on a small input,
confirms the workload's check accepts them, then corrupts one answer
and confirms the check raises.  Run from the repository root::

    python3 -m pytest perfbench/test_oracles.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import batch, mrjoin, oracles, serve  # noqa: E402
from perfbench.common import OracleMismatch  # noqa: E402


def _codes(n: int, bits: int, seed: int = 3):
    from repro.data.synthetic import nuswide_like
    from repro.hashing.spectral import SpectralHash

    vectors = nuswide_like(n, seed=seed).vectors
    return SpectralHash(bits).fit(vectors).encode(vectors)


@pytest.fixture(scope="module")
def served():
    """Reads served by a native-kernel service around two tree writes."""
    from repro.core.dynamic_ha import DynamicHAIndex
    from repro.service.server import HammingQueryService

    codes = _codes(2_000, 32)
    code_list = list(codes.codes)
    config = replace(serve.SERVE_RW, pool=64)
    stream = serve.read_stream(config, code_list, seed=5)
    mirror = serve.WriteMirror(code_list, seed=5)
    records = []
    index = DynamicHAIndex.build(codes)
    with HammingQueryService(index, workers=2, kernel="native") as service:
        for step in range(3):
            for kind, query, param in stream:
                result = service.submit(kind, query, param).result(10.0)
                records.append(serve.Served(kind, query, param,
                                            result.value, result.epoch))
            if step < 2:
                op, code, tuple_id = mirror.next_write()
                writer = service.insert if op == "insert" else service.delete
                mirror.applied(op, code, tuple_id, writer(code, tuple_id))
    return config, code_list, records, mirror


def test_serve_check_accepts_served_answers(served):
    config, codes, records, mirror = served
    assert serve.check(config, codes, records, mirror) == len(records)


def _corrupt(records, kind, change):
    records = list(records)
    for position, record in enumerate(records):
        if record.kind == kind:
            value = change(record)
            if value is not None:
                records[position] = replace(record, value=value)
                return records
    raise AssertionError(f"no {kind} answer to corrupt")


@pytest.mark.parametrize("kind, change", [
    ("select", lambda r: r.value[1:] if r.value else None),
    ("select", lambda r: tuple(r.value) + (10**9,)),
    ("probe", lambda r: not r.value),
    ("knn", lambda r: ((r.value[0][0], r.value[0][1] + 1),) + r.value[1:]),
    ("knn", lambda r: r.value[:-1] + ((r.value[0][0], r.value[-1][1]),)),
])
def test_serve_check_rejects_corrupted_answer(served, kind, change):
    config, codes, records, mirror = served
    with pytest.raises(OracleMismatch):
        serve.check(config, codes, _corrupt(records, kind, change), mirror)


def test_serve_check_rejects_answer_from_wrong_epoch(served):
    """A select that misses the extra tuple live at its epoch fails."""
    config, codes, records, mirror = served
    epoch, tuple_id, code, _ = mirror.events[0]
    wrong = serve.Served("select", code, 0, (), epoch)
    with pytest.raises(OracleMismatch):
        serve.check(config, codes, records + [wrong], mirror)


@pytest.mark.parametrize("bits", [32, 128])
def test_batch_check_rejects_corrupted_answer(bits):
    from repro.core.dynamic_ha import DynamicHAIndex

    codes = _codes(1_500, bits)
    corpus = batch.Corpus(bits)
    corpus.codes = list(codes.codes)
    corpus.plane = DynamicHAIndex.build(codes).compile_native()
    oracle = oracles.ScanOracle(corpus.codes, range(len(codes)), bits)
    queries = batch.batches_for(corpus, seed=9)[0]
    for cls in batch.CLASSES:
        if cls.wide != (bits == 128):
            continue
        answer = batch.call(cls, corpus.plane, queries)
        batch.check_batch(cls, oracle, queries, answer)
        position = next(i for i, item in enumerate(answer) if item)
        broken = list(answer)
        broken[position] = list(answer[position])[1:]
        with pytest.raises(OracleMismatch):
            batch.check_batch(cls, oracle, queries, broken)


def test_batch_check_rejects_timed_answer_unlike_reference():
    cls = batch.CLASSES[0]
    reference = {(cls.name, 0): [[1, 2], [3]]}
    figures = {"digests": [(cls.name, 0, batch.digest(cls, [[1], [3]]))]}
    with pytest.raises(OracleMismatch):
        batch.check_digests(reference, figures)


def test_mr_join_check_rejects_corrupted_pairs():
    from repro.data.synthetic import nuswide_like

    config = mrjoin.JoinConfig(n=300, workers=4)
    vectors = nuswide_like(config.n, seed=4).vectors
    records = list(zip(range(config.n), vectors))
    jobs = [mrjoin.run_job(config, records, option) for option in "AB"]
    assert mrjoin.check(config, vectors, jobs) == 2
    pairs = sorted(jobs[0].report.pairs)
    assert pairs, "the small join should find pairs"
    jobs[0].report.pairs = pairs[1:]
    with pytest.raises(OracleMismatch):
        mrjoin.check(config, vectors, jobs)
    # A pair beyond the threshold, or a duplicate of a true one.
    jobs[0].report.pairs = pairs + [(0, config.n - 1)]
    with pytest.raises(OracleMismatch):
        mrjoin.check(config, vectors, jobs)


def test_tail_needs_forty_samples_and_ten_beyond():
    from perfbench.common import tail

    assert tail(range(39)) is None
    pct, value, samples = tail(range(1000))
    assert (pct, samples) == (99.0, 1000)
    assert 1000 - int(1000 * pct / 100) >= 10
