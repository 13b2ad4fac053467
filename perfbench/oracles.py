"""Answer oracles computed apart from the program under test.

Every oracle here is a plain numpy popcount scan over codes packed by
this module (one ``uint64`` word per 64 bits), so it shares no index,
kernel or packing code with :mod:`repro`.  The ``check_*`` functions
raise :class:`~perfbench.common.OracleMismatch` on the first wrong
answer; ``perfbench/test_oracles.py`` feeds each one corrupted answers.

kNN answers are checked by property rather than by equality, because
ties at the k-th distance may be broken either way: the returned
distances must equal the oracle's k smallest, ids must be distinct, and
each id must lie at the distance reported for it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from perfbench.common import OracleMismatch

_WORD = (1 << 64) - 1


def pack(codes: Iterable[int], bits: int) -> np.ndarray:
    """``(n, words)`` ``uint64`` matrix, least significant word first."""
    words = (bits + 63) // 64
    codes = list(codes)
    packed = np.empty((len(codes), words), dtype=np.uint64)
    for word in range(words):
        shift = 64 * word
        packed[:, word] = np.fromiter(
            ((code >> shift) & _WORD for code in codes),
            dtype=np.uint64,
            count=len(codes),
        )
    return packed


def distance_rows(
    packed: np.ndarray, queries: Sequence[int], bits: int, block: int = 32
) -> Iterator[np.ndarray]:
    """Distance of every packed code to each query, one row per query."""
    query_packed = pack(queries, bits)
    for start in range(0, len(queries), block):
        chunk = query_packed[start:start + block]
        total = np.zeros((len(chunk), len(packed)), dtype=np.int32)
        for word in range(packed.shape[1]):
            total += np.bitwise_count(
                packed[None, :, word] ^ chunk[:, word, None]
            )
        yield from total


class ScanOracle:
    """Linear-scan answers over one fixed set of ``(code, id)`` tuples."""

    def __init__(
        self, codes: Sequence[int], ids: Sequence[int], bits: int
    ) -> None:
        if len(codes) != len(ids):
            raise ValueError("codes and ids differ in length")
        self.bits = bits
        self.codes = list(codes)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.packed = pack(self.codes, bits)
        self.code_of = dict(zip(self.ids.tolist(), self.codes))

    def rows(self, queries: Sequence[int]) -> Iterator[np.ndarray]:
        return distance_rows(self.packed, queries, self.bits)

    def select(self, row: np.ndarray, threshold: int) -> list[int]:
        return sorted(self.ids[row <= threshold].tolist())

    def nearest(self, row: np.ndarray, k: int) -> list[int]:
        """The ``k`` smallest distances, ascending."""
        k = min(k, len(row))
        return sorted(np.partition(row, k - 1)[:k].tolist())


def hamming(a: int, b: int) -> int:
    return (a ^ b).bit_count()


def check_select(
    answer: Iterable[int], expected: Sequence[int], what: str
) -> None:
    got = sorted(answer)
    if got != list(expected):
        missing = sorted(set(expected) - set(got))[:5]
        extra = sorted(set(got) - set(expected))[:5]
        raise OracleMismatch(
            f"{what}: {len(got)} ids, oracle {len(expected)} "
            f"(missing {missing}, extra {extra})"
        )


def check_probe(answer: bool, expected: bool, what: str) -> None:
    if bool(answer) != bool(expected):
        raise OracleMismatch(f"{what}: probe {answer}, oracle {expected}")


def check_knn(
    answer: Sequence[tuple[int, int]],
    query: int,
    nearest: Sequence[int],
    code_of,
    what: str,
) -> None:
    """Property check of one kNN answer.

    ``nearest`` is the oracle's k smallest distances (ascending) and
    ``code_of`` maps every live tuple id to its code.
    """
    ids = [tuple_id for tuple_id, _ in answer]
    if len(set(ids)) != len(ids):
        raise OracleMismatch(f"{what}: duplicate ids {ids}")
    distances = sorted(distance for _, distance in answer)
    if distances != list(nearest):
        raise OracleMismatch(
            f"{what}: distances {distances[:8]}, oracle {list(nearest)[:8]}"
        )
    for tuple_id, distance in answer:
        code = code_of.get(tuple_id)
        if code is None:
            raise OracleMismatch(f"{what}: id {tuple_id} is not live")
        if hamming(code, query) != distance:
            raise OracleMismatch(
                f"{what}: id {tuple_id} reported at {distance}, "
                f"lies at {hamming(code, query)}"
            )


def self_join_pairs(
    codes: Sequence[int], ids: Sequence[int], bits: int, threshold: int
) -> set[tuple[int, int]]:
    """Every ``(a, b)`` with ``a < b`` and distance at most ``threshold``."""
    packed = pack(codes, bits)
    id_array = np.asarray(ids, dtype=np.int64)
    pairs: set[tuple[int, int]] = set()
    for position, row in enumerate(distance_rows(packed, codes, bits)):
        left = int(id_array[position])
        for right in id_array[row <= threshold].tolist():
            if left < right:
                pairs.add((left, right))
    return pairs


def check_pairs(
    answer: Iterable[tuple[int, int]],
    expected: set[tuple[int, int]],
    what: str,
) -> None:
    got = list(answer)
    got_set = set(got)
    if len(got_set) != len(got):
        raise OracleMismatch(f"{what}: duplicate pairs")
    if got_set != expected:
        missing = sorted(expected - got_set)[:5]
        extra = sorted(got_set - expected)[:5]
        raise OracleMismatch(
            f"{what}: {len(got_set)} pairs, oracle {len(expected)} "
            f"(missing {missing}, extra {extra})"
        )
