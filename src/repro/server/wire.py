"""Response bodies whose rank columns are formatted in bulk, never boxed.

The body is ``json.dumps`` of :func:`result_to_payload`'s dict with
``[""]`` for each non-empty rank list — no other list in it holds a
string and a JSON string holds no bare ``"``.  The ranks of the whole response are
formatted :data:`_CHUNK` at a time by a fixed number of array operations
(four ASCII digits per table lookup, leading zeros NUL and dropped by
``bytes.translate``, ``\\x01`` after a column's last rank) and fill the
holes in order: ``encode_result(r) == json.dumps(result_to_payload(r)).encode()``.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.service.service import ServiceResult

__all__ = ["encode_batch", "encode_result", "result_to_payload"]

#: Ranks formatted per chunk: bounds the temporaries (≈ 80 B per rank).
_CHUNK = 1 << 14


def _digit_table() -> np.ndarray:
    """0 … 9999 as four ASCII digits per ``<u4``: leading (0 all NUL),
    zero-padded, leading units (0 is "0"), zero-padded."""
    # uint16, not int64: int64 temporaries left the heap ~1.7 MB larger.
    value = np.arange(10000, dtype=np.uint16)[:, None]
    place = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (value // place % 10 + ord("0")).astype(np.uint8)
    units = np.where((value >= place) | (place == 1), padded, np.uint8(0))
    leading = np.where(value > 0, units, np.uint8(0))
    return np.concatenate([leading, padded, units, padded]).view("<u4").ravel()


_DIGITS = _digit_table()
_SLOT = b"\x01"  #: where a rank list goes, and what follows a column's last rank
_SEP = np.frombuffer(b", \0\0", "<u4")[0]  #: after every other rank
_LAST = np.frombuffer(_SLOT + b"\0\0\0", "<u4")[0]


def result_to_payload(result: ServiceResult) -> dict:
    """One :class:`ServiceResult` as a dict: per-document rank lists
    (``materialize``), integers (``count``) or one boolean (``exists``)."""
    return _payload(result, np.ndarray.tolist)


def _payload(result: ServiceResult, spell: Callable[[np.ndarray], list]) -> dict:
    payload = {
        "query": result.query,
        "engine": result.engine,
        "mode": result.mode,
        "total": int(result.total),
        "from_cache": bool(result.from_cache),
        "elapsed_ms": round(result.elapsed_s * 1e3, 3),
    }
    if result.mode == "exists":
        payload["exists"] = result.exists
    else:
        each = int if result.mode == "count" else spell
        payload["per_document"] = {n: each(v) for n, v in result.per_document.items()}
    return payload


def _hole(ranks: np.ndarray) -> list:
    return [""] if len(ranks) else []


def encode_result(result: ServiceResult) -> bytes:
    """The ``/query`` body."""
    return _encode(_payload(result, _hole), [result])


def encode_batch(results: Sequence[ServiceResult], elapsed_ms: float) -> bytes:
    """The ``/batch`` body, ``{"results": [...], "elapsed_ms": ...}``."""
    payloads = [_payload(result, _hole) for result in results]
    return _encode({"results": payloads, "elapsed_ms": elapsed_ms}, results)


def _encode(payload: dict, results: Sequence[ServiceResult]) -> bytes:
    around = json.dumps(payload).replace('[""]', "[\x01]").encode().split(_SLOT)
    answers = [r.per_document.values() for r in results if r.mode == "materialize"]
    columns = [ranks for answer in answers for ranks in answer if len(ranks)]
    # One piece per column, and an empty one after the last ``\x01``.
    spelled = b"".join(_format(*chunk) for chunk in _chunks(columns)).split(_SLOT)
    return b"".join(chain.from_iterable(zip(around, spelled)))


def _chunks(columns: list) -> Iterator[Tuple[np.ndarray, List[int]]]:
    """``int64`` runs of ≤ :data:`_CHUNK` ranks, and where columns end."""
    pieces, last, room = [], [], _CHUNK
    for ranks in columns:
        while len(ranks) > room:
            pieces.append(ranks[:room])
            yield np.concatenate(pieces, dtype=np.int64), last
            ranks, pieces, last, room = ranks[room:], [], [], _CHUNK
        pieces.append(ranks)
        room -= len(ranks)
        last.append(_CHUNK - room - 1)
    if pieces:
        yield np.concatenate(pieces, dtype=np.int64), last


def _format(values: np.ndarray, last: List[int]) -> bytes:
    """Each value's decimal text and ``", "`` (``"\\x01"`` at ``last``)."""
    top = int(values.view(np.uint64).max())  # a negative reads as ≥ 2**63
    low, high = (int(values.min()), int(values.max())) if top >> 63 else (0, top)
    quads = -(-max(len(str(low)), len(str(high))) // 4)  # the sign counts
    rows = np.empty((len(values), quads + 1), dtype=np.uint32)
    rows[:, quads] = _SEP
    rows[:, quads].put(last, _LAST)
    # abs(-2**63) wraps to -2**63, which reads as 2**63 unsigned.
    rest = (np.abs(values) if low < 0 else values).view(np.uint64)
    for column in range(quads - 1, 0, -1):
        higher = rest // 10000  # not divmod: only // divides by a scalar fast
        spelled = rest - higher * 10000 + 10000  # zero-padded, unless
        np.minimum(spelled, rest, out=spelled)  # nothing is left above
        rows[:, column] = _DIGITS[20000 * (column == quads - 1) :].take(spelled)
        rest = higher
    rows[:, 0] = _DIGITS[20000 if quads == 1 else 0 :].take(rest)  # no higher quad
    if low < 0:  # "-" in the NUL before each negative's first digit
        text, at = rows.view(np.uint8), np.flatnonzero(values < 0)
        text[at, (text[at, : 4 * quads] > 0).argmax(axis=1) - 1] = ord("-")
    return rows.tobytes().translate(None, b"\0")
