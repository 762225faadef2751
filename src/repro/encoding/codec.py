"""Sorted dictionary blobs: the string half of every plane.

The tag and text dictionaries are one UTF-8 byte blob plus a 4-byte
offset vector in memory, sorted in code-point order (an archive stores
the blob and the entry lengths, :mod:`repro.encoding.persist`).  UTF-8 byte order equals code-point order, so
:func:`dictionary_find` binary-searches the blob directly — a lookup
never materialises the dictionary — and :func:`merge_dictionaries` /
:func:`compact_dictionary` are the whole algebra a splice needs.

Everything here is pure numpy + stdlib; the module sits below
``repro.core`` and ``repro.service`` in the import graph.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

import numpy as np

from repro.encoding.widths import column_dtype, narrow
from repro.errors import EncodingError

__all__ = [
    "encode_dictionary",
    "dictionary_entry",
    "dictionary_find",
    "dictionary_prefix_range",
    "dictionary_containing",
    "merge_dictionaries",
    "compact_dictionary",
]

def encode_dictionary(strings: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate ``strings`` (must be sorted) into a UTF-8 blob + offsets.

    Sorting is the caller's job (and is asserted): binary search over the
    blob relies on UTF-8 byte order matching code-point order.
    """
    try:
        encoded = [s.encode("utf-8") for s in strings]
    except UnicodeEncodeError as error:
        raise EncodingError(f"value is not encodable as UTF-8: {error}") from error
    return _join_entries(encoded)


def _join_entries(entries: List[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """Blob + offsets of already-encoded entries, checked strictly sorted."""
    if any(a >= b for a, b in zip(entries, entries[1:])):
        raise EncodingError("dictionary must be strictly sorted for binary search")
    offsets = np.zeros(len(entries) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, entries), np.int64, len(entries)), out=offsets[1:])
    blob = np.frombuffer(b"".join(entries), dtype=np.uint8)
    # A blob past 2³¹ − 1 bytes does not fit the offsets' width.
    return blob, narrow("dict_offsets", offsets)


def _split_entries(blob: np.ndarray, offsets: np.ndarray) -> List[bytes]:
    """Every entry as UTF-8 ``bytes`` (one per *entry*, never per node)."""
    raw = bytes(blob)
    bounds = offsets.tolist()
    return [raw[a:b] for a, b in zip(bounds, bounds[1:])]


def dictionary_entry(blob: np.ndarray, offsets: np.ndarray, code: int) -> str:
    """Decode one dictionary entry."""
    return bytes(
        blob[int(offsets[code]) : int(offsets[code + 1])]
    ).decode("utf-8")


def dictionary_find(blob: np.ndarray, offsets: np.ndarray, needle: str) -> int:
    """Binary-search the sorted blob for ``needle``; ``-1`` if absent.

    Compares raw UTF-8 bytes — the blob is never decoded, matching the
    "binary-searchable without decompression" contract.
    """
    target = needle.encode("utf-8")
    lo, hi = 0, int(offsets.shape[0]) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        entry = bytes(blob[int(offsets[mid]) : int(offsets[mid + 1])])
        if entry < target:
            lo = mid + 1
        else:
            hi = mid
    if lo < int(offsets.shape[0]) - 1:
        if bytes(blob[int(offsets[lo]) : int(offsets[lo + 1])]) == target:
            return lo
    return -1


def dictionary_prefix_range(
    blob: np.ndarray, offsets: np.ndarray, prefix: str
) -> Tuple[int, int]:
    """Codes ``[lo, hi)`` of the entries starting with ``prefix``.

    Entries sharing a prefix are contiguous in a sorted dictionary, and
    truncating every entry to the prefix's byte length keeps the order
    (non-strictly) — so both ends are binary searches over the raw blob.
    """
    target = prefix.encode("utf-8")
    width = len(target)
    entries = int(offsets.shape[0]) - 1

    def first_code(beyond_equal: bool) -> int:
        lo, hi = 0, entries
        while lo < hi:
            mid = (lo + hi) // 2
            start = int(offsets[mid])
            head = bytes(blob[start : min(start + width, int(offsets[mid + 1]))])
            if head < target or (beyond_equal and head == target):
                lo = mid + 1
            else:
                hi = mid
        return lo

    return first_code(False), first_code(True)


def dictionary_containing(
    blob: np.ndarray, offsets: np.ndarray, needle: str
) -> np.ndarray:
    """Boolean per code: does the entry contain ``needle``?

    One ``bytes.find`` walk over the blob; a hit that straddles an entry
    boundary is skipped, a hit inside an entry marks it and the walk
    resumes at the next entry — at most one step per entry.  Byte-level
    matching is exact for UTF-8 (the encoding is self-synchronising).
    """
    entries = int(offsets.shape[0]) - 1
    target = needle.encode("utf-8")
    if not target:
        return np.ones(entries, dtype=bool)
    hits = np.zeros(entries, dtype=bool)
    haystack = bytes(blob)
    at = haystack.find(target)
    while at >= 0:
        code = int(np.searchsorted(offsets, at, side="right")) - 1
        if at + len(target) <= int(offsets[code + 1]):
            hits[code] = True
            at = haystack.find(target, int(offsets[code + 1]))
        else:
            at = haystack.find(target, at + 1)
    return hits


def merge_dictionaries(
    blob: np.ndarray, offsets: np.ndarray, other_blob: np.ndarray, other_offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Union of two sorted dictionaries, still sorted.

    Returns ``(blob, offsets, remap, other_remap)``: ``remap[code]`` is
    where an entry of the first dictionary sits in the union,
    ``other_remap[code]`` the same for the second.  Both remaps carry a
    trailing ``-1`` so a "no value" code indexes to itself.  One bisect
    per entry of the *second* dictionary (make it the smaller one); when
    it brings nothing new the first blob is handed back as it is.
    """
    code_dtype = column_dtype("value_codes")
    entries = _split_entries(blob, offsets)
    incoming = _split_entries(other_blob, other_offsets)
    # Where each incoming entry sits among ``entries`` — on its equal, or
    # (a fresh one) just ahead of the first larger entry.
    at = np.fromiter(
        (bisect_left(entries, entry) for entry in incoming), code_dtype, len(incoming)
    )
    fresh = np.fromiter(
        (i == len(entries) or entries[i] != entry for i, entry in zip(at.tolist(), incoming)),
        bool,
        len(incoming),
    )
    # Every fresh entry landing at or ahead of an old one shifts it up.
    remap = np.arange(len(entries) + 1, dtype=code_dtype)
    remap += np.searchsorted(at[fresh], remap, side="right").astype(code_dtype)
    remap[-1] = -1
    other_remap = np.full(len(incoming) + 1, -1, dtype=code_dtype)
    other_remap[:-1][~fresh] = remap[at[~fresh]]
    other_remap[:-1][fresh] = at[fresh] + np.arange(int(fresh.sum()), dtype=code_dtype)
    if fresh.any():
        entries.extend(entry for entry, new in zip(incoming, fresh.tolist()) if new)
        entries.sort()  # two sorted runs: one linear merge
        blob, offsets = _join_entries(entries)
    return blob, offsets, remap, other_remap


def compact_dictionary(
    codes: np.ndarray, blob: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the entries no code refers to; ``(codes, blob, offsets)``.

    Vectorised (one mark, one cumulative sum, one gather) and a no-op —
    the inputs themselves — when every entry is still in use, so a
    spliced table's dictionary is exactly a fresh re-encode's.
    """
    entries = int(offsets.shape[0]) - 1
    used = np.zeros(entries + 1, dtype=bool)  # last slot soaks up the -1 codes
    used[codes] = True
    used = used[:-1]
    if used.all():
        return codes, blob, offsets
    remap = np.full(entries + 1, -1, dtype=codes.dtype)
    remap[:-1] = np.cumsum(used) - 1  # counted at int64; a kept code only falls
    lengths = np.diff(offsets)
    kept = np.zeros(int(used.sum()) + 1, dtype=offsets.dtype)
    np.cumsum(lengths[used], out=kept[1:])
    return remap[codes], blob[np.repeat(used, lengths)], kept
