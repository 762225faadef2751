"""Per-column codecs for the packed archive layout.

The packed layout is an on-disk encoding only: :func:`repro.encoding.persist.load`
decodes every packed column with :func:`decode_column` when a shard is
opened, so a :class:`~repro.encoding.doctable.DocTable` always holds
plain arrays.  This module provides the two codecs:

* **Frame-of-reference bit-packing** (``CODEC_FOR``) — each fixed-height
  page block stores one ``int64`` reference (the block minimum) plus the
  per-value deltas packed at the block's minimal bit width.  ``level``,
  ``kind``, and the dictionary code vectors — every stored column —
  compress this way.
* **Sorted dictionary blobs** — tag and text dictionaries are one UTF-8
  byte blob plus a 4-byte offset vector in memory, sorted in code-point
  order, whichever archive layout they load from (packed deflates them).
  UTF-8 byte order equals code-point order, so :func:`dictionary_find`
  binary-searches the blob directly — a lookup never materialises the
  dictionary — and :func:`merge_dictionaries` / :func:`compact_dictionary`
  are the whole algebra a splice needs.

Everything here is pure numpy + stdlib; the module sits below
``repro.core`` and ``repro.service`` in the import graph.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.encoding.widths import column_dtype, narrow
from repro.errors import EncodingError

__all__ = [
    "CODEC_FOR",
    "DEFAULT_PAGE_SIZE",
    "PageDirectory",
    "pack_int_column",
    "decode_column",
    "check_directory",
    "encode_dictionary",
    "dictionary_entry",
    "dictionary_find",
    "dictionary_prefix_range",
    "dictionary_containing",
    "merge_dictionaries",
    "compact_dictionary",
]

#: Frame-of-reference: block minimum + bit-packed deltas.
CODEC_FOR = "for"

#: Values per page block (:func:`pack_int_column` takes powers of two).
DEFAULT_PAGE_SIZE = 1024


def _require_power_of_two(page_size: int) -> None:
    if page_size < 1 or page_size & (page_size - 1):
        raise EncodingError(f"page_size must be a power of two, got {page_size}")


# ----------------------------------------------------------------------
# Bit packing (little-endian bit streams via packbits/unpackbits)
# ----------------------------------------------------------------------
def _pack_bits(deltas: np.ndarray, bits: int) -> np.ndarray:
    """Pack non-negative ``uint64`` deltas into a ``bits``-wide bit stream."""
    if bits == 0:
        return np.empty(0, dtype=np.uint8)
    count = deltas.shape[0]
    le_bytes = np.ascontiguousarray(deltas, dtype="<u8").view(np.uint8)
    bit_matrix = np.unpackbits(
        le_bytes.reshape(count, 8), axis=1, bitorder="little"
    )
    return np.packbits(bit_matrix[:, :bits].reshape(-1), bitorder="little")


# ----------------------------------------------------------------------
# Page directory + block codec
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class PageDirectory:
    """Descriptor of one packed column: where every page block lives.

    ``offsets`` has ``n_blocks + 1`` entries; block ``b`` occupies bytes
    ``offsets[b]:offsets[b+1]`` of the packed blob, decoded against
    reference ``refs[b]`` at width ``bits[b]``.
    """

    column: str
    codec: str
    page_size: int
    length: int
    refs: np.ndarray  # int64, (n_blocks,)
    bits: np.ndarray  # uint8, (n_blocks,)
    offsets: np.ndarray  # int64, (n_blocks + 1,)

    @property
    def n_blocks(self) -> int:
        return int(self.refs.shape[0])

    @property
    def packed_bytes(self) -> int:
        return int(self.offsets[-1]) if self.offsets.shape[0] else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PageDirectory):
            return NotImplemented
        return (
            self.column == other.column
            and self.codec == other.codec
            and self.page_size == other.page_size
            and self.length == other.length
            and np.array_equal(self.refs, other.refs)
            and np.array_equal(self.bits, other.bits)
            and np.array_equal(self.offsets, other.offsets)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return hash((self.column, self.codec, self.page_size, self.length))


def pack_int_column(
    column: str,
    values: np.ndarray,
    codec: str = CODEC_FOR,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> Tuple[PageDirectory, np.ndarray]:
    """Bit-pack an integer vector into page blocks.

    Returns the directory plus one contiguous ``uint8`` blob holding all
    blocks back to back (mmap-friendly: a block decode reads exactly its
    byte range).
    """
    _require_power_of_two(page_size)
    if codec != CODEC_FOR:
        raise EncodingError(f"unknown codec {codec!r} for column {column!r}")
    if values.ndim != 1:
        raise EncodingError(f"column {column!r} must be one-dimensional")
    n = values.shape[0]
    n_blocks = -(-n // page_size) if n else 0
    refs = np.zeros(n_blocks, dtype=np.int64)
    bits = np.zeros(n_blocks, dtype=np.uint8)
    offsets = np.zeros(n_blocks + 1, dtype=np.int64)
    chunks: List[np.ndarray] = []
    for b in range(n_blocks):
        # Widened a page at a time: the column itself stays at its width.
        start = b * page_size
        block = values[start : start + page_size].astype(np.int64)
        reference = int(block.min())
        width = int(int(block.max()) - reference).bit_length()
        packed = _pack_bits((block - reference).astype(np.uint64), width)
        refs[b] = reference
        bits[b] = width
        offsets[b + 1] = offsets[b] + packed.shape[0]
        chunks.append(packed)
    blob = (
        np.concatenate(chunks, dtype=np.uint8)
        if chunks
        else np.empty(0, dtype=np.uint8)
    )
    directory = PageDirectory(
        column=column,
        codec=codec,
        page_size=int(page_size),
        length=int(n),
        refs=refs,
        bits=bits,
        offsets=offsets,
    )
    return directory, blob


#: Pages unpacked per pass by :func:`decode_column`: enough to amortise
#: the per-call overhead, few enough that the per-value temporaries
#: (a handful of ``int64`` vectors) stay cache-resident and well under
#: a megabyte.
_DECODE_CHUNK_PAGES = 16

#: Widest delta :func:`_decode_pages` masks out of a 64-bit word pair.
_WORD_BITS = 63


def _decode_pages(
    directory: PageDirectory, blob: np.ndarray, first: int, last: int
) -> np.ndarray:
    """Pages ``[first, last)`` decoded in one pass, whatever their widths.

    Pages start byte-aligned, so value ``j`` of page ``p`` begins at bit
    ``8·offsets[p] + j·bits[p]`` of the little-endian stream: take the
    64-bit word holding that bit and its successor, shift the pair into
    place, mask.  Needs every width ≤ 63 (the caller checks).
    """
    page_size = directory.page_size
    lo = first * page_size
    hi = min(last * page_size, directory.length)
    index = np.arange(lo, hi, dtype=np.int64)
    page = index // page_size
    widths = directory.bits.astype(np.int64)[page]
    base = int(directory.offsets[first])
    span = int(directory.offsets[last]) - base
    stream = np.zeros(span // 8 + 2, dtype="<u8")  # one spare word to read past
    stream.view(np.uint8)[:span] = blob[base : base + span]
    bit = (directory.offsets[page] - base) * 8 + (index - page * page_size) * widths
    word = bit >> 6
    shift = (bit & 63).astype(np.uint64)
    # ``<< (64 - shift)`` is undefined at shift 0; two steps never are.
    spill = (stream[word + 1] << (np.uint64(63) - shift)) << np.uint64(1)
    mask = (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
    decoded = (((stream[word] >> shift) | spill) & mask).astype(np.int64)
    decoded += directory.refs[page]
    return decoded


def decode_column(directory: PageDirectory, blob: np.ndarray) -> np.ndarray:
    """Decode a whole packed column eagerly (the full-decode load path).

    Runs of pages are unpacked together (:func:`_decode_pages`) — a
    dozen numpy calls per run instead of per page — and written straight
    into one array of the column's declared width.  A plane column's
    directory must have passed :func:`check_directory`, which admits no
    page wider than the column's dtype: the store into the narrow array
    does not range-check.  A page wider than 63 bits, and a last page
    holding set bits after its last value (the packer writes them as
    zero), are an :class:`EncodingError`.
    """
    out = np.empty(directory.length, dtype=column_dtype(directory.column))
    if directory.length == 0:
        return out
    if directory.packed_bytes > blob.shape[0]:
        raise EncodingError(
            f"column {directory.column!r}: packed blob is truncated "
            f"({blob.shape[0]} of {directory.packed_bytes} bytes)"
        )
    page_size = directory.page_size
    if int(directory.bits.max()) > _WORD_BITS:
        raise EncodingError(
            f"column {directory.column!r}: a page is wider than {_WORD_BITS} bits"
        )
    # Bits after the last value: a value more or less in the last page
    # may keep its byte span, and must not decode as a shorter column.
    used = (directory.length - (directory.n_blocks - 1) * page_size) * int(directory.bits[-1])
    if used % 8 and int(blob[directory.packed_bytes - 1]) >> (used % 8):
        raise EncodingError(
            f"column {directory.column!r}: the last page holds bits after its last value"
        )
    for first in range(0, directory.n_blocks, _DECODE_CHUNK_PAGES):
        last = min(first + _DECODE_CHUNK_PAGES, directory.n_blocks)
        out[first * page_size : last * page_size] = _decode_pages(
            directory, blob, first, last
        )
    return out


def check_directory(directory: PageDirectory, low: int, high: int) -> None:
    """Reject a forged directory before any of its pages is decoded.

    The pages must tile the column as the packer lays them out: a power
    of two ``page_size``, ``ceil(length / page_size)`` pages, and page
    ``b`` exactly the ``ceil(count × bits[b] / 8)`` bytes its values
    pack into, back to back from byte 0 — so a decode reads only its
    own page and writes every value of the column.

    Page ``b`` can only hold values in ``refs[b] .. refs[b] + 2^bits[b]
    − 1``.  That envelope must fit the column's declared width —
    :func:`decode_column` stores into it unchecked — and must be able to
    meet the legal range ``[low, high]``: the packer writes minimal
    widths, so a page's reference delta is taken and, at ``bits > 0``,
    so is one of at least ``2^(bits−1)``.  Float arithmetic: a hostile ``int64`` reference
    must not wrap the check itself.
    """
    _require_power_of_two(directory.page_size)
    length, page_size = directory.length, directory.page_size
    blocks = -(-max(length, 0) // page_size)
    counts = np.full(blocks, page_size, dtype=np.int64)
    if blocks:
        counts[-1] = length - (blocks - 1) * page_size
    if not (
        length >= 0
        and directory.refs.shape == directory.bits.shape == (blocks,)
        and directory.offsets.shape == (blocks + 1,)
        and directory.offsets[0] == 0
        and np.array_equal(np.diff(directory.offsets), (counts * directory.bits + 7) // 8)
    ):
        raise EncodingError(
            f"column {directory.column!r}: page directory does not tile "
            f"{length} values in pages of {page_size}"
        )
    if blocks == 0:
        return
    limits = np.iinfo(column_dtype(directory.column))
    refs = directory.refs.astype(np.float64)
    bits = directory.bits.astype(np.float64)
    reach = np.where(bits > 0, np.exp2(bits - 1), 0.0)
    healthy = (
        (refs >= limits.min)
        & (refs + np.exp2(bits) - 1 <= limits.max)
        & (refs >= low)
        & (refs + reach <= high)
    )
    if not healthy.all():
        raise EncodingError(
            f"column {directory.column!r}: page directory describes values "
            f"outside {limits.dtype.name} / the legal range [{low}, {high}] "
            f"(page {int(np.argmin(healthy))})"
        )


# ----------------------------------------------------------------------
# Sorted dictionary blobs
# ----------------------------------------------------------------------
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
    remap[:-1] = np.cumsum(used, dtype=codes.dtype) - 1
    lengths = np.diff(offsets)
    kept = np.zeros(int(used.sum()) + 1, dtype=offsets.dtype)
    np.cumsum(lengths[used], out=kept[1:])
    return remap[codes], blob[np.repeat(used, lengths)], kept
