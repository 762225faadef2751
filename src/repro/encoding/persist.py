"""Binary persistence for encoded documents.

Parsing and encoding a large document is the expensive part of loading
(Section 4.1 builds the index "at document loading time"); persisting the
``DocTable`` lets repeated experiment runs start from the columns
directly.  The format is a single ``.npz`` container of *stored*
(uncompressed) numeric ``.npy`` members.

Two layouts, one in-memory representation.  Both hold four plane
columns (``level``, ``kind``, ``tag_codes``, ``value_codes``) and two
dictionaries — the tag and the text dictionary — and both load to the
same :class:`~repro.encoding.doctable.ValueIndex`: a sorted UTF-8 blob
plus 4-byte offsets.  The tree's shape is stored once: ``pre`` is a
node's position (the paper's void column) and the pre-order ``level``
column implies the rest, so ``post`` and ``parent`` are not members —
:func:`load` derives them with :func:`~repro.encoding.prepost.shape`
(which also rejects a ``level`` column that is no tree) and hands
:class:`DocTable` the same dense ``int32`` arrays an encode does.  The
layouts differ in how columns and dictionaries are stored:

* **eager** (``compression="none"``, the default, ``format_version``
  6) — every column a plain member at its declared width, every
  dictionary its ``*_dict_blob`` and ``*_dict_offsets`` members.  A
  stored ``.npy`` zip member is byte-identical to a standalone ``.npy``
  file, so :func:`load` with ``mmap=True`` memory-maps columns *and*
  dictionaries in place at their archive offsets — worker processes
  that open the same shard share the OS page cache instead of each
  materialising its own copy.  Right for small documents.
* **packed** (``compression="packed"``, ``format_version`` 9) — one
  codec: every column is one zlib stream (``<column>_deflated``) of its
  little-endian bytes at its declared width, one value per node, beside
  the ``nodes`` and ``height`` it holds.  Each dictionary is one zlib
  stream too (``*_dict_deflated``: its ``int32`` entry lengths, then its
  blob) beside a ``*_dict_header`` of two integers (entries, blob
  bytes).  :func:`load` inflates every stream whole into the buffer it
  keeps, never past the size its members declare, in both open modes,
  and checks each inflated column's values in their legal range, so
  lanes that open the same packed shard share no inflated column.

Every member passes one ``.npy`` header rule (``_Archive``): no header
is evaluated, no member can be an object array, nothing unpickles.
Archives of any earlier version — 1 and 2 (pickled strings), 3 and 4
(the two layouts with ``post`` and ``parent`` stored), 5 (packed with
raw dictionaries), 7 and 8 (packed columns bit-packed into pages behind
a page directory, 8 with its code columns compacted by ``kind``) — are
refused by the version check, before any other
member is read: rebuild them with ``repro shard`` / ``repro encode``.

:func:`load` raises :class:`~repro.errors.EncodingError` — never a raw
``zipfile`` or ``OSError`` traceback — on truncated, foreign, or
version-unknown archives.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import struct
import zipfile
import zlib
from typing import Dict, Tuple

import numpy as np

from repro.encoding.codec import dictionary_entry, encode_dictionary
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.prepost import shape
from repro.encoding.widths import column_dtype
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import NodeKind

__all__ = [
    "save",
    "load",
    "describe_archive",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "LAYOUT_VERSIONS",
    "COMPRESSION_MODES",
]

#: ``compression=`` value → the ``format_version`` :func:`save` writes.
LAYOUT_VERSIONS = {"none": 6, "packed": 9}

#: ``compression=`` values :func:`save` accepts.
COMPRESSION_MODES = tuple(LAYOUT_VERSIONS)

#: Versions :func:`load` accepts (6 = eager columns and dictionaries,
#: 9 = deflated columns and dictionaries).
SUPPORTED_VERSIONS = tuple(sorted(LAYOUT_VERSIONS.values()))

FORMAT_VERSION = max(SUPPORTED_VERSIONS)

#: The plane columns an archive stores (``post`` and ``parent`` are
#: derived from ``level`` on load).
_STORED_COLUMNS = ("level", "kind", "tag_codes", "value_codes")

#: What ``describe_archive`` / ``repro store info`` say of the other two.
_DERIVED_COLUMNS = "post, parent: derived from level"

#: The values a ``kind`` column may hold.
_KIND_RANGE = (min(NodeKind), max(NodeKind))

#: zlib level of the packed layout's streams.
DEFLATE_LEVEL = 1

_EAGER_REQUIRED = frozenset(
    ("format_version", "tag_dict_blob", "tag_dict_offsets", "value_dict_blob",
     "value_dict_offsets") + _STORED_COLUMNS
)

_PACKED_REQUIRED = frozenset(
    ("format_version", "nodes", "height", "tag_dict_deflated", "tag_dict_header",
     "value_dict_deflated", "value_dict_header")
    + tuple(f"{column}_deflated" for column in _STORED_COLUMNS)
)

#: Errors that mean "this file is not a healthy archive" — normalised to
#: :class:`EncodingError` so callers never see a raw zip traceback.
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    ValueError,
    EOFError,
    struct.error,
)


def save(doc: DocTable, path: str, compression: str = "none") -> None:
    """Write ``doc`` to ``path`` as an ``.npz`` archive.

    ``compression="none"`` writes the eager layout (plain columns);
    ``compression="packed"`` the compressed one (every column and every
    dictionary one zlib stream).
    """
    if compression not in LAYOUT_VERSIONS:
        raise EncodingError(
            f"unknown compression {compression!r}; expected one of "
            f"{COMPRESSION_MODES}"
        )
    tag_codes = np.asarray(doc.tag.codes)
    # Tag dictionary: the entries in use, sorted for binary search, the
    # codes remapped — what a fresh encode of the same tree would write.
    names = doc.tag.dictionary
    used = np.zeros(len(names), dtype=bool)
    used[tag_codes] = True
    ranked = sorted(np.flatnonzero(used).tolist(), key=names.__getitem__)
    remap = np.zeros(len(names), dtype=column_dtype("tag_codes"))
    remap[ranked] = np.arange(len(ranked), dtype=remap.dtype)
    dictionaries = {
        "tag": encode_dictionary([names[code] for code in ranked]),
        "value": (np.asarray(doc.values.blob), np.asarray(doc.values.offsets)),
    }
    columns: Dict[str, np.ndarray] = {
        "level": doc.level,
        "kind": doc.kind,
        "tag_codes": remap[tag_codes],
        "value_codes": doc.values.codes,  # written as handed over
    }
    members: Dict[str, np.ndarray] = {
        "format_version": np.asarray([LAYOUT_VERSIONS[compression]], dtype=np.int64),
    }
    for name, (blob, offsets) in dictionaries.items():
        if compression == "none":
            members.update({f"{name}_dict_blob": blob, f"{name}_dict_offsets": offsets})
        else:  # the entry lengths, then the blob, as one stream
            raw = np.diff(offsets).astype("<i4").tobytes() + bytes(blob)
            members[f"{name}_dict_deflated"] = _deflate(raw)
            members[f"{name}_dict_header"] = np.asarray([len(offsets) - 1, len(blob)], np.int64)
    if compression == "none":
        for column, values in columns.items():
            members[column] = np.asarray(values)
    else:
        members["nodes"] = np.asarray([len(doc)], dtype=np.int64)
        members["height"] = np.asarray([doc.height], dtype=np.int64)
        for column, values in columns.items():
            members[f"{column}_deflated"] = _deflate(
                np.ascontiguousarray(values, _little_endian(column))
            )
    np.savez(path, **members)


def _deflate(raw) -> np.ndarray:
    """One packed-layout stream: ``raw`` (any contiguous buffer) deflated."""
    return np.frombuffer(zlib.compress(raw, DEFLATE_LEVEL), dtype=np.uint8)


def _little_endian(column: str) -> np.dtype:
    """A packed column's stream dtype: its declared width, little-endian."""
    return column_dtype(column).newbyteorder("<")


#: ``.npy`` magic and version (1.0, 2.0) → the header-length field's width.
_NPY_VERSIONS = {b"\x93NUMPY\x01\x00": 2, b"\x93NUMPY\x02\x00": 4}

#: The one ``.npy`` header this module reads — what :func:`np.savez`
#: writes for every member :func:`save` hands it: a little-endian integer
#: (or one-byte) dtype, C order, a 1-tuple shape.
_NPY_HEADER = re.compile(
    r"\{'descr': '(<[iu][248]|\|[iu]1)', 'fortran_order': False, "
    r"'shape': \((\d+),\), \} *\n"
)


class _Archive:
    """An archive's ``.npy`` members, each read through :mod:`zipfile` and
    :data:`_NPY_HEADER` or refused by an :class:`EncodingError` naming it.
    A *missing* file stays a bare :class:`FileNotFoundError` (see :func:`load`)."""

    def __init__(self, path: str):
        self.path = path
        try:
            self.zip = zipfile.ZipFile(path)
        except FileNotFoundError:
            raise
        except _ARCHIVE_ERRORS as error:
            raise EncodingError(f"{path}: not a readable DocTable archive: {error}") from error
        self.members = {
            info.filename[:-4]: info
            for info in self.zip.infolist()
            if info.filename.endswith(".npy")
        }

    def __enter__(self) -> "_Archive":
        return self

    def __exit__(self, *exc) -> None:
        self.zip.close()  # a mapped member holds its own handle

    def read(self, name: str, mapped: bool = False) -> np.ndarray:
        """Member ``name``: read whole (CRC-checked, writable) or, with
        ``mapped``, memory-mapped read-only in place (stored members only)."""
        with self._reading(name) as info:
            if not mapped:
                data = self.zip.read(info)
                handle = io.BytesIO(data)
                dtype, count = self._header(name, handle, info.file_size)
                return np.frombuffer(data, dtype, count, handle.tell()).copy()
            if info.compress_type != zipfile.ZIP_STORED:
                raise EncodingError(
                    f"{self.path}: member {name!r} is compressed; "
                    "mmap requires stored (uncompressed) members"
                )
            # The data follows the local header, whose name / extra lengths
            # can differ from the central directory's.
            raw = self.zip.fp
            raw.seek(info.header_offset)
            signature, name_length, extra_length = struct.unpack("<4s22xHH", raw.read(30))
            if signature != b"PK\x03\x04":
                raise EncodingError(f"{self.path}: corrupt local header for {name!r}")
            raw.seek(info.header_offset + 30 + name_length + extra_length)
            dtype, count = self._header(name, raw, info.file_size)
            return np.memmap(raw, dtype=dtype, mode="r", offset=raw.tell(), shape=(count,))

    def length(self, name: str) -> int:
        """Member ``name``'s element count, from its header alone."""
        with self._reading(name) as info, self.zip.open(info) as handle:
            return self._header(name, handle)[1]

    def scalar(self, name: str) -> int:
        """The one value member ``name`` must hold."""
        array = self.read(name)
        if array.shape != (1,):
            raise EncodingError(
                f"{self.path}: member {name!r} must hold one value, holds {array.shape[0]}"
            )
        return int(array[0])

    @contextlib.contextmanager
    def _reading(self, name: str):
        """Member ``name``'s zip entry; a zip / zlib / OS failure while
        it is read becomes an :class:`EncodingError`."""
        if name not in self.members:
            raise EncodingError(f"{self.path}: missing member {name!r}")
        try:
            yield self.members[name]
        except _ARCHIVE_ERRORS as error:
            raise EncodingError(
                f"{self.path}: cannot read member {name!r} "
                f"(truncated or corrupt archive): {error}"
            ) from error

    def _header(self, name: str, handle, size: int = -1) -> Tuple[np.dtype, int]:
        """``(dtype, count)`` from the ``.npy`` header ``handle`` is at,
        leaving ``handle`` at the data; a member ``size`` given must be
        the header's bytes plus ``count × itemsize``."""
        start = handle.tell()
        magic = handle.read(8)  # then the header's length (2 or 4 bytes), then its text
        length = int.from_bytes(handle.read(_NPY_VERSIONS.get(magic, 0)), "little")
        # save's headers are 118 bytes: a longer one is never read into memory
        match = length < 4096 and _NPY_HEADER.fullmatch(handle.read(length).decode("latin-1"))
        if not match:
            raise EncodingError(
                f"{self.path}: member {name!r} is not a .npy 1.0 / 2.0 array of "
                "little-endian integers, one dimension, C order"
            )
        dtype, count = np.dtype(match[1]), int(match[2])
        data = size - (handle.tell() - start)
        if size >= 0 and data != count * dtype.itemsize:
            raise EncodingError(
                f"{self.path}: member {name!r} holds {data} data bytes, "
                f"its header declares {count} × {dtype.itemsize}"
            )
        return dtype, count


def _format_version(archive: _Archive) -> int:
    """The archive's ``format_version``, once every member its layout
    needs is known to be there."""
    if "format_version" not in archive.members:
        raise EncodingError(
            f"{archive.path}: not a DocTable archive (no format_version member)"
        )
    version = archive.scalar("format_version")
    if version not in SUPPORTED_VERSIONS:
        raise EncodingError(
            f"{archive.path}: format version {version} not in "
            f"supported {SUPPORTED_VERSIONS}; rebuild the archive with "
            "`repro shard` / `repro encode`"
        )
    required = _PACKED_REQUIRED if version == LAYOUT_VERSIONS["packed"] else _EAGER_REQUIRED
    missing = required - archive.members.keys()
    if missing:
        raise EncodingError(
            f"{archive.path}: not a DocTable archive (missing {sorted(missing)})"
        )
    return version


def load(path: str, mmap: bool = False) -> DocTable:
    """Read a table previously written by :func:`save`.

    With ``mmap=True`` the eager layout's columns and dictionaries are
    mapped read-only at their archive offsets instead of being
    materialised, and the archive must then stay in place for the
    table's lifetime.  A mapped eager archive is trusted as written:
    only a read load checks its value codes and dictionary (offsets,
    UTF-8 entries).  The packed layout inflates its streams in both
    modes and checks every column it inflates (:func:`_inflate_columns`).

    Raises :class:`~repro.errors.EncodingError` on truncated, foreign,
    or version-unknown archives and on a ``level`` column that is not a
    tree (never a raw ``zipfile``/``OSError`` traceback; a broken
    ``.npz`` must not half-load).  A *missing* file raises plain
    :class:`FileNotFoundError`, which the store reports as
    :class:`~repro.errors.MissingShardError` — "removed by another
    process's commit", a batch re-runs on a fresh snapshot — not "corrupt".
    """
    with _Archive(path) as archive:
        packed = _format_version(archive) == LAYOUT_VERSIONS["packed"]
        # Tag names are a few dozen: decoded.  The value dictionary
        # stays a blob behind the codes (mapped when an eager table is).
        (tag_blob, tag_offsets), (value_blob, value_offsets) = (
            _inflate_dictionary(archive, name) if packed
            else tuple(archive.read(f"{name}_dict_{part}", mmap) for part in ("blob", "offsets"))
            for name in ("tag", "value")
        )
        try:
            tag_dictionary = [
                dictionary_entry(tag_blob, tag_offsets, code)
                for code in range(int(tag_offsets.shape[0]) - 1)
            ]
        except ValueError as error:  # a blob that is not UTF-8
            raise EncodingError(f"{path}: corrupt tag dictionary: {error}") from error
        if packed:
            height = archive.scalar("height")
            columns = _inflate_columns(
                archive, height, len(tag_dictionary), int(value_offsets.shape[0]) - 1
            )
        else:
            columns = {column: archive.read(column, mmap) for column in _STORED_COLUMNS}
        level = columns["level"]
        try:
            post, parent = shape(level)
        except EncodingError as error:
            raise EncodingError(f"{path}: {error}") from error
        reached = int(level.max())
        if packed and reached != height:
            raise EncodingError(
                f"{path}: level column reaches {reached}, "
                f"the archive says height {height}"
            )
    # A mapped archive was written from an already-validated table; skip
    # the code-range re-checks so opening touches as few pages as
    # possible.  ``post`` is a permutation by construction.
    values = ValueIndex(columns["value_codes"], value_blob, value_offsets)
    if not mmap:
        values.check()
        # Every entry whole UTF-8: the blob decodes, no entry opens mid-character.
        try:
            str(value_blob, "utf-8")
        except UnicodeDecodeError as error:
            raise EncodingError(f"{path}: corrupt value dictionary: {error}") from error
        starts = value_offsets[:-1][np.diff(value_offsets) > 0]
        if (value_blob[starts] & 0xC0 == 0x80).any():
            raise EncodingError(f"{path}: corrupt value dictionary: an entry opens mid-character")
    return DocTable(
        post=post,
        level=level,
        parent=parent,
        kind=columns["kind"],
        tag=StringColumn(columns["tag_codes"], tag_dictionary, validate=not mmap),
        values=values,
        validate=False,
        height=reached,
    )


def _inflate(archive: _Archive, member: str, sizes: Tuple[int, ...], what: str) -> list:
    """Member ``member``'s zlib stream as parts of ``sizes`` bytes, each
    its own buffer: inflated never past ``sum(sizes) + 1`` bytes, and
    the stream used up, nothing after it.  Anything else is an
    :class:`EncodingError` naming the member and ``what`` it holds."""
    stream = archive.read(member)
    inflater = zlib.decompressobj()
    parts = []
    try:
        for size in sizes[:-1]:
            if size:  # ``decompress(…, 0)`` would be unbounded
                parts.append(inflater.decompress(stream, size))
                stream = inflater.unconsumed_tail
            else:
                parts.append(b"")
        parts.append(inflater.decompress(stream, sizes[-1] + 1))
    except zlib.error as error:
        raise EncodingError(f"{archive.path}: corrupt {what} (member {member!r}): {error}") from error
    if [len(part) for part in parts] != list(sizes) or not inflater.eof or inflater.unused_data:
        raise EncodingError(
            f"{archive.path}: corrupt {what}: member {member!r} must inflate "
            f"to the {sum(sizes)} bytes its members declare, and end there"
        )
    return parts


def _dictionary_header(archive: _Archive, name: str) -> Tuple[int, int]:
    """``(entries, blob bytes)`` a packed-layout dictionary's header declares."""
    header = archive.read(f"{name}_dict_header")
    entries, size = (int(v) for v in header) if header.shape == (2,) else (-1, -1)
    # Strictly sorted entries: at most one is empty, so entries ≤ size + 1.
    if not 0 <= entries <= size + 1 <= 2**31:
        raise EncodingError(f"{archive.path}: corrupt {name} dictionary header {header!r}")
    return entries, size


def _inflate_dictionary(archive: _Archive, name: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(blob, offsets)`` of a packed-layout dictionary: its entry
    lengths, then its blob, inflated (:func:`_inflate`) as its header
    declares."""
    path, (entries, size) = archive.path, _dictionary_header(archive, name)
    lengths, blob = _inflate(
        archive, f"{name}_dict_deflated", (4 * entries, size), f"{name} dictionary"
    )
    sizes = np.frombuffer(lengths, dtype="<i4")
    if (sizes < 0).any() or int(sizes.sum(dtype=np.int64)) != size:
        raise EncodingError(
            f"{path}: corrupt {name} dictionary: its {entries} entry lengths "
            f"must sum to the {size} bytes its header declares"
        )
    offsets = np.zeros(entries + 1, dtype=column_dtype("dict_offsets"))
    np.cumsum(sizes, out=offsets[1:])
    return np.frombuffer(blob, dtype=np.uint8), offsets


def _inflate_columns(
    archive: _Archive, height: int, tag_entries: int, value_entries: int
) -> Dict[str, np.ndarray]:
    """The stored columns of a packed archive, each inflated
    (:func:`_inflate`) to ``nodes`` values at its declared width and
    checked in its legal range on every load, mapped or read: ``kind`` a
    :class:`NodeKind`, ``level`` at most ``height``, every code inside
    its dictionary, a value code −1 for "no value"."""
    n = archive.scalar("nodes")
    if not 0 <= n <= np.iinfo(column_dtype("post")).max:
        raise EncodingError(f"{archive.path}: member 'nodes' holds {n}, not a node count")
    legal = {
        "level": (0, height),
        "kind": _KIND_RANGE,
        "tag_codes": (0, tag_entries - 1),
        "value_codes": (-1, value_entries - 1),
    }
    columns = {}
    for column, (low, high) in legal.items():
        member, dtype = f"{column}_deflated", _little_endian(column)
        (raw,) = _inflate(archive, member, (n * dtype.itemsize,), f"column {column!r}")
        values = np.frombuffer(raw, dtype)
        if n and (values.min() < low or values.max() > high):
            raise EncodingError(
                f"{archive.path}: member {member!r} holds a value outside "
                f"its legal range [{low}, {high}]"
            )
        columns[column] = values
    return columns


def describe_archive(path: str) -> dict:
    """Metadata-only inspection of an archive (the ``store info`` verb).

    Reads headers and small members only — columns and dictionaries are
    sized from their ``.npy`` headers, dictionary headers and the zip
    directory, never inflated.  Each dictionary reports its ``entries``,
    its raw blob ``bytes`` and the ``stored_bytes`` its members take in
    the archive; each packed column its ``stored_bytes`` and the
    ``logical_bytes`` it inflates to.
    """
    bytes_on_disk = os.path.getsize(path)
    with _Archive(path) as archive:
        member_sizes = {name: info.file_size for name, info in archive.members.items()}
        version = _format_version(archive)
        packed = version == LAYOUT_VERSIONS["packed"]
        description: dict = {
            "format_version": version,
            "bytes_on_disk": bytes_on_disk,
            "stored_columns": list(_STORED_COLUMNS),
            "derived_columns": _DERIVED_COLUMNS,
        }

        for name in ("tag", "value"):
            if packed:
                entries, size = _dictionary_header(archive, name)
            else:
                entries = archive.length(f"{name}_dict_offsets") - 1
                size = archive.length(f"{name}_dict_blob")
            parts = ("header", "deflated") if packed else ("blob", "offsets")
            description[f"{name}_dictionary"] = {
                "entries": entries,
                "bytes": size,
                "stored_bytes": sum(member_sizes[f"{name}_dict_{part}"] for part in parts),
            }
        if packed:
            n = archive.scalar("nodes")
            description.update(
                {
                    "nodes": n,
                    "height": archive.scalar("height"),
                    "columns": {
                        column: {
                            "stored_bytes": member_sizes[f"{column}_deflated"],
                            "logical_bytes": n * column_dtype(column).itemsize,
                        }
                        for column in _STORED_COLUMNS
                    },
                }
            )
        else:
            description.update({"nodes": archive.length("level"), "members": member_sizes})
    return description
