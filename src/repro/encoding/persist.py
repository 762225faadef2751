"""Binary persistence for encoded documents.

Parsing and encoding a large document is the expensive part of loading
(Section 4.1 builds the index "at document loading time"); persisting the
``DocTable`` lets repeated experiment runs start from the columns
directly.  The format (``format_version`` 10) is one zip container of
numeric ``.npy`` members:

* the four plane columns ``level``, ``kind``, ``tag_codes`` and
  ``value_codes``, little-endian at the width
  :func:`~repro.encoding.widths.narrow` gives them (a member read keeps
  the width its header declares, whatever wrote it);
* per dictionary (tag and text) its entry lengths (``*_dict_lengths``,
  narrowed alike) and its sorted UTF-8 blob (``*_dict_blob``).

The tree's shape is stored once: ``pre`` is a node's position (the
paper's void column) and the pre-order ``level`` column implies the
rest, so ``post`` and ``parent`` are not members — :func:`load` derives
them with :func:`~repro.encoding.prepost.shape` (which also rejects a
``level`` column that is no tree), just as it derives each dictionary's
offsets from its lengths with one ``cumsum``, and hands :class:`DocTable`
the same dense arrays an encode does.

``compression=`` picks only the zip compress type of the members:
``"none"`` stores them, so a stored ``.npy`` member is byte-identical to
a standalone ``.npy`` file and :func:`load` with ``mmap=True`` maps
columns and the value blob in place — worker processes that open the
same shard share the OS page cache, and a column no query reads stays
out of memory; ``"packed"`` deflates them (level :data:`DEFLATE_LEVEL`),
which :mod:`zipfile` inflates and CRC-checks on every load.

Every member passes one ``.npy`` header rule (``_Archive``): no header
is evaluated, no member can be an object array, nothing unpickles, and
a member is never read past the size its header declares.  Archives of
any earlier version — 1 and 2 (pickled strings), 3 and 4 (``post`` and
``parent`` stored), 5, 7 and 8 (packed columns bit-packed into pages),
6 and 9 (the two layouts: plain members beside raw dictionary offsets,
hand-rolled zlib streams) — are refused by the version check, before
any other member is read: rebuild them with ``repro shard`` /
``repro encode``.

:func:`load` raises :class:`~repro.errors.EncodingError` — never a raw
``zipfile`` or ``OSError`` traceback — on truncated, foreign, or
version-unknown archives.
"""

from __future__ import annotations

import contextlib
import os
import re
import struct
import zipfile
import zlib
from typing import Tuple

import numpy as np

from repro.encoding.codec import dictionary_entry, encode_dictionary
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.prepost import shape
from repro.encoding.widths import column_dtype, narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import NodeKind

__all__ = [
    "save",
    "load",
    "describe_archive",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "COMPRESSION_MODES",
    "DEFLATE_LEVEL",
]

FORMAT_VERSION = 10

#: Versions :func:`load` accepts.
SUPPORTED_VERSIONS = (FORMAT_VERSION,)

#: ``compression=`` value → the zip compress type of every member.
_COMPRESS_TYPES = {"none": zipfile.ZIP_STORED, "packed": zipfile.ZIP_DEFLATED}

#: ``compression=`` values :func:`save` accepts.
COMPRESSION_MODES = tuple(_COMPRESS_TYPES)

#: zlib level of a packed archive's members.
DEFLATE_LEVEL = 1

#: The plane columns an archive stores (``post`` and ``parent`` are
#: derived from ``level`` on load).
_STORED_COLUMNS = ("level", "kind", "tag_codes", "value_codes")

#: What ``describe_archive`` / ``repro store info`` say of the other two.
_DERIVED_COLUMNS = "post, parent: derived from level"

_DICTIONARIES = ("tag", "value")

_REQUIRED = frozenset(
    ("format_version",)
    + _STORED_COLUMNS
    + tuple(f"{name}_dict_{part}" for name in _DICTIONARIES for part in ("lengths", "blob"))
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
    """Write ``doc`` to ``path`` as an ``.npz`` archive whose members are
    stored (``compression="none"``) or deflated (``"packed"``)."""
    if compression not in _COMPRESS_TYPES:
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
    remap = narrow("tag_codes", remap)  # the gather below is at the codes' width
    members = {"format_version": np.asarray([FORMAT_VERSION], dtype="<i8")}
    columns = {
        "level": doc.level,
        "kind": doc.kind,
        "tag_codes": remap[tag_codes],
        "value_codes": doc.values.codes,
    }
    for column, values in columns.items():
        members[column] = _little(column, values)
    dictionaries = {
        "tag": encode_dictionary([names[code] for code in ranked]),
        "value": (np.asarray(doc.values.blob), np.asarray(doc.values.offsets)),
    }
    for name, (blob, offsets) in dictionaries.items():
        members[f"{name}_dict_lengths"] = _little("dict_lengths", np.diff(offsets))
        members[f"{name}_dict_blob"] = np.ascontiguousarray(blob, np.uint8)
    with zipfile.ZipFile(
        path, "w", _COMPRESS_TYPES[compression], compresslevel=DEFLATE_LEVEL
    ) as archive:
        for name, array in members.items():
            # zip64 from the start: a member may pass 2 GiB
            with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                member.write(_npy_header(array))
                member.write(array)


def _little(column: str, values) -> np.ndarray:
    """``values`` at the narrowest width of ``column``, little-endian."""
    values = narrow(column, values)
    return np.ascontiguousarray(values, values.dtype.newbyteorder("<"))


#: ``.npy`` magic and version (1.0, 2.0) → the header-length field's width.
_NPY_VERSIONS = {b"\x93NUMPY\x01\x00": 2, b"\x93NUMPY\x02\x00": 4}

#: The one ``.npy`` header this module reads — what :func:`save` writes
#: (:func:`_npy_header`): a little-endian integer (or one-byte) dtype,
#: C order, a 1-tuple shape.
_NPY_HEADER = re.compile(
    r"\{'descr': '(<[iu][248]|\|[iu]1)', 'fortran_order': False, "
    r"'shape': \((\d+),\), \} *\n"
)


def _npy_header(array: np.ndarray) -> bytes:
    """The ``.npy`` 1.0 header of a 1-D ``array``, padded so its data
    starts on a 64-byte boundary of the member."""
    text = f"{{'descr': '{array.dtype.str}', 'fortran_order': False, 'shape': ({len(array)},), }}"
    text += " " * (-(len(text) + 11) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + struct.pack("<H", len(text)) + text.encode("latin-1")


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

    def read(self, name: str, mmap: bool = False) -> np.ndarray:
        """Member ``name``, read-only: with ``mmap`` a *stored* member is
        memory-mapped in place; any other is read whole, inflated and
        CRC-checked by :mod:`zipfile`, once its header has been checked
        against the size the zip directory declares."""
        with self._reading(name) as info:
            if not (mmap and info.compress_type == zipfile.ZIP_STORED):
                with self.zip.open(info) as handle:
                    dtype, count = self._header(name, handle, info.file_size)
                    offset = handle.tell()
                # One read of the declared size is one inflate into one
                # buffer; reading on past the header would copy the data.
                with self.zip.open(info) as handle:
                    return np.frombuffer(handle.read(info.file_size), dtype, count, offset)
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

    def header(self, name: str) -> Tuple[np.dtype, int]:
        """Member ``name``'s ``(dtype, count)``, from its header alone."""
        with self._reading(name) as info, self.zip.open(info) as handle:
            return self._header(name, handle)

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
    """The archive's ``format_version``, once every member it needs is
    known to be there."""
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
    missing = _REQUIRED - archive.members.keys()
    if missing:
        raise EncodingError(
            f"{archive.path}: not a DocTable archive (missing {sorted(missing)})"
        )
    return version


def load(path: str, mmap: bool = False) -> DocTable:
    """Read a table previously written by :func:`save`.

    With ``mmap=True`` the stored members of an uncompressed archive —
    its columns and value blob among them — are mapped read-only at their
    archive offsets instead of being read, and the archive must then stay
    in place for the table's lifetime; deflated members are read in both
    modes.  Every column that is read is checked in its legal range
    (``kind`` a :class:`NodeKind`, every code inside its dictionary, a
    value code −1 for "no value"); a mapped column is trusted as
    written, so opening touches as few pages as possible.  Every load
    checks the dictionary lengths against their blobs; only a read load
    (``mmap=False``) checks the value blob's UTF-8.

    Raises :class:`~repro.errors.EncodingError` on truncated, foreign,
    or version-unknown archives and on a ``level`` column that is not a
    tree (never a raw ``zipfile``/``OSError`` traceback; a broken
    ``.npz`` must not half-load).  A *missing* file raises plain
    :class:`FileNotFoundError`, which the store reports as
    :class:`~repro.errors.MissingShardError` — "removed by another
    process's commit", a batch re-runs on a fresh snapshot — not "corrupt".
    """
    with _Archive(path) as archive:
        _format_version(archive)
        # Tag names are a few dozen: decoded.  The value dictionary
        # stays a blob behind the codes.
        (tag_blob, tag_offsets), (value_blob, value_offsets) = (
            _dictionary(archive, name, mmap) for name in _DICTIONARIES
        )
        try:
            tag_dictionary = [
                dictionary_entry(tag_blob, tag_offsets, code)
                for code in range(int(tag_offsets.shape[0]) - 1)
            ]
        except ValueError as error:  # a blob that is not UTF-8
            raise EncodingError(f"{path}: corrupt tag dictionary: {error}") from error
        columns = {column: archive.read(column, mmap) for column in _STORED_COLUMNS}
    level = columns["level"]
    try:
        post, parent = shape(level)
    except EncodingError as error:
        raise EncodingError(f"{path}: {error}") from error
    legal = {
        "kind": (min(NodeKind), max(NodeKind)),
        "tag_codes": (0, len(tag_dictionary) - 1),
        "value_codes": (-1, int(value_offsets.shape[0]) - 2),
    }
    nodes = level.shape[0]
    for column, (low, high) in legal.items():
        values = columns[column]
        if values.shape[0] != nodes:
            raise EncodingError(
                f"{path}: member {column!r} holds {values.shape[0]} values, "
                f"member 'level' {nodes}"
            )
        if not isinstance(values, np.memmap) and (values.min() < low or values.max() > high):
            raise EncodingError(
                f"{path}: member {column!r} holds a value outside "
                f"its legal range [{low}, {high}]"
            )
    if not mmap:
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
        tag=StringColumn(columns["tag_codes"], tag_dictionary, validate=False),
        values=ValueIndex(columns["value_codes"], value_blob, value_offsets),
        validate=False,
        height=int(level.max()),
    )


def _dictionary(archive: _Archive, name: str, mmap: bool) -> Tuple[np.ndarray, np.ndarray]:
    """``(blob, offsets)`` of dictionary ``name``: its blob and its entry
    lengths (mapped when ``mmap`` and stored), which must be non-negative
    and sum to the blob, and the offsets one ``cumsum`` of the lengths."""
    blob = archive.read(f"{name}_dict_blob", mmap)
    lengths = archive.read(f"{name}_dict_lengths", mmap)
    dtype, size = column_dtype("dict_offsets"), blob.shape[0]
    # Each length within the blob: their int64 sum cannot wrap.
    in_blob = lengths.shape[0] == 0 or (lengths.min() >= 0 and lengths.max() <= size)
    if not (in_blob and lengths.sum(dtype=np.int64) == size <= np.iinfo(dtype).max):
        raise EncodingError(
            f"{archive.path}: corrupt {name} dictionary: the {lengths.shape[0]} entry "
            f"lengths of member '{name}_dict_lengths' must be non-negative and sum to "
            f"the {size} bytes of member '{name}_dict_blob'"
        )
    offsets = np.zeros(lengths.shape[0] + 1, dtype=dtype)
    np.cumsum(lengths, dtype=dtype, out=offsets[1:])  # at the offsets' width, not the lengths'
    return blob, offsets


def describe_archive(path: str) -> dict:
    """Metadata-only inspection of an archive (the ``store info`` verb).

    Reads headers and the zip directory only, never a column.  Each
    member reports the ``stored_bytes`` it takes in the archive (its zip
    compress size), the ``logical_bytes`` of its data and the ``dtype``
    its header declares; each
    dictionary its ``entries``, its raw blob ``bytes`` and the
    ``stored_bytes`` of its two members.
    """
    bytes_on_disk = os.path.getsize(path)
    with _Archive(path) as archive:
        version = _format_version(archive)
        counts, members = {}, {}
        for name, info in archive.members.items():
            dtype, counts[name] = archive.header(name)
            members[name] = {
                "stored_bytes": info.compress_size,
                "logical_bytes": counts[name] * dtype.itemsize,
                "dtype": dtype.name,
            }
    description: dict = {
        "format_version": version,
        "bytes_on_disk": bytes_on_disk,
        "nodes": counts["level"],
        "stored_columns": list(_STORED_COLUMNS),
        "derived_columns": _DERIVED_COLUMNS,
        "members": members,
    }
    for name in _DICTIONARIES:
        description[f"{name}_dictionary"] = {
            "entries": counts[f"{name}_dict_lengths"],
            "bytes": counts[f"{name}_dict_blob"],
            "stored_bytes": sum(
                members[f"{name}_dict_{part}"]["stored_bytes"] for part in ("lengths", "blob")
            ),
        }
    return description
