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
* **packed** (``compression="packed"``, ``format_version`` 8) — every
  column frame-of-reference bit-packed into fixed-height page blocks
  behind a page directory (:mod:`repro.encoding.codec`).  A code column
  is stored only for the nodes that carry the code: ``tag_codes`` for
  named nodes (element, attribute, processing instruction),
  ``value_codes`` for every node but an element.  ``kind`` says which
  nodes those are, so a compacted column's length (and page *i*'s
  place in it) is a count over ``kind``, not a member; :func:`load`
  scatters each back to one value per node — an unnamed node's tag is
  entry 0, ``""`` (it sorts first), an element's value code −1 — and
  :func:`save` refuses a plane that breaks that rule rather than drop a
  code.  The packing is an on-disk encoding only: :func:`load` decodes
  every column to a private array at its declared width in both modes
  (``mmap=True`` only
  maps the packed blob it decodes from and keeps no reference to it),
  so lanes that open the same packed shard share no decoded page.
  Each dictionary is one zlib stream (``*_dict_deflated``: its ``int32``
  entry lengths, then its blob) beside a ``*_dict_header`` of two
  integers (entries, blob bytes); :func:`load` inflates it, never past
  the header, in every mode.

Every member passes one ``.npy`` header rule (``_Archive``): no header
is evaluated, no member can be an object array, nothing unpickles.
Archives of any earlier version — 1 and 2 (pickled strings), 3 and 4
(the two layouts with ``post`` and ``parent`` stored), 5 (packed with
raw dictionaries), 7 (packed with a tag and a value code for every
node) — are refused by the version check, before any other
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

from repro.encoding.codec import (
    CODEC_FOR,
    DEFAULT_PAGE_SIZE,
    PageDirectory,
    check_directory,
    decode_column,
    dictionary_entry,
    encode_dictionary,
    pack_int_column,
)
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.prepost import NAMED_KINDS, shape
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
LAYOUT_VERSIONS = {"none": 6, "packed": 8}

#: ``compression=`` values :func:`save` accepts.
COMPRESSION_MODES = tuple(LAYOUT_VERSIONS)

#: Versions :func:`load` accepts (6 = eager columns and dictionaries,
#: 8 = packed page blocks, compacted code columns, deflated dictionaries).
SUPPORTED_VERSIONS = tuple(sorted(LAYOUT_VERSIONS.values()))

FORMAT_VERSION = max(SUPPORTED_VERSIONS)

#: The plane columns an archive stores (``post`` and ``parent`` are
#: derived from ``level`` on load).
_STORED_COLUMNS = ("level", "kind", "tag_codes", "value_codes")

#: What ``describe_archive`` / ``repro store info`` say of the other two.
_DERIVED_COLUMNS = "post, parent: derived from level"

#: The values a ``kind`` column may hold.
_KIND_RANGE = (min(NodeKind), max(NodeKind))

#: The packed layout's compacted code columns → what a node that stores
#: no code decodes to: tag entry 0 (``""``), no value.
_CODE_FILL = {"tag_codes": 0, "value_codes": -1}

#: zlib level of the packed layout's dictionary streams.
DEFLATE_LEVEL = 1

_EAGER_REQUIRED = frozenset(
    ("format_version", "tag_dict_blob", "tag_dict_offsets", "value_dict_blob",
     "value_dict_offsets") + _STORED_COLUMNS
)

_PACKED_REQUIRED = frozenset(
    ("format_version", "page_size", "nodes", "height", "tag_dict_deflated",
     "tag_dict_header", "value_dict_deflated", "value_dict_header")
    + tuple(
        f"{column}_{part}"
        for column in _STORED_COLUMNS
        for part in ("refs", "bits", "offsets", "packed")
    )
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


def save(
    doc: DocTable,
    path: str,
    compression: str = "none",
    page_size: int = DEFAULT_PAGE_SIZE,
) -> None:
    """Write ``doc`` to ``path`` as an ``.npz`` archive.

    ``compression="none"`` writes the eager layout (plain columns);
    ``compression="packed"`` the compressed pageable one (FOR
    bit-packed columns behind a page directory of ``page_size``-value
    blocks, the code columns compacted, each dictionary one zlib
    stream).  A plane with an unnamed node whose tag is not ``""``, or
    an element with a value, is an :class:`EncodingError` in both.
    """
    if compression not in LAYOUT_VERSIONS:
        raise EncodingError(
            f"unknown compression {compression!r}; expected one of "
            f"{COMPRESSION_MODES}"
        )
    tag_codes = np.asarray(doc.tag.codes)
    masks = _code_masks(np.asarray(doc.kind))
    if (tag_codes[~masks["tag_codes"]] != doc.tag.code_of("")).any():
        raise EncodingError('an unnamed node (text, comment, document) has a tag other than ""')
    if (np.asarray(doc.values.codes)[~masks["value_codes"]] != -1).any():
        raise EncodingError("an element has a value code (elements carry no value)")
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
            stream = zlib.compress(raw, DEFLATE_LEVEL)
            members[f"{name}_dict_deflated"] = np.frombuffer(stream, dtype=np.uint8)
            members[f"{name}_dict_header"] = np.asarray([len(offsets) - 1, len(blob)], np.int64)
    if compression == "none":
        for column, values in columns.items():
            members[column] = np.asarray(values)
    else:
        members["page_size"] = np.asarray([page_size], dtype=np.int64)
        members["nodes"] = np.asarray([len(doc)], dtype=np.int64)
        members["height"] = np.asarray([doc.height], dtype=np.int64)
        for column, values in columns.items():
            if column in masks:  # only the nodes that carry the code
                values = values[masks[column]]
            directory, blob = pack_int_column(column, values, CODEC_FOR, page_size)
            members[f"{column}_refs"] = directory.refs
            members[f"{column}_bits"] = directory.bits
            members[f"{column}_offsets"] = directory.offsets
            members[f"{column}_packed"] = blob
    np.savez(path, **members)


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
    return version


def load(path: str, mmap: bool = False) -> DocTable:
    """Read a table previously written by :func:`save`.

    With ``mmap=True`` the eager layout's columns and dictionaries are
    mapped read-only at their archive offsets instead of being
    materialised, and the archive must then stay in place for the
    table's lifetime; the packed layout maps its packed blobs only to
    decode them.  A mapped archive is trusted as written: only a read
    load checks the value codes and dictionary (offsets, UTF-8 entries).

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
        missing = (_PACKED_REQUIRED if packed else _EAGER_REQUIRED) - archive.members.keys()
        if missing:
            raise EncodingError(
                f"{path}: not a DocTable archive (missing {sorted(missing)})"
            )
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
            columns = _packed_columns(
                archive, mmap, height, tag_dictionary, int(value_offsets.shape[0]) - 1
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


def _dictionary_header(archive: _Archive, name: str) -> Tuple[int, int]:
    """``(entries, blob bytes)`` a packed-layout dictionary's header declares."""
    header = archive.read(f"{name}_dict_header")
    entries, size = (int(v) for v in header) if header.shape == (2,) else (-1, -1)
    # Strictly sorted entries: at most one is empty, so entries ≤ size + 1.
    if not 0 <= entries <= size + 1 <= 2**31:
        raise EncodingError(f"{archive.path}: corrupt {name} dictionary header {header!r}")
    return entries, size


def _inflate_dictionary(archive: _Archive, name: str) -> Tuple[np.ndarray, np.ndarray]:
    """``(blob, offsets)`` of a packed-layout dictionary: its stream inflated never
    past the ``4 × entries + blob bytes`` its header declares, and used up."""
    path, (entries, size) = archive.path, _dictionary_header(archive, name)
    stream = archive.read(f"{name}_dict_deflated")
    inflater = zlib.decompressobj()
    try:  # two reads, so the blob is its own buffer: the lengths are dropped
        lengths = inflater.decompress(stream, 4 * entries) if entries else b""
        blob = inflater.decompress(inflater.unconsumed_tail if entries else stream, size + 1)
    except zlib.error as error:
        raise EncodingError(f"{path}: corrupt {name} dictionary: {error}") from error
    sizes = np.frombuffer(lengths, dtype="<i4")
    if (
        len(lengths) + len(blob) != 4 * entries + size
        or not inflater.eof
        or inflater.unused_data
        or (sizes < 0).any()
        or int(sizes.sum(dtype=np.int64)) != size
    ):
        raise EncodingError(
            f"{path}: corrupt {name} dictionary: its stream must inflate to the "
            f"{entries} lengths and {size} bytes its header declares, and end there"
        )
    offsets = np.zeros(entries + 1, dtype=column_dtype("dict_offsets"))
    np.cumsum(sizes, out=offsets[1:])
    return np.frombuffer(blob, dtype=np.uint8), offsets


def _code_masks(kind: np.ndarray) -> Dict[str, np.ndarray]:
    """Compacted code column → which nodes store a code in it (one
    boolean per node; comparisons only, no index array)."""
    named = np.zeros(kind.shape, dtype=bool)
    for named_kind in NAMED_KINDS:
        named |= kind == named_kind
    return {"tag_codes": named, "value_codes": kind != NodeKind.ELEMENT}


def _decode(
    archive: _Archive, mmap: bool, column: str, length: int, legal: Tuple[int, int]
) -> np.ndarray:
    """Packed column ``column`` (``length`` values in ``legal``) decoded to a
    private array at its declared width once its page directory is
    checked; its packed blob is read, or mapped, only for the decode."""
    parts = {
        part: np.ascontiguousarray(archive.read(f"{column}_{part}"), dtype)
        for part, dtype in (("refs", np.int64), ("bits", np.uint8), ("offsets", np.int64))
    }
    directory = PageDirectory(
        column=column, codec=CODEC_FOR, page_size=archive.scalar("page_size"),
        length=length, **parts,
    )
    check_directory(directory, *legal)
    return decode_column(directory, archive.read(f"{column}_packed", mmap))


def _packed_columns(
    archive: _Archive, mmap: bool, height: int, tag_dictionary: list, value_entries: int
) -> Dict[str, np.ndarray]:
    """The stored columns of a packed archive, one value per node.  ``kind``
    is decoded first: it sizes the compacted code columns, each then
    scattered into a full-length array through one boolean mask, every
    other node holding its :data:`_CODE_FILL`."""
    n = archive.scalar("nodes")
    columns = {
        "level": _decode(archive, mmap, "level", n, (0, height)),
        "kind": _decode(archive, mmap, "kind", n, _KIND_RANGE),
    }
    masks = _code_masks(columns["kind"])
    if tag_dictionary[:1] != [""] and not masks["tag_codes"].all():
        raise EncodingError(
            f"{archive.path}: unnamed nodes need tag entry 0 to be \"\", "
            f"the tag dictionary opens with {tag_dictionary[:1]!r}"
        )
    legal = {"tag_codes": (0, len(tag_dictionary) - 1), "value_codes": (-1, value_entries - 1)}
    for column, stored in masks.items():
        codes = np.full(n, _CODE_FILL[column], dtype=column_dtype(column))
        codes[stored] = _decode(archive, mmap, column, int(np.count_nonzero(stored)), legal[column])
        columns[column] = codes
    return columns


def describe_archive(path: str) -> dict:
    """Metadata-only inspection of an archive (the ``store info`` verb).

    Reads headers and small members only — columns and dictionaries are
    sized from their ``.npy`` headers, dictionary headers and the zip
    directory, never inflated; of the packed layout's columns only
    ``kind`` is decoded, to count the ``codes`` each compacted column
    stores.  Each dictionary reports its ``entries``, its raw blob
    ``bytes`` and the ``stored_bytes`` its members take in the archive.
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
            codes = dict.fromkeys(_STORED_COLUMNS, n)
            kind = _decode(archive, False, "kind", n, _KIND_RANGE)
            codes.update((c, int(np.count_nonzero(m))) for c, m in _code_masks(kind).items())
            columns = {}
            for column in _STORED_COLUMNS:
                offsets = archive.read(f"{column}_offsets")
                columns[column] = {
                    "codec": CODEC_FOR,
                    "codes": codes[column],
                    "pages": int(offsets.shape[0]) - 1,
                    "packed_bytes": int(offsets[-1]) if offsets.shape[0] else 0,
                    "logical_bytes": n * column_dtype(column).itemsize,
                }
            description.update(
                {
                    "nodes": n,
                    "height": archive.scalar("height"),
                    "page_size": archive.scalar("page_size"),
                    "columns": columns,
                }
            )
        else:
            description.update({"nodes": archive.length("level"), "members": member_sizes})
    return description
