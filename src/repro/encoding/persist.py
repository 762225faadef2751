"""Binary persistence for encoded documents.

Parsing and encoding a large document is the expensive part of loading
(Section 4.1 builds the index "at document loading time"); persisting the
``DocTable`` lets repeated experiment runs start from the columns
directly.  The format is a single ``.npz`` container.

Two format versions are understood:

* **v2** — ``np.savez``: eager members *stored* rather than deflated,
  each at its column's declared width (``.npy`` is self-describing:
  older archives with ``int64`` members still open and are narrowed).
  A stored ``.npy`` zip member is byte-identical to a standalone
  ``.npy`` file, so :func:`load` with ``mmap=True`` memory-maps the
  numeric columns in place at their archive offsets — worker processes
  that open the same shard share the OS page cache instead of each
  materialising its own copy.
* **v3** (current, written by ``save(..., compression="packed")``) —
  compressed, pageable planes: every numeric column is frame-of-
  reference/delta bit-packed into fixed-height page blocks behind a page
  directory (:mod:`repro.encoding.codec`), and the tag/text string
  columns are dictionary-encoded against *sorted* UTF-8 dictionary
  blobs that binary-search without decompression.  ``mmap=True`` maps
  the packed blobs and returns a table whose columns are
  :class:`~repro.encoding.codec.PagedArray` views decoding one page
  block at a time — a shard larger than RAM streams through the join
  kernels block by block.

``save`` still writes v2 by default (``compression="none"``): eager
numeric members remain the right trade for small documents, and the v2
round-trip contract (columns load as ``np.memmap``) is unchanged.

:func:`load` reads both versions and raises
:class:`~repro.errors.EncodingError` — never a raw ``zipfile`` or
``OSError`` traceback — on truncated, foreign, or version-unknown
archives.
"""

from __future__ import annotations

import os
import pickle
import struct
import zipfile
import zlib
from typing import Dict, Tuple

import numpy as np

from repro.encoding.codec import (
    CODEC_DELTA,
    CODEC_FOR,
    DEFAULT_PAGE_SIZE,
    PageDirectory,
    PagedArray,
    PagedStrings,
    PlaneStats,
    check_directory,
    decode_column,
    dictionary_entry,
    encode_dictionary,
    pack_int_column,
)
from repro.encoding.doctable import DocTable
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
    "COMPRESSION_MODES",
]

FORMAT_VERSION = 3

#: Versions :func:`load` accepts (v2 = stored eager columns, v3 =
#: packed page blocks).
SUPPORTED_VERSIONS = (2, 3)

#: ``compression=`` values :func:`save` accepts.
COMPRESSION_MODES = ("none", "packed")

#: Sentinel distinguishing "no value" (elements) from an empty string in
#: the v2 persisted value column.
_NONE_SENTINEL = "\x00<none>"

#: Members whose arrays are plain numeric vectors in v2 archives.
_NUMERIC_MEMBERS = ("post", "level", "parent", "kind", "tag_codes")

_REQUIRED_MEMBERS = frozenset(
    ("format_version", "tag_dictionary", "values") + _NUMERIC_MEMBERS
)

#: v3 packed columns and their codecs.  ``post`` and ``parent`` track the
#: void ``pre`` column (position-delta residuals are a few bits); the
#: rest are plain frame-of-reference.
_PACKED_COLUMNS = (
    ("post", CODEC_DELTA),
    ("level", CODEC_FOR),
    ("parent", CODEC_DELTA),
    ("kind", CODEC_FOR),
    ("tag_codes", CODEC_FOR),
    ("value_codes", CODEC_FOR),
)

_PACKED_REQUIRED = frozenset(
    {"format_version", "page_size", "nodes", "height",
     "tag_dict_blob", "tag_dict_offsets",
     "value_dict_blob", "value_dict_offsets"}
    | {
        f"{column}_{part}"
        for column, _ in _PACKED_COLUMNS
        for part in ("refs", "bits", "offsets", "packed")
    }
)

#: Errors that mean "this file is not a healthy archive" — normalised to
#: :class:`EncodingError` so callers never see a raw zip traceback.
#: :class:`FileNotFoundError` is always re-raised bare first: a missing
#: file is not a corrupt one, and the executor's fall-forward retry
#: (commits unlink superseded shard files) keys on it.
_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    OSError,
    ValueError,
    EOFError,
    struct.error,
    pickle.UnpicklingError,
)


def save(
    doc: DocTable,
    path: str,
    compression: str = "none",
    page_size: int = DEFAULT_PAGE_SIZE,
) -> None:
    """Write ``doc`` to ``path`` as an ``.npz`` archive.

    ``compression="none"`` writes the eager v2 layout;
    ``compression="packed"`` writes the v3 compressed pageable layout
    (dictionary-encoded strings, FOR/delta bit-packed columns behind a
    page directory of ``page_size``-value blocks).
    """
    if compression == "none":
        _save_eager(doc, path)
    elif compression == "packed":
        _save_packed(doc, path, page_size)
    else:
        raise EncodingError(
            f"unknown compression {compression!r}; expected one of "
            f"{COMPRESSION_MODES}"
        )


def _save_eager(doc: DocTable, path: str) -> None:
    """The v2 layout: stored (mmap-friendly) eager members."""
    values = np.asarray(
        [_NONE_SENTINEL if v is None else v for v in doc.values], dtype=object
    )
    np.savez(
        path,
        format_version=np.asarray([2], dtype=np.int64),
        post=np.asarray(doc.post),
        level=np.asarray(doc.level),
        parent=np.asarray(doc.parent),
        kind=np.asarray(doc.kind),
        tag_codes=np.asarray(doc.tag.codes),
        tag_dictionary=np.asarray(doc.tag.dictionary, dtype=object),
        values=values,
    )


def _save_packed(doc: DocTable, path: str, page_size: int) -> None:
    """The v3 layout: packed page blocks + sorted dictionary blobs."""
    n = len(doc)
    # Tag dictionary, re-sorted for binary search; codes remapped.
    old_dictionary = list(doc.tag.dictionary)
    sorted_tags = sorted(old_dictionary)
    new_code = {s: i for i, s in enumerate(sorted_tags)}
    remap = np.asarray(
        [new_code[s] for s in old_dictionary], dtype=column_dtype("tag_codes")
    )
    tag_codes = remap[np.asarray(doc.tag.codes)]
    tag_blob, tag_offsets = encode_dictionary(sorted_tags)

    # Text values: sorted dictionary, code -1 = None (element nodes).
    unique_values = sorted({v for v in doc.values if v is not None})
    value_code = {s: i for i, s in enumerate(unique_values)}
    value_codes = np.fromiter(
        (-1 if v is None else value_code[v] for v in doc.values),
        dtype=column_dtype("value_codes"),
        count=n,
    )
    value_blob, value_offsets = encode_dictionary(unique_values)

    sources: Dict[str, np.ndarray] = {
        "post": doc.post,
        "level": doc.level,
        "parent": doc.parent,
        "kind": doc.kind,
        "tag_codes": tag_codes,
        "value_codes": value_codes,
    }
    members: Dict[str, np.ndarray] = {
        "format_version": np.asarray([3], dtype=np.int64),
        "page_size": np.asarray([page_size], dtype=np.int64),
        "nodes": np.asarray([n], dtype=np.int64),
        "height": np.asarray([doc.height], dtype=np.int64),
        "tag_dict_blob": tag_blob,
        "tag_dict_offsets": tag_offsets,
        "value_dict_blob": value_blob,
        "value_dict_offsets": value_offsets,
    }
    for column, codec in _PACKED_COLUMNS:
        directory, blob = pack_int_column(
            column, sources[column], codec, page_size
        )
        members[f"{column}_refs"] = directory.refs
        members[f"{column}_bits"] = directory.bits
        members[f"{column}_offsets"] = directory.offsets
        members[f"{column}_packed"] = blob
    np.savez(path, **members)


def _member_data_offset(path: str, info: zipfile.ZipInfo) -> int:
    """Byte offset of a stored member's data inside the archive file.

    The central directory's name/extra lengths can differ from the local
    file header's, so the local header must be re-read.
    """
    with open(path, "rb") as raw:
        raw.seek(info.header_offset)
        header = raw.read(30)
        if len(header) != 30 or header[:4] != b"PK\x03\x04":
            raise EncodingError(f"{path}: corrupt local header for {info.filename!r}")
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        return info.header_offset + 30 + name_len + extra_len


def _mmap_member(path: str, info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one stored ``.npy`` member (read-only, zero-copy)."""
    data_offset = _member_data_offset(path, info)
    with open(path, "rb") as raw:
        raw.seek(data_offset)
        version = np.lib.format.read_magic(raw)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(raw)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(raw)
        else:
            raise EncodingError(
                f"{path}: unsupported .npy version {version} in {info.filename!r}"
            )
        array_offset = raw.tell()
    try:
        return np.memmap(
            path,
            dtype=dtype,
            mode="r",
            offset=array_offset,
            shape=shape,
            order="F" if fortran else "C",
        )
    except FileNotFoundError:
        raise
    except _ARCHIVE_ERRORS as error:
        raise EncodingError(
            f"{path}: cannot map member {info.filename!r} "
            f"(truncated archive?): {error}"
        ) from error


def _stored_info(
    path: str, archive: zipfile.ZipFile, member: str
) -> zipfile.ZipInfo:
    try:
        info = archive.getinfo(member + ".npy")
    except KeyError as error:
        raise EncodingError(f"{path}: missing member {member!r}") from error
    if info.compress_type != zipfile.ZIP_STORED:
        raise EncodingError(
            f"{path}: member {member!r} is compressed; "
            "mmap requires stored (uncompressed) members"
        )
    return info


def _read_member(path: str, archive: "np.lib.npyio.NpzFile", name: str) -> np.ndarray:
    """Read one npz member, normalising corruption to :class:`EncodingError`."""
    try:
        return archive[name]
    except KeyError as error:
        raise EncodingError(f"{path}: missing member {name!r}") from error
    except FileNotFoundError:
        raise
    except _ARCHIVE_ERRORS as error:
        raise EncodingError(
            f"{path}: cannot read member {name!r} "
            f"(truncated or corrupt archive): {error}"
        ) from error


def _open_archive(path: str, allow_pickle: bool = False) -> "np.lib.npyio.NpzFile":
    try:
        return np.load(path, allow_pickle=allow_pickle)
    except FileNotFoundError:
        raise
    except _ARCHIVE_ERRORS as error:
        raise EncodingError(
            f"{path}: not a readable DocTable archive: {error}"
        ) from error


def _format_version(path: str, archive: "np.lib.npyio.NpzFile") -> int:
    if "format_version" not in archive.files:
        raise EncodingError(
            f"{path}: not a DocTable archive (no format_version member)"
        )
    version = int(_read_member(path, archive, "format_version")[0])
    if version not in SUPPORTED_VERSIONS:
        raise EncodingError(
            f"{path}: format version {version} not in "
            f"supported {SUPPORTED_VERSIONS}"
        )
    return version


def load(path: str, mmap: bool = False, decode_cache: str = "full") -> DocTable:
    """Read a table previously written by :func:`save`.

    With ``mmap=True`` the columns are opened in place instead of being
    materialised: v2 archives map their eager members read-only
    (``np.load(..., mmap_mode="r")`` semantics), v3 archives map the
    *packed* blobs and return paged columns that decode one page block
    on first touch.  The archive must then stay in place for the table's
    lifetime.

    ``decode_cache`` governs v3 paged tables: ``"full"`` (default) lets
    whole-column fallbacks keep their decoded copy — right when the
    plane fits in RAM; ``"blocks"`` keeps only the bounded block LRU —
    the out-of-core mode for shards bigger than memory.

    Raises :class:`~repro.errors.EncodingError` on truncated, foreign,
    or version-unknown archives (never a raw ``zipfile``/``OSError``
    traceback; a broken ``.npz`` must not half-load).  A *missing* file
    raises plain :class:`FileNotFoundError` — the store's fall-forward
    retry relies on telling "replaced under me" apart from "corrupt".
    """
    if decode_cache not in ("full", "blocks"):
        raise EncodingError(
            f"unknown decode_cache {decode_cache!r}; expected 'full' or 'blocks'"
        )
    with _open_archive(path) as archive:
        if _format_version(path, archive) == 3:
            return _load_packed(path, archive, mmap, decode_cache)
    # Only v2 holds object members (``values``, ``tag_dictionary``); a
    # file claiming to be v3 never reaches the unpickler.
    with _open_archive(path, allow_pickle=True) as archive:
        names = set(archive.files)
        if not _REQUIRED_MEMBERS <= names:
            raise EncodingError(
                f"{path}: not a DocTable archive "
                f"(missing {sorted(_REQUIRED_MEMBERS - names)})"
            )
        dictionary = [str(s) for s in _read_member(path, archive, "tag_dictionary")]
        values = [
            None if v == _NONE_SENTINEL else str(v)
            for v in _read_member(path, archive, "values")
        ]
        post, level, parent, kind, tag_codes = (
            _mmap_member(path, _stored_info(path, archive.zip, member))
            if mmap
            else _read_member(path, archive, member)
            for member in _NUMERIC_MEMBERS
        )
    # A mapped archive was written from an already-validated table; skip
    # the permutation/range re-checks so opening touches as few pages as
    # possible.
    return DocTable(
        post=post,
        level=level,
        parent=parent,
        kind=kind,
        tag=StringColumn(tag_codes, dictionary, validate=not mmap),
        values=values,
        validate=not mmap,
    )


def _load_packed(
    path: str,
    archive: "np.lib.npyio.NpzFile",
    mmap: bool,
    decode_cache: str,
) -> DocTable:
    """Materialise (or page-map) a v3 archive."""
    if not _PACKED_REQUIRED <= set(archive.files):
        raise EncodingError(
            f"{path}: not a packed DocTable archive "
            f"(missing {sorted(_PACKED_REQUIRED - set(archive.files))})"
        )
    page_size = int(_read_member(path, archive, "page_size")[0])
    n = int(_read_member(path, archive, "nodes")[0])
    height = int(_read_member(path, archive, "height")[0])
    directories: Dict[str, PageDirectory] = {}
    for column, codec in _PACKED_COLUMNS:
        directories[column] = PageDirectory(
            column=column,
            codec=codec,
            page_size=page_size,
            length=n,
            refs=np.ascontiguousarray(
                _read_member(path, archive, f"{column}_refs"), dtype=np.int64
            ),
            bits=np.ascontiguousarray(
                _read_member(path, archive, f"{column}_bits"), dtype=np.uint8
            ),
            offsets=np.ascontiguousarray(
                _read_member(path, archive, f"{column}_offsets"), dtype=np.int64
            ),
        )
    def fetch(name: str) -> np.ndarray:
        if mmap:  # mapped in place: no byte is read before a page decodes
            return _mmap_member(path, _stored_info(path, archive.zip, name))
        return _read_member(path, archive, name)

    tag_blob = _read_member(path, archive, "tag_dict_blob")
    tag_offsets = _read_member(path, archive, "tag_dict_offsets")
    value_blob = fetch("value_dict_blob")
    value_offsets = fetch("value_dict_offsets")
    legal = {
        "post": (-1, n - 1),
        "level": (0, height),
        "parent": (-1, n - 1),
        "kind": (min(NodeKind), max(NodeKind)),
        "tag_codes": (0, int(tag_offsets.shape[0]) - 2),
        "value_codes": (-1, int(value_offsets.shape[0]) - 2),
    }
    for column, directory in directories.items():
        check_directory(directory, *legal[column])
    blobs = {column: fetch(f"{column}_packed") for column, _ in _PACKED_COLUMNS}
    tag_dictionary = [
        dictionary_entry(tag_blob, tag_offsets, code)
        for code in range(int(tag_offsets.shape[0]) - 1)
    ]

    if not mmap:
        decoded = {
            column: decode_column(directories[column], blobs[column])
            for column, _ in _PACKED_COLUMNS
        }
        value_dictionary = [
            dictionary_entry(value_blob, value_offsets, code)
            for code in range(int(value_offsets.shape[0]) - 1)
        ]
        values = [
            None if code < 0 else value_dictionary[code]
            for code in decoded["value_codes"]
        ]
        return DocTable(
            post=decoded["post"],
            level=decoded["level"],
            parent=decoded["parent"],
            kind=decoded["kind"],
            tag=StringColumn(decoded["tag_codes"], tag_dictionary),
            values=values,
            height=height,
        )

    # Paged open: every packed blob is mapped, nothing decoded yet.
    from repro.core.paged import PagedPlane

    cache_full = decode_cache == "full"
    columns: Dict[str, PagedArray] = {}
    stats: Dict[str, PlaneStats] = {}
    for column, _ in _PACKED_COLUMNS:
        stats[column] = PlaneStats()
        columns[column] = PagedArray(
            directories[column],
            blobs[column],
            stats=stats[column],
            cache_full=cache_full,
        )
        if cache_full:
            # Decode up front: warm queries then run at eager-array
            # speed (every access takes the dense fast path).  The
            # out-of-core mode ("blocks") stays lazy and bounded.
            np.asarray(columns[column])
    values = PagedStrings(columns["value_codes"], value_blob, value_offsets)
    tag = StringColumn(columns["tag_codes"], tag_dictionary, validate=False)
    table = DocTable(
        post=columns["post"],
        level=columns["level"],
        parent=columns["parent"],
        kind=columns["kind"],
        tag=tag,
        values=values,
        validate=False,
        height=height,
    )
    table.plane = PagedPlane(
        path=path,
        page_size=page_size,
        nodes=n,
        columns=columns,
        stats=stats,
        value_dictionary_bytes=int(value_blob.shape[0]),
        value_dictionary_entries=int(value_offsets.shape[0]) - 1,
        tag_dictionary_bytes=int(tag_blob.shape[0]),
    )
    return table


def describe_archive(path: str) -> dict:
    """Metadata-only inspection of an archive (the ``store info`` verb).

    Reads headers and small members only — packed blobs are sized from
    the zip directory, never decoded.
    """
    bytes_on_disk = os.path.getsize(path)
    with _open_archive(path) as archive:
        member_sizes = {
            info.filename[:-4] if info.filename.endswith(".npy")
            else info.filename: info.file_size
            for info in archive.zip.infolist()
        }
        version = _format_version(path, archive)
        description: dict = {
            "format_version": version,
            "bytes_on_disk": bytes_on_disk,
        }
        if version == 3:
            n = int(_read_member(path, archive, "nodes")[0])
            page_size = int(_read_member(path, archive, "page_size")[0])
            columns = {}
            for column, codec in _PACKED_COLUMNS:
                offsets = _read_member(path, archive, f"{column}_offsets")
                columns[column] = {
                    "codec": codec,
                    "pages": int(offsets.shape[0]) - 1,
                    "packed_bytes": int(offsets[-1]) if offsets.shape[0] else 0,
                    "logical_bytes": n * column_dtype(column).itemsize,
                }
            tag_offsets = _read_member(path, archive, "tag_dict_offsets")
            value_offsets = _read_member(path, archive, "value_dict_offsets")
            description.update(
                {
                    "nodes": n,
                    "height": int(_read_member(path, archive, "height")[0]),
                    "page_size": page_size,
                    "columns": columns,
                    "tag_dictionary": {
                        "entries": int(tag_offsets.shape[0]) - 1,
                        "bytes": member_sizes.get("tag_dict_blob", 0),
                    },
                    "value_dictionary": {
                        "entries": int(value_offsets.shape[0]) - 1,
                        "bytes": member_sizes.get("value_dict_blob", 0),
                    },
                }
            )
        else:
            post = _read_member(path, archive, "post")
            description.update(
                {
                    "nodes": int(post.shape[0]),
                    "members": member_sizes,
                }
            )
    return description
