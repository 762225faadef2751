"""Persistence tests: save/load round-trip and format hygiene."""

import functools
import mmap
import os
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding import persist
from repro.encoding.codec import encode_dictionary
from repro.encoding.persist import (
    FORMAT_VERSION,
    LAYOUT_VERSIONS,
    SUPPORTED_VERSIONS,
    describe_archive,
    load,
    save,
)
from repro.encoding.prepost import encode, encode_gathered
from repro.encoding.updates import delete_subtree, insert_subtree, replace_subtree
from repro.encoding.widths import COLUMN_DTYPES
from repro.errors import EncodingError
from repro.xmltree.model import (
    NodeKind,
    attribute,
    comment,
    element,
    processing_instruction,
    text,
)
from repro.xpath.evaluator import evaluate

from _reference import random_tree
from test_adversarial_shapes import SHAPES

#: What pre-version-3 archives wrote for "no value" in their pickled
#: ``values`` member.
_NONE_SENTINEL = "\x00<none>"


def tables_equal(a, b) -> bool:
    return (
        np.array_equal(a.post, b.post)
        and np.array_equal(a.level, b.level)
        and np.array_equal(a.parent, b.parent)
        and np.array_equal(a.kind, b.kind)
        and list(a.tag) == list(b.tag)
        and a.values == b.values
    )


def plane_columns(table) -> dict:
    """A table's six plane columns by their ``COLUMN_DTYPES`` name."""
    return {
        "post": table.post, "level": table.level, "parent": table.parent,
        "kind": table.kind, "tag_codes": table.tag.codes,
        "value_codes": table.values.codes,
    }


def assert_round_trips_everywhere(doc, directory):
    """save → load is column-identical — the derived ``post`` / ``parent``
    included — for both layouts, mapped or not, and every column is an
    array at its declared width: memory-mapped only where an eager
    archive is mapped, never for the derived two."""
    for compression in LAYOUT_VERSIONS:
        path = str(directory / f"{compression}.npz")
        save(doc, path, compression=compression)
        for mmap_flag in (False, True):
            loaded = load(path, mmap=mmap_flag)
            assert tables_equal(doc, loaded), (compression, mmap_flag)
            assert loaded.height == doc.height
            mapped = mmap_flag and compression == "none"
            for name, column in plane_columns(loaded).items():
                assert isinstance(column, np.ndarray), name
                assert column.dtype == COLUMN_DTYPES[name], name
                stored = name not in ("post", "parent", "tag_codes")
                assert isinstance(column, np.memmap) == (mapped and stored), name


def save_v1(doc, path):
    """Write a legacy (compressed, version-1) archive as PR 0's save() did."""
    values = np.asarray(
        [_NONE_SENTINEL if v is None else v for v in doc.values], dtype=object
    )
    np.savez_compressed(
        path,
        format_version=np.asarray([1]),
        post=doc.post,
        level=doc.level,
        parent=doc.parent,
        kind=doc.kind,
        tag_codes=doc.tag.codes,
        tag_dictionary=np.asarray(doc.tag.dictionary, dtype=object),
        values=values,
    )


def save_v2(doc, path, values=None):
    """Write a version-2 archive as ``save(compression="none")`` did up to
    PR 19: stored members, ``values`` / ``tag_dictionary`` pickled object
    arrays.  Kept only to make files :func:`load` must refuse unread;
    ``values`` smuggles another object array into that member."""
    if values is None:
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


#: Values per page of the frame-of-reference columns of versions 3–8.
PAGE_SIZE = 1024


def paged_members(column, values):
    """The four members a packed column had in versions 3–8, as their
    packer wrote them: per page of :data:`PAGE_SIZE` values its minimum
    (``refs``), its delta width (``bits``) and where its deltas start
    (``offsets``), the deltas bit-packed little-endian (``packed``)."""
    values = np.asarray(values, dtype=np.int64)
    pages = [values[i : i + PAGE_SIZE] for i in range(0, len(values), PAGE_SIZE)]
    refs = np.asarray([page.min() for page in pages], dtype=np.int64)
    bits = np.asarray([int(page.max() - page.min()).bit_length() for page in pages], np.uint8)
    blobs = [
        np.packbits(
            np.unpackbits(
                (page - ref).astype("<u8").view(np.uint8).reshape(-1, 8),
                axis=1, bitorder="little",
            )[:, :width].reshape(-1),
            bitorder="little",
        )
        for page, ref, width in zip(pages, refs, bits)
    ]
    offsets = np.zeros(len(pages) + 1, dtype=np.int64)
    np.cumsum([len(blob) for blob in blobs], out=offsets[1:])
    return {
        f"{column}_refs": refs,
        f"{column}_bits": bits,
        f"{column}_offsets": offsets,
        f"{column}_packed": np.concatenate([np.empty(0, np.uint8), *blobs]),
    }


def deflated_column(column, values):
    """A packed column's ``<column>_deflated`` member, written by hand."""
    raw = np.asarray(values, COLUMN_DTYPES[column].newbyteorder("<")).tobytes()
    return np.frombuffer(zlib.compress(raw, 1), dtype=np.uint8)


def read_members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def raw_dictionaries(doc):
    """``doc``'s dictionaries as the eager ``*_dict_blob`` /
    ``*_dict_offsets`` members (what every layout up to 6 stored): the
    tags in use, sorted, and the value dictionary as it is."""
    tag_blob, tag_offsets = encode_dictionary(sorted(set(doc.tag)))
    return {
        "tag_dict_blob": tag_blob,
        "tag_dict_offsets": tag_offsets,
        "value_dict_blob": np.asarray(doc.values.blob),
        "value_dict_offsets": np.asarray(doc.values.offsets),
    }


def deflated(lengths, blob):
    """A dictionary's two packed-layout members, written by hand: the
    ``int32`` entry lengths then the blob in one zlib stream, and the
    ``[entries, blob bytes]`` header."""
    stream = zlib.compress(np.asarray(lengths, "<i4").tobytes() + bytes(blob), 1)
    return (
        np.frombuffer(stream, dtype=np.uint8),
        np.asarray([len(lengths), len(blob)], dtype=np.int64),
    )


def save_paged(doc, path, version, compact):
    """A well-formed packed archive of ``version`` (7 or 8): today's
    deflated dictionaries, ``nodes`` and ``height`` beside paged columns
    (:func:`paged_members`), the code columns compacted by ``kind`` when
    ``compact`` — a tag code for named nodes, a value code for every node
    but an element — else one of each per node."""
    save(doc, path, compression="packed")
    members, written = read_members(path), load(path)
    kind = np.asarray(written.kind)
    columns = {
        "level": written.level, "kind": kind,
        "tag_codes": written.tag.codes, "value_codes": written.values.codes,
    }
    if compact:
        named = np.isin(kind, [NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION])
        columns["tag_codes"] = columns["tag_codes"][named]
        columns["value_codes"] = columns["value_codes"][kind != NodeKind.ELEMENT]
    for column, values in columns.items():
        del members[f"{column}_deflated"]
        members.update(paged_members(column, values))
    members["format_version"] = np.asarray([version], dtype=np.int64)
    members["page_size"] = np.asarray([PAGE_SIZE], dtype=np.int64)
    np.savez(path, **members)


save_v8 = functools.partial(save_paged, version=8, compact=True)
save_v7 = functools.partial(save_paged, version=7, compact=False)


def save_v5(doc, path):
    """A well-formed version-5 archive: version 7's packed columns beside
    the raw dictionary members the eager layout still writes."""
    save_v7(doc, path)
    members = read_members(path)
    for name in ("tag", "value"):
        del members[f"{name}_dict_deflated"], members[f"{name}_dict_header"]
    members.update(raw_dictionaries(doc))
    members["format_version"] = np.asarray([5], dtype=np.int64)
    np.savez(path, **members)


def save_v4(doc, path):
    """A well-formed version-4 (eager) archive as PR 20–22 wrote it:
    today's members plus stored ``post`` / ``parent`` columns."""
    save(doc, path)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    members.update(
        format_version=np.asarray([4], dtype=np.int64),
        post=np.asarray(doc.post),
        parent=np.asarray(doc.parent),
    )
    np.savez(path, **members)


def save_v3(doc, path):
    """A well-formed version-3 (packed) archive: today's members plus
    ``post`` / ``parent`` under the position-delta codec that went with
    them — frame-of-reference over ``value − pre``, so the deleted
    packer's bytes are today's packer's over the residuals."""
    save_v5(doc, path)
    members = read_members(path)
    members["format_version"] = np.asarray([3], dtype=np.int64)
    pre = np.arange(len(doc), dtype=np.int64)
    for column in ("post", "parent"):
        residuals = np.asarray(getattr(doc, column), dtype=np.int64) - pre
        members.update(paged_members(column, residuals))
    np.savez(path, **members)


OLD_WRITERS = {3: save_v3, 4: save_v4, 5: save_v5, 7: save_v7, 8: save_v8}


#: The layouts :func:`save` writes, by ``compression=`` name — what the
#: per-layout tests are parametrised on (ids survive a version bump).
LAYOUTS = sorted(LAYOUT_VERSIONS)


class TestRoundTrip:
    def test_figure1(self, fig1_doc, tmp_path):
        path = str(tmp_path / "fig1.npz")
        save(fig1_doc, path)
        assert tables_equal(fig1_doc, load(path))

    @given(seed=st.integers(0, 2000), size=st.integers(1, 150))
    @settings(max_examples=25, deadline=None)
    def test_random_documents(self, seed, size, tmp_path_factory):
        doc = encode(random_tree(size, seed))
        path = str(tmp_path_factory.mktemp("persist") / "doc.npz")
        save(doc, path)
        assert tables_equal(doc, load(path))

    @given(seed=st.integers(0, 2000), size=st.integers(1, 150))
    @settings(max_examples=15, deadline=None)
    def test_random_documents_in_every_layout_and_open_mode(
        self, seed, size, tmp_path_factory
    ):
        directory = tmp_path_factory.mktemp("persist")
        assert_round_trips_everywhere(encode(random_tree(size, seed)), directory)

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_extreme_shapes_in_every_layout_and_open_mode(self, name, tmp_path):
        assert_round_trips_everywhere(encode(SHAPES[name]), tmp_path)

    def test_loaded_table_answers_queries(self, small_xmark, tmp_path):
        path = str(tmp_path / "xmark.npz")
        save(small_xmark, path)
        loaded = load(path)
        query = "/descendant::increase/ancestor::bidder"
        assert evaluate(loaded, query).tolist() == evaluate(small_xmark, query).tolist()

    def test_none_vs_empty_string_values_distinguished(self, tmp_path):
        doc = encode(element("a", k=""))  # <a k=""/>: the column is immutable
        assert doc.values.codes.tolist() == [-1, 0]
        path = str(tmp_path / "v.npz")
        for compression in LAYOUT_VERSIONS:
            save(doc, path, compression=compression)
            for mmap_flag in (False, True):
                loaded = load(path, mmap=mmap_flag)
                assert loaded.values[0] is None
                assert loaded.values[1] == ""
                assert loaded.string_value(0) == loaded.string_value(1) == ""


class TestFormatVersions:
    def test_current_format_versions(self):
        """9 is the packed layout (deflated columns and dictionaries), 6
        the eager one (raw dictionaries), both without ``post`` /
        ``parent``; 8 (paged columns, code columns compacted), 7 (paged,
        a tag and a value code per node), 5 (paged, raw dictionaries), 3
        and 4 (``post`` / ``parent`` stored) and 2 (pickled strings) are
        history."""
        assert FORMAT_VERSION == 9
        assert SUPPORTED_VERSIONS == (6, 9)
        assert LAYOUT_VERSIONS == {"none": 6, "packed": 9}

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v1_archives_are_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """Nothing has written v1 since PR 2; loading one is a clean
        version error, not a silent eager fallback."""
        path = str(tmp_path / "v1.npz")
        save_v1(fig1_doc, path)
        with pytest.raises(EncodingError, match="format version 1 not in supported"):
            load(path, mmap=mmap_flag)

    def test_save_default_writes_the_eager_layout(self, fig1_doc, tmp_path):
        """``compression="none"`` (the default): four plain column members
        (no ``post``, no ``parent``) next to raw dictionary members —
        every member numeric, none an object array.  The packed layout
        stores its dictionaries deflated; both load to identical
        dictionaries in memory."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        packed = str(tmp_path / "packed.npz")
        save(fig1_doc, packed, compression="packed")
        with np.load(path) as archive, np.load(packed) as other:
            assert int(archive["format_version"][0]) == 6
            assert sorted(archive.files) == sorted(
                ["format_version", "level", "kind",
                 "tag_codes", "value_codes", "tag_dict_blob",
                 "tag_dict_offsets", "value_dict_blob", "value_dict_offsets"]
            )
            assert not [m for m in other.files if m.startswith(("post", "parent"))]
            assert archive["value_codes"].dtype == np.int32
            assert archive["value_dict_offsets"].dtype == np.int32
            assert not [m for m in other.files if m.endswith(("_dict_blob", "_dict_offsets"))]
        for mmap_flag in (False, True):
            eager, deflated = load(path, mmap=mmap_flag), load(packed, mmap=mmap_flag)
            assert eager.tag.dictionary == deflated.tag.dictionary
            for part in ("blob", "offsets"):
                ours, theirs = getattr(eager.values, part), getattr(deflated.values, part)
                assert ours.tobytes() == theirs.tobytes() and ours.dtype == theirs.dtype
        described = describe_archive(path), describe_archive(packed)
        for key in ("tag_dictionary", "value_dictionary"):
            for field in ("entries", "bytes"):
                assert described[0][key][field] == described[1][key][field]
            assert described[0][key]["entries"] >= 0

    def test_packed_writes_one_deflated_stream_per_column(self, small_xmark, tmp_path):
        """``compression="packed"``: each stored column one zlib stream of
        its little-endian bytes at its declared width, one value per node;
        beside them ``nodes``, ``height`` and the two deflated
        dictionaries — no page member."""
        path = str(tmp_path / "packed.npz")
        save(small_xmark, path, compression="packed")
        members = read_members(path)
        assert sorted(members) == sorted(
            ["format_version", "nodes", "height", "level_deflated", "kind_deflated",
             "tag_codes_deflated", "value_codes_deflated", "tag_dict_deflated",
             "tag_dict_header", "value_dict_deflated", "value_dict_header"]
        )
        assert int(members["format_version"][0]) == 9
        assert int(members["nodes"][0]) == len(small_xmark)
        assert int(members["height"][0]) == small_xmark.height
        written = load(path)
        for column, values in plane_columns(written).items():
            if column in ("post", "parent"):
                continue
            raw = zlib.decompress(members[f"{column}_deflated"].tobytes())
            assert raw == np.asarray(values, COLUMN_DTYPES[column].newbyteorder("<")).tobytes()
            assert len(raw) == len(small_xmark) * COLUMN_DTYPES[column].itemsize

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_round_trip_all_versions(self, small_xmark, tmp_path, layout):
        path = str(tmp_path / f"{layout}.npz")
        save(small_xmark, path, compression=layout)
        assert tables_equal(small_xmark, load(path))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_mmap_load_all_versions(self, small_xmark, tmp_path, layout):
        """mmap=True zero-copies eager columns and inflates packed ones,
        each into the one buffer it is read from (no second copy); the
        value dictionary is mapped eager and inflated packed, ``post`` /
        ``parent`` are derived dense arrays in both."""
        path = str(tmp_path / f"{layout}.npz")
        save(small_xmark, path, compression=layout)
        loaded = load(path, mmap=True)
        assert tables_equal(small_xmark, loaded)
        eager = layout == "none"
        for column in (loaded.level, loaded.kind, loaded.values.codes):
            assert isinstance(column, np.memmap) == eager
            assert (type(column) is np.ndarray and type(column.base) is bytes) == (not eager)
        for derived in (loaded.post, loaded.parent):
            assert type(derived) is np.ndarray and derived.dtype == np.int32
        for part in (loaded.values.blob, loaded.values.offsets):
            assert isinstance(part, np.memmap) == eager

    def test_mmap_columns_are_file_backed_views(self, fig1_doc, tmp_path):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        loaded = load(path, mmap=True)
        for column in (loaded.level, loaded.kind, loaded.values.codes):
            assert isinstance(column, np.memmap)
            assert not column.flags.writeable
        # tag codes go through np.asarray (a base-class view); walk the
        # base chain down to the underlying OS-level memory map.
        base = loaded.tag.codes
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        assert isinstance(base, mmap.mmap)

    def test_mmap_table_answers_queries(self, small_xmark, tmp_path):
        path = str(tmp_path / "xmark.npz")
        save(small_xmark, path)
        loaded = load(path, mmap=True)
        query = "/descendant::increase/ancestor::bidder"
        expected = evaluate(small_xmark, query).tolist()
        for engine in ("scalar", "vectorized"):
            assert evaluate(loaded, query, engine=engine).tolist() == expected


class TestFormatHygiene:
    def test_missing_arrays_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.npz")
        np.savez(path, post=np.arange(3))
        with pytest.raises(EncodingError, match="not a DocTable archive"):
            load(path)

    def test_wrong_version_rejected(self, fig1_doc, tmp_path):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["format_version"] = np.asarray([FORMAT_VERSION + 1])
        np.savez(path, **arrays)
        with pytest.raises(EncodingError, match="format version"):
            load(path)

    def test_not_a_zip_rejected(self, tmp_path):
        path = str(tmp_path / "junk.npz")
        with open(path, "wb") as handle:
            handle.write(b"this is not an archive at all")
        with pytest.raises(EncodingError):
            load(path)
        with pytest.raises(EncodingError):
            load(path, mmap=True)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_truncated_archive_rejected(
        self, fig1_doc, tmp_path, layout, mmap_flag
    ):
        """A tail-truncated archive raises EncodingError, never a raw
        zipfile/zlib/OSError, for every layout and load mode."""
        path = str(tmp_path / f"{layout}.npz")
        save(fig1_doc, path, compression=layout)
        with open(path, "rb") as handle:
            blob = handle.read()
        truncated = str(tmp_path / f"{layout}-cut.npz")
        with open(truncated, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        with pytest.raises(EncodingError):
            loaded = load(truncated, mmap=mmap_flag)
            # A paged load may defer faulting until first decode.
            np.asarray(loaded.post)

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v3_missing_member_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """A packed archive with a packed member deleted is rejected cleanly."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression="packed")
        stripped = str(tmp_path / "stripped.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(stripped, "w") as dst:
            for name in src.namelist():
                if name != "level_deflated.npy":
                    dst.writestr(name, src.read(name))
        with pytest.raises(EncodingError, match="DocTable archive"):
            load(stripped, mmap=mmap_flag)

    @pytest.mark.parametrize("member", ["value_codes", "value_dict_blob", "level"])
    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_eager_missing_member_rejected(self, fig1_doc, tmp_path, member, mmap_flag):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        stripped = str(tmp_path / "stripped.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(stripped, "w") as dst:
            for name in src.namelist():
                if name != f"{member}.npy":
                    dst.writestr(name, src.read(name))
        with pytest.raises(EncodingError, match=f"DocTable archive.*{member}"):
            load(stripped, mmap=mmap_flag)

    @pytest.mark.parametrize(
        "member, forged",
        [
            ("value_codes", lambda a: np.where(a >= 0, a + 1000, a)),
            ("value_dict_offsets", lambda a: a[::-1].copy()),
            ("value_dict_offsets", lambda a: a + 1),
        ],
        ids=["codes-past-the-dictionary", "offsets-descending", "offsets-past-the-blob"],
    )
    def test_eager_value_members_are_checked_on_an_eager_load(
        self, small_xmark, tmp_path, member, forged
    ):
        path = str(tmp_path / "doc.npz")
        save(small_xmark, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays[member] = forged(arrays[member])
        np.savez(path, **arrays)
        with pytest.raises(EncodingError, match="value"):
            load(path)


    @pytest.mark.parametrize("compression", LAYOUTS)
    def test_a_tag_blob_that_is_not_utf8_is_rejected(self, fig1_doc, tmp_path, compression):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression=compression)
        arrays = read_members(path)
        raw = raw_dictionaries(fig1_doc)
        blob = np.full_like(raw["tag_dict_blob"], 0xFF)
        if compression == "none":
            arrays["tag_dict_blob"] = blob
        else:
            arrays["tag_dict_deflated"], arrays["tag_dict_header"] = deflated(
                np.diff(raw["tag_dict_offsets"]), blob
            )
        np.savez(path, **arrays)
        for mmap_flag in (False, True):
            with pytest.raises(EncodingError, match="corrupt tag dictionary"):
                load(path, mmap=mmap_flag)

    @pytest.mark.parametrize(
        "blob, offsets",
        [(b"x\xffy", [0, 1, 3]), ("\xe9".encode(), [0, 1, 2])],
        ids=["a-byte-that-is-no-utf8", "an-entry-that-opens-mid-character"],
    )
    def test_a_value_blob_that_is_not_utf8_is_rejected_by_a_read_load(
        self, tmp_path, blob, offsets
    ):
        """A mapped archive is trusted as written (no page is touched to
        check it); a read load checks every entry is whole UTF-8."""
        path = str(tmp_path / "doc.npz")
        save(encode(element("r", attribute("v", "a"), attribute("w", "b"))), path)
        members = read_members(path)
        members["value_dict_blob"] = np.frombuffer(blob, np.uint8)
        members["value_dict_offsets"] = np.asarray(offsets, np.int32)
        np.savez(path, **members)
        with pytest.raises(EncodingError, match="corrupt value dictionary"):
            load(path)


def npy(array, descr=None, shape=None, fortran="False", version=b"\x01\x00", data=None):
    """``array`` as ``.npy`` member bytes written by hand, any header field
    (and the data) forged on request."""
    header = (
        f"{{'descr': '{descr or array.dtype.str}', 'fortran_order': {fortran}, "
        f"'shape': {shape or array.shape}, }}"
    ).encode()
    width = "<H" if version == b"\x01\x00" else "<I"
    header += b" " * (-(8 + struct.calcsize(width) + len(header) + 1) % 64) + b"\n"
    return (
        b"\x93NUMPY" + version + struct.pack(width, len(header)) + header
        + (array.tobytes() if data is None else data)
    )


def rewrite_member(path, member, data, compress_type=zipfile.ZIP_STORED):
    """Replace ``member``'s bytes in the archive at ``path``."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: archive.read(info) for info in archive.infolist()}
    members[f"{member}.npy"] = data
    with zipfile.ZipFile(path, "w") as archive:
        for name, raw in members.items():
            archive.writestr(
                name, raw, compress_type if name == f"{member}.npy" else zipfile.ZIP_STORED
            )


#: ``.npy`` members the header rule refuses: each takes the honest array
#: and returns forged member bytes (``deflated`` is honest bytes, stored
#: compressed, which only a mapped load refuses).
HOSTILE_HEADERS = {
    "object-descr": lambda a: npy(a, descr="|O"),
    "fortran-order": lambda a: npy(a, fortran="True"),
    "two-dimensional": lambda a: npy(a, shape=(len(a), 1)),
    "big-endian": lambda a: npy(a.astype(">i4"), descr=">i4"),
    "npy-version-3": lambda a: npy(a, version=b"\x03\x00"),
    "count-past-the-bytes": lambda a: npy(a, shape=(len(a) + 1,)),
    "bytes-past-the-count": lambda a: npy(a, data=a.tobytes() + bytes(a.dtype.itemsize)),
    "deflated": lambda a: npy(a),
}


class TestHeaderRule:
    """Every member is read through one header rule: a ``.npy`` 1.0 / 2.0
    header of a 1-D little-endian integer array, its bytes what the header
    declares.  Anything else is an :class:`EncodingError` naming the member."""

    @pytest.mark.parametrize("version", [b"\x01\x00", b"\x02\x00"])
    @pytest.mark.parametrize("member", ["level", "value_dict_blob"])
    def test_a_hand_written_member_loads_as_saves_own(self, small_xmark, tmp_path, member, version):
        path = str(tmp_path / "doc.npz")
        save(small_xmark, path)
        rewrite_member(path, member, npy(read_members(path)[member], version=version))
        for mmap_flag in (False, True):
            assert tables_equal(small_xmark, load(path, mmap=mmap_flag))

    @pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
    @pytest.mark.parametrize("member", ["level", "value_dict_blob"])
    @pytest.mark.parametrize("forgery", sorted(HOSTILE_HEADERS))
    def test_a_hostile_header_is_refused_naming_the_member(
        self, fig1_doc, tmp_path, forgery, member, mmap_flag
    ):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        deflated = forgery == "deflated"
        rewrite_member(
            path, member, HOSTILE_HEADERS[forgery](read_members(path)[member]),
            zipfile.ZIP_DEFLATED if deflated else zipfile.ZIP_STORED,
        )
        if deflated and not mmap_flag:  # a read load inflates it
            assert tables_equal(fig1_doc, load(path))
            return
        with pytest.raises(EncodingError, match=f"member '{member}'"):
            load(path, mmap=mmap_flag)

    @pytest.mark.parametrize(
        "opener",
        [load, functools.partial(load, mmap=True), describe_archive],
        ids=["read", "mmap", "describe"],
    )
    @pytest.mark.parametrize(
        "layout, member",
        [("none", "format_version"), ("packed", "format_version"),
         ("packed", "height"), ("packed", "nodes")],
    )
    def test_an_empty_one_value_member_is_refused(self, fig1_doc, tmp_path, layout, member, opener):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression=layout)
        rewrite_member(path, member, npy(np.empty(0, np.int64)))
        with pytest.raises(EncodingError, match=f"member '{member}' must hold one value"):
            opener(path)

    def test_no_header_is_evaluated(self, small_xmark, tmp_path, monkeypatch):
        """Loading, describing and serving a store call no ``ast`` parser:
        ``literal_eval`` (numpy's ``.npy`` header parse) raises here."""
        import ast

        from repro.harness.workloads import get_forest
        from repro.service import QueryService, ShardedStore

        paths = {layout: str(tmp_path / f"{layout}.npz") for layout in LAYOUTS}
        for layout, path in paths.items():
            save(small_xmark, path, compression=layout)
        built = ShardedStore.build(str(tmp_path / "store"), get_forest(2, 0.02), shards=2)

        def refuse(*args, **kwargs):
            raise AssertionError("an archive header reached ast.literal_eval")

        monkeypatch.setattr(ast, "literal_eval", refuse)
        for path in paths.values():
            for mmap_flag in (False, True):
                assert tables_equal(small_xmark, load(path, mmap=mmap_flag))
            assert describe_archive(path)["nodes"] == len(small_xmark)
        store = ShardedStore.open(built.directory)
        store.info()
        with QueryService(store, backend="serial") as service:
            assert service.execute("//person", use_cache=False).total > 0


# ----------------------------------------------------------------------
# The packed layout's deflated dictionaries
# ----------------------------------------------------------------------
def forge_dictionary(doc, path, name, lengths=None, blob=None, stream=None, header=None):
    """``doc`` saved packed with dictionary ``name``'s members rewritten
    from (forged) entry ``lengths`` / ``blob``, or a forged ``stream`` /
    ``header`` member handed over as it is."""
    save(doc, path, compression="packed")
    raw = raw_dictionaries(doc)
    if lengths is None:
        lengths = np.diff(raw[f"{name}_dict_offsets"])
    members = read_members(path)
    honest = deflated(lengths, raw[f"{name}_dict_blob"] if blob is None else blob)
    members[f"{name}_dict_deflated"] = honest[0] if stream is None else stream
    members[f"{name}_dict_header"] = honest[1] if header is None else header
    np.savez(path, **members)


def _lengths(doc, name):
    return np.diff(raw_dictionaries(doc)[f"{name}_dict_offsets"])


def _stream(doc, name, tail=b"", cut=0):
    stream = deflated(_lengths(doc, name), raw_dictionaries(doc)[f"{name}_dict_blob"])[0]
    return np.frombuffer(stream.tobytes()[: len(stream) - cut] + tail, dtype=np.uint8)


def _shift(doc, name, by):
    """Lengths that still sum to the blob size, the first ``by`` less
    (negative when ``by`` exceeds it) and the second ``by`` more."""
    lengths = _lengths(doc, name).copy()
    lengths[:2] += (-by, by)
    return lengths


def _header(doc, name, extra=0):
    lengths = _lengths(doc, name)
    return np.asarray([len(lengths), int(lengths.sum()) + extra], dtype=np.int64)


#: Every way a dictionary's members can disagree with each other.
HOSTILE_DICTIONARIES = {
    "truncated-stream": lambda doc, name: {"stream": _stream(doc, name, cut=5)},
    "empty-stream": lambda doc, name: {"stream": np.empty(0, np.uint8)},
    "trailing-bytes": lambda doc, name: {"stream": _stream(doc, name, tail=b"\0\0")},
    "not-a-zlib-stream": lambda doc, name: {"stream": np.full(64, 0xAB, np.uint8)},
    "inflates-past-the-header": lambda doc, name: {"header": _header(doc, name, -1)},
    "inflates-short-of-the-header": lambda doc, name: {"header": _header(doc, name, +1)},
    "lengths-short-of-the-blob": lambda doc, name: {"lengths": _lengths(doc, name) // 2},
    "lengths-past-the-blob": lambda doc, name: {"lengths": _lengths(doc, name) * 2 + 1},
    "a-negative-length": lambda doc, name: {
        "lengths": _shift(doc, name, int(_lengths(doc, name)[0]) + 1)
    },
    "header-of-three": lambda doc, name: {"header": np.asarray([1, 2, 3])},
    "header-entries-past-the-bytes": lambda doc, name: {"header": np.asarray([10**6, 4])},
    "negative-header": lambda doc, name: {"header": np.asarray([-1, -1])},
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("name", ["tag", "value"])
@pytest.mark.parametrize("forgery", sorted(HOSTILE_DICTIONARIES))
def test_a_hostile_dictionary_stream_is_rejected(
    small_xmark, tmp_path, forgery, name, mmap_flag
):
    path = str(tmp_path / "forged.npz")
    forge_dictionary(small_xmark, path, name, **HOSTILE_DICTIONARIES[forgery](small_xmark, name))
    with pytest.raises(EncodingError, match=f"corrupt {name} dictionary"):
        load(path, mmap=mmap_flag)


def test_the_forgeries_are_forged_from_an_honest_archive(small_xmark, tmp_path):
    """The hand-written members load as ``save``'s own do: each forgery
    above changes only what its name says."""
    path = str(tmp_path / "honest.npz")
    forge_dictionary(small_xmark, path, "value")
    assert tables_equal(small_xmark, load(path))


def counted_inflation(monkeypatch):
    """The bytes out of each inflater :mod:`persist` makes from here on,
    one entry per inflater, in the order they are made."""
    inflated = []
    real = zlib.decompressobj

    class Counting:
        def __init__(self):
            self.inner = real()
            inflated.append(0)

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            inflated[-1] += len(out)
            return out

        def __getattr__(self, attribute):
            return getattr(self.inner, attribute)

    monkeypatch.setattr(persist.zlib, "decompressobj", Counting)
    return inflated


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
def test_inflation_stops_one_byte_past_the_header(small_xmark, tmp_path, monkeypatch, mmap_flag):
    """A stream that inflates to far more than its header declares (a
    deflate bomb) is read no further than header + 1 bytes."""
    entries = len(raw_dictionaries(small_xmark)["value_dict_offsets"]) - 1
    bomb = np.frombuffer(zlib.compress(bytes(5_000_000), 1), dtype=np.uint8)
    path = str(tmp_path / "bomb.npz")
    forge_dictionary(
        small_xmark, path, "value", stream=bomb,
        header=np.asarray([entries, entries], dtype=np.int64),
    )
    inflated = counted_inflation(monkeypatch)  # the tag's, then the value's
    with pytest.raises(EncodingError, match="corrupt value dictionary"):
        load(path, mmap=mmap_flag)
    assert inflated[-1] == 4 * entries + entries + 1  # header + 1, of 5 MB


#: Sorted, unique dictionary entries: the empty string, NUL, characters
#: of every UTF-8 length (1–4 bytes, non-BMP included), no surrogates.
_ENTRY = st.text(
    alphabet=st.one_of(
        st.sampled_from(["\x00", "a", "\xe9", "\u20ac", "\U0001F600", "\U0010FFFF"]),
        st.characters(blacklist_categories=("Cs",)),
    ),
    max_size=6,
)


@given(entries=st.sets(_ENTRY, max_size=40).map(lambda s: sorted(s | {"", "\x00"})))
@settings(max_examples=30, deadline=None)
def test_deflated_dictionaries_load_byte_identical_to_eager_ones(entries, tmp_path_factory):
    """save(packed) → load is the eager load's ``blob`` / ``offsets``
    byte for byte, and ``encode_dictionary``'s, in every open mode."""
    doc = encode(element("r", *(element("e", attribute("v", s)) for s in entries)))
    blob, offsets = encode_dictionary(entries)
    directory = tmp_path_factory.mktemp("dictionaries")
    eager, packed = str(directory / "eager.npz"), str(directory / "packed.npz")
    save(doc, eager)
    save(doc, packed, compression="packed")
    loads = [load(eager).values] + [
        load(packed, mmap=mmap_flag).values for mmap_flag in (False, True)
    ]
    for values in loads:
        assert values.blob.dtype == blob.dtype and values.offsets.dtype == offsets.dtype
        assert values.blob.tobytes() == blob.tobytes()
        assert values.offsets.tobytes() == offsets.tobytes()
        assert [values.entry(code) for code in range(len(entries))] == entries


class TestDescribeArchive:
    def test_an_eager_archive_is_counted_from_headers_never_loaded(self, small_xmark, tmp_path):
        """``nodes`` and the dictionary sizes come from ``.npy`` headers:
        an archive whose ``level`` data is cut away still describes (and
        still fails to load)."""
        path = str(tmp_path / "doc.npz")
        save(small_xmark, path)
        full = describe_archive(path)
        cut = str(tmp_path / "cut.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(cut, "w") as dst:
            for info in src.infolist():
                data = src.read(info.filename)
                if info.filename == "level.npy":
                    data = data[: len(data) - 2 * len(small_xmark)]  # the header alone
                dst.writestr(info.filename, data)
        described = describe_archive(cut)
        assert described["nodes"] == full["nodes"] == len(small_xmark)
        raw = raw_dictionaries(small_xmark)
        for name in ("tag", "value"):
            assert described[f"{name}_dictionary"] == full[f"{name}_dictionary"]
            assert described[f"{name}_dictionary"]["entries"] == len(raw[f"{name}_dict_offsets"]) - 1
            assert described[f"{name}_dictionary"]["bytes"] == len(raw[f"{name}_dict_blob"])
        with pytest.raises(EncodingError):
            load(cut)
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(cut, "w") as dst:
            for info in src.infolist():
                data = src.read(info.filename)
                dst.writestr(info.filename, b"not an npy header" if info.filename == "level.npy" else data)
        with pytest.raises(EncodingError, match="level"):
            describe_archive(cut)

    def test_a_packed_archive_reports_raw_and_stored_bytes_without_inflating(
        self, small_xmark, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "packed.npz")
        save(small_xmark, path, compression="packed")
        monkeypatch.setattr(persist.zlib, "decompressobj", None)  # no inflater
        described = describe_archive(path)
        assert (described["nodes"], described["height"]) == (len(small_xmark), small_xmark.height)
        with zipfile.ZipFile(path) as archive:
            for name, record in described["columns"].items():
                assert record == {
                    "stored_bytes": archive.getinfo(f"{name}_deflated.npy").file_size,
                    "logical_bytes": len(small_xmark) * COLUMN_DTYPES[name].itemsize,
                }
                assert record["stored_bytes"] < record["logical_bytes"]
        raw = raw_dictionaries(small_xmark)
        with zipfile.ZipFile(path) as archive:
            for name in ("tag", "value"):
                record = described[f"{name}_dictionary"]
                assert record["entries"] == len(raw[f"{name}_dict_offsets"]) - 1
                assert record["bytes"] == len(raw[f"{name}_dict_blob"])
                assert record["stored_bytes"] == sum(
                    archive.getinfo(f"{name}_dict_{part}.npy").file_size
                    for part in ("deflated", "header")
                )
        value = described["value_dictionary"]
        assert value["stored_bytes"] < value["bytes"] + 4 * value["entries"]


# ----------------------------------------------------------------------
# No archive byte reaches an unpickler
# ----------------------------------------------------------------------
class Detonator:
    """Unpickling one creates ``path`` — the file the tests look for."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@pytest.fixture
def hostile_v2(fig1_doc, tmp_path):
    """A well-formed version-2 archive whose ``values`` pickle would
    create a sentinel file; returns ``(archive path, sentinel path)``."""
    sentinel = str(tmp_path / "unpickled.sentinel")
    payload = np.empty(len(fig1_doc), dtype=object)
    payload[:] = [Detonator(sentinel)] * len(fig1_doc)
    path = str(tmp_path / "hostile.npz")
    save_v2(fig1_doc, path, values=payload)
    with zipfile.ZipFile(path) as container:  # the pickle really is in there
        assert b"unpickled.sentinel" in container.read("values.npy")
    return path, sentinel


class TestNoArchiveByteReachesAnUnpickler:
    def test_the_file_is_what_pr19_would_have_unpickled(self, hostile_v2):
        path, sentinel = hostile_v2
        with np.load(path, allow_pickle=True) as archive:
            archive["values"]
        assert os.path.exists(sentinel)  # the payload is live...
        os.remove(sentinel)

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_load_refuses_it_by_version(self, hostile_v2, mmap_flag):
        path, sentinel = hostile_v2
        with pytest.raises(EncodingError, match="format version 2 not in supported"):
            load(path, mmap=mmap_flag)
        assert not os.path.exists(sentinel)  # ...and load never ran it

    def test_describe_archive_refuses_it(self, hostile_v2):
        path, sentinel = hostile_v2
        with pytest.raises(EncodingError, match="format version 2"):
            describe_archive(path)
        assert not os.path.exists(sentinel)

    def test_a_benign_v2_archive_is_refused_the_same_way(self, fig1_doc, tmp_path):
        path = str(tmp_path / "v2.npz")
        save_v2(fig1_doc, path)
        for mmap_flag in (False, True):
            with pytest.raises(EncodingError, match="format version 2"):
                load(path, mmap=mmap_flag)

    @pytest.mark.parametrize("member", ["value_codes", "value_dict_blob", "level"])
    def test_an_object_member_in_a_current_archive_is_refused(
        self, fig1_doc, tmp_path, member
    ):
        """The version check is not the only guard: an eager file
        smuggling a pickle is refused by either load mode."""
        sentinel = str(tmp_path / "unpickled.sentinel")
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        payload = np.empty(len(fig1_doc), dtype=object)
        payload[:] = [Detonator(sentinel)] * len(fig1_doc)
        arrays[member] = payload
        np.savez(path, **arrays)
        for mmap_flag in (False, True):
            with pytest.raises(EncodingError):
                load(path, mmap=mmap_flag)
        assert not os.path.exists(sentinel)

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    def test_a_store_over_it_opens_and_fails_the_first_query_cleanly(
        self, hostile_v2, tmp_path, backend
    ):
        """A shard file swapped for the hostile archive: the store opens
        (shards load lazily), ``store info`` and the first query are
        clean errors on either backend, nothing is unpickled."""
        import shutil

        from repro.service import QueryService

        path, sentinel = hostile_v2
        store = swap_worker_shard(
            tmp_path, lambda doc, shard_file: shutil.copyfile(path, shard_file)
        )
        with pytest.raises(EncodingError, match="format version 2"):
            store.info()
        with QueryService(store, backend=backend) as service:
            with pytest.raises(EncodingError, match="format version 2"):
                service.execute("//person", use_cache=False)
            assert_worker_ran(service)
        assert not os.path.exists(sentinel)


# ----------------------------------------------------------------------
# Archives of the versions that stored post / parent are refused
# ----------------------------------------------------------------------
def swap_worker_shard(tmp_path, write):
    """A two-shard eager store whose shard 1 file ``write(doc, path)`` has
    replaced; the store still opens (shards load lazily).  Shard 1 is
    the one ``fabric:2`` runs on its forked worker (lane 1)."""
    from repro.harness.workloads import get_forest
    from repro.service import ShardedStore

    built = ShardedStore.build(
        str(tmp_path / "store"), get_forest(2, 0.02), shards=2, compression="none"
    )
    shard_file = os.path.join(built.directory, built.shard_entry(1)["file"])
    write(load(shard_file), shard_file)  # read, not mapped: the file is overwritten
    return ShardedStore.open(built.directory)


def assert_worker_ran(service):
    """Under ``fabric:2`` the failing shard ran on the forked worker:
    the error was rebuilt across the process boundary, not raised by
    lane 0 in-process."""
    if service.backend.name == "fabric":
        assert service.backend.dispatched == [1, 1]


@pytest.mark.parametrize("version", sorted(OLD_WRITERS))
class TestOldVersionsAreRefused:
    def refusal(self, version):
        return pytest.raises(
            EncodingError,
            match=f"format version {version} not in supported.*rebuild.*repro shard",
        )

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_load_refuses_a_well_formed_file(self, small_xmark, tmp_path, version, mmap_flag):
        path = str(tmp_path / "old.npz")
        OLD_WRITERS[version](small_xmark, path)
        with self.refusal(version):
            load(path, mmap=mmap_flag)

    def test_describe_archive_refuses_it(self, small_xmark, tmp_path, version):
        path = str(tmp_path / "old.npz")
        OLD_WRITERS[version](small_xmark, path)
        with self.refusal(version):
            describe_archive(path)

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    def test_store_info_and_the_first_query_refuse_it(self, tmp_path, version, backend):
        from repro.service import QueryService

        store = swap_worker_shard(tmp_path, OLD_WRITERS[version])
        with self.refusal(version):
            store.info()
        with QueryService(store, backend=backend) as service:
            with self.refusal(version):
                service.execute("//person", use_cache=False)
            assert_worker_ran(service)


# ----------------------------------------------------------------------
# A level column that is not a tree is a clean error, never a plane
# ----------------------------------------------------------------------
def forge_level(doc, path, compression, forge, height=None):
    """``doc`` saved with its ``level`` column run through ``forge`` (and,
    packed, deflated again: an honest stream of a forged column)."""
    save(doc, path, compression=compression)
    with np.load(path) as archive:
        members = {name: archive[name] for name in archive.files}
    level = forge(np.asarray(doc.level).copy())
    if compression == "none":
        members["level"] = level
    else:
        members["level_deflated"] = deflated_column("level", level)
        if height is not None:
            members["height"] = np.asarray([height], dtype=np.int64)
    np.savez(path, **members)


def _put(index, value):
    def forge(level):
        level[index] = value
        return level
    return forge


#: Every way a level column can fail to be a pre-order walk of one tree
#: (on a document whose node 1 is a child of the root, height ≥ 3).
NOT_A_TREE = {
    "opens-below-the-root": lambda level: level + 1,
    "a-second-root": _put(5, 0),
    "a-negative-level": _put(5, -1),
    "two-levels-down-in-one-step": _put(1, 3),
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("compression", sorted(LAYOUT_VERSIONS))
class TestHostileLevel:
    @pytest.mark.parametrize("violation", sorted(NOT_A_TREE))
    def test_a_level_column_that_is_no_tree_is_rejected(
        self, small_xmark, tmp_path, compression, mmap_flag, violation
    ):
        path = str(tmp_path / "forged.npz")
        forge_level(small_xmark, path, compression, NOT_A_TREE[violation])
        with pytest.raises(EncodingError, match="level"):
            load(path, mmap=mmap_flag)


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
def test_a_packed_archives_height_must_be_the_one_its_levels_reach(
    small_xmark, tmp_path, mmap_flag
):
    path = str(tmp_path / "forged.npz")
    forge_level(
        small_xmark, path, "packed", lambda level: level, height=small_xmark.height + 1
    )
    with pytest.raises(EncodingError, match="height"):
        load(path, mmap=mmap_flag)


@pytest.mark.parametrize("backend", ["serial", "fabric:2"])
def test_a_store_over_a_hostile_level_fails_the_first_query_cleanly(tmp_path, backend):
    from repro.service import QueryService

    store = swap_worker_shard(
        tmp_path, lambda doc, path: forge_level(doc, path, "none", _put(5, 0))
    )
    with QueryService(store, backend=backend) as service:
        with pytest.raises(EncodingError, match="level column is not one tree"):
            service.execute("//person", use_cache=False)
        assert_worker_ran(service)


# ----------------------------------------------------------------------
# The packed layout's deflated columns
# ----------------------------------------------------------------------
ELEMENT, ATTRIBUTE = NodeKind.ELEMENT, NodeKind.ATTRIBUTE


def forge_column(doc, path, column, forge=None, stream=None):
    """``doc`` saved packed with ``column``'s stream rewritten: the honest
    stream's bytes run through ``stream``, or the column's values through
    ``forge`` and deflated again (an honest stream of a forged column)."""
    save(doc, path, compression="packed")
    members = read_members(path)
    honest = members[f"{column}_deflated"]
    if forge is not None:
        values = np.frombuffer(
            zlib.decompress(honest.tobytes()), COLUMN_DTYPES[column].newbyteorder("<")
        )
        members[f"{column}_deflated"] = deflated_column(column, forge(values.copy()))
    else:
        members[f"{column}_deflated"] = np.frombuffer(stream(honest.tobytes()), np.uint8)
    np.savez(path, **members)


def _inflated(transform):
    """A stream forgery: the honest stream's raw bytes through ``transform``,
    deflated again."""
    return lambda honest: zlib.compress(transform(zlib.decompress(honest)), 1)


#: Every way a column's stream can disagree with the ``nodes`` it declares.
HOSTILE_STREAMS = {
    "truncated-stream": lambda honest: honest[:-5],
    "trailing-bytes": lambda honest: honest + b"\0\0",
    "empty-stream": lambda honest: b"",
    "not-a-zlib-stream": lambda honest: bytes([0xAB]) * 64,
    "inflates-a-byte-short": _inflated(lambda raw: raw[:-1]),
    "inflates-a-word-short": _inflated(lambda raw: raw[:-4]),
    "inflates-a-byte-past": _inflated(lambda raw: raw + b"\0"),
    "inflates-a-word-past": _inflated(lambda raw: raw + raw[:4]),
}


def _set(index, value):
    def forge(values):
        values[index] = value
        return values
    return forge


#: One value just outside each column's legal range, high and low.
OUT_OF_RANGE = {
    ("level", "past-the-height"): lambda doc: _set(-1, doc.height + 1),
    ("level", "negative"): lambda doc: _set(-1, -1),
    ("kind", "no-node-kind"): lambda doc: _set(-1, max(NodeKind) + 1),
    ("kind", "negative"): lambda doc: _set(-1, -1),
    ("tag_codes", "past-the-dictionary"): lambda doc: _set(0, len(set(doc.tag))),
    ("tag_codes", "negative"): lambda doc: _set(0, -1),
    ("value_codes", "past-the-dictionary"): lambda doc: _set(-1, doc.values.dictionary_size),
    ("value_codes", "below-no-value"): lambda doc: _set(-1, -2),
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("column", ["level", "kind", "tag_codes", "value_codes"])
@pytest.mark.parametrize("forgery", sorted(HOSTILE_STREAMS))
def test_a_hostile_column_stream_is_rejected_naming_the_member(
    small_xmark, tmp_path, forgery, column, mmap_flag
):
    path = str(tmp_path / "forged.npz")
    forge_column(small_xmark, path, column, stream=HOSTILE_STREAMS[forgery])
    with pytest.raises(EncodingError, match=f"member '{column}_deflated'"):
        load(path, mmap=mmap_flag)


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("column, value", sorted(OUT_OF_RANGE))
def test_a_value_outside_its_range_is_rejected_on_every_load(
    small_xmark, tmp_path, column, value, mmap_flag
):
    """Every inflated column is range-checked, mapped or read: ``kind``
    a :class:`NodeKind`, ``level`` within ``[0, height]``, a tag code
    inside the tag dictionary, a value code inside the value dictionary
    or −1."""
    path = str(tmp_path / "forged.npz")
    forge_column(small_xmark, path, column, forge=OUT_OF_RANGE[column, value](small_xmark))
    with pytest.raises(EncodingError, match=f"member '{column}_deflated' holds a value outside"):
        load(path, mmap=mmap_flag)


def test_the_column_forgeries_are_forged_from_an_honest_archive(small_xmark, tmp_path):
    """The hand-deflated streams load as ``save``'s own do: each forgery
    above changes only what its name says."""
    path = str(tmp_path / "honest.npz")
    for column in ("level", "kind", "tag_codes", "value_codes"):
        forge_column(small_xmark, path, column, forge=lambda values: values)
        assert tables_equal(small_xmark, load(path))
        forge_column(small_xmark, path, column, stream=_inflated(lambda raw: raw))
        assert tables_equal(small_xmark, load(path))


@pytest.mark.parametrize("nodes", [-1, 2**31])
def test_a_node_count_no_plane_can_hold_is_rejected(small_xmark, tmp_path, nodes):
    path = str(tmp_path / "forged.npz")
    save(small_xmark, path, compression="packed")
    rewrite_member(path, "nodes", npy(np.asarray([nodes], np.int64)))
    for mmap_flag in (False, True):
        with pytest.raises(EncodingError, match="member 'nodes'"):
            load(path, mmap=mmap_flag)


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
def test_column_inflation_stops_one_byte_past_the_nodes(small_xmark, tmp_path, monkeypatch, mmap_flag):
    """A column stream that inflates to far more than ``nodes`` values
    (a deflate bomb) is read no further than ``nodes × width + 1`` bytes."""
    path = str(tmp_path / "bomb.npz")
    forge_column(small_xmark, path, "level", stream=lambda honest: zlib.compress(bytes(5_000_000), 1))
    inflated = counted_inflation(monkeypatch)  # the dictionaries', then the level's
    with pytest.raises(EncodingError, match="member 'level_deflated'"):
        load(path, mmap=mmap_flag)
    assert inflated[-1] == 2 * len(small_xmark) + 1  # nodes × int16 + 1, of 5 MB


def assert_packed_round_trip(doc, directory):
    """``load(save(doc, "packed"))``, read and mapped, is ``doc`` and is
    the eager round trip column by column (dtype and bytes), dictionaries
    included; ``describe_archive`` sizes each column from the zip
    directory."""
    eager, packed = str(directory / "eager.npz"), str(directory / "packed.npz")
    save(doc, eager)
    save(doc, packed, compression="packed")
    want = load(eager)
    for mmap_flag in (False, True):
        got = load(packed, mmap=mmap_flag)
        assert tables_equal(doc, got), mmap_flag
        assert got.height == want.height
        for name, column in plane_columns(got).items():
            twin = plane_columns(want)[name]
            assert (column.dtype, column.tobytes()) == (twin.dtype, twin.tobytes()), name
        assert got.tag.dictionary == want.tag.dictionary
        for part in ("blob", "offsets"):
            assert getattr(got.values, part).tobytes() == getattr(want.values, part).tobytes()
    with zipfile.ZipFile(packed) as archive:
        assert describe_archive(packed)["columns"] == {
            name: {
                "stored_bytes": archive.getinfo(f"{name}_deflated.npy").file_size,
                "logical_bytes": len(doc) * COLUMN_DTYPES[name].itemsize,
            }
            for name in ("level", "kind", "tag_codes", "value_codes")
        }


def _leaf(kind, i, draw):
    """A text, comment or PI leaf for the plane strategy, maybe empty."""
    data = draw(st.sampled_from(["", "v", f"v{i % 3}"]))
    if kind == "text":
        return text(data)
    if kind == "comment":
        return comment(data)
    return processing_instruction(draw(st.sampled_from(["p", "q"])), data)


@st.composite
def trees(draw, kinds):
    """A random tree whose non-root nodes are drawn from ``kinds``."""
    root = element(draw(st.sampled_from("rst")))
    elements = [root]
    for i in range(draw(st.integers(0, 40))):
        parent = draw(st.sampled_from(elements))
        kind = draw(st.sampled_from(kinds))
        if kind == "element":
            elements.append(parent.append(element(draw(st.sampled_from("xyz")))))
        elif kind == "attribute":
            parent.set_attribute(f"a{i}", draw(st.sampled_from(["", "v"])))
        else:
            parent.append(_leaf(kind, i, draw))
    return root


ALL_KINDS = ("element", "attribute", "text", "comment", "pi")


@st.composite
def planes(draw):
    """A plane of every node kind or of elements only, one tree or a
    gathered forest, then maybe one insert / delete / replace splice."""
    kinds = draw(st.sampled_from([ALL_KINDS, ("element",)]))
    roots = draw(st.lists(trees(kinds), min_size=1, max_size=3))
    doc = encode(roots[0]) if len(roots) == 1 else encode_gathered("g", roots)
    splice = draw(st.sampled_from(["none", "insert", "delete", "replace"]))
    if splice == "insert":
        parents = np.flatnonzero(np.asarray(doc.kind) == ELEMENT)
        doc = insert_subtree(doc, int(draw(st.sampled_from(parents))), draw(trees(kinds)))
    elif splice != "none" and len(doc) > 1:
        pre = draw(st.integers(1, len(doc) - 1))
        if splice == "delete":
            doc = delete_subtree(doc, pre)
        elif doc.kind_of(pre) == ATTRIBUTE:
            doc = replace_subtree(doc, pre, attribute("b", draw(st.sampled_from(["", "w"]))))
        else:
            doc = replace_subtree(doc, pre, draw(trees(kinds)))
    return doc


@given(doc=planes())
@settings(max_examples=60, deadline=None)
def test_packed_round_trip_of_any_plane(doc, tmp_path_factory):
    assert_packed_round_trip(doc, tmp_path_factory.mktemp("packed"))
