"""Persistence tests: save/load round-trip and format hygiene."""

import functools
import mmap
import os
import shutil
import struct
import zipfile
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.codec import encode_dictionary
from repro.encoding.persist import (
    COMPRESSION_MODES,
    DEFLATE_LEVEL,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    describe_archive,
    load,
    save,
)
from repro.encoding.prepost import encode, encode_gathered
from repro.encoding.updates import delete_subtree, insert_subtree, replace_subtree
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
from _widths import plane_columns, rule_width
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


def assert_round_trips_everywhere(doc, directory):
    """save → load is column-identical — the derived ``post`` / ``parent``
    included — for both compressions, mapped or not, and every column is
    an array at the width the rule gives it: memory-mapped only where a stored
    archive is mapped, never for the derived two."""
    for compression in COMPRESSION_MODES:
        path = str(directory / f"{compression}.npz")
        save(doc, path, compression=compression)
        for mmap_flag in (False, True):
            loaded = load(path, mmap=mmap_flag)
            assert tables_equal(doc, loaded), (compression, mmap_flag)
            assert loaded.height == doc.height
            mapped = mmap_flag and compression == "none"
            for name, column in plane_columns(loaded).items():
                assert isinstance(column, np.ndarray), name
                assert column.dtype == rule_width(name, column), name
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


def read_members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def raw_dictionaries(doc):
    """``doc``'s dictionaries as the ``*_dict_blob`` / ``*_dict_offsets``
    members every version up to 6 stored: the tags in use, sorted, and
    the value dictionary as it is."""
    tag_blob, tag_offsets = encode_dictionary(sorted(set(doc.tag)))
    return {
        "tag_dict_blob": tag_blob,
        "tag_dict_offsets": tag_offsets,
        "value_dict_blob": np.asarray(doc.values.blob),
        "value_dict_offsets": np.asarray(doc.values.offsets),
    }


def deflated(raw):
    """``raw`` bytes as one zlib stream member, as versions 5–9 wrote them."""
    return np.frombuffer(zlib.compress(raw, 1), dtype=np.uint8)


def save_v6(doc, path):
    """A well-formed version-6 archive, the eager layout: today's plane
    columns beside each dictionary's raw blob and offsets."""
    save(doc, path)
    members = read_members(path)
    for name in ("tag", "value"):
        del members[f"{name}_dict_lengths"]
    members.update(raw_dictionaries(doc))
    members["format_version"] = np.asarray([6], dtype=np.int64)
    np.savez(path, **members)


def save_v9(doc, path):
    """A well-formed version-9 archive, the packed layout: each column one
    zlib stream (``<column>_deflated``) beside ``nodes`` and ``height``,
    each dictionary one stream (its entry lengths, then its blob) beside
    a ``*_dict_header`` of ``[entries, blob bytes]``."""
    save(doc, path)
    members = read_members(path)
    packed = {
        "format_version": np.asarray([9], dtype=np.int64),
        "nodes": np.asarray([len(doc)], dtype=np.int64),
        "height": np.asarray([doc.height], dtype=np.int64),
    }
    for column in ("level", "kind", "tag_codes", "value_codes"):
        packed[f"{column}_deflated"] = deflated(members[column].tobytes())
    for name in ("tag", "value"):
        lengths, blob = members[f"{name}_dict_lengths"], members[f"{name}_dict_blob"]
        packed[f"{name}_dict_deflated"] = deflated(lengths.tobytes() + blob.tobytes())
        packed[f"{name}_dict_header"] = np.asarray([len(lengths), len(blob)], dtype=np.int64)
    np.savez(path, **packed)


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


def save_paged(doc, path, version, compact):
    """A well-formed packed archive of ``version`` (7 or 8): version 9's
    deflated dictionaries, ``nodes`` and ``height`` beside paged columns
    (:func:`paged_members`), the code columns compacted by ``kind`` when
    ``compact`` — a tag code for named nodes, a value code for every node
    but an element — else one of each per node."""
    save(doc, path)
    columns = {
        column: values for column, values in read_members(path).items()
        if column in ("level", "kind", "tag_codes", "value_codes")
    }
    save_v9(doc, path)
    members = read_members(path)
    kind = columns["kind"]
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
    the raw dictionary members the eager layout stored."""
    save_v7(doc, path)
    members = read_members(path)
    for name in ("tag", "value"):
        del members[f"{name}_dict_deflated"], members[f"{name}_dict_header"]
    members.update(raw_dictionaries(doc))
    members["format_version"] = np.asarray([5], dtype=np.int64)
    np.savez(path, **members)


def save_v4(doc, path):
    """A well-formed version-4 (eager) archive as PR 20–22 wrote it:
    version 6's members plus stored ``post`` / ``parent`` columns."""
    save_v6(doc, path)
    members = read_members(path)
    members.update(
        format_version=np.asarray([4], dtype=np.int64),
        post=np.asarray(doc.post),
        parent=np.asarray(doc.parent),
    )
    np.savez(path, **members)


def save_v3(doc, path):
    """A well-formed version-3 (packed) archive: version 5's members plus
    ``post`` / ``parent`` under the position-delta codec that went with
    them — frame-of-reference over ``value − pre``, so the deleted
    packer's bytes are the paged packer's over the residuals."""
    save_v5(doc, path)
    members = read_members(path)
    members["format_version"] = np.asarray([3], dtype=np.int64)
    pre = np.arange(len(doc), dtype=np.int64)
    for column in ("post", "parent"):
        residuals = np.asarray(getattr(doc, column), dtype=np.int64) - pre
        members.update(paged_members(column, residuals))
    np.savez(path, **members)


OLD_WRITERS = {3: save_v3, 4: save_v4, 5: save_v5, 6: save_v6, 7: save_v7, 8: save_v8, 9: save_v9}


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


def rewrite_member(path, member, data, compress_type=None):
    """Replace ``member``'s bytes in the archive at ``path`` (an array is
    written through :func:`npy`); every member keeps its compress type
    unless ``compress_type`` says another for this one."""
    with zipfile.ZipFile(path) as archive:
        members = {info.filename: (archive.read(info), info.compress_type) for info in archive.infolist()}
    if isinstance(data, np.ndarray):
        data = npy(data)
    own = members.get(f"{member}.npy", (b"", zipfile.ZIP_STORED))[1]
    members[f"{member}.npy"] = (data, own if compress_type is None else compress_type)
    with zipfile.ZipFile(path, "w") as archive:
        for name, (raw, kind) in members.items():
            archive.writestr(name, raw, kind, DEFLATE_LEVEL)


#: The compressions :func:`save` writes — what the per-compression tests
#: are parametrised on (their ids are the ``compression=`` names).
LAYOUTS = sorted(COMPRESSION_MODES)


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
        for compression in COMPRESSION_MODES:
            save(doc, path, compression=compression)
            for mmap_flag in (False, True):
                loaded = load(path, mmap=mmap_flag)
                assert loaded.values[0] is None
                assert loaded.values[1] == ""
                assert loaded.string_value(0) == loaded.string_value(1) == ""


#: The members of every archive, whatever its compression.
MEMBERS = sorted(
    ["format_version", "level", "kind", "tag_codes", "value_codes", "tag_dict_lengths",
     "tag_dict_blob", "value_dict_lengths", "value_dict_blob"]
)


class TestFormatVersions:
    def test_current_format_versions(self):
        """10 is the one format: ``compression=`` picks the zip members'
        compress type.  9 (the packed layout's zlib streams), 8 (paged
        columns, code columns compacted), 7 (paged, a tag and a value code
        per node), 6 (the eager layout, raw dictionary offsets), 5 (paged,
        raw dictionaries), 3 and 4 (``post`` / ``parent`` stored) and 2
        (pickled strings) are history."""
        assert FORMAT_VERSION == 10
        assert SUPPORTED_VERSIONS == (10,)
        assert COMPRESSION_MODES == ("none", "packed")
        assert DEFLATE_LEVEL == 1

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v1_archives_are_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """Nothing has written v1 since PR 2; loading one is a clean
        version error, not a silent eager fallback."""
        path = str(tmp_path / "v1.npz")
        save_v1(fig1_doc, path)
        with pytest.raises(EncodingError, match="format version 1 not in supported"):
            load(path, mmap=mmap_flag)

    def test_both_compressions_write_one_member_set(self, fig1_doc, tmp_path):
        """Four plain column members (no ``post``, no ``parent``) next to
        each dictionary's narrowed entry lengths and blob — every member
        numeric, none an object array — stored by ``compression="none"``
        (the default) and deflated by ``"packed"``; both load to identical
        dictionaries in memory."""
        paths = {compression: str(tmp_path / f"{compression}.npz") for compression in LAYOUTS}
        save(fig1_doc, paths["none"])
        save(fig1_doc, paths["packed"], compression="packed")
        for compression, path in paths.items():
            with zipfile.ZipFile(path) as archive:
                assert sorted(archive.namelist()) == [f"{name}.npy" for name in MEMBERS]
                assert {info.compress_type for info in archive.infolist()} == {
                    {"none": zipfile.ZIP_STORED, "packed": zipfile.ZIP_DEFLATED}[compression]
                }
            members = read_members(path)
            assert int(members["format_version"][0]) == 10
            # Figure 1 carries no text: every value code is −1.
            assert members["value_codes"].dtype == np.int8
            assert members["value_dict_lengths"].dtype == np.int8
        for mmap_flag in (False, True):
            stored, packed = (load(paths[c], mmap=mmap_flag) for c in LAYOUTS)
            assert stored.tag.dictionary == packed.tag.dictionary
            for part in ("blob", "offsets"):
                ours, theirs = getattr(stored.values, part), getattr(packed.values, part)
                assert ours.tobytes() == theirs.tobytes() and ours.dtype == theirs.dtype
        described = [describe_archive(paths[c]) for c in LAYOUTS]
        for key in ("tag_dictionary", "value_dictionary"):
            for field in ("entries", "bytes"):
                assert described[0][key][field] == described[1][key][field]
            assert described[0][key]["entries"] >= 0

    def test_packed_deflates_every_member_at_the_deflate_level(self, small_xmark, tmp_path):
        """``compression="packed"``: each member's bytes in the archive are
        one raw deflate stream, at :data:`DEFLATE_LEVEL`, of the member a
        stored archive holds."""
        stored, packed = str(tmp_path / "none.npz"), str(tmp_path / "packed.npz")
        save(small_xmark, stored)
        save(small_xmark, packed, compression="packed")
        with zipfile.ZipFile(stored) as plain, zipfile.ZipFile(packed) as archive:
            for info in archive.infolist():
                handle = archive.fp
                handle.seek(info.header_offset)
                name_length, extra_length = struct.unpack("<26xHH", handle.read(30))
                handle.seek(info.header_offset + 30 + name_length + extra_length)
                deflater = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -15)
                raw = plain.read(info.filename)
                assert handle.read(info.compress_size) == deflater.compress(raw) + deflater.flush()

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_round_trip_all_versions(self, small_xmark, tmp_path, layout):
        path = str(tmp_path / f"{layout}.npz")
        save(small_xmark, path, compression=layout)
        assert tables_equal(small_xmark, load(path))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_mmap_load_all_versions(self, small_xmark, tmp_path, layout):
        """mmap=True zero-copies stored columns and inflates deflated ones,
        each into the one buffer it is read from (no second copy); the
        value blob is mapped stored and inflated packed, its offsets
        derived from its lengths, ``post`` / ``parent`` dense arrays in
        both."""
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
        assert isinstance(loaded.values.blob, np.memmap) == eager
        assert type(loaded.values.offsets) is np.ndarray

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

    @pytest.mark.parametrize("member", ["value_dict_lengths", "level"])
    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_a_packed_archive_missing_a_member_is_rejected(self, fig1_doc, tmp_path, mmap_flag, member):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression="packed")
        stripped = str(tmp_path / "stripped.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(stripped, "w", zipfile.ZIP_DEFLATED) as dst:
            for name in src.namelist():
                if name != f"{member}.npy":
                    dst.writestr(name, src.read(name))
        with pytest.raises(EncodingError, match=f"DocTable archive.*{member}"):
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
            ("value_dict_lengths", lambda a: a[::-1] - 1),
            ("value_dict_lengths", lambda a: a + 1),
        ],
        ids=["codes-past-the-dictionary", "negative-lengths", "lengths-past-the-blob"],
    )
    def test_eager_value_members_are_checked_on_an_eager_load(
        self, small_xmark, tmp_path, member, forged
    ):
        path = str(tmp_path / "doc.npz")
        save(small_xmark, path)
        rewrite_member(path, member, forged(read_members(path)[member]))
        with pytest.raises(EncodingError, match="value"):
            load(path)

    @pytest.mark.parametrize("compression", LAYOUTS)
    def test_a_tag_blob_that_is_not_utf8_is_rejected(self, fig1_doc, tmp_path, compression):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression=compression)
        rewrite_member(path, "tag_dict_blob", np.full_like(read_members(path)["tag_dict_blob"], 0xFF))
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
        rewrite_member(path, "value_dict_blob", np.frombuffer(blob, np.uint8))
        rewrite_member(path, "value_dict_lengths", np.diff(offsets).astype(np.int32))
        load(path, mmap=True)  # trusted as written
        with pytest.raises(EncodingError, match="corrupt value dictionary"):
            load(path)


#: ``.npy`` members the header rule refuses: each takes the honest array
#: and returns forged member bytes.
HOSTILE_HEADERS = {
    "object-descr": lambda a: npy(a, descr="|O"),
    "fortran-order": lambda a: npy(a, fortran="True"),
    "two-dimensional": lambda a: npy(a, shape=(len(a), 1)),
    "big-endian": lambda a: npy(a.astype(">i4"), descr=">i4"),
    "npy-version-3": lambda a: npy(a, version=b"\x03\x00"),
    "count-past-the-bytes": lambda a: npy(a, shape=(len(a) + 1,)),
    "bytes-past-the-count": lambda a: npy(a, data=a.tobytes() + bytes(a.dtype.itemsize)),
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
        rewrite_member(path, member, HOSTILE_HEADERS[forgery](read_members(path)[member]))
        with pytest.raises(EncodingError, match=f"member '{member}'"):
            load(path, mmap=mmap_flag)

    @pytest.mark.parametrize("member", ["level", "value_dict_blob"])
    def test_a_deflated_member_of_a_stored_archive_is_read_not_mapped(self, fig1_doc, tmp_path, member):
        """A mapped load maps what is stored and reads the rest."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        rewrite_member(path, member, read_members(path)[member], zipfile.ZIP_DEFLATED)
        loaded = load(path, mmap=True)
        assert tables_equal(fig1_doc, loaded)
        column = loaded.level if member == "level" else loaded.values.blob
        assert type(column) is np.ndarray
        assert isinstance(loaded.kind, np.memmap)

    @pytest.mark.parametrize(
        "opener",
        [load, functools.partial(load, mmap=True), describe_archive],
        ids=["read", "mmap", "describe"],
    )
    @pytest.mark.parametrize(
        "layout, member", [("none", "format_version"), ("packed", "format_version")]
    )
    def test_an_empty_one_value_member_is_refused(self, fig1_doc, tmp_path, layout, member, opener):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression=layout)
        rewrite_member(path, member, np.empty(0, np.int64))
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
# Dictionaries: entry lengths that must tile the blob
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def honest(small_xmark, tmp_path_factory):
    """``small_xmark`` saved under each compression, by name."""
    directory = tmp_path_factory.mktemp("honest")
    paths = {compression: str(directory / f"{compression}.npz") for compression in LAYOUTS}
    for compression, path in paths.items():
        save(small_xmark, path, compression=compression)
    return paths


def forged_copy(honest, compression, tmp_path, **members):
    """A copy of the honest ``compression`` archive with ``members``
    (name → array or member bytes) rewritten."""
    path = str(tmp_path / "forged.npz")
    shutil.copyfile(honest[compression], path)
    for member, data in members.items():
        rewrite_member(path, member, data)
    return path


def _lengths(doc, name):
    return np.diff(raw_dictionaries(doc)[f"{name}_dict_offsets"])


def _blob(doc, name, tail=b"", cut=0):
    blob = raw_dictionaries(doc)[f"{name}_dict_blob"].tobytes()
    return np.frombuffer(blob[: len(blob) - cut] + tail, dtype=np.uint8)


def _shift(doc, name, by):
    """Lengths that still sum to the blob size, the first ``by`` less
    (negative when ``by`` exceeds it) and the second ``by`` more."""
    lengths = _lengths(doc, name).copy()
    lengths[:2] += (-by, by)
    return lengths


#: Every way a dictionary's entry lengths can disagree with its blob.
HOSTILE_DICTIONARIES = {
    "lengths-short-of-the-blob": lambda doc, name: {"lengths": _lengths(doc, name) // 2},
    "lengths-past-the-blob": lambda doc, name: {"lengths": _lengths(doc, name) * 2 + 1},
    "a-negative-length": lambda doc, name: {
        "lengths": _shift(doc, name, int(_lengths(doc, name)[0]) + 1)
    },
    "an-entry-short": lambda doc, name: {"lengths": _lengths(doc, name)[:-1]},
    "an-entry-past": lambda doc, name: {"lengths": np.append(_lengths(doc, name), np.int32(1))},
    "blob-a-byte-short": lambda doc, name: {"blob": _blob(doc, name, cut=1)},
    "blob-a-byte-past": lambda doc, name: {"blob": _blob(doc, name, tail=b"x")},
    "an-empty-blob": lambda doc, name: {"blob": np.empty(0, np.uint8)},
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("compression", LAYOUTS)
@pytest.mark.parametrize("name", ["tag", "value"])
@pytest.mark.parametrize("forgery", sorted(HOSTILE_DICTIONARIES))
def test_hostile_dictionary_lengths_are_rejected(
    small_xmark, honest, tmp_path, forgery, name, compression, mmap_flag
):
    """A dictionary's offsets are one ``cumsum`` of its entry lengths,
    read and checked on every load — a stored archive's mapped one too:
    non-negative, and summing to the blob."""
    forged = HOSTILE_DICTIONARIES[forgery](small_xmark, name)
    path = forged_copy(
        honest, compression, tmp_path,
        **{f"{name}_dict_{part}": forged[part] for part in ("lengths", "blob") if part in forged},
    )
    with pytest.raises(EncodingError, match=f"corrupt {name} dictionary"):
        load(path, mmap=mmap_flag)


@pytest.mark.parametrize("compression", LAYOUTS)
def test_the_forgeries_are_forged_from_an_honest_archive(small_xmark, honest, tmp_path, compression):
    """Members written by hand load as ``save``'s own do: each forgery
    above and below changes only what its name says."""
    honest_members = {
        f"{name}_dict_{part}": value
        for name in ("tag", "value")
        for part, value in (("lengths", _lengths(small_xmark, name)), ("blob", _blob(small_xmark, name)))
    }
    members = read_members(honest[compression])
    for column in ("level", "kind", "tag_codes", "value_codes"):
        honest_members[column] = members[column]
    path = forged_copy(honest, compression, tmp_path, **honest_members)
    with zipfile.ZipFile(path) as archive:
        assert {info.compress_type for info in archive.infolist()} == {COMPRESS_TYPES[compression]}
    for mmap_flag in (False, True):
        assert tables_equal(small_xmark, load(path, mmap=mmap_flag))
    write_raw_zip(path, {name: (data, None) for name, data in zip_members(honest["none"]).items()})
    write_raw_zip(path, {name: (data, deflate(data)) for name, data in zip_members(path).items()})
    for mmap_flag in (False, True):
        assert tables_equal(small_xmark, load(path, mmap=mmap_flag))


#: ``compression=`` name → the compress type of every member it writes.
COMPRESS_TYPES = {"none": zipfile.ZIP_STORED, "packed": zipfile.ZIP_DEFLATED}


def zip_members(path):
    """Every member's bytes, by member name."""
    with zipfile.ZipFile(path) as archive:
        return {info.filename[:-4]: archive.read(info) for info in archive.infolist()}


def deflate(data):
    """``data`` as the raw deflate stream a packed archive holds."""
    deflater = zlib.compressobj(DEFLATE_LEVEL, zlib.DEFLATED, -15)
    return deflater.compress(data) + deflater.flush()


def write_raw_zip(path, members):
    """An archive written byte by byte: ``members`` maps a member name to
    ``(data, stream)`` — the bytes whose size and CRC the zip directory
    declares, and the deflate stream stored in their place (``None``:
    ``data`` itself, stored)."""
    body, directory = b"", b""
    for name, (data, stream) in members.items():
        encoded = f"{name}.npy".encode()
        method, raw = (zipfile.ZIP_STORED, data) if stream is None else (zipfile.ZIP_DEFLATED, stream)
        fields = struct.pack("<HHHHLLLH", 0, method, 0, 0x21, zlib.crc32(data), len(raw), len(data), len(encoded))
        directory += (
            b"PK\x01\x02" + struct.pack("<H", 20) + struct.pack("<H", 20) + fields
            + struct.pack("<HHHHLL", 0, 0, 0, 0, 0, len(body)) + encoded
        )
        body += b"PK\x03\x04" + struct.pack("<H", 20) + fields + struct.pack("<H", 0) + encoded + raw
    end = struct.pack("<4sHHHHLLH", b"PK\x05\x06", 0, 0, len(members), len(members), len(directory), len(body), 0)
    with open(path, "wb") as handle:
        handle.write(body + directory + end)


def counted_inflation(monkeypatch):
    """The bytes out of each inflater :mod:`zipfile` makes from here on,
    one entry per inflater, in the order they are made."""
    inflated = []
    real = zlib.decompressobj

    class Counting:
        def __init__(self, *args):
            self.inner = real(*args)
            inflated.append(0)

        def decompress(self, data, max_length=0):
            out = self.inner.decompress(data, max_length)
            inflated[-1] += len(out)
            return out

        def __getattr__(self, attribute):
            return getattr(self.inner, attribute)

    monkeypatch.setattr(zipfile.zlib, "decompressobj", Counting)
    return inflated


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("member", ["level", "value_dict_blob"])
def test_a_deflate_bomb_is_inflated_no_further_than_its_member(
    small_xmark, honest, tmp_path, monkeypatch, member, mmap_flag
):
    """A member whose stream inflates to 5 MB past the bytes the zip
    directory declares is read no further than those bytes (its header,
    checked first, no further than one read); the declared bytes are the
    honest member, so it loads."""
    members = zip_members(honest["packed"])
    streams = {name: (data, deflate(data)) for name, data in members.items()}
    streams[member] = (members[member], deflate(members[member] + bytes(5_000_000)))
    path = str(tmp_path / "bomb.npz")
    write_raw_zip(path, streams)
    inflated = counted_inflation(monkeypatch)
    assert tables_equal(small_xmark, load(path, mmap=mmap_flag))
    largest = max(len(data) for data in members.values())
    assert max(inflated) <= largest + zipfile.ZipExtFile.MIN_READ_SIZE  # of 5 MB


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
    """save(packed) → load is the stored archive's read load, ``blob`` /
    ``offsets`` byte for byte, and ``encode_dictionary``'s, in every open
    mode."""
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

    @pytest.mark.parametrize("compression", LAYOUTS)
    def test_every_member_reports_its_stored_and_logical_bytes(
        self, small_xmark, tmp_path, monkeypatch, compression
    ):
        """The same report under both compressions: per member its zip
        compress size and its data bytes at their width, read from the
        zip directory and the member's header — no member is inflated
        past one read."""
        path = str(tmp_path / "doc.npz")
        save(small_xmark, path, compression=compression)
        inflated = counted_inflation(monkeypatch)
        described = describe_archive(path)
        assert max(inflated, default=0) <= zipfile.ZipExtFile.MIN_READ_SIZE
        assert bool(inflated) == (compression == "packed")
        members = read_members(path)
        with zipfile.ZipFile(path) as archive:
            assert described["members"] == {
                name: {
                    "stored_bytes": archive.getinfo(f"{name}.npy").compress_size,
                    "logical_bytes": members[name].nbytes,
                    "dtype": members[name].dtype.name,
                }
                for name in MEMBERS
            }
        for name in ("level", "kind", "tag_codes", "value_codes"):
            record = described["members"][name]
            width = rule_width(name, members[name])
            assert record["dtype"] == width.name
            assert record["logical_bytes"] == len(small_xmark) * width.itemsize
            assert (record["stored_bytes"] < record["logical_bytes"]) == (compression == "packed")
        raw = raw_dictionaries(small_xmark)
        for name in ("tag", "value"):
            record = described[f"{name}_dictionary"]
            assert record["entries"] == len(raw[f"{name}_dict_offsets"]) - 1
            assert record["bytes"] == len(raw[f"{name}_dict_blob"])
            assert record["stored_bytes"] == sum(
                described["members"][f"{name}_dict_{part}"]["stored_bytes"]
                for part in ("lengths", "blob")
            )


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
def forge_level(doc, path, compression, forge):
    """``doc`` saved with its ``level`` column run through ``forge``,
    the member stored or deflated as the archive's others are."""
    save(doc, path, compression=compression)
    rewrite_member(path, "level", forge(np.asarray(doc.level).copy()))


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
@pytest.mark.parametrize("compression", LAYOUTS)
class TestHostileLevel:
    @pytest.mark.parametrize("violation", sorted(NOT_A_TREE))
    def test_a_level_column_that_is_no_tree_is_rejected(
        self, small_xmark, tmp_path, compression, mmap_flag, violation
    ):
        path = str(tmp_path / "forged.npz")
        forge_level(small_xmark, path, compression, NOT_A_TREE[violation])
        with pytest.raises(EncodingError, match="level"):
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
# Hostile members, under both compressions
# ----------------------------------------------------------------------
#: The members holding a plane: its four columns and its two dictionaries.
DATA_MEMBERS = [
    "level", "kind", "tag_codes", "value_codes",
    "tag_dict_lengths", "tag_dict_blob", "value_dict_lengths", "value_dict_blob",
]

#: Every way a member can disagree with its header or with the plane's
#: other members: honest array → forged member bytes.
HOSTILE_MEMBERS = {
    "truncated": lambda a: npy(a)[:-5],
    "empty": lambda a: b"",
    "trailing-bytes": lambda a: npy(a) + b"\0\0",
    "a-byte-short": lambda a: npy(a)[:-1],
    "a-word-short": lambda a: npy(a)[:-4],
    "a-byte-past": lambda a: npy(a) + b"\0",
    "a-word-past": lambda a: npy(a) + a.tobytes()[-4:],
    "a-value-short": lambda a: npy(a[:-1]),
    "a-value-past": lambda a: npy(np.append(a, a[-1:])),
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("compression", LAYOUTS)
@pytest.mark.parametrize("member", DATA_MEMBERS)
@pytest.mark.parametrize("forgery", sorted(HOSTILE_MEMBERS))
def test_a_hostile_member_is_rejected_naming_it(
    honest, tmp_path, forgery, member, compression, mmap_flag
):
    """Bytes short of or past the header's count are refused by the
    header rule; an honest header of a value too few or too many
    disagrees with ``level`` (a column) or with the other half of its
    dictionary."""
    forged = HOSTILE_MEMBERS[forgery](read_members(honest[compression])[member])
    path = forged_copy(honest, compression, tmp_path, **{member: forged})
    with pytest.raises(EncodingError, match=f"member '{member}'"):
        load(path, mmap=mmap_flag)


#: Every way a packed member's deflate stream can fail the bytes the zip
#: directory declares for it: member bytes → the stream stored for them.
HOSTILE_STREAMS = {
    "truncated-stream": lambda data: deflate(data)[:-5],
    "empty-stream": lambda data: b"",
    "not-a-deflate-stream": lambda data: bytes([0xAB]) * 64,
    "a-flipped-byte": lambda data: deflate(data[:-1] + bytes([data[-1] ^ 1])),
}


@pytest.mark.parametrize("mmap_flag", [False, True], ids=["read", "mmap"])
@pytest.mark.parametrize("member", DATA_MEMBERS)
@pytest.mark.parametrize("forgery", sorted(HOSTILE_STREAMS))
def test_a_hostile_deflate_stream_is_rejected_naming_the_member(
    honest, tmp_path, forgery, member, mmap_flag
):
    members = zip_members(honest["packed"])
    streams = {name: (data, deflate(data)) for name, data in members.items()}
    streams[member] = (members[member], HOSTILE_STREAMS[forgery](members[member]))
    path = str(tmp_path / "forged.npz")
    write_raw_zip(path, streams)
    with pytest.raises(EncodingError, match=f"member '{member}'"):
        load(path, mmap=mmap_flag)


def _set(index, value):
    def forge(values):
        values[index] = value
        return values
    return forge


#: One value just outside each code column's legal range, high and low
#: (``level`` has no range but its shape: :data:`NOT_A_TREE`).
OUT_OF_RANGE = {
    ("kind", "no-node-kind"): lambda doc: _set(-1, max(NodeKind) + 1),
    ("kind", "negative"): lambda doc: _set(-1, -1),
    ("tag_codes", "past-the-dictionary"): lambda doc: _set(0, len(set(doc.tag))),
    ("tag_codes", "negative"): lambda doc: _set(0, -1),
    ("value_codes", "past-the-dictionary"): lambda doc: _set(-1, doc.values.dictionary_size),
    ("value_codes", "below-no-value"): lambda doc: _set(-1, -2),
}


@pytest.mark.parametrize(
    "compression, mmap_flag",
    [("none", False), ("packed", False), ("packed", True)],
    ids=["none-read", "packed-read", "packed-mmap"],
)
@pytest.mark.parametrize("column, value", sorted(OUT_OF_RANGE))
def test_a_value_outside_its_range_is_rejected_where_it_is_read(
    small_xmark, honest, tmp_path, column, value, compression, mmap_flag
):
    """Every column a load reads is range-checked, mapped or not: ``kind``
    a :class:`NodeKind`, a tag code inside the tag dictionary, a value
    code inside the value dictionary or −1.  (A stored archive's mapped
    columns are trusted as written.)"""
    values = read_members(honest[compression])[column].copy()
    path = forged_copy(
        honest, compression, tmp_path, **{column: OUT_OF_RANGE[column, value](small_xmark)(values)}
    )
    with pytest.raises(EncodingError, match=f"member '{column}' holds a value outside"):
        load(path, mmap=mmap_flag)


def assert_packed_round_trip(doc, directory):
    """``load(save(doc, "packed"))``, read and mapped, is ``doc`` and is
    the stored archive's round trip column by column (dtype and bytes),
    dictionaries included; ``describe_archive`` sizes each member from
    the zip directory and its header."""
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
    members = describe_archive(packed)["members"]
    with zipfile.ZipFile(packed) as archive:
        for name in ("level", "kind", "tag_codes", "value_codes"):
            width = rule_width(name, plane_columns(want)[name])
            assert members[name] == {
                "stored_bytes": archive.getinfo(f"{name}.npy").compress_size,
                "logical_bytes": len(doc) * width.itemsize,
                "dtype": width.name,
            }


ELEMENT, ATTRIBUTE = NodeKind.ELEMENT, NodeKind.ATTRIBUTE


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
