"""Persistence tests: save/load round-trip and format hygiene."""

import mmap
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.persist import (
    FORMAT_VERSION,
    LAYOUT_VERSIONS,
    SUPPORTED_VERSIONS,
    describe_archive,
    load,
    save,
)
from repro.encoding.prepost import encode
from repro.errors import EncodingError
from repro.xpath.evaluator import evaluate

from _reference import random_tree

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


def save_version(doc, path, version):
    """Write ``doc`` in any supported archive format version."""
    layout = {v: name for name, v in LAYOUT_VERSIONS.items()}[version]
    save(doc, path, compression=layout)


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

    def test_loaded_table_answers_queries(self, small_xmark, tmp_path):
        path = str(tmp_path / "xmark.npz")
        save(small_xmark, path)
        loaded = load(path)
        query = "/descendant::increase/ancestor::bidder"
        assert evaluate(loaded, query).tolist() == evaluate(small_xmark, query).tolist()

    def test_none_vs_empty_string_values_distinguished(self, tmp_path):
        from repro.xmltree.model import element

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
    def test_current_format_version_is_4(self):
        """3 is the packed layout, 4 the eager one over the same
        dictionary members; 2 (pickled strings) is history."""
        assert FORMAT_VERSION == 4
        assert SUPPORTED_VERSIONS == (3, 4)
        assert LAYOUT_VERSIONS == {"none": 4, "packed": 3}

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v1_archives_are_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """Nothing has written v1 since PR 2; loading one is a clean
        version error, not a silent eager fallback."""
        path = str(tmp_path / "v1.npz")
        save_v1(fig1_doc, path)
        with pytest.raises(EncodingError, match="format version 1 not in supported"):
            load(path, mmap=mmap_flag)

    def test_save_default_writes_the_eager_layout(self, fig1_doc, tmp_path):
        """``compression="none"`` (the default): plain column members next
        to the dictionary members the packed layout also writes — every
        member numeric, none an object array."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        packed = str(tmp_path / "packed.npz")
        save(fig1_doc, packed, compression="packed")
        with np.load(path) as archive, np.load(packed) as other:
            assert int(archive["format_version"][0]) == 4
            assert sorted(archive.files) == sorted(
                ["format_version", "post", "level", "parent", "kind",
                 "tag_codes", "value_codes", "tag_dict_blob",
                 "tag_dict_offsets", "value_dict_blob", "value_dict_offsets"]
            )
            assert archive["value_codes"].dtype == np.int32
            assert archive["value_dict_offsets"].dtype == np.int32
            for name in ("tag_dict_blob", "tag_dict_offsets",
                         "value_dict_blob", "value_dict_offsets"):
                assert archive[name].tobytes() == other[name].tobytes()
                assert archive[name].dtype == other[name].dtype
        described = describe_archive(path), describe_archive(packed)
        for key in ("tag_dictionary", "value_dictionary"):
            assert described[0][key] == described[1][key]
            assert described[0][key]["entries"] >= 0

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_round_trip_all_versions(self, small_xmark, tmp_path, version):
        path = str(tmp_path / f"v{version}.npz")
        save_version(small_xmark, path, version)
        assert tables_equal(small_xmark, load(path))

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_mmap_load_all_versions(self, small_xmark, tmp_path, version):
        """mmap=True zero-copies eager columns and pages packed blocks;
        the value dictionary is mapped in both."""
        from repro.encoding.codec import PagedArray

        path = str(tmp_path / f"v{version}.npz")
        save_version(small_xmark, path, version)
        loaded = load(path, mmap=True)
        assert tables_equal(small_xmark, loaded)
        assert isinstance(loaded.post, np.memmap) == (version == 4)
        assert isinstance(loaded.post, PagedArray) == (version == 3)
        assert isinstance(loaded.values.codes, np.memmap) == (version == 4)
        assert isinstance(loaded.values.codes, PagedArray) == (version == 3)
        assert isinstance(loaded.values.blob, np.memmap)
        assert isinstance(loaded.values.offsets, np.memmap)

    def test_mmap_columns_are_file_backed_views(self, fig1_doc, tmp_path):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        loaded = load(path, mmap=True)
        for column in (loaded.post, loaded.level, loaded.parent, loaded.kind):
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

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_truncated_archive_rejected(
        self, fig1_doc, tmp_path, version, mmap_flag
    ):
        """A tail-truncated archive raises EncodingError, never a raw
        zipfile/zlib/OSError, for every format version and load mode."""
        path = str(tmp_path / f"v{version}.npz")
        save_version(fig1_doc, path, version)
        with open(path, "rb") as handle:
            blob = handle.read()
        truncated = str(tmp_path / f"v{version}-cut.npz")
        with open(truncated, "wb") as handle:
            handle.write(blob[: len(blob) // 3])
        with pytest.raises(EncodingError):
            loaded = load(truncated, mmap=mmap_flag)
            # A paged load may defer faulting until first decode.
            np.asarray(loaded.post)

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v3_missing_member_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """A v3 archive with a packed member deleted is rejected cleanly."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression="packed")
        stripped = str(tmp_path / "stripped.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(stripped, "w") as dst:
            for name in src.namelist():
                if name != "post_packed.npy":
                    dst.writestr(name, src.read(name))
        with pytest.raises(EncodingError, match="DocTable archive"):
            load(stripped, mmap=mmap_flag)

    @pytest.mark.parametrize("member", ["value_codes", "value_dict_blob", "post"])
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


    @pytest.mark.parametrize("compression", sorted(LAYOUT_VERSIONS))
    def test_a_tag_blob_that_is_not_utf8_is_rejected(self, fig1_doc, tmp_path, compression):
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression=compression)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["tag_dict_blob"] = np.full_like(arrays["tag_dict_blob"], 0xFF)
        np.savez(path, **arrays)
        for mmap_flag in (False, True):
            with pytest.raises(EncodingError, match="corrupt tag dictionary"):
                load(path, mmap=mmap_flag)


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

    @pytest.mark.parametrize("member", ["value_codes", "value_dict_blob", "post"])
    def test_an_object_member_in_a_current_archive_is_refused(
        self, fig1_doc, tmp_path, member
    ):
        """The version check is not the only guard: an eager (v4) file
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

    @pytest.mark.parametrize("backend", ["serial", "fabric:1"])
    def test_a_store_over_it_opens_and_fails_the_first_query_cleanly(
        self, hostile_v2, tmp_path, backend
    ):
        """A shard file swapped for the hostile archive: the store opens
        (shards load lazily), ``store info`` and the first query are
        clean errors on either backend, nothing is unpickled."""
        import shutil

        from repro.harness.workloads import get_forest
        from repro.service import QueryService, ShardedStore

        path, sentinel = hostile_v2
        built = ShardedStore.build(
            str(tmp_path / "store"), get_forest(2, 0.02), shards=1, compression="none"
        )
        shard_file = os.path.join(built.directory, built.shard_entry(0)["file"])
        shutil.copyfile(path, shard_file)
        store = ShardedStore.open(built.directory)
        with pytest.raises(EncodingError, match="format version 2"):
            store.info()
        with QueryService(store, backend=backend) as service:
            with pytest.raises(EncodingError, match="format version 2"):
                service.execute("//person", use_cache=False)
        assert not os.path.exists(sentinel)
