"""Persistence tests: save/load round-trip and format hygiene."""

import mmap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.persist import (
    _NONE_SENTINEL,
    FORMAT_VERSION,
    SUPPORTED_VERSIONS,
    load,
    save,
)
from repro.encoding.prepost import encode
from repro.errors import EncodingError
from repro.xpath.evaluator import evaluate

from _reference import random_tree


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


def save_version(doc, path, version):
    """Write ``doc`` in any supported archive format version."""
    if version == 2:
        save(doc, path, compression="none")
    else:
        save(doc, path, compression="packed")


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
        from repro.xmltree.model import element, text

        doc = encode(element("a", text("")))
        # the empty text node is dropped by... build directly instead:
        doc = encode(element("a", text("x")))
        doc.values[1] = ""  # force an empty string value
        path = str(tmp_path / "v.npz")
        save(doc, path)
        loaded = load(path)
        assert loaded.values[0] is None
        assert loaded.values[1] == ""


class TestFormatVersions:
    def test_current_format_version_is_3(self):
        assert FORMAT_VERSION == 3
        assert SUPPORTED_VERSIONS == (2, 3)

    @pytest.mark.parametrize("mmap_flag", [False, True])
    def test_v1_archives_are_rejected(self, fig1_doc, tmp_path, mmap_flag):
        """Nothing has written v1 since PR 2; loading one is a clean
        version error, not a silent eager fallback."""
        path = str(tmp_path / "v1.npz")
        save_v1(fig1_doc, path)
        with pytest.raises(EncodingError, match="format version 1 not in supported"):
            load(path, mmap=mmap_flag)

    def test_save_default_writes_v2(self, fig1_doc, tmp_path):
        """``compression="none"`` (the default) keeps the eager v2 layout."""
        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path)
        with np.load(path, allow_pickle=True) as archive:
            assert int(archive["format_version"][0]) == 2

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_round_trip_all_versions(self, small_xmark, tmp_path, version):
        path = str(tmp_path / f"v{version}.npz")
        save_version(small_xmark, path, version)
        assert tables_equal(small_xmark, load(path))

    @pytest.mark.parametrize("version", SUPPORTED_VERSIONS)
    def test_mmap_load_all_versions(self, small_xmark, tmp_path, version):
        """mmap=True zero-copies v2 columns and pages v3 blocks."""
        from repro.encoding.codec import PagedArray

        path = str(tmp_path / f"v{version}.npz")
        save_version(small_xmark, path, version)
        loaded = load(path, mmap=True)
        assert tables_equal(small_xmark, loaded)
        assert isinstance(loaded.post, np.memmap) == (version == 2)
        assert isinstance(loaded.post, PagedArray) == (version == 3)

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
        with np.load(path, allow_pickle=True) as archive:
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
        import zipfile

        path = str(tmp_path / "doc.npz")
        save(fig1_doc, path, compression="packed")
        stripped = str(tmp_path / "stripped.npz")
        with zipfile.ZipFile(path) as src, zipfile.ZipFile(stripped, "w") as dst:
            for name in src.namelist():
                if name != "post_packed.npy":
                    dst.writestr(name, src.read(name))
        with pytest.raises(EncodingError, match="DocTable archive"):
            load(stripped, mmap=mmap_flag)
