"""Codec tests: bit packing, page directories, dictionaries."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.codec import (
    CODEC_FOR,
    compact_dictionary,
    decode_column,
    dictionary_entry,
    dictionary_find,
    encode_dictionary,
    merge_dictionaries,
    pack_int_column,
)
from repro.encoding.doctable import ValueIndex
from repro.encoding.widths import COLUMN_DTYPES, column_dtype
from repro.errors import EncodingError


def pack(values, codec=CODEC_FOR, page_size=64):
    return pack_int_column("col", np.asarray(values, dtype=np.int64), codec, page_size)


class TestPackRoundTrip:
    @pytest.mark.parametrize("codec", [CODEC_FOR])
    @pytest.mark.parametrize(
        "n", [0, 1, 63, 64, 65, 127, 128, 129, 1000]
    )
    def test_block_boundaries(self, codec, n):
        rng = np.random.default_rng(n)
        values = rng.integers(-(2**40), 2**40, size=n)
        directory, blob = pack(values, codec)
        assert directory.length == n
        assert directory.n_blocks == -(-n // 64)
        assert np.array_equal(decode_column(directory, blob), values)

    @pytest.mark.parametrize("codec", [CODEC_FOR])
    def test_constant_blocks_pack_to_zero_bits(self, codec):
        base = np.full(256, 7, dtype=np.int64)
        directory, blob = pack(base, codec)
        assert directory.bits.max() == 0
        assert blob.shape[0] == 0
        assert np.array_equal(decode_column(directory, blob), base)

    @given(
        data=st.lists(st.integers(-(2**62), 2**62), max_size=300),
        page_pow=st.integers(2, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_round_trip(self, data, page_pow):
        """Every column round-trips, except one holding a page that spans
        2**63 or more: no stored column admits one, and it is refused."""
        values = np.asarray(data, dtype=np.int64)
        directory, blob = pack(values, page_size=2**page_pow)
        if directory.length and int(directory.bits.max()) > 63:
            with pytest.raises(EncodingError, match="wider than 63 bits"):
                decode_column(directory, blob)
        else:
            assert np.array_equal(decode_column(directory, blob), values)

    @pytest.mark.parametrize("codec", [CODEC_FOR])
    @pytest.mark.parametrize("page_size", [1, 2, 8, 64, 1024])
    def test_whole_column_decode_is_the_pages_concatenated(self, codec, page_size):
        """``decode_column`` unpacks runs of pages in one pass; each page
        must read back as the values packed into it, whatever the widths
        met in a run (0-bit constant pages, 63-bit pages, a short last
        page)."""
        rng = np.random.default_rng(page_size)
        values = np.concatenate([
            rng.integers(0, 2 ** int(width), size=700, dtype=np.int64)
            for width in (1, 3, 7, 8, 13, 31, 40, 62)
        ] + [np.full(300, 9, dtype=np.int64), np.asarray([-(2**62), 2**62 - 1, 5])])
        directory, blob = pack(values, codec, page_size)
        whole = decode_column(directory, blob)
        assert whole.dtype == column_dtype("col") == np.int64  # not a plane column
        for b in range(directory.n_blocks):
            page = slice(b * page_size, (b + 1) * page_size)
            assert whole[page].tobytes() == values[page].tobytes()
        assert whole.tobytes() == values.tobytes()

    @pytest.mark.parametrize("column", sorted(COLUMN_DTYPES))
    @pytest.mark.parametrize("codec", [CODEC_FOR])
    def test_plane_columns_decode_at_their_declared_width(self, column, codec):
        """Pages and whole columns come out at the width table's dtype,
        written straight into an array of that width."""
        dtype = COLUMN_DTYPES[column]
        top = min(np.iinfo(dtype).max, 70_000)
        values = np.random.default_rng(3).integers(-1, top, size=3000)
        directory, blob = pack_int_column(column, values, codec, page_size=64)
        whole = decode_column(directory, blob)
        assert whole.dtype == dtype and np.array_equal(whole, values)
        assert np.array_equal(whole[448:512], values[448:512])

    def test_whole_column_decode_rejects_64_bit_pages(self):
        """No stored column admits a page wider than 32 bits
        (``check_directory``); a 64-bit one is refused, not decoded."""
        values = np.asarray(
            [np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1], dtype=np.int64
        )
        directory, blob = pack(values, CODEC_FOR, page_size=4)
        assert int(directory.bits.max()) == 64
        with pytest.raises(EncodingError, match="wider than 63 bits"):
            decode_column(directory, blob)

    @pytest.mark.parametrize("length", [5, 63, 66, 127])
    def test_set_bits_after_the_last_value_are_refused(self, length):
        """The packer writes the last page's trailing bits as zero; a
        column one value shorter than its packed bytes is refused."""
        values = np.arange(3, 3 + 7 * length, 7, dtype=np.int64)
        directory, blob = pack(values, CODEC_FOR, page_size=64)
        assert np.array_equal(decode_column(directory, blob), values)
        used = (length - (directory.n_blocks - 1) * 64) * int(directory.bits[-1])
        assert used % 8  # the last byte has trailing bits to forge
        forged = blob.copy()
        forged[-1] |= np.uint8(0x80)
        with pytest.raises(EncodingError, match="the last page holds bits after its last value"):
            decode_column(directory, forged)

    def test_whole_column_decode_rejects_a_truncated_blob(self):
        directory, blob = pack(np.arange(0, 4000, 7), CODEC_FOR, page_size=64)
        with pytest.raises(EncodingError, match="truncated"):
            decode_column(directory, blob[:-1])

    def test_rejects_bad_page_size(self):
        with pytest.raises(EncodingError):
            pack([1, 2, 3], page_size=100)

    def test_rejects_unknown_codec(self):
        with pytest.raises(EncodingError, match="unknown codec"):
            pack([1, 2, 3], codec="rle")
        with pytest.raises(EncodingError, match="unknown codec"):
            pack([1, 2, 3], codec="delta")  # gone with the post / parent members

    def test_rejects_multidimensional(self):
        with pytest.raises(EncodingError, match="one-dimensional"):
            pack_int_column("m", np.zeros((2, 2), dtype=np.int64))

    def test_directory_equality(self):
        d1, _ = pack([1, 2, 3])
        d2, _ = pack([1, 2, 3])
        d3, _ = pack([1, 2, 3, 4])
        assert d1 == d2
        assert d1 != d3
        assert d1 != "not a directory"


class TestDictionary:
    def test_round_trip_and_find(self):
        words = sorted({"alpha", "beta", "gamma", "Ωmega", "zz"})
        blob, offsets = encode_dictionary(words)
        for code, word in enumerate(words):
            assert dictionary_entry(blob, offsets, code) == word
            assert dictionary_find(blob, offsets, word) == code
        assert dictionary_find(blob, offsets, "delta") == -1
        assert dictionary_find(blob, offsets, "") == -1

    def test_empty_dictionary(self):
        blob, offsets = encode_dictionary([])
        assert dictionary_find(blob, offsets, "x") == -1

    def test_unsorted_rejected(self):
        with pytest.raises(EncodingError, match="sorted"):
            encode_dictionary(["b", "a"])
        with pytest.raises(EncodingError, match="sorted"):
            encode_dictionary(["a", "a"])

    @given(st.sets(st.text(max_size=8), max_size=40), st.text(max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_find_matches_python_search(self, words, needle):
        ordered = sorted(words)
        blob, offsets = encode_dictionary(ordered)
        expected = ordered.index(needle) if needle in words else -1
        assert dictionary_find(blob, offsets, needle) == expected

    def test_offsets_are_four_bytes_and_the_blob_is_capped(self):
        blob, offsets = encode_dictionary(["a", "bc"])
        assert offsets.dtype == COLUMN_DTYPES["dict_offsets"] == np.int32
        assert offsets.tolist() == [0, 1, 3]
        # 2³¹ bytes of blob cost nothing as a broadcast view; the offsets
        # that would index them do not fit (like the 2³¹-node cap).
        huge = np.broadcast_to(np.zeros(1, dtype=np.uint8), (2**31,))
        with pytest.raises(EncodingError, match="dict_offsets.*int32"):
            ValueIndex(
                np.zeros(1, dtype=np.int32), huge, np.asarray([0, 2**31], dtype=np.int64)
            )

    def test_a_lone_surrogate_is_an_encoding_error(self):
        with pytest.raises(EncodingError, match="UTF-8"):
            encode_dictionary(["ok", "\ud800"])

    @given(
        st.sets(st.text(max_size=4), max_size=30),
        st.sets(st.text(max_size=4), max_size=30),
    )
    @settings(max_examples=80, deadline=None)
    def test_merge_is_the_sorted_union_with_both_remaps(self, ours, theirs):
        ours, theirs = sorted(ours), sorted(theirs)
        union = sorted(set(ours) | set(theirs))
        blob, offsets, remap, their_remap = merge_dictionaries(
            *encode_dictionary(ours), *encode_dictionary(theirs)
        )
        merged = [dictionary_entry(blob, offsets, c) for c in range(len(offsets) - 1)]
        assert merged == union
        assert offsets.dtype == remap.dtype == their_remap.dtype == np.int32
        assert remap.tolist() == [union.index(s) for s in ours] + [-1]
        assert their_remap.tolist() == [union.index(s) for s in theirs] + [-1]

    def test_merging_nothing_new_hands_back_the_same_blob(self):
        blob, offsets = encode_dictionary(["a", "b", "c"])
        merged, merged_offsets, remap, their_remap = merge_dictionaries(
            blob, offsets, *encode_dictionary(["b"])
        )
        assert merged is blob and merged_offsets is offsets
        assert remap.tolist() == [0, 1, 2, -1] and their_remap.tolist() == [1, -1]

    @given(st.sets(st.text(max_size=4), min_size=1, max_size=30), st.data())
    @settings(max_examples=80, deadline=None)
    def test_compaction_keeps_exactly_the_referenced_entries(self, words, data):
        ordered = sorted(words)
        picks = data.draw(
            st.lists(st.integers(-1, len(ordered) - 1), min_size=1, max_size=40)
        )
        codes = np.asarray(picks, dtype=np.int32)
        blob, offsets = encode_dictionary(ordered)
        new_codes, new_blob, new_offsets = compact_dictionary(codes, blob, offsets)
        kept = sorted({ordered[c] for c in picks if c >= 0})
        assert [
            dictionary_entry(new_blob, new_offsets, c) for c in range(len(new_offsets) - 1)
        ] == kept
        assert new_codes.dtype == np.int32 and new_offsets.dtype == np.int32
        assert [
            None if c < 0 else kept[c] for c in new_codes.tolist()
        ] == [None if c < 0 else ordered[c] for c in picks]
        if len(kept) == len(ordered):  # nothing to drop: the inputs themselves
            assert new_codes is codes and new_blob is blob and new_offsets is offsets


class TestDecodedStrings:
    """The value column (:class:`ValueIndex`) over a code vector decoded
    from page blocks — what a packed shard serves strings from."""

    def make(self):
        strings = ["ape", None, "bee", "ape", None, "cat"]
        ordered = sorted({s for s in strings if s is not None})
        blob, offsets = encode_dictionary(ordered)
        codes = np.asarray(
            [-1 if s is None else ordered.index(s) for s in strings],
            dtype=np.int64,
        )
        directory, packed = pack_int_column("value_codes", codes, CODEC_FOR, 4)
        return strings, ValueIndex(decode_column(directory, packed), blob, offsets)

    def test_access_and_iteration(self):
        strings, paged = self.make()
        assert len(paged) == len(strings)
        for i, s in enumerate(strings):
            assert paged[i] == s
        assert paged[1:4] == strings[1:4]
        assert list(paged) == strings
        assert paged.codes.dtype == COLUMN_DTYPES["value_codes"]

    def test_equality(self):
        strings, paged = self.make()
        assert paged == strings
        assert not (paged == strings[:-1])
        assert not (paged == ["x"] * len(strings))
        _, other = self.make()
        assert paged == other

    def test_dictionary_accounting(self):
        _, paged = self.make()
        assert paged.dictionary_size == 3
        assert paged.dictionary_bytes == len(b"apebeecat")
        assert paged.offsets.dtype == COLUMN_DTYPES["dict_offsets"]
        paged.check()


class TestDirectoryValidation:
    def test_page_directory_fields(self):
        directory, blob = pack(np.arange(200))
        assert directory.column == "col"
        assert directory.codec == CODEC_FOR
        assert directory.page_size == 64
        assert directory.n_blocks == 4
        assert directory.packed_bytes == blob.shape[0]
        assert directory.offsets.shape == (5,)
        assert directory.refs.dtype == np.int64
        assert directory.bits.dtype == np.uint8
