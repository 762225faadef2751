"""Codec tests: the sorted dictionary blobs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.codec import (
    compact_dictionary,
    dictionary_entry,
    dictionary_find,
    encode_dictionary,
    merge_dictionaries,
)
from repro.encoding.doctable import ValueIndex
from repro.encoding.widths import COLUMN_DTYPES
from repro.errors import EncodingError


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
    """The value column (:class:`ValueIndex`) over a read-only code
    vector on an inflated buffer — what a packed shard serves strings from."""

    def make(self):
        strings = ["ape", None, "bee", "ape", None, "cat"]
        ordered = sorted({s for s in strings if s is not None})
        blob, offsets = encode_dictionary(ordered)
        codes = np.asarray(
            [-1 if s is None else ordered.index(s) for s in strings], dtype="<i4"
        )
        return strings, ValueIndex(np.frombuffer(codes.tobytes(), "<i4"), blob, offsets)

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
