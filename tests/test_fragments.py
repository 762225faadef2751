"""Tag-name fragmentation tests (the future-work experiment)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import FragmentedDocument
from repro.core.staircase import SkipMode, staircase_join
from repro.counters import JoinStatistics
from repro.encoding.prepost import encode
from repro.xmltree.model import NodeKind
from repro.xpath.axes import apply_node_test

from _reference import random_tree


def tag_filtered(doc, pres, tag):
    return apply_node_test(doc, pres, "descendant", "name", tag)


class TestConstruction:
    def test_fragments_cover_all_elements(self, fig1_doc):
        fragmented = FragmentedDocument(fig1_doc)
        total = sum(fragmented.fragment_sizes().values())
        assert total == 10  # every element tag occurs once in Figure 1
        assert sorted(fragmented.tags()) == list("abcdefghij")

    def test_unknown_tag_is_empty(self, fig1_doc):
        fragmented = FragmentedDocument(fig1_doc)
        pres, posts = fragmented.fragment("nope")
        assert len(pres) == 0 and len(posts) == 0
        real = fragmented.fragment("a")
        assert (pres.dtype, posts.dtype) == (real[0].dtype, real[1].dtype)

    def test_fragments_are_read_only(self, fig1_doc):
        # Steps hand fragment slices out as contexts.
        fragmented = FragmentedDocument(fig1_doc)
        for tag in ("a", "nope"):
            for column in fragmented.fragment(tag):
                with pytest.raises(ValueError):
                    column[:1] = 0

    def test_fragment_excludes_non_elements(self):
        tree = random_tree(60, seed=9)
        doc = encode(tree)
        fragmented = FragmentedDocument(doc)
        for tag in fragmented.tags():
            pres, _ = fragmented.fragment(tag)
            assert all(doc.kind[p] == int(NodeKind.ELEMENT) for p in pres)

    def test_fragments_are_pre_sorted(self, medium_xmark):
        fragmented = FragmentedDocument(medium_xmark)
        for tag in ("bidder", "item", "person"):
            pres, posts = fragmented.fragment(tag)
            assert np.all(np.diff(pres) > 0)
            assert medium_xmark.post[pres].tolist() == posts.tolist()


class TestStepEquivalence:
    @given(
        seed=st.integers(0, 5000),
        size=st.integers(1, 180),
        tag=st.sampled_from(["a", "b", "c", "d", "e"]),
        k=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_descendant_step_matches_join_then_filter(self, seed, size, tag, k):
        doc = encode(random_tree(size, seed))
        rng = np.random.default_rng(seed)
        context = np.sort(rng.choice(size, size=min(k, size), replace=False))
        fragmented = FragmentedDocument(doc)
        pushed = fragmented.descendant_step(context, tag)
        late = tag_filtered(
            doc, staircase_join(doc, context, "descendant", SkipMode.ESTIMATE), tag
        )
        assert pushed.tolist() == late.tolist()

    @given(
        seed=st.integers(0, 5000),
        size=st.integers(1, 180),
        tag=st.sampled_from(["a", "b", "c", "d", "e"]),
        k=st.integers(1, 8),
    )
    @settings(max_examples=100, deadline=None)
    def test_ancestor_step_matches_join_then_filter(self, seed, size, tag, k):
        doc = encode(random_tree(size, seed))
        rng = np.random.default_rng(seed)
        context = np.sort(rng.choice(size, size=min(k, size), replace=False))
        fragmented = FragmentedDocument(doc)
        pushed = fragmented.ancestor_step(context, tag)
        late = tag_filtered(
            doc, staircase_join(doc, context, "ancestor", SkipMode.ESTIMATE), tag
        )
        assert pushed.tolist() == late.tolist()


class TestFragmentEconomy:
    def test_fragment_step_reads_only_the_fragment(self, medium_xmark):
        """The point of fragmentation: Q1's second step touches entries
        of the 'education' fragment only — orders of magnitude fewer than
        the subtree scan."""
        doc = medium_xmark
        context = doc.pres_with_tag("profile")
        fragmented = FragmentedDocument(doc)
        stats = JoinStatistics()
        result = fragmented.descendant_step(context, "education", stats)
        fragment_size = fragmented.fragment_sizes()["education"]
        assert stats.nodes_scanned <= fragment_size + len(context)
        plain_stats = JoinStatistics()
        staircase_join(doc, context, "descendant", SkipMode.ESTIMATE, plain_stats)
        assert stats.nodes_scanned < plain_stats.nodes_touched / 5
        assert len(result) > 0
