"""Scalar/vectorised engine equivalence.

The kernel contracts: the vectorised kernels must be observationally
identical to the scalar transcription on every axis and every skip mode
— same node sets, document order, and duplicate-freedom — swept
property-based on random trees and exactly on XMark fragments, with
pruning, fragment reads and kernel error handling pinned the same way.
Query answers are not checked engine against engine: the bulk-only
query paths (positional selection, boolean-mask predicates, pushdown)
are checked against the tree-walking reference (``tests/_reference.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import FragmentedDocument
from repro.core.pruning import normalize_context, prune, prune_vectorized
from repro.core.staircase import SkipMode, staircase_join
from repro.core.vectorized import (
    axis_step_vectorized,
    staircase_join_vectorized,
)
from repro.encoding.prepost import encode
from repro.errors import XPathEvaluationError
from repro.xmark import XMarkConfig, generate
from repro.xpath.ast import AXES
from repro.xpath.axes import AxisExecutor
from repro.xpath.evaluator import Evaluator

from _reference import Reference, random_tree

PARTITIONING = ("descendant", "ancestor", "following", "preceding")


def _random_context(rng, size, k):
    return np.sort(rng.choice(size, size=min(k, size), replace=False))


class TestAllAxesAllModes:
    """Every axis × every SkipMode × random document shapes."""

    @given(
        seed=st.integers(0, 6000),
        size=st.integers(1, 180),
        axis=st.sampled_from(AXES),
        mode=st.sampled_from(list(SkipMode)),
        k=st.integers(1, 10),
    )
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_scalar(self, seed, size, axis, mode, k):
        doc = encode(random_tree(size, seed))
        context = _random_context(np.random.default_rng(seed), size, k)
        scalar = AxisExecutor(doc, engine="scalar", mode=mode).step(context, axis)
        bulk = axis_step_vectorized(doc, context, axis)
        assert scalar.tolist() == bulk.tolist(), (axis, mode)
        if len(bulk) > 1:  # document order and duplicate-freedom
            assert np.all(np.diff(bulk) > 0)

    @given(
        seed=st.integers(0, 6000),
        size=st.integers(1, 180),
        axis=st.sampled_from(PARTITIONING),
        k=st.integers(1, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_vectorized_pruning_matches_scalar(self, seed, size, axis, k):
        doc = encode(random_tree(size, seed))
        context = normalize_context(
            _random_context(np.random.default_rng(seed), size, k)
        )
        assert prune_vectorized(doc, context, axis).tolist() == prune(
            doc, context, axis
        ).tolist()


class TestXMarkFragments:
    """Exact sweeps over realistic XMark contexts (all axes)."""

    @pytest.mark.parametrize("axis", AXES)
    @pytest.mark.parametrize("tag", ["open_auction", "increase", "keyword"])
    def test_tag_contexts_agree(self, small_xmark, axis, tag):
        doc = small_xmark
        context = doc.pres_with_tag(tag)
        for mode in SkipMode:
            scalar = AxisExecutor(doc, engine="scalar", mode=mode).step(context, axis)
            bulk = axis_step_vectorized(doc, context, axis)
            assert scalar.tolist() == bulk.tolist(), (axis, tag, mode)

    @pytest.mark.parametrize("axis", PARTITIONING)
    def test_staircase_join_all_modes(self, small_xmark, axis):
        doc = small_xmark
        context = doc.pres_with_tag("bidder")
        bulk = staircase_join_vectorized(doc, context, axis)
        for mode in SkipMode:
            scalar = staircase_join(doc, context, axis, mode)
            assert scalar.tolist() == bulk.tolist(), (axis, mode)


class TestRegionKernelContracts:
    """The satellite fix: following/preceding kernels take any context."""

    def test_empty_context_raises_not_crashes(self, fig1_doc):
        from repro.core.vectorized import (
            _following_vectorized,
            _preceding_vectorized,
        )

        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(XPathEvaluationError):
            _following_vectorized(fig1_doc, empty)
        with pytest.raises(XPathEvaluationError):
            _preceding_vectorized(fig1_doc, empty)

    def test_empty_context_join_is_empty(self, fig1_doc):
        empty = np.empty(0, dtype=np.int64)
        for axis in PARTITIONING:
            assert staircase_join_vectorized(fig1_doc, empty, axis).tolist() == []

    @given(seed=st.integers(0, 3000), size=st.integers(2, 150), k=st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_multi_node_contexts_without_pruning(self, seed, size, k):
        """The kernels anchor on the min-post / max-pre node themselves, so
        an *unpruned* multi-node context gives the same region union."""
        from repro.core.vectorized import (
            _following_vectorized,
            _preceding_vectorized,
        )

        doc = encode(random_tree(size, seed))
        context = _random_context(np.random.default_rng(seed), size, k)
        following = staircase_join(doc, context, "following", SkipMode.ESTIMATE,
                                   keep_attributes=True)
        preceding = staircase_join(doc, context, "preceding", SkipMode.ESTIMATE,
                                   keep_attributes=True)
        assert _following_vectorized(doc, context).tolist() == following.tolist()
        assert _preceding_vectorized(doc, context).tolist() == preceding.tolist()

    def test_unsorted_duplicated_context_is_normalised(self, fig1_doc):
        messy = np.asarray([4, 1, 4, 1], dtype=np.int64)
        clean = np.asarray([1, 4], dtype=np.int64)
        for axis in PARTITIONING:
            assert (
                staircase_join_vectorized(fig1_doc, messy, axis).tolist()
                == staircase_join_vectorized(fig1_doc, clean, axis).tolist()
            )

    def test_out_of_range_context_rejected(self, fig1_doc):
        with pytest.raises(XPathEvaluationError):
            axis_step_vectorized(fig1_doc, np.asarray([999]), "child")


@pytest.fixture(scope="module")
def xmark_reference(small_xmark):
    """The reference over the tree ``small_xmark`` encodes."""
    reference = Reference(generate(0.1, XMarkConfig(seed=2003)))
    assert len(reference.rank) == len(small_xmark)
    return reference


class TestEvaluatorEngines:
    """End-to-end: Evaluator(engine=...) on bulk-only code paths."""

    QUERIES = [
        # bulk positional selection (child[k] / child[last()])
        "//open_auction/bidder[1]/increase",
        "//open_auction/bidder[2]",
        "//open_auction/bidder[last()]",
        "//open_auction/bidder[99]",
        # boolean-mask predicate filtering (paths, not, and/or)
        "//open_auction[bidder]",
        "//open_auction[not(bidder)]",
        "//person[profile and homepage]",
        "//person[profile or homepage]",
        "//open_auction[bidder and not(seller)]",
        "//item[.//keyword]",
        # reverse axes inside predicates
        "//increase[ancestor::open_auction]",
        "//bidder[preceding-sibling::bidder]",
        # attribute step as final predicate step
        "//person[@id]",
        # positional fallback (non-child axis keeps the per-node path)
        "//keyword[ancestor::description][1]",
    ]

    @pytest.mark.parametrize("query", QUERIES)
    def test_engines_match_the_reference(self, small_xmark, xmark_reference, query):
        expected = xmark_reference.evaluate(query).tolist()
        for engine, pushdown in (
            ("scalar", False), ("vectorized", False), ("vectorized", True)
        ):
            got = Evaluator(small_xmark, engine=engine, pushdown=pushdown).evaluate(query)
            assert got.tolist() == expected, (query, engine, pushdown)

    def test_engine_names(self, fig1_doc):
        assert Evaluator(fig1_doc).engine == "scalar"
        assert Evaluator(fig1_doc, engine="scalar").engine == "scalar"
        assert Evaluator(fig1_doc, engine="vectorized").engine == "vectorized"

    def test_unknown_engine_rejected(self, fig1_doc):
        with pytest.raises(XPathEvaluationError):
            Evaluator(fig1_doc, engine="quantum")
        # The removed spellings: one name per engine, one parameter.
        with pytest.raises(XPathEvaluationError):
            Evaluator(fig1_doc, engine="staircase")
        with pytest.raises(TypeError):
            Evaluator(fig1_doc, strategy="staircase")


class TestFragmentVectorized:
    """Vectorised fragment reads = scalar fragment reads = plain joins."""

    @pytest.mark.parametrize("tag", ["bidder", "increase", "keyword", "missing"])
    def test_descendant_step(self, small_xmark, tag):
        doc = small_xmark
        fragments = FragmentedDocument(doc)
        context = doc.pres_with_tag("open_auction")
        scalar = fragments.descendant_step(context, tag)
        bulk = fragments.descendant_step_vectorized(context, tag)
        assert scalar.tolist() == bulk.tolist()

    @pytest.mark.parametrize("tag", ["open_auction", "site", "missing"])
    def test_ancestor_step(self, small_xmark, tag):
        doc = small_xmark
        fragments = FragmentedDocument(doc)
        context = doc.pres_with_tag("increase")
        scalar = fragments.ancestor_step(context, tag)
        bulk = fragments.ancestor_step_vectorized(context, tag)
        assert scalar.tolist() == bulk.tolist()

    @given(seed=st.integers(0, 2000), size=st.integers(1, 120), k=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, seed, size, k):
        doc = encode(random_tree(size, seed))
        fragments = FragmentedDocument(doc)
        context = _random_context(np.random.default_rng(seed), size, k)
        for tag in ("a", "b", "c"):
            assert (
                fragments.descendant_step(context, tag).tolist()
                == fragments.descendant_step_vectorized(context, tag).tolist()
            )
            assert (
                fragments.ancestor_step(context, tag).tolist()
                == fragments.ancestor_step_vectorized(context, tag).tolist()
            )
