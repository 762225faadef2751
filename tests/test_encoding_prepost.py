"""Pre/post encoding tests: Figure 2 verbatim plus structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.codec import dictionary_entry
from repro.encoding.prepost import encode, encode_subtree, shape
from repro.encoding.widths import COLUMN_DTYPES
from repro.errors import EncodingError
from repro.xmltree.model import (
    NodeKind,
    attribute,
    comment,
    document,
    element,
    processing_instruction,
    text,
)

from _reference import encode_columns, pre_of, preorder_nodes, random_tree
from test_adversarial_shapes import SHAPES
from test_xpath_fuzz import value_tree

# The table of Figure 2: node tag → (pre, post).
FIGURE2 = {
    "a": (0, 9),
    "b": (1, 1),
    "c": (2, 0),
    "d": (3, 2),
    "e": (4, 8),
    "f": (5, 5),
    "g": (6, 3),
    "h": (7, 4),
    "i": (8, 7),
    "j": (9, 6),
}


class TestFigure2:
    def test_paper_table_reproduced_verbatim(self, fig1_doc):
        for tag, (pre, post) in FIGURE2.items():
            assert fig1_doc.tag_of(pre) == tag
            assert fig1_doc.post_of(pre) == post

    def test_levels(self, fig1_doc):
        # a at level 0; c, d, g, h, j at the leaves.
        assert fig1_doc.level_of(0) == 0
        assert fig1_doc.level_of(2) == 2  # c
        assert fig1_doc.level_of(6) == 3  # g

    def test_parents(self, fig1_doc):
        assert fig1_doc.parent_of(0) == -1  # a is the root
        assert fig1_doc.parent_of(2) == 1  # c under b
        assert fig1_doc.parent_of(9) == 8  # j under i

    def test_height(self, fig1_doc):
        assert fig1_doc.height == 3


class TestEncodeInputs:
    def test_document_and_element_inputs_agree(self, fig1_tree):
        from_element = encode(fig1_tree)
        from_document = encode(document(fig1_tree))
        assert np.array_equal(from_element.post, from_document.post)

    def test_document_without_root_rejected(self):
        with pytest.raises(EncodingError, match="root element"):
            encode(document())

    def test_non_element_input_rejected(self):
        with pytest.raises(EncodingError):
            encode(text("hello"))

    def test_single_node_document(self):
        doc = encode(element("only"))
        assert len(doc) == 1
        assert doc.post_of(0) == 0
        assert doc.height == 0

    def test_attributes_follow_their_element(self):
        tree = element("a", element("b"), x="1", y="2")
        doc = encode(tree)
        # pre order: a, @x, @y, b
        assert doc.tag_of(1) == "x"
        assert doc.kind_of(1) == NodeKind.ATTRIBUTE
        assert doc.tag_of(3) == "b"

    def test_all_kinds_encoded(self):
        tree = element("r", comment("c"), text("t"))
        tree.set_attribute("id", "1")
        doc = encode(tree)
        kinds = {doc.kind_of(i) for i in range(len(doc))}
        assert kinds == {
            NodeKind.ELEMENT,
            NodeKind.ATTRIBUTE,
            NodeKind.COMMENT,
            NodeKind.TEXT,
        }

    def test_values_stored_for_non_elements(self):
        tree = element("r", text("body"))
        tree.set_attribute("id", "42")
        doc = encode(tree)
        assert doc.value_of(0) is None
        assert doc.value_of(1) == "42"
        assert doc.value_of(2) == "body"


def assert_matches_the_two_visit_encoder(root):
    """Column for column against ``tests/_reference.py``'s encoder, plus
    what the coded value column owes every consumer: declared widths, a
    strictly sorted dictionary holding exactly the referenced entries."""
    doc, reference = encode_subtree(root), encode_columns(root)
    for name in ("post", "level", "parent", "kind"):
        column = getattr(doc, name)
        assert column.dtype == COLUMN_DTYPES[name]
        assert column.tolist() == reference[name], name
    assert doc.tag.codes.dtype == COLUMN_DTYPES["tag_codes"]
    assert list(doc.tag) == reference["tag"]
    values = doc.values
    assert values.codes.dtype == COLUMN_DTYPES["value_codes"]
    assert values.offsets.dtype == COLUMN_DTYPES["dict_offsets"]
    decoded = list(values)
    assert decoded == reference["value"]  # ``None`` and ``""`` stay apart
    assert [v is None for v in decoded] == [v is None for v in reference["value"]]
    entries = [
        dictionary_entry(values.blob, values.offsets, code).encode("utf-8")
        for code in range(values.dictionary_size)
    ]
    assert entries == sorted({v.encode("utf-8") for v in decoded if v is not None})
    values.check()
    return doc


class TestAgainstTheTwoVisitEncoder:
    @given(seed=st.integers(0, 5000), size=st.integers(1, 250))
    @settings(max_examples=80, deadline=None)
    def test_random_trees(self, seed, size):
        assert_matches_the_two_visit_encoder(random_tree(size, seed))

    @given(seed=st.integers(0, 5000), size=st.integers(0, 120))
    @settings(max_examples=80, deadline=None)
    def test_value_trees(self, seed, size):
        """The value-predicate fuzz generator: repeated values, empty
        elements, mixed content, valued attributes, comments."""
        assert_matches_the_two_visit_encoder(value_tree(size, seed))

    @given(
        st.lists(
            st.one_of(st.none(), st.text(max_size=6)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_text_including_the_empty_string(self, texts):
        root = element("r")
        for i, value in enumerate(texts):
            if value is None:
                root.append(element(f"e{i % 3}"))
            elif i % 3 == 0:
                root.append(comment(value))
            else:
                root.append(text(value))
        root.set_attribute("k", "")
        doc = assert_matches_the_two_visit_encoder(root)
        assert doc.value_of(0) is None and doc.value_of(1) == ""

    @pytest.mark.parametrize(
        "leaf",
        [text("t"), comment(""), attribute("k", "v"), processing_instruction("p", "d")],
        ids=lambda node: node.kind.name.lower(),
    )
    def test_a_leaf_is_a_one_row_table(self, leaf):
        doc = assert_matches_the_two_visit_encoder(leaf)
        assert len(doc) == 1 and doc.parent_of(0) == -1 and doc.post_of(0) == 0


class TestInvariants:
    @given(seed=st.integers(0, 5000), size=st.integers(1, 250))
    @settings(max_examples=80, deadline=None)
    def test_post_is_permutation(self, seed, size):
        doc = encode(random_tree(size, seed))
        assert sorted(doc.post.tolist()) == list(range(size))

    @given(seed=st.integers(0, 5000), size=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_pre_matches_reference_document_order(self, seed, size):
        tree = random_tree(size, seed)
        doc = encode(tree)
        for pre, node in enumerate(preorder_nodes(tree)):
            expected_tag = node.name if node.kind != NodeKind.TEXT else ""
            assert doc.tag_of(pre) == (expected_tag or "")
            assert doc.kind_of(pre) == node.kind

    @given(seed=st.integers(0, 5000), size=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_ancestor_iff_rank_sandwich(self, seed, size):
        """pre(a) < pre(v) ∧ post(a) > post(v)  ⇔  a is an ancestor of v."""
        tree = random_tree(size, seed)
        doc = encode(tree)
        nodes = preorder_nodes(tree)
        ranks = pre_of(tree)
        for v_pre, v in enumerate(nodes):
            true_ancestors = {ranks[id(a)] for a in v.ancestors()}
            plane_ancestors = {
                a_pre
                for a_pre in range(size)
                if a_pre < v_pre and doc.post[a_pre] > doc.post[v_pre]
            }
            assert plane_ancestors == true_ancestors

    @given(seed=st.integers(0, 5000), size=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_equation_1_exact_with_level_term(self, seed, size):
        """|v/descendant| = post(v) − pre(v) + level(v), Equation (1)."""
        tree = random_tree(size, seed)
        doc = encode(tree)
        for pre, node in enumerate(preorder_nodes(tree)):
            actual = node.subtree_size() - 1
            assert doc.subtree_size_exact(pre) == actual
            # And the level-free bounds: 0 ≤ level ≤ h.
            assert doc.subtree_size_estimate(pre) <= actual
            assert actual <= (doc.post_of(pre) - pre) + doc.height

    @given(seed=st.integers(0, 5000), size=st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_parent_column_matches_tree(self, seed, size):
        tree = random_tree(size, seed)
        doc = encode(tree)
        ranks = pre_of(tree)
        for pre, node in enumerate(preorder_nodes(tree)):
            expected = ranks[id(node.parent)] if node.parent is not None else -1
            assert doc.parent_of(pre) == expected

    @given(seed=st.integers(0, 5000), size=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_subtrees_are_contiguous_preorder_intervals(self, seed, size):
        """Descendants of v occupy exactly pre(v)+1 .. pre(v)+|desc(v)|."""
        tree = random_tree(size, seed)
        doc = encode(tree)
        for pre in range(size):
            span_end = pre + doc.subtree_size_exact(pre)
            for v in range(size):
                is_inside = pre < v <= span_end
                is_descendant = v > pre and doc.post[v] < doc.post[pre]
                assert is_inside == is_descendant


class TestShape:
    """``shape(level)`` — the one place ``post`` and ``parent`` come from
    — against the two-visit walk, which hands out both ranks itself."""

    @staticmethod
    def assert_shape_is_the_reference(root):
        reference = encode_columns(root)
        post, parent = shape(np.asarray(reference["level"], dtype=np.int16))
        assert post.dtype == COLUMN_DTYPES["post"]
        assert parent.dtype == COLUMN_DTYPES["parent"]
        assert post.tolist() == reference["post"]
        assert parent.tolist() == reference["parent"]

    @given(seed=st.integers(0, 5000), size=st.integers(1, 400))
    @settings(max_examples=120, deadline=None)
    def test_random_trees(self, seed, size):
        self.assert_shape_is_the_reference(random_tree(size, seed))

    @pytest.mark.parametrize("name", sorted(SHAPES))
    def test_extreme_shapes(self, name):
        self.assert_shape_is_the_reference(SHAPES[name])

    def test_any_integer_width_is_narrowed_not_trusted(self):
        post, parent = shape(np.asarray([0, 1, 2, 1], dtype=np.int64))
        assert post.tolist() == [3, 1, 0, 2] and parent.tolist() == [-1, 0, 1, 0]
        with pytest.raises(EncodingError, match="int16"):
            shape(np.asarray([0, 1, 2**15], dtype=np.int64))

    @pytest.mark.parametrize(
        "level",
        [[], [1], [1, 2], [0, 0], [0, 1, 0, 1], [0, -1], [0, 2], [0, 1, 3], [0, 1, 1, 3]],
        ids=str,
    )
    def test_a_column_that_is_no_tree_is_an_error_not_a_plane(self, level):
        with pytest.raises(EncodingError, match="level column is not one tree"):
            shape(np.asarray(level, dtype=np.int16))
