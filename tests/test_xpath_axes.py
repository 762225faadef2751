"""Axis-step execution: every supported axis vs the tree-walk reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.prepost import encode
from repro.errors import XPathEvaluationError
from repro.xmltree.model import NodeKind, element, text
from repro.xpath.ast import AXES
from repro.xpath.axes import DOCUMENT_CONTEXT, AxisExecutor, apply_node_test

from _reference import axis_pres, random_tree


class TestAllAxesAgainstReference:
    @given(
        seed=st.integers(0, 5000),
        size=st.integers(1, 160),
        axis=st.sampled_from(AXES),
        engine=st.sampled_from(["scalar", "vectorized"]),
        k=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_axis_step_matches_tree_walk(self, seed, size, axis, engine, k):
        tree = random_tree(size, seed)
        doc = encode(tree)
        rng = np.random.default_rng(seed)
        context = np.sort(rng.choice(size, size=min(k, size), replace=False))
        executor = AxisExecutor(doc, engine=engine)
        got = executor.step(context, axis)
        expected = axis_pres(tree, context, axis)
        assert got.tolist() == expected.tolist(), axis


class TestDocumentContext:
    def test_child_of_document_is_root(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        assert executor.step(DOCUMENT_CONTEXT, "child").tolist() == [0]

    def test_descendant_of_document_is_everything(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        got = executor.step(DOCUMENT_CONTEXT, "descendant")
        assert got.tolist() == list(range(10))

    def test_descendant_excludes_attributes(self):
        tree = element("a", element("b"), x="1")
        doc = encode(tree)
        executor = AxisExecutor(doc)
        got = executor.step(DOCUMENT_CONTEXT, "descendant")
        assert all(doc.kind[p] != int(NodeKind.ATTRIBUTE) for p in got)

    def test_upward_axes_from_document_empty(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        for axis in ("ancestor", "parent", "following", "preceding", "attribute"):
            assert executor.step(DOCUMENT_CONTEXT, axis).tolist() == []


class TestStructuralAxes:
    def test_child_excludes_attributes(self):
        tree = element("a", element("b"), text("t"), x="1")
        doc = encode(tree)
        executor = AxisExecutor(doc)
        children = executor.step(np.array([0]), "child")
        kinds = {int(doc.kind[c]) for c in children}
        assert int(NodeKind.ATTRIBUTE) not in kinds
        assert len(children) == 2

    def test_attribute_axis(self):
        tree = element("a", element("b"), x="1", y="2")
        doc = encode(tree)
        executor = AxisExecutor(doc)
        attrs = executor.step(np.array([0]), "attribute")
        assert [doc.tag_of(int(p)) for p in attrs] == ["x", "y"]

    def test_parent_of_root_is_empty(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        assert executor.step(np.array([0]), "parent").tolist() == []

    def test_siblings(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        # b, d, e are the children of a.
        assert executor.step(np.array([1]), "following-sibling").tolist() == [3, 4]
        assert executor.step(np.array([4]), "preceding-sibling").tolist() == [1, 3]

    def test_empty_context_every_axis(self, fig1_doc):
        executor = AxisExecutor(fig1_doc)
        empty = np.array([], dtype=np.int64)
        for axis in AXES:
            assert executor.step(empty, axis).tolist() == []

    def test_unknown_axis_rejected(self, fig1_doc):
        with pytest.raises(XPathEvaluationError):
            AxisExecutor(fig1_doc).step(np.array([0]), "sideways")

    def test_unknown_engine_rejected(self, fig1_doc):
        with pytest.raises(XPathEvaluationError):
            AxisExecutor(fig1_doc, engine="quantum")


class TestNodeTests:
    def test_name_test_principal_kind_element(self, fig1_doc):
        got = apply_node_test(fig1_doc, fig1_doc.pres(), "child", "name", "e")
        assert got.tolist() == [4]

    def test_name_test_on_attribute_axis(self):
        tree = element("a", element("id"), id="7")  # element AND attribute 'id'
        doc = encode(tree)
        pres = doc.pres()
        on_attr_axis = apply_node_test(doc, pres, "attribute", "name", "id")
        on_child_axis = apply_node_test(doc, pres, "child", "name", "id")
        assert [int(doc.kind[p]) for p in on_attr_axis] == [int(NodeKind.ATTRIBUTE)]
        assert [int(doc.kind[p]) for p in on_child_axis] == [int(NodeKind.ELEMENT)]

    def test_star_keeps_principal_kind_only(self):
        tree = element("a", element("b"), text("t"), x="1")
        doc = encode(tree)
        got = apply_node_test(doc, doc.pres(), "child", "*", None)
        assert all(doc.kind[p] == int(NodeKind.ELEMENT) for p in got)

    def test_kind_tests(self):
        from repro.xmltree.model import comment, processing_instruction

        tree = element("a", text("t"), comment("c"), processing_instruction("p", "d"))
        doc = encode(tree)
        pres = doc.pres()
        assert len(apply_node_test(doc, pres, "child", "text", None)) == 1
        assert len(apply_node_test(doc, pres, "child", "comment", None)) == 1
        assert len(apply_node_test(doc, pres, "child", "processing-instruction", None)) == 1
        assert len(apply_node_test(doc, pres, "child", "processing-instruction", "p")) == 1
        assert len(apply_node_test(doc, pres, "child", "processing-instruction", "q")) == 0

    def test_node_test_passes_everything(self, fig1_doc):
        pres = fig1_doc.pres()
        assert apply_node_test(fig1_doc, pres, "child", "node", None).tolist() == pres.tolist()

    def test_missing_tag_short_circuits(self, fig1_doc):
        got = apply_node_test(fig1_doc, fig1_doc.pres(), "child", "name", "zzz")
        assert got.tolist() == []
