"""Multi-document collection tests (footnote 1 of the paper)."""

import numpy as np
import pytest

from repro.encoding.collection import DocumentCollection
from repro.encoding.prepost import encode, encode_gathered
from repro.errors import EncodingError
from repro.xmltree.model import document, element, text



@pytest.fixture
def collection():
    doc_a = element("inventory", element("item", element("price", text("3"))))
    doc_b = element(
        "inventory",
        element("item", element("price", text("5"))),
        element("item", element("price", text("7"))),
    )
    doc_c = element("catalog", element("entry"))
    return DocumentCollection([("a", doc_a), ("b", doc_b), ("c", doc_c)])


class TestConstruction:
    def test_member_spans_cover_plane(self, collection):
        doc = collection.doc
        covered = sum(
            end - start + 1 for start, end in (collection.span(n) for n in collection.names)
        )
        assert covered == len(doc) - 1  # everything but the virtual root

    def test_virtual_root(self, collection):
        assert collection.doc.tag_of(0) == "collection"
        assert collection.doc.level_of(0) == 0

    def test_names_in_order(self, collection):
        assert collection.names == ["a", "b", "c"]

    def test_document_node_inputs_accepted(self):
        c = DocumentCollection([("x", document(element("r")))])
        assert c.names == ["x"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(EncodingError, match="unique"):
            DocumentCollection([("x", element("r")), ("x", element("r"))])

    def test_empty_collection_rejected(self):
        with pytest.raises(EncodingError):
            DocumentCollection([])

    def test_non_element_rejected(self):
        with pytest.raises(EncodingError):
            DocumentCollection([("x", text("loose"))])

    def test_the_members_trees_are_read_not_reparented(self):
        """The virtual root is one record of the plane, never a ``Node``:
        gathering leaves every member root where its caller put it."""
        wrapped_root = element("r", element("s"))
        wrapped = document(wrapped_root)
        loose = element("t", text("x"))
        collection = DocumentCollection([("x", wrapped), ("y", loose)])
        assert wrapped_root.parent is wrapped
        assert wrapped.children == [wrapped_root]
        assert loose.parent is None
        assert collection.doc.parent.tolist() == [-1, 0, 1, 0, 3]

    def test_a_gathered_plane_is_the_plane_of_the_gathered_tree(self):
        roots = [element("a", element("b", text("1")), k="v"), element("c")]
        gathered = encode_gathered("all", roots)
        expected = encode(element("all", *roots))  # reparents: built last
        for column in ("post", "level", "parent", "kind"):
            assert getattr(gathered, column).tolist() == getattr(expected, column).tolist()
        assert list(gathered.tag.dictionary) == list(expected.tag.dictionary)
        assert gathered.tag.codes.tolist() == expected.tag.codes.tolist()
        assert list(gathered.values) == list(expected.values)


class TestAttribution:
    def test_document_of(self, collection):
        for name in collection.names:
            start, end = collection.span(name)
            assert collection.document_of(start) == name
            assert collection.document_of(end) == name
        assert collection.document_of(0) is None

    def test_unknown_name(self, collection):
        with pytest.raises(EncodingError, match="no document"):
            collection.span("zzz")

    def test_partition_by_document(self, collection):
        prices = collection.evaluate("//price")
        parts = collection.partition_by_document(prices)
        assert len(parts["a"]) == 1
        assert len(parts["b"]) == 2
        assert len(parts["c"]) == 0


class TestQueries:
    def test_global_query_spans_documents(self, collection):
        items = collection.evaluate("//item")
        assert len(items) == 3

    def test_global_query_excludes_virtual_root(self, collection):
        everything = collection.evaluate("//*")
        assert collection.doc.root not in everything.tolist()

    def test_scoped_descendant_query(self, collection):
        assert len(collection.evaluate("/descendant::item", document="a")) == 1
        assert len(collection.evaluate("/descendant::item", document="b")) == 2

    def test_scoped_child_query_sees_member_root(self, collection):
        roots = collection.evaluate("/inventory", document="b")
        assert len(roots) == 1
        assert collection.doc.tag_of(int(roots[0])) == "inventory"
        # and the other member's differently-tagged root does not match
        assert len(collection.evaluate("/inventory", document="c")) == 0

    def test_scoped_relative_query(self, collection):
        items = collection.evaluate("item/price", document="b")
        assert len(items) == 2

    def test_cross_document_isolation(self, collection):
        """A member-scoped query never leaks nodes from siblings, even
        along the following axis."""
        a_following = collection.evaluate("following::node()", document="a")
        assert len(a_following) == 0  # everything following is outside a

    def test_staircase_semantics_preserved(self, collection):
        """The gathered plane is a real document: staircase join
        invariants (order, no duplicates) hold across members."""
        items = collection.evaluate("//item")
        assert np.all(np.diff(items) > 0)
