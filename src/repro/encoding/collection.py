"""Multi-document databases (footnote 1 of the paper).

"Our discussion readily carries over to multi-document databases (e.g.,
by introduction of document identifiers or a new virtual root node under
which several documents may be gathered)."

:class:`DocumentCollection` implements the virtual-root flavour: the
member documents' trees are gathered, in insertion order, under a
synthetic root element, and the combined tree is pre/post encoded once.
Every staircase join property carries over verbatim because the result
*is* a single document — the collection merely remembers which preorder
interval belongs to which member, so results can be attributed and
queries can be scoped to one document without re-encoding.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.doctable import DocTable
from repro.encoding.prepost import encode_gathered
from repro.errors import EncodingError
from repro.xmltree.model import Node, NodeKind

__all__ = ["DocumentCollection"]


class DocumentCollection:
    """Several documents behind one pre/post plane.

    Parameters
    ----------
    documents:
        ``(name, tree)`` pairs; each tree is a document or element node.
    virtual_root_tag:
        Tag of the synthetic root (kept out of query results by scoping;
        it *is* visible to raw absolute paths, as it would have been in
        the paper's setup).
    """

    def __init__(
        self,
        documents: Sequence[Tuple[str, Node]],
        virtual_root_tag: str = "collection",
    ):
        if not documents:
            raise EncodingError("a collection needs at least one document")
        names = [name for name, _ in documents]
        if len(set(names)) != len(names):
            raise EncodingError("document names must be unique")
        roots = [_member_root(name, tree) for name, tree in documents]
        self.virtual_root_tag = virtual_root_tag
        self.doc: DocTable = encode_gathered(virtual_root_tag, roots)
        self._index_members(names)

    def _index_members(self, names: Sequence[str]) -> None:
        """Record each member's preorder span (children of the virtual root)."""
        self._spans: Dict[str, Tuple[int, int]] = {}
        self._names: List[str] = []
        roots = self.doc.children_of(self.doc.root)
        if len(roots) != len(names):
            raise EncodingError(
                f"{len(names)} document names for {len(roots)} member roots"
            )
        for name, child in zip(names, roots):
            end = child + self.doc.subtree_size_exact(child)
            self._spans[name] = (child, end)
            self._names.append(name)

    @classmethod
    def from_table(
        cls,
        doc: DocTable,
        names: Sequence[str],
        virtual_root_tag: str = "collection",
    ) -> "DocumentCollection":
        """Rehydrate a collection around an already-encoded gathered plane.

        ``doc`` must be the table of a collection previously built by the
        constructor (e.g. persisted via :mod:`repro.encoding.persist` and
        loaded back, possibly memory-mapped); ``names`` are the member
        names in document order.  No re-encoding happens — the virtual
        root's children are re-matched to ``names`` positionally.
        """
        if len(set(names)) != len(names):
            raise EncodingError("document names must be unique")
        self = cls.__new__(cls)
        self.virtual_root_tag = virtual_root_tag
        self.doc = doc
        self._index_members(names)
        return self

    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Member document names, in insertion (document) order."""
        return list(self._names)

    def span(self, name: str) -> Tuple[int, int]:
        """Inclusive preorder interval ``[root, last]`` of a member."""
        try:
            return self._spans[name]
        except KeyError:
            raise EncodingError(f"no document named {name!r}") from None

    def root_of(self, name: str) -> int:
        """Preorder rank of a member's root element."""
        return self.span(name)[0]

    def document_of(self, pre: int) -> Optional[str]:
        """Which member a preorder rank belongs to (None = virtual root)."""
        for name in self._names:
            start, end = self._spans[name]
            if start <= pre <= end:
                return name
        return None

    # ------------------------------------------------------------------
    def evaluate(
        self,
        path,
        document: Optional[str] = None,
        evaluator=None,
        **evaluator_options,
    ) -> np.ndarray:
        """Evaluate an XPath expression over the collection.

        With ``document`` given, absolute paths are anchored at that
        member's root (the per-document view,
        :func:`~repro.xpath.rewrite.anchor_at_member_root` — the same
        function the query service compiles scoped plans with);
        otherwise they run over the whole gathered plane and results
        from the virtual root itself are filtered out.

        ``path`` may be a string or an already-parsed expression (the
        service layer caches parsed plans).  ``evaluator`` reuses a
        caller-held :class:`~repro.xpath.evaluator.Evaluator` bound to
        ``self.doc`` instead of constructing one per query.
        """
        from repro.xpath.evaluator import Evaluator
        from repro.xpath.parser import parse_xpath
        from repro.xpath.pipeline import drive
        from repro.xpath.rewrite import anchor_at_member_root

        if evaluator is None:
            evaluator = Evaluator(self.doc, **evaluator_options)
        elif evaluator_options:
            raise EncodingError(
                "pass evaluator options either as keywords or baked into "
                "the caller-held evaluator, not both"
            )
        elif evaluator.doc is not self.doc:
            raise EncodingError("evaluator is bound to a different table")
        parsed = parse_xpath(path) if isinstance(path, str) else path
        if document is not None:
            parsed = anchor_at_member_root(parsed)
        return drive(evaluator.compile(parsed), evaluator, *self.scope(document))

    def scope(self, document: Optional[str] = None):
        """The driver's ``(context seed, rank span)`` for one member —
        seeded at its root, keeping its inclusive preorder interval —
        or, with no ``document``, for the whole plane: seeded at the
        default context, keeping everything but the virtual root.  The
        one spelling of document scoping; the shard workers use it too.
        """
        if document is None:
            return None, (self.doc.root + 1, len(self.doc) - 1)
        start, end = self.span(document)
        return start, (start, end)

    # ------------------------------------------------------------------
    # Updates (rank splicing on the gathered plane)
    # ------------------------------------------------------------------
    def apply_update(
        self, table: DocTable, names: Sequence[str]
    ) -> "DocumentCollection":
        """Rebind the collection around an updated gathered plane.

        ``table`` is a spliced successor of ``self.doc`` (same virtual
        root, member roots matching ``names`` positionally).  Partition
        boundaries are re-derived by walking the virtual root's children
        with Equation (1) subtree skips — O(#documents), no re-encoding
        of untouched documents.  Every mutation below funnels through
        here; the original collection stays valid (tables are immutable).
        """
        return DocumentCollection.from_table(table, names, self.virtual_root_tag)

    def insert_document(
        self, name: str, tree: Node, before: Optional[str] = None
    ) -> "DocumentCollection":
        """Add a member document (appended, or ahead of member ``before``)."""
        from repro.encoding.updates import insert_subtree

        if name in self._spans:
            raise EncodingError(f"document {name!r} already in the collection")
        root = _member_root(name, tree)
        if before is None:
            before_pre: Optional[int] = None
            position = len(self._names)
        else:
            before_pre = self.root_of(before)
            position = self._names.index(before)
        table = insert_subtree(self.doc, self.doc.root, root, before_pre=before_pre)
        names = list(self._names)
        names.insert(position, name)
        return self.apply_update(table, names)

    def remove_document(self, name: str) -> "DocumentCollection":
        """Drop a member document (a collection keeps at least one)."""
        from repro.encoding.updates import delete_subtree

        start, _ = self.span(name)
        if len(self._names) == 1:
            raise EncodingError(
                "cannot remove the last document of a collection"
            )
        table = delete_subtree(self.doc, start)
        return self.apply_update(table, [n for n in self._names if n != name])

    def update_document(self, name: str, tree: Node) -> "DocumentCollection":
        """Replace a member document's entire tree in place."""
        from repro.encoding.updates import replace_subtree

        start, _ = self.span(name)
        table = replace_subtree(self.doc, start, _member_root(name, tree))
        return self.apply_update(table, self._names)

    def splice(
        self,
        name: str,
        op: str,
        pre: int,
        tree: Optional[Node] = None,
        before: Optional[int] = None,
    ) -> "DocumentCollection":
        """Subtree-granular edit inside member ``name``.

        ``pre`` (and ``before``) are *document-relative* preorder ranks —
        rank 0 is the member's root element, the same shape the service
        layer reports results in.  ``op`` is ``"insert"`` (``pre`` names
        the parent, ``before`` the optional child to insert ahead of),
        ``"delete"`` or ``"replace"`` (``pre`` names the subtree root).
        """
        from repro.encoding.updates import (
            delete_subtree,
            insert_subtree,
            replace_subtree,
        )

        start, end = self.span(name)
        span_size = end - start
        if not 0 <= pre <= span_size:
            raise EncodingError(
                f"rank {pre} out of range [0, {span_size}] for document {name!r}"
            )
        if op == "insert":
            if tree is None:
                raise EncodingError("insert needs a subtree payload")
            before_pre: Optional[int] = None
            if before is not None:
                if not 0 < before <= span_size:
                    raise EncodingError(
                        f"before-rank {before} out of range (0, {span_size}] "
                        f"for document {name!r}"
                    )
                before_pre = start + before
            table = insert_subtree(self.doc, start + pre, tree, before_pre=before_pre)
        elif op == "delete":
            if pre == 0:
                raise EncodingError(
                    "cannot delete a member's root subtree; remove the "
                    "document instead"
                )
            table = delete_subtree(self.doc, start + pre)
        elif op == "replace":
            if tree is None:
                raise EncodingError("replace needs a subtree payload")
            table = replace_subtree(self.doc, start + pre, tree)
        else:
            raise EncodingError(
                f"unknown splice op {op!r} (expected insert/delete/replace)"
            )
        return self.apply_update(table, self._names)

    def partition_by_document(self, pres: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a result array by owning member document."""
        out: Dict[str, np.ndarray] = {}
        for name in self._names:
            start, end = self._spans[name]
            out[name] = pres[(pres >= start) & (pres <= end)]
        return out

    def partition_relative(self, pres: np.ndarray) -> Dict[str, np.ndarray]:
        """Split a result array by member, shifted to document-relative ranks.

        Rank 0 is each member's root element, so results from differently
        sharded stores (where global preorder ranks differ) compare
        byte-for-byte — the canonical result shape of the service layer.
        """
        out: Dict[str, np.ndarray] = {}
        for name in self._names:
            start, end = self._spans[name]
            selected = pres[(pres >= start) & (pres <= end)]
            out[name] = (selected - start).astype(np.int64, copy=False)
        return out

    def partition_counts(self, pres: np.ndarray) -> Dict[str, int]:
        """Per-member result cardinalities, without materializing the
        document-relative rank arrays.

        The ``mode="count"`` service path: ``pres`` is sorted (every
        operator pipeline's output is), so one ``searchsorted`` per
        member span replaces :meth:`partition_relative`'s per-member
        select-shift-copy.
        """
        out: Dict[str, int] = {}
        for name in self._names:
            start, end = self._spans[name]
            low = int(np.searchsorted(pres, start, side="left"))
            high = int(np.searchsorted(pres, end, side="right"))
            out[name] = high - low
        return out

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._spans

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DocumentCollection(documents={len(self)}, "
            f"nodes={len(self.doc)})"
        )


def _member_root(name: str, tree: Node) -> Node:
    """The root element a member contributes to the gathered plane."""
    if tree.kind == NodeKind.DOCUMENT:
        roots = [c for c in tree.children if c.kind == NodeKind.ELEMENT]
        if len(roots) != 1:
            raise EncodingError(
                f"document {name!r} must have exactly one root element"
            )
        return roots[0]
    if tree.kind == NodeKind.ELEMENT:
        return tree
    raise EncodingError(f"document {name!r} is not element-rooted")
