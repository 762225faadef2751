"""Axis-step execution over the pre/post encoding.

The four partitioning axes (``descendant``, ``ancestor``, ``following``,
``preceding``) are the staircase join's territory; Section 2 of the paper
notes the remaining axes "determine easily characterizable super- or
subsets of these regions (e.g. ancestor-or-self) or are supported by
standard RDBMS join algorithms (e.g. child, parent)".  We implement them
accordingly:

* ``child``/``parent``/siblings/``attribute`` — via the ``parent`` column
  (a standard equi-join against context nodes);
* ``*-or-self`` — union of the partitioning region with the context;
* ``self`` — identity.

Each function takes and returns sorted, duplicate-free ``int64`` arrays of
preorder ranks, so chained steps compose without re-normalisation.

An *engine* selects the executor for every axis: ``"scalar"`` (the
per-node Python transcriptions — Algorithms 2–4 with a chosen
:class:`~repro.core.staircase.SkipMode` for the partitioning axes, loop
joins for the rest) or ``"vectorized"`` (the numpy bulk kernels of
:mod:`repro.core.vectorized` for *all* axes).  Both produce identical
node sets.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.core.staircase import SkipMode, staircase_join
from repro.core.vectorized import (
    axis_step_vectorized,
    nodes_with_parent_in,
    staircase_join_vectorized,
)
from repro.counters import JoinStatistics
from repro.encoding.doctable import DocTable
from repro.errors import XPathEvaluationError
from repro.xmltree.model import NodeKind

__all__ = [
    "AxisExecutor",
    "DOCUMENT_CONTEXT",
    "apply_node_test",
    "node_test_mask",
    "resolve_engine",
    "tested_children",
]

_ATTR = int(NodeKind.ATTRIBUTE)

#: Sentinel context value for the (un-encoded) document node, used by the
#: evaluator for absolute paths.
DOCUMENT_CONTEXT = object()


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; ``None`` selects the scalar engine."""
    if engine is None:
        return "scalar"
    if engine in ("scalar", "vectorized"):
        return engine
    raise XPathEvaluationError(f"unknown engine {engine!r}")


class AxisExecutor:
    """Evaluates single axis steps for a fixed document and engine.

    Parameters
    ----------
    doc:
        The encoded document.
    mode:
        Skip mode for the scalar staircase join.
    stats:
        Shared counters; every staircase join invocation accumulates here.
    engine:
        ``"scalar"`` (per-node Python loops, instrumented) or
        ``"vectorized"`` (numpy bulk kernels for every axis).
    """

    def __init__(
        self,
        doc: DocTable,
        mode: SkipMode = SkipMode.ESTIMATE,
        stats: Optional[JoinStatistics] = None,
        engine: Optional[str] = None,
    ):
        self.engine = resolve_engine(engine)
        self.doc = doc
        self.mode = mode
        self.stats = stats if stats is not None else JoinStatistics()

    # ------------------------------------------------------------------
    def step(self, context, axis: str) -> np.ndarray:
        """Evaluate one axis step; ``context`` may be the document sentinel."""
        if context is DOCUMENT_CONTEXT:
            return self._from_document(axis)
        context = np.asarray(context, dtype=np.int64)
        if len(context) == 0:
            return _empty()
        if self.engine == "vectorized":
            if axis not in _AXES:
                raise XPathEvaluationError(f"unsupported axis {axis!r}")
            return axis_step_vectorized(self.doc, context, axis, self.stats)
        try:
            executor = _AXES[axis]
        except KeyError:
            raise XPathEvaluationError(f"unsupported axis {axis!r}") from None
        return executor(self, context)

    # ------------------------------------------------------------------
    # Partitioning axes → staircase join
    # ------------------------------------------------------------------
    def _partitioning(self, axis: str, context: np.ndarray) -> np.ndarray:
        if self.engine == "vectorized":
            return staircase_join_vectorized(self.doc, context, axis, self.stats)
        return staircase_join(self.doc, context, axis, self.mode, self.stats)

    def _descendant_or_self(self, context: np.ndarray) -> np.ndarray:
        descendants = self._partitioning("descendant", context)
        return np.union1d(context, descendants)

    def _ancestor_or_self(self, context: np.ndarray) -> np.ndarray:
        ancestors = self._partitioning("ancestor", context)
        return np.union1d(context, ancestors)

    # ------------------------------------------------------------------
    # Structural axes → parent-column joins
    # ------------------------------------------------------------------
    #: Context size below which child/attribute steps enumerate children
    #: positionally (subtree hops) instead of scanning the parent column.
    #: Predicate evaluation hits this path constantly (one-node contexts),
    #: where an O(n) column scan per candidate would dominate the query.
    SMALL_CONTEXT = 64

    def _child(self, context: np.ndarray) -> np.ndarray:
        doc = self.doc
        if len(context) <= self.SMALL_CONTEXT:
            out = []
            for c in context:
                out.extend(
                    child
                    for child in doc.children_of(int(c))
                    if doc.kind[child] != _ATTR
                )
            return np.asarray(sorted(out), dtype=np.int64)
        mask = np.isin(doc.parent, context) & (doc.kind != _ATTR)
        return np.nonzero(mask)[0].astype(np.int64)

    def _attribute(self, context: np.ndarray) -> np.ndarray:
        doc = self.doc
        if len(context) <= self.SMALL_CONTEXT:
            out = []
            for c in context:
                out.extend(
                    child
                    for child in doc.children_of(int(c))
                    if doc.kind[child] == _ATTR
                )
            return np.asarray(sorted(out), dtype=np.int64)
        mask = np.isin(doc.parent, context) & (doc.kind == _ATTR)
        return np.nonzero(mask)[0].astype(np.int64)

    def _parent(self, context: np.ndarray) -> np.ndarray:
        parents = self.doc.parent[context].astype(np.int64)  # ranks out
        return np.unique(parents[parents >= 0])

    def _siblings(self, context: np.ndarray, following: bool) -> np.ndarray:
        """Siblings on one side, per context node, via the parent column.

        A node's siblings share its parent; the following ones have larger
        preorder ranks.  Attribute context nodes have no siblings in the
        XPath sense (attributes are not children), and attribute nodes are
        never produced.
        """
        doc = self.doc
        result = set()
        for c in context:
            c = int(c)
            p = int(doc.parent[c])
            if p < 0 or doc.kind[c] == _ATTR:
                continue
            for sibling in doc.children_of(p):
                if doc.kind[sibling] == _ATTR or sibling == c:
                    continue
                if (sibling > c) == following and sibling != c:
                    result.add(sibling)
        if not result:
            return _empty()
        return np.asarray(sorted(result), dtype=np.int64)

    # ------------------------------------------------------------------
    # Virtual document node (absolute paths)
    # ------------------------------------------------------------------
    def _from_document(self, axis: str) -> np.ndarray:
        """Axis step whose context is the (un-encoded) document node.

        The document node's only child is the root element; its descendant
        region is the entire plane.  Axes that would *return* the document
        node (``self``, ``ancestor-or-self``) yield the empty set because
        the document node has no rank — a documented deviation that is
        invisible to name-tested queries.
        """
        doc = self.doc
        if axis == "child":
            return np.asarray([doc.root], dtype=np.int64)
        if axis in ("descendant", "descendant-or-self"):
            return np.nonzero(doc.kind != _ATTR)[0].astype(np.int64)
        if axis in (
            "ancestor",
            "ancestor-or-self",
            "parent",
            "self",
            "following",
            "preceding",
            "following-sibling",
            "preceding-sibling",
            "attribute",
        ):
            return _empty()
        raise XPathEvaluationError(f"unsupported axis {axis!r}")


#: Axis → its scalar evaluation, a function of the executor and the
#: context.  One table for every executor: an executor holding bound
#: methods of itself would be a reference cycle, and its plane would
#: outlive its last reader until a generation-2 collection.
_AXES: Dict[str, Callable[[AxisExecutor, np.ndarray], np.ndarray]] = {
    "descendant": lambda ax, ctx: ax._partitioning("descendant", ctx),
    "ancestor": lambda ax, ctx: ax._partitioning("ancestor", ctx),
    "following": lambda ax, ctx: ax._partitioning("following", ctx),
    "preceding": lambda ax, ctx: ax._partitioning("preceding", ctx),
    "descendant-or-self": AxisExecutor._descendant_or_self,
    "ancestor-or-self": AxisExecutor._ancestor_or_self,
    "child": AxisExecutor._child,
    "parent": AxisExecutor._parent,
    "attribute": AxisExecutor._attribute,
    "self": lambda ax, ctx: ctx,
    "following-sibling": lambda ax, ctx: ax._siblings(ctx, following=True),
    "preceding-sibling": lambda ax, ctx: ax._siblings(ctx, following=False),
}


# ----------------------------------------------------------------------
# Node tests
# ----------------------------------------------------------------------
def node_test_mask(
    doc: DocTable, pres, axis: str, kind: str, name: Optional[str]
) -> np.ndarray:
    """Boolean mask over ``pres``: which nodes pass the node test.

    ``pres`` is a rank array or a contiguous ``slice`` of the plane;
    ``kind``/``name`` come from :class:`repro.xpath.ast.NodeTest`.  The
    *principal node kind* rule: a name test (or ``*``) selects elements on
    every axis except ``attribute``, where it selects attribute nodes.
    """
    principal = NodeKind.ATTRIBUTE if axis == "attribute" else NodeKind.ELEMENT
    kinds = doc.kind[pres]
    if kind == "node":
        return np.ones(len(kinds), dtype=bool)
    if kind == "*":
        return kinds == int(principal)
    if kind == "name":
        code = doc.tag.code_of(name or "")
        if code < 0:
            return np.zeros(len(kinds), dtype=bool)
        return (kinds == int(principal)) & (doc.tag.codes[pres] == code)
    if kind == "text":
        return kinds == int(NodeKind.TEXT)
    if kind == "comment":
        return kinds == int(NodeKind.COMMENT)
    if kind == "processing-instruction":
        mask = kinds == int(NodeKind.PROCESSING_INSTRUCTION)
        if name:
            ranks = np.arange(len(doc), dtype=np.int64)[pres]
            for slot in np.nonzero(mask)[0]:
                mask[slot] = doc.tag_of(int(ranks[slot])) == name
        return mask
    raise XPathEvaluationError(f"unknown node test kind {kind!r}")


def tested_children(rt, parents: np.ndarray, axis: str, test) -> np.ndarray:
    """``parents/child::test`` (or ``attribute::test``) for the runtime
    ``rt`` (an evaluator) — the one test-first child kernel: a name test
    reads the tag's fragment
    (:meth:`~repro.core.fragments.FragmentedDocument.child_step`); kind
    tests and attributes probe the parent column's window, then test.
    ``parents`` is sorted and duplicate-free."""
    if axis == "child" and test.kind == "name":
        return rt.fragments.child_step(parents, test.name, rt.stats)
    found = nodes_with_parent_in(rt.doc, parents, axis == "attribute", rt.stats)
    return apply_node_test(rt.doc, found, axis, test.kind, test.name)


def apply_node_test(
    doc: DocTable, pres: np.ndarray, axis: str, kind: str, name: Optional[str]
) -> np.ndarray:
    """Filter step output ``pres`` by a node test (see
    :func:`node_test_mask`)."""
    if len(pres) == 0 or kind == "node":
        return pres
    return pres[node_test_mask(doc, pres, axis, kind, name)]
