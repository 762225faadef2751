"""Encode a node tree into the pre/post ``doc`` table.

One pre-order pass records what the tree *holds* — per node its
``level``, ``kind`` and the two dictionary codes — the way the paper
fills the ``doc`` table at loading time (Section 4.1).  What the tree
*looks like* is not recorded twice: the pre-order ``level`` sequence is
the shape, and :func:`shape` derives ``post`` and ``parent`` from it
(Equation (1): ``post(v) − pre(v) + level(v) = |v/descendant|``) — here,
and again whenever an archive is opened (:mod:`repro.encoding.persist`
stores neither column).  Tags and text are dictionary-coded as they are
met: the text of a node is a 4-byte code from here on
(:class:`~repro.encoding.doctable.ValueIndex`), never a Python ``str``
per node.

Attributes of an element are visited immediately after the element
itself, before its other children — the "special encoding for attribute
nodes" of Section 3 which lets axis steps filter them with a single
``kind`` comparison while keeping the preorder rank sequence contiguous
(so the ``pre`` column stays void).

The document node itself is *not* encoded: Figure 2 of the paper assigns
``pre = 0`` to the root element ``a``, and we reproduce that table verbatim
in the test suite.  Absolute XPath locations are handled by the evaluator
through a virtual document context (see :mod:`repro.xpath.axes`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.encoding.codec import encode_dictionary
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.widths import COLUMN_DTYPES, narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["encode", "shape"]

_ELEMENT = NodeKind.ELEMENT
_NAMED = (NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION)


def encode(tree: Node) -> DocTable:
    """Encode ``tree`` (a document or element node) as a :class:`DocTable`.

    Per node we record

    ``post``   — postorder rank,
    ``level``  — path length from the root element (root has level 0),
    ``parent`` — preorder rank of the parent (−1 for the root),
    ``kind``   — :class:`~repro.xmltree.model.NodeKind` value,
    ``tag``    — element tag / attribute name / PI target ("" otherwise),
    ``value``  — text content for text/comment/attribute/PI nodes.
    """
    if tree.kind == NodeKind.DOCUMENT:
        roots = [c for c in tree.children if c.kind == NodeKind.ELEMENT]
        if len(roots) != 1:
            raise EncodingError(
                f"document must have exactly one root element, found {len(roots)}"
            )
        return encode_subtree(roots[0])
    if tree.kind == NodeKind.ELEMENT:
        return encode_subtree(tree)
    raise EncodingError(f"cannot encode a {tree.kind.name} node as a document")


def shape(level: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(post, parent)`` of the tree whose pre-order ``level`` column
    this is — the one definition of tree shape (splices aside, which
    shift ranks they already hold).

    ``parent(v)`` is the last node one level up before ``v``; ``post(v) =
    end(v) − 1 − level(v)`` where ``end(v)`` is the first later node at
    ``level ≤ level(v)`` (Equation (1)).  Both come from the nodes in
    ``(level, pre)`` order: a node that steps one level down is a first
    child, every other node shares the parent of its predecessor on the
    same level and *is* that predecessor's end; a last child ends with
    its parent, resolved by pointer doubling — ``log₂ height`` gathers,
    no pass per level or per node.

    A column that is not the walk of one tree (it does not open at level
    0, returns there, or descends more than one level in a step) is an
    :class:`EncodingError`, so a loaded archive yields a plane or an
    error, never a garbage plane.
    """
    level = narrow("level", level)
    n = level.shape[0]
    rank = COLUMN_DTYPES["post"]
    if n > np.iinfo(rank).max:
        raise EncodingError(f"{n} nodes exceed the 4-byte rank columns")
    if n == 0 or level[0] != 0 or (n > 1 and level[1:].min() < 1):
        raise EncodingError(
            "level column is not one tree: level 0 must open it and never recur"
        )
    step = level[1:] - level[:-1]  # levels are ≥ 0 here: no int16 wrap
    if n > 1 and step.max() > 1:
        raise EncodingError(
            "level column is not one tree: a node sits more than one level "
            "below the node before it"
        )
    first_child = np.ones(n, dtype=bool)  # the root opens its level too
    first_child[1:] = step == 1
    order = np.argsort(level, kind="stable").astype(rank)  # by (level, pre)
    opens = first_child[order]
    run = np.arange(n, dtype=rank)
    run[~opens] = 0
    np.maximum.accumulate(run, out=run)  # each node's first sibling, in order
    parent = np.empty(n, dtype=rank)
    parent[order] = order[run] - 1

    # end(v): where the next sibling starts, else where the parent ends.
    later = np.flatnonzero(~opens[1:]) + 1  # slots of ``order`` holding a later sibling
    elder, younger = order[later - 1], order[later]
    end = np.full(n, n, dtype=rank)  # the root ends the table
    end[elder] = younger
    hop = parent.copy()  # settled nodes point at themselves, the rest one level up
    hop[0] = 0
    hop[elder] = elder
    for _ in range(int(level.max()).bit_length()):
        hop = hop[hop]
    post = end[hop]
    post -= 1
    post -= level
    return post, parent


def encode_subtree(root: Node) -> DocTable:
    """The table of the subtree at ``root``, whatever its kind (a splice
    encodes the leaf it inserts the same way as a whole document).

    Iterative (documents may be deep) and O(n): the walk records each
    node's depth and leaves the ranks to :func:`shape`.
    """
    level: List[int] = []
    kind: List[int] = []
    tag_codes: List[int] = []
    value_codes: List[int] = []
    tag_code: Dict[str, int] = {}
    value_code: Dict[Optional[str], int] = {None: -1}  # first-seen codes

    # Two parallel stacks (nodes, their depths) filled a child list at a
    # time: no per-node frame object.  Children are pushed reversed so
    # the leftmost is met first (attributes lead ``children``).
    nodes, depths = [root], [0]
    while nodes:
        node, depth = nodes.pop(), depths.pop()
        level.append(depth)
        node_kind = node.kind
        kind.append(node_kind)
        if node_kind == _ELEMENT:
            name = node.name
            value_codes.append(-1)
        else:
            name = node.name if node_kind in _NAMED else ""
            value = node.value
            code = value_code.get(value)
            if code is None:
                code = value_code[value] = len(value_code) - 1
            value_codes.append(code)
        code = tag_code.get(name)
        if code is None:
            code = tag_code[name] = len(tag_code)
        tag_codes.append(code)
        children = node.children
        if children:
            nodes.extend(children[::-1])
            depths.extend([depth + 1] * len(children))

    # First-seen value codes → codes of the sorted dictionary (str order
    # is code-point order is UTF-8 byte order).  The trailing slot keeps
    # the -1 of a valueless node where it is.
    del value_code[None]
    first_seen = list(value_code)
    ranked = sorted(range(len(first_seen)), key=first_seen.__getitem__)
    remap = np.full(len(first_seen) + 1, -1, dtype=np.int32)
    remap[ranked] = np.arange(len(first_seen), dtype=np.int32)
    values = ValueIndex(
        remap[narrow("value_codes", value_codes)],
        *encode_dictionary([first_seen[i] for i in ranked]),
    )
    levels = narrow("level", level)
    post, parent = shape(levels)
    return DocTable(
        post=post,
        level=levels,
        parent=parent,
        kind=narrow("kind", kind),
        tag=StringColumn(narrow("tag_codes", tag_codes), list(tag_code), validate=False),
        values=values,
    )
