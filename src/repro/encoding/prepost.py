"""Encode a node tree into the pre/post ``doc`` table.

One pre-order pass fills every column, the way the paper fills the
``doc`` table at loading time (Section 4.1).  A node receives its
preorder rank when the walk reaches it and its postorder rank when the
walk leaves its depth — the moment the next node to arrive sits at the
same depth or above it — so there is no second visit, and each node is
opened and closed once whatever the height.  Tags and text are
dictionary-coded as they are met: the text of a node is a 4-byte code
from here on (:class:`~repro.encoding.doctable.ValueIndex`), never a
Python ``str`` per node.

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

from typing import Dict, List, Optional

import numpy as np

from repro.encoding.codec import encode_dictionary
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.widths import narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["encode"]

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


def encode_subtree(root: Node) -> DocTable:
    """The table of the subtree at ``root``, whatever its kind (a splice
    encodes the leaf it inserts the same way as a whole document).

    Iterative (documents may be deep) and O(n): ``path`` holds the open
    ancestors of the node in hand, and a node arriving at depth ``d``
    closes everything open at ``d`` or below — each node is pushed and
    popped once.
    """
    post: List[int] = []
    level: List[int] = []
    parent: List[int] = []
    kind: List[int] = []
    tag_codes: List[int] = []
    value_codes: List[int] = []
    tag_code: Dict[str, int] = {}
    value_code: Dict[Optional[str], int] = {None: -1}  # first-seen codes

    # Two parallel stacks (nodes, their depths) filled a child list at a
    # time: no per-node frame object.  Children are pushed reversed so
    # the leftmost is met first (attributes lead ``children``).
    nodes, depths = [root], [0]
    path = [-1]  # path[d + 1]: the open node at depth d; path[d]: its parent
    pre = closed = 0
    while nodes:
        node, depth = nodes.pop(), depths.pop()
        while len(path) > depth + 1:
            post[path.pop()] = closed
            closed += 1
        parent.append(path[-1])
        path.append(pre)
        pre += 1
        post.append(-1)  # assigned when the walk leaves this depth
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
    while len(path) > 1:
        post[path.pop()] = closed
        closed += 1

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
    return DocTable(
        post=narrow("post", post),
        level=narrow("level", level),
        parent=narrow("parent", parent),
        kind=narrow("kind", kind),
        tag=StringColumn(narrow("tag_codes", tag_codes), list(tag_code), validate=False),
        values=values,
    )
