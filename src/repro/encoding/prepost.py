"""Encode a node tree into the pre/post ``doc`` table.

The traversal assigns each node its preorder rank (when first visited) and
postorder rank (when leaving it).  Attributes of an element are visited
immediately after the element itself, before its other children — the
"special encoding for attribute nodes" of Section 3 which lets axis steps
filter them with a single ``kind`` comparison while keeping the preorder
rank sequence contiguous (so the ``pre`` column stays void).

The document node itself is *not* encoded: Figure 2 of the paper assigns
``pre = 0`` to the root element ``a``, and we reproduce that table verbatim
in the test suite.  Absolute XPath locations are handled by the evaluator
through a virtual document context (see :mod:`repro.xpath.axes`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.encoding.doctable import DocTable
from repro.encoding.widths import narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["encode"]


def encode(tree: Node) -> DocTable:
    """Encode ``tree`` (a document or element node) as a :class:`DocTable`.

    The encoding is a single iterative depth-first traversal: O(n) time,
    no recursion (documents may be deep).  Per node we record

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
        root = roots[0]
    elif tree.kind == NodeKind.ELEMENT:
        root = tree
    else:
        raise EncodingError(f"cannot encode a {tree.kind.name} node as a document")

    post: List[int] = []
    level: List[int] = []
    parent: List[int] = []
    kind: List[int] = []
    tags: List[str] = []
    values: List[Optional[str]] = []

    post_counter = 0
    # Stack frames: (node, parent_pre, depth, entered?).  A node is pushed
    # once to assign its preorder rank and children, then revisited to
    # assign its postorder rank.
    stack = [(root, -1, 0, False)]
    # Each node's pre rank is len(post-list-at-entry); we track it in the
    # frame for the exit visit.
    exit_pre: List[int] = []  # parallel stack of pre ranks for entered frames

    while stack:
        node, parent_pre, depth, entered = stack.pop()
        if entered:
            pre = exit_pre.pop()
            post[pre] = post_counter
            post_counter += 1
            continue
        pre = len(kind)
        post.append(-1)  # patched at exit
        level.append(depth)
        parent.append(parent_pre)
        kind.append(int(node.kind))
        if node.kind in (
            NodeKind.ELEMENT,
            NodeKind.ATTRIBUTE,
            NodeKind.PROCESSING_INSTRUCTION,
        ):
            tags.append(node.name)
        else:
            tags.append("")
        if node.kind == NodeKind.ELEMENT:
            values.append(None)
        else:
            values.append(node.value)
        # Schedule the exit visit *below* the children on the stack.
        stack.append((node, parent_pre, depth, True))
        exit_pre.append(pre)
        # Children in document order (attributes first — the model keeps
        # them at the front of ``children``); pushed reversed so the
        # leftmost child is processed first.
        for child in reversed(node.children):
            stack.append((child, pre, depth + 1, False))

    # The exit-visit bookkeeping above interleaves exits of different
    # nodes; `exit_pre` as a plain stack only works because each entered
    # frame's exit is pushed directly beneath its children, so exits pop
    # in the correct (postorder) nesting.  Sanity-check the result.
    post_array = narrow("post", post)
    if post_array.min() < 0:
        raise EncodingError("internal error: unassigned postorder rank")

    return DocTable(
        post=post_array,
        level=narrow("level", level),
        parent=narrow("parent", parent),
        kind=narrow("kind", kind),
        tag=StringColumn.from_strings(tags),
        values=values,
    )
