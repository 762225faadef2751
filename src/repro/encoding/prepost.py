"""Encode a node tree into the pre/post ``doc`` table.

One pre-order walk — a stack of child iterators, no recursion — meets
every node once and records its depth, the way the paper fills the
``doc`` table at loading time (Section 4.1); ``kind``, the tag code
(first-seen order) and the value code (into the sorted value
dictionary) are then read off the visited nodes a column at a time.
The pre-order ``level`` sequence is the shape: :func:`shape` derives
``post`` and ``parent`` from it (Equation (1): ``post(v) − pre(v) +
level(v) = |v/descendant|``) — here, and again whenever an archive is
opened (:mod:`repro.encoding.persist` stores neither column).  The text
of a node is a dictionary code from here on
(:class:`~repro.encoding.doctable.ValueIndex`), never a Python ``str``
per node.  A gathered plane (footnote 1, :func:`encode_gathered`) is
one record for the virtual root at level 0, then the same walk over the
member roots from level 1: no ``Node`` is made, no member reparented.

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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.encoding.codec import encode_dictionary
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.widths import COLUMN_DTYPES, hold, narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["NAMED_KINDS", "encode", "encode_gathered", "encode_subtree", "shape"]

_ELEMENT = NodeKind.ELEMENT
#: Kinds whose ``name`` is their tag (every other node's tag is "").
NAMED_KINDS = frozenset((_ELEMENT, NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION))


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
    level = hold("level", level)
    n = level.shape[0]
    rank = COLUMN_DTYPES["post"]
    if n > np.iinfo(rank).max:
        raise EncodingError(f"{n} nodes exceed the 4-byte rank columns")
    if n == 0 or level[0] != 0 or (n > 1 and level[1:].min() < 1):
        raise EncodingError(
            "level column is not one tree: level 0 must open it and never recur"
        )
    step = level[1:] - level[:-1]  # levels are ≥ 0 here: no wrap at any width
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
    encodes the leaf it inserts the same way as a whole document)."""
    return _encode([root])


def encode_gathered(tag: str, roots: Sequence[Node]) -> DocTable:
    """The table of ``roots`` gathered under a virtual root ``tag``."""
    return _encode(roots, tag)


def _encode(roots: Sequence[Node], virtual_root: Optional[str] = None) -> DocTable:
    """One iterative walk over ``roots`` (documents may be deep), then
    one comprehension per column; the ranks are left to :func:`shape`."""
    visited: List[Node] = []
    level: List[int] = []
    if virtual_root is not None:
        level.append(0)
    depth = len(level)
    stack = [iter(roots)]
    while stack:
        for node in stack[-1]:
            visited.append(node)
            level.append(depth)
            if node.children:
                stack.append(iter(node.children))
                depth += 1
                break
        else:
            stack.pop()
            depth -= 1

    kind = [node.kind for node in visited]
    names = [n.name if k in NAMED_KINDS else "" for n, k in zip(visited, kind)]
    texts = [None if k == _ELEMENT else n.value for n, k in zip(visited, kind)]
    if virtual_root is not None:
        kind.insert(0, _ELEMENT)
        names.insert(0, virtual_root)
        texts.insert(0, None)
    # Tag codes in first-seen order; value codes index the sorted value
    # dictionary (str order is code-point order is UTF-8 byte order),
    # -1 for a valueless node.
    tag_code: Dict[str, int] = {}
    tag_codes = [tag_code.setdefault(name, len(tag_code)) for name in names]
    dictionary = sorted(set(texts) - {None})
    value_code: Dict[Optional[str], int] = {v: i for i, v in enumerate(dictionary)}
    value_code[None] = -1
    value_codes = list(map(value_code.__getitem__, texts))

    levels = narrow("level", _ints(level))
    post, parent = shape(levels)
    return DocTable(
        post=post,
        level=levels,
        parent=parent,
        kind=narrow("kind", _ints(kind)),
        tag=StringColumn(
            narrow("tag_codes", _ints(tag_codes)), list(tag_code), validate=False
        ),
        values=ValueIndex(
            narrow("value_codes", _ints(value_codes)), *encode_dictionary(dictionary)
        ),
    )


def _ints(values: List[int]) -> np.ndarray:
    """A list of Python ints as an ``int64`` array, for :func:`narrow`."""
    return np.fromiter(values, np.int64, len(values))
