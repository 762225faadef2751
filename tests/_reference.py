"""Reference implementations used to cross-check the library.

Everything here is deliberately naive: axis semantics are computed by
walking the :class:`~repro.xmltree.model.Node` tree directly (no pre/post
arithmetic, no staircase logic), so agreement with the accelerator-based
implementations is meaningful evidence of correctness.
"""

from __future__ import annotations

import random
from typing import Dict, List

import numpy as np

from repro.xmltree.model import Node, NodeKind, element


# ----------------------------------------------------------------------
# Node ↔ pre-rank correspondence
# ----------------------------------------------------------------------
def preorder_nodes(root: Node) -> List[Node]:
    """Nodes of the tree in document order (== preorder rank order)."""
    return list(root.iter_preorder())


def pre_of(root: Node) -> Dict[int, int]:
    """Map ``id(node)`` → preorder rank."""
    return {id(node): pre for pre, node in enumerate(preorder_nodes(root))}


# ----------------------------------------------------------------------
# Tree-walking axis semantics (XPath 1.0)
# ----------------------------------------------------------------------
def axis_nodes(root: Node, node: Node, axis: str) -> List[Node]:
    """The node list of ``node``'s ``axis``, by direct tree walking.

    Results are returned in document order; attribute filtering follows
    the XPath data model (only ``self``/``descendant-or-self`` contexts
    and the ``attribute`` axis ever yield attributes).
    """
    ordered = preorder_nodes(root)
    position = {id(n): i for i, n in enumerate(ordered)}

    def in_subtree(a: Node, d: Node) -> bool:
        walk = d.parent
        while walk is not None:
            if walk is a:
                return True
            walk = walk.parent
        return False

    def non_attr(nodes):
        return [n for n in nodes if n.kind != NodeKind.ATTRIBUTE]

    if axis == "self":
        return [node]
    if axis == "child":
        return node.non_attribute_children
    if axis == "attribute":
        return node.attributes
    if axis == "parent":
        return [node.parent] if node.parent is not None else []
    if axis == "descendant":
        return non_attr([n for n in ordered if n is not node and in_subtree(node, n)])
    if axis == "descendant-or-self":
        return [node] + non_attr(
            [n for n in ordered if n is not node and in_subtree(node, n)]
        )
    if axis == "ancestor":
        return sorted(node.ancestors(), key=lambda n: position[id(n)])
    if axis == "ancestor-or-self":
        ancestors = sorted(node.ancestors(), key=lambda n: position[id(n)])
        return ancestors + [node]
    if axis == "following":
        my_pos = position[id(node)]
        return non_attr(
            [
                n
                for n in ordered
                if position[id(n)] > my_pos
                and not in_subtree(node, n)
            ]
        )
    if axis == "preceding":
        my_pos = position[id(node)]
        return non_attr(
            [
                n
                for n in ordered
                if position[id(n)] < my_pos
                and not in_subtree(n, node)
            ]
        )
    if axis == "following-sibling":
        if node.parent is None or node.kind == NodeKind.ATTRIBUTE:
            return []
        siblings = node.parent.non_attribute_children
        index = next(i for i, s in enumerate(siblings) if s is node)
        return siblings[index + 1 :]
    if axis == "preceding-sibling":
        if node.parent is None or node.kind == NodeKind.ATTRIBUTE:
            return []
        siblings = node.parent.non_attribute_children
        index = next(i for i, s in enumerate(siblings) if s is node)
        return siblings[:index]
    raise ValueError(f"unknown axis {axis!r}")


def axis_pres(root: Node, context_pres, axis: str) -> np.ndarray:
    """Reference axis step over a *set* of context pre ranks.

    Unions the per-node tree-walk results, maps them to preorder ranks,
    sorts and de-duplicates — the XPath step semantics the optimised
    algorithms must reproduce.
    """
    ordered = preorder_nodes(root)
    position = {id(n): i for i, n in enumerate(ordered)}
    out = set()
    for pre in context_pres:
        for node in axis_nodes(root, ordered[int(pre)], axis):
            out.add(position[id(node)])
    return np.asarray(sorted(out), dtype=np.int64)


# ----------------------------------------------------------------------
# Random document construction (deterministic, seed-driven)
# ----------------------------------------------------------------------
TAGS = ("a", "b", "c", "d", "e")


def random_tree(
    n_nodes: int,
    seed: int,
    tags=TAGS,
    attribute_probability: float = 0.15,
    text_probability: float = 0.15,
) -> Node:
    """A random document tree with ``n_nodes`` nodes (≥ 1).

    Built from a random parent vector (``parent[i] < i``), which covers
    arbitrary shapes — degenerate chains, stars, bushy trees — far better
    than grammar-based generation.  Some nodes become attributes or text
    leaves, so kind filtering is exercised too.
    """
    rng = random.Random(seed)
    root = element(rng.choice(tags))
    nodes = [root]
    for i in range(1, n_nodes):
        parent = nodes[rng.randrange(len(nodes))]
        # Attributes and text cannot have children; retry onto elements.
        while parent.kind != NodeKind.ELEMENT:
            parent = nodes[rng.randrange(len(nodes))]
        roll = rng.random()
        if roll < attribute_probability:
            child = parent.set_attribute(f"{rng.choice(tags)}{i}", str(i))
        elif roll < attribute_probability + text_probability:
            child = Node(NodeKind.TEXT, value=f"t{i}")
            parent.append(child)
        else:
            child = element(rng.choice(tags))
            parent.append(child)
        nodes.append(child)
    return root


# ----------------------------------------------------------------------
# The two-visit encoder (the library's ``encode`` up to PR 19)
# ----------------------------------------------------------------------
def encode_columns(root: Node) -> Dict[str, list]:
    """Per-node columns of the subtree at ``root`` as plain Python lists,
    by the textbook two-visit walk: a frame is pushed once to hand out
    the preorder rank and schedule the children, then met again to hand
    out the postorder rank.  ``tag`` and ``value`` are the per-node
    strings themselves (``None``: an element has no value).
    """
    post: List[int] = []
    level: List[int] = []
    parent: List[int] = []
    kind: List[int] = []
    tag: List[str] = []
    value: list = []
    post_counter = 0
    stack = [(root, -1, 0, False)]
    exit_pre: List[int] = []
    while stack:
        node, parent_pre, depth, entered = stack.pop()
        if entered:
            post[exit_pre.pop()] = post_counter
            post_counter += 1
            continue
        pre = len(kind)
        post.append(-1)
        level.append(depth)
        parent.append(parent_pre)
        kind.append(int(node.kind))
        named = node.kind in (
            NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION
        )
        tag.append(node.name if named else "")
        value.append(None if node.kind == NodeKind.ELEMENT else node.value)
        stack.append((node, parent_pre, depth, True))
        exit_pre.append(pre)
        for child in reversed(node.children):
            stack.append((child, pre, depth + 1, False))
    return {
        "post": post, "level": level, "parent": parent,
        "kind": kind, "tag": tag, "value": value,
    }
