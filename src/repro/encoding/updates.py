"""Document updates on the pre/post encoding.

Updates are the classic weakness of rank-based encodings: inserting or
deleting a subtree renumbers every later preorder rank and every higher
postorder rank.  The paper sidesteps updates (its documents are loaded
once); a library users adopt cannot.  This module implements subtree
insertion and deletion *by rank splicing* — O(n) array surgery instead of
a full re-parse/re-encode — relying on the same tree property the
staircase join exploits: a subtree occupies a contiguous preorder
interval **and** a contiguous postorder interval (both of size
``|desc(v)| + 1`` ending at ``post(v)``; Equation (1)).

The returned tables are fresh (``DocTable`` is immutable by design —
query results referencing old ranks stay valid against the old table).
Property tests verify splice-equals-reencode on random documents.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Optional

import numpy as np

from repro.encoding.doctable import DocTable
from repro.encoding.prepost import encode
from repro.encoding.widths import narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["delete_subtree", "insert_subtree", "replace_subtree"]


def _encode_tags(tag: StringColumn, fragment_tags: List[str]):
    """Fragment tag codes under ``tag``'s dictionary (extended as needed).

    Returns ``(codes, dictionary)``.  The splice never materialises the
    surviving rows as strings — the existing code vector is reused
    verbatim and only the (small) fragment pays a per-string lookup; the
    dictionary is copied only when the fragment introduces new tags.
    Codes orphaned by a deletion stay in the dictionary; they are
    harmless (name tests go through ``code_of``) and keep the splice
    O(fragment), not O(document).
    """
    codes = np.empty(len(fragment_tags), dtype=np.int32)
    dictionary = tag.dictionary
    fresh: dict = {}
    for i, name in enumerate(fragment_tags):
        code = tag.code_of(name)
        if code < 0:
            code = fresh.get(name)
            if code is None:
                code = len(dictionary) + len(fresh)
                fresh[name] = code
        codes[i] = code
    if fresh:
        dictionary = dictionary + list(fresh)
    return codes, dictionary


def delete_subtree(doc: DocTable, pre: int) -> DocTable:
    """Remove the subtree rooted at ``pre`` (the root itself included).

    Deleting the document root is rejected (a ``DocTable`` cannot be
    empty).  O(n).
    """
    if not 0 <= pre < len(doc):
        raise EncodingError(f"preorder rank {pre} out of range [0, {len(doc)})")
    if pre == doc.root:
        raise EncodingError("cannot delete the root element")
    size = doc.subtree_size_exact(pre)
    pre_stop = pre + size + 1  # exclusive end of the preorder interval
    post_hi = int(doc.post[pre])  # subtree posts are [post_hi - size, post_hi]
    removed = size + 1

    keep = np.ones(len(doc), dtype=bool)
    keep[pre:pre_stop] = False

    post = doc.post[keep].copy()
    post[post > post_hi] -= removed

    parent = doc.parent[keep].copy()
    parent[parent >= pre_stop] -= removed
    # Parents inside the removed interval are impossible for survivors:
    # a surviving node whose parent was in the subtree would itself be in
    # the subtree (contiguity), so no further fixup is needed.

    return DocTable(
        post=post,
        level=doc.level[keep].copy(),
        parent=parent,
        kind=doc.kind[keep].copy(),
        # Surviving codes are sliced, never re-encoded (the dictionary
        # may keep entries the deletion orphaned — see _encode_tags).
        tag=StringColumn(doc.tag.codes[keep], doc.tag.dictionary),
        values=list(compress(doc.values, keep)),
    )


def insert_subtree(
    doc: DocTable,
    parent_pre: int,
    tree: Node,
    before_pre: Optional[int] = None,
) -> DocTable:
    """Insert ``tree`` as a child of ``parent_pre``.

    ``before_pre`` positions the new subtree immediately before an
    existing child (given by its preorder rank); ``None`` appends as the
    last child.  The paper's convention keeps attributes first, and the
    attribute axis relies on it, so the splice enforces it from both
    sides: a non-attribute cannot land before an attribute, and an
    appended attribute is auto-positioned ahead of the first
    non-attribute child (an explicit ``before_pre`` that would strand an
    attribute after element/text children is rejected).
    """
    if not 0 <= parent_pre < len(doc):
        raise EncodingError(
            f"parent rank {parent_pre} out of range [0, {len(doc)})"
        )
    if doc.kind_of(parent_pre) != NodeKind.ELEMENT:
        raise EncodingError("can only insert under an element node")
    if tree.kind == NodeKind.DOCUMENT:
        raise EncodingError("insert an element/leaf subtree, not a document")
    if tree.kind == NodeKind.ATTRIBUTE and before_pre is None:
        # Appending would strand the attribute after element/text
        # children; slot it at the end of the attribute block instead.
        before_pre = doc.first_non_attribute_child_of(parent_pre)

    # Encode the incoming subtree standalone to obtain its local ranks.
    if tree.kind == NodeKind.ELEMENT:
        fragment = encode(tree)
        frag_post = fragment.post
        frag_level = fragment.level
        frag_parent = fragment.parent
        frag_kind = fragment.kind
        frag_tags = list(fragment.tag)
        frag_values = list(fragment.values)
        frag_size = len(fragment)
    else:
        # Leaf (text/comment/PI/attribute) nodes: a one-row fragment.
        frag_post = np.zeros(1, dtype=np.int64)
        frag_level = np.zeros(1, dtype=np.int64)
        frag_parent = np.asarray([-1], dtype=np.int64)
        frag_kind = np.asarray([int(tree.kind)], dtype=np.int64)
        frag_tags = [
            tree.name
            if tree.kind
            in (NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION)
            else ""
        ]
        frag_values = [tree.value]
        frag_size = 1

    parent_subtree_end = parent_pre + doc.subtree_size_exact(parent_pre)
    if before_pre is None:
        insert_at = parent_subtree_end + 1
        # Post rank just after the last current descendant's exit, i.e.
        # the parent's own postorder rank (the parent exits after the new
        # child once it is inserted).
        post_base = int(doc.post[parent_pre])
    else:
        if doc.parent_of(before_pre) != parent_pre:
            raise EncodingError(
                f"{before_pre} is not a child of {parent_pre}"
            )
        if doc.kind_of(before_pre) == NodeKind.ATTRIBUTE and tree.kind != NodeKind.ATTRIBUTE:
            raise EncodingError(
                "cannot insert a non-attribute before an attribute child"
            )
        if (
            tree.kind == NodeKind.ATTRIBUTE
            and doc.kind_of(before_pre) != NodeKind.ATTRIBUTE
            and before_pre != doc.first_non_attribute_child_of(parent_pre)
        ):
            raise EncodingError(
                "an attribute must stay ahead of element/text children "
                f"(rank {before_pre} is past the attribute block)"
            )
        insert_at = before_pre
        # New subtree's posts sit just below the sibling subtree's posts.
        post_base = int(doc.post[before_pre]) - doc.subtree_size_exact(before_pre)

    n = len(doc)
    # --- preorder splice -------------------------------------------------
    # Spliced at the columns' own widths.  More than 2³¹ nodes wrap the
    # rank arithmetic below, but DocTable rejects that length before it
    # looks at a value; the level column is guarded where it is built.
    post = np.empty(n + frag_size, dtype=doc.post.dtype)
    level = np.empty(n + frag_size, dtype=doc.level.dtype)
    parent = np.empty(n + frag_size, dtype=doc.parent.dtype)
    kind = np.empty(n + frag_size, dtype=doc.kind.dtype)

    old_post = doc.post.copy()
    old_post[old_post >= post_base] += frag_size
    new_post = frag_post + post_base

    old_parent = doc.parent.copy()
    old_parent[old_parent >= insert_at] += frag_size
    new_parent = frag_parent + insert_at
    new_parent[frag_parent < 0] = parent_pre if parent_pre < insert_at else parent_pre + frag_size

    post[:insert_at] = old_post[:insert_at]
    post[insert_at : insert_at + frag_size] = new_post
    post[insert_at + frag_size :] = old_post[insert_at:]

    level[:insert_at] = doc.level[:insert_at]
    level[insert_at : insert_at + frag_size] = narrow(
        "level", frag_level.astype(np.int64) + doc.level_of(parent_pre) + 1
    )
    level[insert_at + frag_size :] = doc.level[insert_at:]

    parent[:insert_at] = old_parent[:insert_at]
    parent[insert_at : insert_at + frag_size] = new_parent
    parent[insert_at + frag_size :] = old_parent[insert_at:]

    kind[:insert_at] = doc.kind[:insert_at]
    kind[insert_at : insert_at + frag_size] = frag_kind
    kind[insert_at + frag_size :] = doc.kind[insert_at:]

    frag_codes, dictionary = _encode_tags(doc.tag, frag_tags)
    codes = np.empty(n + frag_size, dtype=np.int32)
    codes[:insert_at] = doc.tag.codes[:insert_at]
    codes[insert_at : insert_at + frag_size] = frag_codes
    codes[insert_at + frag_size :] = doc.tag.codes[insert_at:]

    values = list(doc.values)
    values[insert_at:insert_at] = frag_values

    return DocTable(
        post=post,
        level=level,
        parent=parent,
        kind=kind,
        tag=StringColumn(codes, dictionary),
        values=values,
    )


def replace_subtree(doc: DocTable, pre: int, tree: Node) -> DocTable:
    """Replace the subtree at ``pre`` with ``tree`` (delete + insert)."""
    parent_pre = doc.parent_of(pre)
    if parent_pre < 0:
        raise EncodingError("cannot replace the root element; re-encode instead")
    # Find the following sibling (if any) to preserve the position.
    end = pre + doc.subtree_size_exact(pre)
    following_sibling: Optional[int] = None
    candidate = end + 1
    if candidate < len(doc) and doc.parent_of(candidate) == parent_pre:
        following_sibling = candidate
    without = delete_subtree(doc, pre)
    size = end - pre + 1
    if following_sibling is not None:
        anchor: Optional[int] = following_sibling - size
    else:
        anchor = None
    return insert_subtree(without, parent_pre if parent_pre < pre else parent_pre - size, tree, before_pre=anchor)
