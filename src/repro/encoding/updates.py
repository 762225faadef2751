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

Text stays coded through a splice: value codes are sliced and
concatenated like any other column, an inserted fragment's sorted
dictionary is merged into the table's, and entries the edit orphaned are
dropped — the spliced table's dictionary is strictly sorted and holds
exactly the referenced entries, so its archive members equal a fresh
re-encode's.

The returned tables are fresh (``DocTable`` is immutable by design —
query results referencing old ranks stay valid against the old table).
Property tests verify splice-equals-reencode on random documents.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.encoding.codec import compact_dictionary, merge_dictionaries
from repro.encoding.doctable import DocTable, ValueIndex
from repro.encoding.prepost import encode_subtree
from repro.encoding.widths import narrow
from repro.errors import EncodingError
from repro.storage.column import StringColumn
from repro.xmltree.model import Node, NodeKind

__all__ = ["delete_subtree", "insert_subtree", "replace_subtree"]


def _splice(column, at: int, fragment: np.ndarray) -> np.ndarray:
    """``column`` with ``fragment`` inserted ahead of position ``at``."""
    return np.concatenate([column[:at], fragment, column[at:]], dtype=fragment.dtype)


def _merge_tags(tag: StringColumn, fragment: StringColumn):
    """The fragment's tag codes under ``tag``'s dictionary (extended as
    needed); ``(codes, dictionary)``.

    One lookup per *entry* of the fragment's (small) dictionary, then a
    gather.  The existing code vector is reused verbatim, and codes a
    deletion orphaned stay in the in-memory dictionary — harmless (name
    tests go through ``code_of``; ``save`` writes only entries in use)
    and it keeps the splice O(fragment), not O(document).
    """
    dictionary = tag.dictionary
    remap = np.empty(len(fragment.dictionary), dtype=np.int32)
    for code, name in enumerate(fragment.dictionary):
        remap[code] = tag.code_of(name)
        if remap[code] < 0:
            if dictionary is tag.dictionary:
                dictionary = list(dictionary)  # copied only when extended
            remap[code] = len(dictionary)
            dictionary.append(name)
    return remap[fragment.codes], dictionary


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
        # may keep entries the deletion orphaned — see _merge_tags).
        tag=StringColumn(doc.tag.codes[keep], doc.tag.dictionary),
        values=ValueIndex(
            *compact_dictionary(
                doc.values.codes[keep], doc.values.blob, doc.values.offsets
            )
        ),
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

    # Encode the incoming subtree (or leaf) standalone for its local ranks.
    fragment = encode_subtree(tree)
    frag_size = len(fragment)

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

    # --- preorder splice -------------------------------------------------
    # Spliced at the columns' own widths.  More than 2³¹ nodes wrap the
    # rank arithmetic below, but DocTable rejects that length before it
    # looks at a value; the level column is guarded where it is built.
    old_post = doc.post.copy()
    old_post[old_post >= post_base] += frag_size

    old_parent = doc.parent.copy()
    old_parent[old_parent >= insert_at] += frag_size
    new_parent = fragment.parent + insert_at
    new_parent[0] = parent_pre if parent_pre < insert_at else parent_pre + frag_size

    tag_codes, dictionary = _merge_tags(doc.tag, fragment.tag)
    blob, offsets, remap, fragment_remap = merge_dictionaries(
        doc.values.blob, doc.values.offsets,
        fragment.values.blob, fragment.values.offsets,
    )
    return DocTable(
        post=_splice(old_post, insert_at, fragment.post + post_base),
        level=_splice(
            doc.level,
            insert_at,
            narrow(  # widened first: past 2¹⁵ is an error, not a wrap
                "level",
                np.add(fragment.level, doc.level_of(parent_pre) + 1, dtype=np.int64),
            ),
        ),
        parent=_splice(old_parent, insert_at, new_parent),
        kind=_splice(doc.kind, insert_at, fragment.kind),
        tag=StringColumn(_splice(doc.tag.codes, insert_at, tag_codes), dictionary),
        values=ValueIndex(
            _splice(
                remap[np.asarray(doc.values.codes)],
                insert_at,
                fragment_remap[fragment.values.codes],
            ),
            blob,
            offsets,
        ),
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
