"""The XPath accelerator: pre/post document encoding [Grust 2002].

Every document node ``v`` is mapped to ``(pre(v), post(v))`` — its preorder
and postorder traversal ranks.  The staircase join (and every baseline)
operates on the resulting :class:`~repro.encoding.doctable.DocTable`, whose
``pre`` column is void (contiguous), making ``doc[i]`` a positional lookup.

:mod:`repro.encoding.regions` captures the paper's "tree knowledge" as
plain functions: the region predicates of all XPath axes in the pre/post
plane, Equation (1) subtree-size estimation, and the empty-region analysis
of Figure 7 that pruning and skipping exploit.
"""

from repro.encoding.collection import DocumentCollection
from repro.encoding.decode import decode, subtree
from repro.encoding.doctable import DocTable
from repro.encoding.persist import load, save
from repro.encoding.prepost import encode, shape
from repro.encoding.regions import (
    Region,
    axis_region,
    is_ancestor,
    is_descendant,
    is_following,
    is_preceding,
    partitioning_axes,
    subtree_size_estimate,
    subtree_size_exact,
)
from repro.encoding.updates import (
    delete_subtree,
    insert_subtree,
    replace_subtree,
)

__all__ = [
    "DocTable",
    "DocumentCollection",
    "encode",
    "shape",
    "decode",
    "subtree",
    "save",
    "load",
    "delete_subtree",
    "insert_subtree",
    "replace_subtree",
    "Region",
    "axis_region",
    "is_ancestor",
    "is_descendant",
    "is_following",
    "is_preceding",
    "subtree_size_estimate",
    "subtree_size_exact",
    "partitioning_axes",
]
