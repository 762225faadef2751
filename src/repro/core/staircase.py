"""The staircase join (Sections 3.2–3.3 and 4.2).

This module is the faithful, scalar transcription of the paper's
Algorithms 2–4.  Every variant

1. scans ``doc`` and ``context`` sequentially and only once,
2. never produces duplicate nodes, and
3. emits result nodes in document order

(the four characteristics listed at the end of Section 3.2; the test suite
asserts all of them).  The variants differ only in how much of the plane
they avoid touching:

* :attr:`SkipMode.NONE` — Algorithm 2: scan each partition fully.
* :attr:`SkipMode.SKIP` — Algorithm 3: terminate the partition scan at the
  first node outside the boundary (``descendant``), or hop over whole
  subtrees (``ancestor``); at most ``|result| + |context|`` nodes touched.
* :attr:`SkipMode.ESTIMATE` — Algorithm 4: use Equation (1) to *copy* the
  guaranteed ``post(c) − pre(c)`` descendants without any postorder
  comparison, then scan at most ``h`` more nodes.  Restricts comparisons
  to ``h × |context|`` overall.
* :attr:`SkipMode.EXACT` — our ablation: like ESTIMATE but paying one
  ``level`` lookup per context node to make Equation (1) exact, removing
  the scan phase entirely (footnote 5 mentions such an encoding variant).

Attribute nodes live in the plane but no axis except ``attribute`` may
return them (Section 3); a ``kind`` comparison filters them as they are
appended, without affecting scan/skip logic.

Every table is plain arrays, however its archive holds them — a stored
shard's columns mapped (page cache shared by the lanes that open it), a
deflated shard's inflated when it opens (private to each lane) — so
there is one code path: what a skip saves is counted in
:class:`JoinStatistics` as node accesses, the paper's measure (Sections
3.3 and 4).
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

import numpy as np

from repro.core.pruning import normalize_context, prune
from repro.counters import JoinStatistics
from repro.encoding.doctable import DocTable
from repro.errors import XPathEvaluationError
from repro.xmltree.model import NodeKind

__all__ = [
    "SkipMode",
    "staircase_join",
    "staircase_join_desc",
    "staircase_join_anc",
    "staircase_join_following",
    "staircase_join_preceding",
]

_ATTR = int(NodeKind.ATTRIBUTE)


class SkipMode(Enum):
    """How aggressively a partition scan avoids touching nodes."""

    NONE = "none"          # Algorithm 2 — full partition scans
    SKIP = "skip"          # Algorithm 3 — early termination / subtree hops
    ESTIMATE = "estimate"  # Algorithm 4 — Eq. (1) copy phase + short scan
    EXACT = "exact"        # ablation — Eq. (1) with the level term, no scan


def _result_array(result: List[int]) -> np.ndarray:
    return np.asarray(result, dtype=np.int64)


# ----------------------------------------------------------------------
# descendant axis
# ----------------------------------------------------------------------
def _scanpartition_desc(
    doc: DocTable,
    pre1: int,
    pre2: int,
    post_bound: int,
    mode: SkipMode,
    result: List[int],
    stats: JoinStatistics,
    keep_attributes: bool,
) -> None:
    """Scan doc positions ``[pre1, pre2]`` for nodes with ``post < bound``.

    This is ``scanpartition`` of Algorithm 2 with the `(?)` comparison,
    the early ``break`` of Algorithm 3, or the copy/scan split of
    Algorithm 4, selected by ``mode``.
    """
    post = doc.post
    kind = doc.kind
    stats.partitions += 1

    if mode in (SkipMode.ESTIMATE, SkipMode.EXACT):
        # Copy phase: nodes pre(c)+1 .. post(c) are guaranteed descendants
        # (Equation (1) lower bound: at least post(c) − pre(c) of them).
        if mode is SkipMode.EXACT:
            # level(c) — one extra lookup makes the bound exact; pre1-1 is
            # the context node c itself.
            c = pre1 - 1
            estimate = min(pre2, c + (int(post[c]) - c + int(doc.level[c])))
        else:
            estimate = min(pre2, post_bound)  # Eq. (1) lower bound diagonal
        for i in range(pre1, estimate + 1):
            stats.nodes_copied += 1
            if keep_attributes or kind[i] != _ATTR:
                result.append(i)
                stats.result_size += 1
        if mode is SkipMode.EXACT:
            # Equation (1) with the level term is exact: no scan phase.
            stats.nodes_skipped += max(0, pre2 - max(estimate, pre1 - 1))
            return
        # A context node without descendants has post(c) < pre(c)+1, which
        # makes the copy interval empty; the scan must still start at the
        # partition head, never before it.
        scan_from = max(pre1, estimate + 1)
    else:
        scan_from = pre1

    for i in range(scan_from, pre2 + 1):
        stats.nodes_scanned += 1
        stats.post_comparisons += 1
        if post[i] < post_bound:  # (?) — the comparison of Algorithm 3
            if keep_attributes or kind[i] != _ATTR:
                result.append(i)
                stats.result_size += 1
        elif mode is not SkipMode.NONE:
            stats.nodes_skipped += pre2 - i
            break  # skip — node i follows c, nothing beyond contributes


def staircase_join_desc(
    doc: DocTable,
    context: np.ndarray,
    mode: SkipMode = SkipMode.ESTIMATE,
    stats: Optional[JoinStatistics] = None,
    assume_pruned: bool = False,
    keep_attributes: bool = False,
) -> np.ndarray:
    """``context/descendant::node()`` via staircase join.

    Parameters
    ----------
    doc:
        The encoded document.
    context:
        Preorder ranks of the context sequence (any order; normalised).
    mode:
        Skipping aggressiveness; see :class:`SkipMode`.
    stats:
        Optional counters (nodes scanned / copied / skipped, ...).
    assume_pruned:
        Skip the pruning pass when the caller guarantees a proper
        staircase (the algorithms are only correct on pruned contexts).
    keep_attributes:
        Retain attribute nodes in the result (raw region semantics).
    """
    stats = stats if stats is not None else JoinStatistics()
    context = (
        np.asarray(context, dtype=np.int64)
        if assume_pruned
        else prune(doc, normalize_context(context), "descendant", stats)
    )
    result: List[int] = []
    n = len(doc)
    for index, c in enumerate(context):
        c = int(c)
        # Partition: up to (exclusive) the next context node, or doc end.
        pre2 = int(context[index + 1]) - 1 if index + 1 < len(context) else n - 1
        _scanpartition_desc(
            doc, c + 1, pre2, int(doc.post[c]), mode, result, stats, keep_attributes
        )
    return _result_array(result)


# ----------------------------------------------------------------------
# ancestor axis
# ----------------------------------------------------------------------
def _scanpartition_anc(
    doc: DocTable,
    pre1: int,
    pre2: int,
    post_bound: int,
    mode: SkipMode,
    result: List[int],
    stats: JoinStatistics,
    keep_attributes: bool,
) -> None:
    """Scan ``[pre1, pre2]`` for nodes with ``post > bound`` (ancestors).

    Skipping (Section 3.3, last paragraph): a node ``v`` inside the
    partition with ``post(v) < bound`` is — together with its whole
    subtree — in the *preceding* region of the partition's context node,
    so the scan may hop ``post(v) − pre(v)`` nodes ahead (Equation (1)
    lower bound; the estimate is off by at most ``h``).  With
    ``SkipMode.EXACT`` the hop uses the level term and lands exactly on
    the next candidate.
    """
    post = doc.post
    kind = doc.kind
    level = doc.level
    stats.partitions += 1
    i = pre1
    while i <= pre2:
        stats.nodes_scanned += 1
        stats.post_comparisons += 1
        if post[i] > post_bound:
            if keep_attributes or kind[i] != _ATTR:
                result.append(i)
                stats.result_size += 1
            i += 1
        elif mode is SkipMode.NONE:
            i += 1
        else:
            # v = doc[i] is not an ancestor: hop over its subtree.
            if mode is SkipMode.EXACT:
                hop = int(post[i]) - i + int(level[i])  # exact |desc(v)|
            else:
                hop = max(0, int(post[i]) - i)  # guaranteed descendants
            stats.nodes_skipped += min(hop, pre2 - i)
            i += 1 + hop


def staircase_join_anc(
    doc: DocTable,
    context: np.ndarray,
    mode: SkipMode = SkipMode.ESTIMATE,
    stats: Optional[JoinStatistics] = None,
    assume_pruned: bool = False,
    keep_attributes: bool = False,
) -> np.ndarray:
    """``context/ancestor::node()`` via staircase join.

    Mirrors Algorithm 2's ``staircasejoin_anc``: the first partition runs
    from the document start to the first context node with that node's
    postorder rank as the boundary; each following partition is delimited
    by a successive context pair and owned by the *right* node.
    """
    stats = stats if stats is not None else JoinStatistics()
    context = (
        np.asarray(context, dtype=np.int64)
        if assume_pruned
        else prune(doc, normalize_context(context), "ancestor", stats)
    )
    result: List[int] = []
    if len(context) == 0:
        return _result_array(result)
    first = int(context[0])
    _scanpartition_anc(
        doc, 0, first - 1, int(doc.post[first]), mode, result, stats, keep_attributes
    )
    for index in range(len(context) - 1):
        c1 = int(context[index])
        c2 = int(context[index + 1])
        _scanpartition_anc(
            doc, c1 + 1, c2 - 1, int(doc.post[c2]), mode, result, stats, keep_attributes
        )
    return _result_array(result)


# ----------------------------------------------------------------------
# following / preceding axes (degenerate staircases, Section 3.1)
# ----------------------------------------------------------------------
def staircase_join_following(
    doc: DocTable,
    context: np.ndarray,
    mode: SkipMode = SkipMode.ESTIMATE,
    stats: Optional[JoinStatistics] = None,
    keep_attributes: bool = False,
) -> np.ndarray:
    """``context/following::node()`` — a single region query after pruning.

    Pruning leaves the context node ``c`` with minimum postorder rank.
    Every node after ``c``'s subtree follows ``c`` (nothing after ``c`` in
    preorder can be its ancestor), so with skipping the join *hops over
    the subtree* and copies the rest of the table.
    """
    stats = stats if stats is not None else JoinStatistics()
    context = prune(doc, normalize_context(context), "following", stats)
    result: List[int] = []
    if len(context) == 0:
        return _result_array(result)
    c = int(context[0])
    post_c = int(doc.post[c])
    post = doc.post
    kind = doc.kind
    n = len(doc)
    stats.partitions += 1
    if mode is SkipMode.NONE:
        for i in range(c + 1, n):
            stats.nodes_scanned += 1
            stats.post_comparisons += 1
            if post[i] > post_c:
                if keep_attributes or kind[i] != _ATTR:
                    result.append(i)
                    stats.result_size += 1
        return _result_array(result)
    # Skip c's subtree (guaranteed descendants), scan the ≤ h stragglers,
    # then copy everything else comparison-free.
    i = c + 1
    hop = max(0, post_c - c)
    stats.nodes_skipped += min(hop, n - i)
    i += hop
    while i < n:
        stats.nodes_scanned += 1
        stats.post_comparisons += 1
        if post[i] > post_c:
            break
        i += 1
    else:
        return _result_array(result)
    for j in range(i, n):
        stats.nodes_copied += 1
        if keep_attributes or kind[j] != _ATTR:
            result.append(j)
            stats.result_size += 1
    return _result_array(result)


def staircase_join_preceding(
    doc: DocTable,
    context: np.ndarray,
    mode: SkipMode = SkipMode.ESTIMATE,
    stats: Optional[JoinStatistics] = None,
    keep_attributes: bool = False,
) -> np.ndarray:
    """``context/preceding::node()`` — a single region query after pruning.

    Pruning leaves the node ``c`` with maximum preorder rank; the scan
    walks ``0 .. pre(c)−1`` keeping nodes with ``post < post(c)``.  The
    only non-qualifying nodes in that range are ``c``'s ≤ ``h`` ancestors,
    so there is nothing to skip — the scan already touches
    ``|result| + level(c)`` nodes.
    """
    stats = stats if stats is not None else JoinStatistics()
    context = prune(doc, normalize_context(context), "preceding", stats)
    result: List[int] = []
    if len(context) == 0:
        return _result_array(result)
    c = int(context[0])
    post_c = int(doc.post[c])
    post = doc.post
    kind = doc.kind
    stats.partitions += 1
    for i in range(0, c):
        stats.nodes_scanned += 1
        stats.post_comparisons += 1
        if post[i] < post_c:
            if keep_attributes or kind[i] != _ATTR:
                result.append(i)
                stats.result_size += 1
    return _result_array(result)


# ----------------------------------------------------------------------
# Dispatcher
# ----------------------------------------------------------------------
_JOINS = {
    "descendant": staircase_join_desc,
    "ancestor": staircase_join_anc,
}


def staircase_join(
    doc: DocTable,
    context: np.ndarray,
    axis: str,
    mode: SkipMode = SkipMode.ESTIMATE,
    stats: Optional[JoinStatistics] = None,
    keep_attributes: bool = False,
) -> np.ndarray:
    """Evaluate an axis step along any of the four partitioning axes.

    Pruning is always applied (it is part of the operator: "staircase join
    is easily adapted to do pruning on-the-fly").  Returns preorder ranks
    in document order without duplicates.
    """
    if axis == "following":
        return staircase_join_following(
            doc, context, mode, stats, keep_attributes=keep_attributes
        )
    if axis == "preceding":
        return staircase_join_preceding(
            doc, context, mode, stats, keep_attributes=keep_attributes
        )
    try:
        join = _JOINS[axis]
    except KeyError:
        raise XPathEvaluationError(
            f"staircase join handles the partitioning axes, not {axis!r}"
        ) from None
    return join(doc, context, mode, stats, keep_attributes=keep_attributes)
