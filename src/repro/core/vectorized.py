"""Vectorised (bulk) execution kernels for every XPath axis.

The scalar loops in :mod:`repro.core.staircase` transcribe the paper's
algorithms one comparison at a time, which is what the node-access counters
need — but a Python interpreter pays ~100 ns per iteration where the
paper's C loop paid 5–17 cycles.  This module provides bulk kernels that
exploit *exactly the same tree knowledge*, expressed as numpy array
operations, for **all** axes the evaluator implements — the four
partitioning axes the staircase join owns *and* the structural axes the
scalar :class:`~repro.xpath.axes.AxisExecutor` serves with Python loops:

* ``descendant`` — after pruning, each surviving context node's subtree is
  a *contiguous* preorder interval ``pre(c)+1 .. pre(c)+|desc(c)|``
  (Equation (1) with the level term makes the interval exact), and the
  intervals of a proper staircase are pairwise disjoint.  The join is a
  single ``arange`` plus a ``repeat``-broadcast of per-span offsets — no
  Python-level per-context loop, the moral equivalent of the paper's
  comparison-free copy phase.
* ``ancestor`` — level-synchronised batched parent hops: the whole context
  frontier climbs the ``parent`` column at once, a boolean visited mask
  merges paths that meet, and the loop runs at most ``height`` iterations
  (each a bulk gather).  Every document node is marked at most once: the
  same "no node touched twice" guarantee as the scalar join.
* ``following``/``preceding`` — one region query against the plane.  The
  kernels accept arbitrary (multi-node) contexts: the union of following
  regions is the region of the context node with minimum postorder rank,
  the union of preceding regions that of the node with maximum preorder
  rank (the same degeneration :func:`~repro.core.pruning.prune` applies).
* ``child``/``attribute`` — an equi-join of the ``parent`` column against
  the context, restricted to the window of preorder ranks that can contain
  children of the context (``min(c)+1 .. max(c + |subtree(c)|)``).
* ``following-sibling``/``preceding-sibling`` — the same windowed
  parent-column join, then a per-parent rank comparison against the
  extreme context child of that parent (gathered via ``searchsorted``).
* ``parent``/``self``/``*-or-self`` — single gathers and sorted unions.

Results are identical to the scalar kernels (asserted property-based in
the test suite); :func:`axis_step_vectorized` is the engine entry point
the :class:`~repro.xpath.axes.AxisExecutor` dispatches to when
constructed with ``engine="vectorized"``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.pruning import (
    normalize_context,
    prune_vectorized,
    validate_context,
)
from repro.counters import JoinStatistics
from repro.encoding.doctable import DocTable
from repro.errors import XPathEvaluationError
from repro.xmltree.model import NodeKind

__all__ = [
    "staircase_join_vectorized",
    "axis_step_vectorized",
    "child_window",
    "concat_ranges",
    "nodes_with_parent_in",
    "parent_in",
    "subtree_sizes",
]

_ATTR = int(NodeKind.ATTRIBUTE)


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


def _strip_attributes(doc: DocTable, pres: np.ndarray) -> np.ndarray:
    if len(pres) == 0:
        return pres
    return pres[doc.kind[pres] != _ATTR]


def subtree_sizes(doc: DocTable, pres: np.ndarray) -> np.ndarray:
    """Exact ``|v/descendant|`` per node — Equation (1) with the level term."""
    return np.maximum(doc.post[pres] - pres + doc.level[pres], 0)


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the ranges ``[starts_i, starts_i + counts_i)`` bulk-wise.

    The concatenation is ``arange(total)`` shifted per range: each range's
    shift is its start minus the number of output slots that precede it.
    Ranges with ``counts == 0`` must be filtered out by the caller.
    """
    if len(counts) == 0:
        return _empty()
    ends = np.cumsum(counts)
    shifts = np.repeat(starts - (ends - counts), counts)
    return np.arange(int(ends[-1]), dtype=np.int64) + shifts


def _require_context(context: np.ndarray, axis: str) -> None:
    """The region kernels need at least one context node to anchor on.

    ``staircase_join_vectorized`` short-circuits empty contexts before
    dispatching, so an empty array here means a caller bypassed the public
    entry point with malformed input — raise instead of crashing on an
    out-of-bounds index.
    """
    if len(context) == 0:
        raise XPathEvaluationError(
            f"vectorised {axis!r} kernel requires a non-empty context"
        )


# ----------------------------------------------------------------------
# Partitioning axes
# ----------------------------------------------------------------------
def _desc_vectorized(doc: DocTable, context: np.ndarray) -> np.ndarray:
    """Concatenate the (disjoint) subtree intervals of the staircase."""
    if len(context) == 0:
        return _empty()
    sizes = subtree_sizes(doc, context)
    populated = sizes > 0
    return concat_ranges(context[populated] + 1, sizes[populated])


def _anc_vectorized(doc: DocTable, context: np.ndarray) -> np.ndarray:
    """Union of ancestor paths via batched, level-synchronised parent hops.

    The whole frontier hops one level per iteration; paths that meet are
    merged by the visited mask, so the loop body runs at most ``height``
    times and each document node is marked at most once.
    """
    parent = doc.parent
    visited = np.zeros(len(doc), dtype=bool)
    frontier = parent[context]
    frontier = np.unique(frontier[frontier >= 0])
    while len(frontier):
        fresh = frontier[~visited[frontier]]
        if len(fresh) == 0:
            break
        visited[fresh] = True
        frontier = parent[fresh]
        frontier = np.unique(frontier[frontier >= 0])
    return np.nonzero(visited)[0].astype(np.int64)


def _following_vectorized(doc: DocTable, context: np.ndarray) -> np.ndarray:
    """Everything after the anchor's subtree, as one ``arange``.

    For a multi-node context the union of following regions is the region
    of the node with *minimum postorder* rank (the invariant
    :func:`~repro.core.pruning.prune_following` establishes); the kernel
    computes that anchor itself, so it is correct for arbitrary contexts,
    pruned or not.
    """
    _require_context(context, "following")
    anchor = int(context[np.argmin(doc.post[context])])
    end_of_subtree = anchor + doc.subtree_size_exact(anchor)
    return np.arange(end_of_subtree + 1, len(doc), dtype=np.int64)


def _preceding_vectorized(doc: DocTable, context: np.ndarray) -> np.ndarray:
    """Everything before the anchor that is not one of its ancestors.

    The union of preceding regions is the region of the context node with
    *maximum preorder* rank (:func:`~repro.core.pruning.prune_preceding`'s
    invariant); ancestors of the anchor sit before it in preorder but have
    larger postorder ranks, hence the boolean mask.
    """
    _require_context(context, "preceding")
    anchor = int(context.max())
    candidates = np.arange(0, anchor, dtype=np.int64)
    return candidates[doc.post[candidates] < int(doc.post[anchor])]


# ----------------------------------------------------------------------
# Structural axes (parent-column equi-joins, windowed)
# ----------------------------------------------------------------------
def parent_in(parents: np.ndarray, probe: np.ndarray, base: int, span: int) -> np.ndarray:
    """Boolean per ``probe`` value: is it one of the (sorted) ``parents``?

    ``parents`` all lie in ``[base, base + span)``.  One parent is a plain
    comparison; a context dense against the probe gets one boolean lookup
    table over the span (probe values before ``base`` — outer ancestors,
    the root's -1 — can never match); a sparse one a ``searchsorted``
    probe, which has far lower constant overhead than ``np.isin``.
    """
    if len(parents) == 1:
        return probe == parents[0]
    if len(parents) * 16 > len(probe):
        table = np.zeros(span, dtype=bool)
        table[parents - base] = True
        shifted = probe - base
        return (shifted >= 0) & table[np.maximum(shifted, 0)]
    slots = np.searchsorted(parents, probe)
    slots[slots == len(parents)] = 0
    return parents[slots] == probe


def child_window(doc: DocTable, parents: np.ndarray) -> Tuple[int, int]:
    """The preorder window ``[lo, hi)`` holding every child of the
    sorted, non-empty ``parents``: children of ``c`` live inside ``c``'s
    subtree span, so the union of spans bounds it."""
    lo = int(parents[0]) + 1
    if len(parents) == 1:
        hi = lo + doc.subtree_size_exact(lo - 1)
    else:
        hi = int((parents + subtree_sizes(doc, parents)).max()) + 1
    return lo, min(hi, len(doc))


def nodes_with_parent_in(
    doc: DocTable,
    parents: np.ndarray,
    want_attributes: bool,
    stats: Optional[JoinStatistics] = None,
) -> np.ndarray:
    """All nodes whose parent is in ``parents``, filtered by kind: the
    parent column of :func:`child_window` probed against the context —
    a predicate evaluating a child step per small subtree touches a few
    dozen slots instead of the whole column."""
    if len(parents) == 0:
        return _empty()
    lo, hi = child_window(doc, parents)
    if lo >= hi:
        return _empty()
    if stats is not None:
        stats.nodes_scanned += hi - lo
    window = slice(lo, hi)
    if want_attributes:
        mask = doc.kind[window] == _ATTR
    else:
        mask = doc.kind[window] != _ATTR
    mask &= parent_in(parents, doc.parent[window], lo - 1, hi - lo + 1)
    return np.nonzero(mask)[0].astype(np.int64) + lo


def _parent_vectorized(doc: DocTable, context: np.ndarray) -> np.ndarray:
    parents = doc.parent[context].astype(np.int64)  # ranks out
    return np.unique(parents[parents >= 0])


def _siblings_vectorized(
    doc: DocTable, context: np.ndarray, following: bool
) -> np.ndarray:
    """Siblings on one side of any context node, set-at-a-time.

    A node ``v`` is a following sibling of *some* context node iff
    ``parent(v)`` holds a context child smaller than ``v`` — so per parent
    only the extreme (min for following, max for preceding) context child
    matters.  Context order is ascending, so a stable sort by parent keeps
    each group ascending and the group edges are the extremes.  Attribute
    context nodes have no siblings in the XPath sense (attributes are not
    children), and attribute nodes are never produced.
    """
    kinds = doc.kind[context]
    parents = doc.parent[context]
    eligible = (parents >= 0) & (kinds != _ATTR)
    ctx = context[eligible]
    parent_of_ctx = parents[eligible]
    if len(ctx) == 0:
        return _empty()
    order = np.argsort(parent_of_ctx, kind="stable")
    parent_sorted = parent_of_ctx[order]
    ctx_sorted = ctx[order]
    group_ends = np.nonzero(np.diff(parent_sorted))[0]
    if following:
        edges = np.concatenate(([0], group_ends + 1), dtype=np.int64)  # min child per parent
    else:
        edges = np.concatenate(  # max child
            (group_ends, [len(parent_sorted) - 1]), dtype=np.int64
        )
    unique_parents = parent_sorted[edges]
    extreme_child = ctx_sorted[edges]
    candidates = nodes_with_parent_in(doc, unique_parents, want_attributes=False)
    if len(candidates) == 0:
        return candidates
    slot = np.searchsorted(unique_parents, doc.parent[candidates])
    bound = extreme_child[slot]
    return candidates[candidates > bound] if following else candidates[candidates < bound]


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def staircase_join_vectorized(
    doc: DocTable,
    context: np.ndarray,
    axis: str,
    stats: Optional[JoinStatistics] = None,
    keep_attributes: bool = False,
) -> np.ndarray:
    """Bulk staircase join along any partitioning axis.

    Same contract as :func:`repro.core.staircase.staircase_join`: context
    is normalised and pruned (via the branch-free
    :func:`~repro.core.pruning.prune_vectorized`), the result is
    duplicate-free and in document order.  ``stats`` receives pruning and
    result counters and the rows read (as ``nodes_copied``: bulk kernels
    make no per-node comparison to count).
    """
    stats = stats if stats is not None else JoinStatistics()
    context = prune_vectorized(
        doc, validate_context(doc, normalize_context(context)), axis, stats
    )
    if len(context) == 0:
        return _empty()
    if axis == "descendant":
        result = _desc_vectorized(doc, context)
    elif axis == "ancestor":
        result = _anc_vectorized(doc, context)
    elif axis == "following":
        result = _following_vectorized(doc, context)
    elif axis == "preceding":
        result = _preceding_vectorized(doc, context)
    else:
        raise XPathEvaluationError(
            f"vectorised staircase join handles the partitioning axes, not {axis!r}"
        )
    # Rows read: the spans copied (descendant, following), the paths
    # climbed (ancestor), every row before the anchor (preceding).
    stats.nodes_copied += int(context.max() if axis == "preceding" else len(result))
    if not keep_attributes:
        result = _strip_attributes(doc, result)
    stats.result_size += int(len(result))
    return result


_PARTITIONING = frozenset(("descendant", "ancestor", "following", "preceding"))


def axis_step_vectorized(
    doc: DocTable,
    context: np.ndarray,
    axis: str,
    stats: Optional[JoinStatistics] = None,
    keep_attributes: bool = False,
) -> np.ndarray:
    """One bulk axis step — the vectorised engine's counterpart of
    :meth:`repro.xpath.axes.AxisExecutor.step`.

    Accepts any of the implemented axes (:data:`repro.xpath.ast.AXES`),
    normalises the context, and returns a sorted, duplicate-free ``int64``
    array of preorder ranks identical to the scalar executor's output.
    Partitioning axes route through :func:`staircase_join_vectorized`
    (pruning + counters included); the remaining axes are pure numpy
    gathers and windowed parent-column joins.

    ``keep_attributes`` (raw region semantics) applies to the region
    axes — the four partitioning axes and their ``*-or-self`` variants.
    The structural axes have fixed kind semantics by the XPath data
    model (``child``/siblings never yield attributes, ``attribute``
    yields nothing else), so the flag does not affect them.
    """
    if axis in _PARTITIONING:
        # Delegates normalisation/validation to the join entry point.
        return staircase_join_vectorized(
            doc, context, axis, stats, keep_attributes=keep_attributes
        )
    context = validate_context(doc, normalize_context(context))
    if len(context) == 0:
        return _empty()
    if axis == "descendant-or-self":
        descendants = staircase_join_vectorized(
            doc, context, "descendant", stats, keep_attributes=keep_attributes
        )
        return np.union1d(context, descendants)
    if axis == "ancestor-or-self":
        ancestors = staircase_join_vectorized(
            doc, context, "ancestor", stats, keep_attributes=keep_attributes
        )
        return np.union1d(context, ancestors)
    if axis in ("child", "attribute"):
        return nodes_with_parent_in(doc, context, axis == "attribute", stats)
    if axis == "parent":
        return _parent_vectorized(doc, context)
    if axis == "self":
        return context
    if axis == "following-sibling":
        return _siblings_vectorized(doc, context, following=True)
    if axis == "preceding-sibling":
        return _siblings_vectorized(doc, context, following=False)
    raise XPathEvaluationError(f"unsupported axis {axis!r}")
