"""Tag-name fragmentation (the paper's Future Research section).

"An interesting strategy is to fragment by tag name.  First experiments
are encouraging: the execution time of Q1 could be brought down from
345 ms to 39 ms."

A :class:`FragmentedDocument` splits the ``doc`` table into per-tag
fragments: for every tag name, the (pre, post) pairs of the elements
carrying it, pre-sorted.  An axis step with a name test then only ever
reads the fragment of the tested tag — the name test has effectively been
pushed *into the storage layout*.  The staircase join logic carries over
unchanged except that preorder ranks inside a fragment are no longer
contiguous, so the partition scan walks fragment positions (found by
binary search) instead of plane positions; the postorder boundary tests
and skip reasoning are identical because pre/post ranks keep their global
meaning inside a fragment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.pruning import (
    normalize_context,
    prune,
    prune_vectorized,
    validate_context,
)
from repro.core.vectorized import (
    child_window,
    concat_ranges,
    parent_in,
    staircase_join_vectorized,
    subtree_sizes,
)
from repro.counters import JoinStatistics
from repro.encoding.doctable import DocTable
from repro.xmltree.model import NodeKind

__all__ = ["FragmentedDocument"]


class FragmentedDocument:
    """Per-tag fragments of a document's element nodes.

    Fragments are built once (the analogue of choosing a fragmented
    storage layout at load time) and reused across queries.  Text,
    comment, PI and attribute nodes are not fragmented — the paper's
    fragmentation experiment concerns name-tested element steps.
    Fragment arrays are read-only: steps hand them out as contexts.
    """

    def __init__(self, doc: DocTable):
        self.doc = doc
        self._fragments: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        # One pass for every tag: a stable sort of the element nodes by
        # tag code groups them per tag in document order, so a fragment
        # is a slice — each column is read once,
        # not once per dictionary entry.
        elements = doc.pres_with_kind(NodeKind.ELEMENT)
        codes = doc.tag.codes[elements]
        order = np.argsort(codes, kind="stable")
        pres = elements[order]
        posts = doc.post[pres]
        pres.flags.writeable = posts.flags.writeable = False
        self._empty = (pres[:0], posts[:0])
        bounds = np.searchsorted(
            codes[order], np.arange(len(doc.tag.dictionary) + 1, dtype=np.int64)
        )
        for code, tag in enumerate(doc.tag.dictionary):
            low, high = int(bounds[code]), int(bounds[code + 1])
            if high > low:
                self._fragments[tag] = (pres[low:high], posts[low:high])

    # ------------------------------------------------------------------
    def tags(self) -> List[str]:
        """Tag names that have a fragment, sorted."""
        return sorted(self._fragments)

    def fragment(self, tag: str) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(pre, post)`` arrays of the elements tagged ``tag``.

        Unknown tags yield empty fragments (an absent tag is an empty
        relation, not an error — mirroring ``code_of``'s −1 sentinel).
        """
        return self._fragments.get(tag, self._empty)

    def fragment_sizes(self) -> Dict[str, int]:
        """Tag → element count, e.g. for choosing fragmentation thresholds."""
        return {tag: len(pres) for tag, (pres, _) in self._fragments.items()}

    # ------------------------------------------------------------------
    def child_step(
        self,
        context: np.ndarray,
        tag: str,
        stats: Optional[JoinStatistics] = None,
    ) -> np.ndarray:
        """``context/child::tag`` reading only ``tag``'s fragment.

        The children of the sorted, duplicate-free ``context`` lie in one
        preorder window (:func:`~repro.core.vectorized.child_window`):
        two binary searches cut the fragment to it, and only those
        candidates' parents are probed against the context — the step
        reads no node that is not a ``tag``.
        """
        pres, _ = self.fragment(tag)
        lo, hi = child_window(self.doc, context)
        first, last = np.searchsorted(pres, (lo, hi))
        candidates = pres[first:last]
        if stats is not None:
            stats.nodes_scanned += int(len(candidates))
        keep = parent_in(context, self.doc.parent[candidates], lo - 1, hi - lo + 1)
        return candidates[keep]

    def descendant_step(
        self,
        context: np.ndarray,
        tag: str,
        stats: Optional[JoinStatistics] = None,
    ) -> np.ndarray:
        """``context/descendant::tag`` reading only ``tag``'s fragment.

        For each pruned context node ``c``: binary-search the fragment for
        the first pre rank beyond ``pre(c)``, then take entries while
        ``post < post(c)``.  Inside a partition the fragment is "scanned
        with skipping": the first entry at or beyond the boundary ends the
        partition (type-``Z`` empty region, exactly as in Algorithm 3).
        """
        stats = stats if stats is not None else JoinStatistics()
        context = prune(self.doc, normalize_context(context), "descendant", stats)
        pres, posts = self.fragment(tag)
        result: List[int] = []
        for c in context:
            c = int(c)
            post_c = int(self.doc.post[c])
            stats.partitions += 1
            stats.index_probes += 1
            i = int(np.searchsorted(pres, c + 1, side="left"))
            while i < len(pres):
                stats.nodes_scanned += 1
                stats.post_comparisons += 1
                if posts[i] < post_c:
                    result.append(int(pres[i]))
                    stats.result_size += 1
                    i += 1
                else:
                    break  # skip — rest of fragment is outside c's subtree
        return np.asarray(result, dtype=np.int64)

    def descendant_step_vectorized(
        self,
        context: np.ndarray,
        tag: str,
        stats: Optional[JoinStatistics] = None,
    ) -> np.ndarray:
        """Bulk ``context/descendant::tag`` over the fragment.

        Descendants of a pruned context node ``c`` occupy the contiguous
        preorder interval ``pre(c)+1 .. pre(c)+|desc(c)|``, and the
        fragment is pre-sorted — so the per-``c`` hits are a contiguous
        *fragment* slice found by two binary searches, and the whole step
        is a batched ``searchsorted`` plus one gather (the vectorised
        engine's counterpart of :meth:`descendant_step`).
        """
        stats = stats if stats is not None else JoinStatistics()
        context = prune_vectorized(
            self.doc,
            validate_context(self.doc, normalize_context(context)),
            "descendant",
            stats,
        )
        pres, _ = self.fragment(tag)
        if len(context) == 0 or len(pres) == 0:
            return np.empty(0, dtype=np.int64)
        sizes = subtree_sizes(self.doc, context)
        lo = np.searchsorted(pres, context + 1, side="left")
        hi = np.searchsorted(pres, context + sizes + 1, side="left")
        counts = hi - lo
        populated = counts > 0
        indices = concat_ranges(lo[populated], counts[populated])
        result = pres[indices]
        stats.nodes_copied += int(len(result))
        stats.partitions += int(len(context))
        stats.index_probes += int(len(context))
        stats.result_size += int(len(result))
        return result

    def ancestor_step_vectorized(
        self,
        context: np.ndarray,
        tag: str,
        stats: Optional[JoinStatistics] = None,
    ) -> np.ndarray:
        """Bulk ``context/ancestor::tag`` over the fragment.

        Climbs the whole pruned context level-synchronously (the batched
        parent hops of :func:`repro.core.vectorized.axis_step_vectorized`)
        and keeps the ancestors found in the fragment.
        """
        stats = stats if stats is not None else JoinStatistics()
        context = prune_vectorized(
            self.doc,
            validate_context(self.doc, normalize_context(context)),
            "ancestor",
            stats,
        )
        pres, _ = self.fragment(tag)
        if len(context) == 0 or len(pres) == 0:
            return np.empty(0, dtype=np.int64)
        ancestors = staircase_join_vectorized(self.doc, context, "ancestor")
        # Membership by binary search: the fragment is probed, not read.
        slots = np.minimum(np.searchsorted(pres, ancestors), len(pres) - 1)
        result = ancestors[pres[slots] == ancestors]
        stats.nodes_scanned += int(len(ancestors))
        stats.partitions += int(len(context))
        stats.index_probes += int(len(context))
        stats.result_size += int(len(result))
        return result

    def ancestor_step(
        self,
        context: np.ndarray,
        tag: str,
        stats: Optional[JoinStatistics] = None,
    ) -> np.ndarray:
        """``context/ancestor::tag`` reading only ``tag``'s fragment.

        Walks the fragment once, partition by partition, in the shape of
        ``staircasejoin_anc``; within the partition ending at context node
        ``c``, fragment entries with ``post > post(c)`` are ancestors of
        ``c``.  Entries that fail the test are skipped together with their
        fragment-resident subtree via binary search (the fragment analogue
        of the subtree hop).
        """
        stats = stats if stats is not None else JoinStatistics()
        context = prune(self.doc, normalize_context(context), "ancestor", stats)
        pres, posts = self.fragment(tag)
        result: List[int] = []
        emitted = -1  # largest fragment index appended (avoid re-adding)
        previous = -1
        for c in context:
            c = int(c)
            post_c = int(self.doc.post[c])
            stats.partitions += 1
            stats.index_probes += 1
            i = int(np.searchsorted(pres, previous + 1, side="left"))
            while i < len(pres) and pres[i] < c:
                stats.nodes_scanned += 1
                stats.post_comparisons += 1
                if posts[i] > post_c:
                    if i > emitted:
                        result.append(int(pres[i]))
                        stats.result_size += 1
                        emitted = i
                    i += 1
                else:
                    # Not an ancestor of c: hop over its subtree inside the
                    # fragment (entries with pre ≤ post[i] are descendants).
                    hop_to = int(np.searchsorted(pres, int(posts[i]) + 1, side="left"))
                    stats.nodes_skipped += max(0, hop_to - i - 1)
                    i = max(i + 1, hop_to)
            previous = c
        return np.asarray(result, dtype=np.int64)
