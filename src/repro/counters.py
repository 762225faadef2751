"""Instrumentation counters for join algorithms and the query server.

The paper's Figures 11(a) and 11(c) report *node-access counts*, not times:
how many nodes each algorithm scanned, copied, skipped, and how many
duplicates a tree-unaware evaluation would have produced.  Every join
implementation in :mod:`repro.core` and :mod:`repro.baselines` accepts an
optional :class:`JoinStatistics` object and increments it while running, so
the experiment harness can regenerate those figures exactly (counts are
deterministic, unlike wall-clock times).

:class:`LatencyHistogram` is the serving-side counterpart: a
thread-safe, geometrically bucketed latency recorder the
:mod:`repro.server` stats surface uses to report p50/p99 without
retaining per-request samples.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["JoinStatistics", "LatencyHistogram"]


@dataclass
class JoinStatistics:
    """Mutable counter bundle threaded through join algorithms.

    Attributes
    ----------
    nodes_scanned:
        Document nodes whose postorder rank was inspected during a scan
        phase (the ``(?)`` comparison of Algorithm 3).
    nodes_copied:
        Document nodes copied to the result without a comparison
        (the copy phase of Algorithm 4, estimation-based skipping).
    nodes_skipped:
        Document nodes hopped over without being touched at all
        (the ``skip`` arrow of Figure 9 / the subtree hop of the
        ancestor-axis skip).
    result_size:
        Nodes appended to the result.
    duplicates_generated:
        Result tuples that duplicate an earlier tuple (only non-zero for
        tree-unaware algorithms; staircase join never generates any —
        property (3) in Section 3.2).
    context_pruned:
        Context nodes removed by pruning (Algorithm 1).
    post_comparisons:
        Total postorder-rank comparisons performed.  Estimation-based
        skipping bounds this by ``h × |context|`` (Section 4.2).
    index_probes:
        B+-tree descents performed (tree-unaware baseline only).
    partitions:
        Partition scans started (one per surviving context node).
    """

    nodes_scanned: int = 0
    nodes_copied: int = 0
    nodes_skipped: int = 0
    result_size: int = 0
    duplicates_generated: int = 0
    context_pruned: int = 0
    post_comparisons: int = 0
    index_probes: int = 0
    partitions: int = 0

    @property
    def nodes_touched(self) -> int:
        """Nodes physically accessed: scanned plus copied.

        Skipped nodes are *not* touched — that is the whole point of
        Section 3.3 ("skipping makes the number of accessed nodes
        independent of the document size").
        """
        return self.nodes_scanned + self.nodes_copied

    def reset(self) -> None:
        """Zero every counter in place."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def merge(self, other: "JoinStatistics") -> "JoinStatistics":
        """Add ``other``'s counters into ``self`` and return ``self``.

        Used by the partition-parallel strategy to combine per-partition
        statistics into a single report.
        """
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def as_dict(self) -> Dict[str, int]:
        """Return a plain ``dict`` snapshot (for reporting/serialisation)."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"JoinStatistics({parts})"


class LatencyHistogram:
    """A thread-safe latency histogram with bounded memory.

    Observations land in geometric buckets (each ×2 wider than the
    last, from 1 µs up to ~16 minutes), so the histogram answers
    quantile queries over millions of requests from a few dozen
    integers instead of a sample reservoir.  Quantiles are read off as
    a bucket's upper bound — a ≤ factor-of-2 overestimate, never an
    underestimate, which is the conservative direction for a p99 a
    load-shedding decision reads (``benchmarks/e2e`` reports it as
    ``server.internal_p50_ms`` beside the client's own clock).

    ``observe``/``snapshot``/``merge`` are safe to call from any
    thread (the server records from the event loop while ``/stats``
    handlers read concurrently).
    """

    #: Bucket ``i`` covers latencies in ``[2**i, 2**(i+1))`` microseconds;
    #: 30 buckets reach ~17.9 minutes, far past any served request.
    BUCKETS = 30

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: List[int] = [0] * self.BUCKETS  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._max = 0.0  # guarded-by: _lock

    @staticmethod
    def _bucket(seconds: float) -> int:
        micros = max(1, int(seconds * 1e6))
        return min(micros.bit_length() - 1, LatencyHistogram.BUCKETS - 1)

    def observe(self, seconds: float) -> None:
        """Record one latency (in seconds; negatives clamp to zero)."""
        seconds = max(0.0, float(seconds))
        with self._lock:
            self._counts[self._bucket(seconds)] += 1
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def _percentile_locked(self, p: float) -> float:
        if self._count == 0:
            return 0.0
        rank = math.ceil(self._count * p / 100.0) or 1
        seen = 0
        for i, n in enumerate(self._counts):
            seen += n
            if seen >= rank:
                if i == self.BUCKETS - 1:
                    # The overflow bucket has no finite upper bound —
                    # the tracked maximum is the only honest answer.
                    return self._max
                return min((2 ** (i + 1)) / 1e6, self._max)
        return self._max  # pragma: no cover - rank <= count always hits

    def percentile(self, p: float) -> float:
        """The upper bound (seconds) of the bucket holding the ``p``-th
        percentile observation; ``0.0`` while empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            return self._percentile_locked(p)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Add ``other``'s buckets into ``self`` and return ``self``."""
        with other._lock:
            counts = list(other._counts)
            count, total, peak = other._count, other._sum, other._max
        with self._lock:
            for i, n in enumerate(counts):
                self._counts[i] += n
            self._count += count
            self._sum += total
            self._max = max(self._max, peak)
        return self

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * self.BUCKETS
            self._count = 0
            self._sum = 0.0
            self._max = 0.0

    def snapshot(self) -> Dict[str, float]:
        """One consistent ``{count, mean_ms, p50_ms, p99_ms, max_ms}``."""
        with self._lock:
            return {
                "count": self._count,
                "mean_ms": round(self._sum / self._count * 1e3, 3)
                if self._count
                else 0.0,
                "p50_ms": round(self._percentile_locked(50.0) * 1e3, 3),
                "p99_ms": round(self._percentile_locked(99.0) * 1e3, 3),
                "max_ms": round(self._max * 1e3, 3),
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.snapshot()
        return (
            f"LatencyHistogram(count={s['count']}, p50={s['p50_ms']}ms, "
            f"p99={s['p99_ms']}ms)"
        )


# A shared "do not count" sink.  Passing ``None`` everywhere would force
# ``if stats is not None`` checks in inner loops; handing out a throwaway
# JoinStatistics keeps the algorithms branch-free, matching the paper's
# emphasis on predictable control flow.
def null_statistics() -> JoinStatistics:
    """Return a fresh statistics sink callers may ignore."""
    return JoinStatistics()
