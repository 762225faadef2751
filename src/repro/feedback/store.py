"""The epoch-versioned feedback store: EWMA-aggregated observations.

A :class:`FeedbackStore` lives on a :class:`~repro.service.store.ShardedStore`
(``store.feedback``) and turns the :class:`~repro.feedback.records.DriveObservation`
stream the execution backends sample into two durable aggregates:

* per ``(shard, step-signature)`` **selectivity** — the EWMA of each
  operator's observed output/input ratio, the planner's correction term
  over its static histogram estimates;
* per-shard **heat** — cumulative measured wall time, steering the
  bounded split/merge rebalancing of ``ShardedStore.apply_updates``.

The store carries a **generation** counter (the plan epoch): it bumps
only when an aggregate moves far enough to change planning, and every
plan-cache and planner key in the service includes it — a re-planned
query can never be served from a stale cached plan, exactly as the
store epoch fences result caches across commits.

Aggregates serialize into the sharded store's manifest
(:meth:`to_manifest` / :meth:`from_manifest`), so learned selectivities
survive a close/reopen and are dropped per shard when a commit removes
the shard they describe (:meth:`retain_shards`).
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["FeedbackStore"]

#: Signature tuples are serialized into JSON manifests as one string;
#: the unit separator cannot appear in an XPath spelling.
_SIG_SEP = "\x1f"


class _Ewma:
    """One exponentially weighted aggregate with a sample count."""

    __slots__ = ("value", "n")

    def __init__(self, value: float = 0.0, n: int = 0):
        self.value = float(value)
        self.n = int(n)

    def update(self, sample: float, alpha: float) -> None:
        if self.n == 0:
            self.value = float(sample)
        else:
            self.value += alpha * (float(sample) - self.value)
        self.n += 1


class FeedbackStore:
    """Aggregate runtime observations; version them with a generation.

    Thread-safe: the service absorbs from its batch path while planners
    read concurrently, all under one internal lock.  Methods suffixed
    ``_locked`` follow the repo convention — the caller holds ``_lock``.
    """

    #: EWMA step for the selectivity aggregates: heavy enough that a
    #: workload shift re-learns within ~10 sampled drives, light enough
    #: that one outlier drive cannot flip a plan.
    ALPHA = 0.3
    #: An aggregate must move by this *relative* amount (against a small
    #: absolute floor) since the last published generation to bump it —
    #: jitter around a stable selectivity must not thrash plan caches.
    PUBLISH_DELTA = 0.25

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: (shard_id, signature) → selectivity EWMA
        self._signatures: Dict[Tuple[int, Tuple[str, ...]], _Ewma] = {}  # guarded-by: _lock
        #: shard_id → [cumulative ns, sampled drives]
        self._heat: Dict[int, List[int]] = {}  # guarded-by: _lock
        #: ratio published at the last generation bump, per signature key
        self._published: Dict[Tuple[int, Tuple[str, ...]], float] = {}  # guarded-by: _lock
        self._generation = 0  # guarded-by: _lock
        self._dirty = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Absorbing observations
    # ------------------------------------------------------------------
    def absorb(self, observations: Iterable) -> bool:
        """Fold a batch of :class:`DriveObservation` in; returns whether
        the generation advanced (i.e. plans should be re-costed)."""
        bumped = False
        with self._lock:
            for drive in observations:
                shard = int(drive.shard_id)
                heat = self._heat.setdefault(shard, [0, 0])
                heat[0] += int(drive.elapsed_ns)
                heat[1] += 1
                for step in drive.steps:
                    key = (shard, tuple(step.signature))
                    cell = self._signatures.get(key)
                    if cell is None:
                        cell = self._signatures[key] = _Ewma()
                    cell.update(step.n_out / max(1, step.n_in), self.ALPHA)
                    if self._moved_locked(key, cell.value):
                        self._published[key] = cell.value
                        bumped = True
                self._dirty = True
            if bumped:
                self._generation += 1
        return bumped

    def _moved_locked(
        self, key: Tuple[int, Tuple[str, ...]], value: float
    ) -> bool:
        """Has ``key``'s aggregate moved enough to publish a new
        generation?  New signatures always publish."""
        published = self._published.get(key)
        if published is None:
            return True
        return abs(value - published) > self.PUBLISH_DELTA * max(
            published, 0.05
        )

    # ------------------------------------------------------------------
    # Readers
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """The plan epoch: bumped whenever feedback may change a plan."""
        with self._lock:
            return self._generation

    @property
    def dirty(self) -> bool:
        """Unsaved observations since the last :meth:`to_manifest`?"""
        with self._lock:
            return self._dirty

    def observed(self, signature: Tuple[str, ...]) -> Optional[Tuple[float, int]]:
        """Store-wide observed ratio for one signature.

        Returns ``(ratio, samples)`` — the sample-weighted mean of the
        per-shard EWMAs — or ``None`` when the signature was never
        observed.  The planner blends this over its static estimate.
        """
        with self._lock:
            total = 0.0
            samples = 0
            for (_, sig), cell in self._signatures.items():
                if sig == signature:
                    total += cell.value * cell.n
                    samples += cell.n
            if samples == 0:
                return None
            return total / samples, samples

    def heat_snapshot(self) -> Dict[int, Tuple[int, int]]:
        """shard_id → (cumulative sampled ns, sampled drive count)."""
        with self._lock:
            return {
                shard: (heat[0], heat[1]) for shard, heat in self._heat.items()
            }

    def snapshot(self) -> dict:
        """JSON-friendly summary (the ``/stats`` feedback section)."""
        with self._lock:
            total_ns = sum(heat[0] for heat in self._heat.values()) or 1
            return {
                "generation": self._generation,
                "signatures": len(self._signatures),
                "sampled_drives": sum(h[1] for h in self._heat.values()),
                "shards": {
                    str(shard): {
                        "sampled_ns": heat[0],
                        "drives": heat[1],
                        "heat_share": heat[0] / total_ns,
                    }
                    for shard, heat in self._heat.items()
                },
            }

    # ------------------------------------------------------------------
    # Shard lifecycle (commits, rebalancing)
    # ------------------------------------------------------------------
    def retain_shards(self, shard_ids: Iterable[int]) -> None:
        """Drop aggregates of shards a commit removed — the feedback in
        the manifest always describes the epoch it is written with."""
        live = set(int(s) for s in shard_ids)
        with self._lock:
            for key in [k for k in self._signatures if k[0] not in live]:
                del self._signatures[key]
            for key in [k for k in self._published if k[0] not in live]:
                del self._published[key]
            for shard in [s for s in self._heat if s not in live]:
                del self._heat[shard]
            self._dirty = True

    def reset_shard(self, shard_id: int) -> None:
        """Forget one shard's aggregates (its plane just changed shape —
        a rebalance moved documents in or out)."""
        shard = int(shard_id)
        with self._lock:
            for key in [k for k in self._signatures if k[0] == shard]:
                del self._signatures[key]
            for key in [k for k in self._published if k[0] == shard]:
                del self._published[key]
            self._heat.pop(shard, None)
            self._dirty = True

    # ------------------------------------------------------------------
    # Manifest round-trip
    # ------------------------------------------------------------------
    def to_manifest(self) -> dict:
        """The JSON shape persisted inside the store manifest."""
        with self._lock:
            self._dirty = False
            return {
                "generation": self._generation,
                "signatures": [
                    [shard, _SIG_SEP.join(sig), cell.value, cell.n]
                    for (shard, sig), cell in sorted(
                        self._signatures.items(),
                        key=lambda item: (item[0][0], item[0][1]),
                    )
                ],
                "heat": {
                    str(shard): list(heat)
                    for shard, heat in sorted(self._heat.items())
                },
            }

    @classmethod
    def from_manifest(cls, data: Optional[dict]) -> "FeedbackStore":
        """Rebuild from :meth:`to_manifest` output (``None`` → empty).

        Loaded aggregates are *published* as-is: reopening a store must
        not spuriously bump the generation on the first absorb.  Keys
        this version does not write (an older manifest's ``"skip"``
        table) are ignored.
        """
        store = cls()
        if not data:
            return store
        with store._lock:
            store._generation = int(data.get("generation", 0))
            for shard, joined, value, n in data.get("signatures", ()):
                key = (int(shard), tuple(joined.split(_SIG_SEP)))
                store._signatures[key] = _Ewma(value, n)
                store._published[key] = float(value)
            for shard, heat in data.get("heat", {}).items():
                store._heat[int(shard)] = [int(heat[0]), int(heat[1])]
        return store
