"""Shard-level execution units shared by every execution backend.

Each unit of work is a :class:`ShardTask`: run one compiled
:class:`~repro.xpath.pipeline.PhysicalPlan` against one shard and
return a :class:`ShardResult` carrying the payload of the task's
**result mode** — per-document *relative* preorder ranks
(``materialize``), per-document cardinalities (``count``), or a single
shard-level boolean (``exists``).  The same :class:`ShardWorkerState`
executes tasks on every lane of
:class:`~repro.service.backend.LaneBackend` — the dispatching thread
(lane 0) and each forked worker, which receives pickled tasks and sends
``materialize`` ranks back as raw ``int64`` bytes.

A lane reads planes only from the :class:`~repro.service.store.Snapshot`
its unit carries — one per batch, so every shard of an answer comes
from one epoch.  Lane 0 reads the service store's planes, so the plane
a commit stages is the plane its next read runs on; a worker loads
exactly the files the snapshot names, through a store of its own.

Tasks are dispatched *grouped by shard*, and
:meth:`ShardWorkerState.run_group` runs a unit by one rule: tasks that
agree on *(shard, engine, scope, planned)* are one call to the
pipeline's one driver (:func:`~repro.xpath.pipeline.drive_group`),
which walks every branch of every plan as a chain of one
**operator-prefix trie** and evaluates each distinct prefix once —
eight queries opening with ``/site/open_auctions/open_auction`` pay for
that chain once; ``count`` and ``exists`` share prefixes with
``materialize`` (the terminal is not part of the prefix); a union
enters branch by branch; scoped queries to one member share from the
member root down.  The lane adds only the driver's arguments: the
(seed, span) of the scope, an observer when a task asks for one
(``QueryService.analyze``), and — for a planned whole-shard group of
more than one task — a byte-budgeted LRU of intermediate context
arrays keyed by ``(shard file, engine, operator prefix)``; the file
name carries the epoch (``shard-0000.e0005.npz``), so no commit leaves
a stale entry reachable.

Plans arrive compiled, document scoping included, so a lane never
touches the XPath parser; it only re-modes each plan to its task's
result mode.  A lane's evaluators are bound to a plane: a replaced
shard gets fresh ones on its next task.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.service.cache import LRUCache
from repro.service.store import ShardedStore, Snapshot, available_cpus
from repro.xpath.evaluator import Evaluator
from repro.xpath.observation import PipelineObserver
from repro.xpath.pipeline import PhysicalPlan, drive_group

__all__ = [
    "PrefixContextCache",
    "ShardResult",
    "ShardTask",
    "ShardWorkerState",
    "available_cpus",
    "default_workers",
]


class ShardTask(NamedTuple):
    """One (query, shard) evaluation unit."""

    index: int  #: position of the query in the batch
    shard_id: int
    plan: PhysicalPlan  #: compiled; run in this task's ``mode``
    engine: str
    document: Optional[str]  #: scope to one member, or None for the shard
    mode: str = "materialize"  #: result mode: materialize | count | exists
    #: Observe this task's group (``QueryService.analyze``): if any task
    #: of a (shard, engine, scope, planned) group asks, the group's one
    #: drive carries an observer and returns one DriveObservation.
    observe: bool = False


class ShardResult(NamedTuple):
    """One shard's answer to one query of a batch.

    ``payload`` is the result mode's: document name → document-relative
    preorder ranks for ``materialize``, document name → cardinality for
    ``count``, one bool for ``exists``.  A worker's reply descriptor is
    this record with a ``materialize`` payload replaced by its
    ``(document, count)`` layout; the ranks follow raw on its pipe.
    """

    index: int  #: position of the query in the batch
    shard_id: int
    mode: str
    payload: object
    #: An observed group's one DriveObservation, carried by the result of
    #: its first ``observe=True`` task — empty everywhere else.
    observations: tuple = ()


def default_workers(store: ShardedStore) -> int:
    """A bare ``fabric``'s lane count: one per shard, capped by the
    usable CPUs."""
    return max(1, min(store.shard_count, available_cpus()))


#: A lane's bound on intermediate prefix contexts (bytes).
_PREFIX_CACHE_BYTES = 32 << 20

class PrefixContextCache(LRUCache):
    """An LRU of intermediate context arrays, bounded by total *bytes*.

    Entries are O(plane-size) ``int64`` arrays — a count-bounded LRU
    could pin hundreds of MB per worker on large shards (and stale
    epochs' entries only age out, they are never swept).  Bounding by
    bytes keeps every worker's footprint fixed; an array bigger than
    the whole budget is simply not cached (the trie still shares it
    within the batch — the cache only accelerates *cross*-batch reuse).
    """

    #: Charged per entry on top of the array payload: keys are
    #: (shard-file string, engine, tuple-of-operators) plus OrderedDict
    #: slots — without this, thousands of empty-array entries (absent
    #: tags, selective prefixes) would never trigger eviction.
    ENTRY_OVERHEAD = 512

    def __init__(self, budget_bytes: int = 32 << 20, capacity: int = 4096):
        # Both bounds apply: bytes for the array payloads, entry count
        # as a backstop for key/bookkeeping overhead.
        super().__init__(capacity=capacity)
        self.budget_bytes = int(budget_bytes)
        self._bytes = 0  # guarded-by: _lock

    def _cost(self, value) -> int:
        return int(value.nbytes) + self.ENTRY_OVERHEAD

    def put(self, key, value) -> None:
        if self._cost(value) > self.budget_bytes:
            return
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._bytes -= self._cost(previous)
            self._entries[key] = value
            self._bytes += self._cost(value)
            while self._entries and (
                self._bytes > self.budget_bytes
                or len(self._entries) > self.capacity
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= self._cost(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def info(self):
        with self._lock:  # one consistent snapshot of size + bytes
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "bytes": self._bytes,
                "budget_bytes": self.budget_bytes,
            }


class _ShardPrefixes(NamedTuple):
    """The driver's view of the prefix cache for one (shard file,
    engine): operator-prefix tuples in, frozen context arrays out."""

    cache: PrefixContextCache
    shard_file: str
    engine: str

    def get(self, prefix):
        return self.cache.get((self.shard_file, self.engine, prefix))

    def put(self, prefix, value) -> None:
        self.cache.put((self.shard_file, self.engine, prefix), value)


class ShardWorkerState:
    """One execution lane — lane 0 in the dispatching process, or a
    forked worker: an evaluator per plane and engine and a prefix-context
    cache.  Planes come from each unit's snapshot."""

    def __init__(self):
        # Keyed (shard file, engine, prefix): the file name carries the
        # epoch, so a commit orphans every key minted before it.
        self.prefix_cache = PrefixContextCache(_PREFIX_CACHE_BYTES)
        # shard id → (the plane's table, engine → evaluator bound to it)
        self._evaluators: Dict[int, Tuple[object, Dict[str, Evaluator]]] = {}

    def _evaluator(self, shard_id: int, engine: str, collection) -> Evaluator:
        bound = self._evaluators.get(shard_id)
        if bound is None or bound[0] is not collection.doc:
            # The shard's plane changed: its evaluators are dead.
            bound = self._evaluators[shard_id] = (collection.doc, {})
        evaluators = bound[1]
        if engine not in evaluators:
            evaluators[engine] = Evaluator(collection.doc, engine=engine)
        return evaluators[engine]

    def _finish(self, task: ShardTask, collection, frontier):
        """Shape one member's driver output into the task's mode payload
        (a scoped frontier arrives already cut to its member's span)."""
        if task.mode == "exists":
            return bool(frontier)
        if task.document is None:
            if task.mode == "count":
                return collection.partition_counts(frontier)
            return collection.partition_relative(frontier)
        if task.mode == "count":
            return {task.document: len(frontier)}
        return {task.document: frontier - collection.root_of(task.document)}

    def run_group(self, tasks: Sequence[ShardTask], snapshot: Snapshot) -> List[ShardResult]:
        """Execute one shard's slice of a whole batch on the planes of
        ``snapshot``; one result per task, in task order.

        Tasks that agree on *(shard, engine, scope, planned)* are one
        :func:`~repro.xpath.pipeline.drive_group` call.  Only a planned
        whole-shard group of more than one task shares the cross-batch
        prefix cache (exact repeats are the result cache's job).  An
        observed group's one
        :class:`~repro.xpath.observation.DriveObservation` rides on its
        first observed task's result.
        """
        groups: Dict[tuple, List[Tuple[int, ShardTask, PhysicalPlan]]] = {}
        for slot, task in enumerate(tasks):
            pipeline = task.plan.with_mode(task.mode)
            key = (task.shard_id, task.engine, task.document, pipeline.planned)
            groups.setdefault(key, []).append((slot, task, pipeline))
        results: List[Optional[ShardResult]] = [None] * len(tasks)
        for (shard_id, engine, document, planned), members in groups.items():
            collection = snapshot.plane(shard_id)
            evaluator = self._evaluator(shard_id, engine, collection)
            cache = None
            if planned and document is None and len(members) > 1:
                shard_file = snapshot.entries[shard_id]["file"]
                cache = _ShardPrefixes(self.prefix_cache, shard_file, engine)
            sampled = [slot for slot, task, _ in members if task.observe]
            observer = PipelineObserver() if sampled else None
            frontiers = drive_group(
                [pipeline for _, _, pipeline in members],
                evaluator,
                *collection.scope(document),
                cache,
                observer,
            )
            for (slot, task, _), frontier in zip(members, frontiers):
                results[slot] = ShardResult(
                    task.index, task.shard_id, task.mode,
                    self._finish(task, collection, frontier),
                )
            if observer is not None:
                results[sampled[0]] = results[sampled[0]]._replace(
                    observations=(observer.observation(shard_id, engine),),
                )
        return results
