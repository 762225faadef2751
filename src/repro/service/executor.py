"""Shard-level execution units shared by every execution backend.

Each unit of work is a :class:`ShardTask`: run one compiled
:class:`~repro.xpath.pipeline.PhysicalPlan` against one shard and
return a :class:`ShardResult` carrying the payload of the task's
**result mode** — per-document *relative* preorder ranks
(``materialize``), per-document cardinalities (``count``), or a single
shard-level boolean (``exists``).  The same :class:`ShardWorkerState`
object executes tasks for every backend:

* :class:`~repro.service.backend.SerialBackend` — in-process (the
  serial reference path; also what the tests cover line-by-line);
* :class:`~repro.service.fabric.FabricBackend` — shard-affine lanes:
  the dispatching thread (lane 0, the serial path) plus long-lived
  workers.  Only the task tuples and small result descriptors are
  pickled across the process boundary — ``materialize`` rank arrays
  follow their descriptor on the worker's pipe as raw ``int64`` bytes,
  and for ``count``/``exists`` the payload is a handful of integers.

A lane reads its planes through a :class:`~repro.service.store.ShardedStore`,
the one shard opener of its process: lane 0 through the service's own
store, so the plane a commit stages is the plane its next read runs on;
a forked worker through a store it opens itself.  A task names the
shard file its batch was expanded against, and the store falls forward
to the file its manifest names when they differ.

Tasks are dispatched *grouped by shard* (one unit per shard, not
per query × shard), and :meth:`ShardWorkerState.run_group` runs a unit
by one rule: tasks that agree on *(shard, engine, scope, planned)* are
one call to the pipeline's one driver
(:func:`~repro.xpath.pipeline.drive_group`), which walks every branch
of every plan as a chain of one **operator-prefix trie** and evaluates
each distinct prefix once — eight queries opening with
``/site/open_auctions/open_auction`` pay for that chain once, not eight
times; a ``count`` or ``exists`` query shares every prefix with a
materializing one because the terminal is not part of the prefix; a
union enters branch by branch; three scoped queries to one member
share from the member root down; an analyzed group is observed
*through* the trie.  The worker adds only what the driver takes as
arguments: the (seed, span) of the scope, an observer when a task asks
for one (``QueryService.analyze``), and — for a
planned whole-shard group of more than one task — a per-worker,
byte-budgeted LRU of intermediate context arrays keyed by
``(shard file, engine, operator prefix)``; the shard file name carries
the store epoch (``shard-0000.e0005.npz``), so the same epoch fencing
that protects the result cache makes stale prefix entries unreachable
after any commit.

Plans are parsed, planned, and compiled once in the service process and
sent to workers pickled — document scoping included, so a worker only
ever drives ready operators and never touches the XPath parser (raw
query strings and uncompiled plans are still accepted and compiled on
arrival, for direct callers).  A lane's evaluators are bound to a
plane, so a replaced shard (new file, new plane) gets fresh ones on the
next task without restarting the workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.service.cache import LRUCache
from repro.service.store import ShardedStore, available_cpus
from repro.xpath.evaluator import Evaluator, parse_with_cache
from repro.xpath.observation import PipelineObserver
from repro.xpath.pipeline import PhysicalPlan, compile_plan, drive_group

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
    shard_file: str  #: file name relative to the store directory
    plan: object  #: compiled PhysicalPlan (or QueryPlan / AST / string)
    engine: str
    document: Optional[str]  #: scope to one member, or None for the shard
    mode: str = "materialize"  #: result mode: materialize | count | exists
    #: Observe this task's group (``QueryService.analyze``): if any task
    #: of a (shard, engine, scope, planned) group asks, the group's one
    #: drive carries an observer and returns one DriveObservation.
    observe: bool = False


@dataclass(frozen=True)
class ShardResult:
    """One shard's answer to one query of a batch.

    Exactly one of the three payload fields is meaningful, selected by
    ``mode`` — ``ranks`` (document name → document-relative preorder
    ranks) for ``materialize``, ``counts`` (document name →
    cardinality) for ``count``, ``found`` for ``exists``.  Every
    backend produces and merges the same shape: the serial path hands
    it over in-process, while the fabric ships ``ranks`` as raw bytes
    behind a descriptor and rebuilds the dataclass (:meth:`build`)
    around slices of one buffer per reply.
    """

    index: int  #: position of the query in the batch
    shard_id: int
    mode: str = "materialize"
    ranks: Dict[str, np.ndarray] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    found: bool = False
    #: An observed group's one DriveObservation, carried by the result of
    #: its first ``observe=True`` task — empty everywhere else.
    observations: tuple = ()

    @classmethod
    def build(cls, index, shard_id, mode, payload, observations=()) -> "ShardResult":
        """The one constructor from a mode and its natural payload."""
        return cls(
            index, shard_id, mode,
            observations=observations, **{_PAYLOAD_FIELD[mode]: payload},
        )

    @classmethod
    def of(cls, task: "ShardTask", payload) -> "ShardResult":
        """Wrap a mode-shaped worker payload for ``task``."""
        payload = bool(payload) if task.mode == "exists" else dict(payload)
        return cls.build(task.index, task.shard_id, task.mode, payload)

    @property
    def payload(self):
        """The mode's natural payload (rank mapping, counts, or bool)."""
        return getattr(self, _PAYLOAD_FIELD[self.mode])


#: Which :class:`ShardResult` field carries each result mode's payload.
_PAYLOAD_FIELD = {"materialize": "ranks", "count": "counts", "exists": "found"}


def default_workers(store: ShardedStore) -> int:
    """Auto worker count: one per shard, capped by the usable CPUs."""
    return max(1, min(store.shard_count, available_cpus()))


#: A worker's cache bounds: parsed query strings (entries) and
#: intermediate prefix contexts (bytes).
_PLAN_CACHE_SIZE = 128
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
    """One execution lane over a store's planes: it owns only an
    evaluator per plane and engine, its parse cache and its
    prefix-context cache.  Lives inside the serial backend — also a
    fabric's lane 0, over the service's own store — and once per forked
    fabric worker, over a store the worker opens itself.
    """

    def __init__(self, store: ShardedStore):
        self.store = store
        # Shared by this worker's evaluators: tasks normally carry
        # compiled pipelines, but raw query strings are accepted and
        # then parsed once.
        self.plan_cache = LRUCache(_PLAN_CACHE_SIZE)
        # Intermediate operator-prefix contexts, keyed
        # (shard file, engine, prefix) — the file name carries the epoch,
        # so every committed mutation orphans the keys minted before it.
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
            evaluators[engine] = Evaluator(
                collection.doc, engine=engine, plan_cache=self.plan_cache
            )
        return evaluators[engine]

    def _pipeline(self, task: ShardTask) -> PhysicalPlan:
        """The task's compiled pipeline, in the task's result mode.

        Service-dispatched tasks already carry a :class:`PhysicalPlan`;
        direct callers may still hand a query string, a parsed AST, or a
        :class:`~repro.xpath.planner.QueryPlan` — compiled here.
        """
        plan = task.plan
        if isinstance(plan, str):
            plan = parse_with_cache(plan, self.plan_cache)
        return compile_plan(plan, mode=task.mode)

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

    def run_group(self, tasks: Sequence[ShardTask]) -> List[ShardResult]:
        """Execute one shard's slice of a whole batch; one result per
        task, in task order.

        One rule: tasks that agree on *(shard, engine, scope, planned)*
        run as one :func:`~repro.xpath.pipeline.drive_group` call — one
        operator-prefix trie, result modes and union branches mixing
        freely.  A planned whole-shard group of more than one task also
        shares the cross-batch prefix cache; a lone task (nothing to
        share — exact repeats are the result cache's job), an unplanned
        plan and a scoped group never touch it.  If any task of a group
        is observed, the group's drive carries an observer and its one
        :class:`~repro.xpath.observation.DriveObservation` rides on that
        task's result.

        A shard (or scoped document) a racing update removed mid-flight
        contributes an empty result instead of failing the batch — the
        result lands under the pre-update epoch, already unreachable.
        """
        groups: Dict[tuple, List[Tuple[int, ShardTask, PhysicalPlan]]] = {}
        for slot, task in enumerate(tasks):
            pipeline = self._pipeline(task)
            key = (task.shard_id, task.engine, task.document, pipeline.planned)
            groups.setdefault(key, []).append((slot, task, pipeline))
        results: List[Optional[ShardResult]] = [None] * len(tasks)
        for (shard_id, engine, document, planned), members in groups.items():
            plane = self.store.plane(shard_id, members[0][1].shard_file)
            if plane is None or (document is not None and document not in plane[1]):
                for slot, task, _ in members:
                    results[slot] = ShardResult.of(task, self._gone(task))
                continue
            shard_file, collection = plane
            evaluator = self._evaluator(shard_id, engine, collection)
            cache = None
            if planned and document is None and len(members) > 1:
                # The file the plane came from (fall-forward may differ
                # from the task's snapshot) keys the prefix cache, so
                # cached contexts always describe the plane they were
                # computed on.
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
                results[slot] = ShardResult.of(
                    task, self._finish(task, collection, frontier)
                )
            if observer is not None:
                results[sampled[0]] = replace(
                    results[sampled[0]],
                    observations=(observer.observation(shard_id, engine),),
                )
        return results

    @staticmethod
    def _gone(task: ShardTask):
        """The empty payload of a shard/document removed mid-flight."""
        if task.mode == "exists":
            return False
        if task.document is not None:
            if task.mode == "count":
                return {task.document: 0}
            return {task.document: np.empty(0, dtype=np.int64)}
        return {}
