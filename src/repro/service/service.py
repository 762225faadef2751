"""The query service: plan cache → result cache → sharded execution.

A :class:`QueryService` answers XPath queries over a
:class:`~repro.service.store.ShardedStore`:

1. the query string is parsed once (LRU **plan cache**) and validated
   before any work is dispatched;
2. the **result cache** is consulted under the key
   ``(store epoch, query, scope, mode)`` — a warm repeat never touches
   an engine, and a shard replacement bumps the epoch so no stale entry
   is ever reachable;
3. misses are compiled into
   :class:`~repro.xpath.pipeline.PhysicalPlan` operator pipelines and
   fan out through an
   :class:`~repro.service.backend.ExecutionBackend` — serial
   in-process or the worker fabric (vectorized engine
   by default); the pre-ordered per-shard results are merged in
   global document order.

Every query runs in a **result mode**: ``materialize`` (the default),
``count``, or ``exists``.  Results are :class:`ServiceResult` values:
per-document *relative* preorder ranks (rank 0 = the document's root
element) for ``materialize`` — so the payload is independent of how
documents were sharded, the property the equivalence tests pin down —
per-document cardinalities for ``count`` (shard workers never ship
rank arrays), and a single boolean for ``exists`` (shard pipelines
terminate at their first hit and the merge ORs the shard verdicts).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ReproError
from repro.service.backend import BACKEND_ENV, ExecutionBackend, make_backend
from repro.service.cache import LRUCache
from repro.service.store import ShardedStore
from repro.xpath.axes import resolve_engine
from repro.xpath.evaluator import parse_with_cache
from repro.xpath.pipeline import compile_plan
from repro.xpath.planner import Planner, QueryPlan

__all__ = ["QueryService", "ServiceResult"]


@dataclass(frozen=True)
class ServiceResult:
    """One answered query.

    For ``mode="materialize"`` (the default) ``per_document`` maps
    member name → document-relative preorder ranks (read-only arrays,
    document order); for ``mode="count"`` it maps member name → result
    cardinality; for ``mode="exists"`` it is empty and ``total`` is
    1/0.  ``elapsed_s`` is the wall time of the executor call that
    produced the result (shared by every result of one batch; ~0 for
    cache hits).
    """

    query: str
    engine: str
    per_document: Dict[str, object]
    total: int
    from_cache: bool
    elapsed_s: float
    mode: str = "materialize"

    @property
    def documents(self) -> List[str]:
        return list(self.per_document)

    @property
    def exists(self) -> bool:
        """Did the query match anywhere in scope?"""
        return self.total > 0

    @property
    def value(self):
        """The mode's natural payload: rank mapping, total, or bool."""
        if self.mode == "count":
            return self.total
        if self.mode == "exists":
            return self.exists
        return dict(self.per_document)

    def counts(self) -> Dict[str, int]:
        """Result cardinality per member document (empty for
        ``exists`` results — early termination skips attribution)."""
        if self.mode == "count":
            return {name: int(n) for name, n in self.per_document.items()}
        return {name: int(len(a)) for name, a in self.per_document.items()}


class QueryService:
    """Serve single queries and query batches over a sharded store.

    Parameters
    ----------
    store:
        The (already built or opened) :class:`ShardedStore`.
    engine:
        The execution engine every query runs on: the vectorized bulk
        engine unless the caller opts into the instrumented scalar one
        (the e2e oracle does).  There is no per-query choice.
    backend:
        How batches execute: an
        :class:`~repro.service.backend.ExecutionBackend` instance or a
        spec string — ``"serial"`` (in-process) or ``"fabric"`` /
        ``"fabric:4"`` (the worker fabric).  Defaults to the
        ``REPRO_BACKEND`` environment variable, else ``"serial"`` —
        process parallelism is asked for by name.
    plan_cache_size / result_cache_size:
        LRU capacities; ``0`` disables the respective cache.
    planner:
        Plan queries through the rule-based
        :class:`~repro.xpath.planner.Planner` before dispatch.  Planned
        batches also share step-prefix work per shard; ``False`` is the
        unplanned per-query execution path (the e2e oracle's).  Either
        way the results are byte-identical — planning decides how a
        query runs, not what it returns.
    """

    def __init__(
        self,
        store: ShardedStore,
        engine: str = "vectorized",
        plan_cache_size: int = 256,
        result_cache_size: int = 1024,
        planner: bool = True,
        backend: Union[str, ExecutionBackend, None] = None,
        feedback=None,  # ignored; benchmarks/e2e/e2e_oracle.py:84 still passes it
    ):
        self.store = store
        self.engine = resolve_engine(engine)
        self.plan_cache = LRUCache(plan_cache_size)
        self.result_cache = LRUCache(result_cache_size)
        self.backend = make_backend(
            backend or os.environ.get(BACKEND_ENV) or "serial", store
        )
        self.planner_enabled = planner
        # Pairs the epoch with the cache state in one critical section:
        # ``apply_updates`` commits + clears under this lock, and
        # ``stats_snapshot`` reads under it, so a snapshot can never
        # observe a post-update epoch with pre-update cache statistics
        # (or vice versa).
        self._stats_lock = threading.Lock()
        #: Update batches applied through this service (monotonic; each
        #: applied batch bumps the store epoch exactly once).
        self.updates_applied = 0  # guarded-by: _stats_lock

    @classmethod
    def open(cls, directory: str, **kwargs) -> "QueryService":
        """Open a store directory and serve it: ``with
        QueryService.open(dir, backend="fabric") as service: ...`` —
        the ``with`` exit releases the backend's workers (the store
        itself holds no resources beyond mapped files)."""
        return cls(ShardedStore.open(directory), **kwargs)

    # ------------------------------------------------------------------
    def execute(
        self,
        query: str,
        document: Optional[str] = None,
        use_cache: bool = True,
        mode: str = "materialize",
    ) -> ServiceResult:
        """Answer one query (optionally scoped to a single document).

        ``mode="count"``/``"exists"`` skip rank materialization — the
        shard pipelines terminate early and ship integers/booleans.
        """
        return self._run_batch([query], document, use_cache, [mode])[0]

    def execute_batch(
        self,
        queries: Sequence[str],
        use_cache: bool = True,
        mode: Union[str, Sequence[str]] = "materialize",
    ) -> List[ServiceResult]:
        """Answer a batch; cache misses share one fan-out over the shards.

        ``mode`` is one result mode for the whole batch or one per
        query — mixed-mode batches still share operator-pipeline
        prefixes per shard.
        """
        queries = list(queries)
        if isinstance(mode, str):
            modes = [mode] * len(queries)
        else:
            modes = list(mode)
            if len(modes) != len(queries):
                raise ReproError(
                    f"{len(modes)} modes for {len(queries)} queries"
                )
        return self._run_batch(queries, None, use_cache, modes)

    # ------------------------------------------------------------------
    def _run_batch(
        self,
        queries: List[str],
        document: Optional[str],
        use_cache: bool,
        modes: List[str],
    ) -> List[ServiceResult]:
        # Modes are validated at the executor boundary (shared with
        # direct callers); an unknown mode can only miss the cache here.
        results: List[Optional[ServiceResult]] = [None] * len(queries)
        # The epoch is snapshotted once per batch: if a shard replacement
        # races the execution, the fresh results are cached under this
        # (now unreachable) epoch rather than poisoning the new one.
        epoch = self.store.epoch
        # Distinct missing (query, mode) pairs → the positions asking for
        # them, so a batch with repeats fans each distinct pair out
        # exactly once.
        missing: Dict[tuple, List[int]] = {}
        for i, (query, mode) in enumerate(zip(queries, modes)):
            key = (epoch, query, document, mode)
            hit = self.result_cache.get(key) if use_cache else None
            if hit is not None:
                results[i] = self._share(hit, from_cache=True, elapsed_s=0.0)
            else:
                missing.setdefault((query, mode), []).append(i)
        if missing:
            scoped = document is not None
            items = []
            for query, mode in missing:
                plan = self._plan(query, self.planner_enabled, scoped)
                # Scoping is compiled here, once, per union branch — a
                # path that cannot be scoped fails before any dispatch.
                items.append(
                    (compile_plan(plan, scoped=scoped), self.engine, document, mode)
                )
            started = time.perf_counter()
            merged = self.backend.run_batch(items)
            elapsed = time.perf_counter() - started
            for ((query, mode), positions), payload in zip(missing.items(), merged):
                result = self._package(query, self.engine, mode, payload, elapsed)
                if use_cache:
                    self.result_cache.put((epoch, query, document, mode), result)
                for position in positions:
                    results[position] = self._share(result)
        return results  # type: ignore[return-value]

    @staticmethod
    def _package(
        query: str, engine: str, mode: str, payload, elapsed: float
    ) -> ServiceResult:
        """Wrap one merged executor payload as a :class:`ServiceResult`."""
        if mode == "exists":
            per_document: Dict[str, object] = {}
            total = int(bool(payload))
        elif mode == "count":
            per_document = dict(payload)
            total = sum(payload.values())
        else:
            for array in payload.values():
                array.flags.writeable = False
            per_document = payload
            total = sum(len(a) for a in payload.values())
        return ServiceResult(
            query=query,
            engine=engine,
            per_document=per_document,
            total=total,
            from_cache=False,
            elapsed_s=elapsed,
            mode=mode,
        )

    @staticmethod
    def _share(result: ServiceResult, **overrides) -> ServiceResult:
        """A caller-facing copy: the per-document *dict* is fresh (so a
        caller mutating it cannot poison the cached entry); the frozen
        rank arrays themselves stay shared."""
        return replace(result, per_document=dict(result.per_document), **overrides)

    def _plan(self, query: str, planned: bool, scoped: bool = False):
        """Parse (always cached) and, when ``planned``, plan the query.

        Plans are cached under ``(query, scoped)`` in the same LRU as
        parsed ASTs (plain string keys), with no epoch: a plan reads only
        the query text and the store's virtual root tag, fixed at build,
        so no commit can change it.  Document-*scoped* plans keep pushdown
        and predicate order but not the //-collapse: e.g. ``//site``
        collapsed to ``/descendant::site`` would include the member root
        that the engine's ``//site`` excludes.
        """
        parsed = parse_with_cache(query, self.plan_cache)
        if not planned:
            return parsed
        key = (query, scoped)
        plan = self.plan_cache.get(key)  # repro: allow[REP001] - plans outlive commits
        if plan is None:
            # A scoped plan re-anchors at a member root, which the
            # plane-root guard of the //-collapse does not describe.
            root_tags = None if scoped else frozenset((self.store.virtual_root_tag,))
            plan = Planner(root_tags).plan(parsed)
            self.plan_cache.put(key, plan)  # repro: allow[REP001] - plans outlive commits
        return plan

    def explain(self, query: str) -> QueryPlan:
        """The :class:`~repro.xpath.planner.QueryPlan` for ``query``
        (what the ``explain`` CLI verb prints for a store)."""
        return self._plan(query, True)

    def analyze(
        self,
        query: str,
        engine: Optional[str] = None,
        document: Optional[str] = None,
        mode: str = "materialize",
    ):
        """Run ``query`` with the observation layer on.

        Returns ``(result, plan, observations)`` — the answered
        :class:`ServiceResult`, the plan it ran under, and the
        per-shard :class:`~repro.xpath.observation.DriveObservation`
        stream — what ``explain --analyze`` renders as its
        per-operator table.  Nothing is kept: the observations
        are the caller's.  Bypasses the result cache: an analyze always
        runs.
        """
        chosen = resolve_engine(engine) if engine is not None else self.engine
        scoped = document is not None
        plan = self._plan(query, True, scoped)
        items = [(compile_plan(plan, scoped=scoped), chosen, document, mode)]
        sink: list = []
        started = time.perf_counter()
        merged = self.backend.run_batch(items, sink=sink)
        elapsed = time.perf_counter() - started
        result = self._package(query, chosen, mode, merged[0], elapsed)
        return result, plan, list(sink)

    # ------------------------------------------------------------------
    def apply_updates(self, ops) -> dict:
        """Apply a batch of :class:`~repro.service.updates.UpdateOp`.

        The store commits the batch atomically (one epoch bump), which
        already fences every result-cache key minted before the commit;
        the explicit ``clear()`` merely releases their memory now
        instead of letting dead entries age out of the LRU.  Safe to
        interleave with ``execute``/``execute_batch`` from another
        thread: an in-flight batch either answers from the pre-update
        files (still mapped) or falls forward to the post-update ones,
        and caches its results under the pre-update epoch either way.

        Returns the store's summary: ``{"epoch", "applied", "shards"}``.
        """
        with self._stats_lock:
            summary = self.store.apply_updates(ops)
            if summary["applied"]:
                self.result_cache.clear()
                self.updates_applied += 1
        return summary

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """One *consistent* statistics snapshot.

        Epoch, update count and cache statistics are read inside the
        same critical section ``apply_updates`` commits under — a
        reader can never see the new epoch paired with the old caches'
        numbers (the field-by-field reads this replaces could).  Safe
        to call concurrently with queries and updates from any thread;
        the ``/stats`` endpoint of :mod:`repro.server` is built on it.
        """
        with self._stats_lock:
            return {
                "epoch": self.store.epoch,
                "updates_applied": self.updates_applied,
                "engine": self.engine,
                "backend": self.backend.name,
                "workers": self.backend.workers,
                "planner": self.planner_enabled,
                "plan": self.plan_cache.info(),
                "result": self.result_cache.info(),
                # read by benchmarks/e2e/e2e_runner.py:459
                "feedback": {"enabled": False, "generation": 0},
            }

    def clear_caches(self) -> None:
        self.plan_cache.clear()
        self.result_cache.clear()

    def close(self) -> None:
        """Release the backend's workers (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing is interpreter's
        # A dropped service must not leak worker processes or shared
        # memory; close() is idempotent, so explicit closers pay nothing.
        try:
            self.close()
        except Exception:  # repro: allow[REP007] - destructor boundary: raising during GC aborts nothing and spams stderr
            pass
