"""Execution backends: how a query batch fans out over the shards.

The :class:`~repro.service.service.QueryService` compiles a batch into
``(plan, engine, document, mode)`` items and hands them to an
**execution backend** — the single object that owns worker lifecycle
and result transport.  All backends run the exact same per-shard code
(:class:`~repro.service.executor.ShardWorkerState`) and produce the
exact same :class:`~repro.service.executor.ShardResult` values, so the
choice is purely an execution-strategy one:

============  ======================================================
``serial``    In-process, zero worker processes.  The reference path
              and the default (also the right choice under
              ``update``-heavy loads or in tests).
``fabric``    ``fabric:N`` runs a batch on N **shard-affine lanes**:
              lane 0 is the dispatching thread itself (the serial
              dispatch, inherited), lanes 1..N−1 are long-lived worker
              processes whose ``materialize`` payloads come back as
              raw rank bytes on their pipes instead of pickle
              (:class:`~repro.service.fabric.FabricBackend`).  One
              lane is ``serial``: ``fabric:1``, or a bare ``fabric``
              that resolves to one lane, builds a
              :class:`SerialBackend`.
============  ======================================================

Construct one with :func:`make_backend` (or pass an instance /
spec string to ``QueryService(backend=...)``).  The ``REPRO_BACKEND``
environment variable supplies the spec when no ``backend`` is given —
the hook the CI backend matrix uses to run one test suite per backend;
with neither, batches run on ``serial``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.service.executor import (
    ShardResult,
    ShardTask,
    ShardWorkerState,
    default_workers,
)
from repro.service.store import ShardedStore
from repro.xpath.pipeline import MODES

__all__ = [
    "BACKEND_ENV",
    "ExecutionBackend",
    "SerialBackend",
    "make_backend",
]

#: Environment variable supplying the backend spec (``serial``,
#: ``fabric``, ``fabric:4``) when a caller passes no ``backend``.  An
#: explicit argument always wins.
BACKEND_ENV = "REPRO_BACKEND"


class ExecutionBackend:
    """Template for executing compiled query batches over the shards.

    Subclasses implement :meth:`_dispatch` — take per-shard task
    groups, return every group's :class:`ShardResult` list — and may
    override :meth:`close` to release workers.  Expansion (query ×
    shard → :class:`ShardTask`) and merging (shard results → one
    payload per item, global document order) live here so every
    backend answers byte-identically.
    """

    #: Registry name (``make_backend`` spec, CLI ``--backend`` value).
    name: str = "?"

    def __init__(self, store: ShardedStore):
        self.store = store

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Lane count: the dispatching thread plus each forked worker
        (0 = no lanes, plain in-process execution)."""
        return 0

    def run_batch(self, items: Sequence[Sequence], sink: Optional[list] = None) -> List:
        """Evaluate a batch of ``(plan, engine, document, mode)`` items.

        Returns, per item, the merged payload of the item's result
        mode: a mapping of document name → document-relative preorder
        ranks (``materialize``) or → cardinality (``count``), in global
        document order (scoped items report their single document
        only); ``exists`` items merge to one boolean — shard payloads
        are OR-ed together instead of concatenated.

        When ``sink`` (a list) is given, the batch is *observed*: every
        eligible task carries the observation layer and the resulting
        :class:`~repro.xpath.observation.DriveObservation` stream is
        appended to ``sink``.  Only ``QueryService.analyze`` passes a
        sink, so the serving path stays unobserved.
        """
        order = self.store.document_names()
        tasks = self._expand(items, observe=sink is not None)
        # One dispatch unit per shard: the worker holding a shard sees
        # the whole batch's plans for it and shares their prefixes.
        groups: Dict[int, List[ShardTask]] = {}
        for task in tasks:
            groups.setdefault(task.shard_id, []).append(task)
        outcomes = self._dispatch(list(groups.values()))
        if sink is not None:
            for result in outcomes:
                sink.extend(result.observations)
        return self._merge(items, outcomes, order)

    def _dispatch(
        self, grouped: List[List[ShardTask]]
    ) -> List[ShardResult]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _expand(
        self, items: Sequence[Sequence], observe: bool = False
    ) -> List[ShardTask]:
        tasks = []
        for index, item in enumerate(items):
            plan, engine, document, mode = item
            if mode not in MODES:
                raise ReproError(
                    f"unknown result mode {mode!r} (expected one of {MODES})"
                )
            if document is not None:
                shard_ids = [self.store.shard_of(document)]
            else:
                shard_ids = self.store.shard_ids()
            for shard_id in shard_ids:
                entry = self.store.shard_entry(shard_id)
                tasks.append(
                    ShardTask(
                        index=index,
                        shard_id=shard_id,
                        shard_file=entry["file"],
                        names=tuple(entry["documents"]),
                        plan=plan,
                        engine=engine,
                        document=document,
                        mode=mode,
                        # Scoped and exists drives yield biased partial
                        # cardinalities — never observe them.
                        observe=observe and document is None and mode != "exists",
                    )
                )
        return tasks

    def _merge(
        self,
        items: Sequence[Sequence],
        outcomes: Sequence[ShardResult],
        order: Sequence[str],
    ) -> List:
        per_item: List[Optional[dict]] = [None] * len(items)
        exists: Dict[int, bool] = {}
        for result in outcomes:
            if result.mode == "exists":
                # OR the shard booleans instead of concatenating arrays.
                exists[result.index] = exists.get(result.index, False) or result.found
            else:
                if per_item[result.index] is None:
                    per_item[result.index] = {}
                per_item[result.index].update(result.payload)
        merged = []
        for index, (item, collected) in enumerate(zip(items, per_item)):
            document, mode = item[2], item[3]
            if mode == "exists":
                merged.append(exists.get(index, False))
                continue
            collected = collected if collected is not None else {}
            if document is not None:
                merged.append({document: collected[document]})
                continue
            # Global document order (snapshotted at batch start — a
            # racing update may add/drop members mid-flight; only names
            # present in both the snapshot and the results are reported).
            merged.append(
                {name: collected[name] for name in order if name in collected}
            )
        return merged

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release worker resources (idempotent; serial has none)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """In-process execution: one :class:`ShardWorkerState`, no workers."""

    name = "serial"

    def __init__(self, store: ShardedStore):
        super().__init__(store)
        self._serial_state: Optional[ShardWorkerState] = None

    def _state(self) -> ShardWorkerState:
        if self._serial_state is None:
            self._serial_state = ShardWorkerState(self.store.directory)
        return self._serial_state

    def _dispatch(self, grouped: List[List[ShardTask]]) -> List[ShardResult]:
        state = self._state()
        return [outcome for group in grouped for outcome in state.run_group(group)]


def parse_backend_spec(spec: str) -> tuple:
    """Split ``"name[:N]"`` into ``(name, workers-or-None)``.

    Raises :class:`ReproError` on an unknown name or a malformed count
    — shared by :func:`make_backend` and the CLI's argument validation
    (which maps it to a usage error).
    """
    name, _, suffix = spec.partition(":")
    name = name.strip().lower()
    if name not in ("serial", "fabric"):
        raise ReproError(
            f"unknown backend {name!r} (expected serial or fabric)"
        )
    workers = None
    if suffix:
        try:
            workers = int(suffix)
        except ValueError:
            raise ReproError(f"bad worker count in backend spec {spec!r}")
    return name, workers


def make_backend(spec, store: ShardedStore) -> ExecutionBackend:
    """Build a backend from a spec.

    ``spec`` is a backend instance (returned as-is), a name
    (``"serial"``, ``"fabric"``), or a ``"fabric:N"`` string fixing the
    lane count (the calling thread plus N−1 forked workers; a bare
    ``fabric`` takes :func:`~repro.service.executor.default_workers`).
    Whatever spells one lane is a :class:`SerialBackend`.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if not isinstance(spec, str):
        raise ReproError(f"not a backend spec: {spec!r}")
    name, lanes = parse_backend_spec(spec)
    if name == "fabric":
        lanes = default_workers(store) if lanes is None else lanes
        if lanes != 1:
            from repro.service.fabric import FabricBackend

            return FabricBackend(store, workers=lanes)
    return SerialBackend(store)
