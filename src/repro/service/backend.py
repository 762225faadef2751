"""The execution backend: how a query batch fans out over the shards.

The :class:`~repro.service.service.QueryService` compiles a batch into
``(plan, engine, document, mode)`` items and hands them to one
:class:`LaneBackend`, which owns worker lifecycle and result transport.
Every lane runs the same per-shard code
(:class:`~repro.service.executor.ShardWorkerState`) and returns the same
:class:`~repro.service.executor.ShardResult` records, so answers are
byte-identical at any lane count.  Pickling ranks back from workers
would move per-node objects exactly where the paper says not to, so
the data plane stays bulk end to end:

* **N lanes, one class.**  Lane 0 is the dispatching thread's own
  :class:`~repro.service.executor.ShardWorkerState`, built with the
  backend; lanes 1..N−1 are long-lived workers forked when the backend
  is constructed.  ``serial`` is one lane: it forks nothing and opens no
  pipe.  A batch sends each remote lane one message, runs lane 0's units
  inline while the workers run theirs, then waits for one reply per
  remote lane.  One lock serializes batches at every lane count, so
  concurrent callers wait their turn.
* **One pipe per worker.**  Lane *i* talks to its worker over one
  duplex ``multiprocessing.Pipe`` (a Unix socket pair), read through
  ``multiprocessing.connection.wait`` on the pipes and the worker
  sentinels.  No thread runs on either side.  A batch never starts
  while a reply is unread, so neither side blocks the other on a full
  pipe.
* **A reply is a descriptor, then raw rank bytes.**  A ``done`` reply
  is one framed message — the lane's :class:`ShardResult` records, a
  ``materialize`` payload replaced by its ``(document, count)`` layout,
  and the body's byte count — then every rank array's bytes, written
  from the array itself (:func:`_send_done`).  The parent reads the
  body into one ``int64`` buffer and hands out slices of it
  (:func:`_receive`), which outlive the backend.
* **Crash safety.**  A worker's death is a readable event: its sentinel
  fires, or its pipe ends (mid-frame or mid-body, too).  The lane is
  then respawned on a fresh pipe and sent its one message again; the
  dead pipe is closed and never read again, so no reply can arrive
  twice.  Each process holds only its own pipe ends, so a worker whose
  server died reads end of file and exits.
* **Shard affinity, one routing rule.**  A unit for shard *k* goes to
  lane ``k % N``, so a lane's prefix-context LRU stays warm for that
  shard's plans across batches — unless some lane holds strictly fewer
  units *of this batch*, then to the first least-loaded one (which is
  how the chunks of a scarce shard spread over idle lanes).
* **One snapshot per batch.**  A message holds the batch's
  :class:`~repro.service.store.Snapshot` manifest and the lane's units;
  a worker reads it through a store of its own, built from the first
  manifest it is sent, loading exactly the files it names.

Construct one with :func:`make_backend` (or pass an instance / spec
string to ``QueryService(backend=...)``): ``serial`` is one lane,
``fabric:N`` is N, a bare ``fabric`` takes
:func:`~repro.service.executor.default_workers`.  The ``REPRO_BACKEND``
environment variable supplies the spec when no ``backend`` is given —
the hook the CI backend matrix uses to run one test suite per backend;
with neither, batches run on ``serial``.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import errors
from repro.errors import ReproError
from repro.service.executor import (
    ShardResult,
    ShardTask,
    ShardWorkerState,
    default_workers,
)
from repro.service.store import ShardedStore, Snapshot
from repro.xpath.pipeline import MODES

__all__ = [
    "BACKEND_ENV",
    "LaneBackend",
    "make_backend",
]

#: Environment variable supplying the backend spec (``serial``,
#: ``fabric``, ``fabric:4``) when a caller passes no ``backend``.  An
#: explicit argument always wins.
BACKEND_ENV = "REPRO_BACKEND"

_RANK_DTYPE = np.dtype(np.int64)


# ----------------------------------------------------------------------
# Worker side: a descriptor, then the rank bytes
# ----------------------------------------------------------------------
def _pack(results: Sequence[ShardResult]) -> Tuple[list, List[np.ndarray]]:
    """Split results into a picklable descriptor and their rank arrays:
    each ``materialize`` payload becomes its layout, ``(document,
    count)`` in body order, and the arrays are its non-empty columns."""
    light: List[ShardResult] = []
    arrays: List[np.ndarray] = []
    for result in results:
        if result.mode == "materialize":
            columns = [
                np.ascontiguousarray(r, dtype=_RANK_DTYPE) for r in result.payload.values()
            ]
            arrays.extend(column for column in columns if len(column))
            layout = [(name, len(column)) for name, column in zip(result.payload, columns)]
            result = result._replace(payload=layout)
        light.append(result)
    return light, arrays


def _send_done(conn, light: list, arrays: Sequence[np.ndarray]) -> None:
    """Send a ``done`` reply: the descriptor framed, then every rank
    array's bytes unframed, straight from the array (no copy, no
    pickle).  A large body blocks until the parent reads it."""
    conn.send(("done", light, sum(ranks.nbytes for ranks in arrays)))
    fd = conn.fileno()
    for ranks in arrays:
        view = memoryview(ranks).cast("B")
        while view:
            view = view[os.write(fd, view):]


def _fabric_worker(
    directory, conn, inherited
):  # pragma: no cover - runs in child processes; components unit-tested
    """One worker lane's request loop (runs in a child process).

    Every message gets exactly one reply.  ``inherited`` are the pipe
    ends this process got from its parent that are not its own (its
    siblings' included): closed at once, so the server's end of
    ``conn`` is held by the server alone and ends when the server does
    — a ``recv`` that reads end of file returns, and the worker dies
    with its server.
    """
    for end in inherited:
        end.close()
    state = ShardWorkerState()
    store: Optional[ShardedStore] = None
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            if message[0] == "stats":
                conn.send(("stats", {"prefix_cache": state.prefix_cache.info()}))
                continue
            try:
                _, manifest, units = message
                store = store or ShardedStore(directory, manifest)
                with store.bind(manifest) as snapshot:
                    light, arrays = _pack(
                        [r for unit in units for r in state.run_group(unit, snapshot)]
                    )
            except ReproError as error:
                # A bad query or a missing shard file: the parent re-raises
                # the same class with the same message, so every lane
                # answers it identically (and re-runs on a missing file).
                conn.send(("err", (type(error).__name__, str(error))))
            except Exception:  # repro: allow[REP007] - worker crash boundary: any failure ships its traceback to the parent instead of killing the loop
                conn.send(("err", traceback.format_exc()))
            else:
                _send_done(conn, light, arrays)
    except (EOFError, OSError):
        return  # the server is gone


# ----------------------------------------------------------------------
# Parent side: one buffer per reply
# ----------------------------------------------------------------------
def _receive(conn) -> tuple:
    """Read one reply off ``conn``; a ``done`` reply comes back as
    ``("done", [ShardResult, ...])``.

    The descriptor's frame is read by ``conn.recv()``, which reads
    exactly that frame; the ``nbytes`` that follow it go into one
    fresh ``int64`` buffer, and every rank array handed out is a slice
    of it.  End of file inside the body (the worker died mid-reply) is
    an ``EOFError``, like end of file inside a frame.
    """
    reply = conn.recv()
    if reply[0] != "done":
        return reply
    _, light, nbytes = reply
    plane = np.empty(nbytes // _RANK_DTYPE.itemsize, dtype=_RANK_DTYPE)
    view, fd = memoryview(plane).cast("B"), conn.fileno()
    while view:
        read = os.readv(fd, [view])
        if not read:
            raise EOFError("the worker's pipe ended inside a reply body")
        view = view[read:]
    results: List[ShardResult] = []
    offset = 0
    for index, shard_id, mode, payload, observations in light:
        if mode == "materialize":
            ranks = {}
            for name, count in payload:
                ranks[name] = plane[offset : offset + count]
                offset += count
            payload = ranks
        results.append(ShardResult(index, shard_id, mode, payload, observations))
    return ("done", results)


def _split_to_feed_workers(
    grouped: List[List[ShardTask]], workers: int
) -> List[List[ShardTask]]:
    """Split per-shard task groups into enough units to feed the lanes.

    Fewer shards than lanes would leave lanes idle and serialise whole
    query batches behind one, so each shard's group is cut into at most
    ``ceil(workers / shards)`` *contiguous* chunks (adjacent batch
    queries are the likeliest prefix-sharers): query-level parallelism
    is restored when shards are scarce, while tasks that stay chunked
    together can still share operator prefixes (and every lane's prefix
    cache still serves repeat prefixes across batches).
    """
    if not grouped or len(grouped) >= workers:
        return grouped
    per_group = -(-workers // len(grouped))  # ceil
    units: List[List[ShardTask]] = []
    for group in grouped:
        chunks = min(per_group, len(group))
        size = -(-len(group) // chunks)
        units.extend(group[i : i + size] for i in range(0, len(group), size))
    return units


class LaneBackend:
    """Execute compiled query batches on N shard-affine lanes.

    Parameters
    ----------
    store:
        The sharded store to execute against.
    lanes:
        Lane count N ≥ 1 — lane 0 is the calling thread, lanes 1..N−1
        are forked worker processes.
    """

    def __init__(self, store: ShardedStore, lanes: int):
        if lanes < 1:
            raise ReproError(f"a backend needs one or more lanes, not {lanes}")
        self.store = store
        #: ``/stats``' backend name: one lane is ``serial``.
        self.name = "serial" if lanes == 1 else "fabric"
        self._workers = int(lanes)
        self.stolen = 0  #: units routed away from their affine lane
        self.dispatched = [0] * self._workers  #: units run, per lane
        self._ctx = multiprocessing.get_context()
        self._lock = threading.Lock()
        self._lane0 = ShardWorkerState()  # guarded-by: _lock
        # Keyed by lane, 1..N-1: lane 0 has no process and no pipe.
        self._procs: Optional[dict] = None  # guarded-by: _lock
        self._conns: Optional[dict] = None  # guarded-by: _lock
        self._ensure_workers_locked()  # fork from the constructing thread

    @property
    def workers(self) -> int:
        """Lane count: the dispatching thread plus each forked worker."""
        return self._workers

    # ------------------------------------------------------------------
    def run_batch(
        self,
        items: Sequence[Sequence],
        sink: Optional[list] = None,
        snapshot: Optional[Snapshot] = None,
    ) -> List:
        """Evaluate a batch of ``(plan, engine, document, mode)`` items
        on one ``snapshot`` of the store (by default one taken here,
        :meth:`~repro.service.store.ShardedStore.read`).  Every plan is
        a compiled :class:`~repro.xpath.pipeline.PhysicalPlan`.

        Returns, per item, the merged payload of its result mode: document
        name → document-relative preorder ranks (``materialize``) or →
        cardinality (``count``), in global document order (a scoped item
        reports its one document); ``exists`` ORs the shard booleans.

        When ``sink`` (a list) is given, the batch is *observed*: every
        eligible task carries the observation layer and the resulting
        :class:`~repro.xpath.observation.DriveObservation` stream is
        appended to ``sink``.  Only ``QueryService.analyze`` passes a
        sink, so the serving path stays unobserved.
        """
        if snapshot is None:
            return self.store.read(lambda snapshot: self.run_batch(items, sink, snapshot))
        # One dispatch unit per shard: the lane holding a shard sees the
        # whole batch's plans for it and shares their prefixes.
        groups = self._expand(items, snapshot, observe=sink is not None)
        outcomes = self._dispatch(list(groups.values()), snapshot)
        if sink is not None:
            for result in outcomes:
                sink.extend(result.observations)
        return self._merge(items, outcomes, snapshot.members)

    def _expand(
        self, items: Sequence[Sequence], snapshot: Snapshot, observe: bool = False
    ) -> Dict[int, List[ShardTask]]:
        """Shard id → the tasks of every item that reads that shard."""
        groups: Dict[int, List[ShardTask]] = {}
        for index, (plan, engine, document, mode) in enumerate(items):
            if mode not in MODES:
                raise ReproError(
                    f"unknown result mode {mode!r} (expected one of {MODES})"
                )
            shard_ids = snapshot.entries if document is None else [snapshot.shard_of(document)]
            for shard_id in shard_ids:
                groups.setdefault(shard_id, []).append(
                    ShardTask(
                        index, shard_id, plan, engine, document, mode,
                        # Scoped and exists drives yield biased partial
                        # cardinalities — never observe them.
                        observe=observe and document is None and mode != "exists",
                    )
                )
        return groups

    def _merge(
        self,
        items: Sequence[Sequence],
        outcomes: Sequence[ShardResult],
        members: Dict[str, int],
    ) -> List:
        collected: List[dict] = [{} for _ in items]
        found = [False] * len(items)
        for result in outcomes:
            if result.mode == "exists":
                # OR the shard booleans instead of concatenating arrays.
                found[result.index] = found[result.index] or result.payload
            else:
                collected[result.index].update(result.payload)
        return [
            found[index] if mode == "exists"
            else collected[index] if document is not None
            else {name: collected[index][name] for name in members}
            for index, (_, _, document, mode) in enumerate(items)
        ]

    # ------------------------------------------------------------------
    def _ensure_workers_locked(self) -> None:
        if self._procs is None:
            self._procs, self._conns = {}, {}
            for idx in range(1, self._workers):
                self._spawn_locked(idx)

    def _spawn_locked(self, idx: int) -> None:
        """Fork lane ``idx``'s worker on a fresh pipe.

        The child is handed every parent end of this backend to close,
        its own lane's included; the parent closes the child's end once
        it is forked.  A respawn forks from the dispatching thread after
        the service's store has loaded its shards: the child inherits
        those planes copy-on-write (resident in its RSS, shared with
        this process, never read — it reads through a store of its own).
        """
        ours, theirs = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_fabric_worker,
            args=(self.store.directory, theirs, [ours, *self._conns.values()]),
            daemon=True,
        )
        process.start()
        theirs.close()
        self._procs[idx], self._conns[idx] = process, ours

    def _respawn_locked(self, idx: int) -> None:
        """Replace a dead worker; its pipe is closed, never read again."""
        self._conns.pop(idx).close()
        dead = self._procs.pop(idx)
        dead.kill()
        dead.join()
        self._spawn_locked(idx)

    def _post_locked(self, idx: int, message: tuple) -> None:
        """Send lane ``idx`` its message, on a new worker if the old one
        died since its last reply."""
        try:
            self._conns[idx].send(message)
        except OSError:
            self._respawn_locked(idx)
            self._conns[idx].send(message)

    def _collect_locked(self, sent: Dict[int, tuple]) -> Dict[int, tuple]:
        """Wait for one reply per lane of ``sent``, in lane order.

        A lane whose worker dies first — its sentinel fires, or its pipe
        ends, whole, mid-frame or mid-body — is respawned and sent its
        message again.  A complete reply already read counts.
        """
        replies: Dict[int, tuple] = {}
        while len(replies) < len(sent):
            from multiprocessing.connection import wait  # one lane never loads it

            handles = {}
            for idx in sent:
                if idx not in replies:
                    handles[self._conns[idx]] = handles[self._procs[idx].sentinel] = idx
            for idx in sorted({handles[ready] for ready in wait(list(handles))}):
                try:
                    if self._conns[idx].poll():
                        replies[idx] = _receive(self._conns[idx])
                        continue
                except (EOFError, OSError):  # the pipe ended: the worker is gone
                    pass
                self._respawn_locked(idx)
                self._post_locked(idx, sent[idx])
        return {idx: replies[idx] for idx in sent}

    # ------------------------------------------------------------------
    def _assign(self, shard_id: int, depths: List[int]) -> int:
        """Affine lane, unless another holds fewer units of this batch."""
        affine = shard_id % self._workers
        least = min(depths)
        if depths[affine] == least:
            return affine
        self.stolen += 1
        return depths.index(least)

    def _dispatch(self, grouped: List[List[ShardTask]], snapshot: Snapshot) -> List[ShardResult]:
        with self._lock:
            self._ensure_workers_locked()
            lanes: List[List[List[ShardTask]]] = [[] for _ in range(self._workers)]
            depths = [0] * self._workers
            for unit in _split_to_feed_workers(grouped, self._workers):
                idx = self._assign(unit[0].shard_id, depths)
                depths[idx] += 1
                self.dispatched[idx] += 1
                lanes[idx].append(unit)
            sent = {i: ("run", snapshot.manifest, lanes[i]) for i in range(1, self._workers) if lanes[i]}
            for idx, message in sent.items():
                self._post_locked(idx, message)
            # Lane 0 runs while the workers do.  Whatever it raises waits
            # for the remote replies: no reply is left unread on a pipe.
            try:
                outcomes = [r for unit in lanes[0] for r in self._lane0.run_group(unit, snapshot)]
            finally:
                remote = self._unpack(self._collect_locked(sent))
            return outcomes + remote

    def _unpack(self, replies: Dict[int, tuple]) -> List[ShardResult]:
        """Every lane's results; if a lane failed, its error."""
        for idx, (kind, detail) in replies.items():
            if kind != "err":
                continue
            if isinstance(detail, tuple):
                # A user error: the same class and message as in-process.
                raise getattr(errors, detail[0], ReproError)(detail[1])
            raise ReproError(f"fabric worker {idx} failed:\n{detail}")
        return [result for _, results in replies.values() for result in results]

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict:
        """Per-lane prefix-cache counters (lane 0's read in-process) and
        the routing totals — the observability hook the affinity tests
        build on."""
        with self._lock:
            self._ensure_workers_locked()
            sent = {idx: ("stats",) for idx in range(1, self._workers)}
            for idx, message in sent.items():
                self._post_locked(idx, message)
            replies = self._collect_locked(sent)
            lane0 = {"prefix_cache": self._lane0.prefix_cache.info()}
        return {
            "workers": [lane0, *(detail for _, detail in replies.values())],
            "dispatched": list(self.dispatched),
            "stolen": self.stolen,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:  # repro: allow[REP002] - runs from QueryService.__del__, inside whatever lock a GC pass interrupts, so it must not take the dispatch lock; closing mid-batch is the caller's error
        """Stop workers and reset lane 0 (idempotent): send each worker
        ``stop``, join it, close the pipes, and give lane 0 a fresh
        :class:`~repro.service.executor.ShardWorkerState`.

        Rank arrays already handed out (service result cache, caller
        references) stay readable: each is a slice of a buffer this
        process owns, freed with its last slice.  A closed backend used
        again forks its workers afresh; the planes are the store's, so
        the new workers inherit whatever the service's store has loaded.
        """
        if self._procs is None:
            return
        self._lane0 = ShardWorkerState()
        procs, self._procs = self._procs, None
        conns, self._conns = self._conns, None
        for conn in conns.values():
            try:
                conn.send(("stop",))
            except OSError:  # the worker is gone already
                pass
        for process in procs.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.kill()
                process.join()
        for conn in conns.values():
            conn.close()

    def __enter__(self) -> "LaneBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_backend_spec(spec: str) -> tuple:
    """Split ``"name[:N]"`` into ``(name, lanes-or-None)``.

    Raises :class:`ReproError` on an unknown name, a count on
    ``serial`` (one lane by name) or a lane count that is not an
    integer ≥ 1 — shared by :func:`make_backend` and the CLI's argument
    validation (which maps it to a usage error).
    """
    name, colon, suffix = spec.partition(":")
    name = name.strip().lower()
    if name not in ("serial", "fabric"):
        raise ReproError(
            f"unknown backend {name!r} (expected serial or fabric)"
        )
    if not colon:
        return name, None
    if name == "serial":
        raise ReproError(f"serial is one lane and takes no count: {spec!r}")
    try:
        lanes = int(suffix)
    except ValueError:
        raise ReproError(f"bad worker count in backend spec {spec!r}")
    if lanes < 1:
        raise ReproError(f"backend spec {spec!r} needs a lane count of 1 or more")
    return name, lanes


def make_backend(spec, store: ShardedStore) -> LaneBackend:
    """Build a backend from a spec: a :class:`LaneBackend` instance
    (returned as-is), ``"serial"`` (one lane), ``"fabric"``
    (:func:`~repro.service.executor.default_workers` lanes) or
    ``"fabric:N"`` (N lanes)."""
    if isinstance(spec, LaneBackend):
        return spec
    if not isinstance(spec, str):
        raise ReproError(f"not a backend spec: {spec!r}")
    name, lanes = parse_backend_spec(spec)
    if lanes is None:
        lanes = 1 if name == "serial" else default_workers(store)
    return LaneBackend(store, lanes)
