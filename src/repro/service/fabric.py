"""The zero-copy worker fabric: shard-affine workers, shared-memory results.

Pickling results back from worker processes moves per-node *objects*
exactly where the paper says not to: every ``materialize`` payload —
bulk ``int64`` rank columns — would be pickled in the worker, squeezed
through a pipe, and copied again on arrival.  The fabric keeps the
data plane bulk end-to-end:

* **Long-lived workers.**  Each worker process holds its
  :class:`~repro.service.executor.ShardWorkerState` (mmap'd shard
  planes, evaluators, prefix-context LRU) across requests; nothing is
  re-opened per batch.
* **Shared-memory result planes.**  A worker packs all rank arrays of
  a response into one POSIX shared-memory segment
  (:class:`SegmentWriter`); only a tiny layout descriptor crosses the
  pipe.  The parent maps the segment and rebuilds every rank array as
  a **zero-copy numpy view** over it (:class:`SegmentPool`).
  ``count``/``exists`` payloads stay inline — they were never the
  transport cost.
* **Ref-counted segment lifetime.**  Every view carries a strong
  reference to its segment lease (:class:`_SegmentArray` propagates it
  through slicing); when the last view dies, the lease's finalizer
  returns the segment to its owning worker for **recycling** — the
  worker keeps a small free list and reuses the mapping for the next
  response instead of allocating.  Closing the backend unlinks every
  segment name; POSIX keeps existing mappings (e.g. rank arrays still
  sitting in the service result cache) valid until their last view
  drops.
* **Crash safety.**  Segment names embed the parent pid
  (``repro-fab-<pid>-<instance>-w<idx>g<gen>-<seq>``); construction
  sweeps names whose pid is dead (:func:`sweep_orphan_segments`) —
  the same recover-on-open discipline as the store's orphaned-``.npz``
  sweep — and ``close()`` unlinks everything under the instance
  prefix.
* **Shard affinity + stealing.**  Tasks for shard *k* route to worker
  ``k % n``, so one worker's prefix-context LRU stays warm for that
  shard's plans across batches; when the affine worker's queue runs
  ``steal_threshold`` deeper than the least-loaded one, the unit is
  stolen by the laggard's idle peer.  Each worker gets a private inbox
  *and* a private results outbox (a shared outbox is a liability: one
  worker SIGKILLed holding the write lock, or mid-frame, wedges or
  desyncs everyone's results); per-worker drain threads merge replies
  into an in-process queue the dispatch loop reads.  A worker that
  dies mid-batch is respawned on fresh queues (the old ones may die
  with locks held or frames half-written) and its in-flight units
  re-dispatched (duplicate completions are deduped by sequence
  number).  Fall-forward
  across epoch flips needs nothing new: shard files are named by epoch
  and workers chase the manifest exactly as the serial path does.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
import os
import queue
import re
import threading
import traceback
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import errors
from repro.errors import ReproError
from repro.service.backend import ExecutionBackend
from repro.service.executor import (
    ShardResult,
    ShardTask,
    ShardWorkerState,
    default_workers,
)
from repro.service.store import ShardedStore

__all__ = [
    "FabricBackend",
    "SegmentPool",
    "SegmentWriter",
    "sweep_orphan_segments",
]

_RANK_DTYPE = np.dtype(np.int64)

#: Segment names: repro-fab-<parent pid>-<instance>-w<worker>g<generation>-<seq>
_SEGMENT_NAME = re.compile(r"^repro-fab-(\d+)-\d+-w\d+g\d+-\d+$")

_SHM_DIR = "/dev/shm"

#: Distinguishes fabrics coexisting in one process (tests open several).
_INSTANCES = itertools.count()


def _unlink_segment(name: str) -> None:
    """Remove a segment name (existing mappings stay valid)."""
    try:
        os.unlink(os.path.join(_SHM_DIR, name))
    except OSError:
        pass


class _Segment:
    """One POSIX shared-memory segment, mapped straight from ``/dev/shm``.

    ``multiprocessing.shared_memory`` registers every segment a process
    creates *or attaches* with a ``resource_tracker`` — a helper process
    spawned on first use, one per fabric process, whose only job would
    be to unlink at exit what the fabric already unlinks by name on
    ``close()`` and sweeps by pid after a crash.  Mapping the file
    directly starts no tracker.  ``create_bytes`` creates the segment
    (exclusively) at that size; without it an existing one is attached.
    """

    __slots__ = ("name", "size", "buf", "_mmap")

    def __init__(self, name: str, create_bytes: Optional[int] = None):
        path = os.path.join(_SHM_DIR, name)
        flags = os.O_RDWR
        if create_bytes is not None:
            flags |= os.O_CREAT | os.O_EXCL
        fd = os.open(path, flags, 0o600)
        try:
            if create_bytes is not None:
                os.ftruncate(fd, create_bytes)
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        except (OSError, ValueError):
            if create_bytes is not None:
                _unlink_segment(name)
            raise
        finally:
            os.close(fd)
        self.name = name
        self.buf: Optional[memoryview] = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; raises ``BufferError`` while views over ``buf`` live."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        self._mmap.close()


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other users' pids
        return True
    return True


def sweep_orphan_segments(shm_dir: str = _SHM_DIR) -> List[str]:
    """Unlink fabric segments whose creating process is dead.

    A fabric that crashed (or was SIGKILLed) before ``close()`` leaves
    its named segments in ``/dev/shm``; every new fabric sweeps them on
    construction, exactly like the store unlinks unreferenced shard
    files on open.  Returns the names removed.
    """
    removed: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:  # pragma: no cover - no /dev/shm on this platform
        return removed
    for name in names:
        match = _SEGMENT_NAME.match(name)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            os.unlink(os.path.join(shm_dir, name))
            removed.append(name)
        except OSError:  # pragma: no cover - lost a race to another sweep
            pass
    return removed


# ----------------------------------------------------------------------
# Worker side: packing results into segments
# ----------------------------------------------------------------------
class SegmentWriter:
    """Creates, fills, and recycles one worker's result segments.

    ``pack`` lays every ``materialize`` rank array of a response into
    one segment and returns a picklable descriptor; the segment stays
    ``busy`` until the parent's views die and it sends a ``recycle``
    message back, after which the mapping goes on a small free list
    and the next response reuses it (best fit) instead of allocating.
    """

    def __init__(self, prefix: str, max_pooled: int = 4):
        self.prefix = prefix
        self.max_pooled = max_pooled
        self.created = 0  #: segments allocated (not reuses)
        self.recycled = 0  #: responses served from the free list
        self._seq = itertools.count()
        self._free: List[_Segment] = []
        self._busy: Dict[str, _Segment] = {}

    # ------------------------------------------------------------------
    def pack(self, results: Sequence[ShardResult]) -> tuple:
        """Flatten results into ``(light_results, segment_name, nbytes)``.

        ``light_results`` mirror each :class:`ShardResult` with rank
        arrays replaced by ``(offset, count)`` spans into the segment;
        responses with no rank bytes ship ``segment_name=None``.
        """
        arrays: List[np.ndarray] = []
        light: List[tuple] = []
        offset = 0
        for result in results:
            if result.mode != "materialize":
                light.append(
                    (result.index, result.shard_id, result.mode,
                     result.counts, result.found, None, result.observations)
                )
                continue
            layout: List[Tuple[str, int, int]] = []
            for name, ranks in result.ranks.items():
                ranks = np.ascontiguousarray(ranks, dtype=_RANK_DTYPE)
                if len(ranks) == 0:
                    # Nothing to ship; the parent rebuilds an empty
                    # array without touching the segment.
                    layout.append((name, 0, 0))
                    continue
                layout.append((name, offset, len(ranks)))
                arrays.append(ranks)
                offset += ranks.nbytes
            light.append(
                (result.index, result.shard_id, "materialize",
                 None, False, layout, result.observations)
            )
        if offset == 0:
            return (light, None, 0)
        shm = self._obtain(offset)
        plane = np.frombuffer(
            shm.buf, dtype=_RANK_DTYPE, count=offset // _RANK_DTYPE.itemsize
        )
        at = 0
        for ranks in arrays:
            plane[at : at + len(ranks)] = ranks
            at += len(ranks)
        del plane  # release the buffer export before the parent maps it
        self._busy[shm.name] = shm
        return (light, shm.name, offset)

    def _obtain(self, nbytes: int) -> _Segment:
        best = None
        for i, shm in enumerate(self._free):
            if shm.size >= nbytes and (
                best is None or shm.size < self._free[best].size
            ):
                best = i
        if best is not None:
            self.recycled += 1
            return self._free.pop(best)
        self.created += 1
        return _Segment(f"{self.prefix}-{next(self._seq)}", create_bytes=nbytes)

    # ------------------------------------------------------------------
    def release(self, name: str) -> None:
        """The parent's views died: pool the segment or unlink it."""
        shm = self._busy.pop(name, None)
        if shm is None:
            return
        if len(self._free) < self.max_pooled:
            self._free.append(shm)
        else:
            self._discard(shm)

    @staticmethod
    def _discard(shm: _Segment) -> None:
        try:
            shm.close()
        except BufferError:  # pragma: no cover - writer-held export
            pass
        _unlink_segment(shm.name)

    def close(self) -> None:
        """Unlink everything this writer still owns."""
        for shm in [*self._free, *self._busy.values()]:
            self._discard(shm)
        self._free.clear()
        self._busy.clear()

    def info(self) -> dict:
        return {
            "created": self.created,
            "recycled": self.recycled,
            "free": len(self._free),
            "busy": len(self._busy),
        }


def _fabric_worker(
    directory, decode_cache, inbox, outbox, idx, prefix
):  # pragma: no cover - runs in child processes; components unit-tested
    """One fabric worker's request loop (runs in a child process)."""
    state = ShardWorkerState(directory, decode_cache=decode_cache)
    writer = SegmentWriter(prefix)
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "stop":
            writer.close()
            break
        if kind == "recycle":
            writer.release(message[1])
            continue
        if kind == "stats":
            outbox.put(
                ("stats", idx,
                 {"prefix_cache": state.prefix_cache.info(),
                  "segments": writer.info()})
            )
            continue
        seq, tasks = message[1], message[2]
        try:
            payload = writer.pack(state.run_group(tasks))
        except ReproError as error:
            # A user error (bad query, bad function arity): the parent
            # re-raises the same class with the same message, so every
            # backend answers a bad request identically.
            outbox.put(("err", idx, seq, (type(error).__name__, str(error))))
            continue
        except Exception:  # repro: allow[REP007] - worker crash boundary: any failure ships its traceback to the parent instead of killing the loop
            outbox.put(("err", idx, seq, traceback.format_exc()))
            continue
        outbox.put(("done", idx, seq, payload))


# ----------------------------------------------------------------------
# Parent side: mapping segments as zero-copy views
# ----------------------------------------------------------------------
class _SegmentArray(np.ndarray):
    """A rank array that keeps its shared-memory lease alive.

    Any view derived from it (slices, ``astype(copy=False)`` results
    that share memory, the frozen views the service hands out) inherits
    ``_lease`` through ``__array_finalize__`` — so a segment can never
    be recycled while data derived from it is reachable.
    """

    def __array_finalize__(self, obj):
        if obj is not None:
            self._lease = getattr(obj, "_lease", None)


class _Lease:
    """One attached segment; dies → the segment is releasable."""

    __slots__ = ("shm", "owner", "__weakref__")

    def __init__(self, shm: _Segment, owner: int):
        self.shm = shm
        self.owner = owner

    def view(self, offset: int, count: int) -> np.ndarray:
        if count == 0:
            return np.empty(0, dtype=_RANK_DTYPE)
        flat = np.frombuffer(
            self.shm.buf, dtype=_RANK_DTYPE, count=count, offset=offset
        )
        array = flat.view(_SegmentArray)
        array._lease = self
        return array


class SegmentPool:
    """Parent-side registry of attached segments (the ref-count home).

    ``attach`` maps a worker's segment and hands out a :class:`_Lease`;
    a ``weakref.finalize`` on the lease fires when the last derived
    view dies and routes the name back to the owning worker for reuse.
    ``close`` unlinks every name still attached — existing numpy views
    stay valid (POSIX keeps unlinked mappings alive); their finalizers
    then find the pool closed and simply drop their handles.
    """

    def __init__(self, recycle):
        self._recycle = recycle  # guarded-by: _lock  ((owner, name) -> None, or None when closed)
        self._lock = threading.Lock()
        self._live: Dict[str, weakref.ref] = {}  # guarded-by: _lock
        #: Handles whose close() hit a transient BufferError (the last
        #: view was still mid-deallocation); retried on every attach.
        self._graveyard: List[_Segment] = []  # guarded-by: _lock
        self.attached = 0  # guarded-by: _lock

    def attach(self, name: str, owner: int) -> _Lease:
        self._reap()
        shm = _Segment(name)
        lease = _Lease(shm, owner)
        with self._lock:
            self.attached += 1
            self._live[name] = weakref.ref(lease)
        weakref.finalize(lease, self._released, name, owner, shm)
        return lease

    def unpack(self, payload: tuple, owner: int) -> List[ShardResult]:
        """Rebuild :class:`ShardResult` values around zero-copy views."""
        light, segment, _ = payload
        lease = self.attach(segment, owner) if segment else None
        results: List[ShardResult] = []
        for index, shard_id, mode, counts, found, layout, observations in light:
            if mode == "materialize":
                ranks = {
                    name: (
                        lease.view(offset, count)
                        if count
                        else np.empty(0, dtype=_RANK_DTYPE)
                    )
                    for name, offset, count in layout
                }
                results.append(
                    ShardResult(
                        index, shard_id, "materialize",
                        ranks=ranks, observations=observations,
                    )
                )
            elif mode == "count":
                results.append(
                    ShardResult(
                        index, shard_id, "count",
                        counts=counts, observations=observations,
                    )
                )
            else:
                results.append(
                    ShardResult(
                        index, shard_id, "exists",
                        found=found, observations=observations,
                    )
                )
        return results

    # ------------------------------------------------------------------
    def _released(self, name: str, owner: int, shm) -> None:
        """Finalizer: the last view over ``name`` died.

        The finalizer can run while that view's deallocation is still
        unwinding (its buffer export not yet dropped), making
        ``close()`` transiently impossible — the handle is parked for a
        later retry.  Either way the segment's *data* is unreachable,
        so it is safe to hand back for reuse immediately.
        """
        with self._lock:
            self._live.pop(name, None)
            recycle = self._recycle
        try:
            shm.close()
        except BufferError:
            with self._lock:
                self._graveyard.append(shm)
        if recycle is not None:
            try:
                recycle(owner, name)
            except (OSError, ValueError):  # queues may be torn down already
                pass

    def _reap(self) -> None:
        """Retry parked handle closes (their views have unwound by now)."""
        with self._lock:
            parked, self._graveyard = self._graveyard, []
        for shm in parked:
            try:
                shm.close()
            except BufferError:  # pragma: no cover - still unwinding
                with self._lock:
                    self._graveyard.append(shm)

    def close(self) -> None:
        """Stop recycling and unlink every still-attached name."""
        with self._lock:
            self._recycle = None
            names = list(self._live)
        for name in names:
            _unlink_segment(name)
        self._reap()

    def live_segments(self) -> int:
        with self._lock:
            return sum(1 for ref in self._live.values() if ref() is not None)


def _split_to_feed_workers(
    grouped: List[List[ShardTask]], workers: int
) -> List[List[ShardTask]]:
    """Split per-shard task groups into enough units to feed the workers.

    Fewer shards than workers would leave workers idle and serialise
    whole query batches behind one process, so each shard's group is
    cut into at most ``ceil(workers / shards)`` *contiguous* chunks
    (adjacent batch queries are the likeliest prefix-sharers):
    query-level parallelism is restored when shards are scarce, while
    tasks that stay chunked together can still share operator prefixes
    (and every worker's prefix cache still serves repeat prefixes
    across batches).
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


class FabricBackend(ExecutionBackend):
    """Shard-affine long-lived workers with shared-memory result planes.

    Parameters
    ----------
    store:
        The sharded store to execute against.
    workers:
        Worker process count; ``None`` = one per shard, capped by the
        usable CPUs (:func:`~repro.service.executor.default_workers`).
    steal_threshold:
        How much deeper (in queued units) the affine worker's backlog
        must run than the least-loaded worker's before a unit is stolen.
    """

    name = "fabric"

    def __init__(
        self,
        store: ShardedStore,
        workers: Optional[int] = None,
        steal_threshold: int = 2,
    ):
        super().__init__(store)
        if workers is not None and workers < 1:
            raise ReproError("fabric needs workers >= 1")
        self._workers = default_workers(store) if workers is None else int(workers)
        self.steal_threshold = int(steal_threshold)
        self.stolen = 0  #: units routed away from their affine worker
        self.dispatched = [0] * self._workers  #: units sent, per worker
        self._ctx = multiprocessing.get_context()
        self._prefix = f"repro-fab-{os.getpid()}-{next(_INSTANCES)}"
        self._seq = itertools.count()
        self._generation = [0] * self._workers
        self._procs: Optional[list] = None
        self._inboxes: Optional[list] = None
        self._outboxes: Optional[list] = None
        self._merged: Optional[queue.Queue] = None
        self._drainers: Optional[list] = None
        self._pool: Optional[SegmentPool] = None
        # Recover segments a crashed predecessor left behind before we
        # start minting our own (mirrors the store's orphan sweep).
        sweep_orphan_segments()

    @property
    def workers(self) -> int:
        return self._workers

    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._procs is not None:
            return
        self._merged = queue.Queue()
        self._outboxes = [self._ctx.Queue() for _ in range(self._workers)]
        self._inboxes = [self._ctx.Queue() for _ in range(self._workers)]
        self._pool = SegmentPool(self._send_recycle)
        self._procs = [self._spawn(idx) for idx in range(self._workers)]
        self._drainers = [self._start_drain(idx) for idx in range(self._workers)]

    def _start_drain(self, idx: int) -> threading.Thread:
        """Pump one worker's outbox into the in-process merged queue.

        The dispatch loop never reads a ``multiprocessing.Queue``
        directly: a worker SIGKILLed mid-``put`` leaves a partial frame
        in its pipe, and any parent ``get()`` on that channel would
        block forever inside ``recv`` waiting for bytes that will never
        arrive.  Confining each cross-process read to a dedicated
        thread means corruption wedges only that thread, which is
        abandoned with its queue at respawn — the dispatch loop keeps
        draining the plain ``queue.Queue`` and stays responsive.
        """
        source = self._outboxes[idx]  # bind the queue, not the slot:
        sink = self._merged  # respawn swaps the slot under us

        def drain() -> None:
            while True:
                try:
                    message = source.get()
                except (OSError, ValueError, EOFError):
                    return  # queue torn down under us at close()
                if message[0] == "drain-stop":
                    return
                sink.put(message)

        thread = threading.Thread(
            target=drain, daemon=True, name=f"fabric-drain-{idx}"
        )
        thread.start()
        return thread

    def _spawn(self, idx: int):
        generation = self._generation[idx]
        self._generation[idx] += 1
        process = self._ctx.Process(
            target=_fabric_worker,
            args=(
                self.store.directory,
                self.store.decode_cache,
                self._inboxes[idx],
                self._outboxes[idx],
                idx,
                f"{self._prefix}-w{idx}g{generation}",
            ),
            daemon=True,
        )
        process.start()
        return process

    def _send_recycle(self, owner: int, name: str) -> None:
        inboxes = self._inboxes
        if inboxes is not None:
            inboxes[owner].put(("recycle", name))

    # ------------------------------------------------------------------
    def _assign(self, shard_id: int, depths: List[int]) -> int:
        """Affine worker, unless its backlog justifies stealing."""
        affine = shard_id % self._workers
        laggard = min(range(self._workers), key=depths.__getitem__)
        if depths[affine] - depths[laggard] >= self.steal_threshold:
            self.stolen += 1
            return laggard
        return affine

    def _dispatch(self, grouped: List[List[ShardTask]]) -> List[ShardResult]:
        self._ensure_workers()
        units = _split_to_feed_workers(grouped, self._workers)
        depths = [0] * self._workers
        pending: Dict[int, tuple] = {}
        for unit in units:
            idx = self._assign(unit[0].shard_id, depths)
            seq = next(self._seq)
            pending[seq] = (idx, unit)
            depths[idx] += 1
            self.dispatched[idx] += 1
            self._inboxes[idx].put(("run", seq, unit))
        outcomes: List[ShardResult] = []
        while pending:
            try:
                message = self._merged.get(timeout=0.25)
            except queue.Empty:
                self._respawn_dead(pending)
                continue
            kind, idx = message[0], message[1]
            if kind == "done":
                seq, payload = message[2], message[3]
                if pending.pop(seq, None) is None:
                    # A duplicate from re-dispatch after a worker death
                    # (or a straggler from an errored batch): hand the
                    # segment straight back for reuse.
                    self._discard(payload, idx)
                    continue
                outcomes.extend(self._pool.unpack(payload, idx))
            elif kind == "err":
                seq, detail = message[2], message[3]
                if pending.pop(seq, None) is None:
                    # A straggler: another unit of an earlier batch that
                    # already raised.  That batch reported it; this one
                    # must not fail for it.
                    continue
                if isinstance(detail, tuple):
                    raise getattr(errors, detail[0], ReproError)(detail[1])
                raise ReproError(f"fabric worker {idx} failed:\n{detail}")
            # "stats" replies can only interleave here if a caller
            # abandoned worker_stats() mid-read; drop them.
        return outcomes

    def _discard(self, payload: tuple, owner: int) -> None:
        _, segment, _ = payload
        if segment:
            self._send_recycle(owner, segment)

    def _respawn_dead(self, pending: Dict[int, tuple]) -> None:
        """Replace dead workers and re-dispatch their in-flight units.

        Both of the dead worker's queues are abandoned, not inherited.
        The inbox: ``Queue.get()`` holds the queue's reader lock *while
        blocked waiting for data*, so a worker killed at idle dies
        owning that semaphore and a replacement reading the same queue
        would deadlock on it.  The outbox: a worker killed mid-``put``
        dies holding the write lock (wedging any other writer — hence
        one outbox per worker) and may leave a partial frame that would
        block the reader forever; its drain thread is left behind on
        the stale queue (it still relays any intact completions, which
        dedup by sequence number) and a fresh queue + drain thread take
        the slot.  Every pending unit assigned to the worker is re-sent
        (units stranded in the old inbox are a subset of ``pending``,
        so nothing is lost) and duplicate segments recycle harmlessly.
        Segments the dead generation minted stay readable through live
        leases and are swept by ``close()``.
        """
        for idx, process in enumerate(self._procs):
            if process.is_alive():
                continue
            process.join()
            stale = self._inboxes[idx]
            stale.cancel_join_thread()
            stale.close()
            self._inboxes[idx] = self._ctx.Queue()
            self._outboxes[idx].cancel_join_thread()
            self._outboxes[idx] = self._ctx.Queue()
            self._procs[idx] = self._spawn(idx)
            self._drainers[idx] = self._start_drain(idx)
            for seq, (owner, unit) in pending.items():
                if owner == idx:
                    self._inboxes[idx].put(("run", seq, unit))

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict:
        """Per-worker prefix-cache and segment counters (and the
        parent's routing totals) — the observability hook the affinity
        tests and ``/stats`` build on."""
        self._ensure_workers()
        for inbox in self._inboxes:
            inbox.put(("stats",))
        stats: List[Optional[dict]] = [None] * self._workers
        needed = self._workers
        while needed:
            message = self._merged.get(timeout=10.0)
            if message[0] == "stats" and stats[message[1]] is None:
                stats[message[1]] = message[2]
                needed -= 1
        return {
            "workers": stats,
            "dispatched": list(self.dispatched),
            "stolen": self.stolen,
            "segments_attached": self._pool.attached if self._pool else 0,
            "segments_live": self._pool.live_segments() if self._pool else 0,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink every fabric segment (idempotent).

        Rank arrays already handed out (service result cache, caller
        references) stay readable: names are unlinked, mappings
        survive until their last view dies.
        """
        if self._procs is None:
            return
        procs, self._procs = self._procs, None
        inboxes, self._inboxes = self._inboxes, None
        outboxes, self._outboxes = self._outboxes, None
        drainers, self._drainers = self._drainers, None
        for inbox in inboxes:
            try:
                inbox.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - torn down
                pass
        for process in procs:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join()
        # Release the drain threads: workers have exited, so each
        # outbox is quiescent and the sentinel is the next message.
        for outbox in outboxes:
            try:
                outbox.put(("drain-stop",))
            except (OSError, ValueError):  # pragma: no cover - torn down
                pass
        for thread in drainers:
            thread.join(timeout=5.0)
        for channel in [*inboxes, *outboxes]:
            channel.cancel_join_thread()
            channel.close()
        self._merged = None
        self._pool.close()
        self._pool = None
        # Backstop for segments a terminated worker never unlinked.
        try:
            leftovers = [
                name
                for name in os.listdir(_SHM_DIR)
                if name.startswith(self._prefix + "-")
            ]
        except OSError:  # pragma: no cover - no /dev/shm
            leftovers = []
        for name in leftovers:
            try:
                os.unlink(os.path.join(_SHM_DIR, name))
            except OSError:
                pass
