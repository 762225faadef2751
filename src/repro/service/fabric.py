"""The zero-copy worker fabric: shard-affine workers, shared-memory results.

Pickling results back from worker processes moves per-node *objects*
exactly where the paper says not to: every ``materialize`` payload —
bulk ``int64`` rank columns — would be pickled in the worker, squeezed
through a pipe, and copied again on arrival.  The fabric keeps the
data plane bulk end-to-end:

* **The dispatching thread is lane 0.**  ``fabric:N`` runs a batch on
  N lanes: N−1 long-lived worker processes and the calling thread,
  which runs its own units through the inherited
  :class:`~repro.service.backend.SerialBackend` dispatch.  Every lane
  holds one :class:`~repro.service.executor.ShardWorkerState` (mmap'd
  shard planes, evaluators, prefix-context LRU) across requests;
  nothing is re-opened per batch.  A batch sends every remote unit
  first, runs lane 0's units inline while the workers run theirs, then
  collects — so the serving process does a share of the work instead of
  idling while the workers run, and lane 0's results never leave it
  (no segment).  The workers fork when the backend is constructed;
  ``fabric:1`` forks nothing and starts no queues or drain threads.
* **Shared-memory result planes.**  A worker writes all rank arrays of
  a response into one POSIX shared-memory segment
  (:class:`SegmentWriter`); only a tiny layout descriptor crosses the
  pipe.  The parent maps the segment and rebuilds every rank array as
  a **zero-copy numpy view** over it (:class:`SegmentPool`).
  ``count``/``exists`` payloads stay inline — they were never the
  transport cost.
* **One segment per response, no lifecycle.**  A segment has a name
  only between the worker's ``pack`` and the parent's attach: the
  parent maps it and unlinks the name at once, then hands out plain
  ``np.frombuffer`` views.  numpy's buffer export keeps the mapping
  alive until the last view (or slice of one) dies and the kernel
  frees the pages then — nothing is registered, returned or reused,
  and arrays sitting in the service result cache outlive the backend.
  A ``done`` message nobody unpacks (a duplicate after a respawn, the
  rest of a batch that failed) has its name unlinked unread: a batch
  returns or raises only once every remote unit of it is in.
* **Crash safety.**  Segment names embed the parent pid
  (``repro-fab-<pid>-<instance>-w<idx>g<gen>-<seq>``); construction
  sweeps names whose pid is dead (:func:`sweep_orphan_segments`) —
  the same recover-on-open discipline as the store's orphaned-``.npz``
  sweep — and ``close()`` unlinks everything under the instance
  prefix.  The only names either can find are segments a worker wrote
  and the parent never attached.
* **Shard affinity, one routing rule.**  A unit for shard *k* goes to
  lane ``k % n``, so one lane's prefix-context LRU stays warm for
  that shard's plans across batches — unless some lane holds
  strictly fewer units *of this batch*, then to the first least-loaded
  one (which is how the chunks of a scarce shard spread over idle
  lanes).  Lane 0 is routed like any other.  Each worker gets a private inbox
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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import errors
from repro.errors import ReproError
from repro.service.backend import SerialBackend
from repro.service.executor import (
    ShardResult,
    ShardTask,
    ShardWorkerState,
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


def _attach(name: str) -> mmap.mmap:
    """Map a worker's segment and unlink its name at once.

    The mapping is read straight from ``/dev/shm``:
    ``multiprocessing.shared_memory`` registers every segment a process
    creates *or attaches* with a ``resource_tracker`` — a helper process
    spawned on first use, whose only job would be to unlink at exit what
    is already unlinked here.  The returned ``mmap`` is closed by
    nobody: it unmaps when the last array exported from it dies.
    """
    fd = os.open(os.path.join(_SHM_DIR, name), os.O_RDWR)
    try:
        return mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
        _unlink_segment(name)


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

    A fabric that crashed (or was SIGKILLed) between a worker's ``pack``
    and its own attach leaves that segment's name in ``/dev/shm``; every
    new fabric sweeps them on construction, exactly like the store
    unlinks unreferenced shard files on open.  Returns the names
    removed.
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
    """Writes one worker's responses into freshly named segments."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._seq = itertools.count()

    def pack(self, results: Sequence[ShardResult]) -> tuple:
        """Flatten results into ``(light_results, segment_name)``.

        ``light_results`` mirror each :class:`ShardResult` as ``(index,
        shard_id, mode, payload, observations)`` with a ``materialize``
        payload replaced by its layout — ``(document, offset, count)``
        spans into the segment; responses with no rank bytes ship
        ``segment_name=None``.  The segment is written, not mapped: a
        full ``/dev/shm`` is an ``OSError`` here, not a ``SIGBUS``.
        """
        arrays: List[np.ndarray] = []
        light: List[tuple] = []
        offset = 0
        for result in results:
            payload = result.payload
            if result.mode == "materialize":
                layout: List[Tuple[str, int, int]] = []
                for name, ranks in payload.items():
                    ranks = np.ascontiguousarray(ranks, dtype=_RANK_DTYPE)
                    layout.append((name, offset, len(ranks)))
                    if len(ranks):
                        arrays.append(ranks)
                        offset += ranks.nbytes
                payload = layout
            light.append(
                (result.index, result.shard_id, result.mode,
                 payload, result.observations)
            )
        if not arrays:
            return (light, None)
        name = f"{self.prefix}-{next(self._seq)}"
        fd = os.open(
            os.path.join(_SHM_DIR, name),
            os.O_WRONLY | os.O_CREAT | os.O_EXCL,
            0o600,
        )
        try:
            with os.fdopen(fd, "wb") as plane:
                for ranks in arrays:
                    plane.write(ranks)
        except OSError:
            _unlink_segment(name)
            raise
        return (light, name)


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
            break
        if kind == "stats":
            outbox.put(
                ("stats", idx, {"prefix_cache": state.prefix_cache.info()})
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
class SegmentPool:
    """Parent side of the transport: one attach per response.

    ``unpack`` maps the response's segment (unlinking its name, see
    :func:`_attach`) and rebuilds every rank array as a plain
    ``np.frombuffer`` view of the mapping; the views — and any slice
    of one — keep the mapping alive, nothing else refers to it.
    """

    def __init__(self) -> None:
        self.attached = 0  #: segments mapped so far

    def unpack(self, payload: tuple) -> List[ShardResult]:
        """Rebuild :class:`ShardResult` values around zero-copy views."""
        light, segment = payload
        plane = None
        if segment:
            plane = _attach(segment)
            self.attached += 1
        results: List[ShardResult] = []
        for index, shard_id, mode, body, observations in light:
            if mode == "materialize":
                body = {
                    name: (
                        np.frombuffer(plane, _RANK_DTYPE, count, offset)
                        if count
                        else np.empty(0, dtype=_RANK_DTYPE)
                    )
                    for name, offset, count in body
                }
            results.append(
                ShardResult.build(index, shard_id, mode, body, observations)
            )
        return results


def _drop_unread(message: tuple) -> None:
    """Unlink the segment of a ``done`` message nobody will unpack."""
    if message[0] == "done" and message[3][1]:
        _unlink_segment(message[3][1])


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


class FabricBackend(SerialBackend):
    """Shard-affine lanes: the calling thread plus long-lived workers
    with shared-memory result planes.

    Parameters
    ----------
    store:
        The sharded store to execute against.
    workers:
        Lane count N ≥ 2 — lane 0 is the calling thread, lanes 1..N−1
        are forked worker processes (one lane is
        :class:`~repro.service.backend.SerialBackend`, which
        :func:`~repro.service.backend.make_backend` builds for it).
    """

    name = "fabric"

    def __init__(self, store: ShardedStore, workers: int):
        super().__init__(store)
        if workers < 2:
            raise ReproError("fabric needs two or more lanes (one lane is serial)")
        self._workers = int(workers)
        self.stolen = 0  #: units routed away from their affine lane
        self.dispatched = [0] * self._workers  #: units run, per lane
        self._ctx = multiprocessing.get_context()
        self._prefix = f"repro-fab-{os.getpid()}-{next(_INSTANCES)}"
        self._seq = itertools.count()
        self._generation = [0] * self._workers  #: forks, per lane (lane 0: none)
        # Keyed by lane, 1..N-1: lane 0 has no process, queue or thread.
        self._procs: Optional[dict] = None
        self._inboxes: Optional[dict] = None
        self._outboxes: Optional[dict] = None
        self._merged: Optional[queue.Queue] = None
        self._drainers: Optional[dict] = None
        self._pool = SegmentPool()
        # Recover segments a crashed predecessor left behind before we
        # start minting our own (mirrors the store's orphan sweep).
        sweep_orphan_segments()
        self._ensure_workers()  # fork before any drain or caller thread exists

    @property
    def workers(self) -> int:
        return self._workers

    # ------------------------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._procs is not None:
            return
        remote = range(1, self._workers)
        self._merged = queue.Queue()
        self._outboxes = {idx: self._ctx.Queue() for idx in remote}
        self._inboxes = {idx: self._ctx.Queue() for idx in remote}
        self._procs = {idx: self._spawn(idx) for idx in remote}
        self._drainers = {idx: self._start_drain(idx) for idx in remote}

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

    # ------------------------------------------------------------------
    def _assign(self, shard_id: int, depths: List[int]) -> int:
        """Affine lane, unless another holds fewer units of this batch."""
        affine = shard_id % self._workers
        least = min(depths)
        if depths[affine] == least:
            return affine
        self.stolen += 1
        return depths.index(least)

    def _dispatch(self, grouped: List[List[ShardTask]]) -> List[ShardResult]:
        self._ensure_workers()
        units = _split_to_feed_workers(grouped, self._workers)
        depths = [0] * self._workers
        local: List[List[ShardTask]] = []
        pending: Dict[int, tuple] = {}
        for unit in units:
            idx = self._assign(unit[0].shard_id, depths)
            depths[idx] += 1
            self.dispatched[idx] += 1
            if idx == 0:
                local.append(unit)
                continue
            seq = next(self._seq)
            pending[seq] = (idx, unit)
            self._inboxes[idx].put(("run", seq, unit))
        # Lane 0 runs while the workers do.  Whatever it raises waits
        # for the remote completions: no segment name outlives the batch.
        try:
            outcomes = super()._dispatch(local)
        finally:
            remote = self._collect(pending)
        return outcomes + remote

    def _collect(self, pending: Dict[int, tuple]) -> List[ShardResult]:
        """Wait for every remote unit; a worker's failure is raised once
        the last one is in, the rest of the batch's segments unlinked
        unread."""
        outcomes: List[ShardResult] = []
        failure: Optional[ReproError] = None
        while pending:
            try:
                message = self._merged.get(timeout=0.25)
            except queue.Empty:
                self._respawn_dead(pending)
                continue
            kind = message[0]
            if kind not in ("done", "err") or pending.pop(message[2], None) is None:
                # A duplicate from re-dispatch after a worker death, or
                # a "stats" reply of a worker_stats() abandoned mid-read.
                _drop_unread(message)
            elif failure is not None:  # the batch has failed already
                _drop_unread(message)
            elif kind == "done":
                outcomes.extend(self._pool.unpack(message[3]))
            elif isinstance(message[3], tuple):
                # A user error: the same class and message as in-process.
                failure = getattr(errors, message[3][0], ReproError)(message[3][1])
            else:
                failure = ReproError(f"fabric worker {message[1]} failed:\n{message[3]}")
        if failure is not None:
            raise failure
        return outcomes

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
        so nothing is lost) and a duplicate completion's segment is
        unlinked unread.  A segment the dead worker wrote but never
        announced keeps its name until ``close()``.
        Unlike the forks at construction, this one runs on the dispatch
        thread with drain threads alive; the child touches only its
        fresh queues.  It also forks after lane 0 has loaded its shards:
        the child inherits those planes copy-on-write (resident in its
        RSS, shared with this process, never read — its own
        :class:`ShardWorkerState` opens its shards afresh).
        """
        for idx, process in self._procs.items():
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
        """Per-lane prefix-cache counters (lane 0's read in-process) and
        the routing and attach totals — the observability hook the
        affinity tests build on."""
        self._ensure_workers()
        for inbox in self._inboxes.values():
            inbox.put(("stats",))
        stats: List[Optional[dict]] = [None] * self._workers
        stats[0] = {"prefix_cache": self._state().prefix_cache.info()}
        needed = len(self._inboxes)
        while needed:
            message = self._merged.get(timeout=10.0)
            if message[0] == "stats" and stats[message[1]] is None:
                stats[message[1]] = message[2]
                needed -= 1
            else:  # a late duplicate of a re-dispatched unit
                _drop_unread(message)
        return {
            "workers": stats,
            "dispatched": list(self.dispatched),
            "stolen": self.stolen,
            "segments_attached": self._pool.attached,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, drop lane 0's state and unlink every fabric
        segment (idempotent).

        Rank arrays already handed out (service result cache, caller
        references) stay readable: their names went at attach, the
        mappings survive until their last view dies.  A closed fabric
        used again forks its workers afresh, from a process that no
        longer holds lane 0's planes.
        """
        if self._procs is None:
            return
        self._serial_state = None
        procs, self._procs = self._procs, None
        inboxes, self._inboxes = self._inboxes, None
        outboxes, self._outboxes = self._outboxes, None
        drainers, self._drainers = self._drainers, None
        for inbox in inboxes.values():
            try:
                inbox.put(("stop",))
            except (OSError, ValueError):  # pragma: no cover - torn down
                pass
        for process in procs.values():
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - wedged worker
                process.terminate()
                process.join()
        # Release the drain threads: workers have exited, so each
        # outbox is quiescent and the sentinel is the next message.
        for outbox in outboxes.values():
            try:
                outbox.put(("drain-stop",))
            except (OSError, ValueError):  # pragma: no cover - torn down
                pass
        for thread in drainers.values():
            thread.join(timeout=5.0)
        for channel in [*inboxes.values(), *outboxes.values()]:
            channel.cancel_join_thread()
            channel.close()
        self._merged = None
        # Segments written by a worker and never attached (the worker or
        # its batch died in between) are the only names left.
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:  # pragma: no cover - no /dev/shm
            names = []
        for name in names:
            if name.startswith(self._prefix + "-"):
                _unlink_segment(name)
