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
  nothing is re-opened per batch.  A batch sends each remote lane one
  message holding all of its units, runs lane 0's units inline while
  the workers run theirs, then waits for one reply per remote lane —
  so the serving process does a share of the work instead of idling,
  and lane 0's results never leave it (no segment).  The workers fork
  when the backend is constructed; ``fabric:1`` is serial.
* **One pipe per worker.**  Lane *i* talks to its worker over one
  duplex ``multiprocessing.Pipe``, read through
  ``multiprocessing.connection.wait`` on the pipes and the worker
  process sentinels.  No thread runs on either side.  A batch never
  starts while a reply is unread, so neither side blocks the other on
  a full pipe.  One lock serializes batches, so concurrent callers
  wait their turn instead of reading each other's replies.
* **Shared-memory result planes.**  A worker writes all rank arrays of
  a reply into one POSIX shared-memory segment (:class:`SegmentWriter`);
  only a tiny layout descriptor crosses the pipe.  The parent maps the
  segment and rebuilds every rank array as a **zero-copy numpy view**
  over it (:class:`SegmentPool`).  ``count``/``exists`` payloads stay
  inline — they were never the transport cost.
* **One segment per reply, no lifecycle.**  A segment has a name only
  between the worker's ``pack`` and the parent's attach: the parent
  maps it and unlinks the name at once, then hands out plain
  ``np.frombuffer`` views.  numpy's buffer export keeps the mapping
  alive until the last view (or slice of one) dies and the kernel frees
  the pages then — nothing is registered, returned or reused, and
  arrays sitting in the service result cache outlive the backend.  In
  a batch that failed, the other lanes' replies have their names
  unlinked unread: a batch returns or raises only once every remote
  lane has answered.
* **Crash safety.**  A worker's death is a readable event: its
  sentinel fires, or its pipe ends (mid-frame, too).  The lane is then
  respawned on a fresh pipe and sent its one message again; the dead
  pipe is closed and never read again, so no reply can arrive twice.
  Each process holds only its own pipe ends — the parent closes each
  child end after the fork, and a worker closes every fabric end it
  inherited but its own — so a worker whose server died reads end of
  file and exits.  Segment names embed the parent pid
  (``repro-fab-<pid>-<instance>-w<idx>g<gen>-<n>``); construction
  sweeps names whose pid is dead (:func:`sweep_orphan_segments`) — the
  same recover-on-open discipline as the store's orphaned-``.npz``
  sweep — and ``close()`` unlinks everything under the instance
  prefix.  The only names either can find are segments a worker wrote
  and the parent never attached.
* **Shard affinity, one routing rule.**  A unit for shard *k* goes to
  lane ``k % n``, so one lane's prefix-context LRU stays warm for
  that shard's plans across batches — unless some lane holds
  strictly fewer units *of this batch*, then to the first least-loaded
  one (which is how the chunks of a scarce shard spread over idle
  lanes).  Lane 0 is routed like any other.  Fall-forward across epoch
  flips needs nothing new: shard files are named by epoch and workers
  chase the manifest exactly as the serial path does.
"""

from __future__ import annotations

import itertools
import mmap
import multiprocessing
import os
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

#: Segment names: repro-fab-<parent pid>-<instance>-w<worker>g<generation>-<n>
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
        self._names = itertools.count()

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
        name = f"{self.prefix}-{next(self._names)}"
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
    directory, conn, inherited, prefix
):  # pragma: no cover - runs in child processes; components unit-tested
    """One fabric worker's request loop (runs in a child process).

    Every message gets exactly one reply.  ``inherited`` are the fabric
    pipe ends this process got from its parent that are not its own
    (its siblings' included): closed at once, so the server's end of
    ``conn`` is held by the server alone and ends when the server does
    — a ``recv`` that reads end of file returns, and the worker dies
    with its server.
    """
    for end in inherited:
        end.close()
    state = ShardWorkerState(directory)
    writer = SegmentWriter(prefix)
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            if message[0] == "stats":
                conn.send(("stats", {"prefix_cache": state.prefix_cache.info()}))
                continue
            try:
                results = [r for unit in message[1] for r in state.run_group(unit)]
                reply = ("done", writer.pack(results))
            except ReproError as error:
                # A user error (bad query, bad function arity): the parent
                # re-raises the same class with the same message, so every
                # backend answers a bad request identically.
                reply = ("err", (type(error).__name__, str(error)))
            except Exception:  # repro: allow[REP007] - worker crash boundary: any failure ships its traceback to the parent instead of killing the loop
                reply = ("err", traceback.format_exc())
            conn.send(reply)
    except (EOFError, OSError):
        return  # the server is gone


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


def _drop_unread(reply: tuple) -> None:
    """Unlink the segment of a ``done`` reply nobody will unpack."""
    if reply[0] == "done" and reply[1][1]:
        _unlink_segment(reply[1][1])


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
    with shared-memory result planes, one pipe each.

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
        self._generation = [0] * self._workers  #: forks, per lane (lane 0: none)
        self._lock = threading.Lock()
        # Keyed by lane, 1..N-1: lane 0 has no process and no pipe.
        self._procs: Optional[dict] = None  # guarded-by: _lock
        self._conns: Optional[dict] = None  # guarded-by: _lock
        self._pool = SegmentPool()
        # Recover segments a crashed predecessor left behind before we
        # start minting our own (mirrors the store's orphan sweep).
        sweep_orphan_segments()
        self._ensure_workers_locked()  # fork from the constructing thread

    @property
    def workers(self) -> int:
        return self._workers

    # ------------------------------------------------------------------
    def _ensure_workers_locked(self) -> None:
        if self._procs is None:
            self._procs, self._conns = {}, {}
            for idx in range(1, self._workers):
                self._spawn_locked(idx)

    def _spawn_locked(self, idx: int) -> None:
        """Fork lane ``idx``'s worker on a fresh pipe.

        The child is handed every parent end of this fabric to close,
        its own lane's included; the parent closes the child's end once
        it is forked.  A respawn forks from the dispatching thread after
        lane 0 has loaded its shards: the child inherits those planes
        copy-on-write (resident in its RSS, shared with this process,
        never read — its own :class:`ShardWorkerState` opens its shards
        afresh).
        """
        generation = self._generation[idx]
        self._generation[idx] += 1
        ours, theirs = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_fabric_worker,
            args=(
                self.store.directory,
                theirs,
                [ours, *self._conns.values()],
                f"{self._prefix}-w{idx}g{generation}",
            ),
            daemon=True,
        )
        process.start()
        theirs.close()
        self._procs[idx], self._conns[idx] = process, ours

    def _respawn_locked(self, idx: int) -> None:
        """Replace a dead worker; its pipe is closed, never read again.
        A segment it wrote but never announced keeps its name until
        ``close()``."""
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
        ends, whole or mid-frame — is respawned and sent its message
        again.  A complete reply already read counts.
        """
        from multiprocessing.connection import wait  # a serial process never loads it

        replies: Dict[int, tuple] = {}
        while len(replies) < len(sent):
            handles = {}
            for idx in sent:
                if idx not in replies:
                    handles[self._conns[idx]] = handles[self._procs[idx].sentinel] = idx
            for idx in sorted({handles[ready] for ready in wait(list(handles))}):
                try:
                    if self._conns[idx].poll():
                        replies[idx] = self._conns[idx].recv()
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

    def _dispatch(self, grouped: List[List[ShardTask]]) -> List[ShardResult]:
        with self._lock:
            self._ensure_workers_locked()
            lanes: List[List[List[ShardTask]]] = [[] for _ in range(self._workers)]
            depths = [0] * self._workers
            for unit in _split_to_feed_workers(grouped, self._workers):
                idx = self._assign(unit[0].shard_id, depths)
                depths[idx] += 1
                self.dispatched[idx] += 1
                lanes[idx].append(unit)
            sent = {idx: ("run", lanes[idx]) for idx in range(1, self._workers) if lanes[idx]}
            for idx, message in sent.items():
                self._post_locked(idx, message)
            # Lane 0 runs while the workers do.  Whatever it raises waits
            # for the remote replies: no segment name outlives the batch.
            try:
                outcomes = super()._dispatch(lanes[0])
            finally:
                remote = self._unpack(self._collect_locked(sent))
            return outcomes + remote

    def _unpack(self, replies: Dict[int, tuple]) -> List[ShardResult]:
        """Every lane's results; if a lane failed, its error, with the
        other lanes' segments unlinked unread."""
        for idx, (kind, detail) in replies.items():
            if kind != "err":
                continue
            for reply in replies.values():
                _drop_unread(reply)
            if isinstance(detail, tuple):
                # A user error: the same class and message as in-process.
                raise getattr(errors, detail[0], ReproError)(detail[1])
            raise ReproError(f"fabric worker {idx} failed:\n{detail}")
        return [
            result for _, payload in replies.values()
            for result in self._pool.unpack(payload)
        ]

    # ------------------------------------------------------------------
    def worker_stats(self) -> dict:
        """Per-lane prefix-cache counters (lane 0's read in-process) and
        the routing and attach totals — the observability hook the
        affinity tests build on."""
        with self._lock:
            self._ensure_workers_locked()
            sent = {idx: ("stats",) for idx in range(1, self._workers)}
            for idx, message in sent.items():
                self._post_locked(idx, message)
            replies = self._collect_locked(sent)
            lane0 = {"prefix_cache": self._state().prefix_cache.info()}
        return {
            "workers": [lane0, *(detail for _, detail in replies.values())],
            "dispatched": list(self.dispatched),
            "stolen": self.stolen,
            "segments_attached": self._pool.attached,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:  # repro: allow[REP002] - runs from QueryService.__del__, inside whatever lock a GC pass interrupts, so it must not take the dispatch lock; closing mid-batch is the caller's error
        """Stop workers, drop lane 0's state and unlink every fabric
        segment (idempotent): send each worker ``stop``, join it, close
        the pipes, sweep the instance's segment names.

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
        # Segments written by a worker and never attached (the worker or
        # its batch died in between) are the only names left.
        try:
            names = os.listdir(_SHM_DIR)
        except OSError:  # pragma: no cover - no /dev/shm
            names = []
        for name in names:
            if name.startswith(self._prefix + "-"):
                _unlink_segment(name)
