"""The worker fabric: shard-affine workers, rank bytes raw on the pipe.

Pickling results back from worker processes moves per-node *objects*
exactly where the paper says not to: every ``materialize`` payload —
bulk ``int64`` rank columns — would be pickled in the worker and
unpickled again on arrival.  The fabric keeps the data plane bulk
end-to-end:

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
  and lane 0's results never leave it.  The workers fork when the
  backend is constructed; ``fabric:1`` is serial.
* **One pipe per worker.**  Lane *i* talks to its worker over one
  duplex ``multiprocessing.Pipe`` (a Unix socket pair), read through
  ``multiprocessing.connection.wait`` on the pipes and the worker
  process sentinels.  No thread runs on either side.  A batch never
  starts while a reply is unread, so neither side blocks the other on
  a full pipe.  One lock serializes batches, so concurrent callers
  wait their turn instead of reading each other's replies.
* **A reply is a descriptor, then raw rank bytes.**  A ``done`` reply
  is one framed message — ``(index, shard_id, mode, payload,
  observations)`` per result, a ``materialize`` payload replaced by
  its ``(document, count)`` layout, and the body's byte count — then
  every rank array's bytes, written from the array itself
  (:func:`_send_done`).  The parent reads the body into one ``int64``
  buffer and hands out slices of it (:func:`_receive`); nothing is
  named, mapped or unlinked, and arrays in the service result cache
  outlive the backend.  ``count``/``exists`` payloads stay in the
  descriptor — they were never the transport cost.
* **Crash safety.**  A worker's death is a readable event: its
  sentinel fires, or its pipe ends (mid-frame or mid-body, too).  The
  lane is then respawned on a fresh pipe and sent its one message
  again; the dead pipe is closed and never read again, so no reply can
  arrive twice.  Each process holds only its own pipe ends — the
  parent closes each child end after the fork, and a worker closes
  every fabric end it inherited but its own — so a worker whose server
  died reads end of file and exits.
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

import multiprocessing
import os
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

__all__ = ["FabricBackend"]

_RANK_DTYPE = np.dtype(np.int64)


# ----------------------------------------------------------------------
# Worker side: a descriptor, then the rank bytes
# ----------------------------------------------------------------------
def _pack(results: Sequence[ShardResult]) -> Tuple[list, List[np.ndarray]]:
    """Split results into a picklable descriptor and their rank arrays.

    The descriptor mirrors each :class:`ShardResult` as ``(index,
    shard_id, mode, payload, observations)`` with a ``materialize``
    payload replaced by its layout, ``(document, count)`` in body
    order; the arrays are the layout's non-empty columns.
    """
    light: List[tuple] = []
    arrays: List[np.ndarray] = []
    for result in results:
        payload = result.payload
        if result.mode == "materialize":
            columns = [np.ascontiguousarray(r, dtype=_RANK_DTYPE) for r in payload.values()]
            arrays.extend(column for column in columns if len(column))
            payload = [(name, len(column)) for name, column in zip(payload, columns)]
        light.append(
            (result.index, result.shard_id, result.mode, payload, result.observations)
        )
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
    try:
        while True:
            message = conn.recv()
            if message[0] == "stop":
                return
            if message[0] == "stats":
                conn.send(("stats", {"prefix_cache": state.prefix_cache.info()}))
                continue
            try:
                light, arrays = _pack(
                    [r for unit in message[1] for r in state.run_group(unit)]
                )
            except ReproError as error:
                # A user error (bad query, bad function arity): the parent
                # re-raises the same class with the same message, so every
                # backend answers a bad request identically.
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
    for index, shard_id, mode, body, observations in light:
        if mode == "materialize":
            ranks = {}
            for name, count in body:
                ranks[name] = plane[offset : offset + count]
                offset += count
            body = ranks
        results.append(ShardResult.build(index, shard_id, mode, body, observations))
    return ("done", results)


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
    """Shard-affine lanes: the calling thread plus long-lived workers,
    one pipe each, rank bytes raw on the pipe.

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
        self._lock = threading.Lock()
        # Keyed by lane, 1..N-1: lane 0 has no process and no pipe.
        self._procs: Optional[dict] = None  # guarded-by: _lock
        self._conns: Optional[dict] = None  # guarded-by: _lock
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
            # for the remote replies: no reply is left unread on a pipe.
            try:
                outcomes = super()._dispatch(lanes[0])
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
            lane0 = {"prefix_cache": self._state().prefix_cache.info()}
        return {
            "workers": [lane0, *(detail for _, detail in replies.values())],
            "dispatched": list(self.dispatched),
            "stolen": self.stolen,
        }

    # ------------------------------------------------------------------
    def close(self) -> None:  # repro: allow[REP002] - runs from QueryService.__del__, inside whatever lock a GC pass interrupts, so it must not take the dispatch lock; closing mid-batch is the caller's error
        """Stop workers and drop lane 0's state (idempotent): send each
        worker ``stop``, join it, close the pipes.

        Rank arrays already handed out (service result cache, caller
        references) stay readable: each is a slice of a buffer this
        process owns, freed with its last slice.  A closed fabric
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
