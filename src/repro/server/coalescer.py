"""Request coalescing: concurrent single queries → one ``execute_batch``.

The service's shared-prefix trie (PR 4) and mode-aware merge (PR 5) do
their best work on *batches* — eight queries opening with the same
steps pay for the common prefix once.  A network server naturally
receives those eight queries as eight separate requests, so the
coalescer holds each arriving query for a small window (a few ms) and
flushes everything that accumulated as **one**
:meth:`~repro.service.service.QueryService.execute_batch` call, fanning
the per-query results back to the waiting handlers.  Per-query result
``mode`` is preserved (mixed-mode batches share prefixes by design);
queries only coalesce with siblings of the same cache setting — the
batch key.

The flush runs on a dedicated dispatcher thread pool (default: one
thread), never on the event loop: the engines hold the GIL for the
duration of a batch, and a single dispatch lane both keeps the serial
executor's worker state single-threaded (it is not thread-safe) and
makes coalescing the real concurrency mechanism instead of thread
interleaving.

All coalescer state is touched only from the event loop thread — the
async-idiomatic alternative to locking.  ``window <= 0`` degrades to
one-batch-per-request (the ablation the load bench measures against).

Sharing a batch never shares *failures*: the HTTP layer pre-validates
each query before it may join a batch, and if a batch call still raises
mid-flight the coalescer falls back to per-query execution so the
exception reaches only the offending submitter — every valid sibling
gets its real answer.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.server.stats import ServerStats
from repro.service.service import QueryService, ServiceResult

__all__ = ["CoalescerDraining", "QueryCoalescer"]


class CoalescerDraining(ReproError):
    """Submission refused because the server is shutting down.

    A distinct type so the HTTP layer can map a drain-race refusal to
    **503** + ``Retry-After`` (a server-side condition) instead of the
    generic ``ReproError`` → 400 client-error path.
    """

#: Queries coalesce only with siblings that share this setting
#: (``use_cache``).
BatchKey = bool


class _Pending:
    """One forming batch: queries + the futures awaiting their results."""

    __slots__ = ("id", "queries", "modes", "futures", "timer")

    def __init__(self, pending_id: int):
        self.id = pending_id
        self.queries: List[str] = []
        self.modes: List[str] = []
        self.futures: List[asyncio.Future] = []
        self.timer: Optional[asyncio.TimerHandle] = None


class QueryCoalescer:
    """Merge concurrent single-query submissions into batched dispatch."""

    def __init__(
        self,
        service: QueryService,
        dispatcher,
        stats: Optional[ServerStats] = None,
        window_s: float = 0.004,
        max_batch: int = 64,
    ):
        self.service = service
        self.window_s = float(window_s)
        self.max_batch = max(1, int(max_batch))
        self._dispatcher = dispatcher
        self._stats = stats if stats is not None else ServerStats()
        self._pending: Dict[BatchKey, _Pending] = {}
        self._ids = itertools.count()
        self._tasks: set = set()
        self._closing = False

    # ------------------------------------------------------------------
    async def submit(
        self,
        query: str,
        mode: str = "materialize",
        use_cache: bool = True,
    ) -> ServiceResult:
        """Enqueue one query and await its (possibly batched) result."""
        if self._closing:
            raise CoalescerDraining("coalescer is draining; no new queries")
        loop = asyncio.get_running_loop()
        key: BatchKey = use_cache
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = _Pending(next(self._ids))
            if self.window_s > 0:
                pending.timer = loop.call_later(
                    self.window_s, self._flush, key, pending.id
                )
        future: asyncio.Future = loop.create_future()
        pending.queries.append(query)
        pending.modes.append(mode)
        pending.futures.append(future)
        if self.window_s <= 0 or len(pending.queries) >= self.max_batch:
            self._flush(key, pending.id)
        return await future

    async def run(self, fn):
        """Run a blocking callable on the dispatch lane (used for batch
        and update endpoints, which serialize with coalesced flushes)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._dispatcher, fn)

    # ------------------------------------------------------------------
    def _flush(self, key: BatchKey, pending_id: int) -> None:
        """Detach the forming batch and dispatch it (idempotent per
        batch: the timer and the max-batch path may both fire)."""
        pending = self._pending.get(key)
        if pending is None or pending.id != pending_id:
            return
        del self._pending[key]
        if pending.timer is not None:
            pending.timer.cancel()
        task = asyncio.get_running_loop().create_task(self._dispatch(key, pending))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _dispatch(self, use_cache: BatchKey, pending: _Pending) -> None:
        self._stats.record_batch(len(pending.queries))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._dispatcher,
                lambda: self.service.execute_batch(
                    pending.queries, use_cache=use_cache, mode=pending.modes
                ),
            )
        except asyncio.CancelledError:
            for future in pending.futures:
                if not future.done():
                    future.cancel()
            raise
        except BaseException as error:  # noqa: BLE001  # repro: allow[REP007] - batch isolation boundary: the failure is re-raised on the offending future(s)
            if len(pending.queries) == 1:
                future = pending.futures[0]
                if not future.done():
                    future.set_exception(error)
                return
            # A batch-level failure (one bad query aborts the whole
            # ``execute_batch``) must not contaminate coalesced siblings
            # from other clients: re-run each query alone so the
            # exception lands only on the offender's future and every
            # valid sibling still gets its real answer.
            self._stats.record_fallback()
            for query, mode, future in zip(
                pending.queries, pending.modes, pending.futures
            ):
                if future.done():
                    continue
                try:
                    result = await loop.run_in_executor(
                        self._dispatcher,
                        lambda q=query, m=mode: self.service.execute(
                            q, use_cache=use_cache, mode=m
                        ),
                    )
                except BaseException as solo_error:  # noqa: BLE001  # repro: allow[REP007] - delivered to the one offending future
                    if not future.done():
                        future.set_exception(solo_error)
                else:
                    if not future.done():
                        future.set_result(result)
            return
        for future, result in zip(pending.futures, results):
            if not future.done():
                future.set_result(result)

    # ------------------------------------------------------------------
    def pending_queries(self) -> int:
        """Queries currently held in forming batches (for /stats)."""
        return sum(len(p.queries) for p in self._pending.values())

    async def close(self) -> None:
        """Drain: flush every forming batch, wait for all dispatches.

        Every already-submitted query still gets its real answer — the
        graceful-shutdown contract — while new submissions are refused.
        """
        self._closing = True
        for key, pending in list(self._pending.items()):
            self._flush(key, pending.id)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
