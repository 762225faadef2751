"""The server's observability surface: request counters + latency.

One :class:`ServerStats` lives per :class:`~repro.server.app.QueryServer`
and is written from the event loop while ``/stats`` handlers, tests and
``benchmarks/e2e`` read it concurrently — every method takes the
internal lock, and latency quantiles come from the bounded
:class:`~repro.counters.LatencyHistogram` rather than per-request
samples, so the surface stays O(1) memory under any traffic.

The ``/stats`` payload stitches three layers together:

* **server** — uptime, per-endpoint request/latency histograms, status
  code counts, open connections, ``/query`` dispatches;
* **admission** — queue depth/limit and shed counts (429 rate-limit,
  503 queue-full, 503 draining);
* **service** — the :meth:`~repro.service.service.QueryService.stats_snapshot`
  consistent view (epoch, cache hit rates, planner/engine/workers).
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from repro.counters import LatencyHistogram

__all__ = ["ServerStats"]


class ServerStats:
    """Thread-safe counters + latency histograms for one server."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started = time.monotonic()  # immutable after publication
        self._histograms: Dict[str, LatencyHistogram] = {}  # guarded-by: _lock
        self._status_counts: Dict[int, int] = {}  # guarded-by: _lock
        self._requests = 0  # guarded-by: _lock
        self._shed: Dict[str, int] = {  # guarded-by: _lock
            "rate_limited": 0,
            "queue_full": 0,
            "draining": 0,
        }
        self._queries = 0  # guarded-by: _lock
        self._connections_opened = 0  # guarded-by: _lock
        self._connections_open = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Recording (event loop side)
    # ------------------------------------------------------------------
    def record_response(self, endpoint: str, status: int, seconds: float) -> None:
        """Account one finished request (any status, shed or served)."""
        with self._lock:
            self._requests += 1
            self._status_counts[status] = self._status_counts.get(status, 0) + 1
            histogram = self._histograms.get(endpoint)
            if histogram is None:
                histogram = self._histograms[endpoint] = LatencyHistogram()
        # The histogram has its own lock; no need to nest it here.
        histogram.observe(seconds)

    def record_shed(self, kind: str) -> None:
        """Count one load-shedding rejection (``rate_limited`` 429,
        ``queue_full`` / ``draining`` 503)."""
        with self._lock:
            self._shed[kind] = self._shed.get(kind, 0) + 1

    def record_query(self) -> None:
        """Count one ``/query`` handed to the dispatch lane."""
        with self._lock:
            self._queries += 1

    def connection_opened(self) -> None:
        with self._lock:
            self._connections_opened += 1
            self._connections_open += 1

    def connection_closed(self) -> None:
        with self._lock:
            self._connections_open -= 1

    # ------------------------------------------------------------------
    # Reading (/stats, tests, bench)
    # ------------------------------------------------------------------
    def shed_total(self) -> int:
        with self._lock:
            return sum(self._shed.values())

    def snapshot(self) -> dict:
        """The server-layer slice of the ``/stats`` payload."""
        with self._lock:
            histograms = dict(self._histograms)
            payload = {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "requests": self._requests,
                "status": {
                    str(code): n
                    for code, n in sorted(self._status_counts.items())
                },
                "shed": dict(self._shed),
                "connections": {
                    "opened": self._connections_opened,
                    "open": self._connections_open,
                },
                # benchmarks/e2e reads these keys: each /query is one
                # dispatch, a batch of one.  ROADMAP item 7 retires them.
                "coalescer": {
                    "batches": self._queries,
                    "queries": self._queries,
                    "fallbacks": 0,
                },
            }
        payload["latency"] = {
            endpoint: histogram.snapshot()
            for endpoint, histogram in sorted(histograms.items())
        }
        return payload
