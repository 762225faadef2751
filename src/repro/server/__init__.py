"""The network front door: an asyncio HTTP/JSON server for the service.

The library answered queries in-process (PRs 1–5); this package serves
*traffic*:

* :class:`~repro.server.app.QueryServer` — stdlib-asyncio HTTP/1.1
  endpoint in front of a :class:`~repro.service.service.QueryService`
  (``/query``, ``/batch``, ``/update``, ``/health``, ``/stats``), each
  request one service call on a single dispatch lane off the event loop;
* :class:`~repro.server.admission.RateLimiter` /
  :class:`~repro.server.admission.AdmissionQueue` — per-client token
  buckets and a bounded in-flight cap that shed with 429/503 +
  ``Retry-After`` instead of queueing unboundedly;
* :class:`~repro.server.stats.ServerStats` — request counters and
  p50/p99 latency histograms behind ``/stats``;
* :mod:`~repro.server.wire` — response bodies, ranks formatted in bulk.

CLI: ``python -m repro serve store --port 8080``.
"""

from repro.server.admission import AdmissionQueue, RateLimiter, TokenBucket
from repro.server.app import QueryServer, ServerConfig, ThreadedServer
from repro.server.stats import ServerStats
from repro.server.wire import result_to_payload

__all__ = [
    "AdmissionQueue",
    "QueryServer",
    "RateLimiter",
    "ServerConfig",
    "ServerStats",
    "ThreadedServer",
    "TokenBucket",
    "result_to_payload",
]
