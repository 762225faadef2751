"""Admission control: per-client token buckets + a bounded queue.

Two independent gates stand between a connection and the query engine,
and both *shed* instead of queueing unboundedly — the grid-file lesson
of partitioned, bounded access applied to a request stream:

1. :class:`RateLimiter` — one token bucket per client, plus a per-peer
   *backstop* bucket.  The client key anchors on the peer address (the
   one identity a client cannot choose); the ``X-Client-Id`` header is
   **advisory** — it subdivides fairness among cooperating clients
   behind one peer but never escapes it, because ids are scoped to
   their peer and every admitted request is also charged against the
   peer's backstop bucket (``peer_factor`` × the per-client rate).
   Rotating ids therefore buys at most ``peer_factor`` × one client's
   rate, not a fresh burst per request.  A client over its rate gets
   **429** with a ``Retry-After`` computed from its own bucket, and
   cannot starve siblings behind the same peer: the backstop is only
   charged for requests the per-client gate already granted.  The
   table is bounded (least-recently-seen clients are evicted first,
   which forgives returning clients with a fresh burst — eviction
   churn cannot defeat the limiter, the peer backstop still binds).

2. :class:`AdmissionQueue` — a global cap on requests admitted but not
   yet answered (dispatch + serialization).  When
   the server is saturated the queue fills and new work gets **503** +
   ``Retry-After`` immediately — a cheap rejection the client can act
   on, instead of an unbounded backlog where every queued request's
   latency grows without limit.  This is what keeps p99 *bounded* under
   overload; ``benchmarks/e2e`` counts what it refused as
   ``server.shed_total`` and ``server.status_5xx``.

Both gates are plain locked objects (no asyncio coupling) so the unit
tests can drive them from threads directly.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional

from repro.errors import ReproError

__all__ = ["AdmissionQueue", "RateLimiter", "TokenBucket"]


class TokenBucket:
    """A continuous-refill token bucket.

    Starts full at ``burst`` tokens, refills at ``rate`` tokens/second
    up to ``burst``.  :meth:`try_acquire` either takes a token (returns
    ``0.0``) or returns the seconds until one will be available — the
    caller's ``Retry-After``.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ReproError("token bucket rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()

    def try_acquire(self, now: Optional[float] = None) -> float:
        """Take one token if available; else the wait in seconds."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now
        # The epsilon admits a client that waited *exactly* the advised
        # time (float refill arithmetic can land at 1.0 - 1e-15).
        if self._tokens >= 1.0 - 1e-9:
            self._tokens = max(0.0, self._tokens - 1.0)
            return 0.0
        return (1.0 - self._tokens) / self.rate


class RateLimiter:
    """Per-client token buckets + per-peer backstops behind one lock.

    ``rate <= 0`` disables limiting entirely (every ``admit`` returns
    ``0.0``) — the spelling the CLI uses for ``--rate 0``.  Both tables
    are LRUs capped at ``max_clients`` so an adversary cycling client
    ids cannot grow them without bound.

    When ``admit`` is given a ``peer``, a request must pass *two*
    buckets: the per-client one (keyed by whatever identity the caller
    chose — typically ``peer#header-id``) and the peer's backstop
    bucket at ``peer_factor`` × (rate, burst).  The backstop is charged
    only after the per-client gate grants, so one over-rate client id
    cannot drain its peer's shared allowance — but cycling fresh ids
    from one address is bounded by the backstop instead of earning a
    full burst per id.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        max_clients: int = 4096,
        peer_factor: float = 4.0,
    ) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.max_clients = int(max_clients)
        self.peer_factor = float(peer_factor)
        self._buckets: "OrderedDict[str, TokenBucket]" = OrderedDict()  # guarded-by: _lock
        self._peers: "OrderedDict[str, TokenBucket]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def _bucket(
        self,
        table: "OrderedDict[str, TokenBucket]",
        key: str,
        rate: float,
        burst: float,
    ) -> TokenBucket:
        bucket = table.get(key)
        if bucket is None:
            bucket = table[key] = TokenBucket(rate, burst)
            while len(table) > self.max_clients:
                table.popitem(last=False)
        else:
            table.move_to_end(key)
        return bucket

    def admit(self, client: str, peer: Optional[str] = None) -> float:
        """``0.0`` to admit, else seconds the client should back off."""
        if not self.enabled:
            return 0.0
        with self._lock:
            bucket = self._bucket(self._buckets, client, self.rate, self.burst)
            wait = bucket.try_acquire()
            if wait > 0 or peer is None or self.peer_factor <= 0:
                return wait
            backstop = self._bucket(
                self._peers,
                peer,
                self.rate * self.peer_factor,
                self.burst * self.peer_factor,
            )
            return backstop.try_acquire()

    def clients(self) -> int:
        with self._lock:
            return len(self._buckets)


def retry_after_header(wait_s: float) -> str:
    """``Retry-After`` is integral seconds; always advise at least 1."""
    return str(max(1, math.ceil(wait_s)))


class AdmissionQueue:
    """A bounded count of admitted-but-unanswered requests.

    ``try_enter`` admits while fewer than ``limit`` requests are in
    flight and returns ``False`` once the bound is hit — the caller
    sheds with 503 instead of queueing.  ``limit <= 0`` disables the
    bound.  ``retry_after_s`` is the advisory backoff handed to shed
    clients (half the bound's worth of requests at the recent service
    rate would be ideal; a fixed small constant keeps it predictable).
    """

    def __init__(self, limit: int, retry_after_s: float = 1.0) -> None:
        self.limit = int(limit)
        self.retry_after_s = float(retry_after_s)
        self._depth = 0  # guarded-by: _lock
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth

    def try_enter(self) -> bool:
        with self._lock:
            if self.limit > 0 and self._depth >= self.limit:
                return False
            self._depth += 1
            return True

    def leave(self) -> None:
        with self._lock:
            if self._depth <= 0:  # pragma: no cover - guards misuse
                raise ReproError("admission queue leave() without enter()")
            self._depth -= 1

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"depth": self._depth, "limit": self.limit}
