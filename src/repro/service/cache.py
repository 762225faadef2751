"""Bounded LRU caching for the query service.

Two caches keep the service's hot path away from the parser and the
engines entirely:

* the **plan cache** maps query text to its parsed AST, so each distinct
  query is lexed/parsed once per service lifetime;
* the **result cache** maps ``(store epoch, query, scope, mode)`` to a
  finished :class:`~repro.service.service.ServiceResult`
  payload — the result mode is part of the key, so a ``count`` answer
  can never satisfy a ``materialize`` lookup.  The epoch component is
  the staleness guard: replacing a shard bumps the store epoch, so
  every key minted before the replacement can never be looked up again
  — stale entries simply age out of the LRU order.

The cache is a plain ``OrderedDict`` under a lock: the service fans work
out to *processes* (which never share this memory), so the lock only has
to cover concurrent use of one service object from multiple threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable

from repro.errors import ReproError

__all__ = ["LRUCache"]


class LRUCache:
    """A thread-safe, bounded, least-recently-used mapping.

    ``get`` refreshes recency and counts hits/misses; ``put`` evicts the
    coldest entry once ``capacity`` is exceeded.  A capacity of zero
    disables the cache (every ``get`` misses, ``put`` is a no-op), which
    gives callers a uniform "caching off" spelling.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ReproError("cache capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._entries[key]
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        # Reading the OrderedDict while ``put`` evicts from another
        # thread is a data race; even "just a read" takes the lock.
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def clear(self) -> None:
        """Drop every entry.  The hit/miss counters are lifetime-
        monotonic — every commit clears the result cache, and ``/stats``
        must still give a hit ratio across commits; a reader that wants
        a window takes the difference of two :meth:`info` snapshots."""
        with self._lock:
            self._entries.clear()

    def info(self) -> Dict[str, int]:
        """Occupancy and hit statistics (for ``serve-batch --stats``)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.info()
        return (
            f"LRUCache(size={stats['size']}, capacity={self.capacity}, "
            f"hits={stats['hits']}, misses={stats['misses']})"
        )
