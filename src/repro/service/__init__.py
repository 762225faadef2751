"""Query serving over sharded, persisted document collections.

The paper encodes one document and answers one query at a time; this
package turns that into a servable system:

* :class:`~repro.service.store.ShardedStore` — documents partitioned
  into persisted collection shards (memory-mapped, epoch-versioned);
* :class:`~repro.service.cache.LRUCache` — bounded caches for parsed
  plans and finished results;
* :class:`~repro.service.backend.ExecutionBackend` — how batches fan
  out over the shards: :class:`~repro.service.backend.SerialBackend`
  (in-process, the default) or
  :class:`~repro.service.fabric.FabricBackend` (shard-affine lanes:
  the calling thread plus long-lived workers returning ``materialize``
  payloads as raw rank bytes on their pipes), both with the same
  pre-ordered merge;
* :class:`~repro.service.service.QueryService` — the front door:
  ``execute`` / ``execute_batch`` with plan + result caching, and
  ``apply_updates`` for the live write path;
* :class:`~repro.service.updates.UpdateOp` — the write-path vocabulary
  (document add/remove/update plus subtree insert/delete/replace),
  with :func:`~repro.service.updates.parse_ops` for the JSON ops-file
  format.

CLI: ``python -m repro shard`` builds a store, ``python -m repro
serve-batch`` runs query batches against one, ``python -m repro
update`` applies an ops file to one.
"""

from repro.service.backend import (
    ExecutionBackend,
    SerialBackend,
    make_backend,
)
from repro.service.cache import LRUCache
from repro.service.executor import (
    ShardResult,
    ShardWorkerState,
    available_cpus,
    default_workers,
)
from repro.service.fabric import FabricBackend
from repro.service.service import QueryService, ServiceResult
from repro.service.store import ShardedStore
from repro.service.updates import UpdateOp, parse_ops

__all__ = [
    "LRUCache",
    "available_cpus",
    "ExecutionBackend",
    "FabricBackend",
    "SerialBackend",
    "ShardResult",
    "ShardWorkerState",
    "default_workers",
    "make_backend",
    "QueryService",
    "ServiceResult",
    "ShardedStore",
    "UpdateOp",
    "parse_ops",
]
