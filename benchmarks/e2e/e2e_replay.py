"""The traced replay: where an in-process request's time goes.

The first requests of client 0's sequence are run again, single-threaded
and in-process, against a fresh store opened the way the server child
opens it.  The replay walks the same public calls the HTTP handlers make
— ``json.loads`` + ``parse_with_cache``, ``execute_batch`` or
``apply_updates``, ``result_to_payload`` + ``json.dumps`` — and records
a span around each.  Two public methods are wrapped for the duration so
that the time below ``execute_batch`` splits further:
``backend.run_batch`` (dispatch, IPC, merge) and
``ShardWorkerState.run_group`` (the kernels).  Nothing else inside the
program is touched.

What the replay cannot see is reported as such: the socket, the event
loop, the coalesce window and the thread hop are the difference between
the live median and the replay median (``trace.live_residual_ms``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Sequence, Tuple

from repro.server import result_to_payload
from repro.service import QueryService, ShardedStore, ShardWorkerState, parse_ops
from repro.xpath.evaluator import parse_with_cache
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import compile_plan

from e2e_metrics import Tracer, percentile, time_by_name
from e2e_oracle import Oracle
from e2e_workloads import (
    S01,
    S02,
    SHARDS,
    PoolQuery,
    Request,
    UpdateTarget,
    Workload,
    warmup_requests,
    warmup_updates,
)

#: ``core.skipped_share`` is read off the paper's own Q1 and Q2 (its
#: Figure 11(c)), whatever the workload's pool: a scalar-engine analyze
#: of a whole pool costs seconds the driver's time cap does not have.
SKIP_QUERIES = (S01, S02)

#: The per-layer metrics only the traced replay can give.
TRACED_METRICS = (
    "server.decode_ms",
    "server.encode_ms",
    "service.run_batch_ms",
    "service.kernel_ms",
    "service.dispatch_merge_ms",
    "service.cache_hit_ms",
    "xpath.parse_ms",
    "xpath.plan_ms",
    "xpath.compile_ms",
    "xpath.op.step_ms",
    "xpath.op.pred_ms",
    "xpath.op.pos_ms",
    "xpath.rows_examined_per_result",
    "core.skipped_share",
    "encoding.blocks_decoded_per_request",
    "encoding.bytes_decoded_per_request",
    "store.parse_ops_ms",
    "store.commit_ms",
    "store.bytes_written_per_update",
    "store.reopen_ms",
    "trace.coverage",
    "trace.overhead_ratio",
    "trace.live_residual_ms",
)


def _queries(body: dict) -> List[str]:
    """The queries of a ``/batch`` or ``/query`` request body."""
    return body["queries"] if "queries" in body else [body["query"]]


class _Replayer:
    """One service plus the span-recording walk over a request."""

    def __init__(self, service: QueryService, oracle: Oracle):
        self.service = service
        self.oracle = oracle
        self.failed = 0
        self.bytes_written: List[int] = []

    def run(self, request: Request, tracer: Tracer, index: int) -> int:
        """Replay one request; returns its duration in ns."""
        tracer.new_trace()
        started = time.perf_counter_ns()
        with tracer.span("request", kind=request.kind, index=index):
            if request.kind == "read":
                payload = self._read(request, tracer)
            else:
                payload = self._update(request, tracer)
        duration = time.perf_counter_ns() - started
        if request.kind == "read" and not self.oracle.check_response(
            payload, request.checks
        ):
            self.failed += 1
        return duration

    def _read(self, request: Request, tracer: Tracer) -> dict:
        service = self.service
        with tracer.span("server.decode"):
            body = json.loads(request.body)
            queries = _queries(body)
            for query in queries:
                parse_with_cache(query, service.plan_cache)
        with tracer.span("service.execute", queries=len(queries)):
            results = service.execute_batch(
                queries, use_cache=body["use_cache"], mode=body["mode"]
            )
        with tracer.span("server.encode") as span:
            payloads = [result_to_payload(r) for r in results]
            payload = {"results": payloads} if "queries" in body else payloads[0]
            encoded = json.dumps(payload).encode("utf-8")
            if span is not None:
                span["attrs"]["bytes"] = len(encoded)
        return payload

    def _update(self, request: Request, tracer: Tracer) -> dict:
        directory = self.service.store.directory
        before = set(os.listdir(directory))
        with tracer.span("server.decode"):
            body = json.loads(request.body)
        with tracer.span("store.parse_ops"):
            ops = parse_ops(body["ops"])
        with tracer.span("store.commit"):
            summary = self.service.apply_updates(ops)
        with tracer.span("server.encode"):
            json.dumps({k: summary[k] for k in ("epoch", "applied")})
        written = os.path.getsize(os.path.join(directory, "manifest.json"))
        for name in set(os.listdir(directory)) - before:
            written += os.path.getsize(os.path.join(directory, name))
        self.bytes_written.append(written)
        return summary


def _wrap(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return traced


def _kernel_ns(workload: Workload, requests: Sequence[Request], store_dir: str) -> int:
    """Σ ``ShardWorkerState.run_group`` over the read requests, on a
    warmed serial backend in this process (worker processes keep their
    kernel time to themselves)."""
    tracer = Tracer(enabled=False)
    original = ShardWorkerState.run_group
    ShardWorkerState.run_group = _wrap(tracer, "service.kernel", original)
    try:
        with QueryService(ShardedStore.open(store_dir), backend="serial") as service:

            def execute(request: Request) -> None:
                body = json.loads(request.body)
                service.execute_batch(_queries(body), use_cache=False, mode=body["mode"])

            for request in warmup_requests(workload):
                execute(request)
            tracer.enabled = True
            for request in requests:
                if request.kind == "read":
                    execute(request)
    finally:
        ShardWorkerState.run_group = original
    return sum(s["end_ns"] - s["start_ns"] for s in tracer.spans)


def _per_request(costs: Dict[str, float], reads: Sequence[Request]) -> float:
    """Mean over the read requests of the summed per-query cost."""
    return sum(costs[c.canonical] for r in reads for c in r.checks) / len(reads)


def _timed(tracer: Tracer, name: str, query: str, fn):
    """``fn()`` under a span; returns ``(result, milliseconds)``."""
    with tracer.span(name, query=query):
        started = time.perf_counter_ns()
        result = fn()
        return result, (time.perf_counter_ns() - started) / 1e6


def _cold_costs(
    service: QueryService, pool: Sequence[PoolQuery], tracer: Tracer
) -> Dict[str, Dict[str, float]]:
    """Per pool entry (keyed by its canonical spelling, measured on an
    instance as sent): cold parse, plan and compile in ms, per-operator
    time and rows of an observed run, and a result-cache hit."""
    out: Dict[str, Dict[str, float]] = {
        k: {}
        for k in ("parse", "plan", "compile", "step", "pred", "pos", "hit", "rows", "results")
    }
    tracer.new_trace()
    for entry in pool:
        key, query = entry.canonical, entry.instance(1)
        _, out["parse"][key] = _timed(tracer, "xpath.parse", query, lambda: parse_xpath(query))
        service.clear_caches()
        plan, out["plan"][key] = _timed(tracer, "xpath.plan", query, lambda: service.explain(query))
        _, out["compile"][key] = _timed(tracer, "xpath.compile", query, lambda: compile_plan(plan))
        with tracer.span("xpath.analyze", query=query):
            result, _, observations = service.analyze(query)
        by_kind = {"step": 0, "pred": 0, "pos": 0}
        rows = 0
        for observation in observations:
            for step in observation.steps:
                by_kind[step.signature[0]] += step.ns
                rows += step.n_in
        for kind, ns in by_kind.items():
            out[kind][key] = ns / 1e6
        out["rows"][key] = rows
        out["results"][key] = result.total
        service.execute(query, use_cache=True)
        hit, out["hit"][key] = _timed(
            tracer, "service.cache_hit", query, lambda: service.execute(query, use_cache=True)
        )
        if not hit.from_cache:
            raise RuntimeError(f"{query!r}: second use_cache=True execute was not a hit")
    return out


def traced_replay(
    workload: Workload,
    forest,
    requests: Sequence[Request],
    oracle: Oracle,
    scratch: str,
    trace_path: str,
    targets: Sequence[UpdateTarget] = (),
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Run the replay; returns the traced per-layer metrics and the
    ledger (self time per span name, ms per replayed request)."""
    store_dir = os.path.join(scratch, "replay-store")
    ShardedStore.build(store_dir, forest, shards=SHARDS, compression=workload.compression)
    started = time.perf_counter()
    store = ShardedStore.open(store_dir)
    reopen_ms = (time.perf_counter() - started) * 1e3

    tracer = Tracer()
    off = Tracer(enabled=False)
    serial = workload.backend == "serial"
    original_group = ShardWorkerState.run_group
    with QueryService(store, backend=workload.backend) as service:
        replayer = _Replayer(service, oracle)

        def one_pass(recorder: Tracer) -> List[int]:
            service.result_cache.clear()
            return [replayer.run(r, recorder, i) for i, r in enumerate(requests)]

        for request in warmup_requests(workload, 1) + warmup_updates(targets):
            replayer.run(request, off, -1)
        # Without spans, with, without: the feedback loop keeps re-planning
        # as it learns, so later passes run faster; the two plain passes
        # bracket the traced one and their mean cancels a steady drift.
        plain = one_pass(off)
        service.backend.run_batch = _wrap(tracer, "service.run_batch", service.backend.run_batch)
        if serial:
            ShardWorkerState.run_group = _wrap(tracer, "service.kernel", original_group)
        decoded_before = _decoded(store)
        try:
            traced = one_pass(tracer)
        finally:
            ShardWorkerState.run_group = original_group
            del service.backend.run_batch
        decoded_after = _decoded(store)
        request_spans = list(tracer.spans)
        plain_again = one_pass(off)
        cold = _cold_costs(service, workload.pool, tracer)
        skipped = scanned = 0
        with tracer.span("core.skip_analyze"):
            for query in SKIP_QUERIES:
                _, _, observations = service.analyze(query, engine="scalar")
                skipped += sum(o.skipped for o in observations)
                scanned += sum(o.scanned for o in observations)
    tracer.write(trace_path)

    n = len(requests)
    reads = [r for r in requests if r.kind == "read"]
    updates = n - len(reads)
    own = time_by_name(request_spans, own=True)
    full = time_by_name(request_spans, own=False)
    kernel_ns = (
        full.get("service.kernel", 0) if serial else _kernel_ns(workload, requests, store_dir)
    )

    def per_request(ns: float) -> float:
        return ns / n / 1e6

    def per_update(ns: float) -> float:
        return ns / updates / 1e6 if updates else 0.0

    read_ns = [ns for ns, r in zip(plain, requests) if r.kind == "read"]
    metrics = {
        "store.reopen_ms": reopen_ms,
        "server.decode_ms": per_request(full.get("server.decode", 0)),
        "server.encode_ms": per_request(full.get("server.encode", 0)),
        "service.run_batch_ms": per_request(full.get("service.run_batch", 0)),
        "service.kernel_ms": per_request(kernel_ns),
        "service.dispatch_merge_ms": per_request(full.get("service.run_batch", 0) - kernel_ns),
        "service.cache_hit_ms": sum(cold["hit"].values()) / len(cold["hit"]),
        "xpath.parse_ms": _per_request(cold["parse"], reads),
        "xpath.plan_ms": _per_request(cold["plan"], reads),
        "xpath.compile_ms": _per_request(cold["compile"], reads),
        "xpath.op.step_ms": _per_request(cold["step"], reads),
        "xpath.op.pred_ms": _per_request(cold["pred"], reads),
        "xpath.op.pos_ms": _per_request(cold["pos"], reads),
        "xpath.rows_examined_per_result": _per_request(cold["rows"], reads)
        / _per_request(cold["results"], reads),
        "core.skipped_share": skipped / max(1, skipped + scanned),
        "encoding.blocks_decoded_per_request": (decoded_after[0] - decoded_before[0]) / n,
        "encoding.bytes_decoded_per_request": (decoded_after[1] - decoded_before[1]) / n,
        "store.parse_ops_ms": per_update(full.get("store.parse_ops", 0)),
        "store.commit_ms": per_update(full.get("store.commit", 0)),
        "store.bytes_written_per_update": (
            sum(replayer.bytes_written) / len(replayer.bytes_written)
            if replayer.bytes_written
            else 0.0
        ),
        "trace.coverage": (sum(own.values()) - own["request"]) / full["request"],
        "trace.overhead_ratio": 2 * sum(traced) / (sum(plain) + sum(plain_again)),
        # Filled in by the caller, which knows the live median.
        "trace.live_residual_ms": percentile(read_ns, 50) / 1e6,
    }
    if set(metrics) != set(TRACED_METRICS):
        raise RuntimeError("TRACED_METRICS and traced_replay() disagree")
    ledger = {name: per_request(ns) for name, ns in sorted(own.items())}
    ledger["failed"] = float(replayer.failed)
    return metrics, ledger


def _decoded(store: ShardedStore) -> tuple:
    """(blocks, bytes) decoded so far, from ``ShardedStore.info()``."""
    blocks = size = 0
    for shard in store.info()["shards"]:
        decoded = shard.get("decoded")
        if decoded:
            blocks += decoded["blocks"]
            size += decoded["bytes"]
    return blocks, size
