"""Server load benchmarks: coalescing throughput + overload backpressure.

Two contracts guard the async front door (:mod:`repro.server`), both
driven by a closed-loop load generator — real HTTP clients on
persistent connections, each issuing its next request only after the
previous answer arrives:

* **coalescing ≥ 2×** — with a ~4 ms coalescing window, aggregate
  throughput over a shared-prefix query pool is at least twice the
  one-request-per-call baseline (window 0).  The speedup is
  architectural, not scheduling luck: coalesced batches reach
  ``execute_batch``'s operator-prefix trie, which evaluates the shared
  ``//open_auction/bidder`` / ``//person/profile`` prefixes once per
  batch, while per-request calls take the single-task path that never
  sees the trie.
* **bounded p99 under overload** — at 4× sustained overload (16
  closed-loop clients against an admission bound of 4) the server sheds
  with **503** + ``Retry-After`` instead of queueing, so the p99 of
  *admitted* requests does not grow as the burst persists: the
  second-half p99 stays within 3× of the first-half p99, and shed
  responses are counted to prove backpressure actually engaged.

Every 200 response's total is checked against a direct
``QueryService.execute`` answer, so the throughput being bought never
costs correctness.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_server_load.py --benchmark-only
"""

import contextlib
import http.client
import json
import threading
import time

import pytest

from repro.harness.reporting import format_table
from repro.harness.workloads import get_forest
from repro.server import ServerConfig, ThreadedServer
from repro.service import QueryService, ShardedStore

DOCUMENTS = 6
SIZE_MB = 0.3
SHARDS = 2

#: Shared-prefix pool: two operator-prefix families the coalescer's
#: batches hand to the executor trie.  Concurrent clients start at
#: different offsets, so a coalesced batch holds *distinct* queries
#: sharing a prefix — the case the trie accelerates.
POOL = (
    "//open_auction/bidder/increase",
    "//open_auction/bidder/personref",
    "//open_auction/bidder/date",
    "//open_auction/bidder/time",
    "//person/profile/interest",
    "//person/profile/education",
    "//person/profile/gender",
    "//person/profile/business",
)

CLIENTS = 8
REQUESTS_EACH = 30

OVERLOAD_CLIENTS = 16
OVERLOAD_LIMIT = 4  # 16 closed-loop clients vs bound 4 = 4x overload
OVERLOAD_REQUESTS_EACH = 40


@pytest.fixture(scope="module")
def load_store_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("server-load") / "store")
    ShardedStore.build(directory, get_forest(DOCUMENTS, SIZE_MB), shards=SHARDS)
    return directory


@pytest.fixture(scope="module")
def expected_totals(load_store_dir):
    """Ground truth per query, from a direct (no-network) service."""
    with QueryService(ShardedStore.open(load_store_dir), backend="serial") as service:
        return {
            query: service.execute(query, mode="count", use_cache=False).total
            for query in POOL
        }


@contextlib.contextmanager
def load_server(store_dir, **config_kw):
    """A fresh service + server so phases never share caches."""
    service = QueryService(ShardedStore.open(store_dir), backend="serial")
    server = ThreadedServer(
        service, ServerConfig(port=0, **config_kw)
    ).start()
    try:
        yield server
    finally:
        server.stop()
        service.close()


def run_closed_loop(port, clients, requests_each, expected):
    """Drive ``clients`` closed-loop workers; return samples + wall time.

    Each sample is ``(completed_at, status, latency_s)``.  Workers cycle
    the pool from distinct offsets, pause briefly on a 503 (honouring
    backpressure the way a well-behaved client would, without waiting
    out the full advisory ``Retry-After``), and verify every 200 total.
    """
    samples = [[] for _ in range(clients)]
    errors = []
    barrier = threading.Barrier(clients + 1)

    def worker(idx):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            barrier.wait()
            for k in range(requests_each):
                query = POOL[(idx + k) % len(POOL)]
                body = json.dumps(
                    {"query": query, "mode": "count", "use_cache": False}
                )
                started = time.perf_counter()
                conn.request(
                    "POST", "/query", body=body,
                    headers={"X-Client-Id": f"client-{idx}"},
                )
                response = conn.getresponse()
                payload = json.loads(response.read())
                now = time.perf_counter()
                samples[idx].append((now, response.status, now - started))
                if response.status == 200:
                    if payload["total"] != expected[query]:
                        raise AssertionError(
                            f"{query}: served {payload['total']}, "
                            f"expected {expected[query]}"
                        )
                elif response.status == 503:
                    time.sleep(0.002)
                else:
                    raise AssertionError(
                        f"unexpected status {response.status}: {payload}"
                    )
        except Exception as error:  # pragma: no cover - failure reporting
            errors.append(error)
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    assert not errors, errors[0]
    flat = sorted(s for per_client in samples for s in per_client)
    return flat, elapsed


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, int(round(len(ordered) * p / 100.0)))
    return ordered[rank - 1]


def summarize(samples, elapsed):
    ok = [latency for _, status, latency in samples if status == 200]
    shed = sum(1 for _, status, _ in samples if status == 503)
    return {
        "ok": len(ok),
        "shed": shed,
        "qps": len(ok) / elapsed if elapsed else 0.0,
        "p50_ms": percentile(ok, 50) * 1e3,
        "p99_ms": percentile(ok, 99) * 1e3,
    }


def server_stats(port):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


# ----------------------------------------------------------------------
def test_coalescing_throughput(load_store_dir, expected_totals, emit, benchmark):
    """The ≥2× coalesced-throughput contract."""
    rows = []
    outcome = {}

    def run():
        rows.clear()
        phases = (
            ("per-request", {"coalesce_window_s": 0.0}),
            ("coalesced", {"coalesce_window_s": 0.004, "max_batch": 64}),
        )
        for label, config in phases:
            with load_server(load_store_dir, **config) as server:
                # one warm pass per phase (mmaps, parser) before timing
                run_closed_loop(server.port, 2, len(POOL), expected_totals)
                samples, elapsed = run_closed_loop(
                    server.port, CLIENTS, REQUESTS_EACH, expected_totals
                )
                summary = summarize(samples, elapsed)
                summary["largest_batch"] = server_stats(server.port)[
                    "server"]["coalescer"]["largest_batch"]
                outcome[label] = summary
                rows.append({
                    "phase": label,
                    "qps": f"{summary['qps']:.0f}",
                    "p50_ms": f"{summary['p50_ms']:.2f}",
                    "p99_ms": f"{summary['p99_ms']:.2f}",
                    "largest_batch": summary["largest_batch"],
                })
        outcome["speedup"] = (
            outcome["coalesced"]["qps"] / outcome["per-request"]["qps"]
        )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["contract_min_coalesce_speedup"] = round(
        outcome["speedup"], 2
    )
    benchmark.extra_info["per_request_qps"] = round(
        outcome["per-request"]["qps"], 1
    )
    benchmark.extra_info["coalesced_qps"] = round(
        outcome["coalesced"]["qps"], 1
    )
    emit(
        f"server throughput — {CLIENTS} closed-loop clients x "
        f"{REQUESTS_EACH} requests, {len(POOL)} shared-prefix queries, "
        f"{DOCUMENTS} documents / {SHARDS} shards",
        format_table(rows),
        f"coalescing speedup: {outcome['speedup']:.2f}x (contract: >= 2.0x)",
    )
    assert outcome["coalesced"]["largest_batch"] > 1, (
        "coalescer never merged concurrent requests"
    )
    assert outcome["speedup"] >= 2.0, (
        f"coalescing only {outcome['speedup']:.2f}x over per-request "
        "(contract: >= 2x)"
    )


# ----------------------------------------------------------------------
def test_overload_backpressure(load_store_dir, expected_totals, emit, benchmark):
    """The bounded-p99-under-overload contract."""
    rows = []
    outcome = {}

    def run():
        rows.clear()
        with load_server(
            load_store_dir,
            coalesce_window_s=0.004,
            max_batch=64,
            queue_limit=OVERLOAD_LIMIT,
            retry_after_s=0.05,
        ) as server:
            run_closed_loop(server.port, 2, len(POOL), expected_totals)
            samples, elapsed = run_closed_loop(
                server.port, OVERLOAD_CLIENTS, OVERLOAD_REQUESTS_EACH,
                expected_totals,
            )
            stats = server_stats(server.port)
        summary = summarize(samples, elapsed)
        ok = [(at, latency) for at, status, latency in samples if status == 200]
        half = len(ok) // 2
        early = percentile([latency for _, latency in ok[:half]], 99)
        late = percentile([latency for _, latency in ok[half:]], 99)
        outcome.update(summary)
        outcome["p99_growth"] = late / early if early else 1.0
        outcome["queue_full_sheds"] = stats["server"]["shed"]["queue_full"]
        for label, p99 in (("first half", early), ("second half", late)):
            rows.append({
                "window": label,
                "p99_ms": f"{p99 * 1e3:.2f}",
            })
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    # Growth below 1.0 is measurement noise, not headroom — clamp so the
    # committed baseline doesn't demand impossible luck from CI runners.
    benchmark.extra_info["contract_max_overload_p99_growth"] = round(
        max(1.0, outcome["p99_growth"]), 2
    )
    benchmark.extra_info["overload_shed"] = outcome["shed"]
    benchmark.extra_info["overload_ok"] = outcome["ok"]
    emit(
        f"overload — {OVERLOAD_CLIENTS} closed-loop clients vs admission "
        f"bound {OVERLOAD_LIMIT} (4x), {OVERLOAD_REQUESTS_EACH} requests "
        "each",
        format_table(rows),
        f"served {outcome['ok']}, shed {outcome['shed']} (503), "
        f"p99 growth {outcome['p99_growth']:.2f}x (contract: <= 3x)",
    )
    assert outcome["shed"] > 0, (
        "4x overload produced no 503s — the admission bound never engaged"
    )
    assert outcome["queue_full_sheds"] == outcome["shed"]
    assert outcome["p99_growth"] <= 3.0, (
        f"admitted-request p99 grew {outcome['p99_growth']:.2f}x under "
        "sustained overload (contract: bounded, <= 3x)"
    )
