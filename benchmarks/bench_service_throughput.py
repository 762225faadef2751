"""Query-service throughput: shard fan-out × worker count × cache state.

Measures queries/sec of :class:`repro.service.QueryService` on a
multi-shard XMark batch, sweeping

* fabric worker processes 0 (serial) → 4, cold result cache (the
  fan-out win),
* cold vs warm result cache at 4 workers (the caching win),
* serial scalar execution as the pre-service baseline — single
  collection path, per-node loops, nothing cached.

The summary asserts the service contract: **≥ 3×** queries/sec for
4 workers + warm caches over serial cold-cache scalar execution.
("Cold" means the service's plan/result caches are cleared; OS page
cache and fabric workers are warmed before timing, as any long-running
service would be.)  A ``fabric:N`` row needs N usable CPUs: on a
narrower machine it skips with that reason instead of timing N
processes taking turns on one core, and every row records the machine
shape it ran on.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py --benchmark-only
"""

import time

import pytest

from repro.harness.reporting import format_table
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore, available_cpus
from repro.service.backend import parse_backend_spec

#: Documents in the store / shards it is split into.
DOCUMENTS = 8
SHARDS = 4
SIZE_MB = 0.11

#: The batch: descendant-heavy staircase territory plus predicate,
#: positional, union, and value-comparison queries.
BATCH = (
    "/descendant::open_auction/descendant::increase",
    "/descendant::description/descendant::keyword",
    "/descendant::item/descendant::text/descendant::keyword",
    "/descendant::increase/ancestor::bidder",
    "//open_auction[bidder]/seller",
    "//open_auction/bidder[1]/increase",
    "//seller | //buyer",
    '//item[starts-with(location, "A")]',
)

#: (label, engine, backend spec, warm-result-cache) configurations.
CONFIGS = (
    ("serial-cold-scalar", "scalar", "serial", False),
    ("w4-cold-scalar", "scalar", "fabric:4", False),
    ("serial-cold-vectorized", "vectorized", "serial", False),
    ("w1-cold-vectorized", "vectorized", "fabric:1", False),
    ("w2-cold-vectorized", "vectorized", "fabric:2", False),
    ("w4-cold-vectorized", "vectorized", "fabric:4", False),
    ("w4-warm-vectorized", "vectorized", "fabric:4", True),
)


def _too_narrow(backend):
    """Why this machine cannot time ``backend`` honestly, or ``None``."""
    _, workers = parse_backend_spec(backend)
    cpus = available_cpus()
    if workers and workers > cpus:
        return f"{backend} needs {workers} CPUs; this machine has {cpus}"
    return None


@pytest.fixture(scope="module")
def service_store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("service-bench") / "store")
    return ShardedStore.build(directory, get_forest(DOCUMENTS, SIZE_MB), shards=SHARDS)


def _measure_qps(store, engine, backend, warm, rounds=3, batch=BATCH):
    """Best-of-``rounds`` queries/sec for one configuration."""
    with QueryService(store, engine=engine, backend=backend) as service:
        # Touch every shard once: spin up the workers, mmap the columns.
        service.execute_batch(batch, use_cache=warm)
        best = float("inf")
        for _ in range(rounds):
            if not warm:
                service.clear_caches()
            started = time.perf_counter()
            results = service.execute_batch(batch, use_cache=warm)
            best = min(best, time.perf_counter() - started)
        total = sum(r.total for r in results)
    return len(batch) / best, best, total


@pytest.mark.parametrize(
    "label,engine,backend,warm", CONFIGS, ids=[c[0] for c in CONFIGS]
)
def test_batch_config(benchmark, service_store, label, engine, backend, warm):
    """One pytest-benchmark line item per service configuration."""
    reason = _too_narrow(backend)
    if reason:
        pytest.skip(reason)
    with QueryService(service_store, engine=engine, backend=backend) as service:
        service.execute_batch(BATCH, use_cache=warm)

        def run():
            if not warm:
                service.clear_caches()
            return service.execute_batch(BATCH, use_cache=warm)

        results = benchmark(run)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["warm_cache"] = warm
    benchmark.extra_info["available_cpus"] = available_cpus()
    benchmark.extra_info["results"] = int(sum(r.total for r in results))


def test_throughput_summary(service_store, emit, benchmark):
    """Sweep every configuration once; assert the ≥ 3× service contract."""
    rows = []
    qps_by_label = {}

    def run():
        rows.clear()
        qps_by_label.clear()
        for label, engine, backend, warm in CONFIGS:
            reason = _too_narrow(backend)
            if reason:
                rows.append({"config": label, "batch_ms": f"skipped: {reason}"})
                continue
            qps, best_s, total = _measure_qps(service_store, engine, backend, warm)
            qps_by_label[label] = qps
            rows.append(
                {
                    "config": label,
                    "batch_ms": f"{best_s * 1e3:.2f}",
                    "queries_per_s": f"{qps:,.0f}",
                    "results": total,
                }
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    nodes = sum(entry["nodes"] for entry in service_store.describe()["shards"])
    warm_ran = "w4-warm-vectorized" in qps_by_label
    note = () if warm_ran else ("3x warm-cache contract not asserted: its row was skipped",)
    emit(
        f"service throughput — {DOCUMENTS} documents / {SHARDS} shards, "
        f"{nodes:,} nodes, batch of {len(BATCH)} queries",
        format_table(rows),
        *note,
    )
    # The drift metric CI compares against the committed baseline must
    # be machine-portable: the warm-cache ratio below swings orders of
    # magnitude with CPU speed (a cache hit is ~constant; the cold
    # denominator isn't), so the recorded ratio is the *cold* engine
    # speedup, whose numerator and denominator scale together.
    cold_speedup = (
        qps_by_label["serial-cold-vectorized"] / qps_by_label["serial-cold-scalar"]
    )
    benchmark.extra_info["contract_min_cold_engine_speedup"] = round(
        cold_speedup, 2
    )
    benchmark.extra_info["available_cpus"] = available_cpus()
    if warm_ran:
        contract = (
            qps_by_label["w4-warm-vectorized"] / qps_by_label["serial-cold-scalar"]
        )
        assert contract >= 3.0, (
            "4 workers + warm caches below the 3x contract over serial "
            f"cold-cache scalar execution: {contract:.1f}x"
        )
