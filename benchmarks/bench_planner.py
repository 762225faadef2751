"""Planner benchmarks: prefix-sharing throughput and no-regression.

Two contracts guard the cost-based planner (`repro.xpath.planner` plus
the executor's step-prefix trie):

* **batch ≥ 2×** — on a prefix-heavy XMark batch (12 queries sharing
  2–3-step prefixes) the planned path answers at least twice the
  queries/sec of the unplanned path on the same store, even with a cold
  prefix cache (the sharing happens *within* the batch);
* **single-query ≤ +10 %** — automatic planning (rewrites, pushdown,
  skip-mode choice) is never more than 10 % slower than the unplanned
  path on any single query of the suite, either engine.  A planner that
  can only win on averages is not trustworthy enough to be the default.

Identity of planned and unplanned results is asserted on every measured
query (the hypothesis-backed equivalence lives in the test suite).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_planner.py --benchmark-only
"""

import time

import numpy as np
import pytest

from repro.harness.reporting import format_table
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore

DOCUMENTS = 8
SHARDS = 4
SIZE_MB = 0.11

#: ≥8 queries sharing ≥2-step prefixes after the planner's //-collapse
#: (`descendant::open_auction` / `descendant::person` / …): the trie
#: evaluates each distinct prefix once per shard.
PREFIX_BATCH = (
    "//open_auction/bidder/increase",
    "//open_auction/bidder/personref",
    "//open_auction/seller",
    "//open_auction/initial",
    "//open_auction/current",
    "//open_auction/itemref",
    "//open_auction/reserve",
    "//open_auction/interval",
    "//person/profile/education",
    "//person/profile/interest",
    "//person/name",
    "//item/description/text/keyword",
)

#: The per-query no-regression suite: rewrite shapes, pushdown shapes,
#: predicates (bulk and per-node), positionals, unions, kind tests.
SINGLE_SUITE = (
    "/descendant::increase/ancestor::bidder",
    "/descendant::category/ancestor::categories",
    "//open_auction/bidder/increase",
    "//keyword",
    "//site",
    "//person//profile//education",
    "//open_auction[bidder]/seller",
    "//open_auction[bidder][initial]",
    "//bidder[1]",
    "//seller | //buyer",
    "/descendant::node()",
    '//item[starts-with(location, "A")]',
)

ENGINES = ("vectorized", "scalar")


@pytest.fixture(scope="module")
def planner_store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("planner-bench") / "store")
    return ShardedStore.build(
        directory, get_forest(DOCUMENTS, SIZE_MB), shards=SHARDS
    )


def _clear_execution_caches(service):
    """Cold-*execution* reset: result cache and the worker prefix cache
    (the serial worker state is in-process and reachable).  The plan
    cache stays warm — parsed ASTs (planner-off) and costed plans
    (planner-on) are both once-per-query-per-epoch work, and keeping
    both keeps the comparison about execution.
    """
    service.result_cache.clear()
    state = service.backend._serial_state
    if state is not None:
        state.prefix_cache.clear()


def _best_batch_seconds(service, queries, use_planner, rounds=5):
    best = float("inf")
    results = None
    for _ in range(rounds):
        _clear_execution_caches(service)
        started = time.perf_counter()
        results = service.execute_batch(
            queries, use_cache=False, use_planner=use_planner
        )
        best = min(best, time.perf_counter() - started)
    return best, results


def _assert_identical(planned, plain, label):
    for a, b in zip(planned, plain):
        assert list(a.per_document) == list(b.per_document), label
        for name in a.per_document:
            assert np.array_equal(
                a.per_document[name], b.per_document[name]
            ), (label, a.query, name)


# ----------------------------------------------------------------------
def test_prefix_batch_speedup(planner_store, emit, benchmark):
    """The ≥2× batch contract (and planned == unplanned, byte for byte)."""
    rows = []
    outcome = {}

    def run():
        rows.clear()
        with QueryService(planner_store, backend="serial") as service:
            service.execute_batch(PREFIX_BATCH, use_cache=False)  # warm mmaps
            off_s, plain = _best_batch_seconds(service, PREFIX_BATCH, False)
            on_s, planned = _best_batch_seconds(service, PREFIX_BATCH, True)
            _assert_identical(planned, plain, "prefix batch")
        outcome["speedup"] = off_s / on_s
        for label, seconds in (("planner-off", off_s), ("planner-on", on_s)):
            rows.append(
                {
                    "config": label,
                    "batch_ms": f"{seconds * 1e3:.2f}",
                    "queries_per_s": f"{len(PREFIX_BATCH) / seconds:,.0f}",
                }
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["contract_min_prefix_speedup"] = round(
        outcome["speedup"], 2
    )
    emit(
        f"prefix-heavy batch — {len(PREFIX_BATCH)} queries, {DOCUMENTS} "
        f"documents / {SHARDS} shards, cold prefix cache each round",
        format_table(rows),
        f"speedup: {outcome['speedup']:.2f}x (contract: >= 2.0x)",
    )
    assert outcome["speedup"] >= 2.0, (
        f"planned batch only {outcome['speedup']:.2f}x over planner-off "
        "(contract: >= 2x)"
    )


# ----------------------------------------------------------------------
def test_single_query_never_regresses(planner_store, emit, benchmark):
    """Auto-planning within +10 % of planner-off on every single query.

    Sub-millisecond queries get a 0.3 ms absolute allowance on top (the
    10 % of a 50 µs query is inside timer noise).
    """
    rows = []
    worst = {}

    def measure(service, query, rounds=9):
        """Best-of-``rounds`` for planner-off and planner-on, measured
        interleaved so machine noise (page cache, GC) hits both arms."""
        best = {False: float("inf"), True: float("inf")}
        results = {}
        for _ in range(rounds):
            for use_planner in (False, True):
                _clear_execution_caches(service)
                started = time.perf_counter()
                results[use_planner] = service.execute(
                    query, use_cache=False, use_planner=use_planner
                )
                best[use_planner] = min(
                    best[use_planner], time.perf_counter() - started
                )
        return best[False], best[True], results[False], results[True]

    def run():
        rows.clear()
        worst.clear()
        worst["ratio"], worst["query"] = 0.0, ""
        for engine in ENGINES:
            with QueryService(
                planner_store, backend="serial", engine=engine
            ) as service:
                service.execute_batch(SINGLE_SUITE, use_cache=False)  # warm
                for query in SINGLE_SUITE:
                    off_s, on_s, plain, planned = measure(service, query)
                    _assert_identical([planned], [plain], engine)
                    ratio = on_s / off_s
                    # The recorded drift metric only counts queries long
                    # enough for a ratio to mean anything; sub-ms ones
                    # are governed by the absolute allowance below.
                    if ratio > worst["ratio"] and off_s >= 1e-3:
                        worst["ratio"], worst["query"] = ratio, f"{engine}: {query}"
                    rows.append(
                        {
                            "engine": engine,
                            "query": query,
                            "off_ms": f"{off_s * 1e3:.3f}",
                            "on_ms": f"{on_s * 1e3:.3f}",
                            "on/off": f"{ratio:.2f}",
                        }
                    )
                    assert on_s <= 1.10 * off_s + 3e-4, (
                        f"{engine}: {query!r} regressed {ratio:.2f}x "
                        "under auto-planning (contract: <= 1.10x)"
                    )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    if worst["ratio"] > 0:
        # Only meaningful when some query crossed the 1 ms floor — a
        # committed 0.0 would make every honest future run look like
        # drift.
        benchmark.extra_info["contract_max_single_ratio"] = round(
            worst["ratio"], 2
        )
    emit(
        f"single-query planner overhead — {len(SINGLE_SUITE)} queries × "
        f"{len(ENGINES)} engines (cold caches, best of 9, interleaved)",
        format_table(rows),
        f"worst on/off ratio: {worst['ratio']:.2f} ({worst['query']})",
    )
