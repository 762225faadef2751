"""Result-mode benchmarks: streaming count/exists vs materializing.

Two contracts guard the operator pipeline's terminal modes on the
sharded service (`repro.xpath.pipeline` + the executor's mode-aware
merge), both on the default (vectorized) engine:

* **exists ≥ 3×** — on a descendant-heavy XMark batch evaluated cold
  (result and prefix caches cleared per round, serial executor),
  ``mode="exists"`` answers at least three times faster than
  materializing the per-document rank arrays and truth-testing them:
  the pipeline leaves the shared prefix at its earliest chunkable
  frontier and stops at the first non-empty final frontier per shard;
* **count ≥ 1.5×** — in steady-state fabric serving (worker processes,
  warm prefix caches, result cache off), ``mode="count"`` beats
  materialize-then-``len`` by at least 1.5×: the final frontier is
  never converted to document-relative rank arrays, and the merge ships
  and sums integers across the process boundary instead of packing
  rank payloads into shared-memory segments.

Value identity is asserted on every measured query against the seed
evaluator (a plain per-shard :class:`Evaluator`), on both engines —
materialized ranks byte-for-byte, counts against ``len``, existence
against truthiness.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_result_modes.py --benchmark-only
"""

import time

import pytest

from repro.encoding.collection import DocumentCollection
from repro.harness.reporting import format_table
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore, available_cpus
from repro.xpath.evaluator import Evaluator

DOCUMENTS = 8
SHARDS = 4
SIZE_MB = 0.6
WORKERS = 2
#: Backend of the count contract: the process boundary is the point.
COUNT_BACKEND = f"fabric:{WORKERS}"

#: Descendant-heavy paths whose final steps dominate the evaluation —
#: the shapes where a caller asking "any?" pays the most for full
#: materialization.
EXISTS_BATCH = (
    "//open_auction/bidder/increase",
    "//open_auction/bidder/personref",
    "//open_auction/bidder/date",
    "//person/profile/interest",
    "//person/profile/education",
    "//item/mailbox/mail",
    "//open_auction/annotation/description",
    "//item/location",
)

#: Large-result queries — the shapes where shipping rank arrays across
#: the process boundary dominates a count-only answer.
COUNT_BATCH = (
    "/descendant::node()",
    "//open_auction/descendant::node()",
    "//text",
    "//listitem//text",
    "//item/description",
    "/descendant::listitem/descendant::text",
    "//keyword",
    "//item//keyword",
)

ENGINES = ("vectorized", "scalar")


@pytest.fixture(scope="module")
def modes_forest():
    return get_forest(DOCUMENTS, SIZE_MB)


@pytest.fixture(scope="module")
def modes_store(modes_forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("modes-bench") / "store")
    return ShardedStore.build(directory, modes_forest, shards=SHARDS)


def _best_batch_seconds(service, queries, mode, cold, rounds=5):
    best = float("inf")
    results = None
    for _ in range(rounds):
        service.result_cache.clear()
        if cold:
            state = service.backend._serial_state
            if state is not None:
                state.prefix_cache.clear()
        started = time.perf_counter()
        results = service.execute_batch(queries, use_cache=False, mode=mode)
        best = min(best, time.perf_counter() - started)
    return best, results


def _seed_reference(store, forest, query, engine):
    """The seed path: one plain Evaluator per shard collection."""
    trees = dict(forest)
    merged = {}
    for shard_id in store.shard_ids():
        names = store.shard_entry(shard_id)["documents"]
        collection = DocumentCollection([(n, trees[n]) for n in names])
        evaluator = Evaluator(collection.doc, engine=engine)
        pres = collection.evaluate(query, evaluator=evaluator)
        merged.update(collection.partition_relative(pres))
    return {name: merged[name] for name in store.document_names()}


def _assert_seed_identity(store, forest, queries):
    """Materialized == seed evaluator (both engines), counts == len,
    exists == truthiness — on every measured query."""
    with QueryService(store, backend="serial") as service:
        for engine in ENGINES:
            materialized = service.execute_batch(
                queries, engine=engine, use_cache=False
            )
            counted = service.execute_batch(
                queries, engine=engine, use_cache=False, mode="count"
            )
            existing = service.execute_batch(
                queries, engine=engine, use_cache=False, mode="exists"
            )
            for query, mat, cnt, ex in zip(queries, materialized, counted, existing):
                reference = _seed_reference(store, forest, query, engine)
                assert list(mat.per_document) == list(reference), (engine, query)
                for name, expected in reference.items():
                    actual = mat.per_document[name]
                    assert actual.tobytes() == expected.tobytes(), (
                        engine, query, name,
                    )
                    assert cnt.per_document[name] == len(expected), (
                        engine, query, name,
                    )
                assert cnt.total == mat.total, (engine, query)
                assert ex.value is (mat.total > 0), (engine, query)


def _mode_rows(timings):
    reference = timings[0][1]
    return [
        {
            "mode": label,
            "batch_ms": f"{seconds * 1e3:.2f}",
            "vs_materialize": f"{reference / seconds:.2f}x",
        }
        for label, seconds in timings
    ]


# ----------------------------------------------------------------------
def test_exists_speedup(modes_store, modes_forest, emit, benchmark):
    """The ≥3× exists contract (cold execution, serial executor)."""
    rows = []
    outcome = {}

    def run():
        rows.clear()
        _assert_seed_identity(modes_store, modes_forest, EXISTS_BATCH)
        with QueryService(modes_store, backend="serial") as service:
            service.execute_batch(EXISTS_BATCH, use_cache=False)  # warm mmaps
            mat_s, materialized = _best_batch_seconds(
                service, EXISTS_BATCH, "materialize", cold=True
            )
            ex_s, existing = _best_batch_seconds(
                service, EXISTS_BATCH, "exists", cold=True
            )
            for mat, ex in zip(materialized, existing):
                assert ex.value is (mat.total > 0), mat.query
        outcome["speedup"] = mat_s / ex_s
        rows.extend(_mode_rows((("materialize", mat_s), ("exists", ex_s))))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["contract_min_exists_speedup"] = round(
        outcome["speedup"], 2
    )
    emit(
        f"exists — {len(EXISTS_BATCH)} descendant-heavy queries, "
        f"{DOCUMENTS} documents / {SHARDS} shards, serial, cold caches, "
        "best of 5",
        format_table(rows),
        f"speedup: {outcome['speedup']:.2f}x (contract: >= 3.0x)",
    )
    assert outcome["speedup"] >= 3.0, (
        f"exists only {outcome['speedup']:.2f}x over materialize "
        "(contract: >= 3x)"
    )


# ----------------------------------------------------------------------
def test_count_speedup(modes_store, modes_forest, emit, benchmark):
    """The ≥1.5× count contract (steady-state fabric serving)."""
    rows = []
    outcome = {}

    def run():
        rows.clear()
        _assert_seed_identity(modes_store, modes_forest, COUNT_BATCH)
        with QueryService(modes_store, backend=COUNT_BACKEND) as service:
            service.execute_batch(COUNT_BATCH, use_cache=False)  # warm workers
            mat_s, materialized = _best_batch_seconds(
                service, COUNT_BATCH, "materialize", cold=False
            )
            cnt_s, counted = _best_batch_seconds(
                service, COUNT_BATCH, "count", cold=False
            )
            for mat, cnt in zip(materialized, counted):
                assert cnt.total == mat.total, mat.query
                assert cnt.counts() == mat.counts(), mat.query
        outcome["speedup"] = mat_s / cnt_s
        rows.extend(_mode_rows((("materialize", mat_s), ("count", cnt_s))))
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["contract_min_count_speedup"] = round(
        outcome["speedup"], 2
    )
    benchmark.extra_info["backend"] = COUNT_BACKEND
    benchmark.extra_info["available_cpus"] = available_cpus()
    emit(
        f"count — {len(COUNT_BATCH)} large-result queries, "
        f"{DOCUMENTS} documents / {SHARDS} shards, {WORKERS} workers, "
        "warm prefix caches, result cache off, best of 5",
        format_table(rows),
        f"speedup: {outcome['speedup']:.2f}x (contract: >= 1.5x)",
    )
    assert outcome["speedup"] >= 1.5, (
        f"count only {outcome['speedup']:.2f}x over materialize "
        "(contract: >= 1.5x)"
    )
