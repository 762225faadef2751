"""Write-path benchmark: subtree splice vs full-shard rebuild.

A single-document edit on a 16-document shard can be served two ways:

* ``QueryService.apply_updates`` — O(n) rank splicing on the existing
  gathered plane (:mod:`repro.encoding.updates`), then one new shard
  file + manifest flip;
* ``ShardedStore.replace_shard`` — re-encode all 16 member trees from
  scratch, then the same file + manifest flip.

Both end in an identical store state (pinned below by comparing a query
batch byte-for-byte against a store built fresh from equivalently edited
trees, on both engines).  The contract this file enforces — and CI
uploads as ``BENCH_updates.json`` — is that the splice path is **≥ 5×**
faster on single-document edits.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_update_path.py --benchmark-only
"""

import copy
import time

import pytest

from repro.harness.reporting import format_table
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore, UpdateOp
from repro.xmltree.model import NodeKind, element, text

#: One shard holding all member documents — the worst case for a
#: rebuild, the common case for a co-located collection.
DOCUMENTS = 16
SHARDS = 1
SIZE_MB = 0.05

#: Queries used for the post-update byte-identity check.
VERIFY_QUERIES = (
    "//person",
    "/descendant::increase/ancestor::bidder",
    "//open_auction[bidder]/seller",
    "//*/attribute::*",
)

ENGINES = ("scalar", "vectorized")


def fresh_store(tmp_path_factory, name, forest):
    directory = str(tmp_path_factory.mktemp(name) / "store")
    return ShardedStore.build(directory, forest, shards=SHARDS)


def edited_tree(tree, marker):
    """The tree-level equivalent of the benchmark's splice insert."""
    edited = copy.deepcopy(tree)
    root = (
        edited
        if edited.kind == NodeKind.ELEMENT
        else next(c for c in edited.children if c.kind == NodeKind.ELEMENT)
    )
    root.append(element("promo", text(marker)))
    return edited


def splice_op(marker):
    """The benchmark edit: append one small element to one document."""
    return UpdateOp(
        "insert", "xmark-00", tree=element("promo", text(marker)), pre=0
    )


def _measure(action, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def test_splice_vs_rebuild_contract(tmp_path_factory, emit, benchmark):
    """Single-document edits: splice must beat a shard rebuild ≥ 5×."""
    forest = get_forest(DOCUMENTS, SIZE_MB)
    store = fresh_store(tmp_path_factory, "update-bench", forest)
    nodes = sum(e["nodes"] for e in store.describe()["shards"])
    serial = iter(range(10_000))

    def splice_once():
        store.apply_updates([splice_op(f"s{next(serial)}")])

    def rebuild_once():
        store.replace_shard(0, forest)

    # Warm both paths (page cache, lazy imports) before timing.
    splice_once()
    rebuild_once()

    timings = {}

    def run():
        timings["splice"] = _measure(splice_once)
        timings["rebuild"] = _measure(rebuild_once)
        return timings

    benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = timings["rebuild"] / timings["splice"]
    emit(
        f"update path — {DOCUMENTS} documents / {SHARDS} shard, "
        f"{nodes:,} nodes, single-document edit",
        format_table(
            [
                {
                    "path": "apply_updates (splice)",
                    "best_ms": f"{timings['splice'] * 1e3:.2f}",
                },
                {
                    "path": "replace_shard (re-encode)",
                    "best_ms": f"{timings['rebuild'] * 1e3:.2f}",
                },
                {"path": "speedup", "best_ms": f"{speedup:.1f}x"},
            ]
        ),
    )
    benchmark.extra_info["splice_ms"] = timings["splice"] * 1e3
    benchmark.extra_info["rebuild_ms"] = timings["rebuild"] * 1e3
    benchmark.extra_info["speedup"] = speedup
    benchmark.extra_info["contract_min_splice_speedup"] = round(speedup, 2)
    assert speedup >= 5.0, (
        "subtree splice below the 5x contract over a full-shard rebuild: "
        f"{speedup:.1f}x"
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_post_update_results_equal_fresh_build(
    tmp_path_factory, engine, benchmark
):
    """A query batch after ``apply_updates`` is byte-identical to one
    against a store rebuilt from scratch with the same edits."""
    forest = get_forest(DOCUMENTS, SIZE_MB)
    updated = fresh_store(tmp_path_factory, f"update-id-{engine}", forest)
    edited = [
        (name, edited_tree(tree, "mark") if name == "xmark-00" else tree)
        for name, tree in forest
    ]
    rebuilt = fresh_store(tmp_path_factory, f"rebuilt-id-{engine}", edited)

    def run():
        with QueryService(updated, backend="serial") as service:
            service.apply_updates([splice_op("mark")])
            got = service.execute_batch(VERIFY_QUERIES, engine=engine)
        with QueryService(rebuilt, backend="serial") as service:
            expected = service.execute_batch(VERIFY_QUERIES, engine=engine)
        return got, expected

    got, expected = benchmark.pedantic(run, rounds=1, iterations=1)
    for query, mine, reference in zip(VERIFY_QUERIES, got, expected):
        assert list(mine.per_document) == list(reference.per_document), query
        for name in reference.per_document:
            assert (
                mine.per_document[name].tobytes()
                == reference.per_document[name].tobytes()
            ), (query, name)
