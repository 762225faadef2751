"""Service-layer tests: store, caches, executor, QueryService.

The headline properties:

* **batched == the reference** — executing a query batch through the
  service (plan cache, result cache, fabric worker fan-out, merge)
  returns the per-document rank arrays of the tree-walking reference
  (``tests/_reference.py``) evaluated shard by shard, across all
  thirteen axes;
* **no stale results** — after a shard is replaced the result cache can
  never serve a result computed against the old shard contents, in both
  serial and fabric modes.
"""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.collection import DocumentCollection
from repro.errors import ReproError
from repro.harness.workloads import get_forest
from repro.service import (
    LRUCache,
    QueryService,
    ShardedStore,
    ShardWorkerState,
    default_workers,
)
from repro.service.store import _split
from repro.xmltree.model import element, text
from repro.xpath.evaluator import Evaluator

from _plans import compiled
from _reference import Reference, random_tree

#: Queries touching every axis (and the predicate/positional machinery).
#: ``following``/``preceding`` and root-level siblings deliberately appear
#: only *below* the document root via nested steps, so their semantics
#: stay per-shard-reproducible (the service evaluates shard planes
#: independently; cross-shard leakage is not a defined result).
AXIS_QUERIES = (
    "/descendant::bidder",                                    # descendant
    "//open_auction//increase",                               # descendant-or-self
    "/site/open_auctions/open_auction/bidder",                # child
    "/descendant::increase/ancestor::bidder",                 # ancestor
    "//increase/ancestor-or-self::open_auction",              # ancestor-or-self
    "//bidder/parent::open_auction",                          # parent
    "//person/self::person",                                  # self
    "//person/attribute::id",                                 # attribute
    "//bidder[1]/following-sibling::bidder",                  # following-sibling
    "//bidder[last()]/preceding-sibling::bidder",             # preceding-sibling
    "//open_auction[bidder]/seller",                          # predicate path
    "//open_auction[not(bidder)]",                            # negation
    "//open_auction[count(bidder) >= 2]",                     # count()
    "//seller | //buyer",                                     # union
    "//profile/education/text()",                             # text()
)

#: Axes whose unscoped semantics span the whole shard plane; exercised in
#: the shard-level equivalence test (reference = the same shard).
PLANE_QUERIES = (
    "//open_auction[1]/following::item",
    "//item[1]/preceding::open_auction",
)


def serial_reference(store, trees_by_name, query):
    """``query`` answered by the tree-walking reference, shard by shard
    (``tests/_reference.py``, rule D8)."""
    merged = {}
    for shard_id in store.shard_ids():
        names = store.shard_entry(shard_id)["documents"]
        reference = Reference.gathered([trees_by_name[n] for n in names])
        merged.update(zip(names, reference.per_member(query).values()))
    return {name: merged[name] for name in store.document_names()}


def assert_identical(actual, expected):
    assert list(actual) == list(expected)
    for name in expected:
        a, e = actual[name], expected[name]
        assert a.dtype == e.dtype == np.int64, name
        assert a.tobytes() == e.tobytes(), name


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def forest():
    return get_forest(5, 0.05)


@pytest.fixture(scope="module")
def store(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("service") / "store")
    return ShardedStore.build(directory, forest, shards=3)


@pytest.fixture(scope="module")
def fabric_service(store):
    with QueryService(store, backend="fabric:2") as service:
        yield service


# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache(2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_eviction_is_lru(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # refresh a; b is now coldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ReproError):
            LRUCache(-1)

    def test_clear_and_info(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        info = cache.info()
        assert info["size"] == 1 and info["hits"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_clear_keeps_hit_statistics(self):
        # Counters are lifetime-monotonic: every commit clears the result
        # cache, and /stats must still give a hit ratio across commits.
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert cache.info() == {
            "size": 0, "capacity": 4, "hits": 1, "misses": 1,
        }
        assert cache.get("a") is None
        assert (cache.hits, cache.misses) == (1, 2)


# ----------------------------------------------------------------------
class TestShardedStore:
    def test_build_layout_and_reopen(self, store, forest):
        assert store.shard_count == 3
        assert store.epoch == 1
        assert store.document_names() == [name for name, _ in forest]
        reopened = ShardedStore.open(store.directory)
        assert reopened.epoch == 1
        assert reopened.document_names() == store.document_names()
        assert os.path.exists(
            os.path.join(store.directory, store.shard_entry(0)["file"])
        )

    def test_contiguous_split(self):
        assert _split([1, 2, 3, 4, 5], 3) == [[1, 2], [3, 4], [5]]
        assert _split([1, 2], 2) == [[1], [2]]

    def test_shard_count_clamped_to_documents(self, forest, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), forest[:2], shards=8)
        assert store.shard_count == 2

    def test_collection_round_trips_members(self, store, forest):
        names = store.shard_entry(1)["documents"]
        collection = store.collection(1)
        assert collection.names == names
        # Memory-mapped by default: the stored columns are file-backed
        # (post / parent are derived from the mapped level column).
        assert isinstance(collection.doc.level, np.memmap)
        assert type(collection.doc.post) is np.ndarray

    def test_shard_of(self, store):
        assert store.shard_of("xmark-00") == 0
        with pytest.raises(ReproError, match="no document"):
            store.shard_of("nope")

    def test_unknown_shard_rejected(self, store):
        with pytest.raises(ReproError, match="no shard"):
            store.shard_entry(99)

    def test_duplicate_names_rejected(self, forest, tmp_path):
        name, tree = forest[0]
        with pytest.raises(ReproError, match="unique"):
            ShardedStore.build(str(tmp_path / "s"), [(name, tree), (name, tree)])

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="at least one document"):
            ShardedStore.build(str(tmp_path / "s"), [])

    def test_open_non_store_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="not a sharded store"):
            ShardedStore.open(str(tmp_path))

    def test_open_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{nope")
        with pytest.raises(ReproError, match="corrupt manifest"):
            ShardedStore.open(str(tmp_path))

    def test_open_wrong_store_format_rejected(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"store_format": 99}))
        with pytest.raises(ReproError, match="store format"):
            ShardedStore.open(str(tmp_path))

    @pytest.mark.parametrize(
        "manifest, match",
        [
            ({"shards": []}, "integer epoch"),
            ({"epoch": 1, "shards": [1]}, "shard entry 0 is not a JSON object"),
            ({"epoch": 1, "shards": [{"id": 0, "file": "../../etc/passwd",
                                      "documents": [], "nodes": 0}]},
             "'../../etc/passwd' is not a shard file name"),
            ({"epoch": 1, "shards": [{"id": "0", "file": "shard-0000.e0001.npz",
                                      "documents": [], "nodes": 0}]},
             "integer id"),
            ({"epoch": 1, "shards": [{"id": 0, "file": "shard-0000.e0001.npz",
                                      "documents": "doc", "nodes": 0}]},
             "list of names"),
        ],
        ids=["no-epoch", "entry-not-an-object", "file-outside-store", "id-not-int",
             "documents-not-a-list"],
    )
    def test_open_hostile_shard_entry_rejected(self, tmp_path, manifest, match):
        """A manifest entry every reader would trust is checked at open:
        a bad one is a corrupt manifest, never a ``TypeError`` or a load
        outside the store directory."""
        manifest = dict(manifest, store_format=1)
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ReproError, match=f"corrupt manifest.*{re.escape(match)}"):
            ShardedStore.open(str(tmp_path))

    def test_replace_shard_bumps_epoch_and_swaps_file(self, forest, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), forest[:4], shards=2)
        old_file = store.shard_entry(1)["file"]
        replacement = [("fresh", element("site", element("regions")))]
        store.replace_shard(1, replacement)
        assert store.epoch == 2
        assert store.shard_entry(1)["documents"] == ["fresh"]
        assert store.shard_entry(1)["file"] != old_file
        assert not os.path.exists(os.path.join(store.directory, old_file))
        # the change is durable
        assert ShardedStore.open(store.directory).epoch == 2
        assert store.collection(1).names == ["fresh"]

    def test_replace_shard_name_collision_rejected(self, forest, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), forest[:4], shards=2)
        name, tree = forest[0]           # lives in shard 0
        with pytest.raises(ReproError, match="unique"):
            store.replace_shard(1, [(name, tree)])

    def test_replace_shard_empty_rejected(self, store):
        with pytest.raises(ReproError, match="at least one document"):
            store.replace_shard(0, [])


# ----------------------------------------------------------------------
class TestEquivalence:
    """Batched sharded execution == serial collection evaluation."""

    def test_axis_queries_fabric(self, fabric_service, store, forest):
        trees = dict(forest)
        results = fabric_service.execute_batch(
            AXIS_QUERIES + PLANE_QUERIES, use_cache=False
        )
        for query, result in zip(AXIS_QUERIES + PLANE_QUERIES, results):
            expected = serial_reference(store, trees, query)
            assert_identical(result.per_document, expected)
            assert result.total == sum(len(a) for a in expected.values())

    def test_axis_queries_serial_mode(self, store, forest):
        trees = dict(forest)
        with QueryService(store, backend="serial") as service:
            results = service.execute_batch(AXIS_QUERIES, use_cache=False)
        for query, result in zip(AXIS_QUERIES, results):
            assert_identical(
                result.per_document, serial_reference(store, trees, query)
            )

    def test_document_scoped_execution(self, fabric_service, store, forest):
        trees = dict(forest)
        query = "/descendant::increase/ancestor::bidder"
        for name in store.document_names():
            scoped = fabric_service.execute(query, document=name, use_cache=False)
            assert scoped.documents == [name]
            single = DocumentCollection([(name, trees[name])])
            expected = single.partition_relative(single.evaluate(query))
            assert_identical(scoped.per_document, expected)

    def test_sharding_invariance(self, forest, tmp_path):
        """Per-document results do not depend on the shard layout."""
        query = "//open_auction[bidder]/seller"
        payloads = []
        for shards in (1, 2, 5):
            store = ShardedStore.build(
                str(tmp_path / f"s{shards}"), forest, shards=shards
            )
            with QueryService(store, backend="serial") as service:
                result = service.execute(query)
            payloads.append({n: a.tobytes() for n, a in result.per_document.items()})
        assert payloads[0] == payloads[1] == payloads[2]

    @given(
        seeds=st.lists(st.integers(0, 500), min_size=2, max_size=4),
        size=st.integers(10, 60),
        shards=st.integers(1, 3),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_documents_property(
        self, seeds, size, shards, tmp_path_factory
    ):
        """Random forests: fabric batched execution == serial reference."""
        forest = [
            (f"doc-{i}", random_tree(size, seed)) for i, seed in enumerate(seeds)
        ]
        directory = str(tmp_path_factory.mktemp("prop") / "store")
        store = ShardedStore.build(directory, forest, shards=shards)
        queries = ("//*", "/descendant::node()", "//*[*]/..")
        trees = dict(forest)
        with QueryService(store, backend="fabric:2") as service:
            results = service.execute_batch(queries)
            for query, result in zip(queries, results):
                expected = serial_reference(store, trees, query)
                assert_identical(result.per_document, expected)


# ----------------------------------------------------------------------
class TestCaching:
    def test_result_cache_round_trip(self, store):
        with QueryService(store, backend="serial") as service:
            cold = service.execute("//people")
            warm = service.execute("//people")
        assert not cold.from_cache
        assert warm.from_cache
        assert_identical(warm.per_document, cold.per_document)

    def test_cache_key_includes_scope_not_engine(self, store):
        """One engine per service: a query carries no engine of its own,
        and the result cache keys on scope and mode."""
        with QueryService(store, backend="serial") as service:
            service.execute("//people")
            scoped = service.execute("//people", document="xmark-00")
            with pytest.raises(TypeError):
                service.execute("//people", engine="scalar")
            with pytest.raises(TypeError):
                service.execute_batch(["//people"], engine="scalar")
        assert not scoped.from_cache

    def test_use_cache_false_bypasses(self, store):
        with QueryService(store, backend="serial") as service:
            service.execute("//people")
            again = service.execute("//people", use_cache=False)
        assert not again.from_cache

    def test_plan_cache_parses_and_plans_once(self, store):
        # Two cache levels share the LRU: the parsed AST (string key)
        # and the compiled plan ((query, scoped) key) — one miss each
        # on the first execution, one hit each afterwards.
        with QueryService(store, backend="serial") as service:
            service.execute("//people", use_cache=False)
            service.execute("//people", use_cache=False)
            info = service.stats_snapshot()
        assert info["plan"]["misses"] == 2
        assert info["plan"]["hits"] == 2

    def test_plan_cache_parses_once_without_planner(self, store):
        with QueryService(store, backend="serial", planner=False) as service:
            service.execute("//people", use_cache=False)
            service.execute("//people", use_cache=False)
            info = service.stats_snapshot()
        assert info["plan"]["misses"] == 1
        assert info["plan"]["hits"] == 1

    def test_cached_arrays_are_frozen(self, store):
        with QueryService(store, backend="serial") as service:
            result = service.execute("//people")
        array = next(iter(result.per_document.values()))
        with pytest.raises(ValueError):
            array[...] = 0

    def test_caller_mutation_cannot_poison_the_cache(self, store):
        with QueryService(store, backend="serial") as service:
            first = service.execute("//people")
            first.per_document.clear()          # hostile caller
            second = service.execute("//people")
        assert second.from_cache
        assert second.total == first.total
        assert list(second.per_document) == store.document_names()

    def test_duplicate_queries_in_cold_batch_run_once(self, store):
        with QueryService(store, backend="serial") as service:
            a, b = service.execute_batch(["//people", "//people"], use_cache=False)
            info = service.stats_snapshot()
        assert not a.from_cache and not b.from_cache
        # one fan-out: the rank arrays are the same frozen objects
        for name in store.document_names():
            assert a.per_document[name] is b.per_document[name]
        # one AST parse + one costed plan, not two of each
        assert info["plan"]["misses"] == 2

    def test_replace_racing_a_batch_cannot_poison_the_new_epoch(
        self, forest, tmp_path
    ):
        """A result computed while a shard swap races the batch must land
        under the pre-swap epoch key, never the new one."""
        store = ShardedStore.build(str(tmp_path / "race"), forest[:4], shards=2)
        query = "//people/person"
        with QueryService(store, backend="serial") as service:
            original = service.backend.run_batch

            def replace_mid_flight(items, **kwargs):
                out = original(items, **kwargs)
                store.replace_shard(
                    1,
                    [
                        (name, element("site", element("people")))
                        for name in store.shard_entry(1)["documents"]
                    ],
                )
                return out

            service.backend.run_batch = replace_mid_flight
            raced = service.execute(query)
            service.backend.run_batch = original
            after = service.execute(query)
            assert not raced.from_cache
            # the raced (pre-swap) payload must not be served at epoch 2
            assert not after.from_cache
            assert after.total < raced.total

    def test_collection_rejects_evaluator_plus_options(self, store):
        from repro.xpath.evaluator import Evaluator

        collection = store.collection(0)
        evaluator = Evaluator(collection.doc)
        with pytest.raises(ReproError, match="not both"):
            collection.evaluate("//people", evaluator=evaluator, pushdown=True)

    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    def test_replace_shard_never_serves_stale_results(self, forest, tmp_path, backend):
        """The epoch in the cache key fences every pre-replacement entry."""
        directory = str(tmp_path / f"stale-{backend.replace(':', '-')}")
        store = ShardedStore.build(directory, forest[:4], shards=2)
        query = "//people/person"
        with QueryService(store, backend=backend) as service:
            before = service.execute(query)
            assert service.execute(query).from_cache
            shard_id = store.shard_of("xmark-03")
            names = store.shard_entry(shard_id)["documents"]
            replacement = [
                (
                    name,
                    element(
                        "site",
                        element(
                            "people",
                            *[
                                element("person", text(f"p{i}"))
                                for i in range(7)
                            ],
                        ),
                    ),
                )
                for name in names
            ]
            store.replace_shard(shard_id, replacement)
            after = service.execute(query)
            assert not after.from_cache
            for name in names:
                assert len(after.per_document[name]) == 7
                assert (
                    after.per_document[name].tobytes()
                    != before.per_document[name].tobytes()
                )
            # untouched documents are unchanged
            untouched = [n for n in store.document_names() if n not in names]
            for name in untouched:
                assert (
                    after.per_document[name].tobytes()
                    == before.per_document[name].tobytes()
                )
            # and the new epoch's entry caches normally
            assert service.execute(query).from_cache


# ----------------------------------------------------------------------
class TestPlannerIntegration:
    """The rule-based planner riding the service: identical results,
    shared prefixes, epoch-fenced prefix contexts."""

    PREFIX_BATCH = (
        "//open_auction/bidder/increase",
        "//open_auction/bidder/personref",
        "//open_auction/seller",
        "//open_auction/initial",
        "//person/profile/education",
        "//person/name",
    )

    #: Planner-decision shapes the axis suite lacks: a two-step
    #: //-collapse, stacked predicates, a whole-plane kind test, a
    #: value predicate, tags with one and with many matches.
    PLAN_SHAPES = (
        "/descendant::category/ancestor::categories",
        "//person//profile//education",
        "//open_auction[bidder][initial]",
        "//item/description/text/keyword",
        "//keyword",
        "//site",
        "/descendant::node()",
        '//item[starts-with(location, "A")]',
    )

    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    def test_planned_equals_unplanned(self, store, backend):
        queries = (
            AXIS_QUERIES + PLANE_QUERIES + self.PREFIX_BATCH + self.PLAN_SHAPES
        )
        with QueryService(store, backend=backend) as service, QueryService(
            store, backend=backend, planner=False
        ) as unplanned:
            planned = service.execute_batch(queries, use_cache=False)
            plain = unplanned.execute_batch(queries, use_cache=False)
        for query, a, b in zip(queries, planned, plain):
            assert_identical(a.per_document, b.per_document)
            assert a.query == b.query == query

    def test_prefix_cache_fills_and_hits(self, store):
        with QueryService(store, backend="serial") as service:
            service.execute_batch(self.PREFIX_BATCH, use_cache=False)
            prefix_cache = service.backend._lane0.prefix_cache
            assert len(prefix_cache) > 0
            filled = prefix_cache.hits
            service.execute_batch(self.PREFIX_BATCH, use_cache=False)
            # The second batch re-reads every shared prefix context.
            assert prefix_cache.hits > filled

    def test_prefix_contexts_fence_on_epoch(self, forest, tmp_path):
        directory = str(tmp_path / "prefix-fence")
        store = ShardedStore.build(directory, forest[:4], shards=2)
        trees = {name: tree for name, tree in forest[:4]}
        query = "//person/name"
        with QueryService(store, backend="serial") as service:
            before = service.execute(query, use_cache=False)
            victim = store.document_names()[0]
            replacement = element("site")
            replacement.append(element("people"))
            store.replace_shard(
                store.shard_of(victim),
                [(victim, replacement)],
            )
            trees[victim] = replacement
            after = service.execute(query, use_cache=False)
            expected = serial_reference(store, trees, query)
        assert_identical(after.per_document, expected)
        assert before.per_document[victim].size > 0
        assert after.per_document[victim].size == 0

    def test_scoped_queries_planned_equals_unplanned(self, store):
        """Document-scoped execution re-anchors paths at the member
        root, where the //-collapse's root guard (stated against the
        plane's virtual root) would be wrong — `//site` must keep
        excluding the member root, planned or not."""
        name = store.document_names()[0]
        with QueryService(store, backend="serial") as service, QueryService(
            store, backend="serial", planner=False
        ) as unplanned:
            for query in ("//site", "//site/regions", "//person/name"):
                planned = service.execute(query, document=name, use_cache=False)
                plain = unplanned.execute(query, document=name, use_cache=False)
                assert_identical(planned.per_document, plain.per_document)

    def test_fabric_splits_shard_groups_when_workers_exceed_shards(
        self, forest, tmp_path
    ):
        from repro.service.backend import _split_to_feed_workers

        directory = str(tmp_path / "narrow")
        narrow = ShardedStore.build(directory, forest[:2], shards=1)
        with QueryService(narrow, backend="fabric:4") as service:
            results = service.execute_batch(
                self.PREFIX_BATCH, use_cache=False
            )
        assert all(r.total >= 0 for r in results)
        # The splitter itself: 1 shard × 6 tasks, 4 workers → several
        # contiguous units (not one), preserving task order.
        tasks = list(range(6))  # shape only; contents are opaque to it
        units = _split_to_feed_workers([tasks], 4)
        assert 2 <= len(units) <= 4
        assert [t for unit in units for t in unit] == tasks
        # Enough shards already: groups pass through untouched.
        assert _split_to_feed_workers([[1], [2], [3], [4]], 4) == [
            [1], [2], [3], [4]
        ]

    def test_prefix_cache_is_byte_budgeted(self):
        from repro.service.executor import PrefixContextCache

        overhead = PrefixContextCache.ENTRY_OVERHEAD
        small = np.arange(4, dtype=np.int64)     # 32-byte payload
        cost = small.nbytes + overhead
        cache = PrefixContextCache(budget_bytes=2 * cost + 1)
        cache.put("a", small)
        cache.put("b", small)
        assert len(cache) == 2
        cache.put("c", small)                    # over budget: evicts "a"
        assert "a" not in cache and "b" in cache and "c" in cache
        huge = np.arange(cost, dtype=np.int64)   # costlier than the budget
        cache.put("d", huge)
        assert "d" not in cache                  # never cached, no eviction
        assert "b" in cache and "c" in cache
        info = cache.info()
        assert info["bytes"] == 2 * cost
        assert info["budget_bytes"] == 2 * cost + 1
        cache.clear()
        assert len(cache) == 0 and cache.info()["bytes"] == 0

    def test_prefix_cache_empty_entries_cannot_grow_unbounded(self):
        from repro.service.executor import PrefixContextCache

        cache = PrefixContextCache(budget_bytes=32 << 10)
        empty = np.empty(0, dtype=np.int64)
        for i in range(10_000):                  # zero-byte payloads
            cache.put(("key", i), empty)
        # The per-entry overhead charge keeps the count bounded too.
        assert len(cache) <= (32 << 10) // PrefixContextCache.ENTRY_OVERHEAD

    def test_empty_batch_is_a_noop(self, store):
        with QueryService(store, backend="fabric:2") as service:
            assert service.execute_batch([]) == []
            assert service.backend.run_batch([]) == []

    def test_service_explain_returns_the_plan_that_runs(self, store):
        with QueryService(store, backend="serial") as service:
            plan = service.explain("//open_auction/bidder/increase")
            assert service._plan("//open_auction/bidder/increase", True) is plan
        # The collapsed descendant step reads its fragment.
        assert str(plan.branches[0][1]) == "StaircaseStep(descendant::open_auction, pushdown)"
        text = plan.describe()
        assert "//-collapse" in text and "step 1:" not in text

    def test_planner_off_service_never_plans(self, store):
        with QueryService(store, backend="serial", planner=False) as service:
            service.execute("//people", use_cache=False)
            # Only the parsed AST is cached — no (query, scoped) plan key.
            assert len(service.plan_cache) == 1


# ----------------------------------------------------------------------
class TestExecutor:
    def test_default_workers_capped(self, store):
        assert 1 <= default_workers(store) <= store.shard_count

    def test_default_workers_respects_cpu_affinity(self, store, monkeypatch):
        """Containerized CI exposes fewer schedulable CPUs than
        ``os.cpu_count`` reports; the fabric must size to the mask."""
        from repro.service import executor

        if hasattr(os, "sched_getaffinity"):
            assert executor.available_cpus() == len(os.sched_getaffinity(0))
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: {0}, raising=False
            )
            assert executor.available_cpus() == 1
            assert default_workers(store) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert executor.available_cpus() == 6

    def test_negative_workers_rejected(self, store):
        with pytest.raises(ReproError):
            QueryService(store, backend="fabric:-1")

    def test_worker_state_reuses_collections(self, store):
        """A lane runs on the store's cached plane (it keeps no copy of
        its own) and reuses one evaluator per plane and engine."""
        state = ShardWorkerState()
        entry = store.shard_entry(0)
        from repro.service.executor import ShardTask

        ((plan, engine, _, _),) = compiled([("//people", "vectorized", None, "materialize")])
        task = ShardTask(
            index=0,
            shard_id=0,
            plan=plan,
            engine=engine,
            document=None,
        )
        with store.snapshot() as snapshot:
            (result,) = state.run_group([task], snapshot)
        assert (result.index, result.shard_id) == (0, 0)
        assert list(result.payload) == list(entry["documents"])
        assert not hasattr(state, "_collections")
        collection = store.collection(0)
        evaluator = state._evaluator(0, "vectorized", collection)
        assert evaluator.doc is collection.doc
        with store.snapshot() as snapshot:
            state.run_group([task], snapshot)
        assert store.collection(0) is collection
        assert state._evaluator(0, "vectorized", collection) is evaluator

    def test_close_is_idempotent(self, store):
        service = QueryService(store, backend="fabric:2")
        service.execute("//people")
        service.close()
        service.close()
