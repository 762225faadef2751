"""Result modes through the service: count/exists == materialize.

The headline property: for any store, engine, planner setting, worker
count and query, ``mode="count"`` equals ``len(...)`` of the
materialized per-document results and ``mode="exists"`` equals their
truthiness — early termination and the count fast path are performance
decisions, never semantic ones.  Random forests are swept with
hypothesis; the fixed suite covers every axis family, predicates,
positionals and unions.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore
from repro.service.updates import parse_ops

from _reference import random_tree

ENGINES = ("scalar", "vectorized")

SUITE = (
    "/descendant::bidder",
    "//open_auction//increase",
    "/site/open_auctions/open_auction/bidder",
    "/descendant::increase/ancestor::bidder",
    "//bidder/parent::open_auction",
    "//person/attribute::id",
    "//open_auction[bidder]/seller",
    "//open_auction[not(bidder)]",
    "//bidder[1]",
    "//bidder[last()]",
    "//seller | //buyer",
    "//profile/education/text()",
    "//no_such_tag",
    "//no_such_tag/descendant::person",
    # large answers: the shapes a count spares the most ranks on
    "/descendant::node()",
    "//listitem//text",
)


@pytest.fixture(scope="module")
def forest():
    return get_forest(5, 0.05)


@pytest.fixture(scope="module")
def store(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("modes") / "store")
    return ShardedStore.build(directory, forest, shards=3)


def assert_modes_agree(service, queries):
    materialized = service.execute_batch(queries, use_cache=False)
    counted = service.execute_batch(queries, use_cache=False, mode="count")
    existing = service.execute_batch(queries, use_cache=False, mode="exists")
    for query, mat, cnt, ex in zip(queries, materialized, counted, existing):
        assert cnt.mode == "count" and ex.mode == "exists"
        assert cnt.total == mat.total, query
        assert cnt.counts() == mat.counts(), query
        assert list(cnt.per_document) == list(mat.per_document), query
        assert ex.value is (mat.total > 0), query
        assert ex.total == int(mat.total > 0), query


# ----------------------------------------------------------------------
class TestFixedSuite:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    def test_suite_agrees(self, store, engine, backend):
        with QueryService(store, backend=backend, engine=engine) as service:
            assert_modes_agree(service, SUITE)

    def test_suite_agrees_without_planner(self, store):
        with QueryService(store, backend="serial", planner=False) as service:
            assert_modes_agree(service, SUITE)

    def test_mixed_mode_batch_shares_prefixes(self, store):
        """count/exists queries ride the same operator-prefix trie as
        materializing ones — and return per-mode payloads."""
        queries = ["//open_auction/bidder", "//open_auction/bidder",
                   "//open_auction/bidder"]
        with QueryService(store, backend="serial") as service:
            mat, cnt, ex = service.execute_batch(
                queries, use_cache=False,
                mode=["materialize", "count", "exists"],
            )
            prefix_cache = service.backend._lane0.prefix_cache
            assert len(prefix_cache) > 0
        assert cnt.total == mat.total
        assert ex.value is (mat.total > 0)
        assert isinstance(mat.per_document[mat.documents[0]], np.ndarray)
        assert isinstance(cnt.per_document[cnt.documents[0]], int)

    def test_scoped_modes_agree(self, store):
        name = store.document_names()[0]
        with QueryService(store, backend="serial") as service:
            for query in ("//person", "//site", "//no_such_tag"):
                mat = service.execute(query, document=name, use_cache=False)
                cnt = service.execute(
                    query, document=name, use_cache=False, mode="count"
                )
                ex = service.execute(
                    query, document=name, use_cache=False, mode="exists"
                )
                assert cnt.total == mat.total
                assert cnt.per_document == {name: mat.total}
                assert ex.value is (mat.total > 0)

    def test_cache_keys_include_mode(self, store):
        with QueryService(store, backend="serial") as service:
            count = service.execute("//person", mode="count")
            materialized = service.execute("//person")
            exists = service.execute("//person", mode="exists")
            assert not materialized.from_cache and not exists.from_cache
            warm = service.execute("//person", mode="count")
        assert warm.from_cache
        assert warm.total == count.total

    def test_unknown_mode_rejected(self, store):
        with QueryService(store, backend="serial") as service:
            with pytest.raises(ReproError, match="result mode"):
                service.execute("//person", mode="tally")
            with pytest.raises(ReproError, match="modes for"):
                service.execute_batch(["//a", "//b"], mode=["count"])

    def test_modes_agree_after_updates(self, store, forest, tmp_path):
        """Post-update stores answer count/exists from the new epoch."""
        directory = str(tmp_path / "updated")
        updated = ShardedStore.build(directory, forest[:4], shards=2)
        with QueryService(updated, backend="serial") as service:
            before = service.execute("//person", mode="count")
            ops = parse_ops(
                [{"op": "add", "document": "fresh",
                  "xml": "<site><people><person/><person/></people></site>"}]
            )
            service.apply_updates(ops)
            after_count = service.execute("//person", mode="count")
            after_mat = service.execute("//person", use_cache=False)
            assert not after_count.from_cache
            assert after_count.total == after_mat.total == before.total + 2
            assert service.execute("//person", mode="exists").value is True


# ----------------------------------------------------------------------
class TestRandomForests:
    @given(
        seeds=st.lists(st.integers(0, 500), min_size=2, max_size=4),
        size=st.integers(10, 60),
        shards=st.integers(1, 3),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_documents_property(
        self, seeds, size, shards, tmp_path_factory
    ):
        forest = [
            (f"doc-{i}", random_tree(size, seed)) for i, seed in enumerate(seeds)
        ]
        directory = str(tmp_path_factory.mktemp("modes-prop") / "store")
        store = ShardedStore.build(directory, forest, shards=shards)
        queries = ("//*", "/descendant::node()", "//*[*]/..", "//*[2]")
        for planner in (True, False):
            with QueryService(store, backend="serial", planner=planner) as service:
                assert_modes_agree(service, queries)
