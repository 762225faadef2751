"""Cost-based planner tests: statistics, decisions, and result invariance.

The headline property — a plan changes *how* a query runs, never *what*
it returns — is pinned by hypothesis on random forests, both engines,
through the full service stack (planner → prefix trie → merge).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.staircase import SkipMode
from repro.encoding.prepost import encode
from repro.service import QueryService, ShardedStore
from repro.xmltree.model import element, text
from repro.xpath.evaluator import Evaluator
from repro.xpath.pipeline import compile_plan
from repro.xpath.planner import Planner, QueryPlan, TagStatistics

from _reference import random_tree

ENGINES = ("scalar", "vectorized")

#: Shapes covering every planner decision: //-collapse, symmetry
#: rewrite, pushdown on descendant/ancestor, predicate ordering,
#: positional guards, unions, kind tests.
PLANNER_QUERIES = (
    "//a",
    "//a/b/c",
    "//a//b",
    "/descendant::a/ancestor::b",
    "/descendant::e/ancestor::a",
    "//a[b][c]",
    "//a[c][b]",
    "//b[2]",
    "//a[last()]",
    "//a/b | //c",
    "//*[a]",
    "/descendant::node()",
    "a/descendant::b",
)


@pytest.fixture(scope="module")
def xmark_stats(medium_xmark):
    return TagStatistics.from_doc(medium_xmark)


# ----------------------------------------------------------------------
class TestTagStatistics:
    def test_from_doc_matches_bruteforce(self, small_xmark):
        stats = TagStatistics.from_doc(small_xmark)
        assert stats.total_nodes == len(small_xmark)
        assert stats.height == small_xmark.height
        assert stats.root_tags == frozenset(("site",))
        for tag in ("bidder", "increase", "item"):
            expected = len(small_xmark.pres_with_tag(tag))
            assert stats.count(tag) == expected

    def test_histogram_counts_elements_only(self):
        doc = encode(random_tree(120, seed=7))
        stats = doc.tag_statistics()
        for tag, count in stats.items():
            assert count == len(doc.pres_with_tag(tag)), tag

    def test_unknown_tag_is_zero(self, xmark_stats):
        assert xmark_stats.count("no-such-tag") == 0
        assert xmark_stats.selectivity("no-such-tag") == 0.0

    def test_from_store_aggregates_shards(self, tmp_path):
        forest = [(f"d{i}", random_tree(80, seed=i)) for i in range(4)]
        store = ShardedStore.build(str(tmp_path / "s"), forest, shards=2)
        stats = TagStatistics.from_store(store)
        assert stats.total_nodes == store.total_nodes()
        assert stats.root_tags == frozenset(("collection",))
        merged = {}
        for shard_id in store.shard_ids():
            for tag, count in store.collection(shard_id).tag_statistics().items():
                merged[tag] = merged.get(tag, 0) + count
        assert stats.counts == merged


# ----------------------------------------------------------------------
class TestDecisions:
    def test_selective_name_test_pushes_down(self, xmark_stats):
        plan = Planner(xmark_stats).plan("/descendant::increase/ancestor::bidder")
        assert plan.pushdown_steps == frozenset((0, 1))

    def test_collapse_fuses_abbreviated_steps(self, xmark_stats):
        plan = Planner(xmark_stats).plan("//open_auction/bidder/increase")
        assert str(plan.path) == (
            "/descendant::open_auction/child::bidder/child::increase"
        )
        assert any("//-collapse" in r for r in plan.rewrites)
        assert 0 in plan.pushdown_steps

    def test_collapse_respects_root_tag_guard(self, xmark_stats):
        plan = Planner(xmark_stats).plan("//site/regions")
        # `site` may be a plane root: the engine's `//site` excludes it
        # while `/descendant::site` would not — the pair must survive.
        assert plan.path.steps[0].axis == "descendant-or-self"

    def test_collapse_skips_positional_predicates(self, xmark_stats):
        plan = Planner(xmark_stats).plan("//bidder[1]")
        assert plan.path.steps[0].axis == "descendant-or-self"
        assert not plan.rewrites

    def test_symmetry_rewrite_needs_a_cost_win(self, xmark_stats):
        # Equal-cardinality tags: the rewritten existence scan is priced
        # higher than the ancestor staircase join on both engines.
        for engine in ENGINES:
            plan = Planner(xmark_stats, engine=engine).plan(
                "/descendant::increase/ancestor::bidder"
            )
            assert not plan.rewritten

    def test_symmetry_rewrite_applies_when_cheap(self):
        # Scalar engine + near-singleton outer tag: scanning the two
        # candidates beats an ancestor join from every `m`.
        stats = TagStatistics(
            {"m": 5000, "n": 2}, total_nodes=50000, height=12
        )
        plan = Planner(stats, engine="scalar").plan(
            "/descendant::m/ancestor::n"
        )
        assert plan.rewritten
        assert str(plan.path) == "/descendant::n[descendant::m]"
        assert any("symmetry" in r for r in plan.rewrites)

    def test_predicates_ordered_cheapest_first(self, xmark_stats):
        a = Planner(xmark_stats).plan("//open_auction[bidder][seller]")
        b = Planner(xmark_stats).plan("//open_auction[seller][bidder]")
        # Same normalised predicate order regardless of input order.
        assert str(a.path) == str(b.path)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_predicate_order_is_static_cost_context_free_first(
        self, engine, tmp_path
    ):
        """Predicates sort by the catalogue's cost (on the vectorized
        engine context-free ones lead), whatever an observed run of the
        query measured: a dictionary section inflates ``count(name)``,
        so the one selective predicate is costed dearest, runs last and
        stays last after ``analyze`` — nothing writes back to the
        planner, and ``explain`` prints no feedback note."""

        def document(index):
            items = [
                element(
                    "item",
                    element("status", text("ok")),
                    element("avail", text("yes")),
                    element("name", text("needle" if i == index else f"i{i}")),
                )
                for i in range(200)
            ]
            words = [element("name", text(f"w{j}")) for j in range(150)]
            return element(
                "site", element("items", *items), element("dictionary", *words)
            )

        query = '//item[name="needle"][status][count(//name) > 0][avail]'
        store = ShardedStore.build(
            str(tmp_path / "adversarial"),
            [(f"d{i}", document(i)) for i in range(3)],
            shards=2,
        )
        with QueryService(store, backend="serial", engine=engine) as service:
            plan = service.explain(query)
            for _ in range(3):
                result, ran_under, _ = service.analyze(query)
                assert ran_under is plan and result.total == 3
            assert service.explain(query) is plan
        order = [str(p) for p in plan.path.steps[-1].predicates]
        by_cost = ["child::status", "child::avail", 'child::name = "needle"']
        context_free = "count(/descendant-or-self::node()/child::name) > 0"
        if engine == "vectorized":
            assert order == [context_free] + by_cost
        else:  # the dearest of the four when it runs per candidate
            assert order == by_cost + [context_free]
        described = plan.describe()
        assert "feedback" not in described and "observed" not in described

    def test_positional_predicates_keep_their_order(self, xmark_stats):
        plan = Planner(xmark_stats).plan("//open_auction[bidder][2]")
        predicates = plan.path.steps[-1].predicates
        assert [str(p) for p in predicates] == ["child::bidder", "2"]

    def test_skip_mode_tracks_plane_size(self, xmark_stats):
        assert Planner(xmark_stats)._skip_mode() == SkipMode.ESTIMATE
        tiny = TagStatistics({"a": 3}, total_nodes=40, height=3)
        assert Planner(tiny)._skip_mode() == SkipMode.NONE

    def test_forced_pushdown_overrides_the_model(self, xmark_stats):
        on = Planner(xmark_stats, pushdown=True).plan("/descendant::increase")
        off = Planner(xmark_stats, pushdown=False).plan("/descendant::increase")
        assert on.pushdown_steps == frozenset((0,))
        assert off.pushdown_steps == frozenset()
        assert on.steps[0].reason == "forced"

    def test_union_plans_both_branches(self, xmark_stats):
        plan = Planner(xmark_stats).plan("//seller | //buyer")
        # Per-step pushdown indices would collide across branches.
        assert plan.pushdown_steps == frozenset()
        # Both abbreviated branches still collapse to one step each.
        assert len(plan.steps) == 2
        assert len(plan.rewrites) == 2
        assert str(plan.path) == "/descendant::seller | /descendant::buyer"

    def test_plans_are_picklable(self, xmark_stats):
        import pickle

        plan = Planner(xmark_stats).plan("//open_auction[bidder]/seller")
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, QueryPlan)
        assert str(clone.path) == str(plan.path)
        assert clone.pushdown_steps == plan.pushdown_steps

    def test_describe_shows_decisions_and_estimates(self):
        stats = TagStatistics(
            {"m": 5000, "n": 2}, total_nodes=50000, height=12
        )
        plan = Planner(stats, engine="scalar").plan(
            "/descendant::m/ancestor::n"
        )
        text = plan.describe()
        assert "symmetry" in text
        assert "PUSHDOWN" in text
        assert "cardinality" in text
        assert "est. total cost" in text


# ----------------------------------------------------------------------
class TestResultInvariance:
    """Planned and unplanned execution return identical node sequences."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_xmark_queries(self, medium_xmark, xmark_stats, engine):
        planner = Planner(xmark_stats, engine=engine)
        baseline = Evaluator(medium_xmark, engine=engine)
        for query in (
            "//open_auction/bidder/increase",
            "/descendant::increase/ancestor::bidder",
            "/descendant::category/ancestor::categories",
            "//person//profile//education",
            "//open_auction[bidder][initial]/seller",
            "//bidder[1]",
        ):
            plan = planner.plan(query)
            planned = Evaluator(
                medium_xmark, engine=engine, pushdown=plan.pushdown_steps
            )
            planned.axes.mode = plan.skip_mode
            expected = baseline.evaluate(query)
            actual = planned.evaluate(plan.path)
            assert np.array_equal(expected, actual), query

    def test_forced_overrides_keep_results_identical(self, tmp_path):
        # The SkipMode a plan carries is a pure execution-strategy
        # choice: the served answer is the same under every one.
        forest = [(f"d{i}", random_tree(60, seed=30 + i)) for i in range(4)]
        store = ShardedStore.build(str(tmp_path / "skip"), forest, shards=2)
        with QueryService(store, backend="serial") as service:
            baseline = [
                {name: a.tobytes() for name, a in r.per_document.items()}
                for r in service.execute_batch(
                    PLANNER_QUERIES, engine="scalar", use_cache=False
                )
            ]
            plans = [
                service.explain(query, engine="scalar")
                for query in PLANNER_QUERIES
            ]
            for mode in SkipMode:
                forced = [
                    (compile_plan(plan, skip_mode=mode), "scalar", None, "materialize")
                    for plan in plans
                ]
                assert all(plan.skip_mode is mode for plan, *_ in forced)
                assert [
                    {name: ranks.tobytes() for name, ranks in answer.items()}
                    for answer in service.backend.run_batch(forced)
                ] == baseline

    @given(
        seeds=st.lists(st.integers(0, 400), min_size=2, max_size=3),
        size=st.integers(15, 70),
        shards=st.integers(1, 2),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_forests_through_the_service(
        self, seeds, size, shards, tmp_path_factory
    ):
        """Planner on == planner off, byte for byte, on random forests."""
        forest = [
            (f"doc-{i}", random_tree(size, seed)) for i, seed in enumerate(seeds)
        ]
        directory = str(tmp_path_factory.mktemp("planner-prop") / "store")
        store = ShardedStore.build(directory, forest, shards=shards)
        with QueryService(store, backend="serial") as service:
            for engine in ENGINES:
                planned = service.execute_batch(
                    PLANNER_QUERIES, engine=engine,
                    use_cache=False, use_planner=True,
                )
                plain = service.execute_batch(
                    PLANNER_QUERIES, engine=engine,
                    use_cache=False, use_planner=False,
                )
                for query, a, b in zip(PLANNER_QUERIES, planned, plain):
                    assert list(a.per_document) == list(b.per_document), (
                        engine, query,
                    )
                    for name in a.per_document:
                        assert np.array_equal(
                            a.per_document[name], b.per_document[name]
                        ), (engine, query, name)


# ----------------------------------------------------------------------
class TestStatisticsStayExactUnderUpdates:
    def test_manifest_statistics_match_fresh_rebuild(self, tmp_path):
        """The acceptance contract: after a mixed update batch, the
        persisted statistics equal those of a store rebuilt from the
        post-update trees."""
        from repro.service.updates import UpdateOp
        from repro.xmltree.model import element

        forest = [(f"d{i}", random_tree(90, seed=10 + i)) for i in range(4)]
        store = ShardedStore.build(str(tmp_path / "live"), forest, shards=2)
        extra = random_tree(60, seed=99)
        payload = element("e")
        store.apply_updates(
            [
                UpdateOp("add", "fresh", tree=extra),
                UpdateOp("remove", "d1"),
                UpdateOp("insert", "d2", tree=payload, pre=0),
                UpdateOp("update", "d3", tree=random_tree(40, seed=123)),
            ]
        )
        # Manifest statistics == recomputed from the live planes ...
        for shard_id in store.shard_ids():
            live = store.shard_tag_statistics(shard_id)
            fresh = store.collection(shard_id).tag_statistics()
            assert live == fresh, shard_id
        # ... == a store rebuilt from the decoded post-update trees.
        from repro.encoding.decode import subtree

        documents = []
        for shard_id in store.shard_ids():
            collection = store.collection(shard_id)
            for name in collection.names:
                documents.append(
                    (name, subtree(collection.doc, collection.root_of(name)))
                )
        rebuilt = ShardedStore.build(
            str(tmp_path / "rebuilt"), documents, shards=store.shard_count
        )
        assert rebuilt.tag_statistics() == store.tag_statistics()
        assert rebuilt.total_nodes() == store.total_nodes()
        reopened = ShardedStore.open(store.directory)
        assert reopened.tag_statistics() == store.tag_statistics()
