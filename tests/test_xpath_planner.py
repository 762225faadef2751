"""Planner tests: the three rules, the plans they serve, and result
invariance.

A plan is a function of the query text and the plane's root tag(s).
:data:`GOLDEN` pins the compiled pipeline of every served query shape;
the headline property — a plan changes *how* a query runs, never *what*
it returns — is pinned by hypothesis on random forests, both engines,
through the full service stack (planner → prefix trie → merge).
"""

import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore, UpdateOp
from repro.xmltree.model import NodeKind, element, text
from repro.xpath.evaluator import Evaluator
from repro.xpath.pipeline import (
    PhysicalPlan,
    PredicateFilter,
    compile_plan,
    drive,
)
from repro.xpath.planner import plan_query

from _reference import random_tree

ENGINES = ("scalar", "vectorized")

#: The root tag of an XMark document plane.
SITE = frozenset(("site",))

#: Shapes covering every planner rule: //-collapse, pushdown on
#: descendant/ancestor, predicate order, positional guards, unions,
#: kind tests.
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

#: The compiled pipeline of every served query shape — the suite
#: (``repro.harness.queries``) and the benchmark pools, whose ``[k > 0]``
#: nonce is instantiated at k = 1 — as one string per union branch
#: (``str(op)`` joined by " → "), unscoped then document-scoped.  Any
#: change to a served plan fails here.
GOLDEN = {
    "/descendant::profile/descendant::education": (
        (
            "ContextInit(document) → StaircaseStep(descendant::profile, pushdown) → StaircaseStep(descendant::education, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::profile, pushdown) → StaircaseStep(descendant::education, pushdown)",
        ),
    ),
    "/descendant::increase/ancestor::bidder": (
        (
            "ContextInit(document) → StaircaseStep(descendant::increase, pushdown) → StaircaseStep(ancestor::bidder, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::increase, pushdown) → StaircaseStep(ancestor::bidder, pushdown)",
        ),
    ),
    "/site/open_auctions/open_auction/bidder/increase": (
        (
            "ContextInit(document) → StaircaseStep(child::site) → StaircaseStep(child::open_auctions, pushdown) → StaircaseStep(child::open_auction, pushdown) → StaircaseStep(child::bidder, pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(self::site) → StaircaseStep(child::open_auctions, pushdown) → StaircaseStep(child::open_auction, pushdown) → StaircaseStep(child::bidder, pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
    ),
    "//open_auction[bidder]/seller": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([child::bidder]) → StaircaseStep(child::seller, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([child::bidder]) → StaircaseStep(child::seller, pushdown)",
        ),
    ),
    "//open_auction[not(bidder)]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([not(child::bidder)])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([not(child::bidder)])",
        ),
    ),
    "//open_auction/bidder[1]/increase": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PositionalSelect(child::bidder[1], pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PositionalSelect(child::bidder[1], pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
    ),
    "//open_auction/bidder[last()]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PositionalSelect(child::bidder[last()], pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PositionalSelect(child::bidder[last()], pushdown)",
        ),
    ),
    "//open_auction[count(bidder) >= 3]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([count(child::bidder) >= 3])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([count(child::bidder) >= 3])",
        ),
    ),
    "//person[profile/education = \"Graduate School\"]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → PredicateFilter([child::profile/child::education = \"Graduate School\"])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → PredicateFilter([child::profile/child::education = \"Graduate School\"])",
        ),
    ),
    "//person[@id = \"person0\"]/name": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → PredicateFilter([attribute::id = \"person0\"]) → StaircaseStep(child::name, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → PredicateFilter([attribute::id = \"person0\"]) → StaircaseStep(child::name, pushdown)",
        ),
    ),
    "//seller | //buyer": (
        (
            "ContextInit(document) → StaircaseStep(descendant::seller, pushdown)",
            "ContextInit(document) → StaircaseStep(descendant::buyer, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::seller, pushdown)",
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::buyer, pushdown)",
        ),
    ),
    "//open_auction[initial + 20 < current]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([(child::initial + 20) < child::current])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([(child::initial + 20) < child::current])",
        ),
    ),
    "//item[starts-with(location, \"A\")]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::item, pushdown) → PredicateFilter([starts-with(child::location, \"A\")])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::item, pushdown) → PredicateFilter([starts-with(child::location, \"A\")])",
        ),
    ),
    "//bidder[1]/following-sibling::bidder": (
        (
            "ContextInit(document) → StaircaseStep(descendant::bidder, pushdown) → StaircaseStep(parent::node()) → PositionalSelect(child::bidder[1], pushdown) → StaircaseStep(following-sibling::bidder)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → PositionalSelect(child::bidder[1], pushdown) → StaircaseStep(following-sibling::bidder)",
        ),
    ),
    "//profile/education/text()": (
        (
            "ContextInit(document) → StaircaseStep(descendant::profile, pushdown) → StaircaseStep(child::education, pushdown) → StaircaseStep(child::text())",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::profile, pushdown) → StaircaseStep(child::education, pushdown) → StaircaseStep(child::text())",
        ),
    ),
    "//description//keyword": (
        (
            "ContextInit(document) → StaircaseStep(descendant::description, pushdown) → StaircaseStep(descendant::keyword, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::description, pushdown) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::keyword, pushdown)",
        ),
    ),
    "//open_auction[not(reserve)]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([not(child::reserve)])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([not(child::reserve)])",
        ),
    ),
    "//open_auction/bidder/increase": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → StaircaseStep(child::bidder, pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → StaircaseStep(child::bidder, pushdown) → StaircaseStep(child::increase, pushdown)",
        ),
    ),
    "//person/profile/interest": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → StaircaseStep(child::profile, pushdown) → StaircaseStep(child::interest, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → StaircaseStep(child::profile, pushdown) → StaircaseStep(child::interest, pushdown)",
        ),
    ),
    "//person[@id = \"person0\"][1 > 0]/name": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([attribute::id = \"person0\"]) → StaircaseStep(child::name, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([attribute::id = \"person0\"]) → StaircaseStep(child::name, pushdown)",
        ),
    ),
    "//person[profile/education = \"Graduate School\"][1 > 0]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([child::profile/child::education = \"Graduate School\"])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([child::profile/child::education = \"Graduate School\"])",
        ),
    ),
    "//item[starts-with(location, \"A\")][1 > 0]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::item, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([starts-with(child::location, \"A\")])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::item, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([starts-with(child::location, \"A\")])",
        ),
    ),
    "//open_auction[count(bidder) >= 3][1 > 0]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([count(child::bidder) >= 3])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([count(child::bidder) >= 3])",
        ),
    ),
    "//open_auction[initial + 20 < current][1 > 0]": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([(child::initial + 20) < child::current])",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([(child::initial + 20) < child::current])",
        ),
    ),
    "//open_auction[bidder/increase > 10][1 > 0]/seller": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([child::bidder/child::increase > 10]) → StaircaseStep(child::seller, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → PredicateFilter([1 > 0]) → PredicateFilter([child::bidder/child::increase > 10]) → StaircaseStep(child::seller, pushdown)",
        ),
    ),
    "//open_auction//*": (
        (
            "ContextInit(document) → StaircaseStep(descendant::open_auction, pushdown) → StaircaseStep(descendant::*)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::open_auction, pushdown) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::*)",
        ),
    ),
    "//bidder": (
        (
            "ContextInit(document) → StaircaseStep(descendant::bidder, pushdown)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::bidder, pushdown)",
        ),
    ),
    "//item//text()": (
        (
            "ContextInit(document) → StaircaseStep(descendant::item, pushdown) → StaircaseStep(descendant::text())",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::item, pushdown) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::text())",
        ),
    ),
    "//person/*": (
        (
            "ContextInit(document) → StaircaseStep(descendant::person, pushdown) → StaircaseStep(child::*)",
        ),
        (
            "ContextInit(context) → StaircaseStep(descendant-or-self::node()) → StaircaseStep(child::person, pushdown) → StaircaseStep(child::*)",
        ),
    ),
}


def served_pipelines(service, query, document=None):
    """The branches ``service`` dispatches for ``query``, as strings."""
    sent = []
    run_batch = service.backend.run_batch
    service.backend.run_batch = lambda items, **kw: (
        sent.extend(items) or run_batch(items, **kw)
    )
    try:
        service.execute(query, document=document, use_cache=False)
    finally:
        del service.backend.run_batch
    ((pipeline, *_),) = sent
    return tuple(" → ".join(str(op) for op in b) for b in pipeline.branches)


class TestGoldenPlans:
    @pytest.fixture(scope="class")
    def service(self, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("golden") / "store")
        store = ShardedStore.build(directory, get_forest(2, 0.05), shards=2)
        with QueryService(store, backend="serial") as service:
            yield service

    @pytest.mark.parametrize("query", GOLDEN)
    def test_served_plans_are_pinned(self, service, query):
        unscoped, scoped = GOLDEN[query]
        document = service.store.document_names()[0]
        assert served_pipelines(service, query) == unscoped
        assert served_pipelines(service, query, document) == scoped

    def test_plans_do_not_depend_on_the_engine(self, service):
        document = service.store.document_names()[1]
        with QueryService(service.store, backend="serial", engine="scalar") as scalar:
            for query in GOLDEN:
                for scope in (None, document):
                    assert served_pipelines(scalar, query, scope) == served_pipelines(
                        service, query, scope
                    ), query


# ----------------------------------------------------------------------
def pushed(plan):
    """Per union branch, the step indices whose name test runs below
    the join."""
    return tuple(
        frozenset(op.index for op in branch if getattr(op, "pushdown", False))
        for branch in plan.branches
    )


def predicates(plan):
    """The last branch's predicate filters, in the order they run."""
    return [str(op.predicate) for op in plan.branches[-1] if isinstance(op, PredicateFilter)]


class TestDecisions:
    def test_selective_name_test_pushes_down(self):
        # Every eligible name test is pushed down: no catalogue to ask.
        plan = plan_query("/descendant::increase/ancestor::bidder", SITE)
        assert pushed(plan) == (frozenset((0, 1)),)
        assert not plan.rewrites  # the symmetry rewrite is never planned

    def test_collapse_fuses_abbreviated_steps(self):
        plan = plan_query("//open_auction/bidder/increase", SITE)
        assert plan.rewrites == (
            "//-collapse → /descendant::open_auction/child::bidder/child::increase",
        )
        # The child steps read their fragments too.
        assert pushed(plan) == (frozenset((0, 1, 2)),)

    def test_collapse_respects_root_tag_guard(self):
        plan = plan_query("//site/regions", SITE)
        # `site` may be a plane root: the engine's `//site` excludes it
        # while `/descendant::site` would not — the pair must survive.
        assert plan.branches[0][1].axis == "descendant-or-self"

    def test_positional_twin_keeps_the_child_step(self):
        # Positions count within each parent's child list, so the child
        # step stays; the context it reads is the parents of the tag's
        # fragment, not every node of the plane.
        plan = plan_query("//bidder[1]", SITE)
        assert plan.rewrites == (
            "//-collapse → /descendant::bidder/parent::node()/child::bidder[1]",
        )
        assert pushed(plan) == (frozenset((0, 2)),)
        plan = plan_query("//open_auction//bidder[last()]/increase", SITE)
        assert plan.rewrites == (
            "//-collapse → /descendant::open_auction/descendant::bidder/parent::node()"
            "/child::bidder[last()]/child::increase",
        )
        # Kind tests, root tags and scoped plans keep the pair.
        for query, scoped in (
            ("//*[1]", False),
            ("//site[1]", False),
            ("//bidder[1]", True),
        ):
            plan = plan_query(query, SITE, scoped)
            assert plan.branches[0][1].axis == "descendant-or-self", query

    def test_scoped_planner_never_collapses(self):
        # A scoped plan re-anchors at a member root, which the root-tag
        # guard does not describe: no pair collapses, leading or not.
        plan = plan_query("//description//keyword", SITE, scoped=True)
        assert plan.rewrites == ()
        assert plan.branches == compile_plan(
            "//description//keyword", pushdown=True, scoped=True
        ).branches

    def test_context_free_predicates_run_first(self):
        plan = plan_query("//a[c][7 > 0][b][count(//a) > 1]", SITE)
        assert predicates(plan) == [
            "7 > 0",
            "count(/descendant-or-self::node()/child::a) > 1",
            "child::c",
            "child::b",
        ]
        # Without a context-free predicate the written order stands.
        for query, written in (
            ("//a[c][b]", ["child::c", "child::b"]),
            ("//a[b][c]", ["child::b", "child::c"]),
        ):
            assert predicates(plan_query(query, SITE)) == written

    @pytest.mark.parametrize("engine", ENGINES)
    def test_predicate_order_is_static_context_free_first(self, engine, tmp_path):
        """The context-free predicate leads and the others keep their
        written order, whatever an observed run of the query measured:
        a dictionary section inflates ``count(name)``, and the one
        selective predicate still runs where it was written — nothing
        writes back to the planner, and ``explain`` prints no feedback
        note."""

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
        assert predicates(plan) == [
            "count(/descendant-or-self::node()/child::name) > 0",
            'child::name = "needle"',
            "child::status",
            "child::avail",
        ]
        described = plan.describe()
        assert "feedback" not in described and "observed" not in described

    def test_positional_predicates_keep_their_order(self):
        plan = plan_query("//open_auction[bidder][2]", SITE)
        select = plan.branches[0][-1]
        assert [str(p) for p in select.step.predicates] == ["child::bidder", "2"]
        plan = plan_query("//open_auction[bidder][7 > 0][2]", SITE)
        select = plan.branches[0][-1]
        assert [str(p) for p in select.step.predicates] == [
            "child::bidder", "7 > 0", "2",
        ]

    def test_union_plans_both_branches(self):
        plan = plan_query("//seller | //buyer/name", SITE)
        # Pushdown is decided per branch, like a top-level path's.
        assert pushed(plan) == (frozenset((0,)), frozenset((0, 1)))
        # Both abbreviated branches still collapse to one step each.
        assert plan.rewrites == (
            "//-collapse → /descendant::seller",
            "//-collapse → /descendant::buyer/child::name",
        )

    def test_plans_are_picklable(self):
        plan = plan_query("//open_auction[bidder]/seller", SITE)
        clone = pickle.loads(pickle.dumps(plan))
        assert isinstance(clone, PhysicalPlan) and clone.planned
        assert clone == plan

    def test_describe_names_rewrites_and_pushdown(self):
        text = plan_query("//person/name", SITE).describe()
        assert text.startswith("XPath: //person/name\nrewrite: //-collapse")
        assert "staircase_join_desc" in text
        assert "StaircaseStep(descendant::person, pushdown)" in text
        text = plan_query("/site", SITE).describe()
        assert "rewrite: none applicable" in text and "pushdown" not in text
        # One rendering: the pipeline, with no logical step listing.
        assert "step 1:" not in text


# ----------------------------------------------------------------------
class TestResultInvariance:
    """Planned and unplanned execution return identical node sequences."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_xmark_queries(self, medium_xmark, engine):
        baseline = Evaluator(medium_xmark, engine=engine)
        for query in (
            "//open_auction/bidder/increase",
            "/descendant::increase/ancestor::bidder",
            "/descendant::category/ancestor::categories",
            "//person//profile//education",
            "//open_auction[bidder][initial]/seller",
            "//open_auction[bidder][7 > 0]/seller",
            "//bidder[1]",
        ):
            plan = plan_query(query, SITE)
            runtime = Evaluator(medium_xmark, engine=engine)
            expected = baseline.evaluate(query)
            assert np.array_equal(expected, drive(plan, runtime)), query

    def test_forced_overrides_keep_results_identical(self, tmp_path):
        # compile_plan(pushdown=) forces every name test below its join,
        # or none — the Figure 11(e,f) ablation: the served answer is
        # the same either way.
        forest = [(f"d{i}", random_tree(60, seed=30 + i)) for i in range(4)]
        store = ShardedStore.build(str(tmp_path / "forced"), forest, shards=2)
        for engine in ENGINES:
            with QueryService(store, backend="serial", engine=engine) as service:
                baseline = [
                    {name: a.tobytes() for name, a in r.per_document.items()}
                    for r in service.execute_batch(PLANNER_QUERIES, use_cache=False)
                ]
                for pushdown in (True, False):
                    forced = [
                        (compile_plan(query, pushdown=pushdown), engine, None, "materialize")
                        for query in PLANNER_QUERIES
                    ]
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
        for engine in ENGINES:
            with QueryService(store, backend="serial", engine=engine) as service, \
                    QueryService(store, backend="serial", planner=False,
                                 engine=engine) as unplanned:
                planned = service.execute_batch(PLANNER_QUERIES, use_cache=False)
                plain = unplanned.execute_batch(PLANNER_QUERIES, use_cache=False)
                for query, a, b in zip(PLANNER_QUERIES, planned, plain):
                    assert list(a.per_document) == list(b.per_document), (
                        engine, query,
                    )
                    for name in a.per_document:
                        assert np.array_equal(
                            a.per_document[name], b.per_document[name]
                        ), (engine, query, name)


# ----------------------------------------------------------------------
def element_counts(doc) -> dict:
    """Element count per tag of ``doc``, zero counts left out: what an
    older manifest's per-shard ``tags`` entry held."""
    codes = doc.tag.codes[doc.kind == NodeKind.ELEMENT]
    counts = np.bincount(codes, minlength=len(doc.tag.dictionary))
    return {doc.tag.dictionary[c]: int(counts[c]) for c in np.nonzero(counts)[0]}


class TestOldManifests:
    def test_statistics_manifest_opens_answers_and_commits(self, tmp_path):
        """A store whose manifest still carries the per-shard planner
        statistics (``tags`` / ``height``) opens, answers byte-identically
        and commits; the manifest written by the commit carries neither
        key."""
        forest = [(f"d{i}", random_tree(50, seed=60 + i)) for i in range(4)]
        store = ShardedStore.build(str(tmp_path / "s"), forest, shards=2)
        queries = PLANNER_QUERIES + ("//*", "//a[b][7 > 0]")

        def answers(store):
            with QueryService(store, backend="serial") as service:
                return [
                    {name: a.tobytes() for name, a in r.per_document.items()}
                    for r in service.execute_batch(queries, use_cache=False)
                ]

        expected = answers(store)
        path = os.path.join(store.directory, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        for entry in manifest["shards"]:
            doc = store.collection(entry["id"]).doc
            entry["tags"] = element_counts(doc)
            entry["height"] = doc.height
        with open(path, "w") as f:
            json.dump(manifest, f, indent=1)

        old = ShardedStore.open(store.directory)
        assert answers(old) == expected
        fresh = ("fresh", random_tree(30, seed=5))
        old.apply_updates([UpdateOp("add", fresh[0], tree=fresh[1])])
        with open(path) as f:
            written = json.load(f)["shards"]
        assert not [e for e in written if "tags" in e or "height" in e]
        rebuilt = ShardedStore.build(
            str(tmp_path / "rebuilt"), forest + [fresh], shards=2
        )
        assert answers(ShardedStore.open(store.directory)) == answers(rebuilt)
