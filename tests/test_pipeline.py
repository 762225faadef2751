"""Physical operator pipelines: compilation, dispatch, driving, modes.

The operator pipeline is the only execution path since the compile-
and-drive refactor, so these tests pin down (a) the compiled shapes —
which AST forms become which operators, how the planner's pushdown
verdicts fuse in — and (b) the driver contracts: value identity of
``count``/``exists`` with materialization, early termination, and the
picklability/hashability the service layer's trie keys rely on.
"""

import pickle

import numpy as np
import pytest

from repro.counters import JoinStatistics
from repro.encoding.prepost import encode
from repro.errors import XPathEvaluationError
from repro.xmark.generator import XMarkConfig, generate
from repro.xpath.evaluator import Evaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import (
    ContextInit,
    Count,
    DocOrderDedup,
    Exists,
    Materialize,
    PositionalSelect,
    PredicateFilter,
    StaircaseStep,
    compile_plan,
    drive,
    exists_ready,
)
from repro.xpath.planner import plan_query

ENGINES = ("scalar", "vectorized")

QUERIES = (
    "/descendant::increase/ancestor::bidder",
    "//open_auction/bidder/increase",
    "//open_auction[bidder]/seller",
    "//open_auction[bidder][initial]",
    "//bidder[1]",
    "//bidder[last()]",
    "//seller | //buyer",
    "//open_auction[not(bidder)]",
    "//person[profile]/name",
    "/descendant::node()",
    "//absent_tag/child::x",
    "/",
)


@pytest.fixture(scope="module")
def doc():
    return encode(generate(0.1, XMarkConfig(seed=11)))


# ----------------------------------------------------------------------
class TestCompile:
    def test_plain_path_shape(self):
        plan = compile_plan("/site/open_auctions/open_auction")
        assert len(plan.branches) == 1
        ops = plan.branches[0]
        assert isinstance(ops[0], ContextInit) and ops[0].absolute
        assert all(isinstance(op, StaircaseStep) for op in ops[1:])
        assert [op.axis for op in ops[1:]] == ["child"] * 3
        assert isinstance(plan.terminal, Materialize)

    def test_predicates_compile_to_filter(self):
        plan = compile_plan("/descendant::open_auction[bidder][initial]/seller")
        ops = plan.branches[0]
        kinds = [type(op) for op in ops]
        # One filter per predicate: the driver's per-operator record is
        # the per-predicate record.
        assert kinds == [
            ContextInit, StaircaseStep, PredicateFilter, PredicateFilter,
            StaircaseStep,
        ]
        assert [str(op.predicate) for op in ops[2:4]] == [
            "child::bidder", "child::initial",
        ]

    def test_positional_step_compiles_whole(self):
        plan = compile_plan("//bidder[2]")
        ops = plan.branches[0]
        assert type(ops[-1]) is PositionalSelect
        assert str(ops[-1].step) == "child::bidder[2]"

    def test_union_compiles_branches(self):
        plan = compile_plan("//seller | //buyer | //person")
        assert len(plan.branches) == 3
        assert isinstance(plan.merge, DocOrderDedup)

    def test_non_union_toplevel_rejected(self):
        from repro.xpath.ast import BinaryExpr

        comparison = BinaryExpr("=", parse_xpath("//a"), parse_xpath("//b"))
        with pytest.raises(XPathEvaluationError, match="path or union"):
            compile_plan(comparison)

    def test_unknown_mode_rejected(self):
        with pytest.raises(XPathEvaluationError, match="result mode"):
            compile_plan("//a", mode="tally")
        with pytest.raises(XPathEvaluationError, match="result mode"):
            compile_plan("//a").with_mode("tally")

    def test_mode_round_trip(self):
        plan = compile_plan("//a")
        assert plan.mode == "materialize"
        assert isinstance(plan.with_mode("count").terminal, Count)
        assert isinstance(plan.with_mode("exists").terminal, Exists)
        assert plan.with_mode("materialize") is plan
        # Re-moding keeps the branch operators shared (trie prefixes).
        assert plan.with_mode("count").branches is plan.branches

    def test_pushdown_takes_no_index_sets(self, doc):
        # Pushdown is one blanket verdict, True or False: there is no
        # per-step spelling to pass.
        query = "/descendant::person/descendant::education"
        with pytest.raises(TypeError, match="True or False"):
            compile_plan(parse_xpath(query), pushdown=((1,),))
        with pytest.raises(TypeError, match="True or False"):
            Evaluator(doc, pushdown=((1,),)).evaluate(query)

    def test_pushdown_shape_guard(self):
        # parent and kind-tested steps have no fragment variant, and a
        # leading child step has none from the document node — a
        # blanket True must not mark them.
        plan = compile_plan(
            parse_xpath("/site/descendant::person/parent::*/child::text()"),
            pushdown=True,
        )
        child, desc, parent, text = plan.branches[0][1:]
        assert desc.pushdown
        assert not child.pushdown and not parent.pushdown and not text.pushdown
        # descendant-or-self reads a fragment from the document node only.
        (leading,) = compile_plan("/descendant-or-self::a", pushdown=True).branches[0][1:]
        (relative,) = compile_plan("descendant-or-self::a", pushdown=True).branches[0][1:]
        assert leading.pushdown and not relative.pushdown

    def test_planner_verdicts_honoured(self, doc):
        plan = plan_query("//open_auction/bidder/increase", frozenset((doc.tag_of(doc.root),)))
        assert plan.query == "//open_auction/bidder/increase" and plan.planned
        # The planned pipeline is the rewritten path compiled under the
        # one eligibility rule.
        rewritten = "/descendant::open_auction/child::bidder/child::increase"
        assert plan.branches == compile_plan(rewritten, pushdown=True).branches
        pushed = {
            op.index
            for branch in plan.branches
            for op in branch
            if isinstance(op, StaircaseStep) and op.pushdown
        }
        assert pushed == {0, 1, 2}

    def test_compiled_plan_passes_through(self):
        plan = compile_plan("//a")
        assert compile_plan(plan) is plan
        assert compile_plan(plan, mode="count").mode == "count"

    def test_picklable_and_hashable(self):
        plan = compile_plan("//open_auction[bidder]/seller | //person[2]")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.branches == plan.branches
        assert clone.terminal == plan.terminal
        # Operator prefixes key the worker-side trie cache.
        assert {plan.branches[0][:2]: 1}[clone.branches[0][:2]] == 1

    def test_describe_lists_operators(self):
        text = compile_plan("//open_auction[bidder]/seller | //buyer").describe()
        assert "physical pipeline:" in text
        assert "StaircaseStep" in text
        assert "PredicateFilter" in text
        assert "DocOrderDedup" in text
        assert "branch 2:" in text

    def test_exists_ready_chunks_the_earliest_clean_frontier(self):
        frontier = np.arange(10, dtype=np.int64)
        # No filters downstream: any producer with a multi-element
        # frontier is a chunk point.
        ops = compile_plan("/descendant::open_auction/bidder/increase").branches[0]
        assert exists_ready(ops, 2, frontier)
        # A bulk-mask filter in the tail: only the last producer (its
        # trailing filters ride along) may chunk.
        ops = compile_plan("/descendant::open_auction[bidder]/seller[initial]").branches[0]
        assert not exists_ready(ops, 1, frontier)   # filter + later producer
        assert exists_ready(ops, 3, frontier)       # last producer + filter
        # Nothing to chunk: sentinel/singleton contexts and non-producers.
        assert not exists_ready(ops, 3, np.asarray([4], dtype=np.int64))
        assert not exists_ready(ops, 2, frontier)   # a PredicateFilter
        assert not exists_ready(compile_plan("/").branches[0], 0, frontier)


# ----------------------------------------------------------------------
class TestDrive:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("query", QUERIES)
    def test_modes_agree_with_materialize(self, doc, engine, query):
        evaluator = Evaluator(doc, engine=engine)
        ranks = evaluator.evaluate(query)
        assert evaluator.count(query) == len(ranks)
        assert evaluator.exists(query) == (len(ranks) > 0)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_modes_agree_under_pushdown_and_context(self, doc, engine):
        evaluator = Evaluator(doc, engine=engine, pushdown=True)
        context = evaluator.evaluate("//open_auction")[:5]
        for query in ("descendant::increase", "ancestor::site", "bidder/increase"):
            ranks = evaluator.evaluate(query, context=context)
            assert evaluator.count(query, context=context) == len(ranks)
            assert evaluator.exists(query, context=context) == (len(ranks) > 0)

    def test_span_applies_to_every_mode(self, doc):
        evaluator = Evaluator(doc)
        plan = compile_plan("/descendant::site")
        full = drive(plan, evaluator)
        assert len(full) == 1
        # The collection layer's virtual-root exclusion is the span
        # (root + 1, n - 1).
        span = (int(full[0]) + 1, len(doc) - 1)
        assert len(drive(plan, evaluator, span=span)) == 0
        assert drive(plan.with_mode("count"), evaluator, span=span) == 0
        assert drive(plan.with_mode("exists"), evaluator, span=span) is False
        # ... and a member's span keeps exactly the ranks inside it,
        # early-terminating modes included.
        bidders = drive(compile_plan("//bidder"), evaluator)
        lo, hi = int(bidders[3]), int(bidders[7])
        plan = compile_plan("//bidder | //increase/parent::bidder")
        kept = drive(plan, evaluator, span=(lo, hi))
        assert kept.tolist() == bidders[3:8].tolist()
        assert drive(plan.with_mode("count"), evaluator, span=(lo, hi)) == 5
        assert drive(plan.with_mode("exists"), evaluator, span=(lo, hi)) is True
        assert (
            drive(plan.with_mode("exists"), evaluator, span=(lo + 1, lo + 1))
            is False
        )

    def test_exists_terminates_early(self, doc):
        """Existence of a dense step must scan far less of the plane
        than materializing it (the chunked final-frontier scan)."""
        query = "/descendant::open_auction/descendant::bidder"
        full_stats = JoinStatistics()
        Evaluator(doc, engine="scalar", stats=full_stats).evaluate(query)
        exists_stats = JoinStatistics()
        assert Evaluator(doc, engine="scalar", stats=exists_stats).exists(query)
        # The final descendant join ran on the first context chunk only
        # (one partition scan per surviving context node).
        assert exists_stats.partitions < full_stats.partitions / 2
        assert exists_stats.result_size < full_stats.result_size / 2

    def test_exists_short_circuits_on_empty_frontier(self, doc):
        stats = JoinStatistics()
        evaluator = Evaluator(doc, engine="scalar", stats=stats)
        assert not evaluator.exists("//no_such_tag/descendant::person")
        # The descendant step after the empty frontier never ran.
        assert stats.partitions == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_union_count_deduplicates(self, doc, engine):
        evaluator = Evaluator(doc, engine=engine)
        # //person overlaps itself across branches: count must not
        # double-report the shared nodes.
        assert evaluator.count("//person | //person") == evaluator.count("//person")

    def test_stepwise_dispatch_matches_full_evaluation(self, doc):
        """Step-at-a-time execution — compile one step into its
        operator(s), dispatch each — equals driving the whole plan."""
        from repro.xpath.axes import DOCUMENT_CONTEXT
        from repro.xpath.pipeline import compile_step_ops, dispatch

        for engine in ENGINES:
            evaluator = Evaluator(doc, engine=engine)
            path = parse_xpath("//open_auction[bidder]/seller")
            context = DOCUMENT_CONTEXT
            for index, step in enumerate(path.steps):
                for op in compile_step_ops(step, index, False):
                    context = dispatch(op, evaluator, context)
            assert np.array_equal(context, evaluator.evaluate(path))

    def test_facade_compile_cache_is_bounded(self, doc):
        evaluator = Evaluator(doc)
        limit = Evaluator.COMPILE_CACHE_LIMIT
        for i in range(limit + 5):
            evaluator.compile(parse_xpath(f"//tag{i}"))
        assert len(evaluator._compiled) <= limit
