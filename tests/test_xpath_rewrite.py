"""Rewrite-law tests: pushdown opportunities, the symmetry rewrite, and
the ``//``-collapse law."""

from hypothesis import given, settings, strategies as st

from repro.encoding.prepost import encode
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath
from repro.xpath.rewrite import (
    collapse_descendant_or_self,
    push_name_test,
    pushdown_opportunities,
    symmetry_rewrite,
)

from _reference import random_tree


class TestPushdownOpportunities:
    def test_q1_both_steps_eligible(self):
        path = parse_xpath("/descendant::profile/descendant::education")
        assert pushdown_opportunities(path) == [0, 1]

    def test_q2_both_steps_eligible(self):
        path = parse_xpath("/descendant::increase/ancestor::bidder")
        assert pushdown_opportunities(path) == [0, 1]

    def test_predicated_step_not_eligible(self):
        path = parse_xpath("/descendant::bidder[descendant::increase]")
        assert pushdown_opportunities(path) == []

    def test_kind_test_not_eligible(self):
        path = parse_xpath("/descendant::node()")
        assert pushdown_opportunities(path) == []

    def test_child_steps_not_eligible(self):
        path = parse_xpath("/site/people/person")
        assert pushdown_opportunities(path) == []

    def test_push_name_test_returns_ast_unchanged(self):
        path = parse_xpath("/descendant::increase/ancestor::bidder")
        same, opportunities = push_name_test(path)
        assert same == path
        assert opportunities == [0, 1]


class TestSymmetryRewrite:
    def test_q2_rewrites_to_paper_form(self):
        rewritten = symmetry_rewrite("/descendant::increase/ancestor::bidder")
        assert str(rewritten) == "/descendant::bidder[descendant::increase]"

    def test_non_matching_shapes_untouched(self):
        for expr in (
            "/descendant::a",
            "/descendant::a/descendant::b",
            "/a/descendant::b/ancestor::c",  # longer prefix: unsafe
            "descendant::a/ancestor::b",  # relative: unsafe
        ):
            path = parse_xpath(expr)
            assert symmetry_rewrite(path) == path

    def test_longer_prefixes_untouched(self):
        # The trailing pair matches, but the ancestor step may climb
        # above the prefix context — the rewrite must refuse.
        for expr in (
            "/site/descendant::a/ancestor::b",
            "/descendant::x/descendant::a/ancestor::b",
            "/a/b/descendant::a/ancestor::b",
        ):
            path = parse_xpath(expr)
            assert symmetry_rewrite(path) == path

    def test_predicated_steps_untouched(self):
        # Either step carrying a predicate breaks the law's shape.
        for expr in (
            "/descendant::a[b]/ancestor::c",
            "/descendant::a/ancestor::c[b]",
            "/descendant::a[1]/ancestor::c",
            "/descendant::a/ancestor::c[last()]",
        ):
            path = parse_xpath(expr)
            assert symmetry_rewrite(path) == path

    def test_kind_tested_steps_untouched(self):
        for expr in (
            "/descendant::node()/ancestor::b",
            "/descendant::a/ancestor::node()",
            "/descendant::*/ancestor::b",
        ):
            path = parse_xpath(expr)
            assert symmetry_rewrite(path) == path

    def test_accepts_string_input(self):
        assert symmetry_rewrite("/descendant::a") == parse_xpath("/descendant::a")

    @given(seed=st.integers(0, 4000), size=st.integers(1, 150))
    @settings(max_examples=60, deadline=None)
    def test_rewrite_preserves_semantics(self, seed, size):
        """The law itself, checked on random documents for all tag pairs."""
        doc = encode(random_tree(size, seed))
        for m in ("a", "b"):
            for n in ("c", "d"):
                original = f"/descendant::{m}/ancestor::{n}"
                rewritten = symmetry_rewrite(original)
                assert (
                    evaluate(doc, original).tolist()
                    == evaluate(doc, rewritten).tolist()
                )

    def test_rewrite_on_xmark_q2(self, small_xmark):
        original = "/descendant::increase/ancestor::bidder"
        rewritten = symmetry_rewrite(original)
        assert (
            evaluate(small_xmark, original).tolist()
            == evaluate(small_xmark, rewritten).tolist()
        )


class TestCollapseDescendantOrSelf:
    def test_mid_path_pair_collapses(self):
        collapsed = collapse_descendant_or_self("/site//person")
        assert str(collapsed) == "/child::site/descendant::person"

    def test_leading_pair_needs_root_knowledge(self):
        path = parse_xpath("//person")
        assert collapse_descendant_or_self(path) == path  # unknown roots
        assert collapse_descendant_or_self(path, frozenset(("person",))) == path
        collapsed = collapse_descendant_or_self(path, frozenset(("site",)))
        assert str(collapsed) == "/descendant::person"

    def test_relative_leading_pair_always_collapses(self):
        collapsed = collapse_descendant_or_self(".//a//b")
        assert str(collapsed) == "self::node()/descendant::a/descendant::b"

    def test_positional_predicates_keep_the_child_step(self):
        for expr, twin in (
            ("//a[1]", "/descendant::a/parent::node()/child::a[1]"),
            ("//a[last()]", "/descendant::a/parent::node()/child::a[last()]"),
            (
                "/x//a[position() > 1]",
                "/child::x/descendant::a/parent::node()/child::a[position() > 1]",
            ),
        ):
            assert str(collapse_descendant_or_self(expr, frozenset())) == twin
        # The twin is for name tests only.
        for expr in ("/x//*[1]", "/x//text()[2]"):
            path = parse_xpath(expr)
            assert collapse_descendant_or_self(path, frozenset()) == path

    def test_non_positional_predicates_ride_along(self):
        collapsed = collapse_descendant_or_self("/x//a[b]", frozenset())
        assert str(collapsed) == "/child::x/descendant::a[child::b]"

    def test_non_path_expressions_pass_through(self):
        union = parse_xpath("//a | //b")
        assert collapse_descendant_or_self(union) == union

    @given(seed=st.integers(0, 4000), size=st.integers(1, 150))
    @settings(max_examples=40, deadline=None)
    def test_collapse_preserves_semantics(self, seed, size):
        """The law on random documents, every engine, incl. predicates."""
        doc = encode(random_tree(size, seed))
        root_tags = frozenset((doc.tag_of(doc.root),))
        for expr in (
            "//a", "//b//c", "//a[b]", "/a//b", ".//c", "//*",
            "//a[1]", "//b//c[last()]", "/a//b[2]", "//a[b][1]",
        ):
            original = parse_xpath(expr)
            collapsed = collapse_descendant_or_self(original, root_tags)
            for engine in ("scalar", "vectorized"):
                assert (
                    evaluate(doc, original, engine=engine).tolist()
                    == evaluate(doc, collapsed, engine=engine).tolist()
                ), (expr, engine)
