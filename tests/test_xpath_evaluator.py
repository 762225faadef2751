"""End-to-end XPath evaluation tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.staircase import SkipMode
from repro.encoding.prepost import encode
from repro.xmltree.parser import parse
from repro.xpath.evaluator import evaluate

from _reference import random_tree

AUCTION_XML = """
<site>
  <people>
    <person id="p0"><name>Ada</name>
      <profile income="60000"><education>Graduate School</education></profile>
    </person>
    <person id="p1"><name>Alan</name>
      <profile income="40000"/>
    </person>
    <person id="p2"><name>Grace</name></person>
  </people>
  <open_auctions>
    <open_auction id="a0">
      <bidder><personref person="p0"/><increase>3.00</increase></bidder>
      <bidder><personref person="p1"/><increase>5.00</increase></bidder>
      <current>108.00</current>
    </open_auction>
    <open_auction id="a1">
      <bidder><personref person="p2"/><increase>12.00</increase></bidder>
      <current>45.00</current>
    </open_auction>
    <open_auction id="a2">
      <current>7.00</current>
    </open_auction>
  </open_auctions>
</site>
"""


@pytest.fixture(scope="module")
def auction():
    return encode(parse(AUCTION_XML))


def tags(doc, pres):
    return [doc.tag_of(int(p)) for p in pres]


class TestPaperQueries:
    def test_q1_on_fixture(self, auction):
        got = evaluate(auction, "/descendant::profile/descendant::education")
        assert tags(auction, got) == ["education"]

    def test_q2_on_fixture(self, auction):
        got = evaluate(auction, "/descendant::increase/ancestor::bidder")
        assert tags(auction, got) == ["bidder", "bidder", "bidder"]

    def test_q2_evaluation_shape_matches_paper_pipeline(self, auction):
        """The three-line evaluation sketch of Section 4.4:
        r = root; s1 = nametest(desc(r), increase); s2 = nametest(anc(s1), bidder)."""
        from repro.core.staircase import staircase_join
        from repro.xpath.axes import apply_node_test

        root = np.array([auction.root])
        s1 = apply_node_test(
            auction,
            staircase_join(auction, root, "descendant"),
            "descendant",
            "name",
            "increase",
        )
        s2 = apply_node_test(
            auction,
            staircase_join(auction, s1, "ancestor"),
            "ancestor",
            "name",
            "bidder",
        )
        direct = evaluate(auction, "/descendant::increase/ancestor::bidder")
        assert s2.tolist() == direct.tolist()


class TestAbbreviations:
    def test_double_slash(self, auction):
        assert len(evaluate(auction, "//bidder")) == 3

    def test_child_steps(self, auction):
        got = evaluate(auction, "/site/people/person")
        assert len(got) == 3

    def test_attribute_step(self, auction):
        got = evaluate(auction, "//person/@id")
        assert len(got) == 3

    def test_dot_dot(self, auction):
        bidders = evaluate(auction, "//bidder/..")
        assert tags(auction, bidders) == ["open_auction", "open_auction"]

    def test_star(self, auction):
        got = evaluate(auction, "/site/*")
        assert tags(auction, got) == ["people", "open_auctions"]

    def test_text_nodes(self, auction):
        got = evaluate(auction, "//increase/text()")
        assert len(got) == 3


class TestPredicates:
    def test_existential_path(self, auction):
        got = evaluate(auction, "//open_auction[bidder]")
        assert len(got) == 2

    def test_negation(self, auction):
        got = evaluate(auction, "//open_auction[not(bidder)]")
        assert len(got) == 1

    def test_positional(self, auction):
        first = evaluate(auction, "//open_auction[1]")
        assert len(first) == 1
        # The id attribute is the node right after the element in pre order.
        assert auction.value_of(int(first[0]) + 1) == "a0"

    def test_positional_per_context_node(self, auction):
        """[1] picks the first bidder of EACH auction (2 results), not the
        first overall."""
        got = evaluate(auction, "//open_auction/bidder[1]")
        assert len(got) == 2

    def test_position_function(self, auction):
        a = evaluate(auction, "//bidder[position() = 2]")
        b = evaluate(auction, "//bidder[2]")
        assert a.tolist() == b.tolist()

    def test_last_function(self, auction):
        got = evaluate(auction, "//open_auction[last()]")
        assert len(got) == 1

    def test_value_comparison_string(self, auction):
        got = evaluate(auction, '//person[name = "Ada"]')
        assert len(got) == 1

    def test_value_comparison_numeric(self, auction):
        got = evaluate(auction, "//open_auction[current > 40]")
        assert len(got) == 2

    def test_attribute_comparison(self, auction):
        got = evaluate(auction, '//profile[@income = "60000"]')
        assert len(got) == 1

    def test_count_in_comparison(self, auction):
        got = evaluate(auction, "//open_auction[count(bidder) = 2]")
        assert len(got) == 1

    def test_and_or(self, auction):
        got = evaluate(auction, "//open_auction[bidder and current > 100]")
        assert len(got) == 1
        got = evaluate(auction, "//open_auction[current > 100 or not(bidder)]")
        assert len(got) == 2

    def test_contains_and_starts_with(self, auction):
        got = evaluate(auction, '//person[contains(name, "da")]')
        assert len(got) == 1
        got = evaluate(auction, '//person[starts-with(name, "A")]')
        assert len(got) == 2

    def test_relational_reverse_axis_position(self, auction):
        """Positions on reverse axes count outward: ancestor::*[1] is the
        parent."""
        increase = evaluate(auction, "//increase")[:1]
        got = evaluate(auction, "ancestor::*[1]", context=increase)
        assert tags(auction, got) == ["bidder"]


class TestStrategiesAndModes:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize(
        "mode", [SkipMode.NONE, SkipMode.SKIP, SkipMode.ESTIMATE, SkipMode.EXACT]
    )
    def test_all_configurations_agree(self, auction, engine, mode):
        expected = evaluate(auction, "/descendant::increase/ancestor::bidder")
        got = evaluate(
            auction,
            "/descendant::increase/ancestor::bidder",
            engine=engine,
            mode=mode,
        )
        assert got.tolist() == expected.tolist()

    def test_pushdown_equivalence_on_fixture(self, auction):
        for query in (
            "/descendant::profile/descendant::education",
            "/descendant::increase/ancestor::bidder",
        ):
            plain = evaluate(auction, query, pushdown=False)
            pushed = evaluate(auction, query, pushdown=True)
            assert plain.tolist() == pushed.tolist()

    @given(seed=st.integers(0, 3000), size=st.integers(1, 120))
    @settings(max_examples=40, deadline=None)
    def test_pushdown_equivalence_random(self, seed, size):
        doc = encode(random_tree(size, seed))
        for query in ("/descendant::b/ancestor::a", "/descendant::a/descendant::c"):
            plain = evaluate(doc, query, pushdown=False)
            pushed = evaluate(doc, query, pushdown=True)
            assert plain.tolist() == pushed.tolist()


class TestContextHandling:
    def test_relative_path_defaults_to_root(self, auction):
        got = evaluate(auction, "people/person")
        assert len(got) == 3

    def test_integer_context(self, auction):
        people = evaluate(auction, "/site/people")
        got = evaluate(auction, "person", context=int(people[0]))
        assert len(got) == 3

    def test_array_context(self, auction):
        auctions = evaluate(auction, "//open_auction")
        got = evaluate(auction, "bidder/increase", context=auctions)
        assert len(got) == 3

    def test_bare_root_path_is_empty(self, auction):
        # The document node itself is not encoded (documented deviation).
        assert evaluate(auction, "/").tolist() == []

    def test_result_is_document_ordered_and_unique(self, auction):
        got = evaluate(auction, "//bidder/ancestor-or-self::*")
        assert np.all(np.diff(got) > 0)


class TestXMarkQueries:
    def test_q1_q2_sanity(self, small_xmark):
        q1 = evaluate(small_xmark, "/descendant::profile/descendant::education")
        q2 = evaluate(small_xmark, "/descendant::increase/ancestor::bidder")
        assert len(q1) > 0
        assert len(q2) == len(small_xmark.pres_with_tag("bidder"))
        assert tags(small_xmark, q2[:3]) == ["bidder"] * 3

    def test_every_increase_has_bidder_parent(self, small_xmark):
        increases = evaluate(small_xmark, "//increase")
        parents = evaluate(small_xmark, "..", context=increases)
        assert set(tags(small_xmark, parents)) == {"bidder"}
