"""Query-suite tests: every workload query runs, agrees across
strategies, and shows its expected cardinality characteristics."""

import numpy as np
import pytest

from repro.harness.queries import QUERY_SUITE
from repro.xpath.evaluator import evaluate


@pytest.fixture(scope="module")
def doc():
    from repro.harness.workloads import get_document

    return get_document(0.5)


class TestSuiteRuns:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("query", QUERY_SUITE, ids=[q.key for q in QUERY_SUITE])
    def test_query_evaluates_in_document_order(self, doc, query, engine):
        result = evaluate(doc, query.xpath, engine=engine)
        if len(result) > 1:
            assert np.all(np.diff(result) > 0)

    @pytest.mark.parametrize("query", QUERY_SUITE, ids=[q.key for q in QUERY_SUITE])
    def test_engines_agree(self, doc, query):
        scalar = evaluate(doc, query.xpath, engine="scalar")
        bulk = evaluate(doc, query.xpath, engine="vectorized")
        pushed = evaluate(doc, query.xpath, pushdown=True)
        bulk_pushed = evaluate(doc, query.xpath, engine="vectorized", pushdown=True)
        assert scalar.tolist() == bulk.tolist() == pushed.tolist()
        assert scalar.tolist() == bulk_pushed.tolist()

    def test_metadata_complete(self):
        keys = [q.key for q in QUERY_SUITE]
        assert len(set(keys)) == len(keys)
        for query in QUERY_SUITE:
            assert query.description
            assert query.features


class TestCardinalityCharacteristics:
    def test_bids_partition(self, doc):
        """every auction either has bids or doesn't (S04/S05)."""
        with_bids = evaluate(doc, "//open_auction[bidder]")
        without = evaluate(doc, "//open_auction[not(bidder)]")
        total = evaluate(doc, "//open_auction")
        assert len(with_bids) + len(without) == len(total)
        assert len(np.intersect1d(with_bids, without)) == 0

    def test_opening_increase_per_bidding_auction(self, doc):
        """S06 returns exactly one increase per auction with bids."""
        opening = evaluate(doc, "//open_auction/bidder[1]/increase")
        with_bids = evaluate(doc, "//open_auction[bidder]")
        assert len(opening) == len(with_bids)

    def test_first_plus_rest_equals_all_bidders(self, doc):
        """S14: bidder[1] ∪ its following siblings = all bidders."""
        first = evaluate(doc, "//open_auction/bidder[1]")
        rest = evaluate(doc, "//bidder[1]/following-sibling::bidder")
        everything = evaluate(doc, "//bidder")
        assert len(first) + len(rest) == len(everything)
        assert np.array_equal(np.union1d(first, rest), everything)

    def test_union_is_disjoint_union_here(self, doc):
        """S11: sellers and buyers are distinct elements."""
        sellers = evaluate(doc, "//seller")
        buyers = evaluate(doc, "//buyer")
        union = evaluate(doc, "//seller | //buyer")
        assert len(union) == len(sellers) + len(buyers)

    def test_text_matches_parent_count(self, doc):
        """S15: every education element has exactly one text child."""
        texts = evaluate(doc, "//profile/education/text()")
        elements = evaluate(doc, "//profile/education")
        assert len(texts) == len(elements)

    def test_point_lookup_is_singleton(self, doc):
        assert len(evaluate(doc, '//person[@id = "person0"]/name')) == 1

    def test_arithmetic_filter_subset(self, doc):
        risen = evaluate(doc, "//open_auction[initial + 20 < current]")
        everything = evaluate(doc, "//open_auction")
        assert 0 < len(risen) < len(everything)
