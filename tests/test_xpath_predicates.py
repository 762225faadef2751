"""Predicate columns: exactness, coverage, fallback, and the value index.

The property suite (``test_xpath_fuzz.py``) holds ``vectorized`` ≡
``scalar`` on random value-bearing trees; this file pins the pieces by
hand: the XPath 1.0 conversions that make a bulk evaluator easy to get
wrong (first node vs. existential, ``!=``, the ``Number`` grammar), the
store-level byte-identity of the value-filtering suite, which shapes run
as column kernels and which fall back, and the dictionary searches the
kernels stand on.
"""

import numpy as np
import pytest

from repro.encoding.codec import (
    dictionary_containing,
    dictionary_prefix_range,
    encode_dictionary,
)
from repro.encoding.doctable import ValueIndex, xpath_number
from repro.encoding.persist import load, save
from repro.encoding.prepost import encode
from repro.errors import ReproError
from repro.harness.queries import QUERY_SUITE
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore
from repro.xmltree.parser import parse
from repro.xpath.evaluator import Evaluator
from repro.xpath.parser import parse_xpath
from repro.xpath.predicates import bulk_predicate_mask, is_context_free

# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
#: DBLP-shaped (SNIPPETS.md, Snippet 1): ``article/author*/title/year``,
#: repeated authors, heavy value skew — "X" is on most articles, first on
#: few.  Built so that ``author = "X"`` (some author is X) and
#: ``starts-with(author, "X")`` (the *first* author starts with X) differ.
DBLP = """<dblp>
<article key="a1"><author>X</author><author>Xavier</author><title>One</title><year>1999</year></article>
<article key="a2"><author>Yann</author><author>X</author><title>Two <i>more</i> words</title><year>2001</year></article>
<article key="a3"><author>Xu</author><title>Three</title><year>2001</year></article>
<article key="a4"><title>Four</title><year>n/a</year></article>
<article key="a5"><author>Yann</author><author>Yann</author><author>X</author><title>Five</title><year> 2003 </year>
  <article key="a6"><author>X</author><year>5</year></article></article>
<inproceedings key="p1"><author>Zoe</author><author>X</author><title>Six</title><year>2001</year></inproceedings>
</dblp>"""


@pytest.fixture(scope="module")
def dblp():
    return encode(parse(DBLP))


@pytest.fixture(scope="module", params=("eager", "packed"))
def dblp_layout(request, dblp, tmp_path_factory):
    """The fixture under both value layouts (``list[str]`` / paged)."""
    if request.param == "eager":
        return dblp
    archive = str(tmp_path_factory.mktemp("dblp") / "dblp.npz")
    save(dblp, archive, compression="packed")
    return load(archive, mmap=True)


def keys(doc, query, engine):
    """``@key`` of the nodes ``query`` selects."""
    evaluator = Evaluator(doc, engine=engine)
    return [
        doc.string_value(int(evaluator.evaluate("@key", context=int(pre))[0]))
        for pre in evaluator.evaluate(query)
    ]


# ----------------------------------------------------------------------
# Satellite 1: one number parser, total string()
# ----------------------------------------------------------------------
class TestNumberGrammar:
    @pytest.mark.parametrize(
        "text, value",
        [("7", 7.0), (" 8 ", 8.0), ("12.34", 12.34), ("-3", -3.0), (".5", 0.5),
         ("1.", 1.0), ("-.5", -0.5), ("\t9\r\n", 9.0), (b"12.5", 12.5)],
    )
    def test_numbers(self, text, value):
        assert xpath_number(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1e3", "inf", "nan", "+9", "1_0", "x", "", " ", ".", "-", "- 1",
         "1 2", "0x10", "١", "\x0b1", b"1e3", b""],
    )
    def test_everything_else_is_nan(self, text):
        assert np.isnan(xpath_number(text))

    @pytest.mark.parametrize("engine", ("scalar", "vectorized"))
    def test_issue_document(self, engine):
        doc = encode(parse(
            "<r><a>1e3</a><a>inf</a><a>7</a><a>+9</a><a>1_0</a><a> 8 </a><a>x</a></r>"
        ))
        evaluator = Evaluator(doc, engine=engine)
        hits = evaluator.evaluate("//a[. > 5]")
        assert [doc.string_value(int(p)) for p in hits] == ["7", " 8 "]

    @pytest.mark.parametrize("engine", ("scalar", "vectorized"))
    def test_string_of_non_finite_numbers(self, engine):
        doc = encode(parse("<r><a/></r>"))
        evaluator = Evaluator(doc, engine=engine)
        for expression, text in (
            ("1 div 0", "Infinity"),
            ("-1 div 0", "-Infinity"),
            ("0 div 0", "NaN"),
            ("(1 div 0) mod 2", "NaN"),
        ):
            query = f'//a[string({expression}) = "{text}"]'
            assert len(evaluator.evaluate(query)) == 1, query


# ----------------------------------------------------------------------
# (d) first node vs. existential
# ----------------------------------------------------------------------
class TestNodeSetConversions:
    def test_equals_is_existential_starts_with_takes_the_first(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            some_author_is_x = keys(dblp_layout, '//article[author = "X"]', engine)
            first_author_starts_x = keys(
                dblp_layout, '//article[starts-with(author, "X")]', engine
            )
            assert some_author_is_x == ["a1", "a2", "a5", "a6"]
            assert first_author_starts_x == ["a1", "a3", "a6"]

    def test_not_equals_is_not_the_negation_of_equals(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            differs = keys(dblp_layout, '//article[author != "X"]', engine)
            negated = keys(dblp_layout, '//article[not(author = "X")]', engine)
            assert differs == ["a1", "a2", "a3", "a5"]  # some author differs
            assert negated == ["a3", "a4"]  # no author equals (a4 has none)

    def test_empty_node_set_is_empty_string_nan_and_false(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            assert keys(dblp_layout, '//article[string(author) = ""]', engine) == ["a4"]
            assert keys(dblp_layout, "//article[author > 0 or author <= 0]", engine) == []
            assert keys(dblp_layout, "//article[not(number(author) = number(author))]", engine) == [
                "a1", "a2", "a3", "a4", "a5", "a6",
            ]

    def test_relational_operators_convert_to_numbers(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            assert keys(dblp_layout, "//article[year > 2000]", engine) == ["a2", "a3", "a5"]
            # " 2003 " is a Number; "n/a" is NaN and compares false both ways.
            assert keys(dblp_layout, "//article[year >= 2003]", engine) == ["a5"]
            assert keys(dblp_layout, "//article[not(year < 9999)]", engine) == ["a4"]
            assert keys(dblp_layout, "//article[not(year >= 9999)]", engine) == [
                "a1", "a2", "a3", "a4", "a5", "a6",
            ]

    def test_mixed_content_is_materialised(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            assert keys(dblp_layout, '//article[title = "Two more words"]', engine) == ["a2"]
            assert keys(dblp_layout, '//article[contains(title, "o m")]', engine) == ["a2"]

    def test_nested_candidates_and_descendant_steps(self, dblp_layout):
        for engine in ("scalar", "vectorized"):
            # a6 nests in a5: both reach a6's author through descendant.
            assert keys(dblp_layout, "//article[count(.//author) = 4]", engine) == ["a5"]
            assert keys(dblp_layout, "//article[.//year < 10]", engine) == ["a5", "a6"]
            assert keys(
                dblp_layout, '//article[descendant-or-self::article/@key = "a6"]', engine
            ) == ["a5", "a6"]


# ----------------------------------------------------------------------
# (b) store-level byte-identity against the scalar engine
# ----------------------------------------------------------------------
BY_KEY = {q.key.split("-")[0]: q.xpath for q in QUERY_SUITE}
INCREASE = "//open_auction[bidder/increase > 10]/seller"
VALUE_SUITE = tuple(BY_KEY[k] for k in ("S08", "S09", "S10", "S12", "S13")) + (INCREASE,)
#: The e2e benchmark's spelling: a trailing context-free predicate on
#: the step that carries the value predicate.
WITH_NONCE = tuple(
    query.replace("]", "][7 > 0]", 1) if query is not INCREASE
    else "//open_auction[bidder/increase > 10][7 > 0]/seller"
    for query in VALUE_SUITE
)


def batch_bytes(service, queries, **options):
    results = service.execute_batch(queries, use_cache=False, **options)
    return [
        {name: ranks.tobytes() for name, ranks in result.per_document.items()}
        for result in results
    ]


@pytest.fixture(scope="module")
def forest():
    return get_forest(4, 0.1)


@pytest.fixture(scope="module")
def reference(forest, tmp_path_factory):
    """The scalar engine, unplanned, on an uncompressed store."""
    directory = str(tmp_path_factory.mktemp("reference") / "store")
    store = ShardedStore.build(directory, forest, shards=2, compression="none")
    with QueryService(store, engine="scalar", backend="serial", planner=False) as service:
        answers = batch_bytes(service, VALUE_SUITE)
    assert all(any(len(b) for b in answer.values()) for answer in answers)
    return answers


class TestStoreLevelIdentity:
    @pytest.mark.parametrize("compression", ("none", "packed"))
    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    @pytest.mark.parametrize("planner", (True, False))
    def test_value_suite_matches_scalar(
        self, forest, reference, tmp_path, compression, backend, planner
    ):
        store = ShardedStore.build(
            str(tmp_path / "store"), forest, shards=2, compression=compression
        )
        with QueryService(store, backend=backend, planner=planner) as service:
            assert batch_bytes(service, VALUE_SUITE) == reference
            assert batch_bytes(service, WITH_NONCE) == reference


# ----------------------------------------------------------------------
# (c) coverage without counters: which shapes never reach the fallback
# ----------------------------------------------------------------------
class TestCoverage:
    @pytest.fixture(scope="class")
    def doc(self):
        from repro.harness.workloads import get_document

        return get_document(0.1)

    def test_value_suite_never_reaches_the_scalar_filter(self, doc, monkeypatch):
        expected = {
            query: Evaluator(doc, engine="scalar").evaluate(query).tolist()
            for query in VALUE_SUITE + WITH_NONCE
        }

        def refuse(self, candidates, axis, predicate):
            raise AssertionError(f"fell back to the scalar filter on [{predicate}]")

        monkeypatch.setattr(Evaluator, "filter_predicate_scalar", refuse)
        evaluator = Evaluator(doc, engine="vectorized")
        for query, ranks in expected.items():
            assert evaluator.evaluate(query).tolist() == ranks, query

    @pytest.mark.parametrize(
        "query",
        [
            "//open_auction[bidder[1]/increase > 10]",  # inner positional
            "//open_auction[position() < 3]",
            "//bidder[following::increase > 40]",  # an axis the steps lack
            "//bidder[increase = preceding-sibling::bidder/increase]",
            "//person[name = //person/name]",  # node-set against node-set
            "//open_auction[(initial | current) > 100]",
        ],
    )
    def test_uncovered_shapes_fall_back_and_agree(self, doc, monkeypatch, query):
        expected = Evaluator(doc, engine="scalar").evaluate(query).tolist()
        original = Evaluator.filter_predicate_scalar
        fallbacks = []

        def spy(self, candidates, axis, predicate):
            fallbacks.append(str(predicate))
            return original(self, candidates, axis, predicate)

        monkeypatch.setattr(Evaluator, "filter_predicate_scalar", spy)
        evaluator = Evaluator(doc, engine="vectorized")
        assert evaluator.evaluate(query).tolist() == expected
        assert fallbacks, "expected the per-candidate fallback"

    def test_number_valued_predicate_is_positional(self, dblp):
        evaluator = Evaluator(dblp, engine="vectorized")
        candidates = evaluator.evaluate("//article")
        for predicate in ("count(author)", "2", "string-length(title) - 2"):
            assert bulk_predicate_mask(evaluator, candidates, parse_predicate(predicate)) is None

    def test_errors_stay_the_scalar_engines(self, dblp):
        for query in ('//article[count("x") > 0]', "//article[author or nosuch(1)]"):
            outcomes = []
            for engine in ("scalar", "vectorized"):
                with pytest.raises(ReproError) as caught:
                    Evaluator(dblp, engine=engine).evaluate(query)
                outcomes.append(str(caught.value))
            assert outcomes[0] == outcomes[1]
        # and/or short-circuit: nobody reaches the bad call.
        query = '//article[year or count("x")]'
        assert (
            Evaluator(dblp, engine="vectorized").evaluate(query).tolist()
            == Evaluator(dblp, engine="scalar").evaluate(query).tolist()
        )


def parse_predicate(text):
    return parse_xpath(f"x[{text}]").steps[0].predicates[0]


class TestContextFree:
    @pytest.mark.parametrize(
        "text, free",
        [
            ("7 > 0", True), ('"a"', True), ("true()", True), ("/site/regions", True),
            ('contains("abc", "b")', True), ("count(/site/people/person) > 2", True),
            ("@id", False), ("string()", False), ("position() > 1", False),
            ("last()", False), ("7 > 0 and name", False), ("string-length() = 0", False),
        ],
    )
    def test_classification(self, text, free):
        assert is_context_free(parse_predicate(text)) is free

    def test_evaluated_once_per_filter(self, dblp, monkeypatch):
        nonce = parse_predicate("7 > 0")
        original = Evaluator._expr
        seen = []

        def spy(self, expr, context_pre, position, size):
            if expr == nonce:
                seen.append(context_pre)
            return original(self, expr, context_pre, position, size)

        monkeypatch.setattr(Evaluator, "_expr", spy)
        assert len(Evaluator(dblp, engine="vectorized").evaluate("//article[7 > 0]")) == 6
        assert len(seen) == 1
        del seen[:]
        assert len(Evaluator(dblp, engine="scalar").evaluate("//article[7 > 0]")) == 6
        assert len(seen) == 6

    def test_sorted_first_by_the_vectorized_planner(self, forest, tmp_path):
        """Free to run, so it runs ahead of the value predicate.  A plan
        does not depend on the engine: the scalar service plans the same."""
        store = ShardedStore.build(str(tmp_path / "s"), forest, shards=1)
        for engine in ("vectorized", "scalar"):
            with QueryService(store, engine=engine, backend="serial") as service:
                plan = service.explain('//person[@id = "person0"][7 > 0]/name')
            assert [str(op) for op in plan.branches[0][2:4]] == [
                "PredicateFilter([7 > 0])",
                'PredicateFilter([attribute::id = "person0"])',
            ]

    def test_false_constant_empties_the_frontier(self, dblp):
        evaluator = Evaluator(dblp, engine="vectorized")
        assert len(evaluator.evaluate("//article[0 > 7]")) == 0
        assert len(evaluator.evaluate("//article[/nosuch]")) == 0
        assert len(evaluator.evaluate("//article[/dblp]")) == 6


# ----------------------------------------------------------------------
# The value index and its dictionary searches
# ----------------------------------------------------------------------
class TestDictionarySearch:
    WORDS = sorted(["", "A", "Ab", "Abc", "B", "a", "ab", "zz", "é", "éa", "日本", "日本語"])

    def test_prefix_range_is_the_startswith_set(self):
        blob, offsets = encode_dictionary(self.WORDS)
        for prefix in ["", "A", "Ab", "Abcd", "C", "a", "z", "zzz", "é", "日", "日本語x", "~"]:
            low, high = dictionary_prefix_range(blob, offsets, prefix)
            assert self.WORDS[low:high] == [w for w in self.WORDS if w.startswith(prefix)]

    def test_containing_is_the_substring_set(self):
        blob, offsets = encode_dictionary(self.WORDS)
        for needle in ["", "b", "A", "bc", "本", "bB", "Aa", "zz", "zzz", "éa"]:
            hits = dictionary_containing(blob, offsets, needle)
            assert [w for w, hit in zip(self.WORDS, hits) if hit] == [
                w for w in self.WORDS if needle in w
            ]

    def test_boundary_straddling_match_is_not_a_hit(self):
        blob, offsets = encode_dictionary(["ab", "ba"])
        assert dictionary_containing(blob, offsets, "bb").tolist() == [False, False]
        assert dictionary_containing(blob, offsets, "ab").tolist() == [True, False]

    def test_both_layouts_build_the_same_index(self, dblp, tmp_path):
        archive = str(tmp_path / "dblp.npz")
        save(dblp, archive, compression="packed")
        paged = load(archive, mmap=True)
        eager, packed = dblp.values, paged.values
        assert isinstance(eager, ValueIndex) and isinstance(packed, ValueIndex)
        assert len(eager) == len(packed) == len(dblp)
        assert eager.dictionary_size == packed.dictionary_size
        every = np.arange(len(dblp), dtype=np.int64)
        assert np.array_equal(np.asarray(eager.codes)[every], packed.codes[every])
        assert eager.blob.tobytes() == packed.blob.tobytes()
        assert [eager.entry(c) for c in range(eager.dictionary_size)] == [
            packed.entry(c) for c in range(packed.dictionary_size)
        ]
        assert eager.find("Xavier") == packed.find("Xavier") >= 0
        assert eager.find("nobody") == -1

    def test_number_table_has_one_slot_per_entry(self, dblp):
        index = dblp.values
        numbers = index.numbers()
        assert numbers.dtype == np.float64
        assert numbers.shape == (index.dictionary_size,)
        for code in range(index.dictionary_size):
            expected = xpath_number(index.entry(code))
            assert numbers[code] == expected or (
                np.isnan(numbers[code]) and np.isnan(expected)
            )
        assert numbers is index.numbers()  # built once
