"""Grammar fuzzing against the reference.

* The parser is shared by the engines and ``tests/_reference.py``, so it
  is fuzzed on its own: random ASTs of the whole grammar the reference
  evaluates survive ``str()`` → ``parse()`` unchanged.
* Random queries evaluate to a sane node array or a package error, never
  an arbitrary exception.
* Both engines answer what the tree-walking reference answers, error for
  error — on random shapes with every function, union and absolute
  sub-path, and on value-bearing trees under both archive compressions; and,
  planned, on the ``//t[k]`` pairs the planner rewrites.
"""

import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.persist import load, save
from repro.encoding.prepost import encode
from repro.errors import ReproError
from repro.xmltree.model import Node, NodeKind, element
from repro.xpath.ast import (
    AXES,
    BinaryExpr,
    FunctionCall,
    LocationPath,
    NodeTest,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.evaluator import Evaluator, evaluate
from repro.xpath.parser import _KNOWN_FUNCTIONS, parse_xpath
from repro.xpath.planner import Planner

from _reference import Reference, random_tree

# ----------------------------------------------------------------------
# AST strategies
# ----------------------------------------------------------------------
TAG_NAMES = st.sampled_from(["a", "b", "c", "item", "x-y", "long_tag"])

node_tests = st.one_of(
    st.builds(NodeTest, st.just("name"), TAG_NAMES),
    st.just(NodeTest("*")),
    st.just(NodeTest("node")),
    st.just(NodeTest("text")),
    st.just(NodeTest("comment")),
)

_numbers = st.builds(NumberLiteral, st.integers(0, 50).map(float))
_strings = st.builds(StringLiteral, st.sampled_from(["x", "hello", "42"]))


def _predicates(expr):
    return st.lists(expr, max_size=2).map(tuple)


def expressions(max_depth=3):
    def extend(children):
        return st.one_of(
            st.builds(BinaryExpr, st.sampled_from(["or", "and", "=", "!=", "<", ">"]),
                      children, children),
            st.builds(BinaryExpr, st.sampled_from(["+", "-", "*", "div", "mod"]),
                      children, children),
            st.builds(
                FunctionCall,
                st.sampled_from(["not", "boolean"]),
                st.tuples(children),
            ),
            st.builds(
                lambda steps: LocationPath(False, steps),
                st.lists(
                    st.builds(Step, st.sampled_from(AXES), node_tests, st.just(())),
                    min_size=1,
                    max_size=2,
                ).map(tuple),
            ),
        )

    return st.recursive(
        st.one_of(
            _numbers,
            _strings,
            st.just(FunctionCall("position", ())),
            st.just(FunctionCall("last", ())),
        ),
        extend,
        max_leaves=6,
    )


steps = st.builds(
    Step,
    st.sampled_from(AXES),
    node_tests,
    _predicates(expressions()),
)

#: ``//t[k]`` / ``//t[last()]``: the abbreviated pair the planner's
#: positional twin rewrites, which random axes almost never spell.
abbreviated_pairs = st.builds(
    lambda name, predicate: (
        Step("descendant-or-self", NodeTest("node")),
        Step("child", NodeTest("name", name), (predicate,)),
    ),
    TAG_NAMES,
    st.one_of(
        st.builds(NumberLiteral, st.integers(1, 3).map(float)),
        st.just(FunctionCall("last", ())),
    ),
)

paths = st.builds(
    LocationPath,
    st.booleans(),
    st.one_of(
        st.lists(steps, min_size=1, max_size=4).map(tuple),
        st.builds(
            lambda head, pair, tail: head + pair + tail,
            st.lists(steps, max_size=1).map(tuple),
            abbreviated_pairs,
            st.lists(steps, max_size=1).map(tuple),
        ),
    ),
)


#: The reference's whole grammar: every function name at any arity,
#: ``|`` inside predicates, absolute sub-paths, string literals that
#: need either quote style, processing-instruction targets.  (No
#: negative number literal: ``-x`` parses as ``0 - x``.)
_wide_tests = st.one_of(
    node_tests,
    st.builds(NodeTest, st.just("name"), st.sampled_from(["r", "a0", "b1"])),
    st.sampled_from(
        [NodeTest("processing-instruction"), NodeTest("processing-instruction", "t")]
    ),
)
_wide_literals = st.one_of(
    st.builds(
        StringLiteral,
        st.sampled_from(["", "x", "7", " 8 ", "12.5", "a0", "it's", 'say "hi"']),
    ),
    st.builds(NumberLiteral, st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 12.5])),
)


def wide_expressions():
    def sub_paths(children, absolute):
        return st.builds(
            lambda steps: LocationPath(absolute, steps),
            st.lists(
                st.builds(
                    Step, st.sampled_from(AXES), _wide_tests,
                    st.lists(children, max_size=1).map(tuple),
                ),
                min_size=1,
                max_size=2,
            ).map(tuple),
        )

    def extend(children):
        return st.one_of(
            st.builds(
                BinaryExpr,
                st.sampled_from(
                    ["or", "and", "=", "!=", "<", "<=", ">", ">=",
                     "+", "-", "*", "div", "mod"]
                ),
                children,
                children,
            ),
            st.builds(
                FunctionCall,
                st.sampled_from(_KNOWN_FUNCTIONS),
                st.lists(children, max_size=3).map(tuple),
            ),
            sub_paths(children, False),
            sub_paths(children, True),
            st.builds(
                BinaryExpr, st.just("|"),
                sub_paths(children, False), sub_paths(children, True),
            ),
        )

    return st.recursive(
        st.one_of(
            _wide_literals,
            st.builds(FunctionCall, st.sampled_from(_KNOWN_FUNCTIONS), st.just(())),
        ),
        extend,
        max_leaves=6,
    )


_wide_paths = st.builds(
    LocationPath,
    st.booleans(),
    st.lists(
        st.builds(
            Step, st.sampled_from(AXES), _wide_tests,
            st.lists(wide_expressions(), max_size=2).map(tuple),
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
)
wide_queries = st.one_of(
    _wide_paths, st.builds(BinaryExpr, st.just("|"), _wide_paths, _wide_paths)
)


def outcome(evaluate_once):
    """An answer as a list, or the class of the package error raised."""
    try:
        result = evaluate_once()
    except ReproError as error:
        return type(error)
    return result.tolist()


class TestParserRoundTrip:
    @given(query=wide_queries)
    @settings(max_examples=150, deadline=None)
    def test_str_reparses_to_equal_ast(self, query):
        rendered = str(query)
        reparsed = parse_xpath(rendered)
        assert reparsed == query, rendered


@pytest.mark.parametrize("axis", AXES)
def test_every_step_from_the_document_node_matches_the_reference(axis):
    """The virtual document node (rule D1) is where the engines share
    the most code: every axis × node test, alone and followed by
    ``self::node()``, on trees with attributes, text and comments."""
    queries = [
        f"/{axis}::{test}{tail}"
        for test in ("node()", "*", "a", "text()", "comment()", "processing-instruction()")
        for tail in ("", "/self::node()")
    ]
    for tree in (random_tree(30, 3), value_tree(25, 4)):
        doc = encode(tree)
        reference = Reference(tree)
        for query in queries:
            expected = outcome(lambda: reference.evaluate(query))
            for engine in ("scalar", "vectorized"):
                assert outcome(lambda: evaluate(doc, query, engine=engine)) == expected, (
                    query, engine,
                )


class TestEvaluatorRobustness:
    @given(path=paths, seed=st.integers(0, 500))
    @settings(max_examples=120, deadline=None)
    def test_random_queries_never_crash(self, path, seed):
        """Any syntactically valid query either evaluates to a sane node
        array or raises a package error — never an arbitrary exception."""
        doc = encode(random_tree(40, seed))
        try:
            result = evaluate(doc, str(path))
        except ReproError:
            return
        assert result.dtype == np.int64
        if len(result):
            assert int(result[0]) >= 0
            assert int(result[-1]) < len(doc)
            assert np.all(np.diff(result) > 0)

    @given(
        query=wide_queries,
        seed=st.integers(0, 5000),
        size=st.integers(1, 50),
        valued=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_engines_match_the_reference(self, query, seed, size, valued):
        tree = value_tree(size, seed) if valued else random_tree(size, seed)
        doc = encode(tree)
        expected = outcome(lambda: Reference(tree).evaluate(query))
        for engine in ("scalar", "vectorized"):
            got = outcome(lambda: evaluate(doc, query, engine=engine))
            assert got == expected, (engine, str(query))

    @given(
        query=st.one_of(paths, st.builds(BinaryExpr, st.just("|"), paths, paths)),
        seed=st.integers(0, 5000),
        size=st.integers(1, 60),
    )
    @settings(max_examples=120, deadline=None)
    def test_planned_engines_match_the_reference(self, query, seed, size):
        """The planner's rewrites (the //-collapse and its positional
        twin) and its per-branch pushdown change how a query runs,
        never what it returns."""
        tree = random_tree(size, seed, tags=("a", "b", "c", "item"))
        doc = encode(tree)
        expected = outcome(lambda: Reference(tree).evaluate(query))
        plan = Planner(frozenset((doc.tag_of(doc.root),))).plan(query)
        for engine in ("scalar", "vectorized"):
            evaluator = Evaluator(doc, engine=engine, pushdown=plan.pushdown_steps)
            got = outcome(lambda: evaluator.evaluate(plan.path))
            assert got == expected, (engine, str(query), str(plan.path))


# ----------------------------------------------------------------------
# Value predicates: the column evaluator against the scalar interpreter
# ----------------------------------------------------------------------
#: Values the random trees carry: repeats, prefixes of one another, the
#: empty string, XPath numbers and the strings only Python's ``float()``
#: takes for numbers, non-ASCII.
VALUE_POOL = (
    "x", "xy", "xyz", "hello", "hello world", "A", "Ab", "Graduate School",
    "7", "42", "12.5", "-3", " 8 ", ".5", "1e3", "+9", "inf", "nan", "1_0",
    "", "é", "éa", "日本", "日本語",
)
#: Text nodes are never empty (the parser drops them).
TEXT_POOL = tuple(value for value in VALUE_POOL if value)
VALUE_TAGS = ("a", "b", "c")


def value_tree(n_nodes: int, seed: int) -> Node:
    """A random tree whose leaves carry :data:`VALUE_POOL` values: same-tag
    siblings with different values, empty elements, single-text elements,
    mixed content (several text children), valued attributes, comments."""
    rng = random.Random(seed)
    root = element("r")
    elements = [root]
    for _ in range(n_nodes):
        parent = rng.choice(elements)
        roll = rng.random()
        if roll < 0.2:
            parent.set_attribute(
                rng.choice(VALUE_TAGS) + str(len(parent.attributes)),
                rng.choice(VALUE_POOL),
            )
        elif roll < 0.5:
            parent.append(Node(NodeKind.TEXT, value=rng.choice(TEXT_POOL)))
        elif roll < 0.55:
            parent.append(Node(NodeKind.COMMENT, value=rng.choice(VALUE_POOL)))
        else:
            elements.append(parent.append(element(rng.choice(VALUE_TAGS))))
    return root


def _literal_strings():
    # The document's own values, their prefixes, and strangers.
    return st.builds(
        StringLiteral,
        st.one_of(
            st.sampled_from(VALUE_POOL),
            st.sampled_from(VALUE_POOL).flatmap(
                lambda value: st.integers(0, len(value)).map(lambda k: value[:k])
            ),
            st.sampled_from(["zz", "true", "0"]),
        ),
    )


_value_tests = st.one_of(
    st.builds(NodeTest, st.just("name"), st.sampled_from(VALUE_TAGS + ("a0", "b1"))),
    st.just(NodeTest("*")),
    st.just(NodeTest("node")),
    st.just(NodeTest("text")),
)
#: Mostly the axes the origin-tracked steps cover, some they do not.
_value_axes = st.one_of(
    st.sampled_from(
        ["child", "child", "attribute", "self", "descendant", "descendant-or-self"]
    ),
    st.sampled_from(AXES),
)
_value_paths = st.builds(
    lambda steps: LocationPath(False, steps),
    st.lists(
        st.builds(Step, _value_axes, _value_tests, st.just(())),
        min_size=1,
        max_size=2,
    ).map(tuple),
)


def _calls(name, *args):
    return st.builds(lambda *a: FunctionCall(name, tuple(a)), *args)


def _boolean_shapes(operands):
    """Productions whose value is a boolean (never the positional ``[n]``)."""
    strings = _literal_strings()
    return st.one_of(
        st.builds(
            BinaryExpr,
            st.sampled_from(["=", "!=", "<", "<=", ">", ">="]),
            operands,
            operands,
        ),
        st.builds(BinaryExpr, st.sampled_from(["and", "or"]), operands, operands),
        _calls("not", operands),
        _calls("boolean", operands),
        _calls("contains", operands, strings),
        _calls("starts-with", operands, strings),
    )


def value_expressions():
    numbers = st.builds(
        NumberLiteral, st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.0, 8.0, 12.5, 42.0])
    )

    def extend(children):
        return st.one_of(
            _boolean_shapes(children),
            st.builds(
                BinaryExpr,
                st.sampled_from(["+", "-", "*", "div", "mod"]),
                children,
                children,
            ),
            _calls("count", _value_paths),
            _calls("string", children),
            _calls("number", children),
            _calls("string-length", children),
        )

    return st.recursive(
        st.one_of(
            _value_paths,
            _value_paths,
            _literal_strings(),
            numbers,
            st.sampled_from(
                [
                    FunctionCall("string", ()),
                    FunctionCall("number", ()),
                    FunctionCall("string-length", ()),
                    FunctionCall("true", ()),
                ]
            ),
        ),
        extend,
        max_leaves=5,
    )


#: Mostly boolean-valued (set-at-a-time filterable), sometimes anything —
#: a number at the top is the positional shorthand and must fall back.
_value_predicates = st.one_of(
    _boolean_shapes(value_expressions()),
    _boolean_shapes(value_expressions()),
    value_expressions(),
)


_value_queries = st.builds(
    lambda axis, test, predicates: LocationPath(
        True,
        (
            Step("descendant-or-self", NodeTest("node"), ()),
            Step(axis, test, predicates),
        ),
    ),
    st.sampled_from(["child", "child", "attribute", "descendant"]),
    _value_tests,
    st.lists(_value_predicates, min_size=1, max_size=2).map(tuple),
)


class TestValuePredicateColumns:
    @given(
        query=_value_queries,
        seed=st.integers(0, 10_000),
        size=st.integers(1, 60),
        packed=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_engines_match_the_reference(self, query, seed, size, packed):
        """The column evaluator (``vectorized``) and the per-candidate
        loop (``scalar``) answer what the reference answers, error for
        error, on value-bearing trees under both archive compressions."""
        tree = value_tree(size, seed)
        expected = outcome(lambda: Reference(tree).evaluate(query))
        doc = encode(tree)
        with tempfile.TemporaryDirectory() as directory:
            if packed:
                archive = os.path.join(directory, "doc.npz")
                save(doc, archive, compression="packed")
                doc = load(archive, mmap=True)
            for engine in ("scalar", "vectorized"):
                got = outcome(lambda: evaluate(doc, query, engine=engine))
                assert got == expected, (engine, str(query))
