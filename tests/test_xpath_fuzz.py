"""Grammar fuzzing: random ASTs must survive str() → parse() unchanged,
and random expressions must evaluate without crashing."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.encoding.prepost import encode
from repro.errors import ReproError
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
from repro.xpath.evaluator import evaluate
from repro.xpath.parser import parse_xpath

from _reference import random_tree

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

paths = st.builds(
    LocationPath,
    st.booleans(),
    st.lists(steps, min_size=1, max_size=4).map(tuple),
)


class TestParserRoundTrip:
    @given(path=paths)
    @settings(max_examples=150, deadline=None)
    def test_str_reparses_to_equal_ast(self, path):
        rendered = str(path)
        reparsed = parse_xpath(rendered)
        assert reparsed == path, rendered


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

    @given(path=paths, seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_on_random_queries(self, path, seed):
        doc = encode(random_tree(40, seed))
        try:
            scalar = evaluate(doc, path, engine="scalar")
            bulk = evaluate(doc, path, engine="vectorized")
        except ReproError:
            return
        assert scalar.tolist() == bulk.tolist(), str(path)
