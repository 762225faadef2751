"""The reference evaluator itself (``tests/_reference.py``).

* It stays independent by construction: its only ``repro`` imports are
  the tree model, the AST, the parser and the error classes, so no
  encoding, kernel or evaluation code can agree with itself through it.
* Its docstring names every deliberate departure from XPath 1.0, and
  the rules it names hold on a hand-checked document.
* A step walks from its context nodes once: every node as context on a
  wide, deep tree answers each axis in time linear in the tree.
"""

import ast
import re

import pytest

from repro.errors import XPathEvaluationError
from repro.harness.workloads import figure1_document
from repro.xmltree.model import comment, document, element, text
from repro.xpath.ast import AXES

import _reference
from _reference import Reference, axis_pres

ALLOWED = {"repro.xmltree.model", "repro.xpath.ast", "repro.xpath.parser", "repro.errors"}


def test_the_reference_imports_only_the_model_the_ast_the_parser_and_the_errors():
    with open(_reference.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module}.{alias.name}" for alias in node.names
                            if node.module == "repro")
    assert {name for name in imported if name.split(".")[0] == "repro"} <= ALLOWED


def test_the_docstring_names_every_deviation():
    rules = re.findall(r"^(D\d+)\. ", _reference.__doc__, flags=re.MULTILINE)
    assert rules == [f"D{i}" for i in range(1, len(rules) + 1)] and len(rules) >= 8


@pytest.fixture(scope="module")
def figure1():
    # a(b(c), d, e(f(g, h), i(j))) — with a comment
    # before the root element (D2) and a text under d.
    doc = document(figure1_document())
    doc.children.insert(0, comment("prolog"))
    doc.children[1].find("d").append(text("7"))
    return Reference(doc)


@pytest.mark.parametrize("query, ranks", [
    # ranks: a0 b1 c2 d3 "7"4 e5 f6 g7 h8 i9 j10
    ("//a", []),  # D1: the root element is nobody's child
    ("/descendant::a", [0]),
    ("/a", [0]),
    ("/self::node()", []),
    ("/self::node()/a", []),
    ("//e/following::node()", []),
    ("//c/following::*", [3, 5, 6, 7, 8, 9, 10]),
    ("//j/preceding::*", [1, 2, 3, 6, 7, 8]),
    ("//g/ancestor::*[1]", [6]),  # a reverse axis counts from the nearest
    ("//f/*[last()]", [8]),
    ("//*[. = 7]", [3]),  # a string-value compared as a number
    ("//b[x = false()]", []),  # D4: existential, not boolean(node-set)
    ("//*[string(1 div 0) = 'Infinity']", [1, 2, 3, 5, 6, 7, 8, 9, 10]),
    ("//*[round(-0.4) = 0][substring('abc', 2.5) = 'c']", [1, 2, 3, 5, 6, 7, 8, 9, 10]),
])
def test_named_rules_on_figure_1(figure1, query, ranks):
    assert figure1.evaluate(query).tolist() == ranks


def test_errors_are_the_engines_classes(figure1):
    for query in ("//b[count(1)]", "//b[1 | 2]", "//b[floor()]", "//b[name(1)]"):
        with pytest.raises(XPathEvaluationError):
            figure1.evaluate(query)


def fan(width, depth):
    """``width`` chains of ``depth`` elements under one root."""
    root = element("r")
    for _ in range(width):
        node = root
        for _ in range(depth):
            node = node.append(element("x"))
    return root


@pytest.mark.parametrize("axis", AXES)
def test_every_node_as_context_is_linear(axis):
    """100 chains of 100 nodes, every node the context: a document scan
    per context node would be 10⁸ visits; the walk is a few per node."""
    width = depth = 100
    n = 1 + width * depth
    result = axis_pres(fan(width, depth), range(n), axis)
    expected = {
        "self": n, "descendant-or-self": n, "ancestor-or-self": n,
        "descendant": n - 1, "child": n - 1,
        "following": n - 1 - depth, "preceding": n - 1 - depth,
        "following-sibling": width - 1, "preceding-sibling": width - 1,
        "parent": n - width, "ancestor": n - width, "attribute": 0,
    }
    assert len(result) == expected[axis]


def test_a_gathered_shard_leaves_its_members_untouched():
    """D8: the virtual root lists the members; nothing points back."""
    members = [element("m", element("x")), element("m", element("y"))]
    gathered = Reference.gathered(members)
    assert all(m.parent is None for m in members)
    answers = gathered.per_member("//m")  # the virtual root's children
    assert {k: v.tolist() for k, v in answers.items()} == {0: [0], 1: [0]}
    assert gathered.evaluate("/m").tolist() == []  # / is the virtual root's
    assert gathered.evaluate("/m", member=1).tolist() == [0]
    assert Reference(members[1]).evaluate("//m").tolist() == []  # D1
