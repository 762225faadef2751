"""The reference: a tree-walking evaluator of the repo's XPath subset.

It shares nothing with what it checks.  It walks the
:class:`~repro.xmltree.model.Node` tree itself — children lists only,
with its own parent map, so a tree that :class:`DocumentCollection`
re-parented still reads as written — and uses no pre/post ranks, no
numpy kernels and no ``repro.encoding`` / ``repro.core`` /
``repro.xpath`` evaluation code.  Only the parser and the AST are
shared (the parser is fuzzed on its own by a print/parse round trip),
and ``tests/test_reference.py`` fails if this file imports any other
``repro`` module.  Preorder ranks appear in exactly two places: as the
answer format (rank 0 is the root element, attributes included) and as
the sort key of document order; no axis reads them.

Every step walks from its context nodes, once per step: a subtree or an
ancestor chain already walked is not walked again, so a step costs
O(|context| + |result|) plus the sibling lists it reads, never a
document scan per context node.  A step with predicates is evaluated per
context node (XPath 1.0 §2.4: positions count along the axis, backwards
on ``ancestor``, ``ancestor-or-self``, ``preceding``,
``preceding-sibling`` and ``parent``), and each predicate re-counts the
positions of what the one before it kept.

The semantics are XPath 1.0 (§2 location paths, §3 expressions, §4 core
functions) except for these deliberate departures, which the engines
share — each is a rule here, not an accident:

D1. The document node is never in a node-set.  An absolute path starts
    at it, but only ``child`` (the root element), ``descendant`` and
    ``descendant-or-self`` (every non-attribute node) lead anywhere from
    it; every other axis yields nothing, so ``/self::node()`` is empty,
    a bare ``/`` is empty (also as a predicate), and ``//t`` =
    ``/descendant-or-self::node()/child::t`` never returns the root
    element.
D2. A document is its root element: comments and processing
    instructions outside it are not part of it.
D3. Number → string prints an integral value without a fraction (``-0``
    prints ``0``), NaN as ``NaN``, infinities as ``Infinity`` /
    ``-Infinity``, and any other number as Python's ``str(float)``
    (``0.1``, ``1e-07``), where XPath 1.0 never uses an exponent.
D4. A node-set compared with a boolean is existential like every other
    node-set comparison: true when some node's string-value, converted
    to boolean, compares true (XPath 1.0 compares ``boolean(node-set)``
    once, so there an empty node-set ``= false()``).
D5. ``normalize-space()`` splits on Python's ``str.split()`` whitespace,
    a superset of XPath's four characters.
D6. There is no negative zero: ``x div 0`` is ±Infinity by the sign of
    ``x`` alone (NaN for ``0 div 0``), and ``round()`` of a number in
    [-0.5, 0) is 0.
D7. Arguments are evaluated before a call checks its arity, and the
    argument-optional functions (``position``, ``last``, ``true``,
    ``false``, ``name``, ``local-name``, ``string``, ``number``,
    ``string-length``, ``normalize-space``) ignore arguments past the
    one they read.  A wrong arity elsewhere is an
    :class:`~repro.errors.XPathEvaluationError`, as are a non-node-set
    operand of ``|``, ``count()``, ``sum()`` and ``name()``.
D8. A store answers per shard, over the shard's members gathered under
    one virtual root element (``collection``) that is in no answer.  A
    document-scoped query starts at its member — a relative path at the
    member root, an absolute one at the member's own document node (D1;
    a first axis other than ``child``, ``descendant`` or
    ``descendant-or-self`` is an error) — and keeps the member's nodes
    only; an unscoped one starts at the virtual root.  Either way the
    steps walk the gathered tree: an absolute path inside a predicate
    counts every member of the shard, and ``following`` / ``preceding``
    / sibling / ``parent`` steps, a leading ``/child::`` and ``//t`` see
    the neighbours and the virtual root, so such answers depend on how
    the members are sharded.  :meth:`Reference.gathered` is that rule.
    The standalone rule — every member evaluated on its own
    (:func:`member_answers`) — is ROADMAP item 1's target, pinned by an
    ``xfail(strict=True)`` test until it lands.
"""

from __future__ import annotations

import math
import random
import re
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import XPathEvaluationError
from repro.xmltree.model import Node, NodeKind, element
from repro.xpath.ast import (
    BinaryExpr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.parser import parse_xpath

_ATTRIBUTE = NodeKind.ATTRIBUTE
_ELEMENT = NodeKind.ELEMENT
_NAMED = (NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION)
_REVERSE = frozenset(
    ("ancestor", "ancestor-or-self", "preceding", "preceding-sibling", "parent")
)
_KIND_TESTS = {
    "text": NodeKind.TEXT,
    "comment": NodeKind.COMMENT,
    "processing-instruction": NodeKind.PROCESSING_INSTRUCTION,
}
#: XPath 1.0 ``Number`` inside optional whitespace (§4.4 ``number()``).
_NUMBER = re.compile(r"[ \t\r\n]*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))[ \t\r\n]*")
MODES = ("materialize", "count", "exists")


class NodeSet(tuple):
    """Nodes in document order, each once."""


def number(text: str) -> float:
    """XPath ``number()`` of a string: NaN unless it is a ``Number``."""
    match = _NUMBER.fullmatch(text)
    return float(match.group(1)) if match else math.nan


class Reference:
    """One document, evaluated by walking its tree.

    ``tree`` is a document node (its one root element is the document,
    D2) or an element.  :meth:`evaluate` answers a query string or a
    parsed expression in one of the three result modes.
    """

    def __init__(self, tree: Node, virtual_root: bool = False):
        if tree.kind == NodeKind.DOCUMENT:
            (tree,) = [c for c in tree.children if c.kind == _ELEMENT]
        self.root = tree
        #: The virtual root of :meth:`gathered` is no answer (D8).
        self.virtual_root = virtual_root
        self.document = Node(NodeKind.DOCUMENT)  # never in a node-set (D1)
        self.rank: Dict[Node, int] = {}
        self.parent: Dict[Node, Node] = {}
        self.slot: Dict[Node, int] = {}  # index in the parent's children
        self._everything = None  # the document node's descendants
        for node in tree.iter_preorder():
            self.rank[node] = len(self.rank)
            for index, child in enumerate(node.children):
                self.parent[child] = node
                self.slot[child] = index

    @classmethod
    def gathered(cls, members: Sequence[Node], tag: str = "collection") -> "Reference":
        """The members under one virtual root element, the way an
        unscoped query sees a shard (D8).  The members are not touched:
        the virtual root lists them as children, nothing points back."""
        root = Node(_ELEMENT, name=tag)
        root.children = [
            next(c for c in m.children if c.kind == _ELEMENT)
            if m.kind == NodeKind.DOCUMENT else m
            for m in members
        ]
        return cls(root, virtual_root=True)

    # ------------------------------------------------------------------
    # Answers
    # ------------------------------------------------------------------
    def evaluate(self, query, mode: str = "materialize", member=None):
        """Ranks in document order (``int64``), their count, or whether
        there are any.  ``member`` (an index into a gathered root's
        children) scopes the query to that member: ranks are then
        relative to its root."""
        if mode not in MODES:
            raise XPathEvaluationError(f"unknown result mode {mode!r}")
        expr = parse_xpath(query) if isinstance(query, str) else query
        if member is None:
            nodes, first = self._value(expr, self.root, 1, 1), 0
        else:
            top = self.root.children[member]
            (first, last), nodes = self._span(top), self._scoped(expr, top)
            nodes = NodeSet(n for n in nodes if first <= self.rank[n] <= last)
        if not isinstance(nodes, NodeSet):
            raise XPathEvaluationError("a query must select a node-set")
        if self.virtual_root:
            nodes = NodeSet(n for n in nodes if n is not self.root)
        if mode == "count":
            return len(nodes)
        if mode == "exists":
            return len(nodes) > 0
        return np.asarray([self.rank[n] - first for n in nodes], dtype=np.int64)

    def _scoped(self, expr, top: Node):
        """A document-scoped query (D8): relative paths start at the
        member root ``top``, absolute ones at the member's own document
        node, from which ``child`` is ``top`` itself and ``descendant``
        is ``top`` or below."""
        if isinstance(expr, BinaryExpr) and expr.op == "|":
            left, right = self._scoped(expr.left, top), self._scoped(expr.right, top)
            return self.sort(set(left) | set(right))
        if isinstance(expr, LocationPath) and expr.absolute and expr.steps:
            first, rest = expr.steps[0], expr.steps[1:]
            axis = {"child": "self", "descendant": "descendant-or-self"}.get(
                first.axis, first.axis
            )
            if axis not in ("self", "descendant-or-self"):
                raise XPathEvaluationError(
                    f"axis {first.axis!r} cannot start a document-scoped absolute path"
                )
            expr = LocationPath(False, (Step(axis, first.test, first.predicates),) + rest)
        return self._value(expr, top, 1, 1)

    def per_member(self, query, mode: str = "materialize") -> Dict[int, object]:
        """An unscoped gathered answer split by member: index →
        member-relative ranks, or their count."""
        ranks = self.evaluate(query)
        out = {}
        for index, member in enumerate(self.root.children):
            first, last = self._span(member)
            mine = ranks[(ranks >= first) & (ranks <= last)] - first
            out[index] = len(mine) if mode == "count" else mine
        return out

    def _span(self, top: Node) -> Tuple[int, int]:
        """The ranks of ``top`` and of the last node below it."""
        last = top
        while last.children:
            last = last.children[-1]
        return self.rank[top], self.rank[last]

    def sort(self, nodes) -> NodeSet:
        return NodeSet(sorted(nodes, key=self.rank.__getitem__))

    # ------------------------------------------------------------------
    # Axes: each takes a collection of context nodes and returns the set
    # of nodes on the axis of any of them.
    # ------------------------------------------------------------------
    def axis(self, context, axis: str) -> set:
        if any(node is self.document for node in context):
            return self._from_document(axis)
        if axis == "self":
            return set(context)
        if axis in ("child", "attribute"):
            wanted = axis == "attribute"
            return {
                c for n in context for c in n.children if (c.kind == _ATTRIBUTE) == wanted
            }
        if axis == "parent":
            return {self.parent[n] for n in context if n is not self.root}
        if axis in ("descendant", "descendant-or-self"):
            out = self._below(context, set())
            return out | set(context) if axis == "descendant-or-self" else out
        if axis in ("ancestor", "ancestor-or-self"):
            out = self._ancestors(context)
            return out | set(context) if axis == "ancestor-or-self" else out
        if axis in ("following-sibling", "preceding-sibling"):
            context = [n for n in context if n.kind != _ATTRIBUTE]
            return {
                s
                for siblings in self._beside(context, axis == "following-sibling")
                for s in siblings
                if s.kind != _ATTRIBUTE
            }
        if axis in ("following", "preceding"):
            # The subtrees beside every ancestor-or-self of a context
            # node (an attribute's "siblings" are its element's children).
            climbed = self._ancestors(context) | set(context)
            out: set = set()
            for siblings in self._beside(climbed, axis == "following"):
                self._below(siblings, out, include=True)
            return out
        raise XPathEvaluationError(f"unsupported axis {axis!r}")

    def _from_document(self, axis: str) -> set:
        """The document node's axes (D1)."""
        if axis == "child":
            return {self.root}
        if axis in ("descendant", "descendant-or-self"):
            if self._everything is None:
                self._everything = frozenset(self._below([self.root], {self.root}))
            return self._everything
        return set()

    def _below(self, tops, out: set, include: bool = False) -> set:
        """Add the non-attribute descendants of ``tops`` (and, with
        ``include``, the non-attribute ``tops`` themselves) to ``out``.
        A node in ``out`` has had its subtree walked: the walk stops
        there."""
        stack = []
        for top in tops:
            if not include:
                stack.append(top)
            elif top.kind != _ATTRIBUTE and top not in out:
                out.add(top)
                stack.append(top)
        while stack:
            for child in stack.pop().children:
                if child.kind != _ATTRIBUTE and child not in out:
                    out.add(child)
                    stack.append(child)
        return out

    def _ancestors(self, context) -> set:
        out: set = set()
        for node in context:
            while node is not self.root:
                node = self.parent[node]
                if node in out:
                    break  # the rest of the chain is in already
                out.add(node)
        return out

    def _beside(self, context, following: bool) -> List[list]:
        """Per parent of some context node: its children after the first
        (``following``) or before the last of the context nodes among
        them."""
        edge: Dict[Node, int] = {}
        for node in context:
            if node is self.root:
                continue
            parent, slot = self.parent[node], self.slot[node]
            known = edge.get(parent)
            if known is None or (slot < known if following else slot > known):
                edge[parent] = slot
        return [
            parent.children[slot + 1:] if following else parent.children[:slot]
            for parent, slot in edge.items()
        ]

    # ------------------------------------------------------------------
    # Steps and paths
    # ------------------------------------------------------------------
    def matches(self, node: Node, axis: str, test) -> bool:
        """The node test; a name test and ``*`` select the axis's
        principal node kind (attributes on ``attribute``, else
        elements)."""
        if test.kind == "node":
            return True
        if test.kind in ("name", "*"):
            principal = _ATTRIBUTE if axis == "attribute" else _ELEMENT
            return node.kind == principal and (test.kind == "*" or node.name == test.name)
        if test.kind not in _KIND_TESTS:
            raise XPathEvaluationError(f"unknown node test kind {test.kind!r}")
        if node.kind != _KIND_TESTS[test.kind]:
            return False
        return not test.name or node.name == test.name  # processing-instruction('t')

    def step(self, context, step) -> set:
        if not step.predicates:
            return {n for n in self.axis(context, step.axis) if self.matches(n, step.axis, step.test)}
        out: set = set()
        for node in context:
            if step.axis in ("child", "attribute") and node is not self.document:
                wanted = step.axis == "attribute"  # children are in document order
                along = [c for c in node.children if (c.kind == _ATTRIBUTE) == wanted]
            else:
                along = self.sort(self.axis([node], step.axis))
            candidates = [n for n in along if self.matches(n, step.axis, step.test)]
            if step.axis in _REVERSE:
                candidates.reverse()
            for predicate in step.predicates:
                size = len(candidates)
                candidates = [
                    n for position, n in enumerate(candidates, start=1)
                    if self._keeps(predicate, n, position, size)
                ]
            out.update(candidates)
        return out

    def _keeps(self, predicate, node: Node, position: int, size: int) -> bool:
        value = self._value(predicate, node, position, size)
        if isinstance(value, float):
            return value == position  # [n] is [position() = n]
        return self.boolean(value)

    def path(self, path: LocationPath, node: Node) -> NodeSet:
        context = {self.document} if path.absolute else {node}
        for step in path.steps:
            context = self.step(context, step)
            if not context:
                break
        context.discard(self.document)  # a bare "/" (D1)
        return self.sort(context)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _value(self, expr, node: Node, position: int, size: int):
        if isinstance(expr, (NumberLiteral, StringLiteral)):
            return expr.value
        if isinstance(expr, LocationPath):
            return self.path(expr, node)
        if isinstance(expr, FunctionCall):
            args = [self._value(a, node, position, size) for a in expr.args]
            return self._call(expr.name, args, node, position, size)
        if not isinstance(expr, BinaryExpr):
            raise XPathEvaluationError(f"cannot evaluate expression {expr!r}")
        op = expr.op
        if op in ("and", "or"):
            left = self.boolean(self._value(expr.left, node, position, size))
            if left == (op == "or"):
                return left
            return self.boolean(self._value(expr.right, node, position, size))
        left = self._value(expr.left, node, position, size)
        right = self._value(expr.right, node, position, size)
        if op == "|":
            if not (isinstance(left, NodeSet) and isinstance(right, NodeSet)):
                raise XPathEvaluationError("'|' requires node-set operands")
            return self.sort(set(left) | set(right))
        if op in ("+", "-", "*", "div", "mod"):
            return _arithmetic(op, self.number(left), self.number(right))
        return self._compare(op, left, right)

    def _call(self, name: str, args: list, node: Node, position: int, size: int):
        def arity(*allowed):
            if len(args) not in allowed:
                raise XPathEvaluationError(f"{name}() takes {allowed} arguments")

        def node_set():
            arity(1)
            if not isinstance(args[0], NodeSet):
                raise XPathEvaluationError(f"{name}() expects a node-set")
            return args[0]

        def text():  # the optional string argument, else the context node's
            return self.string(args[0]) if args else self.string_value(node)

        if name == "position":
            return float(position)
        if name == "last":
            return float(size)
        if name in ("true", "false"):
            return name == "true"
        if name == "count":
            return float(len(node_set()))
        if name == "sum":
            return float(sum(number(self.string_value(n)) for n in node_set()))
        if name in ("name", "local-name"):
            if not args:
                return self.name(node)
            if not isinstance(args[0], NodeSet):
                raise XPathEvaluationError(f"{name}() expects a node-set")
            return self.name(args[0][0]) if args[0] else ""
        if name == "string":
            return text()
        if name == "string-length":
            return float(len(text()))
        if name == "normalize-space":
            return " ".join(text().split())  # D5
        if name == "number":
            return self.number(args[0]) if args else number(self.string_value(node))
        if name in ("not", "boolean"):
            arity(1)
            return self.boolean(args[0]) != (name == "not")
        if name == "concat":
            if len(args) < 2:
                raise XPathEvaluationError("concat() takes two or more arguments")
            return "".join(map(self.string, args))
        if name in ("floor", "ceiling", "round"):
            arity(1)
            value = self.number(args[0])
            if not math.isfinite(value):
                return value
            if name == "round":
                value += 0.5  # half up; no negative zero (D6)
            return float(math.ceil(value) if name == "ceiling" else math.floor(value))
        strings = [self.string(a) for a in args[:1]]
        if name == "substring":
            arity(2, 3)
            value = strings[0]
            start = _round(self.number(args[1]))
            end = start + _round(self.number(args[2])) if len(args) == 3 else math.inf
            return "".join(
                c for i, c in enumerate(value, start=1) if start <= i < end
            )
        arity(2)
        value, other = strings[0], self.string(args[1])
        if name == "contains":
            return other in value
        if name == "starts-with":
            return value.startswith(other)
        if name == "substring-before":
            return value[: value.find(other)] if other in value else ""
        if name == "substring-after":
            return value[value.find(other) + len(other):] if other in value else ""
        raise XPathEvaluationError(f"unknown function {name!r}")

    def _compare(self, op: str, left, right) -> bool:
        """Existential over node-sets (§3.4, with D4)."""
        if isinstance(left, NodeSet):
            left_values = [self.string_value(n) for n in left]
            if isinstance(right, NodeSet):
                right_values = [self.string_value(n) for n in right]
                return any(_scalar(op, a, b) for a in left_values for b in right_values)
            return any(_scalar(op, a, right) for a in left_values)
        if isinstance(right, NodeSet):
            return any(_scalar(op, left, self.string_value(n)) for n in right)
        return _scalar(op, left, right)

    # ------------------------------------------------------------------
    # Node properties and conversions
    # ------------------------------------------------------------------
    def string_value(self, node: Node) -> str:
        """An element's text descendants in document order; any other
        node's own value."""
        if node.kind != _ELEMENT:
            return node.value
        parts, stack = [], [node]
        while stack:
            current = stack.pop()
            if current.kind == NodeKind.TEXT:
                parts.append(current.value)
            elif current.kind == _ELEMENT:
                stack.extend(reversed(current.children))
        return "".join(parts)

    @staticmethod
    def name(node: Node) -> str:
        return node.name if node.kind in _NAMED else ""

    def string(self, value) -> str:
        if isinstance(value, NodeSet):
            return self.string_value(value[0]) if value else ""
        return _string(value)

    def number(self, value) -> float:
        if isinstance(value, NodeSet):
            return number(self.string(value))
        return _number(value)

    @staticmethod
    def boolean(value) -> bool:
        if isinstance(value, float):
            return value == value and value != 0  # NaN is false
        return bool(value)  # node-set, string: non-empty


def _string(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return str(int(value)) if value == int(value) else str(value)  # D3
    return value


def _number(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, str):
        return number(value)
    return value


def _round(value: float) -> float:
    """XPath ``round()``: half up, NaN and infinities kept."""
    return float(math.floor(value + 0.5)) if math.isfinite(value) else value


def _arithmetic(op: str, x: float, y: float) -> float:
    if math.isnan(x) or math.isnan(y):
        return math.nan
    if op == "+":
        return x + y
    if op == "-":
        return x - y
    if op == "*":
        return x * y
    if op == "div":
        if y == 0:  # D6
            return math.copysign(math.inf, x) if x else math.nan
        return x / y
    if y == 0 or math.isinf(x):  # mod: the sign of the dividend
        return math.nan
    return math.fmod(x, y)


_RELATIONAL = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _scalar(op: str, left, right) -> bool:
    """One comparison of two non-node-set values (§3.4)."""
    if op in _RELATIONAL:
        return _RELATIONAL[op](_number(left), _number(right))  # NaN: false
    if isinstance(left, bool) or isinstance(right, bool):
        equal = Reference.boolean(left) == Reference.boolean(right)
    elif isinstance(left, float) or isinstance(right, float):
        equal = _number(left) == _number(right)
    else:
        equal = left == right
    return equal if op == "=" else not equal


def member_answers(members: Sequence[Tuple[str, Node]], query, mode="materialize"):
    """Each member evaluated standalone: name → its answer."""
    return {name: Reference(tree).evaluate(query, mode) for name, tree in members}


# ----------------------------------------------------------------------
# Node ↔ pre-rank correspondence
# ----------------------------------------------------------------------
def preorder_nodes(root: Node) -> List[Node]:
    """Nodes of the tree in document order (== preorder rank order)."""
    return list(root.iter_preorder())


def pre_of(root: Node) -> Dict[int, int]:
    """Map ``id(node)`` → preorder rank."""
    return {id(node): pre for pre, node in enumerate(preorder_nodes(root))}


def axis_pres(root: Node, context_pres, axis: str) -> np.ndarray:
    """Reference axis step over a *set* of context pre ranks: the union
    of the context nodes' axes, as sorted duplicate-free ranks (no node
    test, so ``self`` / ``*-or-self`` keep an attribute context)."""
    reference = Reference(root)
    ordered = preorder_nodes(reference.root)
    context = [ordered[int(pre)] for pre in context_pres]
    nodes = reference.sort(reference.axis(context, axis))
    return np.asarray([reference.rank[n] for n in nodes], dtype=np.int64)


# ----------------------------------------------------------------------
# Random document construction (deterministic, seed-driven)
# ----------------------------------------------------------------------
TAGS = ("a", "b", "c", "d", "e")


def random_tree(
    n_nodes: int,
    seed: int,
    tags=TAGS,
    attribute_probability: float = 0.15,
    text_probability: float = 0.15,
) -> Node:
    """A random document tree with ``n_nodes`` nodes (≥ 1).

    Built from a random parent vector (``parent[i] < i``), which covers
    arbitrary shapes — degenerate chains, stars, bushy trees — far better
    than grammar-based generation.  Some nodes become attributes or text
    leaves, so kind filtering is exercised too.
    """
    rng = random.Random(seed)
    root = element(rng.choice(tags))
    nodes = [root]
    for i in range(1, n_nodes):
        parent = nodes[rng.randrange(len(nodes))]
        # Attributes and text cannot have children; retry onto elements.
        while parent.kind != NodeKind.ELEMENT:
            parent = nodes[rng.randrange(len(nodes))]
        roll = rng.random()
        if roll < attribute_probability:
            child = parent.set_attribute(f"{rng.choice(tags)}{i}", str(i))
        elif roll < attribute_probability + text_probability:
            child = Node(NodeKind.TEXT, value=f"t{i}")
            parent.append(child)
        else:
            child = element(rng.choice(tags))
            parent.append(child)
        nodes.append(child)
    return root


# ----------------------------------------------------------------------
# The two-visit encoder (the library's ``encode`` up to PR 19)
# ----------------------------------------------------------------------
def encode_columns(root: Node) -> Dict[str, list]:
    """Per-node columns of the subtree at ``root`` as plain Python lists,
    by the textbook two-visit walk: a frame is pushed once to hand out
    the preorder rank and schedule the children, then met again to hand
    out the postorder rank.  ``tag`` and ``value`` are the per-node
    strings themselves (``None``: an element has no value).
    """
    post: List[int] = []
    level: List[int] = []
    parent: List[int] = []
    kind: List[int] = []
    tag: List[str] = []
    value: list = []
    post_counter = 0
    stack = [(root, -1, 0, False)]
    exit_pre: List[int] = []
    while stack:
        node, parent_pre, depth, entered = stack.pop()
        if entered:
            post[exit_pre.pop()] = post_counter
            post_counter += 1
            continue
        pre = len(kind)
        post.append(-1)
        level.append(depth)
        parent.append(parent_pre)
        kind.append(int(node.kind))
        named = node.kind in (
            NodeKind.ELEMENT, NodeKind.ATTRIBUTE, NodeKind.PROCESSING_INSTRUCTION
        )
        tag.append(node.name if named else "")
        value.append(None if node.kind == NodeKind.ELEMENT else node.value)
        stack.append((node, parent_pre, depth, True))
        exit_pre.append(pre)
        for child in reversed(node.children):
            stack.append((child, pre, depth + 1, False))
    return {
        "post": post, "level": level, "parent": parent,
        "kind": kind, "tag": tag, "value": value,
    }
