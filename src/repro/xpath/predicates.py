"""Predicate columns: the vectorised engine's set-at-a-time predicates.

The scalar engine interprets a predicate once per candidate node.  This
module interprets it once per candidate *array*: the expression is
evaluated bottom-up and every sub-expression yields one **column** with
a slot per candidate —

* :class:`Bools` — a boolean mask;
* :class:`Numbers` — ``float64`` values;
* :class:`Strings` — strings as codes into the table's
  :class:`~repro.encoding.doctable.ValueIndex` dictionary (``-1`` is the
  empty string; the rare string that is not a dictionary entry — mixed
  content, a formatted number — is materialised individually);
* :class:`NodeSet` — a ragged node-set, as ``(origin, pre)`` pairs where
  ``origin`` is the candidate slot a node was reached from;
* :class:`Const` — a context-free value (a literal, ``7 > 0``, an
  absolute path), computed once by the scalar interpreter.

Relative location paths become node-sets through **origin-tracked bulk
steps** over ``child`` / ``attribute`` / ``self`` / ``descendant`` /
``descendant-or-self``: one bulk step over the distinct nodes, joined
back to the pairs that asked for them.  Value comparisons then follow
XPath 1.0 to the letter — a node-set against a value is *existential*
over its nodes, a node-set handed to ``string()`` / ``number()`` /
``starts-with()`` / ``contains()`` / an arithmetic operand converts its
*first node in document order* only — and run on dictionary codes:
``=`` is one dictionary search and a code compare, ``starts-with`` a
code range, ``contains`` a per-code truth table, numeric operators a
gather from the per-entry number table.

:func:`bulk_predicate_mask` is the single entry the ``PredicateFilter``
kernel calls.  It returns ``None`` for every shape it does not cover
exactly — positional predicates, the remaining axes, inner predicates,
node-set against node-set, unions, other functions, anything the scalar
interpreter would raise on — and the kernel then runs
:meth:`~repro.xpath.evaluator.Evaluator.filter_predicate_scalar`, so a
wrong mask is never an option and error behaviour stays the scalar
engine's.
"""

from __future__ import annotations

import operator
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.core.vectorized import concat_ranges, subtree_sizes
from repro.encoding.doctable import xpath_number
from repro.errors import XPathEvaluationError
from repro.xmltree.model import NodeKind
from repro.xpath.ast import (
    BinaryExpr,
    Expr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.axes import apply_node_test, node_test_mask, tested_children

__all__ = ["bulk_predicate_mask", "is_context_free"]

_ELEMENT = int(NodeKind.ELEMENT)
_TEXT = int(NodeKind.TEXT)

#: Axis inverses used by the existence semi-join:
#: ``n ∈ axis(c)  ⇔  c ∈ _REVERSE_OF[axis](n)`` for non-attribute nodes
#: (``attribute`` reverses onto ``parent``: an attribute's owner element).
_REVERSE_OF = {
    "child": "parent",
    "parent": "child",
    "descendant": "ancestor",
    "ancestor": "descendant",
    "descendant-or-self": "ancestor-or-self",
    "ancestor-or-self": "descendant-or-self",
    "following": "preceding",
    "preceding": "following",
    "following-sibling": "preceding-sibling",
    "preceding-sibling": "following-sibling",
    "self": "self",
    "attribute": "parent",
}

_RELATIONAL = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ----------------------------------------------------------------------
# Column types
# ----------------------------------------------------------------------
class Const(NamedTuple):
    """A context-free value: ``bool``, ``float``, ``str`` or a rank array."""

    value: object


class Bools(NamedTuple):
    mask: np.ndarray


class Numbers(NamedTuple):
    values: np.ndarray


class Strings(NamedTuple):
    """``codes ≥ 0``: dictionary codes; ``-1``: the empty string;
    ``-2 - i``: ``extras[i]``."""

    codes: np.ndarray
    extras: List[str]


class NodeSet(NamedTuple):
    """Unique ``(origin, pre)`` pairs, sorted by ``pre`` then ``origin``."""

    origin: np.ndarray
    pre: np.ndarray


Column = Union[Const, Bools, Numbers, Strings, NodeSet]


def is_context_free(expr: Expr) -> bool:
    """Does ``expr`` have one value whatever the context node?

    Literals, absolute paths, and operators/functions over those — the
    zero-argument forms that default to the context node
    (``string()``, ``name()``, …) and ``position()``/``last()`` do not
    qualify.  Such a predicate is evaluated once per filter, not once
    per candidate.
    """
    if isinstance(expr, (NumberLiteral, StringLiteral)):
        return True
    if isinstance(expr, LocationPath):
        return expr.absolute
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return False
        if not expr.args:
            return expr.name in ("true", "false")
        return all(is_context_free(arg) for arg in expr.args)
    if isinstance(expr, BinaryExpr):
        return is_context_free(expr.left) and is_context_free(expr.right)
    return False


def bulk_predicate_mask(
    rt, candidates: np.ndarray, predicate: Expr
) -> Optional[np.ndarray]:
    """Keep-mask over ``candidates`` for one predicate, or ``None`` when
    the expression needs the per-candidate evaluator.

    ``rt`` is the runtime (an :class:`~repro.xpath.evaluator.Evaluator`):
    it supplies the document, the axis executor and the scalar
    interpreter that context-free sub-expressions are handed to.
    """
    if len(candidates) == 0:
        return np.zeros(0, dtype=bool)
    return _PredicateColumns(rt, candidates).mask(predicate)


def _bulk_path_mask(
    rt, candidates: np.ndarray, path: LocationPath
) -> Optional[np.ndarray]:
    """Existence of ``candidate/path`` for every candidate at once.

    A candidate satisfies ``[a₁::t₁/…/aₘ::tₘ]`` iff it lies in
    ``reverse(a₁)(t₁ ∩ reverse(a₂)(… tₘ))`` — so the whole filter is
    ``m`` bulk axis steps seeded from the nodes passing ``tₘ``,
    followed by one sorted membership test.  The axis inversions are
    exact on non-attribute nodes only, so attribute candidates and
    non-final ``attribute`` steps are left to the origin-tracked steps;
    steps with inner predicates fall back to the scalar evaluator.
    """
    doc = rt.doc
    if path.absolute:
        # Same truth value for every candidate.
        hits = rt.evaluate(path)
        return np.full(len(candidates), len(hits) > 0, dtype=bool)
    steps = path.steps
    if not steps or any(s.predicates for s in steps):
        return None
    if any(s.axis not in _REVERSE_OF for s in steps):
        return None
    if any(s.axis == "attribute" for s in steps[:-1]):
        return None
    if np.any(doc.kind[candidates] == int(NodeKind.ATTRIBUTE)):
        return None
    last = steps[-1]
    if last.axis == "attribute":
        universe = doc.pres_with_kind(NodeKind.ATTRIBUTE)
    else:
        universe = doc.non_attribute_pres()
    frontier = apply_node_test(doc, universe, last.axis, last.test.kind, last.test.name)
    for index in range(len(steps) - 1, -1, -1):
        if len(frontier) == 0:
            return np.zeros(len(candidates), dtype=bool)
        frontier = rt.axes.step(frontier, _REVERSE_OF[steps[index].axis])
        if index > 0:
            previous = steps[index - 1]
            frontier = apply_node_test(
                doc, frontier, previous.axis, previous.test.kind, previous.test.name
            )
    return np.isin(candidates, frontier)


def _map_strings(
    strings: Strings,
    coded: Callable[[np.ndarray], np.ndarray],
    plain: Callable[[str], object],
    dtype,
) -> np.ndarray:
    """One value per string: ``coded`` maps the dictionary codes in bulk,
    ``plain`` the empty string and the individually materialised ones."""
    codes = strings.codes
    out = np.empty(len(codes), dtype=dtype)
    in_dictionary = codes >= 0
    out[in_dictionary] = coded(codes[in_dictionary])
    out[codes == -1] = plain("")
    for slot in np.nonzero(codes < -1)[0]:
        out[slot] = plain(strings.extras[-2 - int(codes[slot])])
    return out


class _PredicateColumns:
    """One predicate evaluation over one candidate array."""

    def __init__(self, rt, candidates: np.ndarray):
        self.rt = rt
        self.doc = rt.doc
        self.candidates = candidates
        self.size = len(candidates)

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def mask(self, predicate: Expr) -> Optional[np.ndarray]:
        if isinstance(predicate, LocationPath):
            return self.truth(predicate)
        column = self.column(predicate)
        if column is None or isinstance(column, Numbers):
            return None  # a number is the positional shorthand [n]
        if isinstance(column, Const) and isinstance(column.value, float):
            return None
        return self._full(self.truths(column))

    def truth(self, expr: Expr) -> Optional[np.ndarray]:
        """``boolean(expr)`` per candidate."""
        if isinstance(expr, LocationPath):
            # Pure existence needs no node-set: one reverse semi-join,
            # on every axis.
            exists = _bulk_path_mask(self.rt, self.candidates, expr)
            if exists is not None:
                return exists
        column = self.column(expr)
        return None if column is None else self._full(self.truths(column))

    def _full(self, value, dtype=bool) -> np.ndarray:
        """Broadcast a context-free scalar over the candidates."""
        if isinstance(value, np.ndarray):
            return value
        return np.full(self.size, value, dtype=dtype)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def column(self, expr: Expr) -> Optional[Column]:
        if is_context_free(expr):
            try:
                return Const(self.rt._expr(expr, int(self.candidates[0]), 1, 1))
            except XPathEvaluationError:
                # The scalar engine raises only for candidates that reach
                # the sub-expression (and/or short-circuit): its call.
                return None
        if isinstance(expr, LocationPath):
            return self.node_set(expr)
        if isinstance(expr, FunctionCall):
            return self.function(expr)
        if isinstance(expr, BinaryExpr):
            if expr.op in ("and", "or"):
                left = self.truth(expr.left)
                if left is None:
                    return None
                right = self.truth(expr.right)
                if right is None:
                    return None
                return Bools(left & right if expr.op == "and" else left | right)
            if expr.op == "|":
                return None
            left = self.column(expr.left)
            if left is None:
                return None
            right = self.column(expr.right)
            if right is None:
                return None
            if expr.op in _RELATIONAL or expr.op in ("=", "!="):
                return self.compare(expr.op, left, right)
            return self.arithmetic(expr.op, left, right)
        return None

    def function(self, call: FunctionCall) -> Optional[Column]:
        name, args = call.name, call.args
        if name in ("not", "boolean") and len(args) == 1:
            truth = self.truth(args[0])
            if truth is None:
                return None
            return Bools(~truth if name == "not" else truth)
        if name == "count" and len(args) == 1 and isinstance(args[0], LocationPath):
            nodes = self.node_set(args[0])
            if nodes is None:
                return None
            counts = np.bincount(nodes.origin, minlength=self.size)
            return Numbers(counts.astype(np.float64))
        if name in ("string", "number", "string-length") and len(args) <= 1:
            if args:
                operand = self.column(args[0])
                if operand is None:
                    return None
            else:  # the context node itself
                operand = NodeSet(
                    np.arange(self.size, dtype=np.int64), self.candidates
                )
            if name == "number":
                return Numbers(self._full(self.numbers(operand), np.float64))
            strings = self.strings(operand)
            if name == "string":
                return strings
            return Numbers(
                _map_strings(strings, self._entry_lengths, len, np.float64)
            )
        if name in ("contains", "starts-with") and len(args) == 2:
            needle = self.column(args[1])
            if not isinstance(needle, Const):
                return None
            subject = self.column(args[0])
            if subject is None:
                return None
            strings = self.strings(subject)
            literal = self.rt._to_string(needle.value)
            index = self.doc.values
            if name == "contains":
                table = index.containing(literal)
                return Bools(
                    _map_strings(
                        strings, table.__getitem__, lambda s: literal in s, bool
                    )
                )
            low, high = index.prefix_range(literal)
            return Bools(
                _map_strings(
                    strings,
                    lambda codes: (codes >= low) & (codes < high),
                    lambda s: s.startswith(literal),
                    bool,
                )
            )
        return None

    def _entry_lengths(self, codes: np.ndarray) -> np.ndarray:
        """Code-point lengths of dictionary entries (distinct codes only)."""
        index = self.doc.values
        distinct, inverse = np.unique(codes, return_inverse=True)
        lengths = np.fromiter(
            (len(index.entry(int(code))) for code in distinct),
            dtype=np.float64,
            count=len(distinct),
        )
        return lengths[inverse]

    # ------------------------------------------------------------------
    # Node-sets: origin-tracked bulk steps
    # ------------------------------------------------------------------
    def node_set(self, path: LocationPath) -> Optional[NodeSet]:
        """``candidate/path`` for every candidate, as ``(origin, pre)``
        (``path`` is relative: absolute ones are context-free)."""
        origin = np.arange(self.size, dtype=np.int64)
        pre = self.candidates
        for step in path.steps:
            if step.predicates:
                return None
            pairs = self._step(origin, pre, step)
            if pairs is None:
                return None
            origin, pre = pairs
        return NodeSet(origin, pre)

    def _step(
        self, origin: np.ndarray, pre: np.ndarray, step: Step
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        doc, axis, test = self.doc, step.axis, step.test
        if axis == "self":
            keep = node_test_mask(doc, pre, axis, test.kind, test.name)
            return origin[keep], pre[keep]
        if axis in ("child", "attribute"):
            if len(pre) == 0:
                return origin, pre
            distinct = pre[np.concatenate(([True], pre[1:] != pre[:-1]), dtype=bool)]
            kids = tested_children(self.rt, distinct, axis, test)
            # Join each child back to the pair(s) holding its parent;
            # ``pre`` is sorted, children arrive sorted: order survives.
            parents = doc.parent[kids]
            first = np.searchsorted(pre, parents, side="left")
            counts = np.searchsorted(pre, parents, side="right") - first
            if np.all(counts == 1):
                return origin[first], kids
            return origin[concat_ranges(first, counts)], np.repeat(kids, counts)
        if axis in ("descendant", "descendant-or-self"):
            if len(pre) == 0:
                return origin, pre
            targets = apply_node_test(
                doc, doc.non_attribute_pres(), axis, test.kind, test.name
            )
            # A subtree is a contiguous preorder span: its share of the
            # (sorted) targets is a slice found by two binary searches.
            first = np.searchsorted(targets, pre + 1, side="left")
            counts = (
                np.searchsorted(
                    targets, pre + subtree_sizes(doc, pre) + 1, side="left"
                )
                - first
            )
            populated = counts > 0
            found_origin = np.repeat(origin, counts)
            found = targets[concat_ranges(first[populated], counts[populated])]
            if axis == "descendant-or-self":
                keep = node_test_mask(doc, pre, axis, test.kind, test.name)
                found_origin = np.concatenate(
                    (origin[keep], found_origin), dtype=np.int64
                )
                found = np.concatenate((pre[keep], found), dtype=np.int64)
            # Nested pairs of one origin reach the same node twice and
            # overlapping spans arrive out of order: restore the invariant.
            keys = found * self.size + found_origin
            if len(keys) > 1 and not np.all(keys[1:] > keys[:-1]):
                keys = np.unique(keys)
            return keys % self.size, keys // self.size
        return None

    # ------------------------------------------------------------------
    # String values
    # ------------------------------------------------------------------
    def string_values(self, nodes: np.ndarray) -> Strings:
        """XPath string-values of ``nodes`` (``-1``: no node, ``""``).

        Text, attribute, comment and PI nodes carry their code; an
        element's value is the concatenation of its text descendants —
        none is ``""``, exactly one is that text's code, and only
        genuinely mixed content is materialised through
        :meth:`~repro.encoding.doctable.DocTable.string_value`.
        """
        doc = self.doc
        value_codes = doc.values.codes
        codes = np.full(len(nodes), -1, dtype=np.int64)
        extras: List[str] = []
        slots = np.nonzero(nodes >= 0)[0]
        pres = nodes[slots]
        is_element = doc.kind[pres] == _ELEMENT
        codes[slots[~is_element]] = value_codes[pres[~is_element]]
        slots, elements = slots[is_element], pres[is_element]
        if len(elements) == 0:
            return Strings(codes, extras)
        ends = elements + subtree_sizes(doc, elements) + 1
        low = int(elements.min()) + 1
        texts = np.nonzero(doc.kind[low : int(ends.max())] == _TEXT)[0] + low
        first = np.searchsorted(texts, elements + 1, side="left")
        n_texts = np.searchsorted(texts, ends, side="left") - first
        single = n_texts == 1
        codes[slots[single]] = value_codes[texts[first[single]]]
        for slot, pre in zip(slots[n_texts > 1], elements[n_texts > 1]):
            codes[slot] = -2 - len(extras)
            extras.append(doc.string_value(int(pre)))
        return Strings(codes, extras)

    def first_strings(self, nodes: NodeSet) -> Strings:
        """String-value of each origin's first node in document order
        (the XPath conversion of a node-set to a string)."""
        first = np.full(self.size, -1, dtype=np.int64)
        # Pairs are sorted by pre, so an origin's first occurrence is
        # its smallest pre.
        origins, at = np.unique(nodes.origin, return_index=True)
        first[origins] = nodes.pre[at]
        return self.string_values(first)

    # ------------------------------------------------------------------
    # Conversions (arrays for columns, plain scalars for constants)
    # ------------------------------------------------------------------
    def truths(self, column: Column):
        if isinstance(column, Const):
            return self.rt._to_boolean(column.value)
        if isinstance(column, Bools):
            return column.mask
        if isinstance(column, Numbers):
            return (column.values != 0) & ~np.isnan(column.values)
        if isinstance(column, NodeSet):
            mask = np.zeros(self.size, dtype=bool)
            mask[column.origin] = True
            return mask
        offsets = self.doc.values.offsets
        return _map_strings(
            column, lambda codes: offsets[codes + 1] > offsets[codes], bool, bool
        )

    def numbers(self, column: Column):
        if isinstance(column, Const):
            return self.rt._to_number(column.value)
        if isinstance(column, Bools):
            return column.mask.astype(np.float64)
        if isinstance(column, Numbers):
            return column.values
        if isinstance(column, NodeSet):
            column = self.first_strings(column)
        table = self.doc.values.numbers()
        return _map_strings(column, table.__getitem__, xpath_number, np.float64)

    def strings(self, column: Column) -> Strings:
        """``string()`` of a per-candidate column (constants never get
        here: a call over constants is itself context-free)."""
        if isinstance(column, Strings):
            return column
        if isinstance(column, NodeSet):
            return self.first_strings(column)
        # Booleans and numbers have no dictionary code: format each.
        values = column.mask if isinstance(column, Bools) else column.values
        extras = [self.rt._to_string(value) for value in values.tolist()]
        return Strings(-2 - np.arange(len(extras), dtype=np.int64), extras)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------
    def arithmetic(self, op: str, left: Column, right: Column) -> Numbers:
        """XPath numeric operators — :meth:`Evaluator._arithmetic`, bulk."""
        x, y = self.numbers(left), self.numbers(right)
        nan = float("nan")
        with np.errstate(all="ignore"):
            if op == "+":
                out = x + y
            elif op == "-":
                out = x - y
            elif op == "*":
                out = x * y
            elif op == "div":
                by_zero = np.where(
                    x > 0, float("inf"), np.where(x < 0, float("-inf"), nan)
                )
                out = np.where(y == 0, by_zero, x / y)
            else:  # mod: remainder with the sign of the dividend
                out = np.where(y == 0, nan, np.fmod(x, y))
        return Numbers(np.asarray(out, dtype=np.float64))

    def compare(self, op: str, left: Column, right: Column) -> Optional[Bools]:
        """``=``, ``!=`` and the relational operators.

        A node-set operand makes the comparison existential: every node's
        string-value is compared (on its origin's slot of the other
        operand) and an origin is kept when any of its nodes hits — so
        ``!=`` means "some node differs", not the negation of ``=``.
        """
        if isinstance(left, NodeSet) and isinstance(right, NodeSet):
            return None
        if any(
            isinstance(side, Const) and isinstance(side.value, np.ndarray)
            for side in (left, right)
        ):
            return None  # an absolute path is a node-set too
        if not isinstance(left, NodeSet) and not isinstance(right, NodeSet):
            hit = self._compare_values(op, left, right)
            return None if hit is None else Bools(self._full(hit))
        nodes, other = (left, right) if isinstance(left, NodeSet) else (right, left)
        if isinstance(other, Strings):
            return None
        if isinstance(other, Bools):
            other = Bools(other.mask[nodes.origin])
        elif isinstance(other, Numbers):
            other = Numbers(other.values[nodes.origin])
        values = self.string_values(nodes.pre)
        if nodes is left:
            hit = self._compare_values(op, values, other)
        else:
            hit = self._compare_values(op, other, values)
        if hit is None:
            return None
        mask = np.zeros(self.size, dtype=bool)
        mask[nodes.origin[hit]] = True
        return Bools(mask)

    def _compare_values(self, op: str, left: Column, right: Column):
        """Slot-wise :meth:`Evaluator._compare_scalar` (no node-sets)."""
        with np.errstate(invalid="ignore"):
            if op in _RELATIONAL:  # numbers; NaN compares false
                return _RELATIONAL[op](self.numbers(left), self.numbers(right))
            if _holds(left, Bools, bool) or _holds(right, Bools, bool):
                equal = self.truths(left) == self.truths(right)
            elif _holds(left, Numbers, float) or _holds(right, Numbers, float):
                equal = self.numbers(left) == self.numbers(right)
            else:
                if isinstance(left, Strings) and isinstance(right, Strings):
                    return None
                strings, literal = (
                    (left, right.value) if isinstance(left, Strings)
                    else (right, left.value)
                )
                code = self.doc.values.find(literal)
                equal = _map_strings(
                    strings, lambda codes: codes == code, literal.__eq__, bool
                )
        return equal if op == "=" else ~equal


def _holds(column: Column, column_type: type, scalar_type: type) -> bool:
    """Is ``column`` of the given type — as a column or as a constant?"""
    if isinstance(column, Const):
        return isinstance(column.value, scalar_type)
    return isinstance(column, column_type)
