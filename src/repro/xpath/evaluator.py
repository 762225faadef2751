"""XPath evaluation facade: compile to a physical plan, then drive it.

Since the operator-pipeline refactor the evaluator no longer interprets
the AST step by step.  :meth:`Evaluator.evaluate` compiles the
expression into a :class:`~repro.xpath.pipeline.PhysicalPlan` (cached
per expression) and hands it to the pipeline driver; the evaluator
itself survives as the *runtime* the operator kernels call back into —
it owns the document, the axis executor, the lazily built per-tag
fragments, and the XPath 1.0 expression machinery (predicates,
functions, coercions, comparisons).  It holds no per-drive state: the
sub-paths a per-candidate predicate evaluates re-enter the driver as
fresh, unobserved one-member drives.

Name-test pushdown (Experiment 3) is decided per compiled operator:
steps of the shape ``child::tag`` / ``descendant::tag`` /
``ancestor::tag`` are then executed against the per-tag fragment
(:class:`~repro.core.fragments.FragmentedDocument`), i.e. the name test
is applied *before* the join — ``staircasejoin(nametest(doc, n), cs)``
— which is valid because pre/post-derived tree properties "remain valid
for a subset of nodes".

Predicates follow XPath 1.0 semantics: positional predicates see the
axis order (reverse for the reverse axes); value comparisons use
existential node-set semantics.

Result modes: ``evaluate(..., mode="count")`` returns the result
cardinality and ``mode="exists"`` a boolean, letting the driver
terminate early instead of materializing ranks the caller will only
``len()`` or truth-test (:meth:`Evaluator.count` /
:meth:`Evaluator.exists` are the spelled-out faces).
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.core.fragments import FragmentedDocument
from repro.core.staircase import SkipMode
from repro.counters import JoinStatistics
from repro.encoding.doctable import DocTable, xpath_number
from repro.errors import XPathEvaluationError
from repro.xpath import predicates
from repro.xpath.ast import (
    BinaryExpr,
    Expr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.axes import AxisExecutor, resolve_engine
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import StaircaseStep, compile_plan, dispatch, drive

__all__ = ["Evaluator", "evaluate", "parse_with_cache"]


def parse_with_cache(query: str, cache) -> Expr:
    """Parse ``query`` at most once per lifetime of ``cache``, a
    mapping-like object with ``get(key)``/``put(key, value)`` (the
    service's :class:`repro.service.LRUCache` of parsed queries)."""
    plan = cache.get(query)
    if plan is None:
        plan = parse_xpath(query)
        cache.put(query, plan)
    return plan


def _round(number: float) -> float:
    """XPath ``round()``: half up, NaN and the infinities unchanged."""
    return float(math.floor(number + 0.5)) if math.isfinite(number) else number


_REVERSE_AXES = frozenset(
    ("ancestor", "ancestor-or-self", "preceding", "preceding-sibling", "parent")
)


class Evaluator:
    """Evaluate XPath expressions against one encoded document.

    Parameters
    ----------
    doc:
        The encoded document.
    mode:
        :class:`SkipMode` for the scalar staircase join.
    pushdown:
        Push name tests below child/descendant/ancestor steps
        (Experiment 3's ~3× rewrite).  ``True``/``False`` applies to
        every eligible step; one collection of step indices per union
        branch (the planner's per-step verdicts) pushes only at those
        positions of the *top-level* paths.  The verdicts are fused
        into the compiled :class:`~repro.xpath.pipeline.StaircaseStep`
        operators.
        Fragments are built lazily on first use and cached for the
        evaluator's lifetime.
    stats:
        Shared :class:`JoinStatistics`; accumulates across queries.
    engine:
        ``"scalar"`` (the paper's per-node Algorithms 2–4, instrumented
        with node-access counters) or ``"vectorized"`` (numpy bulk
        kernels for every axis step, fragment reads, and non-positional
        path predicates).  Both produce identical node sequences.
    """

    #: Compiled-pipeline cache bound (per evaluator); the cache is
    #: cleared wholesale when it fills — compilation is cheap, the cap
    #: only guards against unbounded growth under query churn.
    COMPILE_CACHE_LIMIT = 256

    def __init__(
        self,
        doc: DocTable,
        mode: SkipMode = SkipMode.ESTIMATE,
        pushdown: bool = False,
        stats: Optional[JoinStatistics] = None,
        engine: Optional[str] = None,
    ):
        self.doc = doc
        self.engine = resolve_engine(engine)
        self.stats = stats if stats is not None else JoinStatistics()
        self.axes = AxisExecutor(doc, engine=self.engine, mode=mode, stats=self.stats)
        #: Constructor input only (frozen — the compile cache is keyed
        #: by path alone): :func:`compile_plan` fuses it into operators.
        self.pushdown = (
            pushdown
            if isinstance(pushdown, bool)
            else tuple(frozenset(branch) for branch in pushdown)
        )
        self._fragments: Optional[FragmentedDocument] = None
        self._compiled: dict = {}

    # ------------------------------------------------------------------
    @property
    def fragments(self) -> FragmentedDocument:
        if self._fragments is None:
            self._fragments = FragmentedDocument(self.doc)
        return self._fragments

    # ------------------------------------------------------------------
    # Compile and drive
    # ------------------------------------------------------------------
    def compile(self, path: Union[str, Expr]):
        """The cached :class:`~repro.xpath.pipeline.PhysicalPlan` for
        ``path`` under this evaluator's pushdown configuration."""
        if isinstance(path, str):
            path = parse_xpath(path)
        plan = self._compiled.get(path)
        if plan is None:
            if len(self._compiled) >= self.COMPILE_CACHE_LIMIT:
                self._compiled.clear()
            plan = compile_plan(path, pushdown=self.pushdown)
            self._compiled[path] = plan
        return plan

    def evaluate(
        self,
        path: Union[str, LocationPath],
        context: Union[None, int, np.ndarray] = None,
        mode: str = "materialize",
    ):
        """Evaluate ``path``; returns preorder ranks in document order
        (``mode="count"``: their cardinality; ``mode="exists"``: a
        boolean, computed with early termination).

        ``context`` seeds relative paths (default: the root element); it
        is ignored by absolute paths, which start at the virtual document
        node.
        """
        plan = self.compile(path)
        if mode != "materialize":
            plan = plan.with_mode(mode)
        return drive(plan, self, context=context)

    def count(self, path, context=None) -> int:
        """Result cardinality without materializing a caller payload."""
        return self.evaluate(path, context=context, mode="count")

    def exists(self, path, context=None) -> bool:
        """Early-terminating existence check."""
        return self.evaluate(path, context=context, mode="exists")

    # ------------------------------------------------------------------
    # Kernel callbacks: predicates
    # ------------------------------------------------------------------
    def filter_predicate(
        self, candidates: np.ndarray, axis: str, predicate: Expr
    ) -> np.ndarray:
        """Filter ``candidates`` through one predicate: one keep-mask
        from the column evaluator (:mod:`repro.xpath.predicates`) when
        the engine and shape allow, the per-candidate loop otherwise.
        The one place that decision is made — the ``PredicateFilter``
        kernel and the positional per-node body both call it."""
        if len(candidates) == 0:
            return candidates
        if self.engine == "vectorized":
            mask = predicates.bulk_predicate_mask(self, candidates, predicate)
            if mask is not None:
                return candidates[mask]
        return self.filter_predicate_scalar(candidates, axis, predicate)

    def filter_predicate_scalar(
        self, candidates: np.ndarray, axis: str, predicate: Expr
    ) -> np.ndarray:
        """The per-candidate predicate loop (positional semantics)."""
        if len(candidates) == 0:
            return candidates
        ordered = candidates[::-1] if axis in _REVERSE_AXES else candidates
        size = len(ordered)
        kept = []
        for position, pre in enumerate(ordered, start=1):
            value = self._expr(predicate, int(pre), position, size)
            if isinstance(value, float):
                # Positional shorthand: [n] ⇔ [position() = n].  Float
                # comparison handles NaN/±inf/non-integers (all false).
                keep = value == float(position)
            else:
                keep = self._to_boolean(value)
            if keep:
                kept.append(int(pre))
        kept.sort()
        return np.asarray(kept, dtype=np.int64)

    def single_context_step(
        self, context, step: Step, pushdown: bool = False
    ) -> np.ndarray:
        """One whole step (axis, test, all predicates) for one context —
        the per-node body of the PositionalSelect operator."""
        candidates = dispatch(
            StaircaseStep(-1, step.axis, step.test, pushdown), self, context
        )
        for predicate in step.predicates:
            candidates = self.filter_predicate(candidates, step.axis, predicate)
        return candidates

    # ------------------------------------------------------------------
    # Kernel callbacks: bulk positional selection (vectorised engine)
    # ------------------------------------------------------------------
    def bulk_positional_select(
        self, context, step: Step, pushdown: bool = False
    ) -> Optional[np.ndarray]:
        """Set-at-a-time ``child::t[k]`` / ``child::t[last()]``, or ``None``.

        On the ``child`` and ``attribute`` axes the context node that
        produced a candidate *is* its parent, so per-context positions are
        ranks within parent groups — one stable sort by the parent column
        replaces the per-context-node loop.  Only a single plain-number or
        bare ``last()`` predicate qualifies; everything else keeps the
        per-node path (successive predicates re-index positions).
        """
        if len(step.predicates) != 1 or step.axis not in ("child", "attribute"):
            return None
        predicate = step.predicates[0]
        wants_last = (
            isinstance(predicate, FunctionCall)
            and predicate.name == "last"
            and not predicate.args
        )
        if not wants_last:
            if not isinstance(predicate, NumberLiteral):
                return None
            value = predicate.value
            if value != int(value) or int(value) < 1:
                return np.empty(0, dtype=np.int64)
            wanted_rank = int(value) - 1
        candidates = dispatch(
            StaircaseStep(-1, step.axis, step.test, pushdown), self, context
        )
        if len(candidates) == 0:
            return candidates
        parents = self.doc.parent[candidates]
        order = np.argsort(parents, kind="stable")  # groups keep doc order
        grouped = candidates[order]
        boundaries = np.nonzero(np.diff(parents[order]))[0]
        if wants_last:
            picks = np.concatenate((boundaries, [len(grouped) - 1]), dtype=np.int64)
        else:
            starts = np.concatenate(([0], boundaries + 1), dtype=np.int64)
            ends = np.concatenate((boundaries, [len(grouped) - 1]), dtype=np.int64)
            picks = starts + wanted_rank
            picks = picks[picks <= ends]
        return np.sort(grouped[picks])

    # ------------------------------------------------------------------
    # Expression evaluation (XPath 1.0 core semantics)
    # ------------------------------------------------------------------
    def _expr(self, expr: Expr, context_pre: int, position: int, size: int):
        if isinstance(expr, NumberLiteral):
            return expr.value
        if isinstance(expr, StringLiteral):
            return expr.value
        if isinstance(expr, LocationPath):
            seed = None if expr.absolute else context_pre
            return self.evaluate(expr, context=seed)
        if isinstance(expr, FunctionCall):
            return self._function(expr, context_pre, position, size)
        if isinstance(expr, BinaryExpr):
            if expr.op == "or":
                left = self._to_boolean(self._expr(expr.left, context_pre, position, size))
                if left:
                    return True
                return self._to_boolean(self._expr(expr.right, context_pre, position, size))
            if expr.op == "and":
                left = self._to_boolean(self._expr(expr.left, context_pre, position, size))
                if not left:
                    return False
                return self._to_boolean(self._expr(expr.right, context_pre, position, size))
            left = self._expr(expr.left, context_pre, position, size)
            right = self._expr(expr.right, context_pre, position, size)
            if expr.op == "|":
                if not (isinstance(left, np.ndarray) and isinstance(right, np.ndarray)):
                    raise XPathEvaluationError("'|' requires node-set operands")
                return np.union1d(left, right)
            if expr.op in ("+", "-", "*", "div", "mod"):
                return self._arithmetic(expr.op, left, right)
            return self._compare(expr.op, left, right)
        raise XPathEvaluationError(f"cannot evaluate expression {expr!r}")

    def _arithmetic(self, op: str, left, right) -> float:
        """XPath 1.0 numeric operators (NaN-propagating)."""
        ln, rn = self._to_number(left), self._to_number(right)
        if np.isnan(ln) or np.isnan(rn):
            return float("nan")
        if op == "+":
            return ln + rn
        if op == "-":
            return ln - rn
        if op == "*":
            return ln * rn
        if op == "div":
            if rn == 0:
                return float("inf") if ln > 0 else float("-inf") if ln < 0 else float("nan")
            return ln / rn
        # mod: remainder with the sign of the dividend (math.fmod semantics,
        # which raises where IEEE says NaN: an infinite dividend)
        if rn == 0 or math.isinf(ln):
            return float("nan")
        return math.fmod(ln, rn)

    def _function(self, call: FunctionCall, context_pre: int, position: int, size: int):
        name = call.name
        args = [self._expr(a, context_pre, position, size) for a in call.args]
        if name == "position":
            return float(position)
        if name == "last":
            return float(size)
        if name == "count":
            if len(args) != 1 or not isinstance(args[0], np.ndarray):
                raise XPathEvaluationError("count() expects one node-set argument")
            return float(len(args[0]))
        if name == "not":
            if len(args) != 1:
                raise XPathEvaluationError("not() expects one argument")
            return not self._to_boolean(args[0])
        if name == "name":
            if args:
                node_set = args[0]
                if not isinstance(node_set, np.ndarray):
                    raise XPathEvaluationError("name() expects a node-set argument")
                if len(node_set) == 0:
                    return ""
                return self.doc.tag_of(int(node_set[0]))
            return self.doc.tag_of(context_pre)
        if name == "string-length":
            if args:
                return float(len(self._to_string(args[0])))
            return float(len(self.doc.string_value(context_pre)))
        if name == "contains":
            if len(args) != 2:
                raise XPathEvaluationError("contains() expects two arguments")
            return self._to_string(args[1]) in self._to_string(args[0])
        if name == "starts-with":
            if len(args) != 2:
                raise XPathEvaluationError("starts-with() expects two arguments")
            return self._to_string(args[0]).startswith(self._to_string(args[1]))
        if name == "local-name":
            # No namespaces in this data model: local-name == name.
            return self._function(
                FunctionCall("name", call.args), context_pre, position, size
            )
        if name == "string":
            if args:
                return self._to_string(args[0])
            return self.doc.string_value(context_pre)
        if name == "number":
            if args:
                return self._to_number(args[0])
            return self._to_number(self.doc.string_value(context_pre))
        if name == "boolean":
            if len(args) != 1:
                raise XPathEvaluationError("boolean() expects one argument")
            return self._to_boolean(args[0])
        if name == "true":
            return True
        if name == "false":
            return False
        if name == "concat":
            if len(args) < 2:
                raise XPathEvaluationError("concat() expects two or more arguments")
            return "".join(self._to_string(a) for a in args)
        if name == "substring":
            if len(args) not in (2, 3):
                raise XPathEvaluationError("substring() expects two or three arguments")
            value = self._to_string(args[0])
            # The characters at 1-based positions in [round(start),
            # round(start) + round(length)); NaN bounds select nothing.
            start = _round(self._to_number(args[1]))
            end = start + _round(self._to_number(args[2])) if len(args) == 3 else math.inf
            first, last = max(start, 1.0), min(end, len(value) + 1.0)
            return value[int(first) - 1 : int(last) - 1] if first < last else ""
        if name == "substring-before":
            if len(args) != 2:
                raise XPathEvaluationError("substring-before() expects two arguments")
            value, marker = self._to_string(args[0]), self._to_string(args[1])
            index = value.find(marker)
            return value[:index] if index >= 0 else ""
        if name == "substring-after":
            if len(args) != 2:
                raise XPathEvaluationError("substring-after() expects two arguments")
            value, marker = self._to_string(args[0]), self._to_string(args[1])
            index = value.find(marker)
            return value[index + len(marker):] if index >= 0 else ""
        if name == "normalize-space":
            if args:
                value = self._to_string(args[0])
            else:
                value = self.doc.string_value(context_pre)
            return " ".join(value.split())
        if name == "sum":
            if len(args) != 1 or not isinstance(args[0], np.ndarray):
                raise XPathEvaluationError("sum() expects one node-set argument")
            return float(
                sum(self._to_number(self.doc.string_value(int(p))) for p in args[0])
            )
        if name in ("floor", "ceiling", "round"):
            if len(args) != 1:
                raise XPathEvaluationError(f"{name}() expects one argument")
            number = self._to_number(args[0])
            if name == "round":
                return _round(number)
            if not math.isfinite(number):
                return number
            return float(math.floor(number) if name == "floor" else math.ceil(number))
        raise XPathEvaluationError(f"unknown function {name!r}")

    # -- coercions --------------------------------------------------------
    def _to_boolean(self, value) -> bool:
        if isinstance(value, np.ndarray):
            return len(value) > 0
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            return value != 0.0 and not np.isnan(value)
        if isinstance(value, str):
            return value != ""
        raise XPathEvaluationError(f"cannot coerce {type(value).__name__} to boolean")

    def _to_number(self, value) -> float:
        if isinstance(value, bool):
            return 1.0 if value else 0.0
        if isinstance(value, float):
            return value
        if isinstance(value, str):
            return xpath_number(value)
        if isinstance(value, np.ndarray):
            return self._to_number(self._to_string(value))
        raise XPathEvaluationError(f"cannot coerce {type(value).__name__} to number")

    def _to_string(self, value) -> str:
        if isinstance(value, str):
            return value
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            if math.isnan(value):
                return "NaN"
            if math.isinf(value):
                return "Infinity" if value > 0 else "-Infinity"
            if value == int(value):
                return str(int(value))
            return str(value)
        if isinstance(value, np.ndarray):
            if len(value) == 0:
                return ""
            return self.doc.string_value(int(value[0]))
        raise XPathEvaluationError(f"cannot coerce {type(value).__name__} to string")

    def _compare(self, op: str, left, right) -> bool:
        """XPath 1.0 comparison with existential node-set semantics."""
        if isinstance(left, np.ndarray) and isinstance(right, np.ndarray):
            left_values = {self.doc.string_value(int(p)) for p in left}
            right_values = {self.doc.string_value(int(p)) for p in right}
            return any(
                self._compare_scalar(op, lv, rv)
                for lv in left_values
                for rv in right_values
            )
        if isinstance(left, np.ndarray):
            return any(
                self._compare_scalar(op, self.doc.string_value(int(p)), right)
                for p in left
            )
        if isinstance(right, np.ndarray):
            return any(
                self._compare_scalar(op, left, self.doc.string_value(int(p)))
                for p in right
            )
        return self._compare_scalar(op, left, right)

    def _compare_scalar(self, op: str, left, right) -> bool:
        if op in ("<", "<=", ">", ">="):
            ln, rn = self._to_number(left), self._to_number(right)
            if np.isnan(ln) or np.isnan(rn):
                return False
            return {"<": ln < rn, "<=": ln <= rn, ">": ln > rn, ">=": ln >= rn}[op]
        # = / != : numbers if either side is numeric or boolean if either
        # side is boolean, else strings.
        if isinstance(left, bool) or isinstance(right, bool):
            lb, rb = self._to_boolean(left), self._to_boolean(right)
            return lb == rb if op == "=" else lb != rb
        if isinstance(left, float) or isinstance(right, float):
            ln, rn = self._to_number(left), self._to_number(right)
            if np.isnan(ln) or np.isnan(rn):
                return op == "!="
            return ln == rn if op == "=" else ln != rn
        ls, rs = self._to_string(left), self._to_string(right)
        return ls == rs if op == "=" else ls != rs


def evaluate(
    doc: DocTable,
    path: Union[str, LocationPath],
    context: Union[None, int, np.ndarray] = None,
    mode: SkipMode = SkipMode.ESTIMATE,
    pushdown: bool = False,
    stats: Optional[JoinStatistics] = None,
    engine: Optional[str] = None,
    result_mode: str = "materialize",
) -> Union[np.ndarray, int, bool]:
    """One-shot convenience wrapper around :class:`Evaluator` (the
    return type follows ``result_mode``: ranks, a count, or a bool)."""
    evaluator = Evaluator(
        doc, mode=mode, pushdown=pushdown, stats=stats, engine=engine
    )
    return evaluator.evaluate(path, context=context, mode=result_mode)
