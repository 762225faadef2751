"""Query planning: three rewrite rules that read no statistics.

The paper leaves planning as future work — "future research on a cost
model is intended to let the system intelligently decide for or against
name test pushdown or similar rewrites" (Section 4.4).  On the suite
and the benchmark pools a cost model over per-tag statistics decided
nothing these rules do not (measured in docs/ARCHITECTURE.md, "Why
there is no cost model"):

1. **//-collapse** — ``descendant-or-self::node()/child::t`` becomes
   ``descendant::t``, and with a positional predicate ``P`` on a name
   test, ``descendant::t/parent::node()/child::t[P]``
   (:func:`~repro.xpath.rewrite.collapse_descendant_or_self`), the
   leading pair guarded by the plane's root tag(s);
2. **context-free predicates first** — within a step without positional
   predicates, the predicates with one value whatever the candidate
   (``[7 > 0]``, ``[count(//a) > 2]``) run first: each is evaluated
   once per filter, and a false one empties the frontier before any
   real work.  The others keep their written order;
3. **every name test is pushed down** where the step has a fragment
   variant — ``child``, ``descendant`` and ``ancestor`` steps, and the
   leading ``descendant(-or-self)`` step of an absolute path.

A top-level union is planned branch by branch, by the same rules.

A plan is therefore a function of the query text and the root tag(s)
alone: it cannot go stale at a commit.  Every rule is
*result-invariant* — a plan changes how a query runs, never what it
returns (the hypothesis equivalence tests pin this down on random
forests, both engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterator, Optional, Tuple, Union

from repro.xpath.ast import BinaryExpr, Expr, LocationPath, Step
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import is_positional_predicate, operator_name
from repro.xpath.predicates import is_context_free
from repro.xpath.rewrite import collapse_descendant_or_self

__all__ = ["Planner", "QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """An executable plan for one query.

    ``path`` is the expression the engines run (collapsed, predicates
    re-ordered); ``original`` is what the user wrote.
    ``pushdown_steps`` holds, per union branch (one for a plain path),
    the indices of the steps whose name test runs below the join — the
    exact value :class:`~repro.xpath.evaluator.Evaluator` accepts as its
    ``pushdown`` argument.  Plans are immutable and picklable, so the
    service ships them to shard workers as-is.
    """

    query: str
    original: Expr
    path: Expr
    pushdown_steps: Tuple[FrozenSet[int], ...]
    rewrites: Tuple[str, ...]

    @property
    def rewritten(self) -> bool:
        return self.path is not self.original

    def describe(self) -> str:
        """The multi-line ``explain`` rendering of this plan."""
        lines = [f"XPath: {self.original}"]
        lines.extend(f"rewrite: {r}" for r in self.rewrites)
        if not self.rewrites:
            lines.append("rewrite: none applicable")
        if not isinstance(self.path, LocationPath):
            lines.append("plan: union of sub-plans (each branch planned alone)")
        for path, pushed in zip(_branches(self.path), self.pushdown_steps):
            for index, step in enumerate(path.steps):
                lines.append(f"step {index + 1}: {step}")
                lines.append(f"  operator    : {operator_name(step.axis)}")
                if index in pushed:
                    lines.append("  name test   : PUSHDOWN (fragment scan)")
        return "\n".join(lines)


def _branches(expr: Expr) -> Iterator[LocationPath]:
    if isinstance(expr, BinaryExpr):
        yield from _branches(expr.left)
        yield from _branches(expr.right)
    elif isinstance(expr, LocationPath):
        yield expr


class Planner:
    """Plan queries by the module's three rules.

    ``root_tags`` names the tags a plane root may carry — the
    ``//``-collapse law's leading-pair guard.  ``None`` means the plan
    will run re-anchored at a member root (document-scoped execution),
    which that guard does not describe: the collapse is then off.  The
    planner holds no other state, so one planner may serve many threads.
    """

    def __init__(self, root_tags: Optional[FrozenSet[str]]):
        self.root_tags = root_tags

    def plan(self, path: Union[str, Expr]) -> QueryPlan:
        """Produce a :class:`QueryPlan` for ``path``."""
        query = path if isinstance(path, str) else str(path)
        original = parse_xpath(path) if isinstance(path, str) else path
        if isinstance(original, BinaryExpr):
            # Top-level unions: each branch is planned alone.
            left = self.plan(original.left)
            right = self.plan(original.right)
            changed = left.rewritten or right.rewritten
            return QueryPlan(
                query=query,
                original=original,
                path=(
                    BinaryExpr(original.op, left.path, right.path)
                    if changed
                    else original
                ),
                pushdown_steps=left.pushdown_steps + right.pushdown_steps,
                rewrites=left.rewrites + right.rewrites,
            )
        if not isinstance(original, LocationPath):
            return QueryPlan(query, original, original, (), ())
        path, rewrites = self._collapse(original)
        path = _context_free_first(path)
        pushdown = frozenset(
            index
            for index, step in enumerate(path.steps)
            if _pushdown_eligible(step, from_document=path.absolute and index == 0)
        )
        return QueryPlan(query, original, path, (pushdown,), rewrites)

    def _collapse(self, path: LocationPath) -> Tuple[LocationPath, Tuple[str, ...]]:
        """Rule 1: ``descendant-or-self::node()/child::t`` → ``descendant::t``
        (or its positional twin)."""
        if self.root_tags is None:
            return path, ()
        collapsed = collapse_descendant_or_self(path, self.root_tags)
        if collapsed is path:
            return path, ()
        return collapsed, (f"//-collapse → {collapsed}",)


def _context_free_first(path: LocationPath) -> LocationPath:
    """Rule 2: per step, context-free predicates first, the rest in
    written order (a stable sort).  Non-positional predicates are pure
    per-node filters and commute; a step carrying *any* positional
    predicate keeps its order (positions re-index between predicates)."""
    steps = tuple(
        Step(
            step.axis,
            step.test,
            tuple(sorted(step.predicates, key=lambda p: not is_context_free(p))),
        )
        if len(step.predicates) > 1
        and not any(is_positional_predicate(p) for p in step.predicates)
        else step
        for step in path.steps
    )
    return path if steps == path.steps else LocationPath(path.absolute, steps)


def _pushdown_eligible(step: Step, from_document: bool) -> bool:
    """Rule 3's shapes: steps the evaluator can run against a fragment."""
    if step.test.kind != "name":
        return False
    if from_document:
        return step.axis in ("descendant", "descendant-or-self")
    return step.axis in ("child", "descendant", "ancestor")
