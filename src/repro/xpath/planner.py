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
3. **every name test is pushed down** where
   :func:`~repro.xpath.pipeline.pushdown_eligible` finds a fragment
   variant — the plan compiles with ``pushdown=True``.

Rules 1 and 2 rewrite each branch of a top-level union alone.

:func:`plan_query` applies the rules and returns the
:class:`~repro.xpath.pipeline.PhysicalPlan` that runs, so a plan is a
function of the query text, the root tag(s) and the scope alone: it
cannot go stale at a commit.  Every rule is *result-invariant* — a plan
changes how a query runs, never what it returns (the hypothesis
equivalence tests pin this down on random forests, both engines).
"""

from __future__ import annotations

from dataclasses import replace
from functools import reduce
from typing import FrozenSet, Union

from repro.xpath.ast import BinaryExpr, Expr, LocationPath, Step
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import (
    PhysicalPlan,
    compile_plan,
    is_positional_predicate,
    union_branches,
)
from repro.xpath.predicates import is_context_free
from repro.xpath.rewrite import collapse_descendant_or_self

__all__ = ["plan_query"]


def plan_query(
    query: Union[str, Expr], root_tags: FrozenSet[str], scoped: bool = False
) -> PhysicalPlan:
    """The planned :class:`~repro.xpath.pipeline.PhysicalPlan` for
    ``query`` (materialize mode).

    ``root_tags`` names the tags a plane root may carry — the
    ``//``-collapse law's leading-pair guard.  A ``scoped`` plan runs
    re-anchored at a member root, which that guard does not describe:
    it collapses nothing, and keeps rule 2 and pushdown.
    """
    original = parse_xpath(query) if isinstance(query, str) else query
    rewrites = []
    paths = []
    for path in union_branches(original):
        if not scoped:
            collapsed = collapse_descendant_or_self(path, root_tags)
            if collapsed is not path:
                rewrites.append(f"//-collapse → {collapsed}")
                path = collapsed
        paths.append(_context_free_first(path))
    planned = reduce(lambda left, right: BinaryExpr("|", left, right), paths)
    return replace(
        compile_plan(planned, pushdown=True, scoped=scoped),
        query=query if isinstance(query, str) else str(original),
        planned=True,
        rewrites=tuple(rewrites),
    )


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
