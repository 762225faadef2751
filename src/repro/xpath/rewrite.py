"""XPath rewriting laws: the paper's and the planner's.

Section 4.4 names two rewrites:

* **Name-test pushdown** (Experiment 3): ``cs/ancestor::n`` evaluated as
  ``staircasejoin_anc(nametest(doc, n), cs)`` instead of
  ``nametest(staircasejoin_anc(doc, cs), n)``.  Valid because the tree
  properties staircase join relies on are "entirely based on preorder and
  postorder ranks [and] remain valid for a subset of nodes".  It leaves
  the path as written, so it is no rewrite here: it is a verdict fused
  into each compiled step (:func:`~repro.xpath.pipeline.pushdown_eligible`).

* **Symmetry rewrite** [Olteanu et al. 2001]: the paper ran the DB2
  comparison for Q2 on the manually rewritten
  ``/descendant::bidder[descendant::increase]`` because the tree-unaware
  optimiser mis-planned ``/descendant::increase/ancestor::bidder``.
  :func:`symmetry_rewrite` implements exactly this law — a trailing
  ``ancestor::n`` step becomes a name-tested descendant step with an
  existential ``descendant`` predicate.

The planner's //-collapse (:func:`collapse_descendant_or_self`) and the
member re-anchoring of document-scoped runs
(:func:`anchor_at_member_root`) are laws of the same kind.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.errors import XPathEvaluationError
from repro.xpath.ast import BinaryExpr, Expr, LocationPath, NodeTest, Step
from repro.xpath.parser import parse_xpath

__all__ = [
    "anchor_at_member_root",
    "collapse_descendant_or_self",
    "symmetry_rewrite",
]


def collapse_descendant_or_self(
    path, root_tags: Optional[FrozenSet[str]] = None
) -> LocationPath:
    """Collapse ``descendant-or-self::node()/child::t`` pairs into
    ``descendant::t`` (the expansion of the ``//`` abbreviation), and
    ``descendant-or-self::node()/child::t[P]`` with a positional ``P``
    into ``descendant::t/parent::node()/child::t[P]``.

    ``c/descendant-or-self::node()/child::t`` selects the children of
    ``c``'s inclusive descendants — exactly ``c``'s proper descendants
    passing the test — so the pair is one descendant step.  The single
    step skips an O(n) intermediate *and* has the shape name-test
    pushdown accepts.

    Two guards keep the laws exact:

    * a ``child`` step carrying a positional predicate keeps its child
      step — ``//t[2]`` counts positions within each parent's child
      list, ``descendant::t[2]`` within a descendant list.  Its twin
      (name tests only) replaces just the ``descendant-or-self`` step:
      every ``t`` below the context has its parent among the context's
      inclusive descendants, and the parents without a ``t`` child add
      nothing, so ``descendant::t/parent::node()`` is exactly the
      context the ``child::t[P]`` step can use;
    * the *leading* pair of an absolute path is collapsed only when the
      tested name provably cannot match a plane root: this engine's
      ``descendant-or-self`` from the (un-encoded) document node yields
      encoded nodes only, so ``//t`` never returns the root element,
      while ``/descendant::t`` would.  ``root_tags`` names the tags a
      root may carry (e.g. a collection's virtual root tag); ``None``
      means unknown, which disables the leading collapse entirely.
    """
    from repro.xpath.pipeline import is_positional_predicate

    if isinstance(path, str):
        path = parse_xpath(path)
    if not isinstance(path, LocationPath):
        return path
    steps = list(path.steps)
    index = 0
    changed = False
    while index < len(steps) - 1:
        first, second = steps[index], steps[index + 1]
        positional = any(is_positional_predicate(p) for p in second.predicates)
        collapsible = (
            first.axis == "descendant-or-self"
            and first.test.kind == "node"
            and not first.predicates
            and second.axis == "child"
            and (second.test.kind == "name" or not positional)
        )
        if collapsible and index == 0 and path.absolute:
            collapsible = (
                root_tags is not None
                and second.test.kind == "name"
                and second.test.name not in root_tags
            )
        if not collapsible:
            index += 1
            continue
        changed = True
        if positional:
            steps[index : index + 1] = [
                Step("descendant", second.test),
                Step("parent", NodeTest("node")),
            ]
            index += 3
        else:
            steps[index : index + 2] = [
                Step("descendant", second.test, second.predicates)
            ]
    if not changed:
        return path
    return LocationPath(path.absolute, tuple(steps))


#: The member root stands in for the document node, whose descendants
#: are the root element or-self and whose only child is that element.
_AXIS_FROM_MEMBER_ROOT = {
    "descendant": "descendant-or-self",
    "descendant-or-self": "descendant-or-self",
    "child": "self",
}


def anchor_at_member_root(expr: Expr) -> Expr:
    """Re-anchor absolute paths at a collection member's root element
    (the per-document view of footnote 1's multi-document plane).

    Every absolute branch of a top-level union becomes a relative path,
    its first axis mapped as seen from the document node; the caller
    evaluates the result with the member root as context.  Relative
    paths and a bare ``/`` (empty under any context) pass unchanged; any
    other leading axis raises :class:`~repro.errors.XPathEvaluationError`.
    """
    if isinstance(expr, BinaryExpr) and expr.op == "|":
        return BinaryExpr(
            "|",
            anchor_at_member_root(expr.left),
            anchor_at_member_root(expr.right),
        )
    if not isinstance(expr, LocationPath) or not expr.absolute or not expr.steps:
        return expr
    first = expr.steps[0]
    axis = _AXIS_FROM_MEMBER_ROOT.get(first.axis)
    if axis is None:
        raise XPathEvaluationError(
            f"axis {first.axis!r} cannot start a document-scoped absolute path"
        )
    return LocationPath(
        False, (Step(axis, first.test, first.predicates),) + expr.steps[1:]
    )


def symmetry_rewrite(path) -> LocationPath:
    """Rewrite a trailing ``.../descendant::m/ancestor::n`` pair.

    ``cs/descendant::m/ancestor::n`` is equivalent to
    ``cs/descendant-or-self::node()/child::n[descendant::m]`` restricted
    to descendants of ``cs`` — for the paper's absolute Q2,
    ``/descendant::increase/ancestor::bidder`` becomes
    ``/descendant::bidder[descendant::increase]``.

    The law implemented here covers the absolute two-step shape the paper
    used (and the test suite verifies the equivalence on random
    documents); other shapes are returned unchanged.
    """
    if isinstance(path, str):
        path = parse_xpath(path)
    steps = path.steps
    # Only the absolute two-step shape: with a longer prefix the ancestor
    # step may climb above the prefix context, where the rewritten
    # descendant step would not look.
    if len(steps) != 2 or not path.absolute:
        return path
    desc_step = steps[-2]
    anc_step = steps[-1]
    if not (
        desc_step.axis == "descendant"
        and desc_step.test.kind == "name"
        and not desc_step.predicates
        and anc_step.axis == "ancestor"
        and anc_step.test.kind == "name"
        and not anc_step.predicates
    ):
        return path
    predicate = LocationPath(
        False, (Step("descendant", NodeTest("name", desc_step.test.name)),)
    )
    rewritten_last = Step(
        "descendant", NodeTest("name", anc_step.test.name), (predicate,)
    )
    return LocationPath(path.absolute, steps[:-2] + (rewritten_last,))
