"""Physical operator pipelines: the compiled execution spine.

The paper's core claim is that each XPath location step is one
predictable physical operator over the pre/post plane.  This module
gives the execution layer that shape: :func:`compile_plan` turns a
parsed expression into a :class:`PhysicalPlan` — a picklable sequence
of typed operators that both engines execute behind one kernel
dispatch (:func:`~repro.xpath.planner.plan_query` is the planner's way
in: it rewrites the expression, then compiles it here):

* :class:`ContextInit` — seed the context (document node or caller
  context), normalised to a sorted duplicate-free rank array;
* :class:`StaircaseStep` — one axis step plus its node test, with the
  name-test pushdown verdict *fused into the operator*
  (:func:`pushdown_eligible` is the one rule that decides it);
* :class:`PredicateFilter` — one non-positional predicate (one
  operator per predicate, in the plan's order), mask-based in the
  vectorized engine;
* :class:`PositionalSelect` — a whole step whose predicates need
  per-context-node position semantics (``[2]``, ``[last()]``, …);
* :class:`DocOrderDedup` — merges union branches in document order;
* terminal :class:`Materialize` / :class:`Count` / :class:`Exists` —
  the result mode.

Each non-terminal operator has a scalar and a vectorized kernel
registered behind one dispatch table (:func:`register_kernel` /
:func:`dispatch`); the runtime object (an
:class:`~repro.xpath.evaluator.Evaluator`) supplies the document,
the axis executor, fragments and the predicate machinery.

There is one driver, :func:`drive_group`: it walks every branch of
every plan it is given as a chain of one operator-prefix trie, runs
each distinct prefix's kernel once, and is the only place an operator
sequence is advanced — a shard worker's whole batch, a lone
:func:`drive`, a per-candidate predicate sub-path and an ``Exists``
tail chunk are the same walk with more or fewer members.  Its optional
arguments are the seams the layers above plug into: a rank ``span`` to
keep (document scoping, the virtual-root exclusion), a prefix ``cache``
(cross-batch sharing) and an ``observer`` (``analyze`` / ``explain
--analyze``; an argument, not runtime state, so nested drives cannot
record into it).
Early termination: ``Exists`` stops at the first non-empty final
frontier (the remaining tail is re-driven on geometrically growing
context chunks, :func:`exists_tail`) and every chain short-circuits
the moment its frontier is empty; ``Count`` skips rank materialization
beyond the final frontier.  Both modes are value-identical to
materializing and then applying ``len``/truthiness — the property
tests pin this down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import XPathEvaluationError
from repro.xpath.ast import (
    BinaryExpr,
    Expr,
    FunctionCall,
    LocationPath,
    NodeTest,
    NumberLiteral,
    Step,
)
from repro.xpath.axes import DOCUMENT_CONTEXT, apply_node_test, tested_children
from repro.xpath.observation import (
    PipelineObserver,
    predicate_signature,
    step_signature,
)
from repro.xpath.parser import parse_xpath
from repro.xpath.rewrite import anchor_at_member_root

__all__ = [
    "MODES",
    "ContextInit",
    "Count",
    "DocOrderDedup",
    "Exists",
    "Materialize",
    "PhysicalPlan",
    "PositionalSelect",
    "PredicateFilter",
    "StaircaseStep",
    "compile_plan",
    "compile_step_ops",
    "dispatch",
    "drive",
    "drive_group",
    "exists_ready",
    "exists_tail",
    "is_positional_predicate",
    "observed_drive",
    "operator_name",
    "pushdown_eligible",
    "register_kernel",
    "union_branches",
]

#: The result modes a pipeline can terminate in.
MODES = ("materialize", "count", "exists")


# ----------------------------------------------------------------------
# Positional-predicate classification (compile-time concern)
# ----------------------------------------------------------------------
def _uses_position(expr: Expr) -> bool:
    """Does ``expr`` call ``position()``/``last()`` anywhere?"""
    if isinstance(expr, FunctionCall):
        if expr.name in ("position", "last"):
            return True
        return any(_uses_position(a) for a in expr.args)
    if isinstance(expr, BinaryExpr):
        return _uses_position(expr.left) or _uses_position(expr.right)
    return False


#: Core functions whose return type is number (XPath 1.0 §4.4).
_NUMBER_FUNCTIONS = frozenset(
    ("position", "last", "count", "string-length", "sum", "number",
     "floor", "ceiling", "round")
)


def _returns_number(expr: Expr) -> bool:
    """Can ``expr``'s top-level value be a number?

    Per the XPath 1.0 predicate rule, a numeric predicate value is
    shorthand for ``position() = <number>`` — so any expression that can
    yield a number must be evaluated per context position.  Comparisons
    and ``and``/``or`` always yield booleans, unions yield node-sets, so a
    predicate like ``[initial + 20 < current]`` is *not* positional and
    can be filtered set-at-a-time.
    """
    if isinstance(expr, NumberLiteral):
        return True
    if isinstance(expr, FunctionCall):
        return expr.name in _NUMBER_FUNCTIONS
    if isinstance(expr, BinaryExpr):
        return expr.op in ("+", "-", "*", "div", "mod")
    return False


def is_positional_predicate(expr: Expr) -> bool:
    """Positional predicates compare against the context position."""
    return _uses_position(expr) or _returns_number(expr)


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContextInit:
    """Seed the pipeline's context.

    Absolute paths anchor at the virtual document node; relative paths
    at the caller context (default: the root element), normalised to a
    sorted duplicate-free rank array.
    """

    absolute: bool

    def __str__(self) -> str:
        return f"ContextInit({'document' if self.absolute else 'context'})"


@dataclass(frozen=True)
class StaircaseStep:
    """One axis step plus its node test.

    ``pushdown`` fuses the name test below the join: the step reads the
    per-tag fragment instead of filtering the join output (the
    :func:`pushdown_eligible` verdict, baked in at compile time).  The
    kernel still guards the context — a step re-anchored at a member
    root no longer starts at the document node, and falls back to
    join-then-test.
    """

    index: int  #: top-level step position (-1 = no top-level position)
    axis: str
    test: NodeTest
    pushdown: bool = False

    def __str__(self) -> str:
        fused = ", pushdown" if self.pushdown else ""
        return f"StaircaseStep({self.axis}::{self.test}{fused})"


@dataclass(frozen=True)
class PredicateFilter:
    """Filter the frontier through one non-positional predicate.

    A step's predicates compile to one filter each, in the plan's
    (cheapest-first) order; the vectorized engine evaluates it as one
    boolean keep-mask (reverse-path semi-join) where the shape allows
    and falls back to the per-candidate evaluator otherwise.
    """

    index: int
    axis: str  #: the producing step's axis (reverse axes flip positions)
    predicate: Expr

    def __str__(self) -> str:
        return f"PredicateFilter([{self.predicate}])"


@dataclass(frozen=True)
class PositionalSelect:
    """A whole step whose predicates carry position semantics.

    ``position()``/``last()``/numeric predicates see the axis order per
    context node, so the step cannot be decomposed into a bulk axis step
    plus a set-at-a-time filter; the vectorized kernel still recognises
    ``child::t[k]`` / ``child::t[last()]`` and selects set-at-a-time by
    ranking candidates within parent groups.
    """

    index: int
    step: Step
    pushdown: bool = False

    def __str__(self) -> str:
        fused = ", pushdown" if self.pushdown else ""
        return f"PositionalSelect({self.step}{fused})"


@dataclass(frozen=True)
class DocOrderDedup:
    """Merge union branches into one duplicate-free, document-ordered
    rank array (each branch is already sorted and duplicate-free)."""

    def __str__(self) -> str:
        return "DocOrderDedup(merge branches)"


@dataclass(frozen=True)
class Materialize:
    """Terminal: the full rank array, in document order."""

    def __str__(self) -> str:
        return "Materialize"


@dataclass(frozen=True)
class Count:
    """Terminal: result cardinality only — the driver never converts
    the final frontier into a caller-facing rank payload."""

    def __str__(self) -> str:
        return "Count"


@dataclass(frozen=True)
class Exists:
    """Terminal: boolean existence — the driver stops at the first
    non-empty final frontier and short-circuits on empty ones."""

    def __str__(self) -> str:
        return "Exists"


Operator = Union[
    ContextInit, StaircaseStep, PredicateFilter, PositionalSelect,
    DocOrderDedup, Materialize, Count, Exists,
]

_TERMINALS = {"materialize": Materialize(), "count": Count(), "exists": Exists()}

#: Operators that produce a new frontier from the previous one (the
#: chunkable targets of the ``Exists`` early-termination driver).
_PRODUCERS = (StaircaseStep, PositionalSelect)


#: What each axis runs on (the Section 2/3 execution vocabulary), as
#: ``explain`` prints it under each step operator.
AXIS_OPERATORS = {
    "descendant": "staircase_join_desc",
    "ancestor": "staircase_join_anc",
    "following": "staircase_join_following (context degenerates to a singleton)",
    "preceding": "staircase_join_preceding (context degenerates to a singleton)",
    "descendant-or-self": "staircase_join_desc ∪ context",
    "ancestor-or-self": "staircase_join_anc ∪ context",
    "child": "parent-column equi-join (kind ≠ attribute)",
    "parent": "parent-column projection (unique)",
    "attribute": "parent-column equi-join (kind = attribute)",
    "self": "identity",
    "following-sibling": "parent-column sibling scan (pre > context)",
    "preceding-sibling": "parent-column sibling scan (pre < context)",
}


def operator_name(axis: str) -> str:
    """The physical operator an axis step runs on."""
    return AXIS_OPERATORS.get(axis, axis)


# ----------------------------------------------------------------------
# The compiled plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PhysicalPlan:
    """A compiled, engine-agnostic operator pipeline.

    ``branches`` holds one operator sequence per union branch (usually
    one); ``terminal`` is the result mode.  Plans are immutable,
    hashable and picklable — the service ships them to shard workers
    as-is, and the workers' prefix tries key shared intermediate
    contexts by operator-prefix tuples.

    The plan is the only carrier of execution decisions: name-test
    pushdown is fused into the operators, and document scoping is
    already compiled into the branches' leading steps.
    """

    branches: Tuple[Tuple[Operator, ...], ...]
    terminal: Operator
    query: str
    #: Produced by :func:`~repro.xpath.planner.plan_query`.  Part of the
    #: executor's grouping rule: only planned groups consult the
    #: cross-batch prefix cache — ``planner=False`` keeps its ablation
    #: meaning of paying for every operator it runs.
    planned: bool = False
    merge: DocOrderDedup = field(default_factory=DocOrderDedup)
    #: The planner's rewrites, one line each, as ``explain`` prints them.
    rewrites: Tuple[str, ...] = ()

    @property
    def mode(self) -> str:
        if isinstance(self.terminal, Count):
            return "count"
        if isinstance(self.terminal, Exists):
            return "exists"
        return "materialize"

    def with_mode(self, mode: str) -> "PhysicalPlan":
        """The same pipeline under a different terminal."""
        if mode not in _TERMINALS:
            raise XPathEvaluationError(
                f"unknown result mode {mode!r} (expected one of {MODES})"
            )
        if self.mode == mode:
            return self
        return replace(self, terminal=_TERMINALS[mode])

    def operator_count(self) -> int:
        return sum(len(branch) for branch in self.branches) + 1

    def describe(self) -> str:
        """The ``explain`` rendering: the query, the rewrites that
        produced the pipeline, then the pipeline operator by operator."""
        lines = [f"XPath: {self.query}"]
        lines.extend(f"rewrite: {r}" for r in self.rewrites or ("none applicable",))
        lines.append(
            f"physical pipeline: {self.operator_count()} operators, "
            f"terminal {self.terminal}"
        )
        for number, branch in enumerate(self.branches, start=1):
            if len(self.branches) > 1:
                lines.append(f"  branch {number}:")
            indent = "    " if len(self.branches) > 1 else "  "
            for op in branch:
                lines.append(f"{indent}{op}")
                if isinstance(op, _PRODUCERS):
                    axis = op.step.axis if isinstance(op, PositionalSelect) else op.axis
                    lines.append(f"{indent}  └─ {operator_name(axis)}")
        if len(self.branches) > 1:
            lines.append(f"  {self.merge}")
        lines.append(f"  {self.terminal}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def pushdown_eligible(step: Step, from_document: bool) -> bool:
    """Can ``step``'s name test run below the join?  Only steps with a
    fragment variant: a name test on ``child`` / ``descendant`` /
    ``ancestor``, or on ``descendant(-or-self)`` from the document node
    (``from_document``: the first step of an absolute path)."""
    if step.test.kind != "name":
        return False
    if from_document:
        return step.axis in ("descendant", "descendant-or-self")
    return step.axis in ("child", "descendant", "ancestor")


def compile_step_ops(
    step: Step, index: int, pushdown: bool
) -> Tuple[Operator, ...]:
    """Compile one location step into its operator(s).

    A step carrying any positional predicate compiles to one
    :class:`PositionalSelect`; otherwise to a :class:`StaircaseStep`
    plus one :class:`PredicateFilter` per predicate.  ``pushdown`` is
    the step's verdict, fused as given.
    """
    if any(is_positional_predicate(p) for p in step.predicates):
        return (PositionalSelect(index, step, pushdown),)
    return (StaircaseStep(index, step.axis, step.test, pushdown),) + tuple(
        PredicateFilter(index, step.axis, p) for p in step.predicates
    )


def union_branches(expr: Expr) -> List[LocationPath]:
    """The paths of a top-level path or union, left to right."""
    if isinstance(expr, BinaryExpr):
        if expr.op != "|":
            raise XPathEvaluationError(
                f"top-level expression must be a path or union, got {expr.op!r}"
            )
        return union_branches(expr.left) + union_branches(expr.right)
    if isinstance(expr, LocationPath):
        return [expr]
    raise XPathEvaluationError(f"cannot compile top-level expression {expr!r}")


def _compile_path(
    path: LocationPath, pushdown: bool, scoped: bool
) -> Tuple[Operator, ...]:
    """One branch's operators.  Pushdown is decided on the path as
    written, before ``scoped`` re-anchors it at a member root."""
    pushed = [
        pushdown and pushdown_eligible(step, path.absolute and index == 0)
        for index, step in enumerate(path.steps)
    ]
    if scoped:
        path = anchor_at_member_root(path)
    ops: List[Operator] = [ContextInit(path.absolute)]
    for index, (step, push) in enumerate(zip(path.steps, pushed)):
        ops.extend(compile_step_ops(step, index, push))
    return tuple(ops)


def compile_plan(
    plan: Union[str, Expr, "PhysicalPlan"],
    mode: str = "materialize",
    pushdown: bool = False,
    scoped: bool = False,
) -> "PhysicalPlan":
    """Compile ``plan`` — a query string or a parsed path or union —
    into a :class:`PhysicalPlan`, as written (no rewrite).

    ``pushdown`` pushes every :func:`pushdown_eligible` name test below
    its join.  ``scoped`` re-anchors every union branch at a collection
    member's root (:func:`~repro.xpath.rewrite.anchor_at_member_root`);
    the caller drives the result with that root as context.
    Already-compiled plans pass through (re-moded).
    """
    if isinstance(plan, PhysicalPlan):
        return plan.with_mode(mode)
    if not isinstance(pushdown, bool):
        raise TypeError(f"pushdown is True or False, not {pushdown!r}")
    expr = parse_xpath(plan) if isinstance(plan, str) else plan
    branches = tuple(
        _compile_path(path, pushdown, scoped) for path in union_branches(expr)
    )
    if mode not in _TERMINALS:
        raise XPathEvaluationError(
            f"unknown result mode {mode!r} (expected one of {MODES})"
        )
    return PhysicalPlan(
        branches=branches,
        terminal=_TERMINALS[mode],
        query=plan if isinstance(plan, str) else str(expr),
    )


# ----------------------------------------------------------------------
# Kernel dispatch — one registry, keyed by (operator type, engine)
# ----------------------------------------------------------------------
Kernel = Callable[[Operator, object, object], object]

_KERNELS: Dict[Tuple[type, str], Kernel] = {}


def register_kernel(op_type: type, *engines: str):
    """Register a kernel for ``op_type`` under the given engine names."""

    def decorate(fn: Kernel) -> Kernel:
        for engine in engines:
            _KERNELS[(op_type, engine)] = fn
        return fn

    return decorate


def dispatch(op: Operator, runtime, context):
    """Run one operator's kernel for the runtime's engine."""
    try:
        kernel = _KERNELS[(type(op), runtime.engine)]
    except KeyError:
        raise XPathEvaluationError(
            f"no {runtime.engine!r} kernel for operator {type(op).__name__}"
        ) from None
    return kernel(op, runtime, context)


def _empty() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


@register_kernel(ContextInit, "scalar", "vectorized")
def _context_init(op: ContextInit, rt, context):
    if op.absolute:
        return DOCUMENT_CONTEXT
    if context is None:
        return np.asarray([rt.doc.root], dtype=np.int64)
    if isinstance(context, (int, np.integer)):
        return np.asarray([int(context)], dtype=np.int64)
    return np.unique(np.asarray(context, dtype=np.int64))


def _fragment_document(op: StaircaseStep, rt):
    """Every node descends from the document node: the pushed-down name
    test *is* the step — read the fragment and be done."""
    pres, _ = rt.fragments.fragment(op.test.name or "")
    return pres


@register_kernel(StaircaseStep, "scalar", "vectorized")
def _staircase(op: StaircaseStep, rt, context):
    if op.pushdown and op.test.kind == "name":
        if context is DOCUMENT_CONTEXT:
            if op.axis in ("descendant", "descendant-or-self"):
                return _fragment_document(op, rt)
        elif op.axis == "child":
            return tested_children(rt, context, op.axis, op.test)
        elif op.axis in ("descendant", "ancestor"):
            suffix = "_vectorized" if rt.engine == "vectorized" else ""
            fragment_step = getattr(rt.fragments, f"{op.axis}_step{suffix}")
            context_array = np.asarray(context, dtype=np.int64)
            return fragment_step(context_array, op.test.name or "", rt.stats)
    pres = rt.axes.step(context, op.axis)
    return apply_node_test(rt.doc, pres, op.axis, op.test.kind, op.test.name)


@register_kernel(PredicateFilter, "scalar", "vectorized")
def _predicate_filter(op: PredicateFilter, rt, candidates):
    return rt.filter_predicate(candidates, op.axis, op.predicate)


@register_kernel(PositionalSelect, "scalar")
def _positional_per_node(op: PositionalSelect, rt, context):
    """Positional semantics are per context node: evaluate the whole
    step for each node separately so position()/last() see the right
    node list."""
    if context is DOCUMENT_CONTEXT:
        return rt.single_context_step(context, op.step, op.pushdown)
    pieces = []
    for c in np.asarray(context, dtype=np.int64):
        single = np.asarray([int(c)], dtype=np.int64)
        pieces.append(rt.single_context_step(single, op.step, op.pushdown))
    if not pieces:
        return _empty()
    return np.unique(np.concatenate(pieces, dtype=np.int64))


@register_kernel(PositionalSelect, "vectorized")
def _positional_vectorized(op: PositionalSelect, rt, context):
    if context is not DOCUMENT_CONTEXT:
        bulk = rt.bulk_positional_select(context, op.step, op.pushdown)
        if bulk is not None:
            return bulk
    return _positional_per_node(op, rt, context)


@register_kernel(DocOrderDedup, "scalar", "vectorized")
def _doc_order_dedup(op: DocOrderDedup, rt, results):
    merged = results[0]
    for other in results[1:]:
        merged = np.union1d(merged, other)
    return merged


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
#: First chunk size (and geometric growth factor) of the ``Exists``
#: final-frontier scan: small enough that a hit on the first context
#: nodes touches almost nothing, steep enough that a miss costs only a
#: constant factor over the one-shot evaluation.
_EXISTS_CHUNK = 8
_EXISTS_GROWTH = 4


def _frontier_size(frontier) -> int:
    """Cardinality for observation (only operators behind a
    :class:`ContextInit` are recorded, so ``frontier`` is never a raw
    seed): the document node counts as one context node."""
    return 1 if frontier is DOCUMENT_CONTEXT else len(frontier)


def _operator_signature(op: Operator) -> Optional[Tuple[str, ...]]:
    """The observation signature of one operator (``None`` = unobserved)."""
    if isinstance(op, StaircaseStep):
        return step_signature(op.axis, op.test)
    if isinstance(op, PredicateFilter):
        return predicate_signature(op.axis, op.predicate)
    if isinstance(op, PositionalSelect):
        return ("pos", op.step.axis, str(op.step.test))
    return None


def _counters(runtime) -> Tuple[int, int]:
    """The runtime's monotonic work counters an observed drive deltas."""
    return runtime.stats.nodes_scanned, runtime.stats.nodes_skipped


def exists_ready(ops: Tuple[Operator, ...], depth: int, context) -> bool:
    """Should an ``Exists`` evaluation leave the shared pipeline at
    ``depth`` and drive the remaining tail over context chunks?

    Every operator distributes over context partitions (axis steps and
    positional selects are per context node, predicate filters per
    candidate), so the tail may be chunked from *any* multi-element
    frontier — the earlier, the more downstream work a first-chunk hit
    skips.  The one exception is a :class:`PredicateFilter` whose bulk
    mask rescans the plane per invocation: tails containing one only
    chunk at the last producer, so the mask runs at most once per
    chunk of the *final* frontier instead of once per intermediate
    chunk cascade.
    """
    if not isinstance(context, np.ndarray) or len(context) <= 1:
        return False
    if depth >= len(ops) or not isinstance(ops[depth], _PRODUCERS):
        return False
    tail = ops[depth:]
    if not any(isinstance(op, PredicateFilter) for op in tail):
        return True
    return not any(isinstance(op, _PRODUCERS) for op in tail[1:])


def exists_tail(
    tail: Tuple[Operator, ...],
    runtime,
    context: np.ndarray,
    span: Optional[Tuple[int, int]] = None,
) -> bool:
    """Early-terminating existence of a pipeline's remaining segment.

    ``tail`` is what :func:`exists_ready` left of a branch; ``context``
    the frontier feeding it.  Predicates are per-node (the positional
    ones per *context* node), so driving the segment on a slice of the
    context can only produce a subset of the full result — any
    non-empty slice output proves existence, and exhausting the slices
    proves absence.  Partial frontiers are never cached or observed.
    """
    probe = (PhysicalPlan((tail,), _TERMINALS["materialize"], ""),)
    size, start = _EXISTS_CHUNK, 0
    while start < len(context):
        chunk = context[start : start + size]
        if len(drive_group(probe, runtime, chunk, span)[0]):
            return True
        start += size
        size *= _EXISTS_GROWTH
    return False


def _fan_out(todo: list, chains: list, depth: int, prefix, context) -> None:
    """Push the trie's edges out of one node onto the driver's stack:
    one ``(operator, chains sharing it, depth, prefix, input)`` per
    distinct next operator, first edge on top."""
    if len(chains) == 1:  # nothing to group, no operator to hash
        todo.append((chains[0][1][depth], chains, depth, prefix, context))
    elif chains:
        groups: Dict[Operator, list] = {}
        for chain in chains:
            groups.setdefault(chain[1][depth], []).append(chain)
        for op in reversed(groups):
            todo.append((op, groups[op], depth, prefix, context))


def drive_group(
    plans: Sequence[PhysicalPlan],
    runtime,
    context=None,
    span: Optional[Tuple[int, int]] = None,
    cache=None,
    observer: Optional[PipelineObserver] = None,
) -> list:
    """Execute compiled plans against ``runtime`` (an Evaluator) as one
    operator-prefix trie — *the* driver: every plan, alone or in a
    batch, advances its operators here and nowhere else.

    Every branch of every member is a chain of the trie; chains that
    agree on an operator prefix share its one kernel run.  Returns one
    entry per plan, in order: a ``bool`` for an ``Exists`` plan, else
    the final frontier (sorted ranks; branches merged by the plan's
    :class:`DocOrderDedup`) — the caller applies ``Count``.

    ``context`` seeds relative paths.  ``span`` keeps only final ranks
    within the inclusive ``(first, last)`` interval — a collection
    member's span, or everything but the virtual root — and is honoured
    by the early-terminating mode too.  ``cache`` (``get(prefix)`` /
    ``put(prefix, array)``) carries frontiers across calls: a hit skips
    the kernel, outputs are frozen before they are stored.  ``observer``
    receives one record per operator actually run — a cache hit did no
    work and records nothing, ``Exists`` tails are partial and stay
    unobserved — and the drive's totals.  Neither steers execution:
    results are byte-identical with and without them.
    """
    chains: list = []  # (member, operators) per branch of every plan
    arrived: List[List[np.ndarray]] = []  # per member: its branches' finals
    wants_hit: set = set()  # Exists members ...
    hit: set = set()  # ... and those already answered true
    for member, plan in enumerate(plans):
        arrived.append([])
        if isinstance(plan.terminal, Exists):
            wants_hit.add(member)
        for ops in plan.branches:
            chains.append((member, ops))
    if observer is not None:
        before, started = _counters(runtime), time.perf_counter_ns()

    def arrive(member: int, frontier) -> None:
        if frontier is DOCUMENT_CONTEXT:
            # A bare "/" — the document node itself is not encoded.
            frontier = _empty()
        elif span is not None:
            first = np.searchsorted(frontier, span[0], side="left")
            last = np.searchsorted(frontier, span[1], side="right")
            frontier = frontier[first:last]
        if member not in wants_hit:
            arrived[member].append(frontier)
        elif len(frontier):
            hit.add(member)

    # Depth-first over the trie's edges on an explicit stack: a subtree
    # finishes before its sibling edge is even run.
    todo: list = []
    _fan_out(todo, chains, 0, (), context)
    while todo:
        op, sharing, depth, prefix, context = todo.pop()
        if hit and all(member in hit for member, _ in sharing):
            continue  # existence proved while a sibling subtree ran
        if cache is None:
            out = None
        else:
            prefix += (op,)
            out = cache.get(prefix)
        if out is None:
            if observer is not None:
                began, read = time.perf_counter_ns(), runtime.stats.nodes_touched
            out = dispatch(op, runtime, context)
            if observer is not None:
                signature = _operator_signature(op)
                if signature is not None:
                    observer.record(
                        signature,
                        _frontier_size(context),
                        _frontier_size(out),
                        time.perf_counter_ns() - began,
                        runtime.stats.nodes_touched - read,
                    )
            if cache is not None and isinstance(out, np.ndarray):
                # Cached contexts are shared across queries and batches:
                # freeze a view so no later consumer can mutate what
                # another query will read.
                out = out.view()
                out.flags.writeable = False
                cache.put(prefix, out)
        # The node behind the edge: each chain ends here, leaves for an
        # early-terminating tail, or goes on to its next operator.
        depth += 1
        empty = out is not DOCUMENT_CONTEXT and len(out) == 0
        onward = []
        for chain in sharing:
            member, ops = chain
            if empty or depth == len(ops):
                # (Every downstream operator maps empty to empty.)
                arrive(member, out)
            elif member in wants_hit and exists_ready(ops, depth, out):
                # A chunkable frontier: stop at the first hit — unless a
                # materializing sibling already cached the whole chain.
                tail = ops[depth:]
                whole = cache.get(prefix + tail) if cache is not None else None
                if whole is not None:
                    arrive(member, whole)
                elif member not in hit and exists_tail(tail, runtime, out, span):
                    hit.add(member)
            else:
                onward.append(chain)
        _fan_out(todo, onward, depth, prefix, out)
    results: list = []
    for member, parts in enumerate(arrived):
        if member in wants_hit:
            results.append(member in hit)
        elif len(parts) == 1:
            results.append(parts[0])
        else:
            results.append(dispatch(plans[member].merge, runtime, parts))
    if observer is not None:
        observer.elapsed_ns = time.perf_counter_ns() - started
        observer.scanned, observer.skipped = (
            b - a for a, b in zip(before, _counters(runtime))
        )
    return results


def drive(
    plan: PhysicalPlan,
    runtime,
    context=None,
    span: Optional[Tuple[int, int]] = None,
    observer: Optional[PipelineObserver] = None,
):
    """:func:`drive_group` with one member, its terminal applied: a
    rank array (``materialize``), an ``int`` (``count``) or a ``bool``
    (``exists``)."""
    (result,) = drive_group((plan,), runtime, context, span, observer=observer)
    return int(len(result)) if isinstance(plan.terminal, Count) else result


def observed_drive(plan: PhysicalPlan, runtime):
    """:func:`drive` with an observer; returns ``(DriveObservation,
    result)`` — what ``explain --analyze`` runs on a single document."""
    observer = PipelineObserver()
    result = drive(plan, runtime, observer=observer)
    return observer.observation(0, runtime.engine), result
