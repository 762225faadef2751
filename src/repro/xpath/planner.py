"""Cost-based query planning from per-tag catalogue statistics.

The paper leaves planning as future work — "future research on a cost
model is intended to let the system intelligently decide for or against
name test pushdown or similar rewrites" (Section 4.4) — and observes
that its own rewrite laws pay off only conditionally: "pushdown makes
sense for selective name tests only", and the symmetry rewrite of
[Olteanu et al. 2001] was applied *manually* to keep DB2's tree-unaware
optimizer from mis-planning Q2.  This module is that missing decision
layer, in the classical System-R shape: catalogue statistics in, costed
plan out.

* :class:`TagStatistics` — the catalogue: per-tag element cardinalities
  (``np.bincount`` histograms computed once per plane, persisted per
  shard by :class:`~repro.service.store.ShardedStore`), total node
  count, and tree height.
* :class:`Planner` — turns a parsed AST into a :class:`QueryPlan`:
  applies :func:`~repro.xpath.rewrite.symmetry_rewrite` when the model
  prices the rewritten shape cheaper, decides name-test pushdown per
  eligible step, orders non-positional predicates cheapest-first,
  and picks the scalar staircase :class:`SkipMode`.
* :class:`QueryPlan` — the costed result: the (possibly rewritten)
  path, the per-step pushdown verdicts the evaluator honours, per-step
  cardinality estimates, and :meth:`QueryPlan.describe` — the text the
  ``explain`` CLI verb prints.

Every decision is *result-invariant*: a plan changes how a query runs,
never what it returns (the hypothesis equivalence tests pin this down
on random forests, both engines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from repro.core.staircase import SkipMode
from repro.xpath.ast import (
    BinaryExpr,
    Expr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    Step,
    StringLiteral,
)
from repro.xpath.axes import resolve_engine
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import is_positional_predicate, operator_name
from repro.xpath.predicates import is_context_free
from repro.xpath.rewrite import collapse_descendant_or_self, symmetry_rewrite

__all__ = ["TagStatistics", "Planner", "QueryPlan", "StepDecision"]


class TagStatistics:
    """The planner's catalogue: what an RDBMS would keep about a corpus.

    ``counts`` maps tag name → element cardinality, ``total_nodes`` is
    the encoded node count (all kinds), ``height`` the tree height.
    ``root_tags`` names the tags a plane root may carry (needed by the
    ``//``-collapse law's leading-pair guard; ``None`` = unknown).
    Build one from a live table (:meth:`from_doc`), from a sharded
    store's persisted manifest statistics (:meth:`from_store` — no
    shard I/O), or from a plain mapping.
    """

    def __init__(
        self,
        counts: Mapping[str, int],
        total_nodes: int,
        height: int,
        root_tags: Optional[FrozenSet[str]] = None,
    ):
        self.counts: Dict[str, int] = dict(counts)
        self.total_nodes = max(1, int(total_nodes))
        self.height = max(1, int(height))
        self.root_tags = root_tags

    @classmethod
    def from_doc(cls, doc) -> "TagStatistics":
        """Statistics of one encoded :class:`DocTable` (O(n) once)."""
        return cls(
            doc.tag_statistics(),
            len(doc),
            doc.height,
            root_tags=frozenset((doc.tag_of(doc.root),)),
        )

    @classmethod
    def from_collection(cls, collection) -> "TagStatistics":
        return cls.from_doc(collection.doc)

    @classmethod
    def from_store(cls, store) -> "TagStatistics":
        """Aggregate statistics of a sharded store, read from its
        manifest (kept exact through ``apply_updates``)."""
        return cls(
            store.tag_statistics(),
            store.total_nodes(),
            store.height(),
            root_tags=frozenset((store.virtual_root_tag,)),
        )

    # ------------------------------------------------------------------
    def count(self, tag: Optional[str]) -> int:
        """Element cardinality of ``tag`` (0 for absent tags)."""
        return self.counts.get(tag or "", 0)

    def selectivity(self, tag: Optional[str]) -> float:
        """Fraction of all nodes a name test on ``tag`` retains."""
        return self.count(tag) / self.total_nodes

    def branching(self) -> float:
        """Estimated branching factor ``b`` with ``b^height ≈ n``."""
        return max(2.0, self.total_nodes ** (1.0 / self.height))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TagStatistics(tags={len(self.counts)}, "
            f"nodes={self.total_nodes}, height={self.height})"
        )


@dataclass(frozen=True)
class StepDecision:
    """The planner's verdict and estimates for one top-level step."""

    index: int
    step: Step
    pushdown: bool
    est_in: float       #: estimated context cardinality
    est_out: float      #: estimated step output cardinality
    cost: float         #: estimated node touches of the chosen variant
    cost_alternative: Optional[float]  #: the rejected variant (if any)
    reason: str = "cost model"  #: "cost model" or "forced"
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class QueryPlan:
    """A costed, executable plan for one query.

    ``path`` is the expression the engines run (rewritten predicates
    re-ordered, symmetry law applied when priced cheaper); ``original``
    is what the user wrote.  ``pushdown_steps`` holds the indices of
    top-level steps whose name test runs below the join — the exact
    value :class:`~repro.xpath.evaluator.Evaluator` accepts as its
    ``pushdown`` argument.  Plans are immutable and picklable, so the
    service ships them to shard workers as-is.
    """

    query: str
    original: Expr
    path: Expr
    engine: str
    skip_mode: SkipMode
    pushdown_steps: frozenset
    rewrites: Tuple[str, ...]
    steps: Tuple[StepDecision, ...]
    estimated_cost: float

    @property
    def rewritten(self) -> bool:
        return self.path is not self.original

    def describe(self) -> str:
        """The multi-line ``explain`` rendering of this plan."""
        lines = [f"XPath: {self.original}"]
        lines.append(f"engine: {self.engine}; scalar skip mode: {self.skip_mode.value}")
        for rewrite in self.rewrites:
            lines.append(f"rewrite: {rewrite}")
        if not self.rewrites:
            lines.append("rewrite: none applicable")
        if not isinstance(self.path, LocationPath):
            lines.append("plan: union of sub-plans (each branch planned alone)")
        for decision in self.steps:
            lines.append(f"step {decision.index + 1}: {decision.step}")
            placement = (
                "PUSHDOWN (fragment scan)" if decision.pushdown else "after the join"
            )
            if decision.cost_alternative is not None:
                lines.append(
                    f"  name test   : {placement} "
                    f"[{decision.reason}; est. {decision.cost:,.0f} vs "
                    f"{decision.cost_alternative:,.0f} node touches]"
                )
            for note in decision.notes:
                lines.append(f"  {note}")
            lines.append(
                f"  cardinality : in ≈ {decision.est_in:,.0f}, "
                f"out ≈ {decision.est_out:,.0f}"
            )
        lines.append(f"est. total cost: ≈ {self.estimated_cost:,.0f} node touches")
        return "\n".join(lines)


class Planner:
    """Plan queries against one statistics catalogue.

    Parameters
    ----------
    statistics:
        The :class:`TagStatistics` of the corpus the plans will run on.
    engine:
        Execution engine the costs are modelled for (the two engines
        price predicate evaluation very differently).
    rewrite:
        Allow the rewrite laws (on by default; the cost model still has
        to price the rewritten shape cheaper for it to apply).
    pushdown:
        ``"auto"`` (the cost model decides per step) or a forced
        ``True``/``False`` for every eligible step — the ``explain``
        CLI's ablation switch; costs are estimated either way.

    The planner is stateless apart from its catalogue — plan objects
    are immutable, so one planner may serve many threads.
    """

    #: Relative cost of one index probe (fragment binary search) vs one
    #: sequential node touch, per engine: the vectorised engine batches
    #: all probes into one ``searchsorted`` call, the scalar engine pays
    #: interpreter dispatch per probe.
    PROBE_WEIGHTS = {"vectorized": 1.0, "scalar": 2.0}
    #: Overhead of one per-candidate predicate sub-evaluation, in
    #: node-touch equivalents (interpreter dispatch, context setup) —
    #: why the scalar engine hates existence rewrites on dense candidate
    #: sets.  The vectorized engine pays it only on the shapes its
    #: column evaluator hands back (positional predicates, the reverse
    #: and sibling axes inside a comparison, node-set = node-set); its
    #: value predicates are a handful of numpy passes over the
    #: candidates and the weight then merely keeps them ranked behind
    #: pure existence tests, as before.
    PREDICATE_EVAL_WEIGHT = 64.0
    #: A rewrite must be priced below ``margin × cost(original)`` to be
    #: applied — decisions near the break-even point stay with the
    #: shape the user wrote.
    REWRITE_MARGIN = 0.7
    #: Ancestor paths share ancestors heavily (Experiment 1 saw ~75 %
    #: sharing); the climb touches this fraction of ``|context| × h``.
    ANCESTOR_SHARING = 0.25
    #: Below this plane size the scalar staircase join runs without
    #: skipping — Algorithm 4's estimate bookkeeping costs more than
    #: the short scans it avoids.
    SMALL_PLANE = 512
    #: Fraction of candidates one predicate is assumed to retain.
    STATIC_PREDICATE_SELECTIVITY = 0.5

    def __init__(
        self,
        statistics: TagStatistics,
        engine: str = "vectorized",
        rewrite: bool = True,
        pushdown: Union[str, bool] = "auto",
    ):
        self.statistics = statistics
        self.engine = resolve_engine(engine)
        self.rewrite = rewrite
        self.pushdown = pushdown
        self.probe_weight = self.PROBE_WEIGHTS[self.engine]

    # ------------------------------------------------------------------
    def plan(
        self, path: Union[str, Expr], context_size: int = 1
    ) -> QueryPlan:
        """Produce a :class:`QueryPlan` for ``path``.

        ``context_size`` seeds the cardinality estimate for relative
        paths (absolute paths anchor at the document node).
        """
        query = path if isinstance(path, str) else str(path)
        original = parse_xpath(path) if isinstance(path, str) else path
        if isinstance(original, BinaryExpr):
            # Top-level unions: plan each branch independently.  Both
            # branches walk the same step-index space inside one
            # evaluator, so per-step pushdown indices would collide —
            # branches are planned with pushdown forced off and the
            # union runs on rewrites alone.
            branch_planner = (
                self
                if self.pushdown is False
                else Planner(
                    self.statistics, self.engine, self.rewrite, pushdown=False
                )
            )
            left = branch_planner.plan(original.left, context_size)
            right = branch_planner.plan(original.right, context_size)
            return QueryPlan(
                query=query,
                original=original,
                path=(
                    original
                    if not (left.rewritten or right.rewritten)
                    else BinaryExpr(original.op, left.path, right.path)
                ),
                engine=self.engine,
                skip_mode=self._skip_mode(),
                pushdown_steps=frozenset(),
                rewrites=left.rewrites + right.rewrites,
                steps=left.steps + right.steps,
                estimated_cost=left.estimated_cost + right.estimated_cost,
            )
        if not isinstance(original, LocationPath):
            return QueryPlan(
                query=query,
                original=original,
                path=original,
                engine=self.engine,
                skip_mode=self._skip_mode(),
                pushdown_steps=frozenset(),
                rewrites=(),
                steps=(),
                estimated_cost=float(self.statistics.total_nodes),
            )

        path_expr, rewrites = self._collapse(original)
        path_expr, symmetry = self._apply_symmetry(path_expr, context_size)
        rewrites += symmetry
        path_expr = self._order_predicates(path_expr)
        decisions = self._decide_steps(path_expr, context_size)
        pushdown = frozenset(d.index for d in decisions if d.pushdown)
        return QueryPlan(
            query=query,
            original=original,
            path=path_expr if rewrites or path_expr != original else original,
            engine=self.engine,
            skip_mode=self._skip_mode(),
            pushdown_steps=pushdown,
            rewrites=tuple(rewrites),
            steps=tuple(decisions),
            estimated_cost=sum(d.cost for d in decisions)
            or float(self.statistics.total_nodes),
        )

    # ------------------------------------------------------------------
    # Skip mode
    # ------------------------------------------------------------------
    def _skip_mode(self) -> SkipMode:
        """Scalar staircase skip mode for this corpus size.

        Algorithm 4 (pre/post estimate) wins on anything sizeable; on a
        tiny plane the whole partition fits in a few cache lines and
        plain scans (Algorithm 2) beat the bookkeeping.
        """
        if self.statistics.total_nodes < self.SMALL_PLANE:
            return SkipMode.NONE
        return SkipMode.ESTIMATE

    # ------------------------------------------------------------------
    # Rewrite decisions
    # ------------------------------------------------------------------
    def _collapse(self, path: LocationPath) -> Tuple[LocationPath, List[str]]:
        """``descendant-or-self::node()/child::t`` → ``descendant::t``.

        Unconditional when the shape is safe (see the law's guards): a
        descendant step is never costlier than the pair it replaces and
        unlocks fragment pushdown for the ``//t`` abbreviation.
        """
        if not self.rewrite:
            return path, []
        collapsed = collapse_descendant_or_self(
            path, self.statistics.root_tags
        )
        if collapsed is path:
            return path, []
        dropped = len(path.steps) - len(collapsed.steps)
        return collapsed, [
            f"//-collapse → {collapsed} ({dropped} descendant-or-self "
            f"step{'s' if dropped > 1 else ''} fused away)"
        ]

    def _apply_symmetry(
        self, path: LocationPath, context_size: int
    ) -> Tuple[LocationPath, List[str]]:
        candidate = symmetry_rewrite(path)
        if candidate is path or candidate == path or not self.rewrite:
            return path, []
        cost_original = self._path_cost(path, context_size)
        cost_rewritten = self._path_cost(candidate, context_size)
        if cost_rewritten < self.REWRITE_MARGIN * cost_original:
            return candidate, [
                f"symmetry [Olteanu et al. 2001] → {candidate} "
                f"(est. {cost_rewritten:,.0f} vs {cost_original:,.0f} touches)"
            ]
        return path, []

    def _path_cost(self, path: LocationPath, context_size: int) -> float:
        """Total estimated cost of a path (used to price rewrites)."""
        return sum(d.cost for d in self._decide_steps(path, context_size))

    # ------------------------------------------------------------------
    # Predicate ordering
    # ------------------------------------------------------------------
    def _order_predicates(self, path: LocationPath) -> LocationPath:
        """Sort each step's predicates cheapest-first.

        Non-positional predicates are pure per-node filters, so they
        commute; a step carrying *any* positional predicate keeps its
        order (positions re-index between predicates).  The classical
        optimal order for commuting filters is ascending
        ``cost / (1 - selectivity)``; every predicate is priced at the
        one :data:`STATIC_PREDICATE_SELECTIVITY`, so the rank is plain
        cost.
        """
        changed = False
        steps = []
        for step in path.steps:
            if len(step.predicates) > 1 and not any(
                is_positional_predicate(p) for p in step.predicates
            ):
                ordered = tuple(
                    sorted(step.predicates, key=self._predicate_rank)
                )
                if ordered != step.predicates:
                    step = Step(step.axis, step.test, ordered)
                    changed = True
            steps.append(step)
        if not changed:
            return path
        return LocationPath(path.absolute, tuple(steps))

    def _predicate_rank(self, predicate: Expr) -> float:
        """Ordering key: context-free predicates first, then by cost."""
        if self.engine == "vectorized" and is_context_free(predicate):
            # Evaluated once per filter, whatever the candidate count
            # (``[7 > 0]``, ``[/site/regions]``): free to run first, and
            # a false one empties the frontier before any real work.
            return 0.0
        return self._predicate_cost(predicate)

    def _predicate_cost(self, predicate: Expr) -> float:
        """Relative evaluation cost of one predicate (ordering key).

        A cheap *and* selective predicate first shrinks the candidate
        set before the expensive ones run; rarity of the tested tag is
        the dominant signal for both.
        """
        stats = self.statistics
        if isinstance(predicate, LocationPath):
            if not predicate.steps:
                return float(stats.total_nodes)
            last = predicate.steps[-1]
            base = (
                float(stats.count(last.test.name))
                if last.test.kind == "name"
                else float(stats.total_nodes)
            )
            return base + len(predicate.steps)
        if isinstance(predicate, FunctionCall):
            inner = sum(self._predicate_cost(a) for a in predicate.args)
            if predicate.name == "not":
                return inner + 1.0
            # Other functions read string values: subtree scans per
            # candidate on the scalar engine, dictionary codes of the
            # text descendants on the vectorized one.
            return inner + self.PREDICATE_EVAL_WEIGHT
        if isinstance(predicate, BinaryExpr):
            left = self._predicate_cost(predicate.left)
            right = self._predicate_cost(predicate.right)
            if predicate.op in ("and", "or", "|"):
                return left + right
            # Comparisons need both sides' values: the scalar engine
            # materialises the strings, the vectorized engine compares
            # dictionary codes (or the per-entry number table).
            return left + right + self.PREDICATE_EVAL_WEIGHT
        if isinstance(predicate, (NumberLiteral, StringLiteral)):
            return 1.0
        return float(stats.total_nodes)  # pragma: no cover - exhaustive

    # ------------------------------------------------------------------
    # Per-step decisions
    # ------------------------------------------------------------------
    def _decide_steps(
        self, path: LocationPath, context_size: int
    ) -> List[StepDecision]:
        stats = self.statistics
        from_document = path.absolute
        size = float(max(1, context_size))
        decisions: List[StepDecision] = []
        for index, step in enumerate(path.steps):
            est_axis = self._axis_estimate(step.axis, size, from_document)
            est_out = self._test_estimate(step, est_axis)
            pushdown = False
            cost_alt: Optional[float] = None
            operator = operator_name(step.axis)
            if "staircase" in operator:
                detail = (
                    f"skip={self._skip_mode().value}"
                    if self.engine == "scalar"
                    else "bulk spans"
                )
                operator = f"{operator} ({detail})"
            notes: List[str] = [f"operator    : {operator}"]
            if self._pushdown_eligible(step, from_document):
                cost_no = self._cost_without_pushdown(
                    step, size, est_axis, from_document
                )
                cost_push = self._cost_with_pushdown(
                    step, size, est_axis, from_document
                )
                if self.pushdown == "auto":
                    pushdown = cost_push < cost_no
                else:
                    pushdown = bool(self.pushdown)
                cost = cost_push if pushdown else cost_no
                cost_alt = cost_no if pushdown else cost_push
                notes.append(
                    f"statistics  : {step.test.name!r} — "
                    f"{stats.count(step.test.name):,} elements, "
                    f"selectivity {stats.selectivity(step.test.name):.4f}"
                )
            else:
                cost = self._cost_without_pushdown(
                    step, size, est_axis, from_document
                )
            for predicate in step.predicates:
                cost += self._predicate_filter_cost(predicate, est_out)
                est_out = max(1.0, est_out * self.STATIC_PREDICATE_SELECTIVITY)
                notes.append(f"predicate   : [{predicate}]")
            decisions.append(
                StepDecision(
                    index=index,
                    step=step,
                    pushdown=pushdown,
                    est_in=size,
                    est_out=est_out,
                    cost=cost,
                    cost_alternative=cost_alt,
                    reason="cost model" if self.pushdown == "auto" else "forced",
                    notes=tuple(notes),
                )
            )
            size = max(1.0, est_out)
            from_document = False
        return decisions

    def _pushdown_eligible(self, step: Step, from_document: bool) -> bool:
        """Shapes the evaluator can execute against a fragment."""
        if step.test.kind != "name":
            return False
        if from_document:
            return step.axis in ("descendant", "descendant-or-self")
        return step.axis in ("descendant", "ancestor")

    # -- cardinality estimates ------------------------------------------
    def _axis_estimate(
        self, axis: str, context_size: float, from_document: bool
    ) -> float:
        """Unfiltered axis-step output estimate (uniform heuristics)."""
        stats = self.statistics
        n = float(stats.total_nodes)
        if from_document:
            # The document node's descendant region is the whole plane;
            # its only child is the root.
            if axis in ("descendant", "descendant-or-self"):
                return n
            if axis == "child":
                return 1.0
            return 0.0
        k = context_size
        if axis in ("descendant", "descendant-or-self"):
            # Pruned staircase subtrees are disjoint: the more context
            # nodes, the smaller each covered subtree.
            return min(n, k * (n / (k + 1.0)))
        if axis in ("ancestor", "ancestor-or-self"):
            return min(n, self.ANCESTOR_SHARING * k * stats.height + k)
        if axis in ("child", "attribute"):
            return k * stats.branching()
        if axis == "parent":
            return min(k, n)
        if axis == "self":
            return k
        if axis in ("following-sibling", "preceding-sibling"):
            return k * stats.branching()
        # following / preceding degenerate to one contiguous region.
        return n

    def _test_estimate(self, step: Step, axis_result: float) -> float:
        """Axis output after the node test (uniform tag distribution)."""
        stats = self.statistics
        test = step.test
        if test.kind == "name":
            if step.axis == "attribute":
                return max(1.0, axis_result * 0.5)
            count = float(stats.count(test.name))
            return min(count, axis_result * stats.selectivity(test.name) + 1.0)
        if test.kind == "node":
            return axis_result
        # *, text(), comment(), processing-instruction(): a kind slice.
        return max(1.0, axis_result * 0.5)

    # -- cost estimates --------------------------------------------------
    def _cost_without_pushdown(
        self, step: Step, context: float, est_axis: float, from_document: bool
    ) -> float:
        """Node touches of axis step + post-hoc name test."""
        n = float(self.statistics.total_nodes)
        if from_document:
            # One column scan produces the region, one filters it.
            return 2.0 * n
        if step.axis in ("ancestor", "ancestor-or-self"):
            climb = self.ANCESTOR_SHARING * context * self.statistics.height
            return context + climb + est_axis
        return context + 2.0 * est_axis

    def _cost_with_pushdown(
        self, step: Step, context: float, est_axis: float, from_document: bool
    ) -> float:
        """Node touches of the fragment (pushed-down) variant."""
        stats = self.statistics
        fragment = float(stats.count(step.test.name))
        if from_document:
            return fragment + self.probe_weight
        coverage = min(1.0, est_axis / float(stats.total_nodes))
        if step.axis == "descendant":
            return context * self.probe_weight + fragment * coverage
        # ancestor: walk the fragment below the context, hopping subtrees.
        return context * self.probe_weight + min(
            fragment, self.ANCESTOR_SHARING * context * stats.height
        )

    def _predicate_filter_cost(self, predicate: Expr, candidates: float) -> float:
        """Cost of filtering ``candidates`` nodes through one predicate."""
        stats = self.statistics
        n = float(stats.total_nodes)
        if self.engine == "vectorized":
            if is_context_free(predicate):
                return 1.0  # one evaluation for the whole frontier
            if self._bulk_filterable(predicate):
                # One reverse-path semi-join: universe scan + membership.
                return n + self._predicate_cost(predicate)
        # Linear in the candidates: per-candidate sub-evaluation on the
        # scalar engine (interpreter dispatch dominates), column kernels
        # on the vectorized one — cheaper by a constant the model does
        # not separate, since estimates only ever rank plans of one
        # engine against each other.
        return candidates * self.PREDICATE_EVAL_WEIGHT

    def _bulk_filterable(self, predicate: Expr) -> bool:
        """Pure existence shapes: the vectorised engine answers these
        with a reverse-path semi-join over the plane rather than with
        per-candidate (or per-candidate-column) work."""
        if isinstance(predicate, LocationPath):
            return bool(predicate.steps) and not any(
                s.predicates for s in predicate.steps
            )
        if (
            isinstance(predicate, FunctionCall)
            and predicate.name == "not"
            and len(predicate.args) == 1
        ):
            return self._bulk_filterable(predicate.args[0])
        if isinstance(predicate, BinaryExpr) and predicate.op in ("and", "or"):
            return self._bulk_filterable(predicate.left) and self._bulk_filterable(
                predicate.right
            )
        return False
