"""Observation records: what one observed group drive measured.

These are the values that travel from shard workers back to the
service process (``QueryService.analyze``, ``explain --analyze``), so
they are deliberately flat — NamedTuples of
primitives (strings, ints, nested tuples) that pickle cheaply inline
in the fabric's result messages.  Both are registered cross-process
payload types: the invariant linter's pickle check (``tools/analysis``)
round-trips them.

A **step signature** names one pipeline position independently of the
shard, the epoch, and the pushdown placement, so ``explain --analyze``
can sum one operator's observations across shards:

* ``("step", axis, test)`` — one :class:`StaircaseStep` (the test in
  its ``str`` spelling, e.g. ``("step", "descendant", "item")``);
* ``("pred", axis, predicate)`` — one :class:`PredicateFilter` (one
  per predicate), keyed by the predicate's ``str`` form;
* ``("pos", axis, test)`` — one :class:`PositionalSelect`.

The pipeline's observed drive is the one place that builds them
(``pipeline._operator_signature``, from :func:`step_signature` and
:func:`predicate_signature`).
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

__all__ = [
    "DriveObservation",
    "PipelineObserver",
    "StepObservation",
    "predicate_signature",
    "step_signature",
]


def step_signature(axis: str, test) -> Tuple[str, str, str]:
    """Signature of one top-level location step (axis + node test)."""
    return ("step", axis, str(test))


def predicate_signature(axis: str, predicate) -> Tuple[str, str, str]:
    """Signature of one predicate, under its step's axis."""
    return ("pred", axis, str(predicate))


class StepObservation(NamedTuple):
    """One operator's measured cardinalities inside one drive.

    ``n_in``/``n_out`` are the context sizes entering and leaving the
    operator (for predicates: the candidate set before and after this
    one predicate), ``ns`` its wall time on the monotonic clock and
    ``touched`` the plane or fragment rows its kernel read (the
    runtime's ``JoinStatistics.nodes_touched`` delta; a binary-search
    probe is a skip, not a read).
    """

    signature: Tuple[str, ...]
    n_in: int
    n_out: int
    ns: int
    touched: int = 0

    @property
    def ratio(self) -> float:
        """Output per input node — the learned selectivity/fan-out."""
        return self.n_out / max(1, self.n_in)


class DriveObservation(NamedTuple):
    """One observed group drive: per-operator steps plus shard totals.

    One per observed (shard, engine) group — a batch's plans share one
    trie, so each distinct operator prefix appears once in ``steps``
    however many queries ran through it.  ``scanned``/``skipped`` are
    the scalar staircase's node-access deltas for the drive (``explain
    --analyze`` prints them; the e2e ledger's ``core.skipped_share`` is
    their ratio).
    """

    shard_id: int
    engine: str
    elapsed_ns: int
    steps: Tuple[StepObservation, ...] = ()
    scanned: int = 0
    skipped: int = 0


class PipelineObserver:
    """What the driver hands its measurements to during one drive.

    An argument of :func:`~repro.xpath.pipeline.drive_group`, never
    state on the runtime: the driver records each top-level operator it
    actually dispatches (a prefix-cache hit did no work and records
    nothing; nested per-candidate drives cannot see the observer) and
    closes with the drive's totals.  Unobserved drives pay one ``None``
    test per operator.
    """

    __slots__ = ("steps", "elapsed_ns", "scanned", "skipped")

    def __init__(self) -> None:
        self.steps: List[StepObservation] = []
        self.elapsed_ns = self.scanned = self.skipped = 0

    def record(
        self, signature: Tuple[str, ...], n_in: int, n_out: int, ns: int,
        touched: int = 0,
    ) -> None:
        self.steps.append(
            StepObservation(signature, int(n_in), int(n_out), int(ns), int(touched))
        )

    def observation(self, shard_id: int, engine: str) -> DriveObservation:
        """The closed drive as the flat record workers ship home."""
        return DriveObservation(
            shard_id, engine, self.elapsed_ns, tuple(self.steps),
            self.scanned, self.skipped,
        )
