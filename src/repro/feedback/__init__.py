"""Adaptive optimization loop: runtime feedback into the planner.

The paper's cost argument (Section 4.4) leaves the optimizer pricing
from static statistics; this package closes the loop the ROADMAP names
— observe real per-operator cardinalities and wall time on sampled
drives (:mod:`repro.feedback.records`), EWMA-aggregate them into an
epoch-versioned :class:`~repro.feedback.store.FeedbackStore` persisted
with the sharded store's manifest, and feed two consumers: the
cost-based planner's selectivity blend and heat-driven shard
rebalancing at commit time.  What the loop costs and buys on the served
path reads from ``benchmarks/e2e``: ``service.feedback_generation_delta``
and ``service.backend_p95_ms`` (the sampled batches) on every workload.
"""

from repro.feedback.records import (
    DriveObservation,
    PipelineObserver,
    StepObservation,
    predicate_signature,
    step_signature,
)
from repro.feedback.store import FeedbackStore

__all__ = [
    "DriveObservation",
    "FeedbackStore",
    "PipelineObserver",
    "StepObservation",
    "predicate_signature",
    "step_signature",
]
