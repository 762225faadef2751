"""REP004's runtime half: round-trip real cross-process payloads.

The AST rule can only catch an unpicklable *annotation*; what actually
breaks a fabric worker is an unpicklable *value* — a lambda default, a
lock smuggled into a field, a closure hiding inside a nested tuple.  So
this module builds one representative instance of every type named in
:data:`tools.analysis.reprolint.PAYLOAD_REGISTRY`, pushes each through
``pickle.dumps``/``loads`` at the highest protocol, and verifies the
copy survives intact.

Two invariants are enforced together:

1. every registered type round-trips (a new unpicklable field fails
   here before it fails inside a worker at 2 a.m.), and
2. every registered type has a representative below (registry drift —
   registering a class nobody builds a witness for — fails loudly).

Run via ``python -m tools.analysis --pickle-check`` (the CI ``analysis``
job does) or call :func:`check_payloads` directly.
"""

from __future__ import annotations

import pickle
from typing import Dict, List, Tuple

import numpy as np

from tools.analysis.reprolint import PAYLOAD_REGISTRY

__all__ = ["PickleCheckError", "build_representatives", "check_payloads"]


class PickleCheckError(AssertionError):
    """A registered cross-process payload failed its round-trip."""


def build_representatives() -> List[object]:
    """One real instance per registered payload type.

    The query shapes are chosen so compilation emits every operator
    class: ``//a[b]/b[2]`` produces :class:`ContextInit`,
    :class:`StaircaseStep`, :class:`PredicateFilter` and
    :class:`PositionalSelect`; the union exercises
    :class:`DocOrderDedup`; the three result modes cover the terminals.
    """
    from repro.service.executor import ShardResult, ShardTask
    from repro.service.updates import UpdateOp
    from repro.xpath.observation import DriveObservation, StepObservation
    from repro.xpath.pipeline import compile_plan
    from repro.xpath.planner import Planner

    planner = Planner(frozenset(("collection",)))
    materialize = compile_plan(planner.plan("//a[b]/b[2]"), mode="materialize")
    count = compile_plan(planner.plan("//a | //b"), mode="count")
    exists = compile_plan(planner.plan("//a"), mode="exists")

    instances: List[object] = [
        planner.plan("//a/b"),  # QueryPlan
        materialize,
        count,
        exists,
        count.merge,  # DocOrderDedup
        ShardTask(
            index=0,
            shard_id=2,
            plan=materialize,
            engine="vectorized",
            document=None,
            mode="materialize",
        ),
        ShardResult(index=0, shard_id=2, mode="count", payload={"doc-a": 3}),
        UpdateOp(op="delete", document="doc-a", pre=4),
        # Observations ride the fabric's result messages.
        StepObservation(("step", "descendant", "a"), n_in=4, n_out=9, ns=1200),
        DriveObservation(
            shard_id=2,
            engine="scalar",
            elapsed_ns=52_000,
            steps=(
                StepObservation(("pred", "child", "b"), 9, 3, 400),
            ),
            scanned=40,
            skipped=12,
        ),
    ]
    for plan in (materialize, count, exists):
        instances.append(plan.terminal)
        for branch in plan.branches:
            instances.extend(branch)
    return instances


def _round_trip(instance: object) -> object:
    blob = pickle.dumps(instance, protocol=pickle.HIGHEST_PROTOCOL)
    return pickle.loads(blob)


def check_payloads() -> List[str]:
    """Round-trip every representative; describe each verified type.

    Raises :exc:`PickleCheckError` on the first payload that fails to
    pickle, fails to unpickle, or comes back unequal — and on any
    registered type with no representative instance at all.
    """
    instances = build_representatives()
    seen: Dict[Tuple[str, str], int] = {}
    for instance in instances:
        cls = type(instance)
        try:
            restored = _round_trip(instance)
        except Exception as error:  # repro: allow[REP007] - any pickle failure is the finding itself
            raise PickleCheckError(
                f"{cls.__module__}.{cls.__qualname__} does not survive a "
                f"pickle round-trip: {error!r}"
            ) from error
        if type(restored) is not cls:
            raise PickleCheckError(
                f"{cls.__qualname__} unpickled as {type(restored).__qualname__}"
            )
        if restored != instance:
            raise PickleCheckError(
                f"{cls.__module__}.{cls.__qualname__} round-trip is not "
                f"equal to the original: {restored!r} != {instance!r}"
            )
        seen[(cls.__module__, cls.__qualname__)] = (
            seen.get((cls.__module__, cls.__qualname__), 0) + 1
        )

    # ndarray payloads defeat __eq__; verify one explicitly.
    from repro.service.executor import ShardResult

    ranked = ShardResult(
        index=1,
        shard_id=0,
        mode="materialize",
        payload={"doc-a": np.array([1, 4, 9], dtype=np.int64)},
    )
    restored = _round_trip(ranked)
    if not np.array_equal(restored.payload["doc-a"], ranked.payload["doc-a"]):
        raise PickleCheckError("ShardResult rank array corrupted by round-trip")
    if restored.payload["doc-a"].dtype != np.int64:
        raise PickleCheckError("ShardResult rank array lost its int64 dtype")

    missing = [
        f"{module}.{name}"
        for module, names in sorted(PAYLOAD_REGISTRY.items())
        for name in names
        if (module, name) not in seen
    ]
    if missing:
        raise PickleCheckError(
            "registered payload types with no representative instance "
            f"(add one to build_representatives): {', '.join(missing)}"
        )
    return [
        f"{module}.{name}: {count} instance{'s' if count != 1 else ''} verified"
        for (module, name), count in sorted(seen.items())
    ]
