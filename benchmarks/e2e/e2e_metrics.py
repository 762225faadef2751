"""Metric arithmetic: percentiles, chunk medians, spans and self time,
A/A agreement.

No I/O beyond reading ``BENCHMARK.json`` and no dependency on the
program under test, so the unit tests cover this file without a server.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
MAX_END_TO_END = 16
MAX_PER_LAYER = 128

#: A tail percentile is *supported* when this many samples lie beyond it.
TAIL_SAMPLES = 10


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by linear interpolation between ranks.

    An empty sample has no percentile: a metric that cannot be measured
    is left out, never reported as 0.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_supported(count: int, q: float) -> bool:
    """Do at least :data:`TAIL_SAMPLES` of ``count`` samples lie beyond
    the ``q``-th percentile?  A p95 needs 200 samples, a p99 1000."""
    return count * (100.0 - q) / 100.0 >= TAIL_SAMPLES


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------
def chunks(samples: Sequence, period: int, min_seconds: float) -> List[list]:
    """Cut one client's samples (in send order) into consecutive chunks
    of whole ``period``s that each last at least ``min_seconds``.

    Every period of a sequence holds the same requests, so every chunk
    is the same work and a *median over chunks* is a fair summary.  That
    median is what keeps a run steady on a host that slows down by a
    fifth or more for seconds at a time: count ÷ window and the plain
    median over requests both take the slow stretch in, the median over
    chunks leaves it out as long as it covers less than half the window.
    The unfinished tail is dropped; a window too short for one chunk is
    one chunk.
    """
    out: List[list] = []
    start = 0
    for end in range(period, len(samples) + 1, period):
        if samples[end - 1].done_at - samples[start].sent_at >= min_seconds:
            out.append(list(samples[start:end]))
            start = end
    return out or [list(samples)]


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory span recorder for the single-threaded traced replay.

    A span is ``{trace, span, parent, name, start_ns, end_ns, attrs}``.
    Spans nest by the ``with`` structure of the harness code that calls
    into each layer; nothing inside the program is instrumented.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        self._ids = itertools.count(1)
        self._trace = 0

    def new_trace(self) -> int:
        self._trace += 1
        return self._trace

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Optional[dict]]:
        if not self.enabled:
            yield None
            return
        record = {
            "trace": self._trace,
            "span": next(self._ids),
            "parent": self._stack[-1]["span"] if self._stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
            "end_ns": 0,
            "attrs": attrs,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(record)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for record in sorted(self.spans, key=lambda r: r["span"]):
                f.write(json.dumps(record) + "\n")


def self_times(spans: Iterable[Mapping]) -> Dict[int, int]:
    """Span id → self time in ns: its duration minus the part of its
    interval that child spans cover.  Overlapping children are merged
    first, so an interval two children share is subtracted once."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    by_id = {}
    for record in spans:
        by_id[record["span"]] = record
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start_ns"], record["end_ns"])
            )
    out: Dict[int, int] = {}
    for span_id, record in by_id.items():
        start, end = record["start_ns"], record["end_ns"]
        covered = 0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out[span_id] = (end - start) - covered
    return out


def time_by_name(spans: Sequence[Mapping], own: bool = True) -> Dict[str, int]:
    """Total ns per span name — self time, or full duration with
    ``own=False``."""
    own_ns = self_times(spans) if own else None
    totals: Dict[str, int] = {}
    for record in spans:
        ns = (
            own_ns[record["span"]]
            if own_ns is not None
            else record["end_ns"] - record["start_ns"]
        )
        totals[record["name"]] = totals.get(record["name"], 0) + ns
    return totals


# ----------------------------------------------------------------------
# The contract file
# ----------------------------------------------------------------------
def load_contract(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def validate_contract(contract: Mapping) -> List[str]:
    """Name, unit and count rules a metric list must meet; returns the
    violations (empty when the contract is valid)."""
    problems: List[str] = []
    seen = set()
    end_to_end = contract.get("end_to_end", [])
    per_layer = contract.get("per_layer", [])
    if not 1 <= len(end_to_end) <= MAX_END_TO_END:
        problems.append(f"{len(end_to_end)} end-to-end metrics (1..{MAX_END_TO_END})")
    if not 1 <= len(per_layer) <= MAX_PER_LAYER:
        problems.append(f"{len(per_layer)} per-layer metrics (1..{MAX_PER_LAYER})")
    for entry in itertools.chain(contract.get("workloads", []), end_to_end, per_layer):
        name = entry.get("name", "")
        if not NAME_PATTERN.fullmatch(name):
            problems.append(f"invalid name {name!r}")
        if name in seen:
            problems.append(f"name {name!r} used twice")
        seen.add(name)
    for entry in end_to_end:
        if not 0.0 < entry.get("bound", 0.0) <= 0.25:
            problems.append(f"{entry.get('name')}: bound must be in (0, 0.25]")
    for entry in itertools.chain(end_to_end, per_layer):
        if entry.get("better") not in ("lower", "higher"):
            problems.append(f"{entry.get('name')}: better must be lower|higher")
        if not re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry.get("unit", "")):
            problems.append(f"{entry.get('name')}: invalid unit")
    return problems


# ----------------------------------------------------------------------
# A/A agreement
# ----------------------------------------------------------------------
def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` is ``second`` worse (negative: better)."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def agreement(
    runs: Sequence[Mapping[str, float]], end_to_end: Sequence[Mapping]
) -> List[dict]:
    """Compare two runs of the same code, metric by metric.

    Neither run is the baseline, so a metric misses when *either*
    direction of the difference exceeds its bound.  A spec without a
    bound (a layer metric) is compared but cannot miss.
    """
    first, second = runs
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if not first.get(name) and not second.get(name):
            continue  # absent, or 0 on both sides: not applicable to this workload
        difference = max(
            worsening(first[name], second[name], spec["better"]),
            worsening(second[name], first[name], spec["better"]),
        )
        rows.append(
            {
                "metric": name,
                "first": first[name],
                "second": second[name],
                "difference": difference,
                "bound": spec.get("bound"),
                "ok": "bound" not in spec or difference <= spec["bound"],
            }
        )
    return rows
