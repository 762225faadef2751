"""Unit tests of the e2e benchmark harness (no server, a few seconds).

Collected by the tier-1 command from the repository root; the harness
modules are siblings of this file, which pytest's rootdir-relative
import puts on ``sys.path``.
"""

import json
import os
import statistics
import subprocess
import sys

import pytest

import e2e_metrics as metrics
import e2e_runner as runner
from e2e_live import Sample
from e2e_oracle import Answer, Oracle, digest_ranks
from e2e_replay import TRACED_METRICS
from e2e_workloads import (
    BLOCK,
    MODES,
    UPDATE_STEPS,
    WORKLOADS,
    Request,
    PoolQuery,
    UpdateTarget,
    client_sequence,
    update_request,
    warmup_requests,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ----------------------------------------------------------------------
# Percentiles and sample counts
# ----------------------------------------------------------------------
def test_percentile_interpolates_between_ranks():
    samples = [40.0, 10.0, 30.0, 20.0]
    assert metrics.percentile(samples, 0) == 10.0
    assert metrics.percentile(samples, 50) == 25.0
    assert metrics.percentile(samples, 100) == 40.0
    assert metrics.percentile([7.0], 95) == 7.0
    assert metrics.percentile(list(range(101)), 95) == 95.0


def test_percentile_of_nothing_is_an_error_not_zero():
    with pytest.raises(ValueError):
        metrics.percentile([], 50)
    with pytest.raises(ValueError):
        metrics.percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_it():
    assert not metrics.tail_supported(199, 95)
    assert metrics.tail_supported(200, 95)
    assert not metrics.tail_supported(999, 99)
    assert metrics.tail_supported(1000, 99)
    assert metrics.tail_supported(20, 50)


# ----------------------------------------------------------------------
# Chunks
# ----------------------------------------------------------------------
def _read(sent_at, latency=0.02, ok=True, cached=False):
    return Sample("read", sent_at, sent_at + latency, 200 if ok else 503, ok, 900, 8.0, cached)


def test_chunks_hold_whole_periods_and_last_at_least_the_minimum():
    stream = [_read(i * 0.025) for i in range(100)]  # 40 requests a second
    cut = metrics.chunks(stream, period=6, min_seconds=1.0)
    # 42 requests are the first multiple of six to span a second.
    assert [len(c) for c in cut] == [42, 42]  # the unfinished tail of 16 is dropped
    assert cut[0][0] is stream[0] and cut[1][0] is stream[42]
    for chunk in cut:
        assert chunk[-1].done_at - chunk[0].sent_at >= 1.0


def test_a_window_too_short_for_one_chunk_is_one_chunk():
    stream = [_read(i * 0.025) for i in range(10)]
    assert metrics.chunks(stream, period=6, min_seconds=1.0) == [stream]


def test_chunk_median_leaves_a_slow_stretch_out():
    # Three seconds at 40 requests a second, then 1.5 s at half speed, then
    # three more seconds: count / window takes the stall in, the median
    # over chunks does not.
    stream, clock = [], 0.0
    for gap in [0.025] * 120 + [0.05] * 30 + [0.025] * 120:
        stream.append(_read(clock))
        clock += gap
    rates = [
        len(c) / (c[-1].done_at - c[0].sent_at)
        for c in metrics.chunks(stream, period=6, min_seconds=1.0)
    ]
    assert len(stream) / clock < 37.0
    assert statistics.median(rates) == pytest.approx(42 / (41 * 0.025 + 0.02))


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def _span(span, parent, name, start, end):
    return {"trace": 1, "span": span, "parent": parent, "name": name,
            "start_ns": start, "end_ns": end, "attrs": {}}


def test_self_time_subtracts_nested_children_once_per_level():
    spans = [
        _span(1, None, "request", 0, 100),
        _span(2, 1, "execute", 10, 90),
        _span(3, 2, "kernel", 20, 50),
    ]
    own = metrics.self_times(spans)
    assert own == {1: 20, 2: 50, 3: 30}
    assert sum(own.values()) == 100  # self times tile the root exactly


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(1, None, "request", 0, 100),
        _span(2, 1, "a", 10, 60),
        _span(3, 1, "b", 40, 80),  # overlaps a over [40, 60)
        _span(4, 1, "c", 90, 130),  # runs past its parent's end
    ]
    assert metrics.self_times(spans)[1] == 100 - 70 - 10


def test_tracer_records_the_with_structure():
    tracer = metrics.Tracer()
    tracer.new_trace()
    with tracer.span("request", index=0):
        with tracer.span("decode"):
            pass
        with tracer.span("execute"):
            with tracer.span("kernel"):
                pass
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["request"]["parent"] is None
    assert by_name["decode"]["parent"] == by_name["request"]["span"]
    assert by_name["kernel"]["parent"] == by_name["execute"]["span"]
    assert {s["trace"] for s in tracer.spans} == {1}
    assert set(tracer.spans[0]) == {
        "trace", "span", "parent", "name", "start_ns", "end_ns", "attrs"
    }
    off = metrics.Tracer(enabled=False)
    with off.span("request") as record:
        assert record is None
    assert off.spans == []


# ----------------------------------------------------------------------
# Seeded sequences
# ----------------------------------------------------------------------
TARGET = UpdateTarget("xmark-00", 42)


def _bodies(name, seed, client=0):
    return [r.body for r in client_sequence(WORKLOADS[name], seed, client, 2, TARGET)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_sequence_other_seed_other_sequence(name):
    assert _bodies(name, 11) == _bodies(name, 11)
    assert _bodies(name, 11) != _bodies(name, 12)
    assert _bodies(name, 11, client=0) != _bodies(name, 11, client=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_draws_from_the_same_pool(name):
    workload = WORKLOADS[name]
    pool = {entry.canonical for entry in workload.pool}
    for seed in (11, 12):
        sequence = client_sequence(workload, seed, 0, 2, TARGET)
        assert {c.canonical for r in sequence for c in r.checks} == pool
    asked = {c.canonical for r in warmup_requests(workload) for c in r.checks}
    assert asked == pool


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_period_of_a_sequence_holds_the_same_work(name):
    workload = WORKLOADS[name]
    sequence = client_sequence(workload, 5, 1, 2, TARGET)
    assert len(sequence) % workload.period == 0  # wraps cleanly

    def work(request: Request):
        if request.kind == "update":
            return request.update[0]
        return tuple((c.canonical, c.mode) for c in request.checks)

    periods = [
        [work(r) for r in sequence[start : start + workload.period]]
        for start in range(0, len(sequence), workload.period)
    ]
    assert all(period == periods[0] for period in periods)


def test_mixed_update_is_ninety_ten_and_clients_commit_apart():
    workload = WORKLOADS["mixed_update"]
    assert workload.period == BLOCK * len(UPDATE_STEPS)  # one whole update cycle
    slots = []
    for client in range(2):
        sequence = client_sequence(workload, 5, client, 2, TARGET)
        kinds = [r.kind for r in sequence]
        assert kinds.count("update") * BLOCK == len(kinds)
        slots.append(kinds.index("update"))
        assert {c.mode for r in sequence for c in r.checks} == set(MODES)
        asked = {c.canonical for r in sequence[: workload.period] for c in r.checks}
        assert asked == {entry.canonical for entry in workload.pool}
    assert abs(slots[0] - slots[1]) == BLOCK // 2


def test_nonce_never_repeats_and_never_changes_the_canonical_query():
    workload = WORKLOADS["value_filter"]
    sent = [
        c.query
        for client in range(2)
        for r in client_sequence(workload, 3, client, 2)
        for c in r.checks
    ] + [c.query for r in warmup_requests(workload) for c in r.checks]
    assert len(sent) == len(set(sent))
    entry = PoolQuery("//a[b = 1]", "//a[b = 1][{k} > 0]")
    assert entry.instance(7) == "//a[b = 1][7 > 0]"
    with pytest.raises(ValueError):
        entry.instance(0)  # [0 > 0] would empty the answer


# ----------------------------------------------------------------------
# The update cycle
# ----------------------------------------------------------------------
def test_update_cycle_returns_the_store_to_its_baseline(tmp_path):
    from repro.harness.workloads import get_forest
    from repro.service import QueryService, ShardedStore, parse_ops

    forest = get_forest(2, 0.05, seed=7)
    store = ShardedStore.build(str(tmp_path / "store"), forest, shards=2, compression="packed")
    with QueryService(store, backend="serial") as service:
        document = store.document_names()[0]
        dates = service.execute("//bidder/date", use_cache=False).per_document[document]
        target = UpdateTarget(document, int(dates[0]))
        bidders = service.execute("//bidder", use_cache=False)
        baseline = (store.total_nodes(), store.document_names())
        for step in range(2 * len(UPDATE_STEPS)):
            request = update_request(0, step, target)
            summary = service.apply_updates(parse_ops(json.loads(request.body)["ops"]))
            assert summary["applied"] == 1
            kind, name, text = request.update
            if kind == "replace":
                # Equal size: nothing moved, and the new text is where the old was.
                assert store.total_nodes() == baseline[0]
                found = service.execute(
                    f'//bidder/date[. = "{text}"]', document=document, use_cache=False
                )
                assert [int(r) for r in found.per_document[document]] == [target.rank]
            elif kind == "add":
                assert name in store.document_names()
                assert store.total_nodes() > baseline[0]
            if (step + 1) % len(UPDATE_STEPS) == 0:
                assert (store.total_nodes(), store.document_names()) == baseline
        after = service.execute("//bidder", use_cache=False)
        assert digest_ranks(after.per_document, baseline[1]) == digest_ranks(
            bidders.per_document, baseline[1]
        )


# ----------------------------------------------------------------------
# The oracle's checks
# ----------------------------------------------------------------------
def test_oracle_check_accepts_the_answer_and_rejects_near_misses():
    names = ["d0", "d1"]
    ranks = {"d0": [1, 5, 9], "d1": [2]}
    oracle = Oracle(names, {"//x": Answer(4, {"d0": 3, "d1": 1}, digest_ranks(ranks, names))})
    good = {"query": "//x[1 > 0]", "mode": "materialize", "total": 4, "per_document": ranks}
    assert oracle.check(good, "//x[1 > 0]", "materialize", "//x")
    assert not oracle.check(dict(good, total=5), "//x[1 > 0]", "materialize", "//x")
    moved = dict(good, per_document={"d0": [1, 5, 8], "d1": [2]})
    assert not oracle.check(moved, "//x[1 > 0]", "materialize", "//x")
    assert not oracle.check(good, "//y", "materialize", "//x")  # echo mismatch
    # A private bench document adds to the total but is not compared.
    extra = dict(good, total=5, per_document=dict(ranks, **{"bench-c0-0": [0]}))
    assert oracle.check(extra, "//x[1 > 0]", "materialize", "//x")
    count = {"query": "//x", "mode": "count", "total": 4, "per_document": {"d0": 3, "d1": 1}}
    assert oracle.check(count, "//x", "count")
    assert not oracle.check(dict(count, per_document={"d0": 2, "d1": 2}), "//x", "count")
    exists = {"query": "//x", "mode": "exists", "total": 1, "exists": True}
    assert oracle.check(exists, "//x", "exists")
    assert not oracle.check(dict(exists, exists=False, total=0), "//x", "exists")


# ----------------------------------------------------------------------
# The contract file and the metric names
# ----------------------------------------------------------------------
def _synthetic_record(workload, problems=()):
    """Client 0: 300 reads at 40 a second, every third from the cache.
    Client 1: eight updates and one shed read."""
    reads = [_read(i * 0.025, cached=i % 3 == 0) for i in range(300)]
    updates = [Sample("update", 1.0 + i, 1.04 + i, 200, True, 50, None, None) for i in range(8)]
    shed = [Sample("read", 9.5, 9.52, 503, False, 30, None, None)]
    stats = {
        "server": {
            "status": {"200": 0}, "shed": {"queue_full": 0},
            "coalescer": {"batches": 0, "queries": 0, "fallbacks": 0},
            "latency": {workload.endpoint: {"p50_ms": 8.192}},
        },
        "service": {
            "epoch": 1, "plan": {"hits": 0, "misses": 0},
            "feedback": {"generation": 0},
        },
    }
    after = json.loads(json.dumps(stats))
    after["server"]["status"] = {"200": 308, "503": 1}
    after["server"]["shed"]["queue_full"] = 1
    after["server"]["coalescer"].update(batches=150, queries=300)
    after["service"]["plan"].update(hits=90, misses=10)
    after["service"]["epoch"] = 9
    window = {"samples": [reads, updates + shed], "started": 0.0, "ended": 10.0}
    return runner.summarise(
        workload, 10.0, window,
        {"stats": stats, "cpu_s": 1.0, "harness_cpu_s": 0.5},
        {"stats": after, "cpu_s": 4.0, "harness_cpu_s": 1.5},
        [1.0, 3.0, 2.0], (120.0, 7.5), 10.3, (1.1, 0.9), list(problems),
    )


def test_contract_is_valid_and_names_exactly_what_the_harness_reports():
    contract = metrics.load_contract(ROOT)
    assert metrics.validate_contract(contract) == []
    assert [w["name"] for w in contract["workloads"]] == list(WORKLOADS)
    assert contract["paths"] == ["benchmarks/e2e"]
    record = _synthetic_record(WORKLOADS["value_filter"])
    assert {m["name"] for m in contract["end_to_end"]} == set(record["end_to_end"])
    assert {m["name"] for m in contract["per_layer"]} == set(record["per_layer"]) | set(
        TRACED_METRICS
    )
    # ISSUE 11's bounds; a metric that cannot hold its bound is demoted
    # to a layer metric, never given a wider one.  ``setup_s`` cannot be
    # demoted (the contract requires it) and cannot hold 0.15 on a shared
    # host (README, "Five set-ups"), so it alone has the contract's widest.
    assert {m["name"]: m["bound"] for m in contract["end_to_end"]} == {
        "setup_s": 0.25,
        "server_peak_rss_mb": 0.05,
        "store_bytes_per_node": 0.05,
    }


def test_every_layer_metric_names_what_it_should_move():
    contract = metrics.load_contract(ROOT)
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "layer_moves.json")) as f:
        moves = json.load(f)
    assert list(moves) == [m["name"] for m in contract["per_layer"]]
    # The client-observed times were end-to-end metrics until they missed
    # their bound; the layers below them still aim at them.
    aims = {m["name"] for m in contract["end_to_end"]} | {
        "client.read_p50_ms", "client.read_rps", "client.update_p50_ms"
    }
    workloads = {w["name"] for w in contract["workloads"]} | {"*"}
    for name, targets in moves.items():  # an empty list: a diagnostic, moves nothing
        for metric, workload in targets:
            assert metric in aims and metric != name and workload in workloads


def test_summary_arithmetic_on_a_synthetic_window():
    record = _synthetic_record(WORKLOADS["value_filter"])
    assert record["attempted"] == 309 and record["failed"] == 1
    end_to_end = record["end_to_end"]
    assert end_to_end["setup_s"] == 2.0  # median of the set-ups
    assert end_to_end["server_peak_rss_mb"] == 120.0
    assert record["samples"]["chunks"] == 7
    assert record["samples"]["read_p95_supported"]
    assert not record["samples"]["update_p95_supported"]
    layer = record["per_layer"]
    # Chunks of 42 requests (seven passes over the pool of six).
    assert layer["client.read_rps"] == pytest.approx(42 / (41 * 0.025 + 0.02))
    assert layer["client.read_p50_ms"] == pytest.approx(20.0)
    assert layer["client.update_p50_ms"] == pytest.approx(40.0)
    assert layer["server.window_rss_growth_mb"] == 7.5
    assert layer["client.cpu_share"] == pytest.approx(0.1)
    assert not record["generator_bound"]
    assert layer["server.coalesce_mean_batch"] == pytest.approx(2.0)
    assert layer["server.status_5xx"] == 1 and layer["server.shed_total"] == 1
    assert layer["service.result_cache_hit_ratio"] == pytest.approx(1 / 3)
    assert layer["service.plan_cache_hit_ratio"] == pytest.approx(0.9)
    assert layer["service.epoch_delta"] == 8
    line = json.loads(runner.contract_line(dict(record, correct=False), metrics.load_contract(ROOT), False))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["setup_s"] == {"value": 2.0, "unit": "s"}


def test_a_window_without_one_good_read_is_refused_not_reported():
    snapshot = {"stats": None, "cpu_s": 0.0, "harness_cpu_s": 0.0}
    window = {"samples": [[_read(0.0, ok=False)]], "started": 0.0, "ended": 1.0}
    with pytest.raises(runner.Refused):
        runner.summarise(
            WORKLOADS["value_filter"], 1.0, window, snapshot, snapshot,
            [1.0], (1.0, 0.0), 10.0, (1.0, 0.0), [],
        )


def test_a_durability_problem_fails_every_request_of_the_workload():
    record = _synthetic_record(WORKLOADS["mixed_update"], problems=["epoch 7 != 1 + 8"])
    assert record["failed"] == record["attempted"] == 309
    assert record["per_layer"]["client.failed_share"] == 1.0


def test_validate_contract_reports_bad_names_bounds_and_counts():
    bad = {
        "workloads": [{"name": "ok"}, {"name": "ok"}],
        "end_to_end": [
            {"name": "has space", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "too_wide", "unit": "ms", "better": "lower", "bound": 0.5},
        ],
        "per_layer": [
            {"name": f"m{i}", "unit": "count", "better": "sideways"} for i in range(129)
        ],
    }
    problems = "\n".join(metrics.validate_contract(bad))
    assert "invalid name 'has space'" in problems
    assert "used twice" in problems
    assert "too_wide: bound" in problems
    assert "129 per-layer metrics" in problems
    assert "better must be" in problems
    assert "17 end-to-end" in "\n".join(
        metrics.validate_contract(
            {"end_to_end": [{"name": f"e{i}", "unit": "s", "better": "lower", "bound": 0.1}
                            for i in range(17)],
             "per_layer": [{"name": "x", "unit": "s", "better": "lower"}]}
        )
    )


# ----------------------------------------------------------------------
# A/A agreement
# ----------------------------------------------------------------------
def test_agreement_is_symmetric_and_respects_direction():
    specs = [
        {"name": "read_p50_ms", "better": "lower", "bound": 0.10},
        {"name": "read_rps", "better": "higher", "bound": 0.10},
    ]
    rows = metrics.agreement(
        [{"read_p50_ms": 10.0, "read_rps": 100.0}, {"read_p50_ms": 10.5, "read_rps": 85.0}],
        specs,
    )
    assert [r["ok"] for r in rows] == [True, False]
    flipped = metrics.agreement(
        [{"read_p50_ms": 10.5, "read_rps": 85.0}, {"read_p50_ms": 10.0, "read_rps": 100.0}],
        specs,
    )
    assert [r["ok"] for r in flipped] == [True, False]
    # A layer metric has no bound: compared, never a miss; 0 on both sides
    # (update latency on a read-only workload) is left out.
    unbounded = [{"name": "client.read_rps", "better": "higher"},
                 {"name": "client.update_p50_ms", "better": "lower"}]
    (row,) = metrics.agreement(
        [{"client.read_rps": 100.0, "client.update_p50_ms": 0.0},
         {"client.read_rps": 50.0, "client.update_p50_ms": 0.0}],
        unbounded,
    )
    assert row["ok"] and row["bound"] is None and row["difference"] == pytest.approx(0.5)
    assert metrics.worsening(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert metrics.worsening(100.0, 110.0, "higher") == pytest.approx(-0.10)


# ----------------------------------------------------------------------
# No process outlives a run
# ----------------------------------------------------------------------
_ORPHAN_SCRIPT = """
import os, signal, subprocess, sys
import e2e_live as live

live.adopt_orphans()
sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
parent = "import subprocess, sys, time; subprocess.Popen(%r); print(1, flush=True); time.sleep(60)"
child = subprocess.Popen(
    [sys.executable, "-c", parent % (sleeper,)], stdout=subprocess.PIPE, start_new_session=True
)
child.stdout.readline()
assert len(live._session_pids(child.pid)) == 2
os.killpg(child.pid, signal.SIGKILL)
child.wait()
live._reap_session(child.pid)
assert live._session_pids(child.pid, zombies=True) == []
own = subprocess.Popen(sleeper)
live.reap_children()
assert live._stat_fields(own.pid, zombies=True) is None
"""


def test_a_killed_childs_orphans_and_own_children_are_reaped_not_left_as_zombies():
    # In a process of its own: becoming the subreaper cannot be undone
    # cleanly, and pytest's process has other tests' children.
    done = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT],
        cwd=os.path.dirname(os.path.abspath(__file__)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
