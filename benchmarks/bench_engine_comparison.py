"""Engine comparison: scalar loops vs the vectorised bulk engine.

End-to-end wall-clock of ``Evaluator(engine="scalar")`` against
``Evaluator(engine="vectorized")`` on XMark documents — a report, not a
gate.  Two views:

* per-query pytest-benchmark entries over the full workload suite, one
  line per (query, engine), so a slowdown in either engine shows up as a
  line item;
* a summary table (printed through ``emit``) with per-query speedups.
  It asserts one thing: identical node sequences from both engines on
  every row.  How fast the served engine is reads from
  ``benchmarks/e2e`` (``service.kernel_ms`` on ``structural_batch``,
  ``xpath.op.pred_ms`` on ``value_filter``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_comparison.py --benchmark-only
"""

import time

import pytest

from repro.harness.queries import QUERY_SUITE
from repro.harness.reporting import format_table
from repro.xpath.evaluator import Evaluator

#: Queries dominated by relative descendant/ancestor steps — the
#: staircase join's territory, where the bulk kernels replace the
#: per-node Python loop wholesale.
DESCENDANT_HEAVY = (
    "/descendant::open_auction/descendant::increase",
    "/descendant::description/descendant::keyword",
    "/descendant::item/descendant::text/descendant::keyword",
    "/descendant::increase/ancestor::bidder",
)

#: Suite queries whose predicate compares, counts or scans *values*:
#: the scalar engine interprets them once per candidate, the vectorized
#: engine as column kernels on dictionary codes.  Reported, like the
#: rows above, on the ``/descendant::t[…]`` spelling the planner's
#: //-collapse gives every served query (rows ``V08``…): as written,
#: ``//t`` is ``descendant-or-self::node()/child::t`` over the whole
#: plane, a few ms on *either* engine that dilutes the predicate's share
#: (their suite rows still show it).
VALUE_FILTERING = ("S08", "S09", "S10", "S12", "S13")


def _collapsed(xpath):
    assert xpath.startswith("//"), xpath
    return "/descendant::" + xpath[2:]

ENGINES = ("scalar", "vectorized")


@pytest.fixture(scope="module", params=ENGINES)
def engine_evaluator(request, bench_doc):
    return request.param, Evaluator(bench_doc, engine=request.param)


@pytest.mark.parametrize("query", QUERY_SUITE, ids=[q.key for q in QUERY_SUITE])
def test_suite_query(benchmark, engine_evaluator, query):
    engine, evaluator = engine_evaluator
    result = benchmark(lambda: evaluator.evaluate(query.xpath))
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["results"] = int(len(result))


def _best_of(evaluator, xpath, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        result = evaluator.evaluate(xpath)
        best = min(best, time.perf_counter() - started)
    return best, result


def test_engine_summary(bench_doc, emit, benchmark):
    scalar = Evaluator(bench_doc, engine="scalar")
    bulk = Evaluator(bench_doc, engine="vectorized")
    rows = []
    value_filtering = [
        (q.key[:3], _collapsed(q.xpath))
        for q in QUERY_SUITE
        if q.key[:3] in VALUE_FILTERING
    ]
    assert len(value_filtering) == len(VALUE_FILTERING)

    def run():
        rows.clear()
        workload = [(f"H{i:02d}", xpath) for i, xpath in enumerate(DESCENDANT_HEAVY)]
        workload += [(f"V{key[1:]}", xpath) for key, xpath in value_filtering]
        workload += [(q.key, q.xpath) for q in QUERY_SUITE]
        for key, xpath in workload:
            scalar_s, scalar_result = _best_of(scalar, xpath)
            bulk_s, bulk_result = _best_of(bulk, xpath)
            assert scalar_result.tolist() == bulk_result.tolist(), key
            rows.append(
                {
                    "query": key,
                    "results": len(scalar_result),
                    "scalar_ms": f"{scalar_s * 1e3:.2f}",
                    "vectorized_ms": f"{bulk_s * 1e3:.2f}",
                    "speedup": f"{scalar_s / bulk_s:.1f}x",
                }
            )
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        f"engine comparison — {len(bench_doc):,} nodes "
        f"(scalar = instrumented Algorithms 2-4, vectorized = bulk kernels)",
        format_table(rows),
    )
    for key, xpath in value_filtering:  # the collapse changes no answer
        suite = next(q.xpath for q in QUERY_SUITE if q.key.startswith(key))
        assert bulk.evaluate(xpath).tolist() == bulk.evaluate(suite).tolist(), key
