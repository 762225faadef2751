"""E8 — Figure 11 (f): performance comparison for Q2.

Same three systems as Figure 11 (e) on the ancestor-step query.  As in
the paper, the tree-unaware plan runs the Olteanu symmetry rewrite
(``/descendant::bidder[descendant::increase]``) because the raw ancestor
plan is catastrophically mis-delimited — the regeneration also measures
that raw plan once on the smallest document to show the gap the rewrite
papers over.
"""


from conftest import SWEEP_SIZES

from repro.counters import JoinStatistics
from repro.engine.db2 import DocIndex, db2_path
from repro.harness.experiments import experiment3_comparison
from repro.harness.figures import ascii_chart
from repro.harness.reporting import format_series
from repro.harness.workloads import Q2, get_document
from repro.xpath.evaluator import Evaluator

SERIES = ["staircase_seconds", "scj_pushdown_seconds", "db2_seconds"]


def test_figure11f_regeneration(benchmark, emit):
    rows = benchmark.pedantic(
        experiment3_comparison,
        args=(SWEEP_SIZES, Q2),
        kwargs={"repeats": 3},
        rounds=1,
        iterations=1,
    )
    emit(
        "Figure 11(f) — performance comparison, Q2 (DB2 runs the rewrite)",
        format_series(rows, "size_mb", SERIES),
        ascii_chart(rows, "size_mb", SERIES, title="shape: who wins, by what factor"),
    )


def test_unrewritten_ancestor_plan_is_the_bad_plan(benchmark, emit):
    """The mis-planning the paper observed: without the rewrite, the
    tree-unaware ancestor step scans the whole prefix per context node."""
    doc = get_document(0.11)
    index = DocIndex(doc)

    def both():
        rewritten, raw = JoinStatistics(), JoinStatistics()
        db2_path(index, Q2, rewrite_ancestor=True, stats=rewritten)
        db2_path(index, Q2, rewrite_ancestor=False, stats=raw)
        return rewritten, raw

    rewritten, raw = benchmark.pedantic(both, rounds=1, iterations=1)
    emit(
        "tree-unaware Q2 plans (0.11 MB): "
        f"rewritten scans {rewritten.nodes_scanned:,} entries, "
        f"raw ancestor plan scans {raw.nodes_scanned:,} entries "
        f"({raw.nodes_scanned / max(1, rewritten.nodes_scanned):.0f}x)"
    )
    assert raw.nodes_scanned > 10 * rewritten.nodes_scanned


def test_q2_staircase_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=False)
    benchmark(lambda: evaluator.evaluate(Q2))


def test_q2_pushdown_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=True)
    evaluator.fragments
    benchmark(lambda: evaluator.evaluate(Q2))


def test_q2_db2_benchmark(benchmark, bench_doc):
    index = DocIndex(bench_doc)
    benchmark(lambda: db2_path(index, Q2, rewrite_ancestor=True))
