"""E7 — Figure 11 (e): performance comparison for Q1.

Three systems, as in the paper: the staircase join (name test after the
join), 'scj (early nametest)' (name-test pushdown), and the tree-unaware
SQL plan over a B+-tree ('IBM DB2 SQL', which also performs an early
name test via its concatenated key).  The shape to read off the
printed series: pushdown beats plain by roughly the paper's factor 3,
and both staircase variants beat the tree-unaware plan.
"""


from conftest import SWEEP_SIZES

from repro.engine.db2 import DocIndex, db2_path
from repro.harness.experiments import experiment3_comparison
from repro.harness.reporting import format_series
from repro.harness.workloads import Q1
from repro.xpath.evaluator import Evaluator

SERIES = ["staircase_seconds", "scj_pushdown_seconds", "db2_seconds"]


def test_figure11e_regeneration(benchmark, emit):
    rows = benchmark.pedantic(
        experiment3_comparison,
        args=(SWEEP_SIZES, Q1),
        kwargs={"repeats": 3},
        rounds=1,
        iterations=1,
    )
    emit(
        "Figure 11(e) — performance comparison, Q1",
        format_series(rows, "size_mb", SERIES),
    )


def test_q1_staircase_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=False)
    benchmark(lambda: evaluator.evaluate(Q1))


def test_q1_pushdown_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=True)
    evaluator.fragments  # load-time work
    benchmark(lambda: evaluator.evaluate(Q1))


def test_q1_db2_benchmark(benchmark, bench_doc):
    index = DocIndex(bench_doc)
    benchmark(lambda: db2_path(index, Q1))
