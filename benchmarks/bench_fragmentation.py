"""E10 — Future-work experiment: fragmentation by tag name.

"the execution time of Q1 could be brought down from 345 ms to 39 ms"
(×8.8) by splitting the doc table into per-tag fragments.  We regenerate
the comparison (monolithic staircase evaluation vs per-tag fragments) on
the scaled document; the factor is reported against the paper's.
"""


from conftest import BENCH_SIZE

from repro.core.fragments import FragmentedDocument
from repro.harness.experiments import fragmentation_experiment
from repro.harness.reporting import format_table
from repro.harness.workloads import Q1
from repro.xpath.evaluator import Evaluator


def test_fragmentation_regeneration(benchmark, emit):
    report = benchmark.pedantic(
        fragmentation_experiment,
        args=(BENCH_SIZE,),
        kwargs={"repeats": 5},
        rounds=1,
        iterations=1,
    )
    emit(
        "Future-work fragmentation experiment (Q1)",
        format_table([report]),
        f"measured speedup {report['speedup']:.1f}x "
        f"(paper: 345 ms -> 39 ms = {report['paper_speedup']:.1f}x)",
    )


def test_fragment_build_benchmark(benchmark, bench_doc):
    """Fragmenting is load-time work; measure it separately."""
    fragmented = benchmark(lambda: FragmentedDocument(bench_doc))
    assert len(fragmented.tags()) > 10


def test_q1_monolithic_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=False)
    benchmark(lambda: evaluator.evaluate(Q1))


def test_q1_fragmented_benchmark(benchmark, bench_doc):
    evaluator = Evaluator(bench_doc, pushdown=True)
    evaluator.fragments
    benchmark(lambda: evaluator.evaluate(Q1))
