"""E6 — Figure 11 (d): effectiveness of skipping (execution time).

"execution time is about cut in half ('no skipping' vs 'skipping' for
the larger document sizes)" and estimation-based skipping "gives an
additional performance gain of about 20 %".  Python's loop economics
differ from the paper's C kernel (our copy loop saves comparisons, not
cache misses), so the regeneration reports the *ordering* — skipping
against no-skipping, estimation against both; the node counts behind it
are asserted by ``bench_fig11c_skipping_nodes``.
"""

import pytest
from conftest import BENCH_SIZE

from repro.core.staircase import SkipMode, staircase_join
from repro.harness.experiments import experiment2_skipping
from repro.harness.reporting import format_series

MODES = {
    "no_skipping": SkipMode.NONE,
    "skipping": SkipMode.SKIP,
    "skipping_estimated": SkipMode.ESTIMATE,
}


def test_figure11d_regeneration(benchmark, emit):
    rows = benchmark.pedantic(
        experiment2_skipping, args=((BENCH_SIZE,),), rounds=1, iterations=1
    )
    emit(
        "Figure 11(d) — execution time, Q1 second step",
        format_series(
            rows,
            "size_mb",
            ["no_skipping_seconds", "skipping_seconds", "skipping_estimated_seconds"],
        ),
    )
    row = rows[0]
    emit(
        "no-skipping / skipping: "
        f"{row['no_skipping_seconds'] / row['skipping_seconds']:.1f}x "
        "(paper: about 2x)"
    )


@pytest.mark.parametrize("label", list(MODES), ids=list(MODES))
def test_skip_mode_benchmark(benchmark, bench_doc, label):
    context = bench_doc.pres_with_tag("profile")
    mode = MODES[label]
    result = benchmark(
        lambda: staircase_join(bench_doc, context, "descendant", mode)
    )
    benchmark.extra_info["result"] = int(len(result))
