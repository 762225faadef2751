"""E4 — Figure 11 (b): staircase join performance scales linearly.

"execution times are linear with document size" — we regenerate the Q2
time series over the size ladder and fit the growth exponent on the
log/log ladder: the paper's straight line on log axes is an exponent
of 1.  Reported, not asserted — a timing on a shared runner is no gate.
"""

import math

import pytest
from conftest import SWEEP_SIZES

from repro.core.staircase import SkipMode, staircase_join
from repro.harness.experiments import experiment1_duplicates
from repro.harness.reporting import format_series
from repro.harness.workloads import get_document


def test_figure11b_regeneration(benchmark, emit):
    rows = benchmark.pedantic(
        experiment1_duplicates, args=(SWEEP_SIZES,), rounds=1, iterations=1
    )
    emit(
        "Figure 11(b) — staircase join execution time (Q2 ancestor step)",
        format_series(rows, "size_mb", ["staircase_seconds", "staircase_result"]),
    )
    small, large = rows[0], rows[-1]
    size_ratio = large["size_mb"] / small["size_mb"]  # 10×
    time_ratio = large["staircase_seconds"] / max(small["staircase_seconds"], 1e-9)
    exponent = math.log(time_ratio) / math.log(size_ratio)
    emit(f"growth exponent over a {size_ratio:.0f}x size range: {exponent:.2f} "
         "(paper: 1.0 — linear)")


@pytest.mark.parametrize("size", SWEEP_SIZES, ids=lambda s: f"{s}mb")
def test_staircase_q2_step_across_sizes(benchmark, size):
    doc = get_document(size)
    context = doc.pres_with_tag("increase")
    result = benchmark(
        lambda: staircase_join(doc, context, "ancestor", SkipMode.ESTIMATE)
    )
    benchmark.extra_info["nodes"] = len(doc)
    benchmark.extra_info["result"] = int(len(result))
