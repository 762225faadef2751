"""Steps touch what they return.

* The staircase bound as a property (paper §3.3, Figure 11(c)): a pushed
  ``descendant::t`` step reads at most |pruned context| + |result| rows,
  and a pushed ``child::t`` step reads no row that is not a ``t`` in its
  context's window — on both engines, measured by the observer that
  ``explain --analyze`` prints (``StepObservation.touched``).
* The positional twin of the //-collapse
  (``//t[P]`` → ``/descendant::t/parent::node()/child::t[P]``) answers
  what the tree-walking reference answers, at every shard count.
* No served pipeline of the benchmark pools builds a context of every
  node in the shard.
"""

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fragments import FragmentedDocument
from repro.core.pruning import prune
from repro.core.vectorized import subtree_sizes
from repro.encoding.prepost import encode
from repro.service import QueryService, ShardedStore
from repro.xpath.ast import LocationPath, NodeTest, Step
from repro.xpath.evaluator import Evaluator
from repro.xpath.observation import PipelineObserver
from repro.xpath.pipeline import ContextInit, StaircaseStep, compile_plan, drive
from repro.xpath.planner import Planner

from _reference import Reference, member_answers, random_tree

ENGINES = ("scalar", "vectorized")
TAGS = ("a", "b", "c")


def observed_step(doc, engine, axis, tag, context):
    """``context/axis::tag`` as one pushed operator: (result, touched)."""
    plan = compile_plan(
        LocationPath(False, (Step(axis, NodeTest("name", tag)),)), pushdown=True
    )
    assert plan.branches[0][1].pushdown
    observer = PipelineObserver()
    result = drive(plan, Evaluator(doc, engine=engine), context, observer=observer)
    (step,) = observer.steps
    assert (step.n_in, step.n_out) == (len(context), len(result))
    return result, step.touched


@given(
    seed=st.integers(0, 5000),
    size=st.integers(2, 160),
    tag=st.sampled_from(TAGS),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_pushed_steps_touch_what_they_return(seed, size, tag, data):
    doc = encode(random_tree(size, seed, tags=TAGS))
    context = np.unique(
        data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12))
    )
    fragment, _ = FragmentedDocument(doc).fragment(tag)
    end = int((context + subtree_sizes(doc, context)).max())
    in_window = int(np.count_nonzero((fragment > context[0]) & (fragment <= end)))
    for engine in ENGINES:
        plain = Evaluator(doc, engine=engine)
        result, touched = observed_step(doc, engine, "descendant", tag, context)
        assert result.tolist() == plain.evaluate(f"descendant::{tag}", context).tolist()
        assert touched <= len(prune(doc, context, "descendant")) + len(result)
        result, touched = observed_step(doc, engine, "child", tag, context)
        assert result.tolist() == plain.evaluate(f"child::{tag}", context).tolist()
        assert touched == in_window, engine  # every row read is a `tag`
        # The bound is the descendant axis's: a context node after k
        # `tag` siblings has one `tag` ancestor, and the scalar walk
        # reads the k siblings, the climb the node's whole path.
        result, touched = observed_step(doc, engine, "ancestor", tag, context)
        assert result.tolist() == plain.evaluate(f"ancestor::{tag}", context).tolist()
        if engine == "scalar":
            assert touched <= np.count_nonzero(fragment < context[-1])
        else:
            assert touched <= doc.height * len(prune(doc, context, "ancestor"))


def test_explain_analyze_prints_rows_touched(tmp_path, capsys):
    import repro.cli as cli
    from repro.encoding.persist import save

    archive = str(tmp_path / "doc.npz")
    save(encode(random_tree(300, 5, tags=TAGS)), archive)
    assert cli.main(["explain", archive, "//a/b", "--analyze"]) == 0
    table = capsys.readouterr().out.split("observed:")[1]
    assert "touched" in table.splitlines()[1]
    (child_row,) = [line for line in table.splitlines() if "child::b" in line]
    _, n_in, n_out, touched, _ = child_row.rsplit(None, 4)
    # Only the b-children's window of the fragment is read.
    assert int(n_out.replace(",", "")) <= int(touched.replace(",", ""))


# ----------------------------------------------------------------------
# The positional twin against the reference
# ----------------------------------------------------------------------
TWIN_QUERIES = (
    "//a[1]", "//a[2]", "//b[last()]", "//c[3]",
    "//a//b[1]", "//b/c//a[last()]", "/descendant::c//b[2]",
    "//a[b][1]", "//a[1][b]", "//zz[1]", "//zz[last()]",
    "//a[1] | //b[last()]", "//a | //b[2]", "//c[1] | //zz[1]",
)


@pytest.fixture(scope="module")
def twin_forest():
    # Few tags: `t` nests inside `t`, and member roots carry tested tags.
    forest = [(f"d{i}", random_tree(60, 900 + i, tags=TAGS)) for i in range(5)]
    roots = {tree.name for _, tree in forest}
    assert roots & {"a", "b", "c"}
    return forest


@pytest.mark.parametrize("shards", (1, 2, 4))
def test_the_positional_twin_answers_the_reference(twin_forest, shards, tmp_path):
    trees = dict(twin_forest)
    store = ShardedStore.build(str(tmp_path / "s"), twin_forest, shards=shards)
    planner = Planner(frozenset((store.virtual_root_tag,)))
    assert any(
        "parent::node()" in str(planner.plan(query).path) for query in TWIN_QUERIES
    )
    expected = {}
    for shard_id in store.shard_ids():
        names = tuple(store.shard_entry(shard_id)["documents"])
        gathered = Reference.gathered([trees[name] for name in names])
        for query in TWIN_QUERIES:
            answers = gathered.per_member(query).values()
            for name, ranks in zip(names, answers):
                expected[query, name] = ranks.tolist()
    for engine in ENGINES:
        with QueryService(store, backend="serial", engine=engine) as service:
            for query in TWIN_QUERIES:
                result = service.execute(query, use_cache=False)
                for name, ranks in result.per_document.items():
                    assert ranks.tolist() == expected[query, name], (engine, query, name)
                for name, ranks in member_answers(twin_forest[:2], query).items():
                    scoped = service.execute(query, document=name, use_cache=False)
                    assert scoped.per_document[name].tolist() == ranks.tolist()


# ----------------------------------------------------------------------
# Regression guard: the benchmark pools
# ----------------------------------------------------------------------
def e2e_pools():
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(here, os.pardir, "benchmarks", "e2e"))
    try:
        import e2e_workloads
    finally:
        sys.path.pop(0)
    return {
        (workload.name, entry.instance(1))
        for workload in e2e_workloads.WORKLOADS.values()
        for entry in workload.pool
    } | {
        (workload.name, entry.canonical)
        for workload in e2e_workloads.WORKLOADS.values()
        for entry in workload.pool
    }


def test_no_served_pipeline_builds_a_context_of_the_whole_shard(twin_forest, tmp_path):
    """``descendant-or-self::node()`` from the document node is every
    node of the shard: no plan of the four pools may run it."""
    whole_shard = (
        ContextInit(True),
        StaircaseStep(0, "descendant-or-self", NodeTest("node")),
    )
    pools = e2e_pools()
    assert len({workload for workload, _ in pools}) == 4
    store = ShardedStore.build(str(tmp_path / "s"), twin_forest[:2])
    with QueryService(store, backend="serial") as service:
        for workload, query in sorted(pools):
            for branch in compile_plan(service.explain(query)).branches:
                assert branch[:2] != whole_shard, (workload, query)
