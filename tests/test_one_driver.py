"""One driver: the operator-prefix trie is how every plan runs.

* Grouping is invisible: for random mixed batches — result modes ×
  planned/unplanned × scoped/unscoped × both engines × unions —
  ``run_group(batch, snapshot)`` equals
  ``[run_group([t], snapshot)[0] for t in batch]``
  byte for byte and index for index, observed or not; and a backend's
  ``run_batch(items)`` equals its items run one at a time, serial and
  ``fabric:2``.  Every one-by-one answer is the tree-walking
  reference's (``tests/_reference.py``, rule D8: a shard's members
  gathered under the virtual root, scoped to one member when asked).
* Sharing is real: each distinct operator prefix of a batch is
  dispatched once whether or not the batch is sampled, union branches
  and scoped groups included; a warm cache dispatches — and teaches —
  nothing.
* The resident-bytes guard: a group of one, an unplanned plan and a
  scoped group never touch the cross-batch prefix cache.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.workloads import get_forest
from repro.service import ShardedStore, ShardWorkerState
from repro.service.backend import make_backend
from repro.service.executor import ShardTask
from repro.xpath import pipeline
from repro.xpath.ast import BinaryExpr
from repro.xpath.pipeline import (
    MODES,
    StaircaseStep,
    compile_plan,
    register_kernel,
)
from repro.xpath.planner import Planner

from _reference import Reference, random_tree
from test_xpath_fuzz import paths

ENGINES = ("scalar", "vectorized")
FUZZ_TAGS = ("a", "b", "c", "item", "x-y", "long_tag")


# ----------------------------------------------------------------------
# (a) Grouping is invisible
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fuzz_forest():
    return [(f"d{i}", random_tree(45, 700 + i, tags=FUZZ_TAGS)) for i in range(4)]


@pytest.fixture(scope="module")
def fuzz_store(tmp_path_factory, fuzz_forest):
    directory = str(tmp_path_factory.mktemp("one-driver") / "fuzz")
    return ShardedStore.build(directory, fuzz_forest, shards=2)


@pytest.fixture(scope="module")
def references(fuzz_store, fuzz_forest):
    """Shard id → (member names, the reference over them gathered)."""
    trees = dict(fuzz_forest)
    out = {}
    for shard_id in fuzz_store.shard_ids():
        names = tuple(fuzz_store.shard_entry(shard_id)["documents"])
        out[shard_id] = names, Reference.gathered([trees[n] for n in names])
    return out


def expected_payload(references, shard_ids, query, document, mode):
    """The reference's payload for one item over ``shard_ids``: a rank
    list or count per member in scope, or one existence bit — or the
    class of the package error it raises."""
    answers, found = {}, False
    try:
        for shard_id in shard_ids:
            names, reference = references[shard_id]
            if document is not None:
                member = names.index(document)
                answers[document] = reference.evaluate(query, mode, member=member)
                found = found or reference.evaluate(query, "exists", member=member)
                continue
            found = found or reference.evaluate(query, "exists")
            answers.update(zip(names, reference.per_member(query, mode).values()))
    except ReproError as error:
        return type(error)
    if mode == "exists":
        return found
    return {name: listed(answer) for name, answer in answers.items()}


def listed(answer):
    return answer.tolist() if hasattr(answer, "tolist") else answer


def shard_ids_of(store, document):
    return store.shard_ids() if document is None else [store.shard_of(document)]


def store_planners(store):
    """scoped → the planner the service uses (no //-collapse when scoped)."""
    return {False: Planner(frozenset((store.virtual_root_tag,))), True: Planner(None)}


@pytest.fixture(scope="module")
def planners(fuzz_store):
    return store_planners(fuzz_store)


queries = st.one_of(paths, paths, st.builds(BinaryExpr, st.just("|"), paths, paths))
specs = st.lists(
    st.tuples(
        queries,
        st.sampled_from(MODES),
        st.booleans(),  # planned
        st.sampled_from([None, None, "d0", "d1", "d3"]),  # scope
        st.sampled_from(ENGINES),
    ),
    min_size=1,
    max_size=6,
)


def compile_items(specs, planners):
    """``(query, run_batch item)`` for the specs that compile (a path
    that cannot be scoped fails in the service, before any worker sees
    it)."""
    items = []
    for query, mode, planned, document, engine in specs:
        scoped = document is not None
        try:
            plan = planners[scoped].plan(query) if planned else query
            item = (compile_plan(plan, scoped=scoped), engine, document, mode)
        except ReproError:
            continue
        items.append((query, item))
    return items


def shard_tasks(store, items, observe):
    """What ``LaneBackend._expand`` makes of ``items`` — every
    shard's tasks in one list, so one call mixes shards too."""
    tasks = []
    for index, (plan, engine, document, mode) in enumerate(items):
        for shard_id in shard_ids_of(store, document):
            tasks.append(
                ShardTask(
                    index, shard_id, plan, engine, document, mode,
                    observe=observe and document is None and mode != "exists",
                )
            )
    return tasks


def frozen(result):
    """A :class:`ShardResult` as comparable bytes."""
    payload = result.payload
    if result.mode == "materialize":
        payload = {name: (a.dtype.str, a.tobytes()) for name, a in payload.items()}
    return (result.index, result.shard_id, result.mode, payload)


@given(specs=specs, observe=st.booleans())
@settings(max_examples=120, deadline=None)
def test_run_group_equals_its_tasks_one_by_one(
    fuzz_store, planners, references, specs, observe
):
    compiled = compile_items(specs, planners)
    tasks = shard_tasks(fuzz_store, [item for _, item in compiled], observe)
    state, snapshot = ShardWorkerState(), fuzz_store.snapshot()
    singles = []
    for task in tasks:
        expected = expected_payload(
            references, [task.shard_id], compiled[task.index][0],
            task.document, task.mode,
        )
        try:
            (single,) = state.run_group([task], snapshot)
        except ReproError as error:
            single = type(error)
            assert single is expected
        else:
            assert len(single.observations) == int(task.observe)
            got = single.payload
            if task.mode != "exists":
                got = {name: listed(answer) for name, answer in got.items()}
            assert got == expected, (str(compiled[task.index][0]), task.mode)
        singles.append(single)
    try:
        grouped = state.run_group(tasks, snapshot)
    except ReproError:
        assert any(isinstance(single, type) for single in singles)
        return
    assert len(grouped) == len(tasks)
    for single, result in zip(singles, grouped):
        if not isinstance(single, type):
            assert frozen(result) == frozen(single)
    # One observation per sampled (shard, engine, planned) group, not
    # one per task.
    sampled = {
        (t.shard_id, t.engine, t.plan.planned) for t in tasks if t.observe
    }
    observations = [o for result in grouped for o in result.observations]
    assert sorted((o.shard_id, o.engine) for o in observations) == sorted(
        (shard_id, engine) for shard_id, engine, _ in sampled
    )


def payload(answer):
    if isinstance(answer, dict):
        return {
            name: value.tobytes() if hasattr(value, "tobytes") else value
            for name, value in answer.items()
        }
    return answer


@pytest.fixture(scope="module", params=("serial", "fabric:2"))
def backend(request, fuzz_store):
    with make_backend(request.param, fuzz_store) as backend:
        yield backend


@given(specs=specs, observe=st.booleans())
@settings(max_examples=25, deadline=None)
def test_run_batch_equals_its_items_one_by_one(
    backend, planners, references, specs, observe
):
    compiled = compile_items(specs, planners)
    items = [item for _, item in compiled]

    def run(batch):
        return backend.run_batch(batch, sink=[] if observe else None)

    singles = []
    for query, item in compiled:
        _, _, document, mode = item
        expected = expected_payload(
            references, shard_ids_of(backend.store, document), query, document, mode
        )
        try:
            answer = run([item])[0]
        except ReproError as error:
            singles.append(type(error))
            assert singles[-1] is expected
            continue
        singles.append(payload(answer))
        if mode != "exists":
            answer = {name: listed(ranks) for name, ranks in answer.items()}
        assert answer == expected, (str(query), mode)
    try:
        batch = [payload(answer) for answer in run(items)]
    except ReproError:
        assert any(isinstance(single, type) for single in singles)
        return
    for single, answer in zip(singles, batch):
        if not isinstance(single, type):
            assert answer == single


# ----------------------------------------------------------------------
# (b) Sharing is real
# ----------------------------------------------------------------------
BATCH = (
    "//open_auctions/open_auction/bidder/increase",
    "//open_auctions/open_auction/bidder/date",
    "//open_auctions/open_auction/bidder",
    "//open_auctions/open_auction/seller",
    "//open_auctions/open_auction/initial",
    "//open_auctions/open_auction",
    "//people/person/name",
    "//people/person/profile/interest",
    "//people/person/profile",
    "//people/person/address/city",
    "//regions//item/name",
    "//regions//item/location",
)


@pytest.fixture(scope="module")
def xmark_store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("one-driver") / "xmark")
    return ShardedStore.build(directory, get_forest(2, 0.05), shards=1)


@pytest.fixture
def step_calls():
    """Count top-level ``StaircaseStep`` dispatches per operator, through
    the kernel registry's own door."""
    calls = Counter()
    originals = {
        engine: pipeline._KERNELS[StaircaseStep, engine] for engine in ENGINES
    }

    def counting(op, rt, context):
        if op.index >= 0:  # -1: a positional select's inner step
            calls[op] += 1
        return originals[rt.engine](op, rt, context)

    register_kernel(StaircaseStep, *ENGINES)(counting)
    try:
        yield calls
    finally:
        for engine, kernel in originals.items():
            register_kernel(StaircaseStep, engine)(kernel)


def planned_tasks(
    store, queries, engine, document=None, observe=False, mode="materialize",
    pushdown=None,
):
    scoped = document is not None
    planner = store_planners(store)[scoped]
    items = [
        (compile_plan(planner.plan(q), pushdown=pushdown, scoped=scoped), engine, document, mode)
        for q in queries
    ]
    return shard_tasks(store, items, observe)


def distinct_step_prefixes(tasks):
    return {
        ops[: depth + 1]
        for task in tasks
        for ops in task.plan.branches
        for depth, op in enumerate(ops)
        if isinstance(op, StaircaseStep)
    }


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("observe", (False, True))
def test_each_distinct_prefix_is_dispatched_once(xmark_store, step_calls, engine, observe):
    tasks = planned_tasks(xmark_store, BATCH, engine, observe=observe)
    expected = len(distinct_step_prefixes(tasks))
    assert expected < sum(len(t.plan.branches[0]) - 1 for t in tasks)
    state, snapshot = ShardWorkerState(), xmark_store.snapshot()
    results = state.run_group(tasks, snapshot)
    assert all(sum(len(r) for r in result.payload.values()) for result in results)
    assert sum(step_calls.values()) == expected
    observations = [o for result in results for o in result.observations]
    assert len(observations) == int(observe)
    if observe:
        # The driver's record per operator run *is* the observation.
        assert len(observations[0].steps) == expected
    # The same batch again is answered from the prefix cache: nothing
    # runs, and a sampled repeat records nothing — a hit teaches nothing.
    again = state.run_group(tasks, snapshot)
    assert [frozen(r) for r in again] == [frozen(r) for r in results]
    assert sum(step_calls.values()) == expected
    for result in again:
        for observation in result.observations:
            assert observation.steps == ()


@pytest.mark.parametrize("engine", ENGINES)
def test_union_branches_enter_the_trie(xmark_store, step_calls, engine):
    # (Union branches are planned like top-level paths, so a branch and
    # a plain path share their pushed prefix.)
    tasks = planned_tasks(
        xmark_store,
        ["//open_auction/bidder | //open_auction/seller", "//open_auction/initial"],
        engine,
    )
    ShardWorkerState().run_group(tasks, xmark_store.snapshot())
    by_step = Counter()
    for op, count in step_calls.items():
        by_step[op.axis, str(op.test)] += count
    assert by_step["descendant", "open_auction"] == 1
    assert by_step["child", "bidder"] == by_step["child", "seller"] == 1
    assert by_step["child", "initial"] == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_scoped_queries_to_one_member_share_their_prefix(xmark_store, step_calls, engine):
    document = xmark_store.document_names()[1]
    tasks = planned_tasks(
        xmark_store,
        [
            "/site/people/person/name",
            "/site/people/person/profile",
            "/site/people/person/address",
        ],
        engine,
        document=document,
    )
    state, snapshot = ShardWorkerState(), xmark_store.snapshot()
    size = state.prefix_cache.info()["size"]
    grouped = state.run_group(tasks, snapshot)
    assert sum(step_calls.values()) == len(distinct_step_prefixes(tasks)) == 6
    assert state.prefix_cache.info()["size"] == size
    step_calls.clear()
    assert [frozen(r) for r in grouped] == [
        frozen(state.run_group([task], snapshot)[0]) for task in tasks
    ]
    assert sum(step_calls.values()) == 3 * 4


def test_scoped_exists_terminates_early(xmark_store):
    """A scoped ``exists`` leaves the trie for the chunked tail like an
    unscoped one (it used to materialize the member's whole answer).
    Unpushed, so ``nodes_scanned`` counts the staircase joins alone: a
    pushed child step counts its fragment reads too, and the first
    chunk's window spans the member."""
    document = xmark_store.document_names()[0]
    (task,) = planned_tasks(
        xmark_store, ["/site//item//text"], "scalar", document, mode="exists",
        pushdown=False,
    )
    state, snapshot = ShardWorkerState(), xmark_store.snapshot()
    assert state.run_group([task], snapshot)[0].payload is True
    stats = state._evaluator(0, "scalar", xmark_store.collection(0)).stats
    probed = stats.nodes_scanned
    state.run_group([task._replace(mode="count")], snapshot)
    assert probed < (stats.nodes_scanned - probed) / 4


# ----------------------------------------------------------------------
# (c) Who may touch the cross-batch prefix cache
# ----------------------------------------------------------------------
def test_lone_and_unplanned_tasks_leave_the_prefix_cache_alone(xmark_store):
    state, snapshot = ShardWorkerState(), xmark_store.snapshot()
    planned = planned_tasks(xmark_store, BATCH[:3], "vectorized")
    unplanned = shard_tasks(
        xmark_store,
        [(compile_plan(q), "vectorized", None, "materialize") for q in BATCH[:3]],
        False,
    )
    assert not any(task.plan.planned for task in unplanned)
    state.run_group(planned[:1], snapshot)  # a group of one
    state.run_group(unplanned, snapshot)  # shares its trie, never the cache
    # Planned tasks, but no two agree on (engine, scope).
    document = xmark_store.document_names()[0]
    state.run_group(
        planned_tasks(xmark_store, BATCH[:1], "vectorized")
        + planned_tasks(xmark_store, BATCH[:1], "scalar")
        + planned_tasks(xmark_store, BATCH[:1], "vectorized", document=document),
        snapshot,
    )
    assert state.prefix_cache.info()["size"] == 0
    state.run_group(planned, snapshot)
    assert state.prefix_cache.info()["size"] == len(distinct_step_prefixes(planned))
