"""One way to run a plan: scoping compiled in the service.

* A document-scoped answer is what the member answers standing alone
  (the tree-walking reference, ``tests/_reference.py``), and the
  unscoped answer's entry for that member — for every suite query
  (unions included), result mode, planner setting, backend and archive
  format, on shards that hold more than one document.  (One designed
  exception to the second half: a path opening with a *child* step sees
  the member root scoped and the virtual root unscoped.  The suite has
  no absolute path *inside a predicate*: those resolve against the
  shard plane, ROADMAP item 1, pinned below by a strict ``xfail``.)
* Scoped plans are compiled in the service process, never in a worker,
  and paths that cannot be scoped fail there before any dispatch.
"""

import numpy as np
import pytest

from repro.errors import XPathEvaluationError
from repro.harness.queries import QUERY_SUITE
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import compile_plan

from _reference import member_answers

SUITE = [q.xpath for q in QUERY_SUITE]


@pytest.fixture(scope="module")
def forest():
    return get_forest(4, 0.05)


@pytest.fixture(scope="module")
def standalone(forest):
    """(query, member) → ranks of the member evaluated as a lone document."""
    return {
        (query, name): ranks
        for query in SUITE
        for name, ranks in member_answers(forest, query).items()
    }


def opens_with_child_step(query):
    path = parse_xpath(query)
    return getattr(path, "absolute", False) and path.steps[0].axis == "child"


@pytest.fixture(scope="module", params=("none", "packed"))
def store(request, forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("scoped") / request.param)
    return ShardedStore.build(
        directory, forest, shards=2, compression=request.param
    )


@pytest.mark.parametrize("backend", ("serial", "fabric:2"))
@pytest.mark.parametrize("planner", (True, False))
def test_scoped_answer_is_the_members_own(store, standalone, backend, planner):
    assert all(
        len(store.shard_entry(s)["documents"]) >= 2 for s in store.shard_ids()
    )
    with QueryService(store, backend=backend, planner=planner) as service:
        full = service.execute_batch(SUITE, use_cache=False)
        for query, whole in zip(SUITE, full):
            for name in store.document_names():
                expected = standalone[query, name]
                if not opens_with_child_step(query):
                    assert whole.per_document[name].tobytes() == expected.tobytes()
                scoped = {
                    mode: service.execute(
                        query, document=name, mode=mode, use_cache=False
                    )
                    for mode in ("materialize", "count", "exists")
                }
                ranks = scoped["materialize"].per_document
                assert list(ranks) == [name], query
                assert ranks[name].dtype == np.int64
                assert ranks[name].tobytes() == expected.tobytes(), (query, name)
                assert scoped["count"].per_document == {name: len(expected)}
                assert scoped["exists"].value is (len(expected) > 0)


def test_scoped_plans_compile_in_the_service_only(forest, tmp_path, monkeypatch):
    """Two executions of one scoped query: the service compiles each
    (re-anchored) plan; a lane receives ready operators, has no compiler
    to re-compile them with, and never goes back through
    ``Evaluator.compile``."""
    import repro.service.executor as executor
    import repro.service.service as service_module
    import repro.xpath.evaluator as evaluator_module

    store = ShardedStore.build(str(tmp_path / "s"), forest, shards=4)
    compiled = {"service": 0, "facade": 0}

    def in_service(plan, *args, **kwargs):
        compiled["service"] += 1
        assert kwargs == {"scoped": True}
        return compile_plan(plan, *args, **kwargs)

    def in_facade(*args, **kwargs):
        compiled["facade"] += 1
        return compile_plan(*args, **kwargs)

    assert not hasattr(executor, "compile_plan")
    assert not hasattr(executor, "parse_with_cache")
    monkeypatch.setattr(service_module, "compile_plan", in_service)
    monkeypatch.setattr(evaluator_module, "compile_plan", in_facade)
    name = store.document_names()[2]
    with QueryService(store, backend="serial") as service:
        first = service.execute("//seller | //buyer", document=name, use_cache=False)
        again = service.execute("//seller | //buyer", document=name, use_cache=False)
    assert first.total == again.total > 0
    assert compiled["service"] == 2
    assert compiled["facade"] == 0


def test_unscopable_paths_fail_before_dispatch(store):
    name = store.document_names()[0]
    with QueryService(store, backend="serial") as service:
        service.backend.run_batch = None  # any dispatch would TypeError
        for query in ("/ancestor::site", "/following::person", "//a | /parent::b"):
            with pytest.raises(XPathEvaluationError, match="cannot start"):
                service.execute(query, document=name, use_cache=False)
            with pytest.raises(XPathEvaluationError, match="cannot start"):
                service.analyze(query, document=name)
        del service.backend.run_batch
        assert service.execute("/", document=name, use_cache=False).total == 0


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: an absolute path inside a predicate resolves "
    "against the shard plane, not the member document",
)
def test_an_absolute_path_in_a_predicate_means_the_member(forest, tmp_path):
    """Eight persons per member: ``count(//person) > 10`` holds in no
    member standing alone, whatever the shard count."""
    query = "//person[count(//person) > 10]"
    expected = {name: len(ranks) for name, ranks in member_answers(forest, query).items()}
    assert set(expected.values()) == {0}
    for shards in (1, 2, 4):
        store = ShardedStore.build(str(tmp_path / str(shards)), forest, shards=shards)
        with QueryService(store, backend="serial") as service:
            unscoped = service.execute(query, mode="count", use_cache=False)
            assert unscoped.per_document == expected, shards
            for name in store.document_names():
                scoped = service.execute(query, document=name, mode="count", use_cache=False)
                assert scoped.per_document == {name: 0}, (shards, name)
