"""Adaptive-loop suite: observations, feedback store, consumers.

The headline property mirrors the repo's other invariants: **feedback
is a cost decision, not a semantic one** — query results with the
observation layer and feedback-blended planning enabled are
byte-identical to fully static planning, on both engines, across every
execution backend.  Around it: the EWMA aggregates and their
generation-bump rules, manifest persistence across close/reopen and
commits, plan-cache fencing on the feedback generation, answers
identical under every SkipMode, and heat-driven shard split/merge
rebalancing.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.staircase import SkipMode
from repro.feedback import (
    DriveObservation,
    FeedbackStore,
    PipelineObserver,
    StepObservation,
    predicate_signature,
    step_signature,
)
from repro.service import QueryService, ShardedStore, UpdateOp
from repro.xmltree.model import element, text
from repro.xpath.pipeline import compile_plan

ENGINES = ("scalar", "vectorized")
BACKENDS = ("serial", "fabric:2")

#: Queries the feedback-is-invisible property is checked under — steps,
#: predicates, positional selects, a union, and a value comparison.
PROPERTY_QUERIES = (
    "//person",
    "//person[profile]",
    "//person[profile][name]",
    "/site/people/person[2]",
    "//name | //profile",
    '//person[name="p1"]',
)


def person(i, profiled):
    children = [element("name", text(f"p{i}"))]
    if profiled:
        children.append(element("profile", element("age", text(str(20 + i)))))
    return element("person", *children)


def site(start, count, profile_every=2):
    return element(
        "site",
        element(
            "people",
            *[
                person(start + i, (start + i) % profile_every == 0)
                for i in range(count)
            ],
        ),
    )


def forest(docs=6, people=4):
    return [(f"d{i}", site(i * people, people)) for i in range(docs)]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("feedback") / "store")
    return ShardedStore.build(directory, forest(), shards=3)


def drive(shard, sig=None, ratio=0.5, n_in=100, ns=1_000_000, **kw):
    steps = ()
    if sig is not None:
        steps = (StepObservation(sig, n_in, int(n_in * ratio), 500),)
    return DriveObservation(
        shard_id=shard, engine=kw.pop("engine", "scalar"),
        elapsed_ns=ns, steps=steps, **kw,
    )


def result_bytes(service, engine, **kwargs):
    results = service.execute_batch(
        PROPERTY_QUERIES, engine=engine, use_cache=False, **kwargs
    )
    return [
        {name: a.tobytes() for name, a in r.per_document.items()}
        for r in results
    ]


# ----------------------------------------------------------------------
# FeedbackStore aggregates
# ----------------------------------------------------------------------
class TestFeedbackStore:
    SIG = step_signature("descendant", "person")

    def test_first_observation_publishes(self):
        fb = FeedbackStore()
        assert fb.absorb([drive(0, self.SIG, ratio=0.25)]) is True
        assert fb.generation == 1
        ratio, samples = fb.observed(self.SIG)
        assert ratio == pytest.approx(0.25)
        assert samples == 1

    def test_stable_aggregate_does_not_bump(self):
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG, ratio=0.5)])
        generation = fb.generation
        # The same ratio again moves the EWMA by zero — no bump.
        assert fb.absorb([drive(0, self.SIG, ratio=0.5)]) is False
        assert fb.generation == generation

    def test_large_move_bumps_generation(self):
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG, ratio=0.5)])
        generation = fb.generation
        fb.absorb([drive(0, self.SIG, ratio=8.0)] * 4)
        assert fb.generation > generation

    def test_observed_is_sample_weighted_across_shards(self):
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG, ratio=1.0)])
        fb.absorb([drive(1, self.SIG, ratio=0.0)] * 3)
        ratio, samples = fb.observed(self.SIG)
        assert samples == 4
        # Shard 1's EWMA (0.0, 3 samples) outweighs shard 0's (1.0, 1).
        assert ratio == pytest.approx(0.25)

    def test_unobserved_signature_is_none(self):
        assert FeedbackStore().observed(("step", "child", "nope")) is None

    def test_heat_accumulates(self):
        fb = FeedbackStore()
        fb.absorb([drive(2, ns=100), drive(2, ns=50), drive(1, ns=7)])
        assert fb.heat_snapshot() == {2: (150, 2), 1: (7, 1)}

    def test_manifest_round_trip(self):
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG, ratio=0.3, scanned=80, skipped=20)] * 5)
        data = fb.to_manifest()
        assert fb.dirty is False  # to_manifest marks saved
        loaded = FeedbackStore.from_manifest(data)
        assert loaded.generation == fb.generation
        assert loaded.observed(self.SIG) == fb.observed(self.SIG)
        assert loaded.heat_snapshot() == fb.heat_snapshot()
        # Loaded aggregates are published: replaying the same ratio must
        # not spuriously bump the reopened generation.
        assert loaded.absorb([drive(0, self.SIG, ratio=0.3)]) is False

    def test_manifest_written_at_the_parent_commit_still_opens(self):
        # PR 17 manifests carry a per-shard "skip" table (the deleted
        # SkipMode tuner's EWMA); it is ignored, the rest loads.
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG, ratio=0.3)] * 5)
        data = fb.to_manifest()
        assert "skip" not in data
        loaded = FeedbackStore.from_manifest({**data, "skip": {"0": [0.2, 5]}})
        assert loaded.to_manifest() == data

    def test_retain_and_reset(self):
        fb = FeedbackStore()
        fb.absorb([drive(0, self.SIG), drive(1, self.SIG), drive(2)])
        fb.retain_shards([0, 1])
        assert set(fb.heat_snapshot()) == {0, 1}
        fb.reset_shard(0)
        assert set(fb.heat_snapshot()) == {1}
        ratio, samples = fb.observed(self.SIG)
        assert samples == 1  # only shard 1's cell survives


class TestSkipTuning:
    def test_forced_overrides_keep_results_identical(self, store):
        # The SkipMode a plan carries is a pure execution-strategy
        # choice: the served answer is the same under every one.
        with QueryService(store, backend="serial", feedback=False) as service:
            baseline = result_bytes(service, "scalar")
            plans = [
                service.explain(query, engine="scalar")
                for query in PROPERTY_QUERIES
            ]
            for mode in SkipMode:
                forced = [
                    (compile_plan(plan, skip_mode=mode), "scalar", None)
                    for plan in plans
                ]
                assert all(plan.skip_mode is mode for plan, _, _ in forced)
                assert [
                    {name: ranks.tobytes() for name, ranks in answer.items()}
                    for answer in service.backend.run_batch(forced)
                ] == baseline


# ----------------------------------------------------------------------
# The loop end to end: observe → absorb → persist → re-plan
# ----------------------------------------------------------------------
class TestObservation:
    def test_analyze_returns_observations(self, store):
        with QueryService(store, backend="serial") as service:
            result, plan, observations = service.analyze("//person[profile]")
            assert result.total == service.execute("//person[profile]").total
            assert {obs.shard_id for obs in observations} == set(
                store.shard_ids()
            )
            signatures = {
                step.signature for obs in observations for step in obs.steps
            }
            assert step_signature("descendant", "person") in signatures
            assert any(sig[0] == "pred" for sig in signatures)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cli_analyze_and_service_analyze_report_the_same_rows(
        self, engine, tmp_path, monkeypatch, capsys
    ):
        """``explain --analyze`` on one document and
        ``QueryService.analyze`` on a one-shard store of it ride the
        same observed drive: identical (signature, n_in, n_out) rows."""
        import repro.cli as cli
        from repro.encoding.persist import save
        from repro.encoding.prepost import encode

        tree = site(0, 9)
        archive = str(tmp_path / "doc.npz")
        save(encode(tree), archive)
        one_shard = ShardedStore.build(str(tmp_path / "s"), [("d", tree)])
        query = "//person[profile]/name"

        def rows(observations):
            (observation,) = observations
            assert observation.engine == engine
            return [(s.signature, s.n_in, s.n_out) for s in observation.steps]

        seen = []
        render = cli._render_analysis
        monkeypatch.setattr(
            cli, "_render_analysis",
            lambda plan, obs: seen.append(rows(obs)) or render(plan, obs),
        )
        code = cli.main(["explain", archive, query, "--analyze", "--engine", engine])
        assert code == 0 and "observed: 1 sampled drive" in capsys.readouterr().out
        with QueryService(one_shard, backend="serial", engine=engine) as service:
            _, _, observations = service.analyze(query)
        assert seen == [rows(observations)]
        assert seen[0][0] == (step_signature("descendant", "person"), 1, 9)

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "query",
        (
            "//person[name = //person/name]",
            "//open_auction[bidder[1]/increase > 10]",
            "//person[address/city = 'x' or name]",
        ),
    )
    def test_nested_drives_stay_out_of_the_observation(self, engine, query):
        """The observer is an argument of the one driver, so the drives a
        per-candidate predicate starts (``Evaluator._expr`` →
        ``evaluate()``) cannot record into it: exactly the top-level
        operators, each once — these ratios are what the planner blends
        into its estimates and ``explain --analyze`` prints."""
        from repro.encoding.prepost import encode
        from repro.harness.workloads import get_forest
        from repro.xpath.evaluator import Evaluator
        from repro.xpath.parser import parse_xpath
        from repro.xpath.pipeline import observed_drive

        doc = encode(get_forest(4, 0.05)[0][1])  # one 8-person member
        plan = compile_plan(query)
        top_level = []
        for step in parse_xpath(query).steps:
            top_level.append(step_signature(step.axis, step.test))
            top_level += [
                predicate_signature(step.axis, p) for p in step.predicates
            ]
        observation, ranks = observed_drive(plan, Evaluator(doc, engine=engine))
        assert [step.signature for step in observation.steps] == top_level
        assert len(top_level) == 3 and len(ranks) > 0
        feedback = FeedbackStore()
        feedback.absorb([observation])
        assert feedback.observed(top_level[1]) is not None
        for inner in ("name", "bidder", "increase", "address", "city"):
            assert feedback.observed(step_signature("child", inner)) is None
        assert feedback.observed(("pos", "child", "bidder")) is None

    def test_sampled_batches_absorb(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_FEEDBACK_SAMPLE", "1")
        with QueryService(store, backend="serial") as service:
            assert service.feedback_sample == 1
            service.execute("//person", use_cache=False)
            assert store.feedback.heat_snapshot() != {}

    def test_observer_records_cardinalities(self):
        observer = PipelineObserver()
        observer.record(("step", "child", "a"), 4, 12, 900)
        (obs,) = observer.steps
        assert (obs.n_in, obs.n_out, obs.ns) == (4, 12, 900)
        assert obs.ratio == pytest.approx(3.0)

    def test_signature_helpers_are_flat_strings(self):
        sig = predicate_signature("child", "profile")
        assert sig == ("pred", "child", "profile")
        assert all(isinstance(part, str) for part in sig)

    def test_stats_snapshot_has_feedback_section(self, store):
        with QueryService(store, backend="serial") as service:
            service.analyze("//person")
            section = service.stats_snapshot()["feedback"]
            assert section["enabled"] is True
            assert section["generation"] >= 1
            assert section["sampled_drives"] >= len(store.shard_ids())
        with QueryService(store, backend="serial", feedback=False) as static:
            assert static.stats_snapshot()["feedback"] == {"enabled": False}


class TestPersistence:
    def test_feedback_survives_close_reopen(self, tmp_path):
        directory = str(tmp_path / "persist")
        store = ShardedStore.build(directory, forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            service.analyze("//person[profile]")
            generation = store.feedback.generation
            observed = store.feedback.observed(
                step_signature("descendant", "person")
            )
            assert generation >= 1 and observed is not None
        reopened = ShardedStore.open(directory)
        assert reopened.feedback.generation == generation
        ratio, samples = reopened.feedback.observed(
            step_signature("descendant", "person")
        )
        assert (ratio, samples) == (
            pytest.approx(observed[0]),
            observed[1],
        )

    def test_commit_persists_feedback_with_the_epoch(self, tmp_path):
        directory = str(tmp_path / "commit")
        store = ShardedStore.build(directory, forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            service.analyze("//person")
            service.apply_updates(
                [UpdateOp(op="add", document="dX", tree=site(99, 2))]
            )
            generation = store.feedback.generation
            epoch = store.epoch
        reopened = ShardedStore.open(directory)
        assert reopened.epoch == epoch
        assert reopened.feedback.generation == generation

    def test_removed_shard_aggregates_dropped_at_commit(self, tmp_path):
        directory = str(tmp_path / "drop")
        docs = forest(docs=4, people=2)
        store = ShardedStore.build(directory, docs, shards=2)
        with QueryService(store, backend="serial") as service:
            service.analyze("//person")
            assert set(store.feedback.heat_snapshot()) == {0, 1}
            # Empty shard 1 (its two documents removed): the commit must
            # drop its aggregates with it.
            gone = store.shard_entry(1)["documents"]
            service.apply_updates(
                [UpdateOp(op="remove", document=name) for name in gone]
            )
        assert store.shard_ids() == [0]
        assert set(store.feedback.heat_snapshot()) <= {0}
        reopened = ShardedStore.open(directory)
        assert set(reopened.feedback.heat_snapshot()) <= {0}


class TestPlanCacheFencing:
    def test_generation_bump_recosts_cached_plans(self, tmp_path):
        # The regression this PR guards against: feedback arrives, the
        # generation bumps, but a cached plan keyed without it keeps
        # serving the stale costing.
        store = ShardedStore.build(str(tmp_path / "fence"), forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            before = service.explain("//person[profile]")
            # Unchanged generation → the very same cached object.
            assert service.explain("//person[profile]") is before
            generation = store.feedback.generation
            service.analyze("//person[profile]")  # first absorb publishes
            assert store.feedback.generation > generation
            after = service.explain("//person[profile]")
            assert after is not before
            assert any(
                "feedback" in note for step in after.steps for note in step.notes
            )

    def test_feedback_moves_the_selective_predicate_first(self, tmp_path):
        # Built to defeat static costing: a dictionary section inflates
        # count(name), so the only selective predicate — the value
        # comparison — is costed dearest and ordered last.  One observed
        # drive measures its selectivity and the re-plan runs it first;
        # the answer does not move.
        def document(index):
            items = [
                element(
                    "item",
                    element("status", text("ok")),
                    element("avail", text("yes")),
                    element("name", text("needle" if i == index else f"i{i}")),
                )
                for i in range(200)
            ]
            words = [element("name", text(f"w{j}")) for j in range(150)]
            return element(
                "site", element("items", *items), element("dictionary", *words)
            )

        query = '//item[status][avail][name="needle"]'
        store = ShardedStore.build(
            str(tmp_path / "adversarial"),
            [(f"d{i}", document(i)) for i in range(3)],
            shards=2,
        )

        def order(service):
            return [
                str(p) for p in service.explain(query).steps[0].step.predicates
            ]

        with QueryService(store, backend="serial") as service:
            static = order(service)
            expected = service.execute(query, use_cache=False).counts()
            assert static[-1] == 'child::name = "needle"'
            service.analyze(query)
            assert order(service) == static[-1:] + static[:-1]
            assert service.execute(query, use_cache=False).counts() == expected
            assert sum(expected.values()) == 3

    def test_feedback_disabled_pins_generation_zero(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "pin"), forest(), shards=2)
        with QueryService(store, backend="serial", feedback=False) as service:
            plan = service.explain("//person")
            # Absorbing directly cannot re-cost anything: the service is
            # static, its generation is pinned to 0.
            store.feedback.absorb(
                [drive(0, step_signature("descendant", "person"), ratio=9.0)]
            )
            assert service.explain("//person") is plan


# ----------------------------------------------------------------------
# Feedback is invisible in results
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_feedback_on_equals_feedback_off(
        self, store, backend, engine, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FEEDBACK_SAMPLE", "1")
        with QueryService(store, backend=backend, feedback=False) as static:
            expected = result_bytes(static, engine)
        with QueryService(store, backend=backend) as adaptive:
            # Twice: the first pass observes, the second runs under
            # feedback-blended plans — both must match static planning.
            assert result_bytes(adaptive, engine) == expected
            assert result_bytes(adaptive, engine) == expected

    @given(
        queries=st.lists(
            st.sampled_from(PROPERTY_QUERIES), min_size=1, max_size=4
        ),
        engine=st.sampled_from(ENGINES),
    )
    @settings(max_examples=20, deadline=None)
    def test_observed_batches_match_static(self, store, queries, engine):
        with QueryService(store, backend="serial", feedback=False) as static:
            expected = [
                r.counts()
                for r in static.execute_batch(
                    queries, engine=engine, use_cache=False, mode="count"
                )
            ]
        os.environ["REPRO_FEEDBACK_SAMPLE"] = "1"
        try:
            with QueryService(store, backend="serial") as adaptive:
                got = [
                    r.counts()
                    for r in adaptive.execute_batch(
                        queries, engine=engine, use_cache=False, mode="count"
                    )
                ]
        finally:
            del os.environ["REPRO_FEEDBACK_SAMPLE"]
        assert got == expected


# ----------------------------------------------------------------------
# Heat-driven rebalancing
# ----------------------------------------------------------------------
def heat_up(feedback, shares, drives=40):
    """Inject per-shard heat with the given wall-time shares."""
    feedback.absorb(
        [
            drive(shard, ns=int(share * 1_000_000) or 1)
            for shard, share in shares.items()
            for _ in range(drives)
        ]
    )


class TestRebalancing:
    def build(self, tmp_path, name, shards, docs=6):
        directory = str(tmp_path / name)
        return ShardedStore.build(directory, forest(docs=docs), shards=shards)

    def test_hot_shard_splits(self, tmp_path):
        store = self.build(tmp_path, "hot", shards=2)
        with QueryService(store, backend="serial", feedback=False) as service:
            before = result_bytes(service, "vectorized")
        heat_up(store.feedback, {0: 0.95, 1: 0.05})
        summary = store.apply_updates(
            [UpdateOp(op="update", document="d5", tree=site(50, 4))]
        )
        (move,) = summary["rebalanced"]
        assert move["kind"] == "split" and move["from"] == 0
        new_id = move["to"]
        assert new_id == 2  # fresh id, not a reused one
        assert set(store.shard_ids()) == {0, 1, 2}
        assert store.shard_entry(new_id)["documents"] == move["documents"]
        # The split shard's stale aggregates are gone.
        assert 0 not in store.feedback.heat_snapshot()
        # Results are unchanged by the re-sharding.
        with QueryService(store, backend="serial", feedback=False) as service:
            assert result_bytes(service, "vectorized") == before

    def test_cold_shards_merge(self, tmp_path):
        store = self.build(tmp_path, "cold", shards=3)
        store.HOT_SHARE = 2.0  # isolate the merge path
        heat_up(store.feedback, {0: 0.96, 1: 0.02, 2: 0.02})
        with QueryService(store, backend="serial", feedback=False) as service:
            before = result_bytes(service, "vectorized")
        summary = store.apply_updates(
            [UpdateOp(op="update", document="d0", tree=site(0, 4))]
        )
        (move,) = summary["rebalanced"]
        assert move["kind"] == "merge"
        assert {move["from"], move["to"]} == {1, 2}
        assert move["from"] not in store.shard_ids()
        with QueryService(store, backend="serial", feedback=False) as service:
            assert result_bytes(service, "vectorized") == before

    def test_bounded_moves_per_commit(self, tmp_path):
        store = self.build(tmp_path, "bounded", shards=2, docs=12)
        heat_up(store.feedback, {0: 0.95, 1: 0.05})
        summary = store.apply_updates(
            [UpdateOp(op="update", document="d0", tree=site(0, 4))]
        )
        moved = sum(len(m["documents"]) for m in summary["rebalanced"])
        assert 0 < moved <= store.REBALANCE_MAX_MOVES

    def test_thin_heat_stays_inert(self, tmp_path):
        store = self.build(tmp_path, "thin", shards=2)
        heat_up(store.feedback, {0: 0.95, 1: 0.05}, drives=2)
        summary = store.apply_updates(
            [UpdateOp(op="update", document="d0", tree=site(0, 4))]
        )
        assert "rebalanced" not in summary
        assert set(store.shard_ids()) == {0, 1}

    def test_rebalance_opt_out(self, tmp_path):
        store = self.build(tmp_path, "optout", shards=2)
        heat_up(store.feedback, {0: 0.95, 1: 0.05})
        summary = store.apply_updates(
            [UpdateOp(op="update", document="d0", tree=site(0, 4))],
            rebalance=False,
        )
        assert "rebalanced" not in summary
        assert set(store.shard_ids()) == {0, 1}
