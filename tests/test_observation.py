"""Observation suite: ``QueryService.analyze`` and ``explain --analyze``.

The headline property mirrors the repo's other invariants: **observing
a drive never changes its answer** — ``analyze(q).result`` is
byte-identical to an unobserved ``execute(q)``, on both engines, across
every execution backend.  Around it: what a
:class:`~repro.xpath.observation.DriveObservation` carries (one record
per top-level operator actually run, nested drives stay out) and that
the CLI and the service report the same rows.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.service import QueryService, ShardedStore
from repro.xmltree.model import element, text
from repro.xpath.observation import (
    PipelineObserver,
    predicate_signature,
    step_signature,
)
from repro.xpath.pipeline import compile_plan

ENGINES = ("scalar", "vectorized")
BACKENDS = ("serial", "fabric:2")

#: Queries the observed == unobserved property is checked under — steps,
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
    directory = str(tmp_path_factory.mktemp("observation") / "store")
    return ShardedStore.build(directory, forest(), shards=3)


# ----------------------------------------------------------------------
# What an observed drive reports
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
            lambda obs: seen.append(rows(obs)) or render(obs),
        )
        code = cli.main(["explain", archive, query, "--analyze", "--engine", engine])
        assert code == 0 and "observed: 1 drive(s) over 1 shard(s)" in capsys.readouterr().out
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
        operators, each once — the rows ``explain --analyze`` prints."""
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

# ----------------------------------------------------------------------
# Observation is invisible in results
# ----------------------------------------------------------------------
def answer_bytes(result):
    return {name: a.tobytes() for name, a in result.per_document.items()}


class TestByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_observed_equals_unobserved(self, store, backend, engine):
        with QueryService(store, backend=backend, engine=engine) as service:
            for query in PROPERTY_QUERIES:
                observed, _, observations = service.analyze(query)
                plain = service.execute(query, use_cache=False)
                assert answer_bytes(observed) == answer_bytes(plain)
                assert {o.shard_id for o in observations} == set(
                    store.shard_ids()
                )

    @given(
        query=st.sampled_from(PROPERTY_QUERIES),
        engine=st.sampled_from(ENGINES),
        mode=st.sampled_from(("materialize", "count")),
    )
    @settings(max_examples=20, deadline=None)
    def test_observed_modes_match_unobserved(self, store, query, engine, mode):
        with QueryService(store, backend="serial", engine=engine) as service:
            observed, _, _ = service.analyze(query, mode=mode)
            plain = service.execute(query, use_cache=False, mode=mode)
        assert observed.counts() == plain.counts()
        assert observed.total == plain.total
