"""Public-API contract tests: exports exist, are documented, and the
package's advertised quickstart works as written."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.xmltree",
    "repro.storage",
    "repro.encoding",
    "repro.core",
    "repro.baselines",
    "repro.engine",
    "repro.xpath",
    "repro.xmark",
    "repro.simulator",
    "repro.harness",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), package_name
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name}"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__ and len(package.__doc__.strip()) > 40

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_callables_are_documented(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            item = getattr(package, name)
            if inspect.isfunction(item) or inspect.isclass(item):
                assert item.__doc__, f"{package_name}.{name} lacks a docstring"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestRemovedSpellings:
    """PR 12 deleted the pool backend and every duplicate spelling on
    the execution stack; nothing may quietly grow back as a shim."""

    def test_service_exports(self):
        import repro.service as service
        from repro.service import backend, executor

        for name in ("PoolBackend", "ShardExecutor"):
            assert name not in service.__all__
            assert not hasattr(service, name)
        assert not hasattr(backend, "PoolBackend")
        assert not hasattr(backend, "resolve_backend")
        assert not hasattr(executor, "ShardExecutor")
        assert not hasattr(service.QueryService, "executor")
        assert not hasattr(service.QueryService, "cache_info")

    def test_evaluator_has_one_engine_spelling(self):
        from repro.xpath import axes, evaluator

        assert not hasattr(evaluator, "_is_positional_predicate")
        for callable_ in (
            evaluator.Evaluator,
            evaluator.evaluate,
            axes.AxisExecutor,
            axes.resolve_engine,
        ):
            assert "strategy" not in inspect.signature(callable_).parameters


    def test_execution_decisions_have_one_carrier(self, tmp_path):
        """PR 15: the compiled plan carries execution decisions — the
        evaluator side-channel, the worker's apply/restore context
        manager, and three one-valued options are gone."""
        from repro.server import ServerConfig
        from repro.service import ShardedStore, ShardWorkerState
        from repro.xmltree.model import element
        from repro.xpath.evaluator import Evaluator
        from repro.xpath.pipeline import PhysicalPlan, compile_plan

        for name in ("_set_pushdown", "_push_at", "_pushdown_config",
                     "evaluate_step", "bulk_predicate_mask"):
            assert not hasattr(Evaluator, name), name
        for name in ("_applied", "_observed_drive"):
            assert not hasattr(ShardWorkerState, name), name
        fields = set(PhysicalPlan.__dataclass_fields__)
        assert not fields & {"source", "pushdown_steps"}
        assert not hasattr(compile_plan("//a"), "pushdown_steps")
        assert "dispatch_threads" not in ServerConfig.__dataclass_fields__
        directory = str(tmp_path / "s")
        ShardedStore.build(directory, [("d", element("a"))])
        with pytest.raises(TypeError):
            ShardedStore.open(directory, mmap=False)
        with pytest.raises(TypeError):
            ShardWorkerState(directory, mmap=False)


    def test_the_adaptive_loop_is_gone(self, tmp_path, monkeypatch):
        """PR 21: plans come from statistics and nothing writes back —
        no feedback package, no rebalancing, no sampling interval."""
        from repro.service import QueryService, ShardedStore
        from repro.xmltree.model import element
        from repro.xpath.planner import Planner

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.feedback")
        with pytest.raises(TypeError):
            Planner(frozenset(), feedback=None)
        for name in ("feedback", "save_feedback", "_rebalance_locked",
                     "REBALANCE_MAX_MOVES", "MIN_HEAT_SAMPLES",
                     "HOT_SHARE", "COLD_SHARE"):
            assert not hasattr(ShardedStore, name), name
        for name in ("_observed", "_blend", "FEEDBACK_BLEND_K"):
            assert not hasattr(Planner, name), name
        directory = str(tmp_path / "s")
        store = ShardedStore.build(
            directory, [("d", element("a", element("b")))]
        )
        with pytest.raises(TypeError):
            store.apply_updates([], rebalance=False)
        assert not hasattr(store, "feedback")
        # The sampling interval's variable reaches nothing: no batch
        # carries a sink, whatever it says.
        monkeypatch.setenv("REPRO_FEEDBACK_SAMPLE", "1")
        with QueryService(store, backend="serial") as service:
            for name in ("feedback_enabled", "feedback_sample", "_generation"):
                assert not hasattr(service, name), name
            calls = []
            run_batch = service.backend.run_batch
            service.backend.run_batch = lambda *args, **kwargs: (
                calls.append(kwargs) or run_batch(*args, **kwargs)
            )
            assert service.execute("//b", use_cache=False).total == 1
            assert calls == [{}]

    def test_the_cost_model_is_gone(self, tmp_path):
        """A plan is a function of the query: no statistics catalogue,
        no per-step estimates, no planner knobs, no ``use_planner``."""
        import repro.xpath as xpath
        from repro.encoding.collection import DocumentCollection
        from repro.service import QueryService, ShardedStore, ShardWorkerState
        from repro.xmltree.model import element
        from repro.xpath import planner
        from repro.xpath.pipeline import PhysicalPlan, compile_plan

        for name in ("TagStatistics", "StepDecision"):
            assert not hasattr(planner, name) and not hasattr(xpath, name), name
        for knob in ("rewrite", "pushdown", "engine"):
            with pytest.raises(TypeError):
                planner.Planner(frozenset(), **{knob: True})
        for name in ("_decide_steps", "_apply_symmetry", "_skip_mode",
                     "REWRITE_MARGIN", "PREDICATE_EVAL_WEIGHT"):
            assert not hasattr(planner.Planner, name), name
        assert set(planner.QueryPlan.__dataclass_fields__) == {
            "query", "original", "path", "pushdown_steps", "rewrites",
        }
        assert "skip_mode" not in PhysicalPlan.__dataclass_fields__
        assert "skip_mode" not in inspect.signature(compile_plan).parameters
        assert not hasattr(ShardWorkerState, "_set_skip")
        for name in ("tag_statistics", "shard_tag_statistics", "height"):
            assert not hasattr(ShardedStore, name), name
        assert not hasattr(DocumentCollection, "tag_statistics")
        store = ShardedStore.build(str(tmp_path / "s"), [("d", element("a"))])
        with QueryService(store, backend="serial") as service:
            assert not hasattr(service, "_planners")
            with pytest.raises(TypeError):
                service.execute("//a", use_planner=False)
            with pytest.raises(TypeError):
                service.execute_batch(["//a"], use_planner=False)

    def test_what_the_frozen_e2e_harness_still_reads(self, tmp_path):
        """Two spellings outlive the loop until a ``[benchmark]`` PR
        edits ``benchmarks/e2e``: ``e2e_oracle.py:84`` constructs its
        service with ``feedback=False`` and ``e2e_runner.py:459``
        subtracts two ``/stats`` ``feedback.generation`` readings."""
        from repro.service import QueryService, ShardedStore
        from repro.xmltree.model import element

        store = ShardedStore.build(str(tmp_path / "s"), [("d", element("a"))])
        for value in (False, True):
            with QueryService(store, backend="serial", feedback=value) as service:
                service.analyze("//a")
                assert service.stats_snapshot()["feedback"] == {
                    "enabled": False,
                    "generation": 0,
                }


class TestServedImports:
    def test_serving_imports_no_development_tooling(self):
        """The linter and lock recorder are tools: a served process
        (service + server) never imports them."""
        environment = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.service, repro.server; "
                "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))",
            ],
            capture_output=True, text=True, timeout=60, env=environment, check=True,
        )
        assert done.stdout.strip() == "[]"


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The README's quickstart, executed verbatim."""
        from repro import (
            JoinStatistics,
            SkipMode,
            encode,
            evaluate,
            parse,
            staircase_join,
        )

        doc = encode(
            parse("<a><b><c/></b><d/><e><f><g/><h/></f><i><j/></i></e></a>")
        )
        result = evaluate(doc, "/descendant::g/ancestor::f")
        assert [doc.tag_of(int(p)) for p in result] == ["f"]

        stats = JoinStatistics()
        context = doc.pres_with_tag("f")
        descendants = staircase_join(
            doc, context, "descendant", SkipMode.ESTIMATE, stats
        )
        assert len(descendants) == 2
        assert stats.duplicates_generated == 0

    def test_xmark_snippet(self):
        from repro import evaluate, xmark

        doc = xmark.generate_table(0.05)
        education = evaluate(doc, "/descendant::profile/descendant::education")
        assert len(education) >= 0  # runs; cardinality checked elsewhere

    def test_module_quickstart_doctest(self):
        """The repro package docstring example."""
        from repro import xmark, xpath

        doc = xmark.generate_table(0.1)
        hits = xpath.evaluate(doc, "/descendant::increase/ancestor::bidder")
        assert [doc.tag_of(int(p)) for p in hits[:1]] == ["bidder"]
