"""Public-API contract tests: exports exist, are documented, and the
package's advertised quickstart works as written."""

import importlib
import inspect

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
