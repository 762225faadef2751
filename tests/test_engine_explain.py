"""EXPLAIN output tests."""

import pytest

from repro.core.staircase import SkipMode
from repro.engine.explain import explain


class TestExplain:
    def test_q1_plan_shape(self, small_xmark):
        text = explain(small_xmark, "/descendant::profile/descendant::education")
        assert "XPath: /descendant::profile/descendant::education" in text
        assert "anchor: document node" in text
        assert "staircase_join_desc (skip=estimate)" in text
        assert "step 1" in text and "step 2" in text
        assert "epilogue: none" in text

    def test_q2_plan_mentions_both_operators(self, small_xmark):
        text = explain(small_xmark, "/descendant::increase/ancestor::bidder")
        assert "staircase_join_desc" in text
        assert "staircase_join_anc" in text

    def test_auto_pushdown_decides_for_selective_tags(self, small_xmark):
        text = explain(small_xmark, "/descendant::profile/descendant::education")
        assert "PUSHDOWN" in text
        assert "cost model" in text

    def test_forced_pushdown_off(self, small_xmark):
        text = explain(
            small_xmark, "/descendant::profile/descendant::education", pushdown=False
        )
        assert "PUSHDOWN" not in text
        assert "forced" in text

    def test_forced_pushdown_on(self, small_xmark):
        text = explain(
            small_xmark, "/descendant::profile/descendant::education", pushdown=True
        )
        assert text.count("PUSHDOWN") == 2

    def test_skip_mode_in_plan(self, small_xmark):
        text = explain(small_xmark, "/descendant::bidder", mode=SkipMode.SKIP)
        assert "skip=skip" in text

    def test_structural_axes_described(self, small_xmark):
        text = explain(small_xmark, "/site/people/person/@id")
        assert "parent-column equi-join" in text
        assert "kind = attribute" in text

    def test_degenerate_axes_described(self, small_xmark):
        text = explain(small_xmark, "following::node()")
        assert "degenerates to a singleton" in text

    def test_predicates_listed(self, small_xmark):
        text = explain(small_xmark, "//open_auction[bidder]")
        assert "predicate     : [child::bidder]" in text

    def test_union_plans(self, small_xmark):
        text = explain(small_xmark, "//bidder | //seller")
        assert text.startswith("UNION")
        assert text.count("XPath:") == 2

    def test_cardinalities_from_catalogue(self, small_xmark):
        expected = len(small_xmark.pres_with_tag("increase"))
        text = explain(small_xmark, "/descendant::increase")
        assert f"({expected:,} elements)" in text


class TestExplainCLI:
    def test_cli_explain(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "d.xml"
        path.write_text("<a><b/><b/></a>")
        assert main(["explain", str(path), "/descendant::b"]) == 0
        out = capsys.readouterr().out
        assert "staircase_join_desc" in out

    def test_cli_explain_pushdown_off(self, tmp_path, capsys):
        """The plan pushes every eligible name test down; ``explain``
        has no ``--pushdown`` switch to override it."""
        from repro.cli import main

        path = tmp_path / "d.xml"
        path.write_text("<a><b/></a>")
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", str(path), "/descendant::b", "--pushdown", "off"])
        assert exit_info.value.code == 2
        assert main(["explain", str(path), "/descendant::b", "--operators"]) == 0
        assert "PUSHDOWN" in capsys.readouterr().out
