"""CLI tests (invoked in-process through ``repro.cli.main``)."""

import inspect
import json
import os

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.xpath.pipeline import AXIS_OPERATORS, operator_name


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "doc.xml"
    path.write_text(
        "<site><people>"
        '<person id="p0"><name>Ada</name></person>'
        '<person id="p1"><name>Alan</name></person>'
        "</people></site>"
    )
    return str(path)


class TestGenerateEncode:
    def test_generate_writes_xml(self, tmp_path, capsys):
        out = str(tmp_path / "g.xml")
        assert main(["generate", "--size", "0.05", "-o", out]) == 0
        content = open(out).read()
        assert content.startswith("<?xml")
        assert "<site>" in content
        assert "wrote" in capsys.readouterr().err

    def test_generate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.xml"), str(tmp_path / "b.xml")
        main(["generate", "--size", "0.05", "-o", a])
        main(["generate", "--size", "0.05", "-o", b])
        assert open(a).read() == open(b).read()

    def test_encode_round_trip(self, xml_file, tmp_path, capsys):
        out = str(tmp_path / "doc.npz")
        assert main(["encode", xml_file, "-o", out]) == 0
        assert main(["query", out, "//person"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2


class TestQuery:
    def test_query_prints_rows(self, xml_file, capsys):
        assert main(["query", xml_file, "//person"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        assert len(lines) == 2
        assert "person" in lines[0]
        assert "nodes in" in captured.err

    def test_query_serialize(self, xml_file, capsys):
        assert main(["query", xml_file, '//person[name = "Ada"]', "--serialize"]) == 0
        out = capsys.readouterr().out
        assert '<person id="p0">' in out
        assert "<name>Ada</name>" in out

    def test_query_limit(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--limit", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 1
        assert "1 more" in captured.err

    def test_query_stats_and_pushdown(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--stats", "--pushdown"]) == 0
        assert "join statistics" in capsys.readouterr().err

    def test_query_engines_agree(self, xml_file, capsys):
        main(["query", xml_file, "//name", "--engine", "scalar"])
        a = capsys.readouterr().out
        main(["query", xml_file, "//name", "--engine", "vectorized"])
        b = capsys.readouterr().out
        assert a == b

    def test_query_count_mode(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--mode", "count"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "2"
        assert "count in" in captured.err

    def test_query_mode_rejects_row_flags(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--mode", "count",
                     "--limit", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["query", xml_file, "//person", "--mode", "exists",
                     "--serialize"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_exists_mode(self, xml_file, capsys):
        assert main(["query", xml_file, "//person", "--mode", "exists"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["query", xml_file, "//robot", "--mode", "exists"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_bad_xpath_is_a_clean_usage_error(self, xml_file, capsys):
        assert main(["query", xml_file, "sideways::x"]) == 2
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1  # one line, no caret rendering

    def test_missing_file_is_a_clean_usage_error(self, capsys):
        assert main(["query", "no-such-file.xml", "//a"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("query", [["//b", "--serialize"], ['//b[contains(., "y")]']])
    def test_a_value_dictionary_that_is_not_utf8_is_a_clean_error(self, tmp_path, capsys, query):
        import numpy as np

        source, archive = tmp_path / "doc.xml", str(tmp_path / "bad.npz")
        source.write_text("<a><b>xy</b></a>")
        assert main(["encode", str(source), "-o", archive]) == 0
        with np.load(archive) as members:
            forged = {name: members[name] for name in members.files}
        forged["value_dict_blob"] = np.frombuffer(b"\xffy", dtype=np.uint8)
        np.savez(archive, **forged)
        capsys.readouterr()
        assert main(["query", archive, *query]) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            line for line in err.splitlines() if line.strip()
        ]
        assert "corrupt value dictionary" in err and "Traceback" not in err


class TestInfoSql:
    def test_info(self, xml_file, capsys):
        assert main(["info", xml_file]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out
        assert "person" in out
        assert "height" in out

    def test_sql(self, capsys):
        assert main(["sql", "/descendant::profile/descendant::education"]) == 0
        out = capsys.readouterr().out
        assert "SELECT DISTINCT" in out
        assert "v1.tag = 'profile'" in out

    def test_sql_with_eq1(self, capsys):
        assert main(["sql", "/descendant::a/descendant::b", "--eq1"]) == 0
        assert "v2.pre <= v1.post + h" in capsys.readouterr().out


class TestExplainDocument:
    """``explain`` on a single document prints the operator each axis
    runs on; the plan is a function of the query, not of the document."""

    def explain(self, xml_file, xpath, capsys) -> str:
        capsys.readouterr()
        assert main(["explain", xml_file, xpath]) == 0
        return capsys.readouterr().out

    def test_attribute_step_is_a_parent_column_join(self, xml_file, capsys):
        out = self.explain(xml_file, "/site/people/person/@id", capsys)
        assert "parent-column equi-join (kind = attribute)" in out

    def test_following_from_the_context_degenerates(self, xml_file, capsys):
        out = self.explain(xml_file, "following::node()", capsys)
        assert "degenerates to a singleton" in out

    def test_both_staircase_joins_named(self, xml_file, capsys):
        out = self.explain(xml_file, "/descendant::increase/ancestor::bidder", capsys)
        assert "staircase_join_desc" in out and "staircase_join_anc" in out

    def test_union_renders_both_branches(self, xml_file, capsys):
        out = self.explain(xml_file, "//bidder | //seller", capsys)
        assert "branch 1:" in out and "branch 2:" in out
        assert "StaircaseStep(descendant::bidder, pushdown)" in out
        assert "StaircaseStep(descendant::seller, pushdown)" in out

    def test_predicates_listed(self, xml_file, capsys):
        out = self.explain(xml_file, "//open_auction[bidder]", capsys)
        assert "rewrite: //-collapse → /descendant::open_auction[child::bidder]" in out
        assert "PredicateFilter([child::bidder])" in out
        assert "step 1:" not in out

    def test_an_encoded_document(self, xml_file, tmp_path, capsys):
        encoded = str(tmp_path / "doc.npz")
        assert main(["encode", xml_file, "-o", encoded]) == 0
        out = self.explain(encoded, "//person[name]", capsys)
        assert "StaircaseStep(descendant::person, pushdown)" in out
        assert "PredicateFilter([child::name])" in out

    @pytest.mark.parametrize("axis", sorted(AXIS_OPERATORS))
    def test_every_axis_names_its_operator(self, xml_file, axis, capsys):
        """The pipeline runs each axis step as written and names the
        physical operator it runs on."""
        out = self.explain(xml_file, f"/descendant::person/{axis}::node()", capsys)
        assert f"  StaircaseStep({axis}::node())\n    └─ {operator_name(axis)}\n" in out

    @pytest.mark.parametrize(
        "flags", [["--operators"], ["--pushdown", "off"]], ids=["operators", "pushdown"]
    )
    def test_no_second_rendering_and_no_pushdown_switch(self, xml_file, flags, capsys):
        """Every eligible name test is pushed down, and the printed plan
        is the one that runs: there is no other rendering to ask for."""
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", xml_file, "/descendant::b"] + flags)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, minimum",
    [
        (["query", "doc.xml", "//a"], "--limit", 0),
        (["info", "doc.xml"], "--top", 0),
        (["shard", "-o", "store"], "--generate", 0),
        (["shard", "-o", "store"], "--shards", 1),
        (["serve-batch", "store", "//a"], "--repeat", 1),
    ],
)
def test_a_count_below_its_minimum_is_a_usage_error(argv, flag, minimum, capsys):
    """``--limit -1`` used to print all but one row, ``--repeat 0`` to
    run nothing and exit 0: every count flag has one floor."""
    args = build_parser().parse_args(argv + [flag, str(minimum)])
    assert getattr(args, flag[2:]) == minimum
    for value in (minimum - 1, -3):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [flag, str(value)])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be at least {minimum}" in capsys.readouterr().err


class TestShardServeBatch:
    @pytest.fixture
    def store_dir(self, xml_file, tmp_path):
        out = str(tmp_path / "store")
        assert (
            main(
                ["shard", xml_file, "-o", out, "--generate", "2",
                 "--size", "0.05", "--shards", "2"]
            )
            == 0
        )
        return out

    def test_shard_builds_store(self, xml_file, tmp_path, capsys):
        out = str(tmp_path / "fresh-store")
        assert (
            main(
                ["shard", xml_file, "-o", out, "--generate", "2",
                 "--size", "0.05", "--shards", "2"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "2 shards" in captured.err
        assert "3 documents" in captured.err

    def test_store_info(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["store", "info", store_dir]) == 0
        out = capsys.readouterr().out
        assert "epoch          1" in out
        assert "shard 0" in out and "shard 1" in out

    def test_store_info_reports_the_bench_corpus_widths(self, tmp_path, capsys):
        """The bench corpus (``get_forest(8, 1.0)``, 4 stored shards):
        each shard holds ``level`` and its tag codes at ``int8`` (height
        11, 75 tags) and its value codes at ``int16`` (≈ 14.7 k entries),
        13 B/node once open, and ``store info`` prints each width."""
        from repro.harness.workloads import get_forest
        from repro.service import ShardedStore

        directory = str(tmp_path / "bench")
        ShardedStore.build(directory, get_forest(8, 1.0), shards=4, compression="none")
        capsys.readouterr()
        assert main(["store", "info", directory]) == 0
        shards = [
            line for line in capsys.readouterr().out.splitlines()
            if line.lstrip().startswith("shard ")
        ]
        assert len(shards) == 4
        widths = {"level": "int8", "kind": "int8", "tag_codes": "int8", "value_codes": "int16"}
        for line in shards:
            assert "widths " + " ".join(f"{c}:{w}" for c, w in widths.items()) in line
            assert line.endswith("resident 13.0 B/node")
        for shard in ShardedStore.open(directory).info()["shards"]:
            assert {c: shard["members"][c]["dtype"] for c in widths} == widths

    @pytest.mark.parametrize(
        "argv, code",
        [
            # A file is no store: "not a sharded store", a usage error.
            (["store", "info", "{archive}"], 2),
            # A store is no document.
            (["query", "{store}", "//a"], 1),
            (["store", "info", "{listed}"], 1),
            (["store", "info", "{shardless}"], 1),
            # A shard entry that is no object, or names a file outside.
            (["store", "info", "{entryless}"], 1),
            (["store", "info", "{escaping}"], 1),
        ],
        ids=["archive-as-store", "store-as-document", "manifest-list", "manifest-without-shards",
             "shard-entry-not-an-object", "shard-file-outside-store"],
    )
    def test_a_hostile_path_is_one_error_line(self, xml_file, store_dir, tmp_path, capsys, argv, code):
        paths = {"archive": str(tmp_path / "doc.npz"), "store": store_dir}
        assert main(["encode", xml_file, "-o", paths["archive"]]) == 0
        escaping = {"id": 0, "file": "../doc.npz", "documents": ["d"], "nodes": 1}
        for name, manifest in (
            ("listed", "[]"),
            ("shardless", '{"store_format": 1}'),
            ("entryless", '{"store_format": 1, "epoch": 1, "shards": [1]}'),
            ("escaping", json.dumps({"store_format": 1, "epoch": 1, "shards": [escaping]})),
        ):
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(manifest)
            paths[name] = str(tmp_path / name)
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")

    def test_shard_without_output_is_a_usage_error(self, xml_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["shard", xml_file])
        assert exit_info.value.code == 2
        assert "-o/--output" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve-batch", "STORE", "//person", "--workers", "2"],
            ["serve", "STORE", "--workers", "2"],
            ["serve-batch", "STORE", "//person", "--backend", "pool:2"],
            # serial is one lane by name; a fabric has one lane or more
            ["serve-batch", "STORE", "//person", "--backend", "serial:4"],
            ["serve", "STORE", "--backend", "fabric:0"],
            ["serve-batch", "STORE", "//person", "--backend", "fabric:-2"],
            ["query", "doc.xml", "//name", "--strategy", "staircase"],
            ["shard", "--info", "STORE"],
        ],
        ids=[
            "batch-workers", "serve-workers", "backend-pool", "backend-serial-count",
            "backend-no-lanes", "backend-negative-lanes", "strategy", "shard-info",
        ],
    )
    def test_removed_spellings_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_shard_without_documents_is_a_clean_error(self, tmp_path, capsys):
        assert main(["shard", "-o", str(tmp_path / "s")]) == 1
        assert "no documents" in capsys.readouterr().err

    def test_serve_batch_repeat_hits_cache(self, store_dir, capsys):
        capsys.readouterr()
        assert (
            main(
                ["serve-batch", store_dir, "//person", "--backend", "serial",
                 "--repeat", "2", "--stats", "--per-document"]
            )
            == 0
        )
        captured = capsys.readouterr()
        assert "cold  //person" in captured.out
        assert "warm  //person" in captured.out
        assert "round 2" in captured.err
        assert "service statistics" in captured.err

    def test_serve_batch_no_planner(self, store_dir, capsys):
        """``--no-planner`` left ``serve`` and ``serve-batch``: a usage error."""
        for argv in (
            ["serve-batch", store_dir, "//person/name", "--no-planner"],
            ["serve", store_dir, "--no-planner"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --no-planner" in capsys.readouterr().err

    def test_serve_engine_flag_is_gone(self, store_dir, capsys):
        """``--engine`` left ``serve`` and ``serve-batch``: the service's
        engine is not a per-request choice.  ``query`` / ``explain``
        keep theirs (the paper's ablations).  Parsed only: a parser that
        took the flag must fail here, not start a server."""
        for argv in (
            ["serve-batch", store_dir, "//person/name", "--engine", "scalar"],
            ["serve", store_dir, "--engine", "scalar"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                build_parser().parse_args(argv)
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_serve_builds_its_service_without_an_engine(self):
        """``_cmd_serve`` names no engine: the service's own (vectorized)
        answers every request, whatever a body or a flag asks for."""
        assert "engine" not in inspect.getsource(cli._cmd_serve)

    def test_serve_coalescing_flags_are_gone(self, store_dir, capsys):
        """``serve`` has no request-coalescing window: every ``/query``
        goes straight to the dispatch lane, so the window and batch-size
        flags are usage errors."""
        for flag, value in (("--coalesce-window-ms", "4"), ("--max-batch", "8")):
            with pytest.raises(SystemExit) as exit_info:
                main(["serve", store_dir, flag, value])
            assert exit_info.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_explain_on_a_store(self, store_dir, capsys):
        capsys.readouterr()
        assert (
            main(["explain", store_dir,
                  "/descendant::name/ancestor::person"])
            == 0
        )
        out = capsys.readouterr().out
        assert "source:" in out and "(store, epoch" in out
        assert "staircase_join_anc" in out
        assert "StaircaseStep(ancestor::person, pushdown)" in out

    def test_explain_collapses_abbreviations(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["explain", store_dir, "//person/name"]) == 0
        out = capsys.readouterr().out
        assert "//-collapse" in out
        assert "StaircaseStep(descendant::person, pushdown)" in out

    def test_explain_prints_the_services_plan(self, store_dir, capsys, monkeypatch):
        """A store's plan comes from ``QueryService.explain``, the plan
        the service runs: the verb plans nothing of its own."""
        from repro.service import QueryService

        asked = []
        explain = QueryService.explain
        monkeypatch.setattr(
            QueryService, "explain",
            lambda service, query: asked.append(query) or explain(service, query),
        )
        capsys.readouterr()
        assert main(["explain", store_dir, "//person/name"]) == 0
        out = capsys.readouterr().out
        assert asked == ["//person/name"]
        with QueryService.open(store_dir, backend="serial") as service:
            assert out.endswith(explain(service, "//person/name").describe() + "\n")

    def test_explain_analyze_on_a_store_writes_nothing(self, store_dir, capsys):
        manifest = os.path.join(store_dir, "manifest.json")
        with open(manifest, "rb") as f:
            before = f.read()
        files = sorted(os.listdir(store_dir))
        capsys.readouterr()
        assert main(["explain", store_dir, "//person[profile]", "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "physical pipeline:" in out
        assert "observed:" in out and "PredicateFilter" in out
        assert "est out" not in out and "mis-estimate" not in out
        assert "feedback" not in out
        with open(manifest, "rb") as f:
            assert f.read() == before
        assert sorted(os.listdir(store_dir)) == files

    def test_serve_batch_queries_file(self, store_dir, tmp_path, capsys):
        capsys.readouterr()
        queries = tmp_path / "queries.txt"
        queries.write_text("# a comment\n//person\n\n//name\n")
        assert (
            main(
                ["serve-batch", store_dir, "--queries-file", str(queries),
                 "--backend", "serial", "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "//person" in out and "//name" in out

    def test_serve_batch_without_queries_is_a_clean_error(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["serve-batch", store_dir]) == 1
        assert "no queries" in capsys.readouterr().err

    def test_serve_batch_on_non_store_is_a_clean_usage_error(self, tmp_path, capsys):
        assert main(["serve-batch", str(tmp_path), "//a"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_batch_bad_xpath_is_a_clean_usage_error(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["serve-batch", store_dir, "//a[", "--backend", "serial"]) == 2
        err = capsys.readouterr().err
        error_lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(error_lines) == 1

    def test_serve_batch_count_mode(self, store_dir, capsys):
        capsys.readouterr()
        assert (
            main(["serve-batch", store_dir, "//person", "--backend", "serial",
                  "--mode", "count", "--per-document"])
            == 0
        )
        out = capsys.readouterr().out
        assert "cold  //person" in out
        assert "doc.xml" in out

    def test_serve_batch_exists_rejects_per_document(self, store_dir, capsys):
        capsys.readouterr()
        assert (
            main(["serve-batch", store_dir, "//person", "--backend", "serial",
                  "--mode", "exists", "--per-document"])
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_serve_batch_exists_mode(self, store_dir, capsys):
        capsys.readouterr()
        assert (
            main(["serve-batch", store_dir, "//person", "//robot",
                  "--backend", "serial", "--mode", "exists"])
            == 0
        )
        out = capsys.readouterr().out
        assert "true  cold  //person" in out
        assert "false  cold  //robot" in out


class TestUpdate:
    @pytest.fixture
    def store_dir(self, xml_file, tmp_path):
        out = str(tmp_path / "store")
        assert main(["shard", xml_file, "-o", out, "--shards", "1"]) == 0
        return out

    def write_ops(self, tmp_path, ops):
        import json

        path = tmp_path / "ops.json"
        path.write_text(json.dumps(ops))
        return str(path)

    def test_update_applies_ops_and_verifies(self, store_dir, tmp_path, capsys):
        capsys.readouterr()
        ops = self.write_ops(
            tmp_path,
            [
                {"op": "insert", "document": "doc.xml", "pre": 1,
                 "xml": '<person id="p2"><name>Grace</name></person>'},
                {"op": "add", "document": "extra",
                 "xml": "<site><people><person/></people></site>"},
            ],
        )
        assert main(["update", store_dir, ops, "--verify", "//person"]) == 0
        captured = capsys.readouterr()
        assert "applied 2 op(s)" in captured.err
        assert "epoch 1 -> 2" in captured.err
        assert captured.out.strip().endswith("//person")
        assert captured.out.strip().startswith("4")

    def test_update_reads_a_file_payload_the_server_refuses(
        self, store_dir, tmp_path, capsys, monkeypatch
    ):
        """An ops file's ``"file"`` is read by the CLI, relative to the
        working directory, and sent on as ``"xml"``; ``parse_ops`` — the
        server's parser — refuses the key."""
        from repro.errors import ReproError
        from repro.service import parse_ops

        (tmp_path / "payload.xml").write_text(
            '<person id="p3"><name>Ada</name></person>', encoding="utf-8"
        )
        raw = [{"op": "insert", "document": "doc.xml", "pre": 1, "file": "payload.xml"}]
        ops = self.write_ops(tmp_path, raw)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert main(["update", store_dir, ops, "--verify", "//person[@id='p3']"]) == 0
        captured = capsys.readouterr()
        assert "applied 1 op(s)" in captured.err
        assert captured.out.split() == ["1", "//person[@id='p3']"]
        with pytest.raises(ReproError, match=r"unknown keys \['file'\]"):
            parse_ops(raw)

    def test_update_bad_json_is_a_clean_error(self, store_dir, tmp_path, capsys):
        path = tmp_path / "ops.json"
        path.write_text("{nope")
        assert main(["update", store_dir, str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_update_invalid_op_is_a_clean_error(self, store_dir, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [{"op": "frobnicate", "document": "x"}])
        assert main(["update", store_dir, ops]) == 1
        assert "unknown update op" in capsys.readouterr().err

    def test_update_on_non_store_is_a_clean_usage_error(self, tmp_path, capsys):
        ops = self.write_ops(tmp_path, [])
        assert main(["update", str(tmp_path), ops]) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_bad_verify_xpath_is_a_clean_usage_error(
        self, store_dir, tmp_path, capsys
    ):
        ops = self.write_ops(tmp_path, [])
        assert main(["update", store_dir, ops, "--verify", ":::"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_update_bad_verify_xpath_leaves_the_store_untouched(
        self, store_dir, tmp_path, capsys
    ):
        """A usage error must be a no-op: the verify expression is
        validated before the ops batch may commit an epoch bump."""
        from repro.service import ShardedStore

        ops = self.write_ops(
            tmp_path,
            [{"op": "add", "document": "extra",
              "xml": "<site><people><person/></people></site>"}],
        )
        assert main(["update", store_dir, ops, "--verify", "bad["]) == 2
        assert "error:" in capsys.readouterr().err
        store = ShardedStore.open(store_dir)
        assert store.epoch == 1
        assert "extra" not in store.document_names()

    def test_explain_bad_xpath_is_a_clean_usage_error(self, store_dir, capsys):
        capsys.readouterr()
        assert main(["explain", store_dir, "//a[oops"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_on_missing_store_is_a_clean_usage_error(self, capsys):
        assert main(["explain", "no-such-place", "//a"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    @pytest.mark.parametrize("mode", ["count", "exists"])
    def test_explain_prints_physical_pipeline(self, store_dir, mode, engine, capsys):
        """One rendering per query, whatever the engine: the rewrites,
        then the pipeline under the asked-for terminal."""
        capsys.readouterr()
        argv = ["explain", store_dir, "//person/name", "--mode", mode, "--engine", engine]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"physical pipeline: 4 operators, terminal {mode.capitalize()}" in out
        assert "StaircaseStep(descendant::person, pushdown)" in out
        assert "StaircaseStep(child::name, pushdown)" in out
        assert out.count("XPath:") == 1 and "step 1:" not in out
