"""Compressed-shard tests: packed stores, served planes, splice == re-encode.

The headline properties:

* **packed == plain** — a store built with ``compression="packed"``
  answers the full axis-query battery byte-identically to an
  uncompressed build, on both engines;
* **splice == re-encode on packed shards** — update batches applied to a
  compressed store match a compressed store rebuilt from equivalently
  edited trees, and tag statistics stay exact;
* **served planes are arrays** — a packed shard inflates when it opens,
  in every lane, to arrays it owns at their declared widths.
"""

import mmap
import os
import zipfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.encoding.persist import FORMAT_VERSION, describe_archive, load
from repro.encoding.prepost import encode
from repro.encoding.widths import COLUMN_DTYPES
from repro.errors import ReproError
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore, UpdateOp
from repro.service import store as store_module
from repro.service.store import AUTO_PACK_NODES, _resolve_compression
from repro.xmltree.model import NodeKind, element, text

from _reference import random_tree
from _widths import plane_columns, rule_width

ENGINES = ("scalar", "vectorized")

QUERIES = (
    "/descendant::bidder",
    "//open_auction//increase",
    "/site/open_auctions/open_auction/bidder",
    "/descendant::increase/ancestor::bidder",
    "//person/attribute::id",
    "//open_auction[count(bidder) >= 2]",
    "//profile/education/text()",
)


def people_site(*names):
    return element(
        "site", element("people", *[element("person", text(n)) for n in names])
    )


def batch_bytes(store, queries, engine):
    with QueryService(store, backend="serial", engine=engine) as service:
        results = service.execute_batch(queries, use_cache=False)
        return [
            {name: a.tobytes() for name, a in r.per_document.items()}
            for r in results
        ]


def formats(store):
    """Each shard's compression — ``"none"`` when every member is stored,
    ``"packed"`` when every one is deflated — in manifest order."""
    names = {zipfile.ZIP_STORED: "none", zipfile.ZIP_DEFLATED: "packed"}
    compressions = []
    for entry in store.describe()["shards"]:
        path = os.path.join(store.directory, entry["file"])
        assert describe_archive(path)["format_version"] == FORMAT_VERSION
        with zipfile.ZipFile(path) as archive:
            (compress_type,) = {info.compress_type for info in archive.infolist()}
        compressions.append(names[compress_type])
    return compressions


def element_counts(doc) -> dict:
    """Element count per tag of ``doc``, zero counts left out."""
    codes = doc.tag.codes[doc.kind == NodeKind.ELEMENT]
    counts = np.bincount(codes, minlength=len(doc.tag.dictionary))
    return {doc.tag.dictionary[c]: int(counts[c]) for c in np.nonzero(counts)[0]}


def plane_tags(store):
    """Element count per tag over every shard plane of ``store``."""
    counts = {}
    for shard_id in store.shard_ids():
        for tag, n in element_counts(store.collection(shard_id).doc).items():
            counts[tag] = counts.get(tag, 0) + n
    return counts


@pytest.fixture(scope="module")
def forest():
    return get_forest(4, 0.05)


@pytest.fixture(scope="module")
def plain_store(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("plain") / "store")
    return ShardedStore.build(directory, forest, shards=2, compression="none")


@pytest.fixture(scope="module")
def packed_store(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("packed") / "store")
    return ShardedStore.build(directory, forest, shards=2, compression="packed")


class TestCompressionSetting:
    def test_resolve(self):
        assert _resolve_compression("packed", 10) == "packed"
        assert _resolve_compression("none", 10**9) == "none"
        assert _resolve_compression("auto", AUTO_PACK_NODES - 1) == "none"
        assert _resolve_compression("auto", AUTO_PACK_NODES) == "packed"

    def test_build_rejects_unknown_setting(self, forest, tmp_path):
        with pytest.raises(ReproError, match="compression"):
            ShardedStore.build(
                str(tmp_path / "s"), forest[:1], compression="zstd"
            )

    def test_packed_store_records_the_packed_format(self, packed_store):
        assert packed_store.compression == "packed"
        assert set(formats(packed_store)) == {"packed"}

    def test_auto_small_docs_stay_eager(self, forest, tmp_path):
        store = ShardedStore.build(
            str(tmp_path / "s"), forest[:2], compression="auto"
        )
        assert store.compression == "auto"
        assert set(formats(store)) == {"none"}

    def test_reopened_store_keeps_setting(self, packed_store):
        reopened = ShardedStore.open(packed_store.directory)
        assert reopened.compression == "packed"

    def test_packed_shards_are_smaller_on_disk(
        self, plain_store, packed_store
    ):
        plain = plain_store.info()["total_bytes_on_disk"]
        packed = packed_store.info()["total_bytes_on_disk"]
        assert packed < plain


class TestPackedEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_axis_queries_match_plain_store(
        self, plain_store, packed_store, engine
    ):
        assert batch_bytes(packed_store, QUERIES, engine) == batch_bytes(
            plain_store, QUERIES, engine
        )

    def test_string_values_survive_packing(self, packed_store, plain_store):
        for shard_id in packed_store.shard_ids():
            packed = packed_store.collection(shard_id).doc
            plain = plain_store.collection(shard_id).doc
            assert list(packed.tag) == list(plain.tag)
            assert packed.values == plain.values


def mapped(array) -> bool:
    """Is ``array`` (a view of) a memory map of an archive?"""
    while array is not None:
        if isinstance(array, (np.memmap, mmap.mmap)):
            return True
        array = getattr(array, "base", None)
    return False


class TestServedPlanes:
    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    def test_served_planes_are_arrays(self, forest, tmp_path, monkeypatch, backend):
        """Every lane — the forked worker included — serves a packed
        shard from arrays it owns at the rule's widths, and an eager
        shard's stored columns straight from the archive's mapping."""
        import json
        import multiprocessing

        from repro.service import ShardWorkerState, backend as backend_module

        if backend != "serial" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the probe reaches fabric workers by fork inheritance")
        reports = tmp_path / "planes"
        reports.mkdir()

        class ProbedState(ShardWorkerState):
            def run_group(self, tasks, snapshot):
                outcomes = super().run_group(tasks, snapshot)
                report = reports / f"{os.getpid()}.json"
                lane = json.loads(report.read_text()) if report.exists() else {}
                for shard_id in {task.shard_id for task in tasks}:
                    lane[str(shard_id)] = {
                        name: [
                            type(column).__name__,
                            column.dtype == rule_width(name, column),
                            mapped(column),
                        ]
                        for name, column in plane_columns(snapshot.plane(shard_id).doc).items()
                    }
                report.write_text(json.dumps(lane))
                return outcomes

        monkeypatch.setattr(backend_module, "ShardWorkerState", ProbedState)
        # Four one-document shards, smallest first, and an ``auto``
        # threshold between the second and the third: the first two are
        # stored, the last two packed, so under fabric:2 each lane serves
        # one shard of either compression.
        sizes = {name: len(encode(tree)) for name, tree in forest}
        ordered = sorted(forest, key=lambda doc: sizes[doc[0]])
        middle = (sizes[ordered[1][0]] + sizes[ordered[2][0]]) // 2
        monkeypatch.setattr(store_module, "AUTO_PACK_NODES", middle)
        store = ShardedStore.build(
            str(tmp_path / "store"), ordered, shards=4, compression="auto"
        )
        layouts = formats(store)
        assert layouts == ["none", "none", "packed", "packed"]
        with QueryService(ShardedStore.open(store.directory), backend=backend) as service:
            assert service.execute("//regions", use_cache=False).total > 0
            if backend != "serial":
                assert service.backend.dispatched == [2, 2]
        seen = {int(p.stem): json.loads(p.read_text()) for p in reports.iterdir()}
        assert len(seen) == (1 if backend == "serial" else 2)  # one per lane
        assert os.getpid() in seen
        assert sorted(int(i) for lane in seen.values() for i in lane) == [0, 1, 2, 3]
        for lane in seen.values():
            for shard_id, columns in lane.items():
                packed = layouts[int(shard_id)] == "packed"
                for name, (kind, at_width, is_mapped) in columns.items():
                    assert at_width, (shard_id, name)
                    stored = name not in ("post", "parent")
                    assert is_mapped == (stored and not packed), (shard_id, name)
                    if packed or not stored or name == "tag_codes":
                        assert kind == "ndarray", (shard_id, name)
                    else:
                        assert kind == "memmap", (shard_id, name)

    def test_info_reports_packing_and_resident_bytes(self, packed_store):
        store = ShardedStore.open(packed_store.directory)
        store.collection(0)  # opened in this process: resident bytes known
        info = store.info()
        assert info["compression"] == "packed"
        assert info["total_bytes_on_disk"] > 0
        shard, unopened = info["shards"]
        assert shard["format_version"] == FORMAT_VERSION
        assert set(shard["stored_columns"]) < set(shard["members"])
        assert 0 < shard["stored_bytes"] < shard["logical_bytes"]
        for field in ("stored_bytes", "logical_bytes"):
            assert shard[field] == sum(m[field] for m in shard["members"].values())
        assert info["total_logical_bytes"] == sum(s["logical_bytes"] for s in info["shards"])
        assert shard["tag_dictionary"]["entries"] > 0
        # 4 + 4 + 1 (post, parent, kind) + 1 + 1 + 2 (level, tag and
        # value codes at the width an XMark shard's values need).
        assert shard["resident_bytes_per_node"] == 13
        assert "resident_bytes_per_node" not in unopened
        assert "decoded" not in shard
        assert shard["stored_columns"] == ["level", "kind", "tag_codes", "value_codes"]
        assert shard["derived_columns"] == "post, parent: derived from level"

    def test_info_on_plain_store_reports_the_same_fields(self, plain_store, packed_store):
        """A stored member takes its header and its data: no less than
        its logical bytes.  Members, dictionaries and logical bytes are
        reported alike under either compression."""
        info, packed = plain_store.info(), packed_store.info()
        for shard, twin in zip(info["shards"], packed["shards"]):
            assert shard["format_version"] == FORMAT_VERSION
            assert set(shard) == set(twin)
            for name, member in shard["members"].items():
                assert member["logical_bytes"] == twin["members"][name]["logical_bytes"]
                assert member["stored_bytes"] > member["logical_bytes"]
            assert shard["tag_dictionary"]["entries"] > 0
            assert shard["value_dictionary"]["bytes"] > 0
        assert info["total_logical_bytes"] == packed["total_logical_bytes"] > 0


class TestPackedUpdates:
    def make_store(self, tmp_path, compression):
        forest = [
            ("d0", people_site("a")),
            ("d1", people_site("b", "c")),
            ("d2", people_site("d", "e", "f")),
        ]
        store = ShardedStore.build(
            str(tmp_path / compression), forest, shards=2,
            compression=compression,
        )
        return forest, store

    def test_updates_keep_shards_packed(self, tmp_path):
        _, store = self.make_store(tmp_path, "packed")
        store.apply_updates(
            [UpdateOp("add", "d9", tree=people_site("z"))]
        )
        assert set(formats(store)) == {"packed"}
        reopened = ShardedStore.open(store.directory)
        assert reopened.compression == "packed"
        assert reopened.document_names() == store.document_names()

    def test_update_splices_match_reencode(self, tmp_path):
        forest, store = self.make_store(tmp_path, "packed")
        ops = [
            UpdateOp("update", "d1", tree=people_site("B", "C", "X")),
            UpdateOp("add", "d4", tree=people_site("q", "r")),
        ]
        store.apply_updates(ops)
        edited = [
            (n, t) for n, t in forest if n != "d1"
        ] + [("d1", people_site("B", "C", "X")), ("d4", people_site("q", "r"))]
        rebuilt = ShardedStore.build(
            str(tmp_path / "rebuilt"), edited, shards=2, compression="packed"
        )
        for engine in ENGINES:
            spliced = batch_bytes(store, ("//*", "//person"), engine)
            fresh = batch_bytes(rebuilt, ("//*", "//person"), engine)
            for a, b in zip(spliced, fresh):
                assert a == b

    def test_tag_statistics_exact_after_packed_splices(self, tmp_path):
        forest, store = self.make_store(tmp_path, "packed")
        store.apply_updates(
            [
                UpdateOp("update", "d2", tree=people_site("x")),
                UpdateOp("remove", "d0"),
            ]
        )
        edited = [("d1", people_site("b", "c")), ("d2", people_site("x"))]
        rebuilt = ShardedStore.build(
            str(tmp_path / "ref"), edited, shards=2, compression="packed"
        )
        assert plane_tags(store) == plane_tags(rebuilt)


    def test_commits_follow_the_store_setting(self, tmp_path):
        """A commit writes each touched shard under the compression the
        store's own setting gives it; there is no per-commit override."""
        _, store = self.make_store(tmp_path, "none")
        with pytest.raises(TypeError):
            store.apply_updates([], compression="packed")
        store.apply_updates([UpdateOp("add", "dx", tree=people_site("y"))])
        assert ShardedStore.open(store.directory).compression == "none"
        assert set(formats(store)) == {"none"}

class TestSpliceReencodeProperty:
    """Hypothesis sweep: random edit batches on a packed store stay
    byte-identical (through QueryService) to a fresh packed build, and
    tag statistics remain exact, on both engines."""

    @given(
        seed=st.integers(0, 10**6),
        edits=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    )
    @example(seed=0, edits=[2, 2])  # both removals empty shard 0
    @settings(max_examples=12, deadline=None)
    def test_random_edit_batches(self, seed, edits, tmp_path_factory):
        base = tmp_path_factory.mktemp("prop")
        forest = [
            (f"d{i}", random_tree(20 + 10 * i, seed + i)) for i in range(4)
        ]
        store = ShardedStore.build(
            str(base / "store"), forest, shards=2, compression="packed"
        )
        trees = dict(forest)
        ops = []
        for k, kind in enumerate(edits):
            name = f"d{k}"
            if kind == 0:
                replacement = random_tree(15 + k, seed ^ (k + 1))
                ops.append(UpdateOp("update", name, tree=replacement))
                trees[name] = replacement
            elif kind == 1:
                fresh = random_tree(12, seed ^ (97 + k))
                new_name = f"n{k}"
                ops.append(UpdateOp("add", new_name, tree=fresh))
                trees[new_name] = fresh
            else:
                if len(trees) > 1 and name in trees:
                    ops.append(UpdateOp("remove", name))
                    del trees[name]
        store.apply_updates(ops)
        rebuilt = ShardedStore.build(
            str(base / "rebuilt"),
            sorted(trees.items()),
            shards=2,
            compression="packed",
        )

        def document_tags(s):
            # Every shard plane carries one virtual-root node, and an
            # emptied shard is dropped, so the virtual root's count
            # follows the shard layout, not the documents.
            counts = plane_tags(s)
            counts.pop(s.virtual_root_tag, None)
            return counts

        assert document_tags(store) == document_tags(rebuilt)
        for engine in ENGINES:
            spliced = batch_bytes(store, ("//*",), engine)[0]
            fresh = batch_bytes(rebuilt, ("//*",), engine)[0]
            assert spliced == fresh

    def test_spliced_shard_files_reload_as_packed(self, tmp_path):
        forest = [("d0", people_site("a")), ("d1", people_site("b", "c"))]
        store = ShardedStore.build(
            str(tmp_path / "s"), forest, shards=1, compression="packed"
        )
        store.apply_updates(
            [UpdateOp("update", "d0", tree=people_site("z", "w"))]
        )
        entry = store._manifest["shards"][0]
        assert formats(store) == ["packed"]
        table = load(os.path.join(store.directory, entry["file"]), mmap=True)
        assert type(table.level) is np.ndarray
        assert table.post.dtype == COLUMN_DTYPES["post"]
