"""Write-path tests: collection splices, store mutations, service updates.

The headline property mirrors the one for reads (batched == serial):
**splice == re-encode** — driving document and subtree updates through
``QueryService.apply_updates`` yields query results byte-identical to a
store freshly built from equivalently edited trees.
Around it: the crash-safe commit protocol (epoch bump, orphan sweep),
the name → shard index, and mutate-while-querying interleaving.
"""

import copy
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.collection import DocumentCollection
from repro.encoding.persist import save
from repro.errors import EncodingError, ReproError
from repro.service import QueryService, ShardedStore, UpdateOp, parse_ops
from repro.xmltree.model import NodeKind, attribute, element, text

from _plans import compiled
from _reference import Reference, preorder_nodes, random_tree


#: Queries the splice-equals-reencode property is checked under.
PROPERTY_QUERIES = (
    "//*",
    "/descendant::node()",
    "//*[*]/..",
    "//*/attribute::*",
)


def people_site(*names):
    return element(
        "site", element("people", *[element("person", text(n)) for n in names])
    )


def small_forest():
    return [
        ("d0", people_site("a")),
        ("d1", people_site("b", "c")),
        ("d2", people_site("d", "e", "f")),
        ("d3", people_site("g", "h", "i", "j")),
    ]


def assert_staged_is_the_file(service, queries=PROPERTY_QUERIES):
    """The staged plane the service's next read runs on answers as the
    file its commit wrote, opened afresh."""
    reopened = ShardedStore.open(service.store.directory)
    with QueryService(reopened, backend="serial") as fresh:
        assert store_bytes(service, queries) == store_bytes(fresh, queries)


def store_bytes(service, queries):
    """Per-document payloads for a query batch, as comparable bytes."""
    results = service.execute_batch(queries, use_cache=False)
    return [
        {name: a.tobytes() for name, a in r.per_document.items()} for r in results
    ]


# ----------------------------------------------------------------------
class TestCollectionUpdates:
    @pytest.fixture
    def collection(self):
        return DocumentCollection(small_forest())

    def test_insert_document_appends(self, collection):
        bigger = collection.insert_document("d4", people_site("k"))
        assert bigger.names == ["d0", "d1", "d2", "d3", "d4"]
        assert len(bigger.doc) == len(collection.doc) + 4
        # untouched members keep their spans
        assert bigger.span("d0") == collection.span("d0")

    def test_insert_document_before(self, collection):
        bigger = collection.insert_document("dx", people_site("x"), before="d1")
        assert bigger.names == ["d0", "dx", "d1", "d2", "d3"]
        # d1's span shifted by the inserted member's size
        start, end = collection.span("d1")
        shifted = bigger.span("d1")
        assert shifted == (start + 4, end + 4)

    def test_insert_duplicate_rejected(self, collection):
        with pytest.raises(EncodingError, match="already"):
            collection.insert_document("d0", people_site("x"))

    def test_remove_document(self, collection):
        smaller = collection.remove_document("d1")
        assert smaller.names == ["d0", "d2", "d3"]
        # spans re-derived: d2 moved left by d1's size (6 nodes)
        start, _ = collection.span("d2")
        assert smaller.span("d2")[0] == start - 6

    def test_remove_last_member_rejected(self):
        single = DocumentCollection([("only", people_site("a"))])
        with pytest.raises(EncodingError, match="last document"):
            single.remove_document("only")

    def test_update_document(self, collection):
        updated = collection.update_document("d1", people_site("z"))
        assert updated.names == collection.names
        start, end = updated.span("d1")
        assert end - start == 3
        assert updated.doc.tag_of(start) == "site"

    def test_splice_insert_relative_ranks(self, collection):
        # rank 1 inside d2 is its <people> element
        edited = collection.splice(
            "d2", "insert", 1, tree=element("person", text("new"))
        )
        start, end = edited.span("d2")
        assert end - start == collection.span("d2")[1] - collection.span("d2")[0] + 2
        # other members untouched (byte-compare their column slices)
        for name in ("d0", "d1"):
            s0, e0 = collection.span(name)
            s1, e1 = edited.span(name)
            assert (s0, e0) == (s1, e1)

    def test_splice_delete(self, collection):
        # delete d3's first person (rank 2 = person, under people at 1)
        edited = collection.splice("d3", "delete", 2)
        s, e = edited.span("d3")
        assert e - s == collection.span("d3")[1] - collection.span("d3")[0] - 2

    def test_splice_replace(self, collection):
        edited = collection.splice("d0", "replace", 1, tree=element("empty"))
        s, _ = edited.span("d0")
        assert edited.doc.tag_of(s + 1) == "empty"

    def test_splice_delete_root_rejected(self, collection):
        with pytest.raises(EncodingError, match="remove the\n?\\s*document"):
            collection.splice("d0", "delete", 0)

    def test_splice_rank_out_of_range(self, collection):
        with pytest.raises(EncodingError, match="out of range"):
            collection.splice("d0", "delete", 99)

    def test_splice_unknown_op(self, collection):
        with pytest.raises(EncodingError, match="unknown splice op"):
            collection.splice("d0", "mangle", 1)

    def test_splice_missing_payload(self, collection):
        with pytest.raises(EncodingError, match="payload"):
            collection.splice("d0", "insert", 0)

    def test_original_collection_stays_valid(self, collection):
        before = collection.evaluate("//person")
        collection.splice("d1", "insert", 1, tree=element("person"))
        assert list(collection.evaluate("//person")) == list(before)


# ----------------------------------------------------------------------
class TestStoreWritePath:
    @pytest.fixture
    def store(self, tmp_path):
        return ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)

    def test_add_document_targets_smallest_shard(self, store):
        epoch = store.add_document("d4", people_site("k"))
        assert epoch == 2
        # shard 0 (d0+d1: 11 nodes) is smaller than shard 1 (d2+d3: 19)
        assert store.shard_of("d4") == 0
        assert store.document_names() == ["d0", "d1", "d4", "d2", "d3"]

    def test_add_document_explicit_shard(self, store):
        store.add_document("d4", people_site("k"), shard_id=1)
        assert store.shard_of("d4") == 1

    def test_add_duplicate_rejected(self, store):
        with pytest.raises(ReproError, match="already"):
            store.add_document("d0", people_site("x"))

    def test_add_to_unknown_shard_rejected(self, store):
        with pytest.raises(ReproError, match="no shard"):
            store.add_document("d9", people_site("x"), shard_id=7)

    def test_remove_document_updates_index(self, store):
        store.remove_document("d1")
        assert store.document_names() == ["d0", "d2", "d3"]
        with pytest.raises(ReproError, match="no document"):
            store.shard_of("d1")

    def test_remove_emptying_a_shard_drops_it(self, store):
        store.remove_document("d0")
        store.remove_document("d1")
        assert store.shard_ids() == [1]
        assert store.document_names() == ["d2", "d3"]
        # durable: a reopen sees the same single-shard layout
        assert ShardedStore.open(store.directory).shard_ids() == [1]

    def test_remove_last_document_rejected(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "one"), small_forest()[:1])
        with pytest.raises(ReproError, match="at least one document"):
            store.remove_document("d0")

    def test_update_document_splices_in_place(self, store):
        old_nodes = store.shard_entry(store.shard_of("d2"))["nodes"]
        store.update_document("d2", people_site("z"))  # 8 nodes -> 4
        entry = store.shard_entry(store.shard_of("d2"))
        assert entry["nodes"] == old_nodes - 4
        collection = store.collection(entry["id"])
        start, _ = collection.span("d2")
        assert collection.doc.string_value(start) == "z"

    def test_unknown_document_rejected(self, store):
        for op in ("remove", "update"):
            with pytest.raises(ReproError, match="no document"):
                store.apply_updates(
                    [UpdateOp(op, "nope", tree=people_site("x"))]
                )

    def test_batch_bumps_epoch_once(self, store):
        summary = store.apply_updates(
            [
                UpdateOp("insert", "d0", tree=element("person"), pre=1),
                UpdateOp("insert", "d2", tree=element("person"), pre=1),
                UpdateOp("remove", "d1"),
            ]
        )
        assert summary == {"epoch": 2, "applied": 3, "shards": [0, 1]}
        assert store.epoch == 2

    def test_empty_batch_is_a_no_op(self, store):
        assert store.apply_updates([]) == {
            "epoch": 1,
            "applied": 0,
            "shards": [],
        }
        assert store.epoch == 1

    def test_batch_validation_is_all_or_nothing(self, store):
        names = store.document_names()
        with pytest.raises(EncodingError, match="out of range"):
            store.apply_updates(
                [
                    UpdateOp("insert", "d0", tree=element("x"), pre=1),
                    UpdateOp("delete", "d0", pre=99),  # invalid: batch dies
                ]
            )
        assert store.epoch == 1
        assert store.document_names() == names

    def test_add_after_emptying_a_shard_revives_it(self, store):
        summary = store.apply_updates(
            [
                UpdateOp("remove", "d0"),
                UpdateOp("remove", "d1"),
                UpdateOp("add", "dx", tree=people_site("x"), shard=0),
            ]
        )
        assert summary["epoch"] == 2
        assert store.shard_of("dx") == 0
        assert store.shard_entry(0)["documents"] == ["dx"]

    def test_updates_are_durable(self, store):
        store.apply_updates(
            [
                UpdateOp("insert", "d3", tree=element("person", text("k")), pre=1),
                UpdateOp("add", "d4", tree=people_site("q")),
            ]
        )
        reopened = ShardedStore.open(store.directory)
        assert reopened.epoch == store.epoch
        assert reopened.document_names() == store.document_names()
        with QueryService(reopened, backend="serial") as service:
            counts = service.execute("//person").counts()
        assert counts["d3"] == 5 and counts["d4"] == 1

    def test_old_files_removed_after_commit(self, store):
        touched_shard = store.shard_of("d0")
        old_file = store.shard_entry(touched_shard)["file"]
        untouched = store.shard_entry(1 - touched_shard)["file"]
        store.update_document("d0", people_site("w"))
        files = set(os.listdir(store.directory))
        assert old_file not in files
        assert untouched in files
        assert store.shard_entry(touched_shard)["file"] in files

    def test_shard_of_index_matches_manifest_scan(self, store):
        store.add_document("d4", people_site("k"))
        store.remove_document("d2")
        for entry in store.describe()["shards"]:
            for name in entry["documents"]:
                assert store.shard_of(name) == entry["id"]


# ----------------------------------------------------------------------
class TestOrphanSweep:
    def test_the_next_commit_sweeps_unreferenced_shard_files(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        # Simulate a crash after the new epoch file was written but
        # before the manifest flip: a valid shard archive with no
        # manifest entry pointing at it.
        orphan = os.path.join(store.directory, "shard-0000.e0099.npz")
        save(store.collection(0).doc, orphan)
        # Foreign files must survive the sweep untouched.
        foreign = os.path.join(store.directory, "notes.txt")
        with open(foreign, "w") as f:
            f.write("keep me")
        reopened = ShardedStore.open(store.directory)
        assert os.path.exists(orphan)  # opening writes nothing
        with QueryService(reopened, backend="serial") as service:
            assert service.execute("//person").total == 10
            service.apply_updates([UpdateOp("update", "d0", tree=people_site("w"))])
        assert not os.path.exists(orphan)
        assert os.path.exists(foreign)
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json", "notes.txt"] + [e["file"] for e in reopened.describe()["shards"]]
        )

    def test_the_sweep_keeps_the_files_a_live_snapshot_names(self, tmp_path):
        """A commit's sweep skips the files this store's snapshots pin;
        the last release unlinks them."""
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        old = {entry["file"] for entry in store.describe()["shards"]}
        snapshot = store.snapshot()
        store.update_document("d0", people_site("w"))
        store.update_document("d2", people_site("x"))
        assert old <= set(os.listdir(store.directory))
        assert snapshot.plane(store.shard_of("d0")).names == ["d0", "d1"]
        snapshot.release()
        assert not old & set(os.listdir(store.directory))

    def test_an_open_inside_a_commit_leaves_the_commit_whole(
        self, tmp_path, monkeypatch
    ):
        """``store info`` run by another process between a commit's new
        files and its manifest flip finds the commit lock held: it does
        not sweep, and the commit lands whole."""
        import repro.service.store as store_module

        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        write_manifest = store_module._write_manifest
        seen = []

        def open_elsewhere_then_flip(directory, manifest):
            seen.append(sorted(os.listdir(directory)))
            info = subprocess.run(
                [sys.executable, "-m", "repro", "store", "info", directory],
                capture_output=True, text=True, timeout=60,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            )
            assert info.returncode == 0, info.stderr
            seen.append(sorted(os.listdir(directory)))
            write_manifest(directory, manifest)

        monkeypatch.setattr(store_module, "_write_manifest", open_elsewhere_then_flip)
        store.update_document("d0", people_site("w", "x"))
        monkeypatch.undo()
        assert seen[0] == seen[1]  # the new file outlived the other open
        assert any(".e0002." in name for name in seen[1])
        reopened = ShardedStore.open(store.directory)
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json"] + [e["file"] for e in reopened.describe()["shards"]]
        )
        with QueryService(reopened, backend="serial") as service:
            assert service.execute("//person").counts()["d0"] == 2

    def test_a_filesystem_without_flock_opens_commits_and_never_sweeps(
        self, tmp_path, monkeypatch
    ):
        """Where a directory cannot be flocked (NFS emulates ``flock`` as
        a write lock: ``EBADF``), every open, build and commit still
        works; no commit holds the lock, so none sweeps a file it did not
        supersede itself."""
        import errno
        import fcntl

        def no_flock(fd, operation):
            if operation != fcntl.LOCK_UN:
                raise OSError(errno.EBADF, "Bad file descriptor")

        monkeypatch.setattr(fcntl, "flock", no_flock)
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        orphan = os.path.join(store.directory, "shard-0000.e0099.npz")
        save(store.collection(0).doc, orphan)
        store.update_document("d0", people_site("w", "x"))
        reopened = ShardedStore.open(store.directory)
        assert os.path.exists(orphan)
        assert reopened.epoch == 2
        with QueryService(reopened, backend="serial") as service:
            assert service.execute("//person").counts()["d0"] == 2
        monkeypatch.undo()
        reopened.update_document("d1", people_site("y"))
        assert not os.path.exists(orphan)

    def test_crashed_commit_leaves_old_state_servable(self, tmp_path, monkeypatch):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        import repro.service.store as store_module

        def crash(directory, manifest):
            raise OSError("simulated crash before the manifest flip")

        monkeypatch.setattr(store_module, "_write_manifest", crash)
        with pytest.raises(OSError, match="simulated crash"):
            store.update_document("d0", people_site("w"))
        monkeypatch.undo()
        # disk: old manifest + old files + one stranded new file
        reopened = ShardedStore.open(store.directory)
        assert reopened.epoch == 1
        with QueryService(reopened, backend="serial") as service:
            assert service.execute("//person").counts()["d0"] == 1
        # the stranded epoch-2 file outlives the open; the next commit
        # writes its epoch-2 files over it and sweeps the rest
        assert any(".e0002." in f for f in os.listdir(store.directory))
        reopened.update_document("d3", people_site("z"))
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json"] + [e["file"] for e in reopened.describe()["shards"]]
        )


# ----------------------------------------------------------------------
def manifest_bytes(store):
    with open(os.path.join(store.directory, "manifest.json"), "rb") as f:
        return f.read()


class TestReadersNeverWrite:
    """The commit protocol is the only writer of ``manifest.json``: a
    handle that only reads — ``analyze`` included — leaves the
    directory alone, so it cannot roll another handle's commit back."""

    @staticmethod
    def read_everything(directory):
        with QueryService.open(directory, backend="serial") as service:
            assert service.execute("//person").total == 10
            assert [
                r.total
                for r in service.execute_batch(["//person", "//people"])
            ] == [10, 4]
            result, _, observations = service.analyze("//person")
            assert result.total == 10 and len(observations) == 2

    def test_closing_a_stale_handle_keeps_the_commit(self, tmp_path):
        directory = str(tmp_path / "s")
        writer = ShardedStore.build(directory, small_forest(), shards=2)
        with QueryService.open(directory, backend="serial") as reader:
            reader.analyze("//person")
            summary = writer.apply_updates(
                [UpdateOp("add", "d4", tree=people_site("k"))]
            )
        # ``reader`` closed *after* the commit, holding the old manifest.
        reopened = ShardedStore.open(directory)
        assert reopened.epoch == summary["epoch"] == 2
        assert "d4" in reopened.document_names()
        (touched,) = summary["shards"]
        new_file = reopened.shard_entry(touched)["file"]
        assert ".e0002." in new_file
        assert new_file in os.listdir(directory)
        with QueryService(reopened, backend="serial") as service:
            assert service.execute("//person").counts()["d4"] == 1

    def test_a_read_only_session_leaves_the_manifest_byte_identical(
        self, tmp_path
    ):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        before = manifest_bytes(store)
        self.read_everything(store.directory)
        assert manifest_bytes(store) == before
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json"] + [e["file"] for e in store.describe()["shards"]]
        )

    @pytest.mark.skipif(
        hasattr(os, "geteuid") and os.geteuid() == 0,
        reason="root writes through a 0o555 directory",
    )
    def test_a_read_only_directory_serves(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        os.chmod(store.directory, 0o555)
        try:
            self.read_everything(store.directory)
        finally:
            os.chmod(store.directory, 0o755)


class TestTwoWriters:
    """A commit stages from the manifest on disk: one whose store missed
    another process's commit adopts it first, never writing over it."""

    def test_a_stale_server_keeps_the_other_writers_commit(self, tmp_path):
        directory = str(tmp_path / "s")
        ShardedStore.build(directory, [("d0", people_site("a")), ("d1", people_site("b"))])
        with QueryService.open(directory, backend="serial") as service:
            assert service.execute("//person", use_cache=False).total == 2
            ShardedStore.open(directory).add_document("d2", people_site("c", "d"))
            summary = service.apply_updates([UpdateOp("update", "d0", tree=people_site("w", "x"))])
            assert summary["epoch"] == 3
            counts = service.execute("//person", use_cache=False).counts()
        assert counts == {"d0": 2, "d1": 1, "d2": 2}
        reopened = ShardedStore.open(directory)
        assert reopened.epoch == 3
        assert reopened.document_names() == ["d0", "d1", "d2"]
        assert sorted(os.listdir(directory)) == ["manifest.json", "shard-0000.e0003.npz"]
        with QueryService(reopened, backend="serial") as fresh:
            assert fresh.execute("//person").counts() == counts

    def test_a_serving_store_reads_the_other_writers_commit(self, tmp_path, monkeypatch):
        """A read adopts another process's commit: the next batch's
        snapshot sees ``manifest.json`` replaced, without a commit of its
        own or a missing file to prompt it.  Its own commits do not make
        it re-read the manifest."""
        import repro.service.store as store_module

        directory = str(tmp_path / "s")
        ShardedStore.build(directory, [("d0", people_site("a")), ("d1", people_site("b"))])
        store = ShardedStore.open(directory)
        with QueryService(store, backend="serial") as service:
            assert service.execute("//person").counts() == {"d0": 1, "d1": 1}
            ShardedStore.open(directory).add_document("d2", people_site("c", "d"))
            assert service.execute("//person").counts() == {"d0": 1, "d1": 1, "d2": 2}
            assert store.epoch == 2
            reads = []
            original = store_module._read_manifest
            monkeypatch.setattr(
                store_module, "_read_manifest", lambda d: reads.append(d) or original(d)
            )
            service.apply_updates([UpdateOp("add", "d3", tree=people_site("e"))])
            assert len(reads) == 1  # the commit's own read, under the lock
            for _ in range(3):
                assert service.execute("//person", use_cache=False).total == 5
            assert len(reads) == 1


class TestManifestsWrittenBeforeFeedbackWasRemoved:
    #: What PR 10–20 stores carry: the adaptive loop's aggregates (and
    #: PR 10's per-shard "skip" table).  Nothing reads the section now.
    FEEDBACK = {
        "generation": 7,
        "signatures": [
            [0, "pred\x1fdescendant\x1fchild::profile", 1.0, 3],
            [0, "step\x1fdescendant\x1fperson", 16.0, 3],
            [1, "step\x1fdescendant\x1fperson", 16.0, 1],
        ],
        "heat": {"0": [11835962, 3], "1": [714343, 1]},
        "skip": {"0": [0.2, 5]},
    }

    def test_opens_answers_commits_and_drops_the_section(self, tmp_path):
        from repro.harness.queries import QUERY_SUITE
        from repro.harness.workloads import get_forest

        forest = get_forest(4, 0.05)
        queries = [q.xpath for q in QUERY_SUITE]
        pristine = ShardedStore.build(str(tmp_path / "new"), forest, shards=2)
        old = ShardedStore.build(str(tmp_path / "old"), forest, shards=2)
        path = os.path.join(old.directory, "manifest.json")
        with open(path) as f:
            manifest = json.load(f)
        with open(path, "w") as f:
            json.dump(dict(manifest, feedback=self.FEEDBACK), f, indent=1)

        with QueryService.open(old.directory, backend="serial") as service, \
                QueryService(pristine, backend="serial") as reference:
            assert store_bytes(service, queries) == store_bytes(reference, queries)
            ops = [UpdateOp("add", "extra", tree=people_site("k"))]
            assert service.apply_updates(ops)["epoch"] == 2
            reference.apply_updates(ops)
            assert store_bytes(service, queries) == store_bytes(reference, queries)
        with open(path) as f:
            committed = json.load(f)
        assert "feedback" not in committed
        assert committed.keys() == manifest.keys()
        assert manifest_bytes(old) == manifest_bytes(pristine)


# ----------------------------------------------------------------------
class TestServiceUpdates:
    @pytest.fixture
    def service(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            yield service

    def test_updates_invalidate_cached_results(self, service):
        before = service.execute("//person")
        assert service.execute("//person").from_cache
        service.apply_updates(
            [UpdateOp("insert", "d0", tree=element("person", text("n")), pre=1)]
        )
        after = service.execute("//person")
        assert not after.from_cache
        assert after.total == before.total + 1
        assert after.counts()["d0"] == before.counts()["d0"] + 1
        # result cache memory was released eagerly, not just fenced
        assert service.stats_snapshot()["result"]["size"] == 1

    def test_result_cache_counters_survive_commits(self, service):
        """One miss + one hit per epoch, over two commits: the counters
        add up across the ``clear()`` each commit issues, so ``/stats``
        can give a hit ratio over the process lifetime."""
        for epoch in range(3):
            assert not service.execute("//person").from_cache
            assert service.execute("//person").from_cache
            info = service.stats_snapshot()["result"]
            assert (info["hits"], info["misses"]) == (epoch + 1, epoch + 1)
            service.apply_updates(
                [UpdateOp("insert", "d0", tree=element("person", text("n")), pre=1)]
            )
            assert service.stats_snapshot()["result"]["size"] == 0

    def test_mutate_while_querying_interleaved(self, service):
        """Queries and updates interleave; every read is epoch-consistent."""
        totals = [service.execute("//person").total]
        for i in range(4):
            service.apply_updates(
                [
                    UpdateOp(
                        "insert", "d1", tree=element("person", text(f"n{i}")), pre=1
                    )
                ]
            )
            totals.append(service.execute("//person").total)
            assert_staged_is_the_file(service)
        assert totals == [10, 11, 12, 13, 14]

    def test_mutate_while_querying_threaded(self, service):
        """A querying thread racing an updating thread that edits one
        document sees totals that never go back.  One document cannot
        show a torn read; ``TestOneSnapshotPerBatch`` commits to two
        shards at once."""
        rounds = 12
        observed, errors = [], []
        started = threading.Event()

        def query_loop():
            try:
                started.set()
                while not done.is_set():
                    observed.append(
                        service.execute("//person", use_cache=False).total
                    )
                observed.append(service.execute("//person", use_cache=False).total)
            except Exception as error:  # pragma: no cover - fails the test
                errors.append(error)

        done = threading.Event()
        thread = threading.Thread(target=query_loop)
        thread.start()
        started.wait()
        for i in range(rounds):
            service.apply_updates(
                [
                    UpdateOp(
                        "insert", "d2", tree=element("person", text(f"t{i}")), pre=1
                    )
                ]
            )
            time.sleep(0.001)
        done.set()
        thread.join(timeout=30)
        assert not errors
        # documents only ever gain persons: totals are non-decreasing,
        # within the commit range, and converge on the final state.
        assert all(10 <= t <= 10 + rounds for t in observed)
        assert observed == sorted(observed)
        assert observed[-1] == 10 + rounds

    def test_scoped_query_after_update(self, service):
        service.apply_updates(
            [UpdateOp("update", "d3", tree=people_site("only"))]
        )
        scoped = service.execute("//person", document="d3")
        assert scoped.counts() == {"d3": 1}
        assert_staged_is_the_file(service)

    def test_op_validation(self):
        with pytest.raises(ReproError, match="unknown update op"):
            UpdateOp("explode", "d0")
        with pytest.raises(ReproError, match="payload"):
            UpdateOp("add", "d0")
        with pytest.raises(ReproError, match="rank"):
            UpdateOp("delete", "d0")
        with pytest.raises(ReproError, match="target document"):
            UpdateOp("remove", "")

    def test_parse_ops_round_trip(self, tmp_path):
        raw = [
            {"op": "insert", "document": "d0", "pre": 1, "xml": "<person/>"},
            {"op": "delete", "document": "d1", "pre": 2},
            {"op": "insert", "document": "d2", "pre": 0,
             "attribute": {"name": "id", "value": "7"}},
            {"op": "insert", "document": "d3", "pre": 2, "text": "hi"},
            {"op": "remove", "document": "d3"},
        ]
        ops = parse_ops(raw)
        assert [op.op for op in ops] == [
            "insert", "delete", "insert", "insert", "remove",
        ]
        assert ops[0].tree.name == "person"
        assert ops[2].tree.kind == NodeKind.ATTRIBUTE
        assert ops[3].tree.value == "hi"
        assert parse_ops({"ops": raw})[1].pre == 2

    def test_parse_ops_rejects_garbage(self):
        with pytest.raises(ReproError, match="JSON list"):
            parse_ops("nope")
        with pytest.raises(ReproError, match="not a JSON object"):
            parse_ops([42])
        with pytest.raises(ReproError, match="unknown keys"):
            parse_ops([{"op": "delete", "document": "d", "pre": 1, "frob": 1}])
        with pytest.raises(ReproError, match="at most one"):
            parse_ops(
                [{"op": "insert", "document": "d", "pre": 0,
                  "xml": "<a/>", "text": "x"}]
            )
        with pytest.raises(ReproError, match="root element"):
            parse_ops(
                [{"op": "insert", "document": "d", "pre": 0, "xml": "<!-- -->"}]
            )


# ----------------------------------------------------------------------
class TestStatsSnapshot:
    """``stats_snapshot`` pairs epoch + cache state atomically with
    ``apply_updates`` — the field-by-field reads it replaced could see
    a post-commit epoch with pre-commit cache statistics."""

    def test_snapshot_shape(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            snapshot = service.stats_snapshot()
            assert snapshot["epoch"] == store.epoch
            assert snapshot["updates_applied"] == 0
            assert snapshot["engine"] == "vectorized"
            assert snapshot["planner"] is True
            assert set(snapshot["plan"]) == {"size", "capacity", "hits", "misses"}

    def test_snapshot_counts_update_batches(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        with QueryService(store, backend="serial") as service:
            seed_epoch = store.epoch
            service.apply_updates(
                [UpdateOp("insert", "d0", tree=element("person"), pre=1)]
            )
            service.apply_updates([])  # no-op batches don't count
            snapshot = service.stats_snapshot()
            assert snapshot["updates_applied"] == 1
            assert snapshot["epoch"] == seed_epoch + 1

    def test_snapshot_consistent_under_concurrent_updates(self, tmp_path):
        """Every snapshot taken while an updater thread commits satisfies
        ``epoch == seed_epoch + updates_applied`` (each applied batch
        bumps the epoch exactly once) — the invariant unlocked reads
        tear."""
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        rounds = 12
        with QueryService(store, backend="serial") as service:
            seed_epoch = store.epoch
            errors, torn = [], []
            started = threading.Event()
            done = threading.Event()

            def snapshot_loop():
                try:
                    started.set()
                    while not done.is_set():
                        snapshot = service.stats_snapshot()
                        if (
                            snapshot["epoch"]
                            != seed_epoch + snapshot["updates_applied"]
                        ):
                            torn.append(snapshot)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            thread = threading.Thread(target=snapshot_loop)
            thread.start()
            started.wait()
            for i in range(rounds):
                service.apply_updates(
                    [
                        UpdateOp(
                            "insert", "d1", tree=element("person", text(f"s{i}")),
                            pre=1,
                        )
                    ]
                )
            done.set()
            thread.join(timeout=30)
            assert not errors
            assert not torn, f"torn snapshots observed: {torn[:3]}"
            final = service.stats_snapshot()
            assert final["updates_applied"] == rounds
            assert final["epoch"] == seed_epoch + rounds


class TestStaleTasks:
    """A batch reads one snapshot of the store.  A task of a snapshot a
    commit has since superseded answers from that snapshot's files, on
    the committing store's own lane (``own``: the serial backend, a
    fabric's lane 0) and on a lane reading through a store of its own
    (``other``: a fabric worker's) alike."""

    @staticmethod
    def answer(snapshot, which, document=None):
        from repro.service import ShardWorkerState
        from repro.service.executor import ShardTask

        shard_id = snapshot.shard_of(document) if document else 0
        if which == "other":  # built as a fabric worker builds its store
            lane = ShardedStore(snapshot.store.directory, snapshot.manifest)
            snapshot = lane.bind(snapshot.manifest)
        ((plan, engine, _, _),) = compiled([("//person", "vectorized", document, "materialize")])
        task = ShardTask(0, shard_id, plan, engine, document)
        (result,) = ShardWorkerState().run_group([task], snapshot)
        return {name: len(ranks) for name, ranks in result.payload.items()}

    @pytest.mark.parametrize("which", ["own", "other"])
    @pytest.mark.parametrize(
        "commit, document",
        [
            (lambda store: store.update_document("d0", people_site("x", "y")), None),
            (lambda store: [store.remove_document(name) for name in ("d0", "d1")], None),
            (lambda store: store.remove_document("d0"), "d0"),
        ],
        ids=["updated", "shard-removed", "member-removed"],
    )
    def test_a_stale_task_answers_its_snapshot(self, tmp_path, which, commit, document):
        """Updated, its shard emptied or its member removed since: the
        answer is the snapshot's, and the superseded file is unlinked
        when the snapshot is released, not before."""
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        snapshot = store.snapshot()
        stale = os.path.join(store.directory, store.shard_entry(0)["file"])
        commit(store)
        assert store.epoch > snapshot.epoch
        answer = self.answer(snapshot, which, document)
        assert answer == ({"d0": 1} if document else {"d0": 1, "d1": 2})
        assert os.path.exists(stale)
        snapshot.release()
        assert not os.path.exists(stale)
        assert sorted(os.listdir(store.directory)) == sorted(
            ["manifest.json"] + [entry["file"] for entry in store._manifest["shards"]]
        )

    def test_a_newer_manifest_becomes_the_lane_stores(self, tmp_path, monkeypatch):
        """A lane's store learns of a commit from the snapshot it is
        handed, not from disk: it adopts the newer manifest, answers from
        the new file and drops the old plane."""
        import repro.service.store as store_module

        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=1)
        lane = ShardedStore.open(store.directory)
        lane.collection(0)  # the pre-commit plane
        store.update_document("d0", people_site("x", "y", "z"))
        reads = []
        monkeypatch.setattr(store_module, "_read_manifest", reads.append)
        with store.snapshot() as snapshot, lane.bind(snapshot.manifest) as bound:
            assert bound.plane(0).names == ["d0", "d1", "d2", "d3"]
            assert len(bound.plane(0).evaluate("//person")) == 12
        assert reads == []
        assert lane.epoch == 2
        assert list(lane._collections) == [0]
        assert lane._collections[0][0] == store.shard_entry(0)["file"]

    def test_an_older_manifest_leaves_the_lane_store_alone(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=1)
        lane = ShardedStore.open(store.directory)
        with store.snapshot() as old:
            store.update_document("d0", people_site("x", "y", "z"))
            with store.snapshot() as new, lane.bind(new.manifest):
                current = lane.collection(0)
            with lane.bind(old.manifest) as bound:
                assert bound.plane(0) is not current
                assert len(bound.plane(0).evaluate("//person")) == 10
            assert lane.epoch == 2 and lane.collection(0) is current

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    def test_a_file_another_process_removed_reruns_the_batch(
        self, tmp_path, backend, monkeypatch
    ):
        """A commit elsewhere removed the file a lane needs: the store
        re-reads the manifest once and the batch re-runs on a fresh
        snapshot, which answers the new state."""
        import repro.service.store as store_module

        if backend != "serial" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the fabric forks its workers")
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        reader = ShardedStore.open(store.directory)
        with QueryService(reader, backend=backend) as service:
            store.update_document("d0", people_site("x", "y"))
            store.update_document("d3", people_site("z"))
            reads = []
            original = store_module._read_manifest
            monkeypatch.setattr(
                store_module, "_read_manifest", lambda d: reads.append(d) or original(d)
            )
            answer = service.execute("//person", use_cache=False)
            assert answer.counts() == {"d0": 2, "d1": 2, "d2": 3, "d3": 1}
            assert len(reads) == 1
            assert reader.epoch == 3

    def test_a_reread_manifest_is_checked_like_open(self, tmp_path):
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=1)
        reader = ShardedStore.open(store.directory)
        manifest = json.loads(manifest_bytes(store))
        manifest["shards"][0]["file"] = "../elsewhere.npz"
        with open(os.path.join(store.directory, "manifest.json"), "w") as f:
            json.dump(manifest, f)
        os.remove(os.path.join(store.directory, store.shard_entry(0)["file"]))
        with QueryService(reader, backend="serial") as service:
            with pytest.raises(ReproError, match="not a shard file name"):
                service.execute("//person")

    def test_a_manifest_naming_a_missing_file_fails_at_once(self, tmp_path, monkeypatch):
        import repro.service.store as store_module

        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        missing = store.shard_entry(1)["file"]
        os.remove(os.path.join(store.directory, missing))
        reads = []
        original = store_module._read_manifest
        monkeypatch.setattr(
            store_module, "_read_manifest", lambda d: reads.append(d) or original(d)
        )
        reopened = ShardedStore.open(store.directory)
        with pytest.raises(ReproError, match=f"{missing} is named by the manifest but missing"):
            reopened.collection(1)
        assert len(reads) == 2  # the open, and one re-read
        with QueryService(reopened, backend="serial") as service:
            with pytest.raises(ReproError, match=missing):
                service.execute("//person")
        assert len(reads) == 3  # the batch re-read it once more, no retry loop


class TestOneSnapshotPerBatch:
    """A read racing commits that each touch two shards sees every
    commit whole or not at all: all shards of one answer come from one
    snapshot, on lane 0 and on a fabric worker alike."""

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    @given(pair=st.tuples(st.sampled_from(["d0", "d1"]), st.sampled_from(["d2", "d3"])))
    @settings(max_examples=3, deadline=None)
    def test_no_read_is_torn(self, tmp_path_factory, backend, pair):
        if backend != "serial" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the fabric forks its workers")
        directory = str(tmp_path_factory.mktemp("torn") / "s")
        store = ShardedStore.build(directory, small_forest(), shards=2)
        assert {store.shard_of(name) for name in pair} == {0, 1}
        observed, errors = [], []
        done = threading.Event()
        with QueryService(store, backend=backend) as service:

            def query_loop():
                try:
                    while not done.is_set():
                        observed.append(service.execute("//person", use_cache=False).total)
                except Exception as error:  # pragma: no cover - fails the test
                    errors.append(error)

            thread = threading.Thread(target=query_loop)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the threads finely
            try:
                thread.start()
                deadline = time.monotonic() + 1.0
                commits = 0
                while commits < 200 and (commits < 20 or time.monotonic() < deadline):
                    service.apply_updates(
                        [
                            UpdateOp("insert", name, tree=element("person", text(f"t{commits}")), pre=1)
                            for name in pair
                        ]
                    )
                    commits += 1
            finally:
                done.set()
                sys.setswitchinterval(interval)
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert not errors
        assert observed
        # Every committed state holds 10 + 2k persons: an odd total is a
        # read that saw one shard before a commit and one after it.
        assert [total for total in observed if total % 2] == []
        assert max(observed) <= 10 + 2 * commits


class TestSupersededPlanesDie:
    """A plane a commit superseded is freed by reference counting once
    its last reader drops it: no evaluator, executor or lane holds it
    in a reference cycle until a generation-2 collection."""

    @staticmethod
    def commit_and_read(service, i):
        service.apply_updates(
            [UpdateOp("insert", "d0", tree=element("person", text(f"g{i}")), pre=1)]
        )
        return service.execute("//person", use_cache=False).total

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    def test_a_superseded_plane_dies_without_gc(self, tmp_path, backend):
        import gc
        import weakref

        if backend != "serial" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the fabric forks its workers")
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        with QueryService(store, backend=backend) as service:
            service.execute("//person", use_cache=False)  # shard 0 runs on lane 0
            # DocTable has __slots__ without __weakref__: watch a column.
            superseded = weakref.ref(store.collection(0).doc.post)
            gc.disable()
            try:
                assert self.commit_and_read(service, 0) == 11
                assert superseded() is None
            finally:
                gc.enable()

    @pytest.mark.parametrize("backend", ["serial", "fabric:2"])
    def test_commits_and_reads_leave_no_plane_in_cyclic_garbage(self, tmp_path, backend):
        import gc

        from repro.encoding.collection import DocumentCollection
        from repro.encoding.doctable import DocTable
        from repro.xpath.evaluator import Evaluator

        if backend != "serial" and multiprocessing.get_start_method() != "fork":
            pytest.skip("the fabric forks its workers")
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        with QueryService(store, backend=backend) as service:
            service.execute("//person", use_cache=False)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                for i in range(5):
                    assert self.commit_and_read(service, i) == 11 + i
                gc.collect()
                held = [
                    type(o).__name__ for o in gc.garbage
                    if isinstance(o, (DocTable, DocumentCollection, Evaluator))
                ]
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
        assert held == []


class TestOneShardOpener:
    """The store is the one shard opener of a process: commits and lane
    0 share its planes, so a commit reloads nothing and the next read
    runs on the plane the commit staged."""

    def test_commits_and_reads_load_no_shard_again(self, tmp_path, monkeypatch):
        import repro.service.store as store_module

        forest = [(f"d{i}", people_site(f"p{i}", f"q{i}")) for i in range(8)]
        directory = str(tmp_path / "s")
        ShardedStore.build(directory, forest, shards=4, compression="packed")
        loads = []
        load = store_module.load
        monkeypatch.setattr(
            store_module, "load",
            lambda path, mmap=False: loads.append(path) or load(path, mmap=mmap),
        )
        with QueryService(ShardedStore.open(directory), backend="serial") as service:
            assert service.execute("//person").total == 16
            assert len(loads) == 4
            for i in range(3):
                service.apply_updates(
                    [UpdateOp("insert", "d0", tree=element("person", text(f"n{i}")), pre=1)]
                )
                assert service.execute("//person").total == 17 + i
            assert len(loads) == 4
            assert_staged_is_the_file(service)

    @pytest.mark.parametrize("compression", ["none", "packed"])
    def test_a_cached_plane_is_read_only(self, tmp_path, compression):
        store = ShardedStore.build(
            str(tmp_path / "s"), small_forest(), shards=2, compression=compression
        )
        store.update_document("d3", people_site("z"))  # shard 1: a staged plane
        for shard_id in store.shard_ids():
            doc = store.collection(shard_id).doc
            for column in (
                doc.post, doc.level, doc.parent, doc.kind, doc.tag.codes,
                doc.values.codes, doc.values.blob, doc.values.offsets,
            ):
                with pytest.raises(ValueError, match="read-only"):
                    column[:1] = column[:1]

    def test_fabric_answers_the_reference_across_commits(self, tmp_path):
        """Lane 0 runs on the staged planes and lane 1 on the files its
        own store reads, through commits, a killed worker and a batch
        whose snapshot a commit superseded; every answer is the
        reference's for the state its snapshot names."""
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the fabric forks its workers")
        mirror = dict(small_forest())  # d0, d1 → shard 0 (lane 0); d2, d3 → lane 1
        store = ShardedStore.build(str(tmp_path / "s"), small_forest(), shards=2)
        queries = ("//person", "/site/people/person[2]", "//people[person]/person")

        def check(answers, query, trees=None):
            for name, ranks in answers.items():
                expected = Reference((trees or mirror)[name]).evaluate(query)
                assert ranks.tobytes() == expected.tobytes(), (query, name)

        def update(service, round_, *names):
            for name in names:
                mirror[name] = people_site(*[f"r{round_}{i}" for i in range(round_ + 2)])
            service.apply_updates(
                [UpdateOp("update", name, tree=mirror[name]) for name in names]
            )

        with QueryService(store, backend="fabric:2") as service:
            backend = service.backend
            for round_, names in enumerate([(), ("d0",), ("d2",), ("d1", "d3")]):
                if names:
                    update(service, round_, *names)
                for query in queries:
                    if query.startswith("//"):  # unscoped: ROADMAP item 1
                        answers = service.execute(query, use_cache=False).per_document
                        assert list(answers) == list(mirror)
                        check(answers, query)
                    for name in mirror:
                        scoped = service.execute(query, document=name, use_cache=False)
                        check(scoped.per_document, query)
            # A batch whose snapshot a commit superseded answers that
            # snapshot on both lanes; lane 1's worker is killed first, so
            # its replacement reads through a store that never held them.
            snapshot, before = store.snapshot(), dict(mirror)
            update(service, 4, "d1", "d2")
            victim = backend._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            items = compiled([("//person", "vectorized", None, "materialize")])
            (merged,) = backend.run_batch(items, snapshot=snapshot)
            assert list(merged) == list(before)
            check(merged, "//person", before)
            assert backend._procs[1].pid != victim.pid
            stale = [
                os.path.join(store.directory, entry["file"])
                for entry in snapshot.manifest["shards"]
            ]
            assert all(os.path.exists(path) for path in stale)
            snapshot.release()
            assert not any(os.path.exists(path) for path in stale)
            check(service.execute("//person", use_cache=False).per_document, "//person")

# ----------------------------------------------------------------------
def mirror_insert(nodes, parent_index, fragment, before_index=None):
    """Tree-level equivalent of a splice insert (for the reference build)."""
    parent = nodes[parent_index]
    fragment.parent = parent
    if before_index is not None:
        parent.children.insert(
            parent.children.index(nodes[before_index]), fragment
        )
    elif fragment.kind == NodeKind.ATTRIBUTE:
        # auto-positioning: the splice keeps attributes ahead of
        # element/text children, like Node.set_attribute does
        count = sum(
            1 for c in parent.children if c.kind == NodeKind.ATTRIBUTE
        )
        parent.children.insert(count, fragment)
    else:
        parent.children.append(fragment)


class TestSpliceEqualsReencode:
    """Random op sequences through ``QueryService.apply_updates`` give
    results byte-identical to a store rebuilt from scratch — the update
    analogue of batched == serial."""

    @given(
        seed=st.integers(0, 10_000),
        doc_sizes=st.lists(st.integers(4, 40), min_size=2, max_size=4),
        op_count=st.integers(1, 6),
        shards=st.integers(1, 3),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_ops_property(
        self, seed, doc_sizes, op_count, shards, tmp_path_factory
    ):
        import random

        rng = random.Random(seed)
        forest = [
            (f"doc-{i}", random_tree(size, seed + i))
            for i, size in enumerate(doc_sizes)
        ]
        mirror = {name: copy.deepcopy(tree) for name, tree in forest}
        directory = str(tmp_path_factory.mktemp("splice-prop") / "store")
        store = ShardedStore.build(directory, forest, shards=shards)

        ops = []
        fresh_serial = 0
        for _ in range(op_count):
            name = rng.choice(list(mirror))
            nodes = preorder_nodes(mirror[name])
            kind = rng.choice(
                ["insert", "insert", "delete", "replace", "update", "add", "remove"]
            )
            if kind == "insert":
                elements = [
                    i for i, n in enumerate(nodes) if n.kind == NodeKind.ELEMENT
                ]
                parent_index = rng.choice(elements)
                if rng.random() < 0.3:
                    fragment = attribute(f"a{fresh_serial}", "v")
                else:
                    fragment = random_tree(rng.randrange(1, 6), seed + fresh_serial)
                fresh_serial += 1
                # optionally insert before an existing non-attribute child
                children = [
                    i
                    for i, n in enumerate(nodes)
                    if n.parent is nodes[parent_index]
                    and n.kind != NodeKind.ATTRIBUTE
                ]
                before = (
                    rng.choice(children)
                    if children and rng.random() < 0.5 and
                    fragment.kind != NodeKind.ATTRIBUTE
                    else None
                )
                ops.append(
                    UpdateOp(
                        "insert", name,
                        tree=copy.deepcopy(fragment),
                        pre=parent_index, before=before,
                    )
                )
                mirror_insert(nodes, parent_index, fragment, before)
            elif kind == "delete" and len(nodes) > 1:
                victim = rng.randrange(1, len(nodes))
                ops.append(UpdateOp("delete", name, pre=victim))
                nodes[victim].parent.children.remove(nodes[victim])
            elif kind == "replace":
                # replacing an attribute with an element would violate
                # attributes-first (the splice rejects it); pick
                # non-attribute victims, as a real caller would
                victims = [
                    i
                    for i in range(1, len(nodes))
                    if nodes[i].kind != NodeKind.ATTRIBUTE
                ]
                if not victims:
                    continue
                victim = rng.choice(victims)
                fragment = random_tree(rng.randrange(1, 6), seed + fresh_serial)
                fresh_serial += 1
                ops.append(
                    UpdateOp("replace", name, tree=copy.deepcopy(fragment), pre=victim)
                )
                parent = nodes[victim].parent
                fragment.parent = parent
                parent.children[parent.children.index(nodes[victim])] = fragment
            elif kind == "update":
                fragment = random_tree(rng.randrange(2, 20), seed + fresh_serial)
                fresh_serial += 1
                ops.append(UpdateOp("update", name, tree=copy.deepcopy(fragment)))
                mirror[name] = fragment
            elif kind == "add":
                new_name = f"added-{fresh_serial}"
                fragment = random_tree(rng.randrange(2, 20), seed + fresh_serial)
                fresh_serial += 1
                ops.append(UpdateOp("add", new_name, tree=copy.deepcopy(fragment)))
                mirror[new_name] = fragment
            elif kind == "remove" and len(mirror) > 1:
                ops.append(UpdateOp("remove", name))
                del mirror[name]

        with QueryService(store, backend="serial") as service:
            service.apply_updates(ops)
            fresh_directory = str(
                tmp_path_factory.mktemp("splice-prop") / "fresh"
            )
            fresh_store = ShardedStore.build(
                fresh_directory, list(mirror.items()), shards=shards
            )
            with QueryService(fresh_store, backend="serial") as fresh_service:
                updated = store_bytes(service, PROPERTY_QUERIES)
                rebuilt = store_bytes(fresh_service, PROPERTY_QUERIES)
                assert updated == rebuilt
            assert_staged_is_the_file(service)
