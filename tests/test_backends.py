"""Execution-backend suite: protocol, fabric transport, lifecycle.

The headline property extends the service layer's batched == serial:
**the backend is invisible** — serial and fabric answer any
batch byte-identically across engines, result modes, and planner
settings (pinned suite + a hypothesis sweep over random forests).
Around it, what is new with the fabric: ``fabric:N`` forks N−1 workers
and answers lane 0's share in-process; a worker's reply is a framed
descriptor followed by its raw rank bytes on the same pipe, read into
one buffer per reply with nothing read ahead; shard affinity keeps
per-worker prefix caches warm, a scarce shard's chunks spread over idle
workers, a killed worker is replaced mid-batch (mid-frame and mid-body
too), concurrent callers get their own answers, a fabric starts no
thread, its workers die with a killed server, closing (explicitly, via
GC, or through ``ThreadedServer`` teardown) leaks no process, and
nothing is ever written to ``/dev/shm``.
"""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError, XPathEvaluationError
from repro.harness.workloads import get_forest
from repro.server import ServerConfig, ThreadedServer
from repro.service import (
    FabricBackend,
    QueryService,
    SerialBackend,
    ShardedStore,
    ShardResult,
    make_backend,
)
from repro.service import backend as backend_module
from repro.service import fabric
from repro.service.backend import BACKEND_ENV
from repro.service.executor import ShardTask

from _reference import random_tree

ENGINES = ("scalar", "vectorized")
MODES = ("materialize", "count", "exists")

SUITE = (
    "//open_auction/bidder",
    "/descendant::increase/ancestor::bidder",
    "//person/attribute::id",
    "//seller | //buyer",
    "//open_auction[bidder]/seller",
    "//no_such_tag",
)


def fabric_segments() -> list:
    """``repro-fab-*`` names in /dev/shm: the fabric writes none, and
    none a crashed older build left may be mistaken for ours."""
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith("repro-fab-")]
    except OSError:  # pragma: no cover - no /dev/shm
        return []


def live_children() -> set:
    """Pids of this process's children that have not exited."""
    me, found = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                state, parent = f.read().rsplit(")", 1)[1].split()[:2]
        except OSError:  # exited while we looked
            continue
        if int(parent) == me and state != "Z":
            found.add(int(entry))
    return found


@pytest.fixture(scope="module")
def forest():
    return get_forest(4, 0.04)


@pytest.fixture(scope="module")
def store(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("backends") / "store")
    return ShardedStore.build(directory, forest, shards=3)


def snapshot(result):
    """A backend-independent, byte-exact image of a ServiceResult."""
    if result.mode == "materialize":
        payload = {
            name: (a.dtype.str, a.tobytes())
            for name, a in result.per_document.items()
        }
    else:
        payload = result.value
    return (result.query, result.mode, result.total, payload)


def run_suite(service, queries):
    out = []
    for mode in MODES:
        out.extend(
            snapshot(r)
            for r in service.execute_batch(queries, mode=mode, use_cache=False)
        )
    return out


# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_pinned_suite_identical(self, store, engine):
        images = []
        for backend in ("serial", "fabric:2"):
            with QueryService(store, backend=backend, engine=engine) as service:
                images.append(run_suite(service, SUITE))
        assert images[0] == images[1]

    @given(
        seeds=st.lists(st.integers(0, 300), min_size=2, max_size=3),
        size=st.integers(10, 50),
        shards=st.integers(1, 3),
        lanes=st.integers(2, 3),  # fabric:1 is the serial path itself
        engine=st.sampled_from(ENGINES),
        planner=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_random_forest_identical(
        self, seeds, size, shards, lanes, engine, planner, tmp_path_factory
    ):
        forest = [
            (f"doc-{i}", random_tree(size, seed)) for i, seed in enumerate(seeds)
        ]
        directory = str(tmp_path_factory.mktemp("bprop") / "store")
        store = ShardedStore.build(directory, forest, shards=shards)
        queries = ("//*", "/descendant::node()", "//*[*]/..", "//*[2]") + SUITE
        images = []
        for backend in ("serial", f"fabric:{lanes}"):
            with QueryService(
                store, backend=backend, planner=planner, engine=engine
            ) as service:
                images.append(run_suite(service, queries))
        assert images[0] == images[1]

    def test_scoped_and_mixed_mode_batches(self, store):
        document = store.document_names()[1]
        images = []
        for backend in ("serial", "fabric:2"):
            with QueryService(store, backend=backend) as service:
                scoped = service.execute(
                    "//person", document=document, use_cache=False
                )
                mixed = service.execute_batch(
                    ["//person", "//person", "//person"],
                    mode=["materialize", "count", "exists"],
                    use_cache=False,
                )
                images.append([snapshot(scoped)] + [snapshot(r) for r in mixed])
        assert images[0] == images[1]

    def test_fabric_arrays_survive_service_close(self, store):
        with QueryService(store, backend="fabric:2") as service:
            result = service.execute("//open_auction/bidder", use_cache=False)
        expected = None
        with QueryService(store, backend="serial") as service:
            expected = service.execute("//open_auction/bidder", use_cache=False)
        # The fabric's buffers belong to this process: the arrays
        # handed out must still read correctly after close.
        for name, ranks in expected.per_document.items():
            assert result.per_document[name].tobytes() == ranks.tobytes()


# ----------------------------------------------------------------------
class TestBackendSelection:
    def test_make_backend_specs(self, store):
        assert type(make_backend("serial", store)) is SerialBackend
        fabric = make_backend("fabric:2", store)
        assert type(fabric) is FabricBackend and fabric.workers == 2
        fabric.close()
        instance = SerialBackend(store)
        assert make_backend(instance, store) is instance

    def test_bad_specs_rejected(self, store):
        with pytest.raises(ReproError, match="unknown backend"):
            make_backend("quantum", store)
        with pytest.raises(ReproError, match="worker count"):
            make_backend("fabric:many", store)
        with pytest.raises(ReproError, match="backend spec"):
            make_backend(3.14, store)
        with pytest.raises(ReproError):
            FabricBackend(store, workers=0)

    @pytest.mark.parametrize("spec", ["pool", "pool:2"])
    def test_removed_pool_backend_is_rejected_by_name(self, store, spec, monkeypatch):
        expected = r"unknown backend 'pool' \(expected serial or fabric\)"
        with pytest.raises(ReproError, match=expected):
            make_backend(spec, store)
        monkeypatch.setenv(BACKEND_ENV, spec)
        with pytest.raises(ReproError, match=expected):
            QueryService(store)

    def test_default_backend_is_serial(self, store, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        with QueryService(store) as service:
            # Exact type: a FabricBackend is a SerialBackend too.
            assert type(service.backend) is SerialBackend

    def test_env_variable_supplies_default(self, store, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fabric:2")
        with QueryService(store) as service:
            assert type(service.backend) is FabricBackend
            assert service.backend.workers == 2

    def test_explicit_argument_beats_env(self, store, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "fabric:2")
        with QueryService(store, backend="serial") as service:
            assert type(service.backend) is SerialBackend

    def test_worker_count_parameters_are_gone(self, store):
        with pytest.raises(TypeError):
            QueryService(store, workers=2)
        with pytest.raises(TypeError):
            make_backend("fabric", store, workers=2)

    def test_stats_snapshot_names_backend(self, store):
        with QueryService(store, backend="serial") as service:
            snapshot = service.stats_snapshot()
        assert snapshot["backend"] == "serial"
        assert snapshot["workers"] == 0

    def test_query_service_open_context_manager(self, store):
        with QueryService.open(store.directory, backend="fabric:2") as service:
            total = service.execute("//person").total
            assert total > 0
            backend = service.backend
            assert backend._procs is not None
        assert backend._procs is None  # closed on exit


# ----------------------------------------------------------------------
class TestLanes:
    """``fabric:N`` is N lanes: the calling thread plus N−1 workers."""

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_fabric_n_forks_n_minus_one_workers(self, store, lanes):
        children = live_children()
        with FabricBackend(store, workers=lanes) as backend:
            assert backend.workers == lanes
            forked = live_children() - children
            assert forked == {p.pid for p in backend._procs.values()}
            assert len(forked) == lanes - 1
            backend.run_batch([("//person", "vectorized", None, "count")])
            assert live_children() - children == forked  # none at first use
        assert live_children() - children == set()

    def test_a_fabric_starts_no_thread(self, store):
        """Pipes are read by the dispatching thread itself: no thread is
        started at construction, by a respawn, or left after close."""
        before = set(threading.enumerate())
        backend = FabricBackend(store, workers=3)
        try:
            assert set(threading.enumerate()) <= before
            backend.run_batch([("//person", "vectorized", None, "count")])
            victim, sibling = backend._procs[1], backend._procs[2]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            backend.run_batch([("//person", "vectorized", None, "count")])
            # Lane 1 was respawned, lane 2 was not.
            assert backend._procs[1].pid != victim.pid
            assert backend._procs[2] is sibling
            assert set(threading.enumerate()) <= before
        finally:
            backend.close()
        assert set(threading.enumerate()) <= before

    def test_one_lane_is_serial(self, store, monkeypatch):
        """``fabric:1``, and a bare ``fabric`` resolving to one lane, are
        the serial backend: one spelling per backend, nothing forked."""
        children = live_children()
        assert type(make_backend("fabric:1", store)) is SerialBackend
        monkeypatch.setattr(backend_module, "default_workers", lambda store: 1)
        assert type(make_backend("fabric", store)) is SerialBackend
        assert live_children() == children
        with pytest.raises(ReproError, match="two or more lanes"):
            FabricBackend(store, workers=1)

    def test_lane_zero_answers_in_process(self, forest, tmp_path):
        single = ShardedStore.build(str(tmp_path / "store"), forest, shards=1)
        item = ("//open_auction/bidder", "vectorized", None, "materialize")
        expected = SerialBackend(single).run_batch([item])
        with FabricBackend(single, workers=2) as backend:
            merged = backend.run_batch([item])
            stats = backend.worker_stats()
            in_process = backend._serial_state.prefix_cache.info()
        assert backend._serial_state is None  # close drops lane 0's planes
        assert stats["dispatched"] == [1, 0]  # shard 0 % 2 lanes = lane 0
        assert {n: a.tobytes() for n, a in merged[0].items()} == {
            n: a.tobytes() for n, a in expected[0].items()
        }
        lane0, lane1 = stats["workers"]
        assert lane0["prefix_cache"] == in_process
        assert lane0["prefix_cache"].keys() == lane1["prefix_cache"].keys()

    def test_lane_zero_error_waits_for_the_remote_units(self, store, monkeypatch):
        from repro.service import ShardWorkerState

        def boom(self, tasks):
            raise RuntimeError("lane 0 exploded")

        counted = ("//person", "vectorized", None, "count")
        expected = SerialBackend(store).run_batch([counted])
        with FabricBackend(store, workers=2) as backend:
            # Patched after the fork: only lane 0 runs ``boom``.
            monkeypatch.setattr(ShardWorkerState, "run_group", boom)
            item = ("//open_auction/bidder", "vectorized", None, "materialize")
            with pytest.raises(RuntimeError, match="lane 0 exploded"):
                backend.run_batch([item])
            # Lane 1's reply, body and all, was read before the raise:
            # nothing waits on its pipe, so the next batch reads its own.
            assert not backend._conns[1].poll()
            monkeypatch.undo()
            assert backend.run_batch([counted]) == expected


# ----------------------------------------------------------------------
class TestShardResult:
    def _task(self, mode):
        return ShardTask(
            index=3, shard_id=1, shard_file="shard.npz", names=("d0",),
            plan="//a", engine="vectorized", document=None, mode=mode,
        )

    def test_of_and_payload_round_trip(self):
        ranks = {"d0": np.arange(4, dtype=np.int64)}
        materialized = ShardResult.of(self._task("materialize"), ranks)
        assert materialized.payload == ranks
        assert (materialized.index, materialized.shard_id) == (3, 1)
        counted = ShardResult.of(self._task("count"), {"d0": 4})
        assert counted.payload == {"d0": 4}
        found = ShardResult.of(self._task("exists"), True)
        assert found.payload is True and found.mode == "exists"


# ----------------------------------------------------------------------
class TestReplyWire:
    """A ``done`` reply on the lane's own pipe: the descriptor framed,
    then the rank bytes raw, read into one buffer per reply."""

    def _results(self):
        task = ShardTask(
            index=2, shard_id=1, shard_file="f.npz", names=("d0", "d1", "d2"),
            plan="//a", engine="vectorized", document=None,
        )
        empty = np.empty(0, dtype=np.int64)
        return [
            ShardResult.of(task, {
                "d0": np.arange(100, dtype=np.int64),
                "d1": empty,
                "d2": np.array([7, 9], dtype=np.int64),
            }),
            ShardResult.of(task, {"d0": empty}),
            ShardResult.build(2, 1, "count", {"d0": 3}, ("observed",)),
            ShardResult.of(task._replace(mode="exists"), True),
        ]

    def _within(self, read, seconds=30):
        """``read()`` on a thread: a read that would hang fails instead."""
        done = []
        reader = threading.Thread(target=lambda: done.append(read()), daemon=True)
        reader.start()
        reader.join(timeout=seconds)
        assert done, "the read hung"
        return done[0]

    def test_round_trip_over_a_pipe(self):
        sent = self._results()
        light, arrays = fabric._pack(sent)
        # Only non-empty columns make the body; the descriptor holds
        # counts, never rank bytes.
        assert [len(ranks) for ranks in arrays] == [100, 2]
        assert light[0][3] == [("d0", 100), ("d1", 0), ("d2", 2)]
        ours, theirs = multiprocessing.Pipe()
        with ours, theirs:
            fabric._send_done(theirs, light, arrays)
            kind, received = self._within(lambda: fabric._receive(ours))
            assert not ours.poll()  # the body was read to its last byte
        assert kind == "done"
        assert received[2:] == sent[2:]
        assert received[2].observations == ("observed",)
        for got, want in zip(received[:2], sent[:2]):
            assert (got.index, got.shard_id, got.mode) == (2, 1, "materialize")
            assert list(got.ranks) == list(want.ranks)
            for name, ranks in want.ranks.items():
                assert got.ranks[name].dtype == np.int64
                assert got.ranks[name].tobytes() == ranks.tobytes()

    def test_a_frame_after_a_body_is_read_intact(self):
        """``Connection.recv`` reads its own frame and nothing after it:
        the raw body behind a descriptor, and the frame behind that
        body, are both still on the socket for their own readers."""
        ours, theirs = multiprocessing.Pipe()
        with ours, theirs:
            fabric._send_done(theirs, *fabric._pack(self._results()))
            theirs.send(("stats", {"after": "the body"}))
            kind, received = self._within(lambda: fabric._receive(ours))
            assert received[0].ranks["d0"].tolist() == list(range(100))
            assert ours.recv() == ("stats", {"after": "the body"})
            assert not ours.poll()

    def test_remote_ranks_are_slices_of_one_buffer(self, store):
        backend = FabricBackend(store, workers=2)
        merged = backend.run_batch([
            ("//open_auction/bidder", "vectorized", None, "materialize"),
            ("//bidder/increase", "vectorized", None, "materialize"),
        ])
        # Shard 1 ran on lane 1, the forked worker: one reply for both
        # queries, one buffer under every remote column.
        remote = store.shard_entry(1)["documents"]
        columns = [answer[name] for answer in merged for name in remote]
        assert len(columns) == 2 and all(len(ranks) > 1 for ranks in columns)
        assert len({id(ranks.base) for ranks in columns}) == 1
        buffer = columns[0].base
        assert type(buffer) is np.ndarray and buffer.base is None  # owned
        assert buffer.nbytes == sum(ranks.nbytes for ranks in columns)
        expected = [ranks.tolist() for ranks in columns]
        tails = [ranks[1:] for ranks in columns]  # all that will be left
        del merged, columns, buffer
        backend.close()
        gc.collect()
        assert [tail.tolist() for tail in tails] == [e[1:] for e in expected]
        assert fabric_segments() == []


def dying_worker(marker, fault):
    """A ``_fabric_worker`` whose first fork reads its message, runs
    ``fault`` on its pipe and exits; every later fork is the real one."""
    worker = fabric._fabric_worker

    def patched(directory, conn, inherited):
        try:
            marker.touch(exist_ok=False)
        except FileExistsError:
            return worker(directory, conn, inherited)
        conn.recv()
        fault(conn)
        os._exit(0)

    return patched


# ----------------------------------------------------------------------
class TestAffinityAndResilience:
    def test_affinity_routes_shards_to_stable_workers(self, store):
        backend = FabricBackend(store, workers=2)
        with QueryService(store, backend=backend) as service:
            for _ in range(3):
                service.execute_batch(SUITE, use_cache=False)
            stats = backend.worker_stats()
        # 3 shards over 2 workers: shard 0 and 2 → worker 0, shard 1 →
        # worker 1; nobody is ever strictly less loaded than the affine
        # worker, so the split must be exactly 2:1 per batch.
        assert stats["stolen"] == 0
        assert stats["dispatched"][0] == 2 * stats["dispatched"][1]

    def test_affinity_keeps_prefix_caches_warm(self, store):
        backend = FabricBackend(store, workers=2)
        with QueryService(store, backend=backend) as service:
            prefix_batch = [
                "//open_auction/bidder/increase",
                "//open_auction/bidder/date",
                "//open_auction/bidder/personref",
            ]
            service.execute_batch(prefix_batch, use_cache=False)
            first = backend.worker_stats()
            service.execute_batch(prefix_batch, use_cache=False)
            second = backend.worker_stats()
        for before, after in zip(first["workers"], second["workers"]):
            # Every worker re-read its shard's shared prefixes from its
            # own LRU — affinity means the second batch hits.
            assert after["prefix_cache"]["hits"] > before["prefix_cache"]["hits"]

    def test_stealing_rebalances_a_backlogged_worker(self, store):
        with FabricBackend(store, workers=2) as backend:
            # Shard 0's affine worker holds 3 units, worker 1 none.
            assert backend._assign(0, [3, 0]) == 1
            assert backend._assign(0, [0, 0]) == 0  # balanced: stay affine
            assert backend._assign(0, [1, 0]) == 1  # strictly fewer is enough
            assert backend._assign(1, [2, 2]) == 1  # ties stay affine
            assert backend._assign(1, [1, 2]) == 0
            assert backend.stolen == 3
        with FabricBackend(store, workers=4) as wide:
            assert wide._assign(0, [2, 1, 0, 0]) == 2  # the first least-loaded

    @pytest.mark.parametrize("shards, workers", [(1, 2), (2, 4)])
    def test_scarce_shards_feed_every_worker(
        self, forest, tmp_path, shards, workers
    ):
        scarce = ShardedStore.build(str(tmp_path / "store"), forest, shards=shards)
        batch = list(SUITE) + ["//person", "//open_auction"]
        assert len(batch) == 8
        with QueryService(scarce, backend="serial") as service:
            expected = [
                snapshot(r) for r in service.execute_batch(batch, use_cache=False)
            ]
        backend = FabricBackend(scarce, workers=workers)
        with QueryService(scarce, backend=backend) as service:
            answers = [
                snapshot(r) for r in service.execute_batch(batch, use_cache=False)
            ]
            assert all(sent > 0 for sent in backend.dispatched), backend.dispatched
        assert answers == expected

    def test_killed_worker_is_respawned_and_batch_completes(self, store):
        backend = FabricBackend(store, workers=2)
        with QueryService(store, backend=backend) as service:
            baseline = [
                snapshot(r)
                for r in service.execute_batch(SUITE, use_cache=False)
            ]
            victim = backend._procs[1]  # lane 0 is this process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            again = [
                snapshot(r)
                for r in service.execute_batch(SUITE, use_cache=False)
            ]
            assert again == baseline
            assert backend._procs[1].pid != victim.pid
            # Re-dispatched units (and any duplicate completion) leave
            # no name behind while the service lives on.
            assert fabric_segments() == []
        assert fabric_segments() == []

    def test_worker_killed_mid_unit_is_redispatched_without_a_leak(
        self, store, tmp_path, monkeypatch
    ):
        from repro.service import ShardWorkerState

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched class reaches workers through fork only")
        with QueryService(store, backend="serial") as service:
            baseline = [
                snapshot(r) for r in service.execute_batch(SUITE, use_cache=False)
            ]
        marker = tmp_path / "died-once"
        run_group = ShardWorkerState.run_group
        dispatcher = os.getpid()

        def die_once(self, tasks):
            # Lane 0 runs in this process: only a forked worker may die.
            if os.getpid() != dispatcher:
                try:
                    marker.touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    os.kill(os.getpid(), signal.SIGKILL)
            return run_group(self, tasks)

        monkeypatch.setattr(ShardWorkerState, "run_group", die_once)
        backend = FabricBackend(store, workers=2)
        first = backend._procs[1].pid
        with QueryService(store, backend=backend) as service:
            answers = [
                snapshot(r) for r in service.execute_batch(SUITE, use_cache=False)
            ]
            # Lane 1 forked at construction, then once more after dying.
            assert marker.exists() and backend._procs[1].pid != first
            assert fabric_segments() == []
        assert answers == baseline

    @pytest.mark.parametrize("where", ["frame", "body"])
    def test_worker_dying_mid_reply_is_redispatched(
        self, store, tmp_path, monkeypatch, where
    ):
        """A worker that dies while writing its reply leaves half a
        frame, or a descriptor with half its body: the parent reads end
        of file mid-message — an error, not a hang — and sends the lane
        to a fresh worker.  The answer is the serial one, byte for byte,
        and the dead worker is reaped."""
        import struct

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched worker reaches the child through fork only")
        item = ("//open_auction/bidder", "vectorized", None, "materialize")
        expected = SerialBackend(store).run_batch([item])

        def fault(conn):
            if where == "frame":  # "1 MB follows", and nothing does
                os.write(conn.fileno(), struct.pack("!i", 1 << 20))
            else:  # 8000 body bytes announced, 4000 written
                conn.send(("done", [(0, 1, "materialize", [("d", 1000)], ())], 8000))
                os.write(conn.fileno(), bytes(4000))

        monkeypatch.setattr(fabric, "_fabric_worker", dying_worker(tmp_path / "died", fault))
        with FabricBackend(store, workers=2) as backend:
            first = backend._procs[1].pid
            children = live_children()
            answered = []
            batch = threading.Thread(
                target=lambda: answered.append(backend.run_batch([item])),
                daemon=True,
            )
            batch.start()
            batch.join(timeout=60)
            assert answered, "the batch hung or failed"
            merged = answered[0]
            assert backend._procs[1].pid != first
            assert live_children() == children - {first} | {backend._procs[1].pid}
            assert fabric_segments() == []
        assert {n: a.tobytes() for n, a in merged[0].items()} == {
            n: a.tobytes() for n, a in expected[0].items()
        }

    def test_concurrent_callers_each_get_their_own_answers(self, store):
        """Two threads share one fabric: batches queue on its lock, and
        every answer is the serial one, byte for byte."""
        batches = [
            [(query, "vectorized", None, mode),
             (SUITE[(i + 1) % len(SUITE)], "vectorized", None, mode)]
            for i, query in enumerate(SUITE)
            for mode in MODES
        ]

        def image(merged):  # per item: {document: bytes} or an exists bool
            return [
                {n: np.asarray(v).tobytes() for n, v in m.items()}
                if isinstance(m, dict) else m
                for m in merged
            ]

        expected = [image(SerialBackend(store).run_batch(b)) for b in batches]
        answers: dict = {}
        with FabricBackend(store, workers=2) as backend:

            def caller(name):
                seen = []
                for k in range(50):
                    i = (k * 5 + name) % len(batches)
                    seen.append((i, image(backend.run_batch(batches[i]))))
                answers[name] = seen

            threads = [
                threading.Thread(target=caller, args=(name,), daemon=True)
                for name in range(2)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-4)  # interleave the callers finely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads), "a caller hung"
        assert sorted(answers) == [0, 1]
        for seen in answers.values():
            assert len(seen) == 50
            for i, answer in seen:
                assert answer == expected[i], batches[i]

    def test_fabric_starts_no_resource_tracker(self, store, tmp_path):
        """Segments are mapped straight from /dev/shm, so neither the
        service process nor a worker ever spawns a ``multiprocessing``
        resource tracker.  Probed in a fresh interpreter: a tracker
        started by anything earlier in this test process would be
        indistinguishable from one the fabric started."""
        probe = """
import json, multiprocessing, os, sys
from repro.service import QueryService, ShardedStore

def process_table():
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                command = f.read().replace(b"\\0", b" ").decode("utf-8", "replace")
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), command)
    return table

with QueryService(ShardedStore.open(sys.argv[1]), backend="fabric:2") as service:
    total = service.execute("//person", use_cache=False).total
    table = process_table()
    mine = {os.getpid()}
    grew = True
    while grew:
        grew = False
        for pid, (parent, _) in table.items():
            if parent in mine and pid not in mine:
                mine.add(pid)
                grew = True
    print(json.dumps({
        "start_method": multiprocessing.get_start_method(),
        "total": total,
        "processes": len(mine),
        "trackers": [table[p][1] for p in mine if "resource_tracker" in table[p][1]],
    }))
"""
        # A script, not ``-c``: forked workers share the probe's command
        # line, which must not itself mention the tracker.
        script = tmp_path / "probe.py"
        script.write_text(probe)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, str(script), store.directory],
            capture_output=True, text=True, timeout=120, env=environment,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        if seen["start_method"] != "fork":
            pytest.skip("spawn/forkserver start their own tracker")
        assert seen["total"] > 0
        assert seen["processes"] >= 2  # the probe (lane 0) and its worker
        assert seen["trackers"] == []
        assert fabric_segments() == []

    def test_worker_crash_propagates_with_traceback(self, store, monkeypatch):
        """A non-ReproError failure inside a worker is a crash: the
        parent reports which worker and ships the traceback text."""
        from repro.service import ShardWorkerState

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("the patched class reaches workers through fork only")
        run_group = ShardWorkerState.run_group
        dispatcher = os.getpid()

        def boom(self, tasks):
            if os.getpid() == dispatcher:  # lane 0 runs as ever
                return run_group(self, tasks)
            raise RuntimeError("kernel exploded")

        monkeypatch.setattr(ShardWorkerState, "run_group", boom)
        with FabricBackend(store, workers=2) as backend:
            with pytest.raises(ReproError, match="fabric worker 1 failed") as caught:
                backend.run_batch([("//person", "vectorized", None, "materialize")])
        assert "RuntimeError: kernel exploded" in str(caught.value)

    def test_user_errors_are_identical_on_every_backend(self, store):
        """A bad request raises the same repro.errors class with the
        same message whether it failed in-process or inside a fabric
        worker (no traceback text, no file paths), and a scoped path
        that cannot start at a member root fails in the service before
        any worker sees it."""
        document = store.document_names()[0]
        failures = {}
        for backend in ("serial", "fabric:2"):
            with QueryService(store, backend=backend) as service:
                for query, scope in (
                    ("//person[count(1)]", None),
                    ("/ancestor::site", document),
                ):
                    with pytest.raises(ReproError) as caught:
                        service.execute(query, document=scope, use_cache=False)
                    failures.setdefault((query, scope), []).append(
                        (type(caught.value), str(caught.value))
                    )
                # The failed batch's other shard units must not fail
                # the next, unrelated request with their stale errors.
                assert service.execute("//person", use_cache=False).total > 0
        for (query, _), seen in failures.items():
            assert seen[0] == seen[1], query
            assert seen[0][0] is XPathEvaluationError
            assert "Traceback" not in seen[0][1] and ".py" not in seen[0][1]


# ----------------------------------------------------------------------
class TestLifecycle:
    def test_service_gc_closes_backend(self, store):
        service = QueryService(store, backend="fabric:2")
        service.execute("//person", use_cache=False)
        backend = service.backend
        worker = backend._procs[1]
        del service
        gc.collect()
        assert backend._procs is None
        assert not worker.is_alive()

    def test_threaded_server_teardown_closes_backend(self, store):
        service = QueryService(store, backend="fabric:2")
        server = ThreadedServer(service, ServerConfig(port=0)).start()
        try:
            assert service.backend is not None
        finally:
            server.stop()
        assert service.backend._procs is None
        assert fabric_segments() == []

    def test_workers_fork_single_threaded_before_the_server_loads(
        self, store, tmp_path
    ):
        """A ``fabric:3`` service built on the main thread forks both
        workers there — one thread alive, no event loop or server module
        loaded — and serving it through ``ThreadedServer`` forks nothing
        more.  Probed in a fresh interpreter that wraps ``os.fork``."""
        probe = """
import http.client, json, os, sys, threading

forks = []
real_fork = os.fork

def fork():
    state = (threading.active_count(), "asyncio" in sys.modules,
             "repro.server" in sys.modules)
    pid = real_fork()
    if pid:
        forks.append(state)
    return pid

os.fork = fork
from repro.service import QueryService, ShardedStore

service = QueryService(ShardedStore.open(sys.argv[1]), backend="fabric:3")
constructed = list(forks)
alive = [process.is_alive() for process in service.backend._procs.values()]
from repro.server import ServerConfig, ThreadedServer

with ThreadedServer(service, ServerConfig(port=0)) as server:
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    conn.request("POST", "/query", body=json.dumps({"query": "//person"}))
    total = json.loads(conn.getresponse().read())["total"]
    conn.close()
print(json.dumps({"constructed": constructed, "alive": alive,
                  "forks": forks, "total": total}))
"""
        script = tmp_path / "fork_probe.py"
        script.write_text(probe)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        environment.pop("REPRO_BACKEND", None)
        done = subprocess.run(
            [sys.executable, str(script), store.directory],
            capture_output=True, text=True, timeout=120, env=environment,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.strip().splitlines()[-1])
        # (threads alive, asyncio loaded, repro.server loaded) per fork
        assert seen["constructed"] == [[1, False, False]] * 2
        assert seen["alive"] == [True, True]
        assert seen["forks"] == seen["constructed"]  # none at first request
        assert seen["total"] > 0
        assert fabric_segments() == []

    def test_workers_die_with_a_killed_server(self, store, tmp_path):
        """A ``fabric:3`` server SIGKILLed after one of its lanes was
        respawned leaves no worker behind: each worker holds only its
        own pipe end, reads end of file and exits."""
        probe = """
import json, os, signal, sys
from repro.service import QueryService, ShardedStore

service = QueryService(ShardedStore.open(sys.argv[1]), backend="fabric:3")
service.execute("//person", use_cache=False)
victim = service.backend._procs[1]
os.kill(victim.pid, signal.SIGKILL)
victim.join()
service.execute("//person", use_cache=False)  # respawns lane 1
print(json.dumps([p.pid for p in service.backend._procs.values()]), flush=True)
sys.stdin.read()  # serve until killed
"""
        script = tmp_path / "server_probe.py"
        script.write_text(probe)
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(sys.path)
        environment.pop("REPRO_BACKEND", None)

        def running(pid):
            try:
                with open(f"/proc/{pid}/stat") as f:
                    return f.read().rsplit(")", 1)[1].split()[0] != "Z"
            except OSError:
                return False

        with open(tmp_path / "stderr", "w+") as errors:
            server = subprocess.Popen(
                [sys.executable, str(script), store.directory],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=errors,
                text=True, env=environment,
            )
            try:
                line = server.stdout.readline()
                assert line, errors.seek(0) or errors.read()
                workers = json.loads(line)
                assert len(workers) == 2
                server.kill()
                server.wait()
                deadline = time.monotonic() + 5.0
                while any(map(running, workers)) and time.monotonic() < deadline:
                    time.sleep(0.05)
                survivors = [pid for pid in workers if running(pid)]
                for pid in survivors:
                    os.kill(pid, signal.SIGKILL)
                assert survivors == []
            finally:
                server.kill()
                server.wait()
                server.stdout.close()
                server.stdin.close()

    def test_backend_close_is_idempotent_and_reusable(self, store):
        backend = FabricBackend(store, workers=2)
        with QueryService(store, backend=backend) as service:
            first = service.execute("//person", use_cache=False).total
            backend.close()
            backend.close()
            # Closing drops lane 0's planes, so the next fork is lean...
            assert backend._serial_state is None
            # ...and a closed backend lazily respawns workers on next use.
            assert service.execute("//person", use_cache=False).total == first
