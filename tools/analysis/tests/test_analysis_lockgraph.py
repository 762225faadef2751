"""Runtime lock-order recorder: cycle detection and instrumentation.

The centerpiece seeds a real A→B / B→A ordering inversion across two
threads — the classic deadlock shape — and asserts the graph reports
exactly that cycle with both acquire stacks.  The install/uninstall
tests prove global patching leaves ``queue.Queue``/``Condition``
machinery working (they build on the private lock protocol the
wrappers must delegate).
"""

import os
import subprocess
import sys
import textwrap
import threading

import pytest

from tools.analysis.lockgraph import LockGraph, assert_held, enabled_by_env


def run_in_thread(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestCycleDetection:
    def test_ab_ba_inversion_reported(self):
        graph = LockGraph()
        a = graph.lock("A")
        b = graph.lock("B")

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        # Sequential threads: no deadlock ever happens, but the *order*
        # inversion is recorded all the same — that is the point.
        run_in_thread(forward)
        run_in_thread(backward)

        cycles = graph.cycles()
        assert len(cycles) == 1
        assert set(cycles[0].labels) == {"A", "B"}
        report = graph.report()
        assert "A" in report and "B" in report
        assert "acquire stack" in report

    def test_consistent_order_is_clean(self):
        graph = LockGraph()
        a = graph.lock("A")
        b = graph.lock("B")

        def worker():
            with a:
                with b:
                    pass

        run_in_thread(worker)
        run_in_thread(worker)
        assert graph.cycles() == []
        assert graph.edge_count() == 1

    def test_a_dead_lock_is_not_its_successor(self):
        # A lock created after another dies may get its id(); the two
        # are different nodes, so outer -> dead and new -> outer is no
        # cycle.
        graph = LockGraph()
        outer = graph.lock("outer")
        for _ in range(50):
            inner = graph.lock("inner")
            with outer:
                with inner:
                    pass
            del inner
            successor = graph.lock("successor")
            with successor:
                with outer:
                    pass
            del successor
        assert graph.cycles() == []
        assert graph.edge_count() == 100

    def test_three_lock_cycle_reported(self):
        graph = LockGraph()
        locks = {name: graph.lock(name) for name in ("A", "B", "C")}

        def take(first, second):
            with locks[first]:
                with locks[second]:
                    pass

        run_in_thread(lambda: take("A", "B"))
        run_in_thread(lambda: take("B", "C"))
        run_in_thread(lambda: take("C", "A"))

        cycles = graph.cycles()
        assert len(cycles) == 1
        assert set(cycles[0].labels) == {"A", "B", "C"}

    def test_rlock_reentry_is_not_an_edge(self):
        graph = LockGraph()
        r = graph.rlock("R")

        def worker():
            with r:
                with r:  # same instance: re-entry, not an ordering edge
                    pass

        run_in_thread(worker)
        assert graph.edge_count() == 0
        assert graph.cycles() == []

    def test_reset_clears_edges(self):
        graph = LockGraph()
        a, b = graph.lock("A"), graph.lock("B")
        with a:
            with b:
                pass
        assert graph.edge_count() == 1
        graph.reset()
        assert graph.edge_count() == 0


class TestAssertHeld:
    def test_instrumented_lock(self):
        graph = LockGraph()
        lock = graph.lock("L")
        with lock:
            assert_held(lock)
        with pytest.raises(AssertionError):
            assert_held(lock)

    def test_held_is_per_thread(self):
        graph = LockGraph()
        lock = graph.lock("L")
        acquired = threading.Event()
        release = threading.Event()

        def holder():
            with lock:
                acquired.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert acquired.wait(timeout=10)
        try:
            # Another thread holds it; *this* thread does not.
            with pytest.raises(AssertionError):
                assert_held(lock)
        finally:
            release.set()
            thread.join(timeout=10)

    def test_plain_rlock(self):
        lock = threading.RLock()
        with lock:
            assert_held(lock)
        with pytest.raises(AssertionError):
            assert_held(lock)


class TestGlobalInstrumentation:
    """Patching ``threading.Lock`` is interpreter-global state.

    These tests run their bodies in a fresh subprocess: installing and
    removing the patch mid-suite would mix wrapper locks into the other
    ~1300 tests' machinery (fork workers, queue feeders, GC of
    thread-locals), and transient patch windows are exactly the state
    this suite must not leak.  The env-flag path (one install for the
    whole session, via the conftest fixture) is the supported in-process
    mode and is exercised by the CI ``analysis`` job.
    """

    def run_isolated(self, body):
        script = textwrap.dedent(body)
        env = dict(os.environ)
        root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_install_patches_and_uninstall_restores(self):
        out = self.run_isolated(
            """
            import threading
            from tools.analysis.lockgraph import install, uninstall

            original_lock = threading.Lock
            graph = install()
            try:
                lock = threading.Lock()
                assert hasattr(lock, "label")  # proxy, not a raw lock
            finally:
                uninstall()
            assert threading.Lock is original_lock
            assert graph.cycles() == []
            print("restored")
            """
        )
        assert "restored" in out

    def test_queue_and_condition_survive_patching(self):
        # queue.Queue builds Conditions on a patched Lock; the wrapper
        # must honor _is_owned/_acquire_restore/_release_save.
        out = self.run_isolated(
            """
            import queue
            import threading
            from tools.analysis.lockgraph import LockGraph

            with LockGraph() as graph:
                work = queue.Queue(maxsize=2)
                results = []

                def worker():
                    while True:
                        item = work.get()
                        if item is None:
                            return
                        results.append(item * item)

                thread = threading.Thread(target=worker)
                thread.start()
                for i in range(8):
                    work.put(i)
                work.put(None)
                thread.join(timeout=10)
                assert results == [i * i for i in range(8)]
                assert graph.cycles() == []
            print("queue ok")
            """
        )
        assert "queue ok" in out

    def test_a_module_registering_a_fork_hook_imports_under_patching(self):
        # concurrent.futures.thread hands its module-level lock's
        # _at_fork_reinit to os.register_at_fork at import time.
        out = self.run_isolated(
            """
            from tools.analysis.lockgraph import LockGraph

            with LockGraph() as graph:
                from concurrent.futures import ThreadPoolExecutor

                with ThreadPoolExecutor(1) as pool:
                    assert pool.submit(sum, (1, 2)).result() == 3
            print("fork hook ok")
            """
        )
        assert "fork hook ok" in out

    def test_service_store_commit_under_instrumentation(self, tmp_path):
        # The real write path (RLock + the _is_owned() probe in
        # _commit_locked, a forked build lane) drives
        # cleanly under a live graph.
        out = self.run_isolated(
            f"""
            from tools.analysis.lockgraph import LockGraph

            with LockGraph() as graph:
                from repro.harness.workloads import figure1_document
                from repro.service.store import ShardedStore

                store = ShardedStore.build(
                    {str(tmp_path / "store")!r},
                    [("a", figure1_document()), ("b", figure1_document())],
                    shards=2,
                )
                epoch = store.add_document("c", figure1_document())
                assert epoch == 2
                assert graph.cycles() == []
            print("commit ok")
            """
        )
        assert "commit ok" in out

    def test_env_flag_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCKGRAPH", raising=False)
        assert not enabled_by_env()
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv("REPRO_LOCKGRAPH", value)
            assert enabled_by_env()
        monkeypatch.setenv("REPRO_LOCKGRAPH", "0")
        assert not enabled_by_env()
