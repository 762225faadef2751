"""The linter linted: every REP rule against seeded-violation fixtures.

Each rule gets (at least) one fixture that must fire and one variant
proving the ``# repro: allow[...] - reason`` suppression is honored.
The closing test pins that the shipped ``src/`` tree has zero
unsuppressed findings.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from tools.analysis.reprolint import (
    PAYLOAD_REGISTRY,
    RULES,
    lint_file,
    module_name,
    run_lint,
)

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
SRC = os.path.join(ROOT, "src")


def lint_snippet(tmp_path, source, rel_path="fixture.py", select=None):
    """Write ``source`` under ``tmp_path`` at ``rel_path`` and lint it.

    ``rel_path`` may carry a ``src/repro/...`` prefix to place the
    snippet in a module the path-scoped rules (REP003/REP004/REP005)
    apply to.
    """
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_file(str(path), select=select)


def active(findings, rule=None):
    return [
        f
        for f in findings
        if not f.suppressed and (rule is None or f.rule == rule)
    ]


def suppressed(findings, rule):
    return [f for f in findings if f.suppressed and f.rule == rule]


# ----------------------------------------------------------------------
# REP001 — epoch-fenced cache keys
# ----------------------------------------------------------------------
class TestEpochFencing:
    BAD = """
        def lookup(cache, query, engine):
            key = (query, engine)
            return cache.get(key)
    """

    def test_unfenced_tuple_key_fires(self, tmp_path):
        findings = active(lint_snippet(tmp_path, self.BAD), "REP001")
        assert len(findings) == 1
        assert "epoch" in findings[0].message

    def test_literal_key_in_put_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def store(result_cache, query, value):
                result_cache.put((query, "vectorized"), value)
            """,
        )
        assert len(active(findings, "REP001")) == 1

    def test_epoch_term_fences(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def lookup(cache, epoch, query):
                return cache.get((epoch, query))
            """,
        )
        assert active(findings, "REP001") == []

    def test_shard_file_term_fences(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def lookup(prefix_cache, task, chain):
                return prefix_cache.get((task.shard_file, chain))
            """,
        )
        assert active(findings, "REP001") == []

    def test_non_cache_receiver_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def lookup(table, query):
                return table.get((query, "x"))
            """,
        )
        assert active(findings, "REP001") == []

    def test_suppression_honored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def lookup(cache, query):
                return cache.get((query, "scalar"))  # repro: allow[REP001] - plan cache, epoch-independent
            """,
        )
        assert active(findings, "REP001") == []
        assert len(suppressed(findings, "REP001")) == 1


# ----------------------------------------------------------------------
# REP002 — lock discipline
# ----------------------------------------------------------------------
class TestLockDiscipline:
    BAD = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.total = 0  # guarded-by: _lock

            def bump(self):
                self.total += 1
    """

    def test_unlocked_access_fires(self, tmp_path):
        findings = active(lint_snippet(tmp_path, self.BAD), "REP002")
        assert len(findings) == 1
        assert "bump" in findings[0].message

    def test_locked_access_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self.total += 1
            """,
        )
        assert active(findings, "REP002") == []

    def test_init_and_locked_suffix_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock
                    self.total += 1  # pre-publication, exempt

                def _bump_locked(self):
                    self.total += 1  # caller holds the lock, exempt
            """,
        )
        assert active(findings, "REP002") == []

    def test_nested_callable_resets_held_set(self, tmp_path):
        # A closure created inside the with-block may run after the
        # lock is released — its access must still be flagged.
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def make_reader(self):
                    with self._lock:
                        def read():
                            return self.total
                    return read
            """,
        )
        assert len(active(findings, "REP002")) == 1

    def test_inherited_lock_recognised_by_usage(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading
            from collections import OrderedDict

            class Base:
                def __init__(self):
                    self._lock = threading.Lock()

            class Derived(Base):
                def __init__(self):
                    super().__init__()
                    self.count = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self.count += 1
            """,
        )
        assert active(findings, "REP002") == []

    def test_unknown_lock_name_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _mutex
            """,
        )
        findings = active(findings, "REP002")
        assert len(findings) == 1
        assert "no such" in findings[0].message

    def test_method_level_suppression_covers_body(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def racy_peek(self):  # repro: allow[REP002] - monitoring read, staleness is fine
                    return self.total
            """,
        )
        assert active(findings, "REP002") == []


# ----------------------------------------------------------------------
# REP003 — asyncio loop confinement (scoped to repro.server)
# ----------------------------------------------------------------------
class TestLoopConfinement:
    SERVER_PATH = "src/repro/server/fixture.py"
    BAD = """
        import time

        async def handler(request):
            time.sleep(0.1)
            return 200
    """

    def test_blocking_sleep_in_server_fires(self, tmp_path):
        findings = active(
            lint_snippet(tmp_path, self.BAD, self.SERVER_PATH), "REP003"
        )
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_same_code_outside_server_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.BAD, "src/repro/service/fixture.py"
        )
        assert active(findings, "REP003") == []

    def test_sync_service_call_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            async def handler(service, query):
                return service.execute(query)
            """,
            self.SERVER_PATH,
        )
        assert len(active(findings, "REP003")) == 1

    def test_lambda_dispatch_is_clean(self, tmp_path):
        # The dispatch-lane pattern: blocking call packaged in a lambda
        # and handed to an executor runs off-loop.
        findings = lint_snippet(
            tmp_path,
            """
            async def handler(loop, pool, service, query):
                return await loop.run_in_executor(
                    pool, lambda: service.execute(query)
                )
            """,
            self.SERVER_PATH,
        )
        assert active(findings, "REP003") == []

    def test_blocking_queue_get_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            async def drain(result_queue):
                return result_queue.get()
            """,
            self.SERVER_PATH,
        )
        assert len(active(findings, "REP003")) == 1

    def test_suppression_honored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            async def handler(request):
                time.sleep(0.0)  # repro: allow[REP003] - yield-to-OS probe in a shutdown path
            """,
            self.SERVER_PATH,
        )
        assert active(findings, "REP003") == []
        assert len(suppressed(findings, "REP003")) == 1


# ----------------------------------------------------------------------
# REP004 — pickle safety of registered payload types
# ----------------------------------------------------------------------
class TestPickleSafety:
    PAYLOAD_PATH = "src/repro/service/updates.py"  # registered module
    BAD = """
        import threading
        from dataclasses import dataclass, field
        from typing import Optional

        @dataclass(frozen=True)
        class UpdateOp:
            op: str
            lock: Optional[threading.Lock] = None
    """

    def test_unpicklable_annotation_fires(self, tmp_path):
        findings = active(
            lint_snippet(tmp_path, self.BAD, self.PAYLOAD_PATH), "REP004"
        )
        assert len(findings) == 1
        assert "Lock" in findings[0].message

    def test_lambda_default_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            from dataclasses import dataclass, field

            @dataclass(frozen=True)
            class UpdateOp:
                op: str
                key: object = field(default_factory=lambda: object())
            """,
            self.PAYLOAD_PATH,
        )
        assert len(active(findings, "REP004")) == 1

    def test_unregistered_class_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import threading
            from dataclasses import dataclass
            from typing import Optional

            @dataclass
            class WorkerState:
                lock: Optional[threading.Lock] = None
            """,
            self.PAYLOAD_PATH,
        )
        assert active(findings, "REP004") == []

    def test_registry_matches_shipped_tree(self):
        # Registry drift check: every registered class must still exist.
        import importlib

        for module_name_, classes in PAYLOAD_REGISTRY.items():
            module = importlib.import_module(module_name_)
            for cls in classes:
                assert hasattr(module, cls), f"{module_name_}.{cls} vanished"

    def test_runtime_round_trip_passes(self):
        from tools.analysis.pickle_check import check_payloads

        verified = check_payloads()
        registered = sum(len(names) for names in PAYLOAD_REGISTRY.values())
        assert len(verified) == registered


# ----------------------------------------------------------------------
# REP005 — numpy dtype discipline (scoped to repro.core / repro.xpath)
# ----------------------------------------------------------------------
class TestDtypeDiscipline:
    CORE_PATH = "src/repro/core/fixture.py"
    BAD = """
        import numpy as np

        def ranks(pieces):
            return np.concatenate(pieces)
    """

    def test_missing_dtype_fires(self, tmp_path):
        findings = active(
            lint_snippet(tmp_path, self.BAD, self.CORE_PATH), "REP005"
        )
        assert len(findings) == 1
        assert "dtype" in findings[0].message

    def test_np_append_always_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def extend(edges, n):
                return np.append(edges, n)
            """,
            self.CORE_PATH,
        )
        findings = active(findings, "REP005")
        assert len(findings) == 1
        assert "np.append" in findings[0].message

    def test_explicit_dtype_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def ranks(pieces):
                return np.concatenate(pieces, dtype=np.int64)
            """,
            self.CORE_PATH,
        )
        assert active(findings, "REP005") == []

    def test_outside_hot_paths_ignored(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.BAD, "src/repro/service/fixture.py"
        )
        assert active(findings, "REP005") == []

    def test_suppression_honored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def weights(values):
                return np.asarray(values)  # repro: allow[REP005] - float weights, caller-typed
            """,
            self.CORE_PATH,
        )
        assert active(findings, "REP005") == []

    WIDENED = """
        import numpy as np

        def build(doc):
            kinds = np.asarray(doc.kind, dtype=np.int64)
            codes = np.ascontiguousarray(doc.tag.codes, dtype=np.int64)
            posts = doc.post.astype(np.int64, copy=False)
            return kinds, codes, posts
    """

    @pytest.mark.parametrize("package", ["core", "xpath", "encoding", "service"])
    def test_whole_column_int64_copies_fire(self, tmp_path, package):
        findings = active(
            lint_snippet(tmp_path, self.WIDENED, f"src/repro/{package}/fixture.py"),
            "REP005",
        )
        assert [f.line for f in findings] == [5, 6, 7]
        assert all("whole plane column" in f.message for f in findings)

    def test_gathered_values_and_other_widths_are_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def parents(doc, context, values):
                ranks = doc.parent[context].astype(np.int64)  # context-sized
                codes = np.asarray(doc.tag.codes, dtype=np.int32)
                return ranks, codes, np.asarray(values, dtype=np.int64)
            """,
            "src/repro/encoding/fixture.py",
        )
        assert active(findings, "REP005") == []

    def test_column_rule_stays_out_of_the_reproduction_packages(self, tmp_path):
        findings = lint_snippet(
            tmp_path, self.WIDENED, "src/repro/baselines/fixture.py"
        )
        assert active(findings, "REP005") == []


# ----------------------------------------------------------------------
# REP006 — monotonic durations
# ----------------------------------------------------------------------
class TestMonotonicDurations:
    BAD = """
        import time

        def elapsed(start):
            return time.time() - start
    """

    def test_wall_clock_fires(self, tmp_path):
        findings = active(lint_snippet(tmp_path, self.BAD), "REP006")
        assert len(findings) == 1
        assert "monotonic" in findings[0].message

    def test_monotonic_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def elapsed(start):
                return time.monotonic() - start
            """,
        )
        assert active(findings, "REP006") == []

    def test_timestamp_suppression_honored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def stamp():
                return time.time()  # repro: allow[REP006] - real wall-clock timestamp for the manifest
            """,
        )
        assert active(findings, "REP006") == []
        assert len(suppressed(findings, "REP006")) == 1


# ----------------------------------------------------------------------
# REP007 — exception hygiene
# ----------------------------------------------------------------------
class TestExceptionHygiene:
    BAD = """
        def run(task):
            try:
                task()
            except Exception:
                pass
    """

    def test_broad_except_fires(self, tmp_path):
        findings = active(lint_snippet(tmp_path, self.BAD), "REP007")
        assert len(findings) == 1

    def test_bare_except_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except:
                    pass
            """,
        )
        assert len(active(findings, "REP007")) == 1

    def test_base_exception_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except BaseException:
                    raise
            """,
        )
        assert len(active(findings, "REP007")) == 1

    def test_broad_member_of_tuple_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except (ValueError, Exception):
                    pass
            """,
        )
        assert len(active(findings, "REP007")) == 1

    def test_concrete_types_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except (OSError, ValueError):
                    pass
            """,
        )
        assert active(findings, "REP007") == []

    def test_tagged_boundary_honored(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except Exception:  # repro: allow[REP007] - worker crash boundary, traceback shipped to parent
                    pass
            """,
        )
        assert active(findings, "REP007") == []
        assert len(suppressed(findings, "REP007")) == 1

    def test_untagged_allow_comment_ignored(self, tmp_path):
        # A suppression without a reason is not a suppression.
        findings = lint_snippet(
            tmp_path,
            """
            def run(task):
                try:
                    task()
                except Exception:  # repro: allow[REP007]
                    pass
            """,
        )
        assert len(active(findings, "REP007")) == 1


# ----------------------------------------------------------------------
# Cross-cutting machinery
# ----------------------------------------------------------------------
class TestMachinery:
    def test_rule_codes_unique_and_complete(self):
        codes = [rule.code for rule in RULES]
        assert codes == sorted(set(codes))
        assert codes == [f"REP00{i}" for i in range(1, 8)]

    def test_module_name_anchors_at_src(self):
        assert module_name("src/repro/server/app.py") == "repro.server.app"
        assert module_name("src/repro/__init__.py") == "repro"
        assert module_name("standalone.py") == "standalone"

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_snippet(tmp_path, "def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "REP000"

    def test_multi_code_suppression(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            """
            import time

            def run(task):  # repro: allow[REP006, REP007] - def-line tag scopes over the whole body
                try:
                    task()
                except Exception:
                    return time.time()
            """,
        )
        assert active(findings) == []
        assert len(suppressed(findings, "REP006")) == 1
        assert len(suppressed(findings, "REP007")) == 1

    def test_run_lint_walks_directories(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("import time\nx = time.time()\n")
        (tmp_path / "pkg" / "b.py").write_text("y = 1\n")
        findings = run_lint([str(tmp_path)])
        assert len(active(findings, "REP006")) == 1

    def test_cli_json_format_and_exit_code(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nx = time.time()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        proc = subprocess.run(
            [sys.executable, "-m", "tools.analysis", str(bad), "--format", "json"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload[0]["rule"] == "REP006"


def test_shipped_tree_is_clean():
    """Zero unsuppressed findings on src/."""
    findings = [f for f in run_lint([SRC]) if not f.suppressed]
    assert findings == [], "\n".join(f.render() for f in findings)
