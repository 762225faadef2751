"""Runtime lock-order recorder: the dynamic half of the analysis gate.

The linter (REP002) can prove a *field* is only touched under its lock;
it cannot prove two locks are always taken in the same *order*.  That
is a global, cross-thread property — exactly the kind a static pass on
one method at a time misses — so this module checks it at runtime:

* :class:`LockGraph` wraps ``threading.Lock``/``RLock`` in recording
  proxies.  Each thread keeps a stack of locks it currently holds;
  acquiring ``B`` while holding ``A`` adds the edge ``A → B`` to a
  process-wide acquisition-order graph (same-instance re-entry of an
  RLock is not an edge).
* :meth:`LockGraph.cycles` runs a DFS over that graph.  A cycle
  ``A → B → A`` means two code paths take the same pair of locks in
  opposite orders — the classic deadlock shape, reported with the
  acquire stacks of both edges even if the timing never actually
  deadlocked during the run.
* :func:`assert_held` is REP002's runtime companion for the
  ``*_locked`` naming convention: a ``*_locked`` method can open with
  ``assert_held(self._lock)`` and fail loudly when instrumentation is
  on, at zero cost when it is off.

Instrumentation is opt-in: ``REPRO_LOCKGRAPH=1`` in the environment (a
session-scoped pytest fixture in ``tests/conftest.py`` picks it up and
fails the run on any cycle), or :func:`install`/:func:`uninstall` /
the :class:`LockGraph` context manager directly.

Stack capture must be cheap enough to leave on for a whole test suite,
so each acquire walks ``sys._getframe`` and stores raw
``(filename, lineno, function)`` triples; formatting happens only when
a cycle is actually reported.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "ENV_FLAG",
    "LockGraph",
    "LockOrderCycle",
    "assert_held",
    "install",
    "uninstall",
    "enabled_by_env",
]

ENV_FLAG = "REPRO_LOCKGRAPH"

#: frames of the instrumentation machinery itself, skipped in captures
_SKIP_FRAMES = 2
_STACK_DEPTH = 12

FrameTriple = Tuple[str, int, str]


def _capture_stack() -> Tuple[FrameTriple, ...]:
    frames: List[FrameTriple] = []
    frame = sys._getframe(_SKIP_FRAMES)
    while frame is not None and len(frames) < _STACK_DEPTH:
        code = frame.f_code
        frames.append((code.co_filename, frame.f_lineno, code.co_name))
        frame = frame.f_back
    return tuple(frames)


def _format_stack(stack: Sequence[FrameTriple]) -> str:
    return "\n".join(
        f"    {name} ({os.path.basename(filename)}:{lineno})"
        for filename, lineno, name in stack
    )


def _creation_site() -> str:
    """``file:line`` of the frame that called ``Lock()``/``RLock()``."""
    frame = sys._getframe(_SKIP_FRAMES)
    steps = 0
    while frame is not None and steps < _STACK_DEPTH:
        filename = frame.f_code.co_filename
        if os.path.basename(filename) != os.path.basename(__file__):
            return f"{os.path.basename(filename)}:{frame.f_lineno}"
        frame = frame.f_back
        steps += 1
    return "<unknown>"


class _InstrumentedLock:
    """A recording proxy around one real ``Lock``/``RLock`` instance.

    Implements the full primitive-lock protocol *plus* the private
    hooks ``Condition``/``queue.Queue`` call on their inner lock
    (``_is_owned``, ``_acquire_restore``, ``_release_save``) and the
    ``_at_fork_reinit`` that modules such as ``concurrent.futures.thread``
    register with ``os.register_at_fork`` when they are imported, so
    global patching does not break stdlib machinery built on locks.
    """

    def __init__(self, graph: "LockGraph", inner, reentrant: bool, label: str, node: int):
        self._graph = graph
        self._inner = inner
        self._reentrant = reentrant
        self.label = label
        #: this lock's node in the graph: a serial, never ``id(self)``,
        #: which a lock created after this one dies may reuse
        self.node = node

    # -- primitive lock protocol ---------------------------------------
    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._graph._record_acquire(self)
        return got

    def release(self) -> None:
        self._graph._record_release(self)
        self._inner.release()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()

    def locked(self) -> bool:
        return self._inner.locked()

    # -- hooks Condition/Queue expect on their inner lock --------------
    def _is_owned(self) -> bool:
        if hasattr(self._inner, "_is_owned"):
            return self._inner._is_owned()
        # Plain Lock: Condition falls back to a try-acquire probe; the
        # graph must not see that probe, so go straight to the inner.
        if self._inner.acquire(False):
            self._inner.release()
            return False
        return True

    def _acquire_restore(self, state) -> None:
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._graph._record_acquire(self)

    def _release_save(self):
        self._graph._record_release(self, full=True)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _at_fork_reinit(self) -> None:
        self._inner._at_fork_reinit()

    def __repr__(self) -> str:
        return f"<instrumented {self.label} wrapping {self._inner!r}>"


class LockOrderCycle:
    """One cycle in the acquisition-order graph (a potential deadlock)."""

    def __init__(self, labels: Tuple[str, ...], edges: List[Tuple[str, str, Tuple[FrameTriple, ...]]]):
        self.labels = labels
        self.edges = edges

    def render(self) -> str:
        lines = [f"lock-order cycle: {' -> '.join(self.labels + (self.labels[0],))}"]
        for src, dst, stack in self.edges:
            lines.append(f"  {src} held while acquiring {dst}; acquire stack:")
            lines.append(_format_stack(stack))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<LockOrderCycle {' -> '.join(self.labels)}>"


class LockGraph:
    """Process-wide lock acquisition-order graph.

    Use directly (``graph.lock()`` / ``graph.rlock()`` factories) in
    unit tests, or as a context manager / via :func:`install` to patch
    ``threading.Lock``/``threading.RLock`` globally.
    """

    def __init__(self) -> None:
        self._meta = threading.Lock()  # guards the two dicts below
        # node -> label; edge (a, b) -> first acquire stack
        self._labels: Dict[int, str] = {}
        self._nodes = itertools.count()
        self._edges: Dict[Tuple[int, int], Tuple[FrameTriple, ...]] = {}
        self._held = threading.local()
        self._orig_lock = None
        self._orig_rlock = None

    # -- construction ---------------------------------------------------
    def lock(self, label: Optional[str] = None) -> _InstrumentedLock:
        real = (self._orig_lock or threading.Lock)()
        return self._register(real, reentrant=False, label=label)

    def rlock(self, label: Optional[str] = None) -> _InstrumentedLock:
        real = (self._orig_rlock or threading.RLock)()
        return self._register(real, reentrant=True, label=label)

    def _register(self, inner, reentrant: bool, label: Optional[str]) -> _InstrumentedLock:
        wrapper = _InstrumentedLock(
            self, inner, reentrant, label or _creation_site(), next(self._nodes)
        )
        with self._meta:
            self._labels[wrapper.node] = wrapper.label
        return wrapper

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Tuple[int, int]]:
        """This thread's held stack: ``(node, depth)`` pairs."""
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = self._held.stack = []
        return stack

    def _record_acquire(self, wrapper: _InstrumentedLock) -> None:
        stack = self._stack()
        wid = wrapper.node
        if stack and stack[-1][0] == wid and wrapper._reentrant:
            stack[-1] = (wid, stack[-1][1] + 1)
            return
        held_ids = {entry[0] for entry in stack}
        if wid not in held_ids:
            new_edges = [
                (hid, wid) for hid in held_ids if (hid, wid) not in self._edges
            ]
            if new_edges:
                captured = _capture_stack()
                with self._meta:
                    for edge in new_edges:
                        self._edges.setdefault(edge, captured)
        stack.append((wid, 1))

    def _record_release(self, wrapper: _InstrumentedLock, full: bool = False) -> None:
        stack = self._stack()
        wid = wrapper.node
        for index in range(len(stack) - 1, -1, -1):
            if stack[index][0] == wid:
                if full or stack[index][1] <= 1:
                    del stack[index]
                else:
                    stack[index] = (wid, stack[index][1] - 1)
                return
        # Released on a different thread than it was acquired on (legal
        # for plain Locks used as signals); nothing held to pop.

    # -- queries --------------------------------------------------------
    def held(self, wrapper: _InstrumentedLock) -> bool:
        return any(entry[0] == wrapper.node for entry in self._stack())

    def edge_count(self) -> int:
        with self._meta:
            return len(self._edges)

    def cycles(self) -> List[LockOrderCycle]:
        """Every elementary cycle reachable in the order graph."""
        with self._meta:
            edges = dict(self._edges)
            labels = dict(self._labels)
        adjacency: Dict[int, List[int]] = {}
        for src, dst in edges:
            adjacency.setdefault(src, []).append(dst)

        cycles: List[LockOrderCycle] = []
        seen_cycles: Set[Tuple[int, ...]] = set()

        def dfs(node: int, path: List[int], on_path: Set[int]) -> None:
            for nxt in adjacency.get(node, ()):
                if nxt in on_path:
                    start = path.index(nxt)
                    cycle = tuple(path[start:])
                    # Canonicalise rotation so each cycle reports once.
                    pivot = cycle.index(min(cycle))
                    canon = cycle[pivot:] + cycle[:pivot]
                    if canon in seen_cycles:
                        continue
                    seen_cycles.add(canon)
                    cycle_edges = []
                    ring = list(canon) + [canon[0]]
                    for a, b in zip(ring, ring[1:]):
                        cycle_edges.append(
                            (
                                labels.get(a, "?"),
                                labels.get(b, "?"),
                                edges.get((a, b), ()),
                            )
                        )
                    cycles.append(
                        LockOrderCycle(
                            tuple(labels.get(n, "?") for n in canon),
                            cycle_edges,
                        )
                    )
                    continue
                on_path.add(nxt)
                path.append(nxt)
                dfs(nxt, path, on_path)
                path.pop()
                on_path.discard(nxt)

        for start in adjacency:
            dfs(start, [start], {start})
        return cycles

    def report(self) -> str:
        found = self.cycles()
        if not found:
            return (
                f"lockgraph: no ordering cycles "
                f"({len(self._labels)} locks, {self.edge_count()} edges)"
            )
        return "\n\n".join(cycle.render() for cycle in found)

    def reset(self) -> None:
        with self._meta:
            self._edges.clear()

    # -- global patching ------------------------------------------------
    def install(self) -> "LockGraph":
        """Patch ``threading.Lock``/``RLock`` to return proxies."""
        if self._orig_lock is not None:
            return self
        self._orig_lock = threading.Lock
        self._orig_rlock = threading.RLock

        def patched_lock():
            return self._register(self._orig_lock(), False, None)

        def patched_rlock():
            return self._register(self._orig_rlock(), True, None)

        threading.Lock = patched_lock  # type: ignore[assignment]
        threading.RLock = patched_rlock  # type: ignore[assignment]
        global _active
        _active = self
        return self

    def uninstall(self) -> None:
        if self._orig_lock is None:
            return
        threading.Lock = self._orig_lock  # type: ignore[assignment]
        threading.RLock = self._orig_rlock  # type: ignore[assignment]
        self._orig_lock = None
        self._orig_rlock = None
        global _active
        if _active is self:
            _active = None

    def __enter__(self) -> "LockGraph":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


#: the globally installed graph, if any
_active: Optional[LockGraph] = None


def active() -> Optional[LockGraph]:
    return _active


def install() -> LockGraph:
    """Install a fresh global :class:`LockGraph` and return it."""
    graph = LockGraph()
    return graph.install()


def uninstall() -> None:
    if _active is not None:
        _active.uninstall()


def enabled_by_env() -> bool:
    return os.environ.get(ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


def assert_held(lock) -> None:
    """Fail loudly if ``lock`` is not held by the calling thread.

    The runtime side of the ``*_locked`` naming convention (REP002):
    works on instrumented locks via the graph's per-thread held stack,
    falls back to ``_is_owned``/``locked()`` probes on plain locks, and
    is a cheap no-op where ownership cannot be determined.
    """
    if isinstance(lock, _InstrumentedLock):
        if not lock._graph.held(lock):
            raise AssertionError(
                f"lock {lock.label} not held by {threading.current_thread().name}"
            )
        return
    if hasattr(lock, "_is_owned"):  # RLock and Condition know their owner
        if not lock._is_owned():
            raise AssertionError(
                f"lock {lock!r} not held by {threading.current_thread().name}"
            )
        return
    if hasattr(lock, "locked") and not lock.locked():
        raise AssertionError(f"lock {lock!r} is not held by any thread")


def _iter_cycle_lines(graph: LockGraph) -> Iterator[str]:  # pragma: no cover
    for cycle in graph.cycles():
        yield cycle.render()
