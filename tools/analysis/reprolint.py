"""``reprolint``: AST rules for the invariants this repo runs on.

Every rule has a code, a one-line invariant, and an inline suppression
syntax::

    # repro: allow[REP001] - reason the invariant holds anyway

A suppression comment on the reported line silences that finding; on a
``def`` or ``class`` line it covers the whole body.  A suppression
without a ``- reason`` is deliberately ignored — unjustified exceptions
are exactly what the linter exists to prevent.

=======  ==============================================================
REP001   Cache keys must be epoch-fenced: any ``*cache*.get/put`` whose
         key *tuple* lacks an epoch- or shard-file-bearing term can
         serve stale results across a store commit.
REP002   Lock discipline: fields declared ``# guarded-by: <lock>`` on a
         class owning a ``threading.Lock``/``RLock`` must only be
         touched inside ``with self.<lock>:`` (methods named
         ``*_locked`` are the documented called-with-lock-held
         convention; ``__init__`` is pre-publication and exempt).
REP003   asyncio loop confinement: blocking calls (``time.sleep``,
         queue ``get``/``put``/``join``, synchronous
         ``service.execute*``/``apply_updates``, socket reads) must not
         run inside ``async def`` bodies in :mod:`repro.server` —
         dispatch them through an executor (lambdas and nested sync
         ``def`` are assumed to be exactly that and are skipped).
REP004   Pickle safety: registered cross-process payload types must not
         grow fields holding lambdas, locks, mmaps, loop handles or
         other unpicklables (the runtime half round-trips real
         instances: :mod:`tools.analysis.pickle_check`).
REP005   numpy dtype discipline: array constructors in the
         ``repro.core``/``repro.xpath`` hot paths and the
         ``repro.encoding.codec`` dictionary layer must pin ``dtype=``
         explicitly so rank arrays cannot silently promote off
         ``int64`` on other platforms (``np.append`` has no ``dtype``
         parameter at all — rewrite with ``np.concatenate``).  The
         column half: in ``repro.core``/``xpath``/``encoding``/
         ``service`` a plane column (``.post``, ``.level``, ``.parent``,
         ``.kind``, ``.codes``) is never copied whole to ``int64``.
REP006   Durations and deadlines must use ``time.monotonic()``;
         ``time.time()`` is only for real wall-clock timestamps (and
         needs a suppression saying so).
REP007   ``except Exception`` / ``except BaseException`` / bare
         ``except`` are real decisions: each needs a narrower type or a
         tagged justification.
=======  ==============================================================
"""

from __future__ import annotations

import ast
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = ["Finding", "Module", "RULES", "lint_file", "run_lint", "render_text"]


_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*allow\[\s*(REP\d{3}(?:\s*,\s*REP\d{3})*)\s*\]\s*-\s*(\S.*)"
)
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(\w+)")


@dataclass(frozen=True)
class Finding:
    """One rule violation (suppressed findings are kept for reporting)."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False
    reason: str = ""

    def render(self) -> str:
        tag = f" (suppressed: {self.reason})" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}{tag}"


@dataclass
class Module:
    """One parsed source file plus its comment-level declarations."""

    path: str
    module: str  #: dotted module name, e.g. ``repro.server.app``
    source: str
    tree: ast.Module = field(init=False)
    #: line → (rule codes, reason)
    suppressions: Dict[int, Tuple[FrozenSet[str], str]] = field(init=False)
    #: line → lock name named by a ``# guarded-by:`` comment
    guarded_lines: Dict[int, str] = field(init=False)

    def __post_init__(self) -> None:
        self.tree = ast.parse(self.source, filename=self.path)
        self.suppressions = {}
        self.guarded_lines = {}
        for lineno, line in enumerate(self.source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(line)
            if match:
                codes = frozenset(
                    code.strip() for code in match.group(1).split(",")
                )
                self.suppressions[lineno] = (codes, match.group(2).strip())
            match = _GUARDED_RE.search(line)
            if match:
                self.guarded_lines[lineno] = match.group(1)

    def suppression(
        self, rule: str, line: int, scopes: Sequence[int]
    ) -> Optional[str]:
        """The reason suppressing ``rule`` at ``line``, if any.

        Checks the finding's own line first, then every enclosing
        ``def``/``class`` header line (innermost last in ``scopes``).
        """
        for candidate in (line, *reversed(tuple(scopes))):
            entry = self.suppressions.get(candidate)
            if entry is not None and rule in entry[0]:
                return entry[1]
        return None


class Rule(ast.NodeVisitor):
    """A linter rule: visit the module, ``emit`` findings.

    ``visit`` transparently maintains the stack of enclosing
    ``def``/``class`` header lines so suppressions on those lines cover
    whole bodies.
    """

    code = "REP000"
    summary = ""

    def __init__(self, module: Module):
        self.m = module
        self.findings: List[Finding] = []
        self._scopes: List[int] = []

    def run(self) -> List[Finding]:
        self.visit(self.m.tree)
        return self.findings

    def visit(self, node: ast.AST):
        scoped = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if scoped:
            self._scopes.append(node.lineno)
        try:
            return super().visit(node)
        finally:
            if scoped:
                self._scopes.pop()

    def emit(self, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        reason = self.m.suppression(self.code, line, self._scopes)
        self.findings.append(
            Finding(
                self.code,
                self.m.path,
                line,
                col,
                message,
                suppressed=reason is not None,
                reason=reason or "",
            )
        )


def _src(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # repro: allow[REP007] - unparse of exotic nodes must never kill a lint run
        return ""


# ----------------------------------------------------------------------
# REP001 — epoch-fenced cache keys
# ----------------------------------------------------------------------
class EpochFencedCacheKeys(Rule):
    code = "REP001"
    summary = "cache get/put key tuples must carry an epoch or shard-file term"

    #: a key element whose source mentions one of these fences the entry
    FENCE_TOKENS = ("epoch", "file")

    def __init__(self, module: Module):
        super().__init__(module)
        self._envs: List[Dict[str, ast.Tuple]] = []

    def _visit_function(self, node):
        env: Dict[str, ast.Tuple] = {}
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and isinstance(sub.value, ast.Tuple)
            ):
                env[sub.targets[0].id] = sub.value
        self._envs.append(env)
        try:
            self.generic_visit(node)
        finally:
            self._envs.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def _resolve_key(self, arg: ast.AST) -> Optional[ast.Tuple]:
        if isinstance(arg, ast.Tuple):
            return arg
        if isinstance(arg, ast.Name):
            for env in reversed(self._envs):
                if arg.id in env:
                    return env[arg.id]
        return None

    def visit_Call(self, node: ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("get", "put")
            and "cache" in _src(func.value).lower()
            and node.args
        ):
            key = self._resolve_key(node.args[0])
            if key is not None and not any(
                any(tok in _src(el).lower() for tok in self.FENCE_TOKENS)
                for el in key.elts
            ):
                self.emit(
                    node,
                    f"cache key {_src(node.args[0])!r} has no epoch- or "
                    "shard-file-bearing term; a store commit would leave "
                    "stale entries reachable",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REP002 — lock discipline for guarded-by fields
# ----------------------------------------------------------------------
class LockDiscipline(Rule):
    code = "REP002"
    summary = "guarded-by fields must be accessed under their lock"

    #: methods exempt from the lexical check: ``__init__`` runs before
    #: the object is shared; ``*_locked`` is the documented
    #: caller-holds-the-lock convention (backed at runtime by
    #: ``lockgraph.assert_held``).
    @staticmethod
    def _exempt(name: str) -> bool:
        return name == "__init__" or name.endswith("_locked")

    def visit_ClassDef(self, node: ast.ClassDef):
        locks = self._lock_attrs(node)
        guarded = self._guarded_fields(node, locks)
        if guarded:
            for stmt in node.body:
                if isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and not self._exempt(stmt.name):
                    if self.m.suppression(self.code, stmt.lineno, self._scopes):
                        # def-line suppression covers the whole body;
                        # emit nothing rather than one per access.
                        continue
                    self._check_method(stmt, guarded, locks)
        self.generic_visit(node)  # nested classes get their own pass

    def _lock_attrs(self, node: ast.ClassDef) -> FrozenSet[str]:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                callee = _src(sub.value.func)
                if callee in ("threading.Lock", "threading.RLock"):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            names.add(target.attr)
            # An inherited lock never appears as an assignment in this
            # class body; 'with self.<x>lock:' usage is its witness.
            if isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    expr = _src(item.context_expr)
                    if (
                        expr.startswith("self.")
                        and "." not in expr[5:]
                        and "lock" in expr.lower()
                    ):
                        names.add(expr[5:])
        return frozenset(names)

    def _guarded_fields(
        self, node: ast.ClassDef, locks: FrozenSet[str]
    ) -> Dict[str, str]:
        span = set(range(node.lineno, (node.end_lineno or node.lineno) + 1))
        declared_lines = {
            line: lock
            for line, lock in self.m.guarded_lines.items()
            if line in span
        }
        guarded: Dict[str, str] = {}
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign)):
                lock = declared_lines.get(sub.lineno)
                if lock is None:
                    continue
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if lock not in locks:
                            self.emit(
                                sub,
                                f"field {target.attr!r} declared guarded-by "
                                f"{lock!r}, but the class owns no such "
                                "threading.Lock/RLock",
                            )
                        else:
                            guarded[target.attr] = lock
        return guarded

    def _check_method(
        self, method, guarded: Dict[str, str], locks: FrozenSet[str]
    ) -> None:
        def held_locks(with_node) -> FrozenSet[str]:
            found = set()
            for item in with_node.items:
                expr = _src(item.context_expr)
                for lock in locks:
                    if expr == f"self.{lock}":
                        found.add(lock)
            return frozenset(found)

        def scan(node: ast.AST, held: FrozenSet[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                inner = held | held_locks(node)
                for item in node.items:
                    scan(item, held)
                for stmt in node.body:
                    scan(stmt, inner)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A nested callable may run long after the with-block
                # exits; its body starts from a clean slate.
                for child in ast.iter_child_nodes(node):
                    scan(child, frozenset())
                return
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in guarded
                and guarded[node.attr] not in held
            ):
                self.emit(
                    node,
                    f"{method.name}: field {node.attr!r} is guarded by "
                    f"self.{guarded[node.attr]} but accessed outside a "
                    f"'with self.{guarded[node.attr]}:' block",
                )
            for child in ast.iter_child_nodes(node):
                scan(child, held)

        for stmt in method.body:
            scan(stmt, frozenset())


# ----------------------------------------------------------------------
# REP003 — asyncio loop confinement
# ----------------------------------------------------------------------
class LoopConfinement(Rule):
    code = "REP003"
    summary = "no blocking calls inside async def bodies in repro.server"

    BLOCKING_SERVICE = ("execute", "execute_batch", "apply_updates")
    BLOCKING_QUEUE = ("get", "put", "join")
    QUEUE_NAMES = re.compile(r"(queue|inbox|outbox|mutex)", re.IGNORECASE)

    def run(self) -> List[Finding]:
        if not self.m.module.startswith("repro.server"):
            return self.findings
        return super().run()

    def visit_AsyncFunctionDef(self, node):
        self._scan(node)
        self.generic_visit(node)  # nested async defs get their own scan

    def _scan(self, root: ast.AST) -> None:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue  # runs off-loop (executor dispatch) by convention
            if isinstance(node, ast.AsyncFunctionDef):
                continue  # visited on its own
            if isinstance(node, ast.Call):
                self._check_call(node)
            self._scan(node)

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if _src(func) == "time.sleep":
            self.emit(
                node,
                "time.sleep() blocks the event loop; await asyncio.sleep() "
                "or dispatch to an executor",
            )
            return
        if not isinstance(func, ast.Attribute):
            return
        receiver = _src(func.value)
        if func.attr in self.BLOCKING_SERVICE and "service" in receiver.lower():
            self.emit(
                node,
                f"synchronous {receiver}.{func.attr}() holds the GIL for a "
                "whole batch on the event loop; run it on the dispatch lane",
            )
        elif func.attr in self.BLOCKING_QUEUE and self.QUEUE_NAMES.search(receiver):
            self.emit(
                node,
                f"blocking queue call {receiver}.{func.attr}() inside "
                "async def; use an executor or an asyncio queue",
            )
        elif func.attr in ("recv", "accept", "makefile"):
            self.emit(
                node,
                f"blocking socket call {receiver}.{func.attr}() inside "
                "async def; use the stream reader/writer",
            )


# ----------------------------------------------------------------------
# REP004 — pickle safety of registered cross-process payloads
# ----------------------------------------------------------------------
#: module → class names whose instances cross a process boundary
#: (pickled through the fabric's worker pipes).  The
#: runtime half (`tools.analysis.pickle_check`) round-trips real
#: instances of every entry at import time.
PAYLOAD_REGISTRY: Dict[str, Tuple[str, ...]] = {
    "repro.service.executor": ("ShardTask", "ShardResult"),
    "repro.service.updates": ("UpdateOp",),
    "repro.xpath.observation": ("StepObservation", "DriveObservation"),
    "repro.xpath.planner": ("QueryPlan",),
    "repro.xpath.pipeline": (
        "ContextInit",
        "StaircaseStep",
        "PredicateFilter",
        "PositionalSelect",
        "DocOrderDedup",
        "Materialize",
        "Count",
        "Exists",
        "PhysicalPlan",
    ),
}


class PickleSafety(Rule):
    code = "REP004"
    summary = "cross-process payload types must stay picklable"

    FORBIDDEN = re.compile(
        r"\b(Lock|RLock|Condition|Event|Semaphore|Thread|Queue|SimpleQueue|"
        r"Callable|Future|Task|AbstractEventLoop|EventLoop|SharedMemory|"
        r"mmap|socket|memoryview|Generator|Iterator|TextIO|BinaryIO|IO)\b"
    )

    def run(self) -> List[Finding]:
        self._registered = PAYLOAD_REGISTRY.get(self.m.module, ())
        if not self._registered:
            return self.findings
        return super().run()

    def visit_ClassDef(self, node: ast.ClassDef):
        if node.name in self._registered:
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    annotation = _src(stmt.annotation)
                    if self.FORBIDDEN.search(annotation):
                        self.emit(
                            stmt,
                            f"{node.name}.{_src(stmt.target)}: annotation "
                            f"{annotation!r} names an unpicklable (this type "
                            "crosses a process boundary)",
                        )
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Lambda):
                        self.emit(
                            stmt,
                            f"{node.name}: lambda in a field default — "
                            "lambdas do not pickle; use a named function",
                        )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REP005 — numpy dtype discipline in the hot paths
# ----------------------------------------------------------------------
class DtypeDiscipline(Rule):
    code = "REP005"
    summary = "hot-path numpy constructors must pin dtype= explicitly"

    CONSTRUCTORS = frozenset(
        {
            "array",
            "asarray",
            "ascontiguousarray",
            "empty",
            "zeros",
            "ones",
            "full",
            "arange",
            "frombuffer",
            "concatenate",
            "hstack",
            "vstack",
        }
    )

    #: Plane columns (``DocTable`` / ``StringColumn`` / ``ValueIndex``
    #: attributes): held at their declared width, never widened whole.
    COLUMNS = frozenset({"post", "level", "parent", "kind", "codes"})

    def run(self) -> List[Finding]:
        module = self.m.module
        self.ranks = module.startswith(("repro.core", "repro.xpath")) or (
            module == "repro.encoding.codec"
        )
        if not (self.ranks or module.startswith(("repro.encoding", "repro.service"))):
            return self.findings
        return super().run()

    def _widens_column(self, node: ast.Call) -> bool:
        """``np.asarray(x.post, dtype=np.int64)`` (or ``ascontiguousarray``)
        and ``x.post.astype(np.int64)``: an ``int64`` copy of a whole column."""
        func = node.func
        if not isinstance(func, ast.Attribute):
            return False
        if func.attr == "astype":
            target, dtype = func.value, node.args[0] if node.args else None
        elif func.attr in ("asarray", "ascontiguousarray") and node.args:
            target = node.args[0]
            dtype = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
        else:
            return False
        return (
            isinstance(target, ast.Attribute)
            and target.attr in self.COLUMNS
            and dtype is not None
            and _src(dtype) in ("np.int64", "numpy.int64")
        )

    def visit_Call(self, node: ast.Call):
        func = node.func
        if self._widens_column(node):
            self.emit(
                node,
                "int64 copy of a whole plane column; columns stay at their "
                "declared width (repro.encoding.widths) — gather the "
                "context-sized values and let the int64 rank operand promote",
            )
        elif (
            self.ranks
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            if func.attr == "append":
                self.emit(
                    node,
                    "np.append has no dtype parameter (a scalar or list "
                    "operand can promote the result off int64); rewrite "
                    "with np.concatenate(..., dtype=...)",
                )
            elif func.attr in self.CONSTRUCTORS and not any(
                kw.arg == "dtype" for kw in node.keywords
            ):
                self.emit(
                    node,
                    f"np.{func.attr}(...) without an explicit dtype= in a "
                    "rank-array hot path; platform-dependent default "
                    "integer widths can promote results off int64",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REP006 — monotonic clocks for durations
# ----------------------------------------------------------------------
class MonotonicDurations(Rule):
    code = "REP006"
    summary = "durations/deadlines use time.monotonic(), never time.time()"

    def visit_Call(self, node: ast.Call):
        if _src(node.func) == "time.time":
            self.emit(
                node,
                "time.time() is wall-clock and jumps under NTP/DST; use "
                "time.monotonic() (or time.perf_counter()) for durations — "
                "suppress only where a real timestamp is intended",
            )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# REP007 — exception hygiene
# ----------------------------------------------------------------------
class ExceptionHygiene(Rule):
    code = "REP007"
    summary = "broad except clauses need a narrower type or a tagged reason"

    BROAD = ("Exception", "BaseException")

    def _is_broad(self, expr: Optional[ast.AST]) -> bool:
        if expr is None:
            return True  # bare except
        if isinstance(expr, ast.Name) and expr.id in self.BROAD:
            return True
        if isinstance(expr, ast.Tuple):
            return any(self._is_broad(el) for el in expr.elts)
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler):
        if self._is_broad(node.type):
            caught = _src(node.type) if node.type else "everything (bare except)"
            self.emit(
                node,
                f"broad handler catches {caught}; catch the concrete "
                "exception types, or tag the boundary with "
                "'# repro: allow[REP007] - reason'",
            )
        self.generic_visit(node)


RULES: Tuple[type, ...] = (
    EpochFencedCacheKeys,
    LockDiscipline,
    LoopConfinement,
    PickleSafety,
    DtypeDiscipline,
    MonotonicDurations,
    ExceptionHygiene,
)


# ----------------------------------------------------------------------
# Driving
# ----------------------------------------------------------------------
def module_name(path: str) -> str:
    """Dotted module name for ``path`` (anchored at a ``src`` segment
    when present, else at the last path component)."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        parts = parts[-1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def lint_file(
    path: str, select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Run every (selected) rule over one file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    try:
        module = Module(path=path, module=module_name(path), source=source)
    except SyntaxError as error:
        return [
            Finding(
                "REP000",
                path,
                error.lineno or 1,
                error.offset or 0,
                f"file does not parse: {error.msg}",
            )
        ]
    wanted = set(select) if select else None
    findings: List[Finding] = []
    for rule_cls in RULES:
        if wanted is not None and rule_cls.code not in wanted:
            continue
        findings.extend(rule_cls(module).run())
    return findings


def iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d != "__pycache__" and not d.startswith(".")
            )
            files.extend(
                os.path.join(root, n) for n in sorted(names) if n.endswith(".py")
            )
    return files


def run_lint(
    paths: Sequence[str], select: Optional[Iterable[str]] = None
) -> List[Finding]:
    """Lint every ``.py`` under ``paths``; findings in file/line order."""
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        findings.extend(lint_file(path, select=select))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_text(findings: Sequence[Finding], show_suppressed: bool = False) -> str:
    """Human-readable report (what ``python -m tools.analysis`` prints)."""
    lines = [
        f.render()
        for f in findings
        if show_suppressed or not f.suppressed
    ]
    active = sum(1 for f in findings if not f.suppressed)
    silenced = len(findings) - active
    lines.append(
        f"{active} finding{'s' if active != 1 else ''}"
        f" ({silenced} suppressed)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps([asdict(f) for f in findings], indent=2)


if __name__ == "__main__":  # pragma: no cover - thin alias
    from tools.analysis.__main__ import main

    sys.exit(main())
