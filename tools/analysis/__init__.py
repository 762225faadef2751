"""Project-invariant static analysis and runtime race detection.

Development tooling for the ``repro`` package, kept outside it: no
module of ``src/repro`` imports this one, and the installed package
does not contain it.  The engine's correctness rests on invariants that
would otherwise live only in prose; this package encodes them into
tooling, the same move the staircase join paper makes one level down
(encode tree properties into the executor so the algorithm *cannot*
regress them):

* :mod:`tools.analysis.reprolint` — an AST linter (stdlib ``ast``, no
  new runtime dependency) with project-specific rules **REP001–REP007**
  (epoch-fenced cache keys, lock discipline, asyncio loop confinement,
  pickle safety, numpy dtype discipline, monotonic clocks, exception
  hygiene).  Findings are suppressed inline with
  ``# repro: allow[REP00X] - reason``.
* :mod:`tools.analysis.pickle_check` — the runtime half of REP004: an
  import-time pickle round-trip over every registered cross-process
  payload type.
* :mod:`tools.analysis.lockgraph` — an opt-in runtime lock-order
  recorder: instruments ``threading.Lock``/``RLock``, builds the
  cross-thread acquisition-order graph, reports any cycle as a
  potential deadlock (with the acquire stacks of both edges), and
  provides :func:`~tools.analysis.lockgraph.assert_held` as REP002's
  runtime companion.

Run the linter from the repository root as ``PYTHONPATH=src python -m
tools.analysis src [--pickle-check]``; it exits non-zero on any
unsuppressed finding, which is what the CI ``analysis`` job gates on.
"""

from __future__ import annotations

from tools.analysis.lockgraph import LockGraph, assert_held
from tools.analysis.reprolint import Finding, RULES, run_lint

__all__ = ["Finding", "LockGraph", "RULES", "assert_held", "run_lint"]
