"""Tree-unaware SQL engine emulation (the paper's DB2 comparison point).

Section 2.1 shows how a conventional RDBMS evaluates an XPath step: the
path expression is translated to a self-join SQL query over the ``doc``
table (Figure 3); the optimiser picks a plan that scans the outer input in
pre-sorted order through a B-tree on concatenated ``(pre, post, tag)``
keys and answers the region predicates with delimited inner index range
scans, followed by a ``unique`` operator and a sort.

This package rebuilds that stack in miniature:

* :mod:`repro.engine.operators` — Volcano-style iterators (index range
  scan, filter, nested-loop region join, unique, sort);
* :mod:`repro.engine.db2` — the Figure 3 plan shapes for descendant and
  ancestor steps, with and without the "line 7" Equation-(1) range
  delimiter and with early/late name tests;
* :mod:`repro.engine.sqlgen` — the SQL text generator (what the
  translated queries look like);
* :mod:`repro.engine.mil` — an interpreter for the Section 4.4 MIL
  plan notation over the staircase join primitives.
"""

from repro.engine.db2 import DocIndex, db2_path, db2_step
from repro.engine.mil import run_mil
from repro.engine.sqlgen import path_to_sql

__all__ = [
    "DocIndex",
    "db2_step",
    "db2_path",
    "run_mil",
    "path_to_sql",
]
