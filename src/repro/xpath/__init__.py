"""XPath subset: parsing and evaluation over the XPath accelerator.

The layer that turns path expressions like the paper's

* Q1 — ``/descendant::profile/descendant::education``
* Q2 — ``/descendant::increase/ancestor::bidder``

into sequences of axis steps executed by the staircase join (or, for
comparison, by the tree-unaware baselines).  Supported: the XPath axes
(``namespace`` excepted — the data model here has no namespace nodes),
name and kind tests, abbreviated syntax (``//``, ``@``, ``.``, ``..``),
and predicates with positions, comparisons, paths and the core functions
(``position``, ``last``, ``count``, ``not``, ``name``).

>>> from repro import xpath, xmark
>>> doc = xmark.generate_table(0.1)
>>> education = xpath.evaluate(doc, "/descendant::profile/descendant::education")
"""

from repro.xpath.ast import AXES, LocationPath, NodeTest, Step
from repro.xpath.evaluator import Evaluator, evaluate
from repro.xpath.parser import parse_xpath
from repro.xpath.pipeline import MODES, PhysicalPlan, compile_plan, drive
from repro.xpath.planner import Planner, QueryPlan
from repro.xpath.rewrite import push_name_test, symmetry_rewrite

__all__ = [
    "LocationPath",
    "Step",
    "NodeTest",
    "AXES",
    "MODES",
    "parse_xpath",
    "Evaluator",
    "evaluate",
    "compile_plan",
    "drive",
    "PhysicalPlan",
    "Planner",
    "QueryPlan",
    "push_name_test",
    "symmetry_rewrite",
]
