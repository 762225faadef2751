"""Abstract syntax for the XPath subset.

Plain frozen dataclasses; the evaluator pattern-matches on the node types.
``LocationPath`` with its ``Step`` list is the core — everything else only
occurs inside predicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

__all__ = [
    "AXES",
    "NodeTest",
    "Step",
    "LocationPath",
    "NumberLiteral",
    "StringLiteral",
    "FunctionCall",
    "BinaryExpr",
    "Expr",
]

#: Axes the evaluator implements (XPath 1.0 minus ``namespace``).
AXES = (
    "child",
    "descendant",
    "parent",
    "ancestor",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
    "attribute",
    "self",
    "descendant-or-self",
    "ancestor-or-self",
)


@dataclass(frozen=True)
class NodeTest:
    """A node test: either a kind test or a name test.

    ``kind`` is one of ``"name"``, ``"node"``, ``"text"``, ``"comment"``,
    ``"processing-instruction"``, ``"*"``.  For ``kind == "name"`` the
    ``name`` field holds the tested tag (which matches the *principal node
    kind* of the step's axis: elements everywhere except the attribute
    axis, where it matches attribute names).
    """

    kind: str
    name: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "name":
            return self.name or "?"
        if self.kind == "*":
            return "*"
        if self.name:  # processing-instruction('target')
            return f"{self.kind}('{self.name}')"
        return f"{self.kind}()"


@dataclass(frozen=True)
class Step:
    """One location step: ``axis::nodetest[predicate]*``."""

    axis: str
    test: NodeTest
    predicates: Tuple["Expr", ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        preds = "".join(f"[{p}]" for p in self.predicates)
        return f"{self.axis}::{self.test}{preds}"


@dataclass(frozen=True)
class LocationPath:
    """A path: optional absolute anchor plus a sequence of steps."""

    absolute: bool
    steps: Tuple[Step, ...]

    def __str__(self) -> str:
        body = "/".join(str(s) for s in self.steps)
        return ("/" + body) if self.absolute else body


@dataclass(frozen=True)
class NumberLiteral:
    value: float

    def __str__(self) -> str:
        if self.value == int(self.value):
            return str(int(self.value))
        return str(self.value)


@dataclass(frozen=True)
class StringLiteral:
    value: str

    def __str__(self) -> str:
        quote = "'" if '"' in self.value else '"'
        return f"{quote}{self.value}{quote}"


@dataclass(frozen=True)
class FunctionCall:
    name: str
    args: Tuple["Expr", ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class BinaryExpr:
    """``or``/``and``, comparisons, arithmetic, and node-set union.

    ``__str__`` parenthesises nested binary operands so that the rendered
    text reparses to the identical tree regardless of associativity or
    precedence (the parser-fuzz round-trip property).
    """

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        def wrap(operand: "Expr") -> str:
            if isinstance(operand, BinaryExpr):
                return f"({operand})"
            return str(operand)

        return f"{wrap(self.left)} {self.op} {wrap(self.right)}"


Expr = Union[
    LocationPath, NumberLiteral, StringLiteral, FunctionCall, BinaryExpr
]
