"""Exception hierarchy for the staircase join reproduction.

Every error raised by this package derives from :class:`ReproError`, so that
callers can catch package-level failures with a single ``except`` clause while
still being able to distinguish parsing problems from storage or query
evaluation problems.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "XMLSyntaxError",
    "EncodingError",
    "StorageError",
    "StoreNotFoundError",
    "MissingShardError",
    "BTreeError",
    "XPathSyntaxError",
    "XPathEvaluationError",
    "PlanError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class XMLSyntaxError(ReproError):
    """Raised when XML text cannot be parsed.

    Carries the (1-based) line and column of the offending position when
    known, mirroring the conventions of familiar XML parsers.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class EncodingError(ReproError):
    """Raised when a document cannot be pre/post encoded or a DocTable is
    constructed from inconsistent columns."""


class StorageError(ReproError):
    """Raised on misuse of the column-store substrate (BATs, columns)."""


class StoreNotFoundError(ReproError, FileNotFoundError):
    """Raised when a path given as a sharded store is not one (no
    manifest).  Also a :class:`FileNotFoundError`, so callers that treat
    missing inputs uniformly (e.g. the CLI's usage-error exit code)
    need only one ``except`` clause."""


class MissingShardError(ReproError):
    """Raised when a shard file a store snapshot names is gone: another
    process's commit removed it, or the store is damaged."""


class BTreeError(StorageError):
    """Raised on invalid B+-tree operations (e.g. duplicate insert of a
    unique key, malformed key tuples)."""


class XPathSyntaxError(ReproError):
    """Raised when an XPath expression cannot be tokenised or parsed."""

    def __init__(
        self, message: str, position: int = -1, expression: str = ""
    ) -> None:
        self.position = position
        self.expression = expression
        if position >= 0 and expression:
            pointer = " " * position + "^"
            message = f"{message}\n  {expression}\n  {pointer}"
        super().__init__(message)


class XPathEvaluationError(ReproError):
    """Raised when a parsed XPath expression cannot be evaluated (e.g. an
    axis not supported by the chosen execution strategy)."""


class PlanError(ReproError):
    """Raised when the tree-unaware SQL engine is given an invalid plan."""


class WorkloadError(ReproError):
    """Raised by the experiment harness for unknown workloads/scales."""
