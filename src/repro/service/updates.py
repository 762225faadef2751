"""The write-path vocabulary: update operations and their JSON wire form.

An :class:`UpdateOp` names one mutation of a sharded store.  Three act at
document granularity (``add``, ``remove``, ``update``) and three splice a
subtree inside one member (``insert``, ``delete``, ``replace``) — the
O(n) rank-splicing path of :mod:`repro.encoding.updates` instead of a
full shard re-encode.  Ranks are *document-relative* (rank 0 = the
member's root element), matching the shape query results are reported
in, so a rank read off a :class:`~repro.service.service.ServiceResult`
can be fed straight back into a splice.

:func:`parse_ops` turns the JSON ops format of ``python -m repro
update`` and ``POST /update`` into validated ops.  Subtree payloads may
be inline XML (``"xml"``), a bare text node (``"text"``) or an attribute
(``"attribute": {"name": ..., "value": ...}``); an ops *file* may also
name an XML file (``"file"``), which the CLI inlines as ``"xml"`` before
parsing — the server reads no file a client names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import ReproError
from repro.xmltree.model import Node, NodeKind, attribute, text

__all__ = ["UpdateOp", "parse_ops", "DOCUMENT_OPS", "SPLICE_OPS"]

#: Ops acting on a whole member document.
DOCUMENT_OPS = ("add", "remove", "update")

#: Ops splicing a subtree inside one member.
SPLICE_OPS = ("insert", "delete", "replace")


@dataclass(frozen=True)
class UpdateOp:
    """One mutation of a sharded store.

    Parameters
    ----------
    op:
        One of :data:`DOCUMENT_OPS` or :data:`SPLICE_OPS`.
    document:
        Member name the op targets (for ``add``: the new member's name).
    tree:
        Subtree payload (``add``/``update``/``insert``/``replace``).
    pre:
        Document-relative preorder rank: the parent for ``insert``, the
        subtree root for ``delete``/``replace``.
    before:
        ``insert`` only — document-relative rank of the existing child
        the new subtree lands ahead of (``None`` appends).
    shard:
        ``add`` only — explicit target shard (``None`` picks the
        smallest shard by node count).
    """

    op: str
    document: str
    tree: Optional[Node] = None
    pre: Optional[int] = None
    before: Optional[int] = None
    shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in DOCUMENT_OPS + SPLICE_OPS:
            raise ReproError(
                f"unknown update op {self.op!r} (expected one of "
                f"{', '.join(DOCUMENT_OPS + SPLICE_OPS)})"
            )
        if not self.document:
            raise ReproError(f"op {self.op!r} needs a target document name")
        if self.op in ("add", "update", "insert", "replace") and self.tree is None:
            raise ReproError(f"op {self.op!r} needs a subtree payload")
        if self.op in SPLICE_OPS and self.pre is None:
            raise ReproError(f"op {self.op!r} needs a document-relative rank")


def _typed(raw: dict, position: int, name: str, kind: type, label: str = "") -> Any:
    """``raw[name]`` if it is exactly a ``kind`` (so ``true`` is no
    integer); an absent key or ``null`` is ``None``."""
    value = raw.get(name)
    if value is None or type(value) is kind:
        return value
    noun = "an integer" if kind is int else "a string"
    raise ReproError(f"ops[{position}].{label}{name} must be {noun}")


def _payload(raw: dict, position: int) -> Optional[Node]:
    """Decode the subtree payload of one JSON op (or ``None``)."""
    given = [k for k in ("xml", "text", "attribute") if raw.get(k) is not None]
    if len(given) > 1:
        raise ReproError(f"ops[{position}]: give at most one of xml/text/attribute")
    if not given:
        return None
    kind = given[0]
    if kind == "text":
        return text(_typed(raw, position, "text", str))
    if kind == "attribute":
        spec = raw["attribute"]
        if not isinstance(spec, dict) or spec.get("name") is None:
            raise ReproError(
                f'ops[{position}]: "attribute" must be '
                '{"name": ..., "value": ...}'
            )
        return attribute(
            _typed(spec, position, "name", str, "attribute."),
            _typed(spec, position, "value", str, "attribute.") or "",
        )
    from repro.xmltree.parser import parse

    parsed = parse(_typed(raw, position, "xml", str))
    # The parser wraps everything in a DOCUMENT node; subtree ops want
    # the element itself (document-level ops accept either).
    roots = [c for c in parsed.children if c.kind == NodeKind.ELEMENT]
    if len(roots) != 1:
        raise ReproError(
            f"ops[{position}]: payload must have exactly one root element"
        )
    return roots[0]


def parse_ops(raw_ops: Sequence[dict]) -> list:
    """Validate a JSON ops list (``python -m repro update``, ``POST
    /update``) into ops.

    Every field must have its JSON type — ``op``, ``document``,
    ``xml``, ``text`` and an attribute's ``name`` / ``value`` strings,
    ``pre`` / ``before`` / ``shard`` integers (``true`` is none) — or be
    absent (``null`` counts as absent); anything else is a
    :class:`ReproError` naming ``ops[i].<field>``.
    """
    if isinstance(raw_ops, dict):
        raw_ops = raw_ops.get("ops", raw_ops)
    if not isinstance(raw_ops, (list, tuple)):
        raise ReproError('an ops file holds a JSON list (or {"ops": [...]})')
    ops = []
    for position, raw in enumerate(raw_ops):
        if not isinstance(raw, dict):
            raise ReproError(f"ops[{position}]: not a JSON object")
        unknown = set(raw) - {
            "op", "document", "pre", "before", "shard", "xml", "text", "attribute",
        }
        if unknown:
            raise ReproError(
                f"ops[{position}]: unknown keys {sorted(unknown)}"
            )
        ops.append(
            UpdateOp(
                op=_typed(raw, position, "op", str) or "",
                document=_typed(raw, position, "document", str) or "",
                tree=_payload(raw, position),
                pre=_typed(raw, position, "pre", int),
                before=_typed(raw, position, "before", int),
                shard=_typed(raw, position, "shard", int),
            )
        )
    return ops
