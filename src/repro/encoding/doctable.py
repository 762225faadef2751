"""The ``doc`` table: the relational face of an encoded document.

A :class:`DocTable` is the family of BATs the paper's Monet implementation
stores (Section 4.1): a void ``pre`` column shared by dense ``post``,
``level``, ``parent``, ``kind`` and dictionary-encoded ``tag`` columns.
All join algorithms in this repository take a ``DocTable`` plus a context
(an array of preorder ranks) and return preorder ranks.

Node text is one more dictionary-coded column, :class:`ValueIndex`: the
encoder emits it, splices merge it, an archive stores it as members
(:mod:`repro.encoding.persist`) and the value predicates search it — a node's text is a
dictionary code from the tree to the kernels, never a Python ``str``.

Beyond raw storage the class offers the O(1) "tree knowledge" primitives
the staircase join is built from: ancestor/descendant tests via rank
comparisons, Equation (1) subtree-size estimation, and conversions between
pre and post rank orders.
"""

from __future__ import annotations

import re
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.encoding.codec import (
    dictionary_containing,
    dictionary_entry,
    dictionary_find,
    dictionary_prefix_range,
    encode_dictionary,
)
from repro.encoding.widths import COLUMN_DTYPES, hold, narrow
from repro.errors import EncodingError
from repro.storage.bat import BAT
from repro.storage.column import IntColumn, StringColumn, VoidColumn
from repro.xmltree.model import NodeKind

__all__ = ["DocTable", "ValueIndex", "xpath_number"]

#: XPath 1.0 ``Number`` with the string-conversion frame around it:
#: optional whitespace, optional ``-``, ``Digits ('.' Digits?)? | '.'
#: Digits``, optional whitespace.  No ``+``, exponent, ``inf``/``nan``
#: or ``_`` — everything Python's ``float()`` accepts beyond the grammar.
_XPATH_NUMBER = re.compile(
    r"[ \t\r\n]*-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[ \t\r\n]*"
)
_XPATH_NUMBER_BYTES = re.compile(_XPATH_NUMBER.pattern.encode("ascii"))

#: First bytes a string matching :data:`_XPATH_NUMBER` can start with.
_NUMBER_LEAD = np.frombuffer(b" \t\r\n-.0123456789", dtype=np.uint8)


def xpath_number(text: Union[str, bytes]) -> float:
    """The XPath 1.0 ``number()`` of a string: its value under the
    ``Number`` grammar, NaN for anything else.

    The one string→number parser — both engines' coercions and the
    value index's per-dictionary-entry numeric table call it.  UTF-8
    ``bytes`` are accepted as they sit in a dictionary blob (the
    grammar is pure ASCII).
    """
    pattern = _XPATH_NUMBER if isinstance(text, str) else _XPATH_NUMBER_BYTES
    if pattern.fullmatch(text) is None:
        return float("nan")
    return float(text)


class ValueIndex:
    """The value column: dictionary-coded node text, searchable undecoded.

    ``codes[pre]`` is the node's dictionary code (``-1``: no value —
    elements carry none); ``blob``/``offsets`` are the dictionary, its
    entries strictly sorted as UTF-8 (= code-point order) and each
    referenced by some code.  All three may be memory-mapped archive
    members.  Scalar access decodes one *entry*; the search methods turn
    a literal into a code, a code range or a per-code truth table, and
    :meth:`numbers` holds ``xpath_number`` of every entry — value
    predicates run on codes, never on per-node strings.  Immutable.
    """

    __slots__ = ("codes", "blob", "offsets", "_numbers")

    def __init__(self, codes, blob: np.ndarray, offsets: np.ndarray):
        self.codes = hold("value_codes", codes)  #: per-node codes
        self.blob = blob
        # 4-byte offsets: a blob past 2³¹ − 1 bytes is an EncodingError.
        self.offsets = narrow("dict_offsets", offsets)
        self._numbers: Optional[np.ndarray] = None

    def __len__(self) -> int:
        """Number of nodes (the column's length, not the dictionary's)."""
        return len(self.codes)

    @property
    def dictionary_size(self) -> int:
        return int(self.offsets.shape[0]) - 1

    @property
    def dictionary_bytes(self) -> int:
        return int(self.blob.shape[0])

    def entry(self, code: int) -> str:
        return dictionary_entry(self.blob, self.offsets, code)

    def _decode(self, code: int) -> Optional[str]:
        return None if code < 0 else self.entry(code)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._decode(int(c)) for c in self.codes[index]]
        return self._decode(int(self.codes[index]))

    def __iter__(self) -> Iterator[Optional[str]]:
        for code in self.codes:
            yield self._decode(int(code))

    def __eq__(self, other):
        if isinstance(other, (list, tuple, ValueIndex)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None

    def check(self) -> None:
        """Reject codes or offsets that point outside the dictionary."""
        offsets = self.offsets
        if (
            offsets.shape[0] < 1
            or offsets[0] != 0
            or offsets[-1] != self.blob.shape[0]
            or (offsets.shape[0] > 1 and np.diff(offsets).min() < 0)
        ):
            raise EncodingError("value dictionary offsets do not tile its blob")
        if len(self) and (
            self.codes.min() < -1 or self.codes.max() >= self.dictionary_size
        ):
            raise EncodingError("value code outside the dictionary")

    def find(self, value: str) -> int:
        """Code of ``value``, or ``-1`` when no node carries it."""
        return dictionary_find(self.blob, self.offsets, value)

    def prefix_range(self, prefix: str) -> Tuple[int, int]:
        """Codes ``[lo, hi)`` of the entries starting with ``prefix``."""
        return dictionary_prefix_range(self.blob, self.offsets, prefix)

    def containing(self, needle: str) -> np.ndarray:
        """Boolean per code: the entries containing ``needle``."""
        return dictionary_containing(self.blob, self.offsets, needle)

    def numbers(self) -> np.ndarray:
        """``xpath_number`` of every dictionary entry (``float64``, one
        slot per *entry*; built once, on the first numeric predicate)."""
        if self._numbers is None:
            offsets = np.asarray(self.offsets, dtype=np.int64)
            raw = bytes(self.blob)
            numbers = np.full(self.dictionary_size, np.nan, dtype=np.float64)
            # Only entries opening with a byte the grammar allows can be
            # numbers — text content rarely does, so the parser runs on
            # a sliver of the dictionary.
            populated = np.nonzero(offsets[1:] > offsets[:-1])[0]
            lead = np.frombuffer(raw, dtype=np.uint8)[offsets[populated]]
            for code in populated[np.isin(lead, _NUMBER_LEAD)]:
                numbers[code] = xpath_number(
                    raw[int(offsets[code]) : int(offsets[code + 1])]
                )
            self._numbers = numbers
        return self._numbers


class DocTable:
    """Pre/post encoded document (the table of Figure 2, plus bookkeeping).

    Parameters
    ----------
    post, level, parent, kind:
        Dense vectors indexed by preorder rank, held at a width
        :mod:`repro.encoding.widths` allows (``post`` / ``parent``
        ``int32``, ``kind`` ``int8``, ``level`` ``int8`` or ``int16``)
        as they are; other integer arrays are range-checked and
        narrowed.  A shard of 2³¹ nodes or a tree 2¹⁵ levels deep is
        an :class:`EncodingError`.
    tag:
        Dictionary-encoded tag/attribute-name column.
    values:
        The :class:`ValueIndex` of per-node text (absent: no node has any).
    validate:
        Check that ``post`` is a permutation of ``0..n-1`` (an O(n log n)
        sort) and that the value codes fit their dictionary.  Pass
        ``False`` only for columns known good by construction — the
        persistence load path, whose ``post`` is derived from ``level``.
    height:
        The document height, when the caller already knows it (the
        persistence load path does).  Without it the constructor
        computes ``level.max()`` — an O(n) pass.
    """

    __slots__ = (
        "post",
        "level",
        "parent",
        "kind",
        "tag",
        "values",
        "height",
        "_pre_of_post",
        "_first_child_cache",
        "_tag_histogram",
    )

    def __init__(
        self,
        post: np.ndarray,
        level: np.ndarray,
        parent: np.ndarray,
        kind: np.ndarray,
        tag: StringColumn,
        values: Optional[ValueIndex] = None,
        validate: bool = True,
        height: Optional[int] = None,
    ):
        n = post.shape[0]
        if n > np.iinfo(COLUMN_DTYPES["post"]).max:
            raise EncodingError(f"{n} nodes exceed the 4-byte rank columns")
        columns = {"post": post, "level": level, "parent": parent, "kind": kind}
        for name, column in columns.items():
            if column.shape[0] != n:
                raise EncodingError(f"column {name!r} length {column.shape[0]} != {n}")
            columns[name] = hold(name, column)
        post, level, parent, kind = columns.values()
        if len(tag) != n:
            raise EncodingError(f"tag column length {len(tag)} != {n}")
        if values is None:
            values = ValueIndex(narrow("value_codes", np.full(n, -1)), *encode_dictionary([]))
        if len(values) != n:
            raise EncodingError(f"value column length {len(values)} != {n}")
        if n == 0:
            raise EncodingError("cannot build an empty DocTable")
        if validate:
            sorted_post = np.sort(post)
            if not np.array_equal(sorted_post, np.arange(n, dtype=post.dtype)):
                raise EncodingError("post column must be a permutation of 0..n-1")
            values.check()
        self.post = post
        self.level = level
        self.parent = parent
        self.kind = kind
        self.tag = tag
        self.values = values
        # h — the document height; computed once at load time (footnote 3)
        # unless a persisted archive already carries it.
        self.height = int(level.max()) if height is None else int(height)
        if self.height > np.iinfo(COLUMN_DTYPES["level"]).max:
            raise EncodingError(f"height {self.height} exceeds the 2-byte level column")
        self._pre_of_post: Optional[np.ndarray] = None
        self._first_child_cache: Optional[np.ndarray] = None
        self._tag_histogram: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Size / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.post.shape[0])

    @property
    def size(self) -> int:
        """Number of encoded nodes (attributes included)."""
        return len(self)

    @property
    def root(self) -> int:
        """Preorder rank of the root element (always 0)."""
        return 0

    def pres(self) -> np.ndarray:
        """All preorder ranks, ``0..n-1``."""
        return np.arange(len(self), dtype=np.int64)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    # ------------------------------------------------------------------
    # Per-node accessors (scalar, O(1))
    # ------------------------------------------------------------------
    def post_of(self, pre: int) -> int:
        return int(self.post[pre])

    def level_of(self, pre: int) -> int:
        return int(self.level[pre])

    def parent_of(self, pre: int) -> int:
        """Preorder rank of the parent, or −1 for the root."""
        return int(self.parent[pre])

    def kind_of(self, pre: int) -> NodeKind:
        return NodeKind(int(self.kind[pre]))

    def tag_of(self, pre: int) -> str:
        return self.tag[pre]

    def value_of(self, pre: int) -> Optional[str]:
        return self.values[pre]

    def is_element(self, pre: int) -> bool:
        return int(self.kind[pre]) == int(NodeKind.ELEMENT)

    def is_attribute(self, pre: int) -> bool:
        return int(self.kind[pre]) == int(NodeKind.ATTRIBUTE)

    # ------------------------------------------------------------------
    # Tree knowledge (Section 2 / Equation (1))
    # ------------------------------------------------------------------
    def is_ancestor(self, a: int, v: int) -> bool:
        """True iff ``a`` is a proper ancestor of ``v``.

        The defining property of the pre/post plane: ancestors are up-left
        of ``v`` (smaller pre, larger post).
        """
        return a < v and self.post[a] > self.post[v]

    def subtree_size_estimate(self, pre: int) -> int:
        """Lower bound on ``|v/descendant|`` from Equation (1).

        ``post(v) − pre(v) + level(v)`` is exact, but an algorithm that
        wants to avoid the ``level`` lookup can use
        ``post(v) − pre(v)`` which undershoots by at most ``h``.
        """
        return max(0, int(self.post[pre]) - pre)

    def subtree_size_exact(self, pre: int) -> int:
        """``|v/descendant|`` exactly, via Equation (1) with the level term."""
        return int(self.post[pre]) - pre + int(self.level[pre])

    def pre_of_post(self) -> np.ndarray:
        """Inverse permutation: map postorder rank → preorder rank.

        Needed by the ``following`` axis degeneration (the surviving
        context node is the one with *minimum postorder* rank).  Computed
        lazily once and cached.
        """
        if self._pre_of_post is None:
            inverse = np.empty(len(self), dtype=np.int64)
            inverse[self.post] = np.arange(len(self), dtype=np.int64)
            self._pre_of_post = inverse
        return self._pre_of_post

    # ------------------------------------------------------------------
    # Structure navigation (used by child/sibling axes and examples)
    # ------------------------------------------------------------------
    def children_of(self, pre: int) -> List[int]:
        """Preorder ranks of the node's children (attributes included)."""
        result = []
        # Children of v are exactly the nodes with parent == v; they lie in
        # v's subtree, which spans pre+1 .. pre+subtree_size_exact(v).
        end = pre + self.subtree_size_exact(pre)
        child = pre + 1
        while child <= end and child < len(self):
            if int(self.parent[child]) == pre:
                result.append(child)
                child += 1 + self.subtree_size_exact(child)
            else:  # pragma: no cover - defensive; parents are contiguous
                child += 1
        return result

    def attribute_count_of(self, pre: int) -> int:
        """Number of attribute children of ``pre``.

        The encoding keeps an element's attributes *first*, each occupying
        exactly one preorder rank, so they sit contiguously at
        ``pre+1 .. pre+count`` — a short scan, not a subtree walk.
        """
        end = pre + self.subtree_size_exact(pre)
        attribute_kind = int(NodeKind.ATTRIBUTE)
        count = 0
        i = pre + 1
        while i <= end and int(self.kind[i]) == attribute_kind:
            count += 1
            i += 1
        return count

    def first_non_attribute_child_of(self, pre: int) -> Optional[int]:
        """Preorder rank of the first non-attribute child, or ``None``.

        This is the boundary an inserted attribute must stay ahead of to
        preserve the attributes-first convention the attribute axis
        relies on.
        """
        first = pre + 1 + self.attribute_count_of(pre)
        if first <= pre + self.subtree_size_exact(pre):
            return first
        return None

    def ancestors_of(self, pre: int) -> List[int]:
        """Preorder ranks of all proper ancestors, nearest first."""
        result = []
        node = int(self.parent[pre])
        while node >= 0:
            result.append(node)
            node = int(self.parent[node])
        return result

    def string_value(self, pre: int) -> str:
        """XPath string value of the node at ``pre``.

        Elements concatenate the values of all text nodes in their subtree
        (found positionally: the subtree is the contiguous preorder span
        given by Equation (1)); other kinds carry their value directly.
        """
        if int(self.kind[pre]) != int(NodeKind.ELEMENT):
            return self.values[pre] or ""
        end = pre + self.subtree_size_exact(pre)
        parts = []
        text_kind = int(NodeKind.TEXT)
        for i in range(pre + 1, min(end, len(self) - 1) + 1):
            if int(self.kind[i]) == text_kind:
                parts.append(self.values[i] or "")
        return "".join(parts)

    # ------------------------------------------------------------------
    # BAT views (the Monet storage shape)
    # ------------------------------------------------------------------
    def post_bat(self) -> BAT:
        """``pre|post`` — the BAT the staircase join scans."""
        return BAT(VoidColumn(len(self)), IntColumn(self.post), name="doc_post")

    def column_nbytes(self) -> int:
        """Bytes of the plane columns once resident (void ``pre`` is
        free): the four structure columns, the tag codes and the value
        codes."""
        return sum(
            column.nbytes
            for column in (
                self.post, self.level, self.parent, self.kind,
                self.tag.codes, self.values.codes,
            )
        )

    def memory_footprint(self) -> int:
        """Approximate bytes of column storage, tag dictionary included."""
        return self.column_nbytes() + sum(
            len(s.encode("utf-8")) for s in self.tag.dictionary
        )

    # ------------------------------------------------------------------
    # Selections (used for name-test pushdown and fragmentation)
    # ------------------------------------------------------------------
    def pres_with_tag(self, tag_name: str, kind: NodeKind = NodeKind.ELEMENT) -> np.ndarray:
        """Preorder ranks of all nodes with the given tag and kind.

        Name tests become one integer comparison per node thanks to the
        dictionary encoding; an absent tag short-circuits to empty.
        """
        code = self.tag.code_of(tag_name)
        if code < 0:
            return np.empty(0, dtype=np.int64)
        mask = (self.tag.codes == code) & (self.kind == int(kind))
        return np.nonzero(mask)[0].astype(np.int64)

    def pres_with_kind(self, kind: NodeKind) -> np.ndarray:
        """Preorder ranks of all nodes of the given kind."""
        return np.nonzero(self.kind == int(kind))[0].astype(np.int64)

    def non_attribute_pres(self) -> np.ndarray:
        """All nodes the non-attribute axes may ever return."""
        return np.nonzero(self.kind != int(NodeKind.ATTRIBUTE))[0].astype(np.int64)

    # ------------------------------------------------------------------
    # Catalogue statistics (the engine cost model's input)
    # ------------------------------------------------------------------
    def tag_histogram(self) -> np.ndarray:
        """Element count per tag *code* — ``histogram[code]`` elements.

        One ``np.bincount`` over the dictionary-encoded tag column,
        restricted to element nodes (the principal node kind of every
        non-attribute axis, i.e. what a name test can select).  Computed
        once per table and cached; O(n) on first use.
        """
        if self._tag_histogram is None:
            element_codes = self.tag.codes[self.kind == int(NodeKind.ELEMENT)]
            self._tag_histogram = np.bincount(
                element_codes, minlength=len(self.tag.dictionary)
            ).astype(np.int64)
        return self._tag_histogram

    def tag_statistics(self) -> dict:
        """Per-tag element cardinalities as a ``{tag: count}`` mapping.

        The mapping face of :meth:`tag_histogram` (zero-count tags
        omitted) — what :class:`repro.engine.planner.CostModel` reads.
        """
        histogram = self.tag_histogram()
        dictionary = self.tag.dictionary
        return {
            dictionary[code]: int(histogram[code])
            for code in np.nonzero(histogram)[0]
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DocTable(nodes={len(self)}, height={self.height}, "
            f"tags={len(self.tag.dictionary)})"
        )
