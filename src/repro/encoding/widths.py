"""The width of every plane column — one rule, applied here.

Bytes per node is the paper's cost model (Section 4.1: a void ``pre``
head over narrow tails, each read once, in order).  The rule:

* **Ceilings.**  :data:`COLUMN_DTYPES` is each column's widest type;
  past it is an :class:`EncodingError`, never a wrap (a shard of 2³¹
  nodes, a tree 2¹⁵ levels deep).
* **The narrowest width.**  ``level``, ``tag_codes``, ``value_codes``
  and ``dict_lengths`` (:data:`NARROWED`) take the narrowest of
  ``int8`` / ``int16`` / ``int32`` that holds their ``[min, max]``; the
  rest sit at their ceiling.  :func:`narrow` chooses it wherever a
  column is produced — ``encode``, the splices, ``save`` — so a splice
  that grows a dictionary past 127 or 32 767 entries widens the column.
* **Read columns keep their width.**  A column ``load`` reads keeps the
  width its ``.npy`` header declares, unscanned when mapped (:func:`hold`).
* **Promote before scalar arithmetic.**  A narrow array plus a Python
  scalar stays narrow and wraps (``np.int16(32767) + 1`` is −32768), so
  a kernel gathers context-sized values into an ``int64`` vector, or
  lets an ``int64`` operand promote them, before it adds to them.
  *Rank vectors* (contexts, fragments, results, payloads) are ``int64``;
  a kernel never widens a whole column.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

__all__ = ["COLUMN_DTYPES", "NARROWED", "column_dtype", "hold", "narrow"]

#: Column → ceiling dtype.  ``post``/``parent`` hold ranks in
#: ``[-1, n)``, so a shard is capped at 2³¹ nodes; ``level`` caps the
#: height at 2¹⁵; ``kind`` is a :class:`~repro.xmltree.model.NodeKind`;
#: ``dict_offsets`` index a dictionary's UTF-8 blob, capping it at
#: 2³¹ − 1 bytes, and ``dict_lengths`` are an archive's entry lengths.
COLUMN_DTYPES = {
    "post": np.dtype(np.int32),
    "level": np.dtype(np.int16),
    "parent": np.dtype(np.int32),
    "kind": np.dtype(np.int8),
    "tag_codes": np.dtype(np.int32),
    "value_codes": np.dtype(np.int32),
    "dict_offsets": np.dtype(np.int32),
    "dict_lengths": np.dtype(np.int32),
}

#: Columns whose width follows their values; the rest sit at the ceiling.
NARROWED = frozenset(("level", "tag_codes", "value_codes", "dict_lengths"))

#: Column → the widths it may take, narrowest first.
_WIDTHS = {
    column: tuple(
        np.dtype(t) for t in (np.int8, np.int16, np.int32)
        if column in NARROWED and np.dtype(t).itemsize < ceiling.itemsize
    ) + (ceiling,)
    for column, ceiling in COLUMN_DTYPES.items()
}


def column_dtype(column: str) -> np.dtype:
    """Ceiling width of ``column``."""
    return COLUMN_DTYPES[column]


def narrow(column: str, values) -> np.ndarray:
    """``values`` at the narrowest width of ``column`` that holds them —
    as they are when already there, else range-checked and cast
    (:class:`EncodingError`, never a wrap, past the ceiling)."""
    widths = _WIDTHS[column]
    array = np.asanyarray(values)  # a memory-mapped archive member stays mapped
    if array.dtype == widths[0]:
        return array
    low, high = (int(array.min()), int(array.max())) if array.size else (0, 0)
    for dtype in widths:
        limits = np.iinfo(dtype)
        if limits.min <= low and high <= limits.max:
            return array if array.dtype == dtype else array.astype(dtype)
    raise EncodingError(
        f"column {column!r} holds values outside {dtype.name} "
        f"[{limits.min}, {limits.max}] — shard too large or too deep"
    )


def hold(column: str, values) -> np.ndarray:
    """``values`` as they are when at a legal width of ``column`` (a
    read column keeps its header's width, unscanned), else
    :func:`narrow`-ed."""
    array = np.asanyarray(values)
    return array if array.dtype in _WIDTHS[column] else narrow(column, array)
