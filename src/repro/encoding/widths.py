"""The width of every plane column — one decision, made here.

Bytes per node is the paper's cost model (Section 4.1: a void ``pre``
head over 4-byte Monet ``int``/``oid`` tails).  A plane column is held,
served, spliced and written to archive members at the width below,
whatever produced it; nothing selects another width.  *Rank vectors* (contexts,
fragments, results, payloads) are a different thing and stay ``int64``:
kernels gather context-sized values out of a column and let the
``int64`` rank operand promote the arithmetic, they never widen a whole
column.
"""

from __future__ import annotations

import numpy as np

from repro.errors import EncodingError

__all__ = ["COLUMN_DTYPES", "column_dtype", "narrow"]

#: Column → resident dtype.  ``post``/``parent`` hold ranks in
#: ``[-1, n)``, so a shard is capped at 2³¹ nodes; ``level`` caps the
#: height at 2¹⁵; ``kind`` is a :class:`~repro.xmltree.model.NodeKind`;
#: dictionary codes are what ``StringColumn``/``ValueIndex`` always used;
#: ``dict_offsets`` index a dictionary's UTF-8 blob, capping it at
#: 2³¹ − 1 bytes.
COLUMN_DTYPES = {
    "post": np.dtype(np.int32),
    "level": np.dtype(np.int16),
    "parent": np.dtype(np.int32),
    "kind": np.dtype(np.int8),
    "tag_codes": np.dtype(np.int32),
    "value_codes": np.dtype(np.int32),
    "dict_offsets": np.dtype(np.int32),
}


def column_dtype(column: str) -> np.dtype:
    """Declared width of ``column``."""
    return COLUMN_DTYPES[column]


def narrow(column: str, values) -> np.ndarray:
    """``values`` at the declared width of ``column`` — as they are when
    already there, else range-checked and cast (:class:`EncodingError`,
    never a wrap, when a value does not fit)."""
    dtype = COLUMN_DTYPES[column]
    array = np.asanyarray(values)  # a memory-mapped archive member stays mapped
    if array.dtype == dtype:
        return array
    limits = np.iinfo(dtype)
    if array.size and (array.min() < limits.min or array.max() > limits.max):
        raise EncodingError(
            f"column {column!r} holds values outside {dtype.name} "
            f"[{limits.min}, {limits.max}] — shard too large or too deep"
        )
    return array.astype(dtype)
