"""The column width rule, restated for the tests.

``post`` / ``parent`` are ``int32`` and ``kind`` ``int8`` whatever they
hold; ``level``, the tag codes and the value codes are the narrowest of
``int8`` / ``int16`` / ``int32`` that holds their values.  Written out
here rather than read from ``repro.encoding.widths``, so a width the
code picks is checked against the rule, not against itself.
"""

import numpy as np

#: Columns at one width whatever they hold.
FIXED = {"post": np.dtype(np.int32), "parent": np.dtype(np.int32), "kind": np.dtype(np.int8)}

_SIGNED = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32))


def narrowest(values) -> np.dtype:
    """The narrowest of ``int8`` / ``int16`` / ``int32`` that holds ``values``."""
    values = np.asarray(values)
    low, high = (int(values.min()), int(values.max())) if values.size else (0, 0)
    return next(t for t in _SIGNED if np.iinfo(t).min <= low and high <= np.iinfo(t).max)


def plane_columns(table) -> dict:
    """A table's six plane columns by name."""
    return {
        "post": table.post, "level": table.level, "parent": table.parent,
        "kind": table.kind, "tag_codes": table.tag.codes,
        "value_codes": table.values.codes,
    }


def rule_width(name, column) -> np.dtype:
    """The width the rule gives column ``name`` holding ``column``."""
    return FIXED[name] if name in FIXED else narrowest(column)


def assert_at_width(table):
    """Every plane column of ``table`` at the width the rule gives it."""
    for name, column in plane_columns(table).items():
        assert column.dtype == rule_width(name, column), (name, column.dtype)
