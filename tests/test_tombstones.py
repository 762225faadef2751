"""Deleted code stays deleted: every row of ``tests/tombstones.json``.

A row is either a ``pattern`` (a Python regular expression) that no
line of any file under its ``scope`` paths may match, or a path that
must stay ``absent``; ``retired_by`` names the change that deleted what
it guards (CHANGES.md).  A scope path that does not exist fails the
row: a search over a file that is gone finds nothing, so a tombstone
whose scope moved would otherwise pass by vanishing.
"""

import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "tests", "tombstones.json"), encoding="utf-8") as handle:
    ROWS = json.load(handle)


def files_under(path):
    """``path`` itself, or every file below it (bytecode caches aside:
    they mirror the sources)."""
    if not os.path.isdir(path):
        yield path
        return
    for directory, subdirectories, names in os.walk(path):
        subdirectories[:] = sorted(d for d in subdirectories if d != "__pycache__")
        for name in sorted(names):
            yield os.path.join(directory, name)


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{row['retired_by'].replace(' ', '')}-{i}" for i, row in enumerate(ROWS)]
)
def test_tombstone_stays_buried(row):
    if "absent" in row:
        assert not os.path.exists(os.path.join(ROOT, row["absent"])), row["why"]
        return
    pattern = re.compile(row["pattern"])
    hits = []
    for scope in row["scope"]:
        path = os.path.join(ROOT, scope)
        assert os.path.exists(path), f"scope {scope!r} is gone: move the row with the code"
        for name in files_under(path):
            with open(name, encoding="utf-8", errors="replace") as lines:
                hits.extend(
                    f"{os.path.relpath(name, ROOT)}:{number}: {line.strip()}"
                    for number, line in enumerate(lines, 1)
                    if pattern.search(line)
                )
    assert hits == [], row["why"]
