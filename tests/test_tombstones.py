"""Deleted code stays deleted: every row of ``tests/tombstones.json``.

A row is either a ``pattern`` (a Python regular expression) that no
line of any file under its ``scope`` paths may match, or a path that
must stay ``absent``; ``retired_by`` names the change that deleted what
it guards (CHANGES.md).  A pattern row with a ``max`` is a count rule:
at most that many lines may match, leaving out the lines its
``exclude`` pattern matches (the definition a call-site count skips).
A scope path that does not exist fails the row: a search over a file
that is gone finds nothing, so a tombstone whose scope moved would
otherwise pass by vanishing.
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


def hits(row, root=ROOT):
    """The lines under ``root`` that a pattern row counts, as
    ``path:line: text``.  A missing scope raises ``AssertionError``."""
    pattern = re.compile(row["pattern"])
    exclude = re.compile(row.get("exclude", r"(?!)"))
    found = []
    for scope in row["scope"]:
        path = os.path.join(root, scope)
        assert os.path.exists(path), f"scope {scope!r} is gone: move the row with the code"
        for name in files_under(path):
            with open(name, encoding="utf-8", errors="replace") as lines:
                found.extend(
                    f"{os.path.relpath(name, root)}:{number}: {line.strip()}"
                    for number, line in enumerate(lines, 1)
                    if pattern.search(line) and not exclude.search(line)
                )
    return found


@pytest.mark.parametrize(
    "row", ROWS, ids=[f"{row['retired_by'].replace(' ', '')}-{i}" for i, row in enumerate(ROWS)]
)
def test_tombstone_stays_buried(row):
    if "absent" in row:
        assert not os.path.exists(os.path.join(ROOT, row["absent"])), row["why"]
        return
    found = hits(row)
    assert len(found) <= row.get("max", 0), (row["why"], found)


DISPATCH_RULE = next(row for row in ROWS if row.get("exclude") == "def dispatch")


@pytest.mark.parametrize("calls, within", [(2, True), (3, False)])
def test_count_rule_fails_on_one_call_site_too_many(tmp_path, calls, within):
    """The one-driver rule counts call sites, not the definition: two
    ``dispatch(`` calls beside ``def dispatch`` pass, a third fails."""
    for scope in DISPATCH_RULE["scope"]:
        target = tmp_path / scope
        if scope.endswith(".py"):
            target.parent.mkdir(parents=True, exist_ok=True)
            body = ["def dispatch(self, operator):", "    pass"]
            body += [f"result_{i} = driver.dispatch(op)" for i in range(calls)]
            target.write_text("\n".join(body) + "\n")
        else:
            target.mkdir(parents=True, exist_ok=True)
    found = hits(DISPATCH_RULE, root=str(tmp_path))
    assert len(found) == calls
    assert (len(found) <= DISPATCH_RULE["max"]) is within


def test_missing_scope_fails_the_row(tmp_path):
    with pytest.raises(AssertionError, match="is gone"):
        hits({"pattern": "anything", "scope": ["src"]}, root=str(tmp_path))
