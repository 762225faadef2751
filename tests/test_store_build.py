"""A store build encodes its shards on ``min(shards, CPUs)`` lanes.

Lane 0 is the calling process and every other lane a forked child; the
lane count is pinned here by patching the store's CPU count, the one
input it is sized by.  Whatever the count, a build writes the same
manifest and the same archive members, raises the same error for the
same bad document, leaves no process behind and leaves the caller's
trees as they were.

A build forks only from a single-threaded process, and nothing promises
that this one is (other tests start servers and caller threads).  So
every build on two or more lanes runs in a new interpreter
(:func:`in_a_new_interpreter`), which reports back which
processes saved its shards: two lanes must be two processes.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import zipfile

import pytest

from repro.errors import EncodingError, ReproError
from repro.harness.workloads import get_forest
from repro.service import ShardedStore
from repro.service import store as store_module
from repro.xmltree.model import document, element, text

#: A chain this deep overflows a recursive walk.
DEEP = 3000


# ----------------------------------------------------------------------
# Forests, built by name so that a new interpreter can build the same one
def chain(depth):
    """An element chain ``depth`` levels below its root, built without
    recursion."""
    root = node = element("c")
    for _ in range(depth):
        node = node.append(element("c"))
    return root


def two_roots():
    """A document no plane can hold: two root elements."""
    doc = document(element("a"))
    doc.append(element("b"))
    return doc


FORESTS = {
    "five": lambda: get_forest(5, 0.05, seed=11),
    "two": lambda: get_forest(2, 0.05, seed=11),
    "a-b": lambda: [("a", element("a")), ("b", element("b"))],
    # Shard 1 of three holds the bad document.
    "bad-second": lambda: [("a", element("a")), ("bad", two_roots()), ("c", element("c"))],
    # Shards 1 and 2 both fail; one lane stops at shard 1.
    "bad-last-two": lambda: [
        ("a", element("a")), ("bad1", two_roots()), ("bad2", text("loose"))
    ],
    "deep": lambda: [("short", element("s")), ("deep", chain(DEEP))],
    # One level under the virtual root: 2¹⁵ + 1 levels.
    "too-tall": lambda: [("short", element("s")), ("tall", chain(2**15))],
    "wrapped": lambda: [
        (f"d{i}", document(element("r", element("s", text(str(i))))))
        for i in range(4)
    ],
}


def parents_intact(forest):
    """Every tree is still a root, and every node its children's parent."""
    stack = [tree for _, tree in forest]
    if any(tree.parent is not None for tree in stack):
        return False
    while stack:
        node = stack.pop()
        for child in node.children:
            if child.parent is not node:
                return False
            stack.append(child)
    return True


# ----------------------------------------------------------------------
def build_and_report(spec):
    """Build the store ``spec`` describes and report what the build did:
    the error it raised (class name, message), how many processes saved
    a shard, how many children outlived it, whether the trees are intact.

    ``spec["die"]`` makes every forked lane exit before it reports.
    """
    patched = {"available_cpus": lambda: spec["lanes"], **spec.get("patch", {})}
    saved = {name: getattr(store_module, name) for name in [*patched, "save"]}
    caller, save = os.getpid(), store_module.save

    def save_and_note(doc, path, compression):
        if spec.get("die") and os.getpid() != caller:
            os._exit(3)
        with open(spec["savers"], "a") as log:  # one short O_APPEND write
            log.write(f"{os.getpid()}\n")
        save(doc, path, compression=compression)

    forest = FORESTS[spec["forest"]]()
    for name, value in {**patched, "save": save_and_note}.items():
        setattr(store_module, name, value)
    try:
        ShardedStore.build(spec["directory"], forest, **spec.get("options", {}))
        error = None
    except ReproError as raised:
        error = [type(raised).__name__, str(raised)]
    finally:
        for name, value in saved.items():
            setattr(store_module, name, value)
    savers = set()
    if os.path.exists(spec["savers"]):
        with open(spec["savers"]) as log:
            savers = set(log.read().split())
    return {
        "error": error,
        "savers": len(savers),
        "children": len(multiprocessing.active_children()),
        "intact": parents_intact(forest),
    }


_REPORT = (
    "import json, sys, test_store_build as t; "
    "print(json.dumps(t.build_and_report(json.loads(sys.argv[1]))))"
)


def in_a_new_interpreter(spec):
    """:func:`build_and_report` in a fresh, single-threaded interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _REPORT, json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def build(tmp_path, label, forest, lanes, **spec):
    """Build ``forest`` on ``lanes`` lanes into ``tmp_path / label``: one
    lane here, more in a new interpreter.  Checks what every build must
    do (no child left, trees intact, one saving process per lane) and
    returns the error it raised, as (class name, message), or None."""
    spec = dict(
        spec,
        directory=str(tmp_path / label),
        savers=str(tmp_path / f"{label}.savers"),
        forest=forest,
        lanes=lanes,
    )
    report = build_and_report(spec) if lanes == 1 else in_a_new_interpreter(spec)
    assert report["children"] == 0
    assert report["intact"]
    if report["error"] is None:
        shards = spec.get("options", {}).get("shards", 1)
        assert report["savers"] == min(lanes, shards)
        return None
    assert not os.path.exists(os.path.join(spec["directory"], "manifest.json"))
    return tuple(report["error"])


def written(directory):
    """The manifest and the bytes of every member of every shard archive
    (zip timestamps aside)."""
    with open(os.path.join(directory, "manifest.json")) as f:
        manifest = json.load(f)
    members = {}
    for entry in manifest["shards"]:
        with zipfile.ZipFile(os.path.join(directory, entry["file"])) as archive:
            for name in archive.namelist():
                members[entry["file"], name] = archive.read(name)
    return manifest, members


@pytest.fixture(params=[1, 2], ids=["1-lane", "2-lanes"])
def lanes(request):
    return request.param


# ----------------------------------------------------------------------
@pytest.mark.parametrize("compression", ["none", "packed", "auto"])
def test_the_lane_count_does_not_change_a_byte(tmp_path, compression):
    # auto packs the shards at or above the threshold and not the others.
    spec = dict(
        patch={"AUTO_PACK_NODES": 3000},
        options={"shards": 3, "compression": compression},
    )
    assert build(tmp_path, "one", "five", 1, **spec) is None
    assert build(tmp_path, "two", "five", 2, **spec) is None
    manifest, members = written(tmp_path / "one")
    assert written(tmp_path / "two") == (manifest, members)
    compress_types = set()
    for entry in manifest["shards"]:
        with zipfile.ZipFile(str(tmp_path / "one" / entry["file"])) as archive:
            types = {info.compress_type for info in archive.infolist()}
        assert len(types) == 1, (entry["file"], types)  # every member alike
        compress_types |= types
    assert compress_types == {
        "none": {zipfile.ZIP_STORED},
        "packed": {zipfile.ZIP_DEFLATED},
        "auto": {zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED},
    }[compression]


def test_lanes_are_capped_by_the_shard_count(tmp_path):
    assert build(tmp_path, "one", "two", 1, options={"shards": 2}) is None
    assert build(tmp_path, "many", "two", 8, options={"shards": 2}) is None
    assert written(tmp_path / "many") == written(tmp_path / "one")


def test_a_forked_lane_fails_as_the_calling_process_does(tmp_path):
    options = {"shards": 3}
    in_process = build(tmp_path, "one", "bad-second", 1, options=options)
    forked = build(tmp_path, "two", "bad-second", 2, options=options)
    assert forked == in_process == (
        "EncodingError", "document 'bad' must have exactly one root element"
    )


def test_the_lowest_failing_shard_is_the_one_raised(tmp_path):
    # Lane 0 fails on shard 2, lane 1 on shard 1: shard 1's error wins,
    # the one a single lane, stopping at the first bad shard, raises.
    options = {"shards": 3}
    in_process = build(tmp_path, "one", "bad-last-two", 1, options=options)
    assert build(tmp_path, "two", "bad-last-two", 2, options=options) == in_process
    assert "bad1" in in_process[1]


def test_a_lane_that_dies_before_it_reports_is_an_error(tmp_path):
    died = build(tmp_path, "s", "a-b", 2, die=True, options={"shards": 2})
    assert died == ("ReproError", "build lane 1 died")


def test_a_chain_deeper_than_the_recursion_limit_encodes(tmp_path, lanes):
    assert DEEP > sys.getrecursionlimit()
    assert build(tmp_path, "s", "deep", lanes, options={"shards": 2}) is None
    plane = ShardedStore.open(str(tmp_path / "s")).collection(1).doc
    assert len(plane) == DEEP + 2  # the virtual root, then the chain
    assert int(plane.level.max()) == DEEP + 1


def test_a_plane_above_the_level_width_is_still_an_error(tmp_path, lanes):
    raised = build(tmp_path, "s", "too-tall", lanes, options={"shards": 2})
    assert raised[0] == EncodingError.__name__
    assert "column 'level' holds values outside int16" in raised[1]


def test_a_build_leaves_the_callers_trees_as_they_were(tmp_path, lanes):
    # build() asserts the trees intact after every build.
    assert build(tmp_path, "s", "wrapped", lanes, options={"shards": 4}) is None


def test_a_build_beside_another_thread_does_not_fork(tmp_path):
    """A second thread alive: lane 0 builds every shard, whatever the
    CPU count says."""
    release = threading.Event()
    bystander = threading.Thread(target=release.wait)
    bystander.start()
    try:
        assert build(tmp_path, "s", "a-b", 1, options={"shards": 2}) is None
        report = build_and_report(
            dict(
                directory=str(tmp_path / "t"),
                savers=str(tmp_path / "t.savers"),
                forest="a-b",
                lanes=2,
                options={"shards": 2},
            )
        )
    finally:
        release.set()
        bystander.join()
    assert report == {"error": None, "savers": 1, "children": 0, "intact": True}
    assert written(tmp_path / "t") == written(tmp_path / "s")
