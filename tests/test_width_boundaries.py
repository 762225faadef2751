"""Column widths at their edges: the planes where a narrowed column
changes width.

``level``, the tag codes and the value codes take the narrowest of
``int8`` / ``int16`` / ``int32`` that holds their values
(``repro.encoding.widths``).  The planes here sit on each edge:
dictionaries of 127 / 128 / 129 and 32 767 / 32 768 / 32 769 entries,
heights of 127 / 128.  There, a kernel that adds to a narrow value
without promoting it first wraps: ``int16`` code 32 767 plus one is
−32 768.  On every plane both engines answer what ``tests/_reference.py``
answers, on the encoded table and on its archive under either
compression, read and mapped.  The small planes draw their queries from
the fuzz grammar (``tests/test_xpath_fuzz.py``); the large ones, whose
oracle is slow, run queries aimed at their last code.  A ``/update`` that
carries a shard's tag codes from ``int8`` to ``int16`` answers the same
before and after the store reopens.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.encoding.persist import load, save
from repro.encoding.prepost import encode
from repro.server import ServerConfig, ThreadedServer
from repro.service import QueryService, ShardedStore
from repro.xmltree.model import element, text
from repro.xpath.evaluator import evaluate

from _reference import Reference
from _widths import assert_at_width, plane_columns
from test_server import request
from test_xpath_fuzz import _value_queries, outcome, wide_queries

ENGINES = ("scalar", "vectorized")

#: Values the planes carry beside their fillers; :data:`LAST` sorts
#: after every one of them, so its code is the dictionary's last.
POOL = (" 8 ", "12.5", "42", "7", "hello", "x", "xy", "é")
LAST = "\U0010ffff last"


def tag_tree(entries: int):
    """A tree with ``entries`` tag names: ``a`` (the root), ``b``, the
    attribute name ``k``, ``c``, ``""`` (what text nodes carry), fillers
    ``d00000``… and ``x-y``, seen last and sorting last, so its code is
    ``entries − 1`` encoded and loaded alike."""
    root = element("a")
    for i in range(entries - 6):
        if i % 40 == 0:
            root.append(element("b", element("c", text(POOL[i % 8])), text(POOL[i // 40 % 8]), k=POOL[(i + 3) % 8]))
        root.append(element(f"d{i:05d}"))
    root.append(element("x-y", element("b", text("x"), k="42"), text("7")))
    return root


def value_tree(entries: int):
    """A tree whose value dictionary holds ``entries`` strings: the
    :data:`POOL`, fillers ``v00000``… on ``c`` attributes ``k0``–``k9``,
    and :data:`LAST`, the text of the last ``b``."""
    root = element("a")
    for value in POOL:
        root.append(element("b", text(value), k=value))
    fillers = entries - len(POOL) - 1
    for start in range(0, fillers, 10):
        held = range(start, min(start + 10, fillers))
        root.append(element("c", **{f"k{i - start}": f"v{i:05d}" for i in held}))
    root.append(element("b", text(LAST), k="x"))
    return root


def deep_tree(height: int):
    """A spine whose deepest nodes sit at level ``height``: valued and
    attributed elements ``a`` / ``b`` / ``c`` down to the text ``deepest``."""
    root = node = element("a", k="7")
    for depth in range(1, height):
        tag, value = "abc"[depth % 3], POOL[depth % 8]
        node = node.append(element(tag, k=value) if depth % 4 == 0 else element(tag, text(value)))
    node.append(text("deepest"))
    return root


#: Plane → (tree builder and size, the column it pushes, that column's width).
PLANES = {
    **{f"tags-{n}": (tag_tree, n, "tag_codes", w) for n, w in
       ((127, "int8"), (128, "int8"), (129, "int16"),
        (32767, "int16"), (32768, "int16"), (32769, "int32"))},
    **{f"values-{n}": (value_tree, n, "value_codes", w) for n, w in
       ((127, "int8"), (128, "int8"), (129, "int16"),
        (32767, "int16"), (32768, "int16"), (32769, "int32"))},
    "height-127": (deep_tree, 127, "level", "int8"),
    "height-128": (deep_tree, 128, "level", "int16"),
}
SMALL = [name for name, (_, size, _, _) in PLANES.items() if size < 1000 or name.startswith("height")]
LARGE = [name for name in PLANES if name not in SMALL]

#: Queries aimed at the last code of each large plane.
AIMED = {
    "tag_codes": (
        "//x-y", "//x-y/b[@k = '42']", "/a/x-y/preceding-sibling::*[1]",
        "//x-y[b or c]/text()", "//x-y/ancestor-or-self::*",
        "//b[not(c)]", "//a[count(x-y) = 1]/x-y/b/text()",
    ),
    "value_codes": (
        "//b[string()]", f"//b[. = '{LAST}']", "//b[starts-with(., '\U0010ffff')]",
        "//b[contains(., 'last')]/@k", "//b[string-length() > 4]", "//@*[string()]",
        "//c[string(@k3)]", "//c[starts-with(@k0, 'v0327')]", "//b[. > 10]",
    ),
}


@pytest.fixture(scope="module")
def planes(tmp_path_factory):
    """Plane → (its reference, {table label: table}); built on first use."""
    built = {}

    def plane(name):
        if name not in built:
            build, size, _, _ = PLANES[name]
            tree = build(size)
            doc = encode(tree)
            tables = {"encoded": doc}
            for compression in ("none", "packed"):
                path = str(tmp_path_factory.mktemp(name) / f"{compression}.npz")
                save(doc, path, compression=compression)
                for mmap in (False, True):
                    tables[f"{compression}-{'mapped' if mmap else 'read'}"] = load(path, mmap=mmap)
            built[name] = (Reference(tree), tables)
        return built[name]

    return plane


def assert_answers(plane, query):
    reference, tables = plane
    expected = outcome(lambda: reference.evaluate(query))
    for label, table in tables.items():
        for engine in ENGINES:
            got = outcome(lambda: evaluate(table, query, engine=engine))
            assert got == expected, (label, engine, str(query))


@pytest.mark.parametrize("name", list(PLANES))
def test_each_plane_holds_its_column_at_the_edge_width(planes, name):
    _, _, column, width = PLANES[name]
    for label, table in planes(name)[1].items():
        assert_at_width(table)
        assert plane_columns(table)[column].dtype.name == width, (label, column)


@pytest.mark.parametrize("name", SMALL)
@given(query=st.one_of(wide_queries, _value_queries))
@settings(max_examples=15, deadline=None)
def test_small_planes_match_the_reference_over_the_fuzz_grammar(planes, name, query):
    assert_answers(planes(name), query)


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("aimed", sorted(AIMED))
def test_small_planes_match_the_reference_on_the_aimed_queries(planes, name, aimed):
    for query in AIMED[aimed]:
        assert_answers(planes(name), query)


@pytest.mark.parametrize("name", LARGE)
def test_large_planes_match_the_reference_at_their_last_code(planes, name):
    for query in AIMED[PLANES[name][2]]:
        assert_answers(planes(name), query)


def test_an_update_that_widens_the_tag_codes_answers_across_a_reopen(tmp_path):
    """127 tags and the virtual root's make a shard plane of 128 tag
    codes, ``int8``; one ``/update`` brings a 129th, and the spliced
    plane, its commit and the reopened store all hold ``int16`` codes
    and answer what the reference answers over the edited tree."""
    tree = tag_tree(127)
    directory = str(tmp_path / "store")
    ShardedStore.build(directory, [("doc", tree)], shards=1)
    edited = copy.deepcopy(tree)
    edited.append(element("zz", element("b", text("new"), k="new")))
    queries = AIMED["tag_codes"] + ("//zz/b", "//b[@k = 'new']", "//*[last()]", "//zz/preceding::b[1]")
    expected = Reference.gathered([edited])

    def assert_answers_edited(service):
        for query in queries:
            result = service.execute(query, use_cache=False)
            want = expected.per_member(query)[0]
            assert result.per_document["doc"].tobytes() == want.tobytes(), query

    service = QueryService(ShardedStore.open(directory), backend="serial")
    server = ThreadedServer(service, ServerConfig(port=0)).start()
    try:
        before = service.store.collection(0).doc.tag
        assert (len(before.dictionary), before.codes.dtype.name) == (128, "int8")
        status, summary, _ = request(server.port, "POST", "/update", {"ops": [
            {"op": "insert", "document": "doc", "pre": 0, "xml": "<zz><b k='new'>new</b></zz>"},
        ]})
        assert status == 200 and summary["applied"] == 1
        after = service.store.collection(0).doc.tag
        assert (len(after.dictionary), after.codes.dtype.name) == (129, "int16")
        assert_answers_edited(service)
    finally:
        server.stop()
        service.close()
    reopened = ShardedStore.open(directory)
    assert reopened.collection(0).doc.tag.codes.dtype == np.int16
    assert reopened.info()["shards"][0]["members"]["tag_codes"]["dtype"] == "int16"
    with QueryService(reopened, backend="serial") as service:
        assert_answers_edited(service)
