"""The width contract: plane columns at their declared width, ranks ``int64``.

``repro.encoding.widths.COLUMN_DTYPES`` is the one table; these tests pin
what every producer and consumer owes it:

* answers are the tree-walking reference's, byte for byte — and
  ``int64`` — whatever the archive format, open mode or backend, on
  shards big enough (> 2¹⁵ nodes, so well past ``int16``) that a column
  width leaking into a rank vector wraps visibly; the vectorized engine
  everywhere, the scalar one on a packed mapped plane (inflated when it
  opens) and where ``analyze(engine="scalar")`` runs (a ``fabric:2``
  worker);
* depth and size limits are clean ``EncodingError``s, never wraps;
* splices keep the widths and a canonical dictionary (strictly sorted,
  exactly the referenced entries), so splice == re-encode member for
  member in both layouts; a packed archive inflates to the eager one's
  members, and dictionary offsets handed over at another width are
  narrowed, not trusted;
* no code path copies a whole column to another dtype, and a packed
  shard inflates at open to 19 resident bytes per node;
* a packed archive whose ``nodes`` disagrees with its column streams,
  or overflows the width arithmetic, is rejected before a column is
  read past it; a packed file smuggling a pickle is rejected before the
  unpickler is touched.
"""

import hashlib
import os
import zipfile
import zlib

import numpy as np
import pytest

from repro.encoding import decode, encode, subtree
from repro.encoding.collection import DocumentCollection
from repro.encoding.doctable import DocTable
from repro.encoding.persist import describe_archive, load, save
from repro.encoding.updates import delete_subtree, insert_subtree, replace_subtree
from repro.encoding.widths import COLUMN_DTYPES, narrow
from repro.errors import EncodingError
from repro.harness.queries import QUERY_SUITE
from repro.harness.workloads import get_forest
from repro.service import QueryService, ShardedStore
from repro.xmltree.model import attribute, element, text
from repro.xpath.axes import AxisExecutor
from repro.xpath.evaluator import Evaluator

from _reference import Reference, axis_pres

ENGINES = ("scalar", "vectorized")
QUERIES = tuple(query.xpath for query in QUERY_SUITE) + (
    "//bidder/parent::open_auction",
    "//bidder[1]/following-sibling::bidder",
    "//bidder[last()]/preceding-sibling::bidder",
    "//increase/ancestor-or-self::open_auction",
    "//person/attribute::id",
)


def structure(doc):
    return {"post": doc.post, "level": doc.level, "parent": doc.parent, "kind": doc.kind}


def assert_at_width(doc):
    for name, column in structure(doc).items():
        assert column.dtype == COLUMN_DTYPES[name], name
    assert doc.tag.codes.dtype == COLUMN_DTYPES["tag_codes"]


def members(path):
    """Members of an archive (all numeric), ``name → (dtype, bytes)``."""
    with np.load(path) as archive:
        return {
            name: (str(archive[name].dtype), archive[name].tobytes())
            for name in archive.files
        }


def inflated_members(path):
    """:func:`members`, each deflated stream replaced by what it inflates
    to: a dictionary (its ``int32`` entry lengths, then its blob) by the
    raw ``*_dict_blob`` / ``*_dict_offsets`` members, a column by its
    plain member at its declared width — the eager layout's members."""
    written = members(path)
    for name in ("tag", "value"):
        entries, size = np.frombuffer(written.pop(f"{name}_dict_header")[1], np.int64)
        raw = zlib.decompress(written.pop(f"{name}_dict_deflated")[1])
        assert len(raw) == 4 * entries + size
        offsets = np.zeros(entries + 1, dtype=np.int32)
        np.cumsum(np.frombuffer(raw[: 4 * entries], "<i4"), out=offsets[1:])
        written[f"{name}_dict_blob"] = ("uint8", raw[4 * entries :])
        written[f"{name}_dict_offsets"] = ("int32", offsets.tobytes())
    for column in ("level", "kind", "tag_codes", "value_codes"):
        raw = zlib.decompress(written.pop(f"{column}_deflated")[1])
        written[column] = (COLUMN_DTYPES[column].name, raw)
    return written


def digest(path, skip=(), read=members):
    sha = hashlib.sha256()
    for name, (dtype, data) in sorted(read(path).items()):
        if name not in skip:
            sha.update(name.encode())
            sha.update(dtype.encode())
            sha.update(data)
    return sha.hexdigest()


def chain(depth):
    root = node = element("x")
    for _ in range(depth - 1):
        child = element("x")
        node.append(child)
        node = child
    return root


# ----------------------------------------------------------------------
# (a) one sweep: suite × format × open mode × backend (× engine)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def forest():
    # Two documents of ~79 k nodes, one per shard: every shard's ranks
    # pass 2¹⁵ more than twice over.
    return get_forest(2, 1.7)


@pytest.fixture(scope="module")
def expected(forest):
    """Per-document answers of the reference — Python ints from a tree
    walk, indifferent to any column's width.  Each member is alone on
    its shard, under the virtual root (rule D8)."""
    answers = {}
    for name, tree in forest:
        reference = Reference.gathered([tree])
        for query in QUERIES:
            answers[name, query] = reference.per_member(query)[0]
    return answers


@pytest.fixture(scope="module")
def stores(forest, tmp_path_factory):
    built = {}
    for layout in ("none", "packed"):
        directory = str(tmp_path_factory.mktemp(layout) / "store")
        built[layout] = ShardedStore.build(directory, forest, shards=2, compression=layout)
        assert all(entry["nodes"] >= 70_000 for entry in built[layout]._manifest["shards"])
    return built


#: Every layout × backend / open mode on the vectorized engine; the
#: scalar engine on a packed mapped plane and in a ``fabric:2`` worker
#: (what ``analyze`` runs).
SERVED = [
    (layout, backend, "vectorized")
    for layout in ("none", "packed")
    for backend in ("serial", "fabric:2")
] + [("packed", "fabric:2", "scalar")]
LOADED = [
    (layout, opened, "vectorized")
    for layout in ("none", "packed")
    for opened in ("eager", "mmap")
] + [("packed", "mmap", "scalar")]


def assert_answers(actual, expected, query):
    for name, ranks in actual.items():
        assert ranks.dtype == np.int64, (name, query)
        assert ranks.tobytes() == expected[name, query].tobytes(), (name, query)


def test_axis_steps_past_rank_2_to_the_15_match_the_reference(forest):
    """Every axis, from context nodes past rank 2¹⁵, both engines."""
    root = forest[0][1]
    doc = encode(root)
    assert_at_width(doc)
    bidders = Evaluator(doc).evaluate("//bidder")
    context = bidders[bidders > 40_000][:3]
    assert len(context) == 3
    for axis in (
        "descendant", "ancestor", "following", "preceding", "child", "parent",
        "attribute", "following-sibling", "preceding-sibling",
        "descendant-or-self", "ancestor-or-self",
    ):
        reference = axis_pres(root, context, axis)
        for engine in ENGINES:
            got = AxisExecutor(doc, engine=engine).step(context, axis)
            assert got.dtype == np.int64 and got.tobytes() == reference.tobytes(), (
                axis, engine,
            )


@pytest.mark.parametrize("layout, backend, engine", SERVED)
def test_served_answers_are_identical_and_int64(stores, expected, layout, backend, engine):
    """Memory-mapped shards behind the service, either backend."""
    store = stores[layout]
    with QueryService(store, backend=backend, engine=engine) as service:
        results = service.execute_batch(QUERIES, use_cache=False)
    for query, result in zip(QUERIES, results):
        assert_answers(result.per_document, expected, query)


@pytest.mark.parametrize("layout, opened, engine", LOADED)
def test_loaded_shards_answer_identically(stores, expected, layout, opened, engine):
    """The same shard files opened directly, eager and mapped."""
    store = stores[layout]
    for entry in store._manifest["shards"]:
        table = load(os.path.join(store.directory, entry["file"]), mmap=opened == "mmap")
        assert_at_width(table)
        collection = DocumentCollection.from_table(table, entry["documents"])
        evaluator = Evaluator(table, engine=engine)
        for query in QUERIES:
            pres = collection.evaluate(query, evaluator=evaluator)
            assert_answers(collection.partition_relative(pres), expected, query)


# ----------------------------------------------------------------------
# (b) limits are errors, not wraps
# ----------------------------------------------------------------------
class TestLimits:
    def test_a_2000_level_chain_encodes_and_answers(self):
        doc = encode(chain(2000))
        assert_at_width(doc)
        assert doc.height == 1999 and int(doc.level[-1]) == 1999
        for engine in ENGINES:
            evaluator = Evaluator(doc, engine=engine)
            assert len(evaluator.evaluate("/descendant::x")) == 2000
            ancestors = AxisExecutor(doc, engine=engine).step(
                np.asarray([1999], dtype=np.int64), "ancestor"
            )
            assert ancestors.tobytes() == np.arange(1999, dtype=np.int64).tobytes()

    def test_a_40000_level_chain_is_an_encoding_error(self):
        with pytest.raises(EncodingError, match="level"):
            encode(chain(40_000))

    def test_a_splice_past_the_level_width_is_an_encoding_error(self):
        deepest = np.iinfo(COLUMN_DTYPES["level"]).max
        doc = encode(chain(deepest + 1))
        assert doc.height == deepest
        with pytest.raises(EncodingError, match="level"):
            insert_subtree(doc, deepest, element("y"))

    def test_two_to_the_31_nodes_is_an_encoding_error(self):
        huge = np.broadcast_to(np.zeros(1, dtype=np.int8), (2**31,))
        with pytest.raises(EncodingError, match="nodes"):
            DocTable(huge, huge, huge, huge, tag=None)

    def test_a_persisted_height_past_the_level_width_is_rejected(self):
        doc = encode(chain(3))
        with pytest.raises(EncodingError, match="height"):
            DocTable(**structure(doc), tag=doc.tag, height=2**15)

    def test_wide_input_is_checked_then_narrowed(self):
        doc = encode(chain(3))
        wide = {name: np.asarray(c, dtype=np.int64) for name, c in structure(doc).items()}
        assert_at_width(DocTable(**wide, tag=doc.tag))
        wide["parent"] = np.asarray([-1, 2**31, 1], dtype=np.int64)
        with pytest.raises(EncodingError, match="parent"):
            DocTable(**wide, tag=doc.tag)
        with pytest.raises(EncodingError, match="kind"):
            narrow("kind", [1, 200])


# ----------------------------------------------------------------------
# (c) splices keep the widths and the packed bytes
# ----------------------------------------------------------------------
#: sha256 over the sorted members of ``save(..., "packed")`` for
#: ``DocumentCollection(get_forest(2, 0.05)).doc``, every stream inflated
#: (a zlib build may deflate differently).  Format 9 deflates each column
#: whole, so this is the eager layout's members plus ``nodes``, ``height``
#: and ``format_version`` 9 — recorded equal to the digest of the eager
#: members the format-8 code wrote, plus those three.  Format 8 (paged columns, code columns compacted) gave
#: ``cb73a8ac…0cbf``, format 7 ``b73876b3…b71a``, format 5 ``ce69c40c…f84f``.
PACKED_GOLDEN = "0fdac0fdd0a38750c4f5174232e77595ba8ee169bfaa906191d5d7e7aa7e6be9"

_DICT_OFFSETS = ("tag_dict_offsets", "value_dict_offsets")


def test_a_packed_archive_inflates_to_the_eager_members(tmp_path):
    doc = DocumentCollection(get_forest(2, 0.05)).doc
    packed, eager = str(tmp_path / "packed.npz"), str(tmp_path / "eager.npz")
    save(doc, packed, compression="packed")
    save(doc, eager)
    assert digest(packed, read=inflated_members) == PACKED_GOLDEN
    inflated = inflated_members(packed)
    assert {name: inflated.pop(name)[1] for name in ("format_version", "nodes", "height")} == {
        "format_version": np.asarray([9], np.int64).tobytes(),
        "nodes": np.asarray([len(doc)], np.int64).tobytes(),
        "height": np.asarray([doc.height], np.int64).tobytes(),
    }
    written = members(eager)
    del written["format_version"]
    assert inflated == written
    written = members(packed)
    assert not [name for name in written if name.startswith(("post", "parent"))]
    assert not [name for name in written if name.endswith(("_dict_blob", "_dict_offsets"))]


def widen_offsets(source, target):
    """``source`` (eager) with 8-byte dictionary offsets — the width
    older archives held, and what a foreign writer might hand over."""
    with np.load(source) as archive:
        content = {name: archive[name] for name in archive.files}
    for name in _DICT_OFFSETS:
        content[name] = content[name].astype(np.int64)
    np.savez(target, **content)


def test_an_eager_archive_with_8_byte_offsets_loads_and_answers_identically(tmp_path):
    """Member for member today's file, the offsets at ``int64``: the
    loaded :class:`ValueIndex` narrows them (range-checked) to the one
    declared width, whatever width the archive holds."""
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    save(doc, str(tmp_path / "now.npz"))
    path = str(tmp_path / "wide-offsets.npz")
    widen_offsets(str(tmp_path / "now.npz"), path)
    assert members(path)["value_dict_offsets"][0] == "int64"
    described = describe_archive(path)["value_dictionary"]
    now = describe_archive(str(tmp_path / "now.npz"))["value_dictionary"]
    assert (described["entries"], described["bytes"]) == (now["entries"], now["bytes"])
    for mmap in (False, True):
        table = load(path, mmap=mmap)
        assert_at_width(table)
        assert table.values.offsets.dtype == COLUMN_DTYPES["dict_offsets"]
        assert table.values == doc.values
        for name, column in structure(doc).items():
            assert np.array_equal(structure(table)[name], column)
        for engine in ENGINES:
            for query in QUERIES + ('//person[name = "x"]', "//bidder[increase > 10]"):
                got = Evaluator(table, engine=engine).evaluate(query)
                want = Evaluator(doc, engine=engine).evaluate(query)
                assert got.dtype == np.int64 and got.tobytes() == want.tobytes()


def assert_canonical(values):
    """Strictly sorted as UTF-8, and exactly the entries some code uses."""
    entries = [
        bytes(values.blob[values.offsets[c] : values.offsets[c + 1]])
        for c in range(values.dictionary_size)
    ]
    assert all(a < b for a, b in zip(entries, entries[1:]))
    used = np.unique(np.asarray(values.codes))
    assert used[used >= 0].tolist() == list(range(len(entries)))
    values.check()


def test_splices_keep_every_width_and_reencode_identically(tmp_path):
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    person = int(Evaluator(doc).evaluate("//person")[3])
    parent = doc.parent_of(person)
    fragment = subtree(doc, person)
    # A text whose string occurs nowhere else: deleting it must drop the
    # entry, replacing it must swap one entry for another.
    name_text = int(Evaluator(doc).evaluate("//person/name/text()")[3])
    only_holder = doc.value_of(name_text)
    assert int((np.asarray(doc.values.codes) == doc.values.find(only_holder)).sum()) == 1
    entries = doc.values.dictionary_size
    first, last = doc.values.entry(0), doc.values.entry(entries - 1)
    spliced = {
        "insert": insert_subtree(doc, parent, fragment, before_pre=person),
        "insert-leaf": insert_subtree(doc, person, text("leaf")),
        "replace": replace_subtree(doc, person, fragment),
        "remove": delete_subtree(doc, person),
        # value-bearing edits
        "replace-new-string": replace_subtree(doc, name_text, text("a string nobody holds")),
        "replace-known-string": replace_subtree(doc, name_text, text(first)),
        "delete-only-holder": delete_subtree(doc, name_text),
        "insert-before-every-entry": insert_subtree(doc, person, text("")),
        "insert-after-every-entry": insert_subtree(doc, person, text(last + "\U0010FFFF")),
        "insert-attribute-empty": insert_subtree(doc, person, attribute("k", "")),
        "insert-both-ends": insert_subtree(
            doc, person, element("e", text(last + "z"), element("f", text("\t")), a="")
        ),
    }
    assert "" not in (first, last)  # the corpus has no empty text
    expected_entries = {
        "replace-new-string": entries,  # one out, one in
        "replace-known-string": entries - 1,
        "delete-only-holder": entries - 1,
        "insert-before-every-entry": entries + 1,
        "insert-after-every-entry": entries + 1,
        "insert-attribute-empty": entries + 1,
        "insert-both-ends": entries + 3,
    }
    for label, table in spliced.items():
        assert_at_width(table)
        assert table.values.codes.dtype == COLUMN_DTYPES["value_codes"], label
        assert table.values.offsets.dtype == COLUMN_DTYPES["dict_offsets"], label
        assert_canonical(table.values)
        if label in expected_entries:
            assert table.values.dictionary_size == expected_entries[label], label
        assert list(table.values) == list(encode(decode(table)).values), label
        # Re-encoding the edited tree from scratch writes the same
        # members as the splice, in both layouts.
        for compression in ("packed", "none"):
            save(table, str(tmp_path / "spliced.npz"), compression=compression)
            save(encode(decode(table)), str(tmp_path / "fresh.npz"), compression=compression)
            assert members(str(tmp_path / "spliced.npz")) == members(
                str(tmp_path / "fresh.npz")
            ), (label, compression)
            for mmap in (False, True):
                assert_at_width(load(str(tmp_path / "spliced.npz"), mmap=mmap))
    assert spliced["insert-before-every-entry"].values.entry(0) == ""
    assert spliced["delete-only-holder"].values.find(only_holder) == -1


def test_200_add_remove_cycles_leave_a_fresh_encodes_members(tmp_path):
    """``mixed_update``'s add/remove cycles cannot grow the store: every
    cycle brings strings (and a tag) nobody else holds and takes them
    away again, and the final packed members are a fresh re-encode's."""
    forest = get_forest(2, 0.02)
    collection = DocumentCollection(forest)
    save(collection.doc, str(tmp_path / "start.npz"), compression="packed")
    start = members(str(tmp_path / "start.npz"))
    entries = collection.doc.values.dictionary_size
    for cycle in range(200):
        extra = element(
            "site",
            element(f"tag{cycle}", text(f"only in cycle {cycle}"), id=f"c{cycle}"),
            element("people", element("person", element("name", text("Extra")))),
        )
        collection = collection.insert_document(f"extra-{cycle}", extra)
        assert collection.doc.values.dictionary_size == entries + 3
        collection = collection.remove_document(f"extra-{cycle}")
        assert collection.doc.values.dictionary_size == entries
    assert_canonical(collection.doc.values)
    assert collection.doc.values.blob.tobytes() == DocumentCollection(
        forest
    ).doc.values.blob.tobytes()
    save(collection.doc, str(tmp_path / "end.npz"), compression="packed")
    save(DocumentCollection(forest).doc, str(tmp_path / "fresh.npz"), compression="packed")
    assert members(str(tmp_path / "end.npz")) == members(str(tmp_path / "fresh.npz")) == start
    # ... though the in-memory tag dictionary kept the 200 orphans.
    assert len(collection.doc.tag.dictionary) >= 200


def test_eager_members_are_written_at_width(tmp_path):
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    path = str(tmp_path / "eager.npz")
    save(doc, path)
    written = members(path)
    assert "post" not in written and "parent" not in written
    for name in ("level", "kind", "tag_codes", "value_codes"):
        assert written[name][0] == COLUMN_DTYPES[name].name
    for name in _DICT_OFFSETS:
        assert written[name][0] == COLUMN_DTYPES["dict_offsets"].name
    assert describe_archive(path)["format_version"] == 6


# ----------------------------------------------------------------------
# (e) no whole-column dtype conversion anywhere on the query path
# ----------------------------------------------------------------------
def test_no_query_converts_a_whole_column(tmp_path):
    """Both engines and both writers leave every opened column at its
    width: none of the six is ever ``astype``-d whole to another dtype
    (gathers and slices of it may be)."""
    converted = []

    class Watched(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            if getattr(self, "whole", None) and np.dtype(dtype) != self.dtype:
                converted.append((self.whole, np.dtype(dtype).name))
            return super().astype(dtype, *args, **kwargs)

    doc = DocumentCollection(get_forest(2, 0.05)).doc
    for layout in ("none", "packed"):
        path = str(tmp_path / f"{layout}.npz")
        save(doc, path, compression=layout)
        table = load(path, mmap=True)
        for owner, name, attr in (
            (table, "post", "post"), (table, "level", "level"),
            (table, "parent", "parent"), (table, "kind", "kind"),
            (table.tag, "tag_codes", "codes"), (table.values, "value_codes", "codes"),
        ):
            column = getattr(owner, attr).view(Watched)
            column.whole = name
            setattr(owner, attr, column)
        for engine in ENGINES:
            evaluator = Evaluator(table, engine=engine)
            for query in QUERIES:
                evaluator.evaluate(query)
        save(table, str(tmp_path / "again.npz"), compression="packed")
        save(table, str(tmp_path / "again-eager.npz"))
    assert converted == []


# ----------------------------------------------------------------------
# Resident bytes per node (deterministic: column nbytes, no /proc)
# ----------------------------------------------------------------------
def test_a_served_packed_shard_holds_at_most_20_bytes_per_node(tmp_path):
    built = ShardedStore.build(
        str(tmp_path / "s"), get_forest(2, 0.3), shards=1, compression="packed"
    )
    store = ShardedStore.open(built.directory)  # as ``repro serve`` opens it
    with QueryService(store, backend="serial") as service:
        service.execute("//open_auction[bidder]/seller")
        doc = store.collection(0).doc
        # Every column is a plain array the process holds privately: the
        # four stored ones each over the buffer it inflated into at open,
        # post and parent derived.
        stored = [doc.level, doc.kind, doc.tag.codes, doc.values.codes]
        for column in stored:
            base = column
            while isinstance(base, np.ndarray):
                base = base.base
            assert type(column) is np.ndarray and type(base) is bytes
        for column in (doc.post, doc.parent):
            assert type(column) is np.ndarray and column.flags.owndata
        resident = sum(column.nbytes for column in stored) + doc.post.nbytes + doc.parent.nbytes
        assert resident == doc.column_nbytes()
        assert resident / len(doc) == 19
        shard = store.info()["shards"][0]
        assert shard["resident_bytes_per_node"] == 19
        assert shard["logical_bytes"] == sum(column.nbytes for column in stored)
        assert shard["derived_columns"] == "post, parent: derived from level"
    described = describe_archive(os.path.join(store.directory, shard["file"]))
    assert list(described["columns"]) == described["stored_columns"] == shard["stored_columns"]
    for column, record in described["columns"].items():
        assert record["logical_bytes"] == len(doc) * COLUMN_DTYPES[column].itemsize


# ----------------------------------------------------------------------
# Hostile packed archives
# ----------------------------------------------------------------------
def rewrite_members(source, target, **replaced):
    with np.load(source) as archive:
        content = {name: archive[name] for name in archive.files}
    content.update(replaced)
    np.savez(target, **content)


@pytest.fixture(scope="module")
def packed_archive(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("hostile") / "good.npz")
    save(DocumentCollection(get_forest(1, 0.05)).doc, path, compression="packed")
    return path


#: ``nodes`` forgeries: each column stream then inflates to fewer or
#: more bytes than ``nodes × width`` (or ``nodes`` is no count at all).
MISCOUNTED = {
    "nodes-zero": lambda n: 0,
    "nodes-one-short": lambda n: n - 1,
    "nodes-one-past": lambda n: n + 1,
    "nodes-doubled": lambda n: 2 * n,
    "nodes-negative": lambda n: -100_000,
}


@pytest.mark.parametrize("forgery", sorted(MISCOUNTED))
@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_node_count_that_does_not_tile_its_columns_is_rejected(
    packed_archive, tmp_path, forgery, mmap
):
    """Every column stream must inflate to exactly ``nodes`` values at its
    declared width — else a column would be short of the tree or carry
    values past it.  ``level`` is inflated first, so it is the member
    named."""
    with np.load(packed_archive) as archive:
        n = int(archive["nodes"][0])
    target = str(tmp_path / "forged.npz")
    rewrite_members(
        packed_archive, target, nodes=np.asarray([MISCOUNTED[forgery](n)], dtype=np.int64)
    )
    with pytest.raises(
        EncodingError, match="member 'level_deflated' must inflate|member 'nodes' holds"
    ):
        load(target, mmap=mmap)


@pytest.mark.parametrize("nodes", [2**62, np.iinfo(np.int64).max], ids=["wraps-x4", "int64-max"])
def test_an_int64_node_count_cannot_wrap_the_check_itself(packed_archive, tmp_path, nodes):
    """``nodes × 4`` of 2⁶² is 2⁶⁴, which an ``int64`` product wraps to
    0: the count is refused before any width multiplies it."""
    target = str(tmp_path / "forged.npz")
    rewrite_members(packed_archive, target, nodes=np.asarray([nodes], dtype=np.int64))
    for mmap in (False, True):
        with pytest.raises(EncodingError, match="member 'nodes' holds"):
            load(target, mmap=mmap)


class Smuggled:
    fired = []

    def __reduce__(self):
        return (Smuggled.fired.append, ("unpickled",))


@pytest.mark.parametrize(
    "member",
    ["level_deflated", "nodes", "tag_dict_deflated", "tag_dict_header",
     "value_dict_deflated", "value_dict_header"],
)
def test_a_v3_archive_never_reaches_the_unpickler(packed_archive, tmp_path, member):
    target = str(tmp_path / "pickled.npz")
    payload = np.empty(1, dtype=object)
    payload[0] = Smuggled()
    rewrite_members(packed_archive, target, **{member: payload})
    with zipfile.ZipFile(target) as container:
        assert f"{member}.npy" in container.namelist()
    for mmap in (False, True):
        with pytest.raises(EncodingError):
            load(target, mmap=mmap)
    try:
        describe_archive(target)  # reads headers only: may not meet the member
    except EncodingError:
        pass
    assert Smuggled.fired == []
