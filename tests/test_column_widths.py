"""The width contract: plane columns at their declared width, ranks ``int64``.

``repro.encoding.widths.COLUMN_DTYPES`` is the one table; these tests pin
what every producer and consumer owes it:

* answers are the tree-walking reference's, byte for byte — and
  ``int64`` — whatever the archive format, open mode or backend, on
  shards big enough (> 2¹⁵ nodes, so well past ``int16``) that a column
  width leaking into a rank vector wraps visibly; the vectorized engine
  everywhere, the scalar one on a packed mapped plane (decoded when it
  opens) and where ``analyze(engine="scalar")`` runs (a ``fabric:2``
  worker);
* depth and size limits are clean ``EncodingError``s, never wraps;
* splices keep the widths and a canonical dictionary (strictly sorted,
  exactly the referenced entries), so splice == re-encode member for
  member in both layouts; the packed members that are still stored do
  not move, and dictionary offsets handed over at another width are
  narrowed, not trusted;
* no code path copies a whole column to another dtype, and a packed
  shard decodes at open to 19 resident bytes per node;
* a forged page directory, or a packed file smuggling a pickle, is
  rejected before a data page (or the unpickler) is touched.
"""

import hashlib
import os
import zipfile
import zlib

import numpy as np
import pytest

from repro.encoding import decode, encode, subtree
from repro.encoding.codec import pack_int_column
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
    """:func:`members`, each deflated dictionary (a zlib stream of its
    ``int32`` entry lengths, then its blob) replaced by the raw
    ``*_dict_blob`` / ``*_dict_offsets`` members it inflates to."""
    written = members(path)
    for name in ("tag", "value"):
        entries, size = np.frombuffer(written.pop(f"{name}_dict_header")[1], np.int64)
        raw = zlib.decompress(written.pop(f"{name}_dict_deflated")[1])
        assert len(raw) == 4 * entries + size
        offsets = np.zeros(entries + 1, dtype=np.int32)
        np.cumsum(np.frombuffer(raw[: 4 * entries], "<i4"), out=offsets[1:])
        written[f"{name}_dict_blob"] = ("uint8", raw[4 * entries :])
        written[f"{name}_dict_offsets"] = ("int32", offsets.tobytes())
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
#: ``DocumentCollection(get_forest(2, 0.05)).doc``.  Re-recorded when
#: ``post`` / ``parent`` stopped being stored (PR 23; ``c1d3e668…b4e8``
#: since the dictionary offsets went from 8 to 4 bytes in PR 20).
#: Since format 7 deflates the dictionaries, the digest is taken with
#: them inflated (a zlib build may deflate differently); format 5 gave
#: ``ce69c40c…f84f``.  Format 7 gave ``b73876b3…b71a``; format 8 stores
#: the code columns compacted (a tag code per named node, a value code
#: per non-element), so its ``tag_codes_*`` / ``value_codes_*`` moved.
PACKED_GOLDEN = "cb73a8ac04977fb62a9eb5f3b5e15c5f2fce516dbc64e87abba3497731c40cbf"

_DICT_OFFSETS = ("tag_dict_offsets", "value_dict_offsets")

#: The digest of a version-3 file without ``format_version`` and the
#: eight ``post_*`` / ``parent_*`` members, recorded at the commit
#: *before* PR 23: nothing that is still stored moved.
#: A format-8 file matches it with its dictionaries inflated and its
#: code columns packed again one value per node (:func:`wide_members`).
V3_GOLDEN_BUT_SHAPE = "7bc78e8cc67f2e5f09cbd1e8f176524a74f2b13566414051394f87bca7bbad67"


def wide_members(path):
    """:func:`inflated_members`, each compacted code column replaced by
    the members of its decoded (one code per node) column packed whole —
    what formats 3 to 7 stored."""
    written, table = inflated_members(path), load(path)
    page_size = int(np.frombuffer(written["page_size"][1], np.int64)[0])
    for column, values in (("tag_codes", table.tag.codes), ("value_codes", table.values.codes)):
        directory, blob = pack_int_column(column, values, "for", page_size)
        for part, member in (("refs", directory.refs), ("bits", directory.bits),
                             ("offsets", directory.offsets), ("packed", blob)):
            written[f"{column}_{part}"] = (str(member.dtype), member.tobytes())
    return written


def test_v3_members_are_byte_identical_to_the_wide_era(tmp_path):
    path = str(tmp_path / "golden.npz")
    save(DocumentCollection(get_forest(2, 0.05)).doc, path, compression="packed")
    assert digest(path, read=inflated_members) == PACKED_GOLDEN
    assert digest(path, skip=("format_version",), read=wide_members) == V3_GOLDEN_BUT_SHAPE
    written = members(path)
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
        # Every column is a plain array the process holds privately:
        # the four stored ones decoded at open, post and parent derived.
        stored = [doc.level, doc.kind, doc.tag.codes, doc.values.codes]
        for column in stored + [doc.post, doc.parent]:
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


FORGERIES = {
    # column: (member suffix, forged first entry)
    "level": ("bits", 20),  # 2²⁰ levels do not fit int16
    "kind": ("refs", 9),  # no such NodeKind
    "tag_codes": ("refs", 10_000),  # past the dictionary
    "value_codes": ("bits", 40),
}


@pytest.mark.parametrize("column", sorted(FORGERIES))
@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_forged_page_directory_is_rejected_before_any_page(
    packed_archive, tmp_path, column, mmap
):
    suffix, value = FORGERIES[column]
    with np.load(packed_archive) as archive:
        forged = archive[f"{column}_{suffix}"].copy()
    forged[0] = value
    target = str(tmp_path / "forged.npz")
    rewrite_members(
        packed_archive,
        target,
        **{
            f"{column}_{suffix}": forged,
            # No data page to touch: the check reads the directory alone.
            f"{column}_packed": np.empty(0, dtype=np.uint8),
        },
    )
    with pytest.raises(EncodingError, match=f"{column!r}: page directory"):
        load(target, mmap=mmap)


def _short(array):
    return array[:-1]


def _shifted(offsets):
    forged = offsets.copy()
    forged[1] += 1  # page 0 one byte longer, page 1 one shorter
    return forged


UNTILED = {
    # name: {member: forged value, or a function of the honest one}
    "page-size-0": {"page_size": np.asarray([0])},
    "page-size-3": {"page_size": np.asarray([3])},
    "page-size-doubled": {"page_size": np.asarray([2048])},
    "kind-last-page-missing": {"kind_refs": _short, "kind_bits": _short},
    "kind-offsets-short": {"kind_offsets": _short},
    "kind-offsets-shifted": {"kind_offsets": _shifted},
    "nodes-negative": {"nodes": np.asarray([-100_000])},
}


@pytest.mark.parametrize("forgery", sorted(UNTILED))
@pytest.mark.parametrize("mmap", [False, True], ids=["eager", "mmap"])
def test_a_directory_that_does_not_tile_its_column_is_rejected(
    packed_archive, tmp_path, forgery, mmap
):
    """Pages must be the packer's: a power-of-two size, one per
    ``page_size`` values, each exactly as many bytes as its values pack
    into — else a decode leaves values unwritten or reads a neighbour."""
    with np.load(packed_archive) as archive:
        replaced = {
            member: forged(archive[member]) if callable(forged) else forged
            for member, forged in UNTILED[forgery].items()
        }
    target = str(tmp_path / "forged.npz")
    rewrite_members(packed_archive, target, **replaced)
    with pytest.raises(
        EncodingError, match="page_size must be a power of two|page directory does not tile"
    ):
        load(target, mmap=mmap)


def test_an_int64_reference_cannot_wrap_the_check_itself(packed_archive, tmp_path):
    with np.load(packed_archive) as archive:
        refs = archive["value_codes_refs"].copy()
    refs[-1] = np.iinfo(np.int64).max
    target = str(tmp_path / "forged.npz")
    rewrite_members(packed_archive, target, value_codes_refs=refs)
    with pytest.raises(EncodingError, match="page directory"):
        load(target)


class Smuggled:
    fired = []

    def __reduce__(self):
        return (Smuggled.fired.append, ("unpickled",))


@pytest.mark.parametrize(
    "member",
    ["level_refs", "nodes", "tag_dict_deflated", "tag_dict_header",
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
