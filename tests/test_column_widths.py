"""The width contract: plane columns at the width the rule gives them
(``tests/_widths.py``), ranks ``int64``.

``repro.encoding.widths`` is the one rule; these tests pin what every
producer and consumer owes it:

* answers are the tree-walking reference's, byte for byte — and
  ``int64`` — whatever the archive's compression, open mode or backend,
  on shards big enough (> 2¹⁵ nodes, so well past ``int16``) that a
  column width leaking into a rank vector wraps visibly; the vectorized
  engine everywhere, the scalar one on a packed mapped plane (inflated
  when it opens) and where ``analyze(engine="scalar")`` runs (a
  ``fabric:2`` worker);
* depth and size limits are clean ``EncodingError``s, never wraps;
* splices keep the rule and a canonical dictionary (strictly sorted,
  exactly the referenced entries), so splice == re-encode member for
  member under both compressions; both compressions hold the same
  members, and dictionary lengths handed over at another width are
  narrowed, not trusted;
* no code path copies a whole column to another dtype, and a packed
  XMark shard inflates at open to 13 resident bytes per node;
* a ``level`` header whose count disagrees with its member's bytes, or
  overflows the width arithmetic, is rejected before the column is read
  past it; a packed file smuggling a pickle is rejected before the
  unpickler is touched.
"""

import hashlib
import io
import os
import struct
import zipfile

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
from _widths import assert_at_width, narrowest, rule_width

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


def members(path):
    """Members of an archive (all numeric), ``name → (dtype, bytes)``."""
    with np.load(path) as archive:
        return {
            name: (str(archive[name].dtype), archive[name].tobytes())
            for name in archive.files
        }


def digest(path, skip=()):
    sha = hashlib.sha256()
    for name, (dtype, data) in sorted(members(path).items()):
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


#: Every compression × backend / open mode on the vectorized engine; the
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
# (c) splices keep the widths and the archive's bytes
# ----------------------------------------------------------------------
#: sha256 over the sorted members (name, dtype, bytes) of ``save`` for
#: ``DocumentCollection(get_forest(2, 0.05)).doc`` — the same under both
#: compressions, which differ only in how the zip holds the members (so
#: no zlib build can move it).  Re-recorded when the narrowed columns
#: took the narrowest width their values need (``level``, ``tag_codes``,
#: both ``*_dict_lengths`` ``int8``, ``value_codes`` ``int16``): these
#: members cast back to ``int16`` / ``int32`` give the previous digest,
#: ``c978df49…726b``, byte for byte.  That one was recorded equal to format 6's
#: eager members with each ``*_dict_offsets`` replaced by its
#: ``np.diff`` as ``*_dict_lengths`` and ``format_version`` 10.  Format 9
#: (every stream inflated, ``nodes`` and ``height`` beside) gave
#: ``0fdac0fd…6be9``, format 8 ``cb73a8ac…0cbf``, format 7
#: ``b73876b3…b71a``, format 5 ``ce69c40c…f84f``.
GOLDEN = "f98804c600075b8c222afeb02273c8de51d405f38062cc6288dcf4df094d7dce"

_DICT_LENGTHS = ("tag_dict_lengths", "value_dict_lengths")


def test_both_compressions_hold_identical_members(tmp_path):
    doc = DocumentCollection(get_forest(2, 0.05)).doc
    paths = {compression: str(tmp_path / f"{compression}.npz") for compression in ("none", "packed")}
    for compression, path in paths.items():
        save(doc, path, compression=compression)
    stored, packed = (zipfile.ZipFile(path) for path in paths.values())
    with stored, packed:
        assert stored.namelist() == packed.namelist()
        for info in packed.infolist():
            assert info.compress_type == zipfile.ZIP_DEFLATED
            assert stored.getinfo(info.filename).compress_type == zipfile.ZIP_STORED
            assert packed.read(info) == stored.read(info.filename)
    assert digest(paths["packed"]) == digest(paths["none"]) == GOLDEN
    written = members(paths["packed"])
    assert not [name for name in written if name.startswith(("post", "parent"))]


def widen_lengths(source, target):
    """``source`` with 8-byte dictionary entry lengths — what a foreign
    writer might hand over."""
    with np.load(source) as archive:
        content = {name: archive[name] for name in archive.files}
    for name in _DICT_LENGTHS:
        content[name] = content[name].astype(np.int64)
    np.savez(target, **content)


def test_an_archive_with_8_byte_dictionary_lengths_loads_and_answers_identically(tmp_path):
    """Member for member today's file, the entry lengths at ``int64``:
    the loaded :class:`ValueIndex`'s offsets are narrowed (range-checked)
    to the one declared width, whatever width the archive holds."""
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    save(doc, str(tmp_path / "now.npz"))
    path = str(tmp_path / "wide-lengths.npz")
    widen_lengths(str(tmp_path / "now.npz"), path)
    assert members(path)["value_dict_lengths"][0] == "int64"
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


#: The widths every column had before a column's width followed its
#: values — what an archive written then declares.
CEILINGS = {
    "level": np.int16, "tag_codes": np.int32, "value_codes": np.int32,
    "tag_dict_lengths": np.int32, "value_dict_lengths": np.int32,
}


@pytest.mark.parametrize("compression", ["none", "packed"])
def test_an_archive_at_the_ceiling_widths_loads_at_them_and_answers_identically(
    tmp_path, compression
):
    """Member for member today's file, each narrowed member at its
    ceiling: read and mapped, every column keeps the width its header
    declares, and both engines answer as on the table it came from."""
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    save(doc, str(tmp_path / "now.npz"))
    with np.load(str(tmp_path / "now.npz")) as archive:
        content = {name: archive[name] for name in archive.files}
    for name, dtype in CEILINGS.items():
        content[name] = content[name].astype(dtype)
    path = str(tmp_path / "ceiling.npz")
    (np.savez if compression == "none" else np.savez_compressed)(path, **content)
    for mmap in (False, True):
        table = load(path, mmap=mmap)
        assert isinstance(table.level, np.memmap) == (mmap and compression == "none")
        assert (table.level.dtype, table.tag.codes.dtype, table.values.codes.dtype) == (
            np.int16, np.int32, np.int32,
        )
        assert table.values == doc.values
        for engine in ENGINES:
            for query in QUERIES + ('//person[name = "x"]', "//bidder[increase > 10]"):
                got = Evaluator(table, engine=engine).evaluate(query)
                want = Evaluator(doc, engine=engine).evaluate(query)
                assert got.dtype == np.int64 and got.tobytes() == want.tobytes()
        # Written again, it is today's archive.
        save(table, str(tmp_path / "again.npz"))
        assert members(str(tmp_path / "again.npz")) == members(str(tmp_path / "now.npz"))


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
        assert table.values.offsets.dtype == COLUMN_DTYPES["dict_offsets"], label
        assert_canonical(table.values)
        if label in expected_entries:
            assert table.values.dictionary_size == expected_entries[label], label
        assert list(table.values) == list(encode(decode(table)).values), label
        # Re-encoding the edited tree from scratch writes the same
        # members as the splice, under both compressions.
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
    """Each member at the width the rule gives its own values."""
    doc = DocumentCollection(get_forest(1, 0.05)).doc
    for compression in ("none", "packed"):
        path = str(tmp_path / f"{compression}.npz")
        save(doc, path, compression=compression)
        written = members(path)
        assert "post" not in written and "parent" not in written
        with np.load(path) as archive:
            for name in ("level", "kind", "tag_codes", "value_codes"):
                assert written[name][0] == rule_width(name, archive[name]).name
            for name in _DICT_LENGTHS:
                assert written[name][0] == narrowest(archive[name]).name
        assert describe_archive(path)["format_version"] == 10


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
        # post 4 + parent 4 + kind 1, level 1 (height 11), tag codes 1
        # (75 tags), value codes 2 (≈ 8 k entries).
        assert resident / len(doc) == 13
        shard = store.info()["shards"][0]
        assert shard["resident_bytes_per_node"] == 13
        columns = shard["stored_columns"]
        assert sum(shard["members"][c]["logical_bytes"] for c in columns) == sum(
            column.nbytes for column in stored
        )
        assert shard["derived_columns"] == "post, parent: derived from level"
    described = describe_archive(os.path.join(store.directory, shard["file"]))
    assert described["stored_columns"] == columns == ["level", "kind", "tag_codes", "value_codes"]
    assert described["members"] == shard["members"]
    widths = {"level": "int8", "kind": "int8", "tag_codes": "int8", "value_codes": "int16"}
    for column, array in zip(columns, stored):
        assert described["members"][column]["dtype"] == widths[column] == array.dtype.name
        assert described["members"][column]["logical_bytes"] == array.nbytes


# ----------------------------------------------------------------------
# Hostile packed archives
# ----------------------------------------------------------------------
def rewrite_members(source, target, **replaced):
    """``source``'s members, some ``replaced``, deflated into ``target``
    (a member given as ``bytes`` is written as it is)."""
    with zipfile.ZipFile(source) as archive:
        content = {info.filename[:-4]: archive.read(info) for info in archive.infolist()}
    content.update(replaced)
    with zipfile.ZipFile(target, "w", zipfile.ZIP_DEFLATED) as archive:
        for name, data in content.items():
            if not isinstance(data, bytes):
                buffer = io.BytesIO()
                np.save(buffer, data)
                data = buffer.getvalue()
            archive.writestr(f"{name}.npy", data)


@pytest.fixture(scope="module")
def packed_archive(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("hostile") / "good.npz")
    save(DocumentCollection(get_forest(1, 0.05)).doc, path, compression="packed")
    return path


def level_declaring(path, count):
    """The ``level`` member of the archive at ``path``, its data as
    written, its header declaring ``count`` values."""
    with zipfile.ZipFile(path) as archive:
        member = archive.read("level.npy")
    (length,) = struct.unpack("<H", member[8:10])
    header = member[10 : 10 + length].decode("latin-1")
    written = header[header.index("(") + 1 : header.index(",)")]
    forged = header.replace(f"({written},)", f"({count},)")
    forged = forged.rstrip(" \n")
    forged += " " * (-(len(forged) + 11) % 64) + "\n"
    return member[:8] + struct.pack("<H", len(forged)) + forged.encode("latin-1") + member[10 + length :]


#: ``level`` header counts that do not tile the member's bytes (or are
#: no count at all): each would leave the column short of the tree, or
#: carry values past it.
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
    """A ``level`` member must hold exactly the values its header
    declares, at its width: the node count is that header's."""
    n = describe_archive(packed_archive)["nodes"]
    target = str(tmp_path / "forged.npz")
    rewrite_members(packed_archive, target, level=level_declaring(packed_archive, MISCOUNTED[forgery](n)))
    with pytest.raises(EncodingError, match="member 'level'"):
        load(target, mmap=mmap)


@pytest.mark.parametrize("nodes", [2**62, np.iinfo(np.int64).max], ids=["wraps-x4", "int64-max"])
def test_an_int64_node_count_cannot_wrap_the_check_itself(packed_archive, tmp_path, nodes):
    """``count × 2`` of 2⁶² is 2⁶³, past ``int64``: the header rule
    multiplies Python integers, which do not wrap."""
    target = str(tmp_path / "forged.npz")
    rewrite_members(packed_archive, target, level=level_declaring(packed_archive, nodes))
    for mmap in (False, True):
        with pytest.raises(EncodingError, match="member 'level' holds"):
            load(target, mmap=mmap)


class Smuggled:
    fired = []

    def __reduce__(self):
        return (Smuggled.fired.append, ("unpickled",))


@pytest.mark.parametrize(
    "member",
    ["level", "format_version", "tag_dict_lengths", "tag_dict_blob",
     "value_dict_lengths", "value_dict_blob"],
)
def test_a_packed_archive_never_reaches_the_unpickler(packed_archive, tmp_path, member):
    target = str(tmp_path / "pickled.npz")
    payload = np.empty(1, dtype=object)
    payload[0] = Smuggled()
    buffer = io.BytesIO()
    np.save(buffer, payload, allow_pickle=True)
    rewrite_members(packed_archive, target, **{member: buffer.getvalue()})
    with zipfile.ZipFile(target) as container:
        assert container.getinfo(f"{member}.npy").compress_type == zipfile.ZIP_DEFLATED
    for mmap in (False, True):
        with pytest.raises(EncodingError):
            load(target, mmap=mmap)
    try:
        describe_archive(target)  # reads headers only: may not meet the member
    except EncodingError:
        pass
    assert Smuggled.fired == []
