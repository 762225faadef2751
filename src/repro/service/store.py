"""Sharded, persistent document storage for the query service.

Footnote 1 of the paper gathers several documents under one virtual
root; a :class:`ShardedStore` keeps *several such planes* — shards —
each persisted as one ``.npz`` archive
(:mod:`repro.encoding.persist`, eager or packed layout), plus a small JSON manifest recording
the epoch, the shard files, and which member documents live where.

The layout on disk::

    store/
      manifest.json            epoch, shard → file/documents mapping
      shard-0000.e0001.npz     one gathered pre/post plane per shard
      shard-0001.e0001.npz

Why it is shaped this way:

* shards load **memory-mapped** — worker processes that open the same
  *eager* shard file share the OS page cache instead of materialising
  private copies (the zero-copy open of ``persist.load(mmap=True)``); a
  packed shard decodes to private arrays in every process that opens it;
* shard files are **immutable**: every mutation writes *new* files (the
  epoch is part of the filename), flips the manifest once, then removes
  the old files.  Workers holding an old mapping stay valid (POSIX
  unlink semantics) and converge on the new files at their next task,
  and every result-cache key minted against the old epoch is dead on
  arrival — the cache can never serve stale results;
* a crash between writing new shard files and the manifest flip leaves
  the old manifest fully intact and merely strands the new files;
  :meth:`open` sweeps unreferenced shard files, so orphans never
  accumulate;
* the manifest keeps global document order, so merged results are
  reported in the order documents were loaded, independent of sharding.

**Write path.**  Wholesale :meth:`replace_shard` re-encodes a shard from
trees; the subtree-granular path (:meth:`apply_updates`, plus the
:meth:`add_document` / :meth:`remove_document` / :meth:`update_document`
/ :meth:`splice` conveniences) instead splices ranks on the existing
plane via :mod:`repro.encoding.updates` — O(n) array surgery per shard,
no re-encoding of untouched documents.  A batch stages every touched
shard in memory, writes all new files, then flips the manifest *once*:
the batch is atomic on disk and bumps the epoch exactly once.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro import errors
from repro.encoding.collection import DocumentCollection
from repro.encoding.persist import (
    FORMAT_VERSION,
    LAYOUT_VERSIONS,
    describe_archive,
    load,
    save,
)
from repro.errors import ReproError, StoreNotFoundError
from repro.service.updates import UpdateOp
from repro.xmltree.model import Node

__all__ = ["ShardedStore", "STORE_FORMAT", "COMPRESSION_SETTINGS", "AUTO_PACK_NODES"]

#: Version of the manifest schema (independent of the archive format).
STORE_FORMAT = 1

MANIFEST = "manifest.json"

#: ``compression=`` settings a store accepts.  ``auto`` packs a shard
#: when it crosses :data:`AUTO_PACK_NODES`; ``none``/``packed`` force the
#: archive format unconditionally.  The setting persists in the manifest
#: and governs every later commit (``apply_updates`` re-packs touched
#: shards under the same policy).
COMPRESSION_SETTINGS = ("auto", "none", "packed")

#: ``auto`` threshold: shards at or above this node count are written
#: packed (``format_version`` 7).  Small shards gain little from packing and
#: load faster eagerly.
AUTO_PACK_NODES = 65536


def _resolve_compression(setting: str, nodes: int) -> str:
    """Map a store-level setting to a per-shard ``save`` compression."""
    if setting == "packed":
        return "packed"
    if setting == "none":
        return "none"
    return "packed" if nodes >= AUTO_PACK_NODES else "none"


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` respects container/cgroup CPU masks (the
    common CI case), where ``os.cpu_count`` reports the whole machine
    and would oversubscribe the build lanes and fabric workers;
    platforms without affinity fall back to the plain count.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


#: Shard archive naming scheme; anything matching it that the manifest
#: does not reference is a crash leftover :meth:`ShardedStore.open` sweeps.
_SHARD_FILE = re.compile(r"shard-\d{4,}\.e\d{4,}\.npz")


def _check_entry(path: str, index: int, entry) -> None:
    """Reject a manifest shard entry the store cannot serve from.

    Every reader trusts ``id``, ``file``, ``documents`` and ``nodes``
    once the store is open; ``file`` must be a shard file name, so no
    entry can point a load outside the store directory.
    """
    where = f"{path}: corrupt manifest (shard entry {index}"
    if not isinstance(entry, dict):
        raise ReproError(f"{where} is not a JSON object)")
    file_name = entry.get("file")
    if not (isinstance(file_name, str) and _SHARD_FILE.fullmatch(file_name)):
        raise ReproError(f"{where}: file {file_name!r} is not a shard file name)")
    documents = entry.get("documents")
    if not (
        type(entry.get("id")) is int
        and type(entry.get("nodes")) is int
        and isinstance(documents, list)
        and all(isinstance(name, str) for name in documents)
    ):
        raise ReproError(f"{where} needs an integer id and nodes and a list of names)")


class ShardedStore:
    """A directory of persisted document-collection shards.

    Build one with :meth:`build`, reopen it with :meth:`open`.  The
    constructor is internal — it trusts a parsed manifest.

    One store object may be shared by a query thread and an updating
    thread: mutation and manifest reads are serialised by an internal
    lock, and the epoch in every result-cache key keeps the caches
    coherent.  Only :meth:`build` and the commit protocol write the
    directory: opening, querying and closing a store never do.
    """

    def __init__(self, directory: str, manifest: dict):
        self.directory = directory
        self._manifest = manifest  # guarded-by: _lock
        self._collections: Dict[int, Tuple[str, DocumentCollection]] = {}  # guarded-by: _lock
        self._lock = threading.RLock()
        with self._lock:
            self._reindex_locked()

    def _reindex_locked(self) -> None:
        """Rebuild the name → shard index and the global name order.

        Called at open and after every mutation (with ``_lock`` held),
        so document-scoped lookups are O(1) instead of a scan over
        shards × documents.
        """
        assert self._lock._is_owned(), "the caller must hold _lock"
        self._doc_shard: Dict[str, int] = {}  # guarded-by: _lock
        self._names: List[str] = []  # guarded-by: _lock
        for entry in self._manifest["shards"]:
            for name in entry["documents"]:
                self._doc_shard[name] = entry["id"]
                self._names.append(name)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        directory: str,
        documents: Sequence[Tuple[str, Node]],
        shards: int = 1,
        virtual_root_tag: str = "collection",
        compression: str = "auto",
    ) -> "ShardedStore":
        """Partition ``documents`` into ``shards`` collections and persist.

        Documents are split contiguously in the given order (shard 0
        gets the first ``ceil(n/k)`` documents, and so on), which keeps
        the global document order reconstructible from the manifest.

        ``compression`` (``"auto"``/``"none"``/``"packed"``) selects the
        shard archive format: ``packed`` writes compressed pageable
        planes, ``none`` the eager layout, and
        ``auto`` packs shards of :data:`AUTO_PACK_NODES` nodes or more.
        The setting persists in the manifest and applies to every later
        commit.

        Shards encode and save on ``min(shards, available_cpus())``
        lanes (:func:`_write_shards`); the files, the manifest and any
        error are those of a one-lane build, and ``documents`` are read,
        never modified.  No manifest is written when a shard fails.
        """
        if not documents:
            raise ReproError("a sharded store needs at least one document")
        if compression not in COMPRESSION_SETTINGS:
            raise ReproError(
                f"unknown compression {compression!r}; expected one of "
                f"{COMPRESSION_SETTINGS}"
            )
        names = [name for name, _ in documents]
        if len(set(names)) != len(names):
            raise ReproError("document names must be unique across the store")
        shards = max(1, min(int(shards), len(documents)))
        os.makedirs(directory, exist_ok=True)
        epoch = 1
        chunks = _split(list(documents), shards)
        nodes = _write_shards(directory, chunks, virtual_root_tag, compression, epoch)
        entries = [
            {
                "id": shard_id,
                "file": _shard_file_name(shard_id, epoch),
                "documents": [name for name, _ in chunk],
                "nodes": nodes[shard_id],
                "format": LAYOUT_VERSIONS[_resolve_compression(compression, nodes[shard_id])],
            }
            for shard_id, chunk in enumerate(chunks)
        ]
        manifest = {
            "store_format": STORE_FORMAT,
            "persist_format": FORMAT_VERSION,
            "epoch": epoch,
            "virtual_root_tag": virtual_root_tag,
            "compression": compression,
            "shards": entries,
        }
        _write_manifest(directory, manifest)
        return cls(directory, manifest)

    @classmethod
    def open(cls, directory: str) -> "ShardedStore":
        """Open an existing store directory.

        Sweeps shard files the manifest does not reference — leftovers
        of a crash between writing new shard files and the manifest
        flip (the flip is the commit point, so unreferenced files are
        garbage by construction).

        Shards open lazily, memory-mapped (:meth:`collection`).  A path
        that is no directory is a :class:`StoreNotFoundError`; a
        manifest that is not a JSON object with an integer ``epoch`` and
        a ``shards`` list of well-formed entries (:func:`_check_entry`)
        is a corrupt manifest.
        """
        path = os.path.join(directory, MANIFEST)
        try:
            with open(path) as f:
                manifest = json.load(f)
        except (FileNotFoundError, NotADirectoryError):
            raise StoreNotFoundError(
                f"{directory}: not a sharded store (no {MANIFEST})"
            ) from None
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}: corrupt manifest ({error})") from None
        if not isinstance(manifest, dict):
            raise ReproError(f"{path}: corrupt manifest (not a JSON object)")
        if manifest.get("store_format") != STORE_FORMAT:
            raise ReproError(
                f"{path}: store format {manifest.get('store_format')!r} != "
                f"supported {STORE_FORMAT}"
            )
        if not isinstance(manifest.get("shards"), list):
            raise ReproError(f"{path}: corrupt manifest (no shards list)")
        if type(manifest.get("epoch")) is not int:
            raise ReproError(f"{path}: corrupt manifest (no integer epoch)")
        for index, entry in enumerate(manifest["shards"]):
            _check_entry(path, index, entry)
        store = cls(directory, manifest)
        store._sweep_orphans()
        return store

    def _sweep_orphans(self) -> List[str]:
        """Remove shard-pattern files the manifest does not reference."""
        with self._lock:
            referenced = {entry["file"] for entry in self._manifest["shards"]}
        swept = []
        for file_name in os.listdir(self.directory):
            if file_name in referenced or not _SHARD_FILE.fullmatch(file_name):
                continue
            try:
                os.remove(os.path.join(self.directory, file_name))
                swept.append(file_name)
            except OSError:  # pragma: no cover - another opener may race
                pass
        return swept

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic store version; bumped by every committed mutation."""
        with self._lock:
            return int(self._manifest["epoch"])

    @property
    def virtual_root_tag(self) -> str:
        with self._lock:
            return self._manifest["virtual_root_tag"]

    @property
    def shard_count(self) -> int:
        with self._lock:
            return len(self._manifest["shards"])

    def shard_ids(self) -> List[int]:
        with self._lock:
            return [entry["id"] for entry in self._manifest["shards"]]

    def shard_entry(self, shard_id: int) -> dict:
        """The manifest record of one shard (id, file, documents, nodes)."""
        with self._lock:
            for entry in self._manifest["shards"]:
                if entry["id"] == shard_id:
                    return entry
        raise ReproError(f"no shard {shard_id} in store {self.directory}")

    def document_names(self) -> List[str]:
        """All member document names, in global (load) order."""
        with self._lock:
            return list(self._names)

    def shard_of(self, document: str) -> int:
        """Which shard holds ``document`` (O(1) via the name index)."""
        with self._lock:
            try:
                return self._doc_shard[document]
            except KeyError:
                raise ReproError(
                    f"no document named {document!r} in store"
                ) from None

    def total_nodes(self) -> int:
        """Encoded nodes across all shards (from the manifest)."""
        with self._lock:
            return sum(entry["nodes"] for entry in self._manifest["shards"])

    @property
    def compression(self) -> str:
        """The store's compression setting (pre-compression stores: none)."""
        with self._lock:
            return self._manifest.get("compression", "none")

    def describe(self) -> dict:
        """A JSON-friendly summary (used by ``python -m repro shard``)."""
        with self._lock:
            return {
                "directory": self.directory,
                "epoch": self.epoch,
                "compression": self.compression,
                "shards": [
                    {
                        "id": entry["id"],
                        "file": entry["file"],
                        "documents": list(entry["documents"]),
                        "nodes": entry["nodes"],
                    }
                    for entry in self._manifest["shards"]
                ],
                "documents": len(self._names),
            }

    def info(self) -> dict:
        """Bytes-level report per shard.

        Backs the ``store info`` CLI verb.  Per shard: bytes on disk,
        archive format version, dictionary sizes, page counts (packed
        shards), and — when the shard plane is open in this process —
        its resident bytes per node.
        """
        with self._lock:
            shards = []
            total_disk = 0
            total_logical = 0
            for entry in self._manifest["shards"]:
                path = os.path.join(self.directory, entry["file"])
                archive = describe_archive(path)
                record = {
                    "id": entry["id"],
                    "file": entry["file"],
                    "documents": len(entry["documents"]),
                    "nodes": entry["nodes"],
                    "format_version": archive["format_version"],
                    "bytes_on_disk": archive["bytes_on_disk"],
                    "tag_dictionary": archive["tag_dictionary"],
                    "value_dictionary": archive["value_dictionary"],
                    "stored_columns": archive["stored_columns"],
                    "derived_columns": archive["derived_columns"],
                }
                total_disk += archive["bytes_on_disk"]
                if "columns" in archive:  # the packed layout
                    columns = archive["columns"]
                    record["page_size"] = archive["page_size"]
                    record["pages"] = sum(c["pages"] for c in columns.values())
                    record["packed_bytes"] = sum(
                        c["packed_bytes"] for c in columns.values()
                    )
                    record["logical_bytes"] = sum(
                        c["logical_bytes"] for c in columns.values()
                    )
                    total_logical += record["logical_bytes"]
                cached = self._collections.get(entry["id"])
                if cached is not None and cached[0] == entry["file"]:
                    doc = cached[1].doc
                    # What the plane occupies per node once resident.
                    record["resident_bytes_per_node"] = round(
                        doc.column_nbytes() / len(doc), 2
                    )
                shards.append(record)
            return {
                "directory": self.directory,
                "epoch": self.epoch,
                "compression": self.compression,
                "documents": len(self._names),
                "total_bytes_on_disk": total_disk,
                "total_logical_bytes": total_logical,
                "shards": shards,
            }

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def collection(self, shard_id: int) -> DocumentCollection:
        """The shard's gathered plane, loaded lazily (memory-mapped).

        Cached per shard file: after a mutation the next call observes
        the new file name and reloads.
        """
        with self._lock:
            entry = self.shard_entry(shard_id)
            cached = self._collections.get(shard_id)
            if cached is not None and cached[0] == entry["file"]:
                return cached[1]
            table = load(
                os.path.join(self.directory, entry["file"]),
                mmap=True,
            )
            collection = DocumentCollection.from_table(
                table, entry["documents"], self.virtual_root_tag
            )
            self._collections[shard_id] = (entry["file"], collection)
            return collection

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def replace_shard(
        self, shard_id: int, documents: Sequence[Tuple[str, Node]]
    ) -> None:
        """Swap one shard's documents wholesale and bump the store epoch.

        Re-encodes every given tree.  For edits touching a few subtrees
        prefer :meth:`apply_updates`, which splices the existing plane.
        """
        with self._lock:
            self.shard_entry(shard_id)  # validates the id
            if not documents:
                raise ReproError("a shard needs at least one document")
            new_names = [name for name, _ in documents]
            others = {
                name for name, sid in self._doc_shard.items() if sid != shard_id
            }
            if len(set(new_names)) != len(new_names) or others & set(new_names):
                raise ReproError("document names must be unique across the store")
            collection = DocumentCollection(documents, self.virtual_root_tag)
            self._commit_locked({shard_id: collection})

    def add_document(
        self, name: str, tree: Node, shard_id: Optional[int] = None
    ) -> int:
        """Add one document (to the smallest shard unless one is given).

        Returns the new store epoch.
        """
        return self.apply_updates(
            [UpdateOp("add", name, tree=tree, shard=shard_id)]
        )["epoch"]

    def remove_document(self, name: str) -> int:
        """Remove one document; an emptied shard leaves the manifest."""
        return self.apply_updates([UpdateOp("remove", name)])["epoch"]

    def update_document(self, name: str, tree: Node) -> int:
        """Replace one document's tree in place (rank splice, no shard
        re-encode)."""
        return self.apply_updates([UpdateOp("update", name, tree=tree)])["epoch"]

    def splice(
        self,
        name: str,
        op: str,
        pre: int,
        tree: Optional[Node] = None,
        before: Optional[int] = None,
    ) -> int:
        """Subtree-granular edit inside one document (document-relative
        ranks; see :meth:`DocumentCollection.splice`)."""
        return self.apply_updates(
            [UpdateOp(op, name, tree=tree, pre=pre, before=before)]
        )["epoch"]

    def apply_updates(self, ops: Sequence[UpdateOp]) -> dict:
        """Apply a batch of :class:`UpdateOp` and commit it atomically.

        Every op splices in memory first — a validation error anywhere
        in the batch leaves the store untouched.  All staged shard
        planes are then written as new epoch files and the manifest
        flips once (one epoch bump per batch; a crash before the flip
        strands files that :meth:`open` sweeps).

        Only *touched* shards are staged and rewritten, each in the
        layout the store's ``compression`` setting gives its new size;
        untouched shards are not opened.
        """
        with self._lock:
            if not ops:
                return {"epoch": self.epoch, "applied": 0, "shards": []}
            # shard id → staged plane (None = shard emptied by removals)
            staged: Dict[int, Optional[DocumentCollection]] = {}
            placement = dict(self._doc_shard)

            def shard_state(shard_id: int) -> Optional[DocumentCollection]:
                if shard_id not in staged:
                    staged[shard_id] = self.collection(shard_id)
                return staged[shard_id]

            def nodes_in(shard_id: int) -> int:
                if shard_id in staged:
                    plane = staged[shard_id]
                    return len(plane.doc) if plane is not None else 0
                return int(self.shard_entry(shard_id)["nodes"])

            for op in ops:
                if op.op == "add":
                    if op.document in placement:
                        raise ReproError(
                            f"document {op.document!r} already in the store"
                        )
                    shard_id = op.shard
                    if shard_id is None:
                        shard_id = min(self.shard_ids(), key=nodes_in)
                    plane = shard_state(shard_id)
                    if plane is None:  # emptied earlier in this batch
                        staged[shard_id] = DocumentCollection(
                            [(op.document, op.tree)], self.virtual_root_tag
                        )
                    else:
                        staged[shard_id] = plane.insert_document(
                            op.document, op.tree
                        )
                    placement[op.document] = shard_id
                    continue
                try:
                    shard_id = placement[op.document]
                except KeyError:
                    raise ReproError(
                        f"no document named {op.document!r} in store"
                    ) from None
                plane = shard_state(shard_id)
                if plane is None:  # pragma: no cover - placement forbids it
                    raise ReproError(f"shard {shard_id} already emptied")
                if op.op == "remove":
                    if len(placement) == 1:
                        raise ReproError(
                            "a sharded store needs at least one document"
                        )
                    staged[shard_id] = (
                        None
                        if len(plane) == 1
                        else plane.remove_document(op.document)
                    )
                    del placement[op.document]
                elif op.op == "update":
                    staged[shard_id] = plane.update_document(op.document, op.tree)
                else:  # insert / delete / replace — validated by UpdateOp
                    staged[shard_id] = plane.splice(
                        op.document, op.op, op.pre, tree=op.tree, before=op.before
                    )
            epoch = self._commit_locked(staged)
            return {"epoch": epoch, "applied": len(ops), "shards": sorted(staged)}

    def _commit_locked(
        self, staged: Dict[int, Optional[DocumentCollection]]
    ) -> int:
        """Persist staged shard planes under the next epoch, atomically.

        Caller holds ``_lock`` (both mutation entry points take it for
        their whole stage-validate-commit span).  Writes every new
        shard file first (a crash here leaves only sweepable orphans),
        then flips the manifest once — the commit point — then drops
        cached planes and unlinks the old files.
        """
        assert self._lock._is_owned(), "the caller must hold _lock"
        epoch = self.epoch + 1
        setting = self._manifest.get("compression", "none")
        formats: Dict[int, int] = {}
        old_files = []
        for shard_id, collection in staged.items():
            old_files.append(self.shard_entry(shard_id)["file"])
            if collection is None:
                continue
            shard_compression = _resolve_compression(
                setting, len(collection.doc)
            )
            formats[shard_id] = LAYOUT_VERSIONS[shard_compression]
            save(
                collection.doc,
                os.path.join(self.directory, _shard_file_name(shard_id, epoch)),
                compression=shard_compression,
            )
        # The manifest is rebuilt as a copy and only swapped in after the
        # on-disk flip: a failed write leaves memory and disk agreeing on
        # the old epoch (and the new files as sweepable orphans).
        entries = []
        for entry in self._manifest["shards"]:
            shard_id = entry["id"]
            if shard_id not in staged:
                # An older manifest's per-shard "tags" / "height" were
                # planner statistics; nothing reads them now.
                entries.append(
                    {k: v for k, v in entry.items() if k not in ("tags", "height")}
                )
                continue
            collection = staged[shard_id]
            if collection is None:  # emptied by removals: drop the shard
                continue
            entries.append(
                {
                    "id": shard_id,
                    "file": _shard_file_name(shard_id, epoch),
                    "documents": collection.names,
                    "nodes": len(collection.doc),
                    "format": formats[shard_id],
                }
            )
        manifest = dict(self._manifest, shards=entries, epoch=epoch)
        # An older manifest may carry a "feedback" section; nothing reads
        # it, so it is not copied into the manifests written from here.
        manifest.pop("feedback", None)
        _write_manifest(self.directory, manifest)
        self._manifest = manifest
        for shard_id, collection in staged.items():
            if collection is None:
                self._collections.pop(shard_id, None)
            else:
                # The staged plane IS the new file's content — seed the
                # cache with it so the next read (or splice) skips the
                # reload; a later file flip still reloads as usual.
                self._collections[shard_id] = (
                    _shard_file_name(shard_id, epoch),
                    collection,
                )
        self._reindex_locked()
        for old_file in old_files:
            try:
                os.remove(os.path.join(self.directory, old_file))
            except OSError:  # pragma: no cover - another process may race
                pass
        return epoch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedStore({self.directory!r}, shards={self.shard_count}, "
            f"epoch={self.epoch})"
        )


# ----------------------------------------------------------------------
def _write_shards(directory, chunks, virtual_root_tag, compression, epoch) -> Dict[int, int]:
    """Encode and save every shard of a build; shard id → node count.

    ``min(shards, available_cpus())`` lanes: lane *k* takes shards *k*,
    *k + N*, …, lane 0 in this process and the others in forked children,
    which inherit the trees (none is pickled).  A lane stops at its first
    failure; once every lane is joined, the lowest failing shard's error
    is raised — the class and message a one-lane build raises.  One lane
    while another thread lives: a fork keeps its locks, held for good.
    """
    lanes = 1 if threading.active_count() > 1 else min(len(chunks), available_cpus())

    def run(lane: int) -> Tuple[Dict[int, int], Optional[tuple]]:
        nodes: Dict[int, int] = {}
        for shard_id in range(lane, len(chunks), lanes):
            try:
                doc = DocumentCollection(chunks[shard_id], virtual_root_tag).doc
                path = os.path.join(directory, _shard_file_name(shard_id, epoch))
                save(doc, path, compression=_resolve_compression(compression, len(doc)))
            except ReproError as error:
                return nodes, (shard_id, type(error).__name__, str(error))
            nodes[shard_id] = len(doc)
        return nodes, None

    def child(lane: int, sender) -> None:  # pragma: no cover - a forked child
        gc.disable()  # a collection writes to inherited objects: their pages copy
        sender.send(run(lane))

    context = multiprocessing.get_context("fork")
    children = []
    for lane in range(1, lanes):
        receiver, sender = context.Pipe(duplex=False)
        process = context.Process(target=child, args=(lane, sender))
        process.start()
        sender.close()
        children.append((lane, process, receiver))
    outcomes = []
    try:
        outcomes.append(run(0))
    finally:
        for lane, process, receiver in children:
            with receiver:
                try:
                    outcomes.append(receiver.recv())
                except EOFError:  # it died first; its traceback is on stderr
                    outcomes.append(({}, (-1, "ReproError", f"build lane {lane} died")))
            process.join()
    failures = sorted(failure for _, failure in outcomes if failure is not None)
    if failures:
        _, name, message = failures[0]
        raise getattr(errors, name, ReproError)(message)
    return {shard: nodes for done, _ in outcomes for shard, nodes in done.items()}


def _split(items: list, parts: int) -> List[list]:
    """Contiguous split of ``items`` into ``parts`` non-empty chunks."""
    quotient, remainder = divmod(len(items), parts)
    chunks = []
    start = 0
    for index in range(parts):
        size = quotient + (1 if index < remainder else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


def _shard_file_name(shard_id: int, epoch: int) -> str:
    return f"shard-{shard_id:04d}.e{epoch:04d}.npz"


def _write_manifest(directory: str, manifest: dict) -> None:
    """Atomically (write + rename) persist the manifest."""
    path = os.path.join(directory, MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
    os.replace(tmp, path)
