"""Sharded, persistent document storage for the query service.

Footnote 1 of the paper gathers several documents under one virtual
root; a :class:`ShardedStore` keeps *several such planes* — shards —
each persisted as one ``.npz`` archive
(:mod:`repro.encoding.persist`, stored or deflated), plus a small JSON manifest recording
the epoch, the shard files, and which member documents live where.

The layout on disk::

    store/
      manifest.json            epoch, shard → file/documents mapping
      shard-0000.e0001.npz     one gathered pre/post plane per shard
      shard-0001.e0001.npz

Why it is shaped this way:

* a store is the **one shard opener** of its process: commits and
  lanes share its planes, each loaded once and read-only, so the plane
  a commit stages is the plane the next read runs on;
* shard files are **immutable**: every mutation writes *new* files (the
  epoch is part of the filename), flips the manifest once, then removes
  the old files — each once no live :class:`Snapshot` names it, so a
  batch reads one epoch on every lane, and every result-cache key
  minted against the old epoch is dead on arrival;
* a crash between writing new shard files and the manifest flip leaves
  the old manifest fully intact and merely strands the new files; the
  next commit sweeps them, under the directory lock it holds;
* a commit stages from the manifest on disk: under that lock it first
  adopts another process's newer commit, so it never writes over one;
  a read adopts one too, once ``manifest.json`` is no longer the file
  this store last read or wrote (one ``stat`` per snapshot);
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

import contextlib
import fcntl
import gc
import json
import multiprocessing
import os
import re
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro import errors
from repro.encoding.collection import DocumentCollection
from repro.encoding.persist import FORMAT_VERSION, describe_archive, load, save
from repro.errors import MissingShardError, ReproError, StoreNotFoundError
from repro.service.updates import UpdateOp
from repro.xmltree.model import Node

__all__ = ["ShardedStore", "Snapshot", "STORE_FORMAT", "COMPRESSION_SETTINGS", "AUTO_PACK_NODES"]

#: Version of the manifest schema (independent of the archive format).
STORE_FORMAT = 1

MANIFEST = "manifest.json"

#: ``compression=`` settings a store accepts.  ``auto`` packs a shard
#: when it crosses :data:`AUTO_PACK_NODES`; ``none``/``packed`` store or
#: deflate every shard's members unconditionally.  The setting persists in
#: the manifest and governs every later commit (``apply_updates`` re-packs
#: touched shards under the same policy).
COMPRESSION_SETTINGS = ("auto", "none", "packed")

#: ``auto`` threshold: shards at or above this node count are written
#: packed (deflated members).  Small shards gain little from packing and
#: map their stored members in place.
AUTO_PACK_NODES = 65536


def _resolve_compression(setting: str, nodes: int) -> str:
    """Map a store-level setting to a per-shard ``save`` compression."""
    if setting in ("packed", "none"):
        return setting
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
#: does not reference is a crash leftover the next commit sweeps.
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


class Snapshot:
    """One committed state of a store, as one batch reads it.

    :meth:`ShardedStore.snapshot` takes it under one hold of the store's
    lock: the manifest (epoch, each shard's file and members), document
    order and the store's planes of those files.  A plane it lacks loads
    from exactly the file it names, which the store unlinks no sooner
    than :meth:`release`.  A worker reads it through its own store
    (:meth:`ShardedStore.bind`).
    """

    def __init__(self, store, manifest, members=None, planes=None, pinned=False):
        self.store = store
        self.manifest = manifest  #: shared with the store, which replaces it, never edits it
        self.epoch: int = manifest["epoch"]
        self.members = members or {}  #: member name → shard id, in global (load) order
        self.entries = {entry["id"]: entry for entry in manifest["shards"]}
        self._planes: Dict[int, DocumentCollection] = dict(planes or {})
        self._pinned = pinned

    def shard_of(self, document: str) -> int:
        return _shard_of(self.members, document)

    def plane(self, shard_id: int) -> DocumentCollection:
        """The shard's plane as of this snapshot."""
        plane = self._planes.get(shard_id)
        if plane is None:
            if shard_id not in self.entries:
                raise ReproError(f"no shard {shard_id} in store {self.store.directory}")
            plane = self._planes[shard_id] = self.store._load(self.entries[shard_id])
        return plane

    def release(self) -> None:
        """Drop the planes; the store may unlink the files (idempotent)."""
        self._planes.clear()
        if self._pinned:
            self._pinned = False
            self.store._unpin(self.manifest)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class ShardedStore:
    """A directory of persisted document-collection shards.

    Build one with :meth:`build`, reopen it with :meth:`open`.  The
    constructor is internal — it trusts a parsed manifest.

    One store object may be shared by a query thread and an updating
    thread: mutation and manifest reads are serialised by an internal
    lock, a batch reads one :meth:`snapshot`, and the epoch in every
    result-cache key keeps the caches coherent.  Only :meth:`build` and
    the commit protocol write the directory: opening, querying and
    closing a store never do.
    """

    def __init__(self, directory: str, manifest: dict, signature: Optional[tuple] = None):
        self.directory = directory
        self._manifest = manifest  # guarded-by: _lock
        # (inode, mtime, size) of the manifest.json last read or written
        self._signature = signature  # guarded-by: _lock
        # shard id → (file, plane), only of files the manifest names
        self._collections: Dict[int, Tuple[str, DocumentCollection]] = {}  # guarded-by: _lock
        # file → live snapshots naming it (the last one unlinks it once superseded)
        self._readers: Dict[str, int] = {}  # guarded-by: _lock
        self._members = _members(manifest)  # guarded-by: _lock
        self._lock = threading.RLock()

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

        ``compression`` (``"auto"``/``"none"``/``"packed"``) selects how
        shard archives hold their members: ``packed`` deflates them,
        ``none`` stores them, and
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
        with _committing(directory):
            nodes = _write_shards(directory, chunks, virtual_root_tag, compression, epoch)
            entries = [
                {
                    "id": shard_id,
                    "file": _shard_file_name(shard_id, epoch),
                    "documents": [name for name, _ in chunk],
                    "nodes": nodes[shard_id],
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
            signature = _write_manifest(directory, manifest)
        return cls(directory, manifest, signature)

    @classmethod
    def open(cls, directory: str) -> "ShardedStore":
        """Open an existing store directory; shards load at first read.

        Reads the manifest and writes nothing.  A path that is no
        directory is a :class:`StoreNotFoundError`; a manifest that is
        not a JSON object with an integer ``epoch`` and a ``shards`` list
        of well-formed entries (:func:`_check_entry`) is a corrupt
        manifest.
        """
        return cls(directory, *_read_manifest(directory))

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
            entry = self._entry_locked(shard_id)
        if entry is None:
            raise ReproError(f"no shard {shard_id} in store {self.directory}")
        return entry

    def document_names(self) -> List[str]:
        """All member document names, in global (load) order."""
        with self._lock:
            return list(self._members)

    def shard_of(self, document: str) -> int:
        """Which shard holds ``document`` (O(1) via the name index)."""
        with self._lock:
            return _shard_of(self._members, document)

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
                "documents": len(self._members),
            }

    def info(self) -> dict:
        """Bytes-level report per shard.

        Backs the ``store info`` CLI verb.  Per shard: bytes on disk,
        archive format version, dictionary sizes, each member's stored
        (zip compress size) and logical bytes and their sums, and — when
        the shard plane is open in this process — its resident bytes per
        node.
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
                    "members": archive["members"],
                }
                for field in ("stored_bytes", "logical_bytes"):
                    record[field] = sum(m[field] for m in archive["members"].values())
                total_disk += archive["bytes_on_disk"]
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
                "documents": len(self._members),
                "total_bytes_on_disk": total_disk,
                "total_logical_bytes": total_logical,
                "shards": shards,
            }

    # ------------------------------------------------------------------
    # Shard access
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """The committed state a batch reads, its files kept until released:
        the newest on disk, adopted when ``manifest.json`` is no longer the
        file this store last read or wrote."""
        with self._lock:
            with contextlib.suppress(FileNotFoundError):  # a removed store serves what it holds
                if _signature(os.stat(os.path.join(self.directory, MANIFEST))) != self._signature:
                    self._reread_locked()
            for entry in self._manifest["shards"]:
                self._readers[entry["file"]] = self._readers.get(entry["file"], 0) + 1
            planes = {shard_id: plane for shard_id, (_, plane) in self._collections.items()}
            return Snapshot(self, self._manifest, self._members, planes, pinned=True)

    def bind(self, manifest: dict) -> Snapshot:
        """Another process's snapshot read through this store, whose manifest
        it becomes if newer (no file is read); planes load once per file."""
        with self._lock:
            if manifest["epoch"] > self._manifest["epoch"]:
                self._adopt_locked(manifest)
            return Snapshot(self, manifest)

    def read(self, reader):
        """``reader(snapshot)`` on one :meth:`snapshot`.  If another
        process's commit removed a file it names, the manifest is
        re-read once and ``reader`` runs again on a fresh snapshot."""
        try:
            with self.snapshot() as snapshot:
                return reader(snapshot)
        except MissingShardError:
            with self._lock:
                self._reread_locked()
        with self.snapshot() as snapshot:
            return reader(snapshot)

    def collection(self, shard_id: int) -> DocumentCollection:
        """The shard's plane as the manifest names it now (:meth:`read`)."""
        return self.read(lambda snapshot: snapshot.plane(shard_id))

    def _entry_locked(self, shard_id: int) -> Optional[dict]:
        return next((e for e in self._manifest["shards"] if e["id"] == shard_id), None)

    def _reread_locked(self) -> None:
        """Read ``manifest.json`` and adopt it if it is newer."""
        manifest, self._signature = _read_manifest(self.directory)
        if manifest["epoch"] > self._manifest["epoch"]:
            self._adopt_locked(manifest)

    def _adopt_locked(self, manifest: dict) -> None:
        """Make ``manifest`` current; drop planes of files it no longer names."""
        self._manifest = manifest
        live = {entry["file"] for entry in manifest["shards"]}
        self._collections = {
            shard_id: plane for shard_id, plane in self._collections.items()
            if plane[0] in live
        }
        self._members = _members(manifest)

    def _load(self, entry: dict) -> DocumentCollection:
        """The plane of one manifest entry, from exactly its file; cached
        as its shard's plane when this store's manifest names that file."""
        shard_id, file_name = entry["id"], entry["file"]
        path = os.path.join(self.directory, file_name)
        with self._lock:
            cached = self._collections.get(shard_id)
            if cached is not None and cached[0] == file_name:
                return cached[1]
            try:
                table = load(path, mmap=True)
            except FileNotFoundError:
                raise MissingShardError(
                    f"shard {shard_id}: {path} is named by the manifest but missing"
                ) from None
            plane = DocumentCollection.from_table(table, entry["documents"], self.virtual_root_tag)
            if entry in self._manifest["shards"]:
                self._collections[shard_id] = (file_name, plane)
            return _frozen(plane)

    def _unpin(self, manifest: dict) -> None:
        with self._lock:
            live = {entry["file"] for entry in self._manifest["shards"]}
            for entry in manifest["shards"]:
                name = entry["file"]
                self._readers[name] -= 1
                if not self._readers[name]:
                    del self._readers[name]
                    if name not in live:  # superseded meanwhile
                        _unlink(self.directory, name)

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
        with self._lock, self._writing_locked() as locked:
            self.shard_entry(shard_id)  # validates the id
            if not documents:
                raise ReproError("a shard needs at least one document")
            new_names = [name for name, _ in documents]
            others = {
                name for name, sid in self._members.items() if sid != shard_id
            }
            if len(set(new_names)) != len(new_names) or others & set(new_names):
                raise ReproError("document names must be unique across the store")
            collection = DocumentCollection(documents, self.virtual_root_tag)
            self._commit_locked({shard_id: collection}, locked)

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
        strands files the next commit sweeps).

        Only *touched* shards are staged and rewritten, each stored or
        deflated as the store's ``compression`` setting gives its new size;
        untouched shards are not opened.
        """
        if not ops:
            return {"epoch": self.epoch, "applied": 0, "shards": []}
        with self._lock, self._writing_locked() as locked:
            # shard id → staged plane (None = shard emptied by removals)
            staged: Dict[int, Optional[DocumentCollection]] = {}
            placement = dict(self._members)

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
            epoch = self._commit_locked(staged, locked)
            return {"epoch": epoch, "applied": len(ops), "shards": sorted(staged)}

    @contextlib.contextmanager
    def _writing_locked(self):
        """The directory's commit lock (:func:`_committing`), held from
        staging to the manifest flip, the manifest on disk adopted first
        when another process has committed since: a commit stages from
        the manifest it replaces.  Yields whether the lock is held."""
        assert self._lock._is_owned(), "the caller must hold _lock"
        with _committing(self.directory) as locked:
            self._reread_locked()
            yield locked

    def _commit_locked(
        self, staged: Dict[int, Optional[DocumentCollection]], locked: bool
    ) -> int:
        """Persist staged shard planes under the next epoch, atomically.

        Caller holds ``_lock`` and :meth:`_writing_locked` for its whole
        stage-validate-commit span.  Writes every new shard file first
        (a crash here leaves only sweepable orphans), then flips the
        manifest once — the commit point — then caches the staged planes
        under their new files and unlinks each shard file the manifest
        no longer names and no live snapshot of this store does; the
        last snapshot naming one unlinks it.  Only where the commit lock
        is ``locked`` does that sweep the whole directory (crash
        leftovers included); elsewhere it takes the files this commit
        superseded.
        """
        assert self._lock._is_owned(), "the caller must hold _lock"
        epoch = self.epoch + 1
        setting = self._manifest.get("compression", "none")
        old_files = []
        for shard_id, collection in staged.items():
            old_files.append(self.shard_entry(shard_id)["file"])
            if collection is not None:
                save(
                    collection.doc,
                    os.path.join(self.directory, _shard_file_name(shard_id, epoch)),
                    compression=_resolve_compression(setting, len(collection.doc)),
                )
        # The manifest is rebuilt as a copy and only swapped in after the
        # on-disk flip: a failed write leaves memory and disk agreeing on
        # the old epoch (and the new files as sweepable orphans).
        entries = []
        for entry in self._manifest["shards"]:
            shard_id = entry["id"]
            if shard_id not in staged:
                # An older manifest's per-shard "tags" / "height" were
                # planner statistics, its "format" the archive's version
                # (the archive says it); nothing reads them now.
                entries.append(
                    {k: v for k, v in entry.items() if k not in ("tags", "height", "format")}
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
                }
            )
        manifest = dict(self._manifest, shards=entries, epoch=epoch)
        # An older manifest may carry a "feedback" section; nothing reads
        # it, so it is not copied into the manifests written from here.
        manifest.pop("feedback", None)
        self._signature = _write_manifest(self.directory, manifest)
        self._manifest = manifest
        self._members = _members(manifest)
        for shard_id, collection in staged.items():
            if collection is None:
                self._collections.pop(shard_id, None)
            else:
                # The staged plane IS the new file's content — seed the
                # cache with it so the next read (or splice) skips the
                # reload; a later file flip still reloads as usual.
                self._collections[shard_id] = (
                    _shard_file_name(shard_id, epoch),
                    _frozen(collection),
                )
        named = {entry["file"] for entry in entries}
        swept = (
            [name for name in os.listdir(self.directory) if _SHARD_FILE.fullmatch(name)]
            if locked else old_files
        )
        for name in swept:
            if name not in named and name not in self._readers:  # else its last reader unlinks it
                _unlink(self.directory, name)
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


def _read_manifest(directory: str) -> Tuple[dict, tuple]:
    """The store's manifest, checked as :meth:`ShardedStore.open` says,
    and the :func:`_signature` of the file it was read from."""
    path = os.path.join(directory, MANIFEST)
    try:
        with open(path) as f:
            signature = _signature(os.fstat(f.fileno()))
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
    return manifest, signature


def _signature(stat: os.stat_result) -> tuple:
    """What tells one ``manifest.json`` from the next: every commit
    writes a new file and renames it into place."""
    return stat.st_ino, stat.st_mtime_ns, stat.st_size


@contextlib.contextmanager
def _committing(directory: str):
    """The commit lock — an exclusive ``flock`` on the directory's own
    descriptor, so no lock file — yielding whether it is held: not on a
    filesystem that cannot flock a directory (NFS: ``EBADF``), where a
    commit runs unlocked and sweeps only the files it superseded."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        yield False
        return
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
        except OSError:
            yield False
            return
        try:
            yield True
        finally:
            # Unlocked, not merely closed: a child forked meanwhile holds
            # a copy of the descriptor, and with it the lock.
            fcntl.flock(fd, fcntl.LOCK_UN)
    finally:
        os.close(fd)


def _members(manifest: dict) -> Dict[str, int]:
    """Member name → shard id, in global (load) order."""
    return {name: entry["id"] for entry in manifest["shards"] for name in entry["documents"]}


def _shard_of(members: Dict[str, int], document: str) -> int:
    try:
        return members[document]
    except KeyError:
        raise ReproError(f"no document named {document!r} in store") from None


def _unlink(directory: str, name: str) -> None:
    with contextlib.suppress(OSError):  # another process may race
        os.remove(os.path.join(directory, name))


def _frozen(collection: DocumentCollection) -> DocumentCollection:
    """Every column of a cached plane read-only: lanes and commits share
    it, so an in-place edit raises (splices build new arrays)."""
    doc = collection.doc
    for column in (
        doc.post, doc.level, doc.parent, doc.kind, doc.tag.codes,
        doc.values.codes, doc.values.blob, doc.values.offsets,
    ):
        column.flags.writeable = False
    return collection


def _write_manifest(directory: str, manifest: dict) -> tuple:
    """Atomically (write + rename) persist the manifest; its :func:`_signature`."""
    path = os.path.join(directory, MANIFEST)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(manifest, f, indent=1)
        f.flush()
        signature = _signature(os.fstat(f.fileno()))
    os.replace(tmp, path)
    return signature
