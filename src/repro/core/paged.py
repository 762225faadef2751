"""The paged plane: a compressed shard the join kernels stream over.

A :class:`PagedPlane` is what :func:`repro.encoding.persist.load` hands
back for a packed archive opened with ``mmap=True``: every stored
column (``level``, ``kind`` and the two code columns) is a
:class:`~repro.encoding.codec.PagedArray` over the mmap'd packed blobs,
decoding one fixed-height page block on first touch; ``post`` and
``parent`` are dense arrays derived from ``level`` at open and are not
part of the plane.

The staircase join's skipping (Algorithms 3/4) composes with paging for
free: a skipped ``(pre, post)`` range is a range of page blocks whose
decode never runs — and, cold, whose backing bytes are never faulted in
from disk.  The vectorized kernels need no changes at all, because they
touch columns only through gathers, windowed slices, and scalar reads —
exactly the access shapes ``PagedArray`` serves block by block.

The plane also carries the decode accounting ``store info`` reports:
blocks/bytes decoded per column and packed bytes.
"""

from __future__ import annotations

from typing import Dict

from repro.encoding.codec import PagedArray, PlaneStats

__all__ = ["PagedPlane"]


class PagedPlane:
    """Bookkeeping face of a paged (compressed, mmap'd) document table.

    Attributes
    ----------
    path:
        The backing packed archive (must outlive the plane).
    page_size:
        Values per page block (power of two).
    nodes:
        Logical column length.
    columns:
        ``column name → PagedArray`` for every packed column.
    stats:
        ``column name → PlaneStats`` decode counters, shared with the
        arrays in ``columns``.
    """

    __slots__ = (
        "path",
        "page_size",
        "nodes",
        "columns",
        "stats",
    )

    def __init__(
        self,
        path: str,
        page_size: int,
        nodes: int,
        columns: Dict[str, PagedArray],
        stats: Dict[str, PlaneStats],
    ):
        self.path = path
        self.page_size = page_size
        self.nodes = nodes
        self.columns = columns
        self.stats = stats

    # -- accounting ----------------------------------------------------
    def column_stats(self) -> Dict[str, dict]:
        """Per-column decode/packing counters (``store info``)."""
        report: Dict[str, dict] = {}
        for name, array in self.columns.items():
            stat = self.stats[name]
            report[name] = {
                "pages": array.directory.n_blocks,
                "packed_bytes": array.packed_bytes,
                "logical_bytes": array.nbytes,
                "blocks_decoded": stat.blocks_decoded,
                "bytes_decoded": stat.bytes_decoded,
                "full_decodes": stat.full_decodes,
            }
        return report

    def totals(self) -> dict:
        """Plane-wide decode/packing totals."""
        per_column = self.column_stats()
        return {
            "pages": sum(c["pages"] for c in per_column.values()),
            "packed_bytes": sum(c["packed_bytes"] for c in per_column.values()),
            "logical_bytes": sum(c["logical_bytes"] for c in per_column.values()),
            "blocks_decoded": sum(
                c["blocks_decoded"] for c in per_column.values()
            ),
            "bytes_decoded": sum(
                c["bytes_decoded"] for c in per_column.values()
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PagedPlane(nodes={self.nodes}, page_size={self.page_size}, "
            f"columns={sorted(self.columns)})"
        )
