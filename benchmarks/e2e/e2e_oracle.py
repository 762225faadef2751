"""The correctness gate: reference answers and response checking.

The oracle is an in-process ``QueryService(engine="scalar",
backend="serial", planner=False)`` over an *uncompressed* store built
from the same forest — the slowest, simplest path through the program,
sharing neither the vectorized kernels, the planner, the codec nor the
HTTP layer with what is being measured.  Per query it keeps the total,
the per-document counts and one SHA-256 over the per-document rank
lists, so a 250 KB answer is checked without keeping a second copy.

Only base documents are compared: ``mixed_update`` adds and removes
private ``bench-*`` documents whose tags no pool query names, and its
replaces keep subtree size, so base ranks never move.
"""

from __future__ import annotations

import hashlib
import os
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.service import QueryService, ShardedStore

from e2e_workloads import SHARDS


class Answer(NamedTuple):
    total: int
    counts: Dict[str, int]
    digest: str


def digest_ranks(per_document: Mapping[str, Iterable[int]], names: Sequence[str]) -> str:
    """SHA-256 over ``names``' rank lists, in the order given."""
    sha = hashlib.sha256()
    for name in names:
        ranks = np.asarray(per_document.get(name, ()), dtype=np.int64)
        sha.update(name.encode("utf-8"))
        sha.update(len(ranks).to_bytes(8, "little"))
        sha.update(ranks.tobytes())
    return sha.hexdigest()


class Oracle:
    """Reference answers for one corpus."""

    def __init__(
        self,
        names: Sequence[str],
        answers: Dict[str, Answer],
        first_rank: Optional[Dict[str, int]] = None,
    ):
        self.names = list(names)
        self._base = frozenset(self.names)
        self.answers = answers
        #: document → first rank of ``rank_query`` (update splice points).
        self.first_rank = first_rank or {}

    @classmethod
    def build(
        cls,
        forest,
        queries: Sequence[str],
        directory: str,
        rank_query: Optional[str] = None,
    ) -> "Oracle":
        """Answer ``queries`` on a fresh uncompressed store in ``directory``.

        Raises ``ValueError`` when any answer is empty: timing a query
        that matches nothing measures nothing, and a spelling that
        silently stopped matching would otherwise go unnoticed.
        """
        store = ShardedStore.build(
            os.path.join(directory, "oracle-store"),
            forest,
            shards=SHARDS,
            compression="none",
        )
        names = store.document_names()
        answers: Dict[str, Answer] = {}
        with QueryService(
            store, engine="scalar", backend="serial", planner=False, feedback=False
        ) as service:
            for query in dict.fromkeys(queries):
                result = service.execute(query, use_cache=False)
                if result.total == 0:
                    raise ValueError(f"oracle answer for {query!r} is empty")
                answers[query] = Answer(
                    int(result.total),
                    result.counts(),
                    digest_ranks(result.per_document, names),
                )
            first_rank = {}
            if rank_query is not None:
                result = service.execute(rank_query, use_cache=False)
                first_rank = {
                    name: int(ranks[0])
                    for name, ranks in result.per_document.items()
                    if len(ranks)
                }
        return cls(names, answers, first_rank)

    # ------------------------------------------------------------------
    def check(self, payload: Mapping, query: str, mode: str, canonical: str = "") -> bool:
        """Does one ``result_to_payload`` dict (the answer to ``query``
        as sent) match the reference answer of its canonical spelling?"""
        answer = self.answers[canonical or query]
        if payload.get("query") != query or payload.get("mode") != mode:
            return False
        if mode == "exists":
            return payload.get("exists") is True and payload.get("total") == 1
        per_document = payload.get("per_document")
        if not isinstance(per_document, dict):
            return False
        extra = sum(
            (n if mode == "count" else len(n))
            for name, n in per_document.items()
            if name not in self._base
        )
        if payload.get("total") != answer.total + extra:
            return False
        if mode == "count":
            return all(per_document.get(n) == c for n, c in answer.counts.items())
        return digest_ranks(per_document, self.names) == answer.digest

    def check_response(self, payload: Mapping, checks: Sequence) -> bool:
        """A ``/query`` payload (one check) or a ``/batch`` payload."""
        if "results" in payload:
            results = payload["results"]
            return len(results) == len(checks) and all(
                self.check(r, *c) for r, c in zip(results, checks)
            )
        (check,) = checks
        return self.check(payload, *check)
