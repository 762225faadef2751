"""Batches as ``QueryService`` sends them: compiled plans only."""

from repro.xpath.pipeline import compile_plan


def compiled(items):
    """``run_batch`` items ``(query, engine, document, mode)`` with each
    query string compiled — scoped when the item names a document, the
    way ``QueryService`` compiles it before any dispatch."""
    return [
        (compile_plan(query, scoped=document is not None), engine, document, mode)
        for query, engine, document, mode in items
    ]
