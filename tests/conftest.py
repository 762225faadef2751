"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.encoding.prepost import encode
from repro.harness.workloads import figure1_document, figure1_table, get_document
from tools.analysis import lockgraph

from _reference import random_tree


@pytest.fixture(scope="session", autouse=True)
def lock_order_watchdog():
    """Opt-in deadlock hunting: ``REPRO_LOCKGRAPH=1 pytest ...``.

    Instruments ``threading.Lock``/``RLock`` for the whole session and
    fails at teardown if the threaded suites ever acquired two locks in
    inconsistent orders — a potential deadlock even when the timing
    never actually hung.  The CI ``analysis`` job runs the threaded
    suites under this flag.
    """
    if not lockgraph.enabled_by_env():
        yield None
        return
    graph = lockgraph.install()
    try:
        yield graph
    finally:
        lockgraph.uninstall()
        cycles = graph.cycles()
        if cycles:
            pytest.fail(
                "lock-order cycles detected:\n\n"
                + "\n\n".join(cycle.render() for cycle in cycles),
                pytrace=False,
            )


@pytest.fixture(scope="session")
def fig1_tree():
    """The 10-node document of Figure 1 (fresh tree per session)."""
    return figure1_document()


@pytest.fixture(scope="session")
def fig1_doc():
    """The encoded Figure 2 ``doc`` table."""
    return figure1_table()


@pytest.fixture(scope="session")
def small_xmark():
    """A small (~5k node) XMark instance shared across tests."""
    return get_document(0.1)


@pytest.fixture(scope="session")
def medium_xmark():
    """A medium (~23k node) XMark instance shared across tests."""
    return get_document(0.5)


@pytest.fixture(params=[1, 2, 3, 7, 20, 55, 150], ids=lambda s: f"seed{s}")
def random_document(request):
    """A (tree, doc_table) pair for a spread of random shapes."""
    tree = random_tree(n_nodes=40 + request.param * 7, seed=request.param)
    return tree, encode(tree)
