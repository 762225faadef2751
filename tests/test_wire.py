"""The wire encoder: every ``/query`` and ``/batch`` body, byte for byte.

The reference is the dict shape: ``encode_result(r)`` must equal
``json.dumps(result_to_payload(r)).encode()`` for the *same* result
object, whatever the mode, backend, document names or query text — and
the live property below checks it on the bodies a running server
actually sent.  Around it: every digit-count boundary, the array shapes
the backends hand over (empty, ``int32``, read-only views over a
mapping, strided), columns that straddle the encoder's chunks, and a
memory bound on a million-rank answer.
"""

import http.client
import json
import mmap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.queries import QUERY_SUITE
from repro.harness.workloads import get_forest
from repro.server import ServerConfig, ThreadedServer, app, result_to_payload, wire
from repro.server.wire import encode_batch, encode_result
from repro.service import QueryService, ShardedStore
from repro.service.service import ServiceResult

from _reference import random_tree

MODES = ("materialize", "count", "exists")


def result(per_document, mode="materialize", query="//a", elapsed_s=0.0012345):
    if mode == "materialize":
        total = sum(len(ranks) for ranks in per_document.values())
    elif mode == "count":
        total = sum(per_document.values())
    else:
        total, per_document = 1, {}
    return ServiceResult(
        query=query, engine="vectorized", per_document=per_document,
        total=total, from_cache=False, elapsed_s=elapsed_s, mode=mode,
    )


def reference(answer):
    return json.dumps(result_to_payload(answer)).encode()


def batch_reference(answers, elapsed_ms):
    payloads = [result_to_payload(answer) for answer in answers]
    return json.dumps({"results": payloads, "elapsed_ms": elapsed_ms}).encode()


def assert_ranks_spelled(values):
    """The body spells exactly ``values``, compared as decimal text."""
    ranks = np.asarray(values)
    body = encode_result(result({"d": ranks}))
    assert body == reference(result({"d": ranks}))
    spelled = ", ".join(str(v) for v in ranks.tolist())
    assert body.endswith(f'"per_document": {{"d": [{spelled}]}}}}'.encode())


# ----------------------------------------------------------------------
class TestDigits:
    BOUNDARIES = sorted(
        {0, 2**31 - 1, 2**63 - 1}
        | {10**k - 1 for k in range(1, 19)}
        | {10**k for k in range(0, 19)}
    )

    def test_every_digit_count_boundary(self):
        assert_ranks_spelled(np.array(self.BOUNDARIES, dtype=np.int64))
        for value in self.BOUNDARIES:
            assert_ranks_spelled(np.array([value], dtype=np.int64))

    def test_negatives(self):
        negatives = [-v for v in self.BOUNDARIES if v] + [-(2**63), -(2**63) + 1]
        assert_ranks_spelled(np.array(negatives, dtype=np.int64))
        mixed = np.array([5, -5, 0, -(2**63), 2**63 - 1, -10000, 9999], dtype=np.int64)
        assert_ranks_spelled(mixed)
        for value in negatives:
            assert_ranks_spelled(np.array([value, 7], dtype=np.int64))

    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_any_int64(self, values):
        assert_ranks_spelled(np.array(values, dtype=np.int64))


class TestShapes:
    def test_empty_columns_and_answers(self):
        empty = np.empty(0, dtype=np.int64)
        for per_document in (
            {},
            {"a": empty},
            {"a": empty, "b": np.array([3], dtype=np.int64), "c": empty},
        ):
            assert encode_result(result(per_document)) == reference(result(per_document))

    def test_int32_columns(self):
        answer = result({"a": np.arange(0, 70000, 7, dtype=np.int32)})
        assert encode_result(answer) == reference(answer)

    def test_read_only_views_over_a_mapping(self):
        """``np.frombuffer`` views at an offset into a foreign buffer
        (here a mapping), flagged read-only as the service flags every
        answer."""
        values = np.arange(5000, dtype=np.int64) * 37
        plane = mmap.mmap(-1, 8 + values.nbytes)
        plane[8:] = values.tobytes()
        view = np.frombuffer(plane, np.int64, len(values), 8)
        view.flags.writeable = False
        answer = result({"a": view, "b": view[10:20]})
        assert encode_result(answer) == reference(answer)
        del view, answer

    def test_strided_columns(self):
        grid = np.arange(3000, dtype=np.int64).reshape(1000, 3)
        answer = result({"a": grid[:, 1], "b": grid[::-7, 2], "c": grid.ravel()[::3]})
        assert encode_result(answer) == reference(answer)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_columns_straddling_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(wire, "_CHUNK", chunk)
        empty = np.empty(0, dtype=np.int64)
        per_document = {
            "a": np.arange(7, dtype=np.int64),
            "b": empty,
            "c": np.array([10**12], dtype=np.int64),
            "d": np.arange(-3, 11, dtype=np.int64),
        }
        answer = result(per_document)
        assert encode_result(answer) == reference(answer)
        answers = [answer, result({"e": 4}, "count"), answer]
        assert encode_batch(answers, 1.25) == batch_reference(answers, 1.25)

    def test_text_that_spells_a_hole_or_a_slot(self):
        """Names and queries holding ``[""]``, quotes, backslashes and
        ``\\x01`` are JSON strings: none of them is taken for a rank list."""
        names = ['[""]', '""]', '\\"', "\x01", "[\x01]", ""]
        ranks = np.arange(3, dtype=np.int64)
        answer = result({n: ranks for n in names}, query='//a[. = "[""]"]\x01')
        assert encode_result(answer) == reference(answer)
        assert encode_batch([answer, answer], 2.0) == batch_reference([answer, answer], 2.0)

    def test_batches_of_every_mode_mix(self):
        ranked = result({"ü☃": np.arange(12), "b": np.empty(0, dtype=np.int64)})
        counted = result({"a": 3, "b": 0}, "count")
        found = result({}, "exists")
        mixes = ([], [counted], [found, counted], [ranked], [counted, ranked, found, ranked])
        for answers in mixes:
            assert encode_batch(answers, 0.5) == batch_reference(answers, 0.5)

    def test_memory_bound_on_a_million_ranks(self):
        answer = result({"a": np.arange(1_000_000, dtype=np.int64)})
        tracemalloc.start()
        try:
            body = encode_result(answer)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert body == reference(answer)
        assert peak <= 3 * len(body), (peak, len(body))


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def suite_service(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("wire") / "store")
    ShardedStore.build(directory, get_forest(3, 0.05), shards=2)
    with QueryService(ShardedStore.open(directory), backend="serial") as service:
        yield service


def test_result_to_payload_matches_the_per_rank_definition(suite_service):
    """``ranks.tolist()`` answers exactly what ``[int(pre) for pre in
    ranks]`` did, on every suite query in every mode."""
    queries = [entry.xpath for entry in QUERY_SUITE]
    for mode in MODES:
        for answer in suite_service.execute_batch(queries, mode=mode, use_cache=False):
            payload = result_to_payload(answer)
            if mode == "materialize":
                assert payload["per_document"] == {
                    name: [int(pre) for pre in ranks]
                    for name, ranks in answer.per_document.items()
                }
            assert encode_result(answer) == json.dumps(payload).encode()


# ----------------------------------------------------------------------
class _Recorder:
    """Wraps the server's encoders; keeps (arguments, body) per call."""

    def __init__(self):
        self.calls = []

    def wrap(self, encode):
        def recorded(*args):
            body = encode(*args)
            self.calls.append((args, body))
            return body

        return recorded


def _post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        assert response.status == 200
        return response.read()
    finally:
        conn.close()


NAMES = st.text(
    alphabet=st.sampled_from("aé☃ü \"\\ \x01z𝄞"), min_size=1, max_size=5
)


@given(
    seeds=st.lists(st.integers(0, 500), min_size=1, max_size=3),
    size=st.integers(1, 40),
    names=st.lists(NAMES, min_size=3, max_size=3, unique=True),
    literal=st.text(alphabet=st.sampled_from("bé☃ü 𝄞"), max_size=4),
)
@settings(max_examples=6, deadline=None)
def test_served_bodies_equal_the_dict_encoding(
    seeds, size, names, literal, tmp_path_factory
):
    """Random forests with non-ASCII document names and queries,
    × materialize|count|exists × serial|fabric:2 × /query and /batch
    through a live server: every body the server sent is the encoder's
    output, and equals json.dumps of result_to_payload of the same
    result objects."""
    forest = [(names[i], random_tree(size, seed)) for i, seed in enumerate(seeds)]
    directory = str(tmp_path_factory.mktemp("wire-live") / "store")
    ShardedStore.build(directory, forest, shards=min(2, len(forest)))
    queries = ["//a", "//*", f'//b[. != "{literal}"] | //c', "//missing"]
    recorder = _Recorder()
    for backend in ("serial", "fabric:2"):
        with QueryService(ShardedStore.open(directory), backend=backend) as service, \
                mock.patch.object(app, "encode_result", recorder.wrap(encode_result)), \
                mock.patch.object(app, "encode_batch", recorder.wrap(encode_batch)), \
                ThreadedServer(service, ServerConfig(port=0)) as server:
            for mode in MODES:
                for query in queries:
                    body = _post(server.port, "/query", {"query": query, "mode": mode})
                    (answer,), sent = recorder.calls.pop()
                    assert body == sent == reference(answer)
                body = _post(server.port, "/batch", {"queries": queries, "mode": mode})
                (answers, elapsed_ms), sent = recorder.calls.pop()
                assert body == sent == batch_reference(answers, elapsed_ms)
            mixed = list(MODES) + ["materialize"]
            body = _post(server.port, "/batch", {"queries": queries, "mode": mixed})
            (answers, elapsed_ms), sent = recorder.calls.pop()
            assert [a.mode for a in answers] == mixed
            assert body == sent == batch_reference(answers, elapsed_ms)
        assert recorder.calls == []
