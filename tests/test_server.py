"""Server suite: endpoints, concurrency, admission, faults, shutdown.

The headline property mirrors the service-layer ones: **the network
front door is transparent** — any mix of concurrent ``/query`` requests
answers byte-identically to per-request ``QueryService.execute`` (the
hypothesis sweep drives concurrent modes × ignored fields through a live
server).  Around it, the protocol contracts: backpressure
(429/503 + ``Retry-After``) instead of unbounded queueing, slow and
disconnecting clients costing a connection but never the server, mixed
query/update traffic staying epoch-consistent, and graceful shutdown
draining every in-flight request while refusing new connections.
"""

import contextlib
import http.client
import json
import os
import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.harness.workloads import get_forest
from repro.server import (
    AdmissionQueue,
    RateLimiter,
    ServerConfig,
    ThreadedServer,
    TokenBucket,
)
from repro.service import QueryService, ShardedStore

#: Execution backend the server suite runs against — the CI matrix sets
#: REPRO_BACKEND to cover serial and fabric with one suite.
BACKEND = os.environ.get("REPRO_BACKEND", "serial")

ENGINES = ("scalar", "vectorized")
MODES = ("materialize", "count", "exists")

#: Queries for the equivalence sweep — every axis family the engines
#: treat differently, plus empty-result and union shapes.
SUITE = (
    "//person",
    "//person/profile/interest",
    "/descendant::increase/ancestor::bidder",
    "//open_auction[bidder]/seller",
    "//bidder[1]",
    "//seller | //buyer",
    "//no_such_tag",
    "//person/attribute::id",
)


#: Hostile ``/update`` ops (JSON text; ``DOC`` is a member's name,
#: ``FILE`` a readable XML file on the server's disk) and what the 400
#: must name.
HOSTILE_OPS = [
    pytest.param('{"op": "delete", "document": DOC, "pre": "x"}', "ops[0].pre", id="pre-string"),
    pytest.param('{"op": "delete", "document": DOC, "pre": [1]}', "ops[0].pre", id="pre-list"),
    pytest.param('{"op": "delete", "document": DOC, "pre": 1e400}', "ops[0].pre", id="pre-overflow"),
    pytest.param('{"op": "delete", "document": DOC, "pre": true}', "ops[0].pre", id="pre-bool"),
    pytest.param('{"op": "delete", "document": DOC, "pre": 1.9}', "ops[0].pre", id="pre-float"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "before": "2", "text": "t"}',
                 "ops[0].before", id="before-string"),
    pytest.param('{"op": "add", "document": "fresh", "shard": true, "xml": "<a/>"}',
                 "ops[0].shard", id="shard-bool"),
    pytest.param('{"op": 5, "document": DOC}', "ops[0].op", id="op-number"),
    pytest.param('{"op": "remove", "document": ["x"]}', "ops[0].document", id="document-list"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "xml": 5}', "ops[0].xml",
                 id="xml-number"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "text": {"a": 1}}', "ops[0].text",
                 id="text-object"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "attribute": {"name": 7}}',
                 "ops[0].attribute.name", id="attribute-name-number"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "attribute": {"name": null}}',
                 'ops[0]: "attribute"', id="attribute-name-null"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, '
                 '"attribute": {"name": "id", "value": 7}}',
                 "ops[0].attribute.value", id="attribute-value-number"),
    pytest.param('{"op": "insert", "document": DOC, "pre": 1, "file": FILE}',
                 "unknown keys ['file']", id="file"),
]


# ----------------------------------------------------------------------
# Fixtures and helpers
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def forest():
    return get_forest(4, 0.05)


@pytest.fixture(scope="module")
def store_dir(forest, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("server") / "store")
    ShardedStore.build(directory, forest, shards=2)
    return directory


@pytest.fixture(scope="module")
def live(store_dir):
    """A module-wide read-only server (no limits)."""
    service = QueryService(ShardedStore.open(store_dir), backend=BACKEND)
    server = ThreadedServer(service, ServerConfig(port=0)).start()
    yield server
    server.stop()
    service.close()


@pytest.fixture(scope="module")
def reference(store_dir):
    """A direct (no-network) service over the same store."""
    with QueryService(ShardedStore.open(store_dir), backend=BACKEND) as service:
        yield service


def request(port, method, path, body=None, headers=None, timeout=15):
    """One HTTP exchange; returns ``(status, json payload, headers)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw or b"null"), dict(
            response.getheaders()
        )
    finally:
        conn.close()


@contextlib.contextmanager
def serving(directory, config=None, backend=BACKEND):
    """A per-test server over a private store/service."""
    service = QueryService(ShardedStore.open(directory), backend=backend)
    server = ThreadedServer(service, config or ServerConfig(port=0)).start()
    try:
        yield server
    finally:
        server.stop()
        service.close()


def hold_dispatch(service, seconds):
    """Make every ``execute`` hold the dispatch lane for ``seconds``
    first, so concurrent requests are still in flight when a test acts."""
    execute = service.execute

    def slow(*args, **kwargs):
        time.sleep(seconds)
        return execute(*args, **kwargs)

    service.execute = slow


def expected_payload(reference, query, mode="materialize", document=None):
    """What the wire payload must contain, from a direct execute."""
    result = reference.execute(query, document=document, use_cache=False, mode=mode)
    if mode == "exists":
        return {"total": result.total, "exists": result.exists}
    if mode == "count":
        return {
            "total": result.total,
            "per_document": {
                name: int(n) for name, n in result.per_document.items()
            },
        }
    return {
        "total": result.total,
        "per_document": {
            name: [int(pre) for pre in ranks]
            for name, ranks in result.per_document.items()
        },
    }


def assert_matches(payload, expected):
    for key, value in expected.items():
        assert payload[key] == value, key


# ----------------------------------------------------------------------
class TestEndpoints:
    def test_health(self, live):
        status, payload, _ = request(live.port, "GET", "/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["epoch"] == live.service.store.epoch
        assert payload["documents"] == 4

    def test_stats_surface(self, live):
        request(live.port, "POST", "/query", {"query": "//person"})
        status, payload, _ = request(live.port, "GET", "/stats")
        assert status == 200
        assert set(payload) == {"server", "admission", "service"}
        # benchmarks/e2e reads these three keys: every /query is a
        # batch of one.
        shim = payload["server"]["coalescer"]
        assert set(shim) == {"batches", "queries", "fallbacks"}
        assert shim["batches"] == shim["queries"] >= 1
        assert shim["fallbacks"] == 0
        assert payload["admission"]["depth"] == 0
        assert payload["admission"]["limit"] == 64
        assert payload["service"]["epoch"] == live.service.store.epoch
        assert "hits" in payload["service"]["result"]
        latency = payload["server"]["latency"]["/query"]
        assert latency["count"] >= 1
        assert latency["p99_ms"] >= latency["p50_ms"] >= 0

    @pytest.mark.parametrize("mode", MODES)
    def test_query_matches_direct(self, live, reference, mode):
        for query in ("//person", "//open_auction[bidder]/seller", "//nope"):
            status, payload, _ = request(
                live.port, "POST", "/query",
                {"query": query, "mode": mode, "use_cache": False},
            )
            assert status == 200
            assert payload["mode"] == mode
            assert_matches(payload, expected_payload(reference, query, mode=mode))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_engine_and_planner_fields_are_ignored(self, live, reference, engine):
        """``engine`` and ``use_planner`` left the API: a body from an
        older client that carries them is answered by the service's own
        engine, as if it did not."""
        for use_planner in (True, False):
            status, payload, _ = request(
                live.port, "POST", "/query",
                {"query": "//person/profile", "engine": engine,
                 "use_planner": use_planner, "use_cache": False},
            )
            assert status == 200
            assert payload["engine"] == "vectorized"
            assert_matches(payload, expected_payload(reference, "//person/profile"))

    def test_use_planner_field_is_ignored(self, live):
        """``use_planner`` left the API: a /query or /batch body that
        still carries it (any value, even a non-boolean) is answered
        exactly as the same body without it."""
        queries = ["//person/profile", "//open_auction[bidder]/seller"]

        def answers(payload):
            return [
                {k: v for k, v in result.items() if k != "elapsed_ms"}
                for result in payload.get("results", [payload])
            ]

        for path, body in (
            ("/query", {"query": queries[1], "use_cache": False}),
            ("/batch", {"queries": queries, "mode": "count", "use_cache": False}),
        ):
            status, plain, _ = request(live.port, "POST", path, body)
            assert status == 200
            for stale in (True, False, "yes"):
                status, payload, _ = request(
                    live.port, "POST", path, dict(body, use_planner=stale)
                )
                assert status == 200
                assert answers(payload) == answers(plain)

    def test_document_scoped_query(self, live, reference):
        name = live.service.store.document_names()[0]
        status, payload, _ = request(
            live.port, "POST", "/query",
            {"query": "//person", "document": name, "use_cache": False},
        )
        assert status == 200
        assert list(payload["per_document"]) == [name]
        assert_matches(
            payload, expected_payload(reference, "//person", document=name)
        )

    def test_batch_endpoint_mixed_modes(self, live, reference):
        queries = ["//person", "//person", "//person"]
        status, payload, _ = request(
            live.port, "POST", "/batch",
            {"queries": queries, "mode": list(MODES), "use_cache": False},
        )
        assert status == 200
        assert [r["mode"] for r in payload["results"]] == list(MODES)
        for result, mode in zip(payload["results"], MODES):
            assert_matches(
                result, expected_payload(reference, "//person", mode=mode)
            )

    def test_cache_round_trip(self, live):
        request(live.port, "POST", "/query", {"query": "//site/people"})
        status, payload, _ = request(
            live.port, "POST", "/query", {"query": "//site/people"}
        )
        assert status == 200 and payload["from_cache"] is True


class TestErrors:
    def test_unknown_endpoint(self, live):
        status, payload, _ = request(live.port, "GET", "/nope")
        assert status == 404 and "error" in payload

    def test_wrong_method(self, live):
        status, _, headers = request(live.port, "POST", "/health", {})
        assert status == 405 and headers["Allow"] == "GET"
        status, _, _ = request(live.port, "GET", "/query")
        assert status == 405

    def test_malformed_json(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=15)
        try:
            conn.request("POST", "/query", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 400
            assert "JSON" in payload["error"]
        finally:
            conn.close()

    def test_non_object_body(self, live):
        status, payload, _ = request(live.port, "POST", "/query", ["//a"])
        assert status == 400 and "object" in payload["error"]

    def test_missing_and_mistyped_fields(self, live):
        status, payload, _ = request(live.port, "POST", "/query", {})
        assert status == 400 and "'query'" in payload["error"]
        status, payload, _ = request(
            live.port, "POST", "/query", {"query": 7}
        )
        assert status == 400
        status, payload, _ = request(
            live.port, "POST", "/batch", {"queries": []}
        )
        assert status == 400
        for mode in ([["count"]], [{"mode": "count"}]):
            status, payload, _ = request(
                live.port, "POST", "/batch",
                {"queries": ["//person"], "mode": mode},
            )
            assert status == 400 and "'mode'" in payload["error"], mode
        status, payload, _ = request(
            live.port, "POST", "/update", {"ops": "not-a-list"}
        )
        assert status == 400

    def test_malformed_xpath_is_400(self, live):
        status, payload, _ = request(
            live.port, "POST", "/query", {"query": "//["}
        )
        assert status == 400 and "error" in payload
        # the connection/server both survive a syntax error
        assert request(live.port, "GET", "/health")[0] == 200

    @pytest.mark.parametrize("backend", ("serial", "fabric:2"))
    def test_4xx_bodies_are_one_line_errors_on_every_backend(
        self, store_dir, backend
    ):
        """A request that fails while evaluating (bad function arity,
        a scoped path that cannot start at a member root) is the same
        400 on every backend — never a worker traceback or file path —
        and a scoped union answers with its member's share."""
        with serving(store_dir, backend=backend) as server:
            name = server.service.store.document_names()[0]
            for body in (
                {"query": "//person[count(1)]"},
                {"query": "/ancestor::site", "document": name},
                {"query": "//["},
            ):
                status, payload, _ = request(server.port, "POST", "/query", body)
                assert status == 400, body
                assert "Traceback" not in payload["error"], body
                assert ".py" not in payload["error"], body
            union = {"query": "//seller | //buyer", "use_cache": False}
            _, whole, _ = request(server.port, "POST", "/query", union)
            status, scoped, _ = request(
                server.port, "POST", "/query", dict(union, document=name)
            )
            assert status == 200
            assert scoped["per_document"] == {name: whole["per_document"][name]}

    def test_unknown_mode_is_400(self, live):
        status, payload, _ = request(
            live.port, "POST", "/query", {"query": "//a", "mode": "tally"}
        )
        assert status == 400 and "mode" in payload["error"]

    def test_bad_update_op_is_400_and_applies_nothing(self, live):
        epoch = live.service.store.epoch
        status, payload, _ = request(
            live.port, "POST", "/update",
            {"ops": [{"op": "explode", "document": "x"}]},
        )
        assert status == 400
        assert live.service.store.epoch == epoch

    @pytest.mark.parametrize("op, field", HOSTILE_OPS)
    def test_hostile_update_op_is_400_on_a_live_connection(
        self, live, tmp_path, op, field
    ):
        """A mistyped field, or a ``"file"`` naming a server-side path,
        is a 400 naming the field: nothing is parsed from disk, nothing
        commits, and the connection serves the next request."""
        payload_file = tmp_path / "payload.xml"
        payload_file.write_text("<person/>")
        document = live.service.store.document_names()[0]
        body = '{"ops": [%s]}' % op.replace("DOC", json.dumps(document)).replace(
            "FILE", json.dumps(str(payload_file))
        )
        epoch = live.service.store.epoch
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=15)
        try:
            conn.request("POST", "/update", body=body)
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
            assert response.status == 400, error
            assert field in error
            assert response.getheader("Connection") == "keep-alive"
            sock = conn.sock
            conn.request("GET", "/health")
            health = conn.getresponse()
            assert health.status == 200 and json.loads(health.read())["status"] == "ok"
            assert conn.sock is sock  # the same connection answered
        finally:
            conn.close()
        assert live.service.store.epoch == epoch

    def test_oversized_content_length_is_413(self, live):
        raw = socket.create_connection(("127.0.0.1", live.port), timeout=15)
        try:
            raw.sendall(
                b"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            )
            response = raw.recv(4096)
            assert b"413" in response.split(b"\r\n", 1)[0]
        finally:
            raw.close()

    def test_chunked_transfer_encoding_is_rejected(self, live):
        """Chunked bodies are unsupported: honoring only Content-Length
        would leave the chunk bytes to be misparsed as the next request
        head on the kept-alive connection — reject and close instead."""
        raw = socket.create_connection(("127.0.0.1", live.port), timeout=15)
        try:
            raw.sendall(
                b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n"
            )
            chunks = b""
            with contextlib.suppress(OSError):
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break
                    chunks += chunk
            assert b"501" in chunks.split(b"\r\n", 1)[0]
        finally:
            raw.close()
        assert request(live.port, "GET", "/health")[0] == 200

    def test_oversized_header_is_431(self, live):
        raw = socket.create_connection(("127.0.0.1", live.port), timeout=15)
        try:
            raw.sendall(b"GET /health HTTP/1.1\r\nX-Junk: " + b"j" * 100_000)
            chunks = b""
            with contextlib.suppress(OSError):
                while True:
                    chunk = raw.recv(4096)
                    if not chunk:
                        break
                    chunks += chunk
            assert b"431" in chunks.split(b"\r\n", 1)[0]
        finally:
            raw.close()


# ----------------------------------------------------------------------
class TestConcurrentQueries:
    def test_good_and_bad_queries_each_get_their_own_answer(
        self, store_dir, reference
    ):
        """A malformed query or unknown mode among concurrent requests
        400s its own request only — the valid ones get the answer a
        direct ``execute`` gives."""
        with serving(store_dir) as server:
            jobs = [
                ({"query": "//person", "use_cache": False}, 200),
                ({"query": "//[", "use_cache": False}, 400),
                ({"query": "//bidder", "mode": "tally"}, 400),
                ({"query": "//bidder", "mode": "count",
                  "use_cache": False}, 200),
            ]
            outcomes = [None] * len(jobs)
            barrier = threading.Barrier(len(jobs))

            def client(i):
                barrier.wait()
                outcomes[i] = request(server.port, "POST", "/query", jobs[i][0])

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(jobs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for (body, expected), (status, payload, _) in zip(jobs, outcomes):
                assert status == expected, (body, payload)
            assert_matches(
                outcomes[0][1], expected_payload(reference, "//person")
            )
            assert_matches(
                outcomes[3][1],
                expected_payload(reference, "//bidder", mode="count"),
            )

    def test_every_query_is_one_dispatch_on_one_lane(self, store_dir):
        """Concurrent ``/query`` requests are never merged: each is its
        own ``execute`` call, and the lane runs them one at a time."""
        with serving(store_dir) as server:
            service = server.service
            execute = service.execute
            lock = threading.Lock()
            calls, running, peak = [], [0], [0]

            def tracked(query, **kwargs):
                with lock:
                    calls.append(query)
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    time.sleep(0.02)
                    return execute(query, **kwargs)
                finally:
                    with lock:
                        running[0] -= 1

            service.execute = tracked
            queries = ["//person", "//person/profile", "//open_auction",
                       "//item", "//bidder", "//seller"]
            outcomes = [None] * len(queries)
            barrier = threading.Barrier(len(queries))

            def client(i):
                barrier.wait()
                outcomes[i] = request(
                    server.port, "POST", "/query",
                    {"query": queries[i], "use_cache": False},
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(status == 200 for status, _, _ in outcomes)
            assert sorted(calls) == sorted(queries)
            assert peak[0] == 1
            _, stats, _ = request(server.port, "GET", "/stats")
            assert stats["server"]["coalescer"] == {
                "batches": len(queries), "queries": len(queries), "fallbacks": 0,
            }

    def test_a_failing_execute_is_a_500_for_its_request_only(
        self, store_dir, reference
    ):
        """An unexpected error inside ``execute`` answers 500 to the
        request that raised it; concurrent siblings get their real
        answers and the server keeps serving."""
        with serving(store_dir) as server:
            service = server.service
            execute = service.execute

            def flaky(query, **kwargs):
                if query == "//seller":
                    raise RuntimeError("injected execute failure")
                return execute(query, **kwargs)

            service.execute = flaky
            queries = ["//person", "//seller", "//item"]
            outcomes = [None] * len(queries)
            barrier = threading.Barrier(len(queries))

            def client(i):
                barrier.wait()
                outcomes[i] = request(
                    server.port, "POST", "/query",
                    {"query": queries[i], "use_cache": False},
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            status, payload, _ = outcomes[1]
            assert status == 500
            assert payload == {"error": "internal server error"}
            for i in (0, 2):
                status, payload, _ = outcomes[i]
                assert status == 200, payload
                assert_matches(payload, expected_payload(reference, queries[i]))
            assert request(server.port, "GET", "/health")[0] == 200
            status, payload, _ = request(
                server.port, "POST", "/query", {"query": "//person"}
            )
            assert status == 200
            assert_matches(payload, expected_payload(reference, "//person"))

    def test_use_cache_is_honoured_per_request(self, store_dir):
        """Concurrent requests for one query with different ``use_cache``
        flags each keep their own flag: only the caching ones hit."""
        with serving(store_dir) as server:
            warm = request(
                server.port, "POST", "/query", {"query": "//open_auction"}
            )
            assert warm[0] == 200 and warm[1]["from_cache"] is False
            flags = [True, False, True, False]
            outcomes = [None] * len(flags)
            barrier = threading.Barrier(len(flags))

            def client(i):
                barrier.wait()
                outcomes[i] = request(
                    server.port, "POST", "/query",
                    {"query": "//open_auction", "use_cache": flags[i]},
                )

            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(len(flags))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for flag, (status, payload, _) in zip(flags, outcomes):
                assert status == 200, payload
                assert payload["from_cache"] is flag
            _, stats, _ = request(server.port, "GET", "/stats")
            assert stats["service"]["result"]["hits"] == flags.count(True)


class TestConcurrentEquivalence:
    """Concurrent ``/query`` responses == per-request execute."""

    @given(
        jobs=st.lists(
            st.tuples(
                st.sampled_from(SUITE),
                st.sampled_from(MODES),
                st.sampled_from((None,) + ENGINES),
                st.sampled_from((None, True, False)),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=10, deadline=None)
    def test_concurrent_queries_equal_direct(self, live, reference, jobs):
        outcomes = [None] * len(jobs)
        barrier = threading.Barrier(len(jobs))

        def client(i):
            query, mode, engine, use_planner = jobs[i]
            body = {"query": query, "mode": mode, "use_cache": False}
            if engine is not None:
                body["engine"] = engine
            if use_planner is not None:
                body["use_planner"] = use_planner
            barrier.wait()
            outcomes[i] = request(live.port, "POST", "/query", body)

        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Stale engine / use_planner fields are ignored: they do not
        # change an answer.
        for (query, mode, _, _), (status, payload, _) in zip(jobs, outcomes):
            assert status == 200, payload
            assert_matches(payload, expected_payload(reference, query, mode=mode))


# ----------------------------------------------------------------------
class TestAdmission:
    def test_token_bucket_refills(self):
        bucket = TokenBucket(rate=10, burst=2)
        now = 100.0
        assert bucket.try_acquire(now) == 0.0
        assert bucket.try_acquire(now) == 0.0
        wait = bucket.try_acquire(now)
        assert wait == pytest.approx(0.1)
        assert bucket.try_acquire(now + wait) == 0.0

    def test_token_bucket_validates(self):
        with pytest.raises(ReproError):
            TokenBucket(rate=0, burst=1)

    def test_rate_limiter_isolates_clients(self):
        limiter = RateLimiter(rate=1, burst=1)
        assert limiter.admit("a") == 0.0
        assert limiter.admit("a") > 0.0
        assert limiter.admit("b") == 0.0  # an unrelated client is fine

    def test_rate_limiter_bounds_client_table(self):
        limiter = RateLimiter(rate=1, burst=1, max_clients=4)
        for i in range(40):
            limiter.admit(f"client-{i}")
        assert limiter.clients() <= 4

    def test_rotating_ids_bounded_by_peer_backstop(self):
        """Fresh client ids stop earning a fresh full burst each: every
        admitted request is also charged to the peer's backstop bucket."""
        limiter = RateLimiter(rate=1, burst=1, peer_factor=4)
        admitted = sum(
            1
            for i in range(40)
            if limiter.admit(f"peer#rot-{i}", peer="peer") == 0.0
        )
        assert 4 <= admitted <= 5  # ~peer_factor x burst, never 40
        # clients behind an unrelated peer are unaffected
        assert limiter.admit("other#steady", peer="other") == 0.0

    def test_over_rate_client_does_not_drain_peer_backstop(self):
        """The backstop is charged only for granted requests: one id
        hammering past its own rate cannot starve siblings behind the
        same peer address."""
        limiter = RateLimiter(rate=1, burst=1, peer_factor=4)
        for _ in range(50):
            limiter.admit("nat#spammy", peer="nat")
        assert limiter.admit("nat#calm", peer="nat") == 0.0

    def test_rotating_client_ids_get_429_from_server(self, store_dir):
        config = ServerConfig(port=0, rate=1, burst=1)
        with serving(store_dir, config) as server:
            codes = [
                request(
                    server.port, "POST", "/query",
                    {"query": "//person", "mode": "exists"},
                    headers={"X-Client-Id": f"rot-{i}"},
                )[0]
                for i in range(12)
            ]
            assert codes[0] == 200
            assert codes.count(429) >= 1  # rotation no longer bypasses

    def test_disabled_rate_limiter_admits_everything(self):
        limiter = RateLimiter(rate=0, burst=1)
        assert all(limiter.admit("x") == 0.0 for _ in range(100))

    def test_admission_queue_bounds_depth(self):
        queue = AdmissionQueue(limit=2)
        assert queue.try_enter() and queue.try_enter()
        assert not queue.try_enter()
        queue.leave()
        assert queue.try_enter()
        assert queue.info() == {"depth": 2, "limit": 2}

    def test_rate_limited_client_gets_429_with_retry_after(self, store_dir):
        config = ServerConfig(port=0, rate=2, burst=2)
        with serving(store_dir, config) as server:
            spam = [
                request(server.port, "POST", "/query",
                        {"query": "//person", "mode": "exists"},
                        headers={"X-Client-Id": "spammy"})
                for _ in range(6)
            ]
            codes = [status for status, _, _ in spam]
            assert 200 in codes and 429 in codes
            shed = next(h for status, _, h in spam if status == 429)
            assert int(shed["Retry-After"]) >= 1
            # another client is unaffected, and health is never limited
            status, _, _ = request(
                server.port, "POST", "/query",
                {"query": "//person", "mode": "exists"},
                headers={"X-Client-Id": "calm"},
            )
            assert status == 200
            assert request(server.port, "GET", "/health")[0] == 200
            _, stats, _ = request(server.port, "GET", "/stats")
            assert stats["server"]["shed"]["rate_limited"] >= 1

    def test_overload_sheds_503_without_deadlock(self, store_dir):
        """Beyond the admission bound the server answers 503 immediately
        — and keeps serving normally once the burst passes."""
        config = ServerConfig(port=0, queue_limit=1, retry_after_s=1)
        with serving(store_dir, config) as server:
            hold_dispatch(server.service, 0.3)
            outcomes = [None] * 6
            barrier = threading.Barrier(6)

            def client(i):
                barrier.wait()
                outcomes[i] = request(
                    server.port, "POST", "/query",
                    {"query": "//person", "use_cache": False},
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            codes = sorted(status for status, _, _ in outcomes)
            assert codes.count(200) >= 1
            assert codes.count(503) >= 1
            shed = next(h for status, _, h in outcomes if status == 503)
            assert int(shed["Retry-After"]) >= 1
            # the queue drained: a fresh request is served, not shed
            status, _, _ = request(
                server.port, "POST", "/query", {"query": "//person"}
            )
            assert status == 200
            _, stats, _ = request(server.port, "GET", "/stats")
            # every 503 was the admission bound, none a rate limit
            assert stats["server"]["shed"]["queue_full"] == codes.count(503)
            assert stats["admission"]["depth"] == 0


# ----------------------------------------------------------------------
class TestFaultInjection:
    def test_slow_client_times_out_without_blocking_others(self, store_dir):
        config = ServerConfig(port=0, header_timeout_s=0.4)
        with serving(store_dir, config) as server:
            stalled = socket.create_connection(
                ("127.0.0.1", server.port), timeout=15
            )
            try:
                stalled.sendall(b"POST /query HTTP/1.1\r\n")  # ...and stall
                # a healthy client is served while the slow one stalls
                assert request(server.port, "GET", "/health")[0] == 200
                # the server reclaims the stalled connection (EOF)
                stalled.settimeout(5)
                assert stalled.recv(1024) == b""
            finally:
                stalled.close()
            assert request(server.port, "GET", "/health")[0] == 200

    def test_client_disconnecting_mid_request_is_harmless(self, store_dir):
        with serving(store_dir) as server:
            for _ in range(3):
                gone = socket.create_connection(
                    ("127.0.0.1", server.port), timeout=15
                )
                body = json.dumps({"query": "//person", "use_cache": False})
                gone.sendall(
                    f"POST /query HTTP/1.1\r\nContent-Length: {len(body)}"
                    f"\r\n\r\n{body}".encode()
                )
                gone.close()  # vanish before the response
            time.sleep(0.2)
            status, payload, _ = request(
                server.port, "POST", "/query", {"query": "//person"}
            )
            assert status == 200 and payload["total"] > 0

    def test_mixed_query_update_traffic(self, forest, tmp_path):
        """Concurrent queries and updates: no errors, every response is
        a committed epoch's answer (per-client totals never regress)."""
        directory = str(tmp_path / "store")
        ShardedStore.build(directory, forest, shards=2)
        rounds = 6
        with serving(directory) as server:
            _, baseline, _ = request(
                server.port, "POST", "/query",
                {"query": "//person", "mode": "count"},
            )
            errors, totals = [], {i: [] for i in range(3)}
            done = threading.Event()

            def querier(i):
                try:
                    while not done.is_set():
                        status, payload, _ = request(
                            server.port, "POST", "/query",
                            {"query": "//person", "use_cache": False},
                        )
                        assert status == 200, payload
                        totals[i].append(payload["total"])
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=querier, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            base_epoch = None
            for i in range(rounds):
                status, payload, _ = request(
                    server.port, "POST", "/update",
                    {"ops": [{
                        "op": "insert", "document": "xmark-00", "pre": 1,
                        "xml": f"<person>mixed-{i}</person>",
                    }]},
                )
                assert status == 200 and payload["applied"] == 1
                base_epoch = payload["epoch"]
                time.sleep(0.01)
            done.set()
            for t in threads:
                t.join(timeout=30)
            assert not errors
            for series in totals.values():
                assert series == sorted(series)  # never a stale regression
            status, payload, _ = request(server.port, "GET", "/health")
            assert payload["epoch"] == base_epoch
            status, payload, _ = request(
                server.port, "POST", "/query",
                {"query": "//person", "use_cache": False},
            )
            # every round inserted exactly one <person>
            assert payload["total"] == baseline["total"] + rounds

    def test_update_through_server_bumps_epoch_and_results(self, forest, tmp_path):
        directory = str(tmp_path / "store")
        ShardedStore.build(directory, forest, shards=2)
        with serving(directory) as server:
            _, before, _ = request(
                server.port, "POST", "/query",
                {"query": "//person", "mode": "count"},
            )
            _, health_before, _ = request(server.port, "GET", "/health")
            status, summary, _ = request(
                server.port, "POST", "/update",
                {"ops": [{
                    "op": "add", "document": "fresh",
                    "xml": "<site><people><person/><person/></people></site>",
                }]},
            )
            assert status == 200
            assert summary["epoch"] == health_before["epoch"] + 1
            _, after, _ = request(
                server.port, "POST", "/query",
                {"query": "//person", "mode": "count"},
            )
            assert after["total"] == before["total"] + 2
            assert after["from_cache"] is False
            assert after["per_document"]["fresh"] == 2


# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_drains_in_flight_and_refuses_new(self, store_dir):
        """Requests still waiting on the dispatch lane at shutdown get
        their real answers; new connections are refused."""
        service = QueryService(ShardedStore.open(store_dir), backend=BACKEND)
        hold_dispatch(service, 0.25)
        server = ThreadedServer(service, ServerConfig(port=0)).start()
        port = server.port
        try:
            outcomes = [None] * 3

            def client(i):
                outcomes[i] = request(
                    port, "POST", "/query",
                    {"query": "//person/profile", "use_cache": False},
                )

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(3)
            ]
            for t in threads:
                t.start()
            time.sleep(0.08)  # requests are now admitted, held by the lane
            server.stop()  # graceful: drains before returning
            for t in threads:
                t.join(timeout=30)
            assert all(
                status == 200 and payload["total"] > 0
                for status, payload, _ in outcomes
            ), outcomes
            with pytest.raises(OSError):
                request(port, "GET", "/health", timeout=2)
        finally:
            server.stop()
            service.close()

    def test_request_while_draining_returns_503(self, store_dir):
        """A request on a kept-alive connection once shutdown has begun
        is a server-side drain: 503 + Retry-After, counted as shed."""
        with serving(store_dir) as server:
            server.server._draining = True
            status, payload, headers = request(
                server.port, "POST", "/query", {"query": "//person"}
            )
            assert status == 503, payload
            assert int(headers["Retry-After"]) >= 1
            assert server.server.stats.snapshot()["shed"]["draining"] == 1

    def test_shutdown_is_idempotent_and_stats_survive(self, store_dir):
        service = QueryService(ShardedStore.open(store_dir), backend=BACKEND)
        server = ThreadedServer(service, ServerConfig(port=0)).start()
        try:
            assert request(server.port, "GET", "/health")[0] == 200
            server.stop()
            server.stop()  # second stop is a no-op
            assert server.server.draining
        finally:
            service.close()
