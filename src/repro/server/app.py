"""The asyncio HTTP/JSON front door for a :class:`QueryService`.

Pure stdlib (``asyncio.start_server`` + hand-rolled HTTP/1.1): no
third-party runtime dependency, matching the rest of the repo.  The
request path is::

    connection → parse request → [draining? 503] → [rate limit? 429]
       → [admission queue full? 503] → dispatch lane
       → JSON response (admission slot released before the write)

Every ``/query``, ``/batch`` and ``/update`` runs its one service call
on a single dispatch thread, off the event loop: the engines hold the
GIL for a whole call, and the backend's lock serializes batches at
every lane count.  A ``/query`` is dispatched the moment it is admitted.

Endpoints
---------
``GET /health``
    Liveness: status (``ok``/``draining``), store epoch, uptime.
    Never rate-limited or queued — observable under any overload.
``GET /stats``
    The full statistics surface: server counters + per-endpoint
    latency histograms (p50/p99), admission queue depth + shed
    counts, and the service's consistent
    :meth:`~repro.service.service.QueryService.stats_snapshot` (epoch,
    cache hit rates).
``POST /query``
    One query: ``{"query": ..., "mode"?, "use_cache"?, "document"?}``
    (other fields, ``engine`` among them, are ignored: every query runs
    on the service's engine).  One ``execute`` call.
``POST /batch``
    An explicit batch: ``{"queries": [...], "mode"?}`` (one mode or
    one per query) — one ``execute_batch`` call, whose queries share
    operator prefixes.
``POST /update``
    ``{"ops": [...]}`` in the JSON ops-file format of
    :func:`~repro.service.updates.parse_ops`; applied atomically.

Protocol guarantees (the test suite pins each):

* **Backpressure, not backlog** — over-rate clients get 429 and a
  saturated server gets 503, both with ``Retry-After``, in O(1).
  ``X-Client-Id`` is advisory; rate enforcement anchors on the peer
  address with a per-peer backstop so rotating ids cannot bypass it.
* **One request, one answer** — each ``/query`` is its own service
  call, so a malformed query or unknown mode is a 400 for that request
  alone; concurrent requests never share a failure.
* **Slow clients cannot wedge the server** — header/body reads and
  response writes carry timeouts; a stalled peer costs one connection,
  never a dispatch lane or an admission slot.
* **Graceful shutdown drains** — the listener closes first (new
  connections refused), in-flight requests get their real responses,
  then connections close.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple, Union

from repro.errors import ReproError, XPathSyntaxError
from repro.server.admission import AdmissionQueue, RateLimiter, retry_after_header
from repro.server.stats import ServerStats
from repro.server.wire import encode_batch, encode_result
from repro.service.service import QueryService
from repro.service.updates import parse_ops

__all__ = ["QueryServer", "ServerConfig", "ThreadedServer"]

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}

_ENDPOINTS = ("/health", "/stats", "/query", "/batch", "/update")


@dataclass
class ServerConfig:
    """Tunables for one :class:`QueryServer` (CLI flags mirror these)."""

    host: str = "127.0.0.1"
    port: int = 8080  #: 0 = OS-assigned (tests/bench)
    rate: float = 0.0  #: per-client requests/second; 0 disables
    burst: float = 16.0  #: per-client token-bucket burst
    peer_rate_factor: float = 4.0  #: per-peer backstop = this × rate/burst
    queue_limit: int = 64  #: admitted-but-unanswered cap; 0 disables
    retry_after_s: float = 1.0  #: advisory backoff for 503 sheds
    header_timeout_s: float = 10.0  #: slow-client guard (request head)
    body_timeout_s: float = 10.0  #: slow-client guard (request body)
    write_timeout_s: float = 10.0  #: slow-client guard (response write)
    max_body_bytes: int = 8 << 20
    drain_timeout_s: float = 10.0  #: shutdown bound on in-flight drain


class _Request(NamedTuple):
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes
    keep_alive: bool


class _HttpError(Exception):
    """A request outcome that is an HTTP status, not a traceback."""

    def __init__(self, status: int, message: str, headers: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.headers = dict(headers or {})


class QueryServer:
    """Serve one :class:`QueryService` over HTTP/JSON (asyncio, stdlib).

    The server does not own the service: callers build, enter, and
    close the :class:`QueryService` themselves (the CLI wraps both).
    """

    def __init__(self, service: QueryService, config: Optional[ServerConfig] = None):
        self.service = service
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        self.limiter = RateLimiter(
            self.config.rate,
            self.config.burst,
            peer_factor=self.config.peer_rate_factor,
        )
        self.admission = AdmissionQueue(
            self.config.queue_limit, self.config.retry_after_s
        )
        # One blocking-dispatch thread: service calls serialize on the
        # backend's lock anyway (lane 0's ShardWorkerState runs one batch
        # at a time at every lane count), and the engines hold the GIL.
        self._dispatcher = ThreadPoolExecutor(
            max_workers=1,
            thread_name_prefix="repro-dispatch",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._active = 0
        self._draining = False
        self._shutdown_done = False
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting (resolves ``port`` for port 0)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        with contextlib.suppress(asyncio.CancelledError):
            await self._server.serve_forever()

    async def serve(self) -> None:
        """CLI entry: start, run until SIGINT/SIGTERM, drain, return."""
        import signal

        await self.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stop.set)
        print(
            f"serving {self.service.store.directory} on "
            f"http://{self.config.host}:{self.port} "
            f"(queue limit {self.config.queue_limit}, "
            f"rate {self.config.rate:g}/s)",
            file=sys.stderr,
            flush=True,
        )
        await stop.wait()
        print("draining...", file=sys.stderr, flush=True)
        await self.shutdown()
        print("server stopped", file=sys.stderr, flush=True)

    async def shutdown(self) -> None:
        """Graceful shutdown: refuse new work, drain in-flight, close.

        Order matters: (1) close the listener so new connections are
        refused at the socket; (2) mark draining so requests already on
        kept-alive connections shed with 503; (3) wait for active
        handlers — each admitted request is already on the dispatch
        lane — to write their real responses (bounded by
        ``drain_timeout_s``); (4) close lingering idle connections and
        the dispatch pool.  Idempotent.
        """
        if self._shutdown_done:
            return
        self._shutdown_done = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_timeout_s
        while self._active > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.005)
        for writer in list(self._writers):
            writer.close()
        # Let connection handlers observe the closed transports and
        # finish; a task still pending at loop teardown would be
        # cancelled mid-cleanup and logged as a CancelledError.
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._dispatcher.shutdown(wait=True)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connection_opened()
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.TimeoutError:
                    break  # slow client: reclaim the connection
                except _HttpError as error:
                    with contextlib.suppress(ConnectionError, asyncio.TimeoutError):
                        await self._write(
                            writer,
                            error.status,
                            {"error": str(error)},
                            error.headers,
                            keep_alive=False,
                        )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if request is None:
                    break  # clean EOF between requests
                started = time.perf_counter()
                self._active += 1
                try:
                    status, payload, headers, keep_alive = await self._route(
                        request, writer
                    )
                    try:
                        await self._write(
                            writer, status, payload, headers, keep_alive
                        )
                    except (ConnectionError, asyncio.TimeoutError):
                        keep_alive = False  # client went away mid-response
                finally:
                    self._active -= 1
                    label = (
                        request.path if request.path in _ENDPOINTS else "other"
                    )
                    self.stats.record_response(
                        label, status, time.perf_counter() - started
                    )
                if not keep_alive:
                    break
        finally:
            self._writers.discard(writer)
            self.stats.connection_closed()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one HTTP/1.1 request; ``None`` on clean EOF.

        Raises ``asyncio.TimeoutError`` for stalled peers and
        :class:`_HttpError` for malformed/oversized requests.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), self.config.header_timeout_s
            )
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise _HttpError(400, "truncated request head") from error
        except asyncio.LimitOverrunError as error:
            raise _HttpError(431, "request head too large") from error
        try:
            lines = head.decode("latin-1").split("\r\n")
            method, target, _version = lines[0].split(" ", 2)
        except ValueError as error:
            raise _HttpError(400, "malformed request line") from error
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            # Only Content-Length bodies are supported.  Silently
            # ignoring a chunked body would leave the chunk bytes in the
            # stream to be misread as the next request head on this
            # kept-alive connection — reject and close instead.
            raise _HttpError(
                501, "Transfer-Encoding is not supported; send Content-Length"
            )
        length = headers.get("content-length", "0")
        try:
            length = int(length)
        except ValueError as error:
            raise _HttpError(400, "bad Content-Length") from error
        if length > self.config.max_body_bytes:
            raise _HttpError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self.config.body_timeout_s
                )
            except asyncio.IncompleteReadError as error:
                raise _HttpError(400, "truncated request body") from error
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        path = target.split("?", 1)[0]
        return _Request(method.upper(), path, headers, body, keep_alive)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Union[dict, bytes],
        headers: Optional[dict],
        keep_alive: bool,
    ) -> None:
        body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)  # a large answer is not copied into the head
        await asyncio.wait_for(writer.drain(), self.config.write_timeout_s)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> Tuple[int, Union[dict, bytes], dict, bool]:
        """Dispatch one parsed request; never raises."""
        try:
            if request.path == "/health":
                self._require_method(request, "GET")
                return 200, self._health_payload(), {}, request.keep_alive
            if request.path == "/stats":
                self._require_method(request, "GET")
                return 200, self._stats_payload(), {}, request.keep_alive
            if request.path not in _ENDPOINTS:
                raise _HttpError(404, f"no such endpoint: {request.path}")
            self._require_method(request, "POST")
            if self._draining:
                self.stats.record_shed("draining")
                raise _HttpError(
                    503,
                    "server is draining",
                    {"Retry-After": retry_after_header(self.config.retry_after_s)},
                )
            shed = self._admit(request, writer)
            if shed is not None:
                raise shed
            try:
                if request.path == "/query":
                    payload = await self._handle_query(request)
                elif request.path == "/batch":
                    payload = await self._handle_batch(request)
                else:
                    payload = await self._handle_update(request)
            finally:
                # Release before the response write: a slow reader may
                # stall for seconds and must not pin an admission slot.
                self.admission.leave()
            return 200, payload, {}, request.keep_alive
        except _HttpError as error:
            keep = request.keep_alive and error.status in (404, 405, 400, 429, 503)
            return error.status, {"error": str(error)}, error.headers, keep
        except XPathSyntaxError as error:
            message = str(error).strip().splitlines()[0]
            return 400, {"error": message}, {}, request.keep_alive
        except ReproError as error:
            return 400, {"error": str(error)}, {}, request.keep_alive
        except Exception as error:  # noqa: BLE001  # repro: allow[REP007] - the 500 boundary: one bad handler must answer 500, not kill the connection loop
            print(
                f"server error on {request.method} {request.path}: "
                f"{type(error).__name__}: {error}",
                file=sys.stderr,
            )
            return 500, {"error": "internal server error"}, {}, False

    @staticmethod
    def _require_method(request: _Request, method: str) -> None:
        if request.method != method:
            raise _HttpError(
                405, f"{request.path} takes {method}", {"Allow": method}
            )

    def _admit(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> Optional[_HttpError]:
        """Rate-limit + admission gates; an ``_HttpError`` to shed."""
        peername = writer.get_extra_info("peername")
        peer = peername[0] if peername else "unknown"
        header = request.headers.get("x-client-id")
        # X-Client-Id is advisory: it subdivides fairness within one
        # peer but enforcement anchors on the peer address, which the
        # client cannot choose — ids are scoped to their peer and a
        # per-peer backstop bucket bounds id rotation.
        client = f"{peer}#{header}" if header else peer
        wait = self.limiter.admit(client, peer=peer if header else None)
        if wait > 0:
            self.stats.record_shed("rate_limited")
            return _HttpError(
                429,
                f"rate limit exceeded for client {client!r}",
                {"Retry-After": retry_after_header(wait)},
            )
        if not self.admission.try_enter():
            self.stats.record_shed("queue_full")
            return _HttpError(
                503,
                "admission queue full",
                {"Retry-After": retry_after_header(self.admission.retry_after_s)},
            )
        return None

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _json_body(self, request: _Request) -> dict:
        try:
            body = json.loads(request.body.decode("utf-8") or "null")
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise _HttpError(400, f"request body is not valid JSON: {error}")
        if not isinstance(body, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return body

    @staticmethod
    def _field(body: dict, name: str, kind, required: bool = False, default=None):
        value = body.get(name, default)
        if value is None and not required:
            return default
        if value is None or not isinstance(value, kind):
            raise _HttpError(400, f"field {name!r} must be a {kind.__name__}")
        return value

    async def _run(self, fn):
        """Run one blocking service call on the dispatch lane."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._dispatcher, fn)

    async def _handle_query(self, request: _Request) -> bytes:
        body = self._json_body(request)
        query = self._field(body, "query", str, required=True)
        mode = self._field(body, "mode", str, default="materialize")
        document = self._field(body, "document", str)
        use_cache = self._field(body, "use_cache", bool, default=True)
        self.stats.record_query()
        result = await self._run(
            lambda: self.service.execute(
                query, document=document, use_cache=use_cache, mode=mode
            )
        )
        return encode_result(result)

    async def _handle_batch(self, request: _Request) -> bytes:
        body = self._json_body(request)
        queries = self._field(body, "queries", list, required=True)
        if not queries or not all(isinstance(q, str) for q in queries):
            raise _HttpError(400, "field 'queries' must be a non-empty "
                                  "list of strings")
        mode = body.get("mode", "materialize")
        # A list or dict inside the list cannot key the result cache.
        modes = mode if isinstance(mode, list) else [mode]
        if not all(isinstance(m, str) for m in modes):
            raise _HttpError(400, "field 'mode' must be a string or a list "
                                  "of strings")
        use_cache = self._field(body, "use_cache", bool, default=True)
        started = time.perf_counter()
        results = await self._run(
            lambda: self.service.execute_batch(queries, use_cache=use_cache, mode=mode)
        )
        elapsed_ms = round((time.perf_counter() - started) * 1e3, 3)
        return encode_batch(results, elapsed_ms)

    async def _handle_update(self, request: _Request) -> dict:
        body = self._json_body(request)
        raw_ops = self._field(body, "ops", list, required=True)
        ops = parse_ops(raw_ops)  # validates *before* taking the lane
        summary = await self._run(lambda: self.service.apply_updates(ops))
        return {
            "epoch": summary["epoch"],
            "applied": summary["applied"],
            "shards": list(summary["shards"]),
        }

    def _health_payload(self) -> dict:
        return {
            "status": "draining" if self._draining else "ok",
            "epoch": self.service.store.epoch,
            "documents": len(self.service.store.document_names()),
        }

    def _stats_payload(self) -> dict:
        return {
            "server": self.stats.snapshot(),
            "admission": {
                **self.admission.info(),
                "rate": self.limiter.rate,
                "burst": self.limiter.burst,
                "clients": self.limiter.clients(),
            },
            "service": self.service.stats_snapshot(),
        }


class ThreadedServer:
    """Run a :class:`QueryServer` on a private event-loop thread.

    Tests and in-process callers need a live server *and* a foreground
    thread to drive clients from; this wrapper owns the loop thread and
    exposes ``port``/``stop()``.  ``stop()`` performs the full graceful
    shutdown (drain, then join).
    """

    def __init__(self, service: QueryService, config: Optional[ServerConfig] = None):
        self.service = service
        self.config = config or ServerConfig(port=0)
        self.server: Optional[QueryServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    def start(self) -> "ThreadedServer":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="repro-server",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise self._error
        if self.server is None or self.server.port is None:
            raise ReproError("server failed to start within 30s")
        return self

    async def _main(self) -> None:
        try:
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            self.server = QueryServer(self.service, self.config)
            await self.server.start()
        except BaseException as error:  # noqa: BLE001  # repro: allow[REP007] - startup failures (incl. KeyboardInterrupt) must cross threads and re-raise in start()
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self.server.shutdown()
        # The drain is complete — no dispatch can still be in flight —
        # so release the service's execution backend (its worker
        # processes) before the loop stops.
        self.service.close()

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain in-flight work, then join the loop."""
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
