"""The live side: a server child process and closed-loop HTTP clients.

Everything is observed from outside the server — its responses, its
``/stats`` and ``/health`` endpoints, and ``/proc`` for memory and CPU.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from e2e_workloads import Request

HERE = os.path.dirname(os.path.abspath(__file__))
_CLK_TCK = os.sysconf("SC_CLK_TCK")

START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class Sample(NamedTuple):
    """One request as its client saw it."""

    kind: str  #: "read" or "update"
    sent_at: float
    done_at: float
    status: int  #: 0 = transport error
    ok: bool  #: status 200 and the answer matched the oracle
    response_bytes: int
    elapsed_ms: Optional[float]  #: the payload's own ``elapsed_ms`` (reads)
    from_cache: Optional[bool]

    @property
    def latency_s(self) -> float:
        return self.done_at - self.sent_at


class ServerChild:
    """One ``serve_child.py`` process, in its own process group."""

    def __init__(self, src: str, store: str, backend: str, log_path: str):
        self._argv = [
            sys.executable,
            os.path.join(HERE, "serve_child.py"),
            "--src", src,
            "--store", store,
            "--backend", backend,
        ]
        self._log_path = log_path
        self._process: Optional[subprocess.Popen] = None
        self._log = None
        self.port = 0

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def start(self) -> "ServerChild":
        """Spawn, read the port line, and poll ``/health`` until 200."""
        self._log = open(self._log_path, "ab")
        self._process = subprocess.Popen(
            self._argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            start_new_session=True,
        )
        deadline = time.monotonic() + START_TIMEOUT_S
        ready, _, _ = select.select([self._process.stdout], [], [], START_TIMEOUT_S)
        line = self._process.stdout.readline() if ready else b""
        if not line:
            self.stop(graceful=False)
            raise RuntimeError(f"server child did not start (see {self._log_path})")
        self.port = int(json.loads(line)["port"])
        while True:
            try:
                if self.get("/health").get("status") == "ok":
                    return self
            except (OSError, http.client.HTTPException):
                pass
            if time.monotonic() > deadline:
                self.stop(graceful=False)
                raise RuntimeError("server child never answered /health")
            time.sleep(0.01)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)

    def get(self, path: str) -> dict:
        connection = self.connect()
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise http.client.HTTPException(f"GET {path}: {response.status}")
            return json.loads(body)
        finally:
            connection.close()

    # ------------------------------------------------------------------
    # /proc readings over the child's session: itself and its fabric workers
    # ------------------------------------------------------------------
    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the process tree, in MB."""
        total_kb = 0
        for pid in _session_pids(self.pid):
            try:
                with open(f"/proc/{pid}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> float:
        """utime + stime of the process tree, in seconds."""
        ticks = 0
        for pid in _session_pids(self.pid):
            fields = _stat_fields(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
        return ticks / _CLK_TCK

    # ------------------------------------------------------------------
    def stop(self, graceful: bool = True) -> None:
        """End the child and its workers and wait until all are gone.

        ``graceful=False`` is ``kill -9`` of the whole process group with
        no drain — what the durability check needs.
        """
        process = self._process
        if process is None:
            return
        self._process = None
        try:
            if graceful and process.poll() is None:
                process.send_signal(signal.SIGTERM)
                try:
                    process.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            _reap_session(process.pid)
        finally:
            process.stdin.close()
            process.stdout.close()
            if self._log is not None:
                self._log.close()


def _reap_session(session: int) -> None:
    """Wait for every process left in a killed child's session: its
    fabric workers and resource tracker, orphans now.  This process
    adopted them (``adopt_orphans``), so it is the one that has to reap
    them: a zombie nobody waits for is still a process."""
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        left = _session_pids(session, zombies=True)
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass  # not ours (no subreaper): init reaps it
        if not left:
            return
        if time.monotonic() > deadline:
            raise RuntimeError(f"processes {left} outlived the server")
        time.sleep(0.005)


def adopt_orphans() -> None:
    """Make this process the one orphaned descendants are re-parented to
    (``PR_SET_CHILD_SUBREAPER``), so that ``ServerChild.stop`` and
    ``reap_children`` can wait for them instead of leaving them to init."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass  # ``stop`` then waits until init has reaped them


def reap_children() -> None:
    """Stop and wait for every process this one still has as a child:
    the ``multiprocessing`` resource tracker the in-process fabric replay
    starts, and anything an exception path left behind."""
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    me = os.getpid()
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while True:
        children = [pid for pid, fields in _processes(zombies=True) if int(fields[1]) == me]
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        if not children or time.monotonic() > deadline:
            return
        time.sleep(0.005)


def _stat_fields(pid: int, zombies: bool = False) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` after the command name (field 3 onward):
    index 1 is the parent, 3 the session id, 11 and 12 utime and stime.
    A zombie has no memory or CPU left to read, so it counts only when
    the caller asks whether the process has been waited for."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            data = f.read()
    except OSError:
        return None
    fields = data[data.rfind(")") + 2 :].split()
    return None if fields[0] == "Z" and not zombies else fields


def _processes(zombies: bool = False):
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry), zombies)
            if fields is not None:
                yield int(entry), fields


def _session_pids(session: int, zombies: bool = False) -> List[int]:
    return [pid for pid, fields in _processes(zombies) if int(fields[3]) == session]


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
def send(
    connection: http.client.HTTPConnection,
    request: Request,
    check: Callable[[dict, Request], bool],
) -> Sample:
    """One request on a persistent connection, timed around the wire
    only; parsing and checking the answer happen after the clock stops."""
    started = time.perf_counter()
    try:
        connection.request(
            "POST", request.path, request.body, {"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        connection.close()  # reconnects on the next request
        return Sample(request.kind, started, time.perf_counter(), 0, False, 0, None, None)
    done = time.perf_counter()
    ok = False
    elapsed_ms = from_cache = None
    if status == 200:
        try:
            payload = json.loads(body)
            ok = check(payload, request)
            elapsed_ms = payload.get("elapsed_ms")
            from_cache = payload.get("from_cache")
        except (ValueError, KeyError, TypeError, AttributeError):
            ok = False  # a malformed 200 is a wrong answer, not a harness crash
    return Sample(request.kind, started, done, status, ok, len(body), elapsed_ms, from_cache)


def run_clients(
    server: ServerChild,
    sequences: Sequence[Sequence[Request]],
    seconds: float,
    check: Callable[[dict, Request], bool],
) -> Dict[str, object]:
    """Closed loop: one thread and one connection per sequence; each
    sends its next request as soon as it has checked the previous
    answer, until ``seconds`` have passed.  Nothing else paces or aligns
    the clients: whether two ``/query`` requests share a coalesce window
    is the server's and the scheduler's business
    (``server.coalesce_mean_batch`` says how often they did).  Returns
    the samples per client and the window's start and end.
    """
    samples: List[List[Sample]] = [[] for _ in sequences]
    start = threading.Barrier(len(sequences) + 1)
    deadline = [0.0]
    finished = [False] * len(sequences)

    def client(index: int) -> None:
        connection = server.connect()
        try:
            sequence = sequences[index]
            mine = samples[index]
            start.wait(timeout=START_TIMEOUT_S)
            position = 0
            while time.perf_counter() < deadline[0]:
                mine.append(send(connection, sequence[position % len(sequence)], check))
                position += 1
            finished[index] = True
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(i,), name=f"e2e-client-{i}")
        for i in range(len(sequences))
    ]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    deadline[0] = started + seconds
    start.wait(timeout=START_TIMEOUT_S)
    for thread in threads:
        thread.join()
    if not all(finished):
        raise RuntimeError("a client thread died; its traceback is on stderr")
    ended = max(mine[-1].done_at for mine in samples if mine)
    return {"samples": samples, "started": started, "ended": max(ended, started + seconds)}
