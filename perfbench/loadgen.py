"""The ``serve`` workload's server process and open-loop load generator.

:class:`ServerProcess` starts ``repro serve --transport http`` on an
OS-picked port and times set-up from spawn to the first ``GET /info``
answered.  :func:`open_loop` sends a request stream on its schedule
over a few keep-alive connections, pipelining when a connection is
still busy, so a slow answer never delays the next send.  Each
request is timed from the moment it was due, which charges a stall
of the server or of the generator to every request it delays; how
late the generator itself sent is reported separately.
"""

from __future__ import annotations

import asyncio
import collections
import json
import os
import pathlib
import re
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: Seconds a server may take to start, and a request to be answered.
START_TIMEOUT_S = 120.0
ANSWER_TIMEOUT_S = 10.0

#: Grace after the last due time before outstanding requests count as
#: a growing backlog.
BACKLOG_GRACE_S = 1.0

#: The loop's timers wake up to a millisecond late (epoll rounds its
#: timeout up), so the generator sleeps until this long before a due
#: time and polls the loop from there.
SPIN_S = 0.002

_READY = re.compile(r"serving design space on http://([0-9.]+):(\d+)")


def _http_request(method: str, target: str, body: bytes = b"") -> bytes:
    return (f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _read_response(sock_file) -> dict:
    """One HTTP response from a blocking socket file; its JSON body."""
    status = sock_file.readline()
    if not status:
        raise ConnectionError("server closed the connection")
    length = 0
    while True:
        line = sock_file.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _sep, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    return json.loads(sock_file.read(length))


class ServerProcess:
    """One ``repro serve --quick --transport http`` subprocess."""

    def __init__(self, root: pathlib.Path, env: dict, log_path: pathlib.Path
                 ) -> None:
        self.root = root
        self.env = env
        self.log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.info: dict | None = None

    def start(self) -> float:
        """Spawn the server; seconds until ``GET /info`` was answered."""
        spawned = time.perf_counter()
        with self.log_path.open("ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--quick",
                 "--transport", "http", "--host", "127.0.0.1",
                 "--port", "0"],
                cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL)
        self.address = self._await_address(spawned + START_TIMEOUT_S)
        with socket.create_connection(self.address, timeout=30) as sock:
            sock.sendall(_http_request("GET", "/info"))
            self.info = _read_response(sock.makefile("rb"))
        return time.perf_counter() - spawned

    def _await_address(self, deadline: float) -> tuple[str, int]:
        assert self.proc is not None and self.proc.stdout is not None
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        buffered = b""
        try:
            while time.perf_counter() < deadline:
                if not selector.select(timeout=1.0):
                    if self.proc.poll() is not None:
                        break
                    continue
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _READY.search(buffered.decode(errors="replace"))
                if match:
                    return match.group(1), int(match.group(2))
        finally:
            selector.close()
        log = self.log_path.read_text(errors="replace")[-2000:]
        raise RuntimeError(f"server did not start; stdout {buffered!r}, "
                           f"stderr {log!r}")

    def _proc_file(self, name: str) -> str:
        assert self.proc is not None
        return pathlib.Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server has used so far."""
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])  # utime, stime
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """The server's resident-set high-water mark (VmHWM) [MiB]."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        """Terminate the server and wait until it has exited.

        SIGTERM rather than SIGINT: a process started from a background
        shell job inherits SIGINT as ignored.
        """
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def ask(address: tuple[str, int], requests: list[dict]) -> list[dict]:
    """Send requests one at a time on one connection; their answers."""
    answers = []
    with socket.create_connection(address, timeout=60) as sock:
        stream = sock.makefile("rb")
        for request in requests:
            sock.sendall(_http_request("POST", "/query",
                                       json.dumps(request).encode()))
            answers.append(_read_response(stream))
    return answers


@dataclass
class Session:
    """Timestamps of one open-loop session (``time.perf_counter``)."""

    due: list[float]
    sent: list[float | None]
    answered: list[float | None]
    bodies: list[bytes | None]
    outstanding: int = 0
    backlog: int = 0
    start: float = 0.0
    end: float = 0.0
    errors: list[str] = field(default_factory=list)

    def latency_s(self, i: int) -> float | None:
        """Due-to-answer seconds of request ``i`` (None if unanswered)."""
        answered = self.answered[i]
        return None if answered is None else answered - self.due[i]

    def late_s(self) -> list[float]:
        """How late each sent request left the generator [s]."""
        return [s - d for s, d in zip(self.sent, self.due) if s is not None]


async def _read_answers(reader: asyncio.StreamReader, pending, session,
                        done: asyncio.Event) -> None:
    while True:
        status = await reader.readline()
        if not status:
            return
        length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        body = await reader.readexactly(length)
        now = time.perf_counter()
        i = pending.popleft()
        session.answered[i] = now
        session.bodies[i] = body
        session.outstanding -= 1
        if session.outstanding == 0:
            done.set()


async def _open_loop(address, payloads: list[bytes], offsets: list[float],
                     connections: int) -> Session:
    n = len(payloads)
    conns = [await asyncio.open_connection(*address)
             for _ in range(connections)]
    pending = [collections.deque() for _ in conns]
    start = time.perf_counter() + 0.05
    session = Session(due=[start + o for o in offsets], sent=[None] * n,
                      answered=[None] * n, bodies=[None] * n,
                      outstanding=n, start=start)
    done = asyncio.Event()
    readers = [asyncio.create_task(
        _read_answers(reader, pending[k], session, done))
        for k, (reader, _writer) in enumerate(conns)]
    try:
        for i, payload in enumerate(payloads):
            due = session.due[i]
            delay = due - SPIN_S - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due:
                await asyncio.sleep(0)  # poll: answers keep being read
            k = i % connections
            writer = conns[k][1]
            pending[k].append(i)
            writer.write(payload)
            session.sent[i] = time.perf_counter()
            await writer.drain()
        last_due = session.due[-1] if n else start
        grace = last_due + BACKLOG_GRACE_S - time.perf_counter()
        if grace > 0 and not done.is_set():
            try:
                await asyncio.wait_for(done.wait(), grace)
            except asyncio.TimeoutError:
                pass
        session.backlog = session.outstanding
        if not done.is_set():
            try:
                await asyncio.wait_for(done.wait(), ANSWER_TIMEOUT_S)
            except asyncio.TimeoutError:
                session.errors.append(
                    f"{session.outstanding} request(s) unanswered after "
                    f"{ANSWER_TIMEOUT_S:g} s")
        session.end = time.perf_counter()
    finally:
        for _reader, writer in conns:
            writer.close()
        for task in readers:
            task.cancel()
        for task, (_reader, writer) in zip(readers, conns):
            try:
                await task
            except (asyncio.CancelledError, ConnectionError,
                    asyncio.IncompleteReadError):
                pass
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    return session


def open_loop(address: tuple[str, int], requests: list[dict],
              offsets_s: list[float], connections: int) -> Session:
    """Send ``requests[i]`` at ``offsets_s[i]`` after the start."""
    payloads = [_http_request("POST", "/query",
                              json.dumps(r).encode()) for r in requests]
    return asyncio.run(_open_loop(address, payloads, offsets_s, connections))
