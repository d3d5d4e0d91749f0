"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

Stdlib asyncio only; it never imports the program under test.

Each request has a due time on a fixed schedule.  At its due time it is
written to the connection with the fewest unanswered requests, whether
or not earlier requests have been answered (the server answers
pipelined requests in order), so a stall delays every later request
instead of silently lowering the offered load.  Latency is measured
from the due time to the last byte of the response; the lag between
due time and actual write is reported separately.

An optional ``quiet()`` callback runs before the first request, at
most every ``QUIET_EVERY_S`` seconds while no request is in flight and
the next is not due within ``QUIET_GAP_S``, and once after the last
response; the benchmark uses it to have the server time a reference
slice while it has nothing else to do.

When a response carries ``Connection: close`` (the server's
per-connection request budget) or the peer closes, the generator opens
a new connection and re-sends, in order, the requests that were written
after the last answered one; ``connects`` counts every connection
opened.  Bodies are always well-formed JSON: a malformed body on a
kept-alive connection would hold the socket until the server's idle
timeout.
"""

from __future__ import annotations

import asyncio
from collections import deque
from time import perf_counter

#: Writes of one request (first send plus re-sends after reconnects)
#: before it is counted as failed.
MAX_SENDS = 3
#: ``quiet()`` is called at most this often, only while no request is in
#: flight and the next one is due at least ``QUIET_GAP_S`` later.
QUIET_EVERY_S = 0.25
QUIET_GAP_S = 0.012


def request_bytes(path: str, body: bytes, host: str = "127.0.0.1") -> bytes:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def read_response(reader) -> "tuple[int, dict, bytes]":
    """One HTTP/1.1 response: status, lower-cased headers, body (chunked
    bodies are de-chunked)."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("connection closed before a response")
    status = int(line.split()[1])
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise ConnectionError("connection closed inside headers")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding", "").lower() == "chunked":
        parts = []
        while True:
            size = int((await reader.readline()).split(b";")[0], 16)
            if size == 0:
                await reader.readline()
                break
            parts.append(await reader.readexactly(size))
            await reader.readexactly(2)
        return status, headers, b"".join(parts)
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


class _Conn:
    def __init__(self) -> None:
        self.pending: deque = deque()
        self.reader = None
        self.writer = None
        self.ready = False
        self.task = None


class OpenLoop:
    """Drive ``requests`` (full request bytes) at ``due`` offsets
    (seconds after start) over ``connections`` keep-alive sockets."""

    def __init__(self, host: str, port: int, requests: list, due: list,
                 connections: int = 2, drain_timeout: float = 30.0,
                 quiet=None) -> None:
        if len(requests) != len(due):
            raise ValueError("one due time per request")
        self.host, self.port = host, port
        self.requests = requests
        self.offsets = due
        self.n_conns = connections
        self.drain_timeout = drain_timeout
        self.connects = 0
        n = len(requests)
        self.due = [0.0] * n
        self.sent = [None] * n
        self.done = [None] * n
        self.status = [None] * n
        self.body = [b""] * n
        self._sends = [0] * n
        self._finished = 0
        self._all_done: "asyncio.Event | None" = None
        self._stopping = False
        self._quiet = quiet
        self._quiet_at = -1e300
        self._idle: "asyncio.Event | None" = None

    async def _connect(self, conn: _Conn) -> None:
        conn.ready = False
        if conn.writer is not None:
            conn.writer.close()
        conn.reader, conn.writer = await asyncio.open_connection(
            self.host, self.port
        )
        self.connects += 1
        conn.ready = True
        for i in list(conn.pending):
            self._write(conn, i)

    def _write(self, conn: _Conn, i: int) -> None:
        if self._sends[i] >= MAX_SENDS:
            conn.pending.remove(i)
            self._finish(i, None, b"", perf_counter())
            return
        self._sends[i] += 1
        if self.sent[i] is None:
            self.sent[i] = perf_counter()
        conn.writer.write(self.requests[i])

    def _finish(self, i, status, body, now) -> None:
        self.done[i], self.status[i], self.body[i] = now, status, body
        self._finished += 1
        if self._idle is not None:
            self._idle.set()
        if self._finished == len(self.requests):
            self._all_done.set()

    async def _read_loop(self, conn: _Conn) -> None:
        while True:
            try:
                status, headers, body = await read_response(conn.reader)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError):
                if self._stopping:
                    return
                await self._connect(conn)
                continue
            now = perf_counter()
            self._finish(conn.pending.popleft(), status, body, now)
            if headers.get("connection", "").lower() == "close":
                await self._connect(conn)

    async def run(self) -> None:
        self._all_done = asyncio.Event()
        self._idle = asyncio.Event()
        conns = [_Conn() for _ in range(self.n_conns)]
        try:
            for conn in conns:
                await self._connect(conn)
                conn.task = asyncio.create_task(self._read_loop(conn))
            start = perf_counter() + 0.05
            self._maybe_quiet(conns, start)
            for i, offset in enumerate(self.offsets):
                self.due[i] = start + offset
                await self._idle_until(conns, self.due[i])
                delay = self.due[i] - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                conn = min(conns, key=lambda c: (not c.ready, len(c.pending)))
                conn.pending.append(i)
                if conn.ready:
                    self._write(conn, i)
            if self.requests:
                try:
                    await asyncio.wait_for(self._all_done.wait(),
                                           self.drain_timeout)
                except asyncio.TimeoutError:
                    pass
            if self._quiet is not None:
                self._maybe_quiet(conns, None)
                await asyncio.sleep(0.05)  # time for the last slice
        finally:
            self._stopping = True
            for conn in conns:
                if conn.task is not None:
                    conn.task.cancel()
                if conn.writer is not None:
                    conn.writer.close()
            for conn in conns:
                if conn.task is not None:
                    try:
                        await conn.task
                    except (asyncio.CancelledError, Exception):  # noqa: BLE001
                        pass

    async def _idle_until(self, conns, due: float) -> None:
        """With a ``quiet`` callback, wait (no later than ``QUIET_GAP_S``
        before ``due``) for the requests in flight to be answered and for
        ``QUIET_EVERY_S`` to pass since the last quiet moment, then offer
        one."""
        if self._quiet is None:
            return
        latest = due - QUIET_GAP_S
        if self._quiet_at + QUIET_EVERY_S > latest:
            return
        if any(c.pending for c in conns):
            self._idle.clear()
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       max(0.0, latest - perf_counter()))
            except asyncio.TimeoutError:
                return
        wait = self._quiet_at + QUIET_EVERY_S - perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        self._maybe_quiet(conns, due)

    def _maybe_quiet(self, conns, next_due: "float | None") -> None:
        """Call ``quiet()`` if nothing is in flight and nothing is due
        soon (``next_due=None``: the run is over, call it regardless of
        the interval)."""
        if self._quiet is None or any(c.pending for c in conns):
            return
        now = perf_counter()
        if next_due is not None and (next_due - now < QUIET_GAP_S
                                     or now - self._quiet_at < QUIET_EVERY_S):
            return
        self._quiet_at = now
        self._quiet()

    def latencies(self) -> list:
        """Seconds from due time to response; ``inf`` for failures and
        non-200 answers."""
        return [
            done - due if done is not None and status == 200 else float("inf")
            for due, done, status in zip(self.due, self.done, self.status)
        ]

    def lags(self) -> list:
        return [
            sent - due for due, sent in zip(self.due, self.sent)
            if sent is not None
        ]
