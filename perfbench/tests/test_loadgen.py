"""The open-loop generator against a small in-process HTTP server."""

import asyncio
import json

from loadgen import OpenLoop, read_response, request_bytes


async def _serve(reader, writer, budget, received):
    """Echo each JSON body back; close the connection after ``budget``
    responses, announcing it with ``Connection: close``.  ``/stream``
    answers chunked."""
    served = 0
    try:
        while True:
            line = await reader.readline()
            if not line:
                return
            path = line.split()[1].decode()
            length = 0
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n"):
                    break
                name, _, value = header.decode().partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            received.append(json.loads(body))  # never malformed
            served += 1
            close = served >= budget
            conn = b"close" if close else b"keep-alive"
            if path == "/stream":
                half = len(body) // 2
                writer.write(
                    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n"
                    b"Connection: " + conn + b"\r\n\r\n"
                    + f"{half:x}\r\n".encode() + body[:half] + b"\r\n"
                    + f"{len(body) - half:x}\r\n".encode() + body[half:]
                    + b"\r\n0\r\n\r\n"
                )
            else:
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode() + b"\r\nConnection: " + conn
                    + b"\r\n\r\n" + body
                )
            await writer.drain()
            if close:
                return
    finally:
        writer.close()


def test_pipelined_requests_survive_connection_close():
    async def main():
        received = []
        server = await asyncio.start_server(
            lambda r, w: _serve(r, w, 3, received), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        paths = ["/predict", "/stream"] * 6
        bodies = [json.dumps({"i": i}).encode() for i in range(12)]
        load = OpenLoop(
            "127.0.0.1", port,
            [request_bytes(p, b) for p, b in zip(paths, bodies)],
            [0.0] * 12,  # all due at once: pipelined
            connections=2, drain_timeout=10.0,
        )
        try:
            await load.run()
        finally:
            server.close()
            await server.wait_closed()
        return load, received

    load, received = asyncio.run(main())
    assert load.status == [200] * 12
    assert [json.loads(b)["i"] for b in load.body] == list(range(12))
    # 12 requests at 3 per connection need at least 4 connections.
    assert load.connects >= 4
    # Requests the server never answered were re-sent, so every request
    # reached it at least once.
    assert {r["i"] for r in received} == set(range(12))
    assert all(lat >= 0 for lat in load.latencies())
    assert len(load.lags()) == 12 and min(load.lags()) >= 0


def test_unanswered_requests_count_as_failures():
    async def main():
        async def silent(reader, writer):
            await reader.read()
            writer.close()

        server = await asyncio.start_server(silent, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        load = OpenLoop("127.0.0.1", port,
                        [request_bytes("/predict", b"{}")], [0.0],
                        connections=1, drain_timeout=0.3)
        try:
            await load.run()
        finally:
            server.close()
            await server.wait_closed()
        return load

    load = asyncio.run(main())
    assert load.latencies() == [float("inf")]


def test_read_response_dechunks():
    async def main():
        reader = asyncio.StreamReader()
        reader.feed_data(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"
        )
        reader.feed_eof()
        return await read_response(reader)

    status, headers, body = asyncio.run(main())
    assert (status, body) == (200, b"abcde")
    assert headers["transfer-encoding"] == "chunked"


def test_quiet_moments_fall_between_requests():
    """``quiet()`` runs before the first request, after the last answer,
    and in between only while nothing is in flight and the next request
    is not due within ``QUIET_GAP_S``."""
    import loadgen

    events = []

    async def main():
        received = []
        server = await asyncio.start_server(
            lambda r, w: _serve(r, w, 100, received), "127.0.0.1", 0
        )
        port = server.sockets[0].getsockname()[1]
        offsets = [0.0, 0.3, 0.6, 0.601]
        load = OpenLoop(
            "127.0.0.1", port,
            [request_bytes("/predict", json.dumps({"i": i}).encode())
             for i in range(4)],
            offsets, connections=1, drain_timeout=5.0,
            quiet=lambda: events.append(
                (loop.time(), sum(d is None for d in load.done))),
        )
        loop = asyncio.get_running_loop()
        try:
            await load.run()
        finally:
            server.close()
            await server.wait_closed()
        return load

    load = asyncio.run(main())
    assert load.status == [200] * 4
    # Before the first request, once in each of the two long gaps, after
    # the last answer; never with an answer outstanding beyond the ones
    # not yet sent.
    assert len(events) == 4
    assert events[0][1] == 4 and events[-1][1] == 0
    assert [n for _t, n in events[1:3]] == [3, 2]
    assert loadgen.QUIET_EVERY_S < 0.3
