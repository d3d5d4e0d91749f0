"""Stdlib HTTP/1.1 front-end: keep-alive, pipelining, streamed sweeps.

A deliberately small HTTP/1.1 server over ``asyncio.start_server`` —
no third-party web framework, matching the repo's stdlib-only
dependency policy.  JSON bodies, five routes:

==========================  =================================================
``POST /predict``           one point — ``{"app", "P", "T"?, "D"?,
                            "deadline_ms"?}``
``POST /sweep``             a whole grid — ``{"app", "P": [...],
                            "T": [...]?, "D"?, "deadline_ms"?,
                            "stream"?: true}``
``POST /autotune``          best config — ``{"app", "D"?, "P"?: [...],
                            "T"?: [...], "verify_top_k"?}``
``GET /healthz``            liveness + warm-family registry + config
``GET /metrics``            the metrics registry as text (aggregated
                            across workers under ``--workers``)
==========================  =================================================

Connections are **persistent** by default (HTTP/1.1 keep-alive): a
closed-loop client pays connection setup once, not once per request,
and pipelined requests — several requests written before reading any
response — are answered strictly in order, because the connection loop
reads, handles and writes sequentially (requests queue in the stream
buffer).  :class:`HttpConfig` bounds each connection: an idle timeout
between requests, a per-connection request limit, and the body-size
cap.  ``Connection: close``, HTTP/1.0 without ``keep-alive``, framing
errors and oversized bodies all close the connection after the
response; payload-level errors (bad JSON body, unknown app, 404) keep
it usable, because the framing is still trustworthy.

``/sweep`` with ``"stream": true`` answers with chunked
transfer-encoding (``application/x-ndjson``): the grid is split into
``max_batch``-sized chunks submitted with at most two in flight, and
each chunk's results are written as soon as they resolve — one JSON
object per line, a final ``{"done": ...}`` summary line — so server
memory stays O(batch), not O(grid), and the first results arrive while
the tail of the sweep is still evaluating.

Status mapping (see ``docs/SERVING.md`` for the failure-mode guide):
400 malformed payload or infeasible geometry, 404 unknown route, 413
oversized body, 422 a point whose buffers do not fit in device memory,
429 queue full (load shed), 503 draining, 504 per-request deadline
exceeded before dispatch, 500 evaluation error.

The handlers themselves (:func:`handle_request`) are transport-free —
they take a parsed ``(method, path, payload)`` and return ``(status,
body dict | text | StreamBody)`` — so tests exercise routing, status
mapping and even streaming without opening sockets; only
:func:`serve_http` touches the network.
"""

from __future__ import annotations

import asyncio
import json
import signal
from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigurationError, DeviceMemoryError, TopologyError
from repro.metrics.registry import get_registry
from repro.serve.api import (
    BadRequest,
    deadline_seconds,
    parse_autotune,
    parse_predict,
    parse_sweep,
    run_to_json,
)
from repro.serve.core import (
    SHED_DEADLINE,
    SHED_DRAINING,
    SHED_QUEUE_FULL,
    Shed,
)
from repro.serve.service import PredictionService

#: Shed reason → HTTP status.
SHED_STATUS = {
    SHED_QUEUE_FULL: 429,
    SHED_DRAINING: 503,
    SHED_DEADLINE: 504,
}

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Request body bound (a full-grid sweep payload is < 1 KiB).
MAX_BODY_BYTES = 1 << 20

#: Header-count bound per request (slow-header abuse guard).
MAX_HEADERS = 100


@dataclass
class HttpConfig:
    """Per-connection knobs of the HTTP front-end.

    ``keep_alive`` — honor HTTP/1.1 persistent connections (off forces
    ``Connection: close`` on every response).  ``idle_timeout`` —
    seconds to wait for the next request on an open connection before
    closing it.  ``max_requests`` — requests served on one connection
    before it is closed (bounds per-connection state lifetime behind a
    load balancer).  ``max_body`` — request body cap (413 beyond it).
    """

    keep_alive: bool = True
    idle_timeout: float = 30.0
    max_requests: int = 1000
    max_body: int = MAX_BODY_BYTES

    def __post_init__(self) -> None:
        if self.idle_timeout <= 0:
            raise ConfigurationError(
                f"idle_timeout must be positive, got {self.idle_timeout}"
            )
        if self.max_requests < 1:
            raise ConfigurationError(
                f"max_requests must be >= 1, got {self.max_requests}"
            )
        if self.max_body < 1:
            raise ConfigurationError(
                f"max_body must be >= 1, got {self.max_body}"
            )


class StreamBody:
    """A streamed (chunked transfer) response body.

    ``chunks`` is an async iterator yielding already-encoded NDJSON
    text (one or more ``\\n``-terminated lines per item — one item per
    dispatched batch, so buffering stays O(batch)).  ``failed`` is set
    by the generator when the stream ended with an error line; the
    connection closes afterwards because the response is semantically
    truncated even though the chunked framing is complete.
    """

    media_type = "application/x-ndjson"

    def __init__(self, chunks) -> None:
        self.chunks = chunks
        self.failed = False

    def __aiter__(self):
        return self.chunks.__aiter__()

    async def aclose(self) -> None:
        close = getattr(self.chunks, "aclose", None)
        if close is not None:
            await close()


def _shed_response(exc: Shed) -> "tuple[int, dict]":
    return SHED_STATUS[exc.reason], {"error": f"shed: {exc.reason}"}


def _ticket_error_response(error: Exception) -> "tuple[int, dict]":
    if isinstance(error, Shed):
        return _shed_response(error)
    # A point the request makes impossible fails in evaluation, raised
    # directly or wrapped in a SweepError: the request, not the server,
    # is at fault.  An infeasible geometry (a partition count past the
    # card's threads, a tiling the dataset does not take) is a 400; an
    # over-capacity point a 422.
    for cause in (error, error.__cause__):
        if isinstance(cause, DeviceMemoryError):
            return 422, {"error": str(error)}
        if isinstance(cause, (ConfigurationError, TopologyError)):
            return 400, {"error": str(error)}
    return 500, {"error": str(error)}


async def _sweep_stream(service, ticket, chunks, deadline, body: StreamBody):
    """Yield NDJSON text per resolved chunk, double-buffering submits.

    ``ticket`` is the already-resolved-or-pending first chunk;
    ``chunks`` the remaining spec chunks.  At most two chunks are in
    flight (one being written, one evaluating), so peak buffered
    results stay O(max_batch) regardless of grid size.
    """
    registry = get_registry()
    pending: "deque" = deque([ticket])
    queued = deque(chunks)
    emitted = 0
    try:
        while pending:
            if queued and len(pending) < 2:
                pending.append(
                    asyncio.create_task(
                        service.submit("sweep", queued.popleft(),
                                       deadline=deadline)
                    )
                )
            head = pending.popleft()
            try:
                resolved = await head if isinstance(head, asyncio.Task) else head
            except Shed as exc:
                body.failed = True
                yield json.dumps(
                    {"error": f"shed: {exc.reason}", "done": False}
                ) + "\n"
                return
            if resolved.error is not None:
                status, payload = _ticket_error_response(resolved.error)
                body.failed = True
                yield json.dumps(
                    {**payload, "status": status, "done": False}
                ) + "\n"
                return
            lines = [
                json.dumps(run_to_json(run)) for run in resolved.results
            ]
            emitted += len(lines)
            registry.histogram(
                "serve.stream.chunk_results"
            ).observe(len(lines))
            yield "\n".join(lines) + "\n"
        yield json.dumps({"done": True, "results": emitted}) + "\n"
    finally:
        for task in pending:
            if isinstance(task, asyncio.Task):
                task.cancel()


async def _handle_sweep_stream(service, payload):
    """The ``/sweep`` + ``"stream": true`` path: submit the first chunk
    eagerly so admission errors are still plain status responses, then
    hand back a :class:`StreamBody` for the rest."""
    try:
        deadline = deadline_seconds(payload)
        specs = parse_sweep(payload)
    except BadRequest as exc:
        return 400, {"error": str(exc)}
    size = max(1, service.config.max_batch)
    chunks = [specs[i : i + size] for i in range(0, len(specs), size)]
    try:
        first = await service.submit("sweep", chunks[0], deadline=deadline)
    except Shed as exc:
        return _shed_response(exc)
    if first.error is not None:
        return _ticket_error_response(first.error)
    body = StreamBody(None)
    body.chunks = _sweep_stream(service, first, chunks[1:], deadline, body)
    return 200, body


def _stream_flag(payload) -> bool:
    value = payload.get("stream") if isinstance(payload, dict) else None
    if value is None:
        return False
    if not isinstance(value, bool):
        raise BadRequest(
            f"field 'stream' must be a boolean, got {value!r}"
        )
    return value


async def handle_request(
    service: PredictionService, method: str, path: str, payload
):
    """Route one parsed request; returns ``(status, body)``.

    ``body`` is a dict (sent as JSON), a plain string (sent as
    ``text/plain`` — the ``/metrics`` exposition), or a
    :class:`StreamBody` (sent chunked — the streamed ``/sweep``).
    """
    if path == "/healthz" and method == "GET":
        return 200, service.health()
    if path == "/metrics" and method == "GET":
        hub = getattr(service, "metrics_hub", None)
        if hub is not None:
            hub.publish(get_registry().snapshot())
            return 200, hub.format_block()
        return 200, get_registry().snapshot().format_block()
    if path not in ("/predict", "/sweep", "/autotune"):
        return 404, {"error": f"unknown path {path!r}"}
    if method != "POST":
        return 405, {"error": f"{path} expects POST, got {method}"}
    if not isinstance(payload, dict):
        return 400, {"error": "request body must be a JSON object"}

    try:
        stream = _stream_flag(payload)
        if stream and path != "/sweep":
            raise BadRequest("field 'stream' only applies to /sweep")
    except BadRequest as exc:
        return 400, {"error": str(exc)}
    if stream:
        return await _handle_sweep_stream(service, payload)

    try:
        deadline = deadline_seconds(payload)
        if path == "/predict":
            specs = [parse_predict(payload)]
            kind, context = "predict", None
        elif path == "/sweep":
            specs = parse_sweep(payload)
            kind, context = "sweep", None
        else:
            query = parse_autotune(payload)
            # One representative spec for admission bookkeeping; the
            # dispatcher runs the whole search (see dispatch_batch).
            specs = [
                query["profile"].spec(
                    query["p_values"][0], query["t_values"][0], query["d"]
                )
            ]
            kind, context = "autotune", query
    except BadRequest as exc:
        return 400, {"error": str(exc)}

    try:
        ticket = await service.submit(
            kind, specs, deadline=deadline, context=context
        )
    except Shed as exc:
        return _shed_response(exc)
    if ticket.error is not None:
        return _ticket_error_response(ticket.error)

    if kind == "predict":
        return 200, run_to_json(ticket.results[0])
    if kind == "sweep":
        return 200, {"results": [run_to_json(r) for r in ticket.results]}
    return 200, ticket.results[0]  # autotune: already a JSON-safe dict


def _encode_response(status: int, body, close: bool = True) -> bytes:
    if isinstance(body, (dict, list)):
        payload = json.dumps(body).encode("utf-8")
        ctype = "application/json"
    else:
        payload = str(body).encode("utf-8")
        if payload and not payload.endswith(b"\n"):
            payload += b"\n"
        ctype = "text/plain; charset=utf-8"
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"Content-Type: {ctype}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + payload


def _encode_stream_head(close: bool) -> bytes:
    return (
        "HTTP/1.1 200 OK\r\n"
        f"Content-Type: {StreamBody.media_type}\r\n"
        "Transfer-Encoding: chunked\r\n"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        "\r\n"
    ).encode("ascii")


class _FramingError(Exception):
    """The byte stream cannot be trusted past this point.

    ``status`` (when not None) is sent as a final response before the
    connection closes; None means "close silently" (torn stream).
    """

    def __init__(self, status: "int | None", message: str = "") -> None:
        super().__init__(message or "framing error")
        self.status = status
        self.message = message


@dataclass
class _Request:
    method: str
    path: str
    payload: object
    version: str
    headers: "dict[str, str]"
    #: Set when the body is not valid JSON (answered 400).
    error: "str | None" = None

    def wants_keep_alive(self) -> bool:
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


async def _read_request(
    reader: asyncio.StreamReader, max_body: int = MAX_BODY_BYTES
) -> _Request:
    """Parse one HTTP/1.1 request off a (possibly pipelined) stream.

    Raises :class:`_FramingError` when the stream cannot be reframed
    (malformed request line or headers, bad/oversized Content-Length)
    and :class:`ConnectionError` on a clean EOF before the request
    line.  A bad JSON *body* is not a framing error: the body length was
    known and fully consumed, so the request comes back with ``error``
    set and the caller answers 400 under the usual keep/close rule.
    """
    try:
        request_line = await reader.readline()
    except ValueError as exc:  # line over the stream limit
        raise _FramingError(400, "request line too long") from exc
    if not request_line:
        raise ConnectionError("client closed the connection")
    if request_line in (b"\r\n", b"\n"):
        # Tolerate a stray CRLF between pipelined requests (RFC 9112).
        return await _read_request(reader, max_body)
    try:
        method, target, version = (
            request_line.decode("ascii").strip().split(" ", 2)
        )
        if not version.startswith("HTTP/"):
            raise ValueError(version)
    except (UnicodeDecodeError, ValueError) as exc:
        raise _FramingError(400, "malformed request line") from exc
    headers: "dict[str, str]" = {}
    while True:
        try:
            line = await reader.readline()
        except ValueError as exc:
            raise _FramingError(400, "header line too long") from exc
        if line in (b"\r\n", b"\n"):
            break
        if line == b"":
            raise ConnectionError("client closed mid-headers")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise _FramingError(400, "malformed header line")
        if len(headers) >= MAX_HEADERS:
            raise _FramingError(400, "too many headers")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    try:
        length = int(raw_length)
        if length < 0:
            raise ValueError(raw_length)
    except ValueError as exc:
        raise _FramingError(400, "invalid Content-Length") from exc
    if length > max_body:
        raise _FramingError(413, f"request body over {max_body} bytes")
    payload = error = None
    if length:
        body = await reader.readexactly(length)
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            error = f"invalid JSON body: {exc}"
    path = target.split("?", 1)[0]
    return _Request(method.upper(), path, payload, version, headers, error)


async def _write_stream(writer, body: StreamBody, close: bool) -> None:
    """Send a :class:`StreamBody` as a chunked response, draining after
    every chunk so results reach the client as they resolve."""
    writer.write(_encode_stream_head(close))
    await writer.drain()
    try:
        async for text in body:
            data = text.encode("utf-8")
            writer.write(
                f"{len(data):x}\r\n".encode("ascii") + data + b"\r\n"
            )
            await writer.drain()
    finally:
        await body.aclose()
    writer.write(b"0\r\n\r\n")
    await writer.drain()


async def _handle_connection(
    service: PredictionService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    config: "HttpConfig | None" = None,
) -> None:
    config = config or HttpConfig()
    registry = get_registry()
    registry.counter("serve.http.connections").inc()
    served = 0
    try:
        while True:
            try:
                request = await asyncio.wait_for(
                    _read_request(reader, config.max_body),
                    timeout=config.idle_timeout,
                )
            except asyncio.TimeoutError:
                registry.counter("serve.http.idle_closes").inc()
                return
            except _FramingError as exc:
                if exc.status is not None:
                    writer.write(
                        _encode_response(
                            exc.status, {"error": exc.message}, close=True
                        )
                    )
                    await writer.drain()
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return

            served += 1
            keep = (
                config.keep_alive
                and served < config.max_requests
                and request.wants_keep_alive()
            )
            if request.error is not None:
                # Bad JSON body: framing held (the body was consumed),
                # so this is a plain 400 under the same keep/close rule.
                status, body = 400, {"error": request.error}
            else:
                status, body = await handle_request(
                    service, request.method, request.path, request.payload
                )
            if isinstance(body, StreamBody):
                await _write_stream(writer, body, close=not keep)
                if body.failed:
                    return
            else:
                writer.write(_encode_response(status, body, close=not keep))
                await writer.drain()
            if not keep:
                return
    except (ConnectionResetError, BrokenPipeError):
        # Client went away mid-request/response: nothing to answer.
        return
    except Exception as exc:  # noqa: BLE001 - last-resort 500
        try:
            writer.write(_encode_response(500, {"error": str(exc)}))
        except Exception:  # noqa: BLE001 - connection already gone
            pass
    finally:
        try:
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - connection already gone
            pass


async def serve_http(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8351,
    config: "HttpConfig | None" = None,
    sock=None,
):
    """Start the HTTP front-end; returns the ``asyncio.AbstractServer``.

    The caller owns the service lifecycle (``await service.start()``
    before, ``drain()``/``stop()`` after).  ``sock`` (a bound,
    listening socket) overrides ``host``/``port`` — the prefork worker
    pool passes each worker its inherited/SO_REUSEPORT socket.
    """
    config = config or HttpConfig()

    async def connection(reader, writer):
        await _handle_connection(service, reader, writer, config)

    if sock is not None:
        return await asyncio.start_server(connection, sock=sock)
    return await asyncio.start_server(connection, host=host, port=port)


async def run_server(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 8351,
    ready=None,
    drain_grace: float = 10.0,
    http_config: "HttpConfig | None" = None,
    sock=None,
) -> None:
    """Run until SIGINT/SIGTERM, then drain gracefully and exit.

    ``ready`` (optional callable) fires once the socket is listening —
    the CLI prints the bound address, tests use it to synchronize.
    """
    await service.start()
    server = await serve_http(
        service, host=host, port=port, config=http_config, sock=sock
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    if ready is not None:
        sockets = server.sockets or []
        ready(sockets[0].getsockname() if sockets else (host, port))
    try:
        await stop.wait()
    finally:
        server.close()
        await server.wait_closed()
        await service.drain(timeout=drain_grace)
        await service.stop()
