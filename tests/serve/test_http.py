"""HTTP routing/status mapping (transport-free) + socket-level tests.

``handle_request`` takes parsed ``(method, path, payload)`` and never
touches a socket, so the routing tests run against the async service
with a fake dispatcher and zero-length windows.  The socket classes
open real localhost connections to cover the wire format: keep-alive
and pipelining semantics, framing-error handling (close) vs
payload-error handling (keep), idle timeouts and per-connection
request limits.
"""

import asyncio
import json
import threading
from contextlib import asynccontextmanager

import pytest

from repro.errors import ConfigurationError, DeviceMemoryError
from repro.metrics.registry import scoped_registry
from repro.serve import PredictionBackend, PredictionService, ServeConfig
from repro.serve.api import parse_predict
from repro.serve.http import HttpConfig, handle_request, serve_http


class FakeBackend:
    def __init__(self):
        self.autotuned = []

    def evaluate(self, specs):
        from repro.apps.base import AppRun

        return [
            AppRun(
                app="mm",
                elapsed=float(spec.places),
                places=spec.places,
                tiles=spec.app_args[1],
                gflops=None,
                engine="model",
            )
            for spec in specs
        ]

    def autotune(self, query):
        self.autotuned.append(query)
        return {
            "app": query["profile"].name,
            "best": {"P": 4, "T": 144},
            "best_seconds": 0.5,
        }

    def health(self):
        return {"engine": "fake"}


def with_service(test, config=None):
    async def scenario():
        backend = FakeBackend()
        service = PredictionService(
            backend, config or ServeConfig(batch_window=0.0)
        )
        await service.start()
        try:
            await test(service, backend)
        finally:
            await service.stop()

    asyncio.run(scenario())


class TestRouting:
    def test_predict_ok(self):
        async def scenario(service, backend):
            status, body = await handle_request(
                service, "POST", "/predict", {"app": "mm", "P": 4}
            )
            assert status == 200
            assert body["P"] == 4
            assert body["elapsed_seconds"] == 4.0
            assert body["engine"] == "model"

        with_service(scenario)

    def test_sweep_ok(self):
        async def scenario(service, backend):
            status, body = await handle_request(
                service, "POST", "/sweep", {"app": "mm", "P": [1, 2, 4]}
            )
            assert status == 200
            assert [r["P"] for r in body["results"]] == [1, 2, 4]

        with_service(scenario)

    def test_autotune_ok(self):
        async def scenario(service, backend):
            status, body = await handle_request(
                service, "POST", "/autotune", {"app": "mm"}
            )
            assert status == 200
            assert body["best"] == {"P": 4, "T": 144}
            assert backend.autotuned[0]["profile"].name == "mm"

        with_service(scenario)

    def test_unknown_path_404(self):
        async def scenario(service, backend):
            status, body = await handle_request(service, "GET", "/nope", None)
            assert status == 404

        with_service(scenario)

    def test_wrong_method_405(self):
        async def scenario(service, backend):
            status, _ = await handle_request(
                service, "GET", "/predict", None
            )
            assert status == 405

        with_service(scenario)

    def test_bad_payload_400(self):
        async def scenario(service, backend):
            status, body = await handle_request(
                service, "POST", "/predict", {"app": "mm"}
            )
            assert status == 400
            assert "P" in body["error"]
            status, _ = await handle_request(
                service, "POST", "/predict", None
            )
            assert status == 400

        with_service(scenario)

    def test_healthz_and_metrics(self):
        async def scenario(service, backend):
            status, body = await handle_request(
                service, "GET", "/healthz", None
            )
            assert status == 200
            assert body["engine"] == "fake"
            status, text = await handle_request(
                service, "GET", "/metrics", None
            )
            assert status == 200
            assert isinstance(text, str)

        with_service(scenario)


class TestStatusMapping:
    def test_draining_503(self):
        async def scenario(service, backend):
            service.batcher.begin_drain()
            status, body = await handle_request(
                service, "POST", "/predict", {"app": "mm", "P": 4}
            )
            assert status == 503

        with_service(scenario)

    def test_queue_full_429(self):
        async def scenario(service, backend):
            # Window long enough that the first request stays queued.
            ticket = service.batcher.submit(
                "predict",
                [parse_predict({"app": "mm", "P": 1})],
                now=service.clock(),
            )
            status, body = await handle_request(
                service, "POST", "/predict", {"app": "mm", "P": 2}
            )
            assert status == 429
            assert ticket is not None

        with_service(
            scenario,
            ServeConfig(batch_window=60.0, queue_limit=1),
        )

    def test_deadline_504(self):
        async def scenario(service, backend):
            # Hold one batch in flight so the next request queues.  Its
            # deadline, far shorter than the window, passes first: the
            # poll that happens at the deadline sheds it with 504.
            loop = asyncio.get_running_loop()
            in_flight = asyncio.Event()
            gate = threading.Event()

            def gated(specs):
                loop.call_soon_threadsafe(in_flight.set)
                gate.wait(timeout=10)
                return backend.evaluate(specs)

            service.dispatch = gated
            held = asyncio.create_task(
                handle_request(
                    service, "POST", "/predict", {"app": "mm", "P": 1}
                )
            )
            try:
                await asyncio.wait_for(in_flight.wait(), timeout=10)
                status, body = await handle_request(
                    service,
                    "POST",
                    "/predict",
                    {"app": "mm", "P": 4, "deadline_ms": 1},
                )
                assert status == 504
            finally:
                gate.set()
            status, _ = await held
            assert status == 200

        with_service(scenario, ServeConfig(batch_window=60.0))

    def test_short_deadline_on_idle_server_200(self):
        async def scenario(service, backend):
            # Nothing in flight: the request dispatches at once, long
            # before its deadline, which is itself far inside the window.
            status, body = await handle_request(
                service,
                "POST",
                "/predict",
                {"app": "mm", "P": 4, "deadline_ms": 1000},
            )
            assert status == 200
            assert body["P"] == 4

        with_service(scenario, ServeConfig(batch_window=60.0))

    def test_device_memory_error_422(self):
        async def scenario(service, backend):
            def overflow(specs):
                raise DeviceMemoryError("device memory exhausted")

            service.dispatch = overflow
            status, body = await handle_request(
                service, "POST", "/predict", {"app": "mm", "P": 4}
            )
            assert status == 422
            assert "device memory" in body["error"]

        with_service(scenario)


def with_hybrid_backend(test):
    """Run ``test(service)`` against a real hybrid backend."""

    async def scenario():
        service = PredictionService(
            PredictionBackend(engine="hybrid"), ServeConfig(batch_window=0.0)
        )
        await service.start()
        try:
            await test(service)
        finally:
            await service.stop()

    asyncio.run(scenario())


class TestEvaluationErrors:
    """Points the request makes impossible are the client's fault, and
    fail only their own request."""

    @pytest.mark.parametrize(
        "payload",
        [
            {"app": "mm", "P": 225},  # past the card's 224 threads
            {"app": "mm", "P": 4, "T": 5},  # not a square tiling
            {"app": "mm", "P": 4, "D": 6001},  # D off the tile grid
            {"app": "nn", "P": 4, "T": 10**8},  # more tiles than records
        ],
    )
    def test_infeasible_geometry_400(self, payload):
        async def scenario(service):
            status, body = await handle_request(
                service, "POST", "/predict", payload
            )
            assert status == 400
            assert body["error"]

        with_hybrid_backend(scenario)

    def test_over_capacity_point_fails_alone_422(self):
        async def scenario(service):
            batches = []
            evaluate = service.dispatch

            def recording(specs):
                batches.append(len(specs))
                return evaluate(specs)

            service.dispatch = recording
            big, fits = await asyncio.gather(
                handle_request(
                    service, "POST", "/predict",
                    {"app": "mm", "P": 4, "T": 64, "D": 40000},
                ),
                handle_request(
                    service, "POST", "/predict",
                    {"app": "mm", "P": 4, "T": 64, "D": 6000},
                ),
            )
            assert batches == [2, 1, 1], "one batch, then each alone"
            assert big[0] == 422
            assert "device memory" in big[1]["error"]
            assert fits[0] == 200
            assert fits[1]["P"] == 4 and fits[1]["elapsed_seconds"] > 0

        with_hybrid_backend(scenario)


@asynccontextmanager
async def socket_server(config=None, http_config=None, backend=None):
    """A live localhost server over a fake backend; yields (service,
    port) and tears the whole stack down afterwards."""
    backend = backend or FakeBackend()
    service = PredictionService(
        backend, config or ServeConfig(batch_window=0.0)
    )
    await service.start()
    server = await serve_http(service, port=0, config=http_config)
    port = server.sockets[0].getsockname()[1]
    try:
        yield service, port
    finally:
        server.close()
        await server.wait_closed()
        await service.drain(timeout=5)
        await service.stop()


def request_bytes(payload, path="/predict", connection=None,
                  version="HTTP/1.1", raw_body=None):
    """One framed POST request (``connection`` adds the header)."""
    body = (
        raw_body if raw_body is not None
        else json.dumps(payload).encode("utf-8")
    )
    head = (
        f"POST {path} {version}\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if connection is not None:
        head += f"Connection: {connection}\r\n"
    return head.encode("ascii") + b"\r\n" + body


async def open_client(port):
    return await asyncio.open_connection("127.0.0.1", port)


async def _read_http_response(reader):
    """Parse one Content-Length-framed response; returns ``(status,
    body, reusable)``, where ``reusable`` is False when the server
    announced ``Connection: close``."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        if line == b"":
            raise ConnectionError("server closed mid-headers")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    body = await reader.readexactly(length) if length else b""
    reusable = headers.get("connection", "").lower() != "close"
    return status, body, reusable


class TestSocketSmoke:
    def test_end_to_end_over_localhost(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes({"app": "mm", "P": 4}, connection="close")
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                head, _, payload = raw.partition(b"\r\n\r\n")
                assert b"200 OK" in head.split(b"\r\n")[0]
                assert json.loads(payload)["P"] == 4

        asyncio.run(scenario())

    def test_malformed_json_gets_400(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes(
                        None, connection="close", raw_body=b"notjson"
                    )
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]

        asyncio.run(scenario())


class TestKeepAlive:
    def test_two_requests_one_connection(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                for p in (2, 3):
                    writer.write(request_bytes({"app": "mm", "P": p}))
                    await writer.drain()
                    status, body, reusable = await _read_http_response(
                        reader
                    )
                    assert status == 200
                    assert json.loads(body)["P"] == p
                    assert reusable
                writer.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("keep_alive", [True, False])
    def test_connections_opened_per_request(self, keep_alive):
        """Eight requests over one keep-alive connection open one
        server-side connection; with ``Connection: close`` each request
        opens its own."""

        async def scenario():
            with scoped_registry() as registry:
                async with socket_server() as (service, port):
                    writer = None
                    for p in range(1, 9):
                        if writer is None:
                            reader, writer = await open_client(port)
                        writer.write(request_bytes(
                            {"app": "mm", "P": p},
                            connection=None if keep_alive else "close",
                        ))
                        await writer.drain()
                        status, _, reusable = await _read_http_response(
                            reader
                        )
                        assert status == 200 and reusable == keep_alive
                        if not reusable:
                            writer.close()
                            writer = None
                    if writer is not None:
                        writer.close()
                    return registry.snapshot().counter_value(
                        "serve.http.connections"
                    )

        assert asyncio.run(scenario()) == (1 if keep_alive else 8)

    def test_pipelined_requests_answered_in_order(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                # Both requests on the wire before reading any response.
                writer.write(
                    request_bytes({"app": "mm", "P": 5})
                    + request_bytes({"app": "mm", "P": 7})
                )
                await writer.drain()
                first = await _read_http_response(reader)
                second = await _read_http_response(reader)
                writer.close()
                assert json.loads(first[1])["P"] == 5
                assert json.loads(second[1])["P"] == 7

        asyncio.run(scenario())

    def test_pipelined_request_after_error_response(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                # Bad JSON body (valid framing) then a good request:
                # the 400 must not poison the connection.
                writer.write(
                    request_bytes(None, raw_body=b"{broken")
                    + request_bytes({"app": "mm", "P": 6})
                )
                await writer.drain()
                status1, _, reusable1 = await _read_http_response(reader)
                status2, body2, _ = await _read_http_response(reader)
                writer.close()
                assert status1 == 400 and reusable1
                assert status2 == 200
                assert json.loads(body2)["P"] == 6

        asyncio.run(scenario())

    def test_connection_close_honored(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes({"app": "mm", "P": 2}, connection="close")
                )
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 200 and not reusable
                assert await reader.read() == b""  # server closed
                writer.close()

        asyncio.run(scenario())

    def test_http10_defaults_to_close(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes({"app": "mm", "P": 2}, version="HTTP/1.0")
                )
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 200 and not reusable
                assert await reader.read() == b""
                writer.close()

        asyncio.run(scenario())

    def test_max_requests_per_connection(self):
        async def scenario():
            http_config = HttpConfig(max_requests=2)
            async with socket_server(http_config=http_config) as (
                service,
                port,
            ):
                reader, writer = await open_client(port)
                writer.write(request_bytes({"app": "mm", "P": 2}))
                await writer.drain()
                _, _, reusable = await _read_http_response(reader)
                assert reusable
                writer.write(request_bytes({"app": "mm", "P": 3}))
                await writer.drain()
                _, _, reusable = await _read_http_response(reader)
                assert not reusable
                assert await reader.read() == b""
                writer.close()

        asyncio.run(scenario())

    def test_keep_alive_disabled_forces_close(self):
        async def scenario():
            http_config = HttpConfig(keep_alive=False)
            async with socket_server(http_config=http_config) as (
                service,
                port,
            ):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes(
                        {"app": "mm", "P": 2}, connection="keep-alive"
                    )
                )
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 200 and not reusable
                assert await reader.read() == b""
                writer.close()

        asyncio.run(scenario())

    def test_bad_json_with_connection_close_gets_prompt_eof(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes(
                        None, connection="close", raw_body=b"notjson"
                    )
                )
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 400 and not reusable
                # Well inside the 30 s idle timeout: the 400 closed it.
                assert await asyncio.wait_for(reader.read(), 5) == b""
                writer.close()

        asyncio.run(scenario())

    def test_keep_alive_bad_json_then_served_request(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(request_bytes(None, raw_body=b"{broken"))
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 400 and reusable
                writer.write(request_bytes({"app": "mm", "P": 3}))
                await writer.drain()
                status, body, _ = await asyncio.wait_for(
                    _read_http_response(reader), 5
                )
                writer.close()
                assert status == 200
                assert json.loads(body)["P"] == 3

        asyncio.run(scenario())

    def test_bad_json_counts_toward_max_requests(self):
        async def scenario():
            http_config = HttpConfig(max_requests=1)
            async with socket_server(http_config=http_config) as (
                service,
                port,
            ):
                reader, writer = await open_client(port)
                writer.write(request_bytes(None, raw_body=b"notjson"))
                await writer.drain()
                status, _, reusable = await _read_http_response(reader)
                assert status == 400 and not reusable
                assert await asyncio.wait_for(reader.read(), 5) == b""
                writer.close()

        asyncio.run(scenario())

    def test_idle_timeout_closes_connection(self):
        async def scenario():
            http_config = HttpConfig(idle_timeout=0.15)
            async with socket_server(http_config=http_config) as (
                service,
                port,
            ):
                reader, writer = await open_client(port)
                # No request at all: the server must hang up on its own.
                assert await asyncio.wait_for(reader.read(), 5) == b""
                writer.close()

        asyncio.run(scenario())


class TestHttpEdges:
    def test_malformed_request_line_400_and_close(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                raw = await reader.read()  # server closes after the 400
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]

        asyncio.run(scenario())

    def test_malformed_header_400_and_close(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    b"POST /predict HTTP/1.1\r\nno-colon-here\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]

        asyncio.run(scenario())

    def test_invalid_content_length_400_and_close(self):
        async def scenario():
            async with socket_server() as (service, port):
                reader, writer = await open_client(port)
                writer.write(
                    b"POST /predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"400" in raw.split(b"\r\n")[0]

        asyncio.run(scenario())

    def test_oversized_body_413_and_close(self):
        async def scenario():
            http_config = HttpConfig(max_body=64)
            async with socket_server(http_config=http_config) as (
                service,
                port,
            ):
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes(None, raw_body=b"x" * 100)
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                assert b"413" in raw.split(b"\r\n")[0]

        asyncio.run(scenario())

    def test_client_disconnect_leaves_server_healthy(self):
        async def scenario():
            async with socket_server() as (service, port):
                # Client vanishes right after sending a request ...
                reader, writer = await open_client(port)
                writer.write(request_bytes({"app": "mm", "P": 4}))
                await writer.drain()
                writer.close()
                await writer.wait_closed()
                # ... and the server still answers fresh connections.
                reader, writer = await open_client(port)
                writer.write(
                    request_bytes({"app": "mm", "P": 9}, connection="close")
                )
                await writer.drain()
                status, body, _ = await _read_http_response(reader)
                writer.close()
                assert status == 200
                assert json.loads(body)["P"] == 9

        asyncio.run(scenario())


class TestHttpConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            HttpConfig(idle_timeout=0)
        with pytest.raises(ConfigurationError):
            HttpConfig(max_requests=0)
        with pytest.raises(ConfigurationError):
            HttpConfig(max_body=0)
