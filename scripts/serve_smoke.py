#!/usr/bin/env python
"""End-to-end smoke test of ``python -m repro serve``.

Boots the real server as a subprocess on an ephemeral port, waits for
the ready line, checks ``/healthz``, sends one infeasible ``/predict``
(mm at P=225, past the card's 224 threads), which must answer 400 with
an ``error`` body, and one over-capacity ``/predict`` (mm at D=40000,
whose tile buffers overflow the card), which must answer 422 with an
``error`` body, then answers one ``/predict``, one ``/sweep`` and one
*streamed* ``/sweep`` request over actual HTTP, then asks for a
graceful shutdown (SIGTERM) and verifies the process drains and exits
cleanly.

``--workers N`` boots the prefork pool instead: the same checks run
against the pool, ``/metrics`` must report the aggregated cross-worker
view (``serve.workers``), and the SIGTERM drain must reap every worker
(the supervisor only exits 0 once all children exited 0).

This is the CI guard that the served stack — CLI flags, asyncio
runtime, HTTP framing, batching, backend, prefork supervision — works
end to end outside the in-process test harness.  Runs in a few
seconds::

    python scripts/serve_smoke.py
    python scripts/serve_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import json
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: How long to wait for the server to come up / shut down (seconds).
BOOT_TIMEOUT = 30.0
SHUTDOWN_TIMEOUT = 30.0

READY_RE = re.compile(
    r"repro\.serve listening on http://(?P<host>[^:]+):(?P<port>\d+)"
)


def post(base: str, path: str, payload: dict) -> dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=20) as response:
        if response.status != 200:
            raise SystemExit(f"{path}: HTTP {response.status}")
        return json.loads(response.read())


def post_status(base: str, path: str, payload: dict) -> "tuple[int, dict]":
    """POST and return ``(status, parsed body)`` whatever the status."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=20) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(base: str, path: str) -> dict:
    with urllib.request.urlopen(base + path, timeout=20) as response:
        if response.status != 200:
            raise SystemExit(f"{path}: HTTP {response.status}")
        return json.loads(response.read())


def get_text(base: str, path: str) -> str:
    with urllib.request.urlopen(base + path, timeout=20) as response:
        if response.status != 200:
            raise SystemExit(f"{path}: HTTP {response.status}")
        return response.read().decode("utf-8")


def post_stream(base: str, path: str, payload: dict) -> "list[dict]":
    """POST and parse a chunked NDJSON response into its lines."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=20) as response:
        if response.status != 200:
            raise SystemExit(f"{path} (stream): HTTP {response.status}")
        text = response.read().decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line]


def wait_for_ready(process: subprocess.Popen) -> str:
    """Read stdout until the ready line appears; returns the base URL."""
    deadline = time.monotonic() + BOOT_TIMEOUT
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            raise SystemExit(
                f"server exited before ready (rc={process.poll()})"
            )
        sys.stdout.write(f"[server] {line}")
        match = READY_RE.search(line)
        if match:
            return f"http://{match['host']}:{match['port']}"
    raise SystemExit("server did not become ready in time")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="prefork worker processes (default 1: single-process)",
    )
    args = parser.parse_args()
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--window-ms",
            "1",
            "--engine",
            "model",
            "--workers",
            str(args.workers),
        ],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={
            **__import__("os").environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONUNBUFFERED": "1",
        },
    )
    try:
        base = wait_for_ready(process)

        health = get(base, "/healthz")
        if health.get("status") != "ok":
            raise SystemExit(f"unexpected health payload: {health}")
        print(f"healthz ok: engine={health.get('engine')}")

        status, refused = post_status(
            base, "/predict", {"app": "mm", "P": 225}
        )
        if status != 400 or not refused.get("error"):
            raise SystemExit(
                f"infeasible predict: want 400 with an error, got "
                f"{status} {refused}"
            )
        print(f"infeasible predict ok: mm P=225 -> 400 ({refused['error']})")

        status, refused = post_status(
            base, "/predict", {"app": "mm", "P": 4, "T": 64, "D": 40000}
        )
        if status != 422 or not refused.get("error"):
            raise SystemExit(
                f"over-capacity predict: want 422 with an error, got "
                f"{status} {refused}"
            )
        print(
            f"over-capacity predict ok: mm D=40000 -> 422 "
            f"({refused['error']})"
        )

        point = post(base, "/predict", {"app": "mm", "P": 14})
        if point.get("P") != 14 or point.get("elapsed_seconds", 0) <= 0:
            raise SystemExit(f"unexpected predict payload: {point}")
        print(
            f"predict ok: mm P=14 -> {point['elapsed_seconds']:.4f}s "
            f"({point['engine']})"
        )

        sweep = post(base, "/sweep", {"app": "mm", "P": [1, 2, 4, 8]})
        got = [r["P"] for r in sweep.get("results", [])]
        if got != [1, 2, 4, 8]:
            raise SystemExit(f"unexpected sweep payload: {sweep}")
        print(f"sweep ok: {len(got)} points")

        lines = post_stream(
            base, "/sweep", {"app": "mm", "P": [1, 2, 4, 8], "stream": True}
        )
        if lines[-1] != {"done": True, "results": 4}:
            raise SystemExit(f"unexpected stream summary: {lines[-1]}")
        if [r["P"] for r in lines[:-1]] != [1, 2, 4, 8]:
            raise SystemExit(f"unexpected streamed results: {lines}")
        print(f"streamed sweep ok: {len(lines) - 1} points + summary")

        if args.workers > 1:
            metrics = get_text(base, "/metrics")
            if "serve.workers:" not in metrics:
                raise SystemExit(
                    f"/metrics missing cross-worker aggregation:\n{metrics}"
                )
            if "serve.worker.requests{worker=" not in metrics:
                raise SystemExit(
                    f"/metrics missing per-worker labels:\n{metrics}"
                )
            print("metrics ok: cross-worker aggregation present")

        process.send_signal(signal.SIGTERM)
        try:
            rc = process.wait(timeout=SHUTDOWN_TIMEOUT)
        except subprocess.TimeoutExpired:
            process.kill()
            raise SystemExit("server did not shut down after SIGTERM")
        remainder = process.stdout.read() if process.stdout else ""
        for line in remainder.splitlines():
            sys.stdout.write(f"[server] {line}\n")
        if rc != 0:
            raise SystemExit(f"server exited with rc={rc}")
        if "drained, bye" not in remainder:
            raise SystemExit("server did not report a graceful drain")
        print("shutdown ok: graceful drain confirmed")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
