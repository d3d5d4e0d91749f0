"""Prefork pool: socket planning, metrics hub, respawn budget, E2E.

Everything except the end-to-end case is fork-free: socket plans are
bound and closed in-process, the metrics hub is driven with hand-built
registries, and the respawn tracker runs on an explicit clock.  Two
subprocess tests boot ``python -m repro serve`` for real: one checks a
2-worker pool's request fan-out, aggregated ``/metrics`` and a clean
SIGTERM drain; one times it against a single process on CPU-bound
load.
"""

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.metrics.registry import MetricsRegistry
from repro.serve.prefork import (
    MetricsHub,
    RespawnPolicy,
    plan_sockets,
    supports_reuseport,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSocketPlan:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            plan_sockets("127.0.0.1", 0, 0)

    def test_single_worker_single_socket(self):
        plan = plan_sockets("127.0.0.1", 0, 1)
        try:
            assert plan.workers == 1
            assert len(plan.sockets) == 1
            assert plan.port > 0
            assert plan.worker_socket(0) is plan.sockets[0]
        finally:
            plan.close_all()

    @pytest.mark.skipif(
        not supports_reuseport(), reason="no SO_REUSEPORT here"
    )
    def test_reuseport_plan_binds_one_socket_per_worker(self):
        plan = plan_sockets("127.0.0.1", 0, 3)
        try:
            assert plan.mode == "reuseport"
            assert len(plan.sockets) == 3
            ports = {s.getsockname()[1] for s in plan.sockets}
            assert ports == {plan.port}
            assert plan.worker_socket(2) is plan.sockets[2]
        finally:
            plan.close_all()

    def test_shared_plan_single_socket_for_all(self):
        plan = plan_sockets("127.0.0.1", 0, 3, reuseport=False)
        try:
            assert plan.mode == "shared"
            assert len(plan.sockets) == 1
            assert plan.worker_socket(0) is plan.worker_socket(2)
            assert plan.sockets[0].get_inheritable()
        finally:
            plan.close_all()


def _snapshot(requests: int, endpoint: str = "predict"):
    registry = MetricsRegistry()
    if requests:
        registry.counter(
            "serve.requests", endpoint=endpoint, status="ok"
        ).inc(requests)
    return registry.snapshot()


class TestMetricsHub:
    def test_publish_requires_worker_id(self, tmp_path):
        hub = MetricsHub(tmp_path)
        with pytest.raises(ConfigurationError):
            hub.publish(_snapshot(1))

    def test_publish_and_aggregate(self, tmp_path):
        MetricsHub(tmp_path, worker_id=0).publish(_snapshot(3))
        MetricsHub(tmp_path, worker_id=1).publish(_snapshot(5))
        hub = MetricsHub(tmp_path)
        assert sorted(hub.read_all()) == [0, 1]
        merged = hub.aggregate()
        assert merged.counter_value(
            "serve.requests", endpoint="predict", status="ok"
        ) == 8

    def test_republish_overwrites_not_accumulates(self, tmp_path):
        writer = MetricsHub(tmp_path, worker_id=0)
        writer.publish(_snapshot(3))
        writer.publish(_snapshot(7))
        merged = MetricsHub(tmp_path).aggregate()
        assert merged.counter_value(
            "serve.requests", endpoint="predict", status="ok"
        ) == 7

    def test_unreadable_sibling_skipped(self, tmp_path):
        MetricsHub(tmp_path, worker_id=0).publish(_snapshot(2))
        (tmp_path / "worker-9.json").write_text("not json{")
        hub = MetricsHub(tmp_path)
        assert sorted(hub.read_all()) == [0]

    def test_format_block_has_pool_and_per_worker_lines(self, tmp_path):
        MetricsHub(tmp_path, worker_id=0).publish(_snapshot(3))
        MetricsHub(tmp_path, worker_id=1).publish(_snapshot(5))
        block = MetricsHub(tmp_path).format_block()
        assert "serve.workers: 2" in block
        assert "serve.worker.requests{worker=0}: 3" in block
        assert "serve.worker.requests{worker=1}: 5" in block
        # The merged section carries pool-wide totals.
        assert re.search(r"serve\.requests\{.*\}: 8", block)

    def test_empty_hub_reports_zero_workers(self, tmp_path):
        block = MetricsHub(tmp_path).format_block()
        assert block == "serve.workers: 0"


class TestRespawnPolicy:
    def test_budget_within_window(self):
        clock = iter(float(i) for i in range(100))
        tracker = RespawnPolicy(max_respawns=2, window=60.0).tracker(
            clock=lambda: next(clock)
        )
        assert tracker.should_respawn(0)
        assert tracker.should_respawn(0)
        assert not tracker.should_respawn(0)

    def test_old_exits_age_out(self):
        tracker = RespawnPolicy(max_respawns=2, window=10.0).tracker()
        assert tracker.should_respawn(0, now=0.0)
        assert tracker.should_respawn(0, now=1.0)
        # Both prior exits are outside the window by now.
        assert tracker.should_respawn(0, now=100.0)

    def test_slots_tracked_independently(self):
        tracker = RespawnPolicy(max_respawns=1, window=60.0).tracker()
        assert tracker.should_respawn(0, now=0.0)
        assert not tracker.should_respawn(0, now=1.0)
        assert tracker.should_respawn(1, now=2.0)


READY_RE = re.compile(
    r"repro\.serve listening on http://(?P<host>[^:]+):(?P<port>\d+)"
)


def spawn_server(*args):
    """``python -m repro serve`` on an ephemeral localhost port."""
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--host", "127.0.0.1", "--port", "0", *args,
        ],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONUNBUFFERED": "1",
        },
    )


def await_ready(process, output):
    """Read the server's output up to its ready line; returns the
    ``(host, port)`` it listens on."""
    deadline = time.monotonic() + 60
    assert process.stdout is not None
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        assert line, f"server died early (rc={process.poll()})"
        output.append(line)
        match = READY_RE.search(line)
        if match:
            return match["host"], int(match["port"])
    raise AssertionError("no ready line")


def stop_servers(*processes):
    """SIGTERM every server at once (a pool drains its workers), SIGKILL
    any that stalls; returns each one's exit code and remaining
    output."""
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    stopped = []
    for process in processes:
        try:
            rc = process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            process.kill()
            rc = process.wait(timeout=10)
        stopped.append((rc, process.stdout.read() or ""))
    return stopped


def drive_round(addr, round_index):
    """One round of 28 distinct CPU-bound points from 8 client threads;
    returns its wall time.  Each request opens its own connection, so
    the kernel spreads requests, not 8 long-lived connections, over a
    pool's workers."""
    payloads = iter([
        {"app": "mm", "P": p, "T": 64, "D": 6000 + 24 * round_index}
        for p in range(1, 29)
    ])
    lock = threading.Lock()
    statuses = []

    def client():
        while True:
            with lock:
                payload = next(payloads, None)
            if payload is None:
                return
            conn = http.client.HTTPConnection(*addr, timeout=60)
            try:
                conn.request(
                    "POST", "/predict", json.dumps(payload),
                    {"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                response.read()
                statuses.append(response.status)
            finally:
                conn.close()

    threads = [threading.Thread(target=client) for _ in range(8)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    elapsed = time.perf_counter() - start
    assert not any(thread.is_alive() for thread in threads)
    assert statuses == [200] * 28
    return elapsed


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestPreforkEndToEnd:
    def test_two_workers_serve_and_drain(self):
        process = spawn_server(
            "--window-ms", "1", "--engine", "model", "--workers", "2"
        )
        output = []
        try:
            host, port = await_ready(process, output)
            base = f"http://{host}:{port}"

            # Several fresh connections: with SO_REUSEPORT the kernel
            # spreads them over the pool; either way all must answer.
            for p in (2, 4, 8):
                body = json.dumps({"app": "mm", "P": p}).encode()
                request = urllib.request.Request(
                    base + "/predict", data=body,
                    headers={"Content-Type": "application/json"},
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as resp:
                    assert resp.status == 200
                    assert json.loads(resp.read())["P"] == p

            with urllib.request.urlopen(
                base + "/metrics", timeout=30
            ) as resp:
                metrics = resp.read().decode()
            assert "serve.workers:" in metrics
            assert "serve.worker.requests{worker=" in metrics
        finally:
            ((rc, remainder),) = stop_servers(process)
        output.append(remainder)
        assert rc == 0, "".join(output)
        assert "drained, bye" in remainder

    def test_two_workers_outrun_one_on_cpu_bound_load(self):
        """28 uncertified MM points (sim engine, a fresh D each round,
        so no worker serves a cached run) from 8 closed-loop clients:
        two workers must beat one process by 1.2x.  Rounds alternate
        between the two servers so a host speed change hits both, and
        each side's best round counts: noise only ever adds time."""
        cores = os.cpu_count() or 1
        if cores < 2:
            pytest.skip(
                f"cpu_count is {cores}: two workers cannot outrun one "
                "process on CPU-bound load"
            )
        servers = [
            spawn_server(
                "--window-ms", "1", "--engine", "sim",
                "--workers", str(workers),
            )
            for workers in (1, 2)
        ]
        try:
            single, pool = (await_ready(s, []) for s in servers)
            times = {single: [], pool: []}
            for round_index in range(4):
                for addr in (single, pool):
                    times[addr].append(drive_round(addr, round_index))
        finally:
            stop_servers(*servers)
        speedup = min(times[single]) / min(times[pool])
        assert speedup >= 1.2, (
            f"2 workers only {speedup:.2f}x over 1 process at cpu_count "
            f"{cores}: {times}"
        )

