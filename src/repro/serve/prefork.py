"""Prefork multi-process serving over a shared engine store.

``python -m repro serve --workers N`` scales the service past one core
by forking N worker processes that share one listening address:

* **Socket plan** (:func:`plan_sockets`) — where the kernel supports
  ``SO_REUSEPORT`` (Linux, modern BSDs), every worker binds its *own*
  socket to the same address and the kernel load-balances incoming
  connections across them.  Elsewhere the supervisor binds one socket
  before forking and every worker accepts on the inherited fd (classic
  prefork; accept contention instead of kernel balancing).
* **Workers** — each forked child builds a fresh warm stack
  (:class:`~repro.serve.backend.PredictionBackend` +
  :class:`~repro.serve.service.PredictionService`) and runs the
  asyncio HTTP front-end on its socket.  All workers point at the same
  persistent :class:`~repro.engine.store.EngineStore` path, so one
  worker's DES calibration verdict is every worker's cache hit (the
  store refreshes from disk when a sibling writes — see
  ``repro/engine/store.py``).
* **Supervisor** — the parent never serves traffic: it watches for
  worker death and respawns (bounded by :class:`RespawnPolicy` so a
  crash-looping worker cannot spin forever), forwards SIGTERM/SIGINT
  to the pool, and reaps every child before exiting, so a drained
  shutdown leaves no orphans.
* **Metrics** (:class:`MetricsHub`) — workers publish their
  :class:`~repro.metrics.registry.MetricsSnapshot` to per-worker JSON
  files (atomic writes) in a shared directory: at startup, every
  ``publish_interval`` seconds, and on every ``/metrics`` request they
  serve.  Whichever worker answers ``/metrics`` merges all published
  snapshots (the merge is associative and commutative by construction,
  see ``docs/OBSERVABILITY.md``) and appends per-worker request counts,
  so operators see pool-wide totals from any connection.

Everything except :func:`run_prefork` itself is side-effect-free and
unit-tested without forking; the end-to-end path is covered by
``scripts/serve_smoke.py --workers 2`` and ``tests/serve/test_prefork``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError
from repro.metrics.manifest import atomic_write_json
from repro.metrics.registry import MetricsSnapshot, get_registry

#: Seconds between periodic worker snapshot publications.
PUBLISH_INTERVAL = 1.0

#: Extra seconds the supervisor waits past ``drain_grace`` before
#: escalating from SIGTERM to SIGKILL on shutdown.
KILL_GRACE = 15.0


# -- listening sockets -------------------------------------------------------


def supports_reuseport() -> bool:
    """Whether this platform can bind N sockets to one (host, port)."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:  # pragma: no cover - platform-specific
        return False
    finally:
        probe.close()


@dataclass
class SocketPlan:
    """The listening socket(s) a worker pool serves from.

    ``reuseport`` mode holds one socket per worker (kernel-balanced);
    ``shared`` mode holds a single pre-fork socket every worker
    accepts on.
    """

    host: str
    port: int
    workers: int
    reuseport: bool
    sockets: "list[socket.socket]" = field(default_factory=list)

    @property
    def mode(self) -> str:
        return "reuseport" if self.reuseport else "shared"

    def worker_socket(self, index: int) -> socket.socket:
        """The socket worker ``index`` should serve on."""
        if self.reuseport:
            return self.sockets[index]
        return self.sockets[0]

    def close_others(self, index: int) -> None:
        """Inside a forked worker: close every inherited socket this
        worker does not serve on (reuseport siblings)."""
        keep = self.worker_socket(index)
        for sock in self.sockets:
            if sock is not keep:
                sock.close()

    def close_all(self) -> None:
        for sock in self.sockets:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass


def _bind(host: str, port: int, reuse_port: bool) -> socket.socket:
    sock = socket.create_server(
        (host, port), backlog=128, reuse_port=reuse_port
    )
    sock.set_inheritable(True)
    return sock


def plan_sockets(
    host: str,
    port: int,
    workers: int,
    reuseport: "bool | None" = None,
) -> SocketPlan:
    """Bind the pool's listening socket(s) before any fork.

    ``port=0`` picks an ephemeral port on the first bind; reuseport
    siblings then bind the discovered port, so the whole pool shares
    one address either way.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if reuseport is None:
        reuseport = workers > 1 and supports_reuseport()
    first = _bind(host, port, reuseport)
    bound_port = first.getsockname()[1]
    sockets = [first]
    if reuseport:
        for _ in range(workers - 1):
            sockets.append(_bind(host, bound_port, True))
    return SocketPlan(
        host=host,
        port=bound_port,
        workers=workers,
        reuseport=reuseport,
        sockets=sockets,
    )


# -- cross-worker metrics ----------------------------------------------------


class MetricsHub:
    """File-based metrics exchange between pool workers.

    Each worker owns one ``worker-<id>.json`` file in a shared
    directory and rewrites it atomically (temp file + ``os.replace``,
    like the engine store) with its current snapshot.  Aggregation
    reads every sibling file and folds the snapshots together —
    counter/histogram merge is associative and commutative, so the
    result is order-independent and monotone.
    """

    def __init__(self, root, worker_id: "int | None" = None) -> None:
        self.root = Path(root)
        self.worker_id = worker_id

    def _path(self, worker_id: int) -> Path:
        return self.root / f"worker-{worker_id}.json"

    def publish(self, snapshot: MetricsSnapshot) -> None:
        """Atomically write this worker's current snapshot."""
        if self.worker_id is None:
            raise ConfigurationError("publish() needs a worker_id")
        atomic_write_json(
            self._path(self.worker_id),
            {
                "worker": self.worker_id,
                "pid": os.getpid(),
                "published_unix": time.time(),
                "snapshot": snapshot.to_dict(),
            },
        )

    def read_all(self) -> "dict[int, MetricsSnapshot]":
        """Every published worker snapshot (unreadable files skipped —
        a worker mid-replace or freshly dead is not an error)."""
        out: "dict[int, MetricsSnapshot]" = {}
        try:
            paths = sorted(self.root.glob("worker-*.json"))
        except OSError:  # pragma: no cover - hub dir vanished
            return out
        for path in paths:
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                out[int(payload["worker"])] = MetricsSnapshot.from_dict(
                    payload["snapshot"]
                )
            except (OSError, ValueError, KeyError, TypeError):
                continue
        return out

    def aggregate(self) -> MetricsSnapshot:
        """All published snapshots merged into one."""
        merged = MetricsSnapshot.empty()
        for _, snapshot in sorted(self.read_all().items()):
            merged = merged.merge(snapshot)
        return merged

    def format_block(self) -> str:
        """The pool-wide ``/metrics`` text: the merged block plus
        per-worker request counts (``{worker=<id>}`` labels)."""
        snapshots = self.read_all()
        merged = MetricsSnapshot.empty()
        for _, snapshot in sorted(snapshots.items()):
            merged = merged.merge(snapshot)
        lines = [merged.format_block()] if len(snapshots) else []
        lines.append(f"serve.workers: {len(snapshots)}")
        for worker_id, snapshot in sorted(snapshots.items()):
            total = sum(
                entry["value"]
                for kind, entry in snapshot.iter_entries()
                if kind == "counter" and entry["name"] == "serve.requests"
            )
            lines.append(
                f"serve.worker.requests{{worker={worker_id}}}: {total:g}"
            )
        return "\n".join(line for line in lines if line)


# -- respawn policy ----------------------------------------------------------


@dataclass
class RespawnPolicy:
    """How hard the supervisor tries to keep a worker slot alive.

    A slot that dies more than ``max_respawns`` times within ``window``
    seconds is declared crash-looping; the supervisor then gives up and
    shuts the pool down (exiting nonzero) rather than burning CPU on a
    doomed fork/die cycle.
    """

    max_respawns: int = 5
    window: float = 60.0

    def tracker(self, clock=time.monotonic) -> "_RespawnTracker":
        return _RespawnTracker(self, clock)


class _RespawnTracker:
    def __init__(self, policy: RespawnPolicy, clock) -> None:
        self.policy = policy
        self.clock = clock
        self._exits: "dict[int, list[float]]" = {}

    def should_respawn(self, index: int, now: "float | None" = None) -> bool:
        """Record one unexpected exit of slot ``index``; True while the
        slot is still within its respawn budget."""
        now = self.clock() if now is None else now
        horizon = now - self.policy.window
        exits = [t for t in self._exits.get(index, []) if t > horizon]
        exits.append(now)
        self._exits[index] = exits
        return len(exits) <= self.policy.max_respawns


# -- worker + supervisor -----------------------------------------------------


def _worker_async(service, plan, index, http_config, drain_grace, hub):
    """The coroutine one worker runs: HTTP server + periodic metrics
    publication, until SIGTERM drains it."""
    from repro.serve.http import run_server

    async def main() -> None:
        hub.publish(get_registry().snapshot())

        async def publish_loop() -> None:
            while True:
                await asyncio.sleep(PUBLISH_INTERVAL)
                hub.publish(get_registry().snapshot())

        publisher = asyncio.create_task(publish_loop())

        def ready(addr) -> None:
            print(
                f"repro.serve worker {index} ready "
                f"(pid={os.getpid()}, addr={addr[0]}:{addr[1]})",
                flush=True,
            )

        try:
            await run_server(
                service,
                ready=ready,
                drain_grace=drain_grace,
                http_config=http_config,
                sock=plan.worker_socket(index),
            )
        finally:
            publisher.cancel()
            try:
                hub.publish(get_registry().snapshot())
            except Exception:  # noqa: BLE001 - hub dir may be gone
                pass

    return main()


def _worker_process(
    index: int,
    plan: SocketPlan,
    backend_kwargs: dict,
    serve_config,
    http_config,
    hub_dir,
    drain_grace: float,
) -> int:
    """Everything a forked child does; returns its exit code."""
    from repro.serve.backend import PredictionBackend
    from repro.serve.service import PredictionService

    # The child starts from the parent's signal state; restore defaults
    # so the asyncio loop can install its own graceful-drain handlers.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    plan.close_others(index)
    hub = MetricsHub(hub_dir, worker_id=index)
    backend = PredictionBackend(**backend_kwargs)
    service = PredictionService(
        backend, serve_config, worker_id=index, metrics_hub=hub
    )
    get_registry().gauge("serve.worker.up", worker=index).set(1)
    asyncio.run(
        _worker_async(service, plan, index, http_config, drain_grace, hub)
    )
    return 0


def run_prefork(
    workers: int,
    host: str = "127.0.0.1",
    port: int = 8351,
    backend_kwargs: "dict | None" = None,
    serve_config=None,
    http_config=None,
    drain_grace: float = 10.0,
    ready=None,
    respawn: "RespawnPolicy | None" = None,
) -> int:
    """Supervise a pool of ``workers`` forked serving processes.

    Blocks until the pool exits: returns 0 when every worker drained
    cleanly after SIGTERM/SIGINT, 1 when a worker crash-looped past its
    :class:`RespawnPolicy` budget or exited nonzero during shutdown.
    """
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        raise ConfigurationError(
            "--workers > 1 needs os.fork (POSIX); run single-process here"
        )
    from repro.serve.core import ServeConfig
    from repro.serve.http import HttpConfig

    backend_kwargs = dict(backend_kwargs or {})
    serve_config = serve_config or ServeConfig()
    http_config = http_config or HttpConfig()
    tracker = (respawn or RespawnPolicy()).tracker()
    plan = plan_sockets(host, port, workers)
    hub_dir = tempfile.mkdtemp(prefix="repro-serve-hub-")
    if ready is not None:
        ready((plan.host, plan.port), plan)

    pids: "dict[int, int]" = {}  # pid -> worker index
    shutting_down = False

    def spawn(index: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: serve, then _exit so the supervisor's stack never
            # unwinds twice (no atexit, no finally blocks of ours).
            code = 1
            try:
                code = _worker_process(
                    index,
                    plan,
                    backend_kwargs,
                    serve_config,
                    http_config,
                    hub_dir,
                    drain_grace,
                )
            except BaseException:  # noqa: BLE001 - report and die
                import traceback

                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        pids[pid] = index

    def forward_signal(signum, _frame) -> None:
        nonlocal shutting_down
        shutting_down = True
        for pid in list(pids):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous = {
        sig: signal.signal(sig, forward_signal)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    failures = 0
    kill_deadline: "float | None" = None
    try:
        for index in range(workers):
            spawn(index)
        while pids:
            if shutting_down and kill_deadline is None:
                kill_deadline = time.monotonic() + drain_grace + KILL_GRACE
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:  # pragma: no cover - races only
                break
            if pid == 0:
                if (
                    kill_deadline is not None
                    and time.monotonic() > kill_deadline
                ):
                    for stuck in list(pids):  # pragma: no cover - hang path
                        try:
                            os.kill(stuck, signal.SIGKILL)
                        except ProcessLookupError:
                            pass
                    kill_deadline = time.monotonic() + KILL_GRACE
                    failures += 1
                time.sleep(0.05)
                continue
            index = pids.pop(pid, None)
            code = os.waitstatus_to_exitcode(status)
            if shutting_down:
                if code != 0:
                    failures += 1
                    print(
                        f"repro.serve worker {index} exited rc={code} "
                        "during drain",
                        flush=True,
                    )
                continue
            print(
                f"repro.serve worker {index} died rc={code}", flush=True
            )
            if index is not None and tracker.should_respawn(index):
                spawn(index)
            else:
                # Crash loop: give up on the pool rather than fork-spin.
                failures += 1
                shutting_down = True
                for other in list(pids):
                    try:
                        os.kill(other, signal.SIGTERM)
                    except ProcessLookupError:
                        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        plan.close_all()
        _cleanup_hub(hub_dir)
    return 0 if failures == 0 else 1


def _cleanup_hub(hub_dir) -> None:
    try:
        for path in Path(hub_dir).glob("*"):
            path.unlink(missing_ok=True)
        Path(hub_dir).rmdir()
    except OSError:  # pragma: no cover - best-effort cleanup
        pass
