"""Instrumentation hooks: where the stack reports into the registry.

These helpers are the narrow waist between the simulation/runtime layers
and :mod:`repro.metrics.registry`.  They deliberately take plain values
(kind strings, durations, byte counts) so the low-level modules never
import anything above themselves; everything records into the process's
*active* registry (:func:`~repro.metrics.registry.get_registry`).

Metric names recorded here (see ``docs/OBSERVABILITY.md`` for the full
catalogue):

===============================  =========  ===============================
name                             kind       meaning
===============================  =========  ===============================
``sim.events_processed``         counter    DES events dispatched
``sim.processes_started``        counter    generator processes launched
``sim.queue_depth_max``          histogram  per-run peak event-heap depth
``hstreams.enqueued``            counter    actions enqueued, by ``kind``
``hstreams.actions``             counter    actions completed, by ``kind``
``hstreams.action_seconds``      histogram  stage durations, by ``kind``
``hstreams.bytes_moved``         counter    transfer payload, by ``kind``
``hstreams.faults``              counter    injected faults, by ``site``
``hstreams.overlap_fraction``    histogram  transfer time hidden under EXE
``hstreams.stream_syncs``        counter    ``Stream.sync`` calls
``hstreams.context_syncs``       counter    ``sync_all`` joins
``hstreams.buffer_instantiations`` counter  device residencies created
``hstreams.buffer_bytes_reserved`` counter  device memory reserved
``app.runs``                     counter    app executions, by ``app``
``app.elapsed_seconds``          histogram  simulated run time, by ``app``
===============================  =========  ===============================
"""

from __future__ import annotations

from repro.metrics.registry import DEFAULT_TIME_BUCKETS, get_registry

#: Buckets for dimensionless ratios in [0, 1].
RATIO_BUCKETS: tuple[float, ...] = (
    0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
)

#: Buckets for event-heap depths (powers of four).
DEPTH_BUCKETS: tuple[float, ...] = (
    4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


class _ActionMetrics:
    """One action kind's hot-path metrics in one registry.

    Resolving metric identity (lock + label sort) costs microseconds;
    at hundreds of thousands of actions per sweep that is visible next
    to the simulated work, so each kind's metrics are resolved once per
    registry and kept here.  Each one is created on first use, exactly
    when an uncached lookup would create it, so the registry holds the
    same metrics either way.  The memo lives on the registry itself, so
    scoped registries never see each other's objects and ``clear()``
    drops it with the metrics.
    """

    __slots__ = ("enqueued", "actions", "seconds", "bytes_moved")

    def __init__(self) -> None:
        self.enqueued = None
        self.actions = None
        self.seconds = None
        self.bytes_moved = None


def _action_metrics(registry, kind: str) -> _ActionMetrics:
    metrics = registry._hot.get(kind)
    if metrics is None:
        metrics = registry._hot[kind] = _ActionMetrics()
    return metrics


def observe_enqueue(kind: str) -> None:
    """One action entered a stream's FIFO."""
    registry = get_registry()
    metrics = _action_metrics(registry, kind)
    if metrics.enqueued is None:
        metrics.enqueued = registry.counter("hstreams.enqueued", kind=kind)
    metrics.enqueued.inc()


def observe_action(kind: str, duration: float, nbytes: int = 0) -> None:
    """One action completed its payload stage."""
    registry = get_registry()
    metrics = _action_metrics(registry, kind)
    if metrics.actions is None:
        metrics.actions = registry.counter("hstreams.actions", kind=kind)
        metrics.seconds = registry.histogram(
            "hstreams.action_seconds", buckets=DEFAULT_TIME_BUCKETS,
            kind=kind,
        )
    metrics.actions.inc()
    metrics.seconds.observe(max(duration, 0.0))
    if nbytes:
        if metrics.bytes_moved is None:
            metrics.bytes_moved = registry.counter(
                "hstreams.bytes_moved", kind=kind
            )
        metrics.bytes_moved.inc(nbytes)


def observe_fault(site: str) -> None:
    """An injected fault fired at a runtime site."""
    get_registry().counter("hstreams.faults", site=site).inc()


def observe_sync(scope: str) -> None:
    """A host-side join completed (``scope``: stream | context)."""
    get_registry().counter(f"hstreams.{scope}_syncs").inc()


def observe_buffer_instantiation(nbytes: int) -> None:
    """A buffer reserved device memory."""
    registry = get_registry()
    registry.counter("hstreams.buffer_instantiations").inc()
    registry.counter("hstreams.buffer_bytes_reserved").inc(nbytes)


def record_environment(env: "object") -> None:
    """Publish a finished environment's engine totals.

    ``env`` exposes plain integer attributes (``events_processed``,
    ``processes_started``, ``max_queue_depth``) maintained without locks
    inside the DES hot loop; this reads them once at the end of a run,
    so instrumentation costs the engine three attribute increments per
    event/process — not a registry lookup.

    Idempotence is the caller's job: call once per environment (the
    :class:`~repro.hstreams.context.StreamContext` guards this).
    """
    registry = get_registry()
    registry.counter("sim.events_processed").inc(
        getattr(env, "events_processed", 0)
    )
    registry.counter("sim.processes_started").inc(
        getattr(env, "processes_started", 0)
    )
    depth = getattr(env, "max_queue_depth", 0)
    if depth:
        registry.histogram(
            "sim.queue_depth_max", buckets=DEPTH_BUCKETS
        ).observe(depth)


def observe_app_run(app: str, elapsed: float) -> None:
    """One application execution finished."""
    registry = get_registry()
    registry.counter("app.runs", app=app).inc()
    registry.histogram("app.elapsed_seconds", app=app).observe(elapsed)


def observe_overlap(fraction: float) -> None:
    """Transfer/compute overlap fraction of one finished context."""
    get_registry().histogram(
        "hstreams.overlap_fraction", buckets=RATIO_BUCKETS
    ).observe(min(max(fraction, 0.0), 1.0))
