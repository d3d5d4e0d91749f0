"""Common application machinery: run records and the app base class."""

from __future__ import annotations

import abc
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.config import RunProtocol
from repro.device.compute import KernelWork
from repro.device.platform import HeteroPlatform
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.metrics.instrument import observe_app_run
from repro.trace import Timeline
from repro.trace.stats import Summary, summarize
from repro.util.units import gflops


@dataclass
class AppRun:
    """Outcome of one application execution."""

    app: str
    #: Wall-clock (simulated) seconds from first enqueue to final sync.
    elapsed: float
    #: Configuration that produced it.
    places: int
    tiles: int
    #: App-specific throughput metric (GFLOP/s for MM/CF, None otherwise).
    gflops: float | None = None
    #: Application outputs for verification (real-data runs only).
    outputs: dict[str, Any] = field(default_factory=dict)
    #: Timeline over the run's trace.
    timeline: Timeline | None = None
    #: Metrics recorded while this run executed (attached by
    #: :meth:`repro.parallel.runspec.RunSpec.execute`; ``None`` for runs
    #: restored from the simulation cache or a sweep checkpoint, so
    #: restored runs never re-merge into the parent registry).
    metrics: "Any | None" = None
    #: Which evaluation backend produced the timings: ``"sim"`` for the
    #: discrete-event simulation, ``"model"`` for the analytic engine
    #: (see :mod:`repro.engine`).
    engine: str = "sim"

    def __post_init__(self) -> None:
        if self.elapsed <= 0:
            raise ConfigurationError(
                f"elapsed must be positive, got {self.elapsed}"
            )

    def report(self) -> "object":
        """Utilisation/overlap summary of this run (see trace.report)."""
        from repro.trace.report import run_report

        if self.timeline is None:
            raise ConfigurationError("run has no timeline")
        return run_report(self.timeline.events)

    def energy(self, spec=None, num_devices: int = 1) -> "object":
        """Energy breakdown of this run (see trace.energy)."""
        from repro.device.spec import PHI_31SP
        from repro.trace.energy import energy_report

        if self.timeline is None:
            raise ConfigurationError("run has no timeline")
        return energy_report(
            self.timeline.events,
            spec if spec is not None else PHI_31SP,
            num_devices=num_devices,
        )


def works_per_tile(
    sizes: Iterable[int], work_of: Callable[[int], KernelWork]
) -> list[KernelWork]:
    """``work_of(n)`` for each tile size ``n``, built once per distinct
    size: descriptors are immutable, so tiles of one size share one."""
    by_size: dict[int, KernelWork] = {}
    out = []
    for n in sizes:
        work = by_size.get(n)
        if work is None:
            work = by_size[n] = work_of(n)
        out.append(work)
    return out


class StreamedApp(abc.ABC):
    """Base class for the benchmarks.

    Subclasses implement :meth:`_execute`, which enqueues the whole
    application into a fresh context and returns optional outputs; the
    base class handles platform/context setup, timing (from after context
    initialisation to after the final sync, matching the paper's
    measurement of the offload region), and trace collection.
    """

    #: Short name used in reports.
    name: str = "app"

    def __init__(
        self,
        *,
        materialize: bool = False,
        spec: DeviceSpec = PHI_31SP,
    ) -> None:
        self.materialize = materialize
        self.spec = spec

    # -- interface ----------------------------------------------------------

    @abc.abstractmethod
    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        """Enqueue the app's whole flow into ``ctx`` (no syncing needed:
        the harness calls ``ctx.sync_all()`` afterwards).  May sync
        internally for non-overlappable flows.  Returns outputs."""

    @abc.abstractmethod
    def total_flops(self) -> float:
        """Useful floating-point work of one full run (for metrics)."""

    @property
    @abc.abstractmethod
    def tiles(self) -> int:
        """Number of tasks the dataset is split into."""

    # -- harness ------------------------------------------------------------

    def _platform(self, num_devices: int) -> HeteroPlatform:
        return HeteroPlatform(num_devices=num_devices, device_spec=self.spec)

    def run(
        self,
        places: int,
        streams_per_place: int = 1,
        num_devices: int = 1,
    ) -> AppRun:
        """One streamed execution with ``places`` partitions."""
        platform = self._platform(num_devices)
        ctx = StreamContext(
            places=places,
            streams_per_place=streams_per_place,
            platform=platform,
        )
        start = ctx.now  # after context init: the paper times the
        # offload region, not context creation
        outputs = self._execute(ctx)
        ctx.sync_all()
        elapsed = ctx.now - start
        ctx.record_metrics()
        observe_app_run(self.name, elapsed)
        flops = self.total_flops()
        return AppRun(
            app=self.name,
            elapsed=elapsed,
            places=places,
            tiles=self.tiles,
            gflops=gflops(flops, elapsed) if flops > 0 else None,
            outputs=outputs,
            timeline=Timeline(ctx.trace),
        )

    def measure(
        self,
        places: int,
        protocol: RunProtocol,
        streams_per_place: int = 1,
        num_devices: int = 1,
    ) -> Summary:
        """Apply the paper's protocol (11 iterations, drop the first)."""
        samples = [
            self.run(places, streams_per_place, num_devices).elapsed
            for _ in range(protocol.iterations)
        ]
        return summarize(samples, protocol)
