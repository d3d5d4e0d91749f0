"""The streaming context: partitioning, stream creation, global sync.

``StreamContext(places=P, streams_per_place=S)`` mirrors
``hStreams_app_init(P, S)``: the device's usable cores are split into
``P`` partitions, each hosting ``S`` streams (``P * S`` streams total).
On a multi-device platform the ``P`` places are distributed over the
domains device-major (:func:`~repro.device.platform.place_layout`) —
hStreams' unified view of all MICs, which lets the same streamed code
run on several cards unchanged (Sec. VI).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.device.platform import HeteroPlatform, place_layout
from repro.errors import ConfigurationError
from repro.hstreams.buffer import Buffer
from repro.hstreams.domain import Domain
from repro.hstreams.place import Place
from repro.hstreams.stream import Stream
from repro.hstreams.enums import ActionKind, StreamState
from repro.hstreams.errors import ContextStateError, DeadlockError
from repro.metrics.instrument import (
    observe_overlap,
    observe_sync,
    record_environment,
)
from repro.trace.events import TraceEvent


class StreamContext:
    """A live streaming session over a heterogeneous platform."""

    def __init__(
        self,
        places: int = 1,
        streams_per_place: int = 1,
        platform: HeteroPlatform | None = None,
    ) -> None:
        if places < 1:
            raise ConfigurationError(f"places must be >= 1, got {places}")
        if streams_per_place < 1:
            raise ConfigurationError(
                f"streams_per_place must be >= 1, got {streams_per_place}"
            )
        self.platform = platform if platform is not None else HeteroPlatform()
        self.env = self.platform.env
        self.num_places = places
        self.streams_per_place = streams_per_place
        self._seq = 0
        self._finalized = False
        self._metrics_recorded = False
        #: Completed-action trace (appended by actions as they finish).
        self.trace: list[TraceEvent] = []

        self.domains: list[Domain] = []
        self.places: list[Place] = []
        global_index = 0
        ndev = self.platform.num_devices
        for dev_index, count in enumerate(place_layout(places, ndev)):
            device = self.platform.device(dev_index)
            device.repartition(count)
            domain = Domain(index=dev_index, device=device)
            for part_index in range(count):
                place = Place(
                    index=global_index,
                    device=device,
                    partition_index=part_index,
                )
                domain.add_place(place)
                self.places.append(place)
                global_index += 1
            self.domains.append(domain)

        self.streams: list[Stream] = []
        for place in self.places:
            for _ in range(streams_per_place):
                self.streams.append(Stream(self, len(self.streams), place))

        # Context initialisation cost: partition setup, paid up front.
        setup = sum(
            d.device.spec.overheads.partition_setup * d.num_places
            for d in self.domains
        )
        if setup > 0:
            self.env.run(until=self.env.timeout(setup))

    def __repr__(self) -> str:
        return (
            f"<StreamContext places={self.num_places} "
            f"streams={len(self.streams)} devices={self.platform.num_devices}>"
        )

    def __enter__(self) -> "StreamContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._finalized:
            self.fini()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.env.now

    @property
    def num_streams(self) -> int:
        return len(self.streams)

    def stream(self, index: int) -> Stream:
        if not 0 <= index < len(self.streams):
            raise ConfigurationError(
                f"stream {index} outside [0, {len(self.streams)})"
            )
        return self.streams[index]

    def buffer(
        self,
        host: np.ndarray | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: Any = None,
        name: str | None = None,
    ) -> Buffer:
        """Create a buffer (real if ``host`` given, else virtual)."""
        return Buffer(host, shape=shape, dtype=dtype, name=name)

    # -- synchronisation -----------------------------------------------------

    def join_all(self):
        """An event firing once every stream's enqueued work completes.

        Includes the serial per-stream join cost (like :meth:`sync_all`),
        but as a yieldable event so *host processes* can synchronise in
        virtual time instead of blocking the real host.
        """
        self._check_live()
        env = self.env
        tails = [s._last_done for s in self.streams if s._last_done is not None]
        join_cost = sum(
            s.place.device.spec.overheads.sync_per_stream for s in self.streams
        )

        def join():
            if tails:
                yield env.all_of(tails)
            yield env.timeout(join_cost)

        return env.process(join())

    def host_process(self, generator):
        """Run ``generator`` as a host-side process in virtual time.

        The generator yields events (action ``done`` events,
        :meth:`Stream.barrier`, :meth:`join_all`, timeouts, ...) and may
        enqueue further actions between yields — enabling data-dependent
        control flow such as convergence loops whose decisions happen on
        the simulated clock.  Drive it with ``ctx.run(until=process)``.
        """
        self._check_live()
        return self.env.process(generator)

    def run(self, until=None):
        """Advance the simulation (see ``Environment.run``)."""
        return self.env.run(until)

    def sync_all(self) -> float:
        """Join every stream (``hStreams_app_thread_sync``).

        The host visits the streams serially, paying the per-stream join
        cost for each — the management overhead that grows with the
        number of partitions (Fig. 7's right edge).

        Raises :class:`DeadlockError` (listing the stuck actions) if the
        simulation runs out of events before the join completes — the
        signature of a dependency cycle.
        """
        from repro.errors import SimulationError

        try:
            self.env.run(until=self.join_all())
        except SimulationError:
            stuck = [
                repr(action)
                for stream in self.streams
                for action in stream.actions
                if action.finished_at is None
            ]
            raise DeadlockError(
                "simulation stalled with pending actions — dependency "
                f"cycle? stuck: {', '.join(stuck) or '(none recorded)'}"
            ) from None
        observe_sync("context")
        return self.env.now

    def run_until_idle(self) -> float:
        """Drain every scheduled event without the sync-join cost."""
        self.env.run()
        return self.env.now

    def fini(self) -> None:
        """Finalise: sync everything and close the streams."""
        self._check_live()
        self.sync_all()
        for stream in self.streams:
            stream.state = StreamState.CLOSED
        self._finalized = True
        self.record_metrics()

    def record_metrics(self) -> None:
        """Publish this context's engine totals and overlap fraction.

        Idempotent — :meth:`fini` calls it automatically, but apps that
        keep a context alive across phases may call it early; only the
        first call records.  The overlap fraction is the share of
        transfer busy time hidden under concurrent kernel execution —
        the quantity multiple streams exist to maximise (Fig. 4).
        """
        if self._metrics_recorded:
            return
        self._metrics_recorded = True
        record_environment(self.env)
        from repro.trace.timeline import Timeline

        timeline = Timeline(self.trace)
        transfer_busy = timeline.filter(
            kinds=(ActionKind.H2D, ActionKind.D2H)
        ).busy_time()
        if transfer_busy > 0:
            observe_overlap(
                timeline.transfer_compute_overlap() / transfer_busy
            )

    def _check_live(self) -> None:
        if self._finalized:
            raise ContextStateError("context already finalised")
