"""The PCIe link model.

The paper's first microbenchmark finding (Fig. 5) is that data transfers in
the two directions are performed *serially* on Phi.  The link is therefore
modelled as a capacity-1 simulation resource: any transfer, in either
direction, occupies the whole link for ``latency + bytes / bandwidth``.

A ``full_duplex=True`` spec (used by the ablation benchmarks to show what
the GPU-style behaviour would look like) gives each direction its own
capacity-1 resource instead.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Generator

from repro.device.spec import LinkSpec
from repro.sim import Environment, Event, Resource


class TransferDirection(enum.Enum):
    """Direction of a host/device transfer."""

    H2D = "h2d"
    D2H = "d2h"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class PcieLink:
    """A host <-> device link with serial (or full-duplex) semantics."""

    def __init__(
        self,
        env: Environment,
        spec: LinkSpec,
        jitter: Callable[[], float] | None = None,
    ) -> None:
        self.env = env
        self.spec = spec
        #: Multiplicative duration jitter (measurement-noise model);
        #: ``None`` means deterministic.
        self._jitter = jitter
        if spec.full_duplex:
            self._lanes = {
                TransferDirection.H2D: Resource(env, capacity=1),
                TransferDirection.D2H: Resource(env, capacity=1),
            }
        else:
            shared = Resource(env, capacity=1)
            self._lanes = {
                TransferDirection.H2D: shared,
                TransferDirection.D2H: shared,
            }

    def lane(self, direction: TransferDirection) -> Resource:
        """The resource representing ``direction``'s lane."""
        return self._lanes[direction]

    def transfer_time(self, nbytes: int) -> float:
        """Link occupancy for a transfer of ``nbytes``."""
        return self.spec.transfer_time(nbytes)

    def transfer(
        self, direction: TransferDirection, nbytes: int
    ) -> Generator[Event, object, tuple[float, float]]:
        """Simulation process performing one transfer.

        Yields until the lane is free, occupies it for the transfer time,
        and returns the ``(start, end)`` occupancy interval (excluding any
        time spent queueing for the lane).
        """
        lane = self._lanes[direction]
        duration = self.transfer_time(nbytes)
        if self._jitter is not None:
            duration *= self._jitter()
        with lane.request() as req:
            yield req
            start = self.env.now
            yield self.env.timeout(duration)
        return (start, self.env.now)
