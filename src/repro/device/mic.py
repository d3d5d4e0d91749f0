"""One MIC coprocessor: topology + link + memory + compute model.

A :class:`MicDevice` also owns the per-partition simulation resources: one
capacity-1 resource per partition, so at most one kernel runs on a
partition at a time (hStreams semantics — a stream's kernels execute
serially on its place).
"""

from __future__ import annotations

from collections.abc import Generator

import numpy as np

from repro.config import DEFAULT_SEED
from repro.device.compute import ComputeModel, KernelWork
from repro.device.memory import DeviceMemory
from repro.device.pcie import PcieLink, TransferDirection
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.device.topology import Partition, Topology
from repro.errors import TopologyError
from repro.sim import Environment, Event, Resource


def invocation_time(
    compute: ComputeModel,
    memory: DeviceMemory,
    work: KernelWork,
    partition: Partition,
    first_extra: float = 0.0,
) -> float:
    """Noise-free on-device time of one invocation of ``work`` on
    ``partition``: the launch latency (plus ``first_extra``, a first
    invocation's code upload), the compute-model time, then the
    temporary-allocation cost of an allocating kernel, summed in that
    order.  The DES (:meth:`MicDevice.kernel_duration`) and the model
    (:mod:`repro.engine.grid`) both price kernels here."""
    duration = compute.spec.overheads.launch + first_extra
    duration += compute.kernel_time(work, partition)
    if work.temp_alloc_bytes > 0:
        duration += memory.alloc_cost(
            partition.nthreads,
            work.temp_alloc_bytes,
            per_thread=work.temp_alloc_per_thread,
        )
    return duration


class MicDevice:
    """A simulated Intel MIC coprocessor attached to the host via PCIe."""

    def __init__(
        self,
        env: Environment,
        spec: DeviceSpec = PHI_31SP,
        index: int = 0,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.env = env
        self.spec = spec
        self.index = index
        self.topology = Topology(spec)
        self._rng = np.random.default_rng(seed + 7919 * (index + 1))
        jitter = self._make_jitter()
        self.link = PcieLink(env, spec.link, jitter=jitter)
        self.memory = DeviceMemory(spec)
        self.compute = ComputeModel(spec)
        self._partitions: list[Partition] = self.topology.partitions(1)
        self._partition_locks: list[Resource] = [Resource(env, capacity=1)]
        #: Kernel names whose code is already resident (first invocation
        #: pays the upload cost).
        self._kernels_loaded: set[str] = set()

    def __repr__(self) -> str:
        return (
            f"<MicDevice #{self.index} {self.spec.name} "
            f"partitions={len(self._partitions)}>"
        )

    # -- partitioning -------------------------------------------------------

    def repartition(self, count: int) -> list[Partition]:
        """Split the device into ``count`` partitions (places)."""
        self._partitions = self.topology.partitions(count)
        self._partition_locks = [
            Resource(self.env, capacity=1) for _ in self._partitions
        ]
        return list(self._partitions)

    @property
    def partitions(self) -> list[Partition]:
        return list(self._partitions)

    def partition(self, index: int) -> Partition:
        if not 0 <= index < len(self._partitions):
            raise TopologyError(
                f"partition {index} outside [0, {len(self._partitions)})"
            )
        return self._partitions[index]

    def partition_lock(self, index: int) -> Resource:
        """The capacity-1 resource serialising kernels on a partition."""
        if not 0 <= index < len(self._partition_locks):
            raise TopologyError(
                f"partition {index} outside [0, {len(self._partition_locks)})"
            )
        return self._partition_locks[index]

    # -- timing -------------------------------------------------------------

    def _make_jitter(self):
        """Seeded measurement-noise factor, or ``None`` when disabled."""
        sigma = self.spec.noise_sigma
        if sigma <= 0.0:
            return None
        rng = self._rng

        def jitter() -> float:
            return float(rng.lognormal(0.0, sigma))

        return jitter

    def kernel_duration(self, work: KernelWork, partition: Partition) -> float:
        """Full on-device duration of one kernel invocation: its
        :func:`invocation_time`, where the first invocation of a kernel
        name on this card pays the code upload, times the seeded
        measurement noise when the spec has any."""
        first_extra = 0.0
        if work.name not in self._kernels_loaded:
            self._kernels_loaded.add(work.name)
            first_extra = self.spec.overheads.first_invoke_extra
        duration = invocation_time(
            self.compute, self.memory, work, partition, first_extra
        )
        if self.spec.noise_sigma > 0.0:
            duration *= float(self._rng.lognormal(0.0, self.spec.noise_sigma))
        return duration

    def transfer(
        self, direction: TransferDirection, nbytes: int
    ) -> Generator[Event, object, float]:
        """Simulation process moving ``nbytes`` across this device's link."""
        return self.link.transfer(direction, nbytes)
