"""First-order kernel execution-time model.

A kernel invocation on a partition of ``n`` hardware threads takes

.. math::

    t = t_{serial} + \\max(t_{flops}, t_{mem}) \\cdot c_{cache}

with

* ``t_flops = flops / (n * thread_rate * efficiency)`` — the compute-bound
  time, degraded by the straggler factor when the partition time-shares a
  physical core with a neighbour (paper Sec. V-B1: with static work
  partitioning the slowest thread gates the kernel);
* ``t_mem = bytes / (BW * n / (n + n_half))`` — the memory-bound time with
  a saturating bandwidth curve;
* ``c_cache`` — a locality bonus for cache-sensitive (stencil) kernels
  whose partition spans at most two physical cores (paper: Hotspot's dip
  at P in [33, 37]).

The model is deliberately first-order: each mechanism is one the paper
names as the cause of an observed effect, and each has a single constant
in :class:`~repro.device.spec.DeviceSpec` calibrated against a published
anchor point (see :mod:`repro.device.calibration`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.device.spec import DeviceSpec
from repro.device.topology import Partition
from repro.errors import KernelError


@dataclass(frozen=True)
class KernelWork:
    """The work content of one kernel invocation (one task's EXE stage)."""

    #: Kernel name (for traces and reports).
    name: str
    #: Useful floating-point (or comparable) operations.
    flops: float
    #: Bytes of memory traffic the invocation generates.
    bytes_touched: float
    #: Per-thread compute rate in op/s at efficiency 1.  Kernel modules
    #: derive this from the device's peak and their vectorisation quality.
    thread_rate: float
    #: Non-parallelisable time per invocation (setup, reductions).
    serial_time: float = 0.0
    #: Scratch bytes allocated/freed inside the kernel (Kmeans-class
    #: kernels); 0 means no per-invocation allocation cost.
    temp_alloc_bytes: int = 0
    #: Whether the scratch is per-thread (each team member allocates and
    #: faults its own slice — Kmeans partial sums) or shared (one arena
    #: allocation whose cost is dominated by first-touch paging — SRAD's
    #: derivative arrays).  Selects which terms of the allocation cost
    #: model apply.
    temp_alloc_per_thread: bool = True
    #: Whether the kernel benefits from a small cache footprint
    #: (stencil-class kernels).
    cache_sensitive: bool = False
    #: Additional efficiency multiplier in (0, 1] (e.g. tile-size
    #: amortisation for blocked GEMM).
    efficiency: float = 1.0
    #: Number of independent work items (e.g. rows) the kernel can spread
    #: over threads; ``inf`` means embarrassingly wide.
    parallel_width: float = float("inf")

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes_touched < 0:
            raise KernelError(f"negative work in kernel {self.name!r}")
        if self.thread_rate <= 0:
            raise KernelError(
                f"thread_rate must be positive in kernel {self.name!r}"
            )
        if not 0.0 < self.efficiency <= 1.0:
            raise KernelError(
                f"efficiency must lie in (0, 1], got {self.efficiency}"
            )
        if self.parallel_width <= 0:
            raise KernelError("parallel_width must be positive")
        if self.serial_time < 0:
            raise KernelError("serial_time must be >= 0")

    def scaled(self, factor: float) -> "KernelWork":
        """A copy with flops and bytes scaled by ``factor``."""
        if factor < 0:
            raise KernelError(f"scale factor must be >= 0, got {factor}")
        return replace(
            self,
            flops=self.flops * factor,
            bytes_touched=self.bytes_touched * factor,
        )


class ComputeModel:
    """Maps (kernel work, partition geometry) to simulated seconds."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec

    def __repr__(self) -> str:
        return f"<ComputeModel {self.spec.name}>"

    def effective_rate(self, work: KernelWork, partition: Partition) -> float:
        """Aggregate compute rate (op/s) of ``partition`` for ``work``."""
        rate = partition.nthreads * work.thread_rate * work.efficiency
        if partition.shares_core:
            rate *= self.spec.shared_core_throughput
        # A narrow kernel cannot feed every thread of a wide partition.
        saturation = partition.nthreads * self.spec.items_per_thread_full
        if work.parallel_width < saturation:
            rate *= work.parallel_width / saturation
        return rate

    def memory_rate(self, partition: Partition) -> float:
        """Memory bandwidth (B/s) available to ``partition``.

        KNC needs many outstanding threads to fill its GDDR pipes, so
        per-thread bandwidth is roughly constant and a partition gets its
        proportional share — which keeps concurrent partitions from
        oversubscribing the aggregate (memory-bound work is
        work-conserving across partitionings, as Hotspot's flat Fig. 8(d)
        comparison requires).
        """
        n = partition.nthreads
        return self.spec.mem_bandwidth * n / self.spec.total_threads

    def grain_factor(self, work: KernelWork, partition: Partition) -> float:
        """Utilisation factor for small per-thread work (in (0, 1])."""
        if work.flops <= 0:
            return 1.0
        per_thread = work.flops / partition.nthreads
        return per_thread / (per_thread + self.spec.grain_half_ops)

    def kernel_time(self, work: KernelWork, partition: Partition) -> float:
        """Execution time of one invocation of ``work`` on ``partition``.

        Does **not** include launch latency or temporary-allocation cost;
        :func:`repro.device.mic.invocation_time` adds those.
        """
        rate = self.effective_rate(work, partition)
        rate *= self.grain_factor(work, partition)
        t_flops = work.flops / rate
        t_mem = work.bytes_touched / self.memory_rate(partition)
        t_work = max(t_flops, t_mem)
        if (
            work.cache_sensitive
            and partition.core_span <= self.spec.cache_span_cores
        ):
            t_work /= self.spec.cache_span_bonus
        return work.serial_time + t_work
