"""Vectorized analytic replicas of the device and runtime cost models.

The DES spends its time resuming generators and churning a heap; the
*numbers* it produces, however, come from closed-form cost models
(:mod:`repro.device.compute`, :mod:`repro.device.memory`,
:class:`repro.device.spec.LinkSpec`).  This module re-expresses those
models over numpy arrays — one row per stream — so an entire partition
grid can be costed without instantiating a single simulation object:

* :func:`stream_geometry` — the partition table of
  :meth:`repro.device.topology.Topology.partitions` plus the
  device-major place distribution of
  :class:`repro.hstreams.context.StreamContext`, as arrays;
* :func:`kernel_time` / :func:`invoke_cost` — vectorized
  :meth:`~repro.device.compute.ComputeModel.kernel_time` and
  :meth:`~repro.device.mic.MicDevice.kernel_duration`;
* :func:`check_supported` — the device specs the model can reproduce.

The schedule itself (FIFO chains, dependencies, overheads and the link
lanes) is evaluated by :mod:`repro.engine.grid`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device.compute import KernelWork
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import ModelUnsupportedError, TopologyError


def check_supported(spec: DeviceSpec) -> None:
    """Reject device specs outside the analytic fast path."""
    if spec.noise_sigma > 0.0:
        raise ModelUnsupportedError(
            "analytic engine cannot reproduce seeded measurement noise "
            f"(noise_sigma={spec.noise_sigma})"
        )
    if spec.link.full_duplex:
        raise ModelUnsupportedError(
            "analytic engine models the paper's half-duplex link only"
        )


@dataclass(frozen=True)
class StreamGeometry:
    """Per-stream partition geometry over every place of a context.

    All arrays have one entry per stream (``streams_per_place == 1``, so
    streams and places coincide).
    """

    #: Device index hosting each stream.
    device: np.ndarray
    #: Hardware threads in each stream's partition.
    nthreads: np.ndarray
    #: Whether the partition time-shares a core with a neighbour.
    shares_core: np.ndarray
    #: Distinct physical cores the partition touches.
    core_span: np.ndarray

    @property
    def num_streams(self) -> int:
        return len(self.device)


def partition_table(
    count: int, spec: DeviceSpec = PHI_31SP
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nthreads, shares_core, core_span)`` arrays replicating
    :meth:`repro.device.topology.Topology.partitions`."""
    total = spec.total_threads
    if not 1 <= count <= total:
        raise TopologyError(
            f"partition count must lie in [1, {total}], got {count}"
        )
    base, extra = divmod(total, count)
    sizes = np.full(count, base, dtype=np.int64)
    sizes[:extra] += 1
    stops = np.cumsum(sizes)
    starts = stops - sizes
    tpc = spec.threads_per_core
    core_start = starts // tpc
    core_stop = (stops - 1) // tpc
    shares = (starts % tpc != 0) | ((stops % tpc != 0) & (stops != total))
    return sizes, shares, core_stop - core_start + 1


def stream_geometry(
    places: int, num_devices: int = 1, spec: DeviceSpec = PHI_31SP
) -> StreamGeometry:
    """Geometry of every stream of ``StreamContext(places=places)``.

    Places are distributed device-major: ``places // num_devices`` per
    card, the first ``places % num_devices`` cards taking one extra —
    exactly :class:`~repro.hstreams.context.StreamContext`'s layout.
    """
    if places < num_devices:
        raise ModelUnsupportedError(
            f"need at least one place per device ({places} < {num_devices})"
        )
    per_device = [places // num_devices] * num_devices
    for i in range(places % num_devices):
        per_device[i] += 1
    device, nthreads, shares, span = [], [], [], []
    for dev, count in enumerate(per_device):
        n, s, c = partition_table(count, spec)
        device.append(np.full(count, dev, dtype=np.int64))
        nthreads.append(n)
        shares.append(s)
        span.append(c)
    return StreamGeometry(
        device=np.concatenate(device),
        nthreads=np.concatenate(nthreads).astype(np.float64),
        shares_core=np.concatenate(shares),
        core_span=np.concatenate(span),
    )


def kernel_time(
    work: KernelWork, geom: StreamGeometry, spec: DeviceSpec = PHI_31SP
) -> np.ndarray:
    """Vectorized :meth:`repro.device.compute.ComputeModel.kernel_time`:
    one entry per stream of ``geom``."""
    n = geom.nthreads
    rate = n * work.thread_rate * work.efficiency
    rate = np.where(
        geom.shares_core, rate * spec.shared_core_throughput, rate
    )
    saturation = n * spec.items_per_thread_full
    if np.isfinite(work.parallel_width):
        rate = np.where(
            work.parallel_width < saturation,
            rate * (work.parallel_width / saturation),
            rate,
        )
    if work.flops > 0:
        per_thread = work.flops / n
        rate = rate * (per_thread / (per_thread + spec.grain_half_ops))
        t_flops = work.flops / rate
    else:
        t_flops = np.zeros_like(n)
    memory_rate = spec.mem_bandwidth * n / spec.total_threads
    t_mem = work.bytes_touched / memory_rate
    t_work = np.maximum(t_flops, t_mem)
    if work.cache_sensitive:
        t_work = np.where(
            geom.core_span <= spec.cache_span_cores,
            t_work / spec.cache_span_bonus,
            t_work,
        )
    return work.serial_time + t_work


def invoke_cost(
    work: KernelWork, geom: StreamGeometry, spec: DeviceSpec = PHI_31SP
) -> np.ndarray:
    """Vectorized :meth:`repro.device.mic.MicDevice.kernel_duration`,
    *excluding* the one-off first-invocation upload (the evaluator adds
    it per (device, kernel-name) as the schedule unfolds)."""
    t = spec.overheads.launch + kernel_time(work, geom, spec)
    if work.temp_alloc_bytes > 0:
        alloc = spec.alloc_base + spec.alloc_per_byte * work.temp_alloc_bytes
        if work.temp_alloc_per_thread:
            alloc = alloc + spec.alloc_per_thread * geom.nthreads
        t = t + alloc
    return t
