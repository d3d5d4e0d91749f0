"""hBench: the microbenchmark behind Figs. 5, 6 and 7.

Three experiment modes:

* **transfer patterns** (Fig. 5) — move ``hd`` 1 MB blocks host-to-device
  and ``dh`` blocks back, in the four schedules CC / IC / CD / ID, to
  probe whether the two directions overlap;
* **overlap** (Fig. 6) — two 16 MB arrays and a kernel whose intensity is
  swept via its iteration count; compares measured streamed time against
  the serial (Data+Kernel) and full-overlap (Ideal) predictions;
* **partition sweep** (Fig. 7) — 128 blocks with forced synchronisation
  between transfer and compute stages (spatial sharing only), kernel time
  measured over the number of partitions, against the non-tiled
  non-streamed reference.

The figures evaluate each probe as a run spec:
:class:`TransferProbe`, :class:`StreamedProbe`, :class:`PartitionProbe`
and :class:`ReferenceProbe` each run one :class:`HBench` method, so
their points reach the sweep executor (pool, cache, checkpoint,
engines) as every other figure's do.
"""

from __future__ import annotations

import enum
from functools import cached_property

import numpy as np

from repro.apps.base import AppRun
from repro.device.spec import DeviceSpec, PHI_31SP
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.kernels.vecadd import vecadd_work
from repro.util.units import MB, gflops


class TransferPattern(enum.Enum):
    """Fig. 5 transfer schedules (naming follows the paper).

    For sweep position ``x`` in 0..16:

    * ``CC`` — constant/constant: hd = dh = 16;
    * ``IC`` — increasing/constant: hd = x, dh = 16;
    * ``CD`` — constant/decreasing: hd = 16, dh = 16 - x;
    * ``ID`` — increasing/decreasing: hd = x, dh = 16 - x.
    """

    CC = "CC"
    IC = "IC"
    CD = "CD"
    ID = "ID"

    def blocks(self, x: int, total: int = 16) -> tuple[int, int]:
        """(hd, dh) block counts at sweep position ``x``."""
        if not 0 <= x <= total:
            raise ConfigurationError(f"x must lie in [0, {total}], got {x}")
        if self is TransferPattern.CC:
            return total, total
        if self is TransferPattern.IC:
            return x, total
        if self is TransferPattern.CD:
            return total, total - x
        return x, total - x


class HBench:
    """The microbenchmark: ``B[i] = A[i] + alpha`` with tunable intensity."""

    def __init__(
        self,
        array_bytes: int = 16 * MB,
        block_bytes: int = 1 * MB,
        itemsize: int = 4,
        spec: DeviceSpec = PHI_31SP,
    ) -> None:
        if array_bytes <= 0 or block_bytes <= 0:
            raise ConfigurationError("array and block sizes must be positive")
        self.array_bytes = array_bytes
        self.block_bytes = block_bytes
        self.itemsize = itemsize
        self.spec = spec

    # -- Fig. 5: transfer patterns -------------------------------------------

    def transfer_time(self, hd_blocks: int, dh_blocks: int) -> float:
        """Measured time to move ``hd`` blocks out and ``dh`` blocks back.

        The two directions are issued on separate streams so they *could*
        overlap — whether they do is up to the link model (on Phi they
        serialise; Fig. 5).
        """
        ctx = StreamContext(places=2, platform=self._platform())
        start = ctx.now
        n_elems = self.block_bytes // self.itemsize
        out_buf = ctx.buffer(shape=(max(hd_blocks, 1), n_elems), dtype=np.float32)
        back_buf = ctx.buffer(shape=(max(dh_blocks, 1), n_elems), dtype=np.float32)
        h2d_stream, d2h_stream = ctx.stream(0), ctx.stream(1)
        back_buf.instantiate(d2h_stream.place.device)
        for i in range(hd_blocks):
            h2d_stream.h2d(out_buf, offset=i * n_elems, count=n_elems)
        for i in range(dh_blocks):
            d2h_stream.d2h(back_buf, offset=i * n_elems, count=n_elems)
        ctx.sync_all()
        return ctx.now - start

    def transfer_curve(
        self, pattern: TransferPattern, total: int = 16
    ) -> list[tuple[int, float]]:
        """The Fig. 5 series for ``pattern``: (x, seconds) for x in 0..total."""
        return [
            (x, self.transfer_time(*pattern.blocks(x, total)))
            for x in range(total + 1)
        ]

    # -- Fig. 6: overlap -------------------------------------------------------

    @property
    def elements(self) -> int:
        return self.array_bytes // self.itemsize

    def data_time(self) -> float:
        """Model: both arrays across the (serial) link."""
        return 2 * self.spec.link.transfer_time(self.array_bytes)

    def kernel_time(self, iterations: int) -> float:
        """Model: full-device kernel time at the given intensity."""
        from repro.device.compute import ComputeModel
        from repro.device.topology import Topology

        work = vecadd_work(self.elements, iterations, self.itemsize, self.spec)
        whole = Topology(self.spec).partitions(1)[0]
        return ComputeModel(self.spec).kernel_time(work, whole)

    def serial_time(self, iterations: int) -> float:
        """Model: no overlap at all (the paper's Data+Kernel line)."""
        return self.data_time() + self.kernel_time(iterations)

    def ideal_time(self, iterations: int) -> float:
        """Model: perfect overlap (the paper's Ideal line)."""
        return max(self.data_time(), self.kernel_time(iterations))

    def streamed_time(self, iterations: int, streams: int = 4) -> float:
        """Measured: arrays chunked over ``streams`` (H2D, EXE, D2H) pipes."""
        if streams < 1:
            raise ConfigurationError(f"streams must be >= 1, got {streams}")
        ctx = StreamContext(places=streams, platform=self._platform())
        start = ctx.now
        a = ctx.buffer(shape=(self.elements,), dtype=np.float32, name="A")
        b = ctx.buffer(shape=(self.elements,), dtype=np.float32, name="B")
        bounds = np.linspace(0, self.elements, streams + 1).astype(int)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            stream = ctx.stream(i)
            count = int(hi - lo)
            if count == 0:
                continue
            work = vecadd_work(count, iterations, self.itemsize, self.spec)
            stream.h2d(a, offset=int(lo), count=count)
            stream.h2d(b, offset=int(lo), count=0)  # make B resident
            stream.invoke(work)
            stream.d2h(b, offset=int(lo), count=count)
        ctx.sync_all()
        return ctx.now - start

    # -- Fig. 7: partition sweep ----------------------------------------------

    def partition_sweep_time(
        self,
        places: int,
        nblocks: int = 128,
        iterations: int = 100,
    ) -> float:
        """Kernel-only time with forced stage sync (spatial sharing only).

        All blocks are transferred first, then a global sync, then every
        block's kernel runs (round-robin over streams), then a final
        sync; only the kernel phase is timed — exactly the Fig. 7 setup.
        """
        if nblocks < 1:
            raise ConfigurationError(f"nblocks must be >= 1, got {nblocks}")
        ctx = StreamContext(places=places, platform=self._platform())
        block_elems = self.elements // nblocks
        if block_elems == 0:
            raise ConfigurationError(
                f"{nblocks} blocks over {self.elements} elements is empty"
            )
        a = ctx.buffer(shape=(self.elements,), dtype=np.float32, name="A")
        for i in range(nblocks):
            ctx.stream(i % ctx.num_streams).h2d(
                a, offset=i * block_elems, count=block_elems
            )
        ctx.sync_all()

        start = ctx.now
        work = vecadd_work(block_elems, iterations, self.itemsize, self.spec)
        for i in range(nblocks):
            ctx.stream(i % ctx.num_streams).invoke(work)
        ctx.sync_all()
        return ctx.now - start

    def reference_time(self, iterations: int = 100) -> float:
        """The non-streamed, non-tiled kernel time (Fig. 7's ``ref`` bar)."""
        ctx = StreamContext(places=1, platform=self._platform())
        a = ctx.buffer(shape=(self.elements,), dtype=np.float32, name="A")
        ctx.stream(0).h2d(a)
        ctx.sync_all()
        start = ctx.now
        work = vecadd_work(self.elements, iterations, self.itemsize, self.spec)
        ctx.stream(0).invoke(work)
        ctx.sync_all()
        return ctx.now - start

    def _platform(self):
        from repro.device.platform import HeteroPlatform

        return HeteroPlatform(num_devices=1, device_spec=self.spec)


# -- the probes as run-spec apps ----------------------------------------------


class _Probe:
    """One hBench probe as a :class:`~repro.parallel.runspec.RunSpec` app.

    :meth:`run` times one :class:`HBench` method on the DES, called with
    the constructor's arguments.  :attr:`workload`, the schedule of the
    probe's timed region, is the app's port (registered in
    :mod:`repro.workload.ports` the way a
    :class:`~repro.workload.app.WorkloadApp` is).  Each subclass is one
    probe kind, hence one hybrid certification family.  ``places`` is
    the partition count the method fixes (``None``: the run's).
    """

    places: "int | None" = None

    def __init__(self, *args: int, spec: DeviceSpec = PHI_31SP) -> None:
        self.args = args
        self.spec = spec
        self.bench = HBench(spec=spec)

    @cached_property
    def workload(self):
        from repro.workload.spec import (
            KernelSpec,
            OpSpec,
            PhaseSpec,
            WorkloadSpec,
        )

        works, ops = self._schedule()
        # One unsynced phase: the run harness's final global sync ends
        # it, as the method's own ``sync_all`` does.
        return WorkloadSpec(
            name=self.name,
            kernels=tuple(map(KernelSpec.from_work, works)),
            phases=(PhaseSpec(tuple(OpSpec(*op) for op in ops), sync=False),),
        )

    @property
    def tiles(self) -> int:
        return self.workload.tiles

    def total_flops(self) -> float:
        return self.workload.total_flops()

    def run(
        self, places: int, streams_per_place: int = 1, num_devices: int = 1
    ) -> AppRun:
        if (streams_per_place, num_devices) != (1, 1) or self.places not in (
            None,
            places,
        ):
            fixed = f", at {self.places} places" if self.places else ""
            raise ConfigurationError(
                f"{type(self).__name__} runs on one card, one stream per "
                f"place{fixed}"
            )
        elapsed = self._time(places)
        flops = self.total_flops()
        return AppRun(
            app=self.name,
            elapsed=elapsed,
            places=places,
            tiles=self.tiles,
            gflops=gflops(flops, elapsed) if flops > 0 else None,
        )


def _vecadd_blocks(hb: HBench, nblocks: int, iterations: int):
    """(works, ops): ``nblocks`` equal vecadd blocks, round-robin over
    the streams."""
    work = vecadd_work(
        hb.elements // nblocks, iterations, hb.itemsize, hb.spec
    )
    return [work], [("exe", i, 0, 0) for i in range(nblocks)]


class TransferProbe(_Probe):
    """Fig. 5, ``TransferProbe(hd_blocks, dh_blocks)``:
    :meth:`HBench.transfer_time` at 2 places.  Its port enqueues as the
    method does: the out chain on stream 0, the back chain on 1."""

    name = "hbench-transfer"
    places = 2

    def _time(self, places: int) -> float:
        return self.bench.transfer_time(*self.args)

    def _schedule(self):
        hd, dh = self.args
        nbytes = (self.bench.block_bytes // self.bench.itemsize) * 4
        return [], [("h2d", 0, nbytes)] * hd + [("d2h", 1, nbytes)] * dh


class StreamedProbe(_Probe):
    """Fig. 6's Streamed line, ``StreamedProbe(iterations, streams)``:
    :meth:`HBench.streamed_time`, one stream per place."""

    name = "hbench-streamed"

    @property
    def places(self) -> int:
        return self.args[1]

    def _time(self, places: int) -> float:
        return self.bench.streamed_time(*self.args)

    def _schedule(self):
        iterations, streams = self.args
        hb = self.bench
        works, ops = [], []
        bounds = np.linspace(0, hb.elements, streams + 1).astype(int)
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            count = int(hi - lo)
            if count == 0:
                continue
            works.append(vecadd_work(count, iterations, hb.itemsize, hb.spec))
            ops += [
                ("h2d", i, count * 4),  # A's chunk
                ("h2d", i),  # B's residency marker
                ("exe", i, 0, len(works) - 1),
                ("d2h", i, count * 4),  # B's chunk
            ]
        return works, ops


class PartitionProbe(_Probe):
    """Fig. 7, ``PartitionProbe(nblocks, iterations)``:
    :meth:`HBench.partition_sweep_time` at the run's places.  Its port
    is the timed kernel phase: the synced upload before it leaves every
    stream idle at one time, as the model's streams start."""

    name = "hbench-partitions"

    def _time(self, places: int) -> float:
        return self.bench.partition_sweep_time(places, *self.args)

    def _schedule(self):
        return _vecadd_blocks(self.bench, *self.args)


class ReferenceProbe(_Probe):
    """Fig. 7's ``ref`` bar, ``ReferenceProbe(iterations)``:
    :meth:`HBench.reference_time`, one kernel over the whole array at
    1 place."""

    name = "hbench-reference"
    places = 1

    def _time(self, places: int) -> float:
        return self.bench.reference_time(*self.args)

    def _schedule(self):
        return _vecadd_blocks(self.bench, 1, *self.args)
