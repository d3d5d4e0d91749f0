"""Core/thread topology and partition geometry.

hStreams partitions the device's usable cores into ``P`` groups ("places")
by splitting the linear sequence of hardware threads into ``P`` contiguous
ranges.  Thread ``t`` lives on physical core ``t // threads_per_core``.
When ``P`` does not divide the usable-core count, some partitions end in
the middle of a core, so two partitions time-share that core's caches and
VPU — the contention the paper identifies behind the slow points of
Fig. 9a/9b and avoids by recommending ``P ∈ {2,4,7,8,14,28,56}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.device.spec import DeviceSpec
from repro.errors import TopologyError


@dataclass(frozen=True)
class Partition:
    """A contiguous range of hardware threads assigned to one place."""

    index: int
    #: Half-open hardware-thread range [start, stop).
    thread_start: int
    thread_stop: int
    #: Physical cores touched by this partition (inclusive range).
    core_start: int
    core_stop: int
    #: True when the first/last core is shared with a neighbouring
    #: partition.
    shares_core: bool

    def __post_init__(self) -> None:
        if self.thread_stop <= self.thread_start:
            raise TopologyError(
                f"partition {self.index} is empty "
                f"([{self.thread_start}, {self.thread_stop}))"
            )

    @property
    def nthreads(self) -> int:
        return self.thread_stop - self.thread_start

    @property
    def core_span(self) -> int:
        """Number of distinct physical cores hosting this partition."""
        return self.core_stop - self.core_start + 1

    @property
    def cost_key(self) -> tuple[int, bool, int]:
        """Everything the cost models read of a partition: two
        partitions with one key price every kernel alike."""
        return (self.nthreads, self.shares_core, self.core_span)


class Topology:
    """Thread/core geometry of one device."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec

    def __repr__(self) -> str:
        return (
            f"<Topology {self.spec.usable_cores} cores x "
            f"{self.spec.threads_per_core} threads>"
        )

    @property
    def total_threads(self) -> int:
        return self.spec.total_threads

    def core_of_thread(self, thread: int) -> int:
        """Physical core hosting hardware thread ``thread``."""
        if not 0 <= thread < self.total_threads:
            raise TopologyError(
                f"thread {thread} outside [0, {self.total_threads})"
            )
        return thread // self.spec.threads_per_core

    def partitions(self, count: int) -> list[Partition]:
        """Split the usable threads into ``count`` contiguous partitions.

        Threads are distributed as evenly as possible (the first
        ``total % count`` partitions get one extra thread), mirroring
        hStreams' even place decomposition.
        """
        spec = self.spec
        return list(_split(spec.total_threads, spec.threads_per_core, count))

    def partition_is_aligned(self, count: int) -> bool:
        """True when no partition shares a physical core with another."""
        return not any(p.shares_core for p in self.partitions(count))

    def aligned_partition_counts(self) -> list[int]:
        """All partition counts that keep every core in one partition.

        For the 31SP these are exactly the divisors the paper recommends:
        ``{1, 2, 4, 7, 8, 14, 28, 56}`` (the paper lists the values > 1).
        """
        cores = self.spec.usable_cores
        candidates = []
        for count in range(1, self.total_threads + 1):
            # Aligned iff every boundary lands on a core boundary; for
            # even decomposition this holds exactly when count divides
            # the usable core count, or count is a multiple pattern that
            # still lands all boundaries on core edges.
            if self.partition_is_aligned(count):
                candidates.append(count)
        # Sanity: divisors of the core count must always be present.
        for d in range(1, cores + 1):
            if cores % d == 0:
                assert d in candidates, f"divisor {d} missing"
        return candidates


@lru_cache(maxsize=256)
def _split(total: int, tpc: int, count: int) -> tuple[Partition, ...]:
    """:meth:`Topology.partitions` of ``total`` threads, ``tpc`` per
    core: a pure function of the geometry, so every device (and the
    model) of one geometry shares the cached tuple."""
    if not 1 <= count <= total:
        raise TopologyError(
            f"partition count must lie in [1, {total}], got {count}"
        )
    base, extra = divmod(total, count)
    bounds = [0]
    for i in range(count):
        bounds.append(bounds[-1] + base + (1 if i < extra else 0))

    partitions = []
    for i in range(count):
        start, stop = bounds[i], bounds[i + 1]
        core_start = start // tpc
        core_stop = (stop - 1) // tpc
        # The first core is shared if the previous partition ends on
        # it; the last core is shared if the next one starts on it.
        shares = (start % tpc != 0) or (stop % tpc != 0 and stop != total)
        partitions.append(
            Partition(
                index=i,
                thread_start=start,
                thread_stop=stop,
                core_start=core_start,
                core_stop=core_stop,
                shares_core=shares,
            )
        )
    return tuple(partitions)
