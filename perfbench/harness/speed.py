"""Host-speed normalization: reference slices interleaved with the work.

On a shared host the same code runs up to a few times slower from one
minute to the next, in CPU time as well as wall time, so a raw time
measures the host as much as the program.  The process under test
therefore runs a short, fixed, benchmark-owned piece of pure-Python
work (a *slice*) between its operations, at least every
:data:`EVERY_S` seconds, and records how long each slice took.  A slice
imports nothing from the program, so a change to the program cannot
change it.

The work between two slices is then rescaled by how fast the host ran
them: ``time x REFERENCE_S / slice time`` (see :class:`Scale`).  The
result reads in seconds at the reference speed, the speed at which one
slice takes :data:`REFERENCE_S`.  Slices are excluded from the work
they bracket.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from time import perf_counter, process_time

#: Seconds one slice takes at the reference speed.
REFERENCE_S = 0.002
#: A slice runs before an operation once this long has passed since the
#: last one.
EVERY_S = 0.05


class _Event:
    __slots__ = ("due", "key", "weight")

    def __init__(self, due: int, key: int, weight: int) -> None:
        self.due, self.key, self.weight = due, key, weight

    def __lt__(self, other: "_Event") -> bool:
        return (self.due, self.key) < (other.due, other.key)


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value, self.next = value, None


def _ring(size: int = 1 << 16) -> _Cell:
    """A few MB of objects linked in a fixed scrambled order, so that a
    walk over them misses the CPU caches the way a large simulator heap
    does."""
    cells = [_Cell(i) for i in range(size)]
    step = 40503  # odd, so ``i * step % size`` visits every cell once
    for i in range(size):
        cells[i * step % size].next = cells[(i + 1) * step % size]
    return cells[0]


def reference_work(cell: _Cell, rounds: int = 285) -> "tuple[int, _Cell]":
    """The fixed work of one slice: a small event queue with objects,
    method calls, dict and list traffic, like an interpreter-bound
    simulator, and a walk along a ring from ``cell``.  Returns a checksum
    and the cell where the walk stopped; the same start gives the same
    result."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(rounds):
        key = (i * 2654435761) & 1023
        heapq.heappush(heap, _Event(key + i, key, i & 7))
        if len(heap) > 24:
            ev = heapq.heappop(heap)
            table[ev.key] = table.get(ev.key, 0) + ev.weight
            acc ^= hash((ev.due, ev.key)) & 0xFFFF
        if i % 9 == 0:
            acc += sum(table.get(k, 0) for k in range(key, key + 8))
        for _ in range(8):
            acc += cell.value & 7
            cell = cell.next
    return acc, cell


class Slices:
    """Records ``[wall start, wall end, cpu start, cpu end]`` per slice.

    The ring the slices walk is built by the first :meth:`warm` or
    :meth:`take` (tens of ms), and each slice continues the walk where
    the last one stopped."""

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.marks: list = []
        self._last = -1e300
        self._cell: "_Cell | None" = None

    def _work(self) -> None:
        if self._cell is None:
            self._cell = _ring()
        self._cell = reference_work(self._cell)[1]

    def warm(self, n: int = 5) -> None:
        """Unrecorded slices, so the first recorded one is not cold."""
        for _ in range(n):
            self._work()

    def take(self) -> None:
        if self._cell is None:
            self.warm()
        c0, t0 = process_time(), perf_counter()
        self._work()
        t1, c1 = perf_counter(), process_time()
        self.marks.append([t0, t1, c0, c1])
        self._last = t1

    def maybe(self) -> None:
        if perf_counter() - self._last >= self.every_s:
            self.take()


class Scale:
    """Rescales the times measured between the first and the last slice.

    Stretch ``k`` is the work between the end of slice ``k`` and the
    start of slice ``k + 1``.  Its factor is ``REFERENCE_S`` times the
    mean speed (1 / duration) of those two slices: wall durations for
    wall time, CPU durations for CPU time.  A host that switches speed
    part-way through a run is then followed stretch by stretch, and a
    slice that was preempted (a long one) weighs little.
    """

    def __init__(self, marks: list, reference_s: float = REFERENCE_S) -> None:
        if len(marks) < 2:
            raise ValueError("need a slice before and after the work")
        self.marks = marks
        self.starts = [m[0] for m in marks]
        wall = [reference_s / (m[1] - m[0]) for m in marks]
        cpu = [reference_s / max(m[3] - m[2], 1e-9) for m in marks]
        self.wall_factor = [0.5 * (a + b) for a, b in zip(wall, wall[1:])]
        self.cpu_factor = [0.5 * (a + b) for a, b in zip(cpu, cpu[1:])]

    def _stretch(self, t: float) -> int:
        k = bisect_right(self.starts, t) - 1
        return min(max(k, 0), len(self.wall_factor) - 1)

    def wall(self, start: float, seconds: float) -> float:
        """Wall ``seconds`` of work that began at ``start``, at the
        reference speed."""
        return seconds * self.wall_factor[self._stretch(start)]

    def work_wall(self) -> "tuple[float, float]":
        """Raw and rescaled wall seconds between the first and last slice,
        slices excluded."""
        gaps = [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]
        return sum(gaps), sum(g * f for g, f in zip(gaps, self.wall_factor))

    def mean_wall_factor(self) -> float:
        """The wall factor of the whole run: the stretches' factors
        weighted by their lengths."""
        raw, ref = self.work_wall()
        return ref / raw

    def work_cpu(self) -> "tuple[float, float]":
        """Raw and rescaled CPU seconds between the first and last slice,
        slices excluded."""
        gaps = [b[2] - a[3] for a, b in zip(self.marks, self.marks[1:])]
        return sum(gaps), sum(g * f for g, f in zip(gaps, self.cpu_factor))

    def slice_ms(self) -> float:
        """Median wall duration of one slice, in ms."""
        ordered = sorted(m[1] - m[0] for m in self.marks)
        return 1e3 * ordered[len(ordered) // 2]
