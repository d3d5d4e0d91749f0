"""The analytic model's evaluator: lowered shapes, evaluated per point.

A figure sweep, a Sec. V-C pruning study or an ML-tuner training pass
evaluates a *dense grid* of :class:`~repro.parallel.runspec.RunSpec`\\ s
that differ only in their run geometry (P) or dataset/tile arguments
(T, D).  A paper app's op graph is fixed by its *shape* (the app class,
its tile count or grid side, its iteration count, the device layout and
the device spec); the dataset only moves bytes and kernel work, and P
only moves the stream assignment (``tile % S``) and the per-stream
costs.  So the model lowers each shape once, keeps a dataset's numbers
as per-family columns, and evaluates each point with a flat loop over
precompiled arrays; :func:`predict_run` is this same evaluator at one
point.

* the family's schedule is its workload port
  (:mod:`repro.workload.ports`: a skeleton built from the shape plus the
  dataset's numbers; a :class:`~repro.workload.app.WorkloadApp` or an
  hBench probe carries its own);
* :class:`_Lowering` — :func:`~repro.workload.compile.lower_skeleton`
  records the skeleton into it with a stream *chain id* (the op's tile,
  reduced mod ``num_streams`` per point) instead of a concrete stream
  and a byte or kernel *slot* instead of a concrete cost, so one
  recording serves every dataset of the shape and every partition
  count; repeated phases that qualify close in one step (the
  closed-repeat rule of :mod:`repro.workload.compile`).  Lowerings are
  cached per shape (at most ``_SHAPE_CAP``).  A multi-device port
  depends on P (uploads dedup per device under the device-major place
  layout), so its shape carries the layout and it is lowered once per
  (shape, P).  A scenario, or a dataset whose numbers fall outside its
  shape (a zero byte count turns a transfer into a marker), is lowered
  from its own spec for its family alone;
* :class:`_Schedule` — a lowering at one partition count: the stream
  map, each stream's card and partition (:class:`_StreamLayout`: the
  DES's own place layout and partitions), each action's dependents (its
  FIFO successor merged with its explicit dependents in ascending issue
  order), and the initial dependency counts and ready set.  Every
  dataset of the shape shares it (at most ``_POINT_CAP`` per lowering);
* :class:`_Columns` — one family's numbers on a lowering: each
  transfer's lane occupancy and each kernel's cost class.  Per point,
  :meth:`_CompiledFamily._build_point` prices every cost class once per
  distinct partition through the device model the DES runs
  (:func:`~repro.device.mic.invocation_time`: launch, kernel time,
  temporary allocation), gathers the cost column and the closed steps'
  maxima, and the family memoizes only the answer (at most
  ``_POINT_CAP`` per family);
* :func:`_eval_phase` — the *heap walk*, which defines how one phase
  between two global syncs settles: an action waits for its stream
  predecessor (FIFO) and its explicit deps, pays the cross-device sync
  when a dep ran on another card, pays the dispatch overhead, then
  occupies its device's link lane (transfers) or its partition
  (kernels, uncontended at one stream per place; the first invocation
  of a kernel name on a card pays the device spec's
  ``first_invoke_extra``).  Its ``(time, seq)`` event heap fixes the
  *lane discipline*: each card's lane grants queued requests by
  (request time, issue index), and of several requests that reach an
  idle lane at one time, the one activated first.  The DES's link is a
  capacity-1 FIFO ``Resource``, which serves queued requests in request
  order; the two differ only on a queued tie, which the model breaks by
  issue index;
* :func:`_settle_eager` — the *eager settle*, which answers every
  single-card phase whose first invocations cost nothing extra:
  kernels and markers complete when they activate, and only lane
  requests are ordered.  It computes each time with the heap walk's
  expressions and reconstructs the heap walk's idle-lane tie-breaks
  from activation provenance (:func:`_first_activated`).  Where it
  cannot prove the heap walk's order — no progress, a tie at the lane's
  release time, an undecidable idle-lane tie — it refuses, and the heap
  walk settles the phase from the same entry state.  So the heap walk
  stays the oracle: every answer is its bits.  Multi-card and
  first-invocation phases take the heap walk alone;
* :class:`GridPlan` / :func:`predict_grid` — the public batch surface:
  group a heterogeneous batch into families and evaluate the whole grid.

A point the lowering cannot reproduce — an app without a port, a
real-data run, ``streams_per_place != 1``, ``keep_timeline``, a noisy
or full-duplex device spec, or a port whose buffers overflow a card's
memory — raises :class:`~repro.errors.ModelUnsupportedError` on every
path, never an approximation.  Metrics land under ``engine.grid.*``
(see ``docs/OBSERVABILITY.md``); ``engine.grid.settles`` counts the
settled phases per walk.
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import AppRun
from repro.device.compute import ComputeModel
from repro.device.memory import DeviceMemory
from repro.device.mic import invocation_time
from repro.device.platform import place_layout
from repro.device.spec import DeviceSpec
from repro.device.topology import Topology
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.metrics.registry import get_registry
from repro.util.units import gflops

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.runspec import RunSpec

__all__ = [
    "GridPlan",
    "GridFamily",
    "predict_grid",
    "predict_run",
    "predict_runs",
]


#: Action kinds.  A point may mark a kernel ``_KERNEL_FIRST`` (its
#: first invocation per card costs extra) and add ``_CROSS`` to any
#: kind whose explicit deps ran on another card.
_MARKER, _TRANSFER, _KERNEL, _KERNEL_FIRST = 0, 1, 2, 3
_CROSS = 4

#: Evaluation steps of a lowering.
_ST_SETTLE, _ST_SYNC, _ST_CLOSED = 0, 1, 2

#: Bounds on cached lowerings (shapes), and on cached schedules per
#: lowering and answers per family (partition counts).
_SHAPE_CAP = 64
_POINT_CAP = 128

#: ``engine.grid.settles`` routes: the eager walk settled the phase, it
#: refused and the heap walk settled it, or the heap walk alone
#: (multi-card and first-invocation phases).
_SETTLE_ROUTES = ("eager", "refused", "heap")


class _Phase:
    """P-independent structure of one settle (the actions between two
    global syncs): kinds, stream-chain ids, each action's byte slot
    (transfers) and kernel slot (kernels), ``-1`` elsewhere, and the
    explicit-dependency graph."""

    __slots__ = ("n", "kind", "chain", "bslot", "kslot", "outs", "ndeps")

    def __init__(self, kind, chain, bslot, kslot, outs, ndeps):
        self.n = len(kind)
        self.kind = kind
        self.chain = chain
        self.bslot = bslot
        self.kslot = kslot
        self.outs = outs
        self.ndeps = ndeps


class _Lowering:
    """One lowered skeleton (see the module docstring).

    :func:`~repro.workload.compile.lower_skeleton` records a skeleton
    into it phase by phase: each op with a *chain id* (its tile, whose
    ``% num_streams`` picks the stream) and its slot.  Dependencies stay
    within one spec phase, hence within one settle (FIFO carry-over
    across a global sync is a provable no-op: the sync floor dominates
    any earlier completion).
    """

    def __init__(self, skel, spec, names, device=None):
        from repro.workload.compile import lower_skeleton, reservations

        self.spec = spec
        #: Each kernel slot's kernel name when a first invocation costs
        #: extra, else None.
        self.names = names
        self.phases: list[_Phase] = []
        self.steps: list[tuple] = []
        #: Closed steps' (kernel slots, chain ids), one entry per step.
        self.chains: list[tuple[np.ndarray, np.ndarray]] = []
        self._schedules: OrderedDict[int, _Schedule] = OrderedDict()
        self._reset()
        lower_skeleton(skel, self, names, device)
        #: Per card, the bytes a dataset reserves as a function of its
        #: byte slots (:func:`~repro.workload.compile.reservations`).
        self.reserved = reservations(skel, device)

    def _reset(self):
        self._kind: list[int] = []
        self._chain: list[int] = []
        self._slot: list[int] = []
        self._deps: list[tuple[int, ...]] = []

    def add_ops(self, ops):
        """Append one skeleton phase's ops to the settle in progress."""
        base = len(self._kind)
        self._kind += [
            _KERNEL if op.kind == "exe"
            else _MARKER if op.slot is None
            else _TRANSFER
            for op in ops
        ]
        self._chain += [op.tile for op in ops]
        self._slot += [-1 if op.slot is None else op.slot for op in ops]
        deps: list[tuple[int, ...]] = [()] * len(ops)
        index: dict[str, int] = {}
        for k, op in enumerate(ops):
            if op.deps:
                deps[k] = tuple([index[d] for d in op.deps])
            if op.name is not None:
                index[op.name] = base + k
        self._deps += deps

    def sync_all(self):
        if self._kind:
            n = len(self._kind)
            outs: list[tuple[int, ...]] = [()] * n
            for k, deps in enumerate(self._deps):
                for p in deps:
                    outs[p] += (k,)
            kind = np.asarray(self._kind, dtype=np.int64)
            slot = np.asarray(self._slot, dtype=np.int64)
            phase = _Phase(
                kind=self._kind,
                chain=np.asarray(self._chain, dtype=np.int64),
                bslot=np.where(kind == _TRANSFER, slot, -1),
                kslot=np.where(kind == _KERNEL, slot, -1),
                outs=outs,
                ndeps=np.fromiter(
                    map(len, self._deps), dtype=np.int64, count=n
                ),
            )
            self.steps.append((_ST_SETTLE, len(self.phases)))
            self.phases.append(phase)
            self._reset()
        self.steps.append((_ST_SYNC, 0))

    def closed(self, n, ops):
        """``n`` repetitions of a synced ``exe``-only phase, right after
        a global sync, in closed form: each adds ``max over streams of
        sum(dispatch + cost)`` plus the global sync."""
        self.chains.append(
            (
                np.array([op.slot for op in ops], dtype=np.int64),
                np.array([op.tile for op in ops], dtype=np.int64),
            )
        )
        self.steps.append((_ST_CLOSED, (n, len(self.chains) - 1)))

    def schedule(self, places: int, num_devices: int) -> "_Schedule":
        """This lowering at ``places`` partitions (cached)."""
        sched = self._schedules.get(places)
        if sched is not None:
            self._schedules.move_to_end(places)
            return sched
        sched = _Schedule(self, places, num_devices)
        self._schedules[places] = sched
        while len(self._schedules) > _POINT_CAP:
            self._schedules.popitem(last=False)
        return sched


class _StreamLayout:
    """Each stream's card and partition at one partition count, laid
    out as the DES lays them out: one stream per place, places per card
    by :func:`~repro.device.platform.place_layout`, each card split by
    :meth:`~repro.device.topology.Topology.partitions`.  Partitions
    with one :attr:`~repro.device.topology.Partition.cost_key` are
    priced once."""

    __slots__ = ("cards", "priced", "part_of")

    def __init__(self, spec: DeviceSpec, places: int, num_devices: int):
        try:
            layout = place_layout(places, num_devices)
        except ConfigurationError as exc:
            raise ModelUnsupportedError(str(exc)) from exc
        topology = Topology(spec)
        # cost key -> (index into ``priced``, its first partition)
        distinct: dict = {}
        cards, part_of = [], []
        for card, count in enumerate(layout):
            for part in topology.partitions(count):
                key = part.cost_key
                entry = distinct.setdefault(key, (len(distinct), part))
                cards.append(card)
                part_of.append(entry[0])
        self.cards = np.array(cards, dtype=np.int64)
        #: One partition per distinct cost key, and each stream's entry.
        self.priced = [part for _, part in distinct.values()]
        self.part_of = np.array(part_of, dtype=np.int64)

    def costs(self, compute, memory, works) -> np.ndarray:
        """Each of ``works``' invocation time on each stream (one row
        per work): :func:`~repro.device.mic.invocation_time` without a
        first invocation, as the device model prices it."""
        table = np.array(
            [
                invocation_time(compute, memory, work, part)
                for work in works
                for part in self.priced
            ],
            dtype=np.float64,
        ).reshape(len(works), len(self.priced))
        return table[:, self.part_of]


class _SchedulePhase:
    """One settle at one partition count: plain lists the flat loop
    indexes without numpy overhead (``stream`` stays an array for the
    per-family cost gather).  ``remaining`` counts one extra dependency
    for each action of ``init``, the ready set, which the evaluator
    releases with a virtual completion before the first event."""

    __slots__ = (
        "kind", "stream", "stream_of", "device_of", "deps", "remaining",
        "init", "first_key",
    )

    def __init__(
        self, kind, stream, device_of, deps, remaining, init, first_key
    ):
        self.kind = kind
        self.stream = stream
        self.stream_of = stream.tolist()
        self.device_of = device_of
        self.deps = deps
        self.remaining = remaining
        self.init = init
        self.first_key = first_key


class _Schedule:
    """A lowering at one partition count (see the module docstring):
    the stream layout, one :class:`_SchedulePhase` per settle and each
    closed step's stream map."""

    __slots__ = ("S", "layout", "phases", "closed")

    def __init__(self, low: _Lowering, places: int, num_devices: int):
        self.layout = layout = _StreamLayout(low.spec, places, num_devices)
        self.S = S = len(layout.cards)
        first = low.names is not None
        multi = num_devices > 1
        self.phases = []
        for ph in low.phases:
            n = ph.n
            stream = ph.chain % S
            order = np.argsort(stream, kind="stable")
            sorted_streams = stream[order]
            same = sorted_streams[:-1] == sorted_streams[1:]
            nxt = np.full(n, -1, dtype=np.int64)
            nxt[order[:-1][same]] = order[1:][same]
            has_pred = np.zeros(n, dtype=np.int64)
            has_pred[order[1:][same]] = 1
            remaining = ph.ndeps + has_pred
            init = np.flatnonzero(remaining == 0)
            remaining[init] = 1
            kind, device_of, first_key = ph.kind, [0] * n, None
            if multi or first:
                kind = np.asarray(ph.kind)
                dev = layout.cards[stream]
                device_of = dev.tolist()
                if first:
                    kind[kind == _KERNEL] = _KERNEL_FIRST
                    first_key = [
                        (d, low.names[s]) if s >= 0 else None
                        for d, s in zip(device_of, ph.kslot.tolist())
                    ]
                if multi:
                    src = [p for p, ks in enumerate(ph.outs) for _ in ks]
                    dst = [k for ks in ph.outs for k in ks]
                    if dst:
                        src = np.asarray(src, dtype=np.int64)
                        dst = np.asarray(dst, dtype=np.int64)
                        crossed = np.unique(dst[dev[src] != dev[dst]])
                        kind[crossed] += _CROSS
                kind = kind.tolist()
            # Merge the FIFO successor into the explicit dependents in
            # ascending issue order (duplicates kept: an explicit dep on
            # the FIFO predecessor counts twice).
            outs = ph.outs
            deps = [
                outs[k] if d1 < 0
                else tuple(sorted((d1, *outs[k]))) if outs[k]
                else (d1,)
                for k, d1 in enumerate(nxt.tolist())
            ]
            self.phases.append(
                _SchedulePhase(
                    kind,
                    stream,
                    device_of,
                    deps,
                    remaining.tolist(),
                    init.tolist(),
                    first_key,
                )
            )
        self.closed = [chain % S for _, chain in low.chains]


class _Columns:
    """One family's numbers on one lowering: per settle, each action's
    lane occupancy (transfers; 0 elsewhere) and cost class (kernels;
    -1 elsewhere), each closed step's cost classes, and the classes'
    kernel work."""

    __slots__ = ("laneq", "klass", "chains", "classes")

    def __init__(self, low: _Lowering, numbers, bandwidth: float):
        lane = np.array([*numbers.nbytes, 0], dtype=np.float64) / bandwidth
        kernel_of = np.array([*numbers.kernel_of, -1], dtype=np.int64)
        self.laneq = [lane[ph.bslot].tolist() for ph in low.phases]
        self.klass = [kernel_of[ph.kslot] for ph in low.phases]
        self.chains = [kernel_of[kslot] for kslot, _ in low.chains]
        self.classes = [kernel.work() for kernel in numbers.kernels]


#: Event kinds for ``_eval_phase``'s loop (values are arbitrary — the
#: per-push ``seq`` already makes every heap entry unique).
_EV_START, _EV_RELEASE, _EV_DONE = 0, 1, 2


def _eval_phase(sp, laneq, cost, tails, floor, loaded, fam):
    """Settle one phase (``sp``, a :class:`_SchedulePhase`) at one grid
    point, with the family's lane occupancies and the point's costs.

    ``tails`` (per stream) and ``loaded`` (the ``(card, kernel name)``
    pairs that have run, or ``None`` when a first invocation costs
    nothing extra) carry over between phases and are updated in place.

    The loop is a ``(time, seq)``-ordered event heap, and it defines
    the model's lane discipline (module docstring).  Every push lands
    at or after the time being processed, so an idle lane was released
    no later than the request now popped, and a grant starts at the
    request time (or, for a queued request, at the release).

    The full chronology matters, not just the transfer lanes': when two
    lane requests carry the *same* request time at an idle lane, the
    first one popped wins, which is the processing order of their
    predecessors' completion events.  Within one completion, dependents
    activate in ascending issue index, and each activation takes the
    next global ``seq``.  :func:`_settle_eager` reconstructs that order
    where it can prove it and refuses where it cannot.
    """
    kinds = sp.kind
    deps = sp.deps
    stream_of = sp.stream_of
    device_of = sp.device_of
    first_key = sp.first_key
    dispatch = fam.dispatch
    lat = fam.lat
    cross_sync = fam.cross_sync
    first_extra = fam.first_extra
    remaining = sp.remaining[:]
    pdone = [-1.0] * len(remaining)
    heap: list = []
    busy = [False] * fam.num_devices
    #: Per card: ``(request time, action)`` waiting behind the occupant.
    queues: list = [[] for _ in busy]
    seq = 0
    push = heappush
    pop = heappop
    # A virtual completion before the first event releases the ready set.
    time, ev, k, dependents = -1.0, _EV_DONE, -1, sp.init
    while True:
        # k completed at `time`: count down its dependents, activating
        # each whose last dependency this was.
        for d in dependents:
            if time > pdone[d]:
                pdone[d] = time
            r = remaining[d] - 1
            remaining[d] = r
            if r:
                continue
            a = pdone[d]
            kd = kinds[d]
            if kd >= 4:  # _CROSS: the cross-device sync precedes dispatch
                ready = ((a if a > floor else floor) + cross_sync) + dispatch
                kd -= 4
            else:
                ready = (a if a > floor else floor) + dispatch
            if kd == 1:  # transfer: request the lane
                push(heap, (ready, seq, _EV_START, d))
            elif kd == 2:  # kernel
                push(heap, (ready + cost[d], seq, _EV_DONE, d))
            elif kd == 3:  # kernel, first invocation tracked
                c = cost[d]
                key = first_key[d]
                if key not in loaded:
                    loaded.add(key)
                    c += first_extra
                push(heap, (ready + c, seq, _EV_DONE, d))
            else:  # marker
                push(heap, (ready, seq, _EV_DONE, d))
            seq += 1
        if ev == _EV_RELEASE:
            dev = device_of[k]
            queue = queues[dev]
            if queue:
                waiter = pop(queue)[1]
                push(
                    heap,
                    ((time + lat) + laneq[waiter], seq, _EV_RELEASE, waiter),
                )
                seq += 1
            else:
                busy[dev] = False
        # The next completion; lane requests are granted or queued.
        while True:
            if not heap:
                return
            time, _, ev, k = pop(heap)
            if ev != _EV_START:
                break
            dev = device_of[k]
            if busy[dev]:
                push(queues[dev], (time, k))
            else:
                busy[dev] = True
                push(heap, ((time + lat) + laneq[k], seq, _EV_RELEASE, k))
                seq += 1
        s = stream_of[k]
        if time > tails[s]:
            tails[s] = time
        dependents = deps[k]


def _settle_eager(sp, laneq, cost, tails, floor, fam):
    """Settle one single-card phase whose first invocations cost nothing
    extra, as :func:`_eval_phase` would, ordering only the link lane.

    Kernels and markers complete when they activate and release their
    dependents at once; lane requests wait in a heap keyed by (request
    time, issue index), and the lane grants each at the later of its
    request and the previous release.  The times are computed with
    :func:`_eval_phase`'s expressions, so a proven grant order gives its
    bits.  Returns the phase's new per-stream tails (``tails`` itself is
    left alone), or ``None`` where the heap walk's order is not proven:

    * *no progress* — an activation that ``dispatch`` does not move, or
      a release not after its grant.  With progress, a request not yet
      discovered waits on an ungranted transfer, so it lands strictly
      after the grant now made: every request the lane could grant is
      in the heap;
    * a *release tie* — two requests at exactly the lane's release time
      and none earlier (the heap walk's choice depends on push order);
    * an idle-lane tie that :func:`_first_activated` cannot decide.
    """
    kinds = sp.kind
    deps = sp.deps
    stream_of = sp.stream_of
    dispatch = fam.dispatch
    lat = fam.lat
    remaining = sp.remaining[:]
    n = len(remaining)
    pdone = [-1.0] * n
    done = [0.0] * n  # kernels' and markers' completions
    #: Each action's activating completion (see :func:`_first_activated`):
    #: -1 for the ready set's, -2 when two predecessors finished at once.
    act = [-1] * n
    tails = tails[:]
    lane: list = []
    todo: list = []  # completed kernels and markers not yet counted down
    push = heappush
    pop = heappop
    free = -1.0  # the lane's last release: idle at entry
    # The ready set's virtual completion comes first.
    k, time, dependents = -1, -1.0, sp.init
    while True:
        for d in dependents:
            a = pdone[d]
            if time > a:
                pdone[d] = a = time
                act[d] = k
            elif time == a and act[d] != k:
                act[d] = -2
            r = remaining[d] - 1
            remaining[d] = r
            if r:
                continue
            if a < floor:
                a = floor
            ready = a + dispatch
            if ready <= a:
                return None
            kd = kinds[d]
            if kd == 1:  # transfer: request the lane
                push(lane, (ready, d))
                continue
            if kd == 2:  # kernel
                ready += cost[d]
            done[d] = ready
            s = stream_of[d]
            if ready > tails[s]:
                tails[s] = ready
            todo.append(d)
        if todo:
            k = todo.pop()
            time, dependents = done[k], deps[k]
            continue
        if not lane:
            return tails
        m, k = pop(lane)
        if m > free:  # idle lane: the first request activated wins
            if lane and lane[0][0] == m:
                tied = [k]
                while lane and lane[0][0] == m:
                    tied.append(pop(lane)[1])
                k = _first_activated(tied, kinds, pdone, act)
                if k is None:
                    return None
                for y in tied:
                    if y != k:
                        push(lane, (m, y))
            grant = m
        elif m == free and lane and lane[0][0] == m:  # release tie
            return None
        else:
            grant = free
        free = (grant + lat) + laneq[k]
        if free <= grant:
            return None
        s = stream_of[k]
        if free > tails[s]:
            tails[s] = free
        time, dependents = free, deps[k]


def _first_activated(tied, kinds, pdone, act):
    """Of lane requests ``tied`` (ascending issue index) at one request
    time, the one :func:`_eval_phase` activated first, or ``None`` when
    the heap walk's order is not proven.

    Activation order is activation time, then the processing order of
    the *activating completions* (``act``): an action's one predecessor
    that finished at its activation time, or the ready set's virtual
    completion.  One completion activates its dependents in ascending
    issue index, and a kernel's or marker's completion is processed in
    its own activation order, so the comparison recurses on them.  A
    lane release (pushed at its grant, not its activation) or two
    predecessors finishing at once is not decided.
    """
    k = tied[0]
    for y in tied[1:]:
        x, z = k, y
        while True:
            ax, az = pdone[x], pdone[z]
            if ax != az:
                first = ax < az
                break
            cx, cz = act[x], act[z]
            if cx == -2 or cz == -2:
                return None
            if cx == cz:
                first = x < z
                break
            if cx < 0 or cz < 0 or kinds[cx] == 1 or kinds[cz] == 1:
                return None
            x, z = cx, cz
        if not first:
            k = y
    return k


class _PointData:
    """Everything one (family, P) evaluation reads: the lowering and
    its schedule, the family's lane occupancies, the point's costs and
    its closed steps' per-repetition chain maxima.  Built per new point
    and dropped once the answer is memoized."""

    __slots__ = ("S", "low", "sched", "laneq", "cost", "chain_maxes")

    def __init__(self, S, low, sched, laneq, cost, chain_maxes):
        self.S = S
        self.low = low
        self.sched = sched
        self.laneq = laneq
        self.cost = cost
        self.chain_maxes = chain_maxes


class _CompiledFamily:
    """One family: the device spec's constants, its lowering and columns
    (single-device families; a multi-device family lowers per P), and
    its memoized answers, one per partition count."""

    def __init__(self, app, num_devices: int):
        self.app = app
        self.num_devices = num_devices
        self.spec = spec = app.spec
        over = spec.overheads
        self.dispatch = over.dispatch
        self.spp = over.sync_per_stream
        self.cross_sync = over.cross_device_sync
        self.first_extra = over.first_invoke_extra
        self.lat = spec.link.latency
        self.compute = ComputeModel(spec)
        self.memory = DeviceMemory(spec)
        #: The P-independent lowering and this family's columns on it,
        #: or None when they depend on P.
        self.low: "_Lowering | None" = None
        self.cols: "_Columns | None" = None
        # AppRun fields shared by every point of the family.
        self.app_name = app.name
        self.app_tiles = app.tiles
        self.app_flops = app.total_flops()
        #: P -> predicted elapsed seconds (the model is deterministic,
        #: so one flat-loop pass per point ever).
        self._points: OrderedDict[int, float] = OrderedDict()
        #: Phases settled so far, per :data:`_SETTLE_ROUTES` route.
        self.settles = [0] * len(_SETTLE_ROUTES)

    # -- per-P specialization ----------------------------------------------

    def _build_point(self, places: int) -> _PointData:
        low, cols = self.low, self.cols
        if low is None:
            layout = _StreamLayout(self.spec, places, self.num_devices)
            low, cols = _lowered(
                self.spec,
                _model_parts(self.app, places, self.num_devices),
                layout.cards.tolist(),
            )
        sched = low.schedule(places, self.num_devices)
        S = sched.S
        ctable = sched.layout.costs(self.compute, self.memory, cols.classes)
        padded = np.vstack([np.zeros((1, S), dtype=np.float64), ctable])
        cost = [
            padded[klass + 1, sp.stream].tolist()
            for klass, sp in zip(cols.klass, sched.phases)
        ]
        chain_maxes = []
        for klass, s_of_t in zip(cols.chains, sched.closed):
            cost_t = ctable[klass, s_of_t]
            chain_maxes.append(
                float(
                    np.bincount(
                        s_of_t,
                        weights=cost_t + self.dispatch,
                        minlength=S,
                    ).max()
                )
            )
        return _PointData(S, low, sched, cols.laneq, cost, chain_maxes)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, places: int) -> float:
        """Predicted elapsed seconds at one partition count."""
        t = self._points.get(places)
        if t is not None:
            self._points.move_to_end(places)
            return t
        pt = self._build_point(places)
        S = pt.S
        tails = [0.0] * S
        floor = 0.0
        loaded = set() if self.first_extra > 0.0 else None
        # Multi-card and first-invocation phases have only the heap walk.
        eager = self.num_devices == 1 and loaded is None
        settles = self.settles
        t = 0.0
        spp = self.spp
        phases, laneq, cost = pt.sched.phases, pt.laneq, pt.cost
        for op, arg in pt.low.steps:
            if op == _ST_SETTLE:
                sp, lq, cs = phases[arg], laneq[arg], cost[arg]
                if eager:
                    settled = _settle_eager(sp, lq, cs, tails, floor, self)
                    if settled is not None:
                        tails = settled
                        settles[0] += 1
                        continue
                    settles[1] += 1
                else:
                    settles[2] += 1
                _eval_phase(sp, lq, cs, tails, floor, loaded, self)
            elif op == _ST_SYNC:
                t = max(tails)
                t += S * spp
                tails = [t] * S
                floor = t
            else:  # _ST_CLOSED: every tail sits at the last sync
                n, c = arg
                t += n * (pt.chain_maxes[c] + S * spp)
                tails = [t] * S
                floor = t
        self._points[places] = t
        while len(self._points) > _POINT_CAP:
            self._points.popitem(last=False)
        return t

    def wrap(self, places: int, elapsed: float) -> AppRun:
        """The :func:`predict_run` result envelope for one point."""
        flops = self.app_flops
        return AppRun(
            app=self.app_name,
            elapsed=elapsed,
            places=places,
            tiles=self.app_tiles,
            gflops=gflops(flops, elapsed) if flops > 0 else None,
            engine="model",
        )


# -- lowering (module-level caches) -------------------------------------------

#: family key -> _CompiledFamily, or the ModelUnsupportedError that
#: refused it.
_FAMILIES: "OrderedDict[tuple, _CompiledFamily | ModelUnsupportedError]" = (
    OrderedDict()
)
_FAMILY_CAP = 64

#: shape key -> the _Lowering every dataset of that shape shares.
_SHAPES: "OrderedDict[tuple, _Lowering]" = OrderedDict()


def clear_grid_caches() -> None:
    """Drop every compiled family and lowered shape (tests and
    recalibration hooks)."""
    _FAMILIES.clear()
    _SHAPES.clear()


def _family_key(spec: "RunSpec") -> tuple:
    """Specs that share one compiled family: same app construction,
    same run geometry class.  The device spec rides inside
    ``app_kwargs``, so a recalibrated model is a different family."""
    return (
        spec.app_cls,
        spec.app_args,
        spec.app_kwargs,
        spec.streams_per_place,
        spec.num_devices,
        spec.keep_timeline,
    )


def _model_parts(app, places: int = 1, num_devices: int = 1) -> tuple:
    """``app``'s port as ``(shape, skeleton, numbers)``, or
    :class:`ModelUnsupportedError` for runs it cannot reproduce.

    A paper app whose byte counts are all positive ints comes back as
    its shape (``skeleton`` None).  A scenario, or a dataset outside
    its shape (a zero byte count is a marker; an invalid one is refused
    as the spec refuses it), comes back with the skeleton of its own
    spec instead (``shape`` None).
    """
    from repro.workload.compile import skeleton_of
    from repro.workload.ports import port_parts, workload_of

    try:
        shape, numbers = port_parts(app)
        if shape is not None and all(
            type(n) is int and n > 0 for n in numbers.nbytes
        ):
            return shape, None, numbers
        skel, numbers = skeleton_of(workload_of(app, places, num_devices))
        return None, skel, numbers
    except ConfigurationError as exc:
        raise ModelUnsupportedError(str(exc)) from exc


def _lowered(spec, parts: tuple, device=None) -> "tuple[_Lowering, _Columns]":
    """The lowering of :func:`_model_parts`' ``parts`` (``device``: each
    stream's card for a per-P multi-device lowering) and the dataset's
    columns on it, or :class:`ModelUnsupportedError` when its buffers
    overflow a card.

    A shape's lowering is cached, keyed by everything that fixes its
    structure: the shape, the device layout, the device spec and, when a
    first invocation costs extra, each kernel slot's name.  The first
    dataset of a shape assembles and validates its whole spec, so the
    structural checks run once per skeleton.
    """
    from repro.workload.compile import check_reserved
    from repro.workload.ports import port_skeleton

    shape, skel, numbers = parts
    names = None
    if spec.overheads.first_invoke_extra > 0.0:
        kernels = numbers.kernels
        names = tuple(kernels[k].name for k in numbers.kernel_of)
    if shape is None:
        low = _Lowering(skel, spec, names, device)
    else:
        key = (shape, None if device is None else tuple(device), spec, names)
        low = _SHAPES.get(key)
        if low is None:
            skel = port_skeleton(shape, device)
            try:
                skel.assemble(numbers)
            except ConfigurationError as exc:
                raise ModelUnsupportedError(str(exc)) from exc
            low = _SHAPES[key] = _Lowering(skel, spec, names, device)
            while len(_SHAPES) > _SHAPE_CAP:
                _SHAPES.popitem(last=False)
        else:
            _SHAPES.move_to_end(key)
    check_reserved(low.reserved, numbers.nbytes, spec.memory_bytes)
    return low, _Columns(low, numbers, spec.link.bandwidth)


def check_supported(spec: DeviceSpec) -> None:
    """Reject device specs the model cannot reproduce."""
    if spec.noise_sigma > 0.0:
        raise ModelUnsupportedError(
            "analytic engine cannot reproduce seeded measurement noise "
            f"(noise_sigma={spec.noise_sigma})"
        )
    if spec.link.full_duplex:
        raise ModelUnsupportedError(
            "analytic engine models the paper's half-duplex link only"
        )


def _compile_family(spec0: "RunSpec") -> _CompiledFamily:
    """Lower one family's port, or raise :class:`ModelUnsupportedError`."""
    if spec0.streams_per_place != 1:
        raise ModelUnsupportedError(
            "analytic engine requires one stream per place "
            f"(streams_per_place={spec0.streams_per_place})"
        )
    if spec0.keep_timeline:
        raise ModelUnsupportedError(
            "analytic engine produces no event trace (keep_timeline=True)"
        )
    app = spec0.build_app()
    # A multi-device port depends on P: it is lowered per point.
    parts = _model_parts(app) if spec0.num_devices == 1 else None
    if getattr(app, "materialize", False):
        raise ModelUnsupportedError(
            "real-data runs (materialize=True) need the simulator"
        )
    check_supported(app.spec)
    fam = _CompiledFamily(app, spec0.num_devices)
    if parts is not None:
        fam.low, fam.cols = _lowered(app.spec, parts)
    return fam


def _compiled_for(spec: "RunSpec") -> _CompiledFamily:
    """``spec``'s compiled family (cached), or the family's
    :class:`ModelUnsupportedError` (cached too, re-raised with its cause)."""
    try:
        key = _family_key(spec)
        found = _FAMILIES.get(key)
    except TypeError:  # unhashable ctor argument: compile uncached
        return _compile_family(spec)
    if found is None:
        try:
            found = _compile_family(spec)
        except ModelUnsupportedError as exc:
            found = exc
        _FAMILIES[key] = found
        while len(_FAMILIES) > _FAMILY_CAP:
            _FAMILIES.popitem(last=False)
    else:
        _FAMILIES.move_to_end(key)
    if isinstance(found, ModelUnsupportedError):
        raise ModelUnsupportedError(str(found)) from found.__cause__
    return found


# -- public surface -----------------------------------------------------------


class GridFamily:
    """One homogeneous slice of a batch: the spec indices it covers and
    the route (``"array"`` when the family lowered, ``"refused"`` when
    the model cannot answer it)."""

    __slots__ = ("indices", "route", "compiled")

    def __init__(self, indices, route, compiled=None):
        self.indices = indices
        self.route = route
        self.compiled = compiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridFamily(route={self.route!r}, n={len(self.indices)})"


class GridPlan:
    """A heterogeneous batch grouped into families (see the module
    docstring).

    Build once per batch with :meth:`build`; evaluate with
    :meth:`predict_runs` (AppRun envelopes, exactly
    :func:`predict_run`'s) or :meth:`evaluate` (an elapsed-seconds
    array).  ``strict=False`` returns ``None`` for points the model
    refuses instead of raising — the hybrid engine uses it to fall
    families back to the simulator.
    """

    def __init__(self, specs: list, families: list[GridFamily]):
        self.specs = specs
        self.families = families

    @classmethod
    def build(cls, specs) -> "GridPlan":
        specs = list(specs)
        families: list[GridFamily] = []
        by_key: dict[tuple, GridFamily] = {}
        for i, spec in enumerate(specs):
            try:
                key = _family_key(spec)
                fam = by_key.get(key)
            except TypeError:
                key, fam = None, None
            if fam is None:
                try:
                    fam = GridFamily([], "array", _compiled_for(spec))
                except ModelUnsupportedError:
                    fam = GridFamily([], "refused")
                families.append(fam)
                if key is not None:
                    by_key[key] = fam
            fam.indices.append(i)
        return cls(specs, families)

    @property
    def vectorized_points(self) -> int:
        """Points in families the model lowered."""
        return sum(
            len(f.indices) for f in self.families if f.route == "array"
        )

    def predict_runs(self, strict: bool = True) -> list:
        """One :class:`AppRun` per spec (submission order).

        ``strict=True`` raises :class:`ModelUnsupportedError` at the
        first point the model refuses; ``strict=False`` leaves ``None``
        there.
        """
        results: list = [None] * len(self.specs)
        n_points = fam_array = fam_refused = 0
        settles = [0] * len(_SETTLE_ROUTES)
        eval_seconds = []  # one entry per evaluated family
        for fam in self.families:
            compiled = fam.compiled
            if compiled is None:
                fam_refused += 1
                if strict:  # re-raise the family's cached refusal
                    _compiled_for(self.specs[fam.indices[0]])
                continue
            fam_array += 1
            before = compiled.settles[:]
            t0 = perf_counter()
            for i in fam.indices:
                places = self.specs[i].places
                try:
                    elapsed = compiled.evaluate(places)
                except ModelUnsupportedError:
                    if strict:
                        raise
                    continue
                results[i] = compiled.wrap(places, elapsed)
                n_points += 1
            eval_seconds.append(perf_counter() - t0)
            for j, count in enumerate(compiled.settles):
                settles[j] += count - before[j]
        if self.specs:
            registry = get_registry()
            if fam_array:
                registry.counter(
                    "engine.grid.families", route="array"
                ).inc(fam_array)
            if fam_refused:
                registry.counter(
                    "engine.grid.families", route="refused"
                ).inc(fam_refused)
            if n_points:
                registry.counter(
                    "engine.grid.points", route="array"
                ).inc(n_points)
            for route, count in zip(_SETTLE_ROUTES, settles):
                if count:
                    registry.counter(
                        "engine.grid.settles", route=route
                    ).inc(count)
            histogram = registry.histogram("engine.grid.eval_seconds")
            for seconds in eval_seconds:
                histogram.observe(seconds)
        return results

    def evaluate(self) -> np.ndarray:
        """Predicted elapsed seconds for every spec, as one array."""
        return np.array(
            [run.elapsed for run in self.predict_runs()],
            dtype=np.float64,
        )


def predict_run(spec: "RunSpec") -> AppRun:
    """Evaluate one :class:`~repro.parallel.runspec.RunSpec` analytically.

    Returns an :class:`AppRun` with ``engine="model"`` (no timeline, no
    outputs, no metrics snapshot), or raises
    :class:`ModelUnsupportedError` where the model cannot reproduce the
    run (see the module docstring).
    """
    fam = _compiled_for(spec)
    return fam.wrap(spec.places, fam.evaluate(spec.places))


def predict_grid(specs) -> np.ndarray:
    """Evaluate a whole batch of specs analytically: elapsed seconds in
    submission order, element-wise identical to :func:`predict_run`
    (raising :class:`ModelUnsupportedError` where it would)."""
    return GridPlan.build(specs).evaluate()


def predict_runs(specs) -> list:
    """Batch :func:`predict_run`: one ``engine="model"``
    :class:`AppRun` per spec."""
    return GridPlan.build(specs).predict_runs()
