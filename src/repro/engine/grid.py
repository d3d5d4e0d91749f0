"""The analytic model's evaluator: lowered families, evaluated per point.

A figure sweep, a Sec. V-C pruning study or an ML-tuner training pass
evaluates a *dense grid* of :class:`~repro.parallel.runspec.RunSpec`\\ s
that differ only in their run geometry (P) or dataset/tile arguments
(T, D).  On one device the schedule's *topology* (which uploads are
deduplicated, which kernel depends on which transfer, how many actions
each phase settles) is identical across the partition axis; only the
stream assignment (``tile % S``) and the per-stream costs vary.  So the
model lowers a family once and evaluates each point with a flat loop
over precompiled arrays; :func:`~repro.engine.profiles.predict_run` is
this same evaluator at one point.

* the family's schedule is its workload port
  (:func:`repro.workload.ports.workload_of`; a
  :class:`~repro.workload.app.WorkloadApp` is its own port);
* :class:`_FamilyBuilder` — :func:`~repro.workload.compile.lower_workload`
  records the port into it with a stream *chain id* (the op's tile,
  reduced mod ``num_streams`` per point) instead of a concrete stream
  and a kernel *cost class* instead of a concrete cost, so one
  recording serves every partition count; repeated phases that qualify
  close in one step (the closed-repeat rule of
  :mod:`repro.workload.compile`).  A multi-device port depends on P
  (uploads dedup per device under the device-major place layout), so a
  multi-device family is lowered once per (family, P) instead;
* :func:`_eval_phase` — settles one phase between two global syncs: an
  action waits for its stream predecessor (FIFO) and its explicit deps,
  pays the cross-device sync when a dep ran on another card, pays the
  dispatch overhead, then occupies its device's link lane (transfers)
  or its partition (kernels, uncontended at one stream per place; the
  first invocation of a kernel name on a card pays the device spec's
  ``first_invoke_extra``).  Each card's lane is granted in request-time
  order, the same discipline as the DES's capacity-1 link resource;
* per-``(family, P)`` point schedules (stream maps, FIFO successor
  arrays, per-action costs from one vectorized
  :func:`~repro.engine.analytic.invoke_cost` table) are cached, so a
  steady-state re-sweep pays only the flat loop;
* :class:`GridPlan` / :func:`predict_grid` — the public batch surface:
  group a heterogeneous batch into families and evaluate the whole grid.

A point the lowering cannot reproduce — an app without a port, a
real-data run, ``streams_per_place != 1``, ``keep_timeline``, a noisy
or full-duplex device spec, or a port whose buffers overflow a card's
memory — raises :class:`~repro.errors.ModelUnsupportedError` on every
path, never an approximation.  Metrics land under ``engine.grid.*``
(see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappop, heappush
from time import perf_counter
from typing import TYPE_CHECKING

import numpy as np

from repro.apps.base import AppRun
from repro.engine.analytic import (
    check_supported,
    invoke_cost,
    stream_geometry,
)
from repro.errors import ConfigurationError, ModelUnsupportedError
from repro.metrics.registry import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.runspec import RunSpec

__all__ = ["GridPlan", "GridFamily", "predict_grid", "predict_runs"]


#: Action kinds.  A point may mark a kernel ``_KERNEL_FIRST`` (its
#: first invocation per card costs extra) and add ``_CROSS`` to any
#: kind whose explicit deps ran on another card.
_MARKER, _TRANSFER, _KERNEL, _KERNEL_FIRST = 0, 1, 2, 3
_CROSS = 4

#: Evaluation steps of a compiled family.
_ST_SETTLE, _ST_SYNC, _ST_CLOSED = 0, 1, 2


class _Phase:
    """P-independent topology of one settle (the actions between two
    global syncs): kinds, stream-chain ids, cost classes, precomputed
    lane occupancies and the explicit-dependency graph."""

    __slots__ = ("n", "kind", "chain", "klass", "lane_q", "outs", "ndeps")

    def __init__(self, kind, chain, klass, lane_q, outs, ndeps):
        self.n = len(kind)
        self.kind = kind
        self.chain = chain
        self.klass = klass
        self.lane_q = lane_q
        self.outs = outs
        self.ndeps = ndeps


class _PointPhase:
    """One phase specialized to one partition count: plain lists the
    flat loop indexes without numpy overhead."""

    __slots__ = (
        "kind", "stream_of", "device_of", "next_k", "cost", "remaining0",
        "init_todo", "pdone0", "first_key",
    )

    def __init__(
        self, kind, stream_of, device_of, next_k, cost, remaining0,
        init_todo, n, first_key,
    ):
        self.kind = kind
        self.stream_of = stream_of
        self.device_of = device_of
        self.next_k = next_k
        self.cost = cost
        self.remaining0 = remaining0
        self.init_todo = init_todo
        self.pdone0 = [-1.0] * n
        self.first_key = first_key


class _PointData:
    """Everything per-(family, P): the lowering it evaluates, phase
    schedules, the closed steps' per-repetition chain maxima, and the
    memoized evaluation (the model is deterministic, so one flat-loop
    pass per point ever)."""

    __slots__ = ("S", "low", "phases", "chain_maxes", "elapsed")

    def __init__(self, S, low, phases, chain_maxes):
        self.S = S
        self.low = low
        self.phases = phases
        self.chain_maxes = chain_maxes
        self.elapsed = None


class _FamilyBuilder:
    """The lowered schedule of one family (see the module docstring).

    :func:`~repro.workload.compile.lower_workload` records a workload
    into it phase by phase: each op with a *chain id* (its tile, whose
    ``% num_streams`` picks the stream) and each kernel as a *cost
    class* (an :func:`invoke_cost` row materialized later, per P).
    Dependencies stay within one spec phase, hence within one settle
    (FIFO carry-over across a global sync is a provable no-op: the sync
    floor dominates any earlier completion).
    """

    def __init__(self, spec):
        self.spec = spec
        self._bw = spec.link.bandwidth
        self.classes: list = []
        self.phases: list[_Phase] = []
        self.steps: list[tuple] = []
        #: Closed steps' (cost classes, chain ids), one entry per step.
        self.chains: list[tuple[np.ndarray, np.ndarray]] = []
        self._reset()

    def _reset(self):
        self._kind: list[int] = []
        self._chain: list[int] = []
        self._klass: list[int] = []
        self._laneq: list[float] = []
        self._deps: list[tuple[int, ...]] = []

    def kernel_class(self, work) -> int:
        self.classes.append(work)
        return len(self.classes) - 1

    def add_ops(self, ops, kls):
        """Append one spec phase's ops (kernel ``k`` has cost class
        ``kls[k]``) to the settle in progress."""
        bw = self._bw
        base = len(self._kind)
        # A transfer of 0 bytes is a residency marker: no link occupancy.
        self._kind += [
            _KERNEL if op.kind == "exe"
            else _TRANSFER if op.nbytes > 0
            else _MARKER
            for op in ops
        ]
        self._chain += [op.tile for op in ops]
        self._klass += [
            kls[op.kernel] if op.kind == "exe" else -1 for op in ops
        ]
        # exe ops carry no bytes, so only transfers occupy the lane.
        self._laneq += [
            float(op.nbytes) / bw if op.nbytes > 0 else 0.0 for op in ops
        ]
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
            phase = _Phase(
                kind=self._kind,
                chain=np.asarray(self._chain, dtype=np.int64),
                klass=np.asarray(self._klass, dtype=np.int64),
                lane_q=self._laneq,
                outs=outs,
                ndeps=np.fromiter(
                    map(len, self._deps), dtype=np.int64, count=n
                ),
            )
            self.steps.append((_ST_SETTLE, len(self.phases)))
            self.phases.append(phase)
            self._reset()
        self.steps.append((_ST_SYNC, 0))

    def closed(self, n, ops, kls):
        """``n`` repetitions of a synced ``exe``-only phase, right after
        a global sync, in closed form: each adds ``max over streams of
        sum(dispatch + cost)`` plus the global sync."""
        self.chains.append(
            (
                np.array([kls[op.kernel] for op in ops], dtype=np.int64),
                np.array([op.tile for op in ops], dtype=np.int64),
            )
        )
        self.steps.append((_ST_CLOSED, (n, len(self.chains) - 1)))


#: Event kinds for ``_eval_phase``'s loop (values are arbitrary — the
#: per-push ``seq`` already makes every heap entry unique).
_EV_START, _EV_RELEASE, _EV_DONE = 0, 1, 2


def _eval_phase(phase, pt, tails, floor, loaded, fam):
    """Settle one compiled phase at one grid point.

    ``tails`` (per stream) and ``loaded`` (the ``(card, kernel name)``
    pairs that have run, or ``None`` when a first invocation costs
    nothing extra) carry over between phases and are updated in place.

    The loop is a ``(time, seq)``-ordered event heap.  Every push lands
    at or after the time being processed, so an idle lane was released
    no later than the request now popped, and a grant starts at the
    request time (or, for a queued request, at the release).

    The full chronology matters, not just the transfer lanes': when two
    lane requests carry the *same* request time, the DES grants them in
    activation order, which is the processing order of their
    predecessors' completion events — so completions cannot be settled
    eagerly (out of event order) without sometimes flipping a
    lane-grant tie and shifting every later action on the losing
    stream.  Within one completion, dependents activate in ascending
    issue index, and each activation takes the next global ``seq``.
    """
    kinds = pt.kind
    outs = phase.outs
    laneq = phase.lane_q
    stream_of = pt.stream_of
    device_of = pt.device_of
    nxt = pt.next_k
    cost = pt.cost
    first_key = pt.first_key
    dispatch = fam.dispatch
    lat = fam.lat
    cross_sync = fam.cross_sync
    first_extra = fam.first_extra
    remaining = pt.remaining0[:]
    pdone = pt.pdone0[:]
    heap: list = []
    busy = [False] * fam.num_devices
    #: Per card: ``(request time, action)`` waiting behind the occupant.
    queues: list = [[] for _ in busy]
    seq = 0
    push = heappush
    pop = heappop

    def activate(k):
        nonlocal seq
        a = pdone[k]
        kd = kinds[k]
        if kd >= 4:  # _CROSS: the cross-device sync precedes dispatch
            ready = ((a if a > floor else floor) + cross_sync) + dispatch
            kd -= 4
        else:
            ready = (a if a > floor else floor) + dispatch
        if kd == 1:  # transfer: request the lane
            push(heap, (ready, seq, _EV_START, k))
        elif kd == 2:  # kernel
            push(heap, (ready + cost[k], seq, _EV_DONE, k))
        elif kd == 3:  # kernel, first invocation tracked
            c = cost[k]
            key = first_key[k]
            if key not in loaded:
                loaded.add(key)
                c += first_extra
            push(heap, (ready + c, seq, _EV_DONE, k))
        else:  # marker
            push(heap, (ready, seq, _EV_DONE, k))
        seq += 1

    for k in pt.init_todo:
        activate(k)

    while heap:
        time, _, ev, k = pop(heap)
        if ev == _EV_START:
            dev = device_of[k]
            if busy[dev]:
                push(queues[dev], (time, k))
            else:
                busy[dev] = True
                push(heap, ((time + lat) + laneq[k], seq, _EV_RELEASE, k))
                seq += 1
            continue
        # _EV_RELEASE or _EV_DONE: k completes at `time`.
        s = stream_of[k]
        if time > tails[s]:
            tails[s] = time
        d1 = nxt[k]
        if d1 < 0:
            dependents = outs[k]
        elif outs[k]:
            # Merge the FIFO successor into the explicit dependents in
            # ascending issue order (duplicates kept: an explicit dep
            # on the FIFO predecessor counts twice).
            dependents = sorted((d1, *outs[k]))
        else:
            dependents = (d1,)
        for d in dependents:
            if time > pdone[d]:
                pdone[d] = time
            r = remaining[d] - 1
            remaining[d] = r
            if not r:
                activate(d)
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


#: Bound on cached per-P point schedules per family.
_POINT_CAP = 128


class _CompiledFamily:
    """One family: the device spec's constants, the lowered schedule
    (single-device families; a multi-device family lowers per P), and
    the per-P point-schedule cache."""

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
        #: The P-independent lowering, or None when it depends on P.
        self.low: "_FamilyBuilder | None" = None
        # AppRun fields shared by every point of the family.
        self.app_name = app.name
        self.app_tiles = app.tiles
        self.app_flops = app.total_flops()
        self._points: OrderedDict[int, _PointData] = OrderedDict()

    def lower(self, workload, device=None) -> _FamilyBuilder:
        """Record ``workload`` (``device``: each stream's card, for a
        per-P multi-device lowering)."""
        from repro.workload.compile import lower_workload

        bld = _FamilyBuilder(self.spec)
        lower_workload(workload, bld, device)
        return bld

    # -- per-P specialization ----------------------------------------------

    def _point(self, places: int) -> _PointData:
        pt = self._points.get(places)
        if pt is not None:
            self._points.move_to_end(places)
            return pt
        pt = self._build_point(places)
        self._points[places] = pt
        while len(self._points) > _POINT_CAP:
            self._points.popitem(last=False)
        return pt

    def _build_point(self, places: int) -> _PointData:
        geom = stream_geometry(places, self.num_devices, self.spec)
        S = geom.num_streams
        low = self.low
        multi = low is None
        if multi:
            device = geom.device.tolist()
            low = self.lower(
                _model_port(self.app, places, self.num_devices), device
            )
        first = self.first_extra > 0.0
        names = [w.name for w in low.classes]
        rows = [invoke_cost(w, geom, self.spec) for w in low.classes]
        ctable = (
            np.vstack(rows) if rows else np.zeros((0, S), dtype=np.float64)
        )
        padded = np.vstack([np.zeros((1, S), dtype=np.float64), ctable])
        phases = []
        for ph in low.phases:
            stream = ph.chain % S
            order = np.argsort(stream, kind="stable")
            sorted_streams = stream[order]
            same = sorted_streams[:-1] == sorted_streams[1:]
            nxt = np.full(ph.n, -1, dtype=np.int64)
            nxt[order[:-1][same]] = order[1:][same]
            has_pred = np.zeros(ph.n, dtype=np.int64)
            has_pred[order[1:][same]] = 1
            remaining = ph.ndeps + has_pred
            init = np.flatnonzero(remaining == 0)
            cost = padded[ph.klass + 1, stream]
            kind, device_of, first_key = ph.kind, [0] * ph.n, None
            if multi or first:
                kind = np.asarray(ph.kind)
                dev = geom.device[stream]
                device_of = dev.tolist()
                if first:
                    kind[kind == _KERNEL] = _KERNEL_FIRST
                    first_key = [
                        (d, names[c]) if c >= 0 else None
                        for d, c in zip(device_of, ph.klass.tolist())
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
            phases.append(
                _PointPhase(
                    kind,
                    stream.tolist(),
                    device_of,
                    nxt.tolist(),
                    cost.tolist(),
                    remaining.tolist(),
                    init.tolist(),
                    ph.n,
                    first_key,
                )
            )
        chain_maxes = []
        for klass, chain in low.chains:
            s_of_t = chain % S
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
        return _PointData(S, low, phases, chain_maxes)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, places: int) -> float:
        """Predicted elapsed seconds at one partition count."""
        pt = self._point(places)
        if pt.elapsed is not None:
            return pt.elapsed
        S = pt.S
        tails = [0.0] * S
        floor = 0.0
        loaded = set() if self.first_extra > 0.0 else None
        t = 0.0
        spp = self.spp
        phases = pt.low.phases
        for op, arg in pt.low.steps:
            if op == _ST_SETTLE:
                _eval_phase(
                    phases[arg], pt.phases[arg], tails, floor, loaded, self
                )
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
        pt.elapsed = t
        return t

    def wrap(self, places: int, elapsed: float) -> AppRun:
        """The :func:`predict_run` result envelope for one point."""
        flops = self.app_flops
        return AppRun(
            app=self.app_name,
            elapsed=elapsed,
            places=places,
            tiles=self.app_tiles,
            gflops=(flops / elapsed / 1e9) if flops > 0 else None,
            engine="model",
        )


# -- family compilation (module-level cache) ----------------------------------

#: family key -> _CompiledFamily, or the ModelUnsupportedError that
#: refused it.
_FAMILIES: "OrderedDict[tuple, _CompiledFamily | ModelUnsupportedError]" = (
    OrderedDict()
)
_FAMILY_CAP = 64


def clear_grid_caches() -> None:
    """Drop every compiled family (tests and recalibration hooks)."""
    _FAMILIES.clear()


def _family_key(spec: "RunSpec") -> tuple:
    """Specs that share one lowering: same app construction, same run
    geometry class.  The device spec rides inside ``app_kwargs``, so a
    recalibrated model is a different family."""
    return (
        spec.app_cls,
        spec.app_args,
        spec.app_kwargs,
        spec.streams_per_place,
        spec.num_devices,
        spec.keep_timeline,
    )


def _model_port(app, places: int = 1, num_devices: int = 1):
    """The workload the analytic model evaluates for ``app`` (its
    port), or :class:`ModelUnsupportedError` for runs it cannot
    reproduce."""
    from repro.workload.ports import workload_of

    try:
        return workload_of(app, places, num_devices)
    except ConfigurationError as exc:
        raise ModelUnsupportedError(str(exc)) from exc


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
    # A multi-device port depends on P: it is built per point.
    port = _model_port(app) if spec0.num_devices == 1 else None
    if getattr(app, "materialize", False):
        raise ModelUnsupportedError(
            "real-data runs (materialize=True) need the simulator"
        )
    check_supported(app.spec)
    fam = _CompiledFamily(app, spec0.num_devices)
    if port is not None:
        fam.low = fam.lower(port)
    return fam


def _compiled_for(spec: "RunSpec") -> _CompiledFamily:
    """``spec``'s compiled family (cached), or the family's
    :class:`ModelUnsupportedError` (cached too)."""
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
        raise ModelUnsupportedError(str(found))
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
        eval_seconds = 0.0
        for fam in self.families:
            compiled = fam.compiled
            if compiled is None:
                fam_refused += 1
                if strict:  # re-raise the family's cached refusal
                    _compiled_for(self.specs[fam.indices[0]])
                continue
            fam_array += 1
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
            eval_seconds += perf_counter() - t0
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
            registry.histogram("engine.grid.eval_seconds").observe(
                eval_seconds
            )
        return results

    def evaluate(self) -> np.ndarray:
        """Predicted elapsed seconds for every spec, as one array."""
        return np.array(
            [run.elapsed for run in self.predict_runs()],
            dtype=np.float64,
        )


def predict_grid(specs) -> np.ndarray:
    """Evaluate a whole batch of specs analytically: elapsed seconds in
    submission order, element-wise identical to
    :func:`~repro.engine.profiles.predict_run` (raising
    :class:`ModelUnsupportedError` where it would)."""
    return GridPlan.build(specs).evaluate()


def predict_runs(specs) -> list:
    """Batch :func:`~repro.engine.profiles.predict_run`: one
    ``engine="model"`` :class:`AppRun` per spec."""
    return GridPlan.build(specs).predict_runs()
