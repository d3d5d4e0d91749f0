"""Vectorized grid evaluation of the analytic model.

A figure sweep, a Sec. V-C pruning study or an ML-tuner training pass
evaluates a *dense grid* of :class:`~repro.parallel.runspec.RunSpec`\\ s
that differ only in their run geometry (P) or dataset/tile arguments
(T, D).  The scalar path (:func:`repro.engine.profiles.predict_run`)
replays the whole enqueue schedule through a
:class:`~repro.engine.analytic.StreamReplay` event loop for every
single point, even though the schedule's *topology* (which uploads are
deduplicated, which kernel depends on which transfer, how many actions
each phase settles) is identical across the grid for a single-device
family and only the stream assignment (``tile % S``) and the
per-stream costs vary.

This module lowers a family once and evaluates each point with a flat
loop over precompiled arrays:

* the family's schedule is its workload port
  (:func:`repro.workload.ports.workload_of`; a
  :class:`~repro.workload.app.WorkloadApp` is its own port), built once
  per family and held in the family cache, where
  :func:`~repro.engine.profiles.predict_run` reads it too;
* :class:`_FamilyBuilder` — a *symbolic* ``StreamReplay``:
  :func:`~repro.workload.compile.lower_workload` records the port into
  it with a stream *chain id* (the op's tile, reduced mod
  ``num_streams`` per point) instead of a concrete stream and a kernel
  *cost class* instead of a concrete cost, so one recording serves every
  partition count; repeated phases that qualify close in one step (the
  closed-repeat rule of :mod:`repro.workload.compile`);
* :func:`_eval_phase` — the exact flat equivalent of
  ``StreamReplay._settle`` for the families the grid path accepts
  (single device, no first-invocation upload): kernels and markers
  complete eagerly the moment their last predecessor settles, and only
  transfer-lane contention is treated chronologically, with a heap of
  lane requests keyed ``(request time, activation time, issue index)``
  and a busy-lane FIFO queue keyed ``(request time, issue index)`` —
  the same grant discipline as the DES's capacity-1 link resource;
* per-``(family, P)`` point schedules (stream maps, FIFO successor
  arrays, per-action costs from one vectorized
  :func:`~repro.engine.analytic.invoke_cost` table) cached so a
  steady-state re-sweep pays only the flat loop;
* :class:`GridPlan` / :func:`predict_grid` — the public batch surface:
  group a heterogeneous batch into vectorizable families and scalar
  leftovers, and evaluate the whole grid.

The accuracy contract is *exact float equality* with
:func:`~repro.engine.profiles.predict_run` (property-tested across all
six app profiles and generated workloads): any configuration the
lowering cannot reproduce bit-for-bit — multiple devices (MatMul's and
Cholesky's ports then depend on P), a device spec with a
first-invocation upload cost, an app without a port — is routed to the
scalar predictor instead, never approximated.  Metrics land under
``engine.grid.*`` (see ``docs/OBSERVABILITY.md``).
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


class _GridUnsupported(Exception):
    """The family cannot be lowered bit-exactly; use the scalar path."""


#: Action kinds (match repro.engine.analytic).
_MARKER, _TRANSFER, _KERNEL = 0, 1, 2

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
        "stream_of", "next_k", "cost", "remaining0", "init_todo", "pdone0"
    )

    def __init__(self, stream_of, next_k, cost, remaining0, init_todo, n):
        self.stream_of = stream_of
        self.next_k = next_k
        self.cost = cost
        self.remaining0 = remaining0
        self.init_todo = init_todo
        self.pdone0 = [-1.0] * n


class _PointData:
    """Everything per-(family, P): phase schedules, the closed steps'
    per-repetition chain maxima, and the memoized evaluation (the model
    is deterministic, so one flat-loop pass per point ever)."""

    __slots__ = ("S", "phases", "chain_maxes", "elapsed")

    def __init__(self, S, phases, chain_maxes):
        self.S = S
        self.phases = phases
        self.chain_maxes = chain_maxes
        self.elapsed = None


class _FamilyBuilder:
    """Symbolic :class:`~repro.engine.analytic.StreamReplay`.

    :func:`~repro.workload.compile.lower_workload` records a workload
    into it phase by phase: each op with a *chain id* (its tile, whose
    ``% num_streams`` picks the stream) and each kernel as a *cost
    class* (an :func:`invoke_cost` row materialized later, per P).
    Dependencies stay within one spec phase, hence within one settle
    (FIFO carry-over across a global sync is a provable no-op: the sync
    floor dominates any earlier completion).
    """

    def __init__(self, spec):
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


def _eval_phase(phase, pt, tails, floor, lane_free, dispatch, lat):
    """Settle one compiled phase at one grid point; returns the updated
    lane-free time (``tails`` is mutated in place).

    Exact flat-loop mirror of ``StreamReplay._settle`` for the
    single-device, zero-first-invoke families the grid path lowers —
    the same ``(time, seq)``-ordered event loop, with the compiled
    arrays in place of action tuples.  The full chronology matters,
    not just the transfer lane's: when two lane requests carry the
    *same* request time, the DES grants them in activation order,
    which is the processing order of their predecessors' completion
    events — so completions cannot be settled eagerly (out of event
    order) without sometimes flipping a lane-grant tie and shifting
    every later action on the losing stream.  Completion order is
    mirrored exactly: dependents activate in ascending issue index
    within one completion (``_settle`` builds its dependent lists that
    way), and each activation takes the next global ``seq``.
    """
    kinds = phase.kind
    outs = phase.outs
    laneq = phase.lane_q
    stream_of = pt.stream_of
    nxt = pt.next_k
    cost = pt.cost
    remaining = pt.remaining0[:]
    pdone = pt.pdone0[:]
    heap: list = []
    lane_queue: list = []
    lane_occupied = False
    seq = 0
    push = heappush
    pop = heappop

    def activate(k):
        nonlocal seq
        a = pdone[k]
        ready = (a if a > floor else floor) + dispatch
        kd = kinds[k]
        if kd == 1:  # transfer: request the lane
            push(heap, (ready, seq, _EV_START, k))
        elif kd == 2:  # kernel
            push(heap, (ready + cost[k], seq, _EV_DONE, k))
        else:  # marker
            push(heap, (ready, seq, _EV_DONE, k))
        seq += 1

    for k in pt.init_todo:
        activate(k)

    while heap:
        time, _, ev, k = pop(heap)
        if ev == _EV_START:
            if lane_occupied:
                push(lane_queue, (time, k))
            else:
                start = time if time > lane_free else lane_free
                lane_free = (start + lat) + laneq[k]
                lane_occupied = True
                push(heap, (lane_free, seq, _EV_RELEASE, k))
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
            # on the FIFO predecessor counts twice, as in ``_settle``).
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
            lane_occupied = False
            if lane_queue:
                waiter = pop(lane_queue)[1]
                lane_free = (time + lat) + laneq[waiter]
                lane_occupied = True
                push(heap, (lane_free, seq, _EV_RELEASE, waiter))
                seq += 1
    return lane_free


#: Bound on cached per-P point schedules per family.
_POINT_CAP = 128


class _CompiledFamily:
    """One family's workload port and, once :func:`_compile_family` has
    lowered it, the lowered schedule plus its per-P point-schedule
    cache."""

    def __init__(self, app, workload):
        self.app = app
        self.workload = workload
        self.spec = spec = app.spec
        over = spec.overheads
        self.dispatch = over.dispatch
        self.spp = over.sync_per_stream
        self.lat = spec.link.latency
        self.phases: list[_Phase] = []
        self.steps: list[tuple] = []
        self.classes: list = []
        self.chains: list = []
        # AppRun fields shared by every point of the family.
        self.app_name = app.name
        self.app_tiles = app.tiles
        self.app_flops = app.total_flops()
        self._points: OrderedDict[int, _PointData] = OrderedDict()

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
        geom = stream_geometry(places, 1, self.spec)
        S = geom.num_streams
        rows = [invoke_cost(w, geom, self.spec) for w in self.classes]
        ctable = (
            np.vstack(rows) if rows else np.zeros((0, S), dtype=np.float64)
        )
        padded = np.vstack([np.zeros((1, S), dtype=np.float64), ctable])
        phases = []
        for ph in self.phases:
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
            phases.append(
                _PointPhase(
                    stream.tolist(),
                    nxt.tolist(),
                    cost.tolist(),
                    remaining.tolist(),
                    init.tolist(),
                    ph.n,
                )
            )
        chain_maxes = []
        for klass, chain in self.chains:
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
        return _PointData(S, phases, chain_maxes)

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, places: int) -> float:
        """Predicted elapsed seconds at one partition count — exactly
        the scalar predictor's arithmetic."""
        pt = self._point(places)
        if pt.elapsed is not None:
            return pt.elapsed
        S = pt.S
        tails = [0.0] * S
        floor = 0.0
        lane_free = 0.0
        t = 0.0
        dispatch = self.dispatch
        lat = self.lat
        spp = self.spp
        for op, arg in self.steps:
            if op == _ST_SETTLE:
                lane_free = _eval_phase(
                    self.phases[arg], pt.phases[arg],
                    tails, floor, lane_free, dispatch, lat,
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

#: family key -> _CompiledFamily (array route) or None (scalar route).
_FAMILIES: "OrderedDict[tuple, _CompiledFamily | None]" = OrderedDict()
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
    """The workload the analytic model replays for ``app`` (its port),
    or :class:`ModelUnsupportedError` for runs it cannot reproduce."""
    from repro.workload.ports import workload_of

    try:
        workload = workload_of(app, places, num_devices)
    except ConfigurationError as exc:
        raise ModelUnsupportedError(str(exc)) from exc
    if app.materialize:
        raise ModelUnsupportedError(
            "real-data runs (materialize=True) need the simulator"
        )
    return workload


def _compile_family(spec0: "RunSpec") -> _CompiledFamily:
    """Lower one family's port, or raise (``_GridUnsupported`` /
    :class:`ModelUnsupportedError`) to route it to the scalar path."""
    from repro.workload.compile import lower_workload

    if spec0.streams_per_place != 1:
        raise _GridUnsupported("streams_per_place != 1")
    if spec0.keep_timeline:
        raise _GridUnsupported("keep_timeline")
    if spec0.num_devices != 1:
        # MatMul's and Cholesky's ports dedup uploads per device, and
        # the device-major layout makes that P-dependent; the scalar
        # replay builds the port per point.
        raise _GridUnsupported("multi-device ports are P-dependent")
    app = spec0.build_app()
    fam = _CompiledFamily(app, _model_port(app))
    check_supported(app.spec)
    if app.spec.overheads.first_invoke_extra > 0.0:
        # First-invocation uploads depend on kernel-name arrival order,
        # which the eager evaluator does not track.
        raise _GridUnsupported("first_invoke_extra > 0")
    bld = _FamilyBuilder(app.spec)
    lower_workload(fam.workload, bld)
    fam.phases = bld.phases
    fam.steps = bld.steps
    fam.classes = bld.classes
    fam.chains = bld.chains
    return fam


def _compiled_for(spec0: "RunSpec") -> "_CompiledFamily | None":
    """Cached compile: a ``None`` entry memoizes the scalar routing
    decision."""
    try:
        key = _family_key(spec0)
        cached = key in _FAMILIES
    except TypeError:  # unhashable ctor argument: never vectorize
        return None
    if cached:
        _FAMILIES.move_to_end(key)
        return _FAMILIES[key]
    try:
        compiled = _compile_family(spec0)
    except (_GridUnsupported, ModelUnsupportedError):
        compiled = None
    _FAMILIES[key] = compiled
    while len(_FAMILIES) > _FAMILY_CAP:
        _FAMILIES.popitem(last=False)
    return compiled


def port_family(spec: "RunSpec") -> _CompiledFamily:
    """``spec``'s family and its workload port, for the scalar replay:
    the cached compiled family when the grid lowers it (so a family's
    port is built once), else a fresh unlowered one (multi-device ports
    depend on P).  Raises :class:`ModelUnsupportedError` when the app
    has no port the model can replay."""
    fam = _compiled_for(spec)
    if fam is None:
        app = spec.build_app()
        fam = _CompiledFamily(
            app, _model_port(app, spec.places, spec.num_devices)
        )
    return fam


# -- public surface -----------------------------------------------------------


class GridFamily:
    """One homogeneous slice of a batch: the spec indices it covers and
    the route (``"array"`` for the vectorized path, ``"scalar"`` for
    per-point :func:`predict_run` leftovers)."""

    __slots__ = ("indices", "route", "compiled")

    def __init__(self, indices, route, compiled=None):
        self.indices = indices
        self.route = route
        self.compiled = compiled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridFamily(route={self.route!r}, n={len(self.indices)})"


class GridPlan:
    """A heterogeneous batch grouped into vectorizable families and
    scalar leftovers (see the module docstring).

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
                compiled = _compiled_for(spec)
                fam = GridFamily(
                    [], "array" if compiled is not None else "scalar",
                    compiled,
                )
                families.append(fam)
                if key is not None:
                    by_key[key] = fam
            fam.indices.append(i)
        return cls(specs, families)

    @property
    def vectorized_points(self) -> int:
        """Points answered by the array path."""
        return sum(
            len(f.indices) for f in self.families if f.route == "array"
        )

    def predict_runs(self, strict: bool = True) -> list:
        """One :class:`AppRun` per spec (submission order).

        ``strict=True`` raises :class:`ModelUnsupportedError` exactly
        where a scalar ``[predict_run(s) for s in specs]`` loop would;
        ``strict=False`` leaves ``None`` at unsupported points.
        """
        from repro.engine.profiles import predict_run

        results: list = [None] * len(self.specs)
        n_array = n_scalar = fam_array = fam_scalar = 0
        eval_seconds = 0.0
        for fam in self.families:
            if fam.route == "array":
                compiled = fam.compiled
                t0 = perf_counter()
                for i in fam.indices:
                    spec = self.specs[i]
                    results[i] = compiled.wrap(
                        spec.places, compiled.evaluate(spec.places)
                    )
                eval_seconds += perf_counter() - t0
                n_array += len(fam.indices)
                fam_array += 1
            else:
                for i in fam.indices:
                    if strict:
                        results[i] = predict_run(self.specs[i])
                    else:
                        try:
                            results[i] = predict_run(self.specs[i])
                        except ModelUnsupportedError:
                            results[i] = None
                    if results[i] is not None:
                        n_scalar += 1
                fam_scalar += 1
        if self.specs:
            registry = get_registry()
            if fam_array:
                registry.counter(
                    "engine.grid.families", route="array"
                ).inc(fam_array)
            if fam_scalar:
                registry.counter(
                    "engine.grid.families", route="scalar"
                ).inc(fam_scalar)
            if n_array:
                registry.counter(
                    "engine.grid.points", route="array"
                ).inc(n_array)
            if n_scalar:
                registry.counter(
                    "engine.grid.points", route="scalar"
                ).inc(n_scalar)
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
    submission order, element-wise identical to scalar
    :func:`~repro.engine.profiles.predict_run` (raising
    :class:`ModelUnsupportedError` exactly where it would)."""
    return GridPlan.build(specs).evaluate()


def predict_runs(specs) -> list:
    """Batch :func:`~repro.engine.profiles.predict_run`: one
    ``engine="model"`` :class:`AppRun` per spec, via the grid path."""
    return GridPlan.build(specs).predict_runs()
