"""Lower a workload spec onto the analytic and grid engines.

Both lowerings walk the spec's phases in the same order as
:meth:`repro.workload.app.WorkloadApp._execute` walks them on the DES:

* :func:`predict_workload` drives a
  :class:`~repro.engine.analytic.StreamReplay` (the scalar model path,
  :func:`repro.engine.profiles.predict_run`);
* :func:`lower_workload` drives the grid path's
  :class:`~repro.engine.grid._FamilyBuilder`, recording the schedule
  once per family with streams and costs deferred.

The six paper apps reach both through their ports
(:func:`repro.workload.ports.workload_of`), so a port is the one
hand-written model schedule of its app.

**Closed repeats.**  Neither lowering unrolls a repetition that can be
advanced in closed form.  A phase repetition closes when

* the phase ends in a sync;
* it holds only ``exe`` ops whose deps name ops of the same tile;
* it starts right after a global sync;
* either the device spec's ``first_invoke_extra`` is 0, or every kernel
  the phase names has already run on that op's stream's device.

After a global sync every stream's tail is equal and kernels do not
contend, so each such repetition advances time by ``max over streams
of sum(dispatch + cost) + S * sync_per_stream``.  All the qualifying
repetitions of a ``repeat=k`` phase close in one step.  The rule reads
only spec content and run geometry (never object identity), so a spec
and its JSON round trip predict the same bits.

The differential property suite (``tests/workload``) holds the three
consumers together: grid == scalar bit-exactly for any generated
scenario, and both track the DES within certification tolerance (or the
hybrid engine demonstrably falls back).
"""

from __future__ import annotations

import numpy as np

from repro.device.spec import DeviceSpec, PHI_31SP
from repro.engine.analytic import StreamReplay, invoke_cost
from repro.workload.spec import PhaseSpec, WorkloadSpec


def _closes(phase: PhaseSpec) -> bool:
    """The spec-content half of the closed-repeat rule: a synced phase
    of ``exe`` ops whose deps stay on their own tile."""
    if not phase.sync:
        return False
    tile_of: dict[str, int] = {}
    for op in phase.ops:
        if op.kind != "exe":
            return False
        for dep in op.deps:
            if tile_of[dep] != op.tile:
                return False
        if op.name is not None:
            tile_of[op.name] = op.tile
    return True


def predict_workload(
    workload: WorkloadSpec,
    places: int,
    num_devices: int = 1,
    spec: DeviceSpec = PHI_31SP,
) -> float:
    """Predicted elapsed seconds of ``workload`` at ``places``
    partitions over ``num_devices`` cards (the scalar analytic model)."""
    rep = StreamReplay(places, spec, num_devices)
    S = rep.num_streams
    works = [kernel.work() for kernel in workload.kernels]
    costs = [invoke_cost(work, rep.geometry, spec) for work in works]
    over = spec.overheads
    track_loaded = over.first_invoke_extra > 0.0
    device = rep.geometry.device.tolist()
    # (device, kernel name) pairs that have run: only consulted when a
    # first invocation costs extra.
    loaded: set = set()
    synced_at = None  # time of the global sync the next phase follows
    for phase in workload.phases:
        todo = phase.repeat
        while todo:
            if (
                synced_at is not None
                and _closes(phase)
                and (
                    not track_loaded
                    or all(
                        (device[op.tile % S], works[op.kernel].name)
                        in loaded
                        for op in phase.ops
                    )
                )
            ):
                streams = [op.tile % S for op in phase.ops]
                cost_t = np.array(
                    [costs[op.kernel][s] for op, s in zip(phase.ops, streams)]
                )
                per_rep = float(
                    np.bincount(
                        streams, weights=cost_t + over.dispatch, minlength=S
                    ).max()
                )
                per_rep += S * over.sync_per_stream
                synced_at += todo * per_rep
                rep.advance_to(synced_at)
                break
            handles: dict = {}
            for op in phase.ops:
                s = op.tile % S
                deps = tuple(handles[d] for d in op.deps)
                if op.kind == "exe":
                    name = works[op.kernel].name
                    h = rep.invoke(
                        s, costs[op.kernel][s], deps=deps, name=name
                    )
                    if track_loaded:
                        loaded.add((device[s], name))
                else:
                    h = rep.transfer(s, op.nbytes, deps=deps)
                if op.name is not None:
                    handles[op.name] = h
            synced_at = rep.sync_all() if phase.sync else None
            todo -= 1
    return rep.sync_all()  # harness's final global sync


def lower_workload(workload: WorkloadSpec, bld) -> None:
    """Record a workload family into a grid ``_FamilyBuilder``.

    Same walk and closed-repeat rule as :func:`predict_workload`, with
    streams deferred (an op's tile is its chain id) and costs deferred
    (one cost class per kernel); the grid evaluator then serves every
    partition count from this one recording.  The grid path refuses
    device specs with a first-invocation cost, so only the rule's
    spec-content half applies here.
    """
    kls = [bld.kernel_class(kernel.work()) for kernel in workload.kernels]
    synced = False
    for phase in workload.phases:
        todo = phase.repeat
        while todo:
            if synced and _closes(phase):
                bld.closed(todo, phase.ops, kls)
                break
            bld.add_ops(phase.ops, kls)
            if phase.sync:
                bld.sync_all()
            synced = phase.sync
            todo -= 1
    bld.sync_all()  # harness's final global sync
