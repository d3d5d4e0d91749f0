"""Lower a workload spec onto the analytic model's evaluator.

:func:`lower_workload` walks the spec's phases in the same order as
:meth:`repro.workload.app.WorkloadApp._execute` walks them on the DES,
recording the schedule into the grid path's
:class:`~repro.engine.grid._FamilyBuilder` with streams and costs
deferred, once per family (once per (family, P) on several cards).  The
six paper apps reach it through their ports
(:func:`repro.workload.ports.workload_of`), so a port is the one
hand-written model schedule of its app.

**Closed repeats.**  The lowering does not unroll a repetition that can
be advanced in closed form.  A phase repetition closes when

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

**Capacity.**  :class:`~repro.workload.app.WorkloadApp` reserves
``max(nbytes, 1)`` device bytes for every transfer op it runs, on the
op's stream's card, and frees none.  A spec whose reservations on any
card exceed ``memory_bytes`` makes the DES raise ``DeviceMemoryError``,
so the lowering refuses it with
:class:`~repro.errors.ModelUnsupportedError`.

The differential property suite (``tests/workload``) holds the model to
the DES: it tracks the simulated makespan within certification
tolerance, or the hybrid engine demonstrably falls back.
"""

from __future__ import annotations

from repro.errors import ModelUnsupportedError
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


def check_capacity(workload: WorkloadSpec, capacity: int, device) -> None:
    """Refuse a spec whose transfer buffers overflow a card's memory
    (``device`` maps streams to cards; ``None`` is one card)."""
    used: dict[int, int] = {}
    for phase in workload.phases:
        repeat = phase.repeat
        for op in phase.ops:
            if op.kind != "exe":
                dev = 0 if device is None else device[op.tile % len(device)]
                used[dev] = used.get(dev, 0) + (op.nbytes or 1) * repeat
    for dev, nbytes in sorted(used.items()):
        if nbytes > capacity:
            raise ModelUnsupportedError(
                f"workload needs {nbytes} B on device {dev}, over its "
                f"{capacity} B memory"
            )


def lower_workload(workload: WorkloadSpec, bld, device=None) -> None:
    """Record a workload family into a grid ``_FamilyBuilder``.

    ``device`` lists each stream's card for a lowering at one partition
    count over several cards; ``None`` means one card, where the
    recording serves every partition count (an op's tile is its chain
    id, and each kernel is one cost class).
    """
    spec = bld.spec
    check_capacity(workload, spec.memory_bytes, device)

    def card(tile):
        return 0 if device is None else device[tile % len(device)]

    first_invoke = spec.overheads.first_invoke_extra > 0.0
    names = [kernel.name for kernel in workload.kernels]
    kls = [bld.kernel_class(kernel.work()) for kernel in workload.kernels]
    # (card, kernel name) pairs that have run: only consulted when a
    # first invocation costs extra.
    loaded: set = set()
    synced = False
    for phase in workload.phases:
        todo = phase.repeat
        while todo:
            if (
                synced
                and _closes(phase)
                and (
                    not first_invoke
                    or all(
                        (card(op.tile), names[op.kernel]) in loaded
                        for op in phase.ops
                    )
                )
            ):
                bld.closed(todo, phase.ops, kls)
                break
            bld.add_ops(phase.ops, kls)
            if first_invoke:
                loaded.update(
                    (card(op.tile), names[op.kernel])
                    for op in phase.ops
                    if op.kind == "exe"
                )
            if phase.sync:
                bld.sync_all()
            synced = phase.sync
            todo -= 1
    bld.sync_all()  # harness's final global sync
