"""Lower a workload's op graph onto the analytic model's evaluator.

A workload is lowered as a :class:`Skeleton` plus its :class:`Numbers`.
The skeleton is the op graph — kinds, tiles, names, deps, phases, syncs
and repeats, and which transfers are residency markers — with every
byte count and kernel left as a *slot*; the numbers fill the slots (the
bytes of each byte slot, the kernel of each kernel slot).  A paper app's
port (:mod:`repro.workload.ports`) builds its skeleton from the app's
shape arguments alone, so every dataset of one shape shares it, and the
grid path lowers it once; a scenario's skeleton comes from its spec
(:func:`skeleton_of`, one slot per transfer).

:func:`lower_skeleton` walks the skeleton's phases in the same order as
:meth:`repro.workload.app.WorkloadApp._execute` walks a spec on the
DES, recording the schedule into the grid path's
:class:`~repro.engine.grid._Lowering` with streams and costs deferred
and bytes and kernels as slots.

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
so the model refuses it with :class:`~repro.errors.ModelUnsupportedError`
chained from a ``DeviceMemoryError`` (:func:`check_capacity`; per
dataset, :func:`check_reserved` over a skeleton's :func:`reservations`),
so a caller can tell the request's fault from the model's.

The differential property suite (``tests/workload``) holds the model to
the DES: it tracks the simulated makespan within certification
tolerance, or the hybrid engine demonstrably falls back.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import DeviceMemoryError, ModelUnsupportedError
from repro.workload.spec import OpSpec, PhaseSpec, WorkloadSpec


class SkeletonOp(NamedTuple):
    """One op of a skeleton: an :class:`~repro.workload.spec.OpSpec`
    whose number is a slot — a byte slot for a transfer, a kernel slot
    for an ``exe``, ``None`` for a residency marker."""

    kind: str
    tile: int
    slot: "int | None"
    name: "str | None" = None
    deps: tuple = ()


class SkeletonPhase(NamedTuple):
    """A run of skeleton ops, optionally globally synced and repeated."""

    ops: tuple
    sync: bool = True
    repeat: int = 1


class Numbers(NamedTuple):
    """One dataset's numbers for a skeleton's slots."""

    #: The workload's name.
    name: str
    #: The kernel table (:class:`~repro.workload.spec.KernelSpec`\\ s).
    kernels: tuple
    #: Kernel-table index of each kernel slot.
    kernel_of: tuple
    #: Bytes moved by each byte slot's transfers.
    nbytes: tuple


class Skeleton(NamedTuple):
    """A workload's op graph with its numbers left as slots (see the
    module docstring).  A phase listed several times is one object."""

    phases: tuple

    def assemble(self, numbers: Numbers) -> WorkloadSpec:
        """The validated :class:`WorkloadSpec` of ``numbers`` (a phase
        listed several times stays one object)."""
        nbytes, kernel_of = numbers.nbytes, numbers.kernel_of
        built: dict[int, PhaseSpec] = {}
        phases = []
        for phase in self.phases:
            spec = built.get(id(phase))
            if spec is None:
                spec = built[id(phase)] = PhaseSpec(
                    ops=tuple(
                        OpSpec(
                            "exe", op.tile, 0, kernel_of[op.slot],
                            op.name, op.deps,
                        )
                        if op.kind == "exe"
                        else OpSpec(
                            op.kind, op.tile,
                            0 if op.slot is None else nbytes[op.slot],
                            None, op.name, op.deps,
                        )
                        for op in phase.ops
                    ),
                    sync=phase.sync,
                    repeat=phase.repeat,
                )
            phases.append(spec)
        return WorkloadSpec(
            name=numbers.name, kernels=numbers.kernels, phases=tuple(phases)
        )


def skeleton_of(workload: WorkloadSpec) -> "tuple[Skeleton, Numbers]":
    """Split a spec into a skeleton (one byte slot per transfer, each
    op's kernel index as its kernel slot) and its numbers."""
    nbytes: list[int] = []
    built: dict[int, SkeletonPhase] = {}
    phases = []
    for phase in workload.phases:
        skel = built.get(id(phase))
        if skel is None:
            ops = []
            for op in phase.ops:
                if op.kind == "exe":
                    slot = op.kernel
                elif op.nbytes > 0:
                    slot = len(nbytes)
                    nbytes.append(op.nbytes)
                else:
                    slot = None
                ops.append(SkeletonOp(op.kind, op.tile, slot, op.name, op.deps))
            skel = built[id(phase)] = SkeletonPhase(
                tuple(ops), phase.sync, phase.repeat
            )
        phases.append(skel)
    return Skeleton(tuple(phases)), Numbers(
        workload.name,
        workload.kernels,
        tuple(range(len(workload.kernels))),
        tuple(nbytes),
    )


def _closes(phase: SkeletonPhase) -> bool:
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


def reservations(skel: Skeleton, device=None) -> dict:
    """Per card (``device`` maps streams to cards; ``None`` is one
    card): the bytes its residency markers reserve, and how many
    transfers of each byte slot it runs, as ``(bytes, {slot: count})``."""
    out: dict[int, list] = {}
    for phase in skel.phases:
        repeat = phase.repeat
        for op in phase.ops:
            if op.kind != "exe":
                dev = 0 if device is None else device[op.tile % len(device)]
                entry = out.setdefault(dev, [0, {}])
                if op.slot is None:
                    entry[0] += repeat
                else:
                    counts = entry[1]
                    counts[op.slot] = counts.get(op.slot, 0) + repeat
    return {dev: (fixed, counts) for dev, (fixed, counts) in out.items()}


def check_reserved(reserved: dict, nbytes, capacity: int) -> None:
    """Refuse a dataset whose :func:`reservations` overflow a card's
    memory (each transfer reserves ``max(bytes, 1)``)."""
    for dev in sorted(reserved):
        fixed, counts = reserved[dev]
        need = fixed + sum(n * (nbytes[s] or 1) for s, n in counts.items())
        if need > capacity:
            cause = DeviceMemoryError(
                f"workload needs {need} B on device {dev}, over its "
                f"{capacity} B memory"
            )
            raise ModelUnsupportedError(str(cause)) from cause


def check_capacity(workload: WorkloadSpec, capacity: int, device) -> None:
    """Refuse a spec whose transfer buffers overflow a card's memory
    (``device`` maps streams to cards; ``None`` is one card)."""
    skel, numbers = skeleton_of(workload)
    check_reserved(reservations(skel, device), numbers.nbytes, capacity)


def lower_skeleton(skel: Skeleton, low, names=None, device=None) -> None:
    """Record a skeleton into a grid ``_Lowering``.

    ``names`` gives each kernel slot's kernel name when a first
    invocation costs extra (``None`` otherwise).  ``device`` lists each
    stream's card for a lowering at one partition count over several
    cards; ``None`` means one card, where the recording serves every
    partition count (an op's tile is its chain id).
    """

    def card(tile):
        return 0 if device is None else device[tile % len(device)]

    # (card, kernel name) pairs that have run: only consulted when a
    # first invocation costs extra.
    loaded: set = set()
    synced = False
    for phase in skel.phases:
        todo = phase.repeat
        while todo:
            if (
                synced
                and _closes(phase)
                and (
                    names is None
                    or all(
                        (card(op.tile), names[op.slot]) in loaded
                        for op in phase.ops
                    )
                )
            ):
                low.closed(todo, phase.ops)
                break
            low.add_ops(phase.ops)
            if names is not None:
                loaded.update(
                    (card(op.tile), names[op.slot])
                    for op in phase.ops
                    if op.kind == "exe"
                )
            if phase.sync:
                low.sync_all()
            synced = phase.sync
            todo -= 1
    low.sync_all()  # harness's final global sync
