"""The model engine's one-point entry point, and the hBench models.

:func:`predict_run` evaluates one run spec analytically.  It does not
hand-code any app's schedule: it is the grid evaluator
(:mod:`repro.engine.grid`) at one point, over the app's workload port
(:func:`repro.workload.ports.workload_of`; a
:class:`~repro.workload.app.WorkloadApp` is its own port) — the same
transfers, dedup/residency bookkeeping and dependency edges as the
app's ``_execute``, as straight-line arithmetic instead of a
discrete-event simulation.  Repeated phases that qualify (Kmeans,
Hotspot and SRAD's synced kernel iterations) advance in closed form —
see :mod:`repro.workload.compile` for the exact rule.  The hBench
probe models build a workload spec of the probe's schedule and take
the same path.

Known deviation from the DES (why the hybrid engine calibrates): two
link requests queued at one request time are granted by issue index,
where the DES serves them in request order (the lane discipline is
stated in :mod:`repro.engine.grid`).

Configurations the analytic path refuses (``ModelUnsupportedError``,
caught by the hybrid engine): real-data runs (``materialize=True``),
``streams_per_place != 1``, ``keep_timeline`` (no trace is produced),
Hotspot's ``halo_sync="p2p"`` dependency pattern, Cholesky's non-owner
stream mappings, noisy or full-duplex device specs, ports whose
buffers overflow a card's memory (the DES would raise
``DeviceMemoryError``), and any app class without a workload port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import AppRun
from repro.kernels.vecadd import vecadd_work

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.apps.hbench import HBench
    from repro.parallel.runspec import RunSpec


def predict_run(spec: "RunSpec") -> AppRun:
    """Evaluate one :class:`~repro.parallel.runspec.RunSpec` analytically.

    Returns an :class:`~repro.apps.base.AppRun` with ``engine="model"``
    (no timeline, no outputs, no metrics snapshot), or raises
    :class:`~repro.errors.ModelUnsupportedError` for configurations the
    analytic path cannot reproduce.
    """
    from repro.engine.grid import _compiled_for

    fam = _compiled_for(spec)
    return fam.wrap(spec.places, fam.evaluate(spec.places))


# -- hBench (fig5/fig6/fig7) -------------------------------------------------


def _hbench_predict(hb: "HBench", places: int, ops, kernels=()) -> float:
    """Predicted seconds of one unsynced phase of ``ops`` at ``places``
    partitions; the harness's final global sync ends it, as the probe's
    own ``sync_all`` does."""
    from repro.parallel.runspec import RunSpec
    from repro.workload.spec import PhaseSpec, WorkloadSpec

    workload = WorkloadSpec(
        name="hbench",
        kernels=tuple(kernels),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )
    run = RunSpec.for_workload(workload, places=places, spec=hb.spec)
    return predict_run(run).elapsed


def _vecadd_ops(hb: "HBench", elements: int, iterations: int, nblocks: int):
    """(kernels, ops) invoking ``nblocks`` vecadd blocks round-robin."""
    from repro.workload.spec import KernelSpec, OpSpec

    work = vecadd_work(elements, iterations, hb.itemsize, hb.spec)
    ops = [OpSpec("exe", i, kernel=0) for i in range(nblocks)]
    return (KernelSpec.from_work(work),), ops


def hbench_transfer_model(hb: "HBench", hd_blocks: int, dh_blocks: int) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.transfer_time`.

    Issued exactly like the app (the out chain, then the back chain, on
    two streams); the request-ordered lane reproduces the DES's strict
    alternation between the two directions.
    """
    from repro.workload.spec import OpSpec

    nbytes = (hb.block_bytes // hb.itemsize) * 4
    ops = [OpSpec("h2d", 0, nbytes)] * hd_blocks
    ops += [OpSpec("d2h", 1, nbytes)] * dh_blocks
    return _hbench_predict(hb, 2, ops)


def hbench_streamed_model(
    hb: "HBench", iterations: int, streams: int = 4
) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.streamed_time` via the
    :mod:`repro.model` pipeline estimate (van Werkhoven bounds plus
    per-chunk launch and per-stream join overheads)."""
    from repro.model.streams import streamed_time_estimate

    half = hb.data_time() / 2
    return streamed_time_estimate(
        half, hb.kernel_time(iterations), half, streams, hb.spec
    )


def hbench_partition_sweep_model(
    hb: "HBench", places: int, nblocks: int = 128, iterations: int = 100
) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.partition_sweep_time`
    (kernel phase only, after the synced upload).

    The upload phase is untimed; only its trailing sync (which zeroes
    the stagger) matters, and the model's tails already start equal.
    """
    kernels, ops = _vecadd_ops(hb, hb.elements // nblocks, iterations, nblocks)
    return _hbench_predict(hb, places, ops, kernels)


def hbench_reference_model(hb: "HBench", iterations: int = 100) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.reference_time`."""
    kernels, ops = _vecadd_ops(hb, hb.elements, iterations, 1)
    return _hbench_predict(hb, 1, ops, kernels)
