"""The model engine's scalar entry point, and the hBench models.

:func:`predict_run` evaluates one run spec analytically.  It does not
hand-code any app's schedule: it replays the app's workload port
(:func:`repro.workload.ports.workload_of`; a
:class:`~repro.workload.app.WorkloadApp` is its own port) through
:func:`repro.workload.compile.predict_workload`, a
:class:`~repro.engine.analytic.StreamReplay` of the same transfers,
dedup/residency bookkeeping and dependency edges as the app's
``_execute``, as straight-line arithmetic instead of a discrete-event
simulation.  Repeated phases that qualify (Kmeans, Hotspot and SRAD's
synced kernel iterations) advance in closed form: after a global sync
every stream's tail is equal, so each further repetition adds ``max
over streams of sum(dispatch + invoke_cost) + S * sync_per_stream`` —
see :mod:`repro.workload.compile` for the exact rule.  A single-device
family's port is built once and shared with the grid path's family
cache (:func:`repro.engine.grid.port_family`).

Known deviations from the DES (why the hybrid engine calibrates):

* link-grant order between streams is approximated by enqueue order
  (see :mod:`repro.engine.analytic`);
* device memory capacity is not accounted; a configuration the DES
  would reject with ``DeviceMemoryError`` is silently costed.  All
  shipped figure grids fit the modeled 8 GB card.

Configurations the analytic path refuses (``ModelUnsupportedError``,
caught by the hybrid engine): real-data runs (``materialize=True``),
``streams_per_place != 1``, ``keep_timeline`` (no trace is produced),
Hotspot's ``halo_sync="p2p"`` dependency pattern, Cholesky's non-owner
stream mappings, noisy or full-duplex device specs, and any app class
without a workload port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.apps.base import AppRun
from repro.engine.analytic import StreamReplay, invoke_cost
from repro.errors import ModelUnsupportedError
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
    from repro.engine.grid import port_family
    from repro.workload.compile import predict_workload

    if spec.streams_per_place != 1:
        raise ModelUnsupportedError(
            "analytic engine requires one stream per place "
            f"(streams_per_place={spec.streams_per_place})"
        )
    if spec.keep_timeline:
        raise ModelUnsupportedError(
            "analytic engine produces no event trace (keep_timeline=True)"
        )
    fam = port_family(spec)
    elapsed = predict_workload(
        fam.workload, spec.places, spec.num_devices, fam.spec
    )
    return fam.wrap(spec.places, elapsed)


# -- hBench (fig5/fig6/fig7) -------------------------------------------------


def hbench_transfer_model(hb: "HBench", hd_blocks: int, dh_blocks: int) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.transfer_time`.

    Issued exactly like the app (the out chain, then the back chain, on
    two streams); the request-ordered lane reproduces the DES's strict
    alternation between the two directions.
    """
    rep = StreamReplay(2, hb.spec)
    nbytes = (hb.block_bytes // hb.itemsize) * 4
    for _ in range(hd_blocks):
        rep.h2d(0, nbytes)
    for _ in range(dh_blocks):
        rep.d2h(1, nbytes)
    return rep.sync_all()


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
    (kernel phase only, after the synced upload)."""
    rep = StreamReplay(places, hb.spec)
    block_elems = hb.elements // nblocks
    work = vecadd_work(block_elems, iterations, hb.itemsize, hb.spec)
    costs = invoke_cost(work, rep.geometry, hb.spec)
    # The upload phase is untimed; only its trailing sync (which zeroes
    # the stagger) matters, and the replay's tails already start equal.
    for i in range(nblocks):
        s = i % rep.num_streams
        rep.invoke(s, costs[s], name=work.name)
    return rep.sync_all()


def hbench_reference_model(hb: "HBench", iterations: int = 100) -> float:
    """Analytic :meth:`~repro.apps.hbench.HBench.reference_time`."""
    rep = StreamReplay(1, hb.spec)
    work = vecadd_work(hb.elements, iterations, hb.itemsize, hb.spec)
    costs = invoke_cost(work, rep.geometry, hb.spec)
    rep.invoke(0, costs[0], name=work.name)
    return rep.sync_all()
