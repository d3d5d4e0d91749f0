"""The six paper apps expressed as workload specs.

:func:`workload_of` derives an app instance's enqueue schedule as a
:class:`~repro.workload.spec.WorkloadSpec` — the same transfers, the
same dedup/residency bookkeeping, the same dependency edges, in the
same emission order.  A port is its app's only hand-written model
schedule: the grid path lowers it once per family (once per (family, P)
on several devices) with :func:`~repro.workload.compile.lower_workload`,
and :func:`repro.engine.profiles.predict_run` evaluates that lowering
at one point.

A port is *DES-exact*: ``WorkloadApp(workload_of(app, places=P,
num_devices=N))`` run at ``places=P, num_devices=N`` produces
bit-identical elapsed times to the original app (held by
``tests/workload/test_ports.py``).  MatMul and Cholesky deduplicate
uploads per *device*, so their multi-device ports take the device of
each tile's stream from the run's device-major layout (that of
:func:`~repro.engine.analytic.stream_geometry`), and their upload op
names carry the device.  On one device, and for the other four apps,
``places`` and ``num_devices`` change nothing.
"""

from __future__ import annotations

import numpy as np

from repro.apps.cholesky_app import CholeskyApp
from repro.apps.hotspot_app import HotspotApp
from repro.apps.kmeans_app import KmeansApp
from repro.apps.matmul_app import MatMulApp
from repro.apps.nn_app import NNApp
from repro.apps.srad_app import SradApp
from repro.engine.analytic import stream_geometry
from repro.errors import ConfigurationError
from repro.kernels.cholesky import (
    gemm_update_work,
    potrf_work,
    syrk_update_work,
    trsm_work,
)
from repro.kernels.hotspot import hotspot_work
from repro.kernels.kmeans import kmeans_assign_work
from repro.kernels.matmul import gemm_work
from repro.kernels.nn import nn_work
from repro.kernels.srad import srad_statistics_work, srad_update_work
from repro.workload.app import WorkloadApp
from repro.workload.spec import KernelSpec, OpSpec, PhaseSpec, WorkloadSpec


class _Kernels:
    """Deduplicating kernel table: identical work descriptors share one
    spec slot (mirrors the apps' per-tile-size work dedup)."""

    def __init__(self):
        self.specs: list[KernelSpec] = []
        self._index: dict[KernelSpec, int] = {}

    def add(self, work) -> int:
        spec = KernelSpec.from_work(work)
        idx = self._index.get(spec)
        if idx is None:
            idx = len(self.specs)
            self._index[spec] = idx
            self.specs.append(spec)
        return idx

    def per_tile(self, sizes, work_of) -> list[int]:
        """Kernel index of each tile, building one work descriptor per
        distinct tile size."""
        by_size: dict[int, int] = {}
        out = []
        for n in sizes:
            k = by_size.get(n)
            if k is None:
                k = by_size[n] = self.add(work_of(n))
            out.append(k)
        return out


def _device(devices, tile: int):
    """The device hosting ``tile``'s stream (``None`` on one device)."""
    return None if devices is None else devices[tile % len(devices)]


def _port_matmul(app: MatMulApp, devices) -> WorkloadSpec:
    d, g = app.d, app.grid
    block = d // g
    itemsize = app.dtype.itemsize
    kernels = _Kernels()
    gemm = kernels.add(gemm_work(block, block, d, itemsize, app.spec))
    row_bytes = block * d * itemsize
    ops: list[OpSpec] = []
    # Each A row block and B column block is uploaded once per device;
    # the upload's name is its dedup key.
    uploaded: set[str] = set()
    for t in range(g * g):
        i, j = divmod(t, g)
        dev = _device(devices, t)
        at = "" if dev is None else f"@{dev}"
        a, b = f"a{i}{at}", f"b{j}{at}"
        for name in (a, b):
            if name not in uploaded:
                uploaded.add(name)
                ops.append(OpSpec("h2d", t, row_bytes, name=name))
        ops.append(OpSpec("exe", t, kernel=gemm, deps=(a, b)))
        ops.append(OpSpec("d2h", t, block * block * itemsize))
    return WorkloadSpec(
        name=f"mm-d{d}-t{g * g}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


def _port_nn(app: NNApp, devices) -> WorkloadSpec:
    bounds = np.linspace(0, app.n_records, app.tiles + 1).astype(int)
    tiles = [
        (t, int(hi - lo))
        for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if hi > lo
    ]
    kernels = _Kernels()
    kls = kernels.per_tile(
        [count for _, count in tiles], lambda n: nn_work(n, 4, app.spec)
    )
    ops: list[OpSpec] = []
    for (t, count), kl in zip(tiles, kls):
        ops.append(OpSpec("h2d", t, count * 2 * 4))
        ops.append(OpSpec("h2d", t, 0))  # output residency marker
        ops.append(OpSpec("exe", t, kernel=kl))
        ops.append(OpSpec("d2h", t, count * 4))
    return WorkloadSpec(
        name=f"nn-r{app.n_records}-t{app.tiles}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


def _port_kmeans(app: KmeansApp, devices) -> WorkloadSpec:
    f = app.n_features
    tiles = app._tile_bounds()
    kernels = _Kernels()
    kls = kernels.per_tile(
        [hi - lo for lo, hi in tiles],
        lambda n: kmeans_assign_work(n, app.n_clusters, f, 4, app.spec),
    )
    uploads = tuple(
        OpSpec("h2d", t, (hi - lo) * f * 4)
        for t, (lo, hi) in enumerate(tiles)
    )
    assigns = tuple(
        OpSpec("exe", t, kernel=kl) for t, kl in enumerate(kls)
    )
    return WorkloadSpec(
        name=f"kmeans-n{app.n_points}-t{len(tiles)}",
        kernels=tuple(kernels.specs),
        phases=(
            PhaseSpec(ops=uploads, sync=False),
            PhaseSpec(ops=assigns, sync=True, repeat=app.iterations),
        ),
    )


def _port_hotspot(app: HotspotApp, devices) -> WorkloadSpec:
    if app.halo_sync != "global":
        raise ConfigurationError(
            "only Hotspot's global halo barrier is portable to a "
            f"workload spec (halo_sync={app.halo_sync!r})"
        )
    d = app.d
    bands = app._row_bands()
    kernels = _Kernels()
    kls = kernels.per_tile(
        [hi - lo for lo, hi in bands],
        lambda n: hotspot_work(n, d, 4, app.spec),
    )
    uploads: list[OpSpec] = []
    for t, (lo, hi) in enumerate(bands):
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # temp
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # power
        uploads.append(OpSpec("h2d", t, 0))  # scratch marker
    steps = tuple(OpSpec("exe", t, kernel=kl) for t, kl in enumerate(kls))
    downloads = tuple(
        OpSpec("d2h", t, (hi - lo) * d * 4)
        for t, (lo, hi) in enumerate(bands)
    )
    return WorkloadSpec(
        name=f"hotspot-d{d}-t{len(bands)}",
        kernels=tuple(kernels.specs),
        phases=(
            PhaseSpec(ops=tuple(uploads), sync=True),
            PhaseSpec(ops=steps, sync=True, repeat=app.iterations),
            PhaseSpec(ops=downloads, sync=False),
        ),
    )


def _port_srad(app: SradApp, devices) -> WorkloadSpec:
    d = app.d
    bands = app._row_bands()
    sizes = [hi - lo for lo, hi in bands]
    kernels = _Kernels()
    stats_kls = kernels.per_tile(
        sizes, lambda n: srad_statistics_work(n, d, 4, app.spec)
    )
    update_kls = kernels.per_tile(
        sizes, lambda n: srad_update_work(n, d, 4, app.spec)
    )
    uploads: list[OpSpec] = []
    for t, (lo, hi) in enumerate(bands):
        uploads.append(OpSpec("h2d", t, (hi - lo) * d * 4))  # image
        uploads.append(OpSpec("h2d", t, 0))  # scratch marker
    downloads = tuple(
        OpSpec("d2h", t, (hi - lo) * d * 4)
        for t, (lo, hi) in enumerate(bands)
    )
    # The statistics/update pair repeats as a unit; PhaseSpec.repeat
    # covers a single phase, so the iterations unroll explicitly here,
    # every iteration sharing the same two phase objects.
    stats, update = (
        PhaseSpec(
            ops=tuple(OpSpec("exe", t, kernel=kl) for t, kl in enumerate(kls)),
            sync=True,
        )
        for kls in (stats_kls, update_kls)
    )
    return WorkloadSpec(
        name=f"srad-d{d}-t{len(bands)}",
        kernels=tuple(kernels.specs),
        phases=(
            PhaseSpec(ops=tuple(uploads), sync=True),
            *(stats, update) * app.iterations,
            PhaseSpec(ops=downloads, sync=False),
        ),
    )


def _port_cholesky(app: CholeskyApp, devices) -> WorkloadSpec:
    if app.mapping != "owner":
        raise ConfigurationError(
            "only the owner stream mapping is portable to a workload "
            f"spec (mapping={app.mapping!r})"
        )
    nb, b = app.nb, app.block
    tile_bytes = b * b * 8
    kernels = _Kernels()
    kls = {
        kind: kernels.add(work)
        for kind, work in (
            ("potrf", potrf_work(b, 8, app.spec)),
            ("trsm", trsm_work(b, 8, app.spec)),
            ("syrk", syrk_update_work(b, 8, app.spec)),
            ("gemm", gemm_update_work(b, 8, app.spec)),
        )
    }
    ops: list[OpSpec] = []
    last_writer: dict[tuple[int, int], str] = {}
    resident: dict[tuple[int, int], set] = {}

    def h2d_count(tile, reads=(), writes=()):
        """Uploads a task on ``tile``'s device needs; a write leaves the
        device's copy the only valid one."""
        dev = _device(devices, tile)
        n = 0
        for coord in (*reads, *writes):
            homes = resident.setdefault(coord, set())
            if dev not in homes:
                homes.add(dev)
                n += 1
        for coord in writes:
            resident[coord] = {dev}
        return n

    def emit(name, kind, tile, after, n_h2d, with_d2h):
        # Dependencies attach to the task's FIRST action (the pipeline
        # scheduler's contract); dependents wait on its LAST.
        deps = tuple(after)
        first = True
        for _ in range(n_h2d):
            ops.append(
                OpSpec("h2d", tile, tile_bytes, deps=deps if first else ())
            )
            first = False
        exe = OpSpec(
            "exe",
            tile,
            kernel=kls[kind],
            deps=deps if first else (),
            name=None if with_d2h else name,
        )
        ops.append(exe)
        if with_d2h:
            ops.append(OpSpec("d2h", tile, tile_bytes, name=name))

    for j in range(nb):
        after = [last_writer[(j, j)]] if (j, j) in last_writer else []
        n = h2d_count(j, writes=((j, j),))
        emit(f"potrf_{j}", "potrf", j, after, n, with_d2h=True)
        last_writer[(j, j)] = f"potrf_{j}"
        for i in range(j + 1, nb):
            after = [f"potrf_{j}"]
            if (i, j) in last_writer:
                after.append(last_writer[(i, j)])
            n = h2d_count(i, reads=((j, j),), writes=((i, j),))
            emit(f"trsm_{i}_{j}", "trsm", i, after, n, with_d2h=True)
            last_writer[(i, j)] = f"trsm_{i}_{j}"
        for i in range(j + 1, nb):
            for k in range(j + 1, i + 1):
                after = [f"trsm_{i}_{j}"]
                if k != i:
                    after.append(f"trsm_{k}_{j}")
                if (i, k) in last_writer:
                    after.append(last_writer[(i, k)])
                kind = "syrk" if k == i else "gemm"
                reads = ((i, j),) if k == i else ((i, j), (k, j))
                name = (
                    f"syrk_{i}_{j}" if k == i else f"gemm_{i}_{k}_{j}"
                )
                n = h2d_count(i, reads=reads, writes=((i, k),))
                emit(name, kind, i, after, n, with_d2h=False)
                last_writer[(i, k)] = name
    return WorkloadSpec(
        name=f"cf-d{app.d}-t{nb * nb}",
        kernels=tuple(kernels.specs),
        phases=(PhaseSpec(ops=tuple(ops), sync=False),),
    )


_PORTS = {
    MatMulApp: _port_matmul,
    NNApp: _port_nn,
    KmeansApp: _port_kmeans,
    HotspotApp: _port_hotspot,
    SradApp: _port_srad,
    CholeskyApp: _port_cholesky,
    WorkloadApp: lambda app, devices: app.workload,
}


def workload_of(app, places: int = 1, num_devices: int = 1) -> WorkloadSpec:
    """The workload spec equivalent to ``app``'s enqueue schedule when
    run at ``places`` partitions over ``num_devices`` cards (the layout
    only matters to MatMul and Cholesky on several devices; see the
    module docstring).  A :class:`WorkloadApp` is its own port."""
    port = _PORTS.get(type(app))
    if port is None:
        raise ConfigurationError(
            f"no workload port for app class {type(app).__name__}"
        )
    devices = None
    if num_devices != 1:
        if not 1 <= num_devices <= places:
            raise ConfigurationError(
                f"cannot lay {places} place(s) over {num_devices} "
                f"device(s): need at least one place per device"
            )
        geometry = stream_geometry(places, num_devices, app.spec)
        devices = geometry.device.tolist()
    return port(app, devices)
