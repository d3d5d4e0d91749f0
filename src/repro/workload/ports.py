"""The six paper apps expressed as workload specs.

:func:`workload_of` derives an app instance's enqueue schedule as a
:class:`~repro.workload.spec.WorkloadSpec` — the same transfers, the
same dedup/residency bookkeeping, the same dependency edges, in the
same emission order.  A port is its app's only hand-written model
schedule, in two parts (see :mod:`repro.workload.compile`):

* a *skeleton builder*, a pure function of the app's **shape**
  arguments: the tile count or grid side, the iteration count, and, on
  several devices, each stream's device.  It fixes the op graph and
  leaves every byte count and kernel as a slot;
* a *numbers* function, which reads the dataset: the bytes of each byte
  slot and the kernel work of each kernel slot (one work descriptor per
  distinct tile size, as the apps dedup them).

:func:`workload_of` assembles the two.  The grid path
(:mod:`repro.engine.grid`) lowers one skeleton per shape, and carries
each dataset's numbers as per-family columns.  Hotspot's ``p2p`` halo
exchange and Cholesky's non-owner stream mappings have no port.  A
:class:`~repro.workload.app.WorkloadApp` and the hBench probes
(:mod:`repro.apps.hbench`) carry their own port as a workload spec, one
without a shape; a probe's is the schedule of its timed region.

A port is *DES-exact*: ``WorkloadApp(workload_of(app, places=P,
num_devices=N))`` run at ``places=P, num_devices=N`` produces
bit-identical elapsed times to the original app (held by
``tests/workload/test_ports.py``).  MatMul and Cholesky deduplicate
uploads per *device*, so their multi-device ports take the device of
each tile's stream from the run's device-major place layout
(:func:`~repro.device.platform.place_layout`, the runtime's own), and
their upload op names carry the device.  On one device, and for the
other four apps, ``places`` and ``num_devices`` change nothing.
"""

from __future__ import annotations

import numpy as np

from repro.apps.cholesky_app import CholeskyApp
from repro.apps.hbench import (
    PartitionProbe,
    ReferenceProbe,
    StreamedProbe,
    TransferProbe,
)
from repro.apps.hotspot_app import HotspotApp
from repro.apps.kmeans_app import KmeansApp
from repro.apps.matmul_app import MatMulApp
from repro.apps.nn_app import NNApp
from repro.apps.srad_app import SradApp
from repro.device.platform import place_layout
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
from repro.workload.compile import (
    Numbers,
    Skeleton,
    SkeletonOp as Op,
    SkeletonPhase as Phase,
)
from repro.workload.spec import KernelSpec, WorkloadSpec


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


def _band_sizes(bands) -> list[int]:
    return [hi - lo for lo, hi in bands]


# -- MatMul: shape (grid side,) ------------------------------------------------


def _matmul_numbers(app: MatMulApp):
    d, g = app.d, app.grid
    block = d // g
    itemsize = app.dtype.itemsize
    kernels = _Kernels()
    gemm = kernels.add(gemm_work(block, block, d, itemsize, app.spec))
    return (g,), Numbers(
        f"mm-d{d}-t{g * g}",
        tuple(kernels.specs),
        (gemm,),
        (block * d * itemsize, block * block * itemsize),
    )


def _matmul_skeleton(g: int, devices) -> Skeleton:
    # Byte slots: 0 an A row / B column block, 1 a C tile.
    ops: list[Op] = []
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
                ops.append(Op("h2d", t, 0, name))
        ops.append(Op("exe", t, 0, deps=(a, b)))
        ops.append(Op("d2h", t, 1))
    return Skeleton((Phase(tuple(ops), sync=False),))


# -- NN: shape (tile count, empty tiles) --------------------------------------


def _nn_numbers(app: NNApp):
    bounds = np.linspace(0, app.n_records, app.tiles + 1).astype(int)
    counts = [int(hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    present = [count for count in counts if count > 0]
    kernels = _Kernels()
    kls = kernels.per_tile(present, lambda n: nn_work(n, 4, app.spec))
    empty = tuple(t for t, count in enumerate(counts) if count <= 0)
    return (app.tiles, empty), Numbers(
        f"nn-r{app.n_records}-t{app.tiles}",
        tuple(kernels.specs),
        tuple(kls),
        tuple(b for count in present for b in (count * 2 * 4, count * 4)),
    )


def _nn_skeleton(tiles: int, empty: tuple, devices) -> Skeleton:
    # Byte slots: 2i the i-th present tile's records, 2i+1 its results.
    ops: list[Op] = []
    present = (t for t in range(tiles) if t not in empty)
    for i, t in enumerate(present):
        ops.append(Op("h2d", t, 2 * i))
        ops.append(Op("h2d", t, None))  # output residency marker
        ops.append(Op("exe", t, i))
        ops.append(Op("d2h", t, 2 * i + 1))
    return Skeleton((Phase(tuple(ops), sync=False),))


# -- Kmeans: shape (tile count, iterations) -----------------------------------


def _kmeans_numbers(app: KmeansApp):
    f = app.n_features
    sizes = _band_sizes(app._tile_bounds())
    kernels = _Kernels()
    kls = kernels.per_tile(
        sizes,
        lambda n: kmeans_assign_work(n, app.n_clusters, f, 4, app.spec),
    )
    return (len(sizes), app.iterations), Numbers(
        f"kmeans-n{app.n_points}-t{len(sizes)}",
        tuple(kernels.specs),
        tuple(kls),
        tuple(n * f * 4 for n in sizes),
    )


def _kmeans_skeleton(tiles: int, iterations: int, devices) -> Skeleton:
    uploads = tuple(Op("h2d", t, t) for t in range(tiles))
    assigns = tuple(Op("exe", t, t) for t in range(tiles))
    return Skeleton(
        (
            Phase(uploads, sync=False),
            Phase(assigns, sync=True, repeat=iterations),
        )
    )


# -- Hotspot: shape (row bands, iterations) -----------------------------------


def _hotspot_numbers(app: HotspotApp):
    if app.halo_sync != "global":
        raise ConfigurationError(
            "only Hotspot's global halo barrier is portable to a "
            f"workload spec (halo_sync={app.halo_sync!r})"
        )
    d = app.d
    sizes = _band_sizes(app._row_bands())
    kernels = _Kernels()
    kls = kernels.per_tile(sizes, lambda n: hotspot_work(n, d, 4, app.spec))
    return (len(sizes), app.iterations), Numbers(
        f"hotspot-d{d}-t{len(sizes)}",
        tuple(kernels.specs),
        tuple(kls),
        tuple(n * d * 4 for n in sizes),
    )


def _hotspot_skeleton(bands: int, iterations: int, devices) -> Skeleton:
    # Byte slot t: one grid of band t (temperature, power, result).
    uploads: list[Op] = []
    for t in range(bands):
        uploads.append(Op("h2d", t, t))  # temp
        uploads.append(Op("h2d", t, t))  # power
        uploads.append(Op("h2d", t, None))  # scratch marker
    steps = tuple(Op("exe", t, t) for t in range(bands))
    downloads = tuple(Op("d2h", t, t) for t in range(bands))
    return Skeleton(
        (
            Phase(tuple(uploads), sync=True),
            Phase(steps, sync=True, repeat=iterations),
            Phase(downloads, sync=False),
        )
    )


# -- SRAD: shape (row bands, iterations) --------------------------------------


def _srad_numbers(app: SradApp):
    d = app.d
    sizes = _band_sizes(app._row_bands())
    kernels = _Kernels()
    stats_kls = kernels.per_tile(
        sizes, lambda n: srad_statistics_work(n, d, 4, app.spec)
    )
    update_kls = kernels.per_tile(
        sizes, lambda n: srad_update_work(n, d, 4, app.spec)
    )
    return (len(sizes), app.iterations), Numbers(
        f"srad-d{d}-t{len(sizes)}",
        tuple(kernels.specs),
        (*stats_kls, *update_kls),
        tuple(n * d * 4 for n in sizes),
    )


def _srad_skeleton(bands: int, iterations: int, devices) -> Skeleton:
    # Byte slot t: band t of the image; kernel slots t (statistics) and
    # bands + t (update).
    uploads: list[Op] = []
    for t in range(bands):
        uploads.append(Op("h2d", t, t))  # image
        uploads.append(Op("h2d", t, None))  # scratch marker
    downloads = tuple(Op("d2h", t, t) for t in range(bands))
    # The statistics/update pair repeats as a unit; a phase's repeat
    # covers a single phase, so the iterations unroll explicitly here,
    # every iteration sharing the same two phase objects.
    stats, update = (
        Phase(tuple(Op("exe", t, base + t) for t in range(bands)), sync=True)
        for base in (0, bands)
    )
    return Skeleton(
        (
            Phase(tuple(uploads), sync=True),
            *(stats, update) * iterations,
            Phase(downloads, sync=False),
        )
    )


# -- Cholesky: shape (grid side,) ---------------------------------------------

#: Cholesky's kernel slots.
_CF_KERNELS = ("potrf", "trsm", "syrk", "gemm")


def _cholesky_numbers(app: CholeskyApp):
    if app.mapping != "owner":
        raise ConfigurationError(
            "only the owner stream mapping is portable to a workload "
            f"spec (mapping={app.mapping!r})"
        )
    b = app.block
    kernels = _Kernels()
    kls = tuple(
        kernels.add(work)
        for work in (
            potrf_work(b, 8, app.spec),
            trsm_work(b, 8, app.spec),
            syrk_update_work(b, 8, app.spec),
            gemm_update_work(b, 8, app.spec),
        )
    )
    return (app.nb,), Numbers(
        f"cf-d{app.d}-t{app.nb * app.nb}",
        tuple(kernels.specs),
        kls,
        (b * b * 8,),
    )


def _cholesky_skeleton(nb: int, devices) -> Skeleton:
    # Byte slot 0: one tile; kernel slots as in _CF_KERNELS.
    ops: list[Op] = []
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
            ops.append(Op("h2d", tile, 0, deps=deps if first else ()))
            first = False
        ops.append(
            Op(
                "exe",
                tile,
                _CF_KERNELS.index(kind),
                None if with_d2h else name,
                deps if first else (),
            )
        )
        if with_d2h:
            ops.append(Op("d2h", tile, 0, name))

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
    return Skeleton((Phase(tuple(ops), sync=False),))


#: App class -> (numbers, skeleton builder); a WorkloadApp and the
#: hBench probes carry their own port (``app.workload``).
_PORTS = {
    MatMulApp: (_matmul_numbers, _matmul_skeleton),
    NNApp: (_nn_numbers, _nn_skeleton),
    KmeansApp: (_kmeans_numbers, _kmeans_skeleton),
    HotspotApp: (_hotspot_numbers, _hotspot_skeleton),
    SradApp: (_srad_numbers, _srad_skeleton),
    CholeskyApp: (_cholesky_numbers, _cholesky_skeleton),
    WorkloadApp: None,
    TransferProbe: None,
    StreamedProbe: None,
    PartitionProbe: None,
    ReferenceProbe: None,
}


def _port(app):
    if type(app) not in _PORTS:
        raise ConfigurationError(
            f"no workload port for app class {type(app).__name__}"
        )
    return _PORTS[type(app)]


def port_parts(app) -> "tuple[tuple | None, Numbers | None]":
    """``app``'s port as ``(shape, numbers)``: ``shape`` is the app
    class and its skeleton's arguments (:func:`port_skeleton` builds the
    skeleton from it, plus a device layout).  An app that carries its
    own port (a :class:`WorkloadApp`, an hBench probe) has neither."""
    port = _port(app)
    if port is None:
        return None, None
    args, numbers = port[0](app)
    return (type(app), *args), numbers


def port_skeleton(shape: tuple, devices=None) -> Skeleton:
    """The skeleton of a :func:`port_parts` shape (``devices``: each
    stream's device, or ``None`` on one device)."""
    return _PORTS[shape[0]][1](*shape[1:], devices)


def workload_of(app, places: int = 1, num_devices: int = 1) -> WorkloadSpec:
    """The workload spec equivalent to ``app``'s enqueue schedule when
    run at ``places`` partitions over ``num_devices`` cards (the layout
    only matters to MatMul and Cholesky on several devices; see the
    module docstring).  An app that carries its own port returns it."""
    port = _port(app)
    devices = None
    if num_devices != 1:
        devices = [
            card
            for card, count in enumerate(place_layout(places, num_devices))
            for _ in range(count)
        ]
    if port is None:
        return app.workload
    shape, numbers = port_parts(app)
    return port_skeleton(shape, devices).assemble(numbers)
