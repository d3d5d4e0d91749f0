"""Cholesky factorisation (CF) — the hStreams-SDK tiled sample, ported.

Blocked right-looking factorisation of an SPD ``D x D`` matrix over a
``g x g`` tile grid (``T = g^2`` "tiles" in the paper's Fig. 10(b)
counting).  The per-step POTRF / TRSM / SYRK / GEMM tasks form a DAG with
genuine inter-stream dependencies (Fig. 4(b)) — the application the paper
uses to stress multi-kernel synchronisation and, in Sec. VI, multi-MIC
execution.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.apps.base import StreamedApp
from repro.errors import ConfigurationError
from repro.hstreams.buffer import Buffer
from repro.hstreams.context import StreamContext
from repro.kernels.cholesky import (
    gemm_update_work,
    potrf,
    potrf_work,
    syrk_update_work,
    trsm,
    trsm_work,
)
from repro.pipeline import MappingPolicy, Task, TaskGraph, TransferSpec, schedule_graph


class CholeskyApp(StreamedApp):
    """Tiled double-precision Cholesky factorisation."""

    name = "cf"

    def __init__(
        self,
        d: int,
        n_tiles: int = 100,
        *,
        mapping: str = "owner",
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        if mapping not in ("owner", "round_robin", "least_loaded"):
            raise ConfigurationError(
                "mapping must be 'owner', 'round_robin' or "
                f"'least_loaded', got {mapping!r}"
            )
        self.mapping = mapping
        grid = math.isqrt(n_tiles)
        if grid * grid != n_tiles:
            raise ConfigurationError(
                f"number of tiles must be a perfect square, got {n_tiles}"
            )
        if d < 1 or d % grid != 0:
            raise ConfigurationError(
                f"matrix size {d} must be a positive multiple of the tile "
                f"grid {grid}"
            )
        self.d = d
        self.nb = grid
        self.block = d // grid
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        return self.d**3 / 3.0

    def make_spd(self) -> np.ndarray:
        """A reproducible SPD input matrix."""
        rng = np.random.default_rng(self.seed)
        m = rng.random((self.d, self.d))
        return (m @ m.T + self.d * np.eye(self.d)).astype(np.float64)

    def _tile_buffers(
        self, ctx: StreamContext, a: np.ndarray | None
    ) -> dict[tuple[int, int], Buffer]:
        b = self.block
        buffers = {}
        for i in range(self.nb):
            for j in range(i + 1):  # lower triangle only
                if a is not None:
                    host = np.ascontiguousarray(
                        a[i * b : (i + 1) * b, j * b : (j + 1) * b]
                    )
                    buffers[(i, j)] = ctx.buffer(host, name=f"T{i}_{j}")
                else:
                    buffers[(i, j)] = ctx.buffer(
                        shape=(b, b), dtype=np.float64, name=f"T{i}_{j}"
                    )
        return buffers

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        if self.materialize and ctx.platform.num_devices > 1:
            raise ConfigurationError(
                "real-data Cholesky is single-device only; multi-MIC runs "
                "are model-timed (virtual buffers)"
            )
        a = self.make_spd() if self.materialize else None
        tiles = self._tile_buffers(ctx, a)
        nb, b = self.nb, self.block
        itemsize = 8
        # Every tile has one shape, so each kernel has one descriptor.
        potrf_w = potrf_work(b, itemsize, self.spec)
        trsm_w = trsm_work(b, itemsize, self.spec)
        syrk_w = syrk_update_work(b, itemsize, self.spec)
        gemm_w = gemm_update_work(b, itemsize, self.spec)
        graph = TaskGraph()
        last_writer: dict[tuple[int, int], str] = {}
        #: Devices each tile is currently valid on.
        resident: dict[tuple[int, int], set[int]] = {}
        num_streams = ctx.num_streams
        #: State for the non-owner mapping variants.
        rr_counter = 0
        load = [0.0] * num_streams

        def pick_stream(row: int, flops: float) -> int:
            """Assign the task a stream per the configured mapping."""
            nonlocal rr_counter
            if self.mapping == "owner":
                choice = row % num_streams
            elif self.mapping == "round_robin":
                choice = rr_counter % num_streams
                rr_counter += 1
            else:  # least_loaded
                choice = min(range(num_streams), key=load.__getitem__)
            load[choice] += flops
            return choice

        def dev(stream_hint: int) -> int:
            return ctx.stream(stream_hint).place.device.index

        def h2d_needed(
            device: int,
            reads: tuple[tuple[int, int], ...] = (),
            writes: tuple[tuple[int, int], ...] = (),
        ) -> tuple[TransferSpec, ...]:
            """Transfers for tiles not yet valid on ``device``.

            On one device each tile moves once; with several MICs a tile
            written on one card must cross PCIe again before another card
            can read it — the extra traffic behind Fig. 11's below-linear
            scaling.  Writes invalidate the other cards' copies.
            """
            specs = []
            for coord in (*reads, *writes):
                homes = resident.setdefault(coord, set())
                if device not in homes:
                    homes.add(device)
                    specs.append(TransferSpec(tiles[coord]))
            for coord in writes:
                resident[coord] = {device}
            return tuple(specs)

        for j in range(nb):
            hint = pick_stream(j, b**3 / 3.0)
            deps = (last_writer[(j, j)],) if (j, j) in last_writer else ()
            fn = None
            if self.materialize:
                def fn(jj=j, di=dev(hint)):
                    potrf(tiles[(jj, jj)].instance(di))
            name = f"potrf_{j}"
            graph.add(
                Task(
                    name=name,
                    work=potrf_w,
                    fn=fn,
                    h2d=h2d_needed(dev(hint), writes=((j, j),)),
                    d2h=(TransferSpec(tiles[(j, j)]),),
                    after=deps,
                    stream_hint=hint,
                )
            )
            last_writer[(j, j)] = name

            for i in range(j + 1, nb):
                hint = pick_stream(i, float(b) ** 3)
                after = [f"potrf_{j}"]
                if (i, j) in last_writer:
                    after.append(last_writer[(i, j)])
                fn = None
                if self.materialize:
                    def fn(ii=i, jj=j, di=dev(hint)):
                        trsm(
                            tiles[(ii, jj)].instance(di),
                            tiles[(jj, jj)].instance(di),
                        )
                name = f"trsm_{i}_{j}"
                graph.add(
                    Task(
                        name=name,
                        work=trsm_w,
                        fn=fn,
                        h2d=h2d_needed(
                            dev(hint), reads=((j, j),), writes=((i, j),)
                        ),
                        d2h=(TransferSpec(tiles[(i, j)]),),
                        after=tuple(after),
                        stream_hint=hint,
                    )
                )
                last_writer[(i, j)] = name

            for i in range(j + 1, nb):
                for k in range(j + 1, i + 1):
                    hint = pick_stream(i, 2.0 * float(b) ** 3)
                    after = [f"trsm_{i}_{j}"]
                    if k != i:
                        after.append(f"trsm_{k}_{j}")
                    if (i, k) in last_writer:
                        after.append(last_writer[(i, k)])
                    fn = None
                    if k == i:
                        work = syrk_w
                        if self.materialize:
                            def fn(ii=i, jj=j, di=dev(hint)):
                                t = tiles[(ii, ii)].instance(di)
                                l_ = tiles[(ii, jj)].instance(di)
                                t -= l_ @ l_.T
                        name = f"syrk_{i}_{j}"
                    else:
                        work = gemm_w
                        if self.materialize:
                            def fn(ii=i, kk=k, jj=j, di=dev(hint)):
                                t = tiles[(ii, kk)].instance(di)
                                t -= (
                                    tiles[(ii, jj)].instance(di)
                                    @ tiles[(kk, jj)].instance(di).T
                                )
                        name = f"gemm_{i}_{k}_{j}"
                    read_tiles = (
                        ((i, j),) if k == i else ((i, j), (k, j))
                    )
                    graph.add(
                        Task(
                            name=name,
                            work=work,
                            fn=fn,
                            h2d=h2d_needed(
                                dev(hint), reads=read_tiles, writes=((i, k),)
                            ),
                            after=tuple(after),
                            stream_hint=hint,
                        )
                    )
                    last_writer[(i, k)] = name

        schedule_graph(graph, ctx, MappingPolicy.ROUND_ROBIN)

        outputs: dict[str, Any] = {"task_count": len(graph)}
        if self.materialize:
            outputs["a"] = a
            outputs["tiles"] = tiles
        return outputs

    def assemble_lower(self, outputs: dict[str, Any]) -> np.ndarray:
        """Assemble L from a real-data run's tile buffers."""
        tiles: dict[tuple[int, int], Buffer] = outputs["tiles"]
        b = self.block
        lower = np.zeros((self.d, self.d))
        for (i, j), buf in tiles.items():
            block = buf.host
            if i == j:
                block = np.tril(block)
            lower[i * b : (i + 1) * b, j * b : (j + 1) * b] = block
        return lower
