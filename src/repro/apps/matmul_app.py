"""Matrix multiplication (MM) — the hStreams-SDK sample, ported.

``C = A @ B`` on ``D x D`` matrices over a ``g x g`` grid of C tiles
(``T = g^2`` tasks).  Each task transfers the A row block and B column
block it needs, multiplies, and returns its C tile — the fully
overlappable (H2D, EXE, D2H) flow of Fig. 4(a).  B is stored transposed
on the host so a column block is one contiguous range (the column-major
layout the paper uses).

Data reuse note: like the simple hStreams port, every task re-transfers
its A row block and B column block, so the total transfer volume grows
with ``g`` — which is exactly why very fine tilings lose in Fig. 10(a).
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.apps.base import StreamedApp
from repro.errors import ConfigurationError
from repro.hstreams.buffer import Buffer
from repro.hstreams.context import StreamContext
from repro.kernels.matmul import gemm_work


def _square_grid(n_tiles: int) -> int:
    grid = math.isqrt(n_tiles)
    if grid * grid != n_tiles:
        raise ConfigurationError(
            f"number of tiles must be a perfect square, got {n_tiles}"
        )
    return grid


class MatMulApp(StreamedApp):
    """Tiled double-precision GEMM."""

    name = "mm"

    def __init__(
        self,
        d: int,
        n_tiles: int = 4,
        *,
        dtype: type = np.float64,
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        self.grid = _square_grid(n_tiles)
        if d < 1 or d % self.grid != 0:
            raise ConfigurationError(
                f"matrix size {d} must be a positive multiple of the tile "
                f"grid {self.grid}"
            )
        self.d = d
        self.dtype = np.dtype(dtype)
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        return 2.0 * self.d**3

    def _make_data(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        a = rng.random((self.d, self.d)).astype(self.dtype)
        b = rng.random((self.d, self.d)).astype(self.dtype)
        return a, b

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        d, g = self.d, self.grid
        block = d // g
        itemsize = self.dtype.itemsize

        if self.materialize:
            a_host, b_host = self._make_data()
            a_buf = ctx.buffer(a_host, name="A")
            bt_buf = ctx.buffer(
                np.ascontiguousarray(b_host.T), name="BT"
            )
        else:
            a_host = b_host = None
            a_buf = ctx.buffer(shape=(d, d), dtype=self.dtype, name="A")
            bt_buf = ctx.buffer(shape=(d, d), dtype=self.dtype, name="BT")

        work = gemm_work(block, block, d, itemsize, self.spec)
        c_tiles: dict[tuple[int, int], Buffer] = {}
        # Each A row block and B column block crosses PCIe once per device
        # (first-touch), and later tasks depend on that transfer — the
        # block-reuse scheme of the hStreams MM sample.
        a_blocks: dict[tuple[int, int], object] = {}
        b_blocks: dict[tuple[int, int], object] = {}
        for t in range(g * g):
            i, j = divmod(t, g)
            stream = ctx.stream(t % ctx.num_streams)
            device_index = stream.place.device.index
            if self.materialize:
                c_buf = ctx.buffer(
                    np.zeros((block, block), self.dtype), name=f"C{i}{j}"
                )
            else:
                c_buf = ctx.buffer(
                    shape=(block, block), dtype=self.dtype, name=f"C{i}{j}"
                )
            c_buf.instantiate(stream.place.device)
            c_tiles[(i, j)] = c_buf

            deps = []
            if (device_index, i) not in a_blocks:
                a_blocks[(device_index, i)] = stream.h2d(
                    a_buf, offset=i * block * d, count=block * d
                )
            deps.append(a_blocks[(device_index, i)])
            if (device_index, j) not in b_blocks:
                b_blocks[(device_index, j)] = stream.h2d(
                    bt_buf, offset=j * block * d, count=block * d
                )
            deps.append(b_blocks[(device_index, j)])

            fn = None
            if self.materialize:
                def fn(i=i, j=j, c_buf=c_buf, di=device_index):
                    a_rows = a_buf.instance(di).reshape(d, d)[
                        i * block : (i + 1) * block
                    ]
                    bt_rows = bt_buf.instance(di).reshape(d, d)[
                        j * block : (j + 1) * block
                    ]
                    c_buf.instance(di)[:] = a_rows @ bt_rows.T

            stream.invoke(work, fn=fn, deps=tuple(deps))
            stream.d2h(c_buf)

        outputs: dict[str, Any] = {}
        if self.materialize:
            outputs["a"] = a_host
            outputs["b"] = b_host
            outputs["c_tiles"] = c_tiles
        return outputs

    @staticmethod
    def assemble(outputs: dict[str, Any]) -> np.ndarray:
        """Assemble the C matrix from a real-data run's tile buffers."""
        c_tiles: dict[tuple[int, int], Buffer] = outputs["c_tiles"]
        grid = math.isqrt(len(c_tiles))
        rows = []
        for i in range(grid):
            rows.append(
                np.hstack([c_tiles[(i, j)].host for j in range(grid)])
            )
        return np.vstack(rows)
