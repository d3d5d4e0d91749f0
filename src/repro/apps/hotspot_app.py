"""Hotspot — the Rodinia thermal simulation, ported.

Non-overlappable flow (Fig. 4(c)): the temperature and power grids go to
the device once, then every simulation step runs one stencil kernel per
row-band tile followed by a global synchronisation (the halo exchange),
and the final temperatures come back at the end.  Because transfers
happen only at the edges, multiple streams can only exploit *spatial*
sharing — which is why the paper measures no improvement (Fig. 8(d)).

The paper's stated future work is "to transform the non-overlappable
applications to overlappable applications"; ``halo_sync="p2p"`` is that
transform for Hotspot: instead of a global barrier per step, each tile's
step ``k+1`` depends only on its own and its neighbours' step-``k``
tasks, so independent regions of the grid drift apart in time and the
per-step host joins disappear (a software wavefront).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.base import StreamedApp, works_per_tile
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.kernels.hotspot import AMB_TEMP, hotspot_step, hotspot_work


class HotspotApp(StreamedApp):
    """Row-band-tiled 2-D transient thermal simulation."""

    name = "hotspot"

    def __init__(
        self,
        d: int,
        n_tiles: int = 256,
        *,
        iterations: int = 50,
        halo_sync: str = "global",
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        if d < 1 or not 1 <= n_tiles <= d:
            raise ConfigurationError(
                f"need 1 <= n_tiles <= grid rows, got {n_tiles} / {d}"
            )
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if halo_sync not in ("global", "p2p"):
            raise ConfigurationError(
                f"halo_sync must be 'global' or 'p2p', got {halo_sync!r}"
            )
        self.d = d
        self.iterations = iterations
        self.halo_sync = halo_sync
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        return 0.0  # the paper reports execution time for Hotspot

    def _row_bands(self) -> list[tuple[int, int]]:
        bounds = np.linspace(0, self.d, self._n_tiles + 1).astype(int)
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        d = self.d
        if self.materialize:
            rng = np.random.default_rng(self.seed)
            temp_host = rng.uniform(70.0, 90.0, (d, d)).astype(np.float32)
            power_host = rng.uniform(0.0, 1.0, (d, d)).astype(np.float32)
            temp = ctx.buffer(temp_host.copy(), name="temp")
            power = ctx.buffer(power_host, name="power")
            scratch = ctx.buffer(
                np.zeros((d, d), np.float32), name="scratch"
            )
        else:
            temp_host = power_host = None
            temp = ctx.buffer(shape=(d, d), dtype=np.float32, name="temp")
            power = ctx.buffer(shape=(d, d), dtype=np.float32, name="power")
            scratch = ctx.buffer(
                shape=(d, d), dtype=np.float32, name="scratch"
            )

        bands = self._row_bands()
        for t, (lo, hi) in enumerate(bands):
            stream = ctx.stream(t % ctx.num_streams)
            stream.h2d(temp, offset=lo * d, count=(hi - lo) * d)
            stream.h2d(power, offset=lo * d, count=(hi - lo) * d)
            stream.h2d(scratch, count=0)  # resident ping-pong target
        ctx.sync_all()

        works = works_per_tile(
            (hi - lo for lo, hi in bands),
            lambda rows: hotspot_work(rows, d, 4, self.spec),
        )
        src, dst = temp, scratch
        # For p2p halo synchronisation: the previous step's action per
        # tile, so step k+1 of tile t depends on step k of t-1, t, t+1.
        previous: list = [None] * len(bands)
        for _ in range(self.iterations):
            current: list = [None] * len(bands)
            for t, (lo, hi) in enumerate(bands):
                stream = ctx.stream(t % ctx.num_streams)
                fn = None
                if self.materialize:
                    def fn(lo=lo, hi=hi, src=src, dst=dst,
                           di=stream.place.device.index):
                        grid = src.instance(di)
                        pw = power.instance(di)
                        # Extend the band by one halo row each side
                        # (clamped at the physical boundary).  The rows
                        # the kernel computes for the halo itself are
                        # discarded, so the interior matches the
                        # full-grid stencil exactly.
                        ext_lo = max(lo - 1, 0)
                        ext_hi = min(hi + 1, d)
                        band = hotspot_step(
                            grid[ext_lo:ext_hi], pw[ext_lo:ext_hi]
                        )
                        dst.instance(di)[lo:hi] = band[
                            lo - ext_lo : hi - ext_lo
                        ]

                if self.halo_sync == "p2p":
                    deps = tuple(
                        a
                        for a in previous[max(t - 1, 0) : t + 2]
                        if a is not None
                    )
                else:
                    deps = ()
                current[t] = stream.invoke(works[t], fn=fn, deps=deps)
            if self.halo_sync == "global":
                # Halo exchange as a global barrier between steps.
                ctx.sync_all()
            previous = current
            src, dst = dst, src

        for t, (lo, hi) in enumerate(bands):
            ctx.stream(t % ctx.num_streams).d2h(
                src, offset=lo * d, count=(hi - lo) * d
            )

        outputs: dict[str, Any] = {"result_buffer": src}
        if self.materialize:
            outputs["temp0"] = temp_host
            outputs["power"] = power_host
        return outputs

    def reference_result(self, outputs: dict[str, Any]) -> np.ndarray:
        """Full-grid NumPy reference for a real-data run."""
        temp = outputs["temp0"].astype(np.float32).copy()
        for _ in range(self.iterations):
            temp = hotspot_step(temp, outputs["power"]).astype(np.float32)
        return temp
