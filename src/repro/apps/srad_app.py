"""SRAD — Speckle Reducing Anisotropic Diffusion (Rodinia), ported.

Non-overlappable flow (Fig. 4(f)): the ultrasound image is extracted to
the device once; each iteration runs the statistics (reduction) kernels
per tile, a host sync to combine ``q0sqr``, then the diffusion-update
kernels per tile and another sync; the compressed image returns at the
end.  Only spatial sharing is available — plus the temporary-allocation
effect of the update kernel's scratch arrays, which our model uses to
explain why the streamed version wins on large datasets (Sec. V-A).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.base import StreamedApp, works_per_tile
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.kernels.srad import (
    q0sqr_from_stats,
    srad_statistics,
    srad_statistics_work,
    srad_update,
    srad_update_work,
)


class SradApp(StreamedApp):
    """Row-band-tiled anisotropic diffusion."""

    name = "srad"

    def __init__(
        self,
        d: int,
        n_tiles: int = 400,
        *,
        iterations: int = 100,
        lam: float = 0.5,
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        if d < 1 or not 1 <= n_tiles <= d:
            raise ConfigurationError(
                f"need 1 <= n_tiles <= image rows, got {n_tiles} / {d}"
            )
        if iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not 0.0 < lam <= 1.0:
            raise ConfigurationError(f"lambda must lie in (0, 1], got {lam}")
        self.d = d
        self.iterations = iterations
        self.lam = lam
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        return 0.0  # the paper reports execution time for SRAD

    def make_image(self) -> np.ndarray:
        """A reproducible synthetic speckled image (log-normal noise)."""
        rng = np.random.default_rng(self.seed)
        return np.exp(rng.normal(0.0, 0.3, (self.d, self.d))).astype(
            np.float32
        )

    def _row_bands(self) -> list[tuple[int, int]]:
        bounds = np.linspace(0, self.d, self._n_tiles + 1).astype(int)
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        d = self.d
        if self.materialize:
            image_host = self.make_image()
            image = ctx.buffer(image_host.copy(), name="image")
            scratch = ctx.buffer(np.zeros((d, d), np.float32), name="scratch")
        else:
            image_host = None
            image = ctx.buffer(shape=(d, d), dtype=np.float32, name="image")
            scratch = ctx.buffer(
                shape=(d, d), dtype=np.float32, name="scratch"
            )

        bands = self._row_bands()
        for t, (lo, hi) in enumerate(bands):
            stream = ctx.stream(t % ctx.num_streams)
            stream.h2d(image, offset=lo * d, count=(hi - lo) * d)
            stream.h2d(scratch, count=0)
        ctx.sync_all()

        heights = [hi - lo for lo, hi in bands]
        stats_works = works_per_tile(
            heights, lambda rows: srad_statistics_work(rows, d, 4, self.spec)
        )
        update_works = works_per_tile(
            heights, lambda rows: srad_update_work(rows, d, 4, self.spec)
        )
        src, dst = image, scratch
        q0sqr = 1.0
        for _ in range(self.iterations):
            # Phase 1: statistics reduction over every tile.
            stats: list[tuple[float, float]] = []
            for t, (lo, hi) in enumerate(bands):
                stream = ctx.stream(t % ctx.num_streams)
                fn = None
                if self.materialize:
                    def fn(lo=lo, hi=hi, src=src,
                           di=stream.place.device.index):
                        stats.append(
                            srad_statistics(src.instance(di)[lo:hi])
                        )

                stream.invoke(stats_works[t], fn=fn)
            ctx.sync_all()
            if self.materialize:
                total = sum(s for s, _ in stats)
                total_sq = sum(q for _, q in stats)
                q0sqr = q0sqr_from_stats(total, total_sq, d * d)

            # Phase 2: diffusion update over every tile.
            for t, (lo, hi) in enumerate(bands):
                stream = ctx.stream(t % ctx.num_streams)
                fn = None
                if self.materialize:
                    def fn(lo=lo, hi=hi, src=src, dst=dst,
                           di=stream.place.device.index):
                        grid = src.instance(di)
                        # Two halo rows: the diffusion coefficients of
                        # the interior's neighbours need one extra ring
                        # of gradients beyond the interior itself.
                        ext_lo = max(lo - 2, 0)
                        ext_hi = min(hi + 2, d)
                        band = srad_update(
                            grid[ext_lo:ext_hi], q0sqr, self.lam
                        )
                        dst.instance(di)[lo:hi] = band[
                            lo - ext_lo : hi - ext_lo
                        ]

                stream.invoke(update_works[t], fn=fn)
            ctx.sync_all()
            src, dst = dst, src

        for t, (lo, hi) in enumerate(bands):
            ctx.stream(t % ctx.num_streams).d2h(
                src, offset=lo * d, count=(hi - lo) * d
            )

        outputs: dict[str, Any] = {"result_buffer": src}
        if self.materialize:
            outputs["image0"] = image_host
        return outputs

    def reference_result(self, outputs: dict[str, Any]) -> np.ndarray:
        """Full-image NumPy reference for a real-data run."""
        img = outputs["image0"].astype(np.float64)
        for _ in range(self.iterations):
            total, total_sq = srad_statistics(img)
            q0 = q0sqr_from_stats(total, total_sq, img.size)
            img = srad_update(img, q0, self.lam)
        return img.astype(np.float32)
