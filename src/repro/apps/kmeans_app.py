"""Kmeans — the Rodinia/MineBench clustering benchmark, ported.

Non-overlappable flow (Fig. 4(d)): points go to the device once; each
Lloyd iteration runs one assignment kernel per tile, then the host joins
all streams and reduces the partial sums into new centroids.  The
per-invocation temporary allocation inside the kernel (scaling with the
team size) is what makes the streamed version faster anyway (Sec. V-B1).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.base import StreamedApp, works_per_tile
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.kernels.kmeans import (
    DEFAULT_FEATURES,
    kmeans_assign,
    kmeans_assign_work,
    kmeans_reduce,
)


class KmeansApp(StreamedApp):
    """Tiled Lloyd iterations with host-side reduction."""

    name = "kmeans"

    def __init__(
        self,
        n_points: int,
        n_tiles: int = 56,
        *,
        n_clusters: int = 8,
        n_features: int = DEFAULT_FEATURES,
        iterations: int = 100,
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        if n_tiles < 1 or n_points < n_tiles:
            raise ConfigurationError(
                f"need 1 <= n_tiles <= n_points, got {n_tiles} / {n_points}"
            )
        if iterations < 1 or n_clusters < 1:
            raise ConfigurationError("iterations and clusters must be >= 1")
        self.n_points = n_points
        self.n_clusters = n_clusters
        self.n_features = n_features
        self.iterations = iterations
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        per_iter = (
            3.0 * self.n_points * self.n_clusters * self.n_features
            + 2.0 * self.n_points * self.n_features
        )
        return self.iterations * per_iter

    def _tile_bounds(self) -> list[tuple[int, int]]:
        bounds = np.linspace(0, self.n_points, self._n_tiles + 1).astype(int)
        return [
            (int(lo), int(hi)) for lo, hi in zip(bounds, bounds[1:]) if hi > lo
        ]

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        f = self.n_features
        if self.materialize:
            rng = np.random.default_rng(self.seed)
            points_host = rng.random((self.n_points, f)).astype(np.float32)
            centroids = points_host[: self.n_clusters].astype(np.float64)
            points = ctx.buffer(points_host, name="points")
        else:
            points_host = None
            centroids = None
            points = ctx.buffer(
                shape=(self.n_points, f), dtype=np.float32, name="points"
            )

        tile_bounds = self._tile_bounds()
        # Initial H2D: one transfer per tile on its stream.
        for t, (lo, hi) in enumerate(tile_bounds):
            ctx.stream(t % ctx.num_streams).h2d(
                points, offset=lo * f, count=(hi - lo) * f
            )

        works = works_per_tile(
            (hi - lo for lo, hi in tile_bounds),
            lambda rows: kmeans_assign_work(
                rows, self.n_clusters, f, 4, self.spec
            ),
        )
        labels = np.empty(self.n_points, dtype=np.int64)
        for _ in range(self.iterations):
            partial_sums: list[np.ndarray] = []
            partial_counts: list[np.ndarray] = []
            for t, (lo, hi) in enumerate(tile_bounds):
                stream = ctx.stream(t % ctx.num_streams)
                fn = None
                if self.materialize:
                    def fn(lo=lo, hi=hi, di=stream.place.device.index):
                        tile = points.instance(di).reshape(-1, f)[lo:hi]
                        tile_labels, sums, counts = kmeans_assign(
                            tile, centroids
                        )
                        labels[lo:hi] = tile_labels
                        partial_sums.append(sums)
                        partial_counts.append(counts)

                stream.invoke(works[t], fn=fn)
            # Host reduction barrier between iterations (Fig. 4(d) sync).
            ctx.sync_all()
            if self.materialize:
                centroids = kmeans_reduce(
                    partial_sums, partial_counts, centroids
                )

        outputs: dict[str, Any] = {}
        if self.materialize:
            outputs["centroids"] = centroids
            outputs["labels"] = labels
            outputs["points"] = points_host
        return outputs
