"""Nearest Neighbor (NN) — the Rodinia benchmark, ported.

Fully overlappable flow (Fig. 4(e), same as MM): each tile of records is
transferred in, its distances computed, and the distances transferred
back, while the host maintains the global top-k list.  NN is
transfer-bound, so its performance plateaus once enough streams overlap
the pipeline (Fig. 9(e)).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.apps.base import StreamedApp, works_per_tile
from repro.errors import ConfigurationError
from repro.hstreams.context import StreamContext
from repro.kernels.nn import merge_topk, nn_distances, nn_topk, nn_work


class NNApp(StreamedApp):
    """Tiled k-nearest-neighbour search."""

    name = "nn"

    def __init__(
        self,
        n_records: int,
        n_tiles: int = 512,
        *,
        k: int = 10,
        target: tuple[float, float] = (40.0, 120.0),
        materialize: bool = False,
        seed: int = 0,
        **kwargs: Any,
    ) -> None:
        super().__init__(materialize=materialize, **kwargs)
        if not 1 <= n_tiles <= n_records:
            raise ConfigurationError(
                f"need 1 <= n_tiles <= n_records, got {n_tiles} / {n_records}"
            )
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        self.n_records = n_records
        self.k = k
        self.target = target
        self.seed = seed
        self._n_tiles = n_tiles

    @property
    def tiles(self) -> int:
        return self._n_tiles

    def total_flops(self) -> float:
        return 0.0  # the paper reports execution time for NN

    def _execute(self, ctx: StreamContext) -> dict[str, Any]:
        if self.materialize:
            rng = np.random.default_rng(self.seed)
            records_host = rng.uniform(
                -180.0, 180.0, (self.n_records, 2)
            ).astype(np.float32)
            records = ctx.buffer(records_host, name="records")
            dists = ctx.buffer(
                np.zeros(self.n_records, np.float32), name="dists"
            )
        else:
            records_host = None
            records = ctx.buffer(
                shape=(self.n_records, 2), dtype=np.float32, name="records"
            )
            dists = ctx.buffer(
                shape=(self.n_records,), dtype=np.float32, name="dists"
            )

        bounds = np.linspace(0, self.n_records, self._n_tiles + 1).astype(int)
        tiles = [
            (t, int(lo), int(hi))
            for t, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
            if hi > lo
        ]
        works = works_per_tile(
            (hi - lo for _, lo, hi in tiles),
            lambda n: nn_work(n, 4, self.spec),
        )
        partials: list[list[tuple[float, int]]] = []
        for (t, lo, hi), work in zip(tiles, works):
            stream = ctx.stream(t % ctx.num_streams)
            stream.h2d(records, offset=lo * 2, count=(hi - lo) * 2)
            stream.h2d(dists, offset=lo, count=0)  # make output resident
            fn = None
            if self.materialize:
                def fn(lo=lo, hi=hi, di=stream.place.device.index):
                    tile = records.instance(di).reshape(-1, 2)[lo:hi]
                    d = nn_distances(tile, self.target)
                    dists.instance(di)[lo:hi] = d
                    partials.append(nn_topk(d, self.k, offset=lo))

            stream.invoke(work, fn=fn)
            stream.d2h(dists, offset=lo, count=hi - lo)

        outputs: dict[str, Any] = {}
        if self.materialize:
            outputs["records"] = records_host
            outputs["dists_buffer"] = dists
            outputs["partials"] = partials
        return outputs

    def nearest(self, outputs: dict[str, Any]) -> list[tuple[float, int]]:
        """The global top-k from a real-data run."""
        return merge_topk(outputs["partials"], self.k)
