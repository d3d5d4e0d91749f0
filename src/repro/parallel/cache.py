"""Content-addressed memoization of simulation timings.

The figure sweeps and the Sec. V-C tuning studies re-evaluate the same
``(app, dataset, P, T, streams-per-place)`` points over and over —
fig8's best-config search, fig9's partition sweep and the heuristics
comparison all visit overlapping configurations.  The simulation is
deterministic, so a run's timings are a pure function of the
:meth:`~repro.parallel.runspec.RunSpec.cache_key` — which embeds the
calibration fingerprint of the device model, making stale entries
impossible to serve after a recalibration.

:class:`SimulationCache` is an in-memory LRU, shared process-wide via
:func:`shared_cache` so successive experiments in one CLI invocation
reuse each other's runs.  Points that must survive the process are
persisted by a sweep checkpoint (``--checkpoint``), under the same
keys and the same record format (:func:`encode_run`).

Only the scalar timings are memoized (elapsed, gflops, geometry) —
never timelines or outputs; specs with ``keep_timeline=True`` bypass
the cache entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.apps.base import AppRun
from repro.parallel.runspec import RunSpec


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`SimulationCache`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


def encode_run(run: AppRun) -> dict:
    """The JSON-serializable subset of an AppRun worth persisting —
    the cache's record and a sweep checkpoint's."""
    return {
        "app": run.app,
        "elapsed": run.elapsed,
        "places": run.places,
        "tiles": run.tiles,
        "gflops": run.gflops,
    }


def decode_run(record: dict) -> AppRun:
    """Inverse of :func:`encode_run`.

    The decoded run deliberately carries ``metrics=None``: a restored
    run (cache hit or checkpoint resume) was already merged into its
    producer's registry when it first executed, so serving it again
    must not re-contribute metrics or executed-run counts (the executor
    merges only in its newly-executed path).
    """
    return AppRun(
        app=record["app"],
        elapsed=record["elapsed"],
        places=record["places"],
        tiles=record["tiles"],
        gflops=record["gflops"],
    )


class SimulationCache:
    """LRU-bounded ``cache_key -> timings`` map holding at most
    ``capacity`` entries."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._memory: OrderedDict[str, dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._memory)

    # -- lookup ------------------------------------------------------------

    def get(self, spec: RunSpec) -> AppRun | None:
        """The memoized run for ``spec``, or None on a miss."""
        if spec.keep_timeline:
            return None
        record = self._lookup(spec.cache_key())
        return decode_run(record) if record is not None else None

    def get_many(self, specs: "list[RunSpec]") -> "list[AppRun | None]":
        """Batch :meth:`get`: one lookup per *unique* cache key.

        Duplicate specs inside one batch cost a single hit or miss (the
        executor's in-batch dedup simulates the representative once and
        serves the rest).  Each served slot gets its own
        freshly-decoded :class:`AppRun`.
        """
        results: "list[AppRun | None]" = [None] * len(specs)
        seen: dict[str, "dict | None"] = {}
        for i, spec in enumerate(specs):
            if spec.keep_timeline:
                continue
            key = spec.cache_key()
            if key in seen:
                record = seen[key]
            else:
                record = seen[key] = self._lookup(key)
            if record is not None:
                results[i] = decode_run(record)
        return results

    def put(self, spec: RunSpec, run: AppRun) -> None:
        """Memoize ``run`` as the outcome of ``spec``."""
        if spec.keep_timeline:
            return
        key = spec.cache_key()
        self._memory[key] = encode_run(run)
        self._memory.move_to_end(key)
        self.stats.puts += 1
        while len(self._memory) > self.capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry."""
        self._memory.clear()

    # -- internals ---------------------------------------------------------

    def _lookup(self, key: str) -> "dict | None":
        """One counted lookup: the record under ``key`` (refreshed as
        most recent), or None."""
        record = self._memory.get(key)
        if record is None:
            self.stats.misses += 1
        else:
            self._memory.move_to_end(key)
            self.stats.hits += 1
        return record


_shared: SimulationCache | None = None


def shared_cache() -> SimulationCache:
    """The process-wide cache the experiment drivers default to."""
    global _shared
    if _shared is None:
        _shared = SimulationCache()
    return _shared
