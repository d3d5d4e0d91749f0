"""Persistent certified-family store: calibration verdicts across runs.

The hybrid engine certifies the analytic model *per family* (app class
x run geometry x device-model fingerprint) by simulating a small
calibration spread through the DES.  Within one process the simulation
cache amortizes that cost; across processes every CLI invocation and
every future service worker used to re-certify from scratch.  This
module persists the certification verdicts — and the calibration
spreads that justify them — to disk, so a repeat sweep or a fresh
process answers certified families with **zero** DES calibration runs.

Design (mirrors :class:`~repro.metrics.manifest.RunManifest`):

* one schema-versioned JSON file, written atomically (temp file +
  ``os.replace``) so a crashed run never leaves a torn store;
* entries keyed by ``model fingerprint | family descriptor | tolerance
  | calibration-point count`` — a recalibrated device model or a
  stricter tolerance can never be answered by a stale verdict;
* an LRU bound (:data:`DEFAULT_STORE_CAPACITY` families) with
  least-recently-used eviction, so a long-lived service cannot grow the
  file without bound;
* last-writer-wins merge on save: concurrent processes reload the file
  before writing, so one process's verdicts are not silently dropped by
  another's save;
* mtime-triggered refresh on lookup: a long-lived process (a prefork
  ``repro.serve`` worker) re-reads and merges the file when a sibling
  has replaced it, so one worker's calibration becomes every worker's
  store hit without a restart.

Metrics land on the active registry as ``engine.store.hits``,
``engine.store.misses`` and ``engine.store.evictions`` (see
``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.metrics.manifest import atomic_write_json
from repro.metrics.registry import get_registry

#: Current store schema version (bumped on incompatible changes).
STORE_VERSION = 1

#: Schema identifier embedded in the store file.
STORE_SCHEMA = "repro.engine-store"

#: Default bound on stored families (LRU-evicted beyond this).
DEFAULT_STORE_CAPACITY = 256

#: File name used when the store path is a directory.
STORE_FILENAME = "engine-store.json"


class EngineStoreError(ReproError):
    """Invalid engine-store usage (bad capacity, unwritable path)."""


@dataclass
class StoreStats:
    """Hit/miss/eviction accounting for one :class:`EngineStore`."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0


@dataclass(frozen=True)
class FamilyVerdict:
    """One persisted certification outcome.

    ``calibration`` holds the spread that justified the verdict: one
    ``{"places", "key", "predicted", "simulated", "error"}`` dict per
    calibration point, so an audit (or a future service endpoint) can
    show *why* a family is trusted without re-running anything.
    """

    certified: bool
    worst_error: float
    tolerance: float
    calibration: tuple = ()
    created_unix: float = field(default_factory=time.time)

    def to_dict(self) -> dict:
        return {
            "certified": self.certified,
            "worst_error": self.worst_error,
            "tolerance": self.tolerance,
            "calibration": [dict(p) for p in self.calibration],
            "created_unix": self.created_unix,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FamilyVerdict":
        return cls(
            certified=bool(payload["certified"]),
            worst_error=float(payload["worst_error"]),
            tolerance=float(payload["tolerance"]),
            calibration=tuple(payload.get("calibration", ())),
            created_unix=float(payload.get("created_unix", 0.0)),
        )


def family_store_key(
    fingerprint: str,
    family: str,
    tolerance: float,
    calibration_points: int,
) -> str:
    """The store key for one certification decision.

    Everything the verdict depends on is part of the key: the device
    model's calibration fingerprint, the family descriptor (app class +
    run geometry), the certification tolerance and the spread size.
    """
    return f"{fingerprint}|{family}|tol={tolerance!r}|k={calibration_points}"


class EngineStore:
    """LRU'd, schema-versioned on-disk map of family verdicts.

    ``path`` may be the store file itself or a directory (the file is
    then ``<path>/engine-store.json``).  The file is loaded lazily on
    first lookup and rewritten atomically on every :meth:`put` — puts
    happen once per family per cold process, so the rewrite is rare by
    construction.
    """

    def __init__(
        self,
        path: "str | os.PathLike",
        capacity: int = DEFAULT_STORE_CAPACITY,
    ) -> None:
        if capacity < 1:
            raise EngineStoreError(
                f"store capacity must be >= 1, got {capacity}"
            )
        path = Path(path)
        if path.suffix != ".json":
            path = path / STORE_FILENAME
        self.path = path
        self.capacity = capacity
        self.stats = StoreStats()
        #: key -> {"used": lru clock, "verdict": dict}
        self._entries: "dict[str, dict] | None" = None
        self._clock = 0
        #: (mtime_ns, size) of the file as last read/written; lookups
        #: re-read and merge when a sibling process has replaced it.
        self._file_sig: "tuple[int, int] | None" = None

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._load())

    def get(self, key: str) -> "FamilyVerdict | None":
        """The stored verdict for ``key``, or None (recorded as an
        ``engine.store.{hits,misses}`` metric either way)."""
        entries = self._load()
        entry = entries.get(key)
        if entry is None:
            self.stats.misses += 1
            get_registry().counter("engine.store.misses").inc()
            return None
        self._clock += 1
        entry["used"] = self._clock
        self.stats.hits += 1
        get_registry().counter("engine.store.hits").inc()
        return FamilyVerdict.from_dict(entry["verdict"])

    def put(self, key: str, verdict: FamilyVerdict) -> None:
        """Persist ``verdict`` under ``key`` (atomic write, LRU-bounded).

        The file is reloaded and merged first so verdicts recorded by a
        concurrent process since our load survive the save.
        """
        entries = self._load()
        self._merge_fresh(self._read_file())
        self._clock += 1
        entries[key] = {"used": self._clock, "verdict": verdict.to_dict()}
        self.stats.puts += 1
        evicted = 0
        while len(entries) > self.capacity:
            oldest = min(entries, key=lambda k: entries[k]["used"])
            del entries[oldest]
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            get_registry().counter("engine.store.evictions").inc(evicted)
        self._write_file(entries)

    def clear(self) -> None:
        """Drop every entry (and the file, if present)."""
        self._entries = {}
        self._file_sig = None
        try:
            self.path.unlink()
        except OSError:
            pass

    # -- internals ---------------------------------------------------------

    def _signature(self) -> "tuple[int, int] | None":
        try:
            stat = os.stat(self.path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _merge_fresh(self, fresh: "dict[str, dict]") -> None:
        """Fold a just-read file state into the in-memory entries,
        newest-use wins per key (the concurrent-writer merge)."""
        assert self._entries is not None
        for key, other in fresh.items():
            ours = self._entries.get(key)
            if ours is None or other["used"] > ours["used"]:
                self._entries[key] = other
                self._clock = max(self._clock, other["used"])

    def _load(self) -> "dict[str, dict]":
        if self._entries is None:
            self._file_sig = self._signature()
            self._entries = self._read_file()
            for entry in self._entries.values():
                self._clock = max(self._clock, entry["used"])
            return self._entries
        # A long-lived process (a prefork serve worker, say) must see
        # verdicts a sibling wrote after our first load: one stat per
        # lookup buys cross-process store sharing while warm.
        sig = self._signature()
        if sig != self._file_sig:
            self._file_sig = sig
            self._merge_fresh(self._read_file())
        return self._entries

    def _read_file(self) -> "dict[str, dict]":
        """Parse the store file; an absent, torn or schema-incompatible
        file reads as empty (the store is a cache: losing it costs one
        re-certification, never correctness)."""
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA
            or payload.get("schema_version") != STORE_VERSION
        ):
            return {}
        entries = payload.get("entries")
        if not isinstance(entries, dict):
            return {}
        out: dict[str, dict] = {}
        for key, entry in entries.items():
            if (
                isinstance(entry, dict)
                and isinstance(entry.get("verdict"), dict)
                and isinstance(entry.get("used"), int)
            ):
                out[key] = entry
        return out

    def _write_file(self, entries: "dict[str, dict]") -> None:
        payload = {
            "schema": STORE_SCHEMA,
            "schema_version": STORE_VERSION,
            "entries": entries,
        }
        atomic_write_json(self.path, payload)
        self._file_sig = self._signature()


def resolve_store(store) -> "EngineStore | None":
    """Map a ``store=`` knob to an :class:`EngineStore` (or ``None``).

    Accepts ``None``, a ready :class:`EngineStore`, or a path (the
    CLIs' ``--engine-store`` value).
    """
    if store is None or isinstance(store, EngineStore):
        return store
    return EngineStore(store)
