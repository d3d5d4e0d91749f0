"""Checkpoint/resume for sweeps.

A :class:`SweepCheckpoint` persists every completed point of a sweep to
one JSON file, keyed by the same content-addressed
:meth:`~repro.parallel.runspec.RunSpec.cache_key` fingerprints the
:class:`~repro.parallel.cache.SimulationCache` uses.  An interrupted
fig8/fig9/fig10 run (crash, Ctrl-C, exhausted retries) restarts where it
left off: on the next run the executor serves every checkpointed point
without re-simulating it and executes only the remainder.

File format (``version`` guards future changes)::

    {"version": 1, "runs": {"<cache_key>": {"app": ..., "elapsed": ...,
                                            "places": ..., "tiles": ...,
                                            "gflops": ...}, ...}}

Because keys embed the calibration fingerprint, a checkpoint written
against a recalibrated model simply never matches — stale points cannot
be resumed.  Writes are buffered (``every``) and atomic (tmp file +
``os.replace``), so an interrupt never leaves a torn checkpoint.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.apps.base import AppRun
from repro.errors import ConfigurationError
from repro.metrics.manifest import atomic_write_json
from repro.parallel.cache import decode_run, encode_run
from repro.parallel.runspec import RunSpec

#: Current checkpoint file schema.
CHECKPOINT_VERSION = 1


class SweepCheckpoint:
    """Periodic JSON checkpoint of completed sweep points.

    ``every`` controls write frequency: the file is rewritten after that
    many new completions (and always flushed at the end of a ``map``
    call, including on the error path).
    """

    def __init__(
        self, path: "str | os.PathLike", every: int = 1
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.path = Path(path)
        self.every = every
        self._runs: dict[str, dict] = {}
        self._loaded = False
        self._dirty = 0

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._runs)

    # -- lookup / record -----------------------------------------------------

    def lookup(self, spec: RunSpec) -> AppRun | None:
        """The checkpointed result for ``spec``, or None.

        Timeline-keeping specs are never checkpointed (a timeline does
        not round-trip through the scalar record), mirroring the cache.
        """
        if spec.keep_timeline:
            return None
        self._ensure_loaded()
        record = self._runs.get(spec.cache_key())
        return decode_run(record) if record is not None else None

    def record(self, spec: RunSpec, run: AppRun) -> None:
        """Add one completed point; flush if the buffer is due."""
        if spec.keep_timeline:
            return
        self._ensure_loaded()
        self._runs[spec.cache_key()] = encode_run(run)
        self._dirty += 1
        if self._dirty >= self.every:
            self.flush()

    def flush(self) -> None:
        """Write the checkpoint atomically (no-op when clean)."""
        if not self._dirty:
            return
        atomic_write_json(
            self.path, {"version": CHECKPOINT_VERSION, "runs": self._runs}
        )
        self._dirty = 0

    # -- internals -----------------------------------------------------------

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # absent or torn file: start fresh
        if (
            isinstance(payload, dict)
            and payload.get("version") == CHECKPOINT_VERSION
            and isinstance(payload.get("runs"), dict)
        ):
            self._runs.update(payload["runs"])
