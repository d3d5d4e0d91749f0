"""The metrics registry: counters, gauges, and fixed-bucket histograms.

The paper's contribution is *measurement* — every optimisation PR must
keep reproducing the quantitative shapes F1–F10.  This module gives the
whole stack one structured way to record what a run measured:

* :class:`Counter` — monotonically increasing totals (events dispatched,
  actions executed, faults injected);
* :class:`Gauge` — last-written values (a sweep point's GFLOPS, a
  configuration constant);
* :class:`Histogram` — fixed-bucket distributions (per-stage H2D/EXE/D2H
  durations, per-run wall times) whose **merge is associative and
  commutative**, so per-worker observations can be combined in any
  completion order with a deterministic result.

Process-safety model: registries are *not* shared across processes.
Each worker process records into its own registry and ships an immutable
:class:`MetricsSnapshot` back with its result; the parent merges
snapshots (counters add, histogram buckets add, gauges last-write-wins).
Within a process every registry operation takes an ``RLock``, so
threaded users are safe too.

The active registry is process-global (see :func:`get_registry`);
:func:`scoped_registry` installs a fresh one for the duration of a
``with`` block — the pattern :meth:`~repro.parallel.runspec.RunSpec.
execute` uses to give every simulation run its own metric scope.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Iterator

from repro.errors import ReproError

#: Snapshot wire-format version (bumped on incompatible changes).
SNAPSHOT_VERSION = 1

#: Default histogram buckets: geometric upper bounds in seconds, spanning
#: microsecond dispatch overheads to hundred-second sweeps.  One extra
#: implicit +inf bucket catches everything above the last bound.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

LabelValue = "str | int | float | bool"


class MetricsError(ReproError):
    """Invalid metric usage: type conflicts, bad merges, bad values."""


def _label_key(labels: dict[str, Any]) -> tuple:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}{self.labels or ''}={self.value}>"


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, Any]) -> None:
        self.name = name
        self.labels = labels
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"<Gauge {self.name}{self.labels or ''}={self.value}>"


class Histogram:
    """A fixed-bucket distribution.

    ``buckets`` is an increasing tuple of upper bounds; observations
    above the last bound land in an implicit overflow bucket, so
    ``counts`` has ``len(buckets) + 1`` cells.  Two histograms with the
    same buckets merge exactly (elementwise count addition); merging
    mismatched buckets is an error, never a silent re-bucketing.
    """

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum",
                 "min", "max")

    def __init__(
        self,
        name: str,
        labels: dict[str, Any],
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise MetricsError(
                f"histogram {name} buckets must be strictly increasing, "
                f"got {buckets!r}"
            )
        self.name = name
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise MetricsError(f"histogram {self.name} cannot observe NaN")
        # The first bound >= value; past the last bound, the overflow cell.
        self.counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float | None:
        return self.sum / self.count if self.count else None

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}{self.labels or ''} "
            f"n={self.count} sum={self.sum:.6g}>"
        )


class MetricsRegistry:
    """A process-local collection of named, labelled metrics.

    Metric identity is ``(kind, name, sorted labels)``; asking for an
    existing identity returns the same object, asking for the same name
    with a different kind raises :class:`MetricsError`.  All operations
    are guarded by one re-entrant lock.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}
        #: Name -> kind, to reject cross-kind reuse of a metric name.
        self._kinds: dict[str, str] = {}
        #: Memo for the per-action instrumentation hot path, keyed by
        #: action kind (see :mod:`repro.metrics.instrument`); identity
        #: resolution costs microseconds, which is visible at 10^4+
        #: actions per sweep.
        self._hot: dict[str, Any] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def _get(self, kind: str, name: str, labels: dict, factory):
        if not name:
            raise MetricsError("metric name must be non-empty")
        key = (kind, name, _label_key(labels))
        with self._lock:
            seen = self._kinds.get(name)
            if seen is not None and seen != kind:
                raise MetricsError(
                    f"metric {name!r} already registered as a {seen}, "
                    f"cannot reuse it as a {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(
            "counter", name, labels, lambda: Counter(name, labels)
        )

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, lambda: Gauge(name, labels))

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_TIME_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        histogram = self._get(
            "histogram", name, labels,
            lambda: Histogram(name, labels, buckets),
        )
        if histogram.buckets != tuple(float(b) for b in buckets):
            raise MetricsError(
                f"histogram {name!r} already registered with buckets "
                f"{histogram.buckets}, got {tuple(buckets)}"
            )
        return histogram

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()
            self._kinds.clear()
            self._hot.clear()

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable, picklable copy of the current state."""
        counters, gauges, histograms = [], [], []
        with self._lock:
            for (kind, name, _), metric in sorted(
                self._metrics.items(), key=lambda kv: _sort_key(kv[0])
            ):
                entry = {"name": name, "labels": dict(metric.labels)}
                if kind == "counter":
                    counters.append({**entry, "value": metric.value})
                elif kind == "gauge":
                    gauges.append({**entry, "value": metric.value})
                else:
                    histograms.append(
                        {
                            **entry,
                            "buckets": list(metric.buckets),
                            "counts": list(metric.counts),
                            "count": metric.count,
                            "sum": metric.sum,
                            "min": metric.min,
                            "max": metric.max,
                        }
                    )
        return MetricsSnapshot(
            {
                "version": SNAPSHOT_VERSION,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            }
        )

    def merge_snapshot(self, snapshot: "MetricsSnapshot | dict") -> None:
        """Fold a snapshot into this registry.

        Counters add (so repeated merges stay monotone), histogram
        bucket counts add (requiring identical buckets), gauges take the
        snapshot's value.  This is how per-worker metrics reach the
        parent registry.
        """
        data = (
            snapshot.data
            if isinstance(snapshot, MetricsSnapshot)
            else snapshot
        )
        with self._lock:
            for entry in data.get("counters", ()):
                self.counter(entry["name"], **entry["labels"]).inc(
                    entry["value"]
                )
            for entry in data.get("gauges", ()):
                if entry["value"] is not None:
                    self.gauge(entry["name"], **entry["labels"]).set(
                        entry["value"]
                    )
            for entry in data.get("histograms", ()):
                histogram = self.histogram(
                    entry["name"],
                    buckets=tuple(entry["buckets"]),
                    **entry["labels"],
                )
                _merge_histogram_entry(histogram, entry)


def _sort_key(metric_key: tuple) -> tuple:
    kind, name, labels = metric_key
    return (kind, name, tuple((k, str(v)) for k, v in labels))


def _merge_histogram_entry(histogram: Histogram, entry: dict) -> None:
    if list(histogram.buckets) != [float(b) for b in entry["buckets"]]:
        raise MetricsError(
            f"cannot merge histogram {histogram.name!r}: buckets differ "
            f"({histogram.buckets} vs {entry['buckets']})"
        )
    histogram.counts = [
        a + b for a, b in zip(histogram.counts, entry["counts"])
    ]
    histogram.count += entry["count"]
    histogram.sum += entry["sum"]
    for attr, pick in (("min", min), ("max", max)):
        ours, theirs = getattr(histogram, attr), entry[attr]
        if theirs is not None:
            setattr(
                histogram, attr,
                theirs if ours is None else pick(ours, theirs),
            )


class MetricsSnapshot:
    """Immutable point-in-time metric values (pure data, picklable).

    The JSON layout (``version`` 1)::

        {"version": 1,
         "counters":   [{"name": ..., "labels": {...}, "value": ...}],
         "gauges":     [{"name": ..., "labels": {...}, "value": ...}],
         "histograms": [{"name": ..., "labels": {...}, "buckets": [...],
                         "counts": [...], "count": N, "sum": S,
                         "min": m, "max": M}]}
    """

    __slots__ = ("data",)

    def __init__(self, data: dict) -> None:
        if data.get("version") != SNAPSHOT_VERSION:
            raise MetricsError(
                f"unsupported snapshot version {data.get('version')!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        self.data = data

    def __repr__(self) -> str:
        return (
            f"<MetricsSnapshot counters={len(self.data['counters'])} "
            f"gauges={len(self.data['gauges'])} "
            f"histograms={len(self.data['histograms'])}>"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MetricsSnapshot) and self.data == other.data
        )

    # -- construction -------------------------------------------------------

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls(
            {
                "version": SNAPSHOT_VERSION,
                "counters": [],
                "gauges": [],
                "histograms": [],
            }
        )

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        return cls(data)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        return cls(json.loads(text))

    def to_dict(self) -> dict:
        return self.data

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.data, indent=indent)

    # -- merging ------------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot combining both operands.

        Implemented by folding both into a scratch registry, so the
        semantics are exactly :meth:`MetricsRegistry.merge_snapshot`:
        counters add, histograms add bucketwise (associative and
        commutative), gauges take the right operand where it is set.
        """
        registry = MetricsRegistry()
        registry.merge_snapshot(self)
        registry.merge_snapshot(other)
        return registry.snapshot()

    # -- lookup -------------------------------------------------------------

    def _find(self, section: str, name: str, labels: dict) -> dict | None:
        for entry in self.data[section]:
            if entry["name"] == name and entry["labels"] == labels:
                return entry
        return None

    def counter_value(self, name: str, **labels: Any) -> float:
        """The counter's value (0 if never incremented)."""
        entry = self._find("counters", name, labels)
        return entry["value"] if entry is not None else 0

    def gauge_value(self, name: str, **labels: Any) -> float | None:
        entry = self._find("gauges", name, labels)
        return entry["value"] if entry is not None else None

    def histogram_stats(self, name: str, **labels: Any) -> dict | None:
        """The histogram entry dict, or None."""
        return self._find("histograms", name, labels)

    def series(
        self, name: str, key: str, **fixed: Any
    ) -> "dict[Any, float]":
        """Gauge values of ``name`` swept over label ``key``.

        Every gauge whose other labels equal ``fixed`` contributes one
        ``labels[key] -> value`` pair — the accessor the findings suite
        uses to rebuild a figure's series from a manifest.
        """
        out: dict[Any, float] = {}
        for entry in self.data["gauges"]:
            if entry["name"] != name or key not in entry["labels"]:
                continue
            rest = {
                k: v for k, v in entry["labels"].items() if k != key
            }
            if rest == fixed and entry["value"] is not None:
                out[entry["labels"][key]] = entry["value"]
        return out

    def iter_entries(self) -> Iterator[tuple[str, dict]]:
        """Yield ``(kind, entry)`` over every recorded metric."""
        for section, kind in (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
        ):
            for entry in self.data[section]:
                yield kind, entry

    # -- rendering ----------------------------------------------------------

    def format_block(self, prefix: str = "") -> str:
        """A compact text block (for Gantt footers and reports)."""
        lines = []
        for kind, entry in self.iter_entries():
            if not entry["name"].startswith(prefix):
                continue
            label = _format_labels(entry["labels"])
            if kind == "histogram":
                mean = (
                    entry["sum"] / entry["count"] if entry["count"] else 0.0
                )
                lines.append(
                    f"{entry['name']}{label}: n={entry['count']} "
                    f"mean={mean:.6g} min={_fmt(entry['min'])} "
                    f"max={_fmt(entry['max'])}"
                )
            else:
                lines.append(
                    f"{entry['name']}{label}: {_fmt(entry['value'])}"
                )
        return "\n".join(lines)


def _format_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: "float | None") -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


# -- the process-global registry -------------------------------------------

_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process's active registry (instrumentation records here)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the active one; returns the previous."""
    global _registry
    with _registry_lock:
        previous, _registry = _registry, registry
    return previous


@contextmanager
def scoped_registry(
    registry: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install a fresh (or given) registry.

    Used to give one simulation run, one CLI invocation, or one test its
    own metric scope without leaking into the process-global registry.
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
