"""Common experiment-result containers and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.util.tables import ascii_table


def default_executor(executor):
    """``executor``, or — for a caller that passes none — a serial
    DES executor over the process-wide simulation cache.

    Every engine-aware figure evaluates through the executor it is
    handed; ``python -m repro.experiments`` hands each figure the one
    executor its flags built (jobs, engine, retries, checkpoint, fault
    plan), so those flags reach every figure alike.
    """
    if executor is not None:
        return executor
    from repro.parallel import SweepExecutor, shared_cache

    return SweepExecutor(cache=shared_cache())


@dataclass
class Series:
    """One plotted line/bar set: y values over the shared x axis."""

    label: str
    values: list[float]


@dataclass
class Check:
    """A programmatic encoding of one of the figure's claims."""

    description: str
    passed: bool


@dataclass
class ExperimentResult:
    """Everything one figure (or panel) produced."""

    experiment: str
    title: str
    x_label: str
    x: list[object]
    series: list[Series] = field(default_factory=list)
    y_label: str = ""
    checks: list[Check] = field(default_factory=list)
    notes: str = ""

    def add_series(self, label: str, values: list[float]) -> None:
        if len(values) != len(self.x):
            raise ExperimentError(
                f"series {label!r} has {len(values)} values for "
                f"{len(self.x)} x points"
            )
        self.series.append(Series(label, list(values)))

    def add_check(self, description: str, passed: bool) -> None:
        self.checks.append(Check(description, bool(passed)))

    def series_by_label(self, label: str) -> list[float]:
        for s in self.series:
            if s.label == label:
                return s.values
        raise ExperimentError(f"no series labelled {label!r}")

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def record_metrics(self, registry) -> None:
        """Publish this result's data points into ``registry``.

        Every (series, x) value becomes a gauge
        ``experiment.value{experiment=..., series=..., x=...}`` and the
        check tallies become counters — which makes a run manifest's
        metrics snapshot alone sufficient to rebuild each figure's
        series (``MetricsSnapshot.series``), the contract the
        ``tests/findings`` golden-shape suite relies on.
        """
        for s in self.series:
            for x, value in zip(self.x, s.values):
                if value is None:
                    continue
                registry.gauge(
                    "experiment.value",
                    experiment=self.experiment,
                    series=s.label,
                    x=x,
                ).set(value)
        for check in self.checks:
            name = (
                "experiment.checks_passed"
                if check.passed
                else "experiment.checks_failed"
            )
            registry.counter(name, experiment=self.experiment).inc()

    def to_table(self) -> str:
        headers = [self.x_label] + [s.label for s in self.series]
        rows = [
            [x] + [s.values[i] for s in self.series]
            for i, x in enumerate(self.x)
        ]
        title = f"{self.experiment}: {self.title}"
        if self.y_label:
            title += f"  [{self.y_label}]"
        return ascii_table(headers, rows, title=title)

    def to_plot(self, log_y: bool = False) -> str:
        """Render the series as an ASCII chart."""
        from repro.util.asciiplot import ascii_plot

        return ascii_plot(
            self.x,
            {s.label: s.values for s in self.series},
            y_label=self.y_label,
            log_y=log_y,
        )

    def report(self, plot: bool = False) -> str:
        parts = [self.to_table()]
        if plot and self.series:
            parts.append(self.to_plot())
        if self.notes:
            parts.append(f"note: {self.notes}")
        for check in self.checks:
            mark = "PASS" if check.passed else "FAIL"
            parts.append(f"  [{mark}] {check.description}")
        return "\n".join(parts)
