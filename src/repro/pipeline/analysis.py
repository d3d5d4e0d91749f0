"""Task-graph analysis: work, critical path, and pipeline efficiency.

Given a task graph and a device configuration, two classic bounds frame
any schedule's makespan:

* the **work bound** — total kernel seconds divided by the number of
  places (no schedule can beat perfect load balance);
* the **critical-path bound** — the longest dependency chain's kernel
  seconds (no schedule can beat the DAG's inherent serialisation).

``pipeline_efficiency`` relates a measured makespan to the larger of
the two — a direct measure of how well the stream mapping filled the
machine, used to diagnose e.g. Cholesky's tail bubbles (Fig. 10b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.device.mic import MicDevice
from repro.errors import PipelineError
from repro.pipeline.graph import TaskGraph


@dataclass(frozen=True)
class GraphAnalysis:
    """Model-weighted bounds for one task graph on one device config."""

    total_work_seconds: float
    critical_path_seconds: float
    places: int

    @property
    def work_bound(self) -> float:
        """Lower bound from perfect load balance over the places."""
        return self.total_work_seconds / self.places

    @property
    def makespan_lower_bound(self) -> float:
        return max(self.work_bound, self.critical_path_seconds)

    @property
    def inherent_parallelism(self) -> float:
        """Average DAG width: total work over the critical path."""
        if self.critical_path_seconds <= 0:
            raise PipelineError("graph has no kernel work on its spine")
        return self.total_work_seconds / self.critical_path_seconds

    def pipeline_efficiency(self, measured_makespan: float) -> float:
        """Lower-bound / measured (1.0 = the schedule was perfect)."""
        if measured_makespan <= 0:
            raise PipelineError("measured makespan must be positive")
        return self.makespan_lower_bound / measured_makespan


def analyze_graph(
    graph: TaskGraph, device: MicDevice, places: int
) -> GraphAnalysis:
    """Weight ``graph`` with the device model at ``places`` partitions.

    Each task's weight is its kernel duration on one of the ``places``
    partitions (transfers are excluded: they depend on residency and
    overlap, which the bounds deliberately ignore).
    """
    if places < 1:
        raise PipelineError(f"places must be >= 1, got {places}")
    partition = device.topology.partitions(places)[0]

    weights: dict[str, float] = {}
    total = 0.0
    for task in graph:
        weight = 0.0
        if task.work is not None:
            weight = device.kernel_duration(task.work, partition)
        weights[task.name] = weight
        total += weight

    # Longest weighted path over the DAG (node weights).
    longest: dict[str, float] = {}
    for task in graph.topological():
        preds = graph.predecessors(task.name)
        base = max((longest[p.name] for p in preds), default=0.0)
        longest[task.name] = base + weights[task.name]
    critical = max(longest.values(), default=0.0)

    return GraphAnalysis(
        total_work_seconds=total,
        critical_path_seconds=critical,
        places=places,
    )
