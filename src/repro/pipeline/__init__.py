"""Task decomposition: tasks, dependency graphs, stream scheduling.

The paper's porting recipe (Sec. III-B): partition the dataset into tiles,
make each tile a *task* of up to three stages (H2D, EXE, D2H), then map
tasks onto streams.  This subpackage provides that vocabulary:

* :class:`~repro.pipeline.task.Task` — one tile's work;
* :class:`~repro.pipeline.graph.TaskGraph` — tasks + dependencies
  (a DAG: each task is added after the tasks it depends on);
* :mod:`~repro.pipeline.schedule` — policies mapping tasks to streams and
  enqueueing them with the right action dependencies.
"""

from repro.pipeline.task import Task, TransferSpec
from repro.pipeline.graph import TaskGraph
from repro.pipeline.schedule import (
    MappingPolicy,
    ScheduledTask,
    schedule_graph,
)
from repro.pipeline.analysis import GraphAnalysis, analyze_graph

__all__ = [
    "Task",
    "TransferSpec",
    "TaskGraph",
    "MappingPolicy",
    "ScheduledTask",
    "schedule_graph",
    "GraphAnalysis",
    "analyze_graph",
]
