"""Task graphs: a DAG of named tasks, kept in insertion order."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import PipelineError
from repro.pipeline.task import Task


class TaskGraph:
    """A DAG of named tasks with ``after`` dependencies.

    :meth:`add` accepts a task only after every task it depends on, so
    insertion order is a topological order and no cycle can be built.
    """

    def __init__(self, tasks: Iterable[Task] = ()) -> None:
        self._tasks: dict[str, Task] = {}
        #: Each task's dependencies as added, deduplicated, in order.
        self._after: dict[str, tuple[str, ...]] = {}
        for task in tasks:
            self.add(task)

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def add(self, task: Task) -> Task:
        """Add ``task``; its ``after`` tasks must already be present."""
        if task.name in self._tasks:
            raise PipelineError(f"duplicate task name {task.name!r}")
        for dep in task.after:
            if dep not in self._tasks:
                raise PipelineError(
                    f"task {task.name!r} depends on unknown task {dep!r}"
                )
        self._tasks[task.name] = task
        self._after[task.name] = tuple(dict.fromkeys(task.after))
        return task

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise PipelineError(f"unknown task {name!r}") from None

    def predecessors(self, name: str) -> list[Task]:
        self.task(name)
        return [self._tasks[p] for p in self._after[name]]

    def topological(self) -> list[Task]:
        """Tasks in a dependency-respecting order: insertion order,
        which keeps schedules deterministic."""
        return list(self._tasks.values())

    @property
    def critical_path_length(self) -> int:
        """Number of tasks on the longest dependency chain."""
        depth: dict[str, int] = {}
        for name, after in self._after.items():
            depth[name] = 1 + max((depth[p] for p in after), default=0)
        return max(depth.values(), default=0)
