"""Tests for tasks, task graphs, and stream scheduling."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import KernelWork
from repro.errors import PipelineError
from repro.hstreams import StreamContext
from repro.hstreams.enums import ActionKind
from repro.pipeline import (
    MappingPolicy,
    Task,
    TaskGraph,
    TransferSpec,
    schedule_graph,
)


def work(name="k", flops=1e8):
    return KernelWork(
        name=name, flops=flops, bytes_touched=0.0, thread_rate=1e9
    )


def vbuf(ctx, n=1024):
    return ctx.buffer(shape=(n,), dtype=np.float32)


class TestTask:
    def test_validation(self):
        with pytest.raises(PipelineError):
            Task(name="")
        with pytest.raises(PipelineError):
            Task(name="empty")  # no work, no transfers
        with pytest.raises(PipelineError):
            Task(name="fn-only", fn=lambda: None)

    def test_stages_count(self):
        ctx = StreamContext(places=1)
        b = vbuf(ctx)
        t = Task(name="t", work=work(), h2d=(b,), d2h=(b,))
        assert t.stages == 3

    def test_transfer_spec_validates_range(self):
        ctx = StreamContext(places=1)
        b = vbuf(ctx, 10)
        with pytest.raises(Exception):
            TransferSpec(b, offset=8, count=5)

    def test_non_buffer_transfer_rejected(self):
        with pytest.raises(PipelineError):
            Task(name="t", work=work(), h2d=("nope",))


class TestTaskGraph:
    def test_duplicate_name_rejected(self):
        g = TaskGraph()
        g.add(Task(name="a", work=work()))
        with pytest.raises(PipelineError):
            g.add(Task(name="a", work=work()))

    def test_unknown_dependency_rejected(self):
        g = TaskGraph()
        with pytest.raises(PipelineError):
            g.add(Task(name="b", work=work(), after=("a",)))

    def test_topological_respects_deps(self):
        g = TaskGraph()
        g.add(Task(name="a", work=work()))
        g.add(Task(name="b", work=work(), after=("a",)))
        g.add(Task(name="c", work=work(), after=("a",)))
        g.add(Task(name="d", work=work(), after=("b", "c")))
        order = [t.name for t in g.topological()]
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("c") < order.index("d")

    def test_topological_is_deterministic(self):
        def build():
            g = TaskGraph()
            for name in "aXbYc":
                g.add(Task(name=name, work=work()))
            return [t.name for t in g.topological()]

        assert build() == build() == list("aXbYc")

    def test_critical_path(self):
        g = TaskGraph()
        g.add(Task(name="a", work=work()))
        g.add(Task(name="b", work=work(), after=("a",)))
        g.add(Task(name="c", work=work()))
        assert g.critical_path_length == 2
        assert TaskGraph().critical_path_length == 0

    def test_predecessors(self):
        g = TaskGraph()
        g.add(Task(name="a", work=work()))
        g.add(Task(name="b", work=work(), after=("a",)))
        assert [t.name for t in g.predecessors("b")] == ["a"]
        # a repeated dependency is one edge, in first-mention order
        g.add(Task(name="c", work=work(), after=("b", "a", "b")))
        assert [t.name for t in g.predecessors("c")] == ["b", "a"]
        with pytest.raises(PipelineError):
            g.predecessors("zzz")

    def test_import_repro_leaves_networkx_unloaded(self):
        # TaskGraph is kept in insertion order, which add() makes a
        # topological order, so no graph library is needed.
        assert not loaded_after_import("repro", "networkx")

    @pytest.mark.parametrize("module", ["repro", "repro.serve"])
    def test_import_leaves_scipy_unloaded(self, module):
        # Only mean_confidence and Cholesky's trsm kernel use scipy, and
        # they import it when called.
        assert not loaded_after_import(module, "scipy")


def loaded_after_import(module, name):
    """Whether importing ``module`` in a fresh interpreter loads
    ``name``."""
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys, {module}; print({name!r} in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


class TestScheduling:
    def test_round_robin_distribution(self):
        ctx = StreamContext(places=4)
        g = TaskGraph(Task(name=f"t{i}", work=work()) for i in range(8))
        sched = schedule_graph(g, ctx)
        assert [sched[f"t{i}"].stream for i in range(8)] == [
            0, 1, 2, 3, 0, 1, 2, 3,
        ]
        ctx.sync_all()

    def test_blocked_distribution(self):
        ctx = StreamContext(places=4)
        g = TaskGraph(Task(name=f"t{i}", work=work()) for i in range(8))
        sched = schedule_graph(g, ctx, MappingPolicy.BLOCKED)
        assert [sched[f"t{i}"].stream for i in range(8)] == [
            0, 0, 1, 1, 2, 2, 3, 3,
        ]
        ctx.sync_all()

    def test_stream_hint_overrides_policy(self):
        ctx = StreamContext(places=4)
        g = TaskGraph(
            [
                Task(name="a", work=work(), stream_hint=3),
                Task(name="b", work=work()),
            ]
        )
        sched = schedule_graph(g, ctx)
        assert sched["a"].stream == 3
        assert sched["b"].stream == 0
        ctx.sync_all()

    def test_bad_stream_hint_rejected(self):
        ctx = StreamContext(places=2)
        g = TaskGraph([Task(name="a", work=work(), stream_hint=7)])
        with pytest.raises(PipelineError):
            schedule_graph(g, ctx)
        ctx.sync_all()

    def test_dependencies_enforced_across_streams(self):
        ctx = StreamContext(places=4)
        g = TaskGraph()
        g.add(Task(name="producer", work=work("producer", 1e10)))
        g.add(Task(name="consumer", work=work("consumer"), after=("producer",)))
        schedule_graph(g, ctx)
        ctx.sync_all()
        by_label = {e.label: e for e in ctx.trace}
        assert by_label["consumer"].start >= by_label["producer"].end

    def test_full_task_with_real_data(self):
        ctx = StreamContext(places=2)
        host_in = np.arange(64, dtype=np.float32)
        host_out = np.zeros(64, dtype=np.float32)
        bin_, bout = ctx.buffer(host_in), ctx.buffer(host_out)

        def fn():
            bout.instance(0)[:] = bin_.instance(0) * 2

        g = TaskGraph(
            [
                Task(
                    name="double",
                    work=work("double"),
                    fn=fn,
                    h2d=(bin_, bout),
                    d2h=(bout,),
                )
            ]
        )
        sched = schedule_graph(g, ctx)
        ctx.sync_all()
        assert np.allclose(host_out, host_in * 2)
        kinds = [a.kind for a in sched["double"].actions]
        assert kinds == [
            ActionKind.H2D,
            ActionKind.H2D,
            ActionKind.EXE,
            ActionKind.D2H,
        ]

    @given(
        n_tasks=st.integers(1, 20),
        places=st.sampled_from([1, 2, 4, 7]),
        policy=st.sampled_from(list(MappingPolicy)),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_task_scheduled_exactly_once(self, n_tasks, places, policy):
        ctx = StreamContext(places=places)
        g = TaskGraph(
            Task(name=f"t{i}", work=work(f"t{i}")) for i in range(n_tasks)
        )
        sched = schedule_graph(g, ctx, policy)
        assert len(sched) == n_tasks
        assert all(0 <= s.stream < ctx.num_streams for s in sched.values())
        ctx.sync_all()
        exe_labels = sorted(
            e.label for e in ctx.trace if e.kind is ActionKind.EXE
        )
        assert exe_labels == sorted(f"t{i}" for i in range(n_tasks))
