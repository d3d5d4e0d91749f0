"""The executor's one drain loop: chunked tasks compose with retries and
fault plans, a lost task charges the right specs, a drained pool shuts
down cleanly, and every executed point records its run time."""

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.apps import MatMulApp
from repro.faults import FaultPlan
from repro.metrics.registry import scoped_registry
from repro.parallel import RetryPolicy, RunSpec, SweepExecutor

REPO = Path(__file__).resolve().parents[2]

SPECS = [
    RunSpec.for_app(MatMulApp, 600, 16, places=p) for p in range(1, 17)
]


class TestChunksComposeWithRetries:
    """16 specs in tasks of 4 under ``RetryPolicy(max_retries=2)``."""

    def _recover(self, plan):
        executor = SweepExecutor(
            jobs=2,
            chunksize=4,
            retry=RetryPolicy(max_retries=2),
            fault_plan=FaultPlan.parse(plan),
        )
        assert executor._effective_chunksize(len(SPECS)) == 4
        runs = executor.map(SPECS)
        serial = SweepExecutor(jobs=1).map(SPECS)
        assert [r.elapsed for r in runs] == [r.elapsed for r in serial]
        assert [r.gflops for r in runs] == [r.gflops for r in serial]
        return executor.stats

    def test_worker_crash_charges_only_its_culprit(self):
        # The crash breaks the pool and loses every task in flight;
        # only spec 5 was directed to crash, the rest are requeued
        # uncharged.
        stats = self._recover("seed=3;worker.crash:at=5")
        assert stats.worker_crashes == 1
        assert stats.retries == 1
        assert stats.failures == 0
        assert stats.attempts == 17

    def test_unpicklable_result_charges_only_its_culprit(self):
        stats = self._recover("worker.unpicklable:at=2")
        assert stats.retries == 1
        assert stats.failures == 0
        assert stats.attempts == 17

    def test_pool_that_cannot_start_runs_in_process(self, monkeypatch):
        # In-process, the crash is a synchronous stand-in: the same
        # spec is charged the same single attempt.
        def refuse(max_workers):
            raise PermissionError("no process-spawn rights")

        monkeypatch.setattr(
            "repro.parallel.executor.ProcessPoolExecutor", refuse
        )
        stats = self._recover("seed=3;worker.crash:at=5")
        assert stats.worker_crashes == 1
        assert stats.retries == 1
        assert stats.attempts == 17

    def test_pool_that_cannot_fork_runs_in_process(self, monkeypatch):
        # Under a process limit the pool builds, but its first submit
        # fails to start a worker (as ``Process.start`` does).  Nothing
        # ran, so nothing is charged and the specs run in-process.  The
        # fake never starts a process, and stops rebuilding after a few
        # pools so a livelock fails the test instead of hanging it.
        built = []

        class CannotFork(ProcessPoolExecutor):
            def __init__(self, max_workers=None):
                built.append(self)
                assert len(built) <= 3, "the pool is rebuilt again and again"
                super().__init__(max_workers=max_workers)

            def submit(self, fn, /, *args, **kwargs):
                raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(
            "repro.parallel.executor.ProcessPoolExecutor", CannotFork
        )
        executor = SweepExecutor(jobs=2, chunksize=4)
        runs = executor.map(SPECS)
        serial = SweepExecutor(jobs=1).map(SPECS)
        assert [r.elapsed for r in runs] == [r.elapsed for r in serial]
        assert len(built) == 1
        stats = executor.stats
        assert stats.attempts == len(SPECS)
        assert stats.worker_crashes == stats.retries == stats.failures == 0


#: A worker that really dies, under a fault plan that directs no worker
#: fault, so no lost spec is a directed culprit.
REAL_CRASH = """
import multiprocessing
import os
import sys

from repro.apps import MatMulApp
from repro.faults import FaultPlan
from repro.parallel import RetryPolicy, RunSpec, SweepError, SweepExecutor


class DyingApp(MatMulApp):
    def run(self, *args, **kwargs):
        if multiprocessing.parent_process() is not None:
            os._exit(3)
        return super().run(*args, **kwargs)


executor = SweepExecutor(
    jobs=2,
    retry=RetryPolicy(max_retries=1),
    fault_plan=FaultPlan.parse("transfer.h2d:p=0"),
    on_error=sys.argv[1],
)
try:
    (run,) = executor.map([RunSpec.for_app(DyingApp, 600, 4, places=2)])
except SweepError:
    print("SweepError")
else:
    print(type(run).__name__, run.attempts)
"""


class TestRealCrashUnderPlan:
    # Run in a subprocess with a timeout: an executor that requeues the
    # dead worker's spec uncharged loops forever instead of failing.
    @pytest.mark.parametrize(
        "on_error, expected",
        [("raise", "SweepError"), ("record", "FailedRun 2")],
        ids=["raise", "record"],
    )
    def test_every_lost_spec_is_charged(self, on_error, expected):
        proc = subprocess.run(
            [sys.executable, "-c", REAL_CRASH, on_error],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == expected


class TestCleanShutdown:
    def test_drained_pool_never_sigterms_its_workers(self, tmp_path):
        # Forked workers inherit this handler, so a SIGTERM delivered to
        # any of them leaves its pid in the file.
        record = tmp_path / "sigterm.pids"
        record.write_text("")

        def on_sigterm(signum, frame):
            with open(record, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            os._exit(0)

        before = set(multiprocessing.active_children())
        previous = signal.signal(signal.SIGTERM, on_sigterm)
        try:
            runs = SweepExecutor(jobs=2).map(SPECS[:3])
            deadline = time.monotonic() + 10
            while (
                set(multiprocessing.active_children()) - before
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert len(runs) == 3
        assert not set(multiprocessing.active_children()) - before
        assert record.read_text() == ""


class TestRunSeconds:
    def test_chunked_dispatch_times_every_executed_point(self):
        with scoped_registry() as registry:
            SweepExecutor(jobs=2, chunksize=4).map(SPECS)
            snapshot = registry.snapshot()
        assert snapshot.counter_value("executor.runs_executed") == 16
        timed = snapshot.histogram_stats("executor.run_seconds")
        assert timed is not None and timed["count"] == 16
