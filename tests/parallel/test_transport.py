"""Slim result transport: wire-size wins, bit-identical results.

Pool workers ship scalar ``RunResult`` records plus one merged,
compressed metrics delta per task instead of whole ``AppRun`` objects
(each dragging a full ``MetricsSnapshot``).  These tests pin the two
contracts: the IPC volume drops by an order of magnitude, and nothing
observable changes — timings, metric totals, and the trace output of
``keep_timeline`` specs.
"""

import pickle

import pytest

from repro.apps import MatMulApp
from repro.metrics.registry import scoped_registry
from repro.parallel import RunResult, RunSpec, SweepExecutor
from repro.parallel.runspec import execute_spec_batch, execute_spec_batch_slim


def _mm_specs(n=8):
    return [
        RunSpec.for_app(MatMulApp, 3000, 36, places=p)
        for p in range(1, n + 1)
    ]


class TestWireSize:
    def test_chunk_transport_at_least_10x_smaller(self):
        """The headline number: a fig9-size chunk's pickled result
        payload shrinks >= 10x under the slim transport."""
        specs = _mm_specs(8)
        full = pickle.dumps(execute_spec_batch(list(specs)))
        slim = pickle.dumps(execute_spec_batch_slim(list(specs)))
        ratio = len(full) / len(slim)
        assert ratio >= 10.0, (
            f"slim transport only {ratio:.1f}x smaller "
            f"({len(full)}B -> {len(slim)}B)"
        )

    def test_single_spec_transport_smaller(self):
        specs = _mm_specs(1)
        full = pickle.dumps(execute_spec_batch(list(specs)))
        slim = pickle.dumps(execute_spec_batch_slim(list(specs)))
        assert len(slim) < len(full)


class TestRunResult:
    def test_roundtrip_preserves_scalars(self):
        (spec,) = _mm_specs(1)
        run = spec.execute()
        back = pickle.loads(pickle.dumps(RunResult.from_run(run))).to_run()
        assert back.app == run.app
        assert back.elapsed == run.elapsed
        assert back.places == run.places
        assert back.tiles == run.tiles
        assert back.gflops == run.gflops
        assert back.engine == run.engine
        assert back.metrics is None  # shipped in the task's merged delta


class TestParallelIdentity:
    def test_parallel_slim_results_match_serial(self):
        specs = _mm_specs(6)
        serial = SweepExecutor(jobs=1).map(specs)
        parallel = SweepExecutor(jobs=2).map(specs)
        for par, ser in zip(parallel, serial):
            assert par.elapsed == ser.elapsed
            assert par.gflops == ser.gflops
            assert par.tiles == ser.tiles

    def test_parallel_slim_metric_totals_match_serial(self):
        """One merged chunk blob must contribute exactly what the
        per-run snapshots used to (merge is associative+commutative)."""
        specs = _mm_specs(6)
        with scoped_registry() as registry:
            SweepExecutor(jobs=1).map(specs)
            serial = registry.snapshot()
        with scoped_registry() as registry:
            SweepExecutor(jobs=2).map(specs)
            parallel = registry.snapshot()

        def counters(snapshot):
            return sorted(
                snapshot.data["counters"],
                key=lambda c: (c["name"], sorted(c["labels"].items())),
            )

        assert counters(parallel) == counters(serial)


class TestKeepTraces:
    def test_keep_timeline_trace_bit_identical_across_transports(self):
        spec = RunSpec.for_app(
            MatMulApp, 3000, 36, places=4, keep_timeline=True
        )
        reference = pickle.dumps(spec.execute().timeline)
        runs = SweepExecutor(jobs=2).map([spec])
        assert runs[0].timeline is not None
        assert pickle.dumps(runs[0].timeline) == reference

    def test_chunked_slim_runs_drop_per_run_snapshots(self):
        # Chunked slim transport folds worker snapshots into one blob
        # per chunk: the rehydrated runs carry no per-run snapshot (the
        # parent registry already has their totals).
        specs = _mm_specs(16)
        runs = SweepExecutor(jobs=2).map(specs)
        assert all(run.metrics is None for run in runs)
