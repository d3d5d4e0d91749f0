"""Persistent certified-family store: LRU, schema, atomicity, wiring."""

import json

import pytest

from repro.apps import MatMulApp
from repro.engine import HybridEngine, resolve_engine
from repro.engine.store import (
    EngineStore,
    EngineStoreError,
    FamilyVerdict,
    STORE_FILENAME,
    STORE_SCHEMA,
    STORE_VERSION,
    family_store_key,
    resolve_store,
)
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepExecutor


def _verdict(worst=0.01, certified=True):
    return FamilyVerdict(
        certified=certified,
        worst_error=worst,
        tolerance=0.05,
        calibration=(
            {
                "places": 1,
                "key": "k",
                "predicted": 1.0,
                "simulated": 1.0,
                "error": worst,
            },
        ),
    )


def _mm_specs(places=(1, 2, 4, 8, 13, 28, 56)):
    return [RunSpec.for_app(MatMulApp, 3000, 36, places=p) for p in places]


class TestStoreBasics:
    def test_roundtrip(self, tmp_path):
        store = EngineStore(tmp_path / "store.json")
        assert store.get("k1") is None
        store.put("k1", _verdict())
        got = store.get("k1")
        assert got is not None
        assert got.certified
        assert got.worst_error == pytest.approx(0.01)
        assert got.calibration[0]["places"] == 1
        assert store.stats.hits == 1
        assert store.stats.misses == 1
        assert store.stats.puts == 1

    def test_directory_path_gets_default_filename(self, tmp_path):
        store = EngineStore(tmp_path)
        store.put("k1", _verdict())
        assert (tmp_path / STORE_FILENAME).exists()

    def test_survives_across_instances(self, tmp_path):
        EngineStore(tmp_path).put("k1", _verdict(worst=0.02))
        fresh = EngineStore(tmp_path)
        got = fresh.get("k1")
        assert got is not None
        assert got.worst_error == pytest.approx(0.02)

    def test_metrics_recorded(self, tmp_path):
        with scoped_registry() as registry:
            store = EngineStore(tmp_path)
            store.get("absent")
            store.put("k1", _verdict())
            store.get("k1")
            snapshot = registry.snapshot()
        assert snapshot.counter_value("engine.store.misses") == 1
        assert snapshot.counter_value("engine.store.hits") == 1

    def test_bad_capacity_rejected(self, tmp_path):
        with pytest.raises(EngineStoreError):
            EngineStore(tmp_path, capacity=0)

    def test_clear_drops_file(self, tmp_path):
        store = EngineStore(tmp_path)
        store.put("k1", _verdict())
        store.clear()
        assert store.get("k1") is None
        assert not (tmp_path / STORE_FILENAME).exists()


class TestStoreLRU:
    def test_eviction_beyond_capacity(self, tmp_path):
        with scoped_registry() as registry:
            store = EngineStore(tmp_path, capacity=2)
            store.put("k1", _verdict())
            store.put("k2", _verdict())
            assert store.get("k1") is not None  # k1 now most recent
            store.put("k3", _verdict())  # evicts k2
            snapshot = registry.snapshot()
        assert store.stats.evictions == 1
        assert snapshot.counter_value("engine.store.evictions") == 1
        assert store.get("k2") is None
        assert store.get("k1") is not None
        assert store.get("k3") is not None

    def test_eviction_persists(self, tmp_path):
        store = EngineStore(tmp_path, capacity=1)
        store.put("k1", _verdict())
        store.put("k2", _verdict())
        fresh = EngineStore(tmp_path)
        assert fresh.get("k1") is None
        assert fresh.get("k2") is not None


class TestStoreFile:
    def test_schema_embedded(self, tmp_path):
        store = EngineStore(tmp_path)
        store.put("k1", _verdict())
        payload = json.loads((tmp_path / STORE_FILENAME).read_text())
        assert payload["schema"] == STORE_SCHEMA
        assert payload["schema_version"] == STORE_VERSION

    def test_corrupt_file_reads_empty(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        path.write_text("{ not json")
        store = EngineStore(tmp_path)
        assert store.get("k1") is None
        store.put("k1", _verdict())  # and the file heals
        assert EngineStore(tmp_path).get("k1") is not None

    def test_wrong_schema_version_reads_empty(self, tmp_path):
        path = tmp_path / STORE_FILENAME
        path.write_text(
            json.dumps(
                {
                    "schema": STORE_SCHEMA,
                    "schema_version": STORE_VERSION + 1,
                    "entries": {"k1": {"used": 1, "verdict": {}}},
                }
            )
        )
        assert EngineStore(tmp_path).get("k1") is None

    def test_concurrent_writers_merge(self, tmp_path):
        a = EngineStore(tmp_path)
        b = EngineStore(tmp_path)
        a.put("k1", _verdict())
        b.put("k2", _verdict())  # must not drop a's k1
        fresh = EngineStore(tmp_path)
        assert fresh.get("k1") is not None
        assert fresh.get("k2") is not None

    def test_loaded_sibling_sees_later_writes(self, tmp_path):
        # A prefork serve worker holds its store open for the process
        # lifetime; a verdict a sibling persists after our first load
        # must still be a hit here (mtime-triggered refresh on lookup).
        b = EngineStore(tmp_path)
        assert b.get("k1") is None  # b is now loaded (and empty)
        a = EngineStore(tmp_path)
        a.put("k1", _verdict())
        got = b.get("k1")
        assert got is not None and got.certified

    def test_refresh_keeps_local_lru_recency(self, tmp_path):
        a = EngineStore(tmp_path)
        a.put("k1", _verdict(worst=0.01))
        b = EngineStore(tmp_path)
        assert b.get("k1") is not None  # bump k1's recency in b
        a.put("k2", _verdict(worst=0.02))
        # The sibling refresh merges k2 in without resurrecting a
        # stale k1 over b's own more recent use of it.
        assert b.get("k2") is not None
        assert b.get("k1") is not None


class TestResolveStore:
    def test_none_and_instance_pass_through(self, tmp_path):
        assert resolve_store(None) is None
        store = EngineStore(tmp_path)
        assert resolve_store(store) is store

    def test_path_builds_store(self, tmp_path):
        store = resolve_store(tmp_path / "s.json")
        assert isinstance(store, EngineStore)

    def test_resolve_engine_threads_store(self, tmp_path):
        engine = resolve_engine("hybrid", store=tmp_path)
        assert isinstance(engine.store, EngineStore)
        inst = HybridEngine()
        assert resolve_engine(inst, store=tmp_path).store is not None
        keep = EngineStore(tmp_path / "mine.json")
        inst2 = HybridEngine(store=keep)
        assert resolve_engine(inst2, store=tmp_path).store is keep

    def test_key_covers_tolerance_and_spread(self):
        base = family_store_key("fp", "fam", 0.05, 3)
        assert family_store_key("fp", "fam", 0.02, 3) != base
        assert family_store_key("fp", "fam", 0.05, 2) != base
        assert family_store_key("fp2", "fam", 0.05, 3) != base


class TestHybridEngineStore:
    def test_warm_store_skips_calibration(self, tmp_path):
        specs = _mm_specs()
        baseline = SweepExecutor(jobs=1).map(specs)
        with scoped_registry() as registry:
            cold = SweepExecutor(
                jobs=1, engine=HybridEngine(store=tmp_path)
            ).map(specs)
            cold_snap = registry.snapshot()
        assert cold_snap.counter_value("engine.calibration_points") == 3

        # A fresh engine + executor (new process stand-in): the verdict
        # comes off disk, so no DES calibration runs at all — every
        # point is a pure model prediction.
        with scoped_registry() as registry:
            warm = SweepExecutor(
                jobs=1, engine=HybridEngine(store=tmp_path)
            ).map(specs)
            warm_snap = registry.snapshot()
        assert warm_snap.counter_value("engine.calibration_points") == 0
        assert warm_snap.counter_value("engine.families_certified") == 1
        assert all(run.engine == "model" for run in warm)
        for run, ref in zip(warm, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)
        # Cold results mix sim calibration points in; timings agree.
        for run, ref in zip(cold, baseline):
            assert run.elapsed == pytest.approx(ref.elapsed, rel=1e-9)

    def test_failed_verdict_skips_straight_to_sim(self, tmp_path, monkeypatch):
        from repro.engine import grid

        real_evaluate = grid._CompiledFamily.evaluate

        def skewed_evaluate(self, places):
            return real_evaluate(self, places) * 1.5

        monkeypatch.setattr(
            grid._CompiledFamily, "evaluate", skewed_evaluate
        )
        specs = _mm_specs(places=(1, 2, 4, 8))
        with scoped_registry():
            SweepExecutor(
                jobs=1, engine=HybridEngine(store=tmp_path)
            ).map(specs)
        with scoped_registry() as registry:
            runs = SweepExecutor(
                jobs=1, engine=HybridEngine(store=tmp_path)
            ).map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value("engine.calibration_points") == 0
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert all(run.engine == "sim" for run in runs)

    def test_no_store_behavior_unchanged(self):
        # The exact counters test_engines.py asserts, untouched by the
        # store code path existing.
        specs = _mm_specs()
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value("engine.calibration_points") == 3
        assert snapshot.counter_value("engine.store.hits") == 0
        assert snapshot.counter_value("engine.store.misses") == 0

    def test_calibration_time_recorded(self, tmp_path):
        specs = _mm_specs(places=(1, 4, 13))
        with scoped_registry() as registry:
            SweepExecutor(
                jobs=1, engine=HybridEngine(store=tmp_path)
            ).map(specs)
            snapshot = registry.snapshot()
        stats = snapshot.histogram_stats("engine.calibration.eval_seconds")
        assert stats is not None
        assert stats["count"] == 1
