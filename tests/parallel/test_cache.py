"""Cache tests: accounting, LRU, fingerprint invalidation, batch lookup."""

from repro.apps import MatMulApp
from repro.device.calibration import model_fingerprint
from repro.device.spec import PHI_31SP, PHI_7120
from repro.parallel import RunSpec, SimulationCache, SweepExecutor, shared_cache

SPEC = RunSpec.for_app(MatMulApp, 600, 4, places=2)
OTHER = RunSpec.for_app(MatMulApp, 600, 4, places=4)


def _run_of(spec):
    return spec.execute()


class TestAccounting:
    def test_miss_then_hit(self):
        cache = SimulationCache()
        assert cache.get(SPEC) is None
        cache.put(SPEC, _run_of(SPEC))
        hit = cache.get(SPEC)
        assert hit is not None
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

    def test_hit_is_bit_identical(self):
        cache = SimulationCache()
        run = _run_of(SPEC)
        cache.put(SPEC, run)
        hit = cache.get(SPEC)
        assert hit.elapsed == run.elapsed
        assert hit.gflops == run.gflops
        assert hit.places == run.places
        assert hit.tiles == run.tiles
        assert hit.app == run.app

    def test_executor_accounts_hits_and_misses(self):
        cache = SimulationCache()
        ex = SweepExecutor(jobs=1, cache=cache)
        ex.map([SPEC, OTHER, SPEC])  # third is served from the first
        assert cache.stats.misses == 2
        assert cache.stats.hits == 1
        ex.map([SPEC, OTHER])
        assert cache.stats.hits == 3

    def test_keep_timeline_bypasses_cache(self):
        cache = SimulationCache()
        spec = RunSpec.for_app(
            MatMulApp, 600, 4, places=2, keep_timeline=True
        )
        cache.put(spec, _run_of(SPEC))
        assert cache.get(spec) is None
        assert cache.stats.puts == 0
        assert len(cache) == 0
        runs = SweepExecutor(jobs=1, cache=cache).map([spec])
        assert runs[0].timeline is not None


class TestLRU:
    def test_eviction_order(self):
        cache = SimulationCache(capacity=2)
        third = RunSpec.for_app(MatMulApp, 600, 16, places=2)
        run = _run_of(SPEC)
        cache.put(SPEC, run)
        cache.put(OTHER, run)
        assert cache.get(SPEC) is not None  # SPEC is now most recent
        cache.put(third, run)  # evicts OTHER
        assert cache.stats.evictions == 1
        assert cache.get(OTHER) is None
        assert cache.get(SPEC) is not None


class TestCalibrationInvalidation:
    def test_fingerprint_changes_with_model_constants(self):
        recalibrated = PHI_31SP.with_overrides(
            mem_bandwidth=PHI_31SP.mem_bandwidth * 1.5
        )
        assert model_fingerprint(PHI_31SP) != model_fingerprint(recalibrated)
        assert model_fingerprint(PHI_31SP) != model_fingerprint(PHI_7120)

    def test_fingerprint_stable_across_calls(self):
        assert model_fingerprint(PHI_31SP) == model_fingerprint(PHI_31SP)

    def test_recalibrated_spec_misses_cache(self):
        cache = SimulationCache()
        cache.put(SPEC, _run_of(SPEC))
        recalibrated = RunSpec.for_app(
            MatMulApp,
            600,
            4,
            places=2,
            spec=PHI_31SP.with_overrides(grain_half_ops=8000.0),
        )
        assert cache.get(SPEC) is not None
        assert cache.get(recalibrated) is None

class TestSharedCache:
    def test_singleton(self):
        assert shared_cache() is shared_cache()


class TestBatchLookup:
    def test_get_many_counts_duplicates_once(self):
        cache = SimulationCache()
        assert cache.get_many([SPEC, OTHER, SPEC]) == [None, None, None]
        assert cache.stats.misses == 2  # the duplicate is one lookup
        run = _run_of(SPEC)
        cache.put(SPEC, run)
        served = cache.get_many([SPEC, SPEC])
        assert cache.stats.hits == 1
        assert served[0].elapsed == run.elapsed
        assert served[1].elapsed == run.elapsed
        assert served[0] is not served[1]  # fresh object per slot

    def test_get_many_matches_scalar_get(self):
        cache = SimulationCache()
        cache.put(SPEC, _run_of(SPEC))
        batch = cache.get_many([SPEC, OTHER])
        assert batch[0].elapsed == cache.get(SPEC).elapsed
        assert batch[1] is None

    def test_put_roundtrips(self):
        run_a, run_b = _run_of(SPEC), _run_of(OTHER)
        cache = SimulationCache()
        cache.put(SPEC, run_a)
        cache.put(OTHER, run_b)
        assert cache.stats.puts == 2
        served = cache.get_many([SPEC, OTHER])
        assert served[0].elapsed == run_a.elapsed
        assert served[1].elapsed == run_b.elapsed
        assert cache.stats.hits == 2

    def test_put_many_skips_keep_timeline(self):
        # The executor puts each point of a batch as it completes; the
        # keep_timeline point among them is never stored.
        spec = RunSpec.for_app(
            MatMulApp, 600, 4, places=2, keep_timeline=True
        )
        cache = SimulationCache()
        runs = SweepExecutor(jobs=1, cache=cache).map([SPEC, spec])
        assert cache.stats.puts == 1
        assert len(cache) == 1
        assert cache.get(spec) is None
        assert runs[1].timeline is not None

    def test_duplicate_specs_in_one_batch_simulate_once(self):
        cache = SimulationCache()
        ex = SweepExecutor(jobs=1, cache=cache)
        runs = ex.map([SPEC, SPEC, SPEC])
        assert ex.stats.executed == 1
        assert cache.stats.misses == 1  # batch lookup deduplicates
        assert len({run.elapsed for run in runs}) == 1
