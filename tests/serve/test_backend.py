"""Warm backend: engine registry, store-seeded zero-DES serving,
autotune, health introspection.

``test_warm_store_answers_fig9_point_with_zero_des_runs`` is the
acceptance criterion of the serving PR: once a fig9-mm family's
certification verdict is in the persistent engine store, a *fresh*
server process (fresh simulation cache, fresh process-level caches)
answers a point query purely from the analytic model — zero DES
calibration runs.
"""

import asyncio

import pytest

from repro.apps import MatMulApp
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SimulationCache
from repro.serve import (
    PredictionBackend,
    PredictionService,
    ServeConfig,
)
from repro.serve.api import parse_autotune, parse_predict
from repro.serve.http import handle_request


def certify_fig9_mm(store_path) -> None:
    """Cold pass: certify the fig9-mm family into ``store_path``."""
    backend = PredictionBackend(engine="hybrid", store=str(store_path))
    specs = [
        RunSpec.for_app(MatMulApp, 6000, 144, places=p)
        for p in (1, 14, 56)
    ]
    runs = backend.evaluate(specs)
    assert len(runs) == 3


class TestWarmServing:
    def test_warm_store_answers_fig9_point_with_zero_des_runs(
        self, tmp_path
    ):
        store = tmp_path / "engine-store.json"
        certify_fig9_mm(store)

        with scoped_registry() as registry:
            # A fresh backend: fresh SimulationCache, nothing warm but
            # the persistent store.
            backend = PredictionBackend(
                engine="hybrid", store=str(store), cache=SimulationCache()
            )
            spec = parse_predict({"app": "mm", "P": 4})
            (run,) = backend.evaluate([spec])
            snap = registry.snapshot()
            assert run.engine == "model", "warm point must be predicted"
            assert snap.counter_value("engine.calibration_points") == 0
            assert snap.counter_value("engine.store.hits") >= 1
            assert backend.cache.stats.misses == 0, (
                "no DES run may hit the cache on the warm path"
            )

    def test_warm_point_end_to_end_through_http_handler(self, tmp_path):
        store = tmp_path / "engine-store.json"
        certify_fig9_mm(store)

        async def scenario():
            with scoped_registry() as registry:
                backend = PredictionBackend(
                    engine="hybrid",
                    store=str(store),
                    cache=SimulationCache(),
                )
                service = PredictionService(
                    backend, ServeConfig(batch_window=0.0)
                )
                await service.start()
                try:
                    status, body = await handle_request(
                        service, "POST", "/predict", {"app": "mm", "P": 4}
                    )
                finally:
                    await service.stop()
                assert status == 200
                assert body["engine"] == "model"
                assert body["elapsed_seconds"] > 0
                snap = registry.snapshot()
                assert snap.counter_value("engine.calibration_points") == 0

        asyncio.run(scenario())

    def test_cold_backend_simulates_and_registers_family(self):
        with scoped_registry():
            backend = PredictionBackend(engine="hybrid")
            spec = parse_predict({"app": "mm", "P": 4})
            (run,) = backend.evaluate([spec])
            assert run.elapsed > 0
            assert "matmulapp-d1-s1" in backend.families
            entry = backend.families["matmulapp-d1-s1"]
            assert entry["points"] == 1

    def test_sim_engine_backend(self):
        with scoped_registry():
            backend = PredictionBackend(engine="sim")
            (run,) = backend.evaluate([parse_predict({"app": "mm", "P": 2})])
            assert run.engine == "sim"


class TestAutotune:
    def test_best_config_for_app(self):
        with scoped_registry():
            backend = PredictionBackend(engine="hybrid")
            query = parse_autotune(
                {"app": "mm", "P": [1, 2, 4, 8], "T": [144]}
            )
            result = backend.autotune(query)
            assert result["app"] == "mm"
            assert result["D"] == 6000
            assert result["best"]["P"] in (1, 2, 4, 8)
            assert result["best_seconds"] > 0
            # Pruned search: only verify_top_k points were simulated.
            assert result["evaluations"] <= 3
            assert result["space_size"] == 4

    def test_autotune_under_sim_engine_is_exhaustive(self):
        with scoped_registry():
            backend = PredictionBackend(engine="sim")
            query = parse_autotune({"app": "mm", "P": [1, 2], "T": [144]})
            result = backend.autotune(query)
            assert result["evaluations"] == 2


class TestOverCapacity:
    """An MM point whose buffers overflow the card (D 40000, T 16) is
    the client's error on every route; the next in-capacity request on
    the same service is answered."""

    @staticmethod
    def _assert_422_and_service_stays_up(engine):
        async def scenario():
            with scoped_registry():
                service = PredictionService(
                    PredictionBackend(engine=engine),
                    ServeConfig(batch_window=0.0),
                )
                await service.start()
                try:
                    statuses = [
                        (await handle_request(
                            service, "POST", path,
                            {"app": "mm", "D": 40000, **fields},
                        ))[0]
                        for path, fields in (
                            ("/predict", {"T": 16, "P": 4}),
                            ("/sweep", {"T": [16], "P": [4, 8]}),
                            ("/autotune", {"T": [16], "P": [4, 8]}),
                        )
                    ]
                    status, body = await handle_request(
                        service, "POST", "/predict", {"app": "mm", "P": 4}
                    )
                finally:
                    await service.stop()
            assert statuses == [422, 422, 422]
            assert status == 200 and body["elapsed_seconds"] > 0

        asyncio.run(scenario())

    def test_over_capacity_point_is_422_and_service_stays_up(self):
        self._assert_422_and_service_stays_up("hybrid")

    def test_learned_tier_refuses_it_to_its_hybrid_fallback(self):
        self._assert_422_and_service_stays_up("learned")


class TestLearnedBackend:
    def test_learned_point_query_zero_des(self):
        with scoped_registry() as registry:
            backend = PredictionBackend(
                engine="learned", cache=SimulationCache()
            )
            spec = parse_predict({"app": "mm", "P": 4})
            (run,) = backend.evaluate([spec])
            snap = registry.snapshot()
        assert run.engine == "learned"
        assert run.elapsed > 0
        assert backend.cache.stats.misses == 0, (
            "a confident learned answer must not touch the DES"
        )
        assert snap.counter_value("engine.points", backend="learned") == 1

    def test_learned_autotune_reuses_warm_engine(self):
        with scoped_registry():
            backend = PredictionBackend(engine="learned")
            # Warm the model through a point query first.
            backend.evaluate([parse_predict({"app": "mm", "P": 4})])
            warm_model = backend.executor._engine_impl.model
            assert warm_model is not None
            query = parse_autotune(
                {"app": "mm", "P": [1, 2, 4, 8], "T": [144]}
            )
            result = backend.autotune(query)
            assert result["best"]["P"] in (1, 2, 4, 8)
            # The margin rule verifies at most the top two candidates.
            assert result["evaluations"] <= 2
            # The search ranked with the executor's engine instance,
            # not a freshly-trained duplicate.
            assert backend.executor._engine_impl.model is warm_model


class TestHealth:
    def test_health_reports_store_and_families(self, tmp_path):
        store = tmp_path / "engine-store.json"
        with scoped_registry():
            backend = PredictionBackend(engine="hybrid", store=str(store))
            backend.evaluate([parse_predict({"app": "mm", "P": 1})])
            info = backend.health()
            assert info["engine"] == "hybrid"
            assert info["store"]["path"] == str(store)
            assert "matmulapp-d1-s1" in info["warm_families"]
            assert info["cache_entries"] >= 1

    def test_health_without_store(self):
        with scoped_registry():
            info = PredictionBackend(engine="sim").health()
            assert "store" not in info
