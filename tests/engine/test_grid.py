"""The grid path: planning, exactness, engine routing.

The grid evaluator is the model's only evaluator; a batch must answer
exactly what each of its points answers alone, and sweeps through the
engines must stay bit-identical.  These tests pin the routing rules
(which families lower, which the model refuses) and that equality,
family by family.  ``test_model_pins.py`` pins the answers themselves.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.device.spec import PHI_31SP, RuntimeOverheads
from repro.engine import (
    GridPlan,
    ModelEngine,
    grid,
    predict_grid,
    predict_run,
    predict_runs,
)
from repro.engine.grid import clear_grid_caches
from repro.errors import ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepExecutor
from repro.util.units import GB
from repro.workload import workload_of


@pytest.fixture(autouse=True)
def _fresh_grid_caches():
    clear_grid_caches()
    yield
    clear_grid_caches()


def _mm_specs(places=(1, 2, 4, 8, 13, 28, 56)):
    return [
        RunSpec.for_app(MatMulApp, 3000, 36, places=p) for p in places
    ]


class TestGridPlan:
    def test_partition_sweep_is_one_array_family(self):
        plan = GridPlan.build(_mm_specs())
        assert len(plan.families) == 1
        assert plan.families[0].route == "array"
        assert plan.vectorized_points == 7

    def test_heterogeneous_batch_groups_by_family(self):
        specs = (
            _mm_specs(places=(1, 4))
            + [RunSpec.for_app(NNApp, 65536, 16, places=p) for p in (2, 8)]
            + _mm_specs(places=(8,))
        )
        plan = GridPlan.build(specs)
        assert len(plan.families) == 2
        # Family membership preserves submission indices.
        assert sorted(plan.families[0].indices) == [0, 1, 4]
        assert sorted(plan.families[1].indices) == [2, 3]

    def test_multi_device_families_route_as_array(self):
        specs = [
            # Fig. 11's 2-device Cholesky: lowered per P.
            RunSpec.for_app(CholeskyApp, 2400, 16, places=p, num_devices=2)
            for p in (2, 4)
        ] + [RunSpec.for_app(MatMulApp, 3000, 36, places=4)]
        plan = GridPlan.build(specs)
        routes = {
            specs[fam.indices[0]].app_cls.__name__: fam.route
            for fam in plan.families
        }
        assert routes == {"CholeskyApp": "array", "MatMulApp": "array"}
        assert plan.vectorized_points == 3
        runs = plan.predict_runs()
        clear_grid_caches()
        for spec, run in zip(specs, runs):
            assert run.elapsed == predict_run(spec).elapsed

    def test_refused_family_routes_as_refused(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=4, streams_per_place=2
            ),
            RunSpec.for_app(MatMulApp, 3000, 36, places=4),
        ]
        plan = GridPlan.build(specs)
        assert [fam.route for fam in plan.families] == ["refused", "array"]
        assert plan.vectorized_points == 1
        with scoped_registry() as registry:
            runs = plan.predict_runs(strict=False)
            snapshot = registry.snapshot()
        assert runs[0] is None and runs[1].engine == "model"
        assert snapshot.counter_value(
            "engine.grid.families", route="refused"
        ) == 1

    def test_points_below_one_place_per_device_are_refused(self):
        specs = [
            RunSpec.for_app(MatMulApp, 600, 16, places=p, num_devices=2)
            for p in (1, 2)
        ]
        runs = GridPlan.build(specs).predict_runs(strict=False)
        assert runs[0] is None and runs[1].engine == "model"
        with pytest.raises(ModelUnsupportedError):
            predict_runs(specs)

    def test_unsupported_specs_raise_exactly_like_the_scalar_loop(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=4, streams_per_place=2
            )
        ]
        with pytest.raises(ModelUnsupportedError):
            predict_grid(specs)
        with pytest.raises(ModelUnsupportedError):
            predict_runs(specs)
        # Non-strict: the plan reports None instead of raising.
        assert GridPlan.build(specs).predict_runs(strict=False) == [None]

    def test_empty_batch(self):
        assert predict_grid([]).shape == (0,)
        assert predict_runs([]) == []


class TestExactEquality:
    @pytest.mark.parametrize(
        "spec",
        [
            RunSpec.for_app(MatMulApp, 3000, 36, places=13),
            RunSpec.for_app(NNApp, 1048576, 128, places=14),
            RunSpec.for_app(KmeansApp, 280000, 28, places=16, iterations=4),
            RunSpec.for_app(HotspotApp, 4096, 64, places=37, iterations=3),
            RunSpec.for_app(SradApp, 4000, 100, places=16, iterations=2),
            RunSpec.for_app(CholeskyApp, 4800, 36, places=8),
        ],
        ids=lambda s: s.app_cls.__name__,
    )
    def test_grid_equals_scalar_bitwise(self, spec):
        # A batch over the partition axis answers each point exactly as
        # the point evaluated alone, from cleared caches.
        sweep = [replace(spec, places=p) for p in (1, 3, spec.places, 56)]
        batch = predict_runs(sweep)
        for point, grid_run in zip(sweep, batch):
            clear_grid_caches()
            alone = predict_run(point)
            assert grid_run.elapsed == alone.elapsed  # exact, not approx
            assert grid_run.gflops == alone.gflops
            assert grid_run.engine == alone.engine == "model"
            assert grid_run.tiles == alone.tiles

    def test_fig9_partition_sweep_exact(self):
        from tests.engine.test_model_pins import APP_PLACES, PINS

        pins = json.loads(PINS.read_text())["apps"]
        places = sorted({*range(1, 57, 5), *APP_PLACES})
        specs = [
            RunSpec.for_app(MatMulApp, 3000, 36, places=p) for p in places
        ]
        grid = dict(zip(places, predict_grid(specs)))
        for p in APP_PLACES:
            assert float(grid[p]).hex() == pins[f"MatMulApp|3000|36|P{p}"]

    def test_memoized_reevaluation_is_stable(self):
        specs = _mm_specs()
        first = predict_grid(specs)
        again = predict_grid(specs)  # served from the point cache
        assert list(first) == list(again)

    def test_evaluated_point_keeps_only_its_answer(self):
        spec = RunSpec.for_app(HotspotApp, 4096, 64, places=7, iterations=3)
        fam = grid._compiled_for(spec)
        first = fam.evaluate(7)
        # The memo holds the answer alone: no per-phase lists survive.
        assert type(fam._points[7]) is float
        assert fam.evaluate(7).hex() == first.hex()
        clear_grid_caches()
        assert predict_run(spec).elapsed.hex() == first.hex()

    def test_eval_seconds_observed_once_per_family(self):
        specs = [
            RunSpec.for_app(MatMulApp, 600, 16, places=p) for p in (1, 4)
        ] + [
            RunSpec.for_app(NNApp, 20000, 16, places=4),
            RunSpec.for_app(KmeansApp, 20000, 8, places=2, iterations=2),
        ]
        with scoped_registry() as registry:
            predict_runs(specs)
            snapshot = registry.snapshot()
        stats = snapshot.histogram_stats("engine.grid.eval_seconds")
        assert stats["count"] == 3


def _first_invoke_spec():
    return PHI_31SP.with_overrides(
        overheads=RuntimeOverheads(first_invoke_extra=1.5e-3)
    )


class TestShapes:
    """Datasets of one shape share a lowering and its per-P schedules;
    what fixes structure keeps shapes apart."""

    @staticmethod
    def _warm_then_alone(specs):
        """Each spec's answer evaluated in order on warm caches, checked
        against the spec alone from cleared caches."""
        warm = [predict_run(spec).elapsed for spec in specs]
        for spec, got in zip(specs, warm):
            clear_grid_caches()
            assert got == predict_run(spec).elapsed
        return warm

    def test_datasets_of_one_shape_share_one_lowering(self):
        specs = [
            RunSpec.for_app(MatMulApp, d, 16, places=p)
            for d in (600, 1200, 2400)
            for p in (1, 4)
        ]
        predict_runs(specs)
        assert len(grid._SHAPES) == 1
        (low,) = grid._SHAPES.values()
        assert sorted(low._schedules) == [1, 4]

    @pytest.mark.parametrize(
        "spec",
        [
            PHI_31SP.with_overrides(
                link=replace(PHI_31SP.link, bandwidth=3.5e9)
            ),
            PHI_31SP.with_overrides(memory_bytes=4 * GB),
            _first_invoke_spec(),
        ],
        ids=["bandwidth", "memory", "first_invoke"],
    )
    def test_device_specs_do_not_share_a_lowering(self, spec):
        runs = [
            RunSpec.for_app(
                HotspotApp, 256, 8, places=4, spec=s, iterations=3
            )
            for s in (PHI_31SP, spec)
        ]
        for run in runs:
            predict_run(run)
        assert len(grid._SHAPES) == 2
        self._warm_then_alone(runs)

    def test_first_invocation_two_device_datasets_share_per_p_shapes(self):
        runs = [
            RunSpec.for_app(
                CholeskyApp, d, 9, places=p, num_devices=2,
                spec=_first_invoke_spec(),
            )
            for d in (720, 1440)
            for p in (2, 3)
        ]
        for run in runs:
            predict_run(run)
        # One lowering per device layout, shared by both datasets.
        assert len(grid._SHAPES) == 2
        self._warm_then_alone(runs)

    def test_zero_byte_transfers_do_not_share_a_lowering(self):
        # A zero-itemsize dtype turns MatMul's transfers into residency
        # markers, so that dataset is lowered from its own spec, as a
        # scenario of the same ops is.
        predict_run(RunSpec.for_app(MatMulApp, 600, 16, places=4))
        zero = RunSpec.for_app(
            MatMulApp, 600, 16, places=4, dtype=np.dtype("V0")
        )
        port = RunSpec.for_workload(workload_of(zero.build_app()), places=4)
        assert predict_run(zero).elapsed == predict_run(port).elapsed
        assert len(grid._SHAPES) == 1

    @pytest.mark.parametrize(
        "app_cls, args",
        [
            (KmeansApp, (20000, 8)),
            (HotspotApp, (256, 8)),
            (SradApp, (200, 8)),
        ],
        ids=["kmeans", "hotspot", "srad"],
    )
    def test_iteration_counts_do_not_share_a_lowering(self, app_cls, args):
        runs = [
            RunSpec.for_app(app_cls, *args, places=4, iterations=it)
            for it in (2, 5)
        ]
        for run in runs:
            predict_run(run)
        assert len(grid._SHAPES) == 2
        few, many = self._warm_then_alone(runs)
        assert few < many


class TestEngineRouting:
    def test_model_engine_vectorized_equals_scalar_loop(self):
        specs = _mm_specs()
        with scoped_registry():
            vec = SweepExecutor(jobs=1, engine=ModelEngine()).map(specs)
        clear_grid_caches()
        plain = [predict_run(spec) for spec in specs]
        for a, b in zip(vec, plain):
            assert a.elapsed == b.elapsed
            assert a.engine == b.engine == "model"

    def test_hybrid_grid_bit_identical_to_pointwise(self):
        specs = _mm_specs()
        with scoped_registry():
            grid_runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
        clear_grid_caches()
        for spec, run in zip(specs, grid_runs):
            if run.engine == "model":
                assert run.elapsed == predict_run(spec).elapsed
            else:  # a calibration point reports its simulated result
                assert run.elapsed == spec.execute().elapsed

    def test_hybrid_grid_metrics(self):
        specs = _mm_specs()
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value(
            "engine.grid.families", route="array"
        ) == 1
        assert snapshot.counter_value(
            "engine.grid.points", route="array"
        ) == len(specs)
        # The three calibration points report simulated results.
        assert snapshot.counter_value(
            "engine.grid.points", route="sim"
        ) == 3

    def test_hybrid_grid_unsupported_family_falls_back(self):
        specs = [
            RunSpec.for_app(
                MatMulApp, 3000, 36, places=p, streams_per_place=2
            )
            for p in (2, 4)
        ]
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.counter_value(
            "engine.grid.points", route="sim"
        ) == len(specs)

    def test_hybrid_grid_failed_certification_falls_back(self, monkeypatch):
        from repro.engine import grid

        real_evaluate = grid._CompiledFamily.evaluate

        def skewed_evaluate(self, places):
            return real_evaluate(self, places) * 1.5

        monkeypatch.setattr(
            grid._CompiledFamily, "evaluate", skewed_evaluate
        )
        specs = _mm_specs(places=(1, 2, 4, 8))
        baseline = SweepExecutor(jobs=1).map(specs)
        with scoped_registry() as registry:
            runs = SweepExecutor(jobs=1, engine="hybrid").map(specs)
            snapshot = registry.snapshot()
        assert all(run.engine == "sim" for run in runs)
        for run, ref in zip(runs, baseline):
            assert run.elapsed == ref.elapsed
        assert snapshot.counter_value("engine.families_fallback") == 1
        assert snapshot.gauge_value(
            "engine.calibration_error", family="matmulapp-d1-s1"
        ) == pytest.approx(0.5, rel=1e-6)

    def test_model_engine_emits_grid_metrics(self):
        specs = _mm_specs()
        with scoped_registry() as registry:
            SweepExecutor(jobs=1, engine="model").map(specs)
            snapshot = registry.snapshot()
        assert snapshot.counter_value(
            "engine.grid.points", route="array"
        ) == len(specs)
        assert (
            snapshot.counter_value("engine.points", backend="model")
            == len(specs)
        )
