"""Per-layer metrics computed from synthetic spans and events."""

import pytest

import layers


def span(sid, name, start, end, parent=None, **attrs):
    return (sid, name, start, end, parent, 0, attrs)


def test_des_executor_hybrid_and_grid_metrics():
    spans = [
        # set-up: one calibration DES run under a hybrid map
        span(1, "hybrid.map", 0.0, 1.0, points=3, model_points=0),
        span(2, "executor.map_sim", 0.1, 0.9, 1, calibration=True),
        span(3, "sim.run", 0.2, 0.8, 2, events=100, actions=10),
        # timed phase: a certified batch, a grid lowering, an autotune
        span(10, "executor.map", 2.0, 3.0, points=4, retries=0),
        span(11, "hybrid.map", 2.1, 2.9, 10, points=4, model_points=4),
        span(12, "grid.build", 2.2, 2.4, 11),
        span(13, "grid.predict_runs", 2.4, 2.8, 11, array=4),
        span(14, "grid.lower_point", 2.5, 2.6, 13),
        span(15, "store.get", 2.85, 2.86, 11, hit=True),
        span(20, "autotune.search", 4.0, 5.0),
        span(21, "sim.run", 4.2, 4.7, 20, events=50, actions=5),
    ]
    out = layers.analyze(spans, [], {"import_repro_s": 1.25},
                         window=(2.0, 6.0), setup_window=(0.0, 2.0))
    assert set(out) == set(layers.METRICS)
    assert out["import.repro_s"] == 1.25
    assert out["setup.sim_runs"] == 1
    assert out["setup.calibration_runs"] == 1
    assert out["setup.sim_busy_s"] == pytest.approx(0.6)
    assert out["sim.runs"] == 1
    assert out["sim.events"] == 50
    assert out["sim.events_per_s"] == pytest.approx(100.0)
    assert out["hstreams.actions"] == 5
    assert out["autotune.des_runs"] == 1
    assert out["autotune.self_s"] == pytest.approx(0.5)
    assert out["executor.calls"] == 1 and out["executor.points"] == 4
    assert out["executor.self_s"] == pytest.approx(0.2)
    assert out["hybrid.model_ratio"] == 1.0
    assert out["hybrid.self_s"] == pytest.approx(0.8 - 0.6 - 0.01)
    assert out["hybrid.calibration_runs"] == 0
    assert out["store.hits"] == 1 and out["store.misses"] == 0
    assert out["grid.build_s"] == pytest.approx(0.3)
    assert out["grid.eval_s"] == pytest.approx(0.3)
    assert out["grid.points_array"] == 4
    assert out["http.requests"] == 0 and out["serve.batch_size"] == 0


def test_serve_batching_metrics():
    events = [
        (1.000, "serve.admit", {"ticket": 1, "kind": "predict", "req": 1}),
        (1.002, "serve.admit", {"ticket": 2, "kind": "predict", "req": 2}),
        (1.003, "serve.admit", {"ticket": 3, "kind": "sweep", "req": 3}),
        (1.004, "serve.batch", {"batch": 1, "tickets": [3],
                                "kinds": ["sweep"], "specs": 9}),
        (1.006, "serve.batch", {"batch": 2, "tickets": [1, 2],
                                "kinds": ["predict", "predict"],
                                "specs": 2}),
        (1.007, "serve.shed", {}),
    ]
    spans = [
        span(1, "serve.dispatch", 1.0045, 1.010, batch=1, links=[3]),
        span(2, "serve.dispatch", 1.0100, 1.012, batch=2, links=[1, 2]),
        span(3, "http.handle", 1.0, 1.013, req=1),
        span(4, "serve.submit", 1.0001, 1.0125, 3, req=1),
    ]
    out = layers.analyze(spans, events, {}, window=(1.0, 2.0))
    # window waits: 1 ms (sweep), 6 ms and 4 ms (predicts) -> median 4 ms
    assert out["serve.window_wait_ms"] == pytest.approx(4.0)
    # handoffs: 0.5 ms and 4 ms -> median of two is their mean
    assert out["serve.handoff_wait_ms"] == pytest.approx(2.25)
    assert out["serve.batch_size"] == pytest.approx(5.5)
    assert out["serve.coalesced_ratio"] == 1.0
    assert out["serve.shed"] == 1
    assert out["http.requests"] == 1
    assert out["http.self_s"] == pytest.approx(0.013 - 0.0124)
