"""The DES event stream of small runs, pinned to recorded constants.

Host-side speed work on the engine, the runtime or the apps must leave
every simulated event as it was.  For one small run of each paper app,
one hBench probe and one checked-in scenario, this pins what the run
records: the engine totals (events dispatched, processes started, peak
heap depth), every ``hstreams.*`` counter, the per-kind
``hstreams.action_seconds`` histograms (bucket counts, count and sum),
the simulated elapsed time to the last bit, and the trace length.

A mismatch means the event stream changed.  Re-record ``PINNED`` only
for a change that is meant to alter the simulation, and say so where
the change is described.
"""

from pathlib import Path

import pytest

import repro.apps.hbench as hbench
from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.hstreams.context import StreamContext
from repro.metrics.registry import scoped_registry
from repro.workload import WorkloadApp, WorkloadSpec

SCENARIO = (
    Path(__file__).parent.parent / "data" / "scenarios"
    / "multi_phase-0-0.json"
)


def _app(app, places, streams_per_place=1, num_devices=1):
    def run(monkeypatch):
        result = app.run(places, streams_per_place, num_devices)
        return result.elapsed, len(result.timeline)

    return run


def _hbench(monkeypatch):
    """hBench's overlap probe; it builds its own context, so capture it
    and publish its engine totals as an app run does."""
    contexts = []

    class Recording(StreamContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(hbench, "StreamContext", Recording)
    elapsed = hbench.HBench().streamed_time(iterations=200, streams=4)
    (ctx,) = contexts
    ctx.record_metrics()
    return elapsed, len(ctx.trace)


def _scenario(monkeypatch):
    app = WorkloadApp(WorkloadSpec.from_json(SCENARIO.read_text()))
    result = app.run(places=3)
    return result.elapsed, len(result.timeline)


RUNS = {
    "mm": _app(MatMulApp(600, 16), places=4, streams_per_place=2),
    "cf": _app(CholeskyApp(480, 16), places=4, num_devices=2),
    "nn": _app(NNApp(20000, 64), places=4),
    "kmeans": _app(KmeansApp(20000, 16, iterations=5), places=4),
    "hotspot": _app(HotspotApp(256, 16, iterations=5, halo_sync="p2p"),
                    places=4),
    "srad": _app(SradApp(256, 16, iterations=5), places=4),
    "hbench": _hbench,
    "scenario": _scenario,
}


def _label(entry: dict) -> str:
    labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
    return f"{entry['name']}[{labels}]" if labels else entry["name"]


def record(name: str, monkeypatch) -> dict:
    """One run's pinned view, recorded under a fresh metrics registry."""
    with scoped_registry() as registry:
        elapsed, trace_len = RUNS[name](monkeypatch)
        data = registry.snapshot().to_dict()
    return {
        "elapsed": repr(elapsed),
        "trace": trace_len,
        "counters": {
            _label(c): c["value"]
            for c in data["counters"]
            if c["name"].startswith(("sim.", "hstreams."))
        },
        "histograms": {
            _label(h): (h["counts"], h["count"], repr(h["sum"]))
            for h in data["histograms"]
            if h["name"] in ("sim.queue_depth_max", "hstreams.action_seconds")
        },
    }


#: Recorded at the commit before the host-cost work on the DES runtime.
PINNED: dict = {
    "mm": {
        "elapsed": "0.004067592851592851",
        "trace": 40,
        "counters": {
            "hstreams.actions[kind=d2h]": 16,
            "hstreams.actions[kind=exe]": 16,
            "hstreams.actions[kind=h2d]": 8,
            "hstreams.buffer_bytes_reserved": 8640000,
            "hstreams.buffer_instantiations": 18,
            "hstreams.bytes_moved[kind=d2h]": 2880000,
            "hstreams.bytes_moved[kind=h2d]": 5760000,
            "hstreams.context_syncs": 1,
            "hstreams.enqueued[kind=d2h]": 16,
            "hstreams.enqueued[kind=exe]": 16,
            "hstreams.enqueued[kind=h2d]": 8,
            "sim.events_processed": 349,
            "sim.processes_started": 65,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 16, 0, 0, 0, 0, 0, 0, 0], 16, "0.00057142857142857"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 0, 16, 0, 0, 0, 0, 0, 0], 16, "0.011790371406371406"),
            "hstreams.action_seconds[kind=h2d]": (
                [0, 0, 0, 8, 0, 0, 0, 0, 0, 0], 8, "0.0009028571428571427"),
            "sim.queue_depth_max": (
                [0, 0, 1, 0, 0, 0, 0, 0, 0], 1, "41.0"),
        },
    },
    "cf": {
        "elapsed": "0.0024224371184371207",
        "trace": 43,
        "counters": {
            "hstreams.actions[kind=d2h]": 10,
            "hstreams.actions[kind=exe]": 20,
            "hstreams.actions[kind=h2d]": 13,
            "hstreams.buffer_bytes_reserved": 1497600,
            "hstreams.buffer_instantiations": 13,
            "hstreams.bytes_moved[kind=d2h]": 1152000,
            "hstreams.bytes_moved[kind=h2d]": 1497600,
            "hstreams.context_syncs": 1,
            "hstreams.enqueued[kind=d2h]": 10,
            "hstreams.enqueued[kind=exe]": 20,
            "hstreams.enqueued[kind=h2d]": 13,
            "sim.events_processed": 377,
            "sim.processes_started": 67,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 10, 0, 0, 0, 0, 0, 0, 0], 10, "0.0002645714285714291"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 4, 16, 0, 0, 0, 0, 0, 0], 20, "0.002716977156177155"),
            "hstreams.action_seconds[kind=h2d]": (
                [0, 0, 13, 0, 0, 0, 0, 0, 0, 0], 13, "0.00034394285714285785"),
            "sim.queue_depth_max": (
                [0, 0, 1, 0, 0, 0, 0, 0, 0], 1, "44.0"),
        },
    },
    "nn": {
        "elapsed": "0.0022058667418831217",
        "trace": 256,
        "counters": {
            "hstreams.actions[kind=d2h]": 64,
            "hstreams.actions[kind=exe]": 64,
            "hstreams.actions[kind=h2d]": 128,
            "hstreams.buffer_bytes_reserved": 240000,
            "hstreams.buffer_instantiations": 2,
            "hstreams.bytes_moved[kind=d2h]": 80000,
            "hstreams.bytes_moved[kind=h2d]": 160000,
            "hstreams.context_syncs": 1,
            "hstreams.enqueued[kind=d2h]": 64,
            "hstreams.enqueued[kind=exe]": 64,
            "hstreams.enqueued[kind=h2d]": 128,
            "sim.events_processed": 1861,
            "sim.processes_started": 385,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 64, 0, 0, 0, 0, 0, 0, 0], 64, "0.0006514285714285697"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 64, 0, 0, 0, 0, 0, 0, 0], 64, "0.005306720779220783"),
            "hstreams.action_seconds[kind=h2d]": (
                [64, 0, 64, 0, 0, 0, 0, 0, 0, 0], 128,
                "0.0006628571428571421"),
            "sim.queue_depth_max": (
                [0, 0, 0, 0, 1, 0, 0, 0, 0], 1, "257.0"),
        },
    },
    "kmeans": {
        "elapsed": "0.11101396782604825",
        "trace": 96,
        "counters": {
            "hstreams.actions[kind=exe]": 80,
            "hstreams.actions[kind=h2d]": 16,
            "hstreams.buffer_bytes_reserved": 2720000,
            "hstreams.buffer_instantiations": 1,
            "hstreams.bytes_moved[kind=h2d]": 2720000,
            "hstreams.context_syncs": 6,
            "hstreams.enqueued[kind=exe]": 80,
            "hstreams.enqueued[kind=h2d]": 16,
            "sim.events_processed": 745,
            "sim.processes_started": 118,
        },
        "histograms": {
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 0, 0, 80, 0, 0, 0, 0, 0], 80, "0.438165585589907"),
            "hstreams.action_seconds[kind=h2d]": (
                [0, 0, 16, 0, 0, 0, 0, 0, 0, 0], 16, "0.0005485714285714295"),
            "sim.queue_depth_max": (
                [0, 0, 1, 0, 0, 0, 0, 0, 0], 1, "33.0"),
        },
    },
    "hotspot": {
        "elapsed": "0.0046475474285714285",
        "trace": 144,
        "counters": {
            "hstreams.actions[kind=d2h]": 16,
            "hstreams.actions[kind=exe]": 80,
            "hstreams.actions[kind=h2d]": 48,
            "hstreams.buffer_bytes_reserved": 786432,
            "hstreams.buffer_instantiations": 3,
            "hstreams.bytes_moved[kind=d2h]": 262144,
            "hstreams.bytes_moved[kind=h2d]": 524288,
            "hstreams.context_syncs": 2,
            "hstreams.enqueued[kind=d2h]": 16,
            "hstreams.enqueued[kind=exe]": 80,
            "hstreams.enqueued[kind=h2d]": 48,
            "sim.events_processed": 1133,
            "sim.processes_started": 194,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 16, 0, 0, 0, 0, 0, 0, 0], 16, "0.0001974491428571451"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 0, 80, 0, 0, 0, 0, 0, 0], 80, "0.014732799999999973"),
            "hstreams.action_seconds[kind=h2d]": (
                [16, 0, 32, 0, 0, 0, 0, 0, 0, 0], 48,
                "0.00039489828571428326"),
            "sim.queue_depth_max": (
                [0, 0, 0, 1, 0, 0, 0, 0, 0], 1, "97.0"),
        },
    },
    "srad": {
        "elapsed": "0.005378827047157287",
        "trace": 208,
        "counters": {
            "hstreams.actions[kind=d2h]": 16,
            "hstreams.actions[kind=exe]": 160,
            "hstreams.actions[kind=h2d]": 32,
            "hstreams.buffer_bytes_reserved": 524288,
            "hstreams.buffer_instantiations": 2,
            "hstreams.bytes_moved[kind=d2h]": 262144,
            "hstreams.bytes_moved[kind=h2d]": 262144,
            "hstreams.context_syncs": 12,
            "hstreams.enqueued[kind=d2h]": 16,
            "hstreams.enqueued[kind=exe]": 160,
            "hstreams.enqueued[kind=h2d]": 32,
            "sim.events_processed": 1565,
            "sim.processes_started": 252,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 16, 0, 0, 0, 0, 0, 0, 0], 16, "0.0001974491428571451"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 160, 0, 0, 0, 0, 0, 0, 0], 160, "0.012527715045771997"),
            "hstreams.action_seconds[kind=h2d]": (
                [16, 0, 16, 0, 0, 0, 0, 0, 0, 0], 32,
                "0.00019744914285714163"),
            "sim.queue_depth_max": (
                [0, 0, 1, 0, 0, 0, 0, 0, 0], 1, "33.0"),
        },
    },
    "hbench": {
        "elapsed": "0.028255359824757232",
        "trace": 16,
        "counters": {
            "hstreams.actions[kind=d2h]": 4,
            "hstreams.actions[kind=exe]": 4,
            "hstreams.actions[kind=h2d]": 8,
            "hstreams.buffer_bytes_reserved": 33554432,
            "hstreams.buffer_instantiations": 2,
            "hstreams.bytes_moved[kind=d2h]": 16777216,
            "hstreams.bytes_moved[kind=h2d]": 16777216,
            "hstreams.context_syncs": 1,
            "hstreams.enqueued[kind=d2h]": 4,
            "hstreams.enqueued[kind=exe]": 4,
            "hstreams.enqueued[kind=h2d]": 8,
            "sim.events_processed": 121,
            "sim.processes_started": 25,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 0, 4, 0, 0, 0, 0, 0, 0], 4, "0.002436745142857147"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 0, 0, 0, 4, 0, 0, 0, 0], 4, "0.1002137135847432"),
            "hstreams.action_seconds[kind=h2d]": (
                [4, 0, 0, 4, 0, 0, 0, 0, 0, 0], 8, "0.0024367451428571434"),
            "sim.queue_depth_max": (
                [0, 0, 1, 0, 0, 0, 0, 0, 0], 1, "17.0"),
        },
    },
    "scenario": {
        "elapsed": "0.23842317439371788",
        "trace": 28,
        "counters": {
            "hstreams.actions[kind=d2h]": 7,
            "hstreams.actions[kind=exe]": 14,
            "hstreams.actions[kind=h2d]": 7,
            "hstreams.buffer_bytes_reserved": 5386987,
            "hstreams.buffer_instantiations": 14,
            "hstreams.bytes_moved[kind=d2h]": 3581482,
            "hstreams.bytes_moved[kind=h2d]": 1805505,
            "hstreams.context_syncs": 4,
            "hstreams.enqueued[kind=d2h]": 7,
            "hstreams.enqueued[kind=exe]": 14,
            "hstreams.enqueued[kind=h2d]": 7,
            "sim.events_processed": 250,
            "sim.processes_started": 46,
        },
        "histograms": {
            "hstreams.action_seconds[kind=d2h]": (
                [0, 0, 4, 3, 0, 0, 0, 0, 0, 0], 7, "0.0005816402857143077"),
            "hstreams.action_seconds[kind=exe]": (
                [0, 0, 0, 6, 6, 0, 2, 0, 0, 0], 14, "0.2715952136661931"),
            "hstreams.action_seconds[kind=h2d]": (
                [0, 0, 7, 0, 0, 0, 0, 0, 0, 0], 7, "0.0003279292857142857"),
            "sim.queue_depth_max": (
                [0, 1, 0, 0, 0, 0, 0, 0, 0], 1, "8.0"),
        },
    },
}


@pytest.mark.parametrize("name", list(RUNS))
def test_event_stream_matches_recorded_constants(name, monkeypatch):
    assert record(name, monkeypatch) == PINNED[name]
