"""The six built-in apps reproduced as workload specs.

``workload_of(app)`` must reproduce each app's enqueue schedule
*exactly*: the DES run of the ported spec is bit-identical to the
original app's run, on one device and (with the run's ``places`` and
``num_devices``) on several.  The port is also the model's schedule, so
an app's analytic prediction and its port's are the same bits, and a
spec and its JSON round trip predict the same bits, in a batch and
point by point.
"""

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
from repro.engine import predict_run, predict_runs
from repro.engine.grid import clear_grid_caches
from repro.errors import ConfigurationError
from repro.parallel import RunSpec
from repro.workload import WorkloadApp, WorkloadSpec, workload_of

#: Small geometries of all six apps — every schedule shape the ports
#: must reproduce (dedup'd uploads, pipelines, iterated barriers,
#: explicit task DAGs), at DES-friendly sizes.
APPS = [
    pytest.param(MatMulApp, (600, 16), {}, id="mm"),
    pytest.param(NNApp, (20000, 16), {}, id="nn"),
    pytest.param(KmeansApp, (20000, 8), {"iterations": 3}, id="kmeans"),
    pytest.param(HotspotApp, (256, 8), {"iterations": 3}, id="hotspot"),
    pytest.param(SradApp, (200, 8), {"iterations": 2}, id="srad"),
    pytest.param(CholeskyApp, (720, 9), {}, id="cf"),
]

PLACES = [1, 2, 5, 8]


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_port_matches_original_on_des_bit_exactly(app_cls, args, kwargs):
    app = app_cls(*args, **kwargs)
    port = WorkloadApp(workload_of(app), spec=app.spec)
    for p in PLACES:
        assert port.run(places=p).elapsed == app.run(places=p).elapsed


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_port_matches_original_predictor(app_cls, args, kwargs):
    w = workload_of(app_cls(*args, **kwargs))
    for p in PLACES:
        original = RunSpec.for_app(
            app_cls, *args, places=p, **kwargs
        ).predict()
        ported = RunSpec.for_workload(w, places=p).predict()
        assert ported.elapsed == original.elapsed


#: The two apps whose upload dedup is per device.
MULTI_DEVICE_APPS = [
    pytest.param(MatMulApp, (600, 16), id="mm"),
    pytest.param(CholeskyApp, (720, 9), id="cf"),
]


@pytest.mark.parametrize("app_cls, args", MULTI_DEVICE_APPS)
def test_two_device_port_matches_original_on_des_bit_exactly(app_cls, args):
    app = app_cls(*args)
    for p in (2, 3, 5, 8):
        port = WorkloadApp(
            workload_of(app, places=p, num_devices=2), spec=app.spec
        )
        assert (
            port.run(places=p, num_devices=2).elapsed
            == app.run(places=p, num_devices=2).elapsed
        )


@pytest.mark.parametrize("app_cls, args", MULTI_DEVICE_APPS)
def test_two_device_port_uploads_per_device(app_cls, args):
    app = app_cls(*args)
    one = workload_of(app)
    two = workload_of(app, places=4, num_devices=2)
    # On one device the layout changes nothing.
    assert workload_of(app, places=4) == one

    def uploads(w):
        return sum(op.kind == "h2d" for ph in w.phases for op in ph.ops)

    assert uploads(two) > uploads(one)


def test_too_few_places_for_the_devices_is_refused():
    with pytest.raises(ConfigurationError, match="place per device"):
        workload_of(MatMulApp(600, 16), places=1, num_devices=2)


def test_closed_repeats_wait_for_first_invocations():
    # With a first-invocation cost, Hotspot's steps close only after
    # their kernels have run on every stream's device.
    spec = PHI_31SP.with_overrides(
        overheads=RuntimeOverheads(first_invoke_extra=1.5e-3)
    )
    for num_devices in (1, 2):
        run = RunSpec.for_app(
            HotspotApp, 256, 8, places=4, num_devices=num_devices,
            spec=spec, iterations=3,
        )
        assert run.predict().elapsed == pytest.approx(
            run.execute().elapsed, rel=1e-9
        )


def test_srad_port_and_its_json_round_trip_predict_the_same_bits():
    # The port repeats two phase objects; its round trip holds distinct
    # equal ones.  Equal specs share a grid family, so each is lowered
    # from a cleared cache.
    w = workload_of(SradApp(200, 8, iterations=3))
    back = WorkloadSpec.from_json(w.to_json())
    assert back == w
    assert w.phases[1] is w.phases[3]
    assert back.phases[1] is not back.phases[3]
    answers = []
    for x in (w, back):
        specs = [RunSpec.for_workload(x, places=p) for p in PLACES]
        clear_grid_caches()
        grid = [run.elapsed for run in predict_runs(specs)]
        alone = []
        for spec in specs:
            clear_grid_caches()
            alone.append(predict_run(spec).elapsed)
        assert grid == alone
        answers.append(grid)
    clear_grid_caches()
    assert answers[0] == answers[1]


@pytest.mark.parametrize("app_cls, args, kwargs", APPS)
def test_port_round_trips_through_json(app_cls, args, kwargs):
    w = workload_of(app_cls(*args, **kwargs))
    assert WorkloadSpec.from_json(w.to_json()) == w


def test_iterated_ports_carry_iteration_kwargs():
    few = workload_of(KmeansApp(20000, 8, iterations=2))
    many = workload_of(KmeansApp(20000, 8, iterations=5))
    assert few != many
    assert WorkloadApp(many).run(places=4).elapsed > \
        WorkloadApp(few).run(places=4).elapsed


def test_unportable_variants_are_refused():
    with pytest.raises(ConfigurationError, match="halo"):
        workload_of(HotspotApp(256, 8, iterations=2, halo_sync="p2p"))
    with pytest.raises(ConfigurationError, match="mapping"):
        workload_of(CholeskyApp(720, 9, mapping="round_robin"))
    with pytest.raises(ConfigurationError, match="no workload port"):
        workload_of(object())
