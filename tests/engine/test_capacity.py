"""The model refuses what the DES cannot run: device-memory capacity.

A workload port reserves ``max(nbytes, 1)`` device bytes per transfer
op, on its stream's card, and frees none; the DES raises
``DeviceMemoryError`` once a card's reservations pass ``memory_bytes``.
The lowering sums the same bytes and refuses the point, so the model
and the DES agree on feasibility, and the hybrid engine falls back to
the DES (which then reports the real error) instead of answering.
"""

import pytest

from repro.apps import MatMulApp
from repro.device.spec import PHI_31SP
from repro.engine.grid import clear_grid_caches
from repro.errors import DeviceMemoryError, ModelUnsupportedError
from repro.metrics.registry import scoped_registry
from repro.parallel import RunSpec, SweepError, SweepExecutor
from repro.util.units import MB
from repro.workload import OpSpec, PhaseSpec, WorkloadApp, WorkloadSpec

#: Far past the 8 GB card: its port reserves 38.4 GB of tile buffers.
OVERSIZED = RunSpec.for_app(MatMulApp, 40000, 16, places=4)

SMALL = PHI_31SP.with_overrides(memory_bytes=64 * MB)


def _spec(extra: int) -> WorkloadSpec:
    """Reserves exactly ``SMALL.memory_bytes + extra`` bytes on one card:
    a repeated phase of an upload and a residency marker (1 byte each),
    then one more upload."""
    half = SMALL.memory_bytes // 2
    return WorkloadSpec(
        name=f"capacity{extra:+d}",
        kernels=(),
        phases=(
            PhaseSpec(
                ops=(OpSpec("h2d", 0, half - 2), OpSpec("h2d", 1, 0)),
                sync=True,
                repeat=2,
            ),
            PhaseSpec(ops=(OpSpec("h2d", 0, 2 + extra),)),
        ),
    )


def test_over_capacity_point_is_refused_by_the_model():
    with pytest.raises(ModelUnsupportedError, match="memory"):
        OVERSIZED.predict()


def test_hybrid_falls_back_to_the_des_error_as_sim_does():
    # One hybrid family (MatMul on one card) whose calibration points
    # fit; the oversized member is not among them.
    small = [RunSpec.for_app(MatMulApp, 600, 16, places=p) for p in (1, 2)]
    specs = [small[0], OVERSIZED, small[1]]
    with pytest.raises(SweepError, match="device memory exhausted"):
        SweepExecutor(jobs=1).map([OVERSIZED])
    with scoped_registry():
        with pytest.raises(SweepError, match="device memory exhausted"):
            SweepExecutor(
                jobs=1, engine="hybrid"
            ).map(specs + [RunSpec.for_app(MatMulApp, 600, 16, places=4)])


def test_over_capacity_dataset_is_refused_on_a_shape_hit():
    # MatMul (600, 16) lowers the 4x4-grid shape that OVERSIZED shares;
    # capacity is still checked against OVERSIZED's own bytes.
    clear_grid_caches()
    fits = RunSpec.for_app(MatMulApp, 600, 16, places=4)
    assert fits.predict().elapsed > 0
    with pytest.raises(ModelUnsupportedError, match="memory"):
        OVERSIZED.predict()
    # As above, the oversized member is not among the calibration
    # points: only its refusal sends the family to the DES.
    small = [RunSpec.for_app(MatMulApp, 600, 16, places=p) for p in (1, 2)]
    with scoped_registry():
        with pytest.raises(SweepError, match="device memory exhausted"):
            SweepExecutor(jobs=1, engine="hybrid").map(
                [small[0], OVERSIZED, small[1], fits]
            )
    clear_grid_caches()


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize(
    "places, num_devices", [(1, 1), (2, 1), (2, 2)]
)
def test_model_and_des_agree_on_feasibility(extra, places, num_devices):
    workload = _spec(extra)
    try:
        WorkloadApp(workload, spec=SMALL).run(
            places=places, num_devices=num_devices
        )
        des_fits = True
    except DeviceMemoryError:
        des_fits = False
    run = RunSpec.for_workload(
        workload, places=places, num_devices=num_devices, spec=SMALL
    )
    try:
        run.predict()
        model_fits = True
    except ModelUnsupportedError:
        model_fits = False
    assert model_fits == des_fits
    # On one card the boundary is exact; two cards split the bytes.
    assert des_fits == (extra <= 0 or num_devices == 2)
