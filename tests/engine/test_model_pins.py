"""Pinned model answers: the analytic model's exact bits at fixed points.

The grid evaluator is the model's only evaluator, so nothing else can
check its arithmetic bit for bit.  These pins hold its answers fixed
instead: ``float.hex`` strings in ``tests/data/model_pins.json``,
compared with ``==``.  They cover every shape a point can take:

* the six paper apps on one device (three to five (D, T) points each,
  two of them at one tiling); Cholesky's two T=100 points reach both
  of the eager settle's hard cases at P=7, a refused settle (4800) and
  an idle-lane tie whose first grant is not the lowest issue index
  (10080);
* 2-device MatMul and Cholesky, whose ports depend on P;
* Hotspot with a first-invocation cost, on one and two devices;
* the twelve golden scenarios of ``tests/data/scenarios``;
* the fig5 and fig7 hBench probes, through their ports.

The pins were recorded from the event-replay evaluator that the grid
replaced; the Cholesky T=100 pins from the grid's heap walk at
``7c06488``, before the eager settle.  After a deliberate change to the
model's arithmetic,
regenerate them with::

    PYTHONPATH=src python -m tests.engine.test_model_pins --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.apps import (
    CholeskyApp,
    HotspotApp,
    KmeansApp,
    MatMulApp,
    NNApp,
    SradApp,
)
from repro.apps.hbench import (
    PartitionProbe,
    ReferenceProbe,
    TransferPattern,
    TransferProbe,
)
from repro.device.spec import PHI_31SP, RuntimeOverheads
from repro.parallel import RunSpec
from repro.workload import WorkloadSpec

DATA = Path(__file__).parent.parent / "data"
PINS = DATA / "model_pins.json"

#: Each app's second dataset shares the first one's tiling, hence its
#: shape: it is answered from the lowering and per-P schedules the
#: first one left (the row-tiled ones split unevenly, so their tiles
#: take two kernel sizes).
APPS = [
    (MatMulApp, [(600, 16), (1200, 16), (3000, 36), (6000, 144)], {}),
    (NNApp, [(20000, 16), (30001, 16), (1048576, 128)], {}),
    (KmeansApp, [(20000, 8), (30003, 8), (280000, 28)], {"iterations": 4}),
    (HotspotApp, [(256, 8), (300, 8), (4096, 64)], {"iterations": 3}),
    (SradApp, [(200, 8), (301, 8), (4000, 100)], {"iterations": 2}),
    (
        CholeskyApp,
        [(720, 9), (1440, 9), (4800, 36), (4800, 100), (10080, 100)],
        {},
    ),
]
APP_PLACES = (1, 2, 4, 7, 13, 56)

TWO_DEVICE = [
    (MatMulApp, (600, 16)),
    (MatMulApp, (6000, 144)),
    (CholeskyApp, (720, 9)),
    (CholeskyApp, (4800, 36)),
]
TWO_DEVICE_PLACES = (2, 3, 4, 5, 8)

GOLDEN_PLACES = (1, 2, 3, 5, 8, 13)


def _spec_point(spec: RunSpec):
    return lambda: spec.predict().elapsed


def _points() -> "dict[str, dict[str, object]]":
    """Group -> point id -> a thunk returning the predicted seconds."""
    groups: dict[str, dict[str, object]] = {
        "apps": {},
        "two_device": {},
        "first_invocation": {},
        "golden": {},
        "hbench": {},
    }
    for cls, geometries, kwargs in APPS:
        for d, t in geometries:
            for p in APP_PLACES:
                groups["apps"][f"{cls.__name__}|{d}|{t}|P{p}"] = _spec_point(
                    RunSpec.for_app(cls, d, t, places=p, **kwargs)
                )
    for cls, (d, t) in TWO_DEVICE:
        for p in TWO_DEVICE_PLACES:
            groups["two_device"][f"{cls.__name__}|{d}|{t}|P{p}"] = (
                _spec_point(
                    RunSpec.for_app(cls, d, t, places=p, num_devices=2)
                )
            )
    first = PHI_31SP.with_overrides(
        overheads=RuntimeOverheads(first_invoke_extra=1.5e-3)
    )
    for devices in (1, 2):
        groups["first_invocation"][f"HotspotApp|256|8|P4|D{devices}"] = (
            _spec_point(
                RunSpec.for_app(
                    HotspotApp, 256, 8, places=4, num_devices=devices,
                    spec=first, iterations=3,
                )
            )
        )
    for path in sorted((DATA / "scenarios").glob("*.json")):
        if path.name == "golden_makespans.json":
            continue
        workload = WorkloadSpec.from_json(path.read_text())
        for p in GOLDEN_PLACES:
            groups["golden"][f"{path.stem}|P{p}"] = _spec_point(
                RunSpec.for_workload(workload, places=p)
            )
    hbench = groups["hbench"]
    for pattern in TransferPattern:
        for x in range(17):
            hbench[f"fig5|{pattern.value}|{x}"] = _spec_point(
                RunSpec.for_app(TransferProbe, *pattern.blocks(x), places=2)
            )
    for p in (1, 2, 4, 8, 16, 32, 64, 128):
        hbench[f"fig7|P{p}"] = _spec_point(
            RunSpec.for_app(PartitionProbe, 128, 100, places=p)
        )
    for iterations in (1, 10, 100):
        hbench[f"fig7|ref|{iterations}"] = _spec_point(
            RunSpec.for_app(ReferenceProbe, iterations, places=1)
        )
    return groups


def _answers(points: "dict[str, object]") -> "dict[str, str]":
    return {key: float(fn()).hex() for key, fn in points.items()}


@pytest.mark.parametrize(
    "group", ["apps", "two_device", "first_invocation", "golden", "hbench"]
)
def test_model_answers_equal_their_pins(group):
    pinned = json.loads(PINS.read_text())[group]
    points = _points()[group]
    assert sorted(points) == sorted(pinned)
    got = _answers(points)
    wrong = {k: (got[k], pinned[k]) for k in pinned if got[k] != pinned[k]}
    assert not wrong, f"{len(wrong)} of {len(pinned)} answers moved: {wrong}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.engine.test_model_pins --write")
    pins = {group: _answers(points) for group, points in _points().items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} pins to {PINS}")
