"""The model prices a kernel exactly as the DES does.

The grid keeps no cost model of its own: per point it prices each
kernel class on each stream's partition through the device model.  So
for the kernel classes of the six paper apps, each at two tilings, the
model's cost table must equal, ``float.hex`` for ``float.hex``, what
the DES charges for that kernel on that stream: a fresh
:meth:`~repro.device.mic.MicDevice.kernel_duration` on the partition of
the :class:`~repro.hstreams.context.StreamContext` the run builds, with
a first invocation free and no noise (the paper spec's defaults).
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
from repro.device import PHI_31SP, ComputeModel, DeviceMemory, HeteroPlatform
from repro.engine.grid import _StreamLayout
from repro.hstreams.context import StreamContext
from repro.workload.ports import port_parts

#: Two tilings per app; the row-tiled apps' second splits unevenly, so
#: its tiles take two kernel sizes.
APPS = [
    (MatMulApp, [(6000, 144), (3000, 36)], {}),
    (CholeskyApp, [(4800, 36), (4800, 100)], {}),
    (KmeansApp, [(280000, 28), (30003, 8)], {"iterations": 4}),
    (HotspotApp, [(4096, 64), (300, 8)], {"iterations": 3}),
    (NNApp, [(1048576, 128), (30001, 16)], {}),
    (SradApp, [(4000, 100), (301, 8)], {"iterations": 2}),
]

#: (places, cards): P 1-56 on one card, P 2-16 on two.
LAYOUTS = [(p, 1) for p in range(1, 57)] + [(p, 2) for p in range(2, 17)]


@pytest.mark.parametrize(
    "cls, geometries, kwargs", APPS, ids=[cls.__name__ for cls, *_ in APPS]
)
def test_model_cost_equals_des_kernel_duration(cls, geometries, kwargs):
    assert PHI_31SP.overheads.first_invoke_extra == 0.0
    assert PHI_31SP.noise_sigma == 0.0
    works = []
    for d, t in geometries:
        _, numbers = port_parts(cls(d, t, **kwargs))
        works += [kernel.work() for kernel in numbers.kernels]
    compute, memory = ComputeModel(PHI_31SP), DeviceMemory(PHI_31SP)
    checked, wrong = 0, []
    for places, cards in LAYOUTS:
        layout = _StreamLayout(PHI_31SP, places, cards)
        table = layout.costs(compute, memory, works)
        ctx = StreamContext(
            places=places, platform=HeteroPlatform(num_devices=cards)
        )
        assert table.shape == (len(works), ctx.num_streams)
        for s, stream in enumerate(ctx.streams):
            place = stream.place
            assert layout.cards[s] == place.device.index
            for k, work in enumerate(works):
                des = place.device.kernel_duration(work, place.partition)
                model = float(table[k, s])
                checked += 1
                if model.hex() != des.hex():
                    wrong.append((places, cards, s, work.name, model, des))
    assert checked > 0
    assert not wrong, f"{len(wrong)} of {checked} costs differ: {wrong[:5]}"
