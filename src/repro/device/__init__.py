"""Parametric model of the MIC-based heterogeneous platform.

The paper's testbed — a dual-socket Xeon host plus Intel Xeon Phi 31SP
coprocessors on PCIe — no longer exists as a programmable target (KNC,
MPSS and hStreams are all discontinued), so this subpackage provides the
synthetic equivalent: a parametric device model whose *mechanisms* are the
ones the paper identifies as the causes of its findings:

* a serial PCIe link (:mod:`repro.device.pcie`) — Fig. 5;
* a core/thread topology with partition geometry and core-sharing
  contention (:mod:`repro.device.topology`) — Fig. 9a/9b divisor spikes;
* a first-order kernel execution-time model with parallel efficiency,
  memory-bandwidth saturation, cache-span bonuses and temporary-allocation
  costs (:mod:`repro.device.compute`) — Figs. 7, 9c, 9d;
* a device-memory model (:mod:`repro.device.memory`);
* :class:`~repro.device.platform.HeteroPlatform` gluing one host and N
  MICs onto one simulation environment — Sec. VI.

All constants live in :mod:`repro.device.spec` and are calibrated against
the anchor points the paper publishes (see :mod:`repro.device.calibration`).
"""

from repro.device.spec import (
    PHI_31SP,
    DeviceSpec,
    HostSpec,
    LinkSpec,
    RuntimeOverheads,
)
from repro.device.topology import Partition, Topology
from repro.device.pcie import PcieLink, TransferDirection
from repro.device.memory import DeviceMemory
from repro.device.compute import ComputeModel, KernelWork
from repro.device.mic import MicDevice, invocation_time
from repro.device.platform import HeteroPlatform, place_layout

__all__ = [
    "DeviceSpec",
    "HostSpec",
    "LinkSpec",
    "RuntimeOverheads",
    "PHI_31SP",
    "Topology",
    "Partition",
    "PcieLink",
    "TransferDirection",
    "DeviceMemory",
    "ComputeModel",
    "KernelWork",
    "MicDevice",
    "invocation_time",
    "HeteroPlatform",
    "place_layout",
]
