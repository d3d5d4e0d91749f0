"""Declarative streamed workloads: spec, generator, and lowerings.

The workload DSL describes a streamed scenario — phases of tile-tagged
transfer/kernel ops with optional same-phase dependencies — as plain
data.  One spec drives every engine: :class:`WorkloadApp` runs it on
the DES, and :func:`~repro.workload.compile.lower_skeleton` records its
op graph into the grid path's lowering, which the analytic model
evaluates at one point or over a whole grid.  :func:`workload_of` ports
the six paper apps to specs, and those ports are the only model
schedules the engines evaluate for them; :class:`ScenarioGenerator`
draws reproducible random scenarios for fuzzing and corpus generation.
"""

from repro.workload.app import WorkloadApp
from repro.workload.generator import DISTRIBUTIONS, ScenarioGenerator
from repro.workload.ports import workload_of
from repro.workload.spec import (
    OP_KINDS,
    SCHEMA_VERSION,
    KernelSpec,
    OpSpec,
    PhaseSpec,
    WorkloadSpec,
)

__all__ = [
    "DISTRIBUTIONS",
    "KernelSpec",
    "OP_KINDS",
    "OpSpec",
    "PhaseSpec",
    "SCHEMA_VERSION",
    "ScenarioGenerator",
    "WorkloadApp",
    "WorkloadSpec",
    "workload_of",
]
