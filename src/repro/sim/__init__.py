"""A from-scratch discrete-event simulation (DES) engine.

This subpackage implements the virtual-time substrate used by the device
model and the streaming runtime.  It follows the classic process-based DES
design (as popularised by SimPy, re-implemented here from scratch so the
library is self-contained), cut down to what the runtime runs:

* :class:`~repro.sim.core.Environment` owns the virtual clock and the event
  heap;
* :class:`~repro.sim.core.Event` is a one-shot occurrence with callbacks,
  and :class:`~repro.sim.core.Timeout` one that fires after a delay;
* :class:`~repro.sim.process.Process` drives a generator coroutine that
  ``yield``\\ s events to wait on;
* :class:`~repro.sim.resources.Resource` is a contended resource (the PCIe
  link, a core partition) that grants requests in request order;
* :class:`~repro.sim.sync.AllOf` joins a set of events (an action's
  dependencies, a synchronisation over every stream).

Determinism: ties in time are broken by (priority, insertion order), so a
given program always replays identically.
"""

from repro.sim.core import Environment, Event, Timeout, NORMAL, URGENT
from repro.sim.process import Process
from repro.sim.resources import Release, Request, Resource
from repro.sim.sync import AllOf

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "NORMAL",
    "URGENT",
    "Process",
    "Resource",
    "Request",
    "Release",
    "AllOf",
]
