"""Buffers: host arrays with per-device instances.

A :class:`Buffer` owns (or describes) a host NumPy array and lazily
instantiates a copy on each device that touches it.  H2D/D2H actions copy
element ranges between the host array and a device instance, so streamed
applications compute *real* results that tests check against references.

For paper-scale experiments the data volumes (up to gigabytes) would be
wasteful to materialise, so a buffer can be **virtual**: it carries only
its geometry, transfers still take the modelled time and consume device
memory, but no bytes move.  Applications choose per
:class:`~repro.config.Scale`.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import maybe_fail
from repro.hstreams.errors import BufferStateError
from repro.metrics.instrument import observe_buffer_instantiation

if TYPE_CHECKING:  # pragma: no cover
    from repro.device.mic import MicDevice


class Buffer:
    """A logical buffer addressable from host and devices.

    Parameters
    ----------
    host:
        The host array, or ``None`` for a virtual buffer.
    shape, dtype:
        Geometry; required for virtual buffers, inferred otherwise.
    name:
        Label used in traces.
    """

    _counter = 0

    def __init__(
        self,
        host: np.ndarray | None = None,
        *,
        shape: tuple[int, ...] | None = None,
        dtype: np.dtype | type | None = None,
        name: str | None = None,
    ) -> None:
        if host is not None:
            if shape is not None and tuple(shape) != host.shape:
                raise BufferStateError(
                    f"shape {shape} conflicts with host array {host.shape}"
                )
            if not host.flags.c_contiguous:
                # Flat-range copies write through a reshaped view; a
                # non-contiguous array would silently copy instead.
                raise BufferStateError(
                    "host arrays must be C-contiguous "
                    "(use np.ascontiguousarray)"
                )
            self.host: np.ndarray | None = host
            self.shape = host.shape
            self.dtype = host.dtype
        else:
            if shape is None or dtype is None:
                raise BufferStateError(
                    "virtual buffers need explicit shape and dtype"
                )
            self.host = None
            self.shape = tuple(shape)
            self.dtype = np.dtype(dtype)
        #: Total element count, as an exact Python ``int`` (a NumPy
        #: product would wrap past 2**63 elements).
        self.size: int = math.prod(map(operator.index, self.shape))
        Buffer._counter += 1
        self.name = name if name is not None else f"buf{Buffer._counter}"
        #: Device instances keyed by device index.
        self._instances: dict[int, np.ndarray] = {}
        #: Device-memory bytes reserved, keyed by device index.
        self._reserved: dict[int, "MicDevice"] = {}

    def __repr__(self) -> str:
        kind = "virtual" if self.is_virtual else "real"
        return f"<Buffer {self.name} {kind} {self.shape} {self.dtype}>"

    @property
    def is_virtual(self) -> bool:
        return self.host is None

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    def range_bytes(self, offset: int, count: int | None) -> int:
        """Byte size of an element range (validating it)."""
        count = self._resolve_count(offset, count)
        return count * self.dtype.itemsize

    def _resolve_count(self, offset: int, count: int | None) -> int:
        if count is None:
            count = self.size - offset
        if offset < 0 or count < 0 or offset + count > self.size:
            raise BufferStateError(
                f"range [{offset}, {offset + count}) outside buffer of "
                f"{self.size} elements"
            )
        return count

    # -- device instances ---------------------------------------------------

    def instantiate(self, device: "MicDevice") -> None:
        """Reserve room for this buffer on ``device`` (idempotent)."""
        if device.index in self._reserved:
            return
        device.memory.allocate(self.nbytes)
        self._reserved[device.index] = device
        observe_buffer_instantiation(self.nbytes)
        if not self.is_virtual:
            self._instances[device.index] = np.zeros(self.shape, self.dtype)

    def instance(self, device_index: int) -> np.ndarray:
        """The device-side array (real buffers only)."""
        if self.is_virtual:
            raise BufferStateError(
                f"virtual buffer {self.name} has no device array"
            )
        try:
            return self._instances[device_index]
        except KeyError:
            raise BufferStateError(
                f"buffer {self.name} not instantiated on device "
                f"{device_index}"
            ) from None

    def instantiated_on(self, device_index: int) -> bool:
        return device_index in self._reserved

    def evict(self, device_index: int) -> None:
        """Drop the instance on a device, returning its memory."""
        device = self._reserved.pop(device_index, None)
        if device is None:
            raise BufferStateError(
                f"buffer {self.name} not resident on device {device_index}"
            )
        device.memory.release(self.nbytes)
        self._instances.pop(device_index, None)

    # -- data movement (called by transfer actions) -------------------------

    def copy_h2d(self, device_index: int, offset: int, count: int | None) -> None:
        """Copy an element range host -> device instance."""
        maybe_fail("transfer.h2d", self.name)
        count = self._resolve_count(offset, count)
        if self.is_virtual or count == 0:
            return
        assert self.host is not None
        flat_src = self.host.reshape(-1)
        flat_dst = self._instances[device_index].reshape(-1)
        flat_dst[offset : offset + count] = flat_src[offset : offset + count]

    def copy_d2h(self, device_index: int, offset: int, count: int | None) -> None:
        """Copy an element range device instance -> host."""
        maybe_fail("transfer.d2h", self.name)
        count = self._resolve_count(offset, count)
        if self.is_virtual or count == 0:
            return
        assert self.host is not None
        flat_src = self._instances[device_index].reshape(-1)
        flat_dst = self.host.reshape(-1)
        flat_dst[offset : offset + count] = flat_src[offset : offset + count]
