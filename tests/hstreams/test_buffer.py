"""Unit tests for buffers: geometry, instances, data movement."""

import numpy as np
import pytest

from repro.device import MicDevice
from repro.errors import DeviceMemoryError
from repro.hstreams import Buffer
from repro.hstreams.errors import BufferStateError
from repro.sim import Environment


@pytest.fixture()
def mic():
    return MicDevice(Environment())


class TestBufferConstruction:
    def test_real_buffer_infers_geometry(self):
        arr = np.zeros((4, 8), dtype=np.float64)
        buf = Buffer(arr)
        assert buf.shape == (4, 8)
        assert buf.size == 32
        assert buf.nbytes == 256
        assert not buf.is_virtual

    def test_virtual_buffer_requires_geometry(self):
        with pytest.raises(BufferStateError):
            Buffer(None)
        buf = Buffer(None, shape=(1024,), dtype=np.float32)
        assert buf.is_virtual
        assert buf.nbytes == 4096

    def test_shape_conflict_rejected(self):
        with pytest.raises(BufferStateError):
            Buffer(np.zeros(4), shape=(8,))

    def test_non_contiguous_host_rejected(self):
        arr = np.zeros((8, 8))[:, ::2]
        assert not arr.flags.c_contiguous
        with pytest.raises(BufferStateError, match="contiguous"):
            Buffer(arr)

    def test_names_unique_by_default(self):
        a, b = Buffer(np.zeros(1)), Buffer(np.zeros(1))
        assert a.name != b.name
        named = Buffer(np.zeros(1), name="matrix_a")
        assert named.name == "matrix_a"


class TestRanges:
    def test_full_range_default(self):
        buf = Buffer(np.zeros(10, dtype=np.float32))
        assert buf.range_bytes(0, None) == 40

    def test_partial_range(self):
        buf = Buffer(np.zeros(10, dtype=np.float32))
        assert buf.range_bytes(2, 4) == 16

    def test_out_of_bounds_rejected(self):
        buf = Buffer(np.zeros(10))
        with pytest.raises(BufferStateError):
            buf.range_bytes(8, 5)
        with pytest.raises(BufferStateError):
            buf.range_bytes(-1, 2)


class TestDeviceInstances:
    def test_instantiate_reserves_memory(self, mic):
        buf = Buffer(np.zeros(1024, dtype=np.float64))
        before = mic.memory.used
        buf.instantiate(mic)
        assert mic.memory.used == before + 8192
        buf.instantiate(mic)  # idempotent
        assert mic.memory.used == before + 8192

    def test_evict_returns_memory(self, mic):
        buf = Buffer(np.zeros(1024, dtype=np.float64))
        buf.instantiate(mic)
        buf.evict(mic.index)
        assert mic.memory.used == 0
        with pytest.raises(BufferStateError):
            buf.evict(mic.index)

    def test_instance_access(self, mic):
        buf = Buffer(np.arange(8, dtype=np.float32))
        with pytest.raises(BufferStateError):
            buf.instance(mic.index)
        buf.instantiate(mic)
        inst = buf.instance(mic.index)
        assert inst.shape == (8,)
        assert np.all(inst == 0)  # device memory starts zeroed

    def test_virtual_buffer_has_no_array_but_reserves(self, mic):
        buf = Buffer(None, shape=(1024,), dtype=np.float32)
        buf.instantiate(mic)
        assert mic.memory.used == 4096
        with pytest.raises(BufferStateError):
            buf.instance(mic.index)

    def test_oversized_buffer_exhausts_device(self, mic):
        huge = Buffer(
            None, shape=(mic.spec.memory_bytes + 1,), dtype=np.uint8
        )
        with pytest.raises(DeviceMemoryError):
            huge.instantiate(mic)

    @pytest.mark.parametrize(
        "shape, dtype",
        [((2**32, 2**32), np.uint8), ((3037000500, 3037000500), np.float64)],
    )
    def test_size_past_int64_is_exact(self, mic, shape, dtype):
        """Element counts past 2**63 must not wrap (to 0, or negative
        bytes): such a buffer is far too big for any device."""
        huge = Buffer(None, shape=shape, dtype=dtype)
        assert huge.size == shape[0] * shape[1]
        assert huge.nbytes == shape[0] * shape[1] * np.dtype(dtype).itemsize
        with pytest.raises(DeviceMemoryError):
            huge.instantiate(mic)
        assert mic.memory.used == 0


class TestDataMovement:
    def test_h2d_d2h_roundtrip(self, mic):
        host = np.arange(16, dtype=np.float32)
        buf = Buffer(host)
        buf.instantiate(mic)
        buf.copy_h2d(mic.index, 0, None)
        assert np.array_equal(buf.instance(mic.index), host)
        buf.instance(mic.index)[:] *= 2
        buf.copy_d2h(mic.index, 0, None)
        assert np.array_equal(host, 2 * np.arange(16, dtype=np.float32))

    def test_partial_copy(self, mic):
        host = np.arange(10, dtype=np.float64)
        buf = Buffer(host)
        buf.instantiate(mic)
        buf.copy_h2d(mic.index, 2, 3)
        inst = buf.instance(mic.index)
        assert np.array_equal(inst[2:5], [2, 3, 4])
        assert np.all(inst[:2] == 0) and np.all(inst[5:] == 0)

    def test_2d_flat_ranges(self, mic):
        host = np.arange(12, dtype=np.int64).reshape(3, 4)
        buf = Buffer(host)
        buf.instantiate(mic)
        buf.copy_h2d(mic.index, 4, 4)  # second row
        inst = buf.instance(mic.index)
        assert np.array_equal(inst[1], [4, 5, 6, 7])
        assert np.all(inst[0] == 0) and np.all(inst[2] == 0)

    def test_virtual_copies_are_noops(self, mic):
        buf = Buffer(None, shape=(8,), dtype=np.float32)
        buf.instantiate(mic)
        buf.copy_h2d(mic.index, 0, None)
        buf.copy_d2h(mic.index, 0, None)
