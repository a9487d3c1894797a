"""Tests for the flat emulated memory."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emu.batch import BatchMemory
from repro.emu.memory import Memory, MemoryError_


class TestAlloc:
    def test_alignment(self):
        mem = Memory()
        addr = mem.alloc(10, align=64)
        assert addr % 64 == 0

    def test_never_returns_zero(self):
        mem = Memory()
        assert mem.alloc(1) > 0

    def test_successive_allocations_disjoint(self):
        mem = Memory()
        a = mem.alloc(100)
        b = mem.alloc(100)
        assert b >= a + 100

    def test_out_of_memory(self):
        mem = Memory(size=1024)
        with pytest.raises(MemoryError_):
            mem.alloc(2048)

    def test_alloc_array_round_trips(self):
        mem = Memory()
        data = np.arange(37, dtype=np.int16)
        addr = mem.alloc_array(data)
        assert np.array_equal(mem.read(addr, data.nbytes).view(np.int16), data)


class TestReadWrite:
    def test_read_is_copy(self):
        mem = Memory()
        addr = mem.alloc_array(np.array([1, 2, 3], np.uint8))
        snapshot = mem.read(addr, 3)
        mem.write_u8(addr, 99)
        assert snapshot[0] == 1

    def test_bounds_check(self):
        mem = Memory(size=1024)
        with pytest.raises(MemoryError_):
            mem.read(1020, 8)
        with pytest.raises(MemoryError_):
            mem.read(-1, 4)

    def test_write_any_dtype(self):
        mem = Memory()
        addr = mem.alloc(8)
        mem.write(addr, np.array([0x1234ABCD], np.uint32))
        assert mem.read(addr, 4).view(np.uint32)[0] == 0x1234ABCD

    @given(values=st.lists(st.integers(-32768, 32767), min_size=1, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_s16_round_trip(self, values):
        mem = Memory()
        addr = mem.alloc(2 * len(values))
        for i, v in enumerate(values):
            mem.write_s16(addr + 2 * i, v)
        got = [mem.read_s16(addr + 2 * i) for i in range(len(values))]
        assert got == values

    def test_s32_round_trip(self):
        mem = Memory()
        addr = mem.alloc(4)
        mem.write_s32(addr, -123456789)
        assert mem.read_s32(addr) == -123456789

    def test_read_as_dtype(self):
        mem = Memory()
        data = np.array([100, -200, 300], np.int32)
        addr = mem.alloc_array(data)
        assert np.array_equal(mem.read_as(addr, "<i4", 3), data)


class TestRows:
    def test_unit_stride_rows(self):
        mem = Memory()
        data = np.arange(64, dtype=np.uint8).reshape(8, 8)
        addr = mem.alloc_array(data)
        got = mem.read_rows(addr, 8, 8, 8)
        assert np.array_equal(got, data)

    def test_strided_rows(self):
        mem = Memory()
        data = np.arange(80, dtype=np.uint8).reshape(8, 10)
        addr = mem.alloc_array(data)
        got = mem.read_rows(addr, 8, 4, 10)
        assert np.array_equal(got, data[:, :4])

    def test_write_rows_strided(self):
        mem = Memory()
        addr = mem.alloc(100)
        rows = np.arange(12, dtype=np.uint8).reshape(3, 4)
        mem.write_rows(addr, rows, stride=10)
        for r in range(3):
            assert np.array_equal(mem.read(addr + 10 * r, 4), rows[r])

    def test_overlapping_write_rows_later_wins(self):
        mem = Memory()
        addr = mem.alloc(64)
        rows = np.array([[1, 1, 1, 1], [2, 2, 2, 2]], np.uint8)
        mem.write_rows(addr, rows, stride=2)
        assert mem.read(addr, 6).tolist() == [1, 1, 2, 2, 2, 2]

    def test_rows_bounds_check(self):
        mem = Memory(size=256)
        with pytest.raises(MemoryError_):
            mem.read_rows(200, 8, 8, 16)


class TestPlane:
    """The byte plane is a zeroed private mapping of its own."""

    def test_zeroed_writable_and_independent(self):
        a, b = Memory(), Memory()
        assert a.buf.shape == (a.size,) and a.buf.dtype == np.uint8
        assert not a.buf.any()
        a.write_u8(4096, 7)
        assert a.read_u8(4096) == 7
        assert b.read_u8(4096) == 0

    def test_batch_planes_zeroed_and_independent(self):
        batch = BatchMemory(3, size=1 << 16)
        assert batch.buf.shape == (3, 1 << 16)
        assert not batch.buf.any()
        batch.plane(1).write_u8(100, 9)
        assert batch.buf[:, 100].tolist() == [0, 9, 0]
        assert not BatchMemory(3, size=1 << 16).buf.any()

    def test_forked_child_writes_stay_private(self):
        """A child forked while a plane is alive cannot write into it.

        Runs in a subprocess: forking the pytest process itself, whose
        other threads may be running, warns on Python 3.12 (an error
        under ``-W error``).  A shared mapping fails this test.
        """
        script = textwrap.dedent(
            """
            import os
            from repro.emu.batch import BatchMemory
            from repro.emu.memory import Memory

            mem, batch = Memory(), BatchMemory(2, size=1 << 16)
            pid = os.fork()
            if pid == 0:
                mem.buf[4096] = 1
                batch.buf[1, 4096] = 1
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            print(int(mem.buf[4096]), int(batch.buf[1, 4096]))
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.split()
        assert out == ["0", "0"]
