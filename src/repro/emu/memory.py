"""Flat byte-addressable memory for the emulation machines.

Workload generators allocate arrays here, kernels read and write through
machine intrinsics, and the timing model sees the resulting effective
addresses.  A simple bump allocator hands out aligned regions; there is no
deallocation because every kernel/application run uses a fresh
:class:`Memory`.
"""

from __future__ import annotations

import mmap

import numpy as np


class MemoryError_(Exception):
    """Raised on out-of-range accesses or allocation failures."""


def zeroed_plane(nbytes: int) -> np.ndarray:
    """A writable, zero-filled uint8 buffer of ``nbytes``.

    It comes from an anonymous private mapping of its own, not from the
    allocator: the pages are committed only when written, and freeing
    the buffer unmaps them, so a 16 MiB address space neither raises
    glibc's dynamic mmap threshold nor leaves freed heap resident.
    The mapping is private (copy-on-write), so a worker process forked
    while a buffer is alive cannot write into the parent's pages.
    """
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE), dtype=np.uint8)


class AddressSpace:
    """Bounds-checked byte access to ``buf``, whose last axis is the
    address: a flat space, or one row per seed of a batch, read and
    written at one address in every row (:mod:`repro.emu.batch`)."""

    size: int
    buf: np.ndarray

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(f"access [{addr}, {addr + nbytes}) out of range")

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` as a uint8 copy."""
        self._check(addr, nbytes)
        return self.buf[..., addr : addr + nbytes].copy()

    def write(self, addr: int, data: np.ndarray) -> None:
        """Write an array (any integer dtype) as raw bytes."""
        flat = np.ascontiguousarray(data).view(np.uint8)
        flat = flat.reshape(self.buf.shape[:-1] + (-1,))
        self._check(addr, flat.shape[-1])
        self.buf[..., addr : addr + flat.shape[-1]] = flat

    def _rows(self, addr: int, rows: int, row_bytes: int, stride: int) -> np.ndarray:
        """A view of ``rows`` rows of ``row_bytes`` bytes ``stride`` apart
        from ``addr`` (behind any leading axes of ``buf``), every row
        bounds-checked: the rows are evenly spaced, so the first and the
        last bound them all, and a row outside raises as :meth:`read`."""
        last = addr + stride * (rows - 1)
        if rows and (min(addr, last) < 0 or max(addr, last) + row_bytes > self.size):
            for r in range(rows):
                self._check(addr + r * stride, row_bytes)
        buf = self.buf
        return np.ndarray(
            buf.shape[:-1] + (rows, row_bytes), np.uint8, buf, addr,
            buf.strides[:-1] + (stride, 1),
        )

    def read_rows(self, addr: int, rows: int, row_bytes: int, stride: int) -> np.ndarray:
        """Read a (rows, row_bytes) matrix whose rows are ``stride`` apart."""
        return self._rows(addr, rows, row_bytes, stride).copy()

    def write_rows(self, addr: int, data: np.ndarray, stride: int) -> None:
        """Write a (rows, row_bytes) matrix with ``stride`` bytes between rows."""
        rows, row_bytes = data.shape[-2:]
        view = self._rows(addr, rows, row_bytes, stride)
        if rows > 1 and abs(stride) < row_bytes:
            # Overlapping rows: each row lands after the one before.
            for r in range(rows):
                view[..., r, :] = data[..., r, :]
        else:
            view[...] = data


class Memory(AddressSpace):
    """A flat little-endian address space backed by a numpy byte buffer."""

    def __init__(self, size: int = 1 << 24) -> None:
        self.size = size
        self.buf = zeroed_plane(size)
        self._brk = 64  # keep address 0 invalid

    def alloc(self, nbytes: int, align: int = 64) -> int:
        """Reserve ``nbytes`` and return the base address."""
        base = (self._brk + align - 1) // align * align
        if base + nbytes > self.size:
            raise MemoryError_(f"out of simulated memory ({self.size} bytes)")
        self._brk = base + nbytes
        return base

    def alloc_array(self, arr: np.ndarray, align: int = 64) -> int:
        """Allocate space for ``arr``, copy it in, and return its address."""
        flat = np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
        addr = self.alloc(flat.nbytes, align)
        self.buf[addr : addr + flat.nbytes] = flat
        return addr

    def read_as(self, addr: int, dtype: str, count: int) -> np.ndarray:
        """Read ``count`` elements of numpy dtype string (e.g. ``'<i2'``)."""
        dt = np.dtype(dtype)
        raw = self.read(addr, dt.itemsize * count)
        return raw.view(dt).copy()

    # Convenience scalar accessors (little-endian) -------------------------

    def read_u8(self, addr: int) -> int:
        self._check(addr, 1)
        return int(self.buf[addr])

    def write_u8(self, addr: int, value: int) -> None:
        self._check(addr, 1)
        self.buf[addr] = value & 0xFF

    def read_s16(self, addr: int) -> int:
        return int(self.read(addr, 2).view(np.int16)[0])

    def write_s16(self, addr: int, value: int) -> None:
        self.write(addr, np.array([value], dtype=np.int16))

    def read_s32(self, addr: int) -> int:
        return int(self.read(addr, 4).view(np.int32)[0])

    def write_s32(self, addr: int, value: int) -> None:
        self.write(addr, np.array([value], dtype=np.int32))
