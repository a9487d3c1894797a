"""NumPy-vectorised batch emulation: many seeds of one kernel per pass.

The record-at-a-time machines in :mod:`repro.emu.scalar`/``mmx``/``vmmx``
pay full Python interpreter cost per dynamic instruction *per seed*.  The
batch machines here subclass them and widen every architectural value by
one leading *seed axis* (structure-of-arrays, seed-major):

* a scalar register holds a ``(B,)`` int64 array,
* a 1-D SIMD register holds ``(B, lanes)`` lanes, ``row_bytes`` per
  seed, in its producer's dtype (as :class:`~repro.emu.handles.VReg`),
* a matrix register holds ``(B, max_vl, row_bytes)`` bytes,
* memory is one ``(B, size)`` byte plane per batch
  (:class:`BatchMemory`), each seed's workload living in its own
  :class:`PlaneMemory` row.

Running a kernel version function once on a batch machine then emulates
all ``B`` seeds simultaneously: the per-instruction Python cost is paid
once and the arithmetic runs as one NumPy op across the seed axis.  The
instruction *stream* -- mnemonics, SSA ids, addresses, branch outcomes --
must be identical across the batch for this to be sound; wherever a
per-seed value would steer control flow or addressing, the machines
demand uniformity and raise :class:`BatchDivergence` otherwise, and
:func:`repro.kernels.base.execute_batch` falls back to the
record-at-a-time reference for the whole batch.  The reference machines
therefore remain the differential oracle, reachable unconditionally via
``REPRO_EMU_REFERENCE=1`` (mirroring ``REPRO_TIMING_REFERENCE`` from the
timing layer); the differential suite asserts byte-identical
:class:`~repro.isa.trace.ColumnarTrace` digests between the two paths.

NumPy int64 arithmetic wraps with two's-complement semantics, matching
the reference machines' explicit ``_mask64``; the subword helpers in
:mod:`repro.isa.subword` are element-wise and shape-generic (they
compute in the lanes' storage type, or int32/uint16 where a lane result
needs headroom, and are differential-tested against int64 formulas on
``(B, n)`` batches), so element-wise intrinsics inherit unchanged.  Only
intrinsics whose reference implementation reduces, reshapes or indexes
along what is now the seed axis are overridden here.
"""

from __future__ import annotations

import os
from typing import Optional, Union

import numpy as np

from repro.emu.handles import AccReg, MAccReg, MReg, SReg, VReg
from repro.emu.memory import Memory, MemoryError_, zeroed_plane
from repro.emu.mmx import MMXMachine
from repro.emu.scalar import Operand, ScalarMachine, _mask64
from repro.emu.vmmx import VMMXMachine
from repro.isa import opcodes as op
from repro.isa import subword as sw
from repro.isa.trace import Trace

#: Routes every batched execution through the record-at-a-time reference
#: machines when set to ``1`` (the differential-debugging escape hatch).
REFERENCE_ENV = "REPRO_EMU_REFERENCE"


def batch_enabled() -> bool:
    """Whether batched emulation may be used (the env gate is off)."""
    return os.environ.get(REFERENCE_ENV, "") != "1"


class BatchDivergence(Exception):
    """Per-seed values disagree where the batch needs one uniform value.

    Raised when a batched register value steers control flow, addressing
    or vector configuration (``int(reg)``, branch outcomes, effective
    addresses, ``setvl``) and differs across the seed axis -- the batch
    can no longer share one instruction stream, and the caller must fall
    back to record-at-a-time emulation.
    """


def _uniform(arr: np.ndarray, what: str):
    """The single value of ``arr`` across the seed axis, or raise."""
    first = arr.flat[0]
    if not (arr == first).all():
        raise BatchDivergence(f"{what} diverges across the seed batch")
    return first


# ---------------------------------------------------------------------------
# Batched register handles (isinstance-compatible with the reference ones)
# ---------------------------------------------------------------------------


class BatchSReg(SReg):
    """A scalar register carrying one int64 value per seed."""

    __slots__ = ()

    def __int__(self) -> int:
        return int(_uniform(self.val, "scalar register value"))


class BatchVReg(VReg):
    """A 1-D SIMD register: (nseeds, lanes) lanes, row_bytes per seed."""

    __slots__ = ()


class BatchMReg(MReg):
    """A matrix register: (nseeds, max_vl, row_bytes) bytes."""

    __slots__ = ()


class BatchAccReg(AccReg):
    """A packed reduction accumulator: (nseeds,) int64 running totals."""

    __slots__ = ()


class BatchMAccReg(MAccReg):
    """A matrix MAC accumulator: (nseeds, max_vl, cols) int64 lanes."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Seed-major batch memory
# ---------------------------------------------------------------------------


class BatchMemory:
    """``nseeds`` flat address spaces sharing one (nseeds, size) buffer.

    Allocation happens per seed through :meth:`plane` views (so workload
    generators run unmodified); the batch machines access all planes at
    one uniform address per instruction.  The buffer is one anonymous
    private mapping (:func:`~repro.emu.memory.zeroed_plane`), so the
    pages of the mostly-untouched 16 MiB planes are never committed.
    """

    def __init__(self, nseeds: int, size: int = 1 << 24) -> None:
        if nseeds < 1:
            raise ValueError(f"batch needs at least one seed, got {nseeds}")
        self.nseeds = nseeds
        self.size = size
        self.buf = zeroed_plane(nseeds * size).reshape(nseeds, size)

    def plane(self, index: int) -> "PlaneMemory":
        """Seed ``index``'s address space as an ordinary :class:`Memory`."""
        return PlaneMemory(self, index)

    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(f"access [{addr}, {addr + nbytes}) out of range")

    def read(self, addr: int, nbytes: int) -> np.ndarray:
        """Read ``nbytes`` at one address from every plane: (nseeds, nbytes)."""
        self._check(addr, nbytes)
        return self.buf[:, addr: addr + nbytes].copy()

    def write(self, addr: int, data: np.ndarray) -> None:
        """Write (nseeds, nbytes) bytes at one address into every plane."""
        flat = np.ascontiguousarray(data).view(np.uint8).reshape(self.nseeds, -1)
        self._check(addr, flat.shape[1])
        self.buf[:, addr: addr + flat.shape[1]] = flat

    def read_rows(self, addr: int, rows: int, row_bytes: int, stride: int) -> np.ndarray:
        """Strided row read from every plane: (nseeds, rows, row_bytes)."""
        out = np.empty((self.nseeds, rows, row_bytes), dtype=np.uint8)
        for r in range(rows):
            base = addr + r * stride
            self._check(base, row_bytes)
            out[:, r] = self.buf[:, base: base + row_bytes]
        return out

    def write_rows(self, addr: int, data: np.ndarray, stride: int) -> None:
        """Strided row write into every plane from (nseeds, rows, row_bytes)."""
        rows, row_bytes = data.shape[1], data.shape[2]
        for r in range(rows):
            base = addr + r * stride
            self._check(base, row_bytes)
            self.buf[:, base: base + row_bytes] = data[:, r]


class PlaneMemory(Memory):
    """One seed's slice of a :class:`BatchMemory` as a normal :class:`Memory`.

    Workload makers and output readers use this unmodified: ``buf`` is a
    view of the batch buffer's row, so writes land where the batch
    machines will read them.  Allocations are logged so
    :func:`repro.kernels.base.execute_batch` can prove every seed got an
    identical address-space layout before sharing one instruction stream.
    """

    def __init__(self, batch: BatchMemory, index: int) -> None:
        self.size = batch.size
        self.buf = batch.buf[index]
        self._brk = 64  # keep address 0 invalid, as in Memory
        self.allocs = []

    def alloc(self, nbytes: int, align: int = 64) -> int:
        base = super().alloc(nbytes, align)
        self.allocs.append((base, int(nbytes), int(align)))
        return base


# ---------------------------------------------------------------------------
# Scalar overrides shared by every batch machine
# ---------------------------------------------------------------------------


class _BatchScalarOps:
    """Seed-axis-aware overrides of the scalar intrinsics.

    Element-wise ALU intrinsics (``add``, ``mul``, shifts, bitwise,
    ``abs_``) inherit unchanged: they funnel through :meth:`_val` (which
    now yields ``(B,)`` arrays) and :meth:`_sreg` (which wraps them).
    Overridden here are only the operations that reduce to a Python
    scalar, index memory, or steer control flow.
    """

    @property
    def nseeds(self) -> int:
        return self.mem.nseeds

    @staticmethod
    def _val(x: Operand):
        return x.val if isinstance(x, SReg) else int(x)

    def _sreg(self, value) -> BatchSReg:
        if isinstance(value, (int, np.integer)):
            arr = np.full(self.nseeds, _mask64(int(value)), dtype=np.int64)
        else:
            arr = np.asarray(value, dtype=np.int64)
            if arr.shape != (self.nseeds,):
                arr = np.ascontiguousarray(
                    np.broadcast_to(arr, (self.nseeds,))
                )
        return BatchSReg(next(self._ids), arr)

    def _ea(self, addr: Operand, offset: int) -> int:
        """Uniform effective address (per-seed addressing cannot batch)."""
        base = self._val(addr)
        if isinstance(base, np.ndarray):
            base = _uniform(base, "effective address")
        return int(base) + offset

    # -- scalar ALU ops whose reference body reduces to Python scalars ----

    def min_(self, a: Operand, b: Operand) -> BatchSReg:
        return self._alu(op.MIN, a, b, np.minimum(self._val(a), self._val(b)))

    def max_(self, a: Operand, b: Operand) -> BatchSReg:
        return self._alu(op.MAX, a, b, np.maximum(self._val(a), self._val(b)))

    def cmplt(self, a: Operand, b: Operand) -> BatchSReg:
        return self._alu(
            op.CMPLT, a, b, np.less(self._val(a), self._val(b)).astype(np.int64)
        )

    # -- scalar memory ----------------------------------------------------

    def _load(self, opcode: int, addr: Operand, offset: int, nbytes: int, signed: bool) -> BatchSReg:
        ea = self._ea(addr, offset)
        raw = self.mem.read(ea, nbytes)  # (nseeds, nbytes)
        dt = np.dtype(f"<{'i' if signed else 'u'}{nbytes}")
        value = raw.view(dt).reshape(self.nseeds).astype(np.int64)
        dst = self._sreg(value)
        self._emit(opcode, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes)
        return dst

    def _store(self, opcode: int, value: Operand, addr: Operand, offset: int, nbytes: int) -> None:
        ea = self._ea(addr, offset)
        v = np.asarray(self._val(value), dtype=np.int64)
        if v.shape != (self.nseeds,):
            v = np.broadcast_to(v, (self.nseeds,))
        data = v.astype(np.dtype(f"<u{nbytes}")).view(np.uint8).reshape(self.nseeds, nbytes)
        self.mem.write(ea, data)
        self._emit(opcode, (), self._src_ids(value, addr), addr=ea, row_bytes=nbytes)

    # -- control ----------------------------------------------------------

    def branch(self, taken, *srcs: Operand, site: int = 0) -> None:
        if isinstance(taken, np.ndarray):
            taken = _uniform(taken, "branch outcome")
        super().branch(bool(taken), *srcs, site=site)


class BatchScalarMachine(_BatchScalarOps, ScalarMachine):
    """Batched counterpart of :class:`~repro.emu.scalar.ScalarMachine`."""

    def __init__(self, mem: BatchMemory, trace: Optional[Trace] = None) -> None:
        ScalarMachine.__init__(self, mem, trace)


# ---------------------------------------------------------------------------
# 1-D SIMD overrides
# ---------------------------------------------------------------------------


class _BatchMMXOps(_BatchScalarOps):
    """Seed-axis-aware overrides of the MMX intrinsics.

    Inherited unchanged: ``_binary`` (padd/psub/pavgb), ``pmullw``,
    ``pmulhw``, ``pmaddwd`` (its row-major pair reshape is seed-safe for
    even lane counts), the bitwise ops, the shifts and ``pmulr_q15`` --
    all element-wise through shape-generic subword helpers.
    """

    def _vreg(self, data: np.ndarray) -> BatchVReg:
        """Wrap freshly computed ``(nseeds, lanes)`` lanes, uncopied.

        As on the single-seed machine, every caller hands in a
        contiguous array no one else can write.
        """
        if data.ndim != 2 or data.shape[0] != self.nseeds:
            data = np.ascontiguousarray(data).reshape(self.nseeds, -1)
        if data.nbytes != self.nseeds * self.width:
            raise ValueError(
                f"register payload must be {self.width} bytes, "
                f"got {data.nbytes // self.nseeds}"
            )
        return BatchVReg(next(self._ids), data)

    # -- SIMD memory ------------------------------------------------------

    def load(self, addr: Operand, offset: int = 0) -> BatchVReg:
        ea = self._ea(addr, offset)
        dst = self._vreg(self.mem.read(ea, self.width))
        self._emit(op.VLD, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=self.width)
        return dst

    def store(self, v: VReg, addr: Operand, offset: int = 0) -> None:
        ea = self._ea(addr, offset)
        self.mem.write(ea, v.data)
        self._emit(
            op.VST, (), (v.rid,) + self._src_ids(addr), addr=ea, row_bytes=self.width,
        )

    def load_low(self, addr: Operand, nbytes: int, offset: int = 0) -> BatchVReg:
        ea = self._ea(addr, offset)
        data = np.zeros((self.nseeds, self.width), dtype=np.uint8)
        data[:, :nbytes] = self.mem.read(ea, nbytes)
        dst = self._vreg(data)
        self._emit(op.VLD_P, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes)
        return dst

    def store_low(self, v: VReg, addr: Operand, nbytes: int, offset: int = 0) -> None:
        ea = self._ea(addr, offset)
        self.mem.write(ea, v.view(sw.STORAGE["u8"])[:, :nbytes])
        self._emit(
            op.VST_P, (), (v.rid,) + self._src_ids(addr), addr=ea, row_bytes=nbytes,
        )

    # -- constants --------------------------------------------------------

    def zero(self) -> BatchVReg:
        dst = self._vreg(np.zeros((self.nseeds, self.width), dtype=np.uint8))
        return self._vemit(op.PXOR, dst)

    def const(self, values: np.ndarray, dtype: str = "s16") -> BatchVReg:
        data = np.array(values, dtype=sw.STORAGE[dtype])
        data = np.repeat(data[None], self.nseeds, axis=0)
        return self._vemit(op.PCONST, self._vreg(data))

    # -- pack / unpack (reference bodies index the lane axis) -------------

    def packus(self, a: VReg, b: VReg, src_dtype: str = "s16") -> BatchVReg:
        merged = np.concatenate(
            [a.view(sw.STORAGE[src_dtype]), b.view(sw.STORAGE[src_dtype])], axis=1
        )[:, : self.width]
        out = sw.saturate(merged, "u8")
        return self._vemit(op.PACKUSWB, self._vreg(out), a, b)

    def packss(self, a: VReg, b: VReg) -> BatchVReg:
        merged = np.concatenate([a.view(np.int32), b.view(np.int32)], axis=1)
        out = sw.saturate(merged, "s16")
        return self._vemit(op.PACKSSDW, self._vreg(out), a, b)

    def _interleave(self, a: VReg, b: VReg, dtype: str, lo: bool) -> np.ndarray:
        av = a.view(sw.STORAGE[dtype])
        bv = b.view(sw.STORAGE[dtype])
        half = av.shape[1] // 2
        sel = slice(0, half) if lo else slice(half, av.shape[1])
        out = np.empty_like(av)
        out[:, 0::2] = av[:, sel]
        out[:, 1::2] = bv[:, sel]
        return out

    def punpcklo(self, a: VReg, b: VReg, dtype: str = "u8") -> BatchVReg:
        out = self._interleave(a, b, dtype, lo=True)
        return self._vemit(op.PUNPCKL, self._vreg(out), a, b)

    def punpckhi(self, a: VReg, b: VReg, dtype: str = "u8") -> BatchVReg:
        out = self._interleave(a, b, dtype, lo=False)
        return self._vemit(op.PUNPCKH, self._vreg(out), a, b)

    def unpack_u8_to_u16_lo(self, a: VReg) -> BatchVReg:
        half = a.view(np.uint8)[:, : self.width // 2].astype(np.uint16)
        return self._vemit(op.PUNPCKLBW, self._vreg(half), a)

    def unpack_u8_to_u16_hi(self, a: VReg) -> BatchVReg:
        half = a.view(np.uint8)[:, self.width // 2:].astype(np.uint16)
        return self._vemit(op.PUNPCKHBW, self._vreg(half), a)

    def pshufw(self, a: VReg, order, dtype: str = "s16") -> BatchVReg:
        lanes = a.view(sw.STORAGE[dtype])
        out = lanes[:, list(order)]
        return self._vemit(op.PSHUFW, self._vreg(out), a)

    def pshufb(self, a: VReg, indices) -> BatchVReg:
        src = a.view(np.uint8)
        out = np.zeros((self.nseeds, self.width), dtype=np.uint8)
        for lane, idx in enumerate(indices):
            if idx >= 0:
                out[:, lane] = src[:, idx]
        return self._vemit(op.PSHUFB, self._vreg(out), a)

    # -- reductions and transfers (reference bodies reduce to one int) ----

    def psumabs_s8(self, a: VReg) -> BatchVReg:
        total = np.abs(a.view(np.int8).astype(np.int64)).sum(axis=1)
        out = np.zeros((self.nseeds, self.width // 2), dtype=np.uint16)
        out[:, 0] = total & 0xFFFF
        return self._vemit(op.PSUMABS, self._vreg(out), a)

    def psadbw(self, a: VReg, b: VReg) -> BatchVReg:
        groups = self.width // 8
        out = np.zeros((self.nseeds, self.width // 2), dtype=np.uint16)
        av = a.view(np.uint8).astype(np.int64)
        bv = b.view(np.uint8).astype(np.int64)
        for g in range(groups):
            sad = np.abs(av[:, 8 * g: 8 * g + 8] - bv[:, 8 * g: 8 * g + 8]).sum(axis=1)
            out[:, 4 * g] = sad & 0xFFFF
        return self._vemit(op.PSADBW, self._vreg(out), a, b)

    def hsum_u16(self, a: VReg) -> BatchVReg:
        total = a.view(np.uint16).astype(np.int64).sum(axis=1)
        out = np.zeros((self.nseeds, self.width // 2), dtype=np.uint16)
        out[:, 0] = total & 0xFFFF
        return self._vemit(op.HSUM, self._vreg(out), a)

    def hsum_s32(self, a: VReg) -> BatchVReg:
        total = a.view(np.int32).astype(np.int64).sum(axis=1)
        out = np.zeros((self.nseeds, self.width // 4), dtype=np.int32)
        out[:, 0] = sw.wrap(total, "s32")
        return self._vemit(op.HSUM_D, self._vreg(out), a)

    def movd_to_scalar(self, a: VReg, dtype: str = "u16", lane: int = 0) -> BatchSReg:
        value = a.view(sw.STORAGE[dtype])[:, lane].astype(np.int64)
        dst = self._sreg(value)
        self._emit(op.MOVD, (dst.rid,), (a.rid,))
        return dst

    def movd_from_scalar(self, s: Operand, dtype: str = "s16") -> BatchVReg:
        lanes = self.width // sw.WIDTH[dtype]
        v = np.asarray(self._val(s), dtype=np.int64).reshape(-1)
        if v.shape != (self.nseeds,):
            v = np.broadcast_to(v, (self.nseeds,))
        data = np.repeat(v.astype(sw.STORAGE[dtype])[:, None], lanes, axis=1)
        dst = self._vreg(data)
        self._emit(op.MOVD_B, (dst.rid,), self._src_ids(s))
        return dst


class BatchMMXMachine(_BatchMMXOps, MMXMachine):
    """Batched counterpart of :class:`~repro.emu.mmx.MMXMachine`."""


# ---------------------------------------------------------------------------
# 2-D (matrix) SIMD overrides
# ---------------------------------------------------------------------------


class _BatchVMMXOps(_BatchScalarOps):
    """Seed-axis-aware overrides of the VMMX intrinsics.

    Inherited unchanged: ``_binary`` (vadd/vsub/vmul_lo), ``vavg_u8``,
    ``vshift`` (element-wise through :meth:`_active`) and ``acc_read``
    (funnels through the batched ``_sreg``).
    """

    def _mreg(self, rows: np.ndarray) -> BatchMReg:
        data = np.zeros((self.nseeds, self.max_vl, self.row_bytes), dtype=np.uint8)
        rows = np.ascontiguousarray(rows).view(np.uint8).reshape(
            self.nseeds, -1, self.row_bytes
        )
        data[:, : rows.shape[1]] = rows
        return BatchMReg(next(self._ids), data)

    def _active(self, m: MReg, dtype: str) -> np.ndarray:
        return m.data[:, : self.vl].view(sw.STORAGE[dtype])

    def _pad_rows(self, rows: np.ndarray) -> np.ndarray:
        raw = np.ascontiguousarray(rows)
        nbytes = raw.view(np.uint8).reshape(self.nseeds, raw.shape[1], -1)
        if nbytes.shape[2] == self.row_bytes:
            return raw
        out = np.zeros((self.nseeds, raw.shape[1], self.row_bytes), dtype=np.uint8)
        out[:, :, : nbytes.shape[2]] = nbytes
        return out

    # -- vector control ---------------------------------------------------

    def setvl(self, length: Union[int, SReg]) -> None:
        value = self._val(length)
        if isinstance(value, np.ndarray):
            value = _uniform(value, "setvl length")
        value = int(value)
        if not 1 <= value <= self.max_vl:
            raise ValueError(f"vector length {value} outside [1, {self.max_vl}]")
        self.vl = value
        self._emit(op.SETVL, (), self._src_ids(length))

    # -- vector memory ----------------------------------------------------

    def _stride_val(self, stride, default: int) -> int:
        if stride is None:
            return default
        value = self._val(stride)
        if isinstance(value, np.ndarray):
            value = _uniform(value, "vector stride")
        return int(value)

    def vload(self, addr: Operand, stride=None, offset: int = 0) -> BatchMReg:
        ea = self._ea(addr, offset)
        stride_v = self._stride_val(stride, self.row_bytes)
        rows = self.mem.read_rows(ea, self.vl, self.row_bytes, stride_v)
        dst = self._mreg(rows)
        self._emit(
            op.VLD, (dst.rid,), self._src_ids(addr, stride if isinstance(stride, SReg) else 0),
            addr=ea, row_bytes=self.row_bytes, rows=self.vl, stride=stride_v,
        )
        return dst

    def vstore(self, m: MReg, addr: Operand, stride=None, offset: int = 0) -> None:
        ea = self._ea(addr, offset)
        stride_v = self._stride_val(stride, self.row_bytes)
        self.mem.write_rows(ea, m.data[:, : self.vl], stride_v)
        self._emit(
            op.VST, (), (m.rid,) + self._src_ids(addr, stride if isinstance(stride, SReg) else 0),
            addr=ea, row_bytes=self.row_bytes, rows=self.vl, stride=stride_v,
        )

    def vload_part(self, addr: Operand, nbytes: int, stride=None, offset: int = 0) -> BatchMReg:
        ea = self._ea(addr, offset)
        stride_v = self._stride_val(stride, nbytes)
        rows = np.zeros((self.nseeds, self.vl, self.row_bytes), dtype=np.uint8)
        rows[:, :, :nbytes] = self.mem.read_rows(ea, self.vl, nbytes, stride_v)
        dst = self._mreg(rows)
        self._emit(
            op.VLD_P, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes,
            rows=self.vl, stride=stride_v,
        )
        return dst

    def vstore_part(self, m: MReg, addr: Operand, nbytes: int, stride=None, offset: int = 0) -> None:
        ea = self._ea(addr, offset)
        stride_v = self._stride_val(stride, nbytes)
        self.mem.write_rows(ea, m.data[:, : self.vl, :nbytes], stride_v)
        self._emit(
            op.VST_P, (), (m.rid,) + self._src_ids(addr), addr=ea, row_bytes=nbytes,
            rows=self.vl, stride=stride_v,
        )

    # -- element-wise matrix arithmetic -----------------------------------

    def vzero(self) -> BatchMReg:
        dst = self._mreg(np.zeros((self.nseeds, self.vl, self.row_bytes), dtype=np.uint8))
        self._vemit(op.VXOR, (dst.rid,))
        return dst

    def vconst_rows(self, rows: np.ndarray, dtype: str = "s16") -> BatchMReg:
        data = np.asarray(rows, dtype=sw.STORAGE[dtype])
        data = np.broadcast_to(data, (self.nseeds,) + data.shape)
        dst = self._mreg(data)
        self._vemit(op.VCONST, (dst.rid,))
        return dst

    def vmul_round_q15(self, a: MReg, coeff: Operand) -> BatchMReg:
        lanes = self._active(a, "s16").astype(np.int64)
        c = np.asarray(self._val(coeff), dtype=np.int64)
        if c.ndim:
            c = c.reshape(self.nseeds, 1, 1)
        product = (lanes * c + (1 << 14)) >> 15
        out = sw.saturate(product, "s16")
        dst = self._mreg(out)
        self._vemit(op.VMULR_VS, (dst.rid,), a, coeff if isinstance(coeff, SReg) else a)
        return dst

    def vmadd_s16(self, a: MReg, b: MReg) -> BatchMReg:
        a_rows = self._active(a, "s16").astype(np.int64)
        b_rows = self._active(b, "s16").astype(np.int64)
        prod = a_rows * b_rows
        pairs = prod.reshape(self.nseeds, self.vl, -1, 2).sum(axis=3)
        out = sw.wrap(pairs, "s32")
        dst = self._mreg(out)
        self._vemit(op.VMADDWD, (dst.rid,), a, b)
        return dst

    def vinterleave(self, a: MReg, b: MReg, dtype: str = "u16", half: str = "lo") -> BatchMReg:
        a_rows = self._active(a, dtype)
        b_rows = self._active(b, dtype)
        lanes = a_rows.shape[2]
        sel = slice(0, lanes // 2) if half == "lo" else slice(lanes // 2, lanes)
        out = np.empty((self.nseeds, self.vl, lanes), dtype=a_rows.dtype)
        out[:, :, 0::2] = a_rows[:, :, sel]
        out[:, :, 1::2] = b_rows[:, :, sel]
        dst = self._mreg(out)
        self._vemit(op.VUNPCK_LO if half == "lo" else op.VUNPCK_HI, (dst.rid,), a, b)
        return dst

    def vpack_s32_to_s16(self, a: MReg, b: Optional[MReg] = None) -> BatchMReg:
        a_rows = self._active(a, "s32")
        if b is not None:
            b_rows = self._active(b, "s32")
            merged = np.concatenate([a_rows, b_rows], axis=2)
        else:
            merged = a_rows
        out = self._pad_rows(sw.saturate(merged, "s16"))
        dst = self._mreg(out)
        srcs = (a, b) if b is not None else (a,)
        self._vemit(op.VPACKSSDW, (dst.rid,), *srcs)
        return dst

    def vunpack_u8_to_u16(self, a: MReg, half: str = "lo") -> BatchMReg:
        rows = self._active(a, "u8")
        cols = self.row_bytes // 2
        sel = rows[:, :, :cols] if half == "lo" else rows[:, :, cols:]
        out = sel.astype(np.uint16)
        dst = self._mreg(out)
        self._vemit(op.VUNPCKLO if half == "lo" else op.VUNPCKHI, (dst.rid,), a)
        return dst

    def vpack_u16_to_u8(self, a: MReg, b: Optional[MReg] = None, sat: bool = True) -> BatchMReg:
        a_rows = self._active(a, "s16")
        if b is not None:
            b_rows = self._active(b, "s16")
            merged = np.concatenate([a_rows, b_rows], axis=2)
        else:
            merged = a_rows
        out = self._pad_rows(sw.saturate(merged, "u8") if sat else sw.wrap(merged, "u8"))
        dst = self._mreg(out)
        srcs = (a, b) if b is not None else (a,)
        self._vemit(op.VPACKUS, (dst.rid,), *srcs)
        return dst

    # -- packed reduction accumulators ------------------------------------

    def acc_zero(self) -> BatchAccReg:
        acc = BatchAccReg(next(self._ids), np.zeros(self.nseeds, dtype=np.int64))
        self._vemit(op.VACC_CLR, (acc.rid,), rows=1)
        return acc

    def vsad_acc(self, acc: AccReg, a: MReg, b: MReg) -> BatchAccReg:
        av = self._active(a, "u8").astype(np.int64)
        bv = self._active(b, "u8").astype(np.int64)
        total = np.abs(av - bv).sum(axis=(1, 2))
        out = BatchAccReg(next(self._ids), acc.total + total)
        self._vemit(op.VSAD_ACC, (out.rid,), acc, a, b)
        return out

    def vsqd_acc(self, acc: AccReg, a: MReg, b: MReg) -> BatchAccReg:
        av = self._active(a, "u8").astype(np.int64)
        bv = self._active(b, "u8").astype(np.int64)
        d = av - bv
        total = (d * d).sum(axis=(1, 2))
        out = BatchAccReg(next(self._ids), acc.total + total)
        self._vemit(op.VSQD_ACC, (out.rid,), acc, a, b)
        return out

    def vdot_acc(self, acc: AccReg, a: MReg, b: MReg, dtype: str = "s16") -> BatchAccReg:
        prod = self._active(a, dtype).astype(np.int64) * self._active(b, dtype).astype(np.int64)
        out = BatchAccReg(next(self._ids), acc.total + prod.sum(axis=(1, 2)))
        self._vemit(op.VDOT_ACC, (out.rid,), acc, a, b)
        return out

    # -- matrix multiply-accumulate ---------------------------------------

    def macc_zero(self, dtype: str = "s16") -> BatchMAccReg:
        macc = BatchMAccReg(
            next(self._ids),
            np.zeros((self.nseeds, self.max_vl, self._cols(dtype)), dtype=np.int64),
        )
        self._vemit(op.VMACC_CLR, (macc.rid,), rows=1)
        return macc

    def vmac_bcast(self, macc: MAccReg, a: MReg, col: int, b: MReg, row: int, dtype: str = "s16") -> BatchMAccReg:
        a_lanes = self._active(a, dtype).astype(np.int64)
        b_lanes = b.data.view(sw.STORAGE[dtype]).reshape(self.nseeds, self.max_vl, -1).astype(np.int64)
        parts = macc.parts.copy()
        parts[:, : self.vl] += a_lanes[:, :, col][:, :, None] * b_lanes[:, row][:, None, :]
        out = BatchMAccReg(next(self._ids), parts)
        self._vemit(op.VMAC_B, (out.rid,), macc, a, b)
        return out

    def vmac_elem(self, macc: MAccReg, a: MReg, b: MReg, dtype: str = "s16") -> BatchMAccReg:
        a_lanes = self._active(a, dtype).astype(np.int64)
        b_lanes = self._active(b, dtype).astype(np.int64)
        parts = macc.parts.copy()
        parts[:, : self.vl] += a_lanes * b_lanes
        out = BatchMAccReg(next(self._ids), parts)
        self._vemit(op.VMAC_E, (out.rid,), macc, a, b)
        return out

    def macc_pack_rs(self, macc: MAccReg, shift: int, dtype: str = "s16", sat: bool = True) -> BatchMReg:
        shifted = sw.round_shift(macc.parts[:, : self.vl], shift, "s32").astype(np.int64)
        packed = sw.saturate(shifted, dtype) if sat else sw.wrap(shifted, dtype)
        dst = self._mreg(packed)
        self._vemit(op.VMACC_PACK, (dst.rid,), macc)
        return dst

    # -- row extraction ----------------------------------------------------

    def vextract_row(self, m: MReg, row: int, dtype: str = "s16", lane: int = 0) -> BatchSReg:
        lanes = m.data.view(sw.STORAGE[dtype]).reshape(self.nseeds, self.max_vl, -1)
        value = lanes[:, row, lane].astype(np.int64)
        dst = self._sreg(value)
        self._emit(op.VEXT, (dst.rid,), (m.rid,))
        return dst


class BatchVMMXMachine(_BatchVMMXOps, VMMXMachine):
    """Batched counterpart of :class:`~repro.emu.vmmx.VMMXMachine`."""


def make_batch_machine(isa: str, mem: BatchMemory, trace: Optional[Trace] = None):
    """Batched analogue of :func:`repro.emu.make_machine`.

    Resolves the geometry through the machine registry exactly like the
    record-at-a-time factory, so a batch machine emits the same trace
    its reference counterpart would.
    """
    if isa == "scalar":
        return BatchScalarMachine(mem, trace)
    from repro.emu import program_geometry

    geometry = program_geometry(isa)
    cls = BatchVMMXMachine if geometry.matrix else BatchMMXMachine
    return cls(mem, trace, geometry=geometry)


__all__ = [
    "REFERENCE_ENV", "BatchAccReg", "BatchDivergence", "BatchMAccReg",
    "BatchMMXMachine", "BatchMReg", "BatchMemory", "BatchSReg",
    "BatchScalarMachine", "BatchVMMXMachine", "BatchVReg", "PlaneMemory",
    "batch_enabled", "make_batch_machine",
]
