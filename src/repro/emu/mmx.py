"""1-dimensional SIMD emulation machines: MMX64 and MMX128.

``MMXMachine(width=8)`` models the paper's MMX64 (Intel MMX-like, 64-bit
registers); ``width=16`` models MMX128 (Intel SSE2-like, 128-bit
registers).  All packed intrinsics are classified as vector arithmetic /
vector memory, matching the dynamic-instruction taxonomy of Fig. 7.

The functional semantics delegate to :mod:`repro.isa.subword`; every
intrinsic additionally appends one dynamic instruction to the columnar
trace builder for the timing model.  A register keeps the lanes its
producer computed (:class:`~repro.emu.handles.VReg`), and the next
intrinsic views them in the lane type it needs.  As on the scalar
machine, the hot intrinsics view their lanes, check their payload and
memory bounds and append their record in their own frame, generic over
the handle class and leading (seed) axes.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np

from repro.emu.handles import SReg, VReg
from repro.emu.memory import Memory, MemoryError_
from repro.emu.scalar import Operand, ScalarMachine
from repro.isa import opcodes as op
from repro.isa import subword as sw
from repro.isa.trace import Trace, record
from repro.machines.spec import SimdGeometry

_STORAGE = sw.STORAGE
_U8, _S8 = _STORAGE["u8"], _STORAGE["s8"]
_U16, _S16, _S32 = _STORAGE["u16"], _STORAGE["s16"], _STORAGE["s32"]

_ZERO, _CONST = record(op.PXOR, 0, 1), record(op.PCONST, 0, 1)
_UNPACK_LO, _UNPACK_HI = record(op.PUNPCKLBW, 1, 1), record(op.PUNPCKHBW, 1, 1)
_PACKUS, _PACKSS = record(op.PACKUSWB, 2, 1), record(op.PACKSSDW, 2, 1)
_PUNPCKL, _PUNPCKH = record(op.PUNPCKL, 2, 1), record(op.PUNPCKH, 2, 1)
_PSHUFW, _PSHUFB = record(op.PSHUFW, 1, 1), record(op.PSHUFB, 1, 1)
_PMULR, _PSADBW = record(op.PMULR, 2, 1), record(op.PSADBW, 2, 1)
_PSUMABS, _HSUM, _HSUM_D = (
    record(op.PSUMABS, 1, 1), record(op.HSUM, 1, 1), record(op.HSUM_D, 1, 1),
)
_MOVD = record(op.MOVD, 1, 1)


def _binary(opcode: int, fn, dtype: str):
    """A two-register intrinsic: ``fn`` of both registers' ``dtype`` lanes."""
    rec = record(opcode, 2, 1)
    lane = _STORAGE[dtype]

    def intrinsic(self, a: VReg, b: VReg) -> VReg:
        x = a.data if a.data.dtype is lane else a.data.view(lane)
        y = b.data if b.data.dtype is lane else b.data.view(lane)
        out = fn(x, y)
        if out.ndim != x.ndim:  # pmaddwd pairs the lanes of a batch flat
            out = out.reshape(x.shape[:-1] + (-1,))
        if out.nbytes != self._vbytes:
            raise self._payload_error(out)
        dst = self._new_id()
        self._put(rec)
        self._put_ids((a.rid, b.rid, dst))
        return self._VReg(dst, out)

    return intrinsic


def _saturable(opcode: int, wrap, sat_opcode: int, saturate):
    """``padd``/``psub``: ``wrap`` (or, with ``sat``, ``saturate``) of both
    registers' lanes of subword type ``dtype``."""
    records = (record(opcode, 2, 1), record(sat_opcode, 2, 1))

    def intrinsic(self, a: VReg, b: VReg, dtype: str = "s16", sat: bool = False) -> VReg:
        lane = _STORAGE[dtype]
        x = a.data if a.data.dtype is lane else a.data.view(lane)
        y = b.data if b.data.dtype is lane else b.data.view(lane)
        out = saturate(x, y, dtype) if sat else wrap(x, y, dtype)
        if out.nbytes != self._vbytes:
            raise self._payload_error(out)
        dst = self._new_id()
        self._put(records[1] if sat else records[0])
        self._put_ids((a.rid, b.rid, dst))
        return self._VReg(dst, out)

    return intrinsic


def _shift(opcode: int, fn, default: str):
    """A shift of every ``dtype`` lane by an immediate ``count``."""
    rec = record(opcode, 1, 1)

    def intrinsic(self, a: VReg, count: int, dtype: str = default) -> VReg:
        lane = _STORAGE[dtype]
        x = a.data if a.data.dtype is lane else a.data.view(lane)
        out = fn(x, count, dtype)
        if out.nbytes != self._vbytes:
            raise self._payload_error(out)
        dst = self._new_id()
        self._put(rec)
        self._put_ids((a.rid, dst))
        return self._VReg(dst, out)

    return intrinsic


class MMXMachine(ScalarMachine):
    """A superscalar core with a 1-D SIMD extension.

    The register geometry comes from a
    :class:`~repro.machines.SimdGeometry` (``geometry=``); the legacy
    ``width=`` byte count remains accepted and is converted to an
    equivalent geometry.  Any positive power-of-two row width emulates
    -- which program idioms a width supports is the kernels' business.
    """

    #: The handle class of a SIMD register.
    _VReg = VReg

    def __init__(
        self,
        mem: Memory,
        trace: Optional[Trace] = None,
        width: Optional[int] = None,
        geometry: Optional[SimdGeometry] = None,
    ) -> None:
        if geometry is not None and width is not None and width != geometry.row_bytes:
            raise ValueError(
                f"width={width} contradicts geometry.row_bytes={geometry.row_bytes}"
            )
        if geometry is None:
            row_bytes = 8 if width is None else width
            geometry = SimdGeometry(
                row_bytes=row_bytes, lanes=1, max_vl=1,
                logical_regs=32, matrix=False,
            )
        if geometry.matrix:
            raise ValueError("MMXMachine needs a 1-D (non-matrix) geometry")
        row = geometry.row_bytes
        if row < 8 or row & (row - 1):
            raise ValueError(
                f"MMX register width must be a power of two >= 8 bytes, got {row}"
            )
        super().__init__(mem, trace)
        self.geometry = geometry
        self.width = geometry.row_bytes
        # A register's bytes, leading (seed) axes included.
        self._vshape = self._lead + (self.width,)
        self._vbytes = self.width * math.prod(self._lead)

    @property
    def isa_name(self) -> str:
        return f"mmx{8 * self.width}"

    # -- plumbing ----------------------------------------------------------

    def _payload_error(self, data: np.ndarray) -> ValueError:
        got = data.nbytes * self.width // self._vbytes
        return ValueError(f"register payload must be {self.width} bytes, got {got}")

    def _result(self, rec, srcs, data: np.ndarray) -> VReg:
        """A new register of freshly computed lanes ``data``, uncopied,
        recorded as ``rec``'s destination after the ``srcs`` ids.

        Every caller hands in a contiguous array no one else can write;
        :meth:`const`, the one intrinsic given caller data, copies it.
        """
        if data.nbytes != self._vbytes:
            raise self._payload_error(data)
        dst = self._new_id()
        self._put(rec)
        self._put_ids(srcs + (dst,))
        return self._VReg(dst, data)

    # -- SIMD memory -------------------------------------------------------

    def load(self, addr: Operand, offset: int = 0) -> VReg:
        """``MOVQ/MOVDQU`` load of one full register from memory."""
        if isinstance(addr, SReg):
            ea, srcs = addr.val, (addr.rid,)
        else:
            ea, srcs = addr, ()
        if type(ea) is not int:
            ea = self._uniform(ea, "effective address")
        ea += offset
        end = ea + self.width
        if ea < 0 or end > self._size:
            raise MemoryError_(f"access [{ea}, {end}) out of range")
        dst = self._new_id()
        self._put((op.VLD, ea, self.width, 1, 0, 0, False, len(srcs), 1))
        self._put_ids(srcs + (dst,))
        return self._VReg(dst, self._buf[..., ea:end].copy())

    def store(self, v: VReg, addr: Operand, offset: int = 0) -> None:
        """``MOVQ/MOVDQU`` store of one full register to memory."""
        if isinstance(addr, SReg):
            ea, srcs = addr.val, (v.rid, addr.rid)
        else:
            ea, srcs = addr, (v.rid,)
        if type(ea) is not int:
            ea = self._uniform(ea, "effective address")
        ea += offset
        end = ea + self.width
        if ea < 0 or end > self._size:
            raise MemoryError_(f"access [{ea}, {end}) out of range")
        self._buf[..., ea:end] = v.data.view(_U8)
        self._put((op.VST, ea, self.width, 1, 0, 0, False, len(srcs), 0))
        self._put_ids(srcs)

    def load_low(self, addr: Operand, nbytes: int, offset: int = 0) -> VReg:
        """Partial load (``MOVD``/``MOVQ`` low half), zero-extending."""
        ea, srcs = self._operand(addr, offset)
        data = np.zeros(self._vshape, dtype=np.uint8)
        data[..., :nbytes] = self.mem.read(ea, nbytes)
        return self._result((op.VLD_P, ea, nbytes, 1, 0, 0, False, len(srcs), 1), srcs, data)

    def store_low(self, v: VReg, addr: Operand, nbytes: int, offset: int = 0) -> None:
        """Partial store of the low ``nbytes`` of a register."""
        ea, srcs = self._operand(addr, offset, (v.rid,))
        self.mem.write(ea, v.view(_U8)[..., :nbytes])
        self._put((op.VST_P, ea, nbytes, 1, 0, 0, False, len(srcs), 0))
        self._put_ids(srcs)

    # -- packed arithmetic ---------------------------------------------------

    def zero(self) -> VReg:
        """``PXOR reg, reg`` idiom producing an all-zero register."""
        return self._result(_ZERO, (), np.zeros(self._vshape, dtype=np.uint8))

    def const(self, values: np.ndarray, dtype: str = "s16") -> VReg:
        """Materialise a packed constant (modelled as one ALU op).

        Real code keeps constants in memory or builds them with shifts; one
        instruction is a fair charge for an amortised constant set-up.
        The lanes are copied: ``values`` belongs to the caller.
        """
        data = np.asarray(values, dtype=_STORAGE[dtype]).reshape(-1)
        return self._result(_CONST, (), np.broadcast_to(data, self._lead + data.shape).copy())

    padd = _saturable(op.PADD, sw.add_wrap, op.PADDS, sw.add_sat)
    psub = _saturable(op.PSUB, sw.sub_wrap, op.PSUBS, sw.sub_sat)
    pmullw = _binary(op.PMULLW, functools.partial(sw.mul_lo, dtype="s16"), "s16")
    pmulhw = _binary(op.PMULHW, sw.mul_hi_s16, "s16")
    pmaddwd = _binary(op.PMADDWD, sw.madd_s16, "s16")
    pavgb = _binary(op.PAVGB, sw.avg_round_u8, "u8")
    pand = _binary(op.PAND, np.bitwise_and, "u8")
    por = _binary(op.POR, np.bitwise_or, "u8")
    pxor = _binary(op.PXOR, np.bitwise_xor, "u8")
    psll = _shift(op.PSLL, sw.shift_left, "s16")
    psrl = _shift(op.PSRL, sw.shift_right_logical, "u16")
    psra = _shift(op.PSRA, sw.shift_right_arith, "s16")

    # -- pack / unpack -------------------------------------------------------

    def packus(self, a: VReg, b: VReg, src_dtype: str = "s16") -> VReg:
        """``PACKUSWB``: saturate two s16 registers into one u8 register."""
        lane = _STORAGE[src_dtype]
        x = a.data if a.data.dtype is lane else a.data.view(lane)
        y = b.data if b.data.dtype is lane else b.data.view(lane)
        out = sw.saturate(np.concatenate((x, y), axis=-1)[..., : self.width], "u8")
        if out.nbytes != self._vbytes:
            raise self._payload_error(out)
        dst = self._new_id()
        self._put(_PACKUS)
        self._put_ids((a.rid, b.rid, dst))
        return self._VReg(dst, out)

    def packss(self, a: VReg, b: VReg) -> VReg:
        """``PACKSSDW``: saturate two s32 registers into one s16 register."""
        merged = np.concatenate((a.view(_S32), b.view(_S32)), axis=-1)
        return self._result(_PACKSS, (a.rid, b.rid), sw.saturate(merged, "s16"))

    def punpcklo(self, a: VReg, b: VReg, dtype: str = "u8") -> VReg:
        lane = _STORAGE[dtype]
        out = sw.interleave_lo(a.view(lane), b.view(lane))
        return self._result(_PUNPCKL, (a.rid, b.rid), out)

    def punpckhi(self, a: VReg, b: VReg, dtype: str = "u8") -> VReg:
        lane = _STORAGE[dtype]
        out = sw.interleave_hi(a.view(lane), b.view(lane))
        return self._result(_PUNPCKH, (a.rid, b.rid), out)

    def unpack_u8_to_u16_lo(self, a: VReg) -> VReg:
        """Zero-extend the low half bytes to 16-bit lanes (punpcklbw w/ zero)."""
        x = a.data if a.data.dtype is _U8 else a.data.view(_U8)
        out = x[..., : self.width // 2].astype(np.uint16)
        dst = self._new_id()
        self._put(_UNPACK_LO)
        self._put_ids((a.rid, dst))
        return self._VReg(dst, out)

    def unpack_u8_to_u16_hi(self, a: VReg) -> VReg:
        """Zero-extend the high half bytes to 16-bit lanes (punpckhbw w/ zero)."""
        x = a.data if a.data.dtype is _U8 else a.data.view(_U8)
        out = x[..., self.width // 2 :].astype(np.uint16)
        dst = self._new_id()
        self._put(_UNPACK_HI)
        self._put_ids((a.rid, dst))
        return self._VReg(dst, out)

    def pshufw(self, a: VReg, order, dtype: str = "s16") -> VReg:
        """``PSHUFW/PSHUFD``: permute lanes by index list."""
        out = a.view(_STORAGE[dtype])[..., list(order)]
        return self._result(_PSHUFW, (a.rid,), out)

    def pshufb(self, a: VReg, indices) -> VReg:
        """Byte permute (Altivec ``vperm`` / VIS-style): one source byte
        index per lane; -1 selects zero."""
        x = a.data if a.data.dtype is _U8 else a.data.view(_U8)
        select = np.array(indices, dtype=np.intp)
        out = x.take(select, axis=-1) * (select >= 0)
        if out.nbytes != self._vbytes:
            raise self._payload_error(out)
        dst = self._new_id()
        self._put(_PSHUFB)
        self._put_ids((a.rid, dst))
        return self._VReg(dst, out)

    def pmulr_q15(self, a: VReg, b: VReg) -> VReg:
        """``PMULHRSW``-style rounded Q15 multiply: ``sat16((a*b + 2^14) >> 15)``."""
        wide = a.view(_S16).astype(np.int64) * b.view(_S16).astype(np.int64)
        out = sw.saturate((wide + (1 << 14)) >> 15, "s16")
        return self._result(_PMULR, (a.rid, b.rid), out)

    # -- reductions and transfers -------------------------------------------

    def _lane0(self, total: np.ndarray, dtype) -> np.ndarray:
        """A register of ``dtype`` lanes holding ``total`` in lane 0."""
        out = np.zeros(self._lead + (self.width // dtype.itemsize,), dtype=dtype)
        out[..., 0] = total
        return out

    def psumabs_s8(self, a: VReg) -> VReg:
        """Sum of absolute signed bytes into lane 0 (the paper's ``Sum(|x|)``)."""
        total = np.abs(a.view(_S8).astype(np.int64)).sum(axis=-1)
        return self._result(_PSUMABS, (a.rid,), self._lane0(total & 0xFFFF, _U16))

    def psadbw(self, a: VReg, b: VReg) -> VReg:
        """``PSADBW`` (SSE): per-64-bit-group sum of absolute differences."""
        diff = a.view(_U8).astype(np.int64) - b.view(_U8).astype(np.int64)
        sads = np.abs(diff).reshape(self._lead + (-1, 8)).sum(axis=-1)
        out = np.zeros(self._lead + (self.width // 2,), dtype=np.uint16)
        out[..., 0::4] = sads & 0xFFFF
        return self._result(_PSADBW, (a.rid, b.rid), out)

    def hsum_u16(self, a: VReg) -> VReg:
        """Horizontal add of all 16-bit lanes into lane 0 (tree of paddw)."""
        total = a.view(_U16).astype(np.int64).sum(axis=-1)
        return self._result(_HSUM, (a.rid,), self._lane0(total & 0xFFFF, _U16))

    def hsum_s32(self, a: VReg) -> VReg:
        """Horizontal add of all 32-bit lanes into lane 0."""
        total = a.view(_S32).astype(np.int64).sum(axis=-1)
        return self._result(_HSUM_D, (a.rid,), self._lane0(sw.wrap(total, "s32"), _S32))

    def movd_to_scalar(self, a: VReg, dtype: str = "u16", lane: int = 0) -> SReg:
        """Transfer one lane to the scalar register file (``MOVD``/``PEXTRW``)."""
        value = self._to_value(a.view(_STORAGE[dtype])[..., lane])
        dst = self._new_id()
        self._put(_MOVD)
        self._put_ids((a.rid, dst))
        return self._SReg(dst, value)

    def movd_from_scalar(self, s: Operand, dtype: str = "s16") -> VReg:
        """Broadcast a scalar into all lanes (``MOVD`` + shuffle, one op)."""
        lanes = self.width // sw.WIDTH[dtype]
        srcs = (s.rid,) if isinstance(s, SReg) else ()
        data = np.full(lanes, self.value(s), dtype=_STORAGE[dtype])
        return self._result(record(op.MOVD_B, len(srcs), 1), srcs, data)
