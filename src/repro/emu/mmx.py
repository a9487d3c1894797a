"""1-dimensional SIMD emulation machines: MMX64 and MMX128.

``MMXMachine(width=8)`` models the paper's MMX64 (Intel MMX-like, 64-bit
registers); ``width=16`` models MMX128 (Intel SSE2-like, 128-bit
registers).  All packed intrinsics are classified as vector arithmetic /
vector memory, matching the dynamic-instruction taxonomy of Fig. 7.

The functional semantics delegate to :mod:`repro.isa.subword`; every
intrinsic additionally emits one dynamic instruction into the columnar
trace builder for the timing model.  A register keeps the lanes its
producer computed (:class:`~repro.emu.handles.VReg`), and the next
intrinsic views them in the lane type it needs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.emu.handles import SReg, VReg
from repro.emu.memory import Memory
from repro.emu.scalar import Operand, ScalarMachine, rid
from repro.isa import opcodes as op
from repro.isa import subword as sw
from repro.isa.trace import Trace
from repro.machines.spec import SimdGeometry

_U8, _S8 = sw.STORAGE["u8"], sw.STORAGE["s8"]
_U16, _S16, _S32 = sw.STORAGE["u16"], sw.STORAGE["s16"], sw.STORAGE["s32"]


class MMXMachine(ScalarMachine):
    """A superscalar core with a 1-D SIMD extension.

    The register geometry comes from a
    :class:`~repro.machines.SimdGeometry` (``geometry=``); the legacy
    ``width=`` byte count remains accepted and is converted to an
    equivalent geometry.  Any positive power-of-two row width emulates
    -- which program idioms a width supports is the kernels' business.
    """

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

    @property
    def isa_name(self) -> str:
        return f"mmx{8 * self.width}"

    # -- plumbing ----------------------------------------------------------

    def _vreg(self, data: np.ndarray) -> VReg:
        """Wrap freshly computed lanes, uncopied, as a new register.

        Every caller hands in a contiguous array no one else can write
        -- a computed result, a prefix of one or a :meth:`Memory.read`
        copy; :meth:`const`, the one intrinsic given caller data, copies
        it first.
        """
        if data.ndim != 1:
            data = np.ascontiguousarray(data).reshape(-1)
        if data.nbytes != self.width:
            raise ValueError(f"register payload must be {self.width} bytes, got {data.nbytes}")
        return VReg(next(self._ids), data)

    def _vemit(self, opcode: int, dst: VReg, *srcs: VReg) -> VReg:
        self._emit(opcode, (dst.rid,), tuple(map(rid, srcs)))
        return dst

    # -- SIMD memory -------------------------------------------------------

    def load(self, addr: Operand, offset: int = 0) -> VReg:
        """``MOVQ/MOVDQU`` load of one full register from memory."""
        ea = self._val(addr) + offset
        dst = self._vreg(self.mem.read(ea, self.width))
        self._emit(op.VLD, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=self.width)
        return dst

    def store(self, v: VReg, addr: Operand, offset: int = 0) -> None:
        """``MOVQ/MOVDQU`` store of one full register to memory."""
        ea = self._val(addr) + offset
        self.mem.write(ea, v.data)
        self._emit(
            op.VST, (), (v.rid,) + self._src_ids(addr), addr=ea, row_bytes=self.width,
        )

    def load_low(self, addr: Operand, nbytes: int, offset: int = 0) -> VReg:
        """Partial load (``MOVD``/``MOVQ`` low half), zero-extending."""
        ea = self._val(addr) + offset
        data = np.zeros(self.width, dtype=np.uint8)
        data[:nbytes] = self.mem.read(ea, nbytes)
        dst = self._vreg(data)
        self._emit(op.VLD_P, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes)
        return dst

    def store_low(self, v: VReg, addr: Operand, nbytes: int, offset: int = 0) -> None:
        """Partial store of the low ``nbytes`` of a register."""
        ea = self._val(addr) + offset
        self.mem.write(ea, v.view(_U8)[:nbytes])
        self._emit(
            op.VST_P, (), (v.rid,) + self._src_ids(addr), addr=ea, row_bytes=nbytes,
        )

    # -- packed arithmetic ---------------------------------------------------

    def _binary(self, opcode: int, a: VReg, b: VReg, fn, dtype: str) -> VReg:
        lane = sw.STORAGE[dtype]
        out = fn(a.view(lane), b.view(lane), dtype)
        return self._vemit(opcode, self._vreg(out), a, b)

    def zero(self) -> VReg:
        """``PXOR reg, reg`` idiom producing an all-zero register."""
        return self._vemit(op.PXOR, self._vreg(np.zeros(self.width, dtype=np.uint8)))

    def const(self, values: np.ndarray, dtype: str = "s16") -> VReg:
        """Materialise a packed constant (modelled as one ALU op).

        Real code keeps constants in memory or builds them with shifts; one
        instruction is a fair charge for an amortised constant set-up.
        The lanes are copied: ``values`` belongs to the caller.
        """
        data = np.array(values, dtype=sw.STORAGE[dtype])
        return self._vemit(op.PCONST, self._vreg(data))

    def padd(self, a: VReg, b: VReg, dtype: str = "s16", sat: bool = False) -> VReg:
        if sat:
            return self._binary(op.PADDS, a, b, sw.add_sat, dtype)
        return self._binary(op.PADD, a, b, sw.add_wrap, dtype)

    def psub(self, a: VReg, b: VReg, dtype: str = "s16", sat: bool = False) -> VReg:
        if sat:
            return self._binary(op.PSUBS, a, b, sw.sub_sat, dtype)
        return self._binary(op.PSUB, a, b, sw.sub_wrap, dtype)

    def pmullw(self, a: VReg, b: VReg) -> VReg:
        out = sw.mul_lo(a.view(_S16), b.view(_S16), "s16")
        return self._vemit(op.PMULLW, self._vreg(out), a, b)

    def pmulhw(self, a: VReg, b: VReg) -> VReg:
        out = sw.mul_hi_s16(a.view(_S16), b.view(_S16))
        return self._vemit(op.PMULHW, self._vreg(out), a, b)

    def pmaddwd(self, a: VReg, b: VReg) -> VReg:
        out = sw.madd_s16(a.view(_S16), b.view(_S16))
        return self._vemit(op.PMADDWD, self._vreg(out), a, b)

    def pavgb(self, a: VReg, b: VReg) -> VReg:
        out = sw.avg_round_u8(a.view(_U8), b.view(_U8))
        return self._vemit(op.PAVGB, self._vreg(out), a, b)

    def pand(self, a: VReg, b: VReg) -> VReg:
        return self._vemit(op.PAND, self._vreg(a.view(_U8) & b.view(_U8)), a, b)

    def por(self, a: VReg, b: VReg) -> VReg:
        return self._vemit(op.POR, self._vreg(a.view(_U8) | b.view(_U8)), a, b)

    def pxor(self, a: VReg, b: VReg) -> VReg:
        return self._vemit(op.PXOR, self._vreg(a.view(_U8) ^ b.view(_U8)), a, b)

    def psll(self, a: VReg, count: int, dtype: str = "s16") -> VReg:
        out = sw.shift_left(a.view(sw.STORAGE[dtype]), count, dtype)
        return self._vemit(op.PSLL, self._vreg(out), a)

    def psrl(self, a: VReg, count: int, dtype: str = "u16") -> VReg:
        out = sw.shift_right_logical(a.view(sw.STORAGE[dtype]), count, dtype)
        return self._vemit(op.PSRL, self._vreg(out), a)

    def psra(self, a: VReg, count: int, dtype: str = "s16") -> VReg:
        out = sw.shift_right_arith(a.view(sw.STORAGE[dtype]), count, dtype)
        return self._vemit(op.PSRA, self._vreg(out), a)

    # -- pack / unpack -------------------------------------------------------

    def packus(self, a: VReg, b: VReg, src_dtype: str = "s16") -> VReg:
        """``PACKUSWB``: saturate two s16 registers into one u8 register."""
        lane = sw.STORAGE[src_dtype]
        out = sw.pack_sat(a.view(lane), b.view(lane), "u8")[: self.width]
        return self._vemit(op.PACKUSWB, self._vreg(out), a, b)

    def packss(self, a: VReg, b: VReg) -> VReg:
        """``PACKSSDW``: saturate two s32 registers into one s16 register."""
        merged = np.concatenate([a.view(_S32), b.view(_S32)])
        out = sw.saturate(merged, "s16")
        return self._vemit(op.PACKSSDW, self._vreg(out), a, b)

    def punpcklo(self, a: VReg, b: VReg, dtype: str = "u8") -> VReg:
        lane = sw.STORAGE[dtype]
        out = sw.interleave_lo(a.view(lane), b.view(lane))
        return self._vemit(op.PUNPCKL, self._vreg(out), a, b)

    def punpckhi(self, a: VReg, b: VReg, dtype: str = "u8") -> VReg:
        lane = sw.STORAGE[dtype]
        out = sw.interleave_hi(a.view(lane), b.view(lane))
        return self._vemit(op.PUNPCKH, self._vreg(out), a, b)

    def unpack_u8_to_u16_lo(self, a: VReg) -> VReg:
        """Zero-extend the low half bytes to 16-bit lanes (punpcklbw w/ zero)."""
        half = a.view(_U8)[: self.width // 2].astype(np.uint16)
        return self._vemit(op.PUNPCKLBW, self._vreg(half), a)

    def unpack_u8_to_u16_hi(self, a: VReg) -> VReg:
        """Zero-extend the high half bytes to 16-bit lanes (punpckhbw w/ zero)."""
        half = a.view(_U8)[self.width // 2 :].astype(np.uint16)
        return self._vemit(op.PUNPCKHBW, self._vreg(half), a)

    def pshufw(self, a: VReg, order, dtype: str = "s16") -> VReg:
        """``PSHUFW/PSHUFD``: permute lanes by index list."""
        out = a.view(sw.STORAGE[dtype])[list(order)]
        return self._vemit(op.PSHUFW, self._vreg(out), a)

    def pshufb(self, a: VReg, indices) -> VReg:
        """Byte permute (Altivec ``vperm`` / VIS-style); -1 selects zero."""
        src = a.view(_U8)
        out = np.zeros(self.width, dtype=np.uint8)
        for lane, idx in enumerate(indices):
            if idx >= 0:
                out[lane] = src[idx]
        return self._vemit(op.PSHUFB, self._vreg(out), a)

    def pmulr_q15(self, a: VReg, b: VReg) -> VReg:
        """``PMULHRSW``-style rounded Q15 multiply: ``sat16((a*b + 2^14) >> 15)``."""
        wide = a.view(_S16).astype(np.int64) * b.view(_S16).astype(np.int64)
        out = sw.saturate((wide + (1 << 14)) >> 15, "s16")
        return self._vemit(op.PMULR, self._vreg(out), a, b)

    # -- reductions and transfers -------------------------------------------

    def psumabs_s8(self, a: VReg) -> VReg:
        """Sum of absolute signed bytes into lane 0 (the paper's ``Sum(|x|)``)."""
        total = int(np.abs(a.view(_S8).astype(np.int64)).sum())
        out = np.zeros(self.width // 2, dtype=np.uint16)
        out[0] = total & 0xFFFF
        return self._vemit(op.PSUMABS, self._vreg(out), a)

    def psadbw(self, a: VReg, b: VReg) -> VReg:
        """``PSADBW`` (SSE): per-64-bit-group sum of absolute differences."""
        groups = self.width // 8
        out = np.zeros(self.width // 2, dtype=np.uint16)
        av = a.view(_U8)
        bv = b.view(_U8)
        for g in range(groups):
            sad = sw.abs_diff_sum_u8(av[8 * g : 8 * g + 8], bv[8 * g : 8 * g + 8])
            out[4 * g] = sad & 0xFFFF
        return self._vemit(op.PSADBW, self._vreg(out), a, b)

    def hsum_u16(self, a: VReg) -> VReg:
        """Horizontal add of all 16-bit lanes into lane 0 (tree of paddw)."""
        total = int(a.view(_U16).astype(np.int64).sum())
        out = np.zeros(self.width // 2, dtype=np.uint16)
        out[0] = total & 0xFFFF
        return self._vemit(op.HSUM, self._vreg(out), a)

    def hsum_s32(self, a: VReg) -> VReg:
        """Horizontal add of all 32-bit lanes into lane 0."""
        total = int(a.view(_S32).astype(np.int64).sum())
        out = np.zeros(self.width // 4, dtype=np.int32)
        out[0] = sw.wrap(np.array([total]), "s32")[0]
        return self._vemit(op.HSUM_D, self._vreg(out), a)

    def movd_to_scalar(self, a: VReg, dtype: str = "u16", lane: int = 0) -> SReg:
        """Transfer one lane to the scalar register file (``MOVD``/``PEXTRW``)."""
        value = int(a.view(sw.STORAGE[dtype])[lane])
        dst = self._sreg(value)
        self._emit(op.MOVD, (dst.rid,), (a.rid,))
        return dst

    def movd_from_scalar(self, s: Operand, dtype: str = "s16") -> VReg:
        """Broadcast a scalar into all lanes (``MOVD`` + shuffle, one op)."""
        lanes = self.width // sw.WIDTH[dtype]
        data = np.full(lanes, self._val(s), dtype=sw.STORAGE[dtype])
        dst = self._vreg(data)
        self._emit(op.MOVD_B, (dst.rid,), self._src_ids(s))
        return dst
