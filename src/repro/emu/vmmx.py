"""2-dimensional (matrix) SIMD emulation machines: VMMX64 and VMMX128.

These model the MOM (Matrix Oriented Multimedia) ISA of Corbal et al. as
scaled by the paper: 16 matrix registers of ``max_vl`` (16) rows, each row
64 bits wide (VMMX64) or 128 bits wide (VMMX128); a vector-length register
set with ``setvl``; unit-stride and strided vector loads/stores; packed
reduction accumulators (SAD/SQD/dot-product); matrix multiply-accumulate
with row broadcast (used by the 2-D DCT kernels); and the partial
load/store instructions the paper adds for VMMX128 (§II-B).

Every vector instruction processes ``vl`` rows and is emitted into the
columnar trace builder with ``rows=vl`` so the timing model can apply
lane throughput and the vector cache's stride-1 fast path.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.emu.handles import AccReg, MAccReg, MReg, SReg
from repro.emu.memory import Memory
from repro.emu.scalar import Operand, ScalarMachine, rid
from repro.isa import opcodes as op
from repro.isa import subword as sw
from repro.isa.trace import Trace
from repro.machines.spec import SimdGeometry


#: ``vshift`` kinds: opcode and lane helper.
_SHIFTS = {
    "sll": (op.VSLL, sw.shift_left),
    "srl": (op.VSRL, sw.shift_right_logical),
    "sra": (op.VSRA, sw.shift_right_arith),
}


class VMMXMachine(ScalarMachine):
    """A superscalar core with a MOM-style 2-D matrix extension.

    The register geometry (row width *and* maximum vector length) comes
    from a :class:`~repro.machines.SimdGeometry` (``geometry=``); the
    legacy ``row_bytes=`` argument remains accepted and is converted to
    an equivalent 16-row geometry.
    """

    #: Default rows per matrix register (the paper's MAX_VL).
    MAX_VL = 16

    def __init__(
        self,
        mem: Memory,
        trace: Optional[Trace] = None,
        row_bytes: Optional[int] = None,
        geometry: Optional[SimdGeometry] = None,
    ) -> None:
        if geometry is not None and row_bytes is not None and row_bytes != geometry.row_bytes:
            raise ValueError(
                f"row_bytes={row_bytes} contradicts "
                f"geometry.row_bytes={geometry.row_bytes}"
            )
        if geometry is None:
            geometry = SimdGeometry(
                row_bytes=8 if row_bytes is None else row_bytes,
                lanes=4, max_vl=self.MAX_VL, logical_regs=16, matrix=True,
            )
        if not geometry.matrix:
            raise ValueError("VMMXMachine needs a matrix geometry")
        row = geometry.row_bytes
        if row < 8 or row & (row - 1):
            raise ValueError(
                f"VMMX row width must be a power of two >= 8 bytes, got {row}"
            )
        super().__init__(mem, trace)
        self.geometry = geometry
        self.row_bytes = geometry.row_bytes
        self.max_vl = geometry.max_vl
        self.vl = self.max_vl

    @property
    def isa_name(self) -> str:
        return f"vmmx{8 * self.row_bytes}"

    # -- plumbing ----------------------------------------------------------

    def _mreg(self, rows: np.ndarray) -> MReg:
        data = np.zeros((self.max_vl, self.row_bytes), dtype=np.uint8)
        rows = np.ascontiguousarray(rows).view(np.uint8).reshape(-1, self.row_bytes)
        data[: rows.shape[0]] = rows
        return MReg(next(self._ids), data)

    def _vemit(self, opcode: int, dst_ids, *srcs, rows=None):
        self._emit(
            opcode, dst_ids, tuple(map(rid, srcs)),
            rows=(self.vl if rows is None else rows),
        )

    def _cols(self, dtype: str) -> int:
        return self.row_bytes // sw.WIDTH[dtype]

    def _active(self, m: MReg, dtype: str) -> np.ndarray:
        """View of the active (vl rows) part of a matrix register."""
        return m.data[: self.vl].view(sw.STORAGE[dtype])

    def _pad_rows(self, rows: np.ndarray) -> np.ndarray:
        """Zero-pad per-row payload narrower than the register row width."""
        raw = np.ascontiguousarray(rows)
        nbytes = raw.view(np.uint8).reshape(raw.shape[0], -1)
        if nbytes.shape[1] == self.row_bytes:
            return raw
        out = np.zeros((raw.shape[0], self.row_bytes), dtype=np.uint8)
        out[:, : nbytes.shape[1]] = nbytes
        return out

    # -- vector control ----------------------------------------------------

    def setvl(self, length: Union[int, SReg]) -> None:
        """Set the vector length (rows processed by subsequent instructions)."""
        value = self._val(length)
        if not 1 <= value <= self.max_vl:
            raise ValueError(f"vector length {value} outside [1, {self.max_vl}]")
        self.vl = value
        self._emit(op.SETVL, (), self._src_ids(length))

    # -- vector memory -----------------------------------------------------

    def vload(self, addr: Operand, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> MReg:
        """Strided vector load of ``vl`` rows (unit stride when omitted)."""
        ea = self._val(addr) + offset
        stride_v = self.row_bytes if stride is None else self._val(stride)
        rows = self.mem.read_rows(ea, self.vl, self.row_bytes, stride_v)
        dst = self._mreg(rows)
        self._emit(
            op.VLD, (dst.rid,), self._src_ids(addr, stride if isinstance(stride, SReg) else 0),
            addr=ea, row_bytes=self.row_bytes, rows=self.vl, stride=stride_v,
        )
        return dst

    def vstore(self, m: MReg, addr: Operand, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> None:
        """Strided vector store of ``vl`` rows (unit stride when omitted)."""
        ea = self._val(addr) + offset
        stride_v = self.row_bytes if stride is None else self._val(stride)
        self.mem.write_rows(ea, m.data[: self.vl], stride_v)
        self._emit(
            op.VST, (), (m.rid,) + self._src_ids(addr, stride if isinstance(stride, SReg) else 0),
            addr=ea, row_bytes=self.row_bytes, rows=self.vl, stride=stride_v,
        )

    def vload_part(self, addr: Operand, nbytes: int, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> MReg:
        """Partial-row vector load (new VMMX128 instruction, §II-B).

        Loads only the first ``nbytes`` of each row, zero-filling the rest;
        used by kernels whose data patterns do not fill a full 128-bit row
        (e.g. ``comp`` with 8-pixel rows in a 16-byte-row machine).
        """
        ea = self._val(addr) + offset
        stride_v = nbytes if stride is None else self._val(stride)
        rows = np.zeros((self.vl, self.row_bytes), dtype=np.uint8)
        rows[:, :nbytes] = self.mem.read_rows(ea, self.vl, nbytes, stride_v)
        dst = self._mreg(rows)
        self._emit(
            op.VLD_P, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes,
            rows=self.vl, stride=stride_v,
        )
        return dst

    def vstore_part(self, m: MReg, addr: Operand, nbytes: int, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> None:
        """Partial-row vector store (new VMMX128 instruction, §II-B)."""
        ea = self._val(addr) + offset
        stride_v = nbytes if stride is None else self._val(stride)
        self.mem.write_rows(ea, m.data[: self.vl, :nbytes], stride_v)
        self._emit(
            op.VST_P, (), (m.rid,) + self._src_ids(addr), addr=ea, row_bytes=nbytes,
            rows=self.vl, stride=stride_v,
        )

    # -- element-wise matrix arithmetic -------------------------------------

    def _binary(self, opcode: int, a: MReg, b: MReg, fn, dtype: str) -> MReg:
        out_rows = fn(self._active(a, dtype), self._active(b, dtype), dtype)
        dst = self._mreg(out_rows)
        self._vemit(opcode, (dst.rid,), a, b)
        return dst

    def vzero(self) -> MReg:
        dst = self._mreg(np.zeros((self.vl, self.row_bytes), dtype=np.uint8))
        self._vemit(op.VXOR, (dst.rid,))
        return dst

    def vconst_rows(self, rows: np.ndarray, dtype: str = "s16") -> MReg:
        """Materialise a constant matrix (charged as one vector ALU op)."""
        data = np.asarray(rows, dtype=sw.STORAGE[dtype])
        dst = self._mreg(data)
        self._vemit(op.VCONST, (dst.rid,))
        return dst

    def vadd(self, a: MReg, b: MReg, dtype: str = "s16", sat: bool = False) -> MReg:
        if sat:
            return self._binary(op.VADDS, a, b, sw.add_sat, dtype)
        return self._binary(op.VADD, a, b, sw.add_wrap, dtype)

    def vsub(self, a: MReg, b: MReg, dtype: str = "s16", sat: bool = False) -> MReg:
        if sat:
            return self._binary(op.VSUBS, a, b, sw.sub_sat, dtype)
        return self._binary(op.VSUB, a, b, sw.sub_wrap, dtype)

    def vmul_lo(self, a: MReg, b: MReg, dtype: str = "s16") -> MReg:
        return self._binary(op.VMULLW, a, b, sw.mul_lo, dtype)

    def vavg_u8(self, a: MReg, b: MReg) -> MReg:
        out = sw.avg_round_u8(self._active(a, "u8"), self._active(b, "u8"))
        dst = self._mreg(out)
        self._vemit(op.VAVGB, (dst.rid,), a, b)
        return dst

    def vshift(self, a: MReg, count: int, kind: str = "sra", dtype: str = "s16") -> MReg:
        opcode, fn = _SHIFTS[kind]
        dst = self._mreg(fn(self._active(a, dtype), count, dtype))
        self._vemit(opcode, (dst.rid,), a)
        return dst

    def vmul_round_q15(self, a: MReg, coeff: Operand) -> MReg:
        """GSM ``mult_r``: per-element ``(a * coeff + 2^14) >> 15`` saturated.

        ``coeff`` is a scalar broadcast across all lanes (vector-scalar op).
        """
        lanes = self._active(a, "s16").astype(np.int64)
        product = (lanes * self._val(coeff) + (1 << 14)) >> 15
        out = sw.saturate(product, "s16")
        dst = self._mreg(out)
        self._vemit(op.VMULR_VS, (dst.rid,), a, coeff if isinstance(coeff, SReg) else a)
        return dst

    def vmadd_s16(self, a: MReg, b: MReg) -> MReg:
        """Row-wise ``PMADDWD``: adjacent s16 pairs multiplied and summed to s32."""
        a_rows = self._active(a, "s16").reshape(self.vl, -1).astype(np.int64)
        b_rows = b.data.view(np.int16).reshape(self.max_vl, -1)[: self.vl].astype(np.int64)
        prod = a_rows * b_rows
        pairs = prod.reshape(self.vl, -1, 2).sum(axis=2)
        out = sw.wrap(pairs, "s32")
        dst = self._mreg(out)
        self._vemit(op.VMADDWD, (dst.rid,), a, b)
        return dst

    def vinterleave(self, a: MReg, b: MReg, dtype: str = "u16", half: str = "lo") -> MReg:
        """Row-wise ``PUNPCKL/H``: interleave lane halves of each row pair."""
        a_rows = self._active(a, dtype).reshape(self.vl, -1)
        b_rows = b.data.view(sw.STORAGE[dtype]).reshape(self.max_vl, -1)[: self.vl]
        lanes = a_rows.shape[1]
        sel = slice(0, lanes // 2) if half == "lo" else slice(lanes // 2, lanes)
        out = np.empty_like(a_rows)
        out[:, 0::2] = a_rows[:, sel]
        out[:, 1::2] = b_rows[:, sel]
        dst = self._mreg(out)
        self._vemit(op.VUNPCK_LO if half == "lo" else op.VUNPCK_HI, (dst.rid,), a, b)
        return dst

    def vpack_s32_to_s16(self, a: MReg, b: Optional[MReg] = None) -> MReg:
        """Row-wise ``PACKSSDW``: saturate s32 lanes of each row to s16.

        With a single source the packed lanes land in the low half of each
        row and the high half is zeroed (rows never change width).
        """
        a_rows = self._active(a, "s32").reshape(self.vl, -1)
        if b is not None:
            b_rows = b.data.view(np.int32).reshape(self.max_vl, -1)[: self.vl]
            merged = np.concatenate([a_rows, b_rows], axis=1)
        else:
            merged = a_rows
        out = self._pad_rows(sw.saturate(merged, "s16"))
        dst = self._mreg(out)
        srcs = (a, b) if b is not None else (a,)
        self._vemit(op.VPACKSSDW, (dst.rid,), *srcs)
        return dst

    def vunpack_u8_to_u16(self, a: MReg, half: str = "lo") -> MReg:
        """Widen u8 row halves to u16 lanes (per-row punpck with zero)."""
        rows = self._active(a, "u8").reshape(self.vl, self.row_bytes)
        cols = self.row_bytes // 2
        sel = rows[:, :cols] if half == "lo" else rows[:, cols:]
        out = sel.astype(np.uint16)
        dst = self._mreg(out)
        self._vemit(op.VUNPCKLO if half == "lo" else op.VUNPCKHI, (dst.rid,), a)
        return dst

    def vpack_u16_to_u8(self, a: MReg, b: Optional[MReg] = None, sat: bool = True) -> MReg:
        """Per-row ``PACKUSWB``: saturate signed 16-bit lanes to unsigned 8-bit."""
        a_rows = self._active(a, "s16").reshape(self.vl, -1)
        if b is not None:
            b_rows = self._active(b, "s16").reshape(self.vl, -1)
            merged = np.concatenate([a_rows, b_rows], axis=1)
        else:
            merged = a_rows
        out = self._pad_rows(sw.saturate(merged, "u8") if sat else sw.wrap(merged, "u8"))
        dst = self._mreg(out)
        srcs = (a, b) if b is not None else (a,)
        self._vemit(op.VPACKUS, (dst.rid,), *srcs)
        return dst

    # -- packed reduction accumulators ---------------------------------------

    def acc_zero(self) -> AccReg:
        acc = AccReg(next(self._ids), 0)
        self._vemit(op.VACC_CLR, (acc.rid,), rows=1)
        return acc

    def vsad_acc(self, acc: AccReg, a: MReg, b: MReg) -> AccReg:
        """``ACC += Sum(|a - b|)`` over all active rows (packed accumulator)."""
        total = sw.abs_diff_sum_u8(self._active(a, "u8"), self._active(b, "u8"))
        out = AccReg(next(self._ids), acc.total + total)
        self._vemit(op.VSAD_ACC, (out.rid,), acc, a, b)
        return out

    def vsqd_acc(self, acc: AccReg, a: MReg, b: MReg) -> AccReg:
        """``ACC += Sum((a - b)^2)`` over all active rows."""
        total = sw.sq_diff_sum_u8(self._active(a, "u8"), self._active(b, "u8"))
        out = AccReg(next(self._ids), acc.total + total)
        self._vemit(op.VSQD_ACC, (out.rid,), acc, a, b)
        return out

    def vdot_acc(self, acc: AccReg, a: MReg, b: MReg, dtype: str = "s16") -> AccReg:
        """``ACC += Sum(a * b)`` over all active rows (packed MAC)."""
        prod = self._active(a, dtype).astype(np.int64) * self._active(b, dtype).astype(np.int64)
        out = AccReg(next(self._ids), acc.total + int(prod.sum()))
        self._vemit(op.VDOT_ACC, (out.rid,), acc, a, b)
        return out

    def acc_read(self, acc: AccReg) -> SReg:
        """Final cross-lane reduction of an accumulator into a scalar."""
        dst = self._sreg(acc.total)
        self._emit(op.VRED, (dst.rid,), (acc.rid,))
        return dst

    # -- matrix multiply-accumulate ------------------------------------------

    def macc_zero(self, dtype: str = "s16") -> MAccReg:
        macc = MAccReg(next(self._ids), np.zeros((self.max_vl, self._cols(dtype)), dtype=np.int64))
        self._vemit(op.VMACC_CLR, (macc.rid,), rows=1)
        return macc

    def vmac_bcast(self, macc: MAccReg, a: MReg, col: int, b: MReg, row: int, dtype: str = "s16") -> MAccReg:
        """``macc[r, :] += a[r, col] * b[row, :]`` for every active row ``r``.

        This is the MOM matrix-product step: broadcasting one column of
        ``a`` against one row of ``b`` accumulates a rank-1 update, so a
        full 8x8 16-bit product is eight instructions (paper §IV-A: the
        idct "performs a multiply-accumulate operation between matrix
        registers").
        """
        a_lanes = self._active(a, dtype).reshape(self.vl, -1).astype(np.int64)
        b_lanes = b.data.view(sw.STORAGE[dtype]).reshape(self.max_vl, -1).astype(np.int64)
        parts = macc.parts.copy()
        parts[: self.vl] += np.outer(a_lanes[:, col], b_lanes[row])
        out = MAccReg(next(self._ids), parts)
        self._vemit(op.VMAC_B, (out.rid,), macc, a, b)
        return out

    def vmac_elem(self, macc: MAccReg, a: MReg, b: MReg, dtype: str = "s16") -> MAccReg:
        """``macc[r, c] += a[r, c] * b[r, c]`` element-wise widening MAC."""
        a_lanes = self._active(a, dtype).reshape(self.vl, -1).astype(np.int64)
        b_lanes = self._active(b, dtype).reshape(self.vl, -1).astype(np.int64)
        parts = macc.parts.copy()
        parts[: self.vl] += a_lanes * b_lanes
        out = MAccReg(next(self._ids), parts)
        self._vemit(op.VMAC_E, (out.rid,), macc, a, b)
        return out

    def macc_pack_rs(self, macc: MAccReg, shift: int, dtype: str = "s16", sat: bool = True) -> MReg:
        """Round-shift accumulator lanes and pack into a matrix register."""
        shifted = sw.round_shift(macc.parts[: self.vl], shift, "s32").astype(np.int64)
        packed = sw.saturate(shifted, dtype) if sat else sw.wrap(shifted, dtype)
        dst = self._mreg(packed)
        self._vemit(op.VMACC_PACK, (dst.rid,), macc)
        return dst

    # -- row extraction -------------------------------------------------------

    def vextract_row(self, m: MReg, row: int, dtype: str = "s16", lane: int = 0) -> SReg:
        """Move one lane of one row to the scalar register file."""
        value = int(m.data.view(sw.STORAGE[dtype]).reshape(self.max_vl, -1)[row, lane])
        dst = self._sreg(value)
        self._emit(op.VEXT, (dst.rid,), (m.rid,))
        return dst
