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
from repro.emu.scalar import _MAX64, _MIN64, _MOD64, Operand, ScalarMachine, rid
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


def _rowwise(opcode: int, wrap, sat_opcode: int, saturate):
    """``vadd``/``vsub``: ``wrap`` (or, with ``sat``, ``saturate``) of both
    registers' active rows as lanes of subword type ``dtype``."""

    def intrinsic(self, a: MReg, b: MReg, dtype: str = "s16", sat: bool = False) -> MReg:
        lane, vl = sw.STORAGE[dtype], self.vl
        x = a.data[..., :vl, :].view(lane)
        y = b.data[..., :vl, :].view(lane)
        data = np.zeros(self._mshape, dtype=np.uint8)
        data[..., :vl, :] = (saturate(x, y, dtype) if sat else wrap(x, y, dtype)).view(np.uint8)
        dst = self._new_id()
        self._put((sat_opcode if sat else opcode, -1, 0, vl, 0, 0, False, 2, 1))
        self._put_ids((a.rid, b.rid, dst))
        return self._MReg(dst, data)

    return intrinsic


class VMMXMachine(ScalarMachine):
    """A superscalar core with a MOM-style 2-D matrix extension.

    The register geometry (row width *and* maximum vector length) comes
    from a :class:`~repro.machines.SimdGeometry` (``geometry=``); the
    legacy ``row_bytes=`` argument remains accepted and is converted to
    an equivalent 16-row geometry.
    """

    #: Default rows per matrix register (the paper's MAX_VL).
    MAX_VL = 16

    #: The handle classes of a matrix register and the two accumulators.
    _MReg, _AccReg, _MAccReg = MReg, AccReg, MAccReg

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
        # A matrix register's bytes, leading (seed) axes included.
        self._mshape = self._lead + (self.max_vl, self.row_bytes)

    @property
    def isa_name(self) -> str:
        return f"vmmx{8 * self.row_bytes}"

    # -- plumbing ----------------------------------------------------------

    def _mreg(self, rows: np.ndarray) -> MReg:
        data = np.zeros(self._mshape, dtype=np.uint8)
        rows = np.ascontiguousarray(rows).view(np.uint8)
        rows = rows.reshape(self._lead + (-1, self.row_bytes))
        data[..., : rows.shape[-2], :] = rows
        return self._MReg(self._new_id(), data)

    def _vemit(self, opcode: int, dst_ids, *srcs, rows=None):
        self._put((
            opcode, -1, 0, self.vl if rows is None else rows, 0, 0, False,
            len(srcs), len(dst_ids),
        ))
        self._put_ids(tuple(map(rid, srcs)) + dst_ids)

    def _cols(self, dtype: str) -> int:
        return self.row_bytes // sw.WIDTH[dtype]

    def _active(self, m: MReg, dtype: str) -> np.ndarray:
        """View of the active (vl rows) part of a matrix register."""
        return m.data[..., : self.vl, :].view(sw.STORAGE[dtype])

    def _pad_rows(self, rows: np.ndarray) -> np.ndarray:
        """Zero-pad per-row payload narrower than the register row width."""
        raw = np.ascontiguousarray(rows)
        nbytes = raw.view(np.uint8)
        if nbytes.shape[-1] == self.row_bytes:
            return raw
        out = np.zeros(nbytes.shape[:-1] + (self.row_bytes,), dtype=np.uint8)
        out[..., : nbytes.shape[-1]] = nbytes
        return out

    # -- vector control ----------------------------------------------------

    def setvl(self, length: Union[int, SReg]) -> None:
        """Set the vector length (rows processed by subsequent instructions)."""
        value, srcs = self._operand(length, 0, what="setvl length")
        if not 1 <= value <= self.max_vl:
            raise ValueError(f"vector length {value} outside [1, {self.max_vl}]")
        self.vl = value
        self._put((op.SETVL, -1, 0, 1, 0, 0, False, len(srcs), 0))
        self._put_ids(srcs)

    # -- vector memory -----------------------------------------------------

    def _access(self, addr: Operand, stride, unit: int, offset: int, srcs=()):
        """``(ea, stride, ids)`` of a vector access: uniform ints, the
        stride ``unit`` when omitted, ``srcs`` then the address and stride
        registers' ids."""
        ea, srcs = self._operand(addr, offset, srcs)
        if stride is None:
            return ea, unit, srcs
        step, srcs = self._operand(stride, 0, srcs, "vector stride")
        return ea, step, srcs

    def vload(self, addr: Operand, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> MReg:
        """Strided vector load of ``vl`` rows (unit stride when omitted)."""
        ea, step, srcs = self._access(addr, stride, self.row_bytes, offset)
        data = np.zeros(self._mshape, dtype=np.uint8)
        data[..., : self.vl, :] = self.mem.read_rows(ea, self.vl, self.row_bytes, step)
        dst = self._new_id()
        self._put((op.VLD, ea, self.row_bytes, self.vl, step, 0, False, len(srcs), 1))
        self._put_ids(srcs + (dst,))
        return self._MReg(dst, data)

    def vstore(self, m: MReg, addr: Operand, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> None:
        """Strided vector store of ``vl`` rows (unit stride when omitted)."""
        ea, step, srcs = self._access(addr, stride, self.row_bytes, offset, (m.rid,))
        self.mem.write_rows(ea, m.data[..., : self.vl, :], step)
        self._put((op.VST, ea, self.row_bytes, self.vl, step, 0, False, len(srcs), 0))
        self._put_ids(srcs)

    def vload_part(self, addr: Operand, nbytes: int, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> MReg:
        """Partial-row vector load (new VMMX128 instruction, §II-B).

        Loads only the first ``nbytes`` of each row, zero-filling the rest;
        used by kernels whose data patterns do not fill a full 128-bit row
        (e.g. ``comp`` with 8-pixel rows in a 16-byte-row machine).
        """
        ea, srcs = self._operand(addr, offset)
        step = nbytes if stride is None else self._operand(stride, 0, (), "vector stride")[0]
        data = np.zeros(self._mshape, dtype=np.uint8)
        data[..., : self.vl, :nbytes] = self.mem.read_rows(ea, self.vl, nbytes, step)
        dst = self._new_id()
        self._put((op.VLD_P, ea, nbytes, self.vl, step, 0, False, len(srcs), 1))
        self._put_ids(srcs + (dst,))
        return self._MReg(dst, data)

    def vstore_part(self, m: MReg, addr: Operand, nbytes: int, stride: Optional[Union[int, SReg]] = None, offset: int = 0) -> None:
        """Partial-row vector store (new VMMX128 instruction, §II-B)."""
        ea, srcs = self._operand(addr, offset, (m.rid,))
        step = nbytes if stride is None else self._operand(stride, 0, (), "vector stride")[0]
        self.mem.write_rows(ea, m.data[..., : self.vl, :nbytes], step)
        self._put((op.VST_P, ea, nbytes, self.vl, step, 0, False, len(srcs), 0))
        self._put_ids(srcs)

    # -- element-wise matrix arithmetic -------------------------------------

    def vzero(self) -> MReg:
        dst = self._MReg(self._new_id(), np.zeros(self._mshape, dtype=np.uint8))
        self._vemit(op.VXOR, (dst.rid,))
        return dst

    def vconst_rows(self, rows: np.ndarray, dtype: str = "s16") -> MReg:
        """Materialise a constant matrix (charged as one vector ALU op)."""
        data = np.asarray(rows, dtype=sw.STORAGE[dtype])
        dst = self._mreg(np.broadcast_to(data, self._lead + data.shape))
        self._vemit(op.VCONST, (dst.rid,))
        return dst

    vadd = _rowwise(op.VADD, sw.add_wrap, op.VADDS, sw.add_sat)
    vsub = _rowwise(op.VSUB, sw.sub_wrap, op.VSUBS, sw.sub_sat)

    def vmul_lo(self, a: MReg, b: MReg, dtype: str = "s16") -> MReg:
        dst = self._mreg(sw.mul_lo(self._active(a, dtype), self._active(b, dtype), dtype))
        self._vemit(op.VMULLW, (dst.rid,), a, b)
        return dst

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
        scale = np.asarray(self.value(coeff), dtype=np.int64)[..., None, None]
        out = sw.saturate((lanes * scale + (1 << 14)) >> 15, "s16")
        dst = self._mreg(out)
        self._vemit(op.VMULR_VS, (dst.rid,), a, coeff if isinstance(coeff, SReg) else a)
        return dst

    def vmadd_s16(self, a: MReg, b: MReg) -> MReg:
        """Row-wise ``PMADDWD``: adjacent s16 pairs multiplied and summed to s32."""
        prod = self._active(a, "s16").astype(np.int64) * self._active(b, "s16")
        pairs = prod.reshape(prod.shape[:-1] + (-1, 2)).sum(axis=-1)
        dst = self._mreg(sw.wrap(pairs, "s32"))
        self._vemit(op.VMADDWD, (dst.rid,), a, b)
        return dst

    def vinterleave(self, a: MReg, b: MReg, dtype: str = "u16", half: str = "lo") -> MReg:
        """Row-wise ``PUNPCKL/H``: interleave lane halves of each row pair."""
        interleave = sw.interleave_lo if half == "lo" else sw.interleave_hi
        dst = self._mreg(interleave(self._active(a, dtype), self._active(b, dtype)))
        self._vemit(op.VUNPCK_LO if half == "lo" else op.VUNPCK_HI, (dst.rid,), a, b)
        return dst

    def vpack_s32_to_s16(self, a: MReg, b: Optional[MReg] = None) -> MReg:
        """Row-wise ``PACKSSDW``: saturate s32 lanes of each row to s16.

        With a single source the packed lanes land in the low half of each
        row and the high half is zeroed (rows never change width).
        """
        srcs = (a, b) if b is not None else (a,)
        merged = np.concatenate([self._active(m, "s32") for m in srcs], axis=-1)
        dst = self._mreg(self._pad_rows(sw.saturate(merged, "s16")))
        self._vemit(op.VPACKSSDW, (dst.rid,), *srcs)
        return dst

    def vunpack_u8_to_u16(self, a: MReg, half: str = "lo") -> MReg:
        """Widen u8 row halves to u16 lanes (per-row punpck with zero)."""
        rows = self._active(a, "u8")
        cols = self.row_bytes // 2
        sel = rows[..., :cols] if half == "lo" else rows[..., cols:]
        dst = self._mreg(sel.astype(np.uint16))
        self._vemit(op.VUNPCKLO if half == "lo" else op.VUNPCKHI, (dst.rid,), a)
        return dst

    def vpack_u16_to_u8(self, a: MReg, b: Optional[MReg] = None, sat: bool = True) -> MReg:
        """Per-row ``PACKUSWB``: saturate signed 16-bit lanes to unsigned 8-bit."""
        srcs = (a, b) if b is not None else (a,)
        merged = np.concatenate([self._active(m, "s16") for m in srcs], axis=-1)
        out = self._pad_rows(sw.saturate(merged, "u8") if sat else sw.wrap(merged, "u8"))
        dst = self._mreg(out)
        self._vemit(op.VPACKUS, (dst.rid,), *srcs)
        return dst

    # -- packed reduction accumulators ---------------------------------------

    def acc_zero(self) -> AccReg:
        acc = self._AccReg(self._new_id(), 0)
        self._vemit(op.VACC_CLR, (acc.rid,), rows=1)
        return acc

    def _accumulate(self, opcode: int, acc: AccReg, a: MReg, b: MReg, total) -> AccReg:
        out = self._AccReg(self._new_id(), acc.total + total)
        self._vemit(opcode, (out.rid,), acc, a, b)
        return out

    def vsad_acc(self, acc: AccReg, a: MReg, b: MReg) -> AccReg:
        """``ACC += Sum(|a - b|)`` over all active rows (packed accumulator)."""
        total = sw.abs_diff_sum_u8(self._active(a, "u8"), self._active(b, "u8"))
        return self._accumulate(op.VSAD_ACC, acc, a, b, total)

    def vsqd_acc(self, acc: AccReg, a: MReg, b: MReg) -> AccReg:
        """``ACC += Sum((a - b)^2)`` over all active rows."""
        total = sw.sq_diff_sum_u8(self._active(a, "u8"), self._active(b, "u8"))
        return self._accumulate(op.VSQD_ACC, acc, a, b, total)

    def vdot_acc(self, acc: AccReg, a: MReg, b: MReg, dtype: str = "s16") -> AccReg:
        """``ACC += Sum(a * b)`` over all active rows (packed MAC)."""
        prod = self._active(a, dtype).astype(np.int64) * self._active(b, dtype)
        total = self._to_value(prod.sum(axis=(-2, -1)))
        return self._accumulate(op.VDOT_ACC, acc, a, b, total)

    def acc_read(self, acc: AccReg) -> SReg:
        """Final cross-lane reduction of an accumulator into a scalar."""
        value = acc.total
        if type(value) is int and not _MIN64 <= value <= _MAX64:
            value = (value - _MIN64) % _MOD64 + _MIN64
        dst = self._new_id()
        self._put((op.VRED, -1, 0, 1, 0, 0, False, 1, 1))
        self._put_ids((acc.rid, dst))
        return self._SReg(dst, value)

    # -- matrix multiply-accumulate ------------------------------------------

    def macc_zero(self, dtype: str = "s16") -> MAccReg:
        parts = np.zeros(self._lead + (self.max_vl, self._cols(dtype)), dtype=np.int64)
        macc = self._MAccReg(self._new_id(), parts)
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
        a_col = self._active(a, dtype)[..., col, None].astype(np.int64)
        b_row = b.data.view(sw.STORAGE[dtype])[..., row, None, :].astype(np.int64)
        parts = macc.parts.copy()
        parts[..., : self.vl, :] += a_col * b_row
        out = self._MAccReg(self._new_id(), parts)
        self._vemit(op.VMAC_B, (out.rid,), macc, a, b)
        return out

    def vmac_elem(self, macc: MAccReg, a: MReg, b: MReg, dtype: str = "s16") -> MAccReg:
        """``macc[r, c] += a[r, c] * b[r, c]`` element-wise widening MAC."""
        parts = macc.parts.copy()
        parts[..., : self.vl, :] += self._active(a, dtype).astype(np.int64) * self._active(b, dtype)
        out = self._MAccReg(self._new_id(), parts)
        self._vemit(op.VMAC_E, (out.rid,), macc, a, b)
        return out

    def macc_pack_rs(self, macc: MAccReg, shift: int, dtype: str = "s16", sat: bool = True) -> MReg:
        """Round-shift accumulator lanes and pack into a matrix register."""
        shifted = sw.round_shift(macc.parts[..., : self.vl, :], shift, "s32").astype(np.int64)
        packed = sw.saturate(shifted, dtype) if sat else sw.wrap(shifted, dtype)
        dst = self._mreg(packed)
        self._vemit(op.VMACC_PACK, (dst.rid,), macc)
        return dst

    # -- row extraction -------------------------------------------------------

    def vextract_row(self, m: MReg, row: int, dtype: str = "s16", lane: int = 0) -> SReg:
        """Move one lane of one row to the scalar register file."""
        value = self._to_value(m.data.view(sw.STORAGE[dtype])[..., row, lane])
        dst = self._new_id()
        self._put((op.VEXT, -1, 0, 1, 0, 0, False, 1, 1))
        self._put_ids((m.rid, dst))
        return self._SReg(dst, value)
