"""Scalar (Alpha-like) emulation machine.

This is the base class of every extension machine: it provides the scalar
integer instructions (loads, stores, ALU ops, branches) that appear as
loop/pointer overhead around the SIMD code, exactly as in the paper's
Fig. 3 listings.  Each intrinsic computes the functional result and emits
one dynamic instruction straight into the columnar trace builder
(:class:`~repro.isa.trace.TraceBuilder`): the opcode's id from
:mod:`repro.isa.opcodes` plus the fields that vary per execution -- no
per-instruction record object is constructed on the hot path.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Optional, Tuple, Union

import numpy as np

from repro.emu.handles import SReg
from repro.emu.memory import Memory
from repro.isa import opcodes as op
from repro.isa.trace import Trace

#: Many intrinsics accept either a register handle or a Python immediate.
Operand = Union[SReg, int]

#: A handle's register id: ``tuple(map(rid, handles))`` collects a
#: source list without building a Python list per instruction.
rid = attrgetter("rid")


def _mask64(value: int) -> int:
    """Wrap to signed 64-bit, matching register-width integer arithmetic."""
    value &= (1 << 64) - 1
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class ScalarMachine:
    """Functional + trace-emitting model of the scalar baseline core."""

    def __init__(self, mem: Memory, trace: Optional[Trace] = None) -> None:
        self.mem = mem
        self.trace = trace if trace is not None else Trace()
        self._ids = itertools.count(1)
        self._branch_sites = itertools.count(1)
        #: Every intrinsic funnels through ``_emit``; binding it straight
        #: to the builder's ``emit`` drops one Python frame per emitted
        #: dynamic instruction on the hottest path in the system.
        self._emit = self.trace.emit

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _val(x: Operand) -> int:
        return int(x.val) if isinstance(x, SReg) else int(x)

    @staticmethod
    def _src_ids(a: Operand = 0, b: Operand = 0) -> Tuple[int, ...]:
        """The register ids of up to two operands (immediates have none)."""
        if isinstance(a, SReg):
            return (a.rid, b.rid) if isinstance(b, SReg) else (a.rid,)
        return (b.rid,) if isinstance(b, SReg) else ()

    def _sreg(self, value: int) -> SReg:
        return SReg(next(self._ids), _mask64(value))

    def value(self, x: Operand):
        """Architectural value of an operand, outside the traced program.

        Kernels use this to hand results back to the verification layer
        (no instruction is emitted).  On this machine it is a plain
        ``int``; on the batched machine it is the per-seed value array,
        which is why kernels returning scalars must go through ``value``
        rather than ``int(reg)``.
        """
        return self._val(x)

    # -- scalar ALU --------------------------------------------------------

    def li(self, value: int) -> SReg:
        """Load immediate."""
        dst = self._sreg(value)
        self._emit(op.LI, (dst.rid,))
        return dst

    def _alu(self, opcode: int, a: Operand, b: Operand, result: int) -> SReg:
        dst = self._sreg(result)
        self._emit(opcode, (dst.rid,), self._src_ids(a, b))
        return dst

    def add(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.ADD, a, b, self._val(a) + self._val(b))

    def sub(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.SUB, a, b, self._val(a) - self._val(b))

    def mul(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.MUL, a, b, self._val(a) * self._val(b))

    def sll(self, a: Operand, count: Operand) -> SReg:
        return self._alu(op.SLL, a, count, self._val(a) << self._val(count))

    def sra(self, a: Operand, count: Operand) -> SReg:
        return self._alu(op.SRA, a, count, self._val(a) >> self._val(count))

    def and_(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.AND, a, b, self._val(a) & self._val(b))

    def or_(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.OR, a, b, self._val(a) | self._val(b))

    def xor(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.XOR, a, b, self._val(a) ^ self._val(b))

    def abs_(self, a: Operand) -> SReg:
        """Absolute value (cmovl idiom, one ALU op as on Alpha)."""
        return self._alu(op.ABS, a, 0, abs(self._val(a)))

    def min_(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.MIN, a, b, min(self._val(a), self._val(b)))

    def max_(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.MAX, a, b, max(self._val(a), self._val(b)))

    def cmplt(self, a: Operand, b: Operand) -> SReg:
        return self._alu(op.CMPLT, a, b, int(self._val(a) < self._val(b)))

    def clamp(self, a: Operand, lo: int, hi: int) -> SReg:
        """Two-op clamp (min+max) counted as two ALU instructions."""
        return self.min_(self.max_(a, lo), hi)

    # -- scalar memory -----------------------------------------------------

    def _load(self, opcode: int, addr: Operand, offset: int, nbytes: int, signed: bool) -> SReg:
        ea = self._val(addr) + offset
        raw = self.mem.read(ea, nbytes)
        value = int.from_bytes(raw.tobytes(), "little", signed=signed)
        dst = self._sreg(value)
        self._emit(opcode, (dst.rid,), self._src_ids(addr), addr=ea, row_bytes=nbytes)
        return dst

    def load_u8(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDBU, addr, offset, 1, signed=False)

    def load_s16(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDW, addr, offset, 2, signed=True)

    def load_u16(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDWU, addr, offset, 2, signed=False)

    def load_s32(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDL, addr, offset, 4, signed=True)

    def _store(self, opcode: int, value: Operand, addr: Operand, offset: int, nbytes: int) -> None:
        ea = self._val(addr) + offset
        raw = (self._val(value) & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
        self.mem.write(ea, np.frombuffer(raw, dtype=np.uint8))
        self._emit(opcode, (), self._src_ids(value, addr), addr=ea, row_bytes=nbytes)

    def store_u8(self, value: Operand, addr: Operand, offset: int = 0) -> None:
        self._store(op.STB, value, addr, offset, 1)

    def store_s16(self, value: Operand, addr: Operand, offset: int = 0) -> None:
        self._store(op.STW, value, addr, offset, 2)

    def store_s32(self, value: Operand, addr: Operand, offset: int = 0) -> None:
        self._store(op.STL, value, addr, offset, 4)

    # -- control -----------------------------------------------------------

    def branch(self, taken: bool, *srcs: Operand, site: int = 0) -> None:
        """Conditional branch with its dynamic outcome.

        ``site`` identifies the static branch for the branch predictor; 0
        is a shared bucket for ad-hoc data-dependent branches.  A branch
        reads at most two operands.
        """
        self._emit(op.BR, (), self._src_ids(*srcs), taken=taken, pc=site)

    def new_branch_site(self) -> int:
        """Allocate a stable static-branch identity for the predictor."""
        return next(self._branch_sites)

    def loop(self, count: int):
        """Iterate ``count`` times emitting the canonical loop overhead.

        Yields the iteration index; after each body emits the counter
        decrement and the backward branch (taken on all but the last
        iteration), matching the paper's hand-coded loops.
        """
        site = self.new_branch_site()
        counter = self.li(count)
        for i in range(count):
            yield i
            counter = self.sub(counter, 1)
            self.branch(i < count - 1, counter, site=site)
