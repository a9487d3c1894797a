"""Scalar (Alpha-like) emulation machine.

This is the base class of every extension machine: it provides the scalar
integer instructions (loads, stores, ALU ops, branches) that appear as
loop/pointer overhead around the SIMD code, exactly as in the paper's
Fig. 3 listings.  Each intrinsic computes the functional result and
appends one dynamic instruction to the columnar trace builder
(:class:`~repro.isa.trace.TraceBuilder`) through the builder's bound
appenders: the instruction's record -- prebuilt once per opcode when
only the operand counts vary (:func:`~repro.isa.trace.record`) -- and
its register ids.  A hot intrinsic reads its operands, checks its
memory bounds, wraps its result and appends its record in its own
Python frame: the plumbing costs no call per instruction.

The bodies are generic over the register handle class (``_SReg``) and
over leading axes of memory and register values, so the batch machines
(:mod:`repro.emu.batch`) inherit them.
"""

from __future__ import annotations

import itertools
import operator
from operator import attrgetter
from typing import Optional, Tuple, Union

import numpy as np

from repro.emu.handles import SReg
from repro.emu.memory import Memory
from repro.isa import opcodes as op
from repro.isa.trace import Trace, record

#: Many intrinsics accept either a register handle or a Python immediate.
Operand = Union[SReg, int]

#: A handle's register id: ``tuple(map(rid, handles))`` collects a
#: source list without building a Python list per instruction.
rid = attrgetter("rid")

#: Signed 64-bit register range; an int result outside it wraps modulo
#: ``2**64``, matching register-width integer arithmetic (NumPy int64
#: values of the batch machines wrap by themselves).
_MIN64, _MAX64, _MOD64 = -(1 << 63), (1 << 63) - 1, 1 << 64

_LI = record(op.LI, 0, 1)


def _minimum(x, y):
    """``min`` of two ints; element-wise if either is a per-seed array."""
    return min(x, y) if type(x) is type(y) is int else np.minimum(x, y)


def _maximum(x, y):
    """``max`` of two ints; element-wise if either is a per-seed array."""
    return max(x, y) if type(x) is type(y) is int else np.maximum(x, y)


def _less(x, y):
    """1 where ``x < y``, else 0 (an int, or an int64 array per seed)."""
    return (x < y) * 1


def _alu(opcode: int, fn):
    """A two-operand ALU intrinsic: ``fn`` of the operands' values (each
    a register's or an immediate's), wrapped to signed 64 bits."""
    records = tuple(record(opcode, n_src, 1) for n_src in range(3))

    def intrinsic(self, a: Operand, b: Operand) -> SReg:
        if isinstance(a, SReg):
            x, ids = a.val, (a.rid,)
        else:
            x, ids = int(a), ()
        if isinstance(b, SReg):
            y, ids = b.val, ids + (b.rid,)
        else:
            y = int(b)
        value = fn(x, y)
        if type(value) is int and not _MIN64 <= value <= _MAX64:
            value = (value - _MIN64) % _MOD64 + _MIN64
        dst = self._new_id()
        self._put(records[len(ids)])
        self._put_ids(ids + (dst,))
        return self._SReg(dst, value)

    return intrinsic


class ScalarMachine:
    """Functional + trace-emitting model of the scalar baseline core."""

    #: The handle class of a scalar register.
    _SReg = SReg
    #: A scalar register's value from a lane read out of memory or a
    #: register (a NumPy scalar here): a Python int.
    _to_value = operator.methodcaller("item")

    def __init__(self, mem: Memory, trace: Optional[Trace] = None) -> None:
        self.mem = mem
        self.trace = trace if trace is not None else Trace()
        self._new_id = itertools.count(1).__next__
        self._branch_sites = itertools.count(1)
        self._put, self._put_ids = self.trace.appenders()
        # Memory as the intrinsics index it: the last axis of ``buf`` is
        # the address, and any leading axes (a batch's seeds) lead every
        # register value too.
        self._buf, self._size = mem.buf, mem.size
        self._lead = mem.buf.shape[:-1]

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _uniform(value, what: str) -> int:
        """``value`` as the one int an address, stride, vector length or
        branch outcome needs (the batch machines demand it uniform)."""
        return int(value)

    def _operand(self, x: Operand, offset: int, srcs: Tuple[int, ...] = (),
                 what: str = "effective address"):
        """``(value, ids)``: ``x``'s value plus ``offset`` as the one int
        an address, a stride or a vector length needs, and ``srcs``
        followed by ``x``'s register id."""
        if isinstance(x, SReg):
            value, srcs = x.val, srcs + (x.rid,)
        else:
            value = x
        if type(value) is not int:
            value = self._uniform(value, what)
        return value + offset, srcs

    def value(self, x: Operand):
        """Architectural value of an operand, outside the traced program.

        Kernels use this to hand results back to the verification layer
        (no instruction is emitted).  On this machine it is a plain
        ``int``; on the batched machine it is the per-seed value array
        (or one int every seed shares), which is why kernels returning
        scalars must go through ``value`` rather than ``int(reg)``.
        """
        return x.val if isinstance(x, SReg) else int(x)

    # -- scalar ALU --------------------------------------------------------

    def li(self, value: int) -> SReg:
        """Load immediate."""
        value = int(value)
        if not _MIN64 <= value <= _MAX64:
            value = (value - _MIN64) % _MOD64 + _MIN64
        dst = self._new_id()
        self._put(_LI)
        self._put_ids((dst,))
        return self._SReg(dst, value)

    add = _alu(op.ADD, operator.add)
    sub = _alu(op.SUB, operator.sub)
    mul = _alu(op.MUL, operator.mul)
    sll = _alu(op.SLL, operator.lshift)
    sra = _alu(op.SRA, operator.rshift)
    and_ = _alu(op.AND, operator.and_)
    or_ = _alu(op.OR, operator.or_)
    xor = _alu(op.XOR, operator.xor)
    min_ = _alu(op.MIN, _minimum)
    max_ = _alu(op.MAX, _maximum)
    cmplt = _alu(op.CMPLT, _less)
    _abs = _alu(op.ABS, lambda x, _zero: abs(x))

    def abs_(self, a: Operand) -> SReg:
        """Absolute value (cmovl idiom, one ALU op as on Alpha)."""
        return self._abs(a, 0)

    def clamp(self, a: Operand, lo: int, hi: int) -> SReg:
        """Two-op clamp (min+max) counted as two ALU instructions."""
        return self.min_(self.max_(a, lo), hi)

    # -- scalar memory -----------------------------------------------------

    def _load(self, opcode: int, addr: Operand, offset: int, nbytes: int, signed: bool) -> SReg:
        ea, ids = self._operand(addr, offset)
        self.mem._check(ea, nbytes)
        lane = np.dtype(f"<{'i' if signed else 'u'}{nbytes}")
        raw = self._buf[..., ea : ea + nbytes].view(lane)[..., 0]
        dst = self._new_id()
        self._put((opcode, ea, nbytes, 1, 0, 0, False, len(ids), 1))
        self._put_ids(ids + (dst,))
        return self._SReg(dst, self._to_value(raw))

    def load_u8(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDBU, addr, offset, 1, signed=False)

    def load_s16(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDW, addr, offset, 2, signed=True)

    def load_u16(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDWU, addr, offset, 2, signed=False)

    def load_s32(self, addr: Operand, offset: int = 0) -> SReg:
        return self._load(op.LDL, addr, offset, 4, signed=True)

    def _store(self, opcode: int, value: Operand, addr: Operand, offset: int, nbytes: int) -> None:
        if isinstance(value, SReg):
            v, srcs = value.val, (value.rid,)
        else:
            v, srcs = int(value) & ((1 << 8 * nbytes) - 1), ()
        ea, ids = self._operand(addr, offset, srcs)
        self.mem._check(ea, nbytes)
        lanes = np.array(v, dtype=np.int64)[..., None].astype(f"<u{nbytes}")
        self._buf[..., ea : ea + nbytes] = lanes.view(np.uint8)
        self._put((opcode, ea, nbytes, 1, 0, 0, False, len(ids), 0))
        self._put_ids(ids)

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
        if type(taken) is np.ndarray:
            taken = self._uniform(taken, "branch outcome")
        ids = ()
        for src in srcs:
            if isinstance(src, SReg):
                ids += (src.rid,)
        self._put((op.BR, -1, 0, 1, 0, site, taken, len(ids), 0))
        self._put_ids(ids)

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
