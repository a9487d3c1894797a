"""NumPy-vectorised batch emulation: many seeds of one kernel per pass.

The record-at-a-time machines in :mod:`repro.emu.scalar`/``mmx``/``vmmx``
pay full Python interpreter cost per dynamic instruction *per seed*.  The
batch machines here subclass them and widen every architectural value by
one leading *seed axis* (structure-of-arrays, seed-major):

* a scalar register holds a ``(B,)`` int64 array (or one int, when
  every seed shares the value),
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
the reference machines' explicit 64-bit wrap.  The reference machines'
intrinsics are written generically -- over the register handle classes
(``_SReg``, ``_VReg``, ``_MReg``, ...), over leading axes of memory and
register values (``buf[..., addr:end]``, ``axis=-1``) and over a scalar
register value that is an int or an array (``_to_value``, ``_uniform``)
-- and the subword helpers in :mod:`repro.isa.subword` are element-wise
and shape-generic (differential-tested against int64 formulas on
``(B, n)`` batches), so the batch machines inherit nearly every
intrinsic unchanged.  A scalar register whose value every seed shares
(an immediate, a loop counter, a pointer) keeps it as one Python int;
values that came from per-seed data are ``(B,)`` int64 arrays.  Only the
intrinsics whose reference body reduces to one Python value or
broadcasts a scalar along what is now the seed axis are overridden here.
"""

from __future__ import annotations

import operator
import os
from typing import Optional

import numpy as np

from repro.emu.handles import AccReg, MAccReg, MReg, SReg, VReg
from repro.emu.memory import AddressSpace, Memory, zeroed_plane
from repro.emu.mmx import MMXMachine
from repro.emu.scalar import Operand, ScalarMachine
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
    """A scalar register: a (nseeds,) int64 value per seed, or one int
    every seed shares."""

    __slots__ = ()

    def __int__(self) -> int:
        return int(_uniform(np.asarray(self.val), "scalar register value"))


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


class BatchMemory(AddressSpace):
    """``nseeds`` flat address spaces sharing one (nseeds, size) buffer.

    Allocation happens per seed through :meth:`plane` views (so workload
    generators run unmodified); the batch machines access all planes at
    one uniform address per instruction, and every access reads or
    writes a leading seed axis: ``read`` returns (nseeds, nbytes),
    ``read_rows`` (nseeds, rows, row_bytes).  The buffer is one anonymous
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
# The batch machines
# ---------------------------------------------------------------------------


class _BatchScalarOps:
    """What every batch machine changes: its handle classes, how a lane
    read out of memory or a register becomes a scalar value (one int64
    per seed), and the demand that an address, stride, vector length or
    branch outcome be uniform across the seeds."""

    _SReg, _VReg, _MReg = BatchSReg, BatchVReg, BatchMReg
    _AccReg, _MAccReg = BatchAccReg, BatchMAccReg
    _to_value = operator.methodcaller("astype", np.int64)

    def __init__(self, mem: BatchMemory, *args, **kwargs) -> None:
        super().__init__(mem, *args, **kwargs)
        self.nseeds = mem.nseeds

    @staticmethod
    def _uniform(value, what: str) -> int:
        return int(_uniform(np.asarray(value), what))


class BatchScalarMachine(_BatchScalarOps, ScalarMachine):
    """Batched counterpart of :class:`~repro.emu.scalar.ScalarMachine`."""


class BatchMMXMachine(_BatchScalarOps, MMXMachine):
    """Batched counterpart of :class:`~repro.emu.mmx.MMXMachine`."""

    def movd_from_scalar(self, s: Operand, dtype: str = "s16") -> BatchVReg:
        lanes = self.width // sw.WIDTH[dtype]
        v = np.broadcast_to(np.asarray(self.value(s), dtype=np.int64), (self.nseeds,))
        data = np.repeat(v.astype(sw.STORAGE[dtype])[:, None], lanes, axis=1)
        srcs = (s.rid,) if isinstance(s, SReg) else ()
        return self._result((op.MOVD_B, -1, 0, 1, 0, 0, False, len(srcs), 1), srcs, data)


class BatchVMMXMachine(_BatchScalarOps, VMMXMachine):
    """Batched counterpart of :class:`~repro.emu.vmmx.VMMXMachine`."""

    def vsad_acc(self, acc: AccReg, a: MReg, b: MReg) -> BatchAccReg:
        diff = self._active(a, "u8").astype(np.int64) - self._active(b, "u8")
        return self._accumulate(op.VSAD_ACC, acc, a, b, np.abs(diff).sum(axis=(-2, -1)))

    def vsqd_acc(self, acc: AccReg, a: MReg, b: MReg) -> BatchAccReg:
        diff = self._active(a, "u8").astype(np.int64) - self._active(b, "u8")
        return self._accumulate(op.VSQD_ACC, acc, a, b, (diff * diff).sum(axis=(-2, -1)))


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
