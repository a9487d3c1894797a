"""Dynamic-instruction taxonomy, functional-unit classes and latencies.

The paper classifies dynamic instructions into five categories (Fig. 7):
scalar memory, scalar arithmetic, control, vector memory and vector
arithmetic.  "Vector" covers both the 1-D (MMX-style) and the 2-D
(VMMX/MOM) extensions -- a `movq` load is vector memory, a `padd` is
vector arithmetic.

Latencies follow the MIPS R10000-like baseline described in §III-C; memory
latency is never taken from this table -- it always comes from the cache
hierarchy model in :mod:`repro.timing.caches`.

Every opcode the emulation machines emit has one static descriptor in
:data:`DESCRIPTORS` -- ``(mnemonic, category, fu, latency, is_store,
is_branch)`` -- and one module-level int naming its row (``PADD``,
``VLD_P``, ...).  A machine records that int with only the
instruction's dynamic fields (:class:`~repro.isa.trace.TraceBuilder`);
a trace snapshot keeps the rows of this table its instructions use
once, as its descriptor pool.
"""

from __future__ import annotations

import enum
from typing import List, Tuple


class Category(enum.Enum):
    """Instruction category used for counts and cycle attribution."""

    SMEM = "smem"
    SARITH = "sarith"
    SCTRL = "sctrl"
    VMEM = "vmem"
    VARITH = "varith"

    @property
    def is_vector(self) -> bool:
        """Whether the category belongs to the SIMD/vector portion."""
        return self in (Category.VMEM, Category.VARITH)


class FUClass(enum.Enum):
    """Functional-unit pool an instruction executes on."""

    INT = "int"
    FP = "fp"
    MEM = "mem"
    SIMD = "simd"


class Latency:
    """Execution latencies (cycles) for non-memory operations."""

    INT_ALU = 1
    INT_MUL = 3
    BRANCH = 1
    FP = 3
    SIMD_ALU = 1
    SIMD_SHIFT = 1
    SIMD_PACK = 1
    SIMD_MUL = 3
    SIMD_MAC = 3
    SIMD_SAD = 3
    SIMD_REDUCE = 2


#: Register-id namespaces.  The emulation machines allocate ids from these
#: bases so that scalar, SIMD, matrix and accumulator registers never alias
#: in the dependence tracker.
SCALAR_REG_BASE = 0
SIMD_REG_BASE = 100
MATRIX_REG_BASE = 200
ACC_REG_BASE = 300
VCTRL_REG_BASE = 400


# ---------------------------------------------------------------------------
# Static opcode descriptors
# ---------------------------------------------------------------------------

Descriptor = Tuple[str, Category, FUClass, int, bool, bool]

_TABLE: List[Descriptor] = []


def _op(
    mnemonic: str, category: Category, fu: FUClass, latency: int = 0,
    is_store: bool = False, is_branch: bool = False,
) -> int:
    _TABLE.append((mnemonic, category, fu, latency, is_store, is_branch))
    return len(_TABLE) - 1


_SARITH, _SMEM, _SCTRL = Category.SARITH, Category.SMEM, Category.SCTRL
_VARITH, _VMEM = Category.VARITH, Category.VMEM
_INT, _MEM, _SIMD = FUClass.INT, FUClass.MEM, FUClass.SIMD

# Scalar baseline (repro.emu.scalar); ``setvl`` is VMMX's scalar op.
LI = _op("li", _SARITH, _INT, Latency.INT_ALU)
ADD = _op("add", _SARITH, _INT, Latency.INT_ALU)
SUB = _op("sub", _SARITH, _INT, Latency.INT_ALU)
MUL = _op("mul", _SARITH, _INT, Latency.INT_MUL)
SLL = _op("sll", _SARITH, _INT, Latency.INT_ALU)
SRA = _op("sra", _SARITH, _INT, Latency.INT_ALU)
AND = _op("and", _SARITH, _INT, Latency.INT_ALU)
OR = _op("or", _SARITH, _INT, Latency.INT_ALU)
XOR = _op("xor", _SARITH, _INT, Latency.INT_ALU)
ABS = _op("abs", _SARITH, _INT, Latency.INT_ALU)
MIN = _op("min", _SARITH, _INT, Latency.INT_ALU)
MAX = _op("max", _SARITH, _INT, Latency.INT_ALU)
CMPLT = _op("cmplt", _SARITH, _INT, Latency.INT_ALU)
SETVL = _op("setvl", _SARITH, _INT, Latency.INT_ALU)
LDBU = _op("ldbu", _SMEM, _MEM)
LDW = _op("ldw", _SMEM, _MEM)
LDWU = _op("ldwu", _SMEM, _MEM)
LDL = _op("ldl", _SMEM, _MEM)
STB = _op("stb", _SMEM, _MEM, is_store=True)
STW = _op("stw", _SMEM, _MEM, is_store=True)
STL = _op("stl", _SMEM, _MEM, is_store=True)
BR = _op("br", _SCTRL, _INT, Latency.BRANCH, is_branch=True)

# Vector memory, shared by the 1-D and the 2-D machines.
VLD = _op("vld", _VMEM, _MEM)
VST = _op("vst", _VMEM, _MEM, is_store=True)
VLD_P = _op("vld.p", _VMEM, _MEM)
VST_P = _op("vst.p", _VMEM, _MEM, is_store=True)

# 1-D SIMD (repro.emu.mmx).
PXOR = _op("pxor", _VARITH, _SIMD, Latency.SIMD_ALU)
PCONST = _op("pconst", _VARITH, _SIMD, Latency.SIMD_ALU)
PADD = _op("padd", _VARITH, _SIMD, Latency.SIMD_ALU)
PADDS = _op("padds", _VARITH, _SIMD, Latency.SIMD_ALU)
PSUB = _op("psub", _VARITH, _SIMD, Latency.SIMD_ALU)
PSUBS = _op("psubs", _VARITH, _SIMD, Latency.SIMD_ALU)
PMULLW = _op("pmullw", _VARITH, _SIMD, Latency.SIMD_MUL)
PMULHW = _op("pmulhw", _VARITH, _SIMD, Latency.SIMD_MUL)
PMADDWD = _op("pmaddwd", _VARITH, _SIMD, Latency.SIMD_MAC)
PAVGB = _op("pavgb", _VARITH, _SIMD, Latency.SIMD_ALU)
PAND = _op("pand", _VARITH, _SIMD, Latency.SIMD_ALU)
POR = _op("por", _VARITH, _SIMD, Latency.SIMD_ALU)
PSLL = _op("psll", _VARITH, _SIMD, Latency.SIMD_SHIFT)
PSRL = _op("psrl", _VARITH, _SIMD, Latency.SIMD_SHIFT)
PSRA = _op("psra", _VARITH, _SIMD, Latency.SIMD_SHIFT)
PACKUSWB = _op("packuswb", _VARITH, _SIMD, Latency.SIMD_PACK)
PACKSSDW = _op("packssdw", _VARITH, _SIMD, Latency.SIMD_PACK)
PUNPCKL = _op("punpckl", _VARITH, _SIMD, Latency.SIMD_PACK)
PUNPCKH = _op("punpckh", _VARITH, _SIMD, Latency.SIMD_PACK)
PUNPCKLBW = _op("punpcklbw", _VARITH, _SIMD, Latency.SIMD_PACK)
PUNPCKHBW = _op("punpckhbw", _VARITH, _SIMD, Latency.SIMD_PACK)
PSHUFW = _op("pshufw", _VARITH, _SIMD, Latency.SIMD_PACK)
PSHUFB = _op("pshufb", _VARITH, _SIMD, Latency.SIMD_PACK)
PMULR = _op("pmulr", _VARITH, _SIMD, Latency.SIMD_MUL)
PSUMABS = _op("psumabs", _VARITH, _SIMD, Latency.SIMD_SAD)
PSADBW = _op("psadbw", _VARITH, _SIMD, Latency.SIMD_SAD)
HSUM = _op("hsum", _VARITH, _SIMD, Latency.SIMD_REDUCE)
HSUM_D = _op("hsum.d", _VARITH, _SIMD, Latency.SIMD_REDUCE)
MOVD = _op("movd", _VARITH, _SIMD, Latency.SIMD_ALU)
MOVD_B = _op("movd.b", _VARITH, _SIMD, Latency.SIMD_ALU)

# 2-D matrix SIMD (repro.emu.vmmx).
VXOR = _op("vxor", _VARITH, _SIMD, Latency.SIMD_ALU)
VCONST = _op("vconst", _VARITH, _SIMD, Latency.SIMD_ALU)
VADD = _op("vadd", _VARITH, _SIMD, Latency.SIMD_ALU)
VADDS = _op("vadds", _VARITH, _SIMD, Latency.SIMD_ALU)
VSUB = _op("vsub", _VARITH, _SIMD, Latency.SIMD_ALU)
VSUBS = _op("vsubs", _VARITH, _SIMD, Latency.SIMD_ALU)
VMULLW = _op("vmullw", _VARITH, _SIMD, Latency.SIMD_MUL)
VAVGB = _op("vavgb", _VARITH, _SIMD, Latency.SIMD_ALU)
VSLL = _op("vsll", _VARITH, _SIMD, Latency.SIMD_SHIFT)
VSRL = _op("vsrl", _VARITH, _SIMD, Latency.SIMD_SHIFT)
VSRA = _op("vsra", _VARITH, _SIMD, Latency.SIMD_SHIFT)
VMULR_VS = _op("vmulr.vs", _VARITH, _SIMD, Latency.SIMD_MUL)
VMADDWD = _op("vmaddwd", _VARITH, _SIMD, Latency.SIMD_MAC)
VUNPCK_LO = _op("vunpck.lo", _VARITH, _SIMD, Latency.SIMD_PACK)
VUNPCK_HI = _op("vunpck.hi", _VARITH, _SIMD, Latency.SIMD_PACK)
VPACKSSDW = _op("vpackssdw", _VARITH, _SIMD, Latency.SIMD_PACK)
VUNPCKLO = _op("vunpcklo", _VARITH, _SIMD, Latency.SIMD_PACK)
VUNPCKHI = _op("vunpckhi", _VARITH, _SIMD, Latency.SIMD_PACK)
VPACKUS = _op("vpackus", _VARITH, _SIMD, Latency.SIMD_PACK)
VACC_CLR = _op("vacc.clr", _VARITH, _SIMD, Latency.SIMD_ALU)
VSAD_ACC = _op("vsad.acc", _VARITH, _SIMD, Latency.SIMD_SAD)
VSQD_ACC = _op("vsqd.acc", _VARITH, _SIMD, Latency.SIMD_SAD)
VDOT_ACC = _op("vdot.acc", _VARITH, _SIMD, Latency.SIMD_MAC)
VRED = _op("vred", _VARITH, _SIMD, Latency.SIMD_REDUCE)
VMACC_CLR = _op("vmacc.clr", _VARITH, _SIMD, Latency.SIMD_ALU)
VMAC_B = _op("vmac.b", _VARITH, _SIMD, Latency.SIMD_MAC)
VMAC_E = _op("vmac.e", _VARITH, _SIMD, Latency.SIMD_MAC)
VMACC_PACK = _op("vmacc.pack", _VARITH, _SIMD, Latency.SIMD_REDUCE)
VEXT = _op("vext", _VARITH, _SIMD, Latency.SIMD_ALU)

#: ``(mnemonic, category, fu, latency, is_store, is_branch)`` per opcode
#: id; the ids above index it.
DESCRIPTORS: Tuple[Descriptor, ...] = tuple(_TABLE)
