"""Dynamic-instruction taxonomy, functional-unit classes and latencies.

The paper classifies dynamic instructions into five categories (Fig. 7):
scalar memory, scalar arithmetic, control, vector memory and vector
arithmetic.  "Vector" covers both the 1-D (MMX-style) and the 2-D
(VMMX/MOM) extensions -- a `movq` load is vector memory, a `padd` is
vector arithmetic.

Latencies follow the MIPS R10000-like baseline described in §III-C; memory
latency is never taken from this table -- it always comes from the cache
hierarchy model in :mod:`repro.timing.caches`.
"""

from __future__ import annotations

import enum


class Category(enum.Enum):
    """Instruction category used for counts and cycle attribution."""

    SMEM = "smem"
    SARITH = "sarith"
    SCTRL = "sctrl"
    VMEM = "vmem"
    VARITH = "varith"

    #: Members are singletons that compare by identity, so they hash by
    #: identity too: the trace builder looks up two enum codes per
    #: emitted instruction, and ``Enum.__hash__`` runs in Python.
    __hash__ = object.__hash__

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

    #: Identity hash, as for :class:`Category`.
    __hash__ = object.__hash__


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
