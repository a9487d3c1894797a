"""Register value handles returned by emulation-machine intrinsics.

Handles are SSA-like: every instruction that produces a value returns a
fresh handle with a unique register id, so the timing model sees exact RAW
dependences with no false sharing.  The ids land in the packed src/dst
columns of the columnar trace IR (:mod:`repro.isa.trace`).  The handle
also carries the functional value (a Python int for scalars, numpy arrays
for SIMD/matrix registers), which is what makes the emulation machines
usable as a correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(slots=True)
class SReg:
    """A scalar (integer) register value."""

    rid: int
    val: int

    def __int__(self) -> int:
        return int(self.val)


@dataclass(slots=True)
class VReg:
    """A 1-D SIMD register value.

    The byte length is the owning machine's
    :attr:`~repro.machines.SimdGeometry.row_bytes` (8 for MMX64, 16 for
    MMX128, wider for registered custom geometries).
    """

    rid: int
    data: np.ndarray  # uint8, length == geometry.row_bytes

    def view(self, dtype: np.dtype) -> np.ndarray:
        """Reinterpret the register bytes as packed lanes of ``dtype``."""
        return self.data.view(dtype)


@dataclass(slots=True)
class MReg:
    """A 2-D matrix register value.

    Shaped by the owning machine's geometry:
    (:attr:`~repro.machines.SimdGeometry.max_vl`,
    :attr:`~repro.machines.SimdGeometry.row_bytes`) bytes.
    """

    rid: int
    data: np.ndarray  # uint8, shape (geometry.max_vl, geometry.row_bytes)

    def rows_view(self, dtype: np.dtype) -> np.ndarray:
        """Reinterpret each row as packed lanes of ``dtype``."""
        return self.data.view(dtype)


@dataclass(slots=True)
class AccReg:
    """A packed reduction accumulator (MOM-style).

    Functionally we track the exact running total in ``total``; the packed
    partial-sum layout only affects timing, which the trace records carry.
    """

    rid: int
    total: int


@dataclass(slots=True)
class MAccReg:
    """A matrix multiply-accumulate register: (max_vl, cols) int64 lanes."""

    rid: int
    parts: np.ndarray  # int64, shape (max_vl, cols)
