"""Shared fixed-point specifications and MMX macro helpers.

Everything numeric that more than one kernel (or more than one ISA
version) relies on lives here, so the golden references and all five
versions provably share the same arithmetic.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.emu.handles import VReg
from repro.emu.mmx import MMXMachine
from repro.isa import subword as sw

# --------------------------------------------------------------------------
# 8x8 DCT fixed-point specification
# --------------------------------------------------------------------------

#: Right-shift applied after each of the two matrix products.
DCT_SHIFT = 7


def _dct_basis() -> np.ndarray:
    c = np.empty((8, 8), dtype=np.int16)
    for u in range(8):
        cu = 1.0 / math.sqrt(2.0) if u == 0 else 1.0
        for x in range(8):
            value = 128.0 * 0.5 * cu * math.cos((2 * x + 1) * u * math.pi / 16.0)
            c[u, x] = int(round(value))
    c.setflags(write=False)
    return c


_DCT = _dct_basis()
#: The basis in the width the golden references multiply in.
_DCT64 = _DCT.astype(np.int64)
_DCT64.setflags(write=False)


def dct_matrix() -> np.ndarray:
    """The scaled 8-point DCT-II basis as int16: ``C[u,x]`` in [-64, 64].

    ``C[u,x] = round(128 * 0.5 * c_u * cos((2x+1) u pi / 16))`` with
    ``c_0 = 1/sqrt(2)`` and ``c_u = 1`` otherwise, i.e. the orthonormal
    basis scaled by 2**DCT_SHIFT.  Built once at import and read-only:
    every kernel version and golden reference shares this one array.
    """
    return _DCT


def fdct_golden(block: np.ndarray) -> np.ndarray:
    """Forward DCT: ``Y = RS(C . RS(X . C^T))`` with exact 32-bit products."""
    c = _DCT64
    x = block.astype(np.int64)
    t = sw.round_shift(x @ c.T, DCT_SHIFT, "s32").astype(np.int64)
    y = sw.round_shift(c @ t, DCT_SHIFT, "s32")
    return sw.saturate(y, "s16")


def idct_golden(block: np.ndarray) -> np.ndarray:
    """Inverse DCT: ``X = RS(C^T . RS(Y . C))`` with exact 32-bit products."""
    c = _DCT64
    y = block.astype(np.int64)
    t = sw.round_shift(y @ c, DCT_SHIFT, "s32").astype(np.int64)
    x = sw.round_shift(c.T @ t, DCT_SHIFT, "s32")
    return sw.saturate(x, "s16")


def pair_interleaved(matrix: np.ndarray) -> np.ndarray:
    """Coefficient layout for the ``pmaddwd`` dot-product idiom.

    For output-lane group ``[c0..c3]`` and input pair ``(k, k+1)``, MMX code
    multiplies the broadcast pair against ``[B[k,c0], B[k+1,c0], B[k,c1],
    B[k+1,c1], ...]``.  Returns shape (4, 16): one row per input pair, 16
    interleaved s16 values covering all 8 output columns.
    """
    b = matrix.astype(np.int16)
    out = np.empty((4, 16), dtype=np.int16)
    for p in range(4):
        out[p, 0::2] = b[2 * p, :]
        out[p, 1::2] = b[2 * p + 1, :]
    return out


# --------------------------------------------------------------------------
# Colour-space conversion fixed-point specification (7-bit fractional)
# --------------------------------------------------------------------------
# The 7-bit coefficient scale is chosen so every product and partial sum
# fits a signed 16-bit lane: the MMX versions can then use plain
# ``pmullw``/``paddw`` chains and still match the golden reference
# bit-exactly.  (Costs at most one LSB of chroma accuracy versus the
# 8-bit-scale libjpeg constants; both codec ends in this repository use
# the same spec.)

#: Shift applied after the colour dot products.
COLOR_SHIFT = 7

#: RGB -> YCC coefficient rows (scaled by 128): Y, Cb, Cr per colour.
RGB2YCC = np.array(
    [
        [38, 75, 15],     # Y  = RS(38 R + 75 G + 15 B, 7)
        [-21, -43, 64],   # Cb = RS(-21 R - 43 G + 64 B, 7) + 128
        [64, -54, -10],   # Cr = RS(64 R - 54 G - 10 B, 7) + 128
    ],
    dtype=np.int16,
)

#: YCC -> RGB coefficients (scaled by 128).
YCC2RGB_CR_R = 179   # R = clamp(Y + RS(179 (Cr-128), 7))
YCC2RGB_CB_G = 44    # G = clamp(Y - RS( 44 (Cb-128) + 91 (Cr-128), 7))
YCC2RGB_CR_G = 91
YCC2RGB_CB_B = 227   # B = clamp(Y + RS(227 (Cb-128), 7))


def rgb_to_ycc_golden(rgb: np.ndarray) -> np.ndarray:
    """Exact RGB->YCC over interleaved u8 triads; returns interleaved u8."""
    px = rgb.reshape(-1, 3).astype(np.int64)
    coef = RGB2YCC.astype(np.int64)
    raw = px @ coef.T
    out = sw.round_shift(raw, COLOR_SHIFT, "s32").astype(np.int64)
    out[:, 1] += 128
    out[:, 2] += 128
    return sw.saturate(out, "u8").reshape(rgb.shape)


def ycc_to_rgb_golden(y: np.ndarray, cb: np.ndarray, cr: np.ndarray) -> dict:
    """Exact planar YCC->RGB; returns dict of planar u8 arrays."""
    yv = y.astype(np.int64)
    cbv = cb.astype(np.int64) - 128
    crv = cr.astype(np.int64) - 128
    r = yv + sw.round_shift(YCC2RGB_CR_R * crv, COLOR_SHIFT, "s32")
    g = yv - sw.round_shift(
        YCC2RGB_CB_G * cbv + YCC2RGB_CR_G * crv, COLOR_SHIFT, "s32"
    )
    b = yv + sw.round_shift(YCC2RGB_CB_B * cbv, COLOR_SHIFT, "s32")
    return {
        "r": sw.saturate(r, "u8"),
        "g": sw.saturate(g, "u8"),
        "b": sw.saturate(b, "u8"),
    }


def deinterleave3_mmx(m: MMXMachine, regs: Sequence[VReg], comp: int) -> VReg:
    """Extract colour plane ``comp`` from 3 registers of interleaved triads.

    The byte-permute + OR network costs 5 instructions per plane (three
    ``pshufb`` selections, two ``por`` merges), the standard idiom on ISAs
    with a byte permute.
    """
    width = m.width
    total = 3 * width
    wanted = [comp + 3 * px for px in range(width)]
    partials = []
    for s, reg in enumerate(regs):
        lo, hi = s * width, (s + 1) * width
        indices = [w - lo if lo <= w < hi else -1 for w in wanted]
        partials.append(m.pshufb(reg, indices))
    out = m.por(partials[0], partials[1])
    return m.por(out, partials[2])


def interleave3_mmx(m: MMXMachine, planes: Sequence[VReg]) -> List[VReg]:
    """Merge three plane registers back into interleaved triads (15 ops)."""
    width = m.width
    out_regs = []
    for o in range(3):
        partials = []
        for comp, reg in enumerate(planes):
            indices = []
            for j in range(width):
                byte = o * width + j
                px, c = divmod(byte, 3)
                indices.append(px if c == comp else -1)
            partials.append(m.pshufb(reg, indices))
        merged = m.por(partials[0], partials[1])
        out_regs.append(m.por(merged, partials[2]))
    return out_regs


# --------------------------------------------------------------------------
# GSM fixed-point primitives
# --------------------------------------------------------------------------

def mult_r(a: np.ndarray, b: int) -> np.ndarray:
    """GSM 06.10 ``mult_r``: ``sat16((a*b + 2^14) >> 15)`` element-wise."""
    wide = a.astype(np.int64) * int(b)
    return sw.saturate((wide + (1 << 14)) >> 15, "s16")


# --------------------------------------------------------------------------
# MMX macro helpers (multi-instruction idioms used by several kernels)
# --------------------------------------------------------------------------

def transpose4x4_s16(m: MMXMachine, rows: Sequence[VReg]) -> List[VReg]:
    """Transpose a 4x4 s16 tile held in four MMX64 registers (8 unpacks)."""
    r0, r1, r2, r3 = rows
    t0 = m.punpcklo(r0, r1, "u16")
    t1 = m.punpckhi(r0, r1, "u16")
    t2 = m.punpcklo(r2, r3, "u16")
    t3 = m.punpckhi(r2, r3, "u16")
    c0 = m.punpcklo(t0, t2, "u32")
    c1 = m.punpckhi(t0, t2, "u32")
    c2 = m.punpcklo(t1, t3, "u32")
    c3 = m.punpckhi(t1, t3, "u32")
    return [c0, c1, c2, c3]


def transpose8x8_s16_mmx128(m: MMXMachine, rows: Sequence[VReg]) -> List[VReg]:
    """Transpose an 8x8 s16 tile held in eight MMX128 registers (24 unpacks)."""
    a = list(rows)
    stage1 = []
    for i in range(0, 8, 2):
        stage1.append(m.punpcklo(a[i], a[i + 1], "u16"))
        stage1.append(m.punpckhi(a[i], a[i + 1], "u16"))
    stage2 = []
    for i in (0, 1, 4, 5):
        j = i + 2
        stage2.append(m.punpcklo(stage1[i], stage1[j], "u32"))
        stage2.append(m.punpckhi(stage1[i], stage1[j], "u32"))
    order = [0, 1, 2, 3]
    out = []
    for idx in range(4):
        lo = m.punpcklo(stage2[order[idx]], stage2[order[idx] + 4], "u64")
        hi = m.punpckhi(stage2[order[idx]], stage2[order[idx] + 4], "u64")
        out.extend([lo, hi])
    return out


def transpose8x8_s16_mmx64(
    m: MMXMachine, los: Sequence[VReg], his: Sequence[VReg]
) -> tuple:
    """Transpose an 8x8 s16 tile held as 8 (lo, hi) MMX64 register pairs.

    Works tile-wise on the four 4x4 quadrants (32 unpack instructions).
    """
    tile_a = transpose4x4_s16(m, los[0:4])
    tile_b = transpose4x4_s16(m, his[0:4])
    tile_c = transpose4x4_s16(m, los[4:8])
    tile_d = transpose4x4_s16(m, his[4:8])
    new_los = tile_a + tile_b
    new_his = tile_c + tile_d
    return new_los, new_his


def mmx_row_times_matrix(
    m: MMXMachine,
    row_regs: Sequence[VReg],
    pair_regs: Sequence[Sequence[VReg]],
    shift: int,
    bias: VReg,
) -> List[VReg]:
    """Multiply one 8-element s16 row by a constant 8x8 matrix (pmaddwd).

    ``row_regs`` holds the row (one MMX128 register or two MMX64
    registers).  ``pair_regs[p][g]`` is the pair-interleaved coefficient
    register for input pair ``p`` and output-lane group ``g`` (MMX64: four
    groups of two s32 outputs; MMX128: two groups of four).  ``bias`` is
    the hoisted rounding constant.  Returns packed s16 result registers
    after the rounding shift (two for MMX64, one for MMX128).
    """
    lanes_per_reg = m.width // 2
    bcasts = []
    for p in range(4):
        src_reg = row_regs[(2 * p) // lanes_per_reg]
        lane0 = (2 * p) % lanes_per_reg
        order = [lane0, lane0 + 1] * (lanes_per_reg // 2)
        bcasts.append(m.pshufw(src_reg, order, "s16"))
    n_groups = 8 // (m.width // 4)
    packed: List[VReg] = []
    pending = []
    for g in range(n_groups):
        acc = None
        for p in range(4):
            prod = m.pmaddwd(bcasts[p], pair_regs[p][g])
            acc = prod if acc is None else m.padd(acc, prod, "s32")
        acc = m.padd(acc, bias, "s32")
        acc = m.psra(acc, shift, "s32")
        pending.append(acc)
        if len(pending) == 2:
            packed.append(m.packss(pending[0], pending[1]))
            pending = []
    return packed
