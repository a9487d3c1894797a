"""Motion-estimation kernels: ``motion1`` (SAD) and ``motion2`` (SQD).

``motion1`` is the paper's worked example (Fig. 3): the ``dist1`` routine
of the MPEG-2 encoder computing the Sum of Absolute Differences between
two h x 16 pixel blocks with a row stride ``lx``.  The five versions below
are transliterations of the paper's listings:

* scalar        -- Fig. 3(a): two nested loops.
* mmx64/mmx128  -- Fig. 3(b)/(d): the halve-subtract-sum idiom (MMX has no
  ``psadbw``), which loses the LSB and compensates with a final ``<<1``.
  These versions are *intentionally approximate*; their exact semantics
  are pinned by :func:`golden_sad_halved` and their distance from the true
  SAD is bounded by one per pixel.
* vmmx64/vmmx128 -- Fig. 3(c)/(e): strided vector loads + packed SAD
  accumulators; bit-exact.

``motion2`` (Sum of Quadratic Differences, ``dist2``) is exact in every
version: the MMX code widens to 16 bit and uses ``pmaddwd`` on the
differences.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.kernels.base import KernelSpec, Workload

BLOCK_W = 16
FRAME_STRIDE = 800
N_BLOCKS = 17  # one diamond-search refinement step worth of candidates


def _make_workload(mem, seed: int, h: int = 16) -> Workload:
    rng = np.random.default_rng(seed)
    rows = h + N_BLOCKS + 4
    cur = rng.integers(0, 256, (rows, FRAME_STRIDE), dtype=np.uint8)
    # The reference area is the current area plus noise and a small shift,
    # giving SAD statistics similar to real motion search.
    ref = np.roll(cur, 3, axis=1).astype(np.int16) + rng.integers(-24, 25, cur.shape)
    ref = np.clip(ref, 0, 255).astype(np.uint8)
    cur_addr = mem.alloc_array(cur)
    ref_addr = mem.alloc_array(ref)
    pairs = []
    blocks_a: List[np.ndarray] = []
    blocks_b: List[np.ndarray] = []
    for i in range(N_BLOCKS):
        col = (i * 16) % (FRAME_STRIDE - BLOCK_W - 1)
        row = i % 4
        p1 = cur_addr + row * FRAME_STRIDE + col
        p2 = ref_addr + row * FRAME_STRIDE + col
        pairs.append((p1, p2))
        blocks_a.append(cur[row : row + h, col : col + BLOCK_W].copy())
        blocks_b.append(ref[row : row + h, col : col + BLOCK_W].copy())
    return {
        "pairs": pairs,
        "h": h,
        "lx": FRAME_STRIDE,
        "blocks_a": blocks_a,
        "blocks_b": blocks_b,
    }


# --------------------------------------------------------------------------
# motion1: SAD
# --------------------------------------------------------------------------

def golden_sad(wl: Workload) -> List[int]:
    """Exact SAD per block pair."""
    return [
        int(np.abs(a.astype(np.int64) - b.astype(np.int64)).sum())
        for a, b in zip(wl["blocks_a"], wl["blocks_b"])
    ]


def golden_sad_halved(wl: Workload) -> List[int]:
    """The MMX idiom of Fig. 3(b)/(d): ``2 * sum(|a>>1 - b>>1|)``."""
    out = []
    for a, b in zip(wl["blocks_a"], wl["blocks_b"]):
        d = (a.astype(np.int64) >> 1) - (b.astype(np.int64) >> 1)
        out.append(int(2 * np.abs(d).sum()))
    return out


def _golden_motion1_for(wl: Workload, version: str) -> List[int]:
    if version in ("mmx64", "mmx128"):
        return golden_sad_halved(wl)
    return golden_sad(wl)


def motion1_scalar(m, wl: Workload) -> List[int]:
    results = []
    lx = m.li(wl["lx"])
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        s = m.li(0)
        for _ in m.loop(wl["h"]):
            for i in m.loop(BLOCK_W):
                v1 = m.load_u8(p1, i)
                v2 = m.load_u8(p2, i)
                d = m.abs_(m.sub(v1, v2))
                s = m.add(s, d)
            p1 = m.add(p1, lx)
            p2 = m.add(p2, lx)
        results.append(m.value(s))
    return results


def motion1_mmx(m, wl: Workload) -> List[int]:
    """Fig. 3(b) for MMX64 (two 8-byte halves) / Fig. 3(d) for MMX128."""
    results = []
    lx = m.li(wl["lx"])
    halves = BLOCK_W // m.width
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        acc = m.zero()
        for _ in m.loop(wl["h"]):
            for half in range(halves):
                v1 = m.load(p1, half * m.width)
                v2 = m.load(p2, half * m.width)
                v1 = m.psrl(v1, 1, "u8")
                v2 = m.psrl(v2, 1, "u8")
                d = m.psub(v1, v2, "s8")
                s = m.psumabs_s8(d)
                acc = m.padd(acc, s, "u16")
            p1 = m.add(p1, lx)
            p2 = m.add(p2, lx)
        total = m.movd_to_scalar(acc, "u16", 0)
        total = m.sll(total, 1)
        results.append(m.value(total))
    return results


def motion1_vmmx(m, wl: Workload) -> List[int]:
    """Fig. 3(c) for VMMX64 (two h x 8 halves) / Fig. 3(e) for VMMX128."""
    results = []
    m.setvl(wl["h"])
    stride = m.li(wl["lx"])
    halves = BLOCK_W // m.row_bytes
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        partials = []
        for half in range(halves):
            v1 = m.vload(p1, stride, half * m.row_bytes)
            v2 = m.vload(p2, stride, half * m.row_bytes)
            acc = m.acc_zero()
            acc = m.vsad_acc(acc, v1, v2)
            partials.append(m.acc_read(acc))
        total = partials[0]
        for extra in partials[1:]:
            total = m.add(total, extra)
        results.append(m.value(total))
    return results


MOTION1 = KernelSpec(
    name="motion1",
    app="mpeg2enc",
    description="Sum of Absolute Differences (dist1)",
    data_size="16x16 8-bit",
    make_workload=_make_workload,
    golden=golden_sad,
    golden_for=_golden_motion1_for,
    read_output=lambda mem, wl: None,
    versions={
        "scalar": motion1_scalar,
        "mmx64": motion1_mmx,
        "mmx128": motion1_mmx,
        "vmmx64": motion1_vmmx,
        "vmmx128": motion1_vmmx,
    },
    returns_scalar=True,
    batch=N_BLOCKS,
)


# --------------------------------------------------------------------------
# motion2: SQD
# --------------------------------------------------------------------------

def golden_sqd(wl: Workload) -> List[int]:
    """Exact sum of squared differences per block pair."""
    out = []
    for a, b in zip(wl["blocks_a"], wl["blocks_b"]):
        d = a.astype(np.int64) - b.astype(np.int64)
        out.append(int((d * d).sum()))
    return out


def motion2_scalar(m, wl: Workload) -> List[int]:
    results = []
    lx = m.li(wl["lx"])
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        s = m.li(0)
        for _ in m.loop(wl["h"]):
            for i in m.loop(BLOCK_W):
                v1 = m.load_u8(p1, i)
                v2 = m.load_u8(p2, i)
                d = m.sub(v1, v2)
                s = m.add(s, m.mul(d, d))
            p1 = m.add(p1, lx)
            p2 = m.add(p2, lx)
        results.append(m.value(s))
    return results


def motion2_mmx(m, wl: Workload) -> List[int]:
    """Widen to 16-bit, difference, ``pmaddwd`` the difference with itself."""
    results = []
    lx = m.li(wl["lx"])
    halves = BLOCK_W // m.width
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        acc = m.zero()
        for _ in m.loop(wl["h"]):
            for half in range(halves):
                v1 = m.load(p1, half * m.width)
                v2 = m.load(p2, half * m.width)
                for part in ("lo", "hi"):
                    unpack = m.unpack_u8_to_u16_lo if part == "lo" else m.unpack_u8_to_u16_hi
                    a16 = unpack(v1)
                    b16 = unpack(v2)
                    d = m.psub(a16, b16, "s16")
                    sq = m.pmaddwd(d, d)
                    acc = m.padd(acc, sq, "s32")
            p1 = m.add(p1, lx)
            p2 = m.add(p2, lx)
        total = m.hsum_s32(acc)
        results.append(m.value(m.movd_to_scalar(total, "s32", 0)))
    return results


def motion2_vmmx(m, wl: Workload) -> List[int]:
    """Packed SQD accumulator over strided matrix loads."""
    results = []
    m.setvl(wl["h"])
    stride = m.li(wl["lx"])
    halves = BLOCK_W // m.row_bytes
    for p1_addr, p2_addr in wl["pairs"]:
        p1 = m.li(p1_addr)
        p2 = m.li(p2_addr)
        partials = []
        for half in range(halves):
            v1 = m.vload(p1, stride, half * m.row_bytes)
            v2 = m.vload(p2, stride, half * m.row_bytes)
            acc = m.acc_zero()
            acc = m.vsqd_acc(acc, v1, v2)
            partials.append(m.acc_read(acc))
        total = partials[0]
        for extra in partials[1:]:
            total = m.add(total, extra)
        results.append(m.value(total))
    return results


MOTION2 = KernelSpec(
    name="motion2",
    app="mpeg2enc",
    description="Sum of Quadratic Differences (dist2)",
    data_size="16x16 8-bit",
    make_workload=_make_workload,
    golden=golden_sqd,
    read_output=lambda mem, wl: None,
    versions={
        "scalar": motion2_scalar,
        "mmx64": motion2_mmx,
        "mmx128": motion2_mmx,
        "vmmx64": motion2_vmmx,
        "vmmx128": motion2_vmmx,
    },
    returns_scalar=True,
    batch=N_BLOCKS,
)
