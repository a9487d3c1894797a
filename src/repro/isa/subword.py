"""Packed subword arithmetic with MMX/SSE semantics.

Every helper operates on numpy integer arrays and returns lanes of the
subword type's storage dtype with either wrap-around (modulo) or
saturating semantics.  These functions define the *functional* meaning
of the SIMD instructions; the emulation machines in :mod:`repro.emu`
wrap them with trace emission.

Each helper computes in the narrowest type that is exact for its
inputs:

* wrapping add, sub and low multiply, ``mul_hi_s16``, ``madd_s16`` and
  the three shifts take lanes of the subword type's storage dtype
  (:data:`STORAGE`), which is what every machine intrinsic passes: it
  views its register bytes through that dtype.  The wrapping ops and
  the shifts run in the storage dtype itself -- NumPy integer array
  arithmetic wraps modulo ``2**bits``, and NumPy shifts by counts at or
  above the lane width give 0 (sign fill for arithmetic right shifts
  of signed lanes).  ``mul_hi_s16`` and ``madd_s16`` run in int32
  (int16 products fit, and the pmaddwd pair sum wraps in int32 exactly
  as the hardware does);
* saturating add and sub on lanes of 16 bits or fewer run in int32,
  and ``avg_round_u8`` on uint8 lanes runs in uint16; any other input
  (32-bit lanes, the golden references' int64 arrays) takes the exact
  int64 route, chosen by the input's dtype;
* ``saturate`` clamps in the input's own dtype when that dtype holds
  both bounds (int32 lanes to s16, int16 lanes to u8, int64 to any
  32-bit or narrower type) and in int64 otherwise; ``pack_sat``
  concatenates in the inputs' own dtype and saturates;
* ``wrap``, ``round_shift`` and the reductions compute in int64.

``tests/test_subword.py`` keeps the int64 formulas of every helper as
the oracle the helpers are differential-tested against.

The fixed-point behaviour is deliberately explicit so that the scalar,
MMX64, MMX128, VMMX64 and VMMX128 versions of every kernel can be proven
bit-exact against the golden references in :mod:`repro.kernels`.
"""

from __future__ import annotations

import numpy as np

#: Inclusive (lo, hi) bounds for each supported subword type.
BOUNDS = {
    "u8": (0, 255),
    "s8": (-128, 127),
    "u16": (0, 65535),
    "s16": (-32768, 32767),
    "u32": (0, 4294967295),
    "s32": (-2147483648, 2147483647),
    "u64": (0, 18446744073709551615),
}

#: numpy dtype used to *store* each subword type.  These are dtype
#: objects rather than scalar types, so a view, cast or dtype comparison
#: through them converts nothing per call.
STORAGE = {
    "u8": np.dtype(np.uint8),
    "s8": np.dtype(np.int8),
    "u16": np.dtype(np.uint16),
    "s16": np.dtype(np.int16),
    "u32": np.dtype(np.uint32),
    "s32": np.dtype(np.int32),
    "u64": np.dtype(np.uint64),
}

#: Width of each subword type in bytes.
WIDTH = {"u8": 1, "s8": 1, "u16": 2, "s16": 2, "u32": 4, "s32": 4, "u64": 8}

#: The unsigned dtype of the same width, through which a logical right
#: shift of signed lanes runs.
_UNSIGNED = {"s8": STORAGE["u8"], "s16": STORAGE["u16"], "s32": STORAGE["u32"]}

#: (input dtype, subword type) pairs where the input dtype holds both
#: bounds of the subword type, so :func:`saturate` clamps in place.
#: Other inputs (uint64, floats, the u64 type) take the int64 route.
_CLAMPS_IN_PLACE = frozenset(
    (dt, name)
    for dt in (*STORAGE.values(), np.dtype(np.int64))
    if dt != STORAGE["u64"]
    for name, (lo, hi) in BOUNDS.items()
    if np.iinfo(dt).min <= lo and hi <= np.iinfo(dt).max
)


def _wide(a: np.ndarray) -> np.ndarray:
    """Promote to int64 for exact intermediate arithmetic."""
    return np.asarray(a, dtype=np.int64)


def _is_lanes(a, dtype: str) -> bool:
    """Whether ``a`` is an array of ``dtype``'s storage type."""
    return type(a) is np.ndarray and a.dtype == STORAGE[dtype]


def _clamp(a: np.ndarray, dtype: str) -> np.ndarray:
    """Clamp to ``dtype``'s bounds (which ``a``'s dtype must hold) and narrow."""
    lo, hi = BOUNDS[dtype]
    return np.minimum(np.maximum(a, lo), hi).astype(STORAGE[dtype])


def saturate(a: np.ndarray, dtype: str) -> np.ndarray:
    """Clamp ``a`` to the range of ``dtype`` and narrow to its storage type."""
    a = np.asarray(a)
    if (a.dtype, dtype) in _CLAMPS_IN_PLACE:
        return _clamp(a, dtype)
    lo, hi = BOUNDS[dtype]
    return np.clip(_wide(a), lo, hi).astype(STORAGE[dtype])


def wrap(a: np.ndarray, dtype: str) -> np.ndarray:
    """Narrow ``a`` to ``dtype`` with modulo (two's-complement) semantics."""
    return _wide(a).astype(STORAGE[dtype])


def add_wrap(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PADDB/PADDW/PADDD``: element-wise add with wrap-around."""
    return a + b


def add_sat(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PADDSB/PADDSW/PADDUSB/PADDUSW``: element-wise saturating add."""
    if WIDTH[dtype] <= 2 and _is_lanes(a, dtype) and _is_lanes(b, dtype):
        return _clamp(a.astype(np.int32) + b, dtype)
    return saturate(_wide(a) + _wide(b), dtype)


def sub_wrap(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PSUBB/PSUBW``: element-wise subtract with wrap-around."""
    return a - b


def sub_sat(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PSUBSB/PSUBSW/PSUBUSB``: element-wise saturating subtract."""
    if WIDTH[dtype] <= 2 and _is_lanes(a, dtype) and _is_lanes(b, dtype):
        return _clamp(a.astype(np.int32) - b, dtype)
    return saturate(_wide(a) - _wide(b), dtype)


def mul_lo(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PMULLW``: element-wise multiply keeping the low half (wraps)."""
    return a * b


def mul_hi_s16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PMULHW``: signed 16x16 multiply keeping the high 16 bits."""
    return ((a.astype(np.int32) * b) >> 16).astype(np.int16)


def madd_s16(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PMADDWD``: multiply signed 16-bit pairs and add adjacent products.

    ``a`` and ``b`` are arrays of signed 16-bit lanes with an even total
    count; the result is a flat array of half as many signed 32-bit
    lanes, lane ``i`` holding ``a[2i]*b[2i] + a[2i+1]*b[2i+1]`` (over the
    flattened inputs) computed exactly and wrapped to 32 bits (the
    hardware wraps only in the pathological all -32768 case).
    """
    pairs = (a.astype(np.int32) * b).reshape(-1, 2)
    return pairs[:, 0] + pairs[:, 1]


def abs_diff_sum_u8(a: np.ndarray, b: np.ndarray) -> int:
    """``PSADBW``-style reduction: sum of absolute byte differences."""
    return int(np.abs(_wide(a) - _wide(b)).sum())


def sq_diff_sum_u8(a: np.ndarray, b: np.ndarray) -> int:
    """Sum of squared byte differences (the paper's `motion2` reduction)."""
    d = _wide(a) - _wide(b)
    return int((d * d).sum())


def avg_round_u8(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PAVGB``: element-wise rounded average ``(a + b + 1) >> 1``."""
    if _is_lanes(a, "u8") and _is_lanes(b, "u8"):
        return ((a.astype(np.uint16) + b + 1) >> 1).astype(np.uint8)
    return ((_wide(a) + _wide(b) + 1) >> 1).astype(np.uint8)


def shift_right_logical(a: np.ndarray, count: int, dtype: str) -> np.ndarray:
    """``PSRLW/PSRLD``: element-wise logical right shift."""
    unsigned = _UNSIGNED.get(dtype)
    if unsigned is None:
        return a >> count
    return (a.view(unsigned) >> count).view(a.dtype)


def shift_right_arith(a: np.ndarray, count: int, dtype: str) -> np.ndarray:
    """``PSRAW/PSRAD``: element-wise arithmetic right shift."""
    return a >> count


def shift_left(a: np.ndarray, count: int, dtype: str) -> np.ndarray:
    """``PSLLW/PSLLD``: element-wise left shift (wraps)."""
    return a << count


def pack_sat(a: np.ndarray, b: np.ndarray, dtype: str) -> np.ndarray:
    """``PACKUSWB/PACKSSWB``: concatenate and saturate to a narrower type."""
    return saturate(np.concatenate([a, b]), dtype)


def interleave_lo(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PUNPCKL*``: interleave the low halves of two lane arrays (along
    the last axis, so a batch or a matrix interleaves row by row)."""
    half = a.shape[-1] // 2
    out = np.empty_like(a)
    out[..., 0::2] = a[..., :half]
    out[..., 1::2] = b[..., :half]
    return out


def interleave_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``PUNPCKH*``: interleave the high halves of two lane arrays (along
    the last axis)."""
    half = a.shape[-1] // 2
    out = np.empty_like(a)
    out[..., 0::2] = a[..., half:]
    out[..., 1::2] = b[..., half:]
    return out


def round_shift(a: np.ndarray, shift: int, dtype: str = "s32") -> np.ndarray:
    """Fixed-point rounding shift ``(a + (1 << (shift-1))) >> shift``.

    This is the canonical rounding used by every DCT/colour-conversion
    kernel in the repository; defining it once keeps all five ISA versions
    of each kernel bit-identical.  Its callers pass int64 accumulators,
    and it computes in int64.
    """
    if shift == 0:
        return wrap(_wide(a), dtype)
    return wrap((_wide(a) + (1 << (shift - 1))) >> shift, dtype)
