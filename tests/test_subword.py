"""Unit and property tests for packed subword arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import subword as sw

INT_TYPES = ["u8", "s8", "u16", "s16", "u32", "s32"]


def lanes(dtype, count=8, seed=0):
    rng = np.random.default_rng(seed)
    lo, hi = sw.BOUNDS[dtype]
    return rng.integers(lo, hi + 1, count).astype(sw.STORAGE[dtype])


class TestSaturate:
    @pytest.mark.parametrize("dtype", INT_TYPES)
    def test_within_range_is_identity(self, dtype):
        values = lanes(dtype)
        assert np.array_equal(sw.saturate(values, dtype), values)

    @pytest.mark.parametrize("dtype", INT_TYPES)
    def test_clamps_above(self, dtype):
        _, hi = sw.BOUNDS[dtype]
        out = sw.saturate(np.array([hi + 1, hi + 1000]), dtype)
        assert (out == hi).all()

    @pytest.mark.parametrize("dtype", INT_TYPES)
    def test_clamps_below(self, dtype):
        lo, _ = sw.BOUNDS[dtype]
        out = sw.saturate(np.array([lo - 1, lo - 1000]), dtype)
        assert (out == lo).all()

    def test_output_dtype(self):
        assert sw.saturate(np.array([1]), "u8").dtype == np.uint8
        assert sw.saturate(np.array([1]), "s16").dtype == np.int16


class TestWrap:
    def test_u8_wraps_modulo(self):
        out = sw.wrap(np.array([256, 257, -1]), "u8")
        assert out.tolist() == [0, 1, 255]

    def test_s16_wraps_twos_complement(self):
        out = sw.wrap(np.array([32768, -32769]), "s16")
        assert out.tolist() == [-32768, 32767]

    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(value=st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=25, deadline=None)
    def test_wrap_is_modular(self, dtype, value):
        bits = 8 * sw.WIDTH[dtype]
        out = int(sw.wrap(np.array([value]), dtype)[0])
        assert (out - value) % (1 << bits) == 0


class TestAddSub:
    @pytest.mark.parametrize("dtype", ["u8", "s16"])
    def test_add_wrap_matches_python(self, dtype):
        a, b = lanes(dtype, seed=1), lanes(dtype, seed=2)
        got = sw.add_wrap(a, b, dtype)
        bits = 8 * sw.WIDTH[dtype]
        for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
            assert (z - (x + y)) % (1 << bits) == 0

    def test_add_sat_u8_saturates(self):
        out = sw.add_sat(np.array([200], np.uint8), np.array([100], np.uint8), "u8")
        assert out[0] == 255

    def test_sub_sat_u8_floors_at_zero(self):
        out = sw.sub_sat(np.array([10], np.uint8), np.array([50], np.uint8), "u8")
        assert out[0] == 0

    def test_add_sat_s16(self):
        out = sw.add_sat(
            np.array([30000], np.int16), np.array([10000], np.int16), "s16"
        )
        assert out[0] == 32767

    @given(
        a=st.integers(min_value=0, max_value=255),
        b=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_sat_never_exceeds_bounds(self, a, b):
        out = int(sw.add_sat(np.array([a]), np.array([b]), "u8")[0])
        assert 0 <= out <= 255
        assert out == min(a + b, 255)


class TestMultiply:
    def test_mul_lo_wraps(self):
        out = sw.mul_lo(np.array([1000], np.int16), np.array([1000], np.int16), "s16")
        assert out[0] == np.int16(1000000 & 0xFFFF)

    def test_mul_hi_s16(self):
        out = sw.mul_hi_s16(np.array([1000], np.int16), np.array([1000], np.int16))
        assert out[0] == (1000 * 1000) >> 16

    def test_mul_hi_negative(self):
        out = sw.mul_hi_s16(np.array([-1000], np.int16), np.array([1000], np.int16))
        assert out[0] == ((-1000 * 1000) >> 16) & 0xFFFF or out[0] == np.int16((-1000000) >> 16)

    def test_madd_pairs(self):
        a = np.array([1, 2, 3, 4], np.int16)
        b = np.array([5, 6, 7, 8], np.int16)
        out = sw.madd_s16(a, b)
        assert out.tolist() == [1 * 5 + 2 * 6, 3 * 7 + 4 * 8]

    @given(data=st.lists(st.integers(-3000, 3000), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_madd_exact_for_small_products(self, data):
        a = np.array(data, np.int16)
        out = sw.madd_s16(a, a)
        expect = [
            data[2 * i] ** 2 + data[2 * i + 1] ** 2 for i in range(4)
        ]
        assert out.tolist() == expect


class TestReductions:
    def test_abs_diff_sum(self):
        a = np.array([10, 20], np.uint8)
        b = np.array([15, 5], np.uint8)
        assert sw.abs_diff_sum_u8(a, b) == 5 + 15

    def test_sq_diff_sum(self):
        a = np.array([10, 20], np.uint8)
        b = np.array([15, 5], np.uint8)
        assert sw.sq_diff_sum_u8(a, b) == 25 + 225

    @given(
        a=st.lists(st.integers(0, 255), min_size=4, max_size=16),
    )
    @settings(max_examples=30, deadline=None)
    def test_abs_diff_sum_self_is_zero(self, a):
        arr = np.array(a, np.uint8)
        assert sw.abs_diff_sum_u8(arr, arr) == 0

    def test_avg_round_rounds_up(self):
        out = sw.avg_round_u8(np.array([1], np.uint8), np.array([2], np.uint8))
        assert out[0] == 2  # (1+2+1)>>1

    @given(
        a=st.integers(0, 255), b=st.integers(0, 255)
    )
    @settings(max_examples=50, deadline=None)
    def test_avg_round_bounds(self, a, b):
        out = int(sw.avg_round_u8(np.array([a]), np.array([b]))[0])
        assert min(a, b) <= out <= max(a, b) or out == (a + b + 1) // 2
        assert out == (a + b + 1) // 2


class TestShifts:
    def test_srl_is_logical(self):
        val = np.array([-2], np.int16).view(np.uint16)
        out = sw.shift_right_logical(val, 1, "u16")
        assert out[0] == 0x7FFF

    def test_sra_is_arithmetic(self):
        out = sw.shift_right_arith(np.array([-2], np.int16), 1, "s16")
        assert out[0] == -1

    def test_sll_wraps(self):
        out = sw.shift_left(np.array([0x4000], np.int16), 2, "s16")
        assert out[0] == np.int16(0x0000)

    @pytest.mark.parametrize("count", [0, 1, 4, 7])
    def test_sll_matches_python(self, count):
        a = lanes("u16", seed=3)
        out = sw.shift_left(a, count, "u16")
        for x, y in zip(a.tolist(), out.tolist()):
            assert y == (x << count) & 0xFFFF


class TestPackInterleave:
    def test_pack_sat_narrows(self):
        a = np.array([300, -5], np.int64)
        out = sw.pack_sat(a, np.array([], np.int64), "u8")
        assert out.tolist() == [255, 0]

    def test_interleave_lo(self):
        a = np.array([1, 2, 3, 4], np.int16)
        b = np.array([5, 6, 7, 8], np.int16)
        assert sw.interleave_lo(a, b).tolist() == [1, 5, 2, 6]

    def test_interleave_hi(self):
        a = np.array([1, 2, 3, 4], np.int16)
        b = np.array([5, 6, 7, 8], np.int16)
        assert sw.interleave_hi(a, b).tolist() == [3, 7, 4, 8]

    def test_interleave_lo_hi_partition(self):
        a = np.arange(8, dtype=np.int16)
        b = np.arange(8, 16, dtype=np.int16)
        merged = np.concatenate(
            [sw.interleave_lo(a, b), sw.interleave_hi(a, b)]
        )
        assert sorted(merged.tolist()) == list(range(16))


class TestRoundShift:
    def test_zero_shift_is_identity(self):
        a = np.array([5, -7])
        assert sw.round_shift(a, 0).tolist() == [5, -7]

    def test_rounds_to_nearest(self):
        a = np.array([5, 6, 7, 8])
        out = sw.round_shift(a, 2)
        assert out.tolist() == [1, 2, 2, 2]

    def test_negative_rounding(self):
        out = sw.round_shift(np.array([-5]), 2)
        assert out[0] == -1  # (-5 + 2) >> 2

    @given(value=st.integers(-(2**20), 2**20), shift=st.integers(1, 10))
    @settings(max_examples=60, deadline=None)
    def test_error_bound(self, value, shift):
        out = int(sw.round_shift(np.array([value]), shift)[0])
        exact = value / (1 << shift)
        assert abs(out - exact) <= 0.5


# ---------------------------------------------------------------------------
# Differential oracle: the int64 formulas
# ---------------------------------------------------------------------------
#
# The reference formulas below widen every input to int64, compute exactly
# and then narrow.  The helpers compute in the narrowest type that is exact
# for their inputs (see the ``repro.isa.subword`` module docstring) and
# must match these in value, dtype and shape.


def _wide(a):
    return np.asarray(a, dtype=np.int64)


def ref_saturate(a, dtype):
    lo, hi = sw.BOUNDS[dtype]
    return np.clip(_wide(a), lo, hi).astype(sw.STORAGE[dtype])


def ref_wrap(a, dtype):
    return _wide(a).astype(sw.STORAGE[dtype])


def ref_add_wrap(a, b, dtype):
    return ref_wrap(_wide(a) + _wide(b), dtype)


def ref_add_sat(a, b, dtype):
    return ref_saturate(_wide(a) + _wide(b), dtype)


def ref_sub_wrap(a, b, dtype):
    return ref_wrap(_wide(a) - _wide(b), dtype)


def ref_sub_sat(a, b, dtype):
    return ref_saturate(_wide(a) - _wide(b), dtype)


def ref_mul_lo(a, b, dtype):
    return ref_wrap(_wide(a) * _wide(b), dtype)


def ref_mul_hi_s16(a, b):
    prod = _wide(a) * _wide(b)
    return ((prod >> 16) & 0xFFFF).astype(np.uint16).view(np.int16).astype(np.int16)


def ref_madd_s16(a, b):
    prod = _wide(a) * _wide(b)
    return ref_wrap(prod.reshape(-1, 2).sum(axis=1), "s32")


def ref_avg_round_u8(a, b):
    return ((_wide(a) + _wide(b) + 1) >> 1).astype(np.uint8)


def ref_shift_right_logical(a, count, dtype):
    mask = (1 << (8 * sw.WIDTH[dtype])) - 1
    return ref_wrap((_wide(a) & mask) >> count, dtype)


def ref_shift_right_arith(a, count, dtype):
    return ref_wrap(_wide(a) >> count, dtype)


def ref_shift_left(a, count, dtype):
    return ref_wrap(_wide(a) << count, dtype)


def ref_pack_sat(a, b, dtype):
    return ref_saturate(np.concatenate([_wide(a), _wide(b)]), dtype)


def ref_round_shift(a, shift, dtype="s32"):
    if shift == 0:
        return ref_wrap(_wide(a), dtype)
    return ref_wrap((_wide(a) + (1 << (shift - 1))) >> shift, dtype)


#: Input dtypes drawn for the helpers the golden references call: every
#: lane storage type plus int64, which is what the goldens pass.
GOLDEN_INPUTS = [sw.STORAGE[t] for t in INT_TYPES] + [np.int64]


def _edges(dtype, targets=()):
    """Values of ``dtype`` worth forcing: its bounds, 0, +-1, and the
    bounds (and one past them) of each target subword type."""
    info = np.iinfo(dtype)
    out = {info.min, info.max, 0, 1}
    if info.min < 0:
        out.add(-1)
    for target in targets:
        lo, hi = sw.BOUNDS[target]
        out.update(v for v in (lo - 1, lo, hi, hi + 1) if info.min <= v <= info.max)
    return sorted(out)


@st.composite
def shapes(draw, even=False):
    """One register's lanes ``(n,)`` or a seed batch of them ``(B, n)``."""
    n = draw(st.integers(1, 8)) * 2 if even else draw(st.integers(1, 16))
    if draw(st.booleans()):
        return (n,)
    return (draw(st.integers(1, 4)), n)


@st.composite
def arrays_of(draw, dtype, shape, targets=()):
    """Full-range values of ``dtype`` in ``shape``, both bounds forced in.

    The lanes are drawn as raw bytes (every bit pattern of the dtype is
    reachable); up to four lanes are then set to edge values.
    """
    dtype = np.dtype(dtype)
    info = np.iinfo(dtype)
    size = int(np.prod(shape))
    nbytes = size * dtype.itemsize
    out = np.frombuffer(draw(st.binary(min_size=nbytes, max_size=nbytes)), dtype).copy()
    index = st.integers(0, size - 1)
    for value in draw(st.lists(st.sampled_from(_edges(dtype, targets)), max_size=4)):
        out[draw(index)] = value
    out[draw(index)] = info.min
    out[draw(index)] = info.max
    return out.reshape(shape)


def assert_same(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


ORACLE_SETTINGS = settings(max_examples=30, deadline=None)


class TestInt64Oracle:
    """Every helper the machines or goldens call matches its int64 formula."""

    @pytest.mark.parametrize(
        "helper, oracle",
        [
            (sw.add_wrap, ref_add_wrap),
            (sw.add_sat, ref_add_sat),
            (sw.sub_wrap, ref_sub_wrap),
            (sw.sub_sat, ref_sub_sat),
            (sw.mul_lo, ref_mul_lo),
        ],
        ids=lambda f: getattr(f, "__name__", ""),
    )
    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_lane_arithmetic(self, helper, oracle, dtype, data):
        shape = data.draw(shapes())
        a = data.draw(arrays_of(sw.STORAGE[dtype], shape))
        b = data.draw(arrays_of(sw.STORAGE[dtype], shape))
        assert_same(helper(a, b, dtype), oracle(a, b, dtype))

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_mul_hi_s16(self, data):
        shape = data.draw(shapes())
        a = data.draw(arrays_of(np.int16, shape))
        b = data.draw(arrays_of(np.int16, shape))
        assert_same(sw.mul_hi_s16(a, b), ref_mul_hi_s16(a, b))

    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_madd_s16(self, data):
        shape = data.draw(shapes(even=True))
        a = data.draw(arrays_of(np.int16, shape))
        b = data.draw(arrays_of(np.int16, shape))
        assert_same(sw.madd_s16(a, b), ref_madd_s16(a, b))

    def test_madd_s16_wraps_all_min_pair(self):
        a = np.array([-32768, -32768], np.int16)
        assert sw.madd_s16(a, a).tolist() == [-(2**31)]

    @pytest.mark.parametrize("src", [np.uint8, np.int64])
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_avg_round_u8(self, src, data):
        shape = data.draw(shapes())
        a = data.draw(arrays_of(src, shape))
        b = data.draw(arrays_of(src, shape))
        assert_same(sw.avg_round_u8(a, b), ref_avg_round_u8(a, b))

    @pytest.mark.parametrize(
        "helper, oracle",
        [
            (sw.shift_left, ref_shift_left),
            (sw.shift_right_logical, ref_shift_right_logical),
            (sw.shift_right_arith, ref_shift_right_arith),
        ],
        ids=lambda f: getattr(f, "__name__", ""),
    )
    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_shifts(self, helper, oracle, dtype, data):
        bits = 8 * sw.WIDTH[dtype]
        a = data.draw(arrays_of(sw.STORAGE[dtype], data.draw(shapes())))
        count = data.draw(st.integers(0, bits + 8))
        assert_same(helper(a, count, dtype), oracle(a, count, dtype))

    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_saturate(self, dtype, data):
        src = data.draw(st.sampled_from(GOLDEN_INPUTS))
        a = data.draw(arrays_of(src, data.draw(shapes()), targets=(dtype,)))
        assert_same(sw.saturate(a, dtype), ref_saturate(a, dtype))

    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_wrap(self, dtype, data):
        src = data.draw(st.sampled_from(GOLDEN_INPUTS))
        a = data.draw(arrays_of(src, data.draw(shapes()), targets=(dtype,)))
        assert_same(sw.wrap(a, dtype), ref_wrap(a, dtype))

    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_pack_sat(self, dtype, data):
        shape = data.draw(shapes())
        a = data.draw(
            arrays_of(data.draw(st.sampled_from(GOLDEN_INPUTS)), shape, (dtype,))
        )
        b = data.draw(
            arrays_of(data.draw(st.sampled_from(GOLDEN_INPUTS)), shape, (dtype,))
        )
        assert_same(sw.pack_sat(a, b, dtype), ref_pack_sat(a, b, dtype))

    @pytest.mark.parametrize("dtype", INT_TYPES)
    @given(data=st.data())
    @ORACLE_SETTINGS
    def test_round_shift(self, dtype, data):
        src = data.draw(st.sampled_from(GOLDEN_INPUTS))
        a = data.draw(arrays_of(src, data.draw(shapes()), targets=(dtype,)))
        shift = data.draw(st.integers(0, 8 * sw.WIDTH[dtype] + 8))
        assert_same(sw.round_shift(a, shift, dtype), ref_round_shift(a, shift, dtype))
