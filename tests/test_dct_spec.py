"""Properties of the fixed-point DCT specification and colour transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.common import (
    RGB2YCC,
    dct_matrix,
    fdct_golden,
    idct_golden,
    mult_r,
    pair_interleaved,
    rgb_to_ycc_golden,
    ycc_to_rgb_golden,
)


class TestDctMatrix:
    def test_shape_and_range(self):
        c = dct_matrix()
        assert c.shape == (8, 8)
        assert np.abs(c).max() <= 64

    def test_first_row_is_flat(self):
        c = dct_matrix()
        assert len(set(c[0].tolist())) == 1

    def test_is_built_once_and_read_only(self):
        c = dct_matrix()
        assert dct_matrix() is c
        with pytest.raises(ValueError, match="read-only"):
            c[0, 0] = 0

    def test_rows_nearly_orthogonal(self):
        c = dct_matrix().astype(np.float64) / 64.0
        gram = c @ c.T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 0.05

    def test_pair_interleaved_layout(self):
        c = dct_matrix()
        table = pair_interleaved(c)
        assert table.shape == (4, 16)
        # pair p, output column j: entries (c[2p, j], c[2p+1, j])
        for p in range(4):
            for j in range(8):
                assert table[p, 2 * j] == c[2 * p, j]
                assert table[p, 2 * j + 1] == c[2 * p + 1, j]


class TestDctRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fdct_then_idct_close_to_identity(self, seed):
        rng = np.random.default_rng(seed)
        block = rng.integers(-128, 128, (8, 8)).astype(np.int16)
        recon = idct_golden(fdct_golden(block))
        err = np.abs(recon.astype(int) - block.astype(int))
        assert err.max() <= 4  # rounding shifts + 7-bit coefficient scale

    def test_constant_block_concentrates_in_dc(self):
        block = np.full((8, 8), 100, np.int16)
        coeffs = fdct_golden(block)
        ac_energy = np.abs(coeffs).sum() - abs(int(coeffs[0, 0]))
        assert abs(int(coeffs[0, 0])) > 700
        assert ac_energy <= 8  # rounding residue only

    def test_zero_block(self):
        z = np.zeros((8, 8), np.int16)
        assert (fdct_golden(z) == 0).all()
        assert (idct_golden(z) == 0).all()

    def test_impulse_response_energy(self):
        block = np.zeros((8, 8), np.int16)
        block[0, 0] = 1000
        out = idct_golden(fdct_golden(block))
        # The DC basis coefficient rounds 64/sqrt(2) to 45 (-0.6% per
        # pass), so the round trip keeps ~98.6% of the amplitude.
        assert abs(int(out[0, 0]) - 1000) <= 25

    @given(scale=st.integers(1, 120))
    @settings(max_examples=20, deadline=None)
    def test_dc_is_linearish_in_input(self, scale):
        block = np.full((8, 8), scale, np.int16)
        dc = int(fdct_golden(block)[0, 0])
        assert abs(dc - 8 * scale) <= 0.02 * 8 * scale + 4


class TestColourSpec:
    def test_grey_maps_to_neutral_chroma(self):
        grey = np.full((4, 3), 128, np.uint8)
        out = rgb_to_ycc_golden(grey)
        assert (out[:, 0] == 128).all()
        assert (np.abs(out[:, 1].astype(int) - 128) <= 1).all()
        assert (np.abs(out[:, 2].astype(int) - 128) <= 1).all()

    def test_round_trip_error_small(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(30, 226, (256, 3)).astype(np.uint8)
        ycc = rgb_to_ycc_golden(rgb)
        back = ycc_to_rgb_golden(ycc[:, 0], ycc[:, 1], ycc[:, 2])
        recon = np.stack([back["r"], back["g"], back["b"]], axis=-1)
        err = np.abs(recon.astype(int) - rgb.astype(int))
        assert err.mean() < 4.0
        assert err.max() <= 14

    def test_luma_coefficients_sum_to_scale(self):
        assert int(RGB2YCC[0].sum()) == 128

    def test_chroma_coefficients_sum_to_zero(self):
        assert int(RGB2YCC[1].sum()) == 0
        assert int(RGB2YCC[2].sum()) == 0

    def test_ycc_saturates(self):
        out = ycc_to_rgb_golden(
            np.array([255], np.uint8), np.array([255], np.uint8),
            np.array([255], np.uint8),
        )
        assert 0 <= int(out["r"][0]) <= 255
        assert 0 <= int(out["g"][0]) <= 255
        assert 0 <= int(out["b"][0]) <= 255


class TestMultR:
    def test_half_gain(self):
        out = mult_r(np.array([20000], np.int16), 16384)
        assert out[0] == 10000

    def test_rounding(self):
        # 3 * 16384 = 49152; +16384 >> 15 = 2
        out = mult_r(np.array([3], np.int16), 16384)
        assert out[0] == 2

    def test_positive_extreme_just_below_saturation(self):
        out = mult_r(np.array([32767], np.int16), 32767)
        assert out[0] == 32766  # (32767^2 + 2^14) >> 15

    def test_saturation_on_negative_product(self):
        out = mult_r(np.array([-32768], np.int16), -32768)
        assert out[0] == 32767  # 2^30 >> 15 = 32768 -> saturated

    @given(x=st.integers(-32768, 32767), g=st.integers(0, 32767))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_never_grows(self, x, g):
        out = int(mult_r(np.array([x], np.int16), g)[0])
        assert abs(out) <= abs(x) + 1
