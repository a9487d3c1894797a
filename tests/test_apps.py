"""Functional tests for the three codecs (JPEG, MPEG-2, GSM)."""

import numpy as np
import pytest

from repro.apps.gsm import decode_speech, encode_speech
from repro.apps.jpeg import decode_image, encode_image
from repro.apps.mpeg2 import decode_video, encode_video
from repro.workloads import speech_signal, video_clip
from repro.workloads import test_image as make_image


def psnr(a, b):
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean()
    return 10 * np.log10(255.0**2 / mse) if mse else np.inf


class TestJpeg:
    @pytest.fixture(scope="class")
    def artifacts(self):
        img = make_image(96, 64, seed=4)
        bits, enc_profile = encode_image(img, quality=75)
        planes, dec_profile = decode_image(bits)
        return img, bits, planes, enc_profile, dec_profile

    def test_compression_ratio(self, artifacts):
        img, bits, *_ = artifacts
        assert img.size / bits.size_bytes > 4

    def test_quality(self, artifacts):
        img, _, planes, *_ = artifacts
        recon = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
        assert psnr(recon, img) > 26

    def test_output_shape(self, artifacts):
        img, _, planes, *_ = artifacts
        for plane in planes.values():
            assert plane.shape == img.shape[:2]
            assert plane.dtype == np.uint8

    def test_quality_knob_trades_size(self):
        img = make_image(96, 64, seed=4)
        high, _ = encode_image(img, quality=95)
        low, _ = encode_image(img, quality=20)
        assert low.size_bytes < high.size_bytes

    def test_higher_quality_higher_psnr(self):
        img = make_image(96, 64, seed=4)
        out = {}
        for q in (25, 90):
            bits, _ = encode_image(img, quality=q)
            planes, _ = decode_image(bits)
            recon = np.stack([planes["r"], planes["g"], planes["b"]], axis=-1)
            out[q] = psnr(recon, img)
        assert out[90] > out[25]

    def test_profiles_record_expected_kernels(self, artifacts):
        *_, enc_profile, dec_profile = artifacts
        assert set(enc_profile.kernel_items) == {"rgb", "fdct"}
        assert set(dec_profile.kernel_items) == {"h2v2", "ycc"}

    def test_kernel_item_counts_scale_with_pixels(self, artifacts):
        img, _, _, enc_profile, _ = artifacts
        npx = img.shape[0] * img.shape[1]
        assert enc_profile.kernel_items["rgb"] == pytest.approx(npx / 64)
        # 4:2:0 -> 1.5 blocks of DCT per 64 pixels
        assert enc_profile.kernel_items["fdct"] == pytest.approx(1.5 * npx / 64)

    def test_deterministic(self):
        img = make_image(96, 64, seed=4)
        a, _ = encode_image(img, quality=60)
        b, _ = encode_image(img, quality=60)
        assert a.data == b.data

    def test_rejects_unaligned_dims(self):
        with pytest.raises(ValueError):
            encode_image(np.zeros((30, 30, 3), np.uint8))


class TestMpeg2:
    @pytest.fixture(scope="class")
    def artifacts(self):
        clip = video_clip(64, 48, frames=4, seed=1)
        bits, recon, enc_profile = encode_video(clip)
        out, dec_profile = decode_video(bits)
        return clip, bits, recon, out, enc_profile, dec_profile

    def test_decoder_matches_encoder_reconstruction_exactly(self, artifacts):
        _, _, recon, out, *_ = artifacts
        for f in range(len(recon)):
            assert np.array_equal(out[f], recon[f])

    def test_quality(self, artifacts):
        clip, _, _, out, *_ = artifacts
        assert psnr(out, clip) > 30

    def test_compresses(self, artifacts):
        clip, bits, *_ = artifacts
        assert clip.size / bits.size_bytes > 1.5

    def test_enc_profile_kernels(self, artifacts):
        *_, enc_profile, dec_profile = artifacts
        assert set(enc_profile.kernel_items) == {"motion1", "motion2", "fdct", "idct"}
        assert set(dec_profile.kernel_items) <= {"comp", "addblock", "idct"}
        assert "addblock" in dec_profile.kernel_items

    def test_motion_search_dominates_kernel_items(self, artifacts):
        *_, enc_profile, _ = artifacts
        assert enc_profile.kernel_items["motion1"] > enc_profile.kernel_items["fdct"]

    def test_fdct_idct_counts_match(self, artifacts):
        """The encoder reconstructs every coded block."""
        *_, enc_profile, _ = artifacts
        assert enc_profile.kernel_items["fdct"] == enc_profile.kernel_items["idct"]

    def test_rejects_unaligned_dims(self):
        with pytest.raises(ValueError):
            encode_video(np.zeros((2, 30, 30), np.uint8))

    def test_still_clip_codes_small(self):
        still = np.tile(video_clip(64, 48, frames=1, seed=2), (3, 1, 1))
        moving = video_clip(64, 48, frames=3, seed=2)
        still_bits, _, _ = encode_video(still)
        moving_bits, _, _ = encode_video(moving)
        assert still_bits.size_bytes < moving_bits.size_bytes


class TestGsm:
    @pytest.fixture(scope="class")
    def artifacts(self):
        speech = speech_signal(640, seed=3)
        bits, enc_profile = encode_speech(speech)
        out, dec_profile = decode_speech(bits)
        return speech, bits, out, enc_profile, dec_profile

    def test_bitrate(self, artifacts):
        speech, bits, *_ = artifacts
        # 4 frames -> ~34 bytes/frame in our allocation (GSM: 32.5).
        assert bits.size_bytes < len(speech) * 2 / 8

    def test_waveform_correlates(self, artifacts):
        speech, _, out, *_ = artifacts
        corr = np.corrcoef(speech.astype(float), out.astype(float))[0, 1]
        assert corr > 0.9

    def test_snr(self, artifacts):
        speech, _, out, *_ = artifacts
        err = speech.astype(float) - out.astype(float)
        snr = 10 * np.log10((speech.astype(float) ** 2).sum() / (err**2).sum())
        assert snr > 6

    def test_profiles(self, artifacts):
        *_, enc_profile, dec_profile = artifacts
        assert set(enc_profile.kernel_items) == {"ltppar"}
        assert set(dec_profile.kernel_items) == {"ltpfilt"}
        # one lag search per subframe: 4 frames x 4 subframes
        assert enc_profile.kernel_items["ltppar"] == 16

    def test_gsm_mostly_scalar(self, artifacts):
        """The paper: GSM parallelises to less than ~10-20%."""
        *_, enc_profile, dec_profile = artifacts
        assert enc_profile.scalar_instructions > 50_000
        assert dec_profile.scalar_instructions > 20_000

    def test_deterministic(self):
        speech = speech_signal(320, seed=9)
        a, _ = encode_speech(speech)
        b, _ = encode_speech(speech)
        assert a.data == b.data

    def test_rejects_partial_frames(self):
        with pytest.raises(ValueError):
            encode_speech(np.zeros(100, np.int16))

    def test_silence_round_trips_quietly(self):
        silence = np.zeros(160, np.int16)
        bits, _ = encode_speech(silence)
        out, _ = decode_speech(bits)
        assert np.abs(out.astype(int)).max() < 600
