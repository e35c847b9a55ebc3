import math
import struct

import numpy as np
import pytest

from taikoforge.audio import (
    FFT_SIZE,
    LOG_OFFSET,
    MEL_FMAX,
    MEL_FMIN,
    NUM_BANDS,
    SAMPLE_RATE,
    SPECTRUM_BINS,
    WINDOW_SAMPLES,
    NormStats,
    apply_norm,
    decode_audio,
    fit_norm,
    frame_count_for,
    hz_to_mel,
    mel_filterbank,
    mel_project,
    mel_to_hz,
    stft_frames,
)
from taikoforge.errors import CorruptFile, EmptyCorpus, UnsupportedCodec

from conftest import write_wav_pcm16

# ------------------------------------------------------------- oracles
#
# Independent implementations used to pin expected values: a direct DFT
# (explicit complex exponential sum, no FFT) and a loop-built filterbank.


def oracle_window_spectrum(segment: np.ndarray) -> np.ndarray:
    n = np.arange(WINDOW_SAMPLES)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / (WINDOW_SAMPLES - 1))
    x = np.zeros(FFT_SIZE)
    x[: len(segment)] = segment[:WINDOW_SAMPLES] * hann[: len(segment)]
    k = np.arange(SPECTRUM_BINS)
    basis = np.exp(-2j * np.pi * np.outer(k, np.arange(FFT_SIZE)) / FFT_SIZE)
    return np.abs(basis @ x)


def oracle_filterbank() -> np.ndarray:
    def mel(f):
        return 2595.0 * math.log10(1.0 + f / 700.0)

    def inv(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    lo, hi = mel(MEL_FMIN), mel(MEL_FMAX)
    points = [inv(lo + i * (hi - lo) / (NUM_BANDS + 1)) for i in range(NUM_BANDS + 2)]
    fb = np.zeros((NUM_BANDS, SPECTRUM_BINS))
    for i in range(NUM_BANDS):
        left, center, right = points[i], points[i + 1], points[i + 2]
        for j in range(SPECTRUM_BINS):
            f = j * SAMPLE_RATE / FFT_SIZE
            if left < f <= center:
                fb[i, j] = (f - left) / (center - left)
            elif center < f < right:
                fb[i, j] = (right - f) / (right - center)
    return fb


def oracle_log_mel(samples: np.ndarray, frame: int) -> np.ndarray:
    start = int(np.rint(frame * 23 * SAMPLE_RATE / 1000))
    seg = samples[start : start + WINDOW_SAMPLES]
    return np.log(oracle_filterbank() @ oracle_window_spectrum(seg) + LOG_OFFSET)


def craft_wav(fmt: int, bits: int, rate: int, channels: int, payload: bytes) -> bytes:
    fmt_chunk = struct.pack(
        "<HHIIHH", fmt, channels, rate, rate * channels * bits // 8, channels * bits // 8, bits
    )
    body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestDecode:
    def test_one_second_silence(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, np.zeros(SAMPLE_RATE))
        samples, rate = decode_audio(path)
        assert rate == SAMPLE_RATE
        assert len(samples) == SAMPLE_RATE
        assert np.all(samples == 0.0)

    def test_stereo_averages_to_zero(self, tmp_path):
        path = tmp_path / "s.wav"
        frames = np.stack([np.full(1000, 0.5), np.full(1000, -0.5)], axis=1)
        write_wav_pcm16(path, frames, channels=2)
        samples, _ = decode_audio(path)
        assert np.abs(samples).max() < 1e-4

    def test_resample_doubles_length(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, np.linspace(-0.5, 0.5, 5000), rate=22050)
        samples, rate = decode_audio(path)
        assert rate == SAMPLE_RATE
        assert abs(len(samples) - 10000) <= 1

    def test_float32(self, tmp_path):
        payload = np.array([0.25, -0.25, 1.5, -1.5], dtype="<f4").tobytes()
        path = tmp_path / "f.wav"
        path.write_bytes(craft_wav(3, 32, SAMPLE_RATE, 1, payload))
        samples, _ = decode_audio(path)
        # out-of-range float input is clipped into [-1, 1]
        assert samples.tolist() == [0.25, -0.25, 1.0, -1.0]

    def test_24_bit(self, tmp_path):
        value = 1 << 22  # half scale
        payload = struct.pack("<i", value)[:3] + struct.pack("<i", -value)[:3]
        path = tmp_path / "d.wav"
        path.write_bytes(craft_wav(1, 24, SAMPLE_RATE, 1, payload))
        samples, _ = decode_audio(path)
        assert samples.tolist() == [0.5, -0.5]

    def test_32_bit_int(self, tmp_path):
        payload = np.array([1 << 30, -(1 << 30)], dtype="<i4").tobytes()
        path = tmp_path / "i.wav"
        path.write_bytes(craft_wav(1, 32, SAMPLE_RATE, 1, payload))
        samples, _ = decode_audio(path)
        assert samples.tolist() == [0.5, -0.5]

    def test_resampled_length_past_longest_song_rejected(self, tmp_path):
        # 2000 samples declared at 1 Hz would resample to 88.2 M samples
        path = tmp_path / "slow.wav"
        path.write_bytes(craft_wav(1, 16, 1, 1, b"\x00\x00" * 2000))
        with pytest.raises(CorruptFile):
            decode_audio(path)

    def test_8_bit_unsupported(self, tmp_path):
        path = tmp_path / "u.wav"
        path.write_bytes(craft_wav(1, 8, SAMPLE_RATE, 1, b"\x80\x80"))
        with pytest.raises(UnsupportedCodec):
            decode_audio(path)

    def test_three_channels_unsupported(self, tmp_path):
        path = tmp_path / "u.wav"
        path.write_bytes(craft_wav(1, 16, SAMPLE_RATE, 3, b"\x00" * 12))
        with pytest.raises(UnsupportedCodec):
            decode_audio(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "c.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(CorruptFile):
            decode_audio(path)

    def test_missing_data_chunk(self, tmp_path):
        fmt_chunk = struct.pack("<HHIIHH", 1, 1, SAMPLE_RATE, SAMPLE_RATE * 2, 2, 16)
        body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
        path = tmp_path / "c.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(CorruptFile):
            decode_audio(path)


class TestStft:
    def test_zero_input_zero_spectra(self):
        spec = stft_frames(np.zeros(SAMPLE_RATE), SAMPLE_RATE)
        assert spec.shape == (43, SPECTRUM_BINS)
        assert np.all(spec == 0.0)

    def test_frame_count_2300ms(self):
        n = int(round(2.3 * SAMPLE_RATE))
        assert stft_frames(np.zeros(n), SAMPLE_RATE).shape[0] == 100
        assert frame_count_for(n) == 100

    def test_440hz_peaks_in_bin_10(self):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        spec = stft_frames(0.5 * np.sin(2 * np.pi * 440.0 * t), SAMPLE_RATE)
        expected_bin = round(440 * FFT_SIZE / SAMPLE_RATE)
        assert expected_bin == 10
        assert np.all(spec.argmax(axis=1) == expected_bin)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 0.2, size=SAMPLE_RATE // 2)
        spec = stft_frames(samples, SAMPLE_RATE)
        for frame in (0, 7, 20):
            start = int(np.rint(frame * 23 * SAMPLE_RATE / 1000))
            oracle = oracle_window_spectrum(samples[start : start + WINDOW_SAMPLES])
            assert np.linalg.norm(spec[frame] - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_short_tail_zero_padded(self):
        # 1 frame only; signal slightly longer than one frame but the
        # window never reads past the end
        n = int(1 * 23 * SAMPLE_RATE / 1000) + 5
        spec = stft_frames(np.ones(n), SAMPLE_RATE)
        assert spec.shape[0] == 1
        assert np.isfinite(spec).all()

    def test_wrong_rate_rejected(self):
        with pytest.raises(ValueError):
            stft_frames(np.zeros(100), 22050)

    def test_magnitudes_non_negative(self):
        rng = np.random.default_rng(3)
        spec = stft_frames(rng.normal(size=SAMPLE_RATE // 4), SAMPLE_RATE)
        assert (spec >= 0).all()

    def test_frame_starts_never_drift(self):
        # starts are recomputed per frame, so even deep into a long song
        # they stay within rounding of the ideal 1014.3-sample stride
        step = 23 * SAMPLE_RATE / 1000.0
        ks = np.arange(0, 200_000, 997)
        assert np.abs(np.rint(ks * step) - ks * step).max() < 1.0


class TestMel:
    def test_zero_spectrum_hits_log_floor(self):
        out = mel_project(np.zeros((3, SPECTRUM_BINS)))
        assert np.allclose(out, np.log(LOG_OFFSET))

    def test_filterbank_rows_nonzero_peak_at_most_one(self):
        fb = mel_filterbank()
        assert fb.shape == (NUM_BANDS, SPECTRUM_BINS)
        assert (fb.max(axis=1) > 0).all()
        assert (fb.max(axis=1) <= 1.0).all()

    def test_triangle_peaks_are_exactly_one_at_centers(self):
        edges = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), NUM_BANDS + 2))
        for i in (0, 17, 63, NUM_BANDS - 1):
            left, center, right = edges[i], edges[i + 1], edges[i + 2]
            rising = (center - left) / (center - left)
            falling = (right - center) / (right - center)
            assert min(rising, falling) == 1.0

    def test_matches_oracle_filterbank(self):
        assert np.allclose(mel_filterbank(), oracle_filterbank(), atol=1e-12)

    def test_linear_before_log(self):
        rng = np.random.default_rng(4)
        spec = np.abs(rng.normal(size=(1, SPECTRUM_BINS)))
        one = np.exp(mel_project(spec)) - LOG_OFFSET
        three = np.exp(mel_project(3.0 * spec)) - LOG_OFFSET
        assert np.allclose(three, 3.0 * one, rtol=1e-9)

    def test_440hz_sine_peaks_in_nearest_center_band(self):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        mel = mel_project(stft_frames(0.5 * np.sin(2 * np.pi * 440.0 * t), SAMPLE_RATE))
        centers = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), NUM_BANDS + 2))[1:-1]
        expected_band = int(np.abs(centers - 440.0).argmin())
        assert np.all(mel.argmax(axis=1) == expected_band)

    def test_full_pipeline_matches_oracle(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(0, 0.3, size=SAMPLE_RATE // 2)
        mel = mel_project(stft_frames(samples, SAMPLE_RATE))
        for frame in (0, 5, 13):
            oracle = oracle_log_mel(samples, frame)
            rel = np.linalg.norm(mel[frame] - oracle) / np.linalg.norm(oracle)
            assert rel <= 1e-4


class TestNorm:
    def test_identical_frames_normalize_to_zero(self):
        block = np.tile(np.arange(NUM_BANDS) * 0.25 - 2.0, (10, 1))
        stats = fit_norm([block])
        assert np.all(apply_norm(block, stats) == 0.0)

    def test_mean_zero_var_one(self):
        rng = np.random.default_rng(8)
        blocks = [rng.normal(2.0, 1.5, size=(50, NUM_BANDS)) for _ in range(3)]
        stats = fit_norm(blocks)
        normalized = np.vstack([apply_norm(b, stats) for b in blocks])
        assert np.abs(normalized.mean(axis=0)).max() <= 1e-6
        assert np.abs(normalized.var(axis=0) - 1.0).max() <= 1e-4

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            fit_norm([])

    def test_std_floor_positive(self):
        stats = fit_norm([np.zeros((5, 4))])
        assert (stats.std > 0).all()

    def test_norm_stats_validation(self):
        with pytest.raises(ValueError):
            NormStats(np.zeros(4), np.zeros(4))

