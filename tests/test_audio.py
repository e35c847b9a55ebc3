import math
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import taikoforge
from taikoforge.audio import (
    FEATURE_BLOCK,
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
    read_header,
    song_features,
    stft_frames,
)
from taikoforge.errors import CorruptFile, EmptyCorpus, ShapeMismatch, UnsupportedCodec

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


def craft_wav(
    fmt: int, bits: int, rate: int, channels: int, payload: bytes, block_align: int | None = None, fmt_size: int = 16
) -> bytes:
    """A WAV file of one fmt chunk, cut to ``fmt_size`` bytes, and one data
    chunk holding ``payload``."""
    if block_align is None:
        block_align = channels * bits // 8
    fmt_chunk = struct.pack("<HHIIHH", fmt, channels, rate, rate * block_align, block_align, bits)[:fmt_size]
    body = b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestDecode:
    def test_one_second_silence(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, np.zeros(SAMPLE_RATE))
        samples = decode_audio(path)
        assert len(samples) == SAMPLE_RATE
        assert np.all(samples == 0.0)

    def test_stereo_averages_to_zero(self, tmp_path):
        path = tmp_path / "s.wav"
        frames = np.stack([np.full(1000, 0.5), np.full(1000, -0.5)], axis=1)
        write_wav_pcm16(path, frames, channels=2)
        samples = decode_audio(path)
        assert np.abs(samples).max() < 1e-4

    def test_resample_doubles_length(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, np.linspace(-0.5, 0.5, 5000), rate=22050)
        samples = decode_audio(path)
        assert abs(len(samples) - 10000) <= 1

    def test_float32(self, tmp_path):
        payload = np.array([0.25, -0.25, 1.5, -1.5], dtype="<f4").tobytes()
        path = tmp_path / "f.wav"
        path.write_bytes(craft_wav(3, 32, SAMPLE_RATE, 1, payload))
        samples = decode_audio(path)
        # out-of-range float input is clipped into [-1, 1]
        assert samples.tolist() == [0.25, -0.25, 1.0, -1.0]

    def test_24_bit(self, tmp_path):
        value = 1 << 22  # half scale
        payload = struct.pack("<i", value)[:3] + struct.pack("<i", -value)[:3]
        path = tmp_path / "d.wav"
        path.write_bytes(craft_wav(1, 24, SAMPLE_RATE, 1, payload))
        samples = decode_audio(path)
        assert samples.tolist() == [0.5, -0.5]

    def test_32_bit_int(self, tmp_path):
        payload = np.array([1 << 30, -(1 << 30)], dtype="<i4").tobytes()
        path = tmp_path / "i.wav"
        path.write_bytes(craft_wav(1, 32, SAMPLE_RATE, 1, payload))
        samples = decode_audio(path)
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

    @pytest.mark.parametrize(
        "data",
        [
            b"OggS" + b"\x00" * 64,
            b"RIFF\x04\x00\x00\x00WAVE",
            craft_wav(1, 8, SAMPLE_RATE, 1, b"\x80\x80"),
            craft_wav(3, 64, SAMPLE_RATE, 1, b"\x00" * 8),
            craft_wav(2, 16, SAMPLE_RATE, 1, b"\x00" * 4),
            craft_wav(1, 16, SAMPLE_RATE, 3, b"\x00" * 12),
            craft_wav(1, 16, 0, 1, b"\x00" * 4),
            craft_wav(1, 16, SAMPLE_RATE, 1, b"\x00" * 4, fmt_size=14),
            craft_wav(1, 16, SAMPLE_RATE, 1, b"\x00" * 3, block_align=0),
        ],
        ids=[
            "not-riff", "no-chunks", "8-bit", "64-bit-float", "format-tag-2", "3-channels", "zero-rate",
            "fmt-under-16-bytes", "part-of-a-sample",
        ],
    )
    def test_every_error_names_the_file_once(self, tmp_path, data):
        path = tmp_path / "named.wav"
        path.write_bytes(data)
        with pytest.raises((CorruptFile, UnsupportedCodec)) as info:
            decode_audio(path)
        assert str(info.value).count(str(path)) == 1


class TestStft:
    def test_zero_input_zero_spectra(self):
        spec = stft_frames(np.zeros(SAMPLE_RATE))
        assert spec.shape == (43, SPECTRUM_BINS)
        assert np.all(spec == 0.0)

    def test_frame_count_2300ms(self):
        n = int(round(2.3 * SAMPLE_RATE))
        assert stft_frames(np.zeros(n)).shape[0] == 100
        assert frame_count_for(n) == 100

    def test_440hz_peaks_in_bin_10(self):
        t = np.arange(SAMPLE_RATE) / SAMPLE_RATE
        spec = stft_frames(0.5 * np.sin(2 * np.pi * 440.0 * t))
        expected_bin = round(440 * FFT_SIZE / SAMPLE_RATE)
        assert expected_bin == 10
        assert np.all(spec.argmax(axis=1) == expected_bin)

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(11)
        samples = rng.normal(0, 0.2, size=SAMPLE_RATE // 2)
        spec = stft_frames(samples)
        for frame in (0, 7, 20):
            start = int(np.rint(frame * 23 * SAMPLE_RATE / 1000))
            oracle = oracle_window_spectrum(samples[start : start + WINDOW_SAMPLES])
            assert np.linalg.norm(spec[frame] - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_short_tail_zero_padded(self):
        # 1 frame only; signal slightly longer than one frame but the
        # window never reads past the end
        n = int(1 * 23 * SAMPLE_RATE / 1000) + 5
        spec = stft_frames(np.ones(n))
        assert spec.shape[0] == 1
        assert np.isfinite(spec).all()

    def test_magnitudes_non_negative(self):
        rng = np.random.default_rng(3)
        spec = stft_frames(rng.normal(size=SAMPLE_RATE // 4))
        assert (spec >= 0).all()

    def test_frame_starts_never_drift(self):
        # starts are recomputed per frame, so even deep into a long song
        # they stay within rounding of the ideal 1014.3-sample stride
        step = 23 * SAMPLE_RATE / 1000.0
        ks = np.arange(0, 200_000, 997)
        assert np.abs(np.rint(ks * step) - ks * step).max() < 1.0


def samples_for_frames(rng, frames):
    """Noise just long enough for ``frames`` STFT frames."""
    return rng.uniform(-1.0, 1.0, size=(frames * SAMPLE_RATE * 23 + 999) // 1000)


class TestBlockedFeatures:
    # the blocks must not change a bit: the reference is the whole-song
    # STFT and Mel projection in one call each
    @pytest.mark.parametrize(
        "frames",
        [0, 1, 15, 16, FEATURE_BLOCK - 1, FEATURE_BLOCK, FEATURE_BLOCK + 1]
        + [k * FEATURE_BLOCK + d for k in (2, 3) for d in (-1, 0, 1)]
        + [2 * FEATURE_BLOCK + FEATURE_BLOCK // 4 + d for d in (-1, 0, 1)],
    )
    def test_bit_identical_to_whole_song(self, tmp_path, frames):
        path = tmp_path / "song.wav"
        write_wav_pcm16(path, samples_for_frames(np.random.default_rng(frames), frames))
        want = mel_project(stft_frames(decode_audio(path)))
        got = song_features(path)
        assert got.shape == (frames, NUM_BANDS)
        assert np.array_equal(got, want)

    def test_song_features_read_the_blocks(self, tmp_path):
        samples = samples_for_frames(np.random.default_rng(5), 2 * FEATURE_BLOCK + 7)
        path = tmp_path / "song.wav"
        write_wav_pcm16(path, samples)
        want = mel_project(stft_frames(decode_audio(path)))
        assert np.array_equal(song_features(path), want)
        stats = NormStats(want.mean(axis=0), want.std(axis=0) + 1.0)
        assert np.array_equal(song_features(path, stats), apply_norm(want, stats))

    def test_frame_range_is_a_slice_of_the_whole(self):
        samples = samples_for_frames(np.random.default_rng(6), 40)
        whole = stft_frames(samples)
        assert np.array_equal(stft_frames(samples, 7, 23), whole[7:23])
        assert stft_frames(samples, 40, 40).shape == (0, SPECTRUM_BINS)


def write_sparse_wav(path, rate, channels, n_bytes):
    """A 16-bit PCM WAV whose data chunk declares n_bytes of silence,
    written sparse: the header, then a truncate to the full length."""
    header = bytearray(craft_wav(1, 16, rate, channels, b""))
    struct.pack_into("<I", header, 4, len(header) - 8 + n_bytes)
    struct.pack_into("<I", header, len(header) - 4, n_bytes)
    with open(path, "wb") as f:
        f.write(header)
        f.truncate(len(header) + n_bytes)


class Traced:
    """Traces allocations inside the block; ``peak`` is their peak."""

    def __enter__(self):
        tracemalloc.start()
        return self

    def __exit__(self, *exc):
        self.peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()


class TestHeader:
    def test_over_long_song_refused_before_decoding(self, tmp_path):
        # 31 minutes at 8 kHz: 30 MB of data, which a whole-file decode
        # turns into three 119 MB float64 arrays, refused from the data
        # chunk's size alone
        path = tmp_path / "long.wav"
        write_sparse_wav(path, 8000, 1, 31 * 60 * 8000 * 2)
        with Traced() as traced, pytest.raises(CorruptFile, match="exceed"):
            song_features(path)
        assert traced.peak < 2**20

    def test_data_chunk_past_the_file_end_refused_before_reading(self, tmp_path):
        path = tmp_path / "short.wav"
        data = bytearray(craft_wav(1, 16, SAMPLE_RATE, 1, b"\x00\x00" * 1000))
        struct.pack_into("<I", data, len(data) - 2004, 0xFFFFFFF0)
        path.write_bytes(data)
        with Traced() as traced, pytest.raises(CorruptFile, match="truncated"):
            decode_audio(path)
        assert traced.peak < 2**20

    def test_file_truncated_after_its_header_was_read(self, tmp_path):
        path = tmp_path / "cut.wav"
        path.write_bytes(craft_wav(1, 16, SAMPLE_RATE, 1, b"\x00\x00" * 1000))
        header = read_header(path)
        with open(path, "r+b") as f:
            f.truncate(header.data_start + 1000)
        assert len(decode_audio(header, 0, 500)) == 500
        with pytest.raises(CorruptFile, match="truncated"):
            decode_audio(header)

    def test_header_gives_the_decoded_length(self, tmp_path):
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, np.zeros(5000), rate=22050, channels=2)
        header = read_header(path)
        assert (header.frames, header.samples) == (5000, len(decode_audio(path))) == (5000, 10000)


#: (format tag, bits): 16-, 24- and 32-bit integer and 32-bit float
STREAMED_FORMATS = [(1, 16), (1, 24), (1, 32), (3, 32)]
STREAMED_FRAMES = [0, 1, FEATURE_BLOCK - 1, FEATURE_BLOCK + 1] + [
    2 * FEATURE_BLOCK + FEATURE_BLOCK // 4 + d for d in (-1, 1)
]


def random_payload(rng, fmt, bits, n_samples) -> bytes:
    """Random sample bytes; floats reach past [-1, 1] so the clip is used."""
    if fmt == 3:
        return rng.uniform(-1.5, 1.5, n_samples).astype("<f4").tobytes()
    return rng.integers(0, 256, n_samples * bits // 8, dtype=np.uint8).tobytes()


def assert_streamed_equals_whole_song(path):
    want = mel_project(stft_frames(decode_audio(path)))
    got = song_features(path)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


class TestStreamedFeatures:
    # the reference decodes the whole song, then runs the STFT and the Mel
    # projection over it in one call each
    @pytest.mark.parametrize("frames", STREAMED_FRAMES)
    @pytest.mark.parametrize("rate", [SAMPLE_RATE, 22050, 48000])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("fmt,bits", STREAMED_FORMATS, ids=["int16", "int24", "int32", "float32"])
    def test_bit_identical_to_whole_song(self, tmp_path, fmt, bits, channels, rate, frames):
        # a few hundred samples past the last frame's start, short of the next frame
        out_samples = (frames * SAMPLE_RATE * 23 + 999) // 1000 + 300
        n = round(out_samples * rate / SAMPLE_RATE)
        rng = np.random.default_rng([fmt, bits, channels, rate, frames])
        path = tmp_path / "song.wav"
        path.write_bytes(craft_wav(fmt, bits, rate, channels, random_payload(rng, fmt, bits, n * channels)))
        got = assert_streamed_equals_whole_song(path)
        assert got.shape == (frames, NUM_BANDS)

    def test_odd_length_stereo_data_chunk(self, tmp_path):
        # 16-bit stereo, 3 bytes past the last whole frame, so the chunk is
        # padded and the next chunk starts one byte later
        rng = np.random.default_rng(9)
        payload = random_payload(rng, 1, 16, 2 * 300_000) + b"\x01\x02\x03"
        data = craft_wav(1, 16, SAMPLE_RATE, 2, payload) + b"\x00" + b"LIST" + struct.pack("<I", 4) + b"INFO"
        path = tmp_path / "odd.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", len(data) - 8) + data[8:])
        got = assert_streamed_equals_whole_song(path)
        assert got.shape == (frame_count_for(300_000), NUM_BANDS)

    def test_normalized_blocks_equal_normalizing_the_song(self, tmp_path):
        path = tmp_path / "song.wav"
        write_wav_pcm16(path, samples_for_frames(np.random.default_rng(8), 3 * FEATURE_BLOCK), rate=48000)
        raw = song_features(path)
        stats = NormStats(raw.mean(axis=0), raw.std(axis=0) + 1.0)
        assert np.array_equal(song_features(path, stats), apply_norm(raw, stats))

    def test_working_memory_is_one_block(self, tmp_path):
        # 10 minutes of 44.1 kHz 16-bit stereo: 101 MiB of data, whose
        # features are 16 MiB
        path = tmp_path / "ten_minutes.wav"
        write_sparse_wav(path, SAMPLE_RATE, 2, 600 * SAMPLE_RATE * 4)
        with Traced() as traced:
            out = song_features(path)
        assert out.shape == (frame_count_for(600 * SAMPLE_RATE), NUM_BANDS)
        assert traced.peak - out.nbytes <= 16 * 2**20

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator hint is for glibc's malloc")
    def test_allocator_hint_keeps_blocks_on_reused_pages(self, tmp_path):
        # without the hint, glibc serves every block's temporaries from
        # fresh pages: thousands of minor faults per song, not a handful.
        # A fresh interpreter, so that no earlier test has set the heap's
        # thresholds
        path = tmp_path / "twenty_seconds.wav"
        write_wav_pcm16(path, np.random.default_rng(10).uniform(-0.5, 0.5, 20 * SAMPLE_RATE))
        probe = (
            "import resource, sys\n"
            "from taikoforge.audio import song_features\n"
            "song_features(sys.argv[1])\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "song_features(sys.argv[1])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        src = str(Path(taikoforge.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", probe, str(path)], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 500


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
        mel = mel_project(stft_frames(0.5 * np.sin(2 * np.pi * 440.0 * t)))
        centers = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), NUM_BANDS + 2))[1:-1]
        expected_band = int(np.abs(centers - 440.0).argmin())
        assert np.all(mel.argmax(axis=1) == expected_band)

    def test_full_pipeline_matches_oracle(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(0, 0.3, size=SAMPLE_RATE // 2)
        mel = mel_project(stft_frames(samples))
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

    def test_fit_holds_one_block_as_float64_at_a_time(self):
        rng = np.random.default_rng(10)
        blocks = [rng.normal(size=(n, NUM_BANDS)).astype(np.float32) for n in (3000, 4000, 2000, 3500)]
        tracemalloc.start()
        try:
            stats = fit_norm(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 4000 * NUM_BANDS * 8
        whole = np.vstack(blocks).astype(np.float64)
        mean = whole.mean(axis=0)
        assert np.allclose(stats.mean, mean, rtol=0, atol=1e-12)
        assert np.allclose(stats.std, np.sqrt(((whole - mean) ** 2).mean(axis=0)), rtol=1e-12, atol=0)

    def test_std_floor_positive(self):
        stats = fit_norm([np.zeros((5, 4))])
        assert (stats.std > 0).all()

    def test_norm_stats_validation(self):
        # the mean must be finite, the std finite and strictly positive
        for mean, std in [(0.0, 0.0), (0.0, -1.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (-np.inf, 1.0)]:
            with pytest.raises(ValueError):
                NormStats(np.full(4, mean), np.full(4, std))

    def test_apply_norm_rejects_other_band_count(self):
        with pytest.raises(ShapeMismatch):
            apply_norm(np.zeros((3, 80)), NormStats(np.zeros(4), np.ones(4)))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_apply_norm_allocates_only_its_output(self, dtype):
        # the subtraction and the division share one float64 buffer, and a
        # float32 input is widened inside the subtraction, not copied
        rng = np.random.default_rng(9)
        frames = rng.normal(size=(20_000, NUM_BANDS)).astype(dtype)
        stats = NormStats(rng.normal(size=NUM_BANDS), rng.random(NUM_BANDS) + 0.5)
        tracemalloc.start()
        try:
            out = apply_norm(frames, stats)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(out, (frames.astype(np.float64) - stats.mean) / stats.std)
        assert peak < 1.5 * out.nbytes

