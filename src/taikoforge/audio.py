"""Audio front end: WAV decoding and the per-frame 80-band log-Mel features.

Pipeline: decode to mono 44.1kHz -> magnitude STFT on the 23ms grid ->
triangular Mel filterbank (80 bands, 27.5 Hz..16 kHz) -> natural log with a
1e-6 offset -> per-band zero-mean/unit-variance normalization fit on the
training corpus. ``WINDOW_FRAMES`` is the length of the model's audio
window, which the dataset slides over these features one frame at a time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .chart import FRAME_MS, MAX_SONG_MS
from .errors import CorruptFile, EmptyCorpus, UnsupportedCodec

SAMPLE_RATE = 44100
WINDOW_SAMPLES = round(FRAME_MS * SAMPLE_RATE / 1000)  # 1014
FFT_SIZE = 1024
SPECTRUM_BINS = FFT_SIZE // 2 + 1  # 513
NUM_BANDS = 80
MEL_FMIN = 27.5
MEL_FMAX = 16000.0
LOG_OFFSET = 1e-6
STD_FLOOR = 1e-8
WINDOW_FRAMES = 16


def _decode_pcm(raw: bytes, bits: int, fmt: int) -> np.ndarray:
    if fmt == 3:  # IEEE float
        if bits != 32:
            raise UnsupportedCodec(f"{bits}-bit float WAV is not supported")
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if fmt != 1:
        raise UnsupportedCodec(f"WAV format tag {fmt} is not supported")
    if bits == 16:
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if bits == 24:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        x = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        x = np.where(x & 0x800000, x - 0x1000000, x)
        return x.astype(np.float64) / 8388608.0
    if bits == 32:
        return np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
    raise UnsupportedCodec(f"{bits}-bit integer WAV is not supported")


def decode_audio(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a PCM WAV file as mono float samples in [-1, 1] at 44100 Hz.

    Accepts 1- or 2-channel files at 16/24/32-bit integer or 32-bit float
    depth. Stereo is averaged to mono; other sample rates are linearly
    interpolated up or down to 44100 Hz.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptFile(f"{path}: not a RIFF/WAVE file")

    fmt_chunk = None
    data_chunk = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt_chunk = body
        elif cid == b"data":
            if len(body) < size:
                raise CorruptFile(f"{path}: data chunk truncated")
            data_chunk = body
        pos += 8 + size + (size & 1)
    if fmt_chunk is None or data_chunk is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")
    if len(fmt_chunk) < 16:
        raise CorruptFile(f"{path}: fmt chunk too short")

    fmt, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt_chunk)
    if channels not in (1, 2):
        raise UnsupportedCodec(f"{channels}-channel WAV is not supported")
    if block_align:
        data_chunk = data_chunk[: len(data_chunk) - len(data_chunk) % block_align]

    try:
        samples = _decode_pcm(data_chunk, bits, fmt)
    except ValueError as exc:
        raise CorruptFile(f"{path}: data chunk not aligned to the sample size") from exc
    if channels == 2:
        samples = samples[: len(samples) - len(samples) % 2].reshape(-1, 2).mean(axis=1)
    samples = np.clip(samples, -1.0, 1.0)

    if rate == 0:
        raise CorruptFile(f"{path}: zero sample rate")
    n_out = int(round(len(samples) * SAMPLE_RATE / rate))
    if n_out > MAX_SONG_MS * SAMPLE_RATE // 1000:
        raise CorruptFile(f"{path}: {len(samples)} samples at {rate} Hz exceed the {MAX_SONG_MS}ms limit")
    if rate != SAMPLE_RATE:
        positions = np.arange(n_out) * (rate / SAMPLE_RATE)
        samples = np.interp(positions, np.arange(len(samples)), samples)
    return samples, SAMPLE_RATE


def frame_count_for(n_samples: int) -> int:
    """Frames fully covered by n samples: floor(duration_ms / 23)."""
    return n_samples * 1000 // (SAMPLE_RATE * FRAME_MS)


def stft_frames(samples: np.ndarray, sample_rate: int) -> np.ndarray:
    """Magnitude spectra on the 23ms grid, one 513-bin row per frame.

    Frame k starts at sample rint(k * 1014.3) — recomputed per frame so no
    cumulative drift builds up over long songs. Each 1014-sample segment is
    Hann-weighted and zero-padded to 1024 before the FFT; segments running
    past the signal end are zero-padded rather than rejected.
    """
    if sample_rate != SAMPLE_RATE:
        raise ValueError(f"expected {SAMPLE_RATE} Hz input, got {sample_rate}")
    samples = np.asarray(samples, dtype=np.float64)
    n_frames = frame_count_for(len(samples))
    window = np.hanning(WINDOW_SAMPLES)
    step = FRAME_MS * SAMPLE_RATE / 1000.0

    segs = np.zeros((n_frames, FFT_SIZE), dtype=np.float64)
    for k in range(n_frames):
        start = int(np.rint(k * step))
        seg = samples[start : start + WINDOW_SAMPLES]
        segs[k, : len(seg)] = seg
    segs[:, :WINDOW_SAMPLES] *= window
    return np.abs(np.fft.rfft(segs, n=FFT_SIZE, axis=1))


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """(80, 513) triangular filters, peak weight 1, equally spaced in Mel."""
    edges = mel_to_hz(np.linspace(hz_to_mel(MEL_FMIN), hz_to_mel(MEL_FMAX), NUM_BANDS + 2))
    bin_freqs = np.arange(SPECTRUM_BINS) * SAMPLE_RATE / FFT_SIZE
    fb = np.zeros((NUM_BANDS, SPECTRUM_BINS))
    for i in range(NUM_BANDS):
        left, center, right = edges[i], edges[i + 1], edges[i + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    return fb


_FILTERBANK: np.ndarray | None = None


def mel_project(spectra: np.ndarray) -> np.ndarray:
    """Project 513-bin magnitude spectra to 80 log-Mel energies per frame."""
    global _FILTERBANK
    if _FILTERBANK is None:
        _FILTERBANK = mel_filterbank()
    spectra = np.atleast_2d(np.asarray(spectra, dtype=np.float64))
    return np.log(spectra @ _FILTERBANK.T + LOG_OFFSET)


@dataclass(frozen=True)
class NormStats:
    """Per-band mean and (floored) standard deviation from the training corpus."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-d arrays")
        if not (std > 0).all():
            raise ValueError("std must be strictly positive")
        mean.flags.writeable = False
        std.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)


def fit_norm(frame_blocks: Iterable[np.ndarray]) -> NormStats:
    """Fit per-band mean/std over every frame of every block.

    Two-pass reduction (mean, then centered squares) so degenerate bands
    come out with exactly zero variance and hit the std floor cleanly.
    Population std, floored at 1e-8.
    """
    blocks = [np.atleast_2d(np.asarray(b, dtype=np.float64)) for b in frame_blocks]
    count = sum(b.shape[0] for b in blocks)
    if count == 0:
        raise EmptyCorpus("no frames to fit normalization on")
    mean = sum(b.sum(axis=0) for b in blocks) / count
    var = sum(((b - mean) ** 2).sum(axis=0) for b in blocks) / count
    return NormStats(mean, np.maximum(np.sqrt(var), STD_FLOOR))


def apply_norm(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    return (np.asarray(frames, dtype=np.float64) - stats.mean) / stats.std


def song_features(path: str | Path, stats: NormStats | None = None) -> np.ndarray:
    """Full front end for one song: decode -> STFT -> log-Mel [-> normalize]."""
    samples, rate = decode_audio(path)
    feats = mel_project(stft_frames(samples, rate))
    return apply_norm(feats, stats) if stats is not None else feats

