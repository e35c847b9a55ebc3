"""Audio front end: WAV decoding and the per-frame 80-band log-Mel features.

Pipeline: decode to mono 44.1kHz -> magnitude STFT on the 23ms grid ->
triangular Mel filterbank (80 bands, 27.5 Hz..16 kHz) -> natural log with a
1e-6 offset -> per-band zero-mean/unit-variance normalization fit on the
training corpus.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .chart import FRAME_MS, MAX_SONG_MS
from .errors import CorruptFile, EmptyCorpus, ShapeMismatch, UnsupportedCodec

SAMPLE_RATE = 44100
WINDOW_SAMPLES = round(FRAME_MS * SAMPLE_RATE / 1000)  # 1014
FRAME_STEP = FRAME_MS * SAMPLE_RATE / 1000.0  # 1014.3
FFT_SIZE = 1024
SPECTRUM_BINS = FFT_SIZE // 2 + 1  # 513
NUM_BANDS = 80
MEL_FMIN = 27.5
MEL_FMAX = 16000.0
LOG_OFFSET = 1e-6
STD_FLOOR = 1e-8


def _decode_pcm(raw: bytes, bits: int, fmt: int, path: str | Path) -> np.ndarray:
    if fmt == 3:  # IEEE float
        if bits != 32:
            raise UnsupportedCodec(f"{path}: {bits}-bit float WAV is not supported")
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if fmt != 1:
        raise UnsupportedCodec(f"{path}: WAV format tag {fmt} is not supported")
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
    raise UnsupportedCodec(f"{path}: {bits}-bit integer WAV is not supported")


@dataclass(frozen=True)
class WavHeader:
    """What a WAV file's chunks declare, checked against the file's size
    and the supported formats: where its sample frames lie, and how many
    44.1 kHz samples they decode to."""

    path: Path
    fmt: int
    channels: int
    rate: int
    bits: int
    #: file offset of the data chunk's first byte
    data_start: int
    #: whole sample frames (one sample per channel) in the data chunk
    frames: int
    #: mono samples after resampling to 44.1 kHz
    samples: int


def read_header(path: str | Path) -> WavHeader:
    """Walk a WAV file's chunks and check them, reading no sample.

    A later fmt or data chunk replaces an earlier one, and odd chunk sizes
    are padded. A data chunk that declares more bytes than the file holds,
    or a song past ``MAX_SONG_MS`` once resampled, is refused here, so that
    no hostile header costs more than the header's own bytes.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
            raise CorruptFile(f"{path}: not a RIFF/WAVE file")
        fmt_chunk = None
        data_chunk = None
        pos = 12
        while pos + 8 <= size:
            f.seek(pos)
            cid, chunk_size = struct.unpack("<4sI", f.read(8))
            if cid == b"fmt ":
                fmt_chunk = f.read(min(chunk_size, 16))
            elif cid == b"data":
                if pos + 8 + chunk_size > size:
                    raise CorruptFile(f"{path}: data chunk truncated")
                data_chunk = (pos + 8, chunk_size)
            pos += 8 + chunk_size + (chunk_size & 1)
    if fmt_chunk is None or data_chunk is None:
        raise CorruptFile(f"{path}: missing fmt or data chunk")
    if len(fmt_chunk) < 16:
        raise CorruptFile(f"{path}: fmt chunk too short")

    fmt, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt_chunk)
    if channels not in (1, 2):
        raise UnsupportedCodec(f"{path}: {channels}-channel WAV is not supported")
    _decode_pcm(b"", bits, fmt, path)  # raises for a format it does not decode
    data_start, n_bytes = data_chunk
    if block_align:
        n_bytes -= n_bytes % block_align
    if n_bytes % (bits // 8):
        raise CorruptFile(f"{path}: data chunk not aligned to the sample size")
    if rate == 0:
        raise CorruptFile(f"{path}: zero sample rate")
    frames = n_bytes // (bits // 8) // channels
    samples = int(round(frames * SAMPLE_RATE / rate))
    if samples > MAX_SONG_MS * SAMPLE_RATE // 1000:
        raise CorruptFile(f"{path}: {frames} samples at {rate} Hz exceed the {MAX_SONG_MS}ms limit")
    return WavHeader(Path(path), fmt, channels, rate, bits, data_start, frames, samples)


def decode_audio(wav: str | Path | WavHeader, first: int = 0, stop: int | None = None) -> np.ndarray:
    """Read a PCM WAV file as mono float samples in [-1, 1] at 44100 Hz:
    its samples ``first`` up to ``stop`` (by default the whole song).

    Accepts 1- or 2-channel files at 16/24/32-bit integer or 32-bit float
    depth. Stereo is averaged to mono; other sample rates are linearly
    interpolated up or down to 44100 Hz. Only the sample frames that the
    span interpolates between are read, and any span holds the same
    values, bit for bit, as that part of the whole song: the mix and the
    clip work sample by sample, and output sample k sits at source
    position ``k * rate / 44100`` wherever the span starts.
    """
    if not isinstance(wav, WavHeader):
        wav = read_header(wav)
    stop = wav.samples if stop is None else min(stop, wav.samples)
    lo = hi = 0
    positions = None
    if first < stop and wav.rate == SAMPLE_RATE:
        lo, hi = first, stop
    elif first < stop:
        positions = np.arange(first, stop) * (wav.rate / SAMPLE_RATE)
        # np.interp reads the source samples on either side of a position,
        # and the last one for a position past it
        lo = min(int(positions[0]), wav.frames - 1)
        hi = min(int(positions[-1]) + 2, wav.frames)

    frame_bytes = wav.channels * wav.bits // 8
    with open(wav.path, "rb") as f:
        f.seek(wav.data_start + lo * frame_bytes)
        raw = f.read((hi - lo) * frame_bytes)
    if len(raw) < (hi - lo) * frame_bytes:
        raise CorruptFile(f"{wav.path}: data chunk truncated")
    samples = _decode_pcm(raw, wav.bits, wav.fmt, wav.path)
    if wav.channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    samples = np.clip(samples, -1.0, 1.0)
    if positions is not None:
        samples = np.interp(positions, np.arange(lo, hi), samples)
    return samples


def frame_count_for(n_samples: int) -> int:
    """Frames fully covered by n samples: floor(duration_ms / 23)."""
    return n_samples * 1000 // (SAMPLE_RATE * FRAME_MS)


def frame_start(k: int) -> int:
    """First sample of frame k: rint(k * 1014.3), recomputed per frame so
    that no cumulative drift builds up over long songs."""
    return int(np.rint(k * FRAME_STEP))


def stft_frames(samples: np.ndarray, first: int = 0, stop: int | None = None, offset: int = 0) -> np.ndarray:
    """Magnitude spectra of 44.1 kHz samples on the 23ms grid, one 513-bin
    row per frame, for frames ``first`` up to ``stop`` (by default every
    frame).

    ``samples`` may be a span of the song that starts at its sample
    ``offset`` and holds every sample the frames read. Each 1014-sample
    segment from :func:`frame_start` on is Hann-weighted and zero-padded to
    1024 before the FFT; segments running past the signal end are
    zero-padded rather than rejected.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if stop is None:
        stop = frame_count_for(offset + len(samples))
    window = np.hanning(WINDOW_SAMPLES)

    segs = np.zeros((max(stop - first, 0), FFT_SIZE), dtype=np.float64)
    for row, k in enumerate(range(first, stop)):
        start = frame_start(k) - offset
        seg = samples[start : start + WINDOW_SAMPLES]
        segs[row, : len(seg)] = seg
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
    """Per-band mean and (floored) standard deviation from the training corpus.
    The mean must be finite and the std finite and strictly positive."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(self.mean, dtype=np.float64)
        std = np.ascontiguousarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValueError("mean/std must be matching 1-d arrays")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise ValueError("normalization mean must be finite and std finite and strictly positive")
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
    blocks = [np.atleast_2d(b) for b in frame_blocks]
    count = sum(b.shape[0] for b in blocks)
    if count == 0:
        raise EmptyCorpus("no frames to fit normalization on")
    # each pass holds one block as float64 at a time
    mean = sum(np.asarray(b, dtype=np.float64).sum(axis=0) for b in blocks) / count
    var = sum((np.subtract(b, mean, dtype=np.float64) ** 2).sum(axis=0) for b in blocks) / count
    return NormStats(mean, np.maximum(np.sqrt(var), STD_FLOOR))


def apply_norm(frames: np.ndarray, stats: NormStats) -> np.ndarray:
    if np.shape(frames)[-1:] != stats.mean.shape:
        raise ShapeMismatch(f"features have {np.shape(frames)[-1]} bands, normalization stats {len(stats.mean)}")
    out = np.subtract(frames, stats.mean, dtype=np.float64)
    out /= stats.std
    return out


#: Frames per block of the log-Mel features. A block's decode and STFT
#: hold its samples, segments and spectra, about 7 MiB at 256 frames of
#: 44.1 kHz stereo, so the front end's working memory does not grow with
#: the song's length.
FEATURE_BLOCK = 256

#: Bytes that :func:`song_features` allocates, untouched, and frees before
#: its blocks. glibc serves each request of at least its mmap threshold
#: from fresh zeroed pages, and raises that threshold, and the heap's trim
#: threshold to twice as much, only when it frees a larger mapped request
#: (up to 32 MiB). The blocks' 1-9 MB temporaries would otherwise come from
#: fresh pages block after block: 31.7k page faults and twice the time over
#: a 95 s corpus, against none with the hint. Untouched pages are never
#: resident, and other allocators ignore the hint.
ALLOCATOR_HINT_BYTES = 16 << 20


def song_features(wav: str | Path | WavHeader, stats: NormStats | None = None) -> np.ndarray:
    """Full front end for one song: decode -> STFT -> log-Mel [-> normalize],
    bit for bit ``mel_project(stft_frames(decode_audio(wav)))``.

    The frames are computed in blocks of :data:`FEATURE_BLOCK`, each of
    which decodes only the samples its STFT reads and is normalized as it
    is written into the one output, so that nothing song-length is held
    but the features. The Mel projection is a matrix product, whose rows
    round alike in any product whose row tiles line up, so blocks start at
    multiples of 256 rows. A tail of at most a quarter block joins the
    block before it: products of a few rows take other BLAS routines
    (numpy sends one row to a matrix-vector product, OpenBLAS sends fewer
    than 16 rows to its small-matrix kernels), which round otherwise.
    """
    if not isinstance(wav, WavHeader):
        wav = read_header(wav)
    np.empty(ALLOCATOR_HINT_BYTES, dtype=np.uint8)  # freed at once; see ALLOCATOR_HINT_BYTES
    n_frames = frame_count_for(wav.samples)
    out = np.empty((n_frames, NUM_BANDS))
    edges = [*range(0, max(n_frames - FEATURE_BLOCK // 4, 1), FEATURE_BLOCK), n_frames]
    for a, b in zip(edges[:-1], edges[1:]):
        lo = frame_start(a)
        hi = min(frame_start(b - 1) + WINDOW_SAMPLES, wav.samples) if b > a else lo
        feats = mel_project(stft_frames(decode_audio(wav, lo, hi), a, b, offset=lo))
        out[a:b] = feats if stats is None else apply_norm(feats, stats)
    return out
