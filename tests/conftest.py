"""Shared synthetic fixtures: WAV writing (stdlib, independent of the
package's RIFF reader), random valid charts, and a tiny chart+audio corpus
for pipeline tests."""

import itertools
import struct
import wave
import zlib
from pathlib import Path

import numpy as np
import pytest

from taikoforge import trainer
from taikoforge.audio import SAMPLE_RATE, NormStats
from taikoforge.chart import FRAME_MS, NUM_CLASSES, NoteClass, NoteFrameSequence
from taikoforge.chart_io import write_osu
from taikoforge.neural import ArchConfig, ModelParams, ParamBuffer, init_params, save_checkpoint

#: A model small enough that finite differences over every parameter stay cheap.
MINI = ArchConfig(frames=4, bands=4, conv1_filters=2, conv2_filters=3, seg_features=8, hidden=3)


def write_wav_pcm16(path, samples, rate=SAMPLE_RATE, channels=1):
    """Write float samples as 16-bit PCM via the stdlib wave module."""
    samples = np.asarray(samples, dtype=np.float64)
    ints = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    if channels == 2 and ints.ndim == 1:
        ints = np.repeat(ints[:, None], 2, axis=1)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(2)
        w.setframerate(rate)
        w.writeframes(ints.tobytes())


def random_note_frames(rng, n_frames, ensure_all_classes=True):
    """Random but valid chart: iid class draws, all seven classes present."""
    probs = np.array([0.76, 0.06, 0.02, 0.06, 0.02, 0.04, 0.04])
    frames = rng.choice(NUM_CLASSES, size=n_frames, p=probs).astype(np.uint8)
    if ensure_all_classes:
        spots = rng.choice(n_frames, size=NUM_CLASSES, replace=False)
        for cls, spot in zip(range(NUM_CLASSES), spots):
            frames[spot] = cls
    return NoteFrameSequence(frames)


def periodic_chart(n_frames, period=4, first_note=16):
    """Don/Kat alternating every `period` frames from `first_note` on."""
    frames = np.zeros(n_frames, dtype=np.uint8)
    for i, t in enumerate(range(first_note, n_frames, period)):
        frames[t] = NoteClass.SMALL_DON if i % 2 == 0 else NoteClass.SMALL_KAT
    return NoteFrameSequence(frames)


#: Burst frequency keyed by note class so synthetic charts are learnable
#: from audio alone (class identity is audible, not just note placement).
CLICK_HZ = {1: 600.0, 2: 1200.0, 3: 2400.0, 4: 4800.0, 5: 900.0, 6: 3400.0}


def click_audio_for(chart: NoteFrameSequence) -> np.ndarray:
    """Audio with a loud class-keyed burst inside every note frame."""
    n_samples = len(chart) * FRAME_MS * SAMPLE_RATE // 1000 + SAMPLE_RATE // 10
    samples = np.zeros(n_samples)
    burst_len = 600
    t = np.arange(burst_len) / SAMPLE_RATE
    envelope = np.hanning(burst_len)
    for frame in np.flatnonzero(chart.frames != int(NoteClass.NO_NOTE)):
        hz = CLICK_HZ[int(chart.frames[frame])]
        burst = 0.8 * np.sin(2 * np.pi * hz * t) * envelope
        start = int(frame) * FRAME_MS * SAMPLE_RATE // 1000
        samples[start : start + burst_len] += burst
    return samples


def save_checkpoint_with_constants(path, arch: ArchConfig, **constants):
    """Save zero parameters for a copy of arch with `constants` set, past
    the checks of ArchConfig, so that the file's length and CRC agree with
    the constants its header declares."""
    arch = ArchConfig(*arch.as_tuple())
    for name, value in constants.items():
        object.__setattr__(arch, name, value)
    norm = NormStats(np.zeros(arch.bands), np.ones(arch.bands))
    save_checkpoint(path, ModelParams(arch, norm, ParamBuffer(arch)))


def save_checkpoint_with_norm(path, arch: ArchConfig, mean: float, std: float):
    """Save a checkpoint whose normalization stats hold `mean` and `std` in
    every band. NormStats refuses a non-finite mean or a std that is not
    finite and positive, so they are set on a valid NormStats, past that
    check."""
    params = init_params(arch, seed=0)
    object.__setattr__(params.norm, "mean", np.full(arch.bands, mean))
    object.__setattr__(params.norm, "std", np.full(arch.bands, std))
    save_checkpoint(path, params)


def save_checkpoint_v1(path, params):
    """Write ``params`` and a zero Adam state in the version-1 TKNM layout,
    which stored each of the 42 arrays with its name, axis count and shape."""
    arrays = list(params.arrays.items()) + [(f"{k}.{n}", np.zeros(a.shape)) for k in "mv" for n, a in params.arrays.items()]
    chunks = [
        b"TKNM",
        struct.pack("<I8I", 1, *params.arch.as_tuple()),
        params.norm.mean.astype("<f8").tobytes(),
        params.norm.std.astype("<f8").tobytes(),
        struct.pack("<QI", 0, len(arrays)),
    ]
    for name, arr in arrays:
        chunks += [
            struct.pack("<H", len(name)) + name.encode(),
            struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape),
            np.asarray(arr, dtype="<f4").tobytes(),
        ]
    data = b"".join(chunks)
    Path(path).write_bytes(data + struct.pack("<I", zlib.crc32(data)))


def overflow_epochs(monkeypatch, *calls):
    """Make training overflow for real: the listed calls of
    ``trainer._run_epoch`` (call i runs the schedule's i-th epoch) first
    scale every parameter by 1e30, so that the epoch's activations or
    gradients go non-finite."""
    real = trainer._run_epoch
    count = itertools.count()

    def run_epoch(params, *args):
        if next(count) in calls:
            params.flat[:] *= 1e30
        return real(params, *args)

    monkeypatch.setattr(trainer, "_run_epoch", run_epoch)


@pytest.fixture
def tiny_corpus(tmp_path: Path):
    """Two short charts with matching click audio, on disk, ready for the CLI."""
    charts_dir = tmp_path / "charts"
    audio_dir = tmp_path / "audio"
    charts_dir.mkdir()
    audio_dir.mkdir()
    for name, period in (("song_a", 4), ("song_b", 6)):
        chart = periodic_chart(90, period=period)
        (charts_dir / f"{name}.osu").write_text(write_osu(chart, 130.0, f"{name}.wav"))
        write_wav_pcm16(audio_dir / f"{name}.wav", click_audio_for(chart))
    return charts_dir, audio_dir
