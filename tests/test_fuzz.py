"""Mutated and truncated inputs: WAV audio, ``.osu`` and ``.sm`` charts,
TKND datasets and TKNM checkpoints. Whatever the bytes, only a
TaikoForgeError may escape."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taikoforge.audio import NormStats, song_features
from taikoforge.chart import binarize
from taikoforge.chart_io import parse_osu, parse_sm, write_osu
from taikoforge.dataset import MIN_FRAMES, ChartEntry, Dataset, DatasetManifest, load_dataset, save_dataset
from taikoforge.errors import TaikoForgeError
from taikoforge.neural import init_params, load_checkpoint, save_checkpoint

from conftest import MINI, random_note_frames


def riff(fmt_tag, channels, rate, bits, data: bytes) -> bytes:
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _valid_wavs():
    # a few dozen samples each: a mutated sample rate of 1 Hz resamples 32
    # samples to 1.4 M, so the inputs stay small enough to fuzz quickly
    x = np.sin(np.arange(32) / 3.0) * 0.5
    pcm16 = (x * 32767).astype("<i2")
    pcm24 = (x[:21] * 8388607).astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3]
    return {
        "pcm16": riff(1, 1, 44100, 16, pcm16.tobytes()),
        "pcm24": riff(1, 1, 44100, 24, pcm24.tobytes()),
        "float32": riff(3, 1, 44100, 32, x[:16].astype("<f4").tobytes()),
        "stereo16": riff(1, 2, 44100, 16, np.repeat(pcm16[:16], 2).tobytes()),
        "pcm16_8khz": riff(1, 1, 8000, 16, pcm16.tobytes()),
    }


WAVS = _valid_wavs()


def mutated(data: bytes, edits, keep: int) -> bytes:
    """data with each (position, byte) edit applied, then cut to keep bytes."""
    out = bytearray(data)
    for pos, value in edits:
        out[pos % len(out)] = value
    return bytes(out[:keep])


EDITS = st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=6)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("name", sorted(WAVS))
def test_valid_wavs_decode(fuzz_dir, name):
    path = fuzz_dir / f"{name}.wav"
    path.write_bytes(WAVS[name])
    feats = song_features(path)
    assert feats.shape[1] == 80


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(WAVS)), edits=EDITS, keep=st.integers(0, 160))
@example(name="pcm16_8khz", edits=[(40, 0)], keep=160)  # a data chunk with no sample
def test_mutated_wav_raises_only_toolkit_errors(fuzz_dir, name, edits, keep):
    path = fuzz_dir / "mutated.wav"
    path.write_bytes(mutated(WAVS[name], edits, keep))
    try:
        song_features(path)
    except TaikoForgeError:
        pass


@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "mini.tknm"
    save_checkpoint(path, init_params(MINI, seed=0))
    return path.read_bytes()


def constants_set_to_ff(first: int, count: int):
    """Edits that set ``count`` of the eight u32 architecture constants, from
    the ``first`` on (bytes 8-39 of a checkpoint), to 0xFFFFFFFF."""
    return [(pos, 0xFF) for pos in range(8 + 4 * first, 8 + 4 * (first + count))]


@settings(max_examples=100, deadline=None)
@given(edits=EDITS, keep=st.integers(0, 2**16))
@example(edits=constants_set_to_ff(0, 8), keep=2**16)  # every constant
@example(edits=constants_set_to_ff(2, 2), keep=2**16)  # both conv widths
@example(edits=constants_set_to_ff(5, 1), keep=2**16)  # the LSTM width
def test_mutated_checkpoint_raises_only_toolkit_errors(fuzz_dir, checkpoint_bytes, edits, keep):
    path = fuzz_dir / "mutated.tknm"
    path.write_bytes(mutated(checkpoint_bytes, edits, keep))
    try:
        load_checkpoint(path)
    except TaikoForgeError:
        pass


def chart_text(data: bytes) -> str | None:
    """The text a chart file holds, or None where the CLI rejects it as not
    UTF-8 before any parser runs."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        return None


OSU = write_osu(random_note_frames(np.random.default_rng(3), 60), 130.0, "song.wav").encode()

SM = b"""#TITLE:fixture;
#OFFSET:-0.050;
#BPMS:0.000=150.000;
#NOTES:
     dance-single:
     author:
     Challenge:
     9:
     0.0,0.0,0.0,0.0,0.0:
1000
0200
0300
0040
,
0000
1100
0000
M000
;
"""


@settings(max_examples=100, deadline=None)
@given(edits=EDITS, keep=st.integers(0, len(OSU)), length_ms=st.sampled_from([None, 0, 2500]))
def test_mutated_osu_raises_only_toolkit_errors(edits, keep, length_ms):
    text = chart_text(mutated(OSU, edits, keep))
    try:
        if text is not None:
            binarize(parse_osu(text, song_length_ms=length_ms)[0])
    except TaikoForgeError:
        pass


@settings(max_examples=100, deadline=None)
@given(edits=EDITS, keep=st.integers(0, len(SM)))
def test_mutated_sm_raises_only_toolkit_errors(edits, keep):
    text = chart_text(mutated(SM, edits, keep))
    try:
        if text is not None:
            parse_sm(text)
    except TaikoForgeError:
        pass


@pytest.fixture(scope="module")
def dataset_bytes(tmp_path_factory):
    rng = np.random.default_rng(4)
    counts = (3, 2)
    frames = sum(c + MIN_FRAMES - 1 for c in counts)
    manifest = DatasetManifest((ChartEntry("a", 3, "train"), ChartEntry("b", 2, "val")), bands=4)
    ds = Dataset(manifest, rng.normal(size=(frames, 4)), rng.integers(0, 7, frames), NormStats(np.zeros(4), np.ones(4)))
    path = tmp_path_factory.mktemp("tknd") / "mini.tknd"
    save_dataset(path, ds)
    return path.read_bytes()


@settings(max_examples=100, deadline=None)
@given(edits=EDITS, keep=st.integers(0, 2**11))
def test_mutated_dataset_raises_only_toolkit_errors(fuzz_dir, dataset_bytes, edits, keep):
    path = fuzz_dir / "mutated.tknd"
    path.write_bytes(mutated(dataset_bytes, edits, keep))
    try:
        ds = load_dataset(path)
    except TaikoForgeError:
        return
    every = np.arange(len(ds))
    assert ds.windows[every].shape == (len(ds), 16, ds.manifest.bands)
    assert ds.contexts[every].shape == (len(ds), 15, 7)
    assert ds.targets[every].shape == (len(ds), 4, 7)
