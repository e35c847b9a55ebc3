"""Mutated and truncated binary inputs of ``generate``: WAV audio and TKNM
checkpoints. Whatever the bytes, only a TaikoForgeError may escape."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taikoforge.audio import song_features
from taikoforge.errors import TaikoForgeError
from taikoforge.neural import ArchConfig, init_params, load_checkpoint, save_checkpoint

MINI = ArchConfig(frames=4, bands=4, conv1_filters=2, conv2_filters=3, seg_features=8, hidden=3)


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


@settings(max_examples=100, deadline=None)
@given(edits=EDITS, keep=st.integers(0, 2**16))
def test_mutated_checkpoint_raises_only_toolkit_errors(fuzz_dir, checkpoint_bytes, edits, keep):
    path = fuzz_dir / "mutated.tknm"
    path.write_bytes(mutated(checkpoint_bytes, edits, keep))
    try:
        load_checkpoint(path)
    except TaikoForgeError:
        pass
