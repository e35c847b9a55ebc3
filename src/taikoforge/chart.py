"""Core chart types: the 23ms time grid, note classes, and frame-aligned charts.

Everything downstream (features, training examples, generation, metrics)
speaks in terms of these types. All of them are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

#: Width of one time-grid frame in milliseconds.
FRAME_MS = 23

#: Longest song accepted, in milliseconds. Chart times, ``.sm`` chart spans
#: and decoded audio beyond it are rejected before any array is sized by them.
MAX_SONG_MS = 30 * 60 * 1000

#: Number of note classes (no-note plus the six Taiko object types).
NUM_CLASSES = 7


class NoteClass(IntEnum):
    """The seven per-frame note classes, in frozen index order.

    One-hot encodings, model output heads, and the dataset format all rely
    on this ordering; never reorder.
    """

    NO_NOTE = 0
    SMALL_DON = 1
    BIG_DON = 2
    SMALL_KAT = 3
    BIG_KAT = 4
    DRUMROLL = 5
    DENDEN = 6


#: Classes played with a single discrete hit (one frame each).
HIT_CLASSES = frozenset(
    {NoteClass.SMALL_DON, NoteClass.BIG_DON, NoteClass.SMALL_KAT, NoteClass.BIG_KAT}
)


def ms_to_frame(t_ms: float) -> int:
    """Quantize a millisecond timestamp onto the 23ms grid (floor)."""
    if t_ms < 0:
        raise ValueError(f"negative timestamp: {t_ms}")
    return int(math.floor(t_ms / FRAME_MS))


@dataclass(frozen=True)
class TimeGrid:
    """The fixed 23ms frame grid over a song of known length."""

    song_length_ms: int

    def __post_init__(self):
        if self.song_length_ms < 0:
            raise ValueError("song length must be non-negative")

    @property
    def frame_count(self) -> int:
        return self.song_length_ms // FRAME_MS


@dataclass(frozen=True)
class NoteFrameSequence:
    """A chart as one NoteClass per 23ms frame.

    Drumroll and Denden occupy every frame of their span; Don/Kat notes
    occupy single frames. The array is locked read-only on construction.
    """

    frames: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.frames, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("frames must be one-dimensional")
        if arr.size and arr.max() >= NUM_CLASSES:
            raise ValueError("frame values must be valid NoteClass indices")
        arr.flags.writeable = False
        object.__setattr__(self, "frames", arr)

    def __len__(self) -> int:
        return int(self.frames.size)

    def __getitem__(self, frame: int) -> NoteClass:
        return NoteClass(int(self.frames[frame]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NoteFrameSequence):
            return NotImplemented
        return self.frames.shape == other.frames.shape and bool(
            np.all(self.frames == other.frames)
        )


@dataclass(frozen=True)
class BinaryChart:
    """Per-frame 0/1 sequence marking frames that demand a discrete input."""

    bits: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    def __len__(self) -> int:
        return int(self.bits.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryChart):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))


def binarize(chart: NoteFrameSequence) -> BinaryChart:
    """Reduce a chart to discrete-input bits.

    A frame gets a 1 if it holds a Don/Kat hit or is the first frame of a
    Drumroll/Denden run; the body and tail of held objects are 0.
    """
    f = chart.frames
    hit = (f >= NoteClass.SMALL_DON) & (f <= NoteClass.BIG_KAT)
    span = (f == NoteClass.DRUMROLL) | (f == NoteClass.DENDEN)
    prev = np.empty_like(f)
    if f.size:
        prev[0] = NoteClass.NO_NOTE
        prev[1:] = f[:-1]
    head = span & (f != prev)
    return BinaryChart((hit | head).astype(np.uint8))


def one_hot(c: NoteClass) -> np.ndarray:
    """7-vector with 1.0 at the class index."""
    v = np.zeros(NUM_CLASSES, dtype=np.float32)
    v[int(c)] = 1.0
    return v


def one_hot_rows(frames: np.ndarray) -> np.ndarray:
    """One-hot encode an array of class indices of shape s into an (*s, 7) float32 array."""
    return np.eye(NUM_CLASSES, dtype=np.float32)[np.asarray(frames, dtype=np.intp)]
