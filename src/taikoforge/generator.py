"""Chart generation: wavefront inference with note feedback.

A window starting at frame i reads feature frames i..i+15 and the already
finalized notes i..i+14, then contributes predictions for frames i+15
through i+18. Every frame therefore collects up to four 7-way predictions
from overlapping windows; once the last contributor has run, their sum is
normalized and sampled (or argmax'd in greedy mode). Frames 0..14 precede
the first window: they stay empty in the output and appear to later
windows as placeholder rows with no class set.

The audio trunk does not depend on notes, so it runs for the whole song
before the recurrence, through :func:`~taikoforge.neural.song_trunk`,
which shares the convolution rows of overlapping windows. The LSTMs then
run as a wavefront across windows: step t of window j reads note j+t, so
the frame just sampled is what the 15 in-flight windows f-14..f all wait
for. At frame f, slot k of one batched step per layer holds window f-k at
its step k; window f-14 then runs its final all-ones step and the output
head, its quad goes into a running sum, and frame f+1 is sampled. This is
the wavefront schedule of Appleyard et al. 2016 (arXiv:1604.01946), run
across windows instead of across layers. From its segments on, each
window sees the same inputs and runs the same layer operations as one
:func:`~taikoforge.neural.forward` call would, and each sample is the
draw ``rng.choice`` makes from the same distribution.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import song_features
from .chart import HIT_CLASSES, NUM_CLASSES, NoteClass, NoteFrameSequence
from .errors import ShapeMismatch
from .neural import ModelParams, _gate_scale, _head, _lstm_step, song_trunk
# not called here; kept importable because the benchmark's tracing wraps it by name
from .neural import forward


# _head raises on any non-finite probability, so numpy's overflow warnings
# from extreme but finite weights add nothing
@np.errstate(over="ignore", invalid="ignore")
def generate_notes(
    params: ModelParams,
    features: np.ndarray,
    seed: int = 0,
    greedy: bool = False,
) -> NoteFrameSequence:
    """Run the model over normalized feature frames and sample a chart.

    Deterministic for a given (params, features, seed). Songs shorter than
    one window come back all empty.
    """
    arch = params.arch
    lead_in = arch.context
    features = np.atleast_2d(np.asarray(features, dtype=np.float32))
    n = features.shape[0]
    if features.shape[1] != arch.bands:
        raise ShapeMismatch(f"features must have {arch.bands} bands, got {features.shape[1]}")
    notes = np.zeros(n, dtype=np.uint8)
    if n < arch.frames:
        return NoteFrameSequence(notes)

    # window j's segments sit at row j + lead_in - 1, between lead_in - 1
    # zero rows on each side for the slots of windows outside the song
    segs = np.zeros((n + lead_in - 2, arch.frames, arch.seg_features), dtype=params.dtype)
    segs[lead_in - 1 : n - 1] = song_trunk(params, features)

    # note rows: the class one-hot (none set for placeholders) and the constant 1
    note_rows = np.zeros((n, arch.seg_features), dtype=params.dtype)
    note_rows[:, arch.classes] = 1.0
    # Fortran-ordered copies, so that each ``w.T`` here and in _lstm_step is
    # C-contiguous: a 15x64 by 64x256 product took 9.6 us instead of 17 us,
    # with equal results
    wx1, wh1, wx2, wh2 = (
        np.asfortranarray(params[name]) for name in ("lstm1_wx", "lstm1_wh", "lstm2_wx", "lstm2_wh")
    )
    b1, b2 = params["lstm1_b"], params["lstm2_b"]
    s = _gate_scale(arch.hidden, params.dtype)
    # each window's final step fuses with the all-ones row, so its segment
    # passes unchanged: the input projections of every final step at once
    z_last = segs[:, -1] @ wx1.T + b1
    # row k is the state of slot k; the extra last row receives the state
    # of the window that leaves the wavefront, and row 0 stays zero
    h1, c1, h2, c2 = (np.zeros((lead_in + 1, arch.hidden), dtype=params.dtype) for _ in range(4))
    slots = np.arange(lead_in)
    sums = np.zeros((n + arch.horizon, NUM_CLASSES))
    rng = np.random.default_rng(seed)

    for f in range(n - 1):
        fused = segs[f + lead_in - 1 - slots, slots] * note_rows[f]
        _, h1[1:], c1[1:] = _lstm_step(fused @ wx1.T + b1, h1[:-1], c1[:-1], wh1, s)
        _, h2[1:], c2[1:] = _lstm_step(h1[1:] @ wx2.T + b2, h2[:-1], c2[:-1], wh2, s)
        if f < lead_in - 1:
            continue
        # window f - lead_in + 1 has read its last note row
        _, h, _ = _lstm_step(z_last[f : f + 1], h1[-1:], c1[-1:], wh1, s)
        _, h, _ = _lstm_step(h @ wx2.T + b2, h2[-1:], c2[-1:], wh2, s)
        sums[f + 1 : f + 1 + arch.horizon] += _head(params, h)[0]

        # frame f+1 has now heard from every window that will ever see it;
        # a sample is the draw ``rng.choice(NUM_CLASSES, p=dist)`` makes
        t = f + 1
        dist = sums[t] / sums[t].sum()
        if greedy:
            cls = int(dist.argmax())
        else:
            cdf = dist.cumsum()
            cdf /= cdf[-1]
            cls = int(cdf.searchsorted(rng.random(), side="right"))
        notes[t] = cls
        note_rows[t, cls] = 1.0

    return NoteFrameSequence(notes)


def generate(
    params: ModelParams,
    audio_path: str | Path,
    seed: int = 0,
    greedy: bool = False,
) -> NoteFrameSequence:
    """Decode a song, extract normalized features, and generate its chart."""
    features = song_features(audio_path, params.norm)
    return generate_notes(params, features, seed=seed, greedy=greedy)


def postprocess(chart: NoteFrameSequence) -> NoteFrameSequence:
    """Remove double positives: of two hits only 23ms apart, drop the later.

    The left-to-right scan works on the already-edited sequence, so a run
    of three adjacent hits keeps its first and third. Drumroll and Denden
    spans are left alone.
    """
    frames = chart.frames.copy()
    hits = {int(c) for c in HIT_CLASSES}
    for t in range(len(frames) - 1):
        if int(frames[t]) in hits and int(frames[t + 1]) in hits:
            frames[t + 1] = int(NoteClass.NO_NOTE)
    return NoteFrameSequence(frames)
