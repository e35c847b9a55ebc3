"""Chart generation: sliding-window inference with note feedback.

A window starting at frame i reads feature frames i..i+15 and the already
finalized notes i..i+14, then contributes predictions for frames i+15
through i+18. Every frame therefore collects up to four 7-way predictions
from overlapping windows; once the last contributor has run, the vectors
are summed, normalized, and sampled (or argmax'd in greedy mode). Frames
0..14 precede the first window: they stay empty in the output and appear
to later windows as all-zero placeholder rows rather than no-note one-hots.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .audio import song_features
from .chart import HIT_CLASSES, NUM_CLASSES, NoteClass, NoteFrameSequence
from .neural import ModelParams, forward


def aggregate_distribution(predictions) -> np.ndarray:
    """Sum a frame's prediction vectors and normalize to a distribution.

    Softmax rows can never sum to zero, but if a degenerate aggregate shows
    up anyway the frame falls back to a certain no-note.
    """
    stacked = np.sum(predictions, axis=0, dtype=np.float64)
    total = stacked.sum()
    if total <= 0:
        fallback = np.zeros(NUM_CLASSES)
        fallback[int(NoteClass.NO_NOTE)] = 1.0
        return fallback
    return stacked / total


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
    window = params.arch.frames
    lead_in = window - 1
    features = np.atleast_2d(np.asarray(features, dtype=np.float32))
    n = features.shape[0]
    notes = np.zeros(n, dtype=np.uint8)
    if n < window:
        return NoteFrameSequence(notes)

    rng = np.random.default_rng(seed)
    context = np.zeros((n, NUM_CLASSES), dtype=np.float32)
    pending: list[list[np.ndarray]] = [[] for _ in range(n)]

    for i in range(n - lead_in):
        quads, _ = forward(params, features[None, i : i + window], context[None, i : i + lead_in])
        quad = quads[0]
        for k in range(quad.shape[0]):
            t = i + lead_in + k
            if t < n:
                pending[t].append(quad[k])

        # frame i+15 has now heard from every window that will ever see it
        # before window i+1 consumes it as context
        t = i + lead_in
        dist = aggregate_distribution(pending[t])
        cls = int(dist.argmax()) if greedy else int(rng.choice(NUM_CLASSES, p=dist))
        notes[t] = cls
        context[t, cls] = 1.0
        pending[t] = []

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
