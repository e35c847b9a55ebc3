"""Evaluation metrics over binary charts, plus note-type statistics.

Frame-aligned comparisons (dc, oc_human) truncate to the shorter chart;
pattern metrics work on each chart's full length. Pattern space counts the
distinct ordered 8-frame bit windows (out of 256 possible) seen by a
stride-1 sliding window.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from .chart import NUM_CLASSES, BinaryChart, NoteClass, NoteFrameSequence
from .errors import EmptyChart, TooShort

PATTERN_WIDTH = 8
PATTERN_SPACE_SIZE = 2 ** PATTERN_WIDTH

#: Note-type distribution (percent per class) measured over a curated set
#: of ranked human Taiko charts; printed beside computed distributions as a
#: sanity reference.
HUMAN_TAIKO_REFERENCE_PCT = (82.180, 7.394, 7.305, 0.265, 0.310, 0.097, 2.449)

METRIC_NAMES = ("dc_rand", "dc_human", "oc_human", "overall_p_space", "hi_p_space")


def derive_seed(global_seed: int, *parts) -> int:
    """Stable per-song seed: hash of the global seed and identifying parts."""
    text = ":".join([str(global_seed), *map(str, parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "little")


def dc(a: BinaryChart, b: BinaryChart) -> float:
    """Percent of frames (over the common prefix) whose bits agree."""
    n = min(len(a), len(b))
    if n == 0:
        raise EmptyChart("cannot compare zero-length charts")
    return float(np.mean(a.bits[:n] == b.bits[:n]) * 100.0)


def random_chart(n_frames: int, seed: int) -> BinaryChart:
    """Fair-coin chart of the given length."""
    rng = np.random.default_rng(seed)
    return BinaryChart(rng.integers(0, 2, size=n_frames, dtype=np.uint8))


def dc_rand(a: BinaryChart, seed: int) -> float:
    """dc against seeded fair-coin noise of equal length."""
    if len(a) == 0:
        raise EmptyChart("cannot compare a zero-length chart")
    return dc(a, random_chart(len(a), seed))


def oc_human(human: BinaryChart, ai: BinaryChart) -> float:
    """dc with a one-frame leniency window around each human note.

    A human note at frame t matches if the AI chart has a note at t-1, t,
    or t+1 (clipped at the compared range); empty human frames still demand
    an exactly empty AI frame. Frames are judged independently — an AI note
    can satisfy several neighbors.
    """
    n = min(len(human), len(ai))
    if n == 0:
        raise EmptyChart("cannot compare zero-length charts")
    h = human.bits[:n].astype(bool)
    a = ai.bits[:n].astype(bool)
    near = a.copy()
    near[:-1] |= a[1:]
    near[1:] |= a[:-1]
    matches = np.where(h, near, ~a)
    return float(matches.mean() * 100.0)


def pattern_set(a: BinaryChart) -> frozenset[int]:
    """Distinct 8-frame windows, each packed MSB-first into a byte."""
    if len(a) < PATTERN_WIDTH:
        raise TooShort(f"need at least {PATTERN_WIDTH} frames, got {len(a)}")
    windows = np.lib.stride_tricks.sliding_window_view(a.bits, PATTERN_WIDTH)
    weights = 1 << np.arange(PATTERN_WIDTH - 1, -1, -1)
    return frozenset(np.unique(windows @ weights).tolist())


def pattern_space(a: BinaryChart) -> tuple[frozenset[int], float]:
    """Observed pattern set and its percentage of the 256 possible patterns."""
    patterns = pattern_set(a)
    return patterns, len(patterns) / PATTERN_SPACE_SIZE * 100.0


def hi_pattern_space(model: BinaryChart, human: BinaryChart) -> float:
    """Percent of the human chart's patterns that the model chart also uses."""
    pm = pattern_set(model)
    ph = pattern_set(human)
    return len(pm & ph) / len(ph) * 100.0


def note_distribution(chart: NoteFrameSequence) -> np.ndarray:
    """Percent of frames per note class; sums to 100."""
    if len(chart) == 0:
        raise EmptyChart("cannot take the distribution of a zero-frame chart")
    counts = np.bincount(chart.frames, minlength=NUM_CLASSES).astype(np.float64)
    return counts / len(chart) * 100.0


@dataclass(frozen=True)
class SongEval:
    song: str
    dc_rand: float
    dc_human: float
    oc_human: float
    overall_p_space: float
    hi_p_space: float

    def values(self) -> tuple[float, ...]:
        return (self.dc_rand, self.dc_human, self.oc_human, self.overall_p_space, self.hi_p_space)


def evaluate_pair(
    song: str,
    model: BinaryChart,
    human: BinaryChart,
    seed: int,
    draws: int = 1,
) -> SongEval:
    """All five metrics for one model/human chart pair."""
    rand_scores = [dc_rand(model, derive_seed(seed, song, d)) for d in range(draws)]
    return SongEval(
        song=song,
        dc_rand=float(np.mean(rand_scores)),
        dc_human=dc(human, model),
        oc_human=oc_human(human, model),
        overall_p_space=pattern_space(model)[1],
        hi_p_space=hi_pattern_space(model, human),
    )


@dataclass
class MetricsReport:
    songs: list[SongEval]

    def averages(self) -> tuple[float, ...]:
        rows = np.array([s.values() for s in self.songs])
        return tuple(rows.mean(axis=0))

    def to_text(self) -> str:
        header = ("song", "DCRand", "DCHuman", "OCHuman", "Over. P-Space", "HI P-Space")
        width = max(len(header[0]), *(len(s.song) for s in self.songs), len("average"))
        lines = [
            f"{header[0]:<{width}}  " + "  ".join(f"{h:>13}" for h in header[1:]),
        ]
        for s in self.songs:
            lines.append(
                f"{s.song:<{width}}  " + "  ".join(f"{v:>12.3f}%" for v in s.values())
            )
        lines.append(
            f"{'average':<{width}}  " + "  ".join(f"{v:>12.3f}%" for v in self.averages())
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("song", "metric", "value"))
        for s in self.songs:
            for name, value in zip(METRIC_NAMES, s.values()):
                writer.writerow((s.song, name, f"{value:.6f}"))
        return out.getvalue()


def distribution_table(rows: dict[str, np.ndarray]) -> str:
    """Aligned note-type distribution table, one row per label, with the
    ranked-human reference row appended for comparison."""
    labels = [c.name for c in NoteClass]
    width = max(*(len(k) for k in rows), len("human reference"), 5)
    lines = [f"{'':<{width}}  " + "  ".join(f"{l:>9}" for l in labels)]
    for name, dist in [*rows.items(), ("human reference", HUMAN_TAIKO_REFERENCE_PCT)]:
        lines.append(f"{name:<{width}}  " + "  ".join(f"{v:>8.3f}%" for v in dist))
    return "\n".join(lines)
