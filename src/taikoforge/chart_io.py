"""Parsers and writer for rhythm-game chart files.

Two formats are handled:

* osu!Taiko ``.osu`` — parsed to a frame-aligned :class:`NoteFrameSequence`
  plus its audio name and timing points, and written back out. The
  writer/parser pair is a strict round trip: every generated chart survives
  write -> parse frame-for-frame.
* StepMania ``.sm`` (single-BPM, 4-panel subset) — the first ``#NOTES``
  chart is parsed straight to a :class:`BinaryChart` for cross-game metric
  comparisons.

Taiko circle hitsound convention (community standard, fixed here so the
round trip is a bijection): Kat iff whistle(2) or clap(8) bit set, Big iff
finish(4) bit set, otherwise a small Don. The writer emits 0 / 4 / 8 / 12
for small Don / big Don / small Kat / big Kat.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chart import (
    FRAME_MS,
    HIT_CLASSES,
    MAX_SONG_MS,
    NoteClass,
    NoteFrameSequence,
    BinaryChart,
    ms_to_frame,
)
from .errors import EmptyChart, MalformedFile, MultiBpmUnsupported, OverlapError

# Fixed slider velocity that turns a slider's pixel length into its
# duration: 1.4 multiplier at 100 pixels per beat.
SLIDER_VELOCITY = 1.4
PIXELS_PER_BEAT = 100.0

_TYPE_CIRCLE = 1  # bit 0
_TYPE_SLIDER = 2  # bit 1
_TYPE_SPINNER = 8  # bit 3


@dataclass(frozen=True)
class OsuChart:
    """Raw .osu contents we consume besides the objects: audio name and red
    timing points."""

    audio_filename: str
    timing: tuple[tuple[float, float], ...]  # (offset_ms, beat_length_ms)


def _sections(text: str) -> dict[str, list[str]]:
    """Split .osu text into named sections, dropping blanks and comments."""
    out: dict[str, list[str]] = {}
    current: list[str] | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = out.setdefault(line[1:-1], [])
            continue
        if current is not None:
            current.append(line)
    return out


def _classify_circle(hitsound: int) -> NoteClass:
    kat = bool(hitsound & 2) or bool(hitsound & 8)
    big = bool(hitsound & 4)
    if kat:
        return NoteClass.BIG_KAT if big else NoteClass.SMALL_KAT
    return NoteClass.BIG_DON if big else NoteClass.SMALL_DON


_WRITE_HITSOUND = {
    NoteClass.SMALL_DON: 0,
    NoteClass.BIG_DON: 4,
    NoteClass.SMALL_KAT: 8,
    NoteClass.BIG_KAT: 12,
}


def _beat_length_lookup(timing: list[tuple[float, float]]) -> Callable[[float], float]:
    """The beat length at a time: that of the last uninherited timing point
    at or before it, reading the points in file order up to the first one
    after it, or the first point's if none is at or before it. Each lookup
    is a binary search over the running maximum of the offsets."""
    reach = list(itertools.accumulate((offset for offset, _ in timing), max))

    def beat_length_at(t_ms: float) -> float:
        return timing[max(bisect.bisect_right(reach, t_ms) - 1, 0)][1]

    return beat_length_at


def _checked_time(t_ms: float, line: str) -> float:
    """A time that becomes a frame: finite, non-negative and within MAX_SONG_MS."""
    if not (math.isfinite(t_ms) and 0 <= t_ms <= MAX_SONG_MS):
        raise MalformedFile(f"time {t_ms}ms is not a number from 0 to {MAX_SONG_MS}: {line!r}")
    return t_ms


def _parse_hit_object(line: str, beat_length_at: Callable[[float], float]) -> tuple[float, float, NoteClass]:
    """(start_ms, end_ms, class) of one object line. A circle ends where it
    starts; a span must end after it starts."""
    parts = line.split(",")
    if len(parts) < 5:
        raise MalformedFile(f"hit object line too short: {line!r}")
    try:
        t = float(parts[2])
        obj_type = int(parts[3])
        hitsound = int(parts[4])
    except ValueError as exc:
        raise MalformedFile(f"unparsable hit object line: {line!r}") from exc
    _checked_time(t, line)

    if obj_type & _TYPE_SPINNER:
        try:
            end = float(parts[5])
        except (IndexError, ValueError) as exc:
            raise MalformedFile(f"spinner needs an end time: {line!r}") from exc
        cls = NoteClass.DENDEN
    elif obj_type & _TYPE_SLIDER:
        try:  # curve, slides, length; a slide count past the float range overflows
            length, slides = float(parts[7]), int(parts[6])
            end = t + length / (SLIDER_VELOCITY * PIXELS_PER_BEAT) * beat_length_at(t) * slides
        except (IndexError, ValueError, OverflowError) as exc:
            raise MalformedFile(f"slider needs a curve, a slide count and a length: {line!r}") from exc
        cls = NoteClass.DRUMROLL
    elif obj_type & _TYPE_CIRCLE:
        return t, t, _classify_circle(hitsound)
    else:
        raise MalformedFile(f"unknown object type {obj_type}: {line!r}")
    if not end > t:
        raise MalformedFile(f"object at {t}ms ends at {end}ms, not after it starts: {line!r}")
    return t, _checked_time(end, line), cls


def parse_osu(text: str, song_length_ms: int | None = None) -> tuple[NoteFrameSequence, OsuChart]:
    """Parse a .osu chart into a frame-aligned sequence plus raw metadata.

    Circles become Don/Kat classes from their hitsound bits, sliders become
    Drumroll spans, and spinners become Denden spans; spans fill every frame
    from their quantized start to their quantized end inclusive. The output
    covers ``max`` of the last object's frame + 1 and the supplied audio
    length. Objects landing on an occupied frame raise :class:`OverlapError`
    (ranked charts never overlap, and silently resolving would corrupt
    training data).
    """
    sections = _sections(text)
    if "TimingPoints" not in sections:
        raise MalformedFile("missing [TimingPoints] section")
    if "HitObjects" not in sections:
        raise MalformedFile("missing [HitObjects] section")

    audio_filename = ""
    for line in sections.get("General", []):
        key, _, value = line.partition(":")
        if key.strip() == "AudioFilename":
            audio_filename = value.strip()

    timing: list[tuple[float, float]] = []
    for line in sections["TimingPoints"]:
        parts = line.split(",")
        if len(parts) < 2:
            raise MalformedFile(f"unparsable timing point: {line!r}")
        try:
            offset = float(parts[0])
            beat_len = float(parts[1])
        except ValueError as exc:
            raise MalformedFile(f"unparsable timing point: {line!r}") from exc
        if math.isnan(offset):  # unordered, so no binary search over the offsets can place it
            raise MalformedFile(f"timing point offset is not a number: {line!r}")
        if len(parts) >= 7:
            uninherited = parts[6].strip() == "1"
        else:
            uninherited = beat_len > 0  # old format: green points are negative
        if uninherited:
            timing.append((offset, beat_len))
    if not timing:
        raise MalformedFile("no uninherited timing point")

    beat_length_at = _beat_length_lookup(timing)
    objects = [_parse_hit_object(line, beat_length_at) for line in sections["HitObjects"]]
    n_frames = ms_to_frame(max(end for _, end, _ in objects)) + 1 if objects else 0
    if song_length_ms is not None:
        n_frames = max(n_frames, song_length_ms // FRAME_MS)

    frames = np.zeros(n_frames, dtype=np.uint8)
    previous_ms = 0.0
    last = -1  # the last frame of the last object placed
    for start_ms, end_ms, cls in objects:
        if start_ms < previous_ms:
            raise MalformedFile(f"hit objects are not sorted by time: {start_ms}ms after {previous_ms}ms")
        previous_ms = start_ms
        a, b = ms_to_frame(start_ms), ms_to_frame(end_ms)
        # starts are sorted, so an earlier object overlaps this one exactly
        # when the last one placed ends at or after frame a
        if a <= last:
            raise OverlapError(f"object at {start_ms}ms overlaps frames {a}..{b}")
        frames[a : b + 1] = cls
        last = b

    return NoteFrameSequence(frames), OsuChart(audio_filename, tuple(timing))


def _spans(frames: np.ndarray, cls: NoteClass):
    """Yield (first, last) frame indices of each maximal run of cls."""
    idx = np.flatnonzero(frames == int(cls))
    if idx.size == 0:
        return
    breaks = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [idx.size - 1]))
    for s, e in zip(starts, ends):
        yield int(idx[s]), int(idx[e])


def _span_end_ms(b: int) -> int:
    """End time of a span whose last frame is b: mid-frame, so that it lies
    after the span's start even for one frame, and so that slider-length
    arithmetic, off by a rounding error, still floors to frame b."""
    return b * FRAME_MS + FRAME_MS // 2


def _slider_length(duration_ms: float, beat_length: float) -> float:
    """Pixel length of a slider lasting duration_ms, at SLIDER_VELOCITY."""
    return duration_ms * (SLIDER_VELOCITY * PIXELS_PER_BEAT) / beat_length


def valid_bpm(bpm: float) -> bool:
    """Finite and positive, with a finite beat length 60000/bpm and a finite
    length for a slider as long as the longest song. A subnormal BPM is
    positive, but its beat length is infinite; a BPM near the largest float
    gives an infinite slider length."""
    if not (math.isfinite(bpm) and bpm > 0):
        return False
    beat_length = 60000.0 / bpm
    return math.isfinite(beat_length) and math.isfinite(_slider_length(MAX_SONG_MS, beat_length))


def write_osu(chart: NoteFrameSequence, bpm: float, audio_filename: str) -> str:
    """Render a chart as .osu text.

    One uninherited timing point at offset 0 (beat length 60000/bpm). Hits
    become circles at ``frame * 23`` ms. Drumroll runs become standard
    osu! sliders, a straight curve slid once whose pixel length lasts until
    the middle of the run's last frame at SliderMultiplier 1.4. Denden runs
    become spinners that end at the middle of their last frame.
    """
    if len(chart) == 0:
        raise EmptyChart("cannot write a zero-frame chart")
    if not valid_bpm(bpm):
        raise ValueError(f"bpm must be finite and positive with a finite beat length, got {bpm}")
    beat_length = 60000.0 / bpm

    events: list[tuple[int, str]] = []
    f = chart.frames
    for cls in HIT_CLASSES:
        for frame in np.flatnonzero(f == int(cls)):
            t = int(frame) * FRAME_MS
            events.append((t, f"256,192,{t},1,{_WRITE_HITSOUND[cls]},0:0:0:0:"))
    for a, b in _spans(f, NoteClass.DRUMROLL):
        t = a * FRAME_MS
        length = _slider_length(_span_end_ms(b) - t, beat_length)
        events.append((t, f"256,192,{t},2,0,L|320:192,1,{length!r}"))
    for a, b in _spans(f, NoteClass.DENDEN):
        t = a * FRAME_MS
        events.append((t, f"256,192,{t},12,0,{_span_end_ms(b)},0:0:0:0:"))
    events.sort(key=lambda e: e[0])

    lines = [
        "osu file format v14",
        "",
        "[General]",
        f"AudioFilename: {audio_filename}",
        "Mode: 1",
        "",
        "[Difficulty]",
        f"SliderMultiplier:{SLIDER_VELOCITY}",
        "",
        "[TimingPoints]",
        f"0,{beat_length!r},4,1,0,100,1,0",
        "",
        "[HitObjects]",
    ]
    lines.extend(line for _, line in events)
    lines.append("")
    return "\n".join(lines)


def _read_sm_tags(text: str) -> dict[str, list[str]]:
    """Collect #TAG:value; pairs; #NOTES values may repeat."""
    tags: dict[str, list[str]] = {}
    pos = 0
    while True:
        start = text.find("#", pos)
        if start < 0:
            break
        colon = text.find(":", start)
        semi = text.find(";", start)
        if colon < 0 or semi < 0 or colon > semi:
            raise MalformedFile("unterminated #TAG in .sm file")
        tag = text[start + 1 : colon].strip().upper()
        tags.setdefault(tag, []).append(text[colon + 1 : semi])
        pos = semi + 1
    return tags


def parse_sm(text: str) -> BinaryChart:
    """Parse the first #NOTES chart of a .sm file to its discrete-input bit
    sequence. Only the single-BPM 4-panel subset is supported.

    Row r of a measure m with R rows falls at offset + (4m + 4r/R) beats. A
    row containing any of {1, 2, 4} (tap, hold head, roll head) in any
    column contributes a 1 at its quantized frame; hold tails ('3') and
    mines ('M') are ignored. Rows before the audio start (negative time)
    are dropped.
    """
    tags = _read_sm_tags(text)
    if "BPMS" not in tags or "NOTES" not in tags:
        raise MalformedFile("missing #BPMS or #NOTES tag")

    bpm_entries = [e for e in tags["BPMS"][0].replace("\n", "").split(",") if e.strip()]
    if len(bpm_entries) != 1:
        raise MultiBpmUnsupported(f"{len(bpm_entries)} BPM changes; only single-BPM files are supported")
    try:
        bpm = float(bpm_entries[0].split("=")[1])
    except (IndexError, ValueError) as exc:
        raise MalformedFile(f"bad #BPMS entry: {bpm_entries[0]!r}") from exc
    if not valid_bpm(bpm):
        raise MalformedFile(f"BPM must be finite and positive with a finite beat length, got {bpm}")

    offset_s = 0.0
    if "OFFSET" in tags:
        try:
            offset_s = float(tags["OFFSET"][0].strip())
        except ValueError as exc:
            raise MalformedFile("bad #OFFSET value") from exc
        if not math.isfinite(offset_s):
            raise MalformedFile(f"#OFFSET must be finite, got {offset_s}")

    header = tags["NOTES"][0].split(":")
    if len(header) < 6:
        raise MalformedFile("#NOTES block needs 5 header fields")
    measures: list[list[str]] = []
    for measure_text in header[5].split(","):
        rows = []
        for raw in measure_text.splitlines():
            row = raw.strip()
            if not row or row.startswith("//"):
                continue
            if len(row) != 4 or any(ch not in "01234M" for ch in row):
                raise MalformedFile(f"bad note row: {row!r}")
            rows.append(row)
        if rows:
            measures.append(rows)

    beat_ms = 60000.0 / bpm
    offset_ms = offset_s * 1000.0
    chart_end_ms = offset_ms + len(measures) * 4 * beat_ms
    if chart_end_ms > MAX_SONG_MS:
        raise MalformedFile(f".sm chart ends at {chart_end_ms:.0f}ms, after the {MAX_SONG_MS}ms limit")
    n_frames = ms_to_frame(max(chart_end_ms, 0.0)) + 1 if measures else 0

    bits = np.zeros(n_frames, dtype=np.uint8)
    for m, rows in enumerate(measures):
        for r, row in enumerate(rows):
            t = offset_ms + (m * 4 + r * 4 / len(rows)) * beat_ms
            if t >= 0 and any(ch in "124" for ch in row):
                bits[ms_to_frame(t)] = 1
    return BinaryChart(bits)
