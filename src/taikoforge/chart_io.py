"""Parsers and writer for rhythm-game chart files.

Two formats are handled:

* osu!Taiko ``.osu`` — parsed to a frame-aligned :class:`NoteFrameSequence`
  plus raw object metadata, and written back out. The writer/parser pair is
  a strict round trip: every generated chart survives write -> parse
  frame-for-frame.
* StepMania ``.sm`` (single-BPM, 4-panel subset) — parsed straight to a
  :class:`BinaryChart` for cross-game metric comparisons.

Taiko circle hitsound convention (community standard, fixed here so the
round trip is a bijection): Kat iff whistle(2) or clap(8) bit set, Big iff
finish(4) bit set, otherwise a small Don. The writer emits 0 / 4 / 8 / 12
for small Don / big Don / small Kat / big Kat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import (
    FRAME_MS,
    HIT_CLASSES,
    MAX_SONG_MS,
    NoteClass,
    NoteFrameSequence,
    BinaryChart,
    TimeGrid,
    ms_to_frame,
)
from .errors import EmptyChart, MalformedFile, MultiBpmUnsupported, OverlapError

# Fixed slider velocity used when a slider carries no explicit end time:
# 1.4 multiplier at 100 pixels per beat.
SLIDER_VELOCITY = 1.4
PIXELS_PER_BEAT = 100.0

_TYPE_CIRCLE = 1  # bit 0
_TYPE_SLIDER = 2  # bit 1
_TYPE_SPINNER = 8  # bit 3


@dataclass(frozen=True)
class HitObject:
    time_ms: float
    kind: str  # "circle" | "slider" | "spinner"
    hitsound: int
    end_time_ms: float | None = None


@dataclass(frozen=True)
class OsuChart:
    """Raw .osu contents we consume: audio name, red timing points, objects."""

    audio_filename: str
    timing: tuple[tuple[float, float], ...]  # (offset_ms, beat_length_ms)
    hit_objects: tuple[HitObject, ...]

    def __post_init__(self):
        times = [h.time_ms for h in self.hit_objects]
        if any(b < a for a, b in zip(times, times[1:])):
            raise MalformedFile("hit objects are not sorted by time")
        for h in self.hit_objects:
            if h.end_time_ms is not None and h.end_time_ms <= h.time_ms:
                raise MalformedFile(
                    f"object at {h.time_ms}ms ends at {h.end_time_ms}ms, before it starts"
                )


@dataclass(frozen=True)
class SmChart:
    """Single-BPM .sm subset: offset, BPM, and 4-column measure rows."""

    offset_s: float
    bpm: float
    measures: tuple[tuple[str, ...], ...] = field(default_factory=tuple)


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


def _beat_length_at(timing: list[tuple[float, float]], t_ms: float) -> float:
    """Beat length of the last uninherited timing point at or before t_ms."""
    active = timing[0][1]
    for offset, beat_len in timing:
        if offset <= t_ms:
            active = beat_len
        else:
            break
    return active


def _checked_time(t_ms: float, line: str) -> float:
    """A time that becomes a frame: finite, non-negative and within MAX_SONG_MS."""
    if not (math.isfinite(t_ms) and 0 <= t_ms <= MAX_SONG_MS):
        raise MalformedFile(f"time {t_ms}ms is not a number from 0 to {MAX_SONG_MS}: {line!r}")
    return t_ms


def _parse_hit_object(line: str, timing: list[tuple[float, float]]) -> HitObject:
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
        if len(parts) < 6:
            raise MalformedFile(f"spinner missing end time: {line!r}")
        try:
            end = float(parts[5])
        except ValueError as exc:
            raise MalformedFile(f"bad spinner end time: {line!r}") from exc
        return HitObject(t, "spinner", hitsound, _checked_time(end, line))

    if obj_type & _TYPE_SLIDER:
        if len(parts) < 6:
            raise MalformedFile(f"slider missing parameters: {line!r}")
        # Our writer stores the end timestamp directly in the curve slot;
        # real charts put a curve string there, so fall back to length math.
        try:
            end = float(parts[5])
        except ValueError:
            pass
        else:
            return HitObject(t, "slider", hitsound, _checked_time(end, line))
        if len(parts) < 8:
            raise MalformedFile(f"slider missing length: {line!r}")
        try:
            slides = int(parts[6])
            length = float(parts[7])
        except ValueError as exc:
            raise MalformedFile(f"bad slider parameters: {line!r}") from exc
        beat_len = _beat_length_at(timing, t)
        duration = length / (SLIDER_VELOCITY * PIXELS_PER_BEAT) * beat_len * slides
        return HitObject(t, "slider", hitsound, _checked_time(t + duration, line))

    if obj_type & _TYPE_CIRCLE:
        return HitObject(t, "circle", hitsound)

    raise MalformedFile(f"unknown object type {obj_type}: {line!r}")


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
        if len(parts) >= 7:
            uninherited = parts[6].strip() == "1"
        else:
            uninherited = beat_len > 0  # old format: green points are negative
        if uninherited:
            timing.append((offset, beat_len))
    if not timing:
        raise MalformedFile("no uninherited timing point")

    objects = [_parse_hit_object(line, timing) for line in sections["HitObjects"]]
    meta = OsuChart(audio_filename, tuple(timing), tuple(objects))

    last_ms = max((h.end_time_ms if h.end_time_ms is not None else h.time_ms) for h in objects) if objects else 0.0
    n_frames = ms_to_frame(last_ms) + 1 if objects else 0
    if song_length_ms is not None:
        n_frames = max(n_frames, TimeGrid(song_length_ms).frame_count)

    frames = np.zeros(n_frames, dtype=np.uint8)
    claimed = np.zeros(n_frames, dtype=bool)

    def claim(a: int, b: int, cls: NoteClass, t_ms: float):
        if claimed[a : b + 1].any():
            raise OverlapError(f"object at {t_ms}ms overlaps frames {a}..{b}")
        claimed[a : b + 1] = True
        frames[a : b + 1] = int(cls)

    for h in objects:
        start = ms_to_frame(h.time_ms)
        if h.kind == "circle":
            claim(start, start, _classify_circle(h.hitsound), h.time_ms)
        elif h.kind == "slider":
            claim(start, ms_to_frame(h.end_time_ms), NoteClass.DRUMROLL, h.time_ms)
        else:
            claim(start, ms_to_frame(h.end_time_ms), NoteClass.DENDEN, h.time_ms)

    return NoteFrameSequence(frames), meta


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


def _span_end_ms(a: int, b: int) -> int:
    # a one-frame span still needs end > start; mid-frame lands on the
    # same grid cell under floor quantization
    return b * FRAME_MS if b > a else a * FRAME_MS + FRAME_MS // 2


def write_osu(chart: NoteFrameSequence, bpm: float, audio_filename: str) -> str:
    """Render a chart as .osu text.

    One uninherited timing point at offset 0 (beat length 60000/bpm). Hits
    become circles at ``frame * 23`` ms, Drumroll runs become sliders and
    Denden runs spinners, both carrying explicit integer end timestamps so
    that parsing back never depends on slider-velocity arithmetic.
    """
    if len(chart) == 0:
        raise EmptyChart("cannot write a zero-frame chart")
    if bpm <= 0:
        raise ValueError(f"bpm must be positive, got {bpm}")
    beat_length = 60000.0 / bpm

    events: list[tuple[int, str]] = []
    f = chart.frames
    for cls in HIT_CLASSES:
        for frame in np.flatnonzero(f == int(cls)):
            t = int(frame) * FRAME_MS
            events.append((t, f"256,192,{t},1,{_WRITE_HITSOUND[cls]},0:0:0:0:"))
    for a, b in _spans(f, NoteClass.DRUMROLL):
        events.append((a * FRAME_MS, f"256,192,{a * FRAME_MS},2,0,{_span_end_ms(a, b)}"))
    for a, b in _spans(f, NoteClass.DENDEN):
        events.append((a * FRAME_MS, f"256,192,{a * FRAME_MS},12,0,{_span_end_ms(a, b)}"))
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


def read_sm(text: str, difficulty: str | None = None) -> SmChart:
    """Extract offset, the single BPM, and one #NOTES block from .sm text.

    ``difficulty`` selects among multiple #NOTES charts by the difficulty
    class header field (e.g. "Challenge"); the first chart is used when not
    given. Only the single-BPM 4-panel subset is supported.
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
    # a subnormal BPM is positive, but its beat length 60000/bpm is infinite
    if not (math.isfinite(bpm) and bpm > 0 and math.isfinite(60000.0 / bpm)):
        raise MalformedFile(f"BPM must be finite and positive with a finite beat length, got {bpm}")

    offset_s = 0.0
    if "OFFSET" in tags:
        try:
            offset_s = float(tags["OFFSET"][0].strip())
        except ValueError as exc:
            raise MalformedFile("bad #OFFSET value") from exc
        if not math.isfinite(offset_s):
            raise MalformedFile(f"#OFFSET must be finite, got {offset_s}")

    chosen: str | None = None
    for block in tags["NOTES"]:
        header = block.split(":")
        if len(header) < 6:
            raise MalformedFile("#NOTES block needs 5 header fields")
        diff_name = header[2].strip()
        if difficulty is None or diff_name.lower() == difficulty.lower():
            chosen = header[5]
            break
    if chosen is None:
        raise MalformedFile(f"no #NOTES chart with difficulty {difficulty!r}")

    measures: list[tuple[str, ...]] = []
    for measure_text in chosen.split(","):
        rows = []
        for raw in measure_text.splitlines():
            row = raw.strip()
            if not row or row.startswith("//"):
                continue
            if len(row) != 4 or any(ch not in "01234M" for ch in row):
                raise MalformedFile(f"bad note row: {row!r}")
            rows.append(row)
        if rows:
            measures.append(tuple(rows))
    return SmChart(offset_s, bpm, tuple(measures))


def sm_row_times_ms(sm: SmChart) -> list[float]:
    """Timestamp of every row: offset + (measure*4 + row*4/R) beats."""
    beat_ms = 60000.0 / sm.bpm
    out = []
    for m, rows in enumerate(sm.measures):
        r_count = len(rows)
        for r in range(r_count):
            out.append(sm.offset_s * 1000.0 + (m * 4 + r * 4 / r_count) * beat_ms)
    return out


def parse_sm(text: str, difficulty: str | None = None) -> BinaryChart:
    """Parse a .sm chart to its discrete-input bit sequence.

    A row containing any of {1, 2, 4} (tap, hold head, roll head) in any
    column contributes a 1 at its quantized frame; hold tails ('3') and
    mines ('M') are ignored. Rows before the audio start (negative time)
    are dropped.
    """
    sm = read_sm(text, difficulty)
    times = sm_row_times_ms(sm)
    beat_ms = 60000.0 / sm.bpm
    chart_end_ms = sm.offset_s * 1000.0 + len(sm.measures) * 4 * beat_ms
    if chart_end_ms > MAX_SONG_MS:
        raise MalformedFile(f".sm chart ends at {chart_end_ms:.0f}ms, after the {MAX_SONG_MS}ms limit")
    n_frames = ms_to_frame(max(chart_end_ms, 0.0)) + 1 if sm.measures else 0

    bits = np.zeros(n_frames, dtype=np.uint8)
    i = 0
    for rows in sm.measures:
        for row in rows:
            t = times[i]
            i += 1
            if t < 0:
                continue
            if any(ch in "124" for ch in row):
                bits[ms_to_frame(t)] = 1
    return BinaryChart(bits)
