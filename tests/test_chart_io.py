import itertools
import math
import re
import struct
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taikoforge.chart import FRAME_MS, NoteClass, NoteFrameSequence
from taikoforge.chart_io import _beat_length_lookup, parse_osu, parse_sm, valid_bpm, write_osu
from taikoforge.errors import (
    EmptyChart,
    MalformedFile,
    MultiBpmUnsupported,
    OverlapError,
)

from conftest import random_note_frames


def _accepted_edge(accepted: float, rejected: float) -> float:
    """The accepted BPM next to a rejected one, by bisection over the bit
    patterns of the positive floats between them, which sort as the floats do."""
    lo, hi = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (accepted, rejected))
    while abs(hi - lo) > 1:
        mid = (lo + hi) // 2
        if valid_bpm(struct.unpack("<d", struct.pack("<q", mid))[0]):
            lo = mid
        else:
            hi = mid
    return struct.unpack("<d", struct.pack("<q", lo))[0]


#: The smallest and the largest BPM that valid_bpm accepts.
MIN_BPM = _accepted_edge(120.0, 5e-324)
MAX_BPM = _accepted_edge(120.0, sys.float_info.max)


def test_accepted_bpm_range():
    assert MIN_BPM < 1e-300 and MAX_BPM > 1e300
    assert not valid_bpm(math.nextafter(MIN_BPM, 0)) and not valid_bpm(math.nextafter(MAX_BPM, math.inf))


def osu_text(hit_lines, timing="0,500,4,1,0,100,1,0"):
    return "\n".join(
        [
            "osu file format v14",
            "",
            "[General]",
            "AudioFilename: song.wav",
            "",
            "[TimingPoints]",
            timing,
            "",
            "[HitObjects]",
            *hit_lines,
        ]
    )


class TestParseOsu:
    def test_plain_circle_is_small_don(self):
        notes, meta = parse_osu(osu_text(["256,192,2300,1,0,0:0:0:0:"]))
        assert notes[100] == NoteClass.SMALL_DON
        assert meta.audio_filename == "song.wav"

    def test_hitsound_12_is_big_kat(self):
        notes, _ = parse_osu(osu_text(["256,192,2300,1,12,0:0:0:0:"]))
        assert notes[100] == NoteClass.BIG_KAT

    @pytest.mark.parametrize(
        "hitsound,expected",
        [
            (0, NoteClass.SMALL_DON),
            (4, NoteClass.BIG_DON),
            (2, NoteClass.SMALL_KAT),
            (8, NoteClass.SMALL_KAT),
            (10, NoteClass.SMALL_KAT),
            (6, NoteClass.BIG_KAT),
            (12, NoteClass.BIG_KAT),
            (14, NoteClass.BIG_KAT),
        ],
    )
    def test_hitsound_table(self, hitsound, expected):
        notes, _ = parse_osu(osu_text([f"256,192,230,1,{hitsound},0:0:0:0:"]))
        assert notes[10] == expected

    def test_spinner_becomes_denden_span(self):
        notes, _ = parse_osu(osu_text(["256,192,920,12,0,1058"]))
        assert all(notes[f] == NoteClass.DENDEN for f in range(40, 47))
        assert len(notes) == 47

    def test_slider_with_explicit_end(self):
        # an end time in the curve slot is no osu! slider: it has no length
        with pytest.raises(MalformedFile, match="length"):
            parse_osu(osu_text(["256,192,184,2,0,276"]))

    def test_slider_with_curve_uses_velocity_math(self):
        # length 140 at beat_length 500 and velocity 1.4*100 -> 500ms long
        notes, _ = parse_osu(osu_text(["256,192,1000,2,0,B|100:100,1,140"]))
        assert notes[42] == NoteClass.NO_NOTE
        assert notes[43] == NoteClass.DRUMROLL
        assert notes[65] == NoteClass.DRUMROLL
        assert len(notes) == 66

    def test_audio_length_extends_output(self):
        notes, _ = parse_osu(osu_text(["256,192,0,1,0,0:0:0:0:"]), song_length_ms=2300)
        assert len(notes) == 100

    def test_audio_length_alone_sets_frame_count(self):
        for length_ms, frames in [(0, 0), (2299, 99), (2300, 100)]:
            notes, _ = parse_osu(osu_text([]), song_length_ms=length_ms)
            assert len(notes) == frames

    def test_notes_extent_wins_over_short_audio(self):
        notes, _ = parse_osu(osu_text(["256,192,2300,1,0,0:0:0:0:"]), song_length_ms=230)
        assert len(notes) == 101

    def test_overlapping_circles_rejected(self):
        text = osu_text(["256,192,100,1,0,0:0:0:0:", "256,192,110,1,0,0:0:0:0:"])
        with pytest.raises(OverlapError):
            parse_osu(text)

    def test_hit_inside_drumroll_rejected(self):
        # 25.76 px at 140 px per 500 ms beat lasts 92 ms: frames 8..12
        text = osu_text(["256,192,184,2,0,L|320:192,1,25.76", "256,192,230,1,0,0:0:0:0:"])
        with pytest.raises(OverlapError):
            parse_osu(text)

    def test_missing_sections(self):
        with pytest.raises(MalformedFile):
            parse_osu("[HitObjects]\n256,192,0,1,0,")
        with pytest.raises(MalformedFile):
            parse_osu("[TimingPoints]\n0,500,4,1,0,100,1,0")

    def test_unparsable_line(self):
        with pytest.raises(MalformedFile):
            parse_osu(osu_text(["256,192,banana,1,0,0:0:0:0:"]))

    def test_unsorted_objects_rejected(self):
        text = osu_text(["256,192,500,1,0,0:0:0:0:", "256,192,100,1,0,0:0:0:0:"])
        with pytest.raises(MalformedFile):
            parse_osu(text)

    def test_inherited_timing_points_skipped(self):
        text = osu_text(
            ["256,192,1000,2,0,B|100:100,1,140"],
            timing="0,500,4,1,0,100,1,0\n500,-50,4,1,0,100,0,0",
        )
        notes, meta = parse_osu(text)
        assert meta.timing == ((0.0, 500.0),)
        assert notes[43] == NoteClass.DRUMROLL

    @pytest.mark.parametrize(
        "line",
        [
            "256,192,nan,1,0,0:0:0:0:",
            "256,192,-46,1,0,0:0:0:0:",
            "256,192,inf,1,0,0:0:0:0:",
            "256,192,100,2,0,nan",
            "256,192,100,12,0,inf",
            "256,192,100,12,0,nan",
            # spans that do not end after they start
            "256,192,100,2,0,L|320:192,1,0",
            "256,192,100,2,0,L|320:192,1,-14",
            "256,192,100,2,0,L|320:192,0,140",
            "256,192,100,12,0,100,0:0:0:0:",
            "256,192,100,12,0,50,0:0:0:0:",
            pytest.param("256,192,100,2,0,L|320:192,1" + "0" * 400 + ",140", id="slides-past-float-range"),
            pytest.param("256,192,100,12,0", id="spinner-without-end"),
        ],
    )
    def test_bad_times_rejected(self, line):
        with pytest.raises(MalformedFile):
            parse_osu(osu_text([line]))

    def test_unknown_object_type_rejected(self):
        # type 4 is the new-combo bit alone: no circle, slider or spinner
        with pytest.raises(MalformedFile, match="unknown object type 4"):
            parse_osu(osu_text(["256,192,100,4,0,0:0:0:0:"]))

    @pytest.mark.parametrize(
        "timing",
        [
            pytest.param("0", id="one-field"),
            pytest.param("zero,500,4,1,0,100,1,0", id="unparsable-offset"),
            pytest.param("0,fast,4,1,0,100,1,0", id="unparsable-beat-length"),
            pytest.param("nan,500,4,1,0,100,1,0", id="nan-offset"),
            pytest.param("0,500,4,1,0,100,0,0", id="only-inherited"),
            pytest.param("0,-50", id="only-inherited-old-format"),
        ],
    )
    def test_bad_timing_points_rejected(self, timing):
        with pytest.raises(MalformedFile, match="timing point"):
            parse_osu(osu_text(["256,192,230,1,0,0:0:0:0:"], timing=timing))

    def test_old_format_timing_points_mark_inherited_by_sign(self):
        # fewer than 7 fields: a negative beat length is an inherited point
        text = osu_text(["256,192,1000,2,0,B|100:100,1,140"], timing="0,500\n500,-50")
        notes, meta = parse_osu(text)
        assert meta.timing == ((0.0, 500.0),)
        assert notes[43] == NoteClass.DRUMROLL and notes[65] == NoteClass.DRUMROLL and len(notes) == 66

    def test_slider_between_timing_points_takes_the_earlier_beat_length(self):
        # 140 px is one beat: 500 ms before the point at 1000 ms, 250 ms after it
        text = osu_text(
            ["256,192,230,2,0,L|320:192,1,140", "256,192,1150,2,0,L|320:192,1,140"],
            timing="0,500,4,1,0,100,1,0\n1000,250,4,1,0,100,1,0",
        )
        notes, _ = parse_osu(text)
        rolls = np.flatnonzero(notes.frames == NoteClass.DRUMROLL).tolist()
        assert rolls == list(range(10, 32)) + list(range(50, 61))  # 230..730 ms, 1150..1400 ms

    def test_many_timing_points_and_sliders_parse_fast(self):
        # each slider's beat length is a binary search, not a walk from the first point
        n = 20_000
        timing = "\n".join(f"{80 * i},{500 - i % 2 * 100},4,1,0,100,1,0" for i in range(n))
        sliders = [f"256,192,{80 * i + 40},2,0,L|320:192,1,5" for i in range(n)]
        started = time.perf_counter()
        notes, meta = parse_osu(osu_text(sliders, timing=timing))
        elapsed = time.perf_counter() - started
        assert len(meta.timing) == n
        rolls = (notes.frames == NoteClass.DRUMROLL).astype(np.int8)
        assert np.count_nonzero(np.diff(rolls) == 1) == n
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    @pytest.mark.parametrize("line", ["256,192,1e12,1,0,0:0:0:0:", "256,192,100,12,0,1e12"])
    def test_time_past_longest_song_rejected(self, line):
        # checked before the frame arrays are sized (1e12 ms would be 43 G frames)
        with pytest.raises(MalformedFile):
            parse_osu(osu_text([line]))

    def test_non_finite_slider_length_rejected(self):
        with pytest.raises(MalformedFile):
            parse_osu(osu_text(["256,192,100,2,0,B|300:192,1,nan"]))

    def test_crlf_and_comments_tolerated(self):
        text = osu_text(["256,192,230,1,0,0:0:0:0:"]).replace("\n", "\r\n")
        text = "// generated\r\n" + text
        notes, _ = parse_osu(text)
        assert notes[10] == NoteClass.SMALL_DON


class TestWriteOsu:
    def test_small_kat_gets_clap_bit(self):
        chart = NoteFrameSequence(np.array([0, 0, int(NoteClass.SMALL_KAT)], dtype=np.uint8))
        text = write_osu(chart, 120.0, "a.wav")
        assert "256,192,46,1,8,0:0:0:0:" in text

    def test_drumroll_span_slider(self):
        # frames 8..12 last from 184 ms to mid-frame 12 at 287 ms: 103 ms,
        # or 28.84 px at 140 px per 500 ms beat
        frames = np.zeros(13, dtype=np.uint8)
        frames[8:13] = int(NoteClass.DRUMROLL)
        text = write_osu(NoteFrameSequence(frames), 120.0, "a.wav")
        assert "256,192,184,2,0,L|320:192,1,28.84" in text

    @pytest.mark.parametrize("bpm", [0.0, -120.0, float("nan"), float("inf"), 1e-310, 1.7e308])
    def test_bpm_must_be_finite_and_positive(self, bpm):
        chart = NoteFrameSequence(np.array([int(NoteClass.SMALL_DON)], dtype=np.uint8))
        with pytest.raises(ValueError, match="finite and positive"):
            write_osu(chart, bpm, "a.wav")

    def test_empty_chart_rejected(self):
        with pytest.raises(EmptyChart):
            write_osu(NoteFrameSequence(np.array([], dtype=np.uint8)), 120.0, "a.wav")

    def test_single_frame_span_round_trips(self):
        frames = np.zeros(6, dtype=np.uint8)
        frames[2] = int(NoteClass.DRUMROLL)
        frames[4] = int(NoteClass.DENDEN)
        chart = NoteFrameSequence(frames)
        parsed, _ = parse_osu(write_osu(chart, 120.0, "a.wav"), song_length_ms=len(chart) * FRAME_MS)
        assert parsed == chart


@pytest.mark.parametrize("bpm", [60.0, 97.3, 180.0, 300.0])
def test_round_trip_random_charts(bpm):
    rng = np.random.default_rng(int(bpm * 10))
    for _ in range(5):
        chart = random_note_frames(rng, int(rng.integers(60, 400)))
        text = write_osu(chart, bpm, "song.wav")
        parsed, _ = parse_osu(text, song_length_ms=len(chart) * FRAME_MS)
        assert parsed == chart


OBJECT_GRAMMAR = {
    # x,y,time,type,hitSound,hitSample
    "circle": re.compile(r"\d+,\d+,(\d+),1,(0|4|8|12),0:0:0:0:"),
    # x,y,time,type,hitSound,curveType|curvePoints,slides,length
    "slider": re.compile(r"\d+,\d+,(\d+),2,0,L\|\d+:\d+,1,([^,]+)"),
    # x,y,time,type,hitSound,endTime,hitSample
    "spinner": re.compile(r"\d+,\d+,(\d+),12,0,(\d+),0:0:0:0:"),
}


@pytest.mark.parametrize("bpm", [MIN_BPM, 60.0, 97.3, 300.0, MAX_BPM])
def test_written_objects_follow_osu_v14_grammar(bpm):
    chart = random_note_frames(np.random.default_rng(8), 300)
    lines = write_osu(chart, bpm, "song.wav").split("[HitObjects]\n", 1)[1].splitlines()
    kinds = set()
    for line in lines:
        matches = {kind: grammar.fullmatch(line) for kind, grammar in OBJECT_GRAMMAR.items()}
        kind = next((kind for kind, match in matches.items() if match), None)
        assert kind, line
        if kind == "slider":
            assert 0 < float(matches[kind][2]) < math.inf, line
        if kind == "spinner":
            assert int(matches[kind][2]) > int(matches[kind][1]), line
        kinds.add(kind)
    assert kinds == set(OBJECT_GRAMMAR)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.sampled_from([MIN_BPM, MAX_BPM]),
        st.floats(math.log(MIN_BPM), math.log(MAX_BPM)).map(lambda x: min(max(math.exp(x), MIN_BPM), MAX_BPM)),
    ),
    st.integers(0, 2**32 - 1),
)
def test_round_trip_over_every_accepted_bpm_property(bpm, seed):
    chart = random_note_frames(np.random.default_rng(seed), 80)
    parsed, _ = parse_osu(write_osu(chart, bpm, "song.wav"), song_length_ms=len(chart) * FRAME_MS)
    assert parsed == chart


def beat_length_by_walk(timing, t_ms):
    """The reference lookup: walk the points in file order, stopping at
    the first one after t_ms."""
    active = timing[0][1]
    for offset, beat_len in timing:
        if offset <= t_ms:
            active = beat_len
        else:
            break
    return active


#: Offsets and times that often coincide, or any float but NaN.
TIMES = st.one_of(st.integers(-3, 3).map(float), st.floats(allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(TIMES, min_size=1, max_size=12), st.lists(TIMES, min_size=1, max_size=12))
def test_beat_length_lookup_matches_the_walk_property(offsets, times):
    # in any order of points; beat length i marks point i
    timing = [(offset, float(i)) for i, offset in enumerate(offsets)]
    beat_length_at = _beat_length_lookup(timing)
    for t in times:
        assert beat_length_at(t) == beat_length_by_walk(timing, t)


def frames_by_scan(lines):
    """The reference overlap rule: parse each object alone for its frames,
    then place the objects in order, refusing one that lands on a frame an
    earlier one occupies. None for a refused chart."""
    alone = [parse_osu(osu_text([line]))[0].frames for line in lines]
    frames = np.zeros(max(map(len, alone), default=0), dtype=np.uint8)
    for own in alone:
        span = np.flatnonzero(own)
        if frames[span].any():
            return None
        frames[span] = own[span]
    return frames


def object_line(kind, start_tenths, length_tenths):
    """A circle, a spinner or a slider starting at start_tenths / 10 ms; the
    spans last length_tenths / 10 ms, or that many pixels / 10 for a slider."""
    t, length = start_tenths / 10, length_tenths / 10
    return {
        "circle": f"256,192,{t},1,0,0:0:0:0:",
        "spinner": f"256,192,{t},12,0,{(start_tenths + length_tenths) / 10}",
        "slider": f"256,192,{t},2,0,L|320:192,1,{length}",
    }[kind]


#: (kind, tenths of ms after the previous object's start, length): gaps
#: and spans of a few frames, so that about half the charts overlap.
OBJECTS = st.tuples(st.sampled_from(["circle", "spinner", "slider"]), st.integers(0, 1000), st.integers(1, 150))


@settings(max_examples=300, deadline=None)
@given(st.lists(OBJECTS, max_size=6))
def test_overlap_rule_matches_the_occupied_frame_scan_property(objects):
    starts = itertools.accumulate(gap for _, gap, _ in objects)
    lines = [object_line(kind, start, length) for (kind, _, length), start in zip(objects, starts)]
    expected = frames_by_scan(lines)
    if expected is None:
        with pytest.raises(OverlapError, match="overlaps frames"):
            parse_osu(osu_text(lines))
    else:
        assert np.array_equal(parse_osu(osu_text(lines))[0].frames, expected)


def test_round_trip_without_length_when_last_frame_noted():
    rng = np.random.default_rng(5)
    frames = random_note_frames(rng, 120).frames.copy()
    frames[-1] = int(NoteClass.SMALL_DON)
    chart = NoteFrameSequence(frames)
    parsed, _ = parse_osu(write_osu(chart, 144.0, "song.wav"))
    assert parsed == chart


SM_BODY = """#TITLE:fixture;
#OFFSET:0.000;
#BPMS:0.000=120.000;
#NOTES:
     dance-single:
     author:
     Challenge:
     9:
     0.0,0.0,0.0,0.0,0.0:
1000
0000
0200
0000
,
0000
0000
0000
0000
;
"""


class TestParseSm:
    def test_first_row_at_frame_zero(self):
        bits = parse_sm(SM_BODY).bits
        assert bits[0] == 1

    def test_hold_head_lands_at_frame_43(self):
        # row 2 of a 4-row measure at 120 BPM = 1000ms -> floor(1000/23) = 43
        bits = parse_sm(SM_BODY).bits
        assert bits[43] == 1
        assert bits.sum() == 2

    def test_all_zero_measures(self):
        text = SM_BODY.replace("1000", "0000").replace("0200", "0000")
        bits = parse_sm(text).bits
        assert bits.sum() == 0
        assert len(bits) > 0

    def test_tails_and_mines_ignored(self):
        text = SM_BODY.replace("1000", "3000").replace("0200", "0M00")
        assert parse_sm(text).bits.sum() == 0

    def test_roll_head_counts(self):
        text = SM_BODY.replace("0200", "0400")
        assert parse_sm(text).bits[43] == 1

    def test_multi_bpm_rejected(self):
        text = SM_BODY.replace("0.000=120.000", "0.000=120.000,16.000=150.000")
        with pytest.raises(MultiBpmUnsupported):
            parse_sm(text)

    @pytest.mark.parametrize("bpm", ["0.000", "-120.000", "nan", "inf", "1e-310", "fast", ""])
    def test_bad_bpm_rejected(self, bpm):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("0.000=120.000", f"0.000={bpm}"))

    def test_tiny_bpm_past_longest_song_rejected(self):
        # two measures at 1e-6 BPM span ~4.8e11 ms, ~10^10 frames
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("0.000=120.000", "0.000=1e-6"))

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf", "soon"])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("#OFFSET:0.000;", f"#OFFSET:{offset};"))

    def test_bad_row_rejected(self):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("1000", "10009"))
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("1000", "1X00"))

    def test_notes_header_too_short_rejected(self):
        with pytest.raises(MalformedFile, match="5 header fields"):
            parse_sm("#BPMS:0.000=120.000;\n#NOTES:dance-single:a:Hard:1000;")

    def test_missing_notes_tag(self):
        with pytest.raises(MalformedFile):
            parse_sm("#BPMS:0.000=120.000;")

    def test_difficulty_selection(self):
        # the first #NOTES chart is scored, whatever its difficulty
        hard = "#NOTES:\n dance-single:\n a:\n Hard:\n 5:\n 0:\n0000\n1111\n0000\n0000\n;\n"
        assert parse_sm(SM_BODY.rstrip() + "\n" + hard) == parse_sm(SM_BODY)
        head, notes = SM_BODY.split("#NOTES:", 1)
        assert np.flatnonzero(parse_sm(head + hard + "#NOTES:" + notes).bits).tolist() == [21]

    def test_offset_shifts_rows_later(self):
        text = SM_BODY.replace("#OFFSET:0.000;", "#OFFSET:1.000;")
        bits = parse_sm(text).bits
        assert bits[43] == 1  # row 0 at 1000ms
        assert bits[86] == 1  # row 2 at 2000ms

    def test_negative_time_rows_dropped(self):
        text = SM_BODY.replace("#OFFSET:0.000;", "#OFFSET:-0.100;")
        bits = parse_sm(text).bits
        # row 0 at -100ms disappears; row 2 at 900ms survives
        assert bits.sum() == 1
        assert bits[39] == 1

    def test_row_times_strictly_increase(self):
        # rows 125 ms apart at 120 BPM, a tap on each: one bit per row, in row order
        text = SM_BODY.replace("1000\n0000\n0200\n0000\n", "1000\n" * 16)
        assert np.flatnonzero(parse_sm(text).bits).tolist() == [125 * r // FRAME_MS for r in range(16)]


def sm_frame_oracle(measures, bpm: int, offset: Fraction) -> list[int]:
    """Bits of a .sm chart from exact rational row times."""
    beat_ms = Fraction(60000, bpm)
    offset_ms = offset * 1000
    end_ms = offset_ms + 4 * len(measures) * beat_ms
    bits = [0] * (max(end_ms, 0) // FRAME_MS + 1)
    for m, rows in enumerate(measures):
        for r, row in enumerate(rows):
            t = offset_ms + (4 * m + Fraction(4 * r, len(rows))) * beat_ms
            if t >= 0 and set(row) & set("124"):
                bits[t // FRAME_MS] = 1
    return bits


@settings(max_examples=50)
@given(
    st.lists(
        st.sampled_from([1, 2, 4, 8, 16, 32, 64]).flatmap(
            lambda r: st.lists(
                st.sampled_from(["0000", "1000", "0110", "0020", "3000", "000M", "0004"]), min_size=r, max_size=r
            )
        ),
        min_size=1,
        max_size=4,
    ),
    # beat lengths of whole milliseconds, power-of-two row counts and
    # eighth-second offsets keep every float row time exact
    st.sampled_from([60, 75, 80, 96, 100, 120, 125, 150, 160, 200, 240]),
    st.integers(-16, 16),
)
def test_sm_bits_match_frame_oracle_property(measures, bpm, offset_eighths):
    offset = Fraction(offset_eighths, 8)
    text = (
        f"#OFFSET:{float(offset)};\n#BPMS:0.000={bpm};\n"
        "#NOTES:\n dance-single:\n x:\n Challenge:\n 9:\n 0:\n"
        + ",\n".join("\n".join(rows) for rows in measures)
        + "\n;\n"
    )
    assert parse_sm(text).bits.tolist() == sm_frame_oracle(measures, bpm, offset)
