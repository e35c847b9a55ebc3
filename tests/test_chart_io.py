import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taikoforge.chart import FRAME_MS, NoteClass, NoteFrameSequence
from taikoforge.chart_io import (
    SmChart,
    parse_osu,
    parse_sm,
    read_sm,
    sm_row_times_ms,
    write_osu,
)
from taikoforge.errors import (
    EmptyChart,
    MalformedFile,
    MultiBpmUnsupported,
    OverlapError,
)

from conftest import random_note_frames


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
        notes, _ = parse_osu(osu_text(["256,192,184,2,0,276"]))
        assert all(notes[f] == NoteClass.DRUMROLL for f in range(8, 13))
        assert notes[7] == NoteClass.NO_NOTE

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

    def test_notes_extent_wins_over_short_audio(self):
        notes, _ = parse_osu(osu_text(["256,192,2300,1,0,0:0:0:0:"]), song_length_ms=230)
        assert len(notes) == 101

    def test_overlapping_circles_rejected(self):
        text = osu_text(["256,192,100,1,0,0:0:0:0:", "256,192,110,1,0,0:0:0:0:"])
        with pytest.raises(OverlapError):
            parse_osu(text)

    def test_hit_inside_drumroll_rejected(self):
        text = osu_text(["256,192,184,2,0,276", "256,192,230,1,0,0:0:0:0:"])
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
        ],
    )
    def test_bad_times_rejected(self, line):
        with pytest.raises(MalformedFile):
            parse_osu(osu_text([line]))

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
        frames = np.zeros(13, dtype=np.uint8)
        frames[8:13] = int(NoteClass.DRUMROLL)
        text = write_osu(NoteFrameSequence(frames), 120.0, "a.wav")
        assert "256,192,184,2,0,276" in text

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

    @pytest.mark.parametrize("bpm", ["0.000", "-120.000", "nan", "inf", "1e-310"])
    def test_bad_bpm_rejected(self, bpm):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("0.000=120.000", f"0.000={bpm}"))

    def test_tiny_bpm_past_longest_song_rejected(self):
        # two measures at 1e-6 BPM span ~4.8e11 ms, ~10^10 frames
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("0.000=120.000", "0.000=1e-6"))

    @pytest.mark.parametrize("offset", ["nan", "inf", "-inf"])
    def test_non_finite_offset_rejected(self, offset):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("#OFFSET:0.000;", f"#OFFSET:{offset};"))

    def test_bad_row_rejected(self):
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("1000", "10009"))
        with pytest.raises(MalformedFile):
            parse_sm(SM_BODY.replace("1000", "1X00"))

    def test_missing_notes_tag(self):
        with pytest.raises(MalformedFile):
            parse_sm("#BPMS:0.000=120.000;")

    def test_difficulty_selection(self):
        extra = SM_BODY.rstrip() + "\n#NOTES:\n dance-single:\n a:\n Hard:\n 5:\n 0:\n1111\n;\n"
        assert parse_sm(extra, difficulty="Hard").bits[0] == 1
        assert parse_sm(extra, difficulty="Challenge").bits.sum() == 2
        with pytest.raises(MalformedFile):
            parse_sm(extra, difficulty="Beginner")

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
        sm = read_sm(SM_BODY)
        times = sm_row_times_ms(sm)
        assert all(b > a for a, b in zip(times, times[1:]))


@settings(max_examples=25)
@given(
    st.integers(2, 16).flatmap(
        lambda r: st.lists(
            st.lists(st.sampled_from(["0000", "1000", "0110", "000M"]), min_size=r, max_size=r),
            min_size=1,
            max_size=4,
        )
    ),
    st.floats(60.0, 240.0),
)
def test_sm_times_monotone_property(measures, bpm):
    sm = SmChart(0.0, bpm, tuple(tuple(m) for m in measures))
    times = sm_row_times_ms(sm)
    assert all(b > a for a, b in zip(times, times[1:]))
